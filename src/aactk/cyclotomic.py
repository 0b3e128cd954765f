"""Exact arithmetic in Z[zeta_p] and the Gauss-sum machinery built on it.

A cyclotomic integer is stored on the power basis {1, zeta, ...,
zeta^(p-2)} as a length-(p-1) coefficient vector; every occurrence of
zeta^(p-1) is eliminated through 1 + zeta + ... + zeta^(p-1) = 0, so
equality is coefficientwise.  Exact arithmetic has one implementation
of each step: _poly_mul is the schoolbook convolution over Z (desk-scale
p keeps dense vectors fast), _reduce the fold of (exponent, coefficient)
pairs onto the power basis that from_powers, cyc_mul and apply_G return
through, and _power the square-and-multiply loop behind cyc_pow and
f_poly's (1 + ... + x^(n-1))^p.

Where only the residues mod p are read (Lemma 6), cyc_pow_mod_p instead
works in F_p[x]/(x^p - 1), packing the p residues into one integer so
that each multiply is a single big-integer product.  It keeps its own
loop and its fused (d[i] - top) % p tail: cyc_pow is its test oracle, so
the two must not share a loop, and a Lemma 6 sweep over p <= 50 ran
about 10% slower with its tail folded through _reduce.

The group ring element G = sum_j (j/p) sigma_j acts linearly through the
Galois automorphisms sigma_a : zeta -> zeta^a.  The Gauss sum
tau = sum_k (k/p) zeta^k satisfies tau^2 = p exactly when p = 1 mod 4,
which is asserted here as an identity of integer vectors, never through
floats; the only floating-point code is the unit-identity check, which
fixes zeta = exp(2*pi*i/p) (making tau the positive square root).  It
works in mpmath, which it imports itself, so no other code loads it.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass

from . import modmath, quadfield
from .errors import (
    DivisibilityBug,
    ModulusMismatch,
    OutOfRange,
    ToleranceExceeded,
)


@dataclass(frozen=True)
class CycInt:
    """Element of Z[zeta_p] on the power basis, reduced mod the p-th cyclotomic polynomial."""

    p: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.p - 1:
            raise OutOfRange(
                f"need {self.p - 1} coefficients, got {len(self.coeffs)}"
            )

    @classmethod
    def zero(cls, p: int) -> "CycInt":
        return cls(p=p, coeffs=(0,) * (p - 1))

    @classmethod
    def one(cls, p: int) -> "CycInt":
        return cls.from_powers(p, {0: 1})

    @classmethod
    def from_powers(cls, p: int, powers: dict[int, int]) -> "CycInt":
        """Build sum coeff * zeta^power with arbitrary exponents (folded mod p)."""
        return _reduce(powers.items(), p)

    def __add__(self, other: "CycInt") -> "CycInt":
        _same_p(self, other)
        return CycInt(self.p, tuple(x + y for x, y in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CycInt") -> "CycInt":
        _same_p(self, other)
        return CycInt(self.p, tuple(x - y for x, y in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other):
        if isinstance(other, int):
            return CycInt(self.p, tuple(other * x for x in self.coeffs))
        return cyc_mul(self, other)

    __rmul__ = __mul__


def _same_p(x, y) -> None:
    if x.p != y.p:
        raise ModulusMismatch(f"mixed moduli {x.p} and {y.p}")


def _poly_mul(a, b) -> list[int]:
    """Schoolbook product of two coefficient sequences, skipping zeros."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def _reduce(terms, p: int) -> CycInt:
    """sum c * zeta^e over (e, c) pairs on the power basis: fold e mod p
    (zeta^p = 1), then remove zeta^(p-1) = -(1 + ... + zeta^(p-2))."""
    d = [0] * p
    for e, c in terms:
        d[e % p] += c
    top = d[p - 1]
    return CycInt(p=p, coeffs=tuple(d[i] - top for i in range(p - 1)))


def _power(x, e: int, mul, one):
    """x^e by square-and-multiply over the bits of e, high to low."""
    if e < 0:
        raise OutOfRange("negative exponent")
    if e == 0:
        return one
    result = x
    for bit in bin(e)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, x)
    return result


def cyc_mul(x: CycInt, y: CycInt) -> CycInt:
    """Exact product, schoolbook convolution folded by zeta^p = 1."""
    _same_p(x, y)
    return _reduce(enumerate(_poly_mul(x.coeffs, y.coeffs)), x.p)


def cyc_pow(x: CycInt, e: int) -> CycInt:
    return _power(x, e, cyc_mul, CycInt.one(x.p))


def cyc_pow_mod_p(x: CycInt, e: int) -> tuple[int, ...]:
    """Power-basis coefficients of x^e, each reduced into [0, p).

    Works in F_p[x]/(x^p - 1), which maps onto Z[zeta]/(p) = F_p[x]/Phi_p
    because reducing coefficients mod p is a ring map and Phi_p divides
    x^p - 1; so the result equals cyc_pow(x, e) reduced coefficientwise.
    The p residues travel packed into one integer, W bits per slot
    (Kronecker substitution), and each multiply is one big-integer
    product, the fold x^p = 1 as (z & M) + (z >> pW), and one pass of
    v % p.  A folded slot is a sum of at most p products of residues, so
    it stays below p*(p-1)^2 and no slot carries into the next: W = 32
    (array "I") while p*(p-1)^2 < 2^32 (p <= 1626), W = 64 (array "Q")
    while it is below 2^64 (p <= 2642245).  Larger p raises OutOfRange
    before anything p-sized is allocated.
    """
    if e < 0:
        raise OutOfRange("negative exponent")
    p = x.p
    slot_max = p * (p - 1) ** 2
    for typecode in ("I", "Q"):
        if slot_max >> (8 * array(typecode).itemsize) == 0:
            break
    else:
        raise OutOfRange(f"p = {p}: p*(p-1)^2 = {slot_max} does not fit a 64-bit slot")
    nbytes = p * array(typecode).itemsize
    shift = 8 * nbytes
    mask = (1 << shift) - 1
    # array holds native byte order; the packing is little-endian, slot i
    # at bit i*W, so that the integer product is the polynomial product.
    swap = sys.byteorder == "big"

    def pack(residues) -> int:
        slots = array(typecode, residues)
        if swap:
            slots.byteswap()
        return int.from_bytes(slots.tobytes(), "little")

    def unpack(z: int) -> list[int]:
        slots = array(typecode, z.to_bytes(nbytes, "little"))
        if swap:
            slots.byteswap()
        return [v % p for v in slots]

    def mul(a: int, b: int) -> int:
        z = a * b
        return pack(unpack((z & mask) + (z >> shift)))

    if e == 0:
        d = [1] + [0] * (p - 1)
    else:
        base = result = pack([c % p for c in x.coeffs] + [0])
        for bit in bin(e)[3:]:
            result = mul(result, result)
            if bit == "1":
                result = mul(result, base)
        d = unpack(result)
    top = d[p - 1]
    return tuple((d[i] - top) % p for i in range(p - 1))


@dataclass(frozen=True)
class GroupRingElt:
    """Integer combination sum_a weights[a] * sigma_a over a in (Z/pZ)^x."""

    p: int
    weights: tuple[int, ...]  # index a-1 holds the weight of sigma_a

    @classmethod
    def from_map(cls, p: int, wmap: dict[int, int]) -> "GroupRingElt":
        w = [0] * (p - 1)
        for a, c in wmap.items():
            a %= p
            if a == 0:
                raise OutOfRange("sigma_0 does not exist")
            w[a - 1] += c
        return cls(p=p, weights=tuple(w))

    def __neg__(self) -> "GroupRingElt":
        return GroupRingElt(p=self.p, weights=tuple(-w for w in self.weights))


def gauss_element(p) -> GroupRingElt:
    """G = sum_j (j/p) sigma_j."""
    p = modmath.as_prime(p)
    return GroupRingElt.from_map(p, {j: modmath.legendre(j, p) for j in range(1, p)})


def twisted_gauss_element(n: int, p) -> GroupRingElt:
    """sum_j (j/p) sigma_(nj), the reindexing that equals -G for non-residues n."""
    p = modmath.as_prime(p)
    return GroupRingElt.from_map(p, {n * j: modmath.legendre(j, p) for j in range(1, p)})


def gauss_sum(p) -> CycInt:
    """tau = sum_k (k/p) zeta^k, exactly; tau^2 = p for p = 1 mod 4."""
    p = modmath.require_1mod4(p)
    return CycInt.from_powers(p, {k: modmath.legendre(k, p) for k in range(1, p)})


def apply_G(x: CycInt, g: GroupRingElt) -> CycInt:
    """Linear group-ring action: sigma_a sends zeta^j to zeta^(aj)."""
    _same_p(x, g)
    terms = (
        (a * i, w * ci)
        for a, w in enumerate(g.weights, 1) if w
        for i, ci in enumerate(x.coeffs) if ci
    )
    return _reduce(terms, x.p)


@dataclass(frozen=True)
class FpPoly:
    """Polynomial over F_p with trailing zeros trimmed."""

    p: int
    coeffs: tuple[int, ...]

    @classmethod
    def from_list(cls, p: int, raw) -> "FpPoly":
        c = [x % p for x in raw]
        while c and c[-1] == 0:
            c.pop()
        return cls(p=p, coeffs=tuple(c))

    def degree(self) -> int:
        return len(self.coeffs) - 1


def f_poly(n: int, p) -> FpPoly:
    """((1 + x + ... + x^(n-1))^p - sum_k x^(kp)) / p, reduced mod p.

    The power is taken exactly over Z; divisibility of every coefficient
    by p is itself a checked invariant (DivisibilityBug on failure).
    """
    p = modmath.as_prime(p)
    modmath.require_nonresidue(n, p)
    num = _power([1] * n, p, _poly_mul, [1])
    for k in range(n):
        num[k * p] -= 1
    for i, c in enumerate(num):
        if c % p:
            raise DivisibilityBug(f"coefficient of x^{i} not divisible by {p}")
    return FpPoly.from_list(p, [c // p for c in num])


def lemma7_rhs(n: int, p) -> FpPoly:
    """The double-sum expansion that must match f_poly coefficientwise.

    -sum_{k=1}^{p-1} sum_{nk+pj < pn} (1/k) x^(nk+pj)
      + sum_{k=1}^{p-1} sum_{j=0}^{n-1} ((j+1)/k) x^(k+pj)   over F_p.
    """
    p = modmath.as_prime(p)
    modmath.require_nonresidue(n, p)
    coeffs = [0] * (n * p)
    for k in range(1, p):
        ik = pow(k, -1, p)
        for e in range(n * k, n * p, p):
            coeffs[e] -= ik
        for j in range(n):
            coeffs[k + p * j] += (j + 1) * ik
    return FpPoly.from_list(p, coeffs)


def lemma6_check(n: int, j: int, p) -> bool:
    """(gamma - n)^(p-1) = 0 mod p in Z[zeta], gamma = sum_{k<n} zeta^(jk).

    This is the integral form of the fractional valuation bound
    v_p(gamma/n - 1) >= 1/(p-1): every power-basis coefficient of the
    power must be divisible by p.  Only those residues are read, so the
    power is taken by cyc_pow_mod_p in F_p[x]/(x^p - 1); reduction mod p
    and the projection onto F_p[x]/Phi_p are ring maps, so the residues
    are those of the exact power over Z (cyc_pow, kept as the test
    oracle).  The slot bound of cyc_pow_mod_p limits p to 2642245.
    """
    p = modmath.as_prime(p)
    modmath.require_nonresidue(n, p)
    if not 1 <= j <= p - 1:
        raise OutOfRange(f"j = {j} outside [1, {p - 1}]")
    powers = {j * k % p: 1 for k in range(n)}  # gamma; the k = 0 term is zeta^0
    powers[0] -= n
    return not any(cyc_pow_mod_p(CycInt.from_powers(p, powers), p - 1))


def unit_identity_check(p, n: int, tol: float = 1e-8) -> bool:
    """Float check of the two unit product identities at zeta = exp(2*pi*i/p).

      eps^(2h) = prod_j (1 - zeta^j)^(-(j/p))
      eps^(4h) = prod_j ((zeta^(nj) - 1) / (n (zeta^j - 1)))^((j/p))

    with eps the fundamental unit and h the class number of Q(sqrt(p)).
    The working precision is the digit count of eps^(4h), the larger
    side, plus 50: 50 + ceil(4h log10(eps)) decimal digits, so rounding
    leaves each deviation near 10^-50 however large the unit.  Returns
    True when both hold within tol; raises ToleranceExceeded otherwise.
    """
    import mpmath

    p = modmath.require_1mod4(p)
    modmath.require_nonresidue(n, p)
    unit = quadfield.fundamental_unit(p)
    h = quadfield.class_number(p)
    dps = 50 + math.ceil(4 * h * quadfield.regulator(unit) / math.log(10))
    with mpmath.workdps(dps):
        eps = (unit.t + unit.u * mpmath.sqrt(p)) / 2
        zeta = [mpmath.exp(2j * mpmath.pi * j / p) for j in range(p)]
        chi = [0] + [modmath.legendre(j, p) for j in range(1, p)]

        prod8 = mpmath.mpc(1)
        prod9 = mpmath.mpc(1)
        for j in range(1, p):
            prod8 *= (1 - zeta[j]) ** (-chi[j])
            alpha = (zeta[n * j % p] - 1) / (n * (zeta[j] - 1))
            prod9 *= alpha ** chi[j]
        err8 = abs(eps ** (2 * h) - prod8)
        err9 = abs(eps ** (4 * h) - prod9)
        if err8 >= tol or err9 >= tol:
            raise ToleranceExceeded(
                f"p={p}, n={n}: deviations {float(err8):.3g}, {float(err9):.3g} "
                f"exceed {tol:.3g}"
            )
    return True
