"""Real quadratic fields at desk scale.

Continued fractions of sqrt(D), fundamental units of Q(sqrt(p)) in the
(t + u*sqrt(p))/2 normalization, least Pell solutions, regulators, and
class numbers by two independent routes:

  * class_number_dirichlet: the analytic formula with L(1,chi) evaluated
    by the exact finite log-sine sum (fundamental discriminants only);
  * form_class_number: cycles of reduced indefinite primitive binary
    quadratic forms under the rho operator (any positive nonsquare
    discriminant, proper/SL2 equivalence).

The reduced forms (a, b, c) of discriminant disc have |a| and |c| in the
window ceil((s+1-b)/2) .. floor((s+b)/2), s = isqrt(disc), and both lie
in it or neither does, because (sqrt(disc)-b)(sqrt(disc)+b) = 4|a||c|.
reduced_forms therefore needs only the divisors of each (disc - b^2)/4
that fall in the window, and reads them off a factorization from a
smallest-prime-factor table: a module-level array built on first use and
grown by doubling, 4 bytes per integer up to the largest disc/4 seen,
capped at 2^22 entries (16 MiB); larger cofactors are split by trial
division over the table's primes.

Both return the number of proper form classes; for every discriminant
whose fundamental unit has norm -1 (in particular every prime
p = 1 mod 4) this coincides with the ideal class number of Q(sqrt(p)).

All integer work is exact; logarithms of huge units are taken from the
bit length plus a 64-bit mantissa correction, good to ~1e-15 relative.
"""

from __future__ import annotations

import math
import os
from array import array
from dataclasses import dataclass
from functools import lru_cache

import mpmath

from . import modmath
from .errors import (
    BadDiscriminant,
    ComputationBug,
    OutOfRange,
    PerfectSquare,
    PrecisionLoss,
)

_LN2 = math.log(2)
_MANTISSA_BITS = 64


@dataclass(frozen=True)
class CFExpansion:
    """Periodic continued fraction of sqrt(D): a0 then the repeating block."""

    D: int
    a0: int
    period: tuple[int, ...]


@dataclass(frozen=True)
class FundamentalUnit:
    """eps = (t + u*sqrt(p))/2 with t, u > 0 minimal and t^2 - p u^2 = 4*norm_sign."""

    p: int
    t: int
    u: int
    norm_sign: int


@dataclass(frozen=True)
class PellSolution:
    """Least positive (u1, v1) with u1^2 - D v1^2 = 1."""

    D: int
    u1: int
    v1: int


@dataclass(frozen=True)
class QuadForm:
    """Primitive integral binary quadratic form a x^2 + b xy + c y^2."""

    a: int
    b: int
    c: int

    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c


def _require_nonsquare(D: int) -> int:
    if D < 2:
        raise OutOfRange(f"D = {D} must be >= 2")
    s = math.isqrt(D)
    if s * s == D:
        raise PerfectSquare(f"D = {D} is a perfect square")
    return s


def cf_sqrt(D: int) -> CFExpansion:
    """Continued fraction of sqrt(D) by the exact PQa recurrence."""
    a0 = _require_nonsquare(D)
    period = []
    P, Q = a0, D - a0 * a0
    start = (P, Q)
    while True:
        a = (a0 + P) // Q
        period.append(a)
        P = a * Q - P
        Q = (D - P * P) // Q
        if (P, Q) == start:
            break
    return CFExpansion(D=D, a0=a0, period=tuple(period))


def _first_period_convergent(D: int) -> tuple[int, int, int]:
    """(h, k, l): the convergent at the end of the first period of sqrt(D).

    l is the period length and h^2 - D k^2 = (-1)^l.
    """
    cf = cf_sqrt(D)
    h_prev, h = 1, cf.a0
    k_prev, k = 0, 1
    for a in cf.period[:-1]:
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev
    return h, k, len(cf.period)


def pell_min_solution(D: int) -> PellSolution:
    """Least solution of u^2 - D v^2 = 1, from the continued fraction.

    When the first-period convergent has norm -1 (odd period) the
    solution is its square.
    """
    _require_nonsquare(D)
    h, k, ell = _first_period_convergent(D)
    if ell % 2 == 0:
        return PellSolution(D=D, u1=h, v1=k)
    return PellSolution(D=D, u1=h * h + D * k * k, v1=2 * h * k)


def _icbrt(n: int) -> int:
    """Floor integer cube root."""
    if n < 0:
        raise OutOfRange("negative argument")
    if n == 0:
        return 0
    x = 1 << ((n.bit_length() + 2) // 3 + 1)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            break
        x = y
    while x * x * x > n:
        x -= 1
    return x


def _unit_with_norm4(D: int) -> tuple[int, int, int]:
    """Minimal (t, u, norm) with t^2 - D u^2 = 4*norm for squarefree D = 1 mod 4.

    The minimal solution of x^2 - D y^2 = +-1 gives the fundamental unit
    of Z[sqrt(D)]; the fundamental unit of the maximal order is either
    that (t = 2x, u = 2y) or, when the unit index is 3, a half-integral
    cube root with t, u odd.  The cube root is found exactly: its u
    coordinate is the unique positive root of D u^3 + 3*norm*u = 2 y1.
    """
    x1, y1, ell = _first_period_convergent(D)
    nsign = -1 if ell % 2 else 1
    target = 2 * y1
    c = _icbrt(target // D)
    for u in range(max(1, c - 2), c + 4):
        if u % 2 == 0:
            continue
        if D * u**3 + 3 * nsign * u != target:
            continue
        tt = D * u * u + 4 * nsign
        t = math.isqrt(tt)
        if t * t != tt or t % 2 == 0:
            continue
        if t * (D * u * u + nsign) == 2 * x1:
            return t, u, nsign
    return 2 * x1, 2 * y1, nsign


def fundamental_unit(p) -> FundamentalUnit:
    """Fundamental unit eps = (t + u*sqrt(p))/2 of Q(sqrt(p)), p prime = 1 mod 4.

    Found from the continued fraction of sqrt(p), descending to the
    half-integral (t, u odd) unit when one exists.  For these p the norm
    is always -1.
    """
    p = modmath.require_1mod4(p)
    t, u, nsign = _unit_with_norm4(p)
    return FundamentalUnit(p=p, t=t, u=u, norm_sign=nsign)


def _ln_big(n: int) -> float:
    """Natural log of a positive big integer from bit length + mantissa."""
    if n <= 0:
        raise OutOfRange("log of non-positive integer")
    bits = n.bit_length()
    if bits <= 512:
        return math.log(n)
    top = n >> (bits - _MANTISSA_BITS)
    return math.log(top) + (bits - _MANTISSA_BITS) * _LN2


def _ln_half_quad(a: int, b: int, d: int) -> float:
    """log((a + b*sqrt(d))/2) for integers a, b > 0, to ~1e-15 relative."""
    shift = _MANTISSA_BITS
    n = (a << shift) + math.isqrt(d * (b << shift) ** 2)
    return _ln_big(n) - shift * _LN2 - _LN2


def regulator(unit: FundamentalUnit | PellSolution) -> float:
    """log(eps) for a fundamental unit, or log(u1 + v1*sqrt(D)) for a Pell solution."""
    if isinstance(unit, FundamentalUnit):
        if unit.u <= 0 or unit.t <= 0:
            raise OutOfRange("degenerate unit")
        return _ln_half_quad(unit.t, unit.u, unit.p)
    if isinstance(unit, PellSolution):
        if unit.v1 <= 0 or unit.u1 <= 0:
            raise OutOfRange("degenerate Pell solution")
        return _ln_half_quad(2 * unit.u1, 2 * unit.v1, unit.D)
    raise TypeError(f"unsupported unit type {type(unit)!r}")


def is_fundamental_discriminant(d: int) -> bool:
    """True for positive fundamental discriminants of real quadratic fields."""
    if d <= 1:
        return False
    if d % 4 == 1:
        return modmath.squarefree(d)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and modmath.squarefree(m)
    return False


def _unit_of_discriminant(d: int) -> tuple[int, int, int]:
    """(a, b, norm) with eps_d = (a + b*sqrt(d))/2 fundamental for discriminant d."""
    if d % 4 == 1:
        return _unit_with_norm4(d)
    D = d // 4
    x1, y1, ell = _first_period_convergent(D)
    nsign = -1 if ell % 2 else 1
    return 2 * x1, y1, nsign


# The least mpmath precision above a double's 53 bits: with fewer digits the
# extended-precision retry would be coarser than the float sum it retries.
_MIN_DPS = 16


def _default_dps() -> int:
    """AACTK_DPS, default 50; OutOfRange unless it is an integer >= 16."""
    text = os.environ.get("AACTK_DPS", "50")
    if not text.strip().isdecimal() or int(text) < _MIN_DPS:
        raise OutOfRange(f"AACTK_DPS = {text!r} is not an integer >= {_MIN_DPS}")
    return int(text)


def _chi_half(d: int) -> list[int]:
    """chi(a) = (d/a) for 0 <= a < d/2.

    For a prime d = 1 mod 4 reciprocity gives (d/a) = (a/d), read off
    the squares mod d: -1 is a square, so r and d - r are residues
    together.  Other d take one kronecker call per a.
    """
    half = (d - 1) // 2
    if d % 4 != 1 or not modmath.is_prime(d):
        return [modmath.kronecker(d, a) for a in range(half + 1)]
    chi = [-1] * (half + 1)
    chi[0] = 0
    for b in range(1, half + 1):
        r = b * b % d
        chi[r if r <= half else d - r] = 1
    return chi


def _lsum_float(d: int) -> float:
    total = 0.0
    for a, chi in enumerate(_chi_half(d)):
        if chi:
            total += chi * math.log(math.sin(math.pi * a / d))
    return 2 * total


def _lsum_mpmath(d: int, dps: int):
    with mpmath.workdps(dps):
        total = mpmath.mpf(0)
        pi = +mpmath.pi
        for a, chi in enumerate(_chi_half(d)):
            if chi:
                total += chi * mpmath.log(mpmath.sin(pi * a / d))
        return float(2 * total)


def class_number_dirichlet(d: int) -> int:
    """Class number of forms of discriminant d by the analytic formula.

    Uses the exact finite evaluation
        L(1,chi) = -(1/sqrt(d)) * sum_{a=1}^{d-1} chi(a) log sin(pi a / d),
    summed over a < d/2 and doubled (chi is even for d > 0, and the sine
    is symmetric about d/2), and divides sqrt(d)*L(1,chi) by the
    regulator of the totally positive fundamental unit (2 log eps_d when
    eps_d has norm -1, as it does for every prime p = 1 mod 4).  Rounds to the nearest integer and demands
    a rounding distance < 0.25, retrying once in software extended
    precision before raising PrecisionLoss.
    """
    if not is_fundamental_discriminant(d):
        raise BadDiscriminant(f"{d} is not a positive fundamental discriminant")
    a, b, nsign = _unit_of_discriminant(d)
    log_eps = _ln_half_quad(a, b, d)
    log_plus = 2 * log_eps if nsign == -1 else log_eps

    def _round_strict(lsum: float) -> int | None:
        h_real = -lsum / log_plus
        h = round(h_real)
        if abs(h_real - h) >= 0.25 or h < 1:
            return None
        return h

    h = _round_strict(_lsum_float(d))
    if h is None:
        h = _round_strict(_lsum_mpmath(d, _default_dps()))
        if h is None:
            raise PrecisionLoss(f"d = {d}: analytic class number failed to round")
    return h


def l_series_estimate(d: int, terms: int | None = None) -> tuple[float, float]:
    """Truncated Dirichlet series for L(1,chi) with an explicit tail bound.

    Cross-check estimator only: returns (sum_{n<=terms} chi(n)/n, bound)
    where the partial-summation tail is at most max|S(x)| / terms and
    |S(x)| <= d trivially.
    """
    if not is_fundamental_discriminant(d):
        raise BadDiscriminant(f"{d} is not a positive fundamental discriminant")
    if terms is None:
        terms = 200 * d
    total = 0.0
    for n in range(1, terms + 1):
        chi = modmath.kronecker(d, n)
        if chi:
            total += chi / n
    return total, d / terms


def _is_reduced(a: int, b: int, disc: int) -> bool:
    # 0 < b < sqrt(disc) and sqrt(disc) - b < 2|a| < sqrt(disc) + b,
    # decided exactly (disc is nonsquare, so no ties).
    if b <= 0 or b * b >= disc:
        return False
    two_a = 2 * abs(a)
    if (two_a + b) ** 2 <= disc:
        return False
    if two_a > b and (two_a - b) ** 2 >= disc:
        return False
    return True


# _spf[n] is the smallest prime factor of n, for 2 <= n < len(_spf).  Built
# on first use and grown by doubling to the largest n asked for, up to
# _SPF_CAP entries (4 bytes each: 16 MiB at the cap).
_SPF_CAP = 1 << 22
_spf = array("I")


def _spf_table(limit: int) -> array:
    """The smallest-prime-factor table, grown to cover n <= limit if the cap allows."""
    global _spf
    if limit < len(_spf) or len(_spf) >= _SPF_CAP:
        return _spf
    size = max(len(_spf), 1024)
    while size <= limit:
        size *= 2
    size = min(size, _SPF_CAP)
    spf = array("I", range(size))
    # larger primes first, so each entry ends on its smallest prime factor
    for p in reversed(modmath.primes_in(2, math.isqrt(size - 1))):
        spf[p * p :: p] = array("I", [p]) * len(range(p * p, size, p))
    _spf = spf
    return spf


def _factor(n: int, spf: array) -> list[tuple[int, int]]:
    """Prime factorization [(p, e), ...] of n >= 1, ascending, using the table spf.

    A cofactor at or above len(spf) is split by trial division over the
    table's primes (then over all integers, past the table) until it
    drops into the table or is shown prime.
    """
    factors = []
    size = len(spf)
    q = 2
    while n >= size:
        if q * q > n:
            return factors + [(n, 1)]
        if q >= size or spf[q] == q:
            e = 0
            while n % q == 0:
                n //= q
                e += 1
            if e:
                factors.append((q, e))
        q += 1
    while n > 1:
        q = spf[n]
        n //= q
        e = 1
        while n % q == 0:
            n //= q
            e += 1
        factors.append((q, e))
    return factors


def _divisors_in(n: int, lo: int, hi: int, spf: array) -> list[int]:
    """The divisors d of n >= 1 with lo <= d <= hi, ascending."""
    divs = [1]
    for q, e in _factor(n, spf):
        step = divs
        bound = hi // q
        for _ in range(e):
            step = [d * q for d in step if d <= bound]
            divs += step
    found = [d for d in divs if d >= lo]
    found.sort()
    return found


def reduced_forms(disc: int) -> list[QuadForm]:
    """All reduced primitive indefinite forms of positive nonsquare discriminant.

    (a, b, c) is reduced when 0 < b < sqrt(disc) and
    sqrt(disc) - b < 2|a| < sqrt(disc) + b.  With s = isqrt(disc) and
    disc nonsquare this is exactly ceil((s+1-b)/2) <= |a| <= floor((s+b)/2),
    and since (sqrt(disc) - b)(sqrt(disc) + b) = 4|a||c|, |a| lies in that
    window exactly when |c| does.  So for each b, with n = (disc - b^2)/4,
    the forms are the divisor pairs (d, n/d) of n with d <= sqrt(n) in the
    window.  The divisors of n come from its factorization through a
    smallest-prime-factor table (4 bytes per integer up to the largest
    disc/4 seen, at most 16 MiB), about sqrt(disc)*d(n) lookups per disc
    instead of trial division by every i <= sqrt(n).  Each form found is
    still checked with _is_reduced, and kept only if primitive.  Forms
    come in order of b, then of the smaller divisor, |a| before |c|, and
    a > 0 before a < 0.
    """
    if disc <= 0 or disc % 4 not in (0, 1):
        raise BadDiscriminant(f"{disc} is not a discriminant (need 0 or 1 mod 4)")
    s = math.isqrt(disc)
    if s * s == disc:
        raise BadDiscriminant(f"{disc} is a perfect square")
    spf = _spf_table(disc // 4)
    forms = []
    for b in range(2 if disc % 2 == 0 else 1, s + 1, 2):
        n = (disc - b * b) // 4
        hi = min((s + b) // 2, math.isqrt(n))
        for d in _divisors_in(n, (s + 2 - b) // 2, hi, spf):
            for aa in (d,) if d * d == n else (d, n // d):
                if not _is_reduced(aa, b, disc):
                    raise ComputationBug(f"disc = {disc}: ({aa}, {b}) is not reduced")
                c = n // aa
                if math.gcd(aa, b, c) == 1:
                    forms += (QuadForm(aa, b, -c), QuadForm(-aa, b, c))
    return forms


def _rho(form: tuple[int, int, int], disc: int, s: int) -> tuple[int, int, int]:
    """Reduction-cycle step: (a,b,c) -> (c, b', (b'^2-disc)/(4c))."""
    _, b, c = form
    b2 = s - (s + b) % (2 * abs(c))
    return c, b2, (b2 * b2 - disc) // (4 * c)


def form_class_number(disc: int) -> int:
    """Number of rho-cycles of reduced forms = proper form class number h(disc).

    The reduced forms come from reduced_forms (see there for the window
    bound and the factor table); the cycles are walked on (a, b, c) tuples.
    """
    remaining = {(f.a, f.b, f.c) for f in reduced_forms(disc)}
    s = math.isqrt(disc)
    cycles = 0
    while remaining:
        start = remaining.pop()
        cycles += 1
        f = _rho(start, disc, s)
        while f != start:
            remaining.discard(f)
            f = _rho(f, disc, s)
    return cycles


@lru_cache(maxsize=None)
def class_number(p: int) -> int:
    """Class number h of Q(sqrt(p)) for prime p = 1 mod 4 (cached)."""
    p = modmath.require_1mod4(p)
    return class_number_dirichlet(p)


def class_number_bound_check(p) -> bool:
    """h < p for the class number of Q(sqrt(p))."""
    p = modmath.as_prime(p)
    return class_number(p) < p
