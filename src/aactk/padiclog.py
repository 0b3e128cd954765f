"""Truncated p-adic arithmetic: valuations and the p-adic logarithm.

Everything works mod p^k for a caller-chosen precision k (default 2,
capped at 8).  Series are accumulated as exact rationals with the
p-power bookkeeping left to Fraction, then reduced mod p^k once at the
end; this avoids valuation mistakes when a series index n carries
factors of p.

Only the rational/integer case v_p(x - 1) >= 1 lives here.  The
fractional-valuation (ramified) case arises for cyclotomic integers and
is exercised through the integral divisibility check in `cyclotomic`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import modmath
from .errors import (
    ComputationBug,
    DivisibilityBug,
    DivisibleBase,
    HypothesisFail,
    NotSmall,
    OutOfRange,
    WrongSign,
    ZeroInput,
)

MAX_PRECISION = 8


def _check_precision(k: int) -> int:
    if not 1 <= k <= MAX_PRECISION:
        raise OutOfRange(f"precision k = {k} outside [1, {MAX_PRECISION}]")
    return k


def vp(x, p: int) -> int:
    """p-adic valuation of a nonzero rational (int or Fraction)."""
    if p < 2 or not modmath.is_prime(p):
        raise OutOfRange(f"p = {p} is not prime")
    x = Fraction(x)
    if x == 0:
        raise ZeroInput("v_p(0) is undefined (= +infinity)")

    def _ival(n: int) -> int:
        v = 0
        while n % p == 0:
            n //= p
            v += 1
        return v

    return _ival(abs(x.numerator)) - _ival(x.denominator)


def _series_length(p: int, k: int) -> int:
    # Smallest N such that v_p(z^n / n) >= k for every n > N when
    # v_p(z) >= 1; uses v_p(n) <= floor(log_p n) and monotonicity of
    # n - log_p(n).
    n = 1
    while True:
        logp = 0
        m = n
        while m >= p:
            m //= p
            logp += 1
        if n - logp >= k:
            return n - 1
        n += 1


def padic_log_1plus(z: int, p, k: int = 2) -> int:
    """log(1 + z) mod p^k for p | z, by the exact truncated series.

    The alternating series sum_{n>=1} (-1)^(n-1) z^n / n is summed as an
    exact rational over enough terms that every omitted term has
    valuation >= k, then reduced once mod p^k.
    """
    p = modmath.as_prime(p)
    k = _check_precision(k)
    pk = p**k
    z %= pk
    if z == 0:
        return 0
    if z % p != 0:
        raise NotSmall(f"v_{p}({z}) = 0; series needs v >= 1")
    total = Fraction(0)
    zn = 1
    for n in range(1, _series_length(p, k) + 1):
        zn *= z
        total += Fraction(zn if n % 2 else -zn, n)
    den = total.denominator
    if den % p == 0:
        raise ComputationBug(f"series denominator {den} is divisible by {p}")
    return total.numerator * pow(den, -1, pk) % pk


def padic_log_unit(a: int, p, k: int = 2) -> int:
    """log_p(a) mod p^k for a unit a, via log_p(a) = log(a^(p-1)) / (p-1).

    Satisfies log_p(a) = -p*F(a) mod p^2 where F is the Fermat quotient,
    and is additive: log_p(ab) = log_p(a) + log_p(b) mod p^k.
    """
    p = modmath.as_prime(p)
    k = _check_precision(k)
    if k < 2:
        raise OutOfRange("padic_log_unit needs k >= 2")
    if a % p == 0:
        raise DivisibleBase(f"gcd({a}, {p}) > 1")
    pk = p**k
    w = (pow(a, p - 1, pk) - 1) % pk
    log_pow = padic_log_1plus(w, p, k)
    return log_pow * pow(p - 1, -1, pk) % pk


def theorem4_check(x: int, p) -> bool:
    """log_p(x) = (x^p - 1)/p mod p^2 for integers x = 1 mod p.

    Both sides are p*t mod p^2 for x = 1 + p*t; mod p both vanish for
    every such x, which would test nothing.  The right side is an exact
    big-integer division, the left the truncated series at precision 2.
    """
    p = modmath.as_prime(p)
    if x % p != 1:
        raise HypothesisFail(f"x = {x} is not 1 mod {p}")
    p2 = p * p
    lhs = padic_log_1plus((x - 1) % p2, p, 2)
    num = x**p - 1
    if num % p:
        raise DivisibilityBug(f"x^p - 1 is not divisible by {p} at x = {x}")
    return lhs == num // p % p2


class OmegaCheck(NamedTuple):
    omega: int
    fq_sum: int
    holds: bool


def omega_from_products(values, target_sign: int, p) -> OmegaCheck:
    """Split prod(values) = target_sign + p*Omega and compare with Fermat quotients.

    For target_sign = -1 the validated relation is Omega = +sum F(v); for
    target_sign = +1 it is Omega = -sum F(v) (mod p).  The sign follows
    from log(-1 + pW) = -pW and log(1 + pW) = +pW mod p^2 together with
    log_p(v) = -p F(v).  The product is taken mod p^2, which fixes
    Omega mod p.
    """
    p = modmath.as_prime(p)
    if target_sign not in (-1, 1):
        raise OutOfRange("target_sign must be +1 or -1")
    values = list(values)
    for v in values:
        if v % p == 0:
            raise DivisibleBase(f"value {v} shares a factor with {p}")
    p2 = p * p
    prod = 1
    for v in values:
        prod = prod * v % p2
    if (prod - target_sign) % p != 0:
        raise WrongSign(
            f"product = {prod % p} mod {p}, expected {target_sign % p}"
        )
    omega = (prod - target_sign) // p % p
    fq_sum = sum(modmath.fermat_quotient_mod(v, p) for v in values) % p
    expected = fq_sum if target_sign == -1 else -fq_sum % p
    return OmegaCheck(omega=omega, fq_sum=fq_sum, holds=omega == expected)
