"""Divisibility checks for v1 * h(4D) mod D over odd nonsquare D.

For each odd nonsquare D >= 3 the verdict records the least Pell
solution's v1 mod D, the form class number h(4D), the product mod D, and
whether v1 * h(4D) is nonzero mod D.  One continued-fraction walk of
discriminant 4D gives v1 and is shared with quadfield.class_number_4D:
for D = 3 mod 4 that is the cycle count form_class_number(4D), and for
D = 1 mod 4 the conductor-2 class number formula
h(4D) = h(D) * (2 - (D/2)) / k from the cycles of discriminant D, where
k in {1, 3} reads the parity of the unit of D, and that unit to the
power k must equal the walk's unit of 4D exactly (ComputationBug
otherwise).  The three known odd failures below 10^8 all fail through
v1 = 0 mod D:

    1817 = 23*79,  209991 = 3*69997,  1752299 = 41*79*541.

Even D are outside the conjecture's scope and are rejected by
gaac_check; the range scan over odd nonsquare D lives in aactk.scan.

The module also counts n with n^2 - 1 squarefree: a residue-marking
sieve over any range [lo, hi] (exact; the density scan counts each of
its blocks with it), and a Mobius inclusion-exclusion mode that follows
the sieve-lemma proof shape and is exact once the prime cutoff z reaches
sqrt(x+1).  The per-n test `squarefree` (from modmath) is kept as their
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from . import modmath, quadfield
from .errors import EvenD, NotSquarefree, OutOfRange
from .modmath import squarefree


@dataclass(frozen=True)
class GaacVerdict:
    D: int
    v1_mod_D: int
    h4D: int
    product_mod_D: int
    holds: bool

    def to_record(self) -> dict:
        return {
            "D": self.D,
            "v1_mod_D": self.v1_mod_D,
            "h4D": self.h4D,
            "holds": self.holds,
        }


def gaac_check(D: int) -> GaacVerdict:
    """Verdict for one odd nonsquare D >= 3; holds iff v1*h(4D) != 0 mod D."""
    if D < 3:
        raise OutOfRange(f"D = {D} must be >= 3")
    if D % 2 == 0:
        raise EvenD(f"D = {D} is even; the divisibility claim is for odd D")
    quadfield.require_nonsquare(D)
    unit = quadfield.unit_of_discriminant(4 * D)  # one walk for v1 and h(4D)'s check
    v1_mod = quadfield.pell_from_unit(D, unit).v1 % D
    h4d = quadfield.class_number_4D(D, unit)
    product = v1_mod * (h4d % D) % D
    return GaacVerdict(
        D=D,
        v1_mod_D=v1_mod,
        h4D=h4d,
        product_mod_D=product,
        holds=product != 0,
    )


KNOWN_ODD_FAILURES = (1817, 209991, 1752299)


def reproduce_counterexamples() -> list[GaacVerdict]:
    """Verdicts for the three known odd failures; all have v1 = 0 mod D."""
    return [gaac_check(D) for D in KNOWN_ODD_FAILURES]


# The prime cutoff z of the partial density constant that count_squarefree_n2m1
# reports and the density scan's summary prints.
PARTIAL_PRODUCT_Z = 1000


@dataclass(frozen=True)
class SieveCount:
    """Exact count of n <= x with n^2 - 1 squarefree, plus the partial density constant."""

    x: int
    count: int
    partial_constant: float


@lru_cache(maxsize=8)
def partial_density_constant(z: int) -> float:
    """A_z = prod_{p <= z} (1 - 2/p^2); tends to ~0.32263 as z grows (cached)."""
    out = 1.0
    for p in modmath.primes_in(2, z):
        out *= 1 - 2 / (p * p)
    return out


def count_squarefree_n2m1_in(lo: int, hi: int) -> int:
    """Count n in [lo, hi] with n^2 - 1 squarefree, by residue marking.

    p^2 | n^2 - 1 forces n = +-1 mod p^2 for odd p (p^2 cannot split
    across n-1 and n+1), and 4 | n^2 - 1 exactly for odd n; marking those
    classes for every odd prime with p^2 <= hi + 1 gives the exact count.
    Needs lo >= 2: at n = 1, n^2 - 1 = 0 is not squarefree under any
    convention.
    """
    if lo < 2:
        raise OutOfRange(f"lo = {lo} must be >= 2")
    size = hi - lo + 1
    if size <= 0:
        return 0
    bad = bytearray(size)  # bad[i] marks n = lo + i
    odd = (lo | 1) - lo
    bad[odd::2] = b"\x01" * len(range(odd, size, 2))
    for p in modmath.primes_to(math.isqrt(hi + 1))[1:]:
        p2 = p * p
        for r in (1, p2 - 1):
            first = (r - lo) % p2
            if p2 < size:
                bad[first::p2] = b"\x01" * len(range(first, size, p2))
            elif first < size:
                bad[first] = 1  # p^2 >= size: the class holds at most one n of the block
    return bad.count(0)


def count_squarefree_n2m1(x: int) -> SieveCount:
    """Count n in [2, x] with n^2 - 1 squarefree (see count_squarefree_n2m1_in)."""
    if x < 2:
        raise OutOfRange(f"x = {x} must be >= 2")
    return SieveCount(
        x=x,
        count=count_squarefree_n2m1_in(2, x),
        partial_constant=partial_density_constant(PARTIAL_PRODUCT_Z),
    )


def count_squarefree_n2m1_inclusion_exclusion(x: int, z: int) -> int:
    """The same count via Mobius inclusion-exclusion over z-smooth square moduli.

    Sums mu(d) * #{2 <= n <= x : d^2 | n^2 - 1} over squarefree d < x
    composed of primes <= z, enumerating the 2^omega(d) square roots of 1
    mod d^2 by CRT.  Exact whenever z >= sqrt(x + 1); smaller z gives the
    truncated value from the proof of the density lemma.
    """
    if x < 2:
        raise OutOfRange(f"x = {x} must be >= 2")
    primes = [p for p in modmath.primes_in(2, z) if p < x]
    total = 0

    def descend(idx: int, d: int, mu: int, r: int, m: int) -> None:
        # Invariant: the branch counts n = r (mod m) with m = d^2.
        nonlocal total
        if d == 1:
            cnt = x - 1
        else:
            first = r if r >= 2 else r + m
            cnt = (x - first) // m + 1 if first <= x else 0
        total += mu * cnt
        for i in range(idx, len(primes)):
            p = primes[i]
            if d * p >= x:
                break  # d^2 > x^2 - 1: no n left on any deeper branch
            p2 = p * p
            for root in (1, 3) if p == 2 else (1, p2 - 1):
                if m == 1:
                    nr, nm = root, p2
                else:
                    nr = (r + (root - r) * pow(m, -1, p2) % p2 * m) % (m * p2)
                    nm = m * p2
                descend(i + 1, d * p, -mu, nr, nm)

    descend(0, 1, 1, 0, 1)
    return total


def n2m1_family_check(n: int) -> bool:
    """For squarefree D = n^2 - 1: the least Pell solution is (n, 1) and
    the divisibility check holds (v1 = 1 cannot vanish mod D).

    The squarefree hypothesis silently forces n even and D odd, since
    every odd n >= 3 gives 8 | n^2 - 1; NotSquarefree is raised for all
    other n.
    """
    if n < 2:
        raise OutOfRange(f"n = {n} must be >= 2")
    D = n * n - 1
    if not squarefree(D):
        raise NotSquarefree(f"n^2 - 1 = {D} is not squarefree")
    pell = quadfield.pell_min_solution(D)
    return (pell.u1, pell.v1) == (n, 1) and gaac_check(D).holds
