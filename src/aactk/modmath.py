"""Exact modular arithmetic over an odd prime p.

Quadratic-residue machinery (with require_nonresidue, the non-residue
guard most verifiers share), Fermat quotients, harmonic numbers mod p, the
squarefree test, and the floor-function identities used by the
congruence verifiers.

Conventions:
  * residues are always normalized to [0, m-1]; the reduced residue <x>
    of an integer x coprime to p lies in [1, p-1];
  * R and N are the canonical sets of quadratic residues / non-residues
    in [1, p-1], each of size (p-1)/2;
  * A and B are the products over R and N reduced mod p^2, taken by
    product_mod_p2, an int64 array kernel: one product and one reduction
    mod p^2 per pair for p <= 55103, base-p digit pairs above.  Every
    statement reads them only through A + B mod p^2, and the exact
    products would carry roughly p*log(p) bits.

Every function that takes a prime validates it through as_prime, which
reads it with operator.index: a float or a string is refused, never
truncated.  Its primality check and least_nonresidue are each cached
for the last _PRIME_CACHE_SIZE primes.  primes_to reads one cached tuple
of primes per bit length.  The tables
inverse_table, harmonic_table (int32) and square_flags (bool) share one
cache, _TABLES, bounded by the bytes it holds (see _TableCache).

sqrt_mod takes square roots mod an odd prime q.  Below
_SQRT_TABLE_LIMIT = 2048 it reads sqrt_table(q), a read-only int32 array
mapping each residue mod q to a root or to -1 (none), built once per
prime and kept: the 308 odd primes below the limit hold 289k entries
(1.2 MB) at most.  The limit covers the form sieve of every disc below
4 * 2048^2 = 1.68e7 (it asks for q <= isqrt(disc)//2), so a scan reads
each table once per discriminant in place of an Euler criterion and a
Tonelli-Shanks root.  Above the limit sqrt_mod runs Tonelli-Shanks, with
no table, so one sieve at a large disc builds at most the tables below
the limit (about 0.03 s), not a table for each of its primes.

The three tables of p are read-only numpy arrays: the inverses are the
powers of the least primitive root g of p (_powers) read backwards, H is
the running sum of the inverses, and the residue flags mark the squares
of 1 .. (p-1)/2.  Each is built on its first read, so a caller that
reads only H (the eisenstein scan) never builds the flags.  The entries
of the inverses and of H are below p < 2^31 and are held as int32; the
O(p) sums of the verifiers (floor_inverse_sums, floor_harmonic_sum,
legendre_harmonic_sum) reduce each term mod p and add in int64, where
products of two entries and sums of p of them, all below p^2, fit.  So
the tables refuse p >= 2^31 with OutOfRange before allocating.  numpy is
imported inside the functions that build arrays, so code that never
reads one of them (the gaac, aac and density scans) never loads it.
"""

from __future__ import annotations

import array
import bisect
import itertools
import math
import operator
import random
from collections import Counter, OrderedDict, namedtuple
from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import TYPE_CHECKING

from .errors import (
    DivisibleBase,
    MismatchBug,
    NotInvertible,
    NotNonResidue,
    NotPrime,
    OutOfRange,
    TrivialResidue,
    WrongResidueClass,
)

if TYPE_CHECKING:
    import numpy as np

# The least strong pseudoprime to all these bases is the bound, 3.2 * 10^23.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_BOUND = 318_665_857_834_031_151_167_461
_MR_EXTRA_ROUNDS = 24

# How many primes the per-prime caches keep: as_prime's primality checks
# and least_nonresidue, which nonresidue_factorization asks once per call
# and sqrt_mod once per prime q = 1 mod 4 at or above _SQRT_TABLE_LIMIT.
# Larger than the number of primes q = 1 mod 4 below 8 * 10^4 (3903), so
# every q a reduced_forms call asks for (q <= isqrt(disc)//2) stays cached
# while disc < 2.5 * 10^10, and a verify stream over a few thousand primes
# checks and searches each of them once.
_PRIME_CACHE_SIZE = 4096
# Table entries stay below 2^31 (int32), and their sums of p terms and
# products of two below p^2, inside int64, while p < 2^31.
_TABLE_PRIME_BOUND = 2**31


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test.

    Deterministic for n below ~3.2e23 via the 12-witness set, with bases
    2 and 3 alone below 1373653, the least strong pseudoprime to both;
    larger inputs additionally run 24 pseudorandom rounds seeded by n, so
    the answer is still deterministic per input but carries the usual
    < 4^-24 error caveat.
    """
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    witnesses = [2, 3] if n < 1_373_653 else list(_MR_WITNESSES)
    if n >= _MR_DETERMINISTIC_BOUND:
        rng = random.Random(n)
        witnesses += [rng.randrange(2, n - 1) for _ in range(_MR_EXTRA_ROUNDS)]
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=_PRIME_CACHE_SIZE)
def _check_odd_prime(p: int) -> int:
    if p < 3 or not is_prime(p):
        raise NotPrime(f"{p} is not an odd prime")
    return p


def as_prime(p) -> int:
    """Validate p as an odd prime and return it as an int (NotPrime otherwise).

    p is read with operator.index, so a float or a string raises NotPrime
    instead of being truncated; numpy integers pass.
    """
    try:
        p = operator.index(p)
    except TypeError:
        raise NotPrime(f"{p!r} is not an integer") from None
    return _check_odd_prime(p)


def primes_in(lo: int, hi: int) -> list[int]:
    """All primes in [lo, hi], by sieve.

    Only the window [lo, hi] is sieved, crossing off the multiples of each
    prime q <= isqrt(hi) from the larger of q^2 and the first multiple in
    the window, so memory follows the width of the window rather than hi.
    """
    lo = max(lo, 2)
    if hi < lo:
        return []
    window = bytearray(b"\x01") * (hi - lo + 1)
    for q in primes_in(2, math.isqrt(hi)):
        start = max(q * q, -(-lo // q) * q)
        window[start - lo :: q] = bytes(len(range(start, hi + 1, q)))
    return list(itertools.compress(range(lo, hi + 1), window))


@lru_cache(maxsize=None)
def _primes_to_power_of_two(bits: int) -> tuple[int, ...]:
    """The primes up to 2^bits.  Keyed by bit length, so the cache holds at
    most one tuple per bit length, shared by every bound of that length."""
    return tuple(primes_in(2, 1 << bits))


def primes_to(n: int) -> tuple[int, ...]:
    """The primes up to n: a prefix of the cached tuple for n's bit length."""
    primes = _primes_to_power_of_two(n.bit_length())
    return primes[: bisect.bisect_right(primes, n)]


def legendre(a: int, p) -> int:
    """Legendre symbol (a/p) by Euler's criterion: 0, +1 or -1."""
    p = as_prime(p)
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


# Square roots mod the odd primes below this come from sqrt_table.
_SQRT_TABLE_LIMIT = 2048


@lru_cache(maxsize=_PRIME_CACHE_SIZE)
def least_nonresidue(q: int) -> int:
    """The least quadratic non-residue z >= 2 of the odd prime q, by Euler's
    criterion; q is not checked.  Cached for the last _PRIME_CACHE_SIZE
    primes asked."""
    return next(z for z in itertools.count(2) if pow(z, (q - 1) // 2, q) != 1)


@lru_cache(maxsize=None)
def sqrt_table(q: int) -> memoryview:
    """roots[a] is a root r in [0, (q-1)/2] of r^2 = a (mod q) for a in
    [0, q-1], or -1 when a is a non-residue; q is an odd prime below
    _SQRT_TABLE_LIMIT, not checked.

    Built by squaring 0 .. (q-1)/2, whose squares are the (q+1)/2
    residues (0 among them), each once.  A read-only view of an int32
    array("i") of q entries, kept for every prime asked: sqrt_mod asks
    only below the limit, so the cache holds at most the 289k entries of
    the 308 odd primes there.
    """
    roots = array.array("i", [-1]) * q
    for r in range((q + 1) // 2):
        roots[r * r % q] = r
    return memoryview(roots).toreadonly()


def sqrt_mod(a: int, q: int) -> int | None:
    """A root r in [0, q-1] of r^2 = a (mod q), or None if a is a non-residue.

    q is an odd prime, not checked.  Read from sqrt_table(q) below
    _SQRT_TABLE_LIMIT; above it Tonelli-Shanks with q - 1 = t * 2^e, t odd,
    and z = least_nonresidue(q).
    """
    a %= q
    if q < _SQRT_TABLE_LIMIT:
        r = sqrt_table(q)[a]
        return r if r >= 0 else None
    if pow(a, (q - 1) // 2, q) != 1:  # Euler's criterion; 0 for a = 0
        return None if a else 0
    if q % 4 == 3:
        return pow(a, (q + 1) // 4, q)
    t, e = q - 1, 0
    while t % 2 == 0:
        t, e = t // 2, e + 1
    c, x, r = pow(least_nonresidue(q), t, q), pow(a, t, q), pow(a, (t + 1) // 2, q)
    while x != 1:
        i, y = 0, x
        while y != 1:
            i, y = i + 1, y * y % q
        g = pow(c, 1 << (e - i - 1), q)
        e, c, x, r = i, g * g % q, x * g * g % q, r * g % q
    return r


def require_nonresidue(n: int, p: int) -> None:
    """Raise unless n is a quadratic non-residue mod p in [2, p-1].

    OutOfRange for n outside [2, p-1], NotNonResidue for a residue; n = 1
    is both, so it raises TrivialResidue, an instance of each.
    """
    if n == 1:
        raise TrivialResidue(f"n = 1 is outside [2, {p - 1}] and a quadratic residue")
    if not 2 <= n <= p - 1:
        raise OutOfRange(f"n = {n} outside [2, {p - 1}]")
    if legendre(n, p) != -1:
        raise NotNonResidue(f"{n} is a quadratic residue mod {p}")


def require_1mod4(p) -> int:
    """Validate p as an odd prime = 1 mod 4 and return it as an int."""
    p = as_prime(p)
    if p % 4 != 1:
        raise WrongResidueClass(f"p = {p} is not 1 mod 4")
    return p


def squarefree(n: int) -> bool:
    """True when no prime square divides n (so mu(n) != 0)."""
    if n < 1:
        raise OutOfRange(f"n = {n} must be >= 1")
    if n % 4 == 0:
        return False
    while n % 2 == 0:
        n //= 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return False
        d += 2
    return True


def kronecker(d: int, n: int) -> int:
    """Kronecker symbol (d/n), the full multiplicative extension of Legendre."""
    if n == 0:
        return 1 if d in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if d < 0:
            result = -result
    while n % 2 == 0:
        n //= 2
        if d % 2 == 0:
            return 0
        if d % 8 in (3, 5):
            result = -result
    # n is odd and positive: fall through to the Jacobi recursion.
    d %= n
    while d != 0:
        while d % 2 == 0:
            d //= 2
            if n % 8 in (3, 5):
                result = -result
        d, n = n, d
        if d % 4 == 3 and n % 4 == 3:
            result = -result
        d %= n
    return result if n == 1 else 0


def mod_inverse(a: int, m: int) -> int:
    """Inverse of a mod m, in [1, m-1].  Raises NotInvertible if gcd(a,m) > 1."""
    try:
        return pow(a, -1, m)
    except ValueError:
        raise NotInvertible(f"{a} is not invertible mod {m}") from None


def fermat_quotient(a: int, p) -> tuple[int, int]:
    """Exact Fermat quotient (a^(p-1) - 1)/p and its residue mod p.

    F is additive on products: F(ab) = F(a) + F(b) mod p, and as a map to
    Z/p it depends only on a mod p^2.  The exact integer part grows like
    (p-1)*log2(a) bits; for large lifts prefer fermat_quotient_mod.
    """
    p = as_prime(p)
    if a % p == 0:
        raise DivisibleBase(f"gcd({a}, {p}) > 1")
    exact = (a ** (p - 1) - 1) // p
    return exact, exact % p


def fermat_quotient_mod(a: int, p) -> int:
    """F(a) mod p via one modular exponentiation mod p^2."""
    p = as_prime(p)
    if a % p == 0:
        raise DivisibleBase(f"gcd({a}, {p}) > 1")
    return (pow(a, p - 1, p * p) - 1) // p % p


def _table_prime(p) -> int:
    """as_prime, and OutOfRange from 2^31 up, before any table is allocated."""
    p = as_prime(p)
    if p >= _TABLE_PRIME_BOUND:
        raise OutOfRange(f"p = {p} is not below 2^31, the bound of the int32 tables")
    return p


def _primitive_root(p: int) -> int:
    """The least primitive root of the odd prime p: no g^((p-1)/q) is 1."""
    n, factors, d = p - 1, [], 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return next(
        g for g in itertools.count(2) if all(pow(g, (p - 1) // q, p) != 1 for q in factors)
    )


# The table builds take their int64 steps on blocks of at most this many
# entries (256 KiB), so the temporaries have one size for every p and the
# allocator hands back the same memory each time.  Temporaries of the
# table's own length would grow with every new prime of a scan and fault
# in fresh pages each time.
_BLOCK = 2**15


def _blocks(n: int):
    """The (start, stop) bounds of the blocks of range(n)."""
    return ((i, min(i + _BLOCK, n)) for i in range(0, n, _BLOCK))


def _powers(p: int) -> np.ndarray:
    """pw[k] = g^k mod p for k in [0, p-2], g the least primitive root; int32.

    Doubling: once pw[:k] holds g^0 .. g^(k-1), pw[k:2k] = pw[:k] * g^k
    mod p, so log2(p) array steps fill it.
    """
    import numpy as np

    g = _primitive_root(p)
    pw = np.empty(p - 1, dtype=np.int32)
    pw[0] = 1
    k = 1
    while k < p - 1:
        n = min(k, p - 1 - k)
        gk = pow(g, k, p)
        for i, j in _blocks(n):
            pw[k + i : k + j] = np.multiply(pw[i:j], gk, dtype=np.int64) % p
        k += n
    return pw


# What inverse_table.cache_info() and its siblings return; maxsize and
# currsize count the bytes of the cache they share.
CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


class _TableCache:
    """The tables of the primes read last, least recently read first.

    One dict of tables per prime, keyed by the name of the function that
    built them.  After each build the oldest primes' tables are dropped
    until the cache holds at most budget bytes, but the tables of the
    prime just read always stay, even when they alone are larger.  A
    build may read the other tables of its own prime (harmonic_table
    reads inverse_table): that prime is the newest, so they stay.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.nbytes = 0
        self.bundles: OrderedDict[int, dict[str, np.ndarray]] = OrderedDict()
        self.hits: Counter = Counter()
        self.misses: Counter = Counter()

    def read(self, name: str, p: int, build) -> np.ndarray:
        bundle = self.bundles.setdefault(p, {})
        self.bundles.move_to_end(p)
        table = bundle.get(name)
        if table is not None:
            self.hits[name] += 1
            return table
        self.misses[name] += 1
        table = bundle[name] = build(p)
        table.flags.writeable = False
        self.nbytes += table.nbytes
        while self.nbytes > self.budget and len(self.bundles) > 1:
            _, oldest = self.bundles.popitem(last=False)
            self.nbytes -= sum(t.nbytes for t in oldest.values())
        return table

    def info(self, name: str) -> CacheInfo:
        return CacheInfo(self.hits[name], self.misses[name], self.budget, self.nbytes)

    def clear(self, name: str) -> None:
        """Drop every table built by name and zero its counts."""
        for bundle in self.bundles.values():
            table = bundle.pop(name, None)
            if table is not None:
                self.nbytes -= table.nbytes
        self.hits[name] = self.misses[name] = 0


# Holds a verify stream's working set, 80 primes near 10^4 at 9 bytes per
# residue (about 7.5 MB), and the tables of about 40 primes of a scan
# near 2 * 10^5; with 16 or 32 MiB such a scan drops, frees and faults
# tables back in more often.
_TABLE_CACHE_BYTES = 64 * 2**20
_TABLES = _TableCache(_TABLE_CACHE_BYTES)


def _cached_table(build):
    """build(p) for a prime p below 2^31, made read-only and kept in _TABLES
    under build's name; cache_info() and cache_clear() as lru_cache's."""
    name = build.__name__

    @wraps(build)
    def table(p) -> np.ndarray:
        return _TABLES.read(name, _table_prime(p), build)

    table.cache_info = lambda: _TABLES.info(name)
    table.cache_clear = lambda: _TABLES.clear(name)
    return table


# product_mod_p2 hands its last entries to a Python loop: on arrays this
# short one more halving costs more than the multiplications it saves.
_PRODUCT_TAIL = 256


def product_mod_p2(residues: np.ndarray, p: int) -> int:
    """The product of int64 residues in [0, p^2 - 1], reduced mod p^2; p < 2^31.

    The array is halved pairwise, entry i times entry i + n//2, an odd
    last entry going into a Python accumulator, until _PRODUCT_TAIL
    entries are left for a Python loop.  How a pair is multiplied depends
    on p.

    Direct, for p <= 55103: a*b mod p^2, one product and one reduction.
    The product is at most (p^2 - 1)^2, below 2^63 while p^2 - 1 <=
    isqrt(2^63 - 1) = 3037000499, that is p <= 55108; 55103 is the
    largest prime there, and 55109 the next.

    Base-p digits, above: each residue is held as its two digits (lo, hi),
    both below p.  For a = a0 + p*a1 and b = b0 + p*b1, ab = a0*b0 +
    p*(a0*b1 + a1*b0) mod p^2, so with q, d0 = divmod(a0*b0, p) the
    product's digits are d0 and d1 = (q + a0*b1 + a1*b0) mod p.  Every
    intermediate is below 2p^2 + p: a0*b0 <= (p-1)^2, q < p and
    q + a0*b1 + a1*b0 <= p - 1 + 2(p-1)^2.  For p <= 2^31 - 1,
    2p^2 + p = 2^63 - 2^33 + 2^31 + 1 at most, below 2^63, so int64 never
    overflows; larger p raise OutOfRange.
    """
    import numpy as np

    if p >= _TABLE_PRIME_BOUND:
        raise OutOfRange(f"p = {p} is not below 2^31, the bound of the int64 product")
    p2 = p * p
    acc = 1
    if (p2 - 1) ** 2 < 2**63:
        x = residues
        while x.size > _PRODUCT_TAIL:
            h = x.size // 2
            if x.size % 2:
                acc = acc * int(x[-1]) % p2
            x = x[:h] * x[h : 2 * h] % p2
    else:
        hi, lo = np.divmod(residues, p)
        while lo.size > _PRODUCT_TAIL:
            h = lo.size // 2
            if lo.size % 2:
                acc = acc * int(lo[-1] + p * hi[-1]) % p2
            a0, a1, b0, b1 = lo[:h], hi[:h], lo[h : 2 * h], hi[h : 2 * h]
            q, lo = np.divmod(a0 * b0, p)
            hi = (q + a0 * b1 + a1 * b0) % p
        x = lo + p * hi
    for r in x.tolist():
        acc = acc * r % p2
    return acc


def integer_array(values) -> np.ndarray:
    """The integers of the sequence values as an int64 array, converted in
    one pass by array("q"), or as an object array of Python ints when one of
    them does not fit in int64.  A value that is not an integer (a float,
    say) raises TypeError instead of being truncated; numpy never infers
    the dtype."""
    import numpy as np

    try:
        return np.frombuffer(array.array("q", values), np.int64)
    except OverflowError:
        return np.array(list(map(operator.index, values)), dtype=object)


@_cached_table
def inverse_table(p: int) -> np.ndarray:
    """inv[k] = k^-1 mod p for k in [1, p-1], with inv[0] = 0; int32.

    The powers of g read backwards: g^-k = g^(p-1-k), so
    inv[pw[k]] = pw[-k mod (p-1)].
    """
    import numpy as np

    pw = _powers(p)
    inv = np.zeros(p, dtype=np.int32)
    inv[1] = 1
    for i, j in _blocks(p - 2):
        inv[pw[1 + i : 1 + j]] = pw[p - 2 - i : p - 2 - j : -1]
    return inv


@_cached_table
def harmonic_table(p: int) -> np.ndarray:
    """H[k] = sum_{j<=k} 1/j mod p for k in [0, p-1], with H[0] = 0; int32.

    The running sum of inverse_table in int64, one block at a time, the
    reduced sum of the blocks before carried in: every partial sum stays
    below p * (_BLOCK + 1).
    """
    import numpy as np

    inv = inverse_table(p)
    h = np.empty(p, dtype=np.int32)
    carry = 0
    for i, j in _blocks(p):
        h[i:j] = (inv[i:j].cumsum(dtype=np.int64) + carry) % p
        carry = int(h[j - 1])
    return h


def harmonic_mod(k: int, p) -> int:
    """H_k = sum_{j<=k} 1/j mod p, with H_0 = 0.  Needs 0 <= k <= p-1."""
    p = as_prime(p)
    if not 0 <= k <= p - 1:
        raise OutOfRange(f"harmonic index {k} outside [0, {p - 1}]")
    return int(harmonic_table(p)[k])


@dataclass(frozen=True)
class ResidueSets:
    """The canonical residue/non-residue sets of p and their products mod p^2.

    qr and nqr partition [1, p-1]; A = prod(qr) mod p^2 and
    B = prod(nqr) mod p^2, which satisfy A = -1 and B = 1 mod p when
    p = 1 mod 4.  A + B is divisible by p, and (A + B)/p mod p equals the
    same quotient of the exact products.  qr and nqr are read from
    square_flags(p) on each access.
    """

    p: int
    A: int
    B: int

    @property
    def qr(self) -> tuple[int, ...]:
        return tuple(square_flags(self.p).nonzero()[0].tolist())

    @property
    def nqr(self) -> tuple[int, ...]:
        return tuple((~square_flags(self.p)).nonzero()[0][1:].tolist())


@_cached_table
def square_flags(p: int) -> np.ndarray:
    """flags[a] is True when a in [1, p-1] is a quadratic residue mod p.

    The residues are the squares of 1 .. (p-1)/2, as a and p - a have the
    same square; a^2 < 2^60 for p < 2^31.
    """
    import numpy as np

    flags = np.zeros(p, dtype=bool)
    roots = np.arange(1, (p + 1) // 2)
    flags[roots * roots % p] = True
    return flags


def residue_sets(p) -> ResidueSets:
    """Quadratic residue and non-residue sets with their products A, B mod p^2."""
    p = require_1mod4(p)
    flags = square_flags(p)
    return ResidueSets(
        p=p,
        A=product_mod_p2(flags.nonzero()[0], p),
        B=product_mod_p2((~flags).nonzero()[0][1:], p),
    )


def legendre_harmonic_sum(p) -> int:
    """sum_{k=1}^{p-1} k^-1 (k/p) mod p; vanishes for p = 1 mod 4."""
    p = require_1mod4(p)
    inv = inverse_table(p)
    over_r = inv.sum(dtype="int64", where=square_flags(p))
    return (2 * int(over_r) - int(inv.sum(dtype="int64"))) % p


def floor_inverse_sums(m: int, p) -> tuple[int, int]:
    """sum floor(mk/p)/k mod p over the residues k in [1, p-1], then over
    the non-residues, for 1 <= m <= p-1."""
    import numpy as np

    p = _table_prime(p)
    if not 1 <= m <= p - 1:
        raise OutOfRange(f"m = {m} outside [1, {p - 1}]")
    inv = inverse_table(p)
    terms = np.arange(p) * m // p * inv % p
    over_r = int(terms @ square_flags(p))
    return over_r % p, (int(terms.sum()) - over_r) % p


def floor_harmonic_sum(m: int, p) -> int:
    """sum_{j=1}^{m-1} H_floor(pj/m) mod p, for 1 <= m <= p-1."""
    import numpy as np

    p = _table_prime(p)
    if not 1 <= m <= p - 1:
        raise OutOfRange(f"m = {m} outside [1, {p - 1}]")
    h = harmonic_table(p)
    return int(h[np.arange(p, p * m, p) // m].sum(dtype=np.int64)) % p


def floor_jump_set(m: int, p) -> frozenset[int]:
    """The k in [1, p-1] where floor(mk/p) - floor(m(k-1)/p) equals 1.

    For 1 <= m <= p-1 the difference is always 0 or 1, and the jump
    positions are exactly { floor(p*l/m) + 1 : l = 1 .. m-1 }.
    """
    p = as_prime(p)
    if not 1 <= m <= p - 1:
        raise OutOfRange(f"m = {m} outside [1, {p - 1}]")
    jumps = set()
    prev = 0
    for k in range(1, p):
        cur = m * k // p
        if cur - prev == 1:
            jumps.add(k)
        prev = cur
    return frozenset(jumps)


def lifted_floor_diff(M: int, k: int, p) -> int:
    """floor(Mk/p) - floor(M(k-1)/p), checked two ways.

    Computes the plain difference and the decomposition
    floor(M/p) + floor(mk/p) - floor(m(k-1)/p) with m = M mod p
    independently; they must agree for 1 <= k <= p-1.
    """
    p = as_prime(p)
    if M <= 0 or M % p == 0:
        raise OutOfRange(f"M = {M} must be positive and coprime-reduced mod {p}")
    if not 1 <= k <= p - 1:
        raise OutOfRange(f"k = {k} outside [1, {p - 1}]")
    direct = M * k // p - M * (k - 1) // p
    m = M % p
    decomposed = M // p + m * k // p - m * (k - 1) // p
    if direct != decomposed:
        raise MismatchBug(
            f"floor-difference identity broke at M={M}, k={k}, p={p}"
        )
    return direct


def complementary_floor_identity(p, q: int, k: int) -> bool:
    """floor(pk/q) + floor(p(q-k)/q) == p - 1 for 1 <= k <= q-1, gcd(p,q)=1."""
    p = as_prime(p)
    if not 1 <= q < p:
        raise OutOfRange(f"q = {q} outside [1, {p - 1}]")
    if math.gcd(p, q) != 1:
        raise OutOfRange(f"gcd({p}, {q}) != 1")
    if not 1 <= k <= q - 1:
        raise OutOfRange(f"k = {k} outside [1, {q - 1}]")
    return p * k // q + p * (q - k) // q == p - 1


def wilson_binomial_check(p, j: int) -> bool:
    """(1/p) C(p,j) = (-1)^(j-1) / j mod p, with the binomial exact."""
    p = as_prime(p)
    if not 1 <= j <= p - 1:
        raise OutOfRange(f"j = {j} outside [1, {p - 1}]")
    binom = math.comb(p, j)
    if binom % p != 0:
        raise MismatchBug(f"p does not divide C({p},{j})")
    lhs = binom // p % p
    rhs = (-1) ** (j - 1) * mod_inverse(j, p) % p
    return lhs == rhs
