import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from aactk import congruences, modmath
from aactk.errors import (
    DivisibleBase,
    NotInvertible,
    NotPrime,
    OutOfRange,
    WrongResidueClass,
)

PRIMES_1MOD4_SMALL = [5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97]
ODD_PRIMES_SMALL = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def brute_legendre(a, p):
    """Independent oracle: membership in the set of squares mod p."""
    a %= p
    if a == 0:
        return 0
    return 1 if a in {x * x % p for x in range(1, p)} else -1


def reference_inverse_table(p):
    """The one-pass recurrence: p = (p // k) * k + p mod k gives
    k^-1 = -(p // k) * (p mod k)^-1 mod p, and p mod k < k."""
    inv = [0, 1] + [0] * (p - 2)
    for k in range(2, p):
        inv[k] = (p - p // k) * inv[p % k] % p
    return inv


def reference_harmonic_table(inv, p):
    """The running sum of the inverses, each partial sum reduced mod p."""
    return [s % p for s in itertools.accumulate(inv)]


def reference_square_flags(p):
    """Mark a^2 mod p for a in [1, (p-1)/2], one byte per residue."""
    flags = bytearray(p)
    for a in range(1, (p + 1) // 2):
        flags[a * a % p] = 1
    return bytes(flags)


def egcd(a, b):
    if b == 0:
        return a, 1, 0
    g, x, y = egcd(b, a % b)
    return g, y, x - (a // b) * y


class TestPrimality:
    def test_against_sympy_small(self):
        for n in range(0, 3000):
            assert modmath.is_prime(n) == sympy.isprime(n), n

    def test_carmichael_numbers_rejected(self):
        for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265):
            assert not modmath.is_prime(n)

    def test_large_primes(self):
        assert modmath.is_prime(2**61 - 1)
        assert not modmath.is_prime(2**61 + 1)
        # beyond the deterministic witness bound
        assert modmath.is_prime(2**89 - 1)
        assert not modmath.is_prime((2**61 - 1) * (2**89 - 1))

    def test_strong_pseudoprimes_rejected(self):
        # 1373653 is a strong pseudoprime to bases 2 and 3, and
        # 318665857834031151167461 to every prime base up to 37
        assert not modmath.is_prime(1_373_653)
        assert not modmath.is_prime(318_665_857_834_031_151_167_461)

    def test_prime_modulus_validation(self):
        with pytest.raises(NotPrime):
            modmath.as_prime(15)
        with pytest.raises(NotPrime):
            modmath.as_prime(2)
        # read exactly, never truncated to 13
        for bad in (13.9, 13.0, "13"):
            with pytest.raises(NotPrime, match="13"):
                modmath.as_prime(bad)
        p = modmath.as_prime(np.int64(13))
        assert p == 13 and type(p) is int
        with pytest.raises(NotPrime):
            congruences.verify_aac(13.9)

    def test_primes_in(self):
        assert modmath.primes_in(5, 20) == [5, 7, 11, 13, 17, 19]
        assert modmath.primes_in(10, 3) == []
        assert modmath.primes_in(3, 2) == []
        assert modmath.primes_in(-5, 10) == [2, 3, 5, 7]
        assert modmath.primes_in(0, 2) == modmath.primes_in(1, 2) == [2]
        assert modmath.primes_in(2, 2) == [2]
        assert modmath.primes_in(-3, 1) == []
        assert modmath.primes_in(97, 97) == [97]
        assert modmath.primes_in(91, 91) == []
        for lo, hi in ((0, 500), (89, 97), (90, 96), (400, 420), (2, 3), (7, 48), (49, 2401), (50, 2500)):
            assert modmath.primes_in(lo, hi) == [n for n in range(lo, hi + 1) if modmath.is_prime(n)]
        small = [n for n in range(200) if modmath.is_prime(n)]
        for lo in range(-2, 60):
            for hi in range(lo - 1, 200):
                assert modmath.primes_in(lo, hi) == [n for n in small if lo <= n <= hi], (lo, hi)
        for n in range(-1, 300):
            assert list(modmath.primes_to(n)) == modmath.primes_in(2, n), n

    def test_primes_in_a_high_window_sieves_only_the_window(self):
        import tracemalloc

        lo, hi = 10**9, 10**9 + 10**4
        tracemalloc.start()
        try:
            primes = modmath.primes_in(lo, hi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert primes == [n for n in range(lo, hi + 1) if modmath.is_prime(n)]
        assert peak < 2**20


class TestLegendre:
    def test_anchors(self):
        assert modmath.legendre(1, 5) == 1
        assert modmath.legendre(2, 5) == -1
        assert modmath.legendre(3, 13) == 1

    def test_against_brute_force(self):
        for p in ODD_PRIMES_SMALL:
            for a in range(0, 2 * p):
                assert modmath.legendre(a, p) == brute_legendre(a, p), (a, p)

    def test_sum_vanishes_all_p_to_1000(self):
        for p in modmath.primes_in(3, 1000):
            assert sum(modmath.legendre(a, p) for a in range(1, p)) == 0, p

    @given(
        st.sampled_from(ODD_PRIMES_SMALL),
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=1, max_value=10**6),
    )
    def test_multiplicative(self, p, a, b):
        assert modmath.legendre(a * b, p) == modmath.legendre(a, p) * modmath.legendre(b, p)


class TestSqrtMod:
    def test_against_brute_force_below_3000(self):
        # every residue of every odd prime q < 3000: read from the table
        # below 2048, Tonelli-Shanks above, where q = 1 mod 8 (the loop
        # with e >= 3, as at 2081) is included
        for q in modmath.primes_in(3, 2999):
            squares = {x * x % q for x in range(q)}
            roots = [modmath.sqrt_mod(a, q) for a in range(q)]
            assert [r is not None for r in roots] == [a in squares for a in range(q)], q
            assert all(r is None or (0 <= r < q and r * r % q == a) for a, r in enumerate(roots)), q

    def test_reduces_its_argument(self):
        assert modmath.sqrt_mod(4 * 10**6 + 1, 5) in (1, 4)
        assert modmath.sqrt_mod(-1, 13) in (5, 8)
        assert modmath.sqrt_mod(-1, 7) is None
        assert modmath.sqrt_mod(-1, 2089) in (
            x for x in range(2089) if x * x % 2089 == 2088
        )

    def test_nonresidue_searched_once_per_prime(self):
        # least_nonresidue serves Tonelli-Shanks, at and above the limit
        primes = [q for q in modmath.primes_in(2048, 4000) if q % 4 == 1]
        for q in primes:
            modmath.sqrt_mod(q - 1, q)
        misses = modmath.least_nonresidue.cache_info().misses
        for q in primes:
            modmath.sqrt_mod(q - 1, q)
            modmath.sqrt_mod(4, q)
        assert modmath.least_nonresidue.cache_info().misses == misses

    def test_tables_built_once_and_only_below_the_limit(self):
        limit = modmath._SQRT_TABLE_LIMIT
        below = modmath.primes_in(3, limit - 1)
        assert len(below) == 308 and modmath.primes_in(limit, 2052) == []
        for q in below:
            modmath.sqrt_mod(2, q)
        misses = modmath.sqrt_table.cache_info().misses
        for q in below + modmath.primes_in(limit, 4 * limit):
            modmath.sqrt_mod(3, q)
        info = modmath.sqrt_table.cache_info()
        assert info.misses == misses and info.currsize <= len(below)

    def test_table_is_read_only(self):
        table = modmath.sqrt_table(13)
        assert len(table) == 13 and table[12] == 5 and table[2] == -1
        with pytest.raises(TypeError):
            table[0] = 1


class TestKronecker:
    def test_anchors(self):
        assert modmath.kronecker(5, 1) == 1
        assert modmath.kronecker(13, 2) == -1
        assert modmath.kronecker(5, 5) == 0

    def test_matches_legendre_on_odd_primes(self):
        for d in (5, 13, 17, 40, 60):
            for q in ODD_PRIMES_SMALL:
                if d % q == 0:
                    assert modmath.kronecker(d, q) == 0
                else:
                    assert modmath.kronecker(d, q) == modmath.legendre(d, q), (d, q)

    @given(
        st.sampled_from([5, 8, 12, 13, 17, 21, 24, 40]),
        st.integers(min_value=1, max_value=10**4),
        st.integers(min_value=1, max_value=10**4),
    )
    def test_completely_multiplicative_in_n(self, d, m, n):
        assert modmath.kronecker(d, m * n) == modmath.kronecker(d, m) * modmath.kronecker(d, n)

    def test_period_is_d_for_positive_fundamental(self):
        for d in (5, 13, 40):
            for n in range(1, 3 * d):
                assert modmath.kronecker(d, n) == modmath.kronecker(d, n + d)


class TestInverse:
    def test_anchors(self):
        assert modmath.mod_inverse(1, 7) == 1
        assert modmath.mod_inverse(3, 13) == 9
        assert modmath.mod_inverse(7, 5) == 3

    def test_against_extended_gcd(self):
        for m in (7, 12, 13, 100, 101):
            for a in range(1, m):
                if math.gcd(a, m) != 1:
                    continue
                g, x, _ = egcd(a, m)
                assert modmath.mod_inverse(a, m) == x % m

    def test_not_invertible(self):
        with pytest.raises(NotInvertible):
            modmath.mod_inverse(6, 9)

    def test_inverse_table(self):
        for p in modmath.primes_in(3, 3000) + [10009]:
            inv = modmath.inverse_table(p)
            assert len(inv) == p and inv[0] == 0
            for k in range(1, p):
                assert inv[k] * k % p == 1, (p, k)


class TestTables:
    def test_match_python_references(self):
        # every prime below 2 * 10^4, and one each near 10^5 and 10^6
        for p in modmath.primes_in(3, 19_999) + [100_003, 1_000_003]:
            inv = reference_inverse_table(p)
            assert modmath.inverse_table(p).tolist() == inv, p
            assert modmath.harmonic_table(p).tolist() == reference_harmonic_table(inv, p), p
            assert modmath.square_flags(p).tobytes() == reference_square_flags(p), p

    def test_cached_tables_are_read_only(self):
        tables = (modmath.inverse_table(13), modmath.harmonic_table(13), modmath.square_flags(13))
        assert [t.dtype for t in tables] == [np.int32, np.int32, np.bool_]
        for table in tables:
            with pytest.raises(ValueError):
                table[1] = 0
        assert modmath.inverse_table(13)[2] == 7 and modmath.square_flags(13)[1]

    def test_refused_from_2_31_before_allocating(self, monkeypatch):
        def no_powers(p):
            raise AssertionError(f"powers of {p} were built")

        monkeypatch.setattr(modmath, "_powers", no_powers)
        big = 2**31 + 11  # the least prime above 2^31
        builds = (
            modmath.inverse_table,
            modmath.harmonic_table,
            modmath.square_flags,
            lambda p: modmath.floor_inverse_sums(2, p),
            lambda p: modmath.floor_harmonic_sum(2, p),
        )
        tracemalloc.start()
        try:
            for build in builds:
                with pytest.raises(OutOfRange, match=r"2\^31"):
                    build(big)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert modmath._table_prime(2**31 - 1) == 2**31 - 1  # the largest prime below the bound

    def test_powers_built_once_per_prime(self, monkeypatch):
        # square_flags marks the squares itself; only inverse_table reads the powers
        built = []
        powers = modmath._powers
        monkeypatch.setattr(modmath, "_powers", lambda p: built.append(p) or powers(p))
        for table in (modmath.inverse_table, modmath.harmonic_table, modmath.square_flags):
            table.cache_clear()
        p = 10061
        modmath.square_flags(p), modmath.inverse_table(p), modmath.harmonic_table(p)
        modmath.residue_sets(p), modmath.floor_inverse_sums(2, p)
        assert built == [p]


class TestTableCache:
    def test_bytes_stay_within_the_budget(self):
        # 12 primes near 10^6 take about 108 MB of tables; only the newest
        # prime's may pass the budget.  harmonic_table comes first: its build
        # reads inverse_table into the same prime's tables
        cache = modmath._TABLES
        primes = modmath.primes_in(1_000_000, 1_000_300)[:12]
        for p in primes:
            for table in (modmath.harmonic_table, modmath.square_flags, modmath.inverse_table):
                table(p)
            held = [t.nbytes for bundle in cache.bundles.values() for t in bundle.values()]
            newest = sum(t.nbytes for t in cache.bundles[p].values())
            assert cache.nbytes == sum(held) and cache.nbytes - newest <= cache.budget, p
        assert primes[0] not in cache.bundles
        assert modmath.inverse_table.cache_info().currsize == cache.nbytes

    def test_a_bundle_larger_than_the_budget_is_kept(self, monkeypatch):
        monkeypatch.setattr(modmath, "_TABLES", modmath._TableCache(1000))
        tables = (modmath.inverse_table, modmath.harmonic_table, modmath.square_flags)
        first = [table(1009) for table in tables]
        assert all(table(1009) is built for table, built in zip(tables, first))
        assert list(modmath._TABLES.bundles) == [1009]
        assert modmath._TABLES.nbytes == 9 * 1009
        modmath.square_flags(1013)
        assert list(modmath._TABLES.bundles) == [1013]
        assert modmath._TABLES.nbytes == 1013

    def test_second_pass_over_80_primes_hits(self):
        # a verify stream's working set: 80 primes near 10^4
        primes = modmath.primes_in(9_000, 11_000)[:80]
        tables = (modmath.inverse_table, modmath.harmonic_table, modmath.square_flags)
        for table in tables:
            table.cache_clear()
        for p in primes:
            for table in tables:
                table(p)
        before = [table.cache_info() for table in tables]
        for p in primes:
            for table in tables:
                table(p)
        after = [table.cache_info() for table in tables]
        for b, a in zip(before, after):
            assert (a.hits - b.hits, a.misses - b.misses) == (80, 0)


class TestFloorSums:
    def test_against_direct_sums(self):
        for p in (5, 13, 29, 101, 1009):
            inv = reference_inverse_table(p)
            h = reference_harmonic_table(inv, p)
            flags = reference_square_flags(p)
            for m in range(1, p):
                over = [0, 0]
                for k in range(1, p):
                    over[flags[k]] += m * k // p * inv[k]
                assert modmath.floor_inverse_sums(m, p) == (over[1] % p, over[0] % p), (p, m)
                want = sum(h[p * j // m] for j in range(1, m)) % p
                assert modmath.floor_harmonic_sum(m, p) == want, (p, m)

    def test_large_primes_add_in_int64(self):
        # the sums pass 2^31 here, where an int32 accumulator would wrap
        for p, m in ((100_049, 77_777), (1_000_033, 123_457)):
            inv = reference_inverse_table(p)
            flags = reference_square_flags(p)
            over = [0, 0]
            for k in range(1, p):
                over[flags[k]] += m * k // p * inv[k] % p
            assert modmath.floor_inverse_sums(m, p) == (over[1] % p, over[0] % p), p
            h = reference_harmonic_table(inv, p)
            want = sum(h[p * j // m] for j in range(1, m)) % p
            assert modmath.floor_harmonic_sum(m, p) == want, p

    def test_m_out_of_range(self):
        for m in (0, 13, -1):
            with pytest.raises(OutOfRange):
                modmath.floor_inverse_sums(m, 13)
            with pytest.raises(OutOfRange):
                modmath.floor_harmonic_sum(m, 13)

    def test_integer_array_takes_any_size(self):
        small = [0, 1, -5, 168, 169, 2**63 - 1, -(2**63)]
        got = modmath.integer_array(small)
        assert got.dtype == np.int64 and got.tolist() == small
        values = small + [2**63, 2**64 + 5, -(2**63) - 1, 3**90]
        got = modmath.integer_array(values)
        assert got.dtype == object and got.tolist() == values
        assert (got % 169).astype(np.int64).tolist() == [v % 169 for v in values]
        assert modmath.integer_array([]).dtype == np.int64

    def test_integer_array_refuses_non_integers(self):
        # a float is refused on both paths, never truncated
        for values in ([1, 2.0], [np.float64(3)], [2**64, 1.5], ["7"]):
            with pytest.raises(TypeError):
                modmath.integer_array(values)


class TestFermatQuotient:
    def test_anchors(self):
        assert modmath.fermat_quotient(1, 5) == (0, 0)
        assert modmath.fermat_quotient(2, 5) == (3, 3)
        assert modmath.fermat_quotient(2, 13) == (315, 3)

    def test_divisible_base(self):
        with pytest.raises(DivisibleBase):
            modmath.fermat_quotient(10, 5)
        with pytest.raises(DivisibleBase):
            modmath.fermat_quotient_mod(26, 13)

    def test_mod_variant_agrees_with_exact(self):
        for p in (5, 13, 17):
            for a in range(1, 4 * p):
                if a % p == 0:
                    continue
                assert modmath.fermat_quotient_mod(a, p) == modmath.fermat_quotient(a, p)[1]

    def test_depends_only_on_a_mod_p_squared(self):
        for p in (5, 13):
            p2 = p * p
            for a in (2, 3, p + 1, p2 - 1):
                assert modmath.fermat_quotient_mod(a, p) == modmath.fermat_quotient_mod(a + p2, p)

    @settings(max_examples=200)
    @given(
        st.sampled_from(PRIMES_1MOD4_SMALL),
        st.integers(min_value=1, max_value=10**4),
        st.integers(min_value=1, max_value=10**4),
    )
    def test_logarithmic_functional_equation(self, p, a, b):
        if a % p == 0 or b % p == 0:
            return
        fa = modmath.fermat_quotient_mod(a, p)
        fb = modmath.fermat_quotient_mod(b, p)
        fab = modmath.fermat_quotient_mod(a * b % (p * p), p)
        assert fab == (fa + fb) % p


class TestHarmonic:
    def test_anchors(self):
        assert modmath.harmonic_mod(0, 13) == 0
        assert modmath.harmonic_mod(6, 13) == 7  # 1+7+9+10+8+11 mod 13

    def test_h_p_minus_1_vanishes(self):
        for p in modmath.primes_in(3, 200):
            assert modmath.harmonic_mod(p - 1, p) == 0

    def test_against_direct_sum(self):
        for p in (5, 13, 29):
            for k in range(p):
                direct = sum(pow(j, p - 2, p) for j in range(1, k + 1)) % p
                assert modmath.harmonic_mod(k, p) == direct

    def test_symmetric_pairs(self):
        # H_a = H_b mod p whenever a + b = p - 1
        for p in (5, 13, 29, 53, 101):
            for a in range(p):
                b = p - 1 - a
                assert modmath.harmonic_mod(a, p) == modmath.harmonic_mod(b, p)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            modmath.harmonic_mod(13, 13)
        with pytest.raises(OutOfRange):
            modmath.harmonic_mod(-1, 13)

    def test_endpoints_vanish(self):
        # H_0 = 0 by convention; H_(p-1) = 0 because inversion permutes [1, p-1]
        assert modmath.harmonic_mod(0, 13) == 0 and modmath.harmonic_mod(12, 13) == 0


class TestResidueSets:
    def test_p5_anchor(self):
        rs = modmath.residue_sets(5)
        assert rs.qr == (1, 4) and rs.nqr == (2, 3)
        assert rs.A == 4 and rs.B == 6

    def test_p13_products(self):
        # the exact products are 12960 and 36960; A and B keep them mod 13^2
        rs = modmath.residue_sets(13)
        assert rs.p == 13 and rs.A == 12960 % 169 and rs.B == 36960 % 169

    def test_product_residues_to_1000(self):
        # math.prod is the exact oracle; 10009 is the first prime = 1 mod 4 above 10^4
        ps = [p for p in modmath.primes_in(5, 1000) if p % 4 == 1] + [10009]
        for p in ps:
            rs = modmath.residue_sets(p)
            assert len(rs.qr) == len(rs.nqr) == (p - 1) // 2
            assert sorted(rs.qr + rs.nqr) == list(range(1, p))
            p2 = p * p
            assert (rs.A, rs.B) == (math.prod(rs.qr) % p2, math.prod(rs.nqr) % p2), p
            assert rs.A % p == p - 1, p
            assert rs.B % p == 1, p

    def test_wrong_residue_class(self):
        with pytest.raises(WrongResidueClass):
            modmath.residue_sets(7)

    def test_square_flags_mark_the_squares(self):
        for p in modmath.primes_in(3, 600):
            squares = {x * x % p for x in range(1, p)}
            assert modmath.square_flags(p).tolist() == [a in squares for a in range(p)], p

    def test_exact_cap(self):
        # there is no size cap: 10009 = 1 mod 4 lies above 10^4 and still gets A, B mod p^2
        p = 10009
        rs = modmath.residue_sets(p)
        assert 0 <= rs.A < p * p and 0 <= rs.B < p * p
        assert rs.A % p == p - 1 and rs.B % p == 1

    def test_products_mod_matches_exact(self):
        # A and B are the exact products reduced mod p^2, so any reduction mod a
        # divisor of p^2 agrees with the exact products reduced the same way
        for p in (5, 13, 17):
            rs = modmath.residue_sets(p)
            exact_a, exact_b = math.prod(rs.qr), math.prod(rs.nqr)
            a = modmath.product_mod_p2(np.array(rs.qr, dtype=np.int64), p)
            b = modmath.product_mod_p2(np.array(rs.nqr, dtype=np.int64), p)
            for m in (p, p * p):
                assert (rs.A % m, rs.B % m) == (exact_a % m, exact_b % m)
                assert (a % m, b % m) == (exact_a % m, exact_b % m)


class TestProductModP2:
    @staticmethod
    def check(values, p):
        got = modmath.product_mod_p2(np.array(values, dtype=np.int64), p)
        assert got == math.prod(values) % (p * p), (p, len(values))

    def test_empty_and_one_element(self):
        assert modmath.product_mod_p2(np.array([], dtype=np.int64), 13) == 1
        for v in (0, 1, 12, 168):
            self.check([v], 13)

    def test_lengths_around_the_tail(self):
        # odd lengths leave an entry to the accumulator; the tail loop takes over at 256
        rng = random.Random(256)
        for p in (5, 13, 10009):
            for n in (2, 3, 255, 256, 257, 511, 512, 513, 1025, 4097):
                self.check([rng.randrange(p * p) for _ in range(n)], p)

    def test_zeros(self):
        rng = random.Random(0)
        for p in (13, 10009):
            for n in (1, 300, 1001):
                values = [rng.randrange(1, p * p) for _ in range(n)]
                values[rng.randrange(n)] = 0
                self.check(values, p)
            # p^2 | a*b with a = b = p: a zero that no single factor shows
            self.check([p] * 300 + [rng.randrange(1, p * p) for _ in range(300)], p)

    def test_int64_edge(self):
        # every digit p - 1 at the largest table prime: intermediates reach 2(p-1)^2 + p - 2
        p = 2**31 - 1
        for n in (1, 2, 257, 5001):
            self.check([p * p - 1] * n, p)
        rng = random.Random(31)
        self.check([rng.randrange(p * p) for _ in range(3000)], p)

    def test_either_side_of_the_direct_bound(self):
        # 55103 takes one reduction per pair, whose worst product is (p^2 - 1)^2;
        # 55109, the next prime, takes the digit pairs
        rng = random.Random(55103)
        for p in (55103, 55109):
            for n in (255, 256, 257, 511, 1025):
                self.check([p * p - 1] * n, p)
                self.check([rng.randrange(p * p) for _ in range(n)], p)

    def test_refused_from_2_31(self):
        with pytest.raises(OutOfRange, match=r"2\^31"):
            modmath.product_mod_p2(np.array([1, 2], dtype=np.int64), 2**31 + 11)


class TestLegendreHarmonicSum:
    def test_anchors(self):
        assert modmath.legendre_harmonic_sum(5) == 0
        assert modmath.legendre_harmonic_sum(13) == 0
        assert modmath.legendre_harmonic_sum(17) == 0

    def test_vanishes_to_1e4(self):
        for p in modmath.primes_in(5, 10_000):
            if p % 4 == 1:
                assert modmath.legendre_harmonic_sum(p) == 0, p

    def test_sum_past_2_31(self):
        # the inverses of the residues add up to about 2.5 * 10^9 here
        assert modmath.legendre_harmonic_sum(100_049) == 0

    def test_wrong_class(self):
        with pytest.raises(WrongResidueClass):
            modmath.legendre_harmonic_sum(7)


class TestFloorLemmas:
    def test_jump_set_anchors(self):
        assert modmath.floor_jump_set(1, 5) == frozenset()
        assert modmath.floor_jump_set(2, 5) == frozenset({3})
        assert modmath.floor_jump_set(2, 13) == frozenset({7})

    def test_jump_set_closed_form_to_200(self):
        for p in modmath.primes_in(3, 200):
            for m in range(2, p):
                predicted = frozenset(p * l // m + 1 for l in range(1, m))
                assert modmath.floor_jump_set(m, p) == predicted, (m, p)

    def test_lifted_floor_diff_anchors(self):
        assert modmath.lifted_floor_diff(7, 3, 5) == 2
        assert modmath.lifted_floor_diff(7, 2, 5) == 1

    def test_lifted_floor_diff_in_range_lift(self):
        for p in (5, 13):
            for m in range(1, p):
                for k in range(1, p):
                    expected = m * k // p - m * (k - 1) // p
                    assert modmath.lifted_floor_diff(m, k, p) == expected

    @given(
        st.sampled_from(ODD_PRIMES_SMALL),
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=1, max_value=46),
    )
    def test_lifted_floor_diff_random(self, p, M, k):
        if M % p == 0 or k > p - 1:
            return
        d = modmath.lifted_floor_diff(M, k, p)
        assert d == M * k // p - M * (k - 1) // p

    def test_complementary_identity_anchors(self):
        assert modmath.complementary_floor_identity(5, 2, 1)
        assert modmath.complementary_floor_identity(13, 3, 1)
        assert modmath.complementary_floor_identity(7, 2, 1)

    def test_complementary_identity_sweep(self):
        for p in (13, 29, 97):
            for q in range(2, p):
                if math.gcd(p, q) != 1:
                    continue
                for k in range(1, q):
                    assert modmath.complementary_floor_identity(p, q, k)

    def test_out_of_range_guards(self):
        with pytest.raises(OutOfRange):
            modmath.floor_jump_set(0, 5)
        with pytest.raises(OutOfRange):
            modmath.lifted_floor_diff(10, 1, 5)
        with pytest.raises(OutOfRange):
            modmath.complementary_floor_identity(5, 10, 1)


class TestWilsonBinomial:
    def test_anchors(self):
        assert modmath.wilson_binomial_check(5, 1)
        assert modmath.wilson_binomial_check(5, 2)
        assert modmath.wilson_binomial_check(13, 4)

    def test_all_j_to_500(self):
        for p in modmath.primes_in(3, 500):
            for j in range(1, p):
                assert modmath.wilson_binomial_check(p, j), (p, j)

    def test_bad_j(self):
        with pytest.raises(OutOfRange):
            modmath.wilson_binomial_check(5, 5)
