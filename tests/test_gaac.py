import math
import random

import pytest

from aactk import gaac, quadfield, scan
from aactk.errors import ComputationBug, EvenD, NotSquarefree, OutOfRange, PerfectSquare


def squarefree_oracle(m):
    """Independent per-number check via full factorization."""
    import sympy

    return all(e == 1 for e in sympy.factorint(m).values())


def per_n_count(lo, hi):
    """Count n in [lo, hi] with n^2 - 1 squarefree, one n at a time.

    Odd n has 8 | n^2 - 1; for even n, n - 1 and n + 1 are coprime.
    """
    return sum(
        1
        for n in range(lo, hi + 1)
        if n % 2 == 0 and gaac.squarefree(n - 1) and gaac.squarefree(n + 1)
    )


class TestGaacCheck:
    def test_small_cases(self):
        v = gaac.gaac_check(3)
        assert v.v1_mod_D == 1 and v.holds
        v = gaac.gaac_check(99)
        assert v.v1_mod_D == 1 and v.holds
        assert v.h4D == quadfield.form_class_number(396)

    def test_counterexample_1817(self):
        v = gaac.gaac_check(1817)
        assert v.v1_mod_D == 0
        assert v.product_mod_D == 0
        assert not v.holds

    def test_guards(self):
        with pytest.raises(EvenD):
            gaac.gaac_check(8)
        with pytest.raises(PerfectSquare, match="^D = 9 is a perfect square$"):
            gaac.gaac_check(9)
        with pytest.raises(OutOfRange):
            gaac.gaac_check(1)

    def test_record_fields(self):
        rec = gaac.gaac_check(15).to_record()
        assert set(rec) == {"D", "v1_mod_D", "h4D", "holds"}

    def test_one_walk_of_4D_gives_v1_and_h4D(self, monkeypatch):
        v1 = {D: quadfield.pell_min_solution(D).v1 % D for D in (1817, 1819)}
        walked, walk = [], quadfield.unit_of_discriminant
        monkeypatch.setattr(quadfield, "unit_of_discriminant", lambda d: walked.append(d) or walk(d))
        for D in (1817, 1819):
            assert gaac.gaac_check(D).v1_mod_D == v1[D]
        assert walked == [4 * 1817, 1817, 4 * 1819]  # D = 1 mod 4 walks D for the descent

    # norm -1 and k = 3, norm +1 and k = 3, k = 1 at 5 mod 8, k = 1 at 1 mod 8
    @pytest.mark.parametrize("D", [13, 21, 37, 1817])
    def test_a_walk_of_D_that_returns_eps_squared_raises(self, monkeypatch, D):
        walk = quadfield.unit_of_discriminant

        def squared(disc):
            t, u, norm = walk(disc)
            return ((t * t + disc * u * u) // 2, t * u, 1) if disc == D else (t, u, norm)

        monkeypatch.setattr(quadfield, "unit_of_discriminant", squared)
        with pytest.raises(ComputationBug, match=f"^D = {D}: the unit"):
            gaac.gaac_check(D)


class TestCounterexamples:
    def test_all_three(self):
        verdicts = gaac.reproduce_counterexamples()
        assert [v.D for v in verdicts] == [1817, 209991, 1752299]
        for v in verdicts:
            assert v.v1_mod_D == 0 and not v.holds, v

    def test_factorizations(self):
        assert 1817 == 23 * 79
        assert 209991 == 3 * 69997
        assert 1752299 == 41 * 79 * 541


class TestScan:
    """The gaac kind of the scan engine."""

    @staticmethod
    def verdicts(lo, hi, skip=()):
        items = [D for D in scan.plan("gaac", lo, hi) if D not in set(skip)]
        return list(scan.run("gaac", items))

    def test_range_3_99_clean(self):
        records = self.verdicts(3, 99)
        assert all(r["holds"] for r in records)
        assert [r["D"] for r in records] == [
            D for D in range(3, 100, 2) if math.isqrt(D) ** 2 != D
        ]

    def test_empty_range(self):
        assert self.verdicts(10, 9) == []

    def test_skip_supports_resume(self):
        full = {r["D"]: r for r in self.verdicts(3, 60)}
        part = self.verdicts(3, 60, skip=[d for d in full if d < 30])
        assert [r["D"] for r in part] == [d for d in full if d >= 30]

    def test_h4d_stays_below_4d(self):
        # monitored growth bound, not a tight assertion
        for r in self.verdicts(3, 500):
            assert 1 <= r["h4D"] < 4 * r["D"], r


class TestSquarefree:
    def test_anchors(self):
        assert gaac.squarefree(15)
        assert not gaac.squarefree(8)
        assert not gaac.squarefree(48)  # 7^2 - 1, divisible by 16
        assert gaac.squarefree(1)

    def test_against_factorization_oracle(self):
        for n in range(1, 2000):
            assert gaac.squarefree(n) == squarefree_oracle(n), n

    def test_bad_input(self):
        with pytest.raises(OutOfRange):
            gaac.squarefree(0)


class TestDensityCount:
    def test_x10_by_hand(self):
        sc = gaac.count_squarefree_n2m1(10)
        assert sc.count == 3  # n = 2, 4, 6

    def test_x2(self):
        assert gaac.count_squarefree_n2m1(2).count == 1

    def test_sieve_matches_per_n_factorization(self):
        for x in (10, 100, 500, 3000):
            direct = 0
            for n in range(2, x + 1):
                if n % 2:
                    continue  # odd n: 8 | n^2 - 1
                # n-1 and n+1 are coprime for even n
                if gaac.squarefree(n - 1) and gaac.squarefree(n + 1):
                    direct += 1
            assert gaac.count_squarefree_n2m1(x).count == direct, x

    def test_range_sieve_matches_per_n_on_random_blocks(self):
        rng = random.Random(20230406)
        blocks = [(2, 2), (2, 3), (3, 3), (3, 4), (2, 1), (50, 49)]
        blocks += [(lo, lo + rng.randrange(1, 40)) for lo in (2, 3)]
        for _ in range(60):
            lo = rng.randrange(2, 50_000)
            blocks.append((lo, lo + rng.randrange(0, 1500)))
        for lo, hi in blocks:
            assert gaac.count_squarefree_n2m1_in(lo, hi) == per_n_count(lo, hi), (lo, hi)
        with pytest.raises(OutOfRange):
            gaac.count_squarefree_n2m1_in(1, 10)

    @pytest.mark.parametrize("p2", [9, 25, 49, 121])
    def test_block_sizes_either_side_of_a_prime_square(self, p2):
        # a block of size <= p^2 holds at most one n of each class mod p^2
        for size in (p2 - 1, p2, p2 + 1):
            for lo in (2, 3, p2 - 1, p2, p2 + 2, 1000, 9_998, 49_999, 150_001):
                hi = lo + size - 1
                assert gaac.count_squarefree_n2m1_in(lo, hi) == per_n_count(lo, hi), (lo, hi)

    def test_block_primes_cache_one_tuple_per_bit_length(self):
        cached = gaac.modmath._primes_to_power_of_two
        cached.cache_clear()
        roots = set()
        for lo in range(2, 300_000, 7_000):
            gaac.count_squarefree_n2m1_in(lo, lo + 999)
            roots.add(math.isqrt(lo + 1000).bit_length())
        assert cached.cache_info().currsize == len(roots)
        for bits in roots:
            assert cached(bits) == tuple(gaac.modmath.primes_in(2, 1 << bits))

    def test_inclusion_exclusion_exact_at_full_cutoff(self):
        for x in (10, 50, 200, 1000):
            z = math.isqrt(x + 1) + 1
            assert gaac.count_squarefree_n2m1_inclusion_exclusion(
                x, z
            ) == gaac.count_squarefree_n2m1(x).count, x

    def test_inclusion_exclusion_truncation_overcounts(self):
        # dropping sieve primes can only let non-squarefree n through
        x = 2000
        exact = gaac.count_squarefree_n2m1(x).count
        prev = None
        for z in (3, 5, 11, 23, 45):
            c = gaac.count_squarefree_n2m1_inclusion_exclusion(x, z)
            assert c >= exact
            if prev is not None:
                assert c <= prev
            prev = c

    def test_partial_constant(self):
        a10 = gaac.partial_density_constant(10)
        a1000 = gaac.partial_density_constant(1000)
        assert 0 < a1000 < a10 < 1
        assert abs(a1000 - 0.3226) < 5e-4

    def test_ratio_near_constant(self):
        sc = gaac.count_squarefree_n2m1(10_000)
        assert abs(sc.count / sc.x - sc.partial_constant) < 0.01


class TestFamilyCheck:
    def test_even_n(self):
        assert gaac.n2m1_family_check(2)  # D = 3
        assert gaac.n2m1_family_check(4)  # D = 15
        assert gaac.n2m1_family_check(6)  # D = 35
        assert gaac.n2m1_family_check(14)  # D = 195

    def test_not_squarefree_rejected(self):
        # odd n always fail (8 | n^2-1); n = 10 gives 99 = 9*11
        for n in (3, 5, 8, 10):
            with pytest.raises(NotSquarefree):
                gaac.n2m1_family_check(n)

    def test_bad_n(self):
        with pytest.raises(OutOfRange):
            gaac.n2m1_family_check(1)
