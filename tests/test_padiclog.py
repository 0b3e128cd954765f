import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aactk import modmath, padiclog
from aactk.errors import (
    DivisibleBase,
    HypothesisFail,
    NotSmall,
    OutOfRange,
    WrongSign,
    ZeroInput,
)

ODD_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def exp_series_mod(x, p, k):
    """Oracle: exp(x) mod p^k, exact rational partial sum.

    Valid for v_p(x) >= 1 and p odd (term x^n/n! then has valuation
    >= n - n/(p-1) which eventually clears k).
    """
    pk = p**k
    total = Fraction(0)
    term = Fraction(1)
    for n in range(0, 6 * k + 10):
        total += term
        term = term * x / (n + 1)
    assert total.denominator % p != 0
    return total.numerator * pow(total.denominator, -1, pk) % pk


class TestValuation:
    def test_anchors(self):
        assert padiclog.vp(12, 2) == 2
        assert padiclog.vp(Fraction(1, 5), 5) == -1
        assert padiclog.vp(Fraction(50, 4), 5) == 2

    def test_zero_input(self):
        with pytest.raises(ZeroInput):
            padiclog.vp(0, 5)

    def test_additive_on_products(self):
        for p in (2, 3, 5):
            for a in (1, 4, 15, Fraction(9, 10), Fraction(-7, 25)):
                for b in (2, 6, Fraction(1, 3)):
                    assert padiclog.vp(Fraction(a) * Fraction(b), p) == padiclog.vp(
                        a, p
                    ) + padiclog.vp(b, p)

    def test_composite_p_rejected(self):
        with pytest.raises(OutOfRange):
            padiclog.vp(10, 6)


class TestLog1Plus:
    def test_anchors(self):
        assert padiclog.padic_log_1plus(0, 5, 2) == 0
        assert padiclog.padic_log_1plus(5, 5, 2) == 5
        # frozen from the exact rational oracle: 5 - 25/2 = -15/2 = 55 mod 125
        assert padiclog.padic_log_1plus(5, 5, 3) == 55

    def test_exp_round_trip(self):
        # independent check: exp(log(1+z)) = 1 + z mod p^k
        for p in (3, 5, 13):
            for k in (2, 3, 4):
                pk = p**k
                for z in range(p, min(pk, 6 * p * p), p):
                    lg = padiclog.padic_log_1plus(z, p, k)
                    assert exp_series_mod(lg, p, k) == (1 + z) % pk, (p, k, z)

    def test_not_small(self):
        with pytest.raises(NotSmall):
            padiclog.padic_log_1plus(3, 5, 2)

    @settings(max_examples=150)
    @given(
        st.sampled_from(ODD_PRIMES),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=10**6),
    )
    def test_truncation_soundness(self, p, k, t):
        # the series summed over twice the library's term count reduces the same
        pk = p**k
        z = t * p % pk
        n = padiclog._series_length(p, k)
        total = sum(Fraction((-1) ** (j - 1) * z**j, j) for j in range(1, 2 * n + 1))
        want = total.numerator * pow(total.denominator, -1, pk) % pk
        assert padiclog.padic_log_1plus(z, p, k) == want

    def test_precision_cap(self):
        with pytest.raises(OutOfRange):
            padiclog.padic_log_1plus(5, 5, 9)


class TestLogUnit:
    def test_anchors(self):
        assert padiclog.padic_log_unit(1, 5, 2) == 0
        assert padiclog.padic_log_unit(2, 5, 2) == 10  # = -5 F(2) = -15 mod 25
        assert padiclog.padic_log_unit(4, 5, 2) == 20  # additivity: 2 log(2)

    def test_divisible_base(self):
        with pytest.raises(DivisibleBase):
            padiclog.padic_log_unit(10, 5, 2)

    def test_needs_k_at_least_2(self):
        with pytest.raises(OutOfRange):
            padiclog.padic_log_unit(2, 5, 1)

    def test_fermat_quotient_relation_small(self):
        for p in (3, 5, 7, 11, 13):
            p2 = p * p
            for a in range(1, p2):
                if a % p == 0:
                    continue
                lg = padiclog.padic_log_unit(a, p, 2)
                fq = modmath.fermat_quotient_mod(a, p)
                assert lg == -p * fq % p2, (p, a)

    @settings(max_examples=150)
    @given(
        st.sampled_from([3, 5, 7, 11, 13, 17, 97]),
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=1, max_value=10**5),
        st.integers(min_value=1, max_value=10**5),
    )
    def test_additivity(self, p, k, a, b):
        if a % p == 0 or b % p == 0:
            return
        pk = p**k
        la = padiclog.padic_log_unit(a, p, k)
        lb = padiclog.padic_log_unit(b, p, k)
        lab = padiclog.padic_log_unit(a * b % pk, p, k)
        assert lab == (la + lb) % pk


class TestTheorem4:
    def test_anchors(self):
        assert padiclog.theorem4_check(1, 5)
        assert padiclog.theorem4_check(6, 5)
        assert padiclog.theorem4_check(14, 13)

    def test_all_lifts_small(self):
        for p in (3, 5, 13, 29):
            for t in range(p):
                assert padiclog.theorem4_check(1 + t * p, p)

    def test_hypothesis_fail(self):
        with pytest.raises(HypothesisFail):
            padiclog.theorem4_check(2, 5)

    def test_a_wrong_log_fails(self, monkeypatch):
        # log(x) + p is still 0 mod p, so only the comparison mod p^2 sees it
        log = padiclog.padic_log_1plus
        monkeypatch.setattr(padiclog, "padic_log_1plus", lambda z, p, k=2: (log(z, p, k) + p) % p**k)
        for p in (3, 5, 13):
            for t in range(p):
                assert padiclog.theorem4_check(1 + t * p, p) is False, (p, t)


class TestOmega:
    def test_residue_product_anchor(self):
        check = padiclog.omega_from_products([1, 4], -1, 5)
        assert check == (1, 1, True)

    def test_nonresidue_product_anchor(self):
        check = padiclog.omega_from_products([2, 3], 1, 5)
        assert check.omega == 1 and check.fq_sum == 4 and check.holds

    def test_p13_nonresidues(self):
        check = padiclog.omega_from_products([2, 5, 6, 7, 8, 11], 1, 13)
        assert check == (9, 4, True)

    def test_wrong_sign(self):
        with pytest.raises(WrongSign):
            padiclog.omega_from_products([2, 3], -1, 5)

    def test_divisible_value(self):
        with pytest.raises(DivisibleBase):
            padiclog.omega_from_products([5, 2], 1, 5)

    def test_holds_from_2_31(self):
        # the product mod p^2 is a plain loop, so no int64 bound applies:
        # p - 1 = -1 + p, and 2 * (p + 1)/2 = 1 + p
        p = 2**31 + 11
        assert padiclog.omega_from_products([p - 1], -1, p) == (1, 1, True)
        assert padiclog.omega_from_products([2, (p + 1) // 2], 1, p).holds

    def test_holds_with_lifted_sets(self):
        # representative-independent: any lifts of R and N work
        for p in (5, 13, 17):
            rs = modmath.residue_sets(p)
            for shift in (0, 1, 3):
                a_set = [r + p * shift for r in rs.qr]
                b_set = [n + p * ((n * shift) % 4) for n in rs.nqr]
                assert padiclog.omega_from_products(a_set, -1, p).holds
                assert padiclog.omega_from_products(b_set, 1, p).holds

    def test_lifts_near_10p_match_exact_product(self):
        # the product is kept mod p^2; the exact product is the oracle for Omega
        rng = random.Random(20261018)
        for p in (5, 13, 17, 29, 101):
            rs = modmath.residue_sets(p)
            for members, sign in ((rs.qr, -1), (rs.nqr, 1)):
                values = [x + p * rng.randrange(8, 13) for x in members]
                check = padiclog.omega_from_products(values, sign, p)
                assert check.holds, (p, values)
                assert check.omega == (math.prod(values) - sign) // p % p


def test_library_has_no_assert_statements():
    # python -O strips assert, so a library check must raise instead
    import ast
    import pathlib

    import aactk

    for path in sorted(pathlib.Path(aactk.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert at lines {lines}"


def test_library_modules_read_no_private_name_of_another():
    # a module's _-prefixed names are its own; another module reads only public ones
    import ast
    import pathlib

    import aactk

    paths = sorted(pathlib.Path(aactk.__file__).parent.glob("*.py"))
    modules = {path.stem for path in paths}
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        reads = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                reads += [f"from {node.module}: {a.name}" for a in node.names if a.name.startswith("_")]
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules - {path.stem}
                and node.attr.startswith("_")
            ):
                reads.append(f"{node.value.id}.{node.attr} at line {node.lineno}")
        assert not reads, f"{path.name}: {reads}"
