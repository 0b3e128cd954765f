import contextlib
import math
import os
import random
import signal

import mpmath
import pytest

from aactk import modmath, quadfield
from aactk.errors import (
    BadDiscriminant,
    ComputationBug,
    OutOfRange,
    PerfectSquare,
    WrongResidueClass,
)


def brute_fundamental_unit(p, u_limit=10**6):
    """Oracle: scan u = 1, 2, ... for the first t with t^2 - p u^2 = -4 or +4.

    Minimal u gives the minimal unit (t + u sqrt(p))/2; for fixed u the
    norm -4 solution is the smaller of the two.
    """
    for u in range(1, u_limit):
        for norm in (-1, 1):
            tt = p * u * u + 4 * norm
            t = math.isqrt(tt)
            if t * t == tt:
                return t, u, norm
    raise AssertionError("oracle exhausted")


def reference_cf_sqrt(D):
    """Oracle: (a0, period) of sqrt(D) by the PQa recurrence, stopping when (P, Q) recurs."""
    a0 = math.isqrt(D)
    period = []
    P, Q = a0, D - a0 * a0
    start = (P, Q)
    while True:
        a = (a0 + P) // Q
        period.append(a)
        P = a * Q - P
        Q = (D - P * P) // Q
        if (P, Q) == start:
            return a0, tuple(period)


def reference_cf_period(disc):
    """Oracle: (quotients, t, u, norm) from a walk over the whole period.

    Expands (sigma + sqrt(disc))/2, sigma = disc mod 2, from (P, Q) =
    (sigma, 2) until Q is 2 again, appends the closing quotient, and reads
    the unit off the convergent p/q before it: t = 2p - sigma*q, u = q,
    norm = (-1)^l.
    """
    s = math.isqrt(disc)
    sigma = disc % 2
    P, Q = sigma, 2
    p_prev, p, q_prev, q = 0, 1, 1, 0
    quotients = []
    while True:
        a = (P + s) // Q
        quotients.append(a)
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        P = a * Q - P
        Q = (disc - P * P) // Q
        if Q == 2:
            break
    quotients.append((P + s) // 2)
    return quotients, 2 * p - sigma * q, q, (-1) ** (len(quotients) - 1)


def cf_quotients(D):
    """a0 and the period of cf_sqrt(D) as one list, the shape of reference_cf_period's."""
    cf = quadfield.cf_sqrt(D)
    return [cf.a0, *cf.period]


def nonsquare_discriminants(lo, hi):
    """The nonsquare discriminants (0 or 1 mod 4) in [lo, hi)."""
    return [d for d in range(lo, hi) if d % 4 in (0, 1) and math.isqrt(d) ** 2 != d]


def reference_convergent(D):
    """Oracle: (h, k, l), the convergent h/k at the end of the first period of sqrt(D).

    l is the period length and h^2 - D k^2 = (-1)^l.
    """
    a0, period = reference_cf_sqrt(D)
    h_prev, h = 1, a0
    k_prev, k = 0, 1
    for a in period[:-1]:
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev
    return h, k, len(period)


def reference_pell(D):
    """Oracle: least (u1, v1) with u1^2 - D v1^2 = 1, squaring a norm -1 convergent."""
    h, k, ell = reference_convergent(D)
    if ell % 2 == 0:
        return h, k
    return h * h + D * k * k, 2 * h * k


def icbrt(n):
    """Floor integer cube root of n >= 0."""
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


def reference_unit(d):
    """Oracle: (t, u, norm) of the fundamental unit (t + u sqrt(d))/2 of discriminant d.

    For d = 0 mod 4 it is the convergent of sqrt(d/4).  For d = 1 mod 4
    the convergent of sqrt(d) gives the unit of Z[sqrt(d)]; the unit of
    the maximal order is either that (t = 2x, u = 2y) or, when the unit
    index is 3, a half-integral cube root with t, u odd, whose u is the
    positive root of d u^3 + 3*norm*u = 2y.
    """
    if d % 4 == 0:
        x1, y1, ell = reference_convergent(d // 4)
        return 2 * x1, y1, (-1) ** ell
    x1, y1, ell = reference_convergent(d)
    nsign = (-1) ** ell
    target = 2 * y1
    c = icbrt(target // d)
    for u in range(max(1, c - 2), c + 4):
        if u % 2 == 0 or d * u**3 + 3 * nsign * u != target:
            continue
        tt = d * u * u + 4 * nsign
        t = math.isqrt(tt)
        if t * t == tt and t % 2 == 1 and t * (d * u * u + nsign) == 2 * x1:
            return t, u, nsign
    return 2 * x1, 2 * y1, nsign


def l_series_estimate(d, terms=None):
    """Oracle: truncated Dirichlet series for L(1,chi) with an explicit tail bound.

    Returns (sum_{n<=terms} chi(n)/n, bound), where the partial-summation
    tail is at most max|S(x)| / terms and |S(x)| <= d trivially.
    """
    if terms is None:
        terms = 200 * d
    total = 0.0
    for n in range(1, terms + 1):
        chi = modmath.kronecker(d, n)
        if chi:
            total += chi / n
    return total, d / terms


def brute_pell(D, v_limit):
    for v in range(1, v_limit + 1):
        uu = 1 + D * v * v
        u = math.isqrt(uu)
        if u * u == uu:
            return u, v
    return None


def is_reduced(a, b, disc):
    """Oracle: 0 < b < sqrt(disc) and sqrt(disc) - b < 2|a| < sqrt(disc) + b,
    decided exactly (disc is nonsquare, so no ties)."""
    if b <= 0 or b * b >= disc:
        return False
    two_a = 2 * abs(a)
    if (two_a + b) ** 2 <= disc:
        return False
    if two_a > b and (two_a - b) ** 2 >= disc:
        return False
    return True


def reference_reduced_forms(disc):
    """Oracle: every reduced primitive form, by trial division of each n = (disc - b^2)/4.

    For each b, every i <= sqrt(n) that divides n gives the candidates i
    and n/i, kept when reduced and primitive, each with a > 0 and a < 0.
    """
    forms = []
    b = 2 if disc % 2 == 0 else 1
    while b * b < disc:
        n = (disc - b * b) // 4
        for i in range(1, math.isqrt(n) + 1):
            if n % i:
                continue
            for aa in (i,) if i * i == n else (i, n // i):
                if not is_reduced(aa, b, disc):
                    continue
                for a in (aa, -aa):
                    c = -(n // a) if a > 0 else n // -a
                    if math.gcd(math.gcd(a, b), c) == 1:
                        forms.append((a, b, c))
        b += 2
    return forms


def assert_forms_match_reference(disc):
    """reduced_forms(disc) is the oracle's a > 0 half, each form once;
    returns the oracle's forms."""
    forms = quadfield.reduced_forms(disc)
    reference = reference_reduced_forms(disc)
    assert len(set(forms)) == len(forms), disc
    assert set(forms) == {f for f in reference if f[0] > 0}, disc
    return reference


def reference_class_number(disc, forms=None):
    """Oracle: rho-cycles of forms (by default reference_reduced_forms(disc)),
    one (a, b, c) tuple per step."""
    s = math.isqrt(disc)

    def rho(f):
        _, b, c = f
        b2 = s - (s + b) % (2 * abs(c))
        return c, b2, (b2 * b2 - disc) // (4 * c)

    remaining = set(reference_reduced_forms(disc) if forms is None else forms)
    cycles = 0
    while remaining:
        start = remaining.pop()
        cycles += 1
        f = rho(start)
        while f != start:
            remaining.remove(f)
            f = rho(f)
    return cycles


def reference_lsum(d):
    """Oracle: sum_{a=1}^{d-1} (d/a) log sin(pi a / d), one kronecker call per term."""
    total = 0.0
    for a in range(1, d):
        chi = modmath.kronecker(d, a)
        if chi:
            total += chi * math.log(math.sin(math.pi * a / d))
    return total


def mpmath_lsum(d):
    """Oracle: the log-sine sum at 40 decimal digits, over a < d/2 and
    doubled, with chi from quadfield._chi_half (tested against kronecker)."""
    with mpmath.workdps(40):
        return 2 * mpmath.fsum(
            chi * mpmath.log(mpmath.sinpi(mpmath.mpf(a) / d))
            for a, chi in enumerate(quadfield._chi_half(d))
            if chi
        )


def rho_step(form, disc):
    """Oracle: one rho step (a, b, c) -> (c, b', (b'^2 - disc)/(4c)), b' = s - (s + b) mod 2|c|."""
    s = math.isqrt(disc)
    _, b, c = form
    b2 = s - (s + b) % (2 * abs(c))
    return c, b2, (b2 * b2 - disc) // (4 * c)


class TestContinuedFraction:
    def test_anchors(self):
        cf = quadfield.cf_sqrt(2)
        assert (cf.a0, cf.period) == (1, (2,))
        cf = quadfield.cf_sqrt(13)
        assert (cf.a0, cf.period) == (3, (1, 1, 1, 1, 6))

    def test_perfect_square_rejected(self):
        with pytest.raises(PerfectSquare):
            quadfield.cf_sqrt(4)
        with pytest.raises(OutOfRange):
            quadfield.cf_sqrt(1)

    def test_period_ends_with_2a0(self):
        for D in range(2, 500):
            if math.isqrt(D) ** 2 == D:
                continue
            cf = quadfield.cf_sqrt(D)
            assert cf.period[-1] == 2 * cf.a0, D

    def test_walk_norm_identity_to_1e4(self):
        # the unit read at the end of the first period has norm (-1)^l
        for disc in range(5, 10_001):
            if disc % 4 not in (0, 1) or math.isqrt(disc) ** 2 == disc:
                continue
            t, u, norm = quadfield.unit_of_discriminant(disc)
            assert t > 0 and u > 0, disc
            assert norm == (-1) ** (len(reference_cf_period(disc)[0]) - 1), disc
            assert t * t - disc * u * u == 4 * norm, disc

    def test_short_periods(self):
        # l = 1 stops at k = 0 on Q_1 = Q_0, l = 2 at k = 1 on P_2 = P_1;
        # 5 - 4 = 1^2 and 5 + 4 = 3^2, so at disc = 5 alone the isqrt guard
        # would pass either norm and only this anchor pins the -1
        for disc, unit in (
            (13, (3, 1, -1)),
            (5, (1, 1, -1)),
            (44, (20, 3, 1)),
            (12, (4, 1, 1)),
        ):
            assert quadfield.unit_of_discriminant(disc) == unit, disc
        # Euclid on 2 + sqrt(3) reads 2/1 as [2], one quotient short of the
        # even period: the parity split makes it [1; 1]; 10 + 3 sqrt(11)
        # reads [3; 3] as it is
        for D, expansion in ((3, (1, (1, 2))), (11, (3, (3, 6)))):
            cf = quadfield.cf_sqrt(D)
            assert (cf.a0, cf.period) == expansion, D

    def test_isqrt_guard_raises(self, monkeypatch):
        # every isqrt but that of disc itself one too large: t^2 is then
        # not disc*u^2 + 4*norm, and the walk must refuse the unit
        isqrt = math.isqrt
        monkeypatch.setattr(math, "isqrt", lambda n: isqrt(n) + (n != 13))
        with pytest.raises(ComputationBug):
            quadfield.unit_of_discriminant(13)

    def test_half_walk_matches_full_walk_to_20000(self):
        lengths = set()
        for disc in nonsquare_discriminants(5, 20_000):
            reference = reference_cf_period(disc)
            assert quadfield.unit_of_discriminant(disc) == reference[1:], disc
            if disc % 4 == 0:
                assert cf_quotients(disc // 4) == reference[0], disc
            lengths.add((disc % 2, len(reference[0]) - 1))
        # both sigma, odd and even periods, the shortest of each
        assert {(0, 1), (1, 1), (0, 2), (1, 2), (0, 3), (1, 3)} <= lengths

    def test_half_walk_matches_full_walk_between_1e6_and_1e8(self):
        rng = random.Random(13)
        discs = []
        while len(discs) < 40:
            disc = rng.randrange(10**6, 10**8)
            if disc % 4 == len(discs) % 2 and math.isqrt(disc) ** 2 != disc:
                discs.append(disc)  # alternately sigma = 0 and 1
        for disc in discs:
            reference = reference_cf_period(disc)
            assert quadfield.unit_of_discriminant(disc) == reference[1:], disc
            if disc % 4 == 0:
                assert cf_quotients(disc // 4) == reference[0], disc

    def test_unit_of_discriminant(self):
        for disc in (5, 8, 12, 13, 44, 1817 * 4, 10**6 + 1):
            assert quadfield.unit_of_discriminant(disc) == reference_cf_period(disc)[1:], disc
        for bad in (-3, 0, 1, 4, 6, 7, 9, 16, 10**6):
            with pytest.raises(BadDiscriminant):
                quadfield.unit_of_discriminant(bad)

    def test_cf_sqrt_and_pell_match_reference_to_4000(self):
        for D in range(2, 4001):
            if math.isqrt(D) ** 2 == D:
                continue
            cf = quadfield.cf_sqrt(D)
            assert (cf.a0, cf.period) == reference_cf_sqrt(D), D
            assert cf.period[-1] == 2 * cf.a0, D
            s = quadfield.pell_min_solution(D)
            assert (s.u1, s.v1) == reference_pell(D), D


class TestPell:
    def test_anchors(self):
        s = quadfield.pell_min_solution(2)
        assert (s.u1, s.v1) == (3, 2)
        s = quadfield.pell_min_solution(3)
        assert (s.u1, s.v1) == (2, 1)
        s = quadfield.pell_min_solution(99)
        assert (s.u1, s.v1) == (10, 1)

    def test_satisfies_equation(self):
        for D in (2, 7, 61, 109, 1817):
            s = quadfield.pell_min_solution(D)
            assert s.u1 * s.u1 - D * s.v1 * s.v1 == 1

    def test_equals_brute_force_when_small(self):
        for D in range(2, 300):
            if math.isqrt(D) ** 2 == D:
                continue
            s = quadfield.pell_min_solution(D)
            if s.v1 <= 1000:
                assert brute_pell(D, 1000) == (s.u1, s.v1), D

    def test_classical_table_values(self):
        # the two famous hard cases from the classical tables
        s = quadfield.pell_min_solution(61)
        assert (s.u1, s.v1) == (1766319049, 226153980)
        s = quadfield.pell_min_solution(109)
        assert (s.u1, s.v1) == (158070671986249, 15140424455100)

    def test_n2m1_family(self):
        from aactk.gaac import squarefree

        for n in range(2, 301):
            if squarefree(n * n - 1):
                s = quadfield.pell_min_solution(n * n - 1)
                assert (s.u1, s.v1) == (n, 1), n

    def test_perfect_square_rejected(self):
        with pytest.raises(PerfectSquare):
            quadfield.pell_min_solution(49)


class TestFundamentalUnit:
    def test_anchors(self):
        u = quadfield.fundamental_unit(5)
        assert (u.t, u.u, u.norm_sign) == (1, 1, -1)
        u = quadfield.fundamental_unit(13)
        assert (u.t, u.u, u.norm_sign) == (3, 1, -1)
        u = quadfield.fundamental_unit(29)
        assert (u.t, u.u, u.norm_sign) == (5, 1, -1)

    def test_half_integral_and_integral_cases(self):
        # p = 61 has odd coordinates; the units of p = 37 and 41 lie in Z[sqrt(p)]
        u = quadfield.fundamental_unit(61)
        assert (u.t, u.u) == (39, 5)
        u = quadfield.fundamental_unit(37)
        assert (u.t, u.u) == (12, 2)
        u = quadfield.fundamental_unit(41)
        assert (u.t, u.u) == (64, 10)

    def test_against_brute_force_scan(self):
        for p in modmath.primes_in(5, 200):
            if p % 4 != 1:
                continue
            u = quadfield.fundamental_unit(p)
            assert (u.t, u.u, u.norm_sign) == brute_fundamental_unit(p), p

    def test_norm_minus_one_to_2000(self):
        for p in modmath.primes_in(5, 2000):
            if p % 4 != 1:
                continue
            u = quadfield.fundamental_unit(p)
            assert u.norm_sign == -1
            assert u.t * u.t - p * u.u * u.u == -4

    def test_requires_1_mod_4(self):
        with pytest.raises(WrongResidueClass):
            quadfield.fundamental_unit(7)

    def test_units_match_reference(self):
        for p in modmath.primes_in(5, 20_000):
            if p % 4 == 1:
                u = quadfield.fundamental_unit(p)
                assert (u.t, u.u, u.norm_sign) == reference_unit(p), p
        for d in range(5, 4001):
            if quadfield.is_fundamental_discriminant(d):
                assert quadfield.unit_of_discriminant(d) == reference_unit(d), d


class TestRegulator:
    def test_anchors(self):
        u5 = quadfield.fundamental_unit(5)
        assert abs(quadfield.regulator(u5) - 0.4812118250596035) < 1e-12
        p2 = quadfield.pell_min_solution(2)
        assert abs(quadfield.regulator(p2) - 1.7627471740390861) < 1e-12

    def test_huge_unit_relative_error(self):
        D = 19231  # long continued-fraction period, ~500-bit solution
        s = quadfield.pell_min_solution(D)
        got = quadfield.regulator(s)
        with mpmath.workdps(300):
            want = float(mpmath.log(s.u1 + s.v1 * mpmath.sqrt(D)))
        assert abs(got - want) / want < 1e-12

    def test_degenerate_guard(self):
        with pytest.raises(OutOfRange):
            quadfield.regulator(quadfield.FundamentalUnit(p=5, t=1, u=0, norm_sign=-1))
        with pytest.raises(OutOfRange):
            quadfield.regulator(quadfield.PellSolution(D=2, u1=1, v1=0))


class TestClassNumbers:
    def test_dirichlet_anchors(self):
        assert quadfield.class_number_dirichlet(5) == 1
        assert quadfield.class_number_dirichlet(13) == 1
        assert quadfield.class_number_dirichlet(40) == 2

    def test_form_anchors(self):
        assert quadfield.form_class_number(20) == 1
        assert quadfield.form_class_number(40) == 2
        assert quadfield.form_class_number(5) == 1

    def test_known_class_numbers(self):
        # classical values: h(Q(sqrt(229))) = 3, h(Q(sqrt(401))) = 5, both norm -1
        assert quadfield.class_number_dirichlet(229) == 3
        assert quadfield.form_class_number(229) == 3
        assert quadfield.class_number_dirichlet(401) == 5

    def test_methods_agree_small(self):
        for d in range(5, 500):
            if quadfield.is_fundamental_discriminant(d):
                assert quadfield.class_number_dirichlet(d) == quadfield.form_class_number(d), d

    def test_genus_theory_divisibility(self):
        # the narrow class group has 2-rank (number of prime discriminant
        # factors) - 1, so 2^(omega(d)-1) divides the cycle count
        import sympy

        for d in range(5, 1000):
            if not quadfield.is_fundamental_discriminant(d):
                continue
            two_rank = len(sympy.factorint(d)) - 1
            assert quadfield.form_class_number(d) % 2**two_rank == 0, d

    def test_nonfundamental_rejected(self):
        for d in (9, 20, 45, 48):
            with pytest.raises(BadDiscriminant):
                quadfield.class_number_dirichlet(d)

    def test_bad_form_discriminants(self):
        with pytest.raises(BadDiscriminant):
            quadfield.form_class_number(7)  # 3 mod 4
        with pytest.raises(BadDiscriminant):
            quadfield.form_class_number(16)  # perfect square

    def test_reduced_forms_are_reduced_and_cycle(self):
        for disc in (5, 40, 229, 316):
            forms = quadfield.reduced_forms(disc)
            seen = set(forms)
            assert len(seen) == len(forms)
            for f in forms:
                a, b, c = f
                assert a > 0 and b * b - 4 * a * c == disc
                assert is_reduced(a, b, disc)
                # rho^2 stays inside the a > 0 reduced forms (rho permutes all of them)
                g = rho_step(rho_step(f, disc), disc)
                assert g in seen, (disc, f, g)

    def test_bound_check(self):
        assert quadfield.class_number_bound_check(5)
        assert quadfield.class_number_bound_check(13)
        assert quadfield.class_number_bound_check(9973)  # largest 1 mod 4 prime below 1e4

    def test_l_series_estimate_brackets_exact(self):
        for d in (5, 13, 40, 229):
            exact = -quadfield._lsum(d) / math.sqrt(d)
            approx, bound = l_series_estimate(d)
            assert abs(approx - exact) <= bound, d

    def test_sum_that_does_not_round_is_a_bug(self, monkeypatch):
        # below the cap the float sum is proven within 0.25 of h, so a miss
        # means a wrong unit or a wrong chi
        monkeypatch.setattr(quadfield, "_lsum", lambda d: -1.0)
        with pytest.raises(ComputationBug, match="not within 0.25"):
            quadfield.class_number_dirichlet(229)

    def test_cap_refuses_before_any_work(self, monkeypatch):
        cap = quadfield._LSUM_MAX_DISC
        d = next(p for p in range(cap + 1, cap + 1000, 4) if modmath.is_prime(p))

        def no_work(*args):
            raise AssertionError("work done above the cap")

        for name in ("_lsum", "is_fundamental_discriminant", "unit_of_discriminant"):
            monkeypatch.setattr(quadfield, name, no_work)
        with pytest.raises(OutOfRange):
            quadfield.class_number_dirichlet(d)
        monkeypatch.undo()
        with pytest.raises(BadDiscriminant):  # the cap itself passes, to the next check
            quadfield.class_number_dirichlet(cap)

    def test_mpmath_lsum_matches_float(self):
        for d in (5, 40, 229):
            assert abs(mpmath_lsum(d) - quadfield._lsum(d)) < 1e-9

    def test_is_fundamental_discriminant(self):
        assert quadfield.is_fundamental_discriminant(5)
        assert quadfield.is_fundamental_discriminant(8)
        assert quadfield.is_fundamental_discriminant(12)
        assert quadfield.is_fundamental_discriminant(13)
        assert not quadfield.is_fundamental_discriminant(9)
        assert not quadfield.is_fundamental_discriminant(20)
        assert not quadfield.is_fundamental_discriminant(4)
        assert not quadfield.is_fundamental_discriminant(-3)


class TestLSum:
    def test_half_sum_matches_full_sum(self):
        fundamental = [d for d in range(5, 2001) if quadfield.is_fundamental_discriminant(d)]
        primes = [p for p in modmath.primes_in(2001, 3000) if p % 4 == 1]
        for d in fundamental + primes:
            assert abs(quadfield._lsum(d) - reference_lsum(d)) < 1e-9, d

    def test_mpmath_half_sum_matches_full_sum(self):
        # the 40-digit oracle's half sum against the float sum over every a
        for d in (5, 8, 12, 229, 1229, 1996, 2953):
            assert abs(mpmath_lsum(d) - reference_lsum(d)) < 1e-9, d

    def test_float_sum_within_its_bound(self):
        # 100049 is prime; 1021020 = 4 * 3 * 5 * 7 * 11 * 13 * 17 has 92k terms
        # class_number_dirichlet's docstring bounds the error of _lsum(d) by
        # 2n (6 + 2 ln d) u + u |L| for its n <= (d-1)/2 nonzero terms
        u = 2.0**-53
        for d in (5, 8, 12, 229, 1229, 1996, 2953, 100049, 1021020):
            want = mpmath_lsum(d)
            n = sum(1 for chi in quadfield._chi_half(d) if chi)
            bound = 2 * n * (6 + 2 * math.log(d)) * u + u * abs(want)
            assert abs(quadfield._lsum(d) - want) <= bound, d

    def test_prime_table_is_the_kronecker_symbol(self):
        for p in modmath.primes_in(5, 3000):
            if p % 4 == 1:
                want = [modmath.kronecker(p, a) for a in range((p + 1) // 2)]
                assert quadfield._chi_half(p) == want, p

    def test_composite_table_is_the_kronecker_symbol(self):
        # every other d in [3, 3000]: the sieve tables chi for all d, not just primes
        for d in range(3, 3001):
            if d % 4 == 1 and modmath.is_prime(d):
                continue
            want = [modmath.kronecker(d, a) for a in range((d + 1) // 2)]
            assert quadfield._chi_half(d) == want, d

    def test_class_numbers_of_primes_to_1e4_match_forms(self):
        # the analytic route is the oracle of the cycle count callers read
        rng = random.Random(17)
        near_1e5 = []
        while len(near_1e5) < 12:
            p = rng.randrange(10**5, 11 * 10**4)
            if p % 4 == 1 and p not in near_1e5 and modmath.is_prime(p):
                near_1e5.append(p)
        for p in [p for p in modmath.primes_in(5, 10_000) if p % 4 == 1] + near_1e5:
            assert quadfield.class_number_dirichlet(p) == quadfield.class_number(p), p


class TestReducedFormsOracle:
    def test_matches_trial_division_to_4000(self):
        for disc in range(5, 4001):
            if disc % 4 not in (0, 1) or math.isqrt(disc) ** 2 == disc:
                continue
            assert_forms_match_reference(disc)

    @pytest.mark.parametrize("centre", [1817, 209991, 1752299])
    def test_class_numbers_near_known_failures(self, centre):
        odd = [D for D in range(centre - 40, centre + 41, 2) if math.isqrt(D) ** 2 != D]
        nearest = sorted(odd, key=lambda D: (abs(D - centre), D))[:10]
        for D in nearest:
            reference = assert_forms_match_reference(4 * D)
            h = reference_class_number(4 * D, reference)
            assert quadfield.form_class_number(4 * D) == h, D

    def test_discriminants_across_the_root_table_limit(self):
        # the sieve of disc asks for the primes q <= isqrt(disc)//2; at
        # 16000001 every root comes from a table, at the other two
        # disc mod 2053 has a root, which Tonelli-Shanks finds
        assert max(modmath.primes_to(2000)) < modmath._SQRT_TABLE_LIMIT < 2053
        for disc in (16000001, 16859249, 17000004):
            assert_forms_match_reference(disc)

    def test_one_large_discriminant_builds_no_table_above_the_limit(self):
        # 4 * 1000000003 asks for the 3400-odd primes up to 31622; only the
        # 308 odd primes below the limit may leave a table behind
        forms = quadfield.reduced_forms(4 * 1000000003)
        assert modmath.sqrt_table.cache_info().currsize <= 308
        assert len(set(forms)) == len(forms) > 0
        assert quadfield.form_class_number(4 * 1000000003) > 0


@contextlib.contextmanager
def deadline(seconds):
    """Fail the block with AssertionError if it runs longer than seconds."""

    def expire(signum, frame):
        raise AssertionError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestWalkGuard:
    """form_class_number's rho^2 walk takes each form it reaches out of the
    list reduced_forms returned, so a wrong list raises ComputationBug."""

    DISC = 4 * 209991

    def patch(self, monkeypatch, edit):
        forms = quadfield.reduced_forms(self.DISC)
        monkeypatch.setattr(quadfield, "reduced_forms", lambda disc: edit(list(forms)))
        return forms

    def test_dropped_form_raises(self, monkeypatch):
        # every cycle here has more than one form, so every drop shows
        forms = quadfield.reduced_forms(self.DISC)
        for i in range(len(forms)):
            monkeypatch.setattr(quadfield, "reduced_forms", lambda disc: forms[:i] + forms[i + 1 :])
            with pytest.raises(ComputationBug, match="did not list"):
                quadfield.form_class_number(self.DISC)

    def test_non_reduced_form_raises_promptly(self, monkeypatch):
        extra = (1, 2, -(self.DISC - 4) // 4)
        assert not is_reduced(*extra[:2], self.DISC) and math.gcd(*extra) == 1
        self.patch(monkeypatch, lambda forms: forms + [extra])
        with deadline(5), pytest.raises(ComputationBug):
            quadfield.form_class_number(self.DISC)

    def test_duplicates_keep_h(self, monkeypatch):
        forms = self.patch(monkeypatch, lambda forms: forms + forms[::3])
        assert len(forms) == 372
        assert quadfield.form_class_number(self.DISC) == 4


def descent_matches_cycle_count(D):
    h4d = quadfield.class_number_4D(D, quadfield.unit_of_discriminant(4 * D))
    assert h4d == quadfield.form_class_number(4 * D), D


def ones_mod_4(lo, hi):
    """The nonsquare D = 1 mod 4 in [lo, hi]."""
    return [D for D in range(lo + (1 - lo) % 4, hi + 1, 4) if math.isqrt(D) ** 2 != D]


class TestConductorTwoDescent:
    """class_number_4D against form_class_number(4D), the cycle count."""

    def test_every_d_1_mod_4_below_20000(self):
        for D in ones_mod_4(5, 19999):
            descent_matches_cycle_count(D)

    @pytest.mark.parametrize("failure", [209991, 1752299])
    def test_200_either_side_of_a_failure(self, failure):
        below = [D for D in ones_mod_4(failure - 1000, failure) if D < failure][-200:]
        above = ones_mod_4(failure, failure + 1000)[:200]
        assert len(below) == len(above) == 200
        for D in below + above:
            descent_matches_cycle_count(D)

    @pytest.mark.parametrize(
        "D, h_D, h_4D, k",
        [
            (5, 1, 1, 3),  # eps = (1 + sqrt 5)/2, eps^3 = 2 + sqrt 5
            (13, 1, 1, 3),  # eps = (3 + sqrt 13)/2, eps^3 = 18 + 5 sqrt 13
            (37, 1, 3, 1),  # 5 mod 8, eps = 6 + sqrt 37 in Z[sqrt 37]: h(4D) = 3h(D)
            (17, 1, 1, 1),  # 1 mod 8, eps = 4 + sqrt 17: h(4D) = h(D)
        ],
    )
    def test_anchors(self, D, h_D, h_4D, k):
        t, u, norm = quadfield.unit_of_discriminant(D)
        assert (t % 2 == 0) == (k == 1)
        assert quadfield.form_class_number(D) == h_D
        assert quadfield.class_number_4D(D, quadfield.unit_of_discriminant(4 * D)) == h_4D
        assert quadfield.form_class_number(4 * D) == h_4D

    def test_d_3_mod_4_is_the_cycle_count(self):
        for D in (3, 7, 11, 1819, 209991):
            assert quadfield.class_number_4D(D, None) == quadfield.form_class_number(4 * D)

    @pytest.mark.parametrize("D", [5, 13, 37, 17])
    def test_a_unit_of_4D_that_is_no_power_of_eps_raises(self, D):
        t4, u4, norm4 = quadfield.unit_of_discriminant(4 * D)
        square = ((t4 * t4 + 4 * D * u4 * u4) // 2, t4 * u4, 1)
        with pytest.raises(ComputationBug, match=f"^D = {D}: the unit"):
            quadfield.class_number_4D(D, square)


@pytest.mark.skipif(os.environ.get("AACTK_SLOW") != "1", reason="set AACTK_SLOW=1 to run")
def test_descent_matches_cycle_count_to_2e5():
    for D in ones_mod_4(5, 200000):
        descent_matches_cycle_count(D)


class TestFormSieve:
    def test_class_numbers_match_rho_cycles_to_4000(self):
        # the rho^2 walk over the a > 0 forms against a walk over all of them
        for disc in range(5, 4001):
            if disc % 4 not in (0, 1) or math.isqrt(disc) ** 2 == disc:
                continue
            assert quadfield.form_class_number(disc) == reference_class_number(disc), disc

    def test_above_2_22(self):
        # n = D - 1, D - 4, D - 9 lie above 2^22
        D = 4_194_313
        assert_forms_match_reference(4 * D)

    def test_seeded_discriminants_between_1e6_and_1e7(self):
        rng = random.Random(10)
        discs = []
        while len(discs) < 4:
            disc = rng.randrange(10**6, 10**7)
            if disc % 4 in (0, 1) and math.isqrt(disc) ** 2 != disc:
                discs.append(disc)
        for disc in discs:
            reference = assert_forms_match_reference(disc)
            assert quadfield.form_class_number(disc) == reference_class_number(disc, reference), disc
