import math
import os
import random
import subprocess
import sys

import pytest

import aactk
from aactk import cyclotomic as cyc
from aactk import modmath, quadfield
from aactk.errors import (
    ModulusMismatch,
    NotNonResidue,
    OutOfRange,
    ToleranceExceeded,
    WrongResidueClass,
)


def poly_rem_mod_cyclotomic(coeffs, p):
    """Oracle: reduce an integer polynomial mod Phi_p = 1 + x + ... + x^(p-1).

    Plain long division, nothing shared with the CycInt fold.
    """
    phi = [1] * p
    r = list(coeffs)
    while len(r) >= p:
        lead = r[-1]
        shift = len(r) - p
        for i, c in enumerate(phi):
            r[shift + i] -= lead * c
        while r and r[-1] == 0:
            r.pop()
    r += [0] * (p - 1 - len(r))
    return tuple(r)


def naive_product_coeffs(x, y):
    out = [0] * (len(x) + len(y) - 1)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            out[i + j] += xi * yj
    return out


class TestCycInt:
    def test_root_of_unity(self):
        p = 7
        z = cyc.CycInt.from_powers(p, {1: 1})
        z_last = cyc.CycInt.from_powers(p, {p - 1: 1})
        assert cyc.cyc_mul(z, z_last) == cyc.CycInt.one(p)

    def test_mul_identity(self):
        p = 11
        x = cyc.CycInt.from_powers(p, {0: 3, 2: -1, 7: 5})
        assert cyc.cyc_mul(x, cyc.CycInt.one(p)) == x

    def test_expansion_anchor(self):
        # (zeta - 1)(zeta^4 - 1) = 3 + zeta^2 + zeta^3 for p = 5
        p = 5
        a = cyc.CycInt.from_powers(p, {1: 1, 0: -1})
        b = cyc.CycInt.from_powers(p, {4: 1, 0: -1})
        assert cyc.cyc_mul(a, b).coeffs == (3, 0, 1, 1)

    def test_mul_against_division_oracle(self):
        rng = random.Random(7)
        for p in (5, 7, 13):
            for _ in range(20):
                xc = [rng.randrange(-9, 10) for _ in range(p - 1)]
                yc = [rng.randrange(-9, 10) for _ in range(p - 1)]
                x = cyc.CycInt(p, tuple(xc))
                y = cyc.CycInt(p, tuple(yc))
                want = poly_rem_mod_cyclotomic(naive_product_coeffs(xc, yc), p)
                assert cyc.cyc_mul(x, y).coeffs == want, (p, xc, yc)

    def test_modulus_mismatch(self):
        with pytest.raises(ModulusMismatch):
            cyc.cyc_mul(cyc.CycInt.one(5), cyc.CycInt.one(7))

    def test_pow(self):
        p = 5
        z = cyc.CycInt.from_powers(p, {1: 1})
        assert cyc.cyc_pow(z, 5) == cyc.CycInt.one(p)
        assert cyc.cyc_pow(z, 0) == cyc.CycInt.one(p)

    def test_pow_matches_repeated_mul(self):
        # the exact power loop against e plain products, coefficient for coefficient
        rng = random.Random(20)
        for p in (5, 7, 13):
            for _ in range(4):
                x = cyc.CycInt(p, tuple(rng.randrange(-9, 10) for _ in range(p - 1)))
                want = cyc.CycInt.one(p)
                for e in range(13):
                    assert cyc.cyc_pow(x, e).coeffs == want.coeffs, (p, x, e)
                    want = cyc.cyc_mul(want, x)


class TestGaussSum:
    def test_tau_p5(self):
        tau = cyc.gauss_sum(5)
        # zeta - zeta^2 - zeta^3 + zeta^4 folded onto the power basis
        assert tau == cyc.CycInt.from_powers(5, {1: 1, 2: -1, 3: -1, 4: 1})

    def test_tau_squared_small(self):
        for p in (5, 13, 17, 29):
            tau = cyc.gauss_sum(p)
            assert cyc.cyc_mul(tau, tau) == p * cyc.CycInt.one(p), p

    def test_wrong_class(self):
        with pytest.raises(WrongResidueClass):
            cyc.gauss_sum(7)

    def test_tau_is_positive_root_numerically(self):
        # under zeta = exp(2*pi*i/p) the sum evaluates to +sqrt(p)
        import cmath
        import math

        for p in (5, 13, 17, 29):
            tau = cyc.gauss_sum(p)
            zeta = cmath.exp(2j * cmath.pi / p)
            value = sum(c * zeta**i for i, c in enumerate(tau.coeffs))
            assert abs(value - math.sqrt(p)) < 1e-9, p


class TestGroupRing:
    def test_lemma41_action(self):
        for p in (5, 13, 17):
            G = cyc.gauss_element(p)
            tau = cyc.gauss_sum(p)
            for a in range(1, p):
                za = cyc.CycInt.from_powers(p, {a: 1})
                assert cyc.apply_G(za, G) == modmath.legendre(a, p) * tau, (p, a)

    def test_rationals_killed(self):
        for p in (5, 13):
            G = cyc.gauss_element(p)
            assert cyc.apply_G(cyc.CycInt.one(p), G) == cyc.CycInt.zero(p)
            assert cyc.apply_G(7 * cyc.CycInt.one(p), G) == cyc.CycInt.zero(p)

    def test_linearity(self):
        p = 13
        G = cyc.gauss_element(p)
        x = cyc.CycInt.from_powers(p, {1: 2, 3: -1})
        y = cyc.CycInt.from_powers(p, {2: 5, 11: 1})
        assert cyc.apply_G(x + y, G) == cyc.apply_G(x, G) + cyc.apply_G(y, G)

    def test_reindexed_element_is_minus_G(self):
        # sum_j (j/p) sigma_(nj) = -G for every non-residue n
        for p in (5, 13, 17):
            G = cyc.gauss_element(p)
            for n in modmath.residue_sets(p).nqr:
                assert cyc.twisted_gauss_element(n, p) == -G, (p, n)

    def test_reindexed_element_is_G_for_residues(self):
        for p in (5, 13):
            G = cyc.gauss_element(p)
            for n in modmath.residue_sets(p).qr:
                # sum_j (nj/p) sigma_(nj) is just a reindexing of G itself
                wmap = {}
                for j in range(1, p):
                    a = n * j % p
                    wmap[a] = wmap.get(a, 0) + modmath.legendre(n * j, p)
                assert cyc.GroupRingElt.from_map(p, wmap) == G


class TestFPoly:
    def test_anchor_p5_n2(self):
        f = cyc.f_poly(2, 5)
        assert f.coeffs == (0, 1, 2, 2, 1)  # x + 2x^2 + 2x^3 + x^4

    def test_p5_n3_constant_term_and_degree(self):
        f = cyc.f_poly(3, 5)
        assert f.coeffs[0] == 0
        assert f.degree() < 15  # < p*n

    def test_constant_term_always_zero(self):
        for p in (5, 13):
            for n in modmath.residue_sets(p).nqr:
                if n >= 2:
                    assert cyc.f_poly(n, p).coeffs[0] == 0

    def test_nonresidue_required(self):
        with pytest.raises(NotNonResidue):
            cyc.f_poly(4, 5)
        with pytest.raises(OutOfRange):
            cyc.f_poly(1, 5)

    def test_lemma7_agreement(self):
        for p in (5, 13, 17):
            for n in modmath.residue_sets(p).nqr:
                if n < 2:
                    continue
                assert cyc.f_poly(n, p) == cyc.lemma7_rhs(n, p), (p, n)

    def test_lemma7_rhs_holds_plain_ints(self):
        # the coefficients are Python ints, not numpy scalars
        coeffs = cyc.lemma7_rhs(2, 13).coeffs
        assert coeffs and all(type(c) is int for c in coeffs)


class TestLemma6:
    def test_hand_anchor(self):
        # p=5, n=2, j=1: (zeta-1)^4 = 5(-zeta^3 + zeta^2 - zeta)
        p = 5
        gamma = cyc.CycInt.from_powers(p, {0: 1, 1: 1})
        delta = gamma - 2 * cyc.CycInt.one(p)
        quartic = cyc.cyc_pow(delta, 4)
        assert quartic == cyc.CycInt.from_powers(p, {1: -5, 2: 5, 3: -5})
        assert cyc.lemma6_check(2, 1, 5)

    def test_spot_checks(self):
        assert cyc.lemma6_check(3, 2, 5)
        assert cyc.lemma6_check(2, 1, 13)

    def test_all_pairs_small(self):
        for p in (5, 7, 13):
            for n in range(2, p):
                if modmath.legendre(n, p) != -1:
                    continue
                for j in range(1, p):
                    assert cyc.lemma6_check(n, j, p), (p, n, j)

    def test_rejects_residue(self):
        with pytest.raises(NotNonResidue):
            cyc.lemma6_check(4, 1, 5)

    @pytest.mark.parametrize("position", range(4))
    def test_verdict_follows_the_residues(self, monkeypatch, position):
        # lemma6_check decides on the kernel's residues: any nonzero one is a no
        residues = tuple(int(i == position) for i in range(4))
        monkeypatch.setattr(cyc, "cyc_pow_mod_p", lambda x, e: residues)
        assert not cyc.lemma6_check(2, 1, 5)


def reduced_exact_power(x, e):
    """Oracle: the exact power over Z, reduced coefficientwise mod p."""
    return tuple(c % x.p for c in cyc.cyc_pow(x, e).coeffs)


class TestPowModP:
    def test_every_lemma6_power_to_23(self):
        for p in modmath.primes_in(3, 23):
            for n in range(2, p):
                if modmath.legendre(n, p) != -1:
                    continue
                for j in range(1, p):
                    powers = {j * k % p: 1 for k in range(n)}
                    delta = cyc.CycInt.from_powers(p, powers) - n * cyc.CycInt.one(p)
                    want = reduced_exact_power(delta, p - 1)
                    assert cyc.cyc_pow_mod_p(delta, p - 1) == want, (p, n, j)

    def test_random_elements_to_211(self):
        rng = random.Random(20261018)
        for i, p in enumerate(modmath.primes_in(3, 211)):
            # coefficients of either sign and beyond p; exponents 0..12 in turn
            bound = p * p
            x = cyc.CycInt(p, tuple(rng.randrange(-bound, bound) for _ in range(p - 1)))
            e = i % 13
            assert cyc.cyc_pow_mod_p(x, e) == reduced_exact_power(x, e), (p, e)

    @pytest.mark.parametrize("p", [1621, 1627])
    def test_sparse_elements_either_side_of_the_32_bit_slots(self, p):
        # 1621 is the last prime with p*(p-1)^2 < 2^32, 1627 the first above
        assert (1621 * 1620**2 < 2**32) and (1627 * 1626**2 >= 2**32)
        rng = random.Random(p)
        for e in (2, 3, 5):
            powers = {rng.randrange(p): rng.randrange(-p, p) for _ in range(3)}
            x = cyc.CycInt.from_powers(p, powers)
            assert cyc.cyc_pow_mod_p(x, e) == reduced_exact_power(x, e), (p, e, powers)

    @pytest.mark.parametrize("p", [7, 1621, 1627])
    def test_near_largest_residues_fill_the_slots(self, p):
        # Every coefficient p - 1 is -(1 + ... + zeta^(p-2)) = zeta^(-1) mod p;
        # raising one of them by c gives x = zeta^(-1) + c*zeta^k, so
        # x^e = sum_i C(e, i) c^i zeta^(ik - (e-i)).  Squaring puts up to
        # (p-2)*(p-1)^2 in a slot: under 2^32 at 1621, over it at 1627.
        k, c = 3, 5
        coeffs = [p - 1] * (p - 1)
        coeffs[k] += c
        x = cyc.CycInt(p, tuple(coeffs))
        for e in (2, 3, p - 1):
            powers = {}
            for i in range(e + 1):
                exponent = (i * k - (e - i)) % p
                powers[exponent] = powers.get(exponent, 0) + math.comb(e, i) * c**i
            want = tuple(v % p for v in cyc.CycInt.from_powers(p, powers).coeffs)
            if p < 50:
                assert reduced_exact_power(x, e) == want, (p, e)
            assert cyc.cyc_pow_mod_p(x, e) == want, (p, e)

    def test_small_exponents(self):
        p = 7
        x = cyc.CycInt.from_powers(p, {0: 3, 2: -1, 6: 9})
        assert cyc.cyc_pow_mod_p(x, 0) == (1, 0, 0, 0, 0, 0)
        assert cyc.cyc_pow_mod_p(x, 1) == tuple(c % p for c in x.coeffs)

    def test_nonzero_power(self):
        # (zeta - 1)^3 is not divisible by 5: the check can say no
        delta = cyc.CycInt.from_powers(5, {1: 1, 0: -1})
        assert cyc.cyc_pow_mod_p(delta, 3) == (4, 3, 2, 1)

    def test_negative_exponent(self):
        with pytest.raises(OutOfRange):
            cyc.cyc_pow_mod_p(cyc.CycInt.one(5), -1)

    def test_slot_bound_raises_before_allocating(self):
        import tracemalloc
        from types import SimpleNamespace

        class Untouchable:
            def __getattr__(self, name):
                raise AssertionError(f"coefficients read: {name}")

            def __iter__(self):
                raise AssertionError("coefficients read")

        p = 2642257  # the first prime with p*(p-1)^2 >= 2^64
        assert p * (p - 1) ** 2 >= 2**64 > 2642239 * 2642238**2
        x = SimpleNamespace(p=p, coeffs=Untouchable())
        tracemalloc.start()
        try:
            with pytest.raises(OutOfRange):
                cyc.cyc_pow_mod_p(x, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestUnitIdentities:
    def test_p5_closed_form(self):
        import math

        # eps^2 = (sin 72 / sin 36)^2 = 2.618...
        eps_sq = ((1 + math.sqrt(5)) / 2) ** 2
        ratio = (math.sin(math.radians(72)) / math.sin(math.radians(36))) ** 2
        assert abs(eps_sq - ratio) < 1e-9
        assert cyc.unit_identity_check(5, 2, 1e-9)

    def test_acceptance_primes(self):
        assert cyc.unit_identity_check(13, 2, 1e-8)
        assert cyc.unit_identity_check(17, 3, 1e-8)
        assert cyc.unit_identity_check(29, 2, 1e-8)

    @pytest.mark.parametrize("p, n", [(1801, 11), (2089, 7), (2137, 5)])
    def test_large_units(self, p, n):
        # eps^(4h) has 110 to 121 decimal digits here: a working precision that
        # does not grow with it leaves deviations far above tol
        assert cyc.unit_identity_check(p, n)

    @pytest.mark.parametrize("p, n", [(13, 2), (1801, 11)])
    def test_wrong_class_number_raises(self, monkeypatch, p, n):
        h = quadfield.class_number(p)
        monkeypatch.setattr(quadfield, "class_number", lambda q: h + 1)
        with pytest.raises(ToleranceExceeded):
            cyc.unit_identity_check(p, n)

    def test_tolerance_exceeded(self):
        # far below working precision: the residual float error must trip it
        with pytest.raises(ToleranceExceeded):
            cyc.unit_identity_check(13, 2, 1e-200)

    def test_wrong_class(self):
        with pytest.raises(WrongResidueClass):
            cyc.unit_identity_check(7, 3, 1e-8)


def test_identity_checks_do_not_import_numpy():
    # numpy is imported lazily by the residue tables, and none of these
    # identity checks reads one, so none may pay its import
    script = (
        "import sys\n"
        "from aactk import cyclotomic as cyc, padiclog\n"
        "assert cyc.lemma6_check(2, 1, 13)\n"
        "tau = cyc.gauss_sum(13)\n"
        "assert cyc.cyc_mul(tau, tau) == 13 * cyc.CycInt.one(13)\n"
        "cyc.apply_G(cyc.CycInt.from_powers(13, {2: 1}), cyc.gauss_element(13))\n"
        "assert cyc.unit_identity_check(13, 2)\n"
        "assert padiclog.theorem4_check(14, 13)\n"
        "padiclog.padic_log_unit(2, 13)\n"
        "assert padiclog.omega_from_products([2, 5, 6, 7, 8, 11], 1, 13).holds\n"
        "assert cyc.lemma7_rhs(2, 13) == cyc.f_poly(2, 13)\n"
        "print('numpy' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(aactk.__file__))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
