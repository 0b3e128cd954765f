import json
import math
import random

import pytest

from aactk import congruences as cg
from aactk import cli, cyclotomic, modmath, quadfield, scan
from aactk.congruences import Statement
from aactk.errors import (
    BadFactorization,
    BadRepresentatives,
    HypothesisFail,
    NotNonResidue,
    OutOfRange,
    WrongResidueClass,
)

P1MOD4_TO_100 = [5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97]


class TestUnitClassData:
    def test_t_is_invertible(self):
        for p in P1MOD4_TO_100:
            data = cg.unit_class_data(p)
            assert data.t_mod_p % p != 0
            # t^2 = p u^2 - 4 means t^2 = -4 mod p
            assert data.t_mod_p**2 % p == (-4) % p

    def test_p5_values(self):
        data = cg.unit_class_data(5)
        assert (data.t_mod_p, data.u_mod_p, data.h_mod_p) == (1, 1, 1)
        assert data.ratio_2hu_t == 2


class TestVerifyAac:
    def test_hand_anchors(self):
        r = cg.verify_aac(5)
        assert (r.lhs, r.rhs, r.holds) == (2, 2, True)
        r = cg.verify_aac(13)
        assert (r.lhs, r.rhs, r.holds) == (5, 5, True)

    def test_p17(self):
        assert cg.verify_aac(17).holds

    def test_report_shape(self):
        r = cg.verify_aac(5)
        assert r.statement_id is Statement.AAC_EQ2
        rec = r.to_record()
        assert rec["stmt"] == "AAC_EQ2" and rec["holds"] is True

    def test_wrong_class(self):
        with pytest.raises(WrongResidueClass):
            cg.verify_aac(7)


class TestVerifyThm21:
    def test_hand_anchor(self):
        r = cg.verify_thm21(5, [6, 4], [2, 8])
        assert (r.lhs, r.rhs, r.holds) == (3, 3, True)

    def test_in_range_reduces_to_aac(self):
        r = cg.verify_thm21(5, [1, 4], [2, 3])
        a = cg.verify_aac(5)
        assert r.holds and r.lhs == a.lhs == a.rhs

    def test_randomized_lifts(self):
        rng = random.Random(20260810)
        for p in (5, 13, 17, 29):
            rs = modmath.residue_sets(p)
            for _ in range(25):
                a_set = [r + p * rng.randrange(0, 12) for r in rs.qr]
                b_set = [n + p * rng.randrange(0, 12) for n in rs.nqr]
                rep = cg.verify_thm21(p, a_set, b_set)
                assert rep.holds, (p, a_set, b_set)

    def test_seeded_lifts_above_1e4(self):
        # A* and B* are kept mod p^2; the exact products are the oracle for lhs
        p = 10009
        rng = random.Random(20261018)
        rs = modmath.residue_sets(p)
        a_set = [r + p * rng.randrange(0, 12) for r in rs.qr]
        b_set = [n + p * rng.randrange(0, 12) for n in rs.nqr]
        rep = cg.verify_thm21(p, a_set, b_set)
        assert rep.holds
        assert rep.lhs == (math.prod(a_set) + math.prod(b_set)) // p % p

    def test_representatives_in_any_order(self):
        rng = random.Random(7)
        for p in (13, 29, 10009):
            rs = modmath.residue_sets(p)
            a_set = [r + p * rng.randrange(0, 12) for r in rs.qr]
            b_set = [n + p * rng.randrange(0, 12) for n in rs.nqr]
            want = cg.verify_thm21(p, a_set, b_set)
            rng.shuffle(a_set)
            rng.shuffle(b_set)
            got = cg.verify_thm21(p, a_set, b_set)
            assert (got.lhs, got.rhs, got.holds) == (want.lhs, want.rhs, True), p

    def test_lifts_of_any_size(self):
        # lifts from 2^64 up give the sides of the same set reduced mod p^2
        rng = random.Random(64)
        for p in (13, 10009):
            rs = modmath.residue_sets(p)
            p2 = p * p
            a_set = [r + p2 * 2**64 * rng.randrange(1, 2**20) for r in rs.qr]
            b_set = [n + p2 * 2**64 * rng.randrange(1, 2**20) for n in rs.nqr]
            big = cg.verify_thm21(p, a_set, b_set)
            small = cg.verify_thm21(p, [a % p2 for a in a_set], [b % p2 for b in b_set])
            assert min(a_set + b_set) >= 2**64
            assert (big.lhs, big.rhs, big.holds) == (small.lhs, small.rhs, True), p
            assert big.params == {"a_set": a_set, "b_set": b_set}
        assert big.lhs == (math.prod(a_set) + math.prod(b_set)) // p % p

    def test_lifts_on_both_sides_of_2_63(self):
        # a_set mixes lifts below 2^63 with lifts above it and 2^63 joins the set of
        # its class, so a_set takes the exact conversion; at p = 10009 (2^63 a
        # residue) b_set takes the int64 one in the same call; math.prod is the oracle
        rng = random.Random(63)
        for p in (13, 10009):
            rs = modmath.residue_sets(p)
            top = 2**63 // p * p + p  # the least multiple of p above 2^63
            a_set = [r + (top if i % 2 else p * rng.randrange(12)) for i, r in enumerate(rs.qr)]
            b_set = [n + p * rng.randrange(12) for n in rs.nqr]
            edge = a_set if modmath.legendre(2**63, p) == 1 else b_set
            edge[[x % p for x in edge].index(2**63 % p)] = 2**63
            assert max(a_set) >= 2**63 > min(a_set) and 2**63 in a_set + b_set
            rep = cg.verify_thm21(p, a_set, b_set)
            assert rep.holds and rep.params == {"a_set": a_set, "b_set": b_set}, p
            assert rep.lhs == (math.prod(a_set) + math.prod(b_set)) // p % p, p

    def test_bad_representatives(self):
        with pytest.raises(BadRepresentatives):
            cg.verify_thm21(5, [1, 1], [2, 3])
        with pytest.raises(BadRepresentatives):
            cg.verify_thm21(5, [1, 4], [2, 4])
        with pytest.raises(BadRepresentatives):
            cg.verify_thm21(5, [1, -4], [2, 3])
        # a float lift is refused, not truncated to an integer
        with pytest.raises(BadRepresentatives):
            cg.verify_thm21(5, [1.9, 4.5], [2, 3])
        with pytest.raises(BadRepresentatives):
            cg.verify_thm21(5, [1, 4], [2, 3.0])
        with pytest.raises(BadRepresentatives):
            cg.verify_thm21(5, [1 + 5 * 2**70, 4.0], [2, 3])
        with pytest.raises(BadRepresentatives):
            cg.verify_thm21(5, [1, 4], [2, -(2**70)])
        # a b-set of the right size with a multiple of p, a repeated class or a residue
        nqr = [2, 5, 6, 7, 8, 11]
        for bad in (13, 26, 2 + 13, 1, 3 + 13 * 9):
            with pytest.raises(BadRepresentatives, match="b_set"):
                cg.verify_thm21(13, [1, 3, 4, 9, 10, 12], nqr[:-1] + [bad])

    def test_representatives_checked_as_by_sorted_reductions(self):
        # the seen/flags check accepts exactly the sets whose sorted reductions are R and N
        rng = random.Random(21)
        for p in (5, 13, 29, 101):
            rs = modmath.residue_sets(p)
            qr, nqr = rs.qr, rs.nqr
            for _ in range(30):
                a_set = [x + p * rng.randrange(0, 4) for x in qr]
                b_set = [x + p * rng.randrange(0, 4) for x in nqr]
                which = rng.choice((a_set, b_set))
                change = rng.randrange(5)
                if change == 1:
                    which[rng.randrange(len(which))] = p * rng.randrange(1, 4)
                elif change == 2:
                    which[rng.randrange(len(which))] = rng.choice(which)
                elif change == 3:
                    which.append(rng.choice(qr + nqr))
                elif change == 4:
                    which.pop()
                want_a = tuple(sorted(a % p for a in a_set)) == qr
                want_b = tuple(sorted(b % p for b in b_set)) == nqr
                try:
                    cg.verify_thm21(p, a_set, b_set)
                    got = "ok"
                except BadRepresentatives as exc:
                    got = str(exc)
                if not want_a:
                    assert got == "a_set does not reduce to the residue set", (p, a_set)
                elif not want_b:
                    assert got == "b_set does not reduce to the non-residue set", (p, b_set)
                else:
                    assert got == "ok", (p, a_set, b_set)


class TestVerifyThm51:
    def test_hand_anchor(self):
        r1, r2 = cg.verify_thm51(5, 2)
        assert r1.statement_id is Statement.THM51_R
        assert r2.statement_id is Statement.THM51_N
        assert (r1.lhs, r1.holds, r2.holds) == (3, True, True)

    def test_spot_checks(self):
        for p, m in ((13, 2), (17, 3)):
            r1, r2 = cg.verify_thm51(p, m)
            assert r1.holds and r2.holds

    def test_rhs_sum_is_2F(self):
        # adding the two displays kills the unit term and doubles F(m)
        for p in (5, 13, 17, 29):
            for m in modmath.residue_sets(p).nqr:
                r1, r2 = cg.verify_thm51(p, m)
                f = modmath.fermat_quotient_mod(m, p)
                assert (r1.rhs + r2.rhs) % p == 2 * f % p, (p, m)

    def test_residue_rejected(self):
        with pytest.raises(NotNonResidue):
            cg.verify_thm51(13, 3)


def test_thm21_and_thm51_need_no_products(monkeypatch):
    # both read only the partition; A and B are verify_aac's alone
    want21 = repr(cg.verify_thm21(13, [1, 3, 4, 9, 10, 12], [2, 5, 6, 7, 8, 11]))
    want51 = repr(cg.verify_thm51(13, 2))

    def no_products(p):
        raise AssertionError("residue_sets called")

    monkeypatch.setattr(modmath, "residue_sets", no_products)
    assert repr(cg.verify_thm21(13, [1, 3, 4, 9, 10, 12], [2, 5, 6, 7, 8, 11])) == want21
    assert repr(cg.verify_thm51(13, 2)) == want51


@pytest.mark.parametrize("p", [13, 10009])
def test_verifiers_skip_the_lsum(p, monkeypatch):
    # h is the exact cycle count: no verifier reaches the analytic route
    def no_lsum(*args, **kwargs):
        raise AssertionError("_lsum called")

    quadfield.class_number.cache_clear()
    cg.unit_class_data.cache_clear()
    monkeypatch.setattr(quadfield, "_lsum", no_lsum)
    rs = modmath.residue_sets(p)
    n, r = rs.nqr[1], rs.qr[2]
    # eisenstein needs p = 5 mod 8, and gen-eisenstein an odd non-residue m
    # with p = 1 mod m, which neither 13 nor 10009 has: those two run at the
    # nearest primes where they apply
    calls = {
        "aac": (p,),
        "thm21": (p, [a + p for a in rs.qr], list(rs.nqr)),
        "thm51": (p, n),
        "cor53": (p, n),
        "thm54": (p, n + 7 * p),
        "eisenstein": (p if p % 8 == 5 else 10037,),
        "gen-eisenstein": ({13: 7, 10009: 10039}[p], 3),
        "thm56": (p, r),
        "aac1952": (p, n),
    }
    assert calls.keys() == cli.VERIFIERS.keys()
    for stmt, args in calls.items():
        v = cli.VERIFIERS[stmt]
        derived = getattr(cg, v.derive)(*args) if v.derive else ()
        result = getattr(cg, v.func)(*args, *derived)
        for rep in result if isinstance(result, tuple) else [result]:
            assert rep.holds, stmt
    assert cyclotomic.unit_identity_check(13, 2)


def _plain(value) -> bool:
    if type(value) is dict:
        return all(type(k) is str and _plain(v) for k, v in value.items())
    if type(value) is list:
        return all(_plain(v) for v in value)
    return type(value) is int


@pytest.mark.parametrize("p", [13, 10037])
def test_reports_hold_plain_python_values(p):
    # p = 5 mod 8, so every statement but gen-eisenstein applies; that one
    # runs at 7 and at 10039 (3 mod 4, 1 mod 3, 3 a non-residue)
    rs = modmath.residue_sets(p)
    n = rs.nqr[1]
    r = rs.qr[2]
    q = {13: 7, 10037: 10039}[p]
    reports = [
        cg.verify_aac(p),
        cg.verify_thm21(p, [a + p for a in rs.qr], list(rs.nqr)),
        *cg.verify_thm51(p, n),
        cg.verify_cor53(p, n),
        cg.verify_thm54(p, n + 7 * p),
        cg.verify_eisenstein(p),
        cg.verify_gen_eisenstein(q, 3),
        cg.verify_thm56(p, r, *cg.nonresidue_factorization(p, r)),
        cg.verify_aac1952(p, n),
    ]
    assert len({rep.statement_id for rep in reports}) == 10
    for rep in reports:
        assert rep.holds is True, rep.statement_id
        assert type(rep.p) is type(rep.lhs) is type(rep.rhs) is int, rep.statement_id
        assert _plain(rep.params), rep.statement_id
        assert all(type(note) is str for note in rep.notes)
        rec = rep.to_record()
        assert json.loads(json.dumps(rec)) == rec


class TestVerifyCor53:
    def test_hand_anchor_with_flag(self):
        r = cg.verify_cor53(5, 2)
        assert (r.lhs, r.rhs, r.holds) == (1, 1, True)
        assert cg.PRINTED_FORM_NOTE in r.notes

    def test_p13_hand_values(self):
        r = cg.verify_cor53(13, 2)
        assert (r.lhs, r.rhs, r.holds) == (6, 6, True)

    def test_spot(self):
        assert cg.verify_cor53(17, 3).holds


class TestVerifyThm54:
    def test_hand_anchors(self):
        assert cg.verify_thm54(5, 2).lhs == 4
        assert cg.verify_thm54(5, 2).holds
        r = cg.verify_thm54(5, 7)
        assert (r.lhs, r.rhs, r.holds) == (0, 0, True)
        assert cg.verify_thm54(13, 2).lhs == 7

    def test_lift_invariance(self):
        # M -> M + p*s leaves the verdict (and both sides' agreement) intact
        for p in (5, 13, 29, 97):
            for m in modmath.residue_sets(p).nqr[:4]:
                for s in range(6):
                    assert cg.verify_thm54(p, m + p * s).holds, (p, m, s)

    def test_residue_lift_rejected(self):
        with pytest.raises(NotNonResidue):
            cg.verify_thm54(5, 11)  # 11 = 1 mod 5 is a residue
        with pytest.raises(OutOfRange):
            cg.verify_thm54(5, 0)


class TestVerifyEisenstein:
    def test_hand_anchors(self):
        r = cg.verify_eisenstein(5)
        assert (r.lhs, r.rhs) == (4, 4)
        r = cg.verify_eisenstein(13)
        assert (r.lhs, r.rhs) == (7, 7)

    def test_p29(self):
        assert cg.verify_eisenstein(29).holds

    def test_wrong_class(self):
        with pytest.raises(WrongResidueClass):
            cg.verify_eisenstein(17)  # 1 mod 8: 2 is a residue


class TestVerifyGenEisenstein:
    def test_smallest_admissible_pair(self):
        # p = 1 mod m and m a non-residue forces p = 3 mod 4; (7, 3) is smallest
        r = cg.verify_gen_eisenstein(7, 3)
        assert r.holds

    def test_scan_admissible_pairs(self):
        checked = 0
        for p in modmath.primes_in(5, 300):
            for m in range(3, min(p, 40), 2):
                if p % m != 1 or modmath.legendre(m, p) != -1:
                    continue
                assert cg.verify_gen_eisenstein(p, m).holds, (p, m)
                checked += 1
        assert checked > 10

    def test_vacuous_for_1_mod_4(self):
        # no odd non-residue m with p = 1 mod m exists when p = 1 mod 4
        for p in modmath.primes_in(5, 500):
            if p % 4 != 1:
                continue
            for m in range(3, p, 2):
                if p % m == 1:
                    assert modmath.legendre(m, p) == 1, (p, m)

    def test_guards(self):
        with pytest.raises(HypothesisFail):
            cg.verify_gen_eisenstein(7, 2)  # parity guard
        with pytest.raises(HypothesisFail):
            cg.verify_gen_eisenstein(7, 5)  # 7 != 1 mod 5
        with pytest.raises(HypothesisFail):
            cg.verify_gen_eisenstein(13, 3)  # 13 = 1 mod 3 but (3/13) = +1


class TestVerifyThm56:
    def test_hand_anchor(self):
        r = cg.verify_thm56(5, 4, 2, 2)
        assert (r.lhs, r.rhs, r.holds) == (1, 1, True)

    def test_p13(self):
        assert cg.verify_thm56(13, 4, 2, 2).holds

    def test_helper_factorization(self):
        for p in (5, 13, 17, 29):
            for r in modmath.residue_sets(p).qr:
                abar, bbar = cg.nonresidue_factorization(p, r)
                assert abar == min(a for a in range(2, p) if modmath.legendre(a, p) == -1)
                assert modmath.legendre(bbar % p, p) == -1
                assert abar * bbar % (p * p) == r % (p * p)
                assert cg.verify_thm56(p, r, abar, bbar).holds, (p, r)

    def test_bad_factorization(self):
        with pytest.raises(BadFactorization):
            cg.verify_thm56(5, 4, 2, 7)  # 2*7 = 14 != 4 mod 25
        with pytest.raises(HypothesisFail):
            cg.verify_thm56(5, 2, 2, 2)  # r must be a residue
        with pytest.raises(NotNonResidue):
            cg.verify_thm56(5, 4, 4, 6)  # abar reduces to a residue


class TestVerifyAac1952:
    def test_hand_anchors(self):
        r = cg.verify_aac1952(5, 2)
        assert (r.lhs, r.rhs, r.holds) == (4, 4, True)
        r = cg.verify_aac1952(13, 2)
        assert (r.lhs, r.rhs, r.holds) == (10, 10, True)

    def test_p17(self):
        assert cg.verify_aac1952(17, 3).holds

    def test_doubling_relation_with_aac(self):
        # rhs here is 4hu/t-flavored: exactly twice the AAC rhs
        for p in P1MOD4_TO_100:
            aac_rhs = cg.verify_aac(p).rhs
            for n in modmath.residue_sets(p).nqr:
                r = cg.verify_aac1952(p, n)
                assert r.rhs == 2 * aac_rhs % p, (p, n)

    def test_residue_rejected(self):
        with pytest.raises(NotNonResidue):
            cg.verify_aac1952(13, 4)


class TestClassNumberRecovery:
    def test_h_recovered_from_residue_products(self):
        # the point of the whole machinery: with u invertible mod p and
        # h < p, the congruence pins down h exactly from A, B, t, u alone
        from aactk import quadfield

        for p in [q for q in modmath.primes_in(5, 500) if q % 4 == 1]:
            data = cg.unit_class_data(p)
            rs = modmath.residue_sets(p)
            rhs = (rs.A + rs.B) // p % p
            h_rec = (
                rhs * data.t_mod_p % p * modmath.mod_inverse(2 * data.u_mod_p, p) % p
            )
            assert h_rec == quadfield.class_number(p), p


class TestConjectureScan:
    def test_scan_to_2000(self):
        records = list(scan.run("aac", scan.plan("aac", 3, 2000)))
        pairs = [(r["p"], r["u_mod_p"]) for r in records]
        assert pairs[0] == (5, 1)
        assert (13, 1) in pairs
        assert all(u != 0 and r["holds"] for (_, u), r in zip(pairs, records))
        assert [p for p, _ in pairs] == [
            p for p in modmath.primes_in(5, 2000) if p % 4 == 1
        ]
