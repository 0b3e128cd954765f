"""Acceptance suite: every criterion at its stated range and tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s or in the
captured output on failure).  These are the full-range runs; the module
test files carry the per-operation oracles and hand anchors.
"""

import random
import time

from aactk import congruences as cg
from aactk import cyclotomic as cyc
from aactk import gaac, modmath, padiclog, quadfield, scan


def _report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")
    assert ok, f"{name} failed: {detail}"


def primes_1mod4(lo, hi):
    return [p for p in modmath.primes_in(lo, hi) if p % 4 == 1]


def test_01_aac_congruence_to_2000():
    t0 = time.monotonic()
    anchors = {5: (2, 2), 13: (5, 5)}
    bad = []
    for p in primes_1mod4(5, 2000):
        r = cg.verify_aac(p)
        if not r.holds:
            bad.append(p)
        if p in anchors and (r.lhs, r.rhs) != anchors[p]:
            bad.append(p)
    _report(
        "01 aac-congruence p<=2000",
        not bad,
        f"{len(primes_1mod4(5, 2000))} primes, {time.monotonic() - t0:.1f}s",
    )


def test_02_aac_conjecture_scan_to_1e4():
    t0 = time.monotonic()
    records = list(scan.run("aac", scan.plan("aac", 3, 10_000)))
    zeros = [r["p"] for r in records if r["u_mod_p"] == 0]
    _report(
        "02 aac-conjecture-scan p<=1e4",
        not zeros and len(records) == len(primes_1mod4(5, 10_000)),
        f"{len(records)} primes, {time.monotonic() - t0:.1f}s",
    )


def test_03_thm21_randomized_lifts():
    t0 = time.monotonic()
    rng = random.Random(1951)
    hand = cg.verify_thm21(5, [6, 4], [2, 8])
    ok = hand.holds and hand.lhs == hand.rhs == 3
    checked = 0
    for p in primes_1mod4(5, 200):
        rs = modmath.residue_sets(p)
        for _ in range(100):
            a_set = [r + p * rng.randrange(0, 10) for r in rs.qr]
            b_set = [n + p * rng.randrange(0, 10) for n in rs.nqr]
            if not cg.verify_thm21(p, a_set, b_set).holds:
                ok = False
            checked += 1
    _report("03 thm21 random lifts p<=200", ok, f"{checked} trials, {time.monotonic() - t0:.1f}s")


def test_04_fermat_quotient_theorems_to_500():
    t0 = time.monotonic()
    bad = []
    cor53_flagged_at_5_2 = False
    for p in primes_1mod4(5, 500):
        rs = modmath.residue_sets(p)
        for m in rs.nqr:
            r1, r2 = cg.verify_thm51(p, m)
            if not (r1.holds and r2.holds):
                bad.append(("thm51", p, m))
            r = cg.verify_cor53(p, m)
            if not r.holds:
                bad.append(("cor53", p, m))
            if (p, m) == (5, 2):
                cor53_flagged_at_5_2 = cg.PRINTED_FORM_NOTE in r.notes
            if not cg.verify_thm54(p, m).holds:
                bad.append(("thm54", p, m))
        for r_res in rs.qr:
            abar, bbar = cg.nonresidue_factorization(p, r_res)
            if not cg.verify_thm56(p, r_res, abar, bbar).holds:
                bad.append(("thm56", p, r_res))
    _report(
        "04 thm51/cor53/thm54/thm56 p<=500",
        not bad and cor53_flagged_at_5_2,
        f"printed-form flagged at (5,2): {cor53_flagged_at_5_2}, {time.monotonic() - t0:.1f}s",
    )


def test_05_eisenstein_to_1e4():
    t0 = time.monotonic()
    bad = []
    anchors = {5: (4, 4), 13: (7, 7)}
    count = 0
    for p in modmath.primes_in(5, 10_000):
        if p % 8 != 5:
            continue
        count += 1
        r = cg.verify_eisenstein(p)
        if not r.holds or (p in anchors and (r.lhs, r.rhs) != anchors[p]):
            bad.append(p)
    _report("05 eisenstein p=5 mod 8 <=1e4", not bad, f"{count} primes, {time.monotonic() - t0:.1f}s")


def test_06_aac1952_to_500():
    t0 = time.monotonic()
    bad = []
    anchors = {(5, 2): (4, 4), (13, 2): (10, 10)}
    for p in primes_1mod4(5, 500):
        for n in modmath.residue_sets(p).nqr:
            r = cg.verify_aac1952(p, n)
            if not r.holds:
                bad.append((p, n))
            if (p, n) in anchors and (r.lhs, r.rhs) != anchors[(p, n)]:
                bad.append((p, n))
    _report("06 aac1952 all non-residues p<=500", not bad, f"{time.monotonic() - t0:.1f}s")


def test_07_gauss_sums():
    t0 = time.monotonic()
    ok = True
    for p in primes_1mod4(5, 200):
        tau = cyc.gauss_sum(p)
        if cyc.cyc_mul(tau, tau) != p * cyc.CycInt.one(p):
            ok = False
    for p in primes_1mod4(5, 100):
        G = cyc.gauss_element(p)
        tau = cyc.gauss_sum(p)
        for a in range(1, p):
            za = cyc.CycInt.from_powers(p, {a: 1})
            if cyc.apply_G(za, G) != modmath.legendre(a, p) * tau:
                ok = False
    _report("07 tau^2=p (p<=200), G(zeta^a)=(a/p)tau (p<=100)", ok, f"{time.monotonic() - t0:.1f}s")


def test_08_lemma7():
    t0 = time.monotonic()
    ok = cyc.f_poly(2, 5).coeffs == (0, 1, 2, 2, 1)
    for p in (5, 13, 17):
        for n in modmath.residue_sets(p).nqr:
            if n < 2:
                continue
            if cyc.f_poly(n, p) != cyc.lemma7_rhs(n, p):
                ok = False
    _report("08 lemma7 p in {5,13,17}", ok, f"{time.monotonic() - t0:.1f}s")


def test_09_lemma6_to_50():
    t0 = time.monotonic()
    # hand anchor: (zeta-1)^4 = 5(-zeta^3 + zeta^2 - zeta)
    delta = cyc.CycInt.from_powers(5, {0: 1, 1: 1}) - 2 * cyc.CycInt.one(5)
    ok = cyc.cyc_pow(delta, 4) == cyc.CycInt.from_powers(5, {1: -5, 2: 5, 3: -5})
    for p in modmath.primes_in(3, 50):
        for n in range(2, p):
            if modmath.legendre(n, p) != -1:
                continue
            for j in range(1, p):
                if not cyc.lemma6_check(n, j, p):
                    ok = False
    _report("09 lemma6 all (n,j), p<=50", ok, f"{time.monotonic() - t0:.1f}s")


def test_10_unit_identities():
    t0 = time.monotonic()
    ok = True
    for p, n in ((5, 2), (13, 2), (17, 3), (29, 2)):
        try:
            cyc.unit_identity_check(p, n, 1e-8)
        except Exception:
            ok = False
    _report("10 unit identities p in {5,13,17,29} @1e-8", ok, f"{time.monotonic() - t0:.1f}s")


def test_11_padic_log():
    t0 = time.monotonic()
    ok = True
    for p in modmath.primes_in(3, 50):
        p2 = p * p
        for a in range(1, p2):
            if a % p == 0:
                continue
            if padiclog.padic_log_unit(a, p, 2) != -p * modmath.fermat_quotient_mod(a, p) % p2:
                ok = False
    for p in modmath.primes_in(3, 100):
        for t in range(p):
            if not padiclog.theorem4_check(1 + t * p, p):
                ok = False
    omega_ok = (
        padiclog.omega_from_products([1, 4], -1, 5) == (1, 1, True)
        and padiclog.omega_from_products([2, 5, 6, 7, 8, 11], 1, 13) == (9, 4, True)
        and padiclog.omega_from_products(modmath.residue_sets(13).qr, -1, 13).holds
    )
    _report("11 p-adic log relations", ok and omega_ok, f"{time.monotonic() - t0:.1f}s")


def test_12_class_numbers():
    t0 = time.monotonic()
    mismatches = [
        d
        for d in range(5, 2001)
        if quadfield.is_fundamental_discriminant(d)
        and quadfield.class_number_dirichlet(d) != quadfield.form_class_number(d)
    ]
    bound_bad = [p for p in primes_1mod4(5, 10_000) if not quadfield.class_number_bound_check(p)]
    _report(
        "12 class numbers: two methods agree d<=2000, h<p p<=1e4",
        not mismatches and not bound_bad,
        f"{time.monotonic() - t0:.1f}s",
    )


def test_13_gaac_counterexamples_and_scan():
    t0 = time.monotonic()
    verdicts = gaac.reproduce_counterexamples()
    ok = all(v.v1_mod_D == 0 and not v.holds for v in verdicts)
    failures = [r["D"] for r in scan.run("gaac", scan.plan("gaac", 3, 2000)) if not r["holds"]]
    ok = ok and failures == [1817]
    _report(
        "13 gaac counterexamples {1817,209991,1752299} + scan [3,2000]",
        ok,
        f"scan failures: {failures}, {time.monotonic() - t0:.1f}s",
    )


def test_14_squarefree_density():
    t0 = time.monotonic()
    x = 10_000
    sc = gaac.count_squarefree_n2m1(x)
    within = abs(sc.count / x - sc.partial_constant) < 0.01
    direct = 0
    for n in range(2, x + 1):
        if n % 2:
            continue
        if gaac.squarefree(n - 1) and gaac.squarefree(n + 1):
            direct += 1
    _report(
        "14 squarefree density x=1e4",
        within and sc.count == direct,
        f"ratio={sc.count / x:.4f} vs A_z={sc.partial_constant:.4f}, {time.monotonic() - t0:.1f}s",
    )
