"""One verifier per congruence statement, each returning a CongruenceReport.

Every verifier computes its two sides through disjoint code paths: the
left side uses only Fermat quotients and the cached unit/class-number
residues (UnitClassData), the right side only the floor/harmonic/residue
machinery, so agreement is a genuine cross-check rather than an algebraic
tautology.  The left side's h is the exact count of form cycles
(quadfield.class_number), independent of the unit it multiplies: a wrong
unit fails the congruence instead of rescaling h through a regulator.

Statement catalog (the `stmt` names accepted by the CLI in parentheses):

  AAC_EQ2    (aac)             2hu/t = (A+B)/p
  THM21      (thm21)           the same with arbitrary positive lifts
  THM51_R/N  (thm51)           F(m) = +-4hu/t + 2*floor sums over R / N
  COR53      (cor53)           m F(m) = sum_k floor(mk/p)/k    [corrected]
  THM54      (thm54)           -M F(M) = floor(M/p) + sum_j H_floor(pj/m)
  EISENSTEIN (eisenstein)      -2 F(2) = H_((p-1)/2) for p = 5 mod 8
  GEN_EISENSTEIN (gen-eisenstein)  -m F(m) = 2 sum H_((p-1)j/m)
  THM56      (thm56)           -r F(r) as a combination over a factorization
  AAC1952    (aac1952)         4hu/t = -(1/n) sum_k floor(nk/p)(k/p)/k

COR53 is implemented in the corrected form (no factor 2): the doubled
form fails already at (p, m) = (5, 2) while the corrected one matches
both hand anchors and the additivity of the two THM51 displays.  The
doubled form is still evaluated and flagged in the report notes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from . import modmath, quadfield
from .errors import (
    BadFactorization,
    BadRepresentatives,
    DivisibilityBug,
    HypothesisFail,
    OutOfRange,
    WrongResidueClass,
)

PRINTED_FORM_NOTE = "printed-form-differs"


class Statement(str, Enum):
    AAC_EQ2 = "AAC_EQ2"
    THM21 = "THM21"
    THM51_R = "THM51_R"
    THM51_N = "THM51_N"
    COR53 = "COR53"
    THM54 = "THM54"
    EISENSTEIN = "EISENSTEIN"
    GEN_EISENSTEIN = "GEN_EISENSTEIN"
    THM56 = "THM56"
    AAC1952 = "AAC1952"


@dataclass(frozen=True)
class CongruenceReport:
    statement_id: Statement
    p: int
    params: dict
    lhs: int
    rhs: int
    holds: bool
    notes: tuple[str, ...] = ()

    def to_record(self) -> dict:
        """Flat record matching the CLI's one-line JSON schema."""
        return {
            "stmt": self.statement_id.value,
            "p": self.p,
            "params": dict(self.params),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "holds": self.holds,
            "notes": list(self.notes),
        }


def _report(stmt, p, params, lhs, rhs, notes=()) -> CongruenceReport:
    lhs %= p
    rhs %= p
    return CongruenceReport(
        statement_id=stmt,
        p=p,
        params=params,
        lhs=lhs,
        rhs=rhs,
        holds=lhs == rhs,
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class UnitClassData:
    """Residues mod p of the fundamental unit coordinates and class number."""

    p: int
    t_mod_p: int
    u_mod_p: int
    h_mod_p: int
    ratio_2hu_t: int


@lru_cache(maxsize=None)
def unit_class_data(p: int) -> UnitClassData:
    p = modmath.as_prime(p)
    unit = quadfield.fundamental_unit(p)
    h = quadfield.class_number(p)
    t_mod = unit.t % p
    u_mod = unit.u % p
    ratio = 2 * h * u_mod * modmath.mod_inverse(t_mod, p) % p
    return UnitClassData(
        p=p, t_mod_p=t_mod, u_mod_p=u_mod, h_mod_p=h % p, ratio_2hu_t=ratio
    )


def verify_aac(p) -> CongruenceReport:
    """2hu/t = (A+B)/p mod p, from A and B mod p^2.

    A + B mod p^2 fixes (A+B)/p mod p; a sum not divisible by p raises
    DivisibilityBug.
    """
    p = modmath.require_1mod4(p)
    data = unit_class_data(p)
    lhs = data.ratio_2hu_t

    rs = modmath.residue_sets(p)
    total = rs.A + rs.B
    if total % p != 0:
        raise DivisibilityBug(f"p = {p} does not divide A + B")
    rhs = total // p % p
    return _report(Statement.AAC_EQ2, p, {}, lhs, rhs)


def _lift_residues(lifts: list, p2: int):
    """The lifts, checked to be positive integers, as int64 residues mod p^2."""
    try:
        ints = modmath.integer_array(lifts)
    except TypeError:
        raise BadRepresentatives("all representatives must be integers") from None
    if ints.min(initial=1) <= 0:
        raise BadRepresentatives("all representatives must be positive")
    return (ints % p2).astype("int64", copy=False)


def verify_thm21(p, a_set, b_set) -> CongruenceReport:
    """The lifted form: (A*+B*)/p = 2hu/t + A* sum floor(a/p)/a + B* sum floor(b/p)/b.

    a_set and b_set are positive integers whose reductions tile the
    residue and non-residue sets exactly once each.  A* and B* are their
    products mod p^2, which fix (A*+B*)/p mod p; a sum not divisible by p
    raises DivisibilityBug.
    """
    import numpy as np

    p = modmath.require_1mod4(p)
    a_set, b_set = list(a_set), list(b_set)
    flags = modmath.square_flags(p)
    p2 = p * p
    a_red = _lift_residues(a_set, p2)
    b_red = _lift_residues(b_set, p2)
    (a_hi, a_lo), (b_hi, b_lo) = np.divmod(a_red, p), np.divmod(b_red, p)

    def tiles(lo, residue: bool) -> bool:
        # (p-1)/2 lifts in as many classes, none 0 mod p, each of the right kind
        seen = np.zeros(p, dtype=bool)
        seen[lo] = True
        return (
            lo.size == (p - 1) // 2 == np.count_nonzero(seen)
            and not seen[0]
            and bool((flags[lo] == residue).all())
        )

    if not tiles(a_lo, True):
        raise BadRepresentatives("a_set does not reduce to the residue set")
    if not tiles(b_lo, False):
        raise BadRepresentatives("b_set does not reduce to the non-residue set")

    a_star = modmath.product_mod_p2(a_red, p)
    b_star = modmath.product_mod_p2(b_red, p)
    total = a_star + b_star
    if total % p != 0:
        raise DivisibilityBug(f"p = {p} does not divide A* + B*")
    lhs = total // p % p

    data = unit_class_data(p)
    inv = modmath.inverse_table(p)

    def lifted_sum(hi, lo) -> int:
        # sum floor(a/p)/a; floor(a/p) = floor((a mod p^2)/p) mod p
        return int((hi * inv[lo] % p).sum())

    lifted = a_star * lifted_sum(a_hi, a_lo) + b_star * lifted_sum(b_hi, b_lo)
    rhs = (data.ratio_2hu_t + lifted) % p
    return _report(Statement.THM21, p, {"a_set": a_set, "b_set": b_set}, lhs, rhs)


def verify_thm51(p, m: int) -> tuple[CongruenceReport, CongruenceReport]:
    """Both displays tying F(m) to the unit ratio, over R and over N.

      F(m) = +4hu/t + 2 sum_{r in R} floor(mr/p)/(mr)
      F(m) = -4hu/t + 2 sum_{n in N} floor(mn/p)/(mn)
    """
    p = modmath.require_1mod4(p)
    modmath.require_nonresidue(m, p)
    lhs = modmath.fermat_quotient_mod(m, p)

    data = unit_class_data(p)
    four_hut = 2 * data.ratio_2hu_t % p
    over_r, over_n = modmath.floor_inverse_sums(m, p)
    inv_m = modmath.mod_inverse(m, p)
    rhs_r = (four_hut + 2 * over_r * inv_m) % p
    rhs_n = (-four_hut + 2 * over_n * inv_m) % p
    params = {"m": m}
    return (
        _report(Statement.THM51_R, p, params, lhs, rhs_r),
        _report(Statement.THM51_N, p, params, lhs, rhs_n),
    )


def verify_cor53(p, m: int) -> CongruenceReport:
    """m F(m) = sum_{k=1}^{p-1} floor(mk/p) / k mod p (corrected form).

    The doubled right-hand side is evaluated too; whenever it differs it
    is flagged in the notes as 'printed-form-differs'.
    """
    p = modmath.require_1mod4(p)
    modmath.require_nonresidue(m, p)
    lhs = m * modmath.fermat_quotient_mod(m, p) % p

    rhs = sum(modmath.floor_inverse_sums(m, p)) % p
    notes = []
    if 2 * rhs % p != lhs:
        notes.append(PRINTED_FORM_NOTE)
    return _report(Statement.COR53, p, {"m": m}, lhs, rhs, notes)


def verify_thm54(p, M: int) -> CongruenceReport:
    """-M F(M) = floor(M/p) + sum_{j=1}^{m-1} H_floor(pj/m) mod p.

    M is any positive lift of a non-residue m; F(M) is evaluated mod p^2
    so arbitrary lifts stay cheap.
    """
    p = modmath.require_1mod4(p)
    if M <= 0:
        raise OutOfRange(f"M = {M} must be positive")
    m = M % p
    modmath.require_nonresidue(m, p)
    lhs = -M * modmath.fermat_quotient_mod(M, p) % p

    rhs = (M // p + modmath.floor_harmonic_sum(m, p)) % p
    return _report(Statement.THM54, p, {"M": M, "m": m}, lhs, rhs)


def verify_eisenstein(p) -> CongruenceReport:
    """-2 F(2) = H_((p-1)/2) mod p for p = 5 mod 8 (where 2 is a non-residue)."""
    p = modmath.as_prime(p)
    if p % 8 != 5:
        raise WrongResidueClass(f"p = {p} is not 5 mod 8")
    lhs = -2 * modmath.fermat_quotient_mod(2, p) % p
    rhs = modmath.harmonic_mod((p - 1) // 2, p)
    return _report(Statement.EISENSTEIN, p, {}, lhs, rhs)


def verify_gen_eisenstein(p, m: int) -> CongruenceReport:
    """-m F(m) = 2 sum_{j=1}^{(m-1)/2} H_((p-1)j/m) for odd non-residues m with p = 1 mod m.

    Note the hypotheses force p = 3 mod 4: when p = 1 mod 4 and p = 1 mod m,
    every prime q | m has (q/p) = (p/q) = +1, so m cannot be a non-residue.
    """
    p = modmath.as_prime(p)
    if m % 2 == 0:
        raise HypothesisFail(f"m = {m} must be odd")
    if not 1 < m < p:
        raise HypothesisFail(f"m = {m} outside (1, {p})")
    if p % m != 1:
        raise HypothesisFail(f"p = {p} is not 1 mod {m}")
    if modmath.legendre(m, p) != -1:
        raise HypothesisFail(f"{m} is a quadratic residue mod {p}")
    lhs = -m * modmath.fermat_quotient_mod(m, p) % p

    h = modmath.harmonic_table(p)
    step = (p - 1) // m
    rhs = 2 * int(h[step : step * ((m - 1) // 2) + 1 : step].sum(dtype="int64")) % p
    return _report(Statement.GEN_EISENSTEIN, p, {"m": m}, lhs, rhs)


def nonresidue_factorization(p, r: int) -> tuple[int, int]:
    """(abar, bbar) with abar*bbar = r mod p^2 and both reducing to non-residues.

    abar is the least non-residue and bbar = r * abar^-1 mod p^2; since r
    is a residue, bbar reduces to a non-residue too.
    """
    p = modmath.as_prime(p)
    if modmath.legendre(r, p) != 1:
        raise HypothesisFail(f"r = {r} is not a quadratic residue mod {p}")
    p2 = p * p
    abar = modmath.least_nonresidue(p)
    return abar, r * modmath.mod_inverse(abar, p2) % p2


def verify_thm56(p, r: int, abar: int, bbar: int) -> CongruenceReport:
    """-r F(r) as a combination of the two non-residue floor/harmonic sums.

    Requires r a residue, abar and bbar positive lifts of non-residues
    with abar*bbar = r mod p^2; then with a = abar mod p, b = bbar mod p:

      -r F(r) = bbar*floor(abar/p) + abar*floor(bbar/p)
                 + bbar * sum_{j<a} H_floor(pj/a)
                 + abar * sum_{k<b} H_floor(pk/b)   (mod p)
    """
    p = modmath.require_1mod4(p)
    if modmath.legendre(r, p) != 1:
        raise HypothesisFail(f"r = {r} is not a quadratic residue mod {p}")
    if abar <= 0 or bbar <= 0:
        raise OutOfRange("abar and bbar must be positive")
    a = abar % p
    b = bbar % p
    modmath.require_nonresidue(a, p)
    modmath.require_nonresidue(b, p)
    if abar * bbar % (p * p) != r % (p * p):
        raise BadFactorization(
            f"abar*bbar = {abar * bbar % (p * p)} != r = {r} mod {p}^2"
        )
    lhs = -r * modmath.fermat_quotient_mod(r, p) % p

    rhs = (
        bbar * (abar // p)
        + abar * (bbar // p)
        + bbar * modmath.floor_harmonic_sum(a, p)
        + abar * modmath.floor_harmonic_sum(b, p)
    ) % p
    return _report(
        Statement.THM56, p, {"r": r, "abar": abar, "bbar": bbar}, lhs, rhs
    )


def verify_aac1952(p, n: int) -> CongruenceReport:
    """4hu/t = -(1/n) sum_{k=1}^{p-1} floor(nk/p) (k/p) / k mod p."""
    p = modmath.require_1mod4(p)
    modmath.require_nonresidue(n, p)
    data = unit_class_data(p)
    lhs = 2 * data.ratio_2hu_t % p

    over_r, over_n = modmath.floor_inverse_sums(n, p)
    rhs = -modmath.mod_inverse(n, p) * (over_r - over_n) % p
    return _report(Statement.AAC1952, p, {"n": n}, lhs, rhs)
