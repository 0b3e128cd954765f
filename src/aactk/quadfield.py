"""Real quadratic fields at desk scale.

Continued fractions of sqrt(D), fundamental units of Q(sqrt(p)) in the
(t + u*sqrt(p))/2 normalization, least Pell solutions, regulators, and
class numbers by two independent routes.

Every unit comes from one continued-fraction walk, unit_of_discriminant(disc),
over (sigma + sqrt(disc))/2, sigma = disc mod 2: it gives the
fundamental unit (t + u*sqrt(disc))/2 of the order of discriminant disc.
fundamental_unit(p) and class_number_dirichlet(d) walk disc = p or d,
pell_min_solution(D) walks disc = 4D, where (0 + sqrt(4D))/2 = sqrt(D).

The walk stops halfway and carries only the denominators q_k of the
convergents.  After a0 the quotients a_1 ... a_(l-1) of a period read
the same backwards, and the matrices [[a, 1], [1, 0]] are symmetric, so
the product over the second half of the period is the transpose of the
product over the first: u is a sum of two products of the q at the
middle, in about l/2 steps of the period's l.  t is then the exact
square root of disc*u^2 + 4*norm, and that it is exact proves the pair
a unit of that norm; only at disc = 5 would the other norm pass too.
The unit_of_discriminant docstring has the algebra.  cf_sqrt(D) reads
the quotients of sqrt(D) back off the unit of disc = 4D by Euclid's
algorithm.

The class numbers:

  * form_class_number: cycles of reduced indefinite primitive binary
    quadratic forms under the rho operator (any positive nonsquare
    discriminant, proper/SL2 equivalence).  Exact, and the route every
    caller reads through class_number(p), so no verifier touches floating
    point and h does not depend on the unit it multiplies;
  * class_number_dirichlet: the analytic formula with L(1,chi) evaluated
    by the exact finite log-sine sum (fundamental discriminants up to
    _LSUM_MAX_DISC = 10^13).  The second route: `aactk class-number`
    prints it beside the first, and the tests keep it as the oracle.  It
    sums in doubles with math.fsum; its docstring derives the error bound
    that keeps the result within 0.25 of h below the cap, so it has one
    arithmetic and no retry, and a result that fails to round is a
    ComputationBug.

class_number_4D(D, unit_4D) is h(4D) for the divisibility check: the
cycle count for D != 1 mod 4, and for D = 1 mod 4 the conductor-2 class
number formula over the cycles of discriminant D, which reads the parity
of the unit of D and requires that unit, to the power 1 or 3, to be the
unit of 4D exactly.  form_class_number(4D) is its oracle in the tests.

A binary quadratic form a x^2 + b xy + c y^2 is the int tuple (a, b, c)
throughout.  reduced_forms finds the reduced forms of one discriminant
with one sieve: the smaller of |a|, |c| is a divisor d <= isqrt(disc)//2
of (disc - b^2)/4, and for each such d the classes of b at which d
divides it come from square roots mod the primes of d (modmath.sqrt_mod,
which reads a cached root table for each prime below 2048).  The window
of b at which d can be reduced holds at most one b of each class, so
each class gives at most one candidate.  The primes (modmath.primes_to)
and the root tables are cached between calls, nothing else.  The window
is exact, so no form is tested for reducedness on the way out;
form_class_number's rho^2 walk is the guard, and raises ComputationBug
when it reaches a form the list lacks or one it has already taken.

Both return the number of proper form classes; for every discriminant
whose fundamental unit has norm -1 (in particular every prime
p = 1 mod 4) this coincides with the ideal class number of Q(sqrt(p)).

All integer work is exact; math.log takes the logarithm of a unit of
any size, good to ~1e-15 relative.  Nothing here loads mpmath.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from . import modmath
from .errors import BadDiscriminant, ComputationBug, OutOfRange, PerfectSquare

_LN2 = math.log(2)


@dataclass(frozen=True)
class CFExpansion:
    """Periodic continued fraction of sqrt(D): a0 then the repeating block."""

    D: int
    a0: int
    period: tuple[int, ...]


@dataclass(frozen=True)
class FundamentalUnit:
    """eps = (t + u*sqrt(p))/2 with t, u > 0 minimal and t^2 - p u^2 = 4*norm_sign."""

    p: int
    t: int
    u: int
    norm_sign: int


@dataclass(frozen=True)
class PellSolution:
    """Least positive (u1, v1) with u1^2 - D v1^2 = 1."""

    D: int
    u1: int
    v1: int


def require_nonsquare(D: int) -> None:
    """Refuse D < 2 (OutOfRange) and perfect squares (PerfectSquare)."""
    if D < 2:
        raise OutOfRange(f"D = {D} must be >= 2")
    if math.isqrt(D) ** 2 == D:
        raise PerfectSquare(f"D = {D} is a perfect square")


def _discriminant_root(disc: int) -> int:
    """isqrt(disc) of a positive nonsquare disc = 0 or 1 mod 4 (BadDiscriminant otherwise)."""
    if disc > 0 and disc % 4 in (0, 1):
        s = math.isqrt(disc)
        if s * s != disc:
            return s
    raise BadDiscriminant(f"{disc} is not a positive nonsquare discriminant (0 or 1 mod 4)")


def unit_of_discriminant(disc: int) -> tuple[int, int, int]:
    """(t, u, norm) of the fundamental unit (t + u*sqrt(disc))/2 of the
    order of nonsquare discriminant disc > 0, with t^2 - disc*u^2 = 4*norm.

    One continued-fraction walk over omega = (sigma + sqrt(disc))/2,
    sigma = disc mod 2, which generates the order.  Its complete
    quotients x_k = (P_k + sqrt(disc))/Q_k start from (P_0, Q_0) =
    (sigma, 2); a_k = floor(x_k), P_(k+1) = a_k Q_k - P_k,
    Q_(k+1) = (disc - P_(k+1)^2)/Q_k, and Q returns to 2 exactly at the
    end of each period, of length l (Cohen, A Course in Computational
    Algebraic Number Theory, 5.7).  With M_j = [[a_j, 1], [1, 0]] and
    p_-1 = 1, q_-1 = 0, p_-2 = 0, q_-2 = 1,

        M_0 M_1 ... M_k = [[p_k, p_(k-1)], [q_k, q_(k-1)]],

    and eps = p_(l-1) - q_(l-1)*conj(omega) = (t + u*sqrt(disc))/2 with
    u = q_(l-1) is the fundamental unit, of norm (-1)^l.

    Where the walk stops.  For k >= 1 the reversal x*_k = -1/conj(x_k)
    equals (P_k + sqrt(disc))/Q_(k-1), and x*_(k+1) = a_k + 1/x*_k, so
    x*_(k+1) runs the quotients backwards from a_k.  Q_(k+1) = Q_k says
    x*_(k+1) = x_(k+1): the quotients mirror about the gap after a_k,
    a_j = a_(2k+1-j).  P_(k+1) = P_k says x*_(k+1) = x_k: they mirror
    about a_k, a_j = a_(2k-j).  With the period's own mirror
    a_j = a_(l-j), the first maps the quotients onto themselves shifted
    by l - 2k - 1 and the second by l - 2k, and l is the least such
    shift; so within the first period Q_(k+1) = Q_k only at l = 2k + 1
    (k = 0 is Q_1 = 2, l = 1), and P_(k+1) = P_k, k >= 1, only at l = 2k.

    Why q alone fixes u.  The M_j are symmetric, so the product over a
    mirrored run is the transpose of the product over the run it
    mirrors; write A = M_0 ... M_k and use M_1 ... M_j = M_0^-1 (M_0 ...
    M_j), with M_0^-1 = [[0, 1], [1, -a0]] symmetric too.
      * l = 2k + 1: a_(k+1) ... a_(2k) = a_k ... a_1, so
        M_0 ... M_(l-1) = A (M_0^-1 A)^T = A A^T M_0^-1, whose first
        column is the second column of A A^T; its bottom entry is
        u = q_(l-1) = q_k^2 + q_(k-1)^2, and the norm is -1.
      * l = 2k: a_(k+1) ... a_(2k-1) = a_(k-1) ... a_1, so with
        B = M_0 ... M_(k-1), M_0 ... M_(l-1) = A B^T M_0^-1 and
        u = q_k q_(k-1) + q_(k-1) q_(k-2), and the norm is +1.
    Neither needs a numerator p_k, so the walk carries only P, Q,
    q_(k-2) and q_(k-1).

    Reading t back.  t > 0 and t^2 = disc*u^2 + 4*norm, so
    t = isqrt(disc*u^2 + 4*norm), and the walk raises ComputationBug
    unless that square is exact: the same equation that proves
    (t + u*sqrt(disc))/2 a unit of the stated norm.  The guard cannot
    tell the two norms apart only where disc*u^2 - 4 and disc*u^2 + 4 are
    both squares t2^2 and t1^2: then (t1 - t2)(t1 + t2) = 8 forces
    (t1, t2) = (3, 1) and disc*u^2 = 5, so disc = 5 alone, whose unit
    (1 + sqrt(5))/2 has norm -1.
    """
    s = _discriminant_root(disc)
    P, Q = disc % 2, 2
    q_2, q_1 = 1, 0  # q_(k-2), q_(k-1) before step k
    while True:
        a = (P + s) // Q
        q = a * q_1 + q_2
        P_next = a * Q - P
        Q_next = (disc - P_next * P_next) // Q
        if Q_next == Q:
            u, norm = q * q + q_1 * q_1, -1
            break
        # at k = 0, P_1 = P_0 only for disc = 5, where Q_1 = Q_0 came first
        if P_next == P:
            u, norm = q_1 * (q + q_2), 1
            break
        q_2, q_1 = q_1, q
        P, Q = P_next, Q_next
    square = disc * u * u + 4 * norm
    t = math.isqrt(square)
    if t * t != square:
        raise ComputationBug(f"disc = {disc}: ({t}, {u}) is not a unit of norm {norm}")
    return t, u, norm


def cf_sqrt(D: int) -> CFExpansion:
    """Continued fraction of sqrt(D), read off the unit x + y*sqrt(D) of
    discriminant 4D.

    x/y is the convergent [a0; a1, ..., a_(l-1)] at the end of the first
    period and the norm is (-1)^l, so Euclid's algorithm on (x, y) gives
    the quotients.  Where a_(l-1) = 1 it stops one quotient early, with
    its last quotient 1 too large; the norm's parity tells when, and the
    last quotient c is split into c - 1, 1.  The period closes with 2*a0.
    """
    require_nonsquare(D)
    t, y, norm = unit_of_discriminant(4 * D)
    x = t // 2
    quotients = []
    while y:
        quotients.append(x // y)
        x, y = y, x % y
    if (-1) ** len(quotients) != norm:
        quotients[-1] -= 1
        quotients.append(1)
    a0 = quotients[0]
    return CFExpansion(D=D, a0=a0, period=(*quotients[1:], 2 * a0))


def pell_min_solution(D: int) -> PellSolution:
    """Least solution of u^2 - D v^2 = 1, from the unit of discriminant 4D."""
    require_nonsquare(D)
    return pell_from_unit(D, unit_of_discriminant(4 * D))


def pell_from_unit(D: int, unit_4D: tuple[int, int, int]) -> PellSolution:
    """Least solution of u^2 - D v^2 = 1 from unit_4D = unit_of_discriminant(4D).

    That unit is (x + y*sqrt(D)) with x = t/2, y = u; when its norm is
    -1 (odd period) the least solution is its square.
    """
    t, y, norm = unit_4D
    x = t // 2
    if norm == 1:
        return PellSolution(D=D, u1=x, v1=y)
    return PellSolution(D=D, u1=x * x + D * y * y, v1=2 * x * y)


def fundamental_unit(p) -> FundamentalUnit:
    """Fundamental unit eps = (t + u*sqrt(p))/2 of Q(sqrt(p)), p prime = 1 mod 4.

    Read off the continued fraction of (1 + sqrt(p))/2, which gives the
    half-integral (t, u odd) unit directly when one exists.  For these p
    the norm is always -1.
    """
    p = modmath.require_1mod4(p)
    t, u, norm = unit_of_discriminant(p)
    return FundamentalUnit(p=p, t=t, u=u, norm_sign=norm)


def _ln_half_quad(a: int, b: int, d: int) -> float:
    """log((a + b*sqrt(d))/2) for integers a, b > 0, to ~1e-15 relative."""
    shift = 64
    n = (a << shift) + math.isqrt(d * (b << shift) ** 2)
    return math.log(n) - shift * _LN2 - _LN2


def regulator(unit: FundamentalUnit | PellSolution) -> float:
    """log(eps) for a fundamental unit, or log(u1 + v1*sqrt(D)) for a Pell solution."""
    if isinstance(unit, FundamentalUnit):
        if unit.u <= 0 or unit.t <= 0:
            raise OutOfRange("degenerate unit")
        return _ln_half_quad(unit.t, unit.u, unit.p)
    if isinstance(unit, PellSolution):
        if unit.v1 <= 0 or unit.u1 <= 0:
            raise OutOfRange("degenerate Pell solution")
        return _ln_half_quad(2 * unit.u1, 2 * unit.v1, unit.D)
    raise TypeError(f"unsupported unit type {type(unit)!r}")


def is_fundamental_discriminant(d: int) -> bool:
    """True for positive fundamental discriminants of real quadratic fields."""
    if d <= 1:
        return False
    if d % 4 == 1:
        return modmath.squarefree(d)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and modmath.squarefree(m)
    return False


# The largest d class_number_dirichlet takes: its float sum stays within
# 0.25 of h to about 3 * 10^13 (see its docstring).
_LSUM_MAX_DISC = 10**13


def _chi_half(d: int) -> list[int]:
    """chi(a) = (d/a) for 0 <= a < d/2, d > 1.

    (d/a) is completely multiplicative in a, so one least-prime-factor
    sieve over a < d/2 gives the table: kronecker(d, a) at the primes,
    chi(q) * chi(a/q) at every other a, q its least prime factor.
    """
    half = (d - 1) // 2
    lpf = [0] * (half + 1)  # least prime factor of each composite a, else 0
    for q in reversed(modmath.primes_to(math.isqrt(half))):
        lpf[q * q :: q] = [q] * len(range(q * q, half + 1, q))
    chi = [0, 1][: half + 1]
    for a in range(2, half + 1):
        q = lpf[a]
        chi.append(chi[q] * chi[a // q] if q else modmath.kronecker(d, a))
    return chi


def _lsum(d: int) -> float:
    """sum_{a=1}^{d-1} chi(a) log sin(pi a / d): the terms a < d/2 added by
    math.fsum, exactly rounded, and doubled."""
    pi, log, sin = math.pi, math.log, math.sin
    return 2 * math.fsum(chi * log(sin(pi * a / d)) for a, chi in enumerate(_chi_half(d)) if chi)


def class_number_dirichlet(d: int) -> int:
    """Class number of forms of discriminant d by the analytic formula.

    Uses the exact finite evaluation
        L(1,chi) = -(1/sqrt(d)) * sum_{a=1}^{d-1} chi(a) log sin(pi a / d),
    summed over a < d/2 and doubled (chi is even for d > 0, and the sine
    is symmetric about d/2), and divides sqrt(d)*L(1,chi) by the
    regulator of the totally positive fundamental unit: eps_d and its
    norm come from the continued-fraction walk over (sigma + sqrt(d))/2,
    and the regulator R is 2 log eps_d when eps_d has norm -1, as it does
    for every prime p = 1 mod 4.  So h = -L/R with L the sum.

    The float sum's error.  Let u = 2^-53 be the unit roundoff, and sin
    and log be within 1 ulp (2u relative), as the C library's are.  For
    a < d/2, a and d are exact doubles (d < 2^53), and the argument
    fl(fl(pi a)/d) is x = pi a/d times (1 + theta), |theta| <= 3u + O(u^2),
    from pi's rounding and two operations.  On (0, pi/2]
    |d log sin(x)/dx| = cot x <= 1/x, so the argument's error moves
    log sin by at most about 3u; sin's own error moves it by 2u; and log
    adds 2u of its result, whose size is at most ln(d/2), since
    sin x >= 2x/pi >= 2/d.  Each term (chi = +-1 is exact) is then within
    (6 + 2 ln d) u of the exact term, second-order terms included.
    math.fsum rounds the sum of the at most (d-1)/2 computed terms exactly
    and once (Shewchuk's algorithm), so the doubled sum is within
        d (6 + 2 ln d) u + u |L|
    of L, and |L| = sqrt(d) L(1,chi) is negligible beside the first term.
    R >= 2 log((1 + sqrt 5)/2) > 0.96, the least regulator.  R's own
    error (under 1e-14 relative) and the division's rounding move the
    quotient by under 1e-6, as h = sqrt(d) L(1,chi)/R < 10^8 below the
    cap (L(1,chi) <= ln(d)/2 + 1).  So
        |-fl(L)/R - h| < d (6 + 2 ln d) u / 0.96 + 1e-6,
    below 0.25 while d < 3.1 * 10^13.  d above _LSUM_MAX_DISC = 10^13,
    where the bound is 0.08, is refused with OutOfRange before any other
    work.  Below it, a result more than 0.25 from an integer >= 1 can
    only come from a wrong unit or a wrong chi, and raises ComputationBug.
    """
    if d > _LSUM_MAX_DISC:
        raise OutOfRange(f"d = {d} is above {_LSUM_MAX_DISC}, where the float L-sum is bounded")
    if not is_fundamental_discriminant(d):
        raise BadDiscriminant(f"{d} is not a positive fundamental discriminant")
    t, u, norm = unit_of_discriminant(d)
    log_eps = _ln_half_quad(t, u, d)
    log_plus = 2 * log_eps if norm == -1 else log_eps
    h_real = -_lsum(d) / log_plus
    h = round(h_real)
    if abs(h_real - h) >= 0.25 or h < 1:
        raise ComputationBug(
            f"d = {d}: the analytic class number {h_real} is not within 0.25 of an integer >= 1"
        )
    return h


def reduced_forms(disc: int) -> list[tuple[int, int, int]]:
    """The reduced primitive indefinite forms with a > 0 of positive nonsquare discriminant.

    Each form a x^2 + b xy + c y^2 is returned once, as the tuple (a, b, c);
    the reduced forms with a < 0 are these negated, (-a, b, -c), and are
    left out.  A form is reduced when 0 < b < sqrt(disc) and
    sqrt(disc) - b < 2|a| < sqrt(disc) + b.  With s = isqrt(disc) and
    disc nonsquare this is exactly ceil((s+1-b)/2) <= |a| <= floor((s+b)/2),
    and since (sqrt(disc) - b)(sqrt(disc) + b) = 4|a||c|, |a| lies in that
    window exactly when |c| does.  So for each b, with n = (disc - b^2)/4,
    the forms are the divisor pairs (d, n/d) of n with d <= sqrt(n) in the
    window, that is s + 1 - 2d <= b <= sqrt(disc - 4d^2); so
    d <= isqrt(n) <= isqrt(disc/4) = s // 2, and no larger prime divides d.
    One sieve over b = first + 2i finds them: d | n exactly when i is in
    certain classes mod d: b = +-sqrt_mod(disc, q) mod an odd prime q
    (a cached table read below 2048, Tonelli-Shanks above), the parity
    of i for q = 2, lifting for a prime power and the Chinese remainder
    theorem for the other d.

    One candidate per class.  The window of d is lo <= i <= hi: b_lo =
    first + 2*lo is the least positive b >= s + 1 - 2d of disc's parity,
    and b_hi = first + 2*hi the greatest b <= sqrt(disc - 4d^2).  So
    b_hi <= sqrt(disc - 4d^2) < s + 1 <= b_lo + 2d, and as b_lo and b_hi
    have the same parity, b_hi - b_lo <= 2d - 2, that is hi - lo + 1 <= d.
    The window holds at most one i of each class x mod d, namely
    lo + (x - lo) mod d, a candidate when it is <= hi.  Both forms of a
    divisor pair, (d, b, -e) and (e, b, -d) with e = n/d, are emitted
    there (in no promised order), behind one gcd(d, b, e) = 1, the content
    of either.  Nothing here re-tests reducedness: form_class_number's
    walk does.
    """
    s = _discriminant_root(disc)
    first, half = 2 - disc % 2, s // 2

    def n_at(i: int) -> int:
        b = first + 2 * i
        return (disc - b * b) // 4

    classes = [None, [0]] + [None] * (half - 1)  # classes[d]: the i mod d with d | n_at(i)
    for q in modmath.primes_to(half):
        if q == 2:
            cls = [i for i in (0, 1) if n_at(i) % 2 == 0]
        else:
            r = modmath.sqrt_mod(disc, q)
            if r is None:
                continue
            cls = [(x - first) * (q + 1) // 2 % q for x in {r, -r % q}]
        powers, qe = [], q  # (q^e, its classes) while there are any and q^e <= half
        while cls:
            powers.append((qe, cls))
            if qe * q > half:
                break
            cls = [x + j * qe for x in cls for j in range(q) if n_at(x + j * qe) % (qe * q) == 0]
            qe *= q
        for d in range(half // q, 0, -1):  # downwards, so d has only primes below q
            for qe, cls in powers:
                if not classes[d] or d * qe > half:
                    break
                inv = pow(d, -1, qe)
                classes[d * qe] = [x + d * ((y - x) * inv % qe) for x in classes[d] for y in cls]
    forms = []
    append, gcd = forms.append, math.gcd
    for d, cls in enumerate(classes):
        if cls:
            lo = max(0, (s + 2 - 2 * d - first) // 2)
            hi = (math.isqrt(disc - 4 * d * d) - first) // 2
            for x in cls:
                i = lo + (x - lo) % d
                if i <= hi:
                    b = first + 2 * i
                    e = ((disc - b * b) >> 2) // d
                    if gcd(d, b, e) == 1:
                        append((d, b, -e))
                        if e != d:
                            append((e, b, -d))
    return forms


def form_class_number(disc: int) -> int:
    """Number of rho-cycles of reduced forms = proper form class number h(disc).

    rho, (a, b, c) -> (c, b', (b'^2 - disc)/(4c)) with
    b' = s - (s + b) mod 2|c|, s = isqrt(disc), permutes the reduced forms.
    A reduced form has b^2 < disc, so ac < 0 and the sign of a alternates
    along every cycle: the cycles are the orbits of rho^2 on the forms
    with a > 0, which are what reduced_forms returns.

    The walk takes each form it reaches out of that list, and raises
    ComputationBug when one is not there.  So it refuses a list that
    lacks a form of a cycle it walks, and a list holding a form that is
    not reduced: rho^2 carries such a form into a cycle of reduced forms
    and never back to it, so its walk reaches a form already taken.  It
    cannot see a whole cycle missing, nor a reduced form with a < 0 in the
    list, whose rho^2 orbit is the a < 0 half of a cycle and would count
    as one more; only the oracle tests cover those.
    """
    remaining = set(reduced_forms(disc))  # validates disc before isqrt reads it
    s = math.isqrt(disc)
    cycles = 0
    while remaining:
        _, b, c = start = remaining.pop()
        cycles += 1
        while True:
            # two rho steps: (., b, c < 0) -> (c, b, a > 0) -> (a, b, c < 0)
            b = s - (s + b) % (-2 * c)
            a = (b * b - disc) // (4 * c)
            b = s - (s + b) % (2 * a)
            c = (b * b - disc) // (4 * a)
            f = (a, b, c)
            if f == start:
                break
            try:
                remaining.remove(f)
            except KeyError:
                raise ComputationBug(
                    f"disc = {disc}: rho^2 reaches {f}, which reduced_forms did not list"
                    " or a walk already took"
                ) from None
    return cycles


def class_number_4D(D: int, unit_4D: tuple[int, int, int]) -> int:
    """h(4D), the proper form class number of discriminant 4D, for nonsquare
    D >= 2, given unit_4D = unit_of_discriminant(4D).

    For D != 1 mod 4 it is form_class_number(4D), the cycle count, and
    unit_4D is not read.

    For D = 1 mod 4 it descends to the forms of D, a fraction of those of
    4D.  O = Z[(1 + sqrt(D))/2] is the order of discriminant D, and
    Z[sqrt(D)] = Z + 2O, of discriminant 4D, is the order of conductor 2
    inside it; D is odd, so 2 is prime to O's own conductor.  The class
    number formula for orders (Cox, Primes of the Form x^2 + ny^2,
    Thm 7.24, taken with narrow classes and totally positive units, which
    is what proper equivalence of forms counts) rests on the exact sequence

        1 -> O+* / Z[sqrt(D)]+* -> (O/2O)* / (Z/2Z)* -> C+(4D) -> C+(D) -> 1,

    where +* are the totally positive units.  (Z/2Z)* is trivial.
    O/2O = F_2[x]/(x^2 - x - (D-1)/4): for D = 5 mod 8, x^2 + x + 1 is
    irreducible and (O/2O)* = F_4*, of order 3; for D = 1 mod 8,
    x^2 + x = x(x + 1) and (O/2O)* = (F_2 x F_2)* is trivial.  Both orders
    are 2 - (D/2).  The image of O+* = <eps+> is generated by the image of
    eps+, which is eps or eps^2 for eps = eps_D; squaring permutes a group
    of order 1 or 3, so the unit index k is the order of eps in (O/2O)*,
    and the kernel is generated by eps^k, the fundamental unit of
    discriminant 4D.  So

        h(4D) = h(D) * (2 - (D/2)) / k,   k in {1, 3}.

    eps = (t + u*sqrt(D))/2 with t^2 - D*u^2 = +-4, so t and u share a
    parity, and eps lies in Z[sqrt(D)] (k = 1) exactly when t is even;
    otherwise k = 3.  For D = 1 mod 8 odd t, u would give
    t^2 - D*u^2 = 0 mod 8, so t is even and h(4D) = h(D); for D = 5 mod 8,
    h(4D) is h(D) when t is odd and 3h(D) when t is even.

    So h(4D) reads the parity of t from the walk of D.  That walk is tied
    to the walk of 4D: ComputationBug is raised unless eps^k equals the
    unit (t4 + u4*sqrt(4D))/2 = t4/2 + u4*sqrt(D) of unit_4D exactly, as
    integers, that is (t, u) = (t4, 2*u4) for k = 1, and
    (t^3 + 3t*D*u^2, 3t^2*u + D*u^3) = (4*t4, 8*u4), eps^3 times 8, for
    k = 3.  A pair of walks that both returned the same power eps^j,
    j prime to 3, of their true units would still pass, as v1 would; the
    check is against each other, not against an analytic value.
    """
    if D % 4 != 1:
        return form_class_number(4 * D)
    t, u, _ = unit_of_discriminant(D)
    t4, u4, _ = unit_4D
    if t % 2 == 0:
        k, tied = 1, (t, u) == (t4, 2 * u4)
    else:
        k, tied = 3, (t * (t * t + 3 * D * u * u), u * (3 * t * t + D * u * u)) == (4 * t4, 8 * u4)
    if not tied:
        raise ComputationBug(
            f"D = {D}: the unit ({t} + {u}*sqrt(D))/2 to the power {k} is not"
            f" the unit {unit_4D} of discriminant 4D"
        )
    return form_class_number(D) * (2 - modmath.kronecker(D, 2)) // k


@lru_cache(maxsize=None)
def class_number(p: int) -> int:
    """Class number h of Q(sqrt(p)) for prime p = 1 mod 4 (cached): the
    exact cycle count form_class_number(p), which reads neither floating
    point nor the unit that the congruences multiply by h."""
    return form_class_number(modmath.require_1mod4(p))


def class_number_bound_check(p) -> bool:
    """h < p for the class number of Q(sqrt(p))."""
    p = modmath.as_prime(p)
    return class_number(p) < p
