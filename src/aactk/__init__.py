"""aactk: unit, class-number, and Fermat-quotient congruences for Q(sqrt(p)).

Exact desk-scale verification of the classical congruence
2hu/t = (A+B)/p mod p and its relatives: Fermat-quotient and
harmonic-number identities, p-adic logarithm checks, Gauss-sum
identities in Z[zeta_p], and the v1*h(4D) divisibility conjecture for
odd nonsquare D together with its known counterexamples.
"""

from . import congruences, cyclotomic, errors, gaac, modmath, padiclog, quadfield, scan

__all__ = [
    "congruences",
    "cyclotomic",
    "errors",
    "gaac",
    "modmath",
    "padiclog",
    "quadfield",
    "scan",
]

__version__ = "0.1.0"
