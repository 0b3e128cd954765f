"""The range scans behind `aactk scan`: per kind one item source, worker
and record key, and one loop for all of them.

  kind        items in [lo, hi]                 record of one item
  gaac        odd nonsquare D >= 3              gaac.gaac_check(D)
  aac         primes p = 1 mod 4, p >= 5        u mod p of the fundamental unit
  eisenstein  primes p = 5 mod 8                congruences.verify_eisenstein(p)
  density     blocks [n_lo, n_hi] from n >= 2   count of n with n^2 - 1 squarefree

Workers call the library through its module attributes, so a wrapper
installed on, say, `gaac.gaac_check` sees every scanned item.
"""

from __future__ import annotations

import math
import os
from typing import Iterator

from . import congruences, gaac, modmath, quadfield
from .errors import CheckpointCorrupt, OutOfRange, PreconditionViolation

_PARALLEL_THRESHOLD = 64  # below this many items, process pools cost more than they save


# Workers are module level so process pools can pickle them.


def _gaac_record(D: int) -> dict:
    return gaac.gaac_check(D).to_record()


def _aac_record(p: int) -> dict:
    # plan took p from the prime sieve, so it is not proved prime again
    u_mod = quadfield.unit_of_discriminant(p)[1] % p
    return {"p": p, "u_mod_p": u_mod, "holds": u_mod != 0}


def _eisenstein_record(p: int) -> dict:
    return congruences.verify_eisenstein(p).to_record()


def _density_record(block: tuple[int, int]) -> dict:
    lo, hi = block
    return {"n_lo": lo, "n_hi": hi, "count": gaac.count_squarefree_n2m1_in(lo, hi)}


# kind: (worker, the record fields that name its item, every field of a record)
KINDS = {
    "gaac": (_gaac_record, ("D",), {"D", "v1_mod_D", "h4D", "holds"}),
    "aac": (_aac_record, ("p",), {"p", "u_mod_p", "holds"}),
    "eisenstein": (_eisenstein_record, ("p",), {"stmt", "p", "params", "lhs", "rhs", "holds", "notes"}),
    "density": (_density_record, ("n_lo", "n_hi"), {"n_lo", "n_hi", "count"}),
}

# kind: (the type of each field, matched exactly, so that a bool is no int;
#        the rule a record's fields keep, as text, and as a test)
_RECORD_RULES = {
    "gaac": (
        {"D": int, "v1_mod_D": int, "h4D": int, "holds": bool},
        "0 <= v1_mod_D < D and holds == (v1_mod_D * h4D mod D != 0)",
        lambda r: 0 <= r["v1_mod_D"] < r["D"]
        and r["holds"] == (r["v1_mod_D"] * r["h4D"] % r["D"] != 0),
    ),
    "aac": (
        {"p": int, "u_mod_p": int, "holds": bool},
        "0 <= u_mod_p < p and holds == (u_mod_p != 0)",
        lambda r: 0 <= r["u_mod_p"] < r["p"] and r["holds"] == (r["u_mod_p"] != 0),
    ),
    "eisenstein": (
        {"stmt": str, "p": int, "params": dict, "lhs": int, "rhs": int, "holds": bool, "notes": list},
        "holds == (lhs == rhs)",
        lambda r: r["holds"] == (r["lhs"] == r["rhs"]),
    ),
    "density": (
        {"n_lo": int, "n_hi": int, "count": int},
        "0 <= count <= n_hi - n_lo + 1",
        lambda r: 0 <= r["count"] <= r["n_hi"] - r["n_lo"] + 1,
    ),
}


def plan(kind: str, lo: int, hi: int, block: int = 1000) -> list:
    """The items of a scan over [lo, hi], ascending; `block` sizes density blocks."""
    if kind == "gaac":
        return [D for D in range(max(3, lo) | 1, hi + 1, 2) if math.isqrt(D) ** 2 != D]
    if kind in ("aac", "eisenstein"):
        modulus, residue = (4, 1) if kind == "aac" else (8, 5)
        return [p for p in modmath.primes_in(max(5, lo), hi) if p % modulus == residue]
    if kind == "density":
        if block < 1:
            raise OutOfRange(f"block = {block} must be >= 1")
        return [(n, min(n + block - 1, hi)) for n in range(max(2, lo), hi + 1, block)]
    raise PreconditionViolation(f"unknown scan kind {kind!r}")


def resumed(kind: str, lo: int, hi: int, items: list, records: list[dict]) -> dict:
    """The records of an earlier run that answer planned items, by item.

    Records wholly outside [lo, hi] are left out.  A record of another
    kind, or one that reaches into [lo, hi] without answering a planned
    item (a density block of another size, say), raises
    PreconditionViolation: resuming from it would change a total.

    The crc of a line proves only that it was written whole, so each
    record is also checked against itself, and CheckpointCorrupt names
    the record that fails: every field must have its kind's type, a
    record taken must keep its kind's rule (a gaac verdict must follow
    from its v1 and h4D, an aac verdict from its u), and two records for
    one item must be identical, which takes them once.
    """
    _, key, fields = KINDS[kind]
    types, rule_text, rule = _RECORD_RULES[kind]
    planned = set(items)
    done = {}
    for record in records:
        if set(record) != fields:
            raise PreconditionViolation(f"checkpoint record {record} is not a {kind} record")
        for name, type_ in types.items():
            if type(record[name]) is not type_:
                got, want = type(record[name]).__name__, type_.__name__
                raise CheckpointCorrupt(f"checkpoint record {record}: {name} is {got}, not {want}")
        span = [record[name] for name in key]
        if span[-1] < lo or span[0] > hi:
            continue
        item = tuple(span) if len(span) > 1 else span[0]
        if item not in planned:
            raise PreconditionViolation(
                f"checkpoint record {record} is not an item of this {kind} scan"
            )
        if not rule(record):
            raise CheckpointCorrupt(f"checkpoint record {record} breaks {rule_text}")
        earlier = done.setdefault(item, record)
        if earlier != record:
            raise CheckpointCorrupt(f"checkpoint records {earlier} and {record} differ for one item")
    return done


def run(kind: str, items: list, jobs: int = 1) -> Iterator[dict]:
    """The records of `items`, in their order, each yielded once computed.

    With jobs > 1, more than one CPU and enough items, a pool of
    min(jobs, cpu count) processes computes them (a pool starts all its
    workers at once, so jobs beyond the CPUs would only add processes);
    the output is the same as with jobs = 1.
    """
    worker = KINDS[kind][0]
    workers = min(jobs, os.cpu_count() or 1) if jobs > 1 else 1
    if workers > 1 and len(items) >= _PARALLEL_THRESHOLD:
        # Imported here: the pool machinery costs every serial run memory
        # and start-up time.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(worker, items, chunksize=max(1, len(items) // (workers * 8)))
    else:
        yield from map(worker, items)
