"""Command-line interface: run verifiers and scans, persist and resume.

Subcommands:

  verify <stmt> --p P [--m/--n/--M/--r/--abar/--bbar/--a/--b ...]
  scan   <kind> --max N [--min N] [--checkpoint PATH] [--jobs N]
  report --in PATH --format {json,csv,table}
  unit --d D
  class-number --disc DISC

Records are flat one-per-line JSON objects with a per-line integrity
field ("crc", CRC-32 of the canonical record without it).  Output is
deterministic: keys sorted, items in ascending p/D order, so identical
runs are byte-identical.

Scans run through aactk.scan.  A resumed scan counts only the checkpoint
records inside its range, and refuses (exit 2, nothing appended) records
of another kind or density blocks of another size.

Exit codes: 0 all statements hold, 1 some congruence failed (a finding,
not an error: scans keep going past failures), 2 usage or precondition
violation, 3 checkpoint corruption or I/O failure, 4 internal failure
(ComputationBug, PrecisionLoss, ToleranceExceeded or any exception from
outside aactk's hierarchy: the implementation or its precision is at
fault, not the input).

The AACTK_DPS environment variable overrides the default working
precision (decimal digits) of the floating-point checks.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
import zlib

from . import congruences, gaac, modmath, quadfield, scan
from .errors import CheckpointCorrupt, PreconditionViolation

EXIT_OK = 0
EXIT_FAILED_CONGRUENCE = 1
EXIT_USAGE = 2
EXIT_CORRUPT = 3
EXIT_BUG = 4


def _canonical(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _with_crc(record: dict) -> dict:
    crc = zlib.crc32(_canonical(record).encode())
    return {**record, "crc": crc}


def _check_crc(record: dict) -> dict:
    if "crc" not in record:
        raise CheckpointCorrupt("record missing crc field")
    crc = record.pop("crc")
    if zlib.crc32(_canonical(record).encode()) != crc:
        raise CheckpointCorrupt("record failed crc check")
    return record


def _parse_line(line: bytes) -> dict:
    try:
        record = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointCorrupt(f"unparseable record: {exc}") from None
    if not isinstance(record, dict):
        raise CheckpointCorrupt("record is not an object")
    return _check_crc(record)


def load_checkpoint(path: str, *, tolerate_torn_tail: bool = False) -> list[dict]:
    """Read a newline-delimited checkpoint, verifying each line's crc.

    With tolerate_torn_tail, a final line that fails to parse or verify,
    or lacks its newline, is treated as an interrupted write and dropped:
    the file is truncated in place after the last good line.  Corruption
    anywhere else still raises.
    """
    records = []
    with open(path, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    good_end = 0
    for i, line in enumerate(lines):
        if line.strip():
            try:
                if tolerate_torn_tail and not line.endswith(b"\n"):
                    raise CheckpointCorrupt("final line has no newline")
                records.append(_parse_line(line))
            except CheckpointCorrupt:
                if tolerate_torn_tail and i == len(lines) - 1:
                    os.truncate(path, good_end)
                    break
                raise
        good_end += len(line)
    return records


def _render(records: list[dict], fmt: str, out) -> None:
    if fmt == "json":
        for rec in records:
            out.write(_canonical(rec) + "\n")
        return
    keys = sorted({k for rec in records for k in rec})
    rows = [[_cell(rec.get(k)) for k in keys] for rec in records]
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(keys)
        writer.writerows(rows)
        return
    if fmt == "table":
        if not records:
            return
        widths = [
            max(len(keys[i]), max(len(r[i]) for r in rows)) for i in range(len(keys))
        ]
        out.write("  ".join(k.ljust(w) for k, w in zip(keys, widths)).rstrip() + "\n")
        out.write("  ".join("-" * w for w in widths) + "\n")
        for r in rows:
            out.write("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() + "\n")
        return
    raise ValueError(f"unknown format {fmt!r}")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    return str(value)


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.replace(",", " ").split()]
    except ValueError:
        raise PreconditionViolation(f"not a list of integers: {text!r}") from None


# ---------------------------------------------------------------------------
# verify


def _run_verify(args) -> int:
    p = args.p
    stmt = args.statement
    if stmt == "aac":
        reports = [congruences.verify_aac(p)]
    elif stmt == "thm21":
        if args.a is None or args.b is None:
            raise PreconditionViolation("thm21 needs --a and --b representative lists")
        reports = [
            congruences.verify_thm21(p, _parse_int_list(args.a), _parse_int_list(args.b))
        ]
    elif stmt == "thm51":
        if args.m is None:
            raise PreconditionViolation("thm51 needs --m (a non-residue)")
        reports = list(congruences.verify_thm51(p, args.m))
    elif stmt == "cor53":
        if args.m is None:
            raise PreconditionViolation("cor53 needs --m (a non-residue)")
        reports = [congruences.verify_cor53(p, args.m)]
    elif stmt == "thm54":
        if args.M is None:
            raise PreconditionViolation("thm54 needs --M (a positive non-residue lift)")
        reports = [congruences.verify_thm54(p, args.M)]
    elif stmt == "eisenstein":
        reports = [congruences.verify_eisenstein(p)]
    elif stmt == "gen-eisenstein":
        if args.m is None:
            raise PreconditionViolation("gen-eisenstein needs --m (odd non-residue)")
        reports = [congruences.verify_gen_eisenstein(p, args.m)]
    elif stmt == "thm56":
        if args.r is None:
            raise PreconditionViolation("thm56 needs --r (a residue)")
        abar, bbar = args.abar, args.bbar
        if abar is None or bbar is None:
            abar, bbar = congruences.nonresidue_factorization(p, args.r)
        reports = [congruences.verify_thm56(p, args.r, abar, bbar)]
    elif stmt == "aac1952":
        if args.n is None:
            raise PreconditionViolation("aac1952 needs --n (a non-residue)")
        reports = [congruences.verify_aac1952(p, args.n)]
    else:
        raise PreconditionViolation(f"unknown statement {stmt!r}")

    _render([r.to_record() for r in reports], args.format, sys.stdout)
    return EXIT_OK if all(r.holds for r in reports) else EXIT_FAILED_CONGRUENCE


# ---------------------------------------------------------------------------
# scan


def _run_scan(args) -> int:
    kind = args.kind
    hi = args.x if (kind == "density" and args.x is not None) else args.max
    if hi is None:
        raise PreconditionViolation("scan needs --max (or --x for density)")
    lo = args.min if args.min is not None else (2 if kind == "density" else 3)
    items = scan.plan(kind, lo, hi, args.block)

    done: dict = {}
    if args.checkpoint and os.path.exists(args.checkpoint):
        loaded = load_checkpoint(args.checkpoint, tolerate_torn_tail=True)
        done = scan.resumed(kind, lo, hi, items, loaded)
    todo = [item for item in items if item not in done]

    out = open(args.checkpoint, "a", encoding="utf-8") if args.checkpoint else sys.stdout
    t0 = time.monotonic()
    new_records = []
    try:
        for rec in scan.run(kind, todo, args.jobs or os.cpu_count() or 1):
            out.write(_canonical(_with_crc(rec)) + "\n")
            out.flush()
            new_records.append(rec)
    finally:
        if out is not sys.stdout:
            os.fsync(out.fileno())
            out.close()
    elapsed = time.monotonic() - t0
    done.update(zip(todo, new_records))
    return _scan_summary(kind, [done[item] for item in items], elapsed, args)


def _scan_summary(kind: str, records: list[dict], elapsed: float, args) -> int:
    err = sys.stderr if not args.checkpoint else sys.stdout
    if kind == "density":
        total = sum(r["count"] for r in records)
        x = max((r["n_hi"] for r in records), default=0)
        ratio = total / x if x else 0.0
        const = gaac.partial_density_constant(args.z)
        err.write(
            f"density scan: x={x} count={total} ratio={ratio:.4f} "
            f"partial-product(z={args.z})={const:.4f} elapsed={elapsed:.1f}s\n"
        )
        return EXIT_OK
    failures = [r for r in records if not r["holds"]]
    held = len(records) - len(failures)
    err.write(
        f"{kind} scan: counted={len(records)} held={held} "
        f"failed={len(failures)} elapsed={elapsed:.1f}s\n"
    )
    for r in failures:
        err.write(f"  failure: {_canonical(r)}\n")
    return EXIT_FAILED_CONGRUENCE if failures else EXIT_OK


def _run_report(args) -> int:
    records = load_checkpoint(args.input)
    _render(records, args.format, sys.stdout)
    return EXIT_OK


def _run_unit(args) -> int:
    d = args.d
    if d % 4 == 1 and modmath.is_prime(d):
        unit = quadfield.fundamental_unit(d)
        record = {
            "d": d,
            "kind": "fundamental-unit",
            "t": unit.t,
            "u": unit.u,
            "norm": unit.norm_sign,
            "regulator": quadfield.regulator(unit),
        }
    else:
        pell = quadfield.pell_min_solution(d)
        record = {
            "d": d,
            "kind": "pell",
            "u1": pell.u1,
            "v1": pell.v1,
            "regulator": quadfield.regulator(pell),
        }
    _render([record], args.format, sys.stdout)
    return EXIT_OK


def _run_class_number(args) -> int:
    disc = args.disc
    record: dict = {"disc": disc, "h_forms": quadfield.form_class_number(disc)}
    if quadfield.is_fundamental_discriminant(disc):
        record["h_dirichlet"] = quadfield.class_number_dirichlet(disc)
        record["agree"] = record["h_forms"] == record["h_dirichlet"]
    _render([record], args.format, sys.stdout)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aactk",
        description="Verify unit/class-number/Fermat-quotient congruences "
        "for real quadratic fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run one congruence verifier")
    v.add_argument(
        "statement",
        choices=[
            "aac",
            "thm21",
            "thm51",
            "cor53",
            "thm54",
            "eisenstein",
            "gen-eisenstein",
            "thm56",
            "aac1952",
        ],
    )
    v.add_argument("--p", type=int, required=True, help="odd prime modulus")
    v.add_argument("--m", type=int, help="non-residue parameter")
    v.add_argument("--n", type=int, help="non-residue parameter")
    v.add_argument("--M", type=int, help="positive lift of a non-residue")
    v.add_argument("--r", type=int, help="quadratic residue parameter")
    v.add_argument("--abar", type=int, help="non-residue lift (thm56)")
    v.add_argument("--bbar", type=int, help="non-residue lift (thm56)")
    v.add_argument("--a", type=str, help="comma-separated residue representatives")
    v.add_argument("--b", type=str, help="comma-separated non-residue representatives")
    v.add_argument("--format", choices=["json", "csv", "table"], default="json")
    v.set_defaults(func=_run_verify)

    s = sub.add_parser("scan", help="range scan with checkpointing")
    s.add_argument("kind", choices=["aac", "gaac", "eisenstein", "density"])
    s.add_argument("--max", type=int, help="upper bound (inclusive)")
    s.add_argument("--min", type=int, help="lower bound (inclusive)")
    s.add_argument("--x", type=int, help="alias for --max (density)")
    s.add_argument("--z", type=int, default=1000, help="density partial-product cutoff")
    s.add_argument("--block", type=int, default=1000, help="density block size")
    s.add_argument("--checkpoint", type=str, help="append-only record file")
    s.add_argument("--jobs", type=int, help="parallel workers (default: cpu count)")
    s.set_defaults(func=_run_scan)

    r = sub.add_parser("report", help="re-render a checkpoint file")
    r.add_argument("--in", dest="input", required=True)
    r.add_argument("--format", choices=["json", "csv", "table"], default="table")
    r.set_defaults(func=_run_report)

    u = sub.add_parser("unit", help="fundamental unit / least Pell solution")
    u.add_argument("--d", type=int, required=True)
    u.add_argument("--format", choices=["json", "csv", "table"], default="json")
    u.set_defaults(func=_run_unit)

    c = sub.add_parser("class-number", help="form class number of a discriminant")
    c.add_argument("--disc", type=int, required=True)
    c.add_argument("--format", choices=["json", "csv", "table"], default="json")
    c.set_defaults(func=_run_class_number)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CheckpointCorrupt as exc:
        print(f"error: checkpoint corrupt: {exc}", file=sys.stderr)
        return EXIT_CORRUPT
    except PreconditionViolation as exc:
        print(f"error: precondition failed: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # Downstream pager closed early; not an error worth reporting.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_CORRUPT
    except Exception as exc:
        # Any other aactk Error or a non-aactk exception: a bug, not bad input.
        print(f"error: internal failure: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return EXIT_BUG


if __name__ == "__main__":
    sys.exit(main())
