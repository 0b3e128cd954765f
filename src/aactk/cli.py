"""Command-line interface: run verifiers and scans, persist and resume.

Subcommands:

  verify <stmt> --p P [--m/--n/--M/--r/--abar/--bbar/--a/--b ...]
  scan   <kind> --max N [--min N] [--checkpoint PATH] [--jobs N]
  report --in PATH --format {json,csv,table}
  unit --d D
  class-number --disc DISC

VERIFIERS lists the statements `verify` accepts: each names its
congruences verifier and the options it takes after --p.  A missing
option is a usage error (exit 2) that names every missing --opt.  The
scan kinds are those of scan.KINDS; --x is another name for --max, and
without --min a scan starts at its kind's first item.  The parsers are
built once per process; each call of main parses into a fresh namespace,
with the named subcommand's own parser when argv starts with one.

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
(ComputationBug, ToleranceExceeded or any exception from outside aactk's
hierarchy: the implementation or its precision is at fault, not the
input).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
import time
import zlib
from typing import NamedTuple

from . import congruences, gaac, modmath, quadfield, scan
from .errors import CheckpointCorrupt, ComputationBug, PreconditionViolation

EXIT_OK = 0
EXIT_FAILED_CONGRUENCE = 1
EXIT_USAGE = 2
EXIT_CORRUPT = 3
EXIT_BUG = 4


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _canonical(record: dict) -> str:
    return _ENCODER.encode(record)


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
        return _ENCODER.encode(value)
    return str(value)


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.replace(",", " ").split()]
    except ValueError:
        raise PreconditionViolation(f"not a list of integers: {text!r}") from None


# ---------------------------------------------------------------------------
# verify


class Verifier(NamedTuple):
    """One `aactk verify` statement: a congruences function and its options."""

    func: str  # the congruences verifier, looked up when called
    options: tuple[str, ...] = ()  # required, passed after p in this order
    derived: tuple[str, ...] = ()  # passed last; if any is missing, `derive` gives all
    derive: str = ""  # congruences function of p and `options` that returns `derived`


# statement -> Verifier; the one list of statements and the options each takes
VERIFIERS = {
    "aac": Verifier("verify_aac"),
    "thm21": Verifier("verify_thm21", ("a", "b")),
    "thm51": Verifier("verify_thm51", ("m",)),
    "cor53": Verifier("verify_cor53", ("m",)),
    "thm54": Verifier("verify_thm54", ("M",)),
    "eisenstein": Verifier("verify_eisenstein"),
    "gen-eisenstein": Verifier("verify_gen_eisenstein", ("m",)),
    "thm56": Verifier("verify_thm56", ("r",), ("abar", "bbar"), "nonresidue_factorization"),
    "aac1952": Verifier("verify_aac1952", ("n",)),
}


def _run_verify(args) -> int:
    v = VERIFIERS[args.statement]
    values = [getattr(args, opt) for opt in v.options]
    missing = [f"--{opt}" for opt, x in zip(v.options, values) if x is None]
    if missing:
        raise PreconditionViolation(f"{args.statement} needs {' and '.join(missing)}")
    # the integer lists, --a and --b, arrive as text
    values = [_parse_int_list(x) if isinstance(x, str) else x for x in values]
    derived = [getattr(args, opt) for opt in v.derived]
    if None in derived:
        derived = getattr(congruences, v.derive)(args.p, *values)
    result = getattr(congruences, v.func)(args.p, *values, *derived)
    reports = list(result) if isinstance(result, tuple) else [result]
    _render([r.to_record() for r in reports], args.format, sys.stdout)
    return EXIT_OK if all(r.holds for r in reports) else EXIT_FAILED_CONGRUENCE


# ---------------------------------------------------------------------------
# scan


def _run_scan(args) -> int:
    kind = args.kind
    jobs = (os.cpu_count() or 1) if args.jobs is None else args.jobs
    if jobs < 1:
        raise PreconditionViolation(f"--jobs {jobs} is below 1")
    lo, hi = args.min, args.max
    if hi is None:
        raise PreconditionViolation("scan needs --max")
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
        for rec in scan.run(kind, todo, jobs):
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
        z = gaac.PARTIAL_PRODUCT_Z
        err.write(
            f"density scan: x={x} count={total} ratio={ratio:.4f} "
            f"partial-product(z={z})={gaac.partial_density_constant(z):.4f} "
            f"elapsed={elapsed:.1f}s\n"
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
    _render(load_checkpoint(args.input), args.format, sys.stdout)
    return EXIT_OK


def _run_unit(args) -> int:
    d = args.d
    if d % 4 == 1 and modmath.is_prime(d):
        unit = quadfield.fundamental_unit(d)
        record = {"kind": "fundamental-unit", "t": unit.t, "u": unit.u, "norm": unit.norm_sign}
    else:
        unit = quadfield.pell_min_solution(d)
        record = {"kind": "pell", "u1": unit.u1, "v1": unit.v1}
    record.update(d=d, regulator=quadfield.regulator(unit))
    _render([record], args.format, sys.stdout)
    return EXIT_OK


def _run_class_number(args) -> int:
    """h_forms, the cycle count, and beside it a second route where one
    applies: h_dirichlet, the analytic formula, for a fundamental disc, and
    h_descent, the conductor-2 descent from the forms of disc/4, for
    disc = 4D with D = 1 mod 4 (never fundamental).  Two routes that
    disagree raise ComputationBug."""
    disc = args.disc
    h_forms = quadfield.form_class_number(disc)
    record: dict = {"disc": disc, "h_forms": h_forms}
    if quadfield.is_fundamental_discriminant(disc):
        second = "h_dirichlet", "the analytic formula", quadfield.class_number_dirichlet(disc)
    elif disc % 16 == 4:
        unit = quadfield.unit_of_discriminant(disc)
        second = "h_descent", "the descent from disc/4", quadfield.class_number_4D(disc // 4, unit)
    else:
        second = None
    if second:
        name, route, h = second
        if h != h_forms:
            raise ComputationBug(f"disc = {disc}: the form count gives h = {h_forms}, {route} h = {h}")
        record.update({name: h, "agree": True})
    _render([record], args.format, sys.stdout)
    return EXIT_OK


FORMATS = ["json", "csv", "table"]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's own parser, built once
    per process; each parse_args call returns a fresh Namespace."""
    parser = argparse.ArgumentParser(
        prog="aactk",
        description="Verify unit/class-number/Fermat-quotient congruences "
        "for real quadratic fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run one congruence verifier")
    v.add_argument("statement", choices=list(VERIFIERS))
    v.add_argument("--p", type=int, required=True, help="odd prime modulus")
    v.add_argument("--m", type=int, help="non-residue parameter")
    v.add_argument("--n", type=int, help="non-residue parameter")
    v.add_argument("--M", type=int, help="positive lift of a non-residue")
    v.add_argument("--r", type=int, help="quadratic residue parameter")
    v.add_argument("--abar", type=int, help="non-residue lift (default: factor --r)")
    v.add_argument("--bbar", type=int, help="non-residue lift (default: factor --r)")
    v.add_argument("--a", type=str, help="comma-separated residue representatives")
    v.add_argument("--b", type=str, help="comma-separated non-residue representatives")
    v.set_defaults(func=_run_verify)

    s = sub.add_parser("scan", help="range scan with checkpointing")
    s.add_argument("kind", choices=list(scan.KINDS))
    s.add_argument("--max", "--x", type=int, help="upper bound (inclusive)")
    s.add_argument("--min", type=int, default=0, help="lower bound (inclusive; default: the kind's first item)")
    s.add_argument("--block", type=int, default=1000, help="density block size")
    s.add_argument("--checkpoint", type=str, help="append-only record file")
    s.add_argument("--jobs", type=int, help="parallel workers, 1 to the cpu count (default: cpu count)")
    s.set_defaults(func=_run_scan)

    r = sub.add_parser("report", help="re-render a checkpoint file")
    r.add_argument("--in", dest="input", required=True)
    r.set_defaults(func=_run_report)

    u = sub.add_parser("unit", help="fundamental unit / least Pell solution")
    u.add_argument("--d", type=int, required=True)
    u.set_defaults(func=_run_unit)

    c = sub.add_parser(
        "class-number", help="form class number of a discriminant, and a second route where one applies"
    )
    c.add_argument("--disc", type=int, required=True)
    c.set_defaults(func=_run_class_number)

    for command, default in ((v, "json"), (r, "table"), (u, "json"), (c, "json")):
        command.add_argument("--format", choices=FORMATS, default=default)

    return parser, {"verify": v, "scan": s, "report": r, "unit": u, "class-number": c}


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (built once per process)."""
    return _parsers()[0]


def parse_args(argv=None) -> argparse.Namespace:
    """argv parsed as the top-level parser would parse it.

    When argv starts with a subcommand, that subcommand's parser reads the
    rest directly: the top-level parser would hand it the same arguments
    and set `command`, and skipping it saves most of a parse.  Usage and
    error text come from the same parsers either way.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _parsers()
    if not argv or argv[0] not in commands:
        return parser.parse_args(argv)
    args, extra = commands[argv[0]].parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extra:
        # the top-level parser reports what no parser took, as it would have
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
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
