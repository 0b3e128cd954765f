"""The four seeded workloads: their inputs, their calls into aactk, and the
references their outputs are checked against.

Each workload is a closed loop with one client: the next call starts only
after the previous one returned.  Inputs come from the benchmark's own
code (its own sieve and Euler criterion), never from a call into the
library, so set-up makes no warm-up call and the references do not come
from the code being timed.

A workload yields units (a scan chunk, a prime's group of verifier calls,
a round of identity checks, a scan/resume/density pass); `run_unit`
makes the unit's calls through a Recorder, which times each call and
counts failures.  A verdict that contradicts the reference raises
ReferenceMismatch, which aborts the run.  So does a ComputationBug from the
library: it reports that a proven identity failed, that is, a wrong result.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import itertools
import json
import math
import os
import random
import statistics
import time
from collections import Counter

from aactk import cli, congruences, cyclotomic, errors, gaac, padiclog

# The three odd D below 10^8 with v1*h(4D) = 0 mod D, as published.
KNOWN_ODD_FAILURES = (1817, 209991, 1752299)
COR53_NOTE = "printed-form-differs"
# A known defect of aactk: verify_aac raises TypeError for every p above
# 10^4, because modmath.residue_sets returns A = B = None there.  The
# reference of verify-stream expects that error (or, once the defect is
# fixed, a report with lhs == rhs); any other error is a failed call.
KNOWN_DEFECT_ABOVE = 10_000
KNOWN_DEFECT_ERROR = TypeError


class ReferenceMismatch(Exception):
    """An output of the program contradicts the workload's reference."""


def own_primes(hi: int) -> list[int]:
    """Primes up to hi by the benchmark's own sieve."""
    sieve = bytearray([1]) * (hi + 1)
    sieve[:2] = b"\x00\x00"
    for q in range(2, math.isqrt(hi) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytes(len(range(q * q, hi + 1, q)))
    return [n for n in range(hi + 1) if sieve[n]]


def chi(a: int, p: int) -> int:
    """Legendre symbol by Euler's criterion (the benchmark's own)."""
    r = pow(a % p, (p - 1) // 2, p)
    return 0 if r == 0 else (1 if r == 1 else -1)


def _shuffled_rounds(items, rng: random.Random):
    """The items over and over, each round in a fresh seeded order."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


def _nonresidue(p: int, rng: random.Random) -> int:
    while True:
        m = rng.randrange(1, p)
        if chi(m, p) == -1:
            return m


# The shared 2-core box this benchmark was built on is noisy in two ways.
# The process loses the CPU for up to ~10 ms at a time (to other tasks and
# to the hypervisor), and the same code runs at different speeds from one
# second to the next (40 % slower an hour later).  So the benchmark times
# calls by the thread's CPU time, which stops while the process is off
# the CPU, and scales every timing by a speed probe taken between calls: a
# fixed pure-Python job that involves no aactk code.  REFERENCE_S fixes the
# unit: a scaled time is what the call would take on a machine where the
# probe takes exactly REFERENCE_S, about its median on that box (Xeon at
# 2.1 GHz, CPython 3.11).  Waits for I/O are not CPU time, so the bounded
# metrics leave them out; for the checkpointed scans they are about 2 % of
# wall time on that box.  The Recorder also sums each call's wall time,
# unscaled, for the run record.
REFERENCE_S = 0.010
PROBE_EVERY_S = 0.25


def _probe_job() -> None:
    total = 0
    table = {}
    for i in range(1, 50000):
        total += i * 7919 % 104729
        if i % 3 == 0:
            table[i & 1023] = total
    x = 3**2000
    modulus = 10**600 + 7
    for _ in range(200):
        x = x * 12345 % modulus


def speed_probe() -> float:
    """Median seconds of three runs of a fixed job that involves no aactk code."""
    times = []
    for _ in range(3):
        start = time.thread_time()
        _probe_job()
        times.append(time.thread_time() - start)
    return statistics.median(times)


def speed_scale(probes) -> float:
    """Factor turning measured seconds into reference seconds."""
    return REFERENCE_S / statistics.median(probes)


class Recorder:
    """Times the calls of one run and counts items, failures, known-defect
    errors and file work.

    `raw_s` is the timed CPU time as measured; `timed_s` and `latencies`
    are scaled to the reference speed, segment by segment, by the mean of
    the speed probes that bracket each segment (see `settle`).  `wall_s`
    is the calls' wall time, I/O waits and time off the CPU included.
    """

    def __init__(self):
        self.tracer = None
        self.raw_s = 0.0
        self.timed_s = 0.0
        self.wall_s = 0.0
        self.attempted = 0
        self.failures: Counter = Counter()
        self.known_defects: Counter = Counter()
        self.items = 0
        self.latencies: list[float] = []
        self.counts: Counter = Counter()
        self._probe = speed_probe()
        self._pending_s = 0.0
        self._pending_latencies: list[float] = []

    def call(self, label: str, fn, *args, known_defect=None):
        """(result, start, elapsed) of fn(*args), or None if it raised.

        A ComputationBug is not a failed call but a wrong result: it raises
        ReferenceMismatch.  An exception of class `known_defect` is the
        outcome the reference expects of a known defect: it is counted in
        `known_defects`, not as a failure.
        """
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.item = self.attempted
        wall_start = time.perf_counter()
        start = time.thread_time()
        try:
            result = fn(*args)
        except errors.ComputationBug as exc:
            raise ReferenceMismatch(f"{label}{args[:2]}: {type(exc).__name__}: {exc}") from exc
        except Exception as exc:  # any other library exception is a failed operation
            self._pending_s += time.thread_time() - start
            self.wall_s += time.perf_counter() - wall_start
            kind = f"{label}:{type(exc).__name__}"
            if known_defect is not None and isinstance(exc, known_defect):
                self.known_defects[kind] += 1
            else:
                self.failures[kind] += 1
            return None
        elapsed = time.thread_time() - start
        self.wall_s += time.perf_counter() - wall_start
        self._pending_s += elapsed
        return result, start, elapsed

    @property
    def measured_s(self) -> float:
        """Timed CPU time so far, unscaled."""
        return self.raw_s + self._pending_s

    def fail(self, label: str) -> None:
        self.failures[label] += 1

    def add_items(self, count: int, latencies=()) -> None:
        self.items += count
        self._pending_latencies.extend(latencies)

    def settle(self, force: bool = False) -> None:
        """Close the current segment once it holds PROBE_EVERY_S of calls."""
        if not force and self._pending_s < PROBE_EVERY_S:
            return
        probe = speed_probe()
        scale = speed_scale([self._probe, probe])
        self._probe = probe
        self.raw_s += self._pending_s
        self.timed_s += self._pending_s * scale
        self.latencies.extend(x * scale for x in self._pending_latencies)
        self._pending_s = 0.0
        self._pending_latencies = []


class _StampedStream(io.TextIOBase):
    """Stands in for stdout and timestamps every write (one per record)."""

    def __init__(self):
        self.writes: list[tuple[float, str]] = []

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self.writes.append((time.thread_time(), text))
        return len(text)


def _streamed_scan(rec: Recorder, argv: list[str]):
    """Run `aactk <argv> --jobs 1` with its records on a timestamped stdout.

    Returns (exit code, call start, [(stamp, record)]), or None when the
    call raised or exited with neither 0 nor the finding code 1.
    """
    out = _StampedStream()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        res = rec.call("cli.main", cli.main, argv + ["--jobs", "1"])
    if res is None:
        return None
    rc, start, _ = res
    if rc not in (0, 1):
        rec.fail(f"cli.main:exit{rc}")
        return None
    return rc, start, [(stamp, json.loads(text)) for stamp, text in out.writes]


class GaacWindow:
    """`scan gaac` over ~1000 odd D near 2.1e5, in 25-D calls, records on stdout.

    The seed places 209991 anywhere in the window; scanning starts with
    the chunk that holds it and wraps round, so every run, however short,
    meets the known failure.  Records stream to stdout, which the
    benchmark timestamps, so each verdict has its own latency.
    """

    CHUNK = 25
    SIZE = 1000

    def __init__(self, seed: int, workdir: str, known=KNOWN_ODD_FAILURES):
        rng = random.Random(f"gaac-window:{seed}")
        position = rng.randrange(self.SIZE)
        lo = 209991 - 2 * position
        chunks = [
            (lo + 2 * self.CHUNK * i, lo + 2 * self.CHUNK * (i + 1) - 2)
            for i in range(self.SIZE // self.CHUNK)
        ]
        first = position // self.CHUNK
        self.order = chunks[first:] + chunks[:first]
        self.known = frozenset(known)

    def units(self):
        return itertools.cycle(self.order)

    def run_unit(self, chunk, rec: Recorder) -> None:
        lo, hi = chunk
        res = _streamed_scan(rec, ["scan", "gaac", "--min", str(lo), "--max", str(hi)])
        if res is None:
            return
        rc, start, writes = res
        expected = [D for D in range(lo, hi + 1, 2) if math.isqrt(D) ** 2 != D]
        expected_failures = self.known.intersection(expected)
        verdicts = []
        latencies = []
        previous = start
        for stamp, record in writes:
            if "D" in record:
                verdicts.append(record)
                latencies.append(stamp - previous)
            previous = stamp
        if [r["D"] for r in verdicts] != expected:
            raise ReferenceMismatch(
                f"gaac [{lo}, {hi}]: {len(verdicts)} verdicts, expected the "
                f"{len(expected)} odd nonsquare D"
            )
        failures = {r["D"] for r in verdicts if not r["holds"]}
        if failures != expected_failures:
            raise ReferenceMismatch(
                f"gaac [{lo}, {hi}]: failures {sorted(failures)}, "
                f"expected {sorted(expected_failures)}"
            )
        if rc != (1 if expected_failures else 0):
            raise ReferenceMismatch(f"gaac [{lo}, {hi}]: exit code {rc}")
        rec.counts["cli.records_written"] += len(writes)
        rec.add_items(len(latencies), latencies)

    def finish(self, rec: Recorder) -> None:
        pass


# A prime's calls arrive in this order.  A fixed order puts the L-sum of
# the first class-number lookup always on thm51, so the latency tail does
# not depend on which statement happened to come first.
STATEMENTS = (
    "thm51",
    "cor53",
    "aac1952",
    "thm54",
    "thm56",
    "eisenstein",
    "gen_eisenstein",
    "thm21",
    "aac",
)


class VerifyStream:
    """All nine congruence verifiers, one group of calls per prime.

    The pool holds 40 primes p = 5 mod 8 (so every statement but
    gen-eisenstein applies), one drawn from each of 40 equal strata of
    [5000, 15000]: half lie above 10^4, and the pool is larger than the
    32-entry table caches.  Each round visits the pool in a seeded order;
    a prime's nine calls arrive together, with fresh seeded parameters.
    gen-eisenstein needs p = 3 mod 4, so it runs on a companion prime
    q > p with an admissible odd m.
    """

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        rng = random.Random(f"verify-stream:{seed}")
        primes = own_primes(16000)
        self.pool = []
        for i in range(40):
            lo, hi = 5000 + 250 * i, 5250 + 250 * i
            self.pool.append(rng.choice([p for p in primes if lo < p <= hi and p % 8 == 5]))
        self.companion = {p: self._companion(p, primes, rng) for p in self.pool}

    @staticmethod
    def _companion(p: int, primes, rng) -> tuple[int, int]:
        for q in primes[bisect.bisect_right(primes, p) :]:
            if q % 4 != 3:
                continue
            ms = [m for m in range(3, 32, 2) if q % m == 1 and chi(m, q) == -1]
            if ms:
                return q, rng.choice(ms)
        raise ValueError(f"no companion prime above {p}")

    def units(self):
        rng = random.Random(f"verify-stream/order:{self.seed}")
        for p in _shuffled_rounds(self.pool, rng):
            yield [self._call(stmt, p, rng) for stmt in STATEMENTS]

    def _call(self, stmt: str, p: int, rng: random.Random):
        if stmt in ("aac", "eisenstein"):
            args = (p,)
        elif stmt == "thm21":
            squares = {x * x % p for x in range(1, (p + 1) // 2)}
            a_set = [x + p * rng.randrange(10) for x in sorted(squares)]
            b_set = [x + p * rng.randrange(10) for x in range(1, p) if x not in squares]
            args = (p, a_set, b_set)
        elif stmt in ("thm51", "cor53", "aac1952"):
            args = (p, _nonresidue(p, rng))
        elif stmt == "thm54":
            args = (p, _nonresidue(p, rng) + p * rng.randrange(50))
        elif stmt == "gen_eisenstein":
            args = self.companion[p]
        elif stmt == "thm56":
            r = pow(rng.randrange(2, p - 1), 2, p)
            abar = _nonresidue(p, rng) + p * rng.randrange(5)
            args = (p, r, abar, r * pow(abar, -1, p * p) % (p * p))
        return stmt, args

    def run_unit(self, calls, rec: Recorder) -> None:
        for stmt, args in calls:
            name = f"verify_{stmt}"
            defect = KNOWN_DEFECT_ERROR if stmt == "aac" and args[0] > KNOWN_DEFECT_ABOVE else None
            res = rec.call(
                f"congruences.{name}", getattr(congruences, name), *args, known_defect=defect
            )
            if res is None:
                continue
            result, _, elapsed = res
            reports = result if isinstance(result, tuple) else (result,)
            allowed = {COR53_NOTE} if stmt == "cor53" else set()
            for report in reports:
                if report.lhs != report.rhs or not set(report.notes) <= allowed:
                    raise ReferenceMismatch(f"{name}{args[:2]}: {report.to_record()}")
            rec.add_items(1, [elapsed])

    def finish(self, rec: Recorder) -> None:
        pass


def _own_tau(p: int) -> tuple[int, ...]:
    """sum_k (k/p) zeta^k on the power basis, zeta^(p-1) folded away."""
    top = chi(p - 1, p)
    return tuple((chi(i, p) if i else 0) - top for i in range(p - 1))


def _identity(kind: str, args):
    if kind == "lemma6":
        return cyclotomic.lemma6_check(*args)
    if kind == "gauss":
        tau = cyclotomic.gauss_sum(args[0])
        return cyclotomic.cyc_mul(tau, tau).coeffs
    if kind == "apply_G":
        p, a = args
        g = cyclotomic.gauss_element(p)
        return cyclotomic.apply_G(cyclotomic.CycInt.from_powers(p, {a: 1}), g).coeffs
    if kind == "unit":
        try:
            return cyclotomic.unit_identity_check(*args)
        except errors.ToleranceExceeded:
            return False
    if kind == "theorem4":
        return padiclog.theorem4_check(*args)
    a, q = args
    return padiclog.padic_log_unit(a, q, 2)


_IDENTITY_LABELS = {
    "lemma6": "cyclotomic.lemma6_check",
    "gauss": "cyclotomic.gauss_sum",
    "apply_G": "cyclotomic.apply_G",
    "unit": "cyclotomic.unit_identity_check",
    "theorem4": "padiclog.theorem4_check",
    "log_unit": "padiclog.padic_log_unit",
}


class Identities:
    """Exact identity checks at small p, 15 per round in a seeded order.

    A round holds 8 lemma6 checks (odd p <= 47, seeded non-residue n and
    j), tau^2 = p and G(zeta^a) = (a/p) tau and the two unit identities
    at one p = 1 mod 4 below 50, and 2 each of theorem4 and the p-adic
    log of a unit at odd p <= 100.  The primes of lemma6 and of the unit
    identities, whose cost grows fastest with p, are dealt in seeded
    rounds rather than drawn, so every stretch of a run holds the same
    mix of large and small p, and the latency tail with it.
    """

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        primes = own_primes(100)[1:]
        self.lemma6_primes = [p for p in primes if p < 50]
        self.one_mod_4 = [p for p in self.lemma6_primes if p % 4 == 1]
        self.padic_primes = primes
        self.nonresidues = {
            p: [n for n in range(2, p) if chi(n, p) == -1] for p in self.lemma6_primes
        }
        self.tau = {p: _own_tau(p) for p in self.one_mod_4}

    def units(self):
        rng = random.Random(f"identities:{self.seed}")
        lemma6_primes = _shuffled_rounds(self.lemma6_primes, rng)
        unit_primes = _shuffled_rounds(self.one_mod_4, rng)
        while True:
            checks = []
            for _ in range(8):
                q = next(lemma6_primes)
                n = rng.choice(self.nonresidues[q])
                checks.append(("lemma6", (n, rng.randrange(1, q), q)))
            p = next(unit_primes)
            checks.append(("gauss", (p,)))
            checks.append(("apply_G", (p, rng.randrange(1, p))))
            checks.append(("unit", (p, rng.choice(self.nonresidues[p]))))
            for _ in range(2):
                q = rng.choice(self.padic_primes)
                checks.append(("theorem4", (1 + q * rng.randrange(q), q)))
            for _ in range(2):
                q = rng.choice(self.padic_primes)
                a = rng.randrange(1, q * q)
                checks.append(("log_unit", (a + (a % q == 0), q)))
            rng.shuffle(checks)
            yield checks

    def _expected(self, kind: str, args):
        if kind == "gauss":
            p = args[0]
            return (p,) + (0,) * (p - 2)
        if kind == "apply_G":
            p, a = args
            return tuple(chi(a, p) * c for c in self.tau[p])
        if kind == "log_unit":
            a, q = args
            fermat = (pow(a, q - 1, q * q) - 1) // q % q
            return -q * fermat % (q * q)
        return True

    def run_unit(self, checks, rec: Recorder) -> None:
        for kind, args in checks:
            res = rec.call(_IDENTITY_LABELS[kind], _identity, kind, args)
            if res is None:
                continue
            result, _, elapsed = res
            if result != self._expected(kind, args):
                raise ReferenceMismatch(f"{_IDENTITY_LABELS[kind]}{args}: {result!r}")
            rec.add_items(1, [elapsed])

    def finish(self, rec: Recorder) -> None:
        pass


class ScanResume:
    """A pass: `scan aac` to ~1e5 into a fresh checkpoint; the same scan
    resumed from a copy cut at a seeded record and ended with a torn line;
    `scan density` to ~2e5, in four calls over consecutive ranges.  Items
    are records written or read back.

    Only the density blocks, which stream to stdout with a stamp each,
    give latencies.  A checkpointed `scan aac` shows no per-record timing
    from outside, so its records count as items and its time as timed
    time, but it adds no latency.
    """

    DENSITY_CALLS = 4

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.primes = own_primes(105000)
        self.density_totals: dict[int, int] = {}

    def units(self):
        rng = random.Random(f"scan-resume:{self.seed}")
        # Reading a record back costs less than writing one, so the cut point
        # sets a pass's cost.  Cut points follow a seeded golden-ratio
        # sequence, which spreads them evenly over any run of passes.
        cut = rng.random()
        while True:
            cut = (cut + 0.6180339887) % 1.0
            yield (
                rng.randrange(99000, 101001),
                0.1 + 0.8 * cut,
                rng.random(),
                rng.randrange(198000, 202001),
            )

    def _scan(self, rec: Recorder, argv, path: str) -> bool:
        """Run one scan into the checkpoint at path; False if it failed."""
        before = os.path.getsize(path) if os.path.exists(path) else 0
        with contextlib.redirect_stdout(io.StringIO()):
            res = rec.call("cli.main", cli.main, argv + ["--checkpoint", path, "--jobs", "1"])
        if res is None:
            return False
        rc = res[0]
        if rc == 1:
            raise ReferenceMismatch(f"{' '.join(argv)}: exit 1, but no verdict fails")
        if rc != 0:
            rec.fail(f"cli.main:exit{rc}")
            return False
        rec.counts["cli.checkpoint_bytes"] += os.path.getsize(path) - before
        return True

    def run_unit(self, unit, rec: Recorder) -> None:
        x1, cut, torn, x3 = unit
        fresh, resumed = (
            os.path.join(self.workdir, name) for name in ("fresh.jsonl", "resumed.jsonl")
        )
        for path in (fresh, resumed):
            if os.path.exists(path):
                os.remove(path)
        aac = ["scan", "aac", "--max", str(x1)]

        if not self._scan(rec, aac, fresh):
            return
        with open(fresh, "rb") as fh:
            data = fh.read()
        lines = data.splitlines(keepends=True)
        expected = [p for p in self.primes[: bisect.bisect_right(self.primes, x1)] if p % 4 == 1]
        records = [json.loads(line) for line in lines]
        if [r["p"] for r in records] != expected or not all(r["holds"] for r in records):
            raise ReferenceMismatch(f"scan aac --max {x1}: records differ from the primes = 1 mod 4")
        rec.counts["cli.records_written"] += len(lines)
        rec.add_items(len(lines))
        rec.settle()

        keep = min(max(1, int(cut * len(lines))), len(lines) - 1)
        tail = lines[keep]
        with open(resumed, "wb") as fh:
            fh.write(b"".join(lines[:keep]) + tail[: 1 + int(torn * (len(tail) - 2))])
        if not self._scan(rec, aac, resumed):
            return
        with open(resumed, "rb") as fh:
            if fh.read() != data:
                raise ReferenceMismatch(f"scan aac --max {x1}: resumed checkpoint differs from fresh")
        rec.counts["cli.records_written"] += len(lines) - keep
        rec.add_items(len(lines))
        rec.settle()

        # Density needs no checkpoint: its blocks stream to stdout, where
        # each gets its own latency.  It runs as DENSITY_CALLS scans of
        # consecutive ranges, so speed probes between them track the box.
        total = 0
        edges = [2] + [x3 * k // self.DENSITY_CALLS for k in range(1, self.DENSITY_CALLS)]
        for lo, hi in zip(edges, edges[1:] + [x3 + 1]):
            res = _streamed_scan(rec, ["scan", "density", "--min", str(lo), "--x", str(hi - 1)])
            if res is None:
                return
            rc, start, writes = res
            if rc == 1:
                raise ReferenceMismatch(f"scan density [{lo}, {hi - 1}]: exit 1")
            total += sum(record["count"] for _, record in writes)
            rec.counts["cli.records_written"] += len(writes)
            stamps = [start] + [stamp for stamp, _ in writes]
            rec.add_items(len(writes), [b - a for a, b in zip(stamps, stamps[1:])])
            rec.settle()
        if self.density_totals.setdefault(x3, total) != total:
            raise ReferenceMismatch(f"scan density --x {x3}: count changed between passes")

    def finish(self, rec: Recorder) -> None:
        # The sieve count is computed after the timed loop (and after any
        # tracing), so it neither costs timed work nor shows in the trace.
        for x3, total in self.density_totals.items():
            reference = gaac.count_squarefree_n2m1(x3).count
            if total != reference:
                raise ReferenceMismatch(
                    f"scan density --x {x3}: count {total}, sieve count {reference}"
                )


WORKLOADS = {
    "gaac-window": GaacWindow,
    "verify-stream": VerifyStream,
    "identities": Identities,
    "scan-resume": ScanResume,
}
