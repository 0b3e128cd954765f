"""One workload in one fresh process; prints one JSON object on stdout.

  python3 perfbench/worker.py --workload W --seed S --mode setup
      import aactk and generate the inputs; report the time that took.
  python3 perfbench/worker.py --workload W --seed S --mode run --seconds T
      run the closed loop until T seconds of calls have been timed.
  python3 perfbench/worker.py --workload W --seed S --mode replay --units K [--trace]
      run exactly the first K units, optionally with the span tracer.

Exit code 1 means an output contradicted its reference; 2 means the
benchmark could not run (for instance, no aactk source next to it).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MIN_TAIL_BEYOND = 10
# The tail is taken in each of TAIL_PARTS consecutive parts of a run and
# the median part reported: on a shared box a few calls per second are
# held up by the machine, not by the code, and in one percentile over a
# whole run their number would decide which call is the tail.
TAIL_PARTS = 9


def _tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    MIN_TAIL_BEYOND samples beyond it (the maximum if there are too few)."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = n - 1 - MIN_TAIL_BEYOND if n > MIN_TAIL_BEYOND else n - 1
    return ordered[rank], 100.0 * (rank + 1) / n


def latency_summary(latencies: list[float]) -> dict:
    """Median and tail in ms, latencies in the order they were recorded.

    The tail is the median of the tails of TAIL_PARTS consecutive parts
    of equal size, or the whole run's when a part would hold too few
    samples for a tail of its own.
    """
    n = len(latencies)
    if n == 0:
        return {"samples": 0, "p50_ms": None, "tail_ms": None, "tail_percentile": None}
    parts = TAIL_PARTS if n >= TAIL_PARTS * (MIN_TAIL_BEYOND + 1) else 1
    tails = sorted(
        _tail(latencies[i * n // parts : (i + 1) * n // parts]) for i in range(parts)
    )
    tail, percentile = tails[parts // 2]
    return {
        "samples": n,
        "p50_ms": statistics.median(latencies) * 1e3,
        "tail_ms": tail * 1e3,
        "tail_percentile": percentile,
        "tail_part_samples": n // parts,
        "tail_parts_ms": [value * 1e3 for value, _ in tails],
    }


def _cache_counts(caches) -> dict:
    out = {}
    for name, fn in caches.items():
        info = fn.cache_info()
        out[name] = (info.hits, info.misses)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=["setup", "run", "replay"], required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--units", type=int)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--trace-out", help="file for the traced run's spans")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "aactk" / "__init__.py").is_file():
        print(f"error: no aactk source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    start = time.thread_time()
    import aactk
    import workloads
    from aactk import cli, congruences, cyclotomic, gaac, modmath, padiclog, quadfield

    if Path(aactk.__file__).resolve().parent != src / "aactk":
        print(f"error: imported aactk from {aactk.__file__}, not {src}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
    setup_raw_s = time.thread_time() - start
    setup_s = setup_raw_s * workloads.speed_scale([workloads.speed_probe()])
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    import tracer as tracing

    modules = {
        "quadfield": quadfield,
        "gaac": gaac,
        "modmath": modmath,
        "congruences": congruences,
        "cyclotomic": cyclotomic,
        "padiclog": padiclog,
        "cli": cli,
    }
    caches = {f"{m}.{f}": getattr(modules[m], f) for m, f in tracing.CACHES}
    rec = workloads.Recorder()
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        before = _cache_counts(caches)
        if args.trace:
            rec.tracer = tracing.Tracer(modules)
        try:
            for index, unit in enumerate(workload.units()):
                if args.units is not None and index >= args.units:
                    break
                if args.units is None and rec.measured_s >= args.seconds:
                    break
                workload.run_unit(unit, rec)
                rec.settle()
        finally:
            if rec.tracer is not None:
                rec.tracer.unwrap()
        rec.settle(force=True)
        after = _cache_counts(caches)
        workload.finish(rec)
    except workloads.ReferenceMismatch as exc:
        print(f"error: reference mismatch: {exc}", file=sys.stderr)
        print(json.dumps({"mismatch": str(exc), "attempted": rec.attempted}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "timed_s": rec.timed_s,
        "raw_s": rec.raw_s,
        "wall_s": rec.wall_s,
        "attempted": rec.attempted,
        "failed": sum(rec.failures.values()),
        "failures": dict(sorted(rec.failures.items())),
        "known_defects": dict(sorted(rec.known_defects.items())),
        "items": rec.items,
        "latency": latency_summary(rec.latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if rec.tracer is not None:
        layers = rec.tracer.layer_metrics(scale=rec.timed_s / rec.raw_s)
        layers.update({name: 0 for name in tracing.COUNTS})
        layers.update(rec.tracer.counts)
        layers.update(rec.counts)
        for name in caches:
            hits = after[name][0] - before[name][0]
            misses = after[name][1] - before[name][1]
            layers[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out["layers"] = layers
        if args.trace_out:
            rec.tracer.dump(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
