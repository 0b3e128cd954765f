"""aactk benchmark: run one workload, or all four, and print its metrics.

  python3 perfbench/run.py --workload gaac-window --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --workload all --seed 1

Run from the root of a source checkout; aactk is imported from its
`src/`.  Each workload runs in fresh worker processes (one at a time, so
they never contend for the cores):

  --trace 0  one worker runs the closed loop for --seconds of timed calls
             and gives the end-to-end metrics; more workers only set up
             (import aactk, generate the inputs), and setup_s is the
             median of SETUP_SAMPLES set-up times.
  --trace 1  the same fixed list of units runs twice, each in a fresh
             worker: untraced, then with the span tracer.  The traced
             worker gives the per-layer metrics, and trace.overhead_ratio
             is its timed CPU time over the untraced one's.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the metric names and units are those of
BENCHMARK.json.  The line before it records the run (seed, commit, Python
version, nproc, failures and known-defect errors by statement and
exception class, the tail percentile and its sample count).

Exit codes: 0 ran and every output matched its reference; 1 an output
contradicted its reference; 2 the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7
DEADLINE_S = 170

# Units per second of --seconds in a traced run: about half of --seconds
# of untraced calls on a 2-core x86 box at the commit that added them.
TRACE_UNITS_PER_S = {
    "gaac-window": 1.0,
    "verify-stream": 6.0,
    "identities": 40.0,
    "scan-resume": 0.25,
}


class BenchError(Exception):
    """The benchmark itself could not run."""


def _commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "aactk").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _worker(args: list[str], deadline: float) -> tuple[int, dict | None]:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            stdout=subprocess.PIPE,
            text=True,
            timeout=remaining,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} did not finish in time") from None
    lines = proc.stdout.strip().splitlines()
    data = json.loads(lines[-1]) if lines else None
    if proc.returncode == 1 and data and "mismatch" in data:
        return 1, data
    if proc.returncode != 0 or data is None:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}")
    return 0, data


def _metrics(spec_metrics: list[dict], values: dict) -> dict:
    missing = {m["name"] for m in spec_metrics} - values.keys()
    if missing:
        raise BenchError(f"no value for {sorted(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics}


def run_workload(spec: dict, name: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """(result, run record) for one workload."""
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", name, "--seed", str(seed)]
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }

    if not trace:
        rc, run = _worker(common + ["--mode", "run", "--seconds", str(seconds)], deadline)
        if rc:
            return _mismatch(run), record | {"mismatch": run["mismatch"]}
        setups = [run["setup_s"]]
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_worker(common + ["--mode", "setup"], deadline)[1]["setup_s"])
        latency = run["latency"]
        known = sum(run["known_defects"].values())
        if not run["items"]:
            raise BenchError("no item completed")
        values = {
            "setup_s": statistics.median(setups),
            "items_per_s": run["items"] / run["timed_s"],
            "latency_p50_ms": latency["p50_ms"],
            "latency_tail_ms": latency["tail_ms"],
            "ok_ratio": 1 - (run["failed"] + known) / run["attempted"],
            "peak_rss_mb": run["peak_rss_mb"],
        }
        spec_metrics = spec["end_to_end"]
        record |= {
            "items": run["items"],
            "timed_s": run["timed_s"],
            "raw_timed_s": run["raw_s"],
            "raw_items_per_s": run["items"] / run["raw_s"],
            "wall_timed_s": run["wall_s"],
            "wall_items_per_s": run["items"] / run["wall_s"],
            "fail_ratio": run["failed"] / run["attempted"],
            "failures": run["failures"],
            "known_defects": run["known_defects"],
            "latency": latency,
            "setup_samples_s": setups,
        }
    else:
        units = max(1, math.ceil(TRACE_UNITS_PER_S[name] * seconds))
        replay = common + ["--mode", "replay", "--units", str(units)]
        rc, plain = _worker(replay, deadline)
        if rc:
            return _mismatch(plain), record | {"mismatch": plain["mismatch"]}
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"trace-{name}-seed{seed}.jsonl"
        rc, run = _worker(replay + ["--trace", "--trace-out", str(spans)], deadline)
        if rc:
            return _mismatch(run), record | {"mismatch": run["mismatch"]}
        values = dict(run["layers"])
        values["trace.overhead_ratio"] = run["timed_s"] / plain["timed_s"]
        spec_metrics = spec["per_layer"]
        extra = values.keys() - {m["name"] for m in spec_metrics}
        if extra:
            raise BenchError(f"per-layer metrics missing from BENCHMARK.json: {sorted(extra)}")
        record |= {
            "units": units,
            "items": run["items"],
            "timed_s": run["timed_s"],
            "raw_timed_s": run["raw_s"],
            "untraced_timed_s": plain["timed_s"],
            "failures": run["failures"],
            "known_defects": run["known_defects"],
            "spans": str(spans.relative_to(ROOT)),
        }

    result = {
        "correct": True,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": _metrics(spec_metrics, values),
    }
    return result, record


def _mismatch(data: dict) -> dict:
    return {"correct": False, "attempted": max(1, data["attempted"]), "failed": 0, "metrics": {}}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description="aactk benchmark")
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "aactk" / "__init__.py").is_file():
        print(f"error: no aactk source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    chosen = names if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in chosen:
            result, record = run_workload(spec, name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps({"run": record}), flush=True)
            if args.workload == "all":
                print(json.dumps({"workload": name, **result}), flush=True)
            results[name] = result
            if not result["correct"]:
                print(f"error: {name}: an output contradicted its reference", file=sys.stderr)
                break
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
