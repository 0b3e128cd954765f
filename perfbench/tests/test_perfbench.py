"""Self-test of the benchmark: every workload at smoke size, both kinds of
run, and wrong references or wrong results that must make the run fail.

  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))
import tracer  # noqa: E402
import workloads  # noqa: E402
from aactk import modmath, quadfield  # noqa: E402


@pytest.fixture
def scratch(request):
    """A fresh directory under the checkout's .perfbench/, removed afterwards."""
    path = ROOT / ".perfbench" / f"test-{os.getpid()}-{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
    )


def test_per_layer_list_matches_the_tracer():
    assert [m["name"] for m in SPEC["per_layer"]] == tracer.metric_names()


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    *_, run_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: value["unit"] for name, value in result["metrics"].items()
    }
    run = json.loads(run_line)["run"]
    assert run["workload"] == workload and run["nproc"] >= 1
    if trace == "0":
        assert run["latency"]["samples"] >= 1
        assert all(value["value"] > 0 for value in result["metrics"].values())


def test_traced_gaac_window_spends_most_in_reduced_forms():
    proc = _bench("--workload", "gaac-window", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    self_times = {k: v["value"] for k, v in metrics.items() if k.endswith(".self_s")}
    assert max(self_times, key=self_times.get) == "quadfield.reduced_forms.self_s"


def test_wrong_reference_fails_the_run(scratch):
    window = workloads.GaacWindow(3, str(scratch), known=(1817, 1752299))
    chunk = next(c for c in window.order if c[0] <= 209991 <= c[1])
    with pytest.raises(workloads.ReferenceMismatch, match="209991"):
        window.run_unit(chunk, workloads.Recorder())


def test_failed_unit_identity_is_a_mismatch(scratch, monkeypatch):
    checks = workloads.Identities(1, str(scratch))
    unit = [("unit", (13, 2))]
    checks.run_unit(unit, workloads.Recorder())
    class_number = quadfield.class_number
    monkeypatch.setattr(quadfield, "class_number", lambda d: class_number(d) + 1)
    with pytest.raises(workloads.ReferenceMismatch, match="unit_identity_check"):
        checks.run_unit(unit, workloads.Recorder())


def test_divisibility_bug_is_a_mismatch(scratch, monkeypatch):
    stream = workloads.VerifyStream(1, str(scratch))
    unit = [("aac", (13,))]
    stream.run_unit(unit, workloads.Recorder())
    residue_sets = modmath.residue_sets
    monkeypatch.setattr(
        modmath, "residue_sets", lambda p: dataclasses.replace(residue_sets(p), A=residue_sets(p).A + 1)
    )
    with pytest.raises(workloads.ReferenceMismatch, match="DivisibilityBug"):
        stream.run_unit(unit, workloads.Recorder())


def test_known_defect_is_counted_apart_from_failures(scratch, monkeypatch):
    stream = workloads.VerifyStream(1, str(scratch))
    big = next(p for p in stream.pool if p > workloads.KNOWN_DEFECT_ABOVE)
    rec = workloads.Recorder()
    stream.run_unit([("aac", (big,))], rec)
    assert not rec.failures
    assert rec.known_defects == {"congruences.verify_aac:TypeError": 1} or rec.items == 1

    def broken(p):
        raise TypeError("broken")

    monkeypatch.setattr(workloads.congruences, "verify_aac", broken)
    rec = workloads.Recorder()
    stream.run_unit([("aac", (13,)), ("aac", (big,))], rec)
    assert rec.failures == {"congruences.verify_aac:TypeError": 1}
    assert rec.known_defects == {"congruences.verify_aac:TypeError": 1}


def _checkout_copy(dest: Path) -> Path:
    """BENCHMARK.json and the benchmark, plus the aactk source unless dest is bare."""
    shutil.copytree(
        ROOT / "perfbench", dest / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    return dest


def test_wrong_result_exits_1(scratch):
    checkout = _checkout_copy(scratch)
    shutil.copytree(
        ROOT / "src", checkout / "src", ignore=shutil.ignore_patterns("__pycache__")
    )
    with open(checkout / "src" / "aactk" / "congruences.py", "a") as fh:
        fh.write(
            "\n\ndef verify_aac(p):\n"
            "    raise DivisibilityBug(f'p = {p} does not divide A + B')\n"
        )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert "DivisibilityBug" in proc.stderr


def test_every_workload_in_one_command():
    proc = _bench("--workload", "all", "--seed", "5", "--seconds", "1")
    assert proc.returncode == 0, proc.stderr
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert final["correct"] is True
    assert set(final["metrics"]) == {
        f"{w}.{m['name']}" for w in WORKLOADS for m in SPEC["end_to_end"]
    }


def test_without_the_source_it_exits_nonzero(scratch):
    bare = _checkout_copy(scratch)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
