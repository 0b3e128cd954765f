import os
import re
import subprocess
import sys

import pytest

import aactk
from aactk import modmath, quadfield, scan
from aactk.errors import CheckpointCorrupt, OutOfRange, PreconditionViolation


def test_declared_fields_match_the_workers():
    for kind, (worker, _, fields) in scan.KINDS.items():
        (item,) = scan.plan(kind, 13, 13 if kind != "density" else 20)
        assert set(worker(item)) == fields, kind


def test_density_blocks_tile_the_range():
    assert scan.plan("density", 0, 10, 4) == [(2, 5), (6, 9), (10, 10)]
    with pytest.raises(OutOfRange):
        scan.plan("density", 2, 10, 0)


def test_unknown_kind():
    with pytest.raises(PreconditionViolation):
        scan.plan("nope", 3, 10)


def test_resumed_keeps_planned_items_and_skips_outside_records():
    items = scan.plan("density", 2, 3001, 1000)
    records = list(scan.run("density", scan.plan("density", 2, 5001, 1000)))
    done = scan.resumed("density", 2, 3001, items, records)
    assert sorted(done) == items


def test_resumed_refuses_a_block_that_straddles_the_range():
    items = scan.plan("density", 2, 3000, 1000)
    straddling = {"n_lo": 2900, "n_hi": 3100, "count": 0}
    with pytest.raises(PreconditionViolation):
        scan.resumed("density", 2, 3000, items, [straddling])


def test_every_field_has_a_resume_type():
    for kind, (_, _, fields) in scan.KINDS.items():
        assert set(scan._RECORD_RULES[kind][0]) == fields, kind


@pytest.mark.parametrize(
    "kind, lo, hi, edit, message",
    [
        ("eisenstein", 13, 13, {"holds": False}, "breaks holds == (lhs == rhs)"),
        ("eisenstein", 13, 13, {"params": []}, "params is list, not dict"),
        ("density", 2, 1001, {"count": 1001}, "breaks 0 <= count <= n_hi - n_lo + 1"),
        ("density", 2, 1001, {"count": -1}, "breaks 0 <= count"),
        ("density", 2, 1001, {"count": 3.0}, "count is float, not int"),
    ],
)
def test_resumed_refuses_a_record_that_breaks_its_kind_rule(kind, lo, hi, edit, message):
    items = scan.plan(kind, lo, hi)
    (record,) = scan.run(kind, items)
    assert scan.resumed(kind, lo, hi, items, [record]) == {items[0]: record}
    with pytest.raises(CheckpointCorrupt, match=re.escape(message)):
        scan.resumed(kind, lo, hi, items, [{**record, **edit}])


def test_resumed_takes_identical_duplicates_once_and_refuses_others():
    items = scan.plan("density", 2, 3001, 1000)
    records = list(scan.run("density", items))
    done = scan.resumed("density", 2, 3001, items, records + records[::-1])
    assert list(done.values()) == records
    other = {**records[1], "count": records[1]["count"] - 1}
    with pytest.raises(CheckpointCorrupt, match="differ for one item"):
        scan.resumed("density", 2, 3001, items, records + [other])


def test_process_pool_is_imported_only_for_a_pool():
    # serial runs, the common case, do not pay for concurrent.futures
    code = "import sys, aactk, aactk.cli; print(any(m.startswith('concurrent') for m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(aactk.__file__))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_pool_starts_at_most_one_worker_per_cpu(monkeypatch):
    # a stub pool that records its size and maps serially, so no process starts
    import concurrent.futures

    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    items = scan.plan("gaac", 3, 200)
    serial = list(scan.run("gaac", items, jobs=1))
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert list(scan.run("gaac", items, jobs=10**6)) == serial
    assert started == [3]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert list(scan.run("gaac", items, jobs=10**6)) == serial
    assert started == [3]


def test_prime_check_cache_stays_bounded():
    # a caller may visit more primes than the bound; the validation cache
    # keeps only the latest
    primes = scan.plan("aac", 5, 100_000)
    assert len(primes) > modmath._PRIME_CACHE_SIZE
    for p in primes:
        quadfield.fundamental_unit(p)
    info = modmath._check_odd_prime.cache_info()
    assert info.maxsize == modmath._PRIME_CACHE_SIZE
    assert info.currsize == modmath._PRIME_CACHE_SIZE


def test_aac_scan_proves_no_prime_again(monkeypatch):
    # plan takes the primes from the sieve; the records must not test them again
    primes = scan.plan("aac", 5, 10_000)
    expected = []
    for p in primes:
        u_mod = quadfield.fundamental_unit(p).u % p
        expected.append({"p": p, "u_mod_p": u_mod, "holds": u_mod != 0})
    calls = []
    is_prime = modmath.is_prime
    monkeypatch.setattr(modmath, "is_prime", lambda n: calls.append(n) or is_prime(n))
    modmath._check_odd_prime.cache_clear()
    assert list(scan.run("aac", primes)) == expected
    assert calls == []
