"""Span tracer that wraps public aactk functions from outside the library.

Each wrapped function records spans (id, name, start, end, parent, item,
error) in memory, and per-name totals: calls, errors and self time (the
span's duration minus the time its child spans cover).  Times are the
thread's CPU time, as in the rest of the benchmark.  Spans are kept
for at most `keep_per_name` calls of each name, so a hot function such as
`gaac.squarefree` cannot fill memory; the totals count every call.

Per-element helpers (`modmath.kronecker`, `legendre`, `mod_inverse`) are
never wrapped: their work shows through the computed counts below, so the
wrapper cost does not distort the self times of their callers.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict


def _nonzero(coeffs) -> int:
    return sum(1 for c in coeffs if c)


def _count_forms(counts, args, result):
    counts["quadfield.forms_enumerated"] += len(result)


def _count_cf(counts, args, result):
    counts["quadfield.cf_period_terms"] += len(result.period)


def _count_lsum(counts, args, result):
    counts["quadfield.lsum_terms"] += args[0] - 1


def _count_cyc_mul(counts, args, result):
    x, y = args
    counts["cyclotomic.cyc_mul.coeff_products"] += _nonzero(x.coeffs) * _nonzero(y.coeffs)
    bits = max(abs(c).bit_length() for c in result.coeffs)
    key = "cyclotomic.cyc_mul.max_coeff_bits"
    counts[key] = max(counts[key], bits)


def _count_loaded(counts, args, result):
    counts["cli.records_read"] += len(result)


# (module, function, count hook): the layer boundaries the traced run wraps.
LAYERS = (
    ("quadfield", "cf_sqrt", _count_cf),
    ("quadfield", "pell_min_solution", None),
    ("quadfield", "fundamental_unit", None),
    ("quadfield", "class_number_dirichlet", _count_lsum),
    ("quadfield", "reduced_forms", _count_forms),
    ("quadfield", "form_class_number", None),
    ("gaac", "gaac_check", None),
    ("gaac", "squarefree", None),
    ("modmath", "inverse_table", None),
    ("modmath", "residue_sets", None),
    ("modmath", "fermat_quotient_mod", None),
    ("modmath", "primes_in", None),
    ("congruences", "verify_aac", None),
    ("congruences", "verify_thm21", None),
    ("congruences", "verify_thm51", None),
    ("congruences", "verify_cor53", None),
    ("congruences", "verify_thm54", None),
    ("congruences", "verify_eisenstein", None),
    ("congruences", "verify_gen_eisenstein", None),
    ("congruences", "verify_thm56", None),
    ("congruences", "verify_aac1952", None),
    ("cyclotomic", "cyc_mul", _count_cyc_mul),
    ("cyclotomic", "unit_identity_check", None),
    ("padiclog", "padic_log_1plus", None),
    ("padiclog", "theorem4_check", None),
    ("cli", "main", None),
    ("cli", "load_checkpoint", _count_loaded),
)

# Counts computed from arguments and results, plus those the workloads
# measure from the checkpoint files themselves.
COUNTS = (
    "quadfield.forms_enumerated",
    "quadfield.cf_period_terms",
    "quadfield.lsum_terms",
    "cyclotomic.cyc_mul.coeff_products",
    "cyclotomic.cyc_mul.max_coeff_bits",
    "cli.records_written",
    "cli.records_read",
    "cli.checkpoint_bytes",
)

# lru_cache'd functions whose public cache_info() gives a hit ratio.
CACHES = (
    ("quadfield", "class_number"),
    ("congruences", "unit_class_data"),
    ("modmath", "inverse_table"),
)


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports."""
    names = []
    for module, func, _ in LAYERS:
        names += [f"{module}.{func}.{field}" for field in ("self_s", "calls", "errors")]
    names += COUNTS
    names += [f"{module}.{func}.hit_ratio" for module, func in CACHES]
    names.append("trace.overhead_ratio")
    return names


class Tracer:
    """Wraps the LAYERS functions of the given modules; unwrap() restores them."""

    def __init__(self, modules: dict, keep_per_name: int = 2000):
        self.item = None
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._keep = keep_per_name
        self._kept: Counter = Counter()
        self._stack: list[list] = []
        self._next_id = 0
        self._patched = []
        for module, func, hook in LAYERS:
            self._wrap(modules[module], f"{module}.{func}", func, hook)

    def _wrap(self, module, name: str, attr: str, hook) -> None:
        fn = getattr(module, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, 0.0]
            parent = tracer._stack[-1][0] if tracer._stack else None
            tracer._stack.append(frame)
            error = None
            start = time.thread_time()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.thread_time()
                tracer._stack.pop()
                tracer._close(name, span_id, parent, start, end, frame[1], error)
            if hook is not None:
                hook(tracer.counts, args, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))

    def _close(self, name, span_id, parent, start, end, child_s, error) -> None:
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        self.calls[name] += 1
        self.self_s[name] += duration - child_s
        if error is not None:
            self.errors[name] += 1
        if self._kept[name] < self._keep:
            self._kept[name] += 1
            self.spans.append((span_id, name, start, end, parent, self.item, error))

    def unwrap(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def layer_metrics(self, scale: float = 1.0) -> dict:
        """Totals per wrapped function; self times are multiplied by scale."""
        out = {}
        for module, func, _ in LAYERS:
            name = f"{module}.{func}"
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0) * scale
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.errors"] = self.errors.get(name, 0)
        return out

    def dump(self, path: str) -> None:
        keys = ("id", "name", "start", "end", "parent", "item", "error")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
