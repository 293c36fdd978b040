"""Metric names, units and directions, and their values from raw measurements.

End-to-end metrics come from untraced runs; per-layer metrics from a
traced run (see spans.py). BENCHMARK.json lists the same names; the
self-test in run.py checks that the two agree.
"""

from __future__ import annotations

import numpy as np

from spans import IMPORT_KEY, TRACED, function_keys

#: (name, unit, better) of every end-to-end metric.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("cpu_ms_per_op", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Per-layer metrics derived from more than one function's spans.
DERIVED = (
    ("numerics.hermitian_eig.calls_per_sample", "count", "lower"),
    ("cycle.validations_per_sample", "count", "lower"),
    ("mub.vectors_built_per_used", "count", "higher"),
    ("bounds.grid.points_per_s", "1/s", "higher"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.stdout_bytes", "count", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.unattributed_ms", "ms", "lower"),
)

#: Counts that repeat exactly across runs of one seed.
EXACT_COUNTS = tuple(f"{key}.calls" for key in function_keys()) + (
    "numerics.hermitian_eig.calls_per_sample",
    "cycle.validations_per_sample",
    "mub.vectors_built_per_used",
    "cli.stdout_bytes",
)


def per_layer():
    """(name, unit, better) of every per-layer metric."""
    specs = []
    for key in function_keys():
        specs += [(f"{key}.calls", "count", "lower"), (f"{key}.self_ms", "ms", "lower")]
    specs += [(f"{layer}.self_ms", "ms", "lower") for layer in TRACED]
    return tuple(specs) + DERIVED


def quantile(values, p, grid=64):
    """Harrell-Davis estimate of the ``p`` quantile of ``values``.

    A mean of all order statistics, weighted by how much of the
    Beta((n+1)p, (n+1)(1-p)) distribution lies in each of the n equal
    intervals of [0, 1] (midpoint rule, ``grid`` points per interval).
    Where the latencies form one cluster per kind of operation (``certify``
    visits 18 dimensions), a plain percentile falls on the edge between
    two clusters and reads one extreme sample of each; this estimate
    averages the order statistics around it.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    t = (np.arange(n * grid) + 0.5) / (n * grid)
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    weights = np.exp(log_pdf - log_pdf.max()).reshape(n, grid).sum(axis=1)
    return float(weights @ x / weights.sum())


def end_to_end(latencies_s, cpu_s, peak_rss_kb):
    n = len(latencies_s)
    return {
        "ops_per_s": n / sum(latencies_s),
        "latency_p50_ms": 1e3 * quantile(latencies_s, 0.5),
        "latency_p90_ms": 1e3 * quantile(latencies_s, 0.9),
        "cpu_ms_per_op": 1e3 * sum(cpu_s) / n,
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


def _ratio(a, b):
    return a / b if b else 0.0


def layers(totals, first, first_ops, first_stdout_bytes, traced_s, untraced_s):
    """Per-layer values per traced operation.

    ``totals`` sums the span summaries of every traced operation and gives
    the times; ``first`` sums those of the first traced rotation only
    (``first_ops`` operations) and gives the counts, so that the counts do
    not depend on how many rotations fit in the run.
    """
    n = len(traced_s)
    values = {}
    for key in function_keys():
        values[f"{key}.calls"] = first["calls"].get(key, 0) / first_ops
        values[f"{key}.self_ms"] = 1e3 * totals["self_s"].get(key, 0.0) / n
    for layer, names in TRACED.items():
        values[f"{layer}.self_ms"] = 1e3 * sum(
            totals["self_s"].get(f"{layer}.{name}", 0.0) for name in names) / n
    counts = first["counts"]
    grid_s = totals["incl_s"].get("bounds.zeta_gridsearch", 0.0)
    values.update({
        "numerics.hermitian_eig.calls_per_sample": _ratio(counts["eig_in_scan"], counts["samples"]),
        "cycle.validations_per_sample": _ratio(counts["validations_in_scan"], counts["samples"]),
        "mub.vectors_built_per_used": _ratio(counts["pair_vectors_used"], counts["pair_vectors_built"]),
        "bounds.grid.points_per_s": _ratio(totals["counts"]["grid_points"], grid_s),
        "cli.import_ms": 1e3 * totals["self_s"].get(IMPORT_KEY, 0.0) / n,
        "cli.stdout_bytes": first_stdout_bytes / first_ops,
        "trace.overhead_frac": (sum(traced_s) / n) / (sum(untraced_s) / len(untraced_s)) - 1.0,
        "trace.unattributed_ms": 1e3 * (sum(traced_s) - sum(totals["self_s"].values())) / n,
    })
    return values
