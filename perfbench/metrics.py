"""Arithmetic that turns op records and span totals into reported metrics.

Standard library only: run.py imports it without numpy.
"""

import re
import statistics

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Names and units of the end-to-end view. fail_ratio is printed by name but
# is not a BENCHMARK.json metric: it is 0 on a healthy commit, and the result
# line already carries it as failed/attempted.
END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

# Layers and the quantities each reports. "callback.*" are the benchmark's
# own callbacks; every other name is "<module>.<function>" of a spherecov
# function that the traced run wraps.
LIBRARY_LAYERS = {
    "gegenbauer.eval_sequence": ("calls", "points", "self_ms", "table_mb"),
    "gegenbauer.quadrature": ("calls", "self_ms"),
    "schoenberg.kernel_eval": ("calls", "self_ms"),
    "schoenberg.recover_coefficients": ("calls", "self_ms"),
    "schoenberg.certify": ("calls", "self_ms"),
    "spacetime.st_kernel_eval": ("calls", "self_ms"),
    "spacetime.charfn_eval": ("calls", "self_ms"),
    "product_spheres.ps_kernel_eval": ("calls", "self_ms"),
    "product_spheres.separability_test": ("calls", "self_ms"),
    "fields.gram": ("calls", "self_ms", "entries"),
    "fields.sample_factorized": ("self_ms",),
    "fields.sample_spectral_s2": ("self_ms",),
    "fields.real_spherical_harmonics": ("self_ms",),
    "fields.geodesic_cosine": ("calls", "self_ms"),
    "fields.min_eigenvalue": ("calls", "self_ms"),
    "fields.uniform_sphere_points": ("calls", "self_ms"),
    "callback.vector": ("calls", "points", "self_ms"),
    "callback.scalar": ("calls", "points", "self_ms"),
    "kernelspec.read_kernel_file": ("self_ms",),
    "cli.cmd_eval": ("self_ms",),
    "cli.cmd_coeffs": ("self_ms",),
    "cli.cmd_certify": ("self_ms",),
    "cli.cmd_separable": ("self_ms",),
    "cli.cmd_simulate": ("self_ms",),
}

# Spans recorded by the CLI launcher; reported as <name>_ms of self time.
CLI_PROCESS_SPANS = ("cli.python_startup", "cli.import")

QUANTITY_UNITS = {
    "calls": "count",
    "points": "count",
    "entries": "count",
    "self_ms": "ms",
    "table_mb": "MiB_computed",
}


def tail_rank(n: int) -> int:
    """0-based index, in ascending order, of the tail sample: the highest
    order statistic that still has at least 10 samples above it. With 10 or
    fewer samples no such index exists and the maximum is used."""
    if n < 1:
        raise ValueError("need at least one sample")
    return n - 11 if n > 10 else n - 1


def tail(values):
    """(value, percentile, samples beyond it) by the tail rule."""
    ordered = sorted(values)
    k = tail_rank(len(ordered))
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - 1 - k


def robust_cycle_s(latencies_by_position) -> float:
    """Sum over cycle positions of the median latency at that position."""
    return sum(statistics.median(v) for v in latencies_by_position)


def op_metrics(records, cycle_len: int, key: str = "latency_s") -> dict:
    """End-to-end timing metrics from op records of complete cycles.

    `records` are dicts with "pos" (position in the cycle) and a latency in
    seconds under `key`: "latency_s" (scaled to nominal host speed, the
    reported one) or "wall_s" (wall-clock). ops_per_s is cycle_len over the
    robust cycle time, the sum of per-position median latencies, so a slow
    outlier op does not move it.
    """
    by_pos = [[] for _ in range(cycle_len)]
    for r in records:
        by_pos[r["pos"]].append(r[key])
    lat_ms = [1e3 * r[key] for r in records]
    tail_ms, tail_pct, beyond = tail(lat_ms)
    return {
        "ops_per_s": cycle_len / robust_cycle_s(by_pos),
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": tail_ms,
        "op_tail_percentile": tail_pct,
        "op_tail_beyond": beyond,
        "op_samples": len(lat_ms),
    }


def kind_p50_ms(records) -> dict:
    by_kind = {}
    for r in records:
        by_kind.setdefault(r["kind"], []).append(1e3 * r["latency_s"])
    return {k: statistics.median(v) for k, v in by_kind.items()}


def layer_metrics(totals: dict, cycles: int, ops: int) -> dict:
    """Per-layer metric values from span totals.

    calls, points and entries are per complete cycle (exact counts, since
    every cycle runs the same inputs); self_ms is the mean per op over all ops
    of the workload, so the self times of all layers add up to at most the
    mean op latency; table_mb is the largest computed table of any call.
    """
    out = {}
    for layer, quantities in LIBRARY_LAYERS.items():
        t = totals.get(layer, {"calls": 0, "self_ns": 0, "count": 0, "max_nbytes": 0})
        for q in quantities:
            if q == "calls":
                value = t["calls"] / cycles
            elif q in ("points", "entries"):
                value = t["count"] / cycles
            elif q == "self_ms":
                value = t["self_ns"] / 1e6 / ops
            else:
                value = t["max_nbytes"] / 2**20
            out[f"{layer}.{q}"] = value
    for layer in CLI_PROCESS_SPANS:
        t = totals.get(layer, {"self_ns": 0})
        out[f"{layer}_ms"] = t["self_ns"] / 1e6 / ops
    return out


def layer_units() -> dict:
    units = {}
    for layer, quantities in LIBRARY_LAYERS.items():
        for q in quantities:
            units[f"{layer}.{q}"] = QUANTITY_UNITS[q]
    for layer in CLI_PROCESS_SPANS:
        units[f"{layer}_ms"] = "ms"
    units["cli.output_bytes"] = "count"
    units["trace.overhead_ratio"] = "1"
    return units


def fail_ratio(attempted: int, failed: int) -> float:
    return failed / attempted if attempted else 1.0
