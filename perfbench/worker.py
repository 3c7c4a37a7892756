"""One workload process: set up, run its share of the cycles, report.

Started by run.py, never by hand. A run of --seconds is a fixed number of
whole cycles of the workload's ops: --seconds divided by the workload's
nominal cycle time (measured at the commit that introduced the benchmark),
but at least the workload's MIN_CYCLES. A fixed amount of work, rather than
a deadline, keeps the sample count, and so the rank that the tail rule picks
in a mixture of op kinds of very different latency, the same on every run;
it also makes the per-cycle work counts exact.

run.py splits the cycles over --parts fresh worker processes, so that one
process's memory layout and CPU placement do not set the whole run's speed;
each process also gives one set-up time sample. The worker prints one JSON
object as its last stdout line with its set-up time and op records. With
--trace 1 a single worker runs half the cycles untraced and half traced,
reports the per-layer metrics and writes the spans to the output directory.
"""

import argparse
import glob
import json
import os
import shutil
import sys
import tempfile

import numpy as np

import metrics
import workloads
from spans import Tracer, layer_totals, now_ns

ALL_KINDS = workloads.FieldsWorkload.kinds + workloads.CertifyWorkload.kinds + workloads.CliWorkload.kinds


def time_reference(wl) -> int:
    start = now_ns()
    wl.REFERENCE()
    return now_ns() - start


def scale_latencies(records, refs_ns, nominal_s):
    """Turn each record's wall-clock `wall_s` into `latency_s` at nominal host
    speed. refs_ns[i] is the reference loop timed just before op i and
    refs_ns[i + 1] the one just after it; the op's reference time is their mean."""
    for i, rec in enumerate(records):
        local_s = (refs_ns[i] + refs_ns[i + 1]) / 2e9
        rec["ref_s"] = local_s
        rec["latency_s"] = rec["wall_s"] * nominal_s / local_s


def run_loop(wl, cycles, tracer=None):
    """Run the given whole cycles of the workload's ops; return the op records,
    with latencies scaled by the reference loop timed between the ops."""
    records = []
    refs_ns = [time_reference(wl)]
    for cycle in cycles:
        for pos, op in enumerate(wl.ops):
            root = tracer.begin_op(len(records), op.kind) if tracer is not None else None
            if tracer is not None:
                tracer.active = True
            start = now_ns()
            try:
                out, error = op.run(cycle), None
            except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
                out, error = None, f"{type(exc).__name__}: {exc}"
            end = now_ns()
            if tracer is not None:
                tracer.active = False
                tracer.end_op(root)
            if error is None:
                try:
                    error = op.check(out, cycle)
                except Exception as exc:  # noqa: BLE001
                    error = f"check raised {type(exc).__name__}: {exc}"
            records.append({"cycle": cycle, "pos": pos, "kind": op.kind, "wall_s": (end - start) / 1e9, "error": error})
            refs_ns.append(time_reference(wl))
    scale_latencies(records, refs_ns, wl.REFERENCE_NOMINAL_S)
    return records


def blas_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            import ctypes

            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawn-ns", type=int, required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--parts", type=int, default=1)
    args = parser.parse_args()

    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.out_dir)
    try:
        wl = workloads.make(args.workload, args.seed, workdir, args.src)
        wl.setup()
        setup_s = (now_ns() - args.spawn_ns) / 1e9

        import scipy

        for _ in range(5):
            time_reference(wl)
        total = max(wl.MIN_CYCLES, round(args.seconds / wl.NOMINAL_CYCLE_S))
        cycles = range(args.part * total // args.parts, (args.part + 1) * total // args.parts)
        result = {"setup_s": setup_s, "cycle_len": len(wl.ops), "cycles": total}
        if args.part == 0:
            result["meta"] = {"numpy": np.__version__, "scipy": scipy.__version__, "blas": blas_info(), **wl.meta()}
        if args.trace == 0:
            result["records"] = run_loop(wl, cycles)
            result["peak_rss_mb"] = wl.peak_rss_mb()
        else:
            half = len(cycles) // 2
            untraced = run_loop(wl, cycles[:half])
            tracer = Tracer()
            tracer.install()
            wl.use_tracer(tracer)
            traced = run_loop(wl, cycles[half:], tracer)
            tracer.uninstall()
            n_traced = len(cycles) - half
            layers = metrics.layer_metrics(layer_totals(tracer), n_traced, len(traced))
            layers.update(wl.layer_extras(n_traced))
            layers.setdefault("cli.output_bytes", 0.0)
            p50 = metrics.kind_p50_ms(untraced)
            for kind in ALL_KINDS:
                layers[f"op.{kind}.p50_ms"] = p50.get(kind, 0.0)
            timing_u = metrics.op_metrics(untraced, len(wl.ops))
            timing_t = metrics.op_metrics(traced, len(wl.ops))
            layers["trace.overhead_ratio"] = timing_t["ops_per_s"] / timing_u["ops_per_s"]
            result["records"] = untraced + traced
            result["timing_traced"] = timing_t
            result["layers"] = layers
            result["spans"] = len(tracer.names)
            spans_file = os.path.join(args.out_dir, f"spans-{args.workload}-seed{args.seed}.npz")
            np.savez_compressed(spans_file, **tracer.arrays())
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
