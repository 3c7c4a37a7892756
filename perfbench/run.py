"""spherecov benchmark: three workloads, end-to-end metrics and a traced layer view.

Usage (from the repository root):

    python3 perfbench/run.py --workload {fields,certify,cli,all} --seed N \
        --seconds S --trace {0,1}

With --trace 0 it prints the end-to-end metrics (ops_per_s, op_p50_ms,
op_tail_ms, peak_rss_mb, setup_s) by name with units, then fail_ratio, and
as its last line one JSON object {"correct", "attempted", "failed",
"metrics"}. With --trace 1 the metrics are the per-layer view. The package
is not installed: the benchmark puts the absolute `src` directory first on
PYTHONPATH. A full report per run, spans of traced runs included, goes to
.perfbench_out/ in the repository root.

This script uses only the standard library. A workload's cycles are split
over WORKER_PROCESSES fresh worker processes (worker.py), run one after the
other; set-up time is the median over them, each timed from spawn to its
first timed op. Op latencies are scaled to a nominal host speed by a
reference loop timed between the ops (worker.py); the unscaled wall-clock
figures are printed too and stored in the report as `timing_wall`.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("fields", "certify", "cli")
# Worker processes that share a run's cycles; each also gives a set-up sample.
WORKER_PROCESSES = 3
# A run must end within 180 s.
RUN_BUDGET_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def git_commit() -> str:
    """HEAD of the repository, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def l3_cache() -> str | None:
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size", encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return None


def spawn_worker(args, name, env, part, parts, timeout):
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--src", SRC, "--out-dir", OUT_DIR,
        "--part", str(part), "--parts", str(parts), "--spawn-ns", "0",
    ]
    cmd[-1] = str(time.clock_gettime_ns(time.CLOCK_MONOTONIC))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name} worker did not finish within {timeout:.0f} s") from None
    lines = proc.stdout.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{name} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(args, name, env, started) -> dict:
    parts = 1 if args.trace else WORKER_PROCESSES
    results = []
    for part in range(parts):
        remaining = RUN_BUDGET_S - (time.monotonic() - started)
        results.append(spawn_worker(args, name, env, part, parts, max(remaining, 1.0)))
    first = results[0]
    records = [rec for res in results for rec in res["records"]]
    failures = [rec for rec in records if rec["error"]]
    setups = [res["setup_s"] for res in results]
    report = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cycles": first["cycles"],
        "meta": {
            "git_commit": git_commit(),
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads_env": {v: env[v] for v in BLAS_THREAD_VARS},
            "python": platform.python_version(),
            "l3_cache": l3_cache(),
            **first["meta"],
        },
        "setup_samples_s": setups,
        "attempted": len(records),
        "failed": len(failures),
        "fail_ratio": metrics.fail_ratio(len(records), len(failures)),
        "failures": failures[:50],
        "kind_p50_ms": metrics.kind_p50_ms(records),
    }
    if args.trace == 0:
        timing = report["timing"] = metrics.op_metrics(records, first["cycle_len"])
        report["timing_wall"] = metrics.op_metrics(records, first["cycle_len"], "wall_s")
        values = {
            "ops_per_s": timing["ops_per_s"],
            "op_p50_ms": timing["op_p50_ms"],
            "op_tail_ms": timing["op_tail_ms"],
            "peak_rss_mb": max(res["peak_rss_mb"] for res in results),
            "setup_s": statistics.median(setups),
        }
        report["metrics"] = {k: {"value": v, "unit": metrics.END_TO_END[k]} for k, v in values.items()}
    else:
        units = metrics.layer_units()
        units.update({k: "ms" for k in first["layers"] if k.startswith("op.")})
        report["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in first["layers"].items()}
        report["timing_traced"] = first["timing_traced"]
        report["spans"] = first["spans"]
    path = os.path.join(OUT_DIR, f"{name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return report


def print_report(report):
    name = report["workload"]
    print(f"[{name}] seed {report['seed']}, {report['attempted']} ops, trace {report['trace']}")
    items = report["metrics"].items()
    if report["trace"]:
        layer_ms = sorted(((v["value"], k) for k, v in items if k.endswith("self_ms") or k.startswith("cli.")
                           and k.endswith("_ms")), reverse=True)
        print("  top self times per op:")
        for value, key in layer_ms[:8]:
            print(f"    {key:<40} {value:12.4f} ms")
        print(f"  trace.overhead_ratio {report['metrics']['trace.overhead_ratio']['value']:.4f}")
    else:
        for key, m in items:
            extra = ""
            if key == "op_tail_ms":
                t = report["timing"]
                extra = f"  (p{t['op_tail_percentile']:.1f} of {t['op_samples']} samples, {t['op_tail_beyond']} beyond)"
            print(f"  {key:<12} {m['value']:14.4f} {m['unit']}{extra}")
        wall = report["timing_wall"]
        print(f"  wall-clock, unscaled: ops_per_s {wall['ops_per_s']:.4f} 1/s, op_p50_ms {wall['op_p50_ms']:.4f} ms, "
              f"op_tail_ms {wall['op_tail_ms']:.4f} ms")
    print(f"  fail_ratio   {report['fail_ratio']:14.4f} 1  ({report['failed']}/{report['attempted']} failed)")
    for failure in report["failures"][:5]:
        print(f"    failed {failure['kind']} (cycle {failure['cycle']}): {failure['error']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "spherecov", "__init__.py")):
        print(f"perfbench: no spherecov package under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    nproc = str(len(os.sched_getaffinity(0)))
    env.update({v: nproc for v in BLAS_THREAD_VARS})

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    try:
        for name in names:
            report = run_workload(args, name, env, time.monotonic())
            print_report(report)
            reports.append(report)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    if len(reports) == 1:
        values = reports[0]["metrics"]
    else:
        values = {f"{r['workload']}.{k}": v for r in reports for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
