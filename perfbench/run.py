"""Benchmark command for agb: one workload per call, one JSON line out.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout with the sources in src/.  Every process this starts is
a worker (worker.py) run one at a time, with numeric libraries held to one
thread and the AGB_BUDGET_* overrides removed from its environment.

--trace 0 runs SETUP_PROBES set-up-only processes, then WORKERS measuring
processes that share the time left; it reports the end-to-end metrics.
--trace 1 runs one worker that alternates untraced and traced batches and
reports the per-layer metrics of the traced ones, plus the traced-minus-
untraced median batch time.

The result, with the Python and numpy versions, nproc and the seed, is also
written to .perfbench_out/ in the checkout, with the spans of a traced run.
"""

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 5
WORKERS = 3
HARD_LIMIT = 170.0  # seconds after start; a worker still running is killed
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

NAMES = ("bounds-table", "ghw-hierarchy", "verify-gf9", "verify-gf4")


class WorkerError(Exception):
    """A worker process crashed or printed no report."""


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("AGB_BUDGET_CODEWORDS", "AGB_BUDGET_SUBSPACES")}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    return env


def _pin_to_last_cpu() -> None:
    # One fixed CPU, away from CPU 0 where interrupts and daemons land:
    # migrations between vCPUs of unequal speed widen the spread.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_worker(env, args, *extra) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload",
           args.workload, "--seed", str(args.seed), *map(str, extra)]
    timeout = max(1.0, args.hard_deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout,
                              preexec_fn=_pin_to_last_cpu)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker timed out after {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise WorkerError(f"worker printed no report: {lines[-1][:200]}") from exc
    agb_file = report.get("agb_file")
    if agb_file and not Path(agb_file).resolve().is_relative_to(ROOT / "src"):
        raise WorkerError(f"agb was imported from {agb_file}, not src/")
    return report


def measure(env, args) -> tuple:
    """End-to-end metrics from untraced workers."""
    deadline = time.monotonic() + args.seconds
    setups = [run_worker(env, args, "--setup-only")["setup_s"]
              for _ in range(SETUP_PROBES)]
    reports = []
    for w in range(WORKERS):
        budget = max(0.0, deadline - time.monotonic()) / (WORKERS - w)
        reports.append(run_worker(env, args, "--budget", budget, "--slot", w,
                                  "--slots", WORKERS))
    setups += [r["setup_s"] for r in reports]
    walls = [sum(b) for r in reports for b in r["batches"]]
    ops = [t for r in reports for b in r["batches"] for t in b]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_ms": (statistics.median(ops) * 1e3, "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reports),
                        "MiB"),
    }
    notes = {"batches": len(walls), "ops_timed": len(ops),
             "setup_samples": len(setups)}
    return reports, metrics, notes


def trace(env, args) -> tuple:
    """Per-layer metrics from one worker alternating traced and plain batches."""
    sys.path.insert(0, str(HERE))
    import tracing
    spans = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    report = run_worker(env, args, "--budget", args.seconds, "--trace", spans)
    layers = dict(report["layers"])
    layers["trace.overhead_s"] = (
        statistics.median(sum(b) for b in report["traced_batches"])
        - statistics.median(sum(b) for b in report["batches"]))
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    metrics = {name: (layers[name], units[name]) for name in units}
    notes = {"batches_traced": len(report["traced_batches"]),
             "batches_untraced": len(report["batches"]),
             "spans": report["spans"],
             "span_file": str(spans.relative_to(ROOT))}
    return [report], metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    args.hard_deadline = time.monotonic() + HARD_LIMIT

    if not (ROOT / "src" / "agb" / "__init__.py").is_file():
        print(f"perfbench: no agb sources in {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # bytecode first, so no setup_s sample includes compiling a fresh checkout
    compileall.compile_dir(ROOT / "src" / "agb", quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    env = worker_env()
    try:
        reports, metrics, notes = (trace if args.trace else measure)(env, args)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    result = {
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": reports[0]["python"], "numpy": reports[0]["numpy"],
            "nproc": os.cpu_count(), **notes}
    errors = [e for r in reports for e in r["errors"]]
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w", encoding="utf-8") as fh:
        json.dump({**info, "result": result, "errors": errors,
                   "workers": reports}, fh, indent=1)
    print(" ".join(f"{k}={v}" for k, v in info.items()))
    for e in errors:
        print(f"error: {e}")
    for metric, (value, unit) in metrics.items():
        print(f"{metric} {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
