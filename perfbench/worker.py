"""One benchmark process: set up a workload, run whole batches, report JSON.

Usage (normally started by run.py, with PYTHONPATH=src):

    python3 perfbench/worker.py --workload NAME --seed N --budget SECONDS
        [--slot W --slots P] [--trace FILE] [--setup-only]

Set-up is timed from before agb is imported until the workload's inputs
exist.  Then batches run until the next one would overrun the budget (at
least one always runs; with --trace, at least one untraced and one traced,
alternating).  Before each operation every lru cache in agb is
emptied and garbage is collected, so each operation starts as in a fresh
`agb` process.  The last stdout line is the JSON report.
"""

import argparse
import json
import sys
import time


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, default=0.0)
    ap.add_argument("--slot", type=int, default=0)
    ap.add_argument("--slots", type=int, default=1)
    ap.add_argument("--trace", default=None, help="write spans to this file")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import workloads
    wl = workloads.make(args.workload, args.seed, args.slot, args.slots)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import gc
    import os
    import resource
    import agb
    import numpy as np
    import refcheck
    import tracing

    env_leak = [k for k in ("AGB_BUDGET_CODEWORDS", "AGB_BUDGET_SUBSPACES")
                if k in os.environ]
    if env_leak:
        print(f"worker: {env_leak} must not be set", file=sys.stderr)
        return 2
    caches = [fn for mod in sys.modules.values()
              if getattr(mod, "__name__", "").startswith("agb.")
              for fn in vars(mod).values() if hasattr(fn, "cache_clear")]
    wl.prepare()
    tracer = tracing.Tracer() if args.trace else None

    batches, errors = [], []
    attempted = failed = 0
    correct = True
    clock = time.perf_counter
    begin = clock()
    while True:
        # a traced run alternates untraced and traced batches, so both see
        # the same machine and their difference is the tracing overhead
        tracing_now = tracer is not None and len(batches) % 2 == 1
        if tracing_now:
            tracer.install()
        walls = []
        for op in wl.batch(len(batches)):
            for fn in caches:
                fn.cache_clear()
            gc.collect()
            attempted += 1
            t = clock()
            try:
                out = op.run()
                dt = clock() - t
                op.check(out)
            except refcheck.CheckFailed as exc:
                correct = False
                errors.append(f"{op.label}: wrong output: {exc}")
            except (Exception, SystemExit) as exc:
                failed += 1
                errors.append(f"{op.label}: failed: {type(exc).__name__}: {exc}")
                continue
            walls.append(dt)
        if tracing_now:
            tracer.uninstall()
        batches.append(walls)
        elapsed = clock() - begin
        if tracer is not None and len(batches) < 2:
            continue
        if elapsed * (len(batches) + 1) / len(batches) > args.budget:
            break
    report = {
        "setup_s": setup_s,
        "batches": batches[::2] if tracer is not None else batches,
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "errors": errors[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "agb_file": agb.__file__,
    }
    if tracer is not None:
        report["traced_batches"] = batches[1::2]
        report["layers"] = tracer.metrics(len(batches[1::2]))
        report["spans"] = len(tracer.name_id)
        tracer.write(args.trace)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
