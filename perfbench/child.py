"""One child process of a benchmark run: set-up, then measured passes.

Started by run.py in a fresh interpreter.  After set-up it runs the
workload's pass, then repeats it while another pass still fits before
``--until`` (a time on the parent's perf_counter clock).  A workload that
must stay cold (``repeatable = False``) and a traced child run exactly one
pass.  Every pass is checked; the first one also has its report files
checked in full, and each later pass must write byte-identical reports.
An untraced child times a block of the reference kernel after each pass.
Peak resident memory is read after the first pass, before the kernel
first runs.

Prints one JSON object as its last line of output: when set-up finished,
the wall and CPU time of each pass, the CPU time of one kernel run in each
block, peak resident memory, the checks, the hashes of the reports and,
when traced, the per-layer counters.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--until", type=float, default=0.0)
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy
    import scipy

    import qepi  # noqa: F401  (loads every module whose bindings the tracer replaces)
    import reference
    import tracer
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    checks = workloads.Checks()
    trace = tracer.Tracer() if args.trace else None
    if trace:
        trace.install()
    workload.setup(args.seed, args.workdir)
    ready_at = time.perf_counter()

    walls, cpus, refs, rounds = [], [], [], []
    hashes = peak_rss_mb = None
    while True:
        gc.collect()
        cpu0, start = time.process_time(), time.perf_counter()
        try:
            result = workload.run()
        except Exception:
            result = None
            checks.add(f"pass {len(walls)} run", False, traceback.format_exc(limit=4))
        wall_s, cpu_s = time.perf_counter() - start, time.process_time() - cpu0
        if trace:
            trace.uninstall()    # a traced child runs one pass; its checks are not traced
        if result is None:
            break
        walls.append(wall_s)
        cpus.append(cpu_s)
        if peak_rss_mb is None:      # the program's own high-water mark, before the kernel runs
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not trace:
            if not refs:
                reference.kernel()
            refs.append(reference.block())
        try:
            workload.check(result, checks, full=hashes is None)
            digests = {os.path.basename(p): workloads.sha256_of(p)
                       for p in workload.reports()}
        except Exception:
            checks.add(f"pass {len(walls) - 1} check", False, traceback.format_exc(limit=4))
            break
        if hashes is None:
            hashes = digests
        else:
            for name, digest in hashes.items():
                checks.add(f"pass {len(walls) - 1} {name} byte-identical to pass 0",
                           digests.get(name) == digest)
        rounds.append(time.perf_counter() - start)
        if trace or not workload.repeatable:
            break
        if time.perf_counter() + statistics.median(rounds) / 2 > args.until:
            break

    layers = None
    if trace:
        layers = trace.metrics()
        tracer.check_predictions(layers, workload.nonzero, workload.zero, checks)

    if peak_rss_mb is None:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({
        "ready_at": ready_at, "wall_s": walls, "cpu_s": cpus, "ref_s": refs,
        "peak_rss_mb": peak_rss_mb,
        "attempted": checks.attempted, "failures": checks.failures,
        "hashes": hashes or {}, "layers": layers,
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
