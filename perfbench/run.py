#!/usr/bin/env python3
"""qepi benchmark: end-to-end and per-layer metrics for four workloads.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

A run of a workload starts child processes (child.py) one after another,
each a fresh interpreter with one BLAS thread, until --seconds have passed.
With --trace 0 there are at least SETUPS children; each sets the workload
up once and then repeats its pass while the child's share of the run
lasts.  A workload that must stay cold makes one pass per child instead.
All passes of a run use the same seed, so the reports they write must be
byte-identical.

--trace 0 prints, per workload, median and quartiles of
  wall_s       per pass: wall time from the first call into qepi to the verdict
  cpu_s        per pass: the child's user+sys CPU time over the same span
  cost_ref     per pass: cpu_s over the CPU time of one run of the reference
               kernel (reference.py), timed in a block after each pass; the
               median block of the run is the divisor
  setup_s      per child: interpreter start, imports, inputs, warm-up
  peak_rss_mb  per child: its own high-water resident memory
and error_rate = failed / attempted checks.  The result line carries the
medians of cost_ref, setup_s and peak_rss_mb: on a shared host the speed
of a CPU drifts by tens of percent within minutes, which moves wall_s and
cpu_s but moves the kernel too, so cost_ref keeps a pass's cost steady.
--trace 1 alternates untraced and traced one-pass children and reports the
per-layer counters of the traced ones, a ranked self-time table, and the
tracing overhead (traced minus untraced wall_s).

The last line of output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from tracer import LAYER_FUNCTIONS, unit_of

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("gaussian-verify", "gap-figures", "fock-oracle-cold", "fock-probes-warm")
BLAS_THREADS = 1
SETUPS = 3                # children, so set-ups, per --trace 0 run at least
MIN_TRACED = 2            # untraced and traced children each per --trace 1 run
CHILD_LIMIT_S = 150.0     # start no child expected to end after this
RUN_LIMIT_S = 175.0       # kill a child still running at this point; a run has 180 s
# printed per workload
PRINTED = {"wall_s": "s", "cpu_s": "s", "cost_ref": "ref", "setup_s": "s",
           "peak_rss_mb": "MiB"}
# the end-to-end metrics of the result line (BENCHMARK.json); wall_s and
# cpu_s move with the speed of a shared host, cost_ref much less
END_TO_END = ("cost_ref", "setup_s", "peak_rss_mb")
# per-layer counters in the result line; every per-function time is printed,
# but a function a workload never calls reads exactly 0 s there on every run
PER_LAYER = tuple(f"{name}.calls" for name in LAYER_FUNCTIONS) + (
    "symplectic.g.calls_per_g_inv", "fisher.fisher_total_gaussian.raised",
    "fock.two_mode_mix.cold_calls", "fock.two_mode_mix.warm_calls", "fock.raised",
    "process.cpu_s", "trace.wall_s", "trace.overhead_s")


def git_sha() -> str | None:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def run_child(workload: str, seed: int, traced: bool, until: float, workdir: str,
              env: dict, deadline: float) -> dict:
    os.makedirs(workdir)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--until", repr(until),
           "--workdir", workdir]
    spawned_at = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"{workload} child timed out"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"{workload} child exited with code {proc.returncode}"}
    child = json.loads(lines[-1])
    child["setup_s"] = child["ready_at"] - spawned_at
    child["traced"] = traced
    return child


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 workroot: str, env: dict) -> dict:
    """Run children until the run's time is up; returns the run's summary."""
    started = time.perf_counter()
    children = []
    while True:
        n = len(children)
        traced = trace and n % 2 == 1
        # untraced: child n may repeat its pass until its share of the run is over
        until = 0.0 if trace else started + seconds * min(n + 1, SETUPS) / SETUPS
        children.append(run_child(workload, seed, traced, until,
                                  os.path.join(workroot, f"{workload}-{n}"),
                                  env, started + RUN_LIMIT_S))
        elapsed = time.perf_counter() - started
        per_child = elapsed / len(children)
        if trace:
            done = len(children) >= 2 * MIN_TRACED and len(children) % 2 == 0 \
                and elapsed + per_child > seconds
        else:
            done = len(children) >= SETUPS and elapsed + per_child / 2 > seconds
        if done or elapsed + per_child > CHILD_LIMIT_S:
            break

    attempted, failures = 0, []
    reference_hashes = None
    for i, child in enumerate(children):
        if "error" in child:
            attempted += 1
            failures.append(child["error"])
            continue
        attempted += child["attempted"]
        failures += child["failures"]
        if reference_hashes is None:
            reference_hashes = child["hashes"]
            continue
        for name, digest in reference_hashes.items():
            attempted += 1
            if child["hashes"].get(name) != digest:
                failures.append(f"child {i}: {name} differs from child 0")
    ok = [c for c in children if c.get("wall_s")]     # ran at least one pass
    return {"workload": workload, "seed": seed, "attempted": attempted,
            "failures": failures,
            "untraced": [c for c in ok if not c["traced"]],
            "traced": [c for c in ok if c["traced"]]}


def end_to_end(summary: dict) -> dict:
    """(median, q1, q3, samples) per printed metric, over passes or children."""
    untraced = summary["untraced"]
    if not untraced:
        return {}
    samples = {m: [v for c in untraced for v in c[m]] for m in ("wall_s", "cpu_s", "ref_s")}
    # a pass's cost: its CPU time over that of one kernel run, pooled over the run
    kernel_s = statistics.median(samples.pop("ref_s"))
    samples["cost_ref"] = [cpu / kernel_s for cpu in samples["cpu_s"]]
    samples.update({m: [c[m] for c in untraced] for m in ("setup_s", "peak_rss_mb")})
    return {m: (*quartiles(samples[m]), len(samples[m])) for m in PRINTED}


def per_layer(summary: dict) -> dict:
    traced, untraced = summary["traced"], summary["untraced"]
    if not traced or not untraced:
        return {}
    layers = {key: statistics.median(c["layers"][key] for c in traced)
              for key in traced[0]["layers"]}
    layers["process.cpu_s"] = statistics.median(c["cpu_s"][0] for c in untraced)
    layers["trace.wall_s"] = statistics.median(c["wall_s"][0] for c in traced)
    layers["trace.overhead_s"] = (layers["trace.wall_s"]
                                  - statistics.median(c["wall_s"][0] for c in untraced))
    return layers


def print_summary(summary: dict, trace: bool) -> None:
    failed = len(summary["failures"])
    name = summary["workload"]
    n = len(summary["untraced"])
    traced = f", {len(summary['traced'])} traced" if trace else ""
    print(f"== {name}  seed={summary['seed']}  children: {n} untraced{traced}")
    for metric, (med, q1, q3, count) in end_to_end(summary).items():
        print(f"  {metric:<12} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
              f"n={count}  ({PRINTED[metric]})")
    rate = failed / summary["attempted"] if summary["attempted"] else 1.0
    print(f"  {'error_rate':<12} {rate:.4g}  ({failed} failed / "
          f"{summary['attempted']} attempted checks)")
    for failure in summary["failures"][:20]:
        print(f"    FAILED {failure}")
    if trace:
        print_layers(per_layer(summary))


def print_layers(layers: dict) -> None:
    if not layers:
        print("  no traced child completed")
        return
    print(f"  {'function':<36} {'calls':>9} {'total_s':>10} {'self_s':>10}")
    for name in LAYER_FUNCTIONS:
        print(f"  {name:<36} {layers[name + '.calls']:>9.0f} "
              f"{layers[name + '.total_s']:>10.4f} {layers[name + '.self_s']:>10.4f}")
    for key, value in layers.items():
        if not key.endswith((".calls", ".total_s", ".self_s")):
            print(f"  {key:<44} {value:.6g} {unit_of(key)}")
    untraced_wall = layers["trace.wall_s"] - layers["trace.overhead_s"]
    print(f"  process.cpu_s / untraced wall_s = {layers['process.cpu_s'] / untraced_wall:.3f}")
    window = layers["trace.window_s"]
    ranked = sorted(((layers[f + ".self_s"], f) for f in LAYER_FUNCTIONS), reverse=True)
    rest = layers["trace.outside_s"]
    print(f"  where the time goes (self time, traced set-up + measured calls "
          f"= {window:.3f} s):")
    for self_s, name in ranked:
        if self_s > 0:
            print(f"    {name:<36} {self_s:10.4f} s  {100 * self_s / window:5.1f} %")
    print(f"    {'(outside traced functions)':<36} {rest:10.4f} s  {100 * rest / window:5.1f} %")


def result_line(summaries: list[dict], trace: bool) -> dict:
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(len(s["failures"]) for s in summaries)
    metrics = {}
    for s in summaries:
        prefix = "" if len(summaries) == 1 else s["workload"] + "."
        if trace:
            layers = per_layer(s)
            for key in PER_LAYER:
                if key in layers:
                    metrics[prefix + key] = {"value": layers[key], "unit": unit_of(key)}
        else:
            for metric, (med, *_) in end_to_end(s).items():
                if metric in END_TO_END:
                    metrics[prefix + metric] = {"value": med, "unit": PRINTED[metric]}
    return {"correct": failed == 0 and attempted > 0, "attempted": max(attempted, 1),
            "failed": failed if attempted else 1, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "qepi", "__init__.py")):
        print(f"error: no qepi sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    env = dict(os.environ, OMP_NUM_THREADS=str(BLAS_THREADS),
               OPENBLAS_NUM_THREADS=str(BLAS_THREADS), MKL_NUM_THREADS=str(BLAS_THREADS))
    workroot = os.path.join(ROOT, ".perfbench-work", f"run-{os.getpid()}")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    try:
        for name in names:
            summaries.append(run_workload(name, args.seed, args.seconds, bool(args.trace),
                                          workroot, env))
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workroot))
        except OSError:
            pass

    versions = next((c["versions"] for s in summaries for c in s["untraced"]), {})
    print(json.dumps({"seed": args.seed, "blas_threads": BLAS_THREADS,
                      "nproc": len(os.sched_getaffinity(0)), **versions,
                      "git_sha": git_sha(), "seconds": args.seconds,
                      "trace": args.trace}))
    for summary in summaries:
        print_summary(summary, bool(args.trace))
    print(json.dumps(result_line(summaries, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
