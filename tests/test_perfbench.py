"""The benchmark's traced predictions, checked in the test suite.

Each perfbench workload states which traced layer functions its pass must
call and which it must never call, and checks its own results in full.
Here each workload runs one pass under perfbench's Tracer, installed before
set-up as a benchmark child installs it, so that a change that breaks a
prediction fails here before the benchmark runs.  perfbench/ is only read.
"""

import importlib.util
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_pass_meets_the_workload_predictions(name, tmp_path):
    workload = workloads.WORKLOADS[name]()
    checks = workloads.Checks()
    trace = tracer.Tracer()
    trace.install()
    try:
        workload.setup(1, str(tmp_path))
        result = workload.run()
    finally:
        trace.uninstall()
    workload.check(result, checks, full=True)
    tracer.check_predictions(trace.metrics(), workload.nonzero, workload.zero, checks)
    assert checks.failures == []
    assert checks.attempted > len(workload.nonzero) + len(workload.zero)
