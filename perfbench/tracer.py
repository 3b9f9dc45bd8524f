"""Per-layer tracing from outside the library.

The tracer replaces every binding of each listed qepi function, in every
loaded qepi module, with a timing wrapper.  Replacing only the defining
module would miss calls through names imported elsewhere: ``g_inv``, ``g``
and ``fisher_total_gaussian`` are imported by name into ``inequalities``,
``cli`` and ``fisher``.  A span's self time is its duration minus the time
covered by the traced spans it opened.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from collections import Counter
from time import perf_counter

LAYER_FUNCTIONS = (
    "symplectic.g_inv", "symplectic.g", "symplectic.entropy",
    "symplectic.symplectic_eigenvalues", "symplectic.random_gaussian_state",
    "channels.mix", "channels.add_noise",
    "fisher.fisher_total_gaussian", "fisher.fisher_total_fock", "fisher.debruijn_check",
    "inequalities.random_qepi_suite", "inequalities.delta_surface",
    "inequalities.delta_surface_max", "inequalities.moe_delta",
    "broadcast.capacity_region", "broadcast.write_region_csv",
    "cli.main",
    "fock.two_mode_mix", "fock.vn_entropy", "fock.relative_entropy",
    "fock.displace_fock", "fock.liouville_evolve",
)
FOCK_ERRORS = ("CutoffError", "AccuracyError", "NumericError")


def unit_of(metric: str) -> str:
    if metric.endswith("_us"):
        return "us"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("calls_per_g_inv"):
        return "ratio"
    return "count"


class _Stat:
    __slots__ = ("calls", "total", "self_time", "raised", "durations")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.raised = Counter()
        self.durations = []


class Tracer:
    """Times the listed qepi functions while installed."""

    def __init__(self):
        self.stats = {name: _Stat() for name in LAYER_FUNCTIONS}
        self.mix = {"cold": [0, 0.0], "warm": [0, 0.0]}
        self._seen_mixes = set()
        self._open = []        # child time accumulated by each open span
        self._patches = []
        self.window_s = 0.0

    def install(self) -> None:
        wrappers = {}
        for name in LAYER_FUNCTIONS:
            module_name, fn_name = name.rsplit(".", 1)
            module = importlib.import_module(f"qepi.{module_name}")
            original = getattr(module, fn_name)
            wrappers[id(original)] = (original, self._wrap(name, original))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "qepi" and not mod_name.startswith("qepi."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])
        self._started = perf_counter()

    def uninstall(self) -> None:
        self.window_s = perf_counter() - self._started
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def _mix_kind(self, args, kwargs) -> str:
        """Cold on the first (kind, lambda_A, dim) this process mixes."""
        rho_a = args[0] if args else kwargs["rho_a"]
        p = args[2] if len(args) > 2 else kwargs["p"]
        key = (p.kind, p.lambda_A, rho_a.dim)
        if key in self._seen_mixes:
            return "warm"
        self._seen_mixes.add(key)
        return "cold"

    def _wrap(self, name, fn):
        stat = self.stats[name]
        open_spans = self._open
        keep_durations = name == "symplectic.g_inv"
        classify = self._mix_kind if name == "fock.two_mode_mix" else None
        mix = self.mix

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            kind = classify(args, kwargs) if classify else None
            open_spans.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                stat.raised[type(exc).__name__] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - children
                if keep_durations:
                    stat.durations.append(elapsed)
                if kind:
                    mix[kind][0] += 1
                    mix[kind][1] += elapsed
        return traced

    def metrics(self) -> dict:
        out = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            out[f"{name}.total_s"] = st.total
            out[f"{name}.self_s"] = st.self_time
        g, g_inv = self.stats["symplectic.g"], self.stats["symplectic.g_inv"]
        out["symplectic.g.calls_per_g_inv"] = g.calls / g_inv.calls if g_inv.calls else 0.0
        p50 = p99 = 0.0
        if len(g_inv.durations) >= 2:
            cuts = statistics.quantiles(g_inv.durations, n=100, method="inclusive")
            p50, p99 = cuts[49], cuts[98]
        out["symplectic.g_inv.p50_us"] = p50 * 1e6
        out["symplectic.g_inv.p99_us"] = p99 * 1e6
        out["fisher.fisher_total_gaussian.raised"] = \
            self.stats["fisher.fisher_total_gaussian"].raised["DivergenceError"]
        for kind, (calls, seconds) in self.mix.items():
            out[f"fock.two_mode_mix.{kind}_calls"] = calls
            out[f"fock.two_mode_mix.{kind}_s"] = seconds
        out["fock.raised"] = sum(st.raised[err] for name, st in self.stats.items()
                                 if name.startswith("fock.") for err in FOCK_ERRORS)
        out["trace.window_s"] = self.window_s
        out["trace.outside_s"] = self.window_s - sum(st.self_time for st in self.stats.values())
        return out


def check_predictions(metrics: dict, nonzero, zero, checks) -> None:
    """The layer/workload map: each named counter must be > 0, or exactly 0."""
    for key in nonzero:
        checks.add(f"trace {key} > 0", metrics.get(key, 0) > 0, f"{metrics.get(key)}")
    for key in zero:
        checks.add(f"trace {key} == 0", metrics.get(key, 0) == 0, f"{metrics.get(key)}")
