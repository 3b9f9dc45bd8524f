"""The four benchmark workloads.

Each workload builds its inputs from a seed (``setup``), makes the timed
calls into qepi through its public entry points (``run``), and checks what
those calls produced against references computed here from closed forms
(``check``).  Numeric results are compared within a tolerance, never byte
for byte, so a rewrite that only changes roundoff still passes.

Each workload also states which traced layer functions it must call and
which it must never call; the tracer checks those predictions.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re

import numpy as np

import qepi.cli as cli
from qepi import fisher, fock, inequalities, symplectic
from qepi.channels import BEAM_SPLITTER, MixingParams

LN2 = math.log(2.0)

# criterion-3 channel sweep
BS_LAMBDAS = (0.1, 0.3, 0.5, 0.7, 0.9)
AMP_KAPPAS = (1.1, 1.5, 2.0, 4.0)
VERIFY_TRIALS = 60
# cutoff 20 is refused (thermal(1) tail 9.5e-7); cutoff 60 takes ~44 s per run
ORACLE_CUTOFFS = (30, 40)
PROBE_CUTOFF = 30
PROBE_LAMBDAS = (0.3, 0.5, 0.7)
PROBE_PAIRS = 4

SYMPLECTIC_STATE = ("symplectic.entropy", "symplectic.symplectic_eigenvalues",
                    "symplectic.random_gaussian_state", "channels.mix",
                    "channels.add_noise")
FIGURE_LAYERS = ("inequalities.delta_surface", "inequalities.delta_surface_max",
                 "inequalities.moe_delta", "broadcast.capacity_region",
                 "broadcast.write_region_csv")
FOCK_LAYERS = ("fock.two_mode_mix", "fock.vn_entropy", "fock.relative_entropy",
               "fock.displace_fock", "fock.liouville_evolve")
FOCK_FISHER = ("fisher.fisher_total_fock", "fisher.debruijn_check")
GAUSSIAN_SUITE = ("fisher.fisher_total_gaussian", "inequalities.random_qepi_suite")


def _calls(names) -> tuple:
    return tuple(f"{name}.calls" for name in names)


def g_ref(n: float) -> float:
    """Thermal entropy g(N) = (N+1) ln(N+1) - N ln N, written out here."""
    return 0.0 if n == 0.0 else math.log1p(n) + n * math.log1p(1.0 / n)


def single_mode_entropy(gamma: np.ndarray) -> float:
    """Entropy of a one-mode Gaussian state: g((sqrt(det gamma) - 1) / 2)."""
    nu = math.sqrt(max(float(np.linalg.det(gamma)), 1.0))
    return g_ref((nu - 1.0) / 2.0)


def close(got: float, want: float, tol: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= tol * max(1.0, abs(want))


def cli_call(argv: list[str]) -> tuple[int, str]:
    """Run the command line in-process; returns (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def sha256_of(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_csv(path: str) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class Checks:
    """Named pass/fail checks; every check counts towards ``attempted``."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)


class Workload:
    name = ""
    repeatable = True       # False: every pass needs a fresh process
    nonzero: tuple = ()     # trace counters that must be > 0
    zero: tuple = ()        # trace counters that must be exactly 0

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def run(self):
        raise NotImplementedError

    def check(self, result, checks: Checks, full: bool) -> None:
        """Check one pass; ``full`` also checks its report files in detail."""
        raise NotImplementedError

    def reports(self) -> list[str]:
        """Report and CSV files whose bodies must be byte-reproducible."""
        return []


class GaussianVerify(Workload):
    """`qepi verify` over the criterion-3 sweep, Stam on the amplifiers."""

    name = "gaussian-verify"
    nonzero = _calls(("symplectic.g_inv", "symplectic.g", "cli.main")
                     + SYMPLECTIC_STATE + GAUSSIAN_SUITE)
    zero = _calls(FIGURE_LAYERS + FOCK_LAYERS + FOCK_FISHER)

    def setup(self, seed, workdir):
        super().setup(seed, workdir)
        self.channels = [MixingParams.beam_splitter(lam) for lam in BS_LAMBDAS]
        self.channels += [MixingParams.amplifier(k) for k in AMP_KAPPAS]
        self.argvs = []
        for i, p in enumerate(self.channels):
            argv = ["verify", "--trials", str(VERIFY_TRIALS), "--seed", str(seed),
                    "--out", os.path.join(workdir, f"verify-{i}.json")]
            if p.kind == BEAM_SPLITTER:
                argv += ["--lambda", repr(p.lambda_A)]
            else:
                argv += ["--kappa", repr(p.lambda_A), "--stam"]
            self.argvs.append(argv)

    def run(self):
        return [cli_call(argv)[0] for argv in self.argvs]

    def reports(self):
        return [argv[argv.index("--out") + 1] for argv in self.argvs]

    def _reference_slacks(self) -> list[tuple[float, float]]:
        """Minimum entropy-power and linear slacks per channel, same draws."""
        flip = np.diag([1.0, -1.0])
        pairs = [[symplectic.random_gaussian_state(
            1, np.random.default_rng(np.random.SeedSequence((self.seed, idx, k)))).gamma
            for k in (0, 1)] for idx in range(VERIFY_TRIALS)]
        slacks = []
        for p in self.channels:
            min_qepi = min_lin = math.inf
            for a, b in pairs:
                if p.kind == BEAM_SPLITTER:
                    gamma_c = p.lambda_A * a + p.lambda_B * b
                else:
                    gamma_c = p.lambda_A * a + p.lambda_B * (flip @ b @ flip)
                s_a, s_b, s_c = (single_mode_entropy(x) for x in (a, b, gamma_c))
                min_qepi = min(min_qepi, math.exp(s_c) - p.lambda_A * math.exp(s_a)
                               - p.lambda_B * math.exp(s_b))
                if p.kind == BEAM_SPLITTER:
                    rhs = p.lambda_A * s_a + p.lambda_B * s_b
                else:
                    total = p.lambda_A + p.lambda_B
                    rhs = (p.lambda_A * s_a + p.lambda_B * s_b) / total + math.log(total)
                min_lin = min(min_lin, s_c - rhs)
            slacks.append((min_qepi, min_lin))
        return slacks

    def check(self, codes, checks, full):
        for p, code in zip(self.channels, codes):
            checks.add(f"{p.kind}({p.lambda_A:g}) exit code", code == 0, f"got {code}")
        if not full:
            return
        for p, path, (ref_qepi, ref_lin) in zip(
                self.channels, self.reports(), self._reference_slacks()):
            tag = f"{p.kind}({p.lambda_A:g})"
            with open(path, encoding="utf-8") as fh:
                report = json.load(fh)
            checks.add(f"{tag} zero violations", report["failures"] == [],
                       f"{len(report['failures'])} failures")
            checks.add(f"{tag} photon_gap_floor_ok", report["photon_gap_floor_ok"] is True)
            checks.add(f"{tag} min_qepi_slack", close(report["min_qepi_slack"], ref_qepi, 1e-9),
                       f"{report['min_qepi_slack']!r} vs reference {ref_qepi!r}")
            checks.add(f"{tag} min_linear_slack",
                       close(report["min_linear_slack"], ref_lin, 1e-9),
                       f"{report['min_linear_slack']!r} vs reference {ref_lin!r}")


class GapFigures(Workload):
    """`qepi figures` with its default grids, lambda 0.8 and n-bar 15."""

    name = "gap-figures"
    nonzero = _calls(("symplectic.g_inv", "symplectic.g", "cli.main") + FIGURE_LAYERS)
    zero = _calls(SYMPLECTIC_STATE + GAUSSIAN_SUITE + FOCK_LAYERS + FOCK_FISHER)

    def setup(self, seed, workdir):
        super().setup(seed, workdir)
        self.argv = ["figures", "--out", workdir]

    def run(self):
        return cli_call(self.argv)

    def reports(self):
        return [os.path.join(self.workdir, f)
                for f in ("delta_surface.csv", "moe_bounds.csv", "region.csv")]

    def check(self, result, checks, full):
        code, text = result
        checks.add("exit code", code == 0, f"got {code}")
        found = re.search(r"delta surface max (\S+) at S_bar=(\S+) lambda=(\S+)", text)
        checks.add("surface max printed", found is not None, text.strip())
        if found:
            best, s_at = float(found.group(1)), float(found.group(2))
            checks.add("surface max in [0.10, 0.11]", 0.10 <= best <= 0.11, f"{best}")
            checks.add("surface argmax at S_bar ~ 5.05", abs(s_at - 5.05) < 0.05, f"{s_at}")
        if not full:
            return

        rows = read_csv(self.reports()[0])
        checks.add("delta_surface.csv shape", len(rows) == 1 + 200 * 201, f"{len(rows)} rows")
        deltas = [float(r[2]) for r in rows[1:]]
        checks.add("delta_surface.csv nonnegative", min(deltas) >= -1e-12, f"{min(deltas)}")
        checks.add("delta_surface.csv grid max in [0.10, 0.11]",
                   0.10 <= max(deltas) <= 0.11, f"{max(deltas)}")

        rows = read_csv(self.reports()[1])
        checks.add("moe_bounds.csv shape", len(rows) == 1 + 3 * 201, f"{len(rows)} rows")
        worst, gap = 0.0, math.inf
        for s_bar, lam, ansatz, bound in ([float(x) for x in r] for r in rows[1:]):
            ref = math.log(lam * math.exp(s_bar) + 1.0 - lam)
            worst = max(worst, abs(bound - ref) / max(1.0, abs(ref)))
            gap = min(gap, ansatz - bound)
        checks.add("moe_bounds.csv bound matches ln(lam e^S + 1 - lam)", worst <= 1e-10,
                   f"worst deviation {worst:.3e}")
        checks.add("moe_bounds.csv Gaussian ansatz above the bound", gap >= -1e-12, f"{gap}")

        rows = read_csv(self.reports()[2])
        checks.add("region.csv shape", len(rows) == 1 + 101, f"{len(rows)} rows")
        lam, n_bar, worst = 0.8, 15.0, 0.0
        for beta, r_b, r_c_conj, _, _ in ([float(x) for x in r] for r in rows[1:]):
            ref_b = g_ref(lam * beta * n_bar)
            ref_c = g_ref((1 - lam) * n_bar) - g_ref((1 - lam) * beta * n_bar)
            worst = max(worst, abs(r_b - ref_b) / max(1.0, ref_b),
                        abs(r_c_conj - ref_c) / max(1.0, abs(ref_c)))
        checks.add("region.csv rates match g", worst <= 1e-10, f"worst deviation {worst:.3e}")


class FockOracleCold(Workload):
    """`qepi oracle` at cutoffs 30 and 40; every mixing unitary is built."""

    name = "fock-oracle-cold"
    repeatable = False
    nonzero = _calls(("fock.two_mode_mix", "fock.vn_entropy", "fock.liouville_evolve",
                      "cli.main")) + ("fock.two_mode_mix.cold_calls",)
    zero = _calls(("symplectic.g_inv", "fock.relative_entropy", "fock.displace_fock")
                  + SYMPLECTIC_STATE + GAUSSIAN_SUITE + FIGURE_LAYERS + FOCK_FISHER) \
        + ("fock.two_mode_mix.warm_calls",)
    REFERENCES = {"thermal1_vacuum_bs_half": g_ref(0.5),
                  "vacuum_vacuum_amp2": 2.0 * LN2,
                  "vacuum_noise_t2": 2.0 * LN2}

    def setup(self, seed, workdir):
        super().setup(seed, workdir)
        self.argvs = [["oracle", "--cutoff", str(c),
                       "--out", os.path.join(workdir, f"oracle-{c}.json")]
                      for c in ORACLE_CUTOFFS]

    def run(self):
        return [cli_call(argv)[0] for argv in self.argvs]

    def reports(self):
        return [argv[-1] for argv in self.argvs]

    def check(self, codes, checks, full):
        for cutoff, code, path in zip(ORACLE_CUTOFFS, codes, self.reports()):
            checks.add(f"cutoff {cutoff} exit code", code == 0, f"got {code}")
            with open(path, encoding="utf-8") as fh:
                report = json.load(fh)
            names = [c["name"] for c in report["checks"]]
            checks.add(f"cutoff {cutoff} check names", sorted(names) == sorted(self.REFERENCES),
                       f"{names}")
            for item in report["checks"]:
                want = self.REFERENCES.get(item["name"], math.nan)
                checks.add(f"cutoff {cutoff} {item['name']}",
                           abs(item["oracle"] - want) <= 1e-5,
                           f"oracle {item['oracle']!r} vs reference {want!r}")


class FockProbesWarm(Workload):
    """Non-Gaussian probe pairs through beam splitters with warm unitaries."""

    name = "fock-probes-warm"
    nonzero = _calls(FOCK_LAYERS + FOCK_FISHER) + ("fock.two_mode_mix.cold_calls",
                                                   "fock.two_mode_mix.warm_calls")
    zero = _calls(("symplectic.g_inv", "symplectic.g", "cli.main")
                  + SYMPLECTIC_STATE + GAUSSIAN_SUITE + FIGURE_LAYERS)
    # covariance matrices of the Gaussian members of the pool
    SQUEEZE_R, SQUEEZE_N = 0.3, 0.5
    COVARIANCES = {
        "thermal1": 3.0 * np.eye(2),
        "coherent1": np.eye(2),
        "squeezed_thermal": (2.0 * SQUEEZE_N + 1.0) * np.diag(
            [math.exp(2.0 * SQUEEZE_R), math.exp(-2.0 * SQUEEZE_R)]),
    }

    def setup(self, seed, workdir):
        super().setup(seed, workdir)
        dim = PROBE_CUTOFF
        self.pool = {
            "fock1": fock.fock_state(1, dim),
            "fock2": fock.fock_state(2, dim),
            "thermal1": fock.thermal_state(1.0, dim),
            "coherent1": fock.coherent_state(1.0, dim),
            "squeezed_thermal": fock.squeezed_thermal_state(self.SQUEEZE_R,
                                                            self.SQUEEZE_N, dim),
        }
        # two squeezed inputs leak past cutoff 30, so that pair is left out
        candidates = [(a, b) for a in self.pool for b in self.pool
                      if (a, b) != ("squeezed_thermal", "squeezed_thermal")]
        rng = np.random.default_rng(seed)
        picks = rng.choice(len(candidates), size=PROBE_PAIRS, replace=False)
        self.pairs = [candidates[i] for i in sorted(picks)]
        self.channels = [MixingParams.beam_splitter(lam) for lam in PROBE_LAMBDAS]
        vacuum = fock.vacuum_state(dim)
        for p in self.channels:
            fock.two_mode_mix(vacuum, vacuum, p)

    def run(self):
        entropies = {}
        probes = []
        for a, b in self.pairs:
            for name in (a, b):
                if name not in entropies:
                    entropies[name] = fock.vn_entropy(self.pool[name])
            for p in self.channels:
                s_c = fock.vn_entropy(fock.two_mode_mix(self.pool[a], self.pool[b], p))
                rep = inequalities.qepi_check(entropies[a], entropies[b], s_c, 1, p,
                                              tol=1e-6)
                probes.append((a, b, p, s_c, rep))
        debruijn = fisher.debruijn_check(self.pool["thermal1"])
        return probes, debruijn

    def check(self, result, checks, full):
        probes, debruijn = result
        for a, b, p, s_c, rep in probes:
            tag = f"{a}+{b} lambda={p.lambda_A:g}"
            checks.add(f"{tag} holds", rep.holds, f"slack {rep.slack:.3e}")
            if a in self.COVARIANCES and b in self.COVARIANCES:
                gamma_c = p.lambda_A * self.COVARIANCES[a] + p.lambda_B * self.COVARIANCES[b]
                ref = single_mode_entropy(gamma_c)
                checks.add(f"{tag} output entropy", abs(s_c - ref) <= 1e-6,
                           f"{s_c!r} vs Gaussian closed form {ref!r}")
        anchor = 2.0 * LN2
        checks.add("de Bruijn passes", debruijn.passes,
                   f"relative deviation {debruijn.relative_deviation:.3e}")
        for label, value in (("Fisher sum", debruijn.fisher_sum),
                             ("4 dS/dt", debruijn.entropy_rate_times_4)):
            checks.add(f"de Bruijn {label} at 2 ln 2", abs(value - anchor) / anchor < 1e-3,
                       f"{value!r}")


WORKLOADS = {w.name: w for w in (GaussianVerify, GapFigures, FockOracleCold, FockProbesWarm)}
