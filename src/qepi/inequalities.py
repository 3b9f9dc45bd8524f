"""Entropy inequalities as checkable predicates.

Covers: the entropy power inequality for beam splitters and amplifiers,
its linear corollaries, the photon-number gap bound, Stam's inequality,
the weighted Fisher information inequality, the minimum-output entropy
bound and its gap surface, the monotone proof trajectory, the asymptotic
entropy-power scaling, and a randomized verification harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import symplectic
from .channels import BEAM_SPLITTER, MixingParams, add_noise, mix
from .fisher import DivergenceError, fisher_total_gaussian, spectrum_full_rank
from .symplectic import (GaussianState, NumericError, entropy, g, g_inv,
                         random_gaussian_state, require, spectrum_entropy)

GAUSSIAN_SLACK_TOL = 1e-9
ORACLE_SLACK_TOL = 1e-6
EPNI_FLOOR = 1.0 / math.e - 0.5
ASYMPTOTIC_MARGIN = 0.01


def _scalar(x):
    """A float for a 0-d result, the array otherwise (as moe_bound returns)."""
    return float(x) if np.ndim(x) == 0 else x


def _entropies(s_a, s_b, s_c) -> tuple:
    return tuple(require(name, np.asarray(s, dtype=float), 0.0)
                 for name, s in (("S_A", s_a), ("S_B", s_b), ("S_C", s_c)))


@dataclass(frozen=True)
class InequalityReport:
    """One check, or one check per element when its inputs are arrays.

    For float inputs lhs, rhs and slack are floats and holds a bool; for
    arrays they are arrays over the same shape, and ``row(i)`` is the
    report of element i.
    """

    name: str
    lhs: float
    rhs: float
    slack: float
    holds: bool
    inputs: dict = field(default_factory=dict)

    @classmethod
    def build(cls, name: str, lhs, rhs, tol=GAUSSIAN_SLACK_TOL,
              inputs: dict | None = None) -> "InequalityReport":
        slack = np.subtract(lhs, rhs)
        holds = slack >= -np.multiply(tol, np.maximum(1.0, np.abs(rhs)))
        return cls(name=name, lhs=_scalar(lhs), rhs=_scalar(rhs), slack=_scalar(slack),
                   holds=bool(holds) if np.ndim(holds) == 0 else holds,
                   inputs=dict(inputs or {}))

    def row(self, i: int) -> "InequalityReport":
        """Element i of an array-valued report, with float fields."""
        def pick(x):
            return np.asarray(x)[i].item() if np.ndim(x) else x
        return InequalityReport(name=self.name, lhs=pick(self.lhs), rhs=pick(self.rhs),
                                slack=pick(self.slack), holds=bool(self.holds[i]),
                                inputs={k: pick(v) for k, v in self.inputs.items()})

    def to_dict(self) -> dict:
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs,
                "slack": self.slack, "holds": self.holds, "inputs": self.inputs}


def qepi_check(s_a, s_b, s_c, n: int, p: MixingParams,
               tol: float = GAUSSIAN_SLACK_TOL) -> InequalityReport:
    """Entropy power inequality: e^{S_C/n} >= lam_A e^{S_A/n} + lam_B e^{S_B/n}.

    Entropies may be arrays; they broadcast, and the report is array-valued.
    """
    a, b, c = _entropies(s_a, s_b, s_c)
    lhs = np.exp(c / n)
    rhs = p.lambda_A * np.exp(a / n) + p.lambda_B * np.exp(b / n)
    return InequalityReport.build("qepi", lhs, rhs, tol=tol,
                                  inputs={"S_A": s_a, "S_B": s_b, "S_C": s_c,
                                          "n": n, "kind": p.kind,
                                          "lambda_A": p.lambda_A})


def linear_check(s_a, s_b, s_c, n: int, p: MixingParams,
                 tol: float = GAUSSIAN_SLACK_TOL) -> InequalityReport:
    """Linear corollary of the entropy power inequality.

    Beam splitter: S_C >= lam S_A + (1-lam) S_B.
    Amplifier:     S_C >= (k S_A + (k-1) S_B)/(2k-1) + ln(2k-1).
    Entropies may be arrays, as in qepi_check.
    """
    a, b, c = _entropies(s_a, s_b, s_c)
    if p.kind == BEAM_SPLITTER:
        rhs = p.lambda_A * a + p.lambda_B * b
    else:
        total = p.lambda_A + p.lambda_B          # 2k - 1
        rhs = (p.lambda_A * a + p.lambda_B * b) / total + math.log(total)
    return InequalityReport.build("linear", c, rhs, tol=tol,
                                  inputs={"S_A": s_a, "S_B": s_b, "S_C": s_c,
                                          "n": n, "kind": p.kind,
                                          "lambda_A": p.lambda_A})


def epni_gap(n_a, n_b, n_c, transmissivity: float,
             tol: float = GAUSSIAN_SLACK_TOL) -> InequalityReport:
    """Photon-number gap N_C - lam N_A - (1-lam) N_B and its proven floor.

    The raw gap probes the (open) photon-number inequality; the report
    asserts only the proven bound gap >= 1/e - 1/2.  The photon numbers
    carry relative rounding, so the tolerance is tol * max(1, N_C).
    Photon numbers may be arrays, as in qepi_check.
    """
    a, b, c = (require(name, np.asarray(x, dtype=float), 0.0)
               for name, x in (("N_A", n_a), ("N_B", n_b), ("N_C", n_c)))
    require("transmissivity", transmissivity, 0.0, 1.0)
    gap = _scalar(c - transmissivity * a - (1.0 - transmissivity) * b)
    return InequalityReport.build("epni_floor", gap, EPNI_FLOOR,
                                  tol=tol * np.maximum(1.0, c),
                                  inputs={"N_A": n_a, "N_B": n_b, "N_C": n_c,
                                          "lambda": transmissivity, "gap": gap})


def amplifier_photon_gap(n_a, n_b, n_c, gain: float):
    """Raw gap of the conjectured amplifier photon-number inequality (unasserted).

    Photon numbers may be arrays.
    """
    return n_c - gain * n_a - (gain - 1.0) * (n_b + 1.0)


# ---------------------------------------------------------------------------
# Fisher information inequalities

def stam_check(j_a, j_b, j_c, p: MixingParams,
               tol: float = GAUSSIAN_SLACK_TOL) -> InequalityReport:
    """1/J_C >= lam_A/J_A + lam_B/J_B; arrays give an array-valued report."""
    ja, jb, jc = (np.asarray(j, dtype=float) for j in (j_a, j_b, j_c))
    if np.any(np.minimum(np.minimum(ja, jb), jc) <= 0):
        raise DivergenceError("Stam check needs strictly positive Fisher informations")
    lhs = 1.0 / jc
    rhs = p.lambda_A / ja + p.lambda_B / jb
    return InequalityReport.build("stam", lhs, rhs, tol=tol,
                                  inputs={"J_A": j_a, "J_B": j_b, "J_C": j_c,
                                          "kind": p.kind, "lambda_A": p.lambda_A})


def weighted_fisher_check(j_a: float, j_b: float, j_c: float,
                          w_a: float, w_b: float, p: MixingParams,
                          tol: float = GAUSSIAN_SLACK_TOL) -> InequalityReport:
    """w_C^2 J_C <= w_A^2 J_A + w_B^2 J_B with w_C = sqrt(lam_A) w_A + sqrt(lam_B) w_B."""
    if min(j_a, j_b, j_c) <= 0:
        raise DivergenceError("weighted Fisher check needs positive Fisher informations")
    w_c = math.sqrt(p.lambda_A) * w_a + math.sqrt(p.lambda_B) * w_b
    lhs = w_a ** 2 * j_a + w_b ** 2 * j_b
    rhs = w_c ** 2 * j_c
    return InequalityReport.build("weighted_fisher", lhs, rhs, tol=tol,
                                  inputs={"J_A": j_a, "J_B": j_b, "J_C": j_c,
                                          "w_A": w_a, "w_B": w_b, "w_C": w_c,
                                          "kind": p.kind, "lambda_A": p.lambda_A})


def optimal_weights(j_a: float, j_b: float, p: MixingParams) -> tuple[float, float]:
    """Cauchy-Schwarz-optimal weights reducing the weighted check to Stam."""
    return math.sqrt(p.lambda_A) / j_a, math.sqrt(p.lambda_B) / j_b


# ---------------------------------------------------------------------------
# minimum output entropy bound and its gap surface

def _moe_domain(s_bar, transmissivity):
    return (require("S_bar", np.asarray(s_bar, dtype=float), 0.0),
            require("transmissivity", np.asarray(transmissivity, dtype=float), 0.0, 1.0))


def moe_bound(s_bar, transmissivity):
    """Proven lower bound ln[lam e^{S} + (1-lam)] on the output entropy.

    Arrays broadcast; a float for float arguments.
    """
    s, lam = _moe_domain(s_bar, transmissivity)
    out = np.log(lam * np.exp(s) + 1.0 - lam)
    return float(out) if out.ndim == 0 else out


def moe_conjectured(s_bar, transmissivity):
    """Conjectured minimum g(lam g_inv(S)), attained by the thermal input.

    Arrays broadcast; a float for float arguments.
    """
    s, lam = _moe_domain(s_bar, transmissivity)
    return g(lam * g_inv(s))


def moe_delta(s_bar, transmissivity):
    """Gap between the conjectured minimum and the proven bound; >= 0."""
    return moe_conjectured(s_bar, transmissivity) - moe_bound(s_bar, transmissivity)


def delta_surface(s_grid=None, lam_grid=None):
    """Evaluate moe_delta on a grid; returns (s_grid, lam_grid, surface)."""
    if s_grid is None:
        s_grid = np.geomspace(0.01, 6.0, 200)
    if lam_grid is None:
        lam_grid = np.linspace(0.0, 1.0, 201)
    s_grid, lam_grid = np.asarray(s_grid, dtype=float), np.asarray(lam_grid, dtype=float)
    return s_grid, lam_grid, moe_delta(s_grid[:, None], lam_grid[None, :])


# points per zoom step: each step shrinks the interval by about ZOOM_POINTS / 2
ZOOM_POINTS = 65


def _zoom_max(f, lo: float, hi: float) -> float:
    """Argmax of a unimodal array function f on [lo, hi] by zooming grids.

    Each step evaluates f once on ZOOM_POINTS points of the interval and
    shrinks the interval to the two neighbours of the best point, until it
    is narrower than 1e-12 max(1, |hi|); returns its midpoint.
    """
    while hi - lo > 1e-12 * max(1.0, abs(hi)):
        x = np.linspace(lo, hi, ZOOM_POINTS)
        k = int(np.argmax(f(x)))
        lo, hi = float(x[max(k - 1, 0)]), float(x[min(k + 1, ZOOM_POINTS - 1)])
    return 0.5 * (lo + hi)


def delta_surface_max(s_grid=None, lam_grid=None, *, surface=None):
    """Grid maximum of the gap surface, refined by coordinate ascent.

    Starts at the grid argmax and makes four rounds of maximising over lam
    at fixed S_bar, then over S_bar at fixed lam, each inside the box of
    the argmax's grid neighbours.  The result is that coordinate-ascent
    point, neither the maximum over the box (the surface still rises
    along the ridge lam ~ e^{-S_bar} to the box edge) nor the supremum
    (see delta_surface_sup).  A caller that holds delta_surface's
    (s_grid, lam_grid, surface) passes all three, and the surface is not
    computed again.  Returns (max_delta, s_bar_at_max, lam_at_max).
    """
    if surface is None:
        s_grid, lam_grid, surface = delta_surface(s_grid, lam_grid)
    i, j = np.unravel_index(int(np.argmax(surface)), surface.shape)
    s_best, lam_best = float(s_grid[i]), float(lam_grid[j])
    s_lo = float(s_grid[max(i - 1, 0)])
    s_hi = float(s_grid[min(i + 1, len(s_grid) - 1)])
    lam_lo = float(lam_grid[max(j - 1, 0)])
    lam_hi = float(lam_grid[min(j + 1, len(lam_grid) - 1)])
    for _ in range(4):
        lam_best = _zoom_max(lambda x: moe_delta(s_best, x), lam_lo, lam_hi)
        s_best = _zoom_max(lambda x: moe_delta(x, lam_best), s_lo, s_hi)
    return moe_delta(s_best, lam_best), s_best, lam_best


def delta_surface_sup() -> float:
    """Supremum of the gap surface, approached as S_bar -> oo.

    Along lam = c e^{-S_bar}, lam g_inv(S_bar) -> c/e and
    lam e^{S_bar} + 1 - lam -> 1 + c, so the gap tends to
    g(c/e) - ln(1 + c); the supremum is its maximum over c > 0.
    """
    # the limit rises from 0 at c = 0 to one maximum near c = 0.64 and then
    # falls towards 0, so [0, 4] brackets it
    c_star = _zoom_max(lambda c: g(c / math.e) - np.log1p(c), 0.0, 4.0)
    return g(c_star / math.e) - math.log1p(c_star)


# ---------------------------------------------------------------------------
# proof trajectory and asymptotics

# DOP853 tolerances of the trajectory solve, on u_X = ln(1 + t_X)
TRAJECTORY_RTOL = 1e-10
TRAJECTORY_ATOL = 1e-12
# largest t_max: t_X grows like e^{e t / 2} and overflows float64 (e^709.78)
# near t = 522 for the two instances of `qepi trajectory`; the cap also
# bounds the record grid, which holds about t_max points
TRAJECTORY_T_MAX = 500.0


class IntegrationError(NumericError):
    """The trajectory solve failed; the message is the solver's."""


@dataclass(frozen=True)
class Trajectory:
    """The proof trajectory at its recorded times; every field is an array."""

    t: np.ndarray
    t_A: np.ndarray
    t_B: np.ndarray
    t_C: np.ndarray
    S_A: np.ndarray
    S_B: np.ndarray
    S_C: np.ndarray
    ratio: np.ndarray


def _record_times(t_max: float) -> np.ndarray:
    """Step 0.01 below min(t_max, 10), step 1 from 10 below t_max, then t_max."""
    fine = np.arange(math.ceil(100.0 * min(t_max, 10.0) - 1e-9)) / 100.0
    return np.concatenate([fine, np.arange(10.0, t_max), [t_max]])


def ratio_trajectory(a: GaussianState, b: GaussianState, p: MixingParams,
                     t_max: float = 200.0) -> Trajectory:
    """Integrate the reparametrized-noise trajectory and emit the monotone ratio.

    The per-input times satisfy dt_X/dt = e^{S_X(t_X)/n} with t_X(0) = 0,
    t_C = lam_A t_A + lam_B t_B, and
    ratio(t) = (lam_A e^{S_A/n} + lam_B e^{S_B/n}) / e^{S_C/n}.
    ratio(0) is exactly the entropy power inequality instance; the proof
    guarantees ratio is non-decreasing and tends to 1.

    One DOP853 solve with step-size control on u_X = ln(1 + t_X), whose rate
    e^{S_X/n - u_X} stays bounded while t_X grows like e^{e t / 2}, recorded
    at step 0.01 up to t = 10 and step 1 beyond; a failure raises
    IntegrationError, and so does a t_X or an entropy power that overflows
    float64 before t_max.  t_max must lie in (0, TRAJECTORY_T_MAX].
    """
    require("t_max", t_max, 0.0, low_open=True)      # names NaN and inf as not finite
    require("t_max", t_max, 0.0, TRAJECTORY_T_MAX, low_open=True)
    # scipy.integrate costs about 0.2 s to import; only this function needs it
    from scipy.integrate import solve_ivp

    n = a.n
    gamma0 = np.stack([a.gamma, b.gamma, mix(a, b, p).gamma])
    eye = np.eye(2 * n)

    def rate(_, u):
        noisy = GaussianState(n, gamma0[:2] + np.expm1(u)[:, None, None] * eye,
                              validate=False)
        return np.exp(entropy(noisy) / n - u)

    t = _record_times(t_max)
    # for inputs of large entropy a t_X, or its entropy power, leaves the
    # floats before t_max: in the solve or in the records after it
    try:
        with np.errstate(over="raise"):
            sol = solve_ivp(rate, (0.0, t_max), np.zeros(2), method="DOP853", t_eval=t,
                            rtol=TRAJECTORY_RTOL, atol=TRAJECTORY_ATOL)
            if not sol.success:
                raise IntegrationError(sol.message)
            t_a, t_b = np.expm1(sol.y)
            t_c = p.lambda_A * t_a + p.lambda_B * t_b
            noise = np.stack([t_a, t_b, t_c])[..., None, None] * eye
            s_a, s_b, s_c = entropy(GaussianState(n, gamma0[:, None] + noise,
                                                  validate=False))
            ratio = ((p.lambda_A * np.exp(s_a / n) + p.lambda_B * np.exp(s_b / n))
                     / np.exp(s_c / n))
    except FloatingPointError as exc:
        raise IntegrationError(f"trajectory leaves the floats before t = {t_max:g}: "
                               f"{exc}") from None
    return Trajectory(t=t, t_A=t_a, t_B=t_b, t_C=t_c, S_A=s_a, S_B=s_b, S_C=s_c,
                      ratio=ratio)


@dataclass(frozen=True)
class AsymptoticReport:
    t_grid: np.ndarray
    entropy_power: np.ndarray
    upper_bound: np.ndarray
    ratio_to_linear: np.ndarray
    upper_bound_holds: bool
    ratio_within_tolerance: bool


def asymptotic_check(state: GaussianState, t_grid) -> AsymptoticReport:
    """Check e^{S(t)/n} <= e(lam0 + t)/2 + ASYMPTOTIC_MARGIN and convergence to et/2."""
    t_grid = require("t", np.asarray(t_grid, dtype=float), 0.0)
    n = state.n
    lam0 = float(np.max(np.linalg.eigvalsh(state.gamma)))
    eps = np.exp(entropy(add_noise(state, t_grid)) / n)
    bounds = math.e * (lam0 + t_grid) / 2.0 + ASYMPTOTIC_MARGIN
    pos = t_grid > 0
    ratios = np.full(t_grid.shape, np.nan)
    ratios[pos] = eps[pos] / (math.e * t_grid[pos] / 2.0) - 1.0
    ok_ratio = bool(np.all(np.abs(ratios[pos]) <= (lam0 + 2.0) / t_grid[pos]))
    return AsymptoticReport(t_grid=t_grid, entropy_power=eps, upper_bound=bounds,
                            ratio_to_linear=ratios,
                            upper_bound_holds=bool(np.all(eps <= bounds)),
                            ratio_within_tolerance=ok_ratio)


# ---------------------------------------------------------------------------
# randomized verification harness

@dataclass(frozen=True)
class SuiteSummary:
    trials: int
    seed: int
    kind: str
    lambda_A: float
    min_qepi_slack: float
    min_linear_slack: float
    min_stam_slack: float
    min_photon_gap: float
    photon_gap_floor_ok: bool
    stam_skipped: int                    # trials with a near-pure A, B or C
    failures: list
    gap_histogram: list
    gap_bin_edges: list
    # trial index of each minimum (first in trial order), None if no trial has one
    min_qepi_trial: int | None = None
    min_linear_trial: int | None = None
    min_stam_trial: int | None = None
    min_photon_gap_trial: int | None = None

    def to_dict(self) -> dict:
        """The report; a minimum over no trial (math.inf here) is None."""
        def minimum(value, trial):
            return None if trial is None else value
        return {"trials": self.trials, "seed": self.seed, "kind": self.kind,
                "lambda_A": self.lambda_A,
                "min_qepi_slack": minimum(self.min_qepi_slack, self.min_qepi_trial),
                "min_linear_slack": minimum(self.min_linear_slack, self.min_linear_trial),
                "min_stam_slack": minimum(self.min_stam_slack, self.min_stam_trial),
                "min_photon_gap": minimum(self.min_photon_gap, self.min_photon_gap_trial),
                "min_qepi_trial": self.min_qepi_trial,
                "min_linear_trial": self.min_linear_trial,
                "min_stam_trial": self.min_stam_trial,
                "min_photon_gap_trial": self.min_photon_gap_trial,
                "photon_gap_floor_ok": self.photon_gap_floor_ok,
                "stam_skipped": self.stam_skipped,
                "failures": self.failures,
                "gap_histogram": self.gap_histogram,
                "gap_bin_edges": self.gap_bin_edges}


# trials drawn and checked per pass of the suite; bounds its peak memory
SUITE_CHUNK = 2 ** 12


class _Minimum:
    """Running minimum over trials and the first trial that attains it."""

    def __init__(self):
        self.value, self.trial = math.inf, None

    def update(self, values: np.ndarray, trials: np.ndarray) -> None:
        if values.size:
            i = int(np.argmin(values))
            if values[i] < self.value:
                self.value, self.trial = float(values[i]), int(trials[i])


def random_qepi_suite(trials: int, seed: int, p: MixingParams,
                      nu_max: float = 10.0, r_max: float = 1.0,
                      with_stam: bool = False) -> SuiteSummary:
    """Run all closed-form inequality checks on random Gaussian pairs.

    Deterministic per seed: state k of trial i is
    random_gaussian_state(1, default_rng(SeedSequence((seed, i, k)))), so
    any trial can be replayed alone.  Trials run in chunks of SUITE_CHUNK:
    each chunk is drawn in one call, and its states mixed, their
    symplectic spectra, entropies, photon numbers and Fisher informations
    computed and every inequality checked, one array call each; the one
    spectrum of the A/B/C stack gives both the entropies and Stam's domain.
    Trials with a near-pure A, B or C are out of that domain and counted as
    skipped.
    """
    require("trials", trials, 1)
    require("seed", seed, 0, 2 ** 64 - 1)
    mins = {name: _Minimum() for name in ("qepi", "linear", "stam", "gap")}
    gaps, failures = np.empty(trials), []
    stam_checked = 0
    for start in range(0, trials, SUITE_CHUNK):
        idx = np.arange(start, min(start + SUITE_CHUNK, trials))
        keys = np.empty((idx.size, 2, 3), dtype=np.uint64)
        keys[..., 0], keys[..., 1], keys[..., 2] = seed, idx[:, None], (0, 1)
        pair = random_gaussian_state(1, keys, nu_max=nu_max, r_max=r_max).gamma
        a = GaussianState(1, pair[:, 0], validate=False)
        b = GaussianState(1, pair[:, 1], validate=False)
        abc = GaussianState(1, np.stack([a.gamma, b.gamma, mix(a, b, p).gamma], axis=1),
                            validate=False)
        # looked up on the module, as entropy() does, so that a replacement of
        # symplectic.symplectic_eigenvalues reaches the suite's spectrum too
        nus = symplectic.symplectic_eigenvalues(abc)
        s_a, s_b, s_c = spectrum_entropy(nus).T
        n_a, n_b, n_c = g_inv(np.stack([s_a, s_b, s_c])).reshape(3, -1)
        # (report, trial index of each of its elements), in per-trial order
        checks = [(qepi_check(s_a, s_b, s_c, 1, p), idx),
                  (linear_check(s_a, s_b, s_c, 1, p), idx)]
        mins["qepi"].update(checks[0][0].slack, idx)
        mins["linear"].update(checks[1][0].slack, idx)
        if p.kind == BEAM_SPLITTER:
            rep_g = epni_gap(n_a, n_b, n_c, p.lambda_A)
            checks.append((rep_g, idx))
            gaps[idx] = rep_g.lhs
            mins["gap"].update(rep_g.lhs, idx)
        else:
            gaps[idx] = amplifier_photon_gap(n_a, n_b, n_c, p.lambda_A)
        if with_stam:
            rows = np.flatnonzero(np.all(spectrum_full_rank(nus), axis=1))
            stam_checked += rows.size
            if rows.size:
                j_a, j_b, j_c = fisher_total_gaussian(GaussianState(
                    1, abc.gamma[rows], validate=False)).T
                rep_s = stam_check(j_a, j_b, j_c, p)
                checks.append((rep_s, idx[rows]))
                mins["stam"].update(rep_s.slack, idx[rows])
        bad = sorted((int(trial_of[i]), order, i) for order, (rep, trial_of) in
                     enumerate(checks) for i in np.flatnonzero(~rep.holds))
        failures += [checks[order][0].row(i).to_dict() | {"trial": trial}
                     for trial, order, i in bad]
    # np.histogram(gaps, 40), counted a chunk at a time
    edges = np.histogram_bin_edges(gaps, bins=40)
    hist = sum(np.histogram(gaps[i:i + SUITE_CHUNK], bins=edges)[0]
               for i in range(0, trials, SUITE_CHUNK))
    return SuiteSummary(trials=trials, seed=seed, kind=p.kind, lambda_A=p.lambda_A,
                        min_qepi_slack=mins["qepi"].value,
                        min_linear_slack=mins["linear"].value,
                        min_stam_slack=mins["stam"].value,
                        min_photon_gap=mins["gap"].value,
                        min_qepi_trial=mins["qepi"].trial,
                        min_linear_trial=mins["linear"].trial,
                        min_stam_trial=mins["stam"].trial,
                        min_photon_gap_trial=mins["gap"].trial,
                        photon_gap_floor_ok=not any(f["name"] == "epni_floor"
                                                    for f in failures),
                        stam_skipped=trials - stam_checked if with_stam else 0,
                        failures=failures,
                        gap_histogram=[int(x) for x in hist],
                        gap_bin_edges=[float(x) for x in edges])
