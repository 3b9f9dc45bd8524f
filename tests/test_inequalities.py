import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qepi import fisher, inequalities, symplectic
from qepi.channels import MixingParams, mix
from qepi.fisher import DivergenceError, fisher_total_gaussian, full_rank
from qepi.inequalities import (EPNI_FLOOR, amplifier_photon_gap,
                               asymptotic_check, delta_surface,
                               delta_surface_max, delta_surface_sup, epni_gap,
                               linear_check, moe_bound, moe_conjectured, moe_delta,
                               qepi_check, random_qepi_suite, ratio_trajectory,
                               stam_check)
from qepi.symplectic import (DomainError, GaussianState, entropy, g, g_inv,
                             random_gaussian_state)

# high-precision evaluations frozen as oracles
MOE_CONJ_1_HALF = 0.6587817063298497
MOE_BOUND_1_HALF = 0.6201145069582774
RATIO0_THERMAL1_VAC = 0.9622504486493759


def test_qepi_thermal_vacuum_example():
    # thermal(1) and vacuum through a balanced beam splitter
    s_a, s_b = g(1.0), 0.0
    s_c = g(0.5)
    rep = qepi_check(s_a, s_b, s_c, 1, MixingParams.beam_splitter(0.5))
    assert rep.holds
    assert rep.lhs == pytest.approx(math.exp(g(0.5)), abs=1e-12)
    assert rep.rhs == pytest.approx(2.5, abs=1e-12)


def test_qepi_equal_inputs_saturate_beam_splitter():
    s = g(2.0)
    rep = qepi_check(s, s, s, 1, MixingParams.beam_splitter(0.3))
    assert rep.holds
    assert rep.slack == pytest.approx(0.0, abs=1e-12)


def test_qepi_amplifier_vacuum_example():
    # vacuum in, kappa = 2: S_C = 2 ln 2, rhs = 2 + 1 = 3 < 4
    rep = qepi_check(0.0, 0.0, 2.0 * math.log(2.0), 1, MixingParams.amplifier(2.0))
    assert rep.holds
    assert rep.lhs == pytest.approx(4.0, abs=1e-12)
    assert rep.rhs == pytest.approx(3.0, abs=1e-12)


def test_qepi_rejects_negative_entropy():
    with pytest.raises(DomainError):
        qepi_check(-0.1, 0.0, 0.0, 1, MixingParams.beam_splitter(0.5))


def test_linear_beam_splitter_example():
    s_a, s_b = g(1.0), 0.0
    rep = linear_check(s_a, s_b, g(0.5), 1, MixingParams.beam_splitter(0.5))
    assert rep.holds
    assert rep.rhs == pytest.approx(0.5 * g(1.0), abs=1e-12)


def test_linear_amplifier_example():
    # vacuum in, kappa = 2: S_C = 2 ln 2 >= ln 3
    rep = linear_check(0.0, 0.0, 2.0 * math.log(2.0), 1, MixingParams.amplifier(2.0))
    assert rep.holds
    assert rep.rhs == pytest.approx(math.log(3.0), abs=1e-12)


def test_epni_gap_thermal_exact():
    # thermal inputs make the photon numbers combine linearly: gap = 0
    rep = epni_gap(1.0, 2.0, 0.4 * 1.0 + 0.6 * 2.0, 0.4)
    assert rep.inputs["gap"] == pytest.approx(0.0, abs=1e-12)
    # the proven floor 1/e - 1/2 is negative, so a zero gap satisfies it
    assert EPNI_FLOOR < 0
    assert rep.holds


def test_epni_floor_violated_below():
    rep = epni_gap(0.0, 0.0, 0.0, 0.5)
    assert rep.holds
    bad = epni_gap(1.0, 1.0, 0.5, 0.5)   # gap = -0.5 < 1/e - 1/2
    assert not bad.holds


def test_epni_floor_tolerance_scales_with_photon_number():
    # N ~ 1e18 rounds by about a thousand photons; that is no violation
    assert epni_gap(1e18, 1e18, 1e18 - 4096.0, 0.5).holds
    assert not epni_gap(1e18, 1e18, 1e18 - 1e10, 0.5).holds
    summary = random_qepi_suite(200, 0, MixingParams.beam_splitter(0.5), nu_max=1e20)
    assert summary.failures == []
    assert summary.photon_gap_floor_ok


def test_epni_gap_domain():
    with pytest.raises(DomainError):
        epni_gap(1.0, 1.0, 1.0, 1.4)


def test_amplifier_photon_gap_vacuum():
    # vacuum in, kappa = 2: N_C = g_inv(2 ln 2) = 1, gap = 1 - 0 - 1 = 0
    assert amplifier_photon_gap(0.0, 0.0, 1.0, 2.0) == pytest.approx(0.0, abs=1e-12)


def test_moe_frozen_values():
    assert moe_conjectured(1.0, 0.5) == pytest.approx(MOE_CONJ_1_HALF, abs=1e-12)
    assert moe_bound(1.0, 0.5) == pytest.approx(MOE_BOUND_1_HALF, abs=1e-12)
    assert moe_delta(1.0, 0.5) == pytest.approx(
        MOE_CONJ_1_HALF - MOE_BOUND_1_HALF, abs=1e-12)
    assert all(isinstance(f(1.0, 0.5), float)
               for f in (moe_bound, moe_conjectured, moe_delta))
    lams = np.array([0.2, 0.5])
    assert moe_conjectured(1.0, lams)[1] == pytest.approx(MOE_CONJ_1_HALF, abs=1e-12)
    assert moe_bound(1.0, lams)[1] == pytest.approx(MOE_BOUND_1_HALF, abs=1e-12)
    for s_bar, lam in ((1.0, np.array([0.5, 1.5])), (np.array([1.0, -0.1]), 0.5),
                       (1.0, float("nan")), (float("nan"), 0.5)):
        for f in (moe_bound, moe_conjectured, moe_delta):
            with pytest.raises(DomainError):
                f(s_bar, lam)


def test_moe_edges_vanish():
    for s in (0.0, 0.5, 2.0):
        assert moe_delta(s, 1.0) == pytest.approx(0.0, abs=1e-12)
        assert moe_delta(s, 0.0) == pytest.approx(0.0, abs=1e-12)
    for lam in (0.0, 0.3, 1.0):
        assert moe_delta(0.0, lam) == pytest.approx(0.0, abs=1e-12)


@given(st.floats(min_value=0.0, max_value=6.0),
       st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=80, deadline=None)
def test_moe_delta_nonnegative(s_bar, lam):
    assert moe_delta(s_bar, lam) >= -1e-12


def test_delta_surface_shape_and_sign():
    s_grid, lam_grid, surface = delta_surface(np.linspace(0.1, 3.0, 10),
                                              np.linspace(0.0, 1.0, 11))
    assert surface.shape == (10, 11)
    assert np.all(surface >= -1e-12)
    assert np.allclose(surface[:, 0], 0.0, atol=1e-12)
    assert np.allclose(surface[:, -1], 0.0, atol=1e-12)


def test_delta_surface_matches_pointwise_moe_delta():
    s_grid, lam_grid = np.geomspace(0.01, 6.0, 7), np.linspace(0.0, 1.0, 9)
    _, _, surface = delta_surface(s_grid, lam_grid)
    want = [[moe_delta(float(s), float(lam)) for lam in lam_grid] for s in s_grid]
    assert np.allclose(surface, want, rtol=0.0, atol=1e-13)


def test_delta_surface_max_refines_grid():
    best, s_at, lam_at = delta_surface_max()
    assert best >= 0.106
    assert best <= 0.12
    assert moe_delta(s_at, lam_at) == pytest.approx(best, abs=1e-12)


def test_delta_surface_max_takes_a_computed_surface():
    s_grid, lam_grid, surface = delta_surface()
    assert delta_surface_max(s_grid, lam_grid, surface=surface) == delta_surface_max()


# delta_surface_max() as the golden-section refinement returned it; the
# zooming refinement agrees to about 1e-10 in the maximum and 1e-7 in S_bar
GOLDEN_SECTION_MAX = (0.10611891641436838, 5.046013378393937, 0.00419895428292098)


def test_delta_surface_max_pinned_to_golden_section():
    best, s_at, lam_at = delta_surface_max()
    assert best == pytest.approx(GOLDEN_SECTION_MAX[0], abs=1e-9)
    assert s_at == pytest.approx(GOLDEN_SECTION_MAX[1], abs=1e-6)
    assert lam_at == pytest.approx(GOLDEN_SECTION_MAX[2], abs=1e-6)


def _sup_reference():
    """(sup, c*) of g(c/e) - ln(1 + c) at 40 digits, from g'(c/e)/e = 1/(1 + c)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        e = mpmath.e
        c_star = mpmath.findroot(lambda c: mpmath.log(1 + e / c) / e - 1 / (1 + c),
                                 mpmath.mpf("0.64"))
        n = c_star / e
        sup = (n + 1) * mpmath.log(n + 1) - n * mpmath.log(n) - mpmath.log(1 + c_star)
        return float(sup), float(c_star)


def test_delta_surface_sup_matches_mpmath():
    sup, c_star = _sup_reference()
    assert delta_surface_sup() == pytest.approx(sup, abs=1e-12)
    # the surface approaches it along lam = c* e^{-S_bar}
    assert moe_delta(30.0, c_star * math.exp(-30.0)) == pytest.approx(sup, abs=1e-12)
    assert delta_surface_max()[0] < delta_surface_sup()


def test_ratio_trajectory_thermal_vacuum():
    traj = ratio_trajectory(GaussianState.thermal(1.0), GaussianState.vacuum(),
                            MixingParams.beam_splitter(0.5), t_max=200.0)
    ratios = traj.ratio
    assert ratios[0] == pytest.approx(RATIO0_THERMAL1_VAC, abs=1e-12)
    assert np.all(np.diff(ratios) >= -1e-10)
    assert ratios[-1] >= 0.999
    assert traj.t[0] == 0.0 and traj.t[-1] == pytest.approx(200.0, abs=1e-9)


def test_ratio_trajectory_amplifier_vacuum():
    traj = ratio_trajectory(GaussianState.vacuum(), GaussianState.vacuum(),
                            MixingParams.amplifier(2.0), t_max=200.0)
    ratios = traj.ratio
    assert ratios[0] == pytest.approx(0.75, abs=1e-12)
    assert np.all(np.diff(ratios) >= -1e-10)
    assert ratios[-1] >= 0.999


def test_ratio_trajectory_identical_inputs_constant_one():
    thermal = GaussianState.thermal(1.5)
    traj = ratio_trajectory(thermal, thermal, MixingParams.beam_splitter(0.5),
                            t_max=20.0)
    assert np.allclose(traj.ratio, 1.0, atol=1e-10)


def test_ratio_trajectory_time_bookkeeping():
    traj = ratio_trajectory(GaussianState.thermal(1.0), GaussianState.vacuum(),
                            MixingParams.beam_splitter(0.3), t_max=5.0)
    assert np.allclose(traj.t_C, 0.3 * traj.t_A + 0.7 * traj.t_B, rtol=0, atol=1e-12)
    with pytest.raises(DomainError):
        ratio_trajectory(GaussianState.vacuum(), GaussianState.vacuum(),
                         MixingParams.beam_splitter(0.5), t_max=0.0)


@pytest.mark.parametrize("a_photons, b_photons, params", [
    (1.0, 0.0, MixingParams.beam_splitter(0.5)),
    (0.0, 0.0, MixingParams.amplifier(2.0))])
def test_ratio_trajectory_times_solve_the_flow(a_photons, b_photons, params):
    # for a thermal input S_X(s) = g(N + s/2), so dt_X/dt = e^{S_X(t_X)} gives
    # t = int_0^{t_X} e^{-g(N + s/2)} ds, here with s = e^v - 1, each recorded
    # point by its own quadrature (g_scalar is g's closed form in scalar math,
    # which keeps the quadrature fast)
    from scipy.integrate import quad

    def g_scalar(x):
        return math.log1p(x) + x * math.log1p(1.0 / x) if x > 0 else 0.0

    traj = ratio_trajectory(GaussianState.thermal(a_photons),
                            GaussianState.thermal(b_photons), params, t_max=200.0)
    assert traj.t.size == 1191
    for i in np.linspace(0, traj.t.size - 1, 40).astype(int):
        for t_x, photons in ((traj.t_A[i], a_photons), (traj.t_B[i], b_photons)):
            time, _ = quad(lambda v: math.exp(v - g_scalar(photons + math.expm1(v) / 2)),
                           0.0, math.log1p(t_x), epsabs=1e-13, epsrel=1e-13, limit=200)
            assert time == pytest.approx(traj.t[i], abs=1e-9 * max(1.0, traj.t[i]))


@pytest.mark.parametrize("t_max, size", [(200.0, 1191), (10.0, 1001), (10.5, 1002),
                                         (5.0, 501), (5.005, 502), (0.07, 8),
                                         (0.001, 2)])
def test_ratio_trajectory_record_grid(t_max, size):
    t = inequalities._record_times(t_max)
    assert t.size == size and t[0] == 0.0 and t[-1] == t_max
    assert np.all(np.diff(t) > 0)
    assert np.allclose(np.diff(t[t <= min(t_max, 10.0)])[:-1], 0.01, rtol=0, atol=1e-12)


def test_ratio_trajectory_runs_up_to_its_cap():
    traj = ratio_trajectory(GaussianState.vacuum(), GaussianState.vacuum(),
                            MixingParams.amplifier(2.0), t_max=inequalities.TRAJECTORY_T_MAX)
    assert traj.t[-1] == inequalities.TRAJECTORY_T_MAX
    assert np.isfinite(traj.t_C).all() and np.isfinite(traj.ratio).all()
    with pytest.raises(DomainError, match="t_max must be in"):
        ratio_trajectory(GaussianState.vacuum(), GaussianState.vacuum(),
                         MixingParams.amplifier(2.0),
                         t_max=math.nextafter(inequalities.TRAJECTORY_T_MAX, math.inf))


def test_ratio_trajectory_overflow_is_integration_error():
    # t_X grows at the rate e^{S_X}: from thermal(1e6) it leaves the floats
    # before t = 500, from thermal(1e3) it stays inside them
    p = MixingParams.beam_splitter(0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(inequalities.IntegrationError, match="overflow"):
            ratio_trajectory(GaussianState.thermal(1e6), GaussianState.vacuum(), p,
                             t_max=500.0)
        traj = ratio_trajectory(GaussianState.thermal(1e3), GaussianState.vacuum(), p,
                                t_max=500.0)
    assert np.isfinite(traj.t_C).all() and np.isfinite(traj.ratio).all()
    assert traj.t_C[-1] == pytest.approx(1.36e298, rel=1e-2)


def test_ratio_trajectory_failed_solve_raises(monkeypatch):
    import scipy.integrate

    class Failed:
        success, message = False, "step size too small"
    monkeypatch.setattr(scipy.integrate, "solve_ivp", lambda *args, **kw: Failed())
    with pytest.raises(inequalities.IntegrationError, match="step size too small"):
        ratio_trajectory(GaussianState.vacuum(), GaussianState.vacuum(),
                         MixingParams.beam_splitter(0.5), t_max=1.0)


def test_asymptotic_vacuum():
    rep = asymptotic_check(GaussianState.vacuum(), [10.0, 100.0, 1000.0])
    assert rep.upper_bound_holds
    assert rep.ratio_within_tolerance
    assert abs(rep.ratio_to_linear[-1]) < abs(rep.ratio_to_linear[0])


def test_asymptotic_squeezed():
    state = random_gaussian_state(1, 7, nu_max=4.0, r_max=1.0)
    rep = asymptotic_check(state, [50.0, 500.0])
    assert rep.upper_bound_holds
    assert rep.ratio_within_tolerance
    with pytest.raises(DomainError):
        asymptotic_check(state, [-1.0])


def test_suite_beam_splitter_clean():
    summary = random_qepi_suite(300, 11, MixingParams.beam_splitter(0.5))
    assert summary.failures == []
    assert summary.min_qepi_slack >= -1e-9
    assert summary.min_linear_slack >= -1e-9
    assert summary.photon_gap_floor_ok
    assert sum(summary.gap_histogram) == 300


def test_suite_amplifier_clean():
    summary = random_qepi_suite(300, 12, MixingParams.amplifier(2.0))
    assert summary.failures == []
    assert summary.min_qepi_slack >= -1e-9


def test_suite_deterministic():
    a = random_qepi_suite(50, 3, MixingParams.beam_splitter(0.3))
    b = random_qepi_suite(50, 3, MixingParams.beam_splitter(0.3))
    assert a.to_dict() == b.to_dict()


def test_suite_with_stam():
    summary = random_qepi_suite(100, 5, MixingParams.beam_splitter(0.5),
                                with_stam=True)
    assert summary.failures == []
    assert summary.min_stam_slack >= -1e-9
    assert summary.to_dict()["stam_skipped"] == summary.stam_skipped
    assert random_qepi_suite(10, 5, MixingParams.beam_splitter(0.5)).stam_skipped == 0


@pytest.mark.parametrize("params", [MixingParams.beam_splitter(0.5),
                                    MixingParams.amplifier(1.5)])
def test_suite_counts_stam_skips(params):
    # near-pure draws: some trials skip, some do not; count them per trial
    # with the per-trial rule, a DivergenceError from any of A, B and C
    trials, seed, nu_max = 60, 4, 1.0 + 1e-5
    want = 0
    for idx in range(trials):
        a, b = (random_gaussian_state(
            1, np.random.default_rng(np.random.SeedSequence((seed, idx, k))),
            nu_max=nu_max) for k in (0, 1))
        try:
            for state in (a, b, mix(a, b, params)):
                fisher_total_gaussian(state)
        except DivergenceError:
            want += 1
    summary = random_qepi_suite(trials, seed, params, nu_max=nu_max, with_stam=True)
    assert 0 < want < trials
    assert summary.stam_skipped == want
    assert summary.failures == []


@pytest.mark.xfail(strict=True, reason=(
    "the forward-difference Gaussian Fisher route (h = 1e-3) loses relative "
    "accuracy as nu grows: trial 699 reads a Stam slack of -0.106 where the "
    "closed form ln((nu+1)/(nu-1)) tr(gamma)/nu gives +0.093; ROADMAP item 1"))
def test_suite_stam_large_nu_no_false_violation():
    summary = random_qepi_suite(2000, 0, MixingParams.amplifier(2.0), nu_max=1e5,
                                with_stam=True)
    assert summary.failures == []


def test_suite_stam_propagates_unexpected_errors(monkeypatch):
    # only a diverging Fisher information skips a draw; any other error is a bug
    def broken(state):
        raise ValueError("broken Fisher route")

    monkeypatch.setattr(inequalities, "fisher_total_gaussian", broken)
    with pytest.raises(ValueError, match="broken Fisher route"):
        random_qepi_suite(5, 5, MixingParams.beam_splitter(0.5), with_stam=True)


def test_suite_degenerate_vacuum_generator():
    # nu_max = 1, r_max = 0 draws only the vacuum; qEPI saturates exactly
    summary = random_qepi_suite(20, 0, MixingParams.beam_splitter(0.5),
                                nu_max=1.0, r_max=0.0)
    assert summary.failures == []
    assert summary.min_qepi_slack == pytest.approx(0.0, abs=1e-12)
    # pure states are out of Stam's domain: every trial is skipped
    summary = random_qepi_suite(20, 0, MixingParams.beam_splitter(0.5),
                                nu_max=1.0, r_max=0.0, with_stam=True)
    assert summary.stam_skipped == 20
    assert summary.min_stam_slack == math.inf
    with pytest.raises(DomainError):
        random_qepi_suite(0, 0, MixingParams.beam_splitter(0.5))


def _replay_pair(seed, idx, **kwargs):
    """Trial idx of a seeded suite, drawn alone."""
    return [random_gaussian_state(
        1, np.random.default_rng(np.random.SeedSequence((seed, idx, k))), **kwargs)
        for k in (0, 1)]


def test_suite_states_equal_per_trial_replay(monkeypatch):
    # one draw per chunk; the second chunk holds one trial
    drawn = []

    def recording(*args, **kwargs):
        state = random_gaussian_state(*args, **kwargs)
        drawn.append(state.gamma)
        return state

    monkeypatch.setattr(inequalities, "random_gaussian_state", recording)
    trials, seed = inequalities.SUITE_CHUNK + 1, 2
    random_qepi_suite(trials, seed, MixingParams.beam_splitter(0.5), nu_max=5.0)
    assert [g.shape for g in drawn] == [(trials - 1, 2, 2, 2), (1, 2, 2, 2)]
    gammas = np.concatenate(drawn)
    for idx in range(trials):
        a, b = _replay_pair(seed, idx, nu_max=5.0)
        assert np.array_equal(gammas[idx, 0], a.gamma)
        assert np.array_equal(gammas[idx, 1], b.gamma)


@pytest.mark.parametrize("params", [MixingParams.beam_splitter(0.3),
                                    MixingParams.amplifier(1.5)])
def test_suite_chunking_leaves_summary_unchanged(params, monkeypatch):
    whole = random_qepi_suite(40, 9, params, with_stam=True).to_dict()
    monkeypatch.setattr(inequalities, "SUITE_CHUNK", 7)
    assert random_qepi_suite(40, 9, params, with_stam=True).to_dict() == whole


@pytest.mark.parametrize("with_stam", [False, True])
def test_suite_takes_one_spectrum_of_each_chunk(with_stam, monkeypatch):
    # the A/B/C stack of a chunk is decomposed once by the suite; with Stam
    # the Fisher route decomposes its full-rank rows once more, and their
    # three noisy copies in one stacked call
    shapes = []
    original = symplectic.symplectic_eigenvalues

    def counting(state):
        shapes.append(state.gamma.shape)
        return original(state)

    monkeypatch.setattr(symplectic, "symplectic_eigenvalues", counting)
    monkeypatch.setattr(fisher, "symplectic_eigenvalues", counting)
    monkeypatch.setattr(inequalities, "SUITE_CHUNK", 7)
    summary = random_qepi_suite(20, 4, MixingParams.amplifier(2.0), with_stam=with_stam)
    chunks = [(7, 3, 2, 2), (7, 3, 2, 2), (6, 3, 2, 2)]
    if not with_stam:
        assert shapes == chunks
        return
    assert len(shapes) == 3 * len(chunks)
    assert shapes[0::3] == chunks
    rows = [shape[0] for shape in shapes[1::3]]
    assert sum(rows) == 20 - summary.stam_skipped
    assert shapes[1::3] == [(r, 3, 2, 2) for r in rows]
    assert shapes[2::3] == [(3, r, 3, 2, 2) for r in rows]


def _trial_reports(seed, idx, params, mixer=mix):
    """Every check of one replayed trial, from the scalar predicates."""
    a, b = _replay_pair(seed, idx)
    c = mixer(a, b, params)
    s_a, s_b, s_c = entropy(a), entropy(b), entropy(c)
    reports = {"qepi": qepi_check(s_a, s_b, s_c, 1, params),
               "linear": linear_check(s_a, s_b, s_c, 1, params)}
    n_a, n_b, n_c = g_inv(np.array([s_a, s_b, s_c])).tolist()
    if params.kind == "beam_splitter":
        reports["epni_floor"] = epni_gap(n_a, n_b, n_c, params.lambda_A)
    abc = GaussianState(1, np.stack([a.gamma, b.gamma, c.gamma]), validate=False)
    if np.all(full_rank(abc)):
        reports["stam"] = stam_check(*fisher_total_gaussian(abc).tolist(), params)
    return reports


@pytest.mark.parametrize("params", [MixingParams.beam_splitter(0.3),
                                    MixingParams.amplifier(2.0)])
def test_suite_witness_is_first_minimum_of_replayed_trials(params):
    seed, trials = 6, 80
    summary = random_qepi_suite(trials, seed, params, with_stam=True)
    slacks = {"qepi": [], "linear": [], "stam": [], "epni_floor": []}
    for idx in range(trials):
        for name, rep in _trial_reports(seed, idx, params).items():
            value = rep.inputs["gap"] if name == "epni_floor" else rep.slack
            slacks[name].append((value, idx))
    for name, value, trial in (
            ("qepi", summary.min_qepi_slack, summary.min_qepi_trial),
            ("linear", summary.min_linear_slack, summary.min_linear_trial),
            ("stam", summary.min_stam_slack, summary.min_stam_trial),
            ("epni_floor", summary.min_photon_gap, summary.min_photon_gap_trial)):
        if not slacks[name]:
            assert value == math.inf and trial is None
            continue
        assert (value, trial) == min(slacks[name])
    assert summary.to_dict()["min_qepi_trial"] == summary.min_qepi_trial


def test_suite_failures_are_scalar_reports_in_trial_order(monkeypatch):
    # a lossy mix leaves the output too pure, so checks fail; each failure
    # is the scalar report of its trial, ordered by trial, then check
    def lossy(a, b, p):
        c = mix(a, b, p)
        return GaussianState(1, 0.7 * c.gamma + 0.3 * np.eye(2), validate=False)

    monkeypatch.setattr(inequalities, "mix", lossy)
    params, seed = MixingParams.beam_splitter(0.5), 3
    summary = random_qepi_suite(40, seed, params, with_stam=True)
    want = [rep.to_dict() | {"trial": idx} for idx in range(40)
            for rep in _trial_reports(seed, idx, params, lossy).values()
            if not rep.holds]
    assert len(want) > 40
    assert summary.failures == want


def test_predicates_take_arrays():
    rng = np.random.default_rng(0)
    s = rng.uniform(0.0, 3.0, size=(3, 30))
    n = g_inv(s)
    for params in (MixingParams.beam_splitter(0.3), MixingParams.amplifier(2.0)):
        # (check, its report over all 30 columns, its float arguments for one)
        reports = [(check, check(*s, 1, params), lambda x: (*x.tolist(), 1, params))
                   for check in (qepi_check, linear_check)]
        reports.append((stam_check, stam_check(*(s + 0.1), params),
                        lambda x: (*(x + 0.1).tolist(), params)))
        if params.kind == "beam_splitter":
            reports.append((epni_gap, epni_gap(*n, 0.3),
                            lambda x: (*g_inv(x).tolist(), 0.3)))
        for check, rep, args in reports:
            assert rep.slack.shape == rep.holds.shape == (30,)
            for i in range(30):
                one = check(*args(s[:, i]))
                assert type(one.slack) is float and type(one.holds) is bool
                assert rep.row(i) == one
        gaps = amplifier_photon_gap(*n, params.lambda_A)
        assert gaps[4] == amplifier_photon_gap(*n[:, 4].tolist(), params.lambda_A)
    with pytest.raises(DomainError):
        qepi_check(s[0], -s[1], s[2], 1, MixingParams.beam_splitter(0.5))
