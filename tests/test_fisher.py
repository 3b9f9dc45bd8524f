import math

import numpy as np
import pytest

from qepi import fisher, fock
from qepi.channels import MixingParams, add_noise, mix
from qepi.fisher import (DivergenceError, debruijn_check, fisher_direction_fock,
                         fisher_total_fock, fisher_total_gaussian, full_rank,
                         spectrum_full_rank)
from qepi.inequalities import optimal_weights, stam_check, weighted_fisher_check
from qepi.symplectic import (GaussianState, entropy, random_gaussian_state,
                             symplectic_eigenvalues)

# cutoffs keeping thermal tails full-rank above the 1e-10 eigenvalue gate
FISHER_DIMS = {0.5: 21, 1.0: 30, 2.0: 50}


def thermal_j(mean_photons: float) -> float:
    # analytic anchor: total J of a single thermal mode
    return 2.0 * math.log((mean_photons + 1.0) / mean_photons)


def test_gaussian_route_thermal_anchors():
    assert fisher_total_gaussian(GaussianState.thermal(1.0)) == pytest.approx(
        2.0 * math.log(2.0), rel=1e-6)
    assert fisher_total_gaussian(GaussianState.thermal(0.5)) == pytest.approx(
        2.0 * math.log(3.0), rel=1e-6)


def test_gaussian_route_additive_over_modes():
    single = fisher_total_gaussian(GaussianState.thermal(1.0))
    double = fisher_total_gaussian(GaussianState.thermal(1.0, n=2))
    assert double == pytest.approx(2.0 * single, rel=1e-9)


def test_gaussian_route_rejects_near_pure():
    with pytest.raises(DivergenceError):
        fisher_total_gaussian(GaussianState.vacuum())
    # one near-pure row is enough to refuse a stack
    with pytest.raises(DivergenceError):
        fisher_total_gaussian(GaussianState(1, [3.0 * np.eye(2), np.eye(2)]))
    assert full_rank(GaussianState(1, [3.0 * np.eye(2), np.eye(2)])).tolist() == [
        True, False]


def test_gaussian_route_stack_matches_rows():
    states = [random_gaussian_state(1, seed, nu_max=8.0, r_max=1.0) for seed in range(6)]
    states = [state for state in states if full_rank(state)]
    stack = GaussianState(1, [[state.gamma] * 2 for state in states])
    total = fisher_total_gaussian(stack)
    assert total.shape == (len(states), 2)
    for k, state in enumerate(states):
        one = fisher_total_gaussian(state)
        assert isinstance(one, float)
        assert total[k, 0] == total[k, 1] == pytest.approx(one, rel=1e-12)


def _four_time_total(state: GaussianState, h: float = 1e-3):
    """The Gaussian route with S(0) taken from the noise stack [0, h, h/2, h/4]."""
    times = np.array([0.0, h, h / 2.0, h / 4.0])
    times = times.reshape((4,) + (1,) * (state.gamma.ndim - 2))
    s0, s1, s2, s4 = entropy(add_noise(state, times))
    d1, d2, d4 = (s1 - s0) / h, (s2 - s0) / (h / 2.0), (s4 - s0) / (h / 4.0)
    r1 = 2.0 * d2 - d1
    r2 = 2.0 * d4 - d2
    return 4.0 * (r2 + (r2 - r1) / 3.0)


@pytest.mark.parametrize("n", [1, 2])
def test_gaussian_route_equals_four_time_stack(n):
    keys = np.stack([np.full(600, 41), np.arange(600)], axis=-1)
    stack = random_gaussian_state(n, keys, nu_max=10.0, r_max=2.0)
    stack = GaussianState(n, stack.gamma[full_rank(stack)][:450].reshape(
        (150, 3, 2 * n, 2 * n)), validate=False)
    assert np.array_equal(fisher_total_gaussian(stack), _four_time_total(stack))
    one = GaussianState(n, stack.gamma[7, 1], validate=False)
    assert fisher_total_gaussian(one) == float(_four_time_total(one))


def test_full_rank_is_spectrum_full_rank():
    keys = np.stack([np.full(400, 3), np.arange(400)], axis=-1)
    stack = random_gaussian_state(1, keys, nu_max=1.0 + 3e-6, r_max=1.0)
    mask = full_rank(stack)
    assert 0 < mask.sum() < mask.size
    assert np.array_equal(mask, spectrum_full_rank(symplectic_eigenvalues(stack)))


def test_fock_route_thermal_direction():
    thermal = fock.thermal_state(1.0, FISHER_DIMS[1.0])
    j_q = fisher_direction_fock(thermal, "q")
    j_p = fisher_direction_fock(thermal, "p")
    assert j_q == pytest.approx(math.log(2.0), abs=1e-4)
    assert j_p == pytest.approx(j_q, abs=1e-6)


def test_fock_route_scaling_in_parameter():
    # reparametrizing theta -> c*theta multiplies J by c^2
    thermal = fock.thermal_state(1.0, FISHER_DIMS[1.0])
    c, h = 2.0, fisher.FOCK_STEP

    def j_scaled(step):
        plus = fock.displace_fock(thermal, "q", c * step)
        minus = fock.displace_fock(thermal, "q", -c * step)
        return (fock.relative_entropy(thermal, plus)
                + fock.relative_entropy(thermal, minus)) / step ** 2

    j_c = (4.0 * j_scaled(h / 2.0) - j_scaled(h)) / 3.0
    j_1 = fisher_direction_fock(thermal, "q")
    assert j_c == pytest.approx(c ** 2 * j_1, rel=1e-4)


def test_fock_route_rejects_rank_deficient():
    with pytest.raises(DivergenceError):
        fisher_direction_fock(fock.fock_state(0, 10), "q")


@pytest.mark.parametrize("mean_photons", [0.5, 1.0, 2.0])
def test_route_agreement(mean_photons):
    dim = FISHER_DIMS[mean_photons]
    gauss = fisher_total_gaussian(GaussianState.thermal(mean_photons))
    anchor = thermal_j(mean_photons)
    assert gauss == pytest.approx(anchor, abs=1e-6)
    rho = fock.thermal_state(mean_photons, dim)
    total = fisher_total_fock(rho)
    assert total == pytest.approx(anchor, rel=1e-3)
    assert total == fisher_direction_fock(rho, "q") + fisher_direction_fock(rho, "p")


def test_debruijn_identity_thermal():
    rec = debruijn_check(fock.thermal_state(1.0, FISHER_DIMS[1.0]))
    assert rec.passes
    assert rec.fisher_sum == pytest.approx(2.0 * math.log(2.0), rel=1e-3)
    assert rec.entropy_rate_times_4 == pytest.approx(2.0 * math.log(2.0), rel=1e-3)


def test_debruijn_identity_thermal_two():
    rec = debruijn_check(fock.thermal_state(2.0, FISHER_DIMS[2.0]))
    assert rec.passes
    assert rec.fisher_sum == pytest.approx(2.0 * math.log(1.5), rel=1e-3)


def test_displaced_thermal_same_fisher():
    thermal = fock.thermal_state(1.0, FISHER_DIMS[1.0])
    displaced = fock.displace_fock(thermal, "q", 0.4)
    j_plain = fisher_direction_fock(thermal, "p")
    j_disp = fisher_direction_fock(displaced, "p")
    assert j_disp == pytest.approx(j_plain, rel=1e-4)


def test_stam_equal_thermal_saturates():
    j = thermal_j(1.0)
    rep = stam_check(j, j, j, MixingParams.beam_splitter(0.5))
    assert rep.holds
    assert rep.slack == pytest.approx(0.0, abs=1e-9)


def test_stam_mixed_thermal_example():
    # nu_A = 3, nu_B = 2 at lambda = 1/2 gives nu_C = 2.5
    j_a, j_b = 2.0 * math.log(2.0), 2.0 * math.log(3.0)
    j_c = 2.0 * math.log(3.5 / 1.5)
    rep = stam_check(j_a, j_b, j_c, MixingParams.beam_splitter(0.5))
    assert rep.holds
    assert rep.lhs == pytest.approx(0.5901112505719143, abs=1e-12)
    assert rep.rhs == pytest.approx(0.5882335668789502, abs=1e-12)


def test_stam_amplifier_example():
    j_a = j_b = 2.0 * math.log(2.0)          # thermal nu = 3
    j_c = 2.0 * math.log(10.0 / 8.0)          # nu_C = 2*3 + 1*3 = 9
    rep = stam_check(j_a, j_b, j_c, MixingParams.amplifier(2.0))
    assert rep.holds
    with pytest.raises(DivergenceError):
        stam_check(0.0, j_b, j_c, MixingParams.amplifier(2.0))


def test_weighted_fisher_zero_weights():
    rep = weighted_fisher_check(1.0, 2.0, 3.0, 0.0, 0.0,
                                MixingParams.beam_splitter(0.5))
    assert rep.holds
    assert rep.slack == pytest.approx(0.0, abs=1e-15)


def test_optimal_weights_reduce_to_stam():
    p = MixingParams.beam_splitter(0.5)
    j_a, j_b = 2.0 * math.log(2.0), 2.0 * math.log(3.0)
    j_c = 2.0 * math.log(3.5 / 1.5)
    w_a, w_b = optimal_weights(j_a, j_b, p)
    rep_w = weighted_fisher_check(j_a, j_b, j_c, w_a, w_b, p)
    rep_s = stam_check(j_a, j_b, j_c, p)
    # with optimal weights the weighted slack is w_C * J_C times the Stam slack
    assert rep_w.holds == rep_s.holds
    w_c = math.sqrt(p.lambda_A) * w_a + math.sqrt(p.lambda_B) * w_b
    assert rep_w.slack == pytest.approx(rep_s.slack * w_c * j_c, rel=1e-9)


def test_weighted_fisher_random_gaussian_pairs():
    rng = np.random.default_rng(8)
    p = MixingParams.beam_splitter(0.4)
    for seed in range(100):
        a = random_gaussian_state(1, 2 * seed + 10 ** 5, nu_max=8.0, r_max=1.0)
        b = random_gaussian_state(1, 2 * seed + 1 + 10 ** 5, nu_max=8.0, r_max=1.0)
        try:
            j_a = fisher_total_gaussian(a)
            j_b = fisher_total_gaussian(b)
            j_c = fisher_total_gaussian(mix(a, b, p))
        except DivergenceError:
            continue
        w_a, w_b = rng.normal(size=2)
        assert weighted_fisher_check(j_a, j_b, j_c, w_a, w_b, p).holds

