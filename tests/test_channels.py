import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qepi import fock
from qepi.channels import (AMPLIFIER, MixingParams, add_noise, mix,
                           noise_commutation_check, time_reversal_matrix,
                           time_reverse)
from qepi.symplectic import (PHYSICALITY_TOL, DomainError, GaussianState,
                             ValidationError, entropy, g, random_gaussian_state,
                             symplectic_eigenvalues)


def test_mixing_params_validation():
    p = MixingParams.beam_splitter(0.3)
    assert p.lambda_A + p.lambda_B == pytest.approx(1.0)
    q = MixingParams.amplifier(2.5)
    assert q.lambda_A - q.lambda_B == pytest.approx(1.0)
    with pytest.raises(DomainError):
        MixingParams.beam_splitter(1.2)
    with pytest.raises(DomainError):
        MixingParams.amplifier(0.9)
    with pytest.raises(DomainError):
        MixingParams.amplifier(17.0)
    with pytest.raises(DomainError):
        MixingParams("other", 1.0, 0.0)


def test_time_reversal_matrix_involution():
    t = time_reversal_matrix(3)
    assert np.array_equal(t, t.T)
    assert np.allclose(t @ t, np.eye(6))


def test_mix_vacuum_fixed_point():
    vac = GaussianState.vacuum()
    out = mix(vac, vac, MixingParams.beam_splitter(0.37))
    assert np.allclose(out.gamma, np.eye(2))


def test_mix_thermal_vacuum_closed_form():
    out = mix(GaussianState.thermal(1.0), GaussianState.vacuum(),
              MixingParams.beam_splitter(0.5))
    assert np.allclose(out.gamma, 2.0 * np.eye(2))
    assert entropy(out) == pytest.approx(g(0.5), abs=1e-12)


def test_mix_amplifier_vacuum_closed_form():
    out = mix(GaussianState.vacuum(), GaussianState.vacuum(),
              MixingParams.amplifier(2.0))
    assert np.allclose(out.gamma, 3.0 * np.eye(2))
    assert entropy(out) == pytest.approx(2.0 * math.log(2.0), abs=1e-12)


def test_mix_identity_limits():
    a = random_gaussian_state(1, 1, nu_max=5.0)
    b = random_gaussian_state(1, 2, nu_max=5.0)
    assert np.allclose(mix(a, b, MixingParams.beam_splitter(1.0)).gamma, a.gamma)
    assert np.allclose(mix(a, b, MixingParams.beam_splitter(0.0)).gamma, b.gamma)
    assert np.allclose(mix(a, b, MixingParams.amplifier(1.0)).gamma, a.gamma)


def test_mix_mode_count_mismatch():
    with pytest.raises(ValidationError):
        mix(GaussianState.vacuum(1), GaussianState.vacuum(2),
            MixingParams.beam_splitter(0.5))


def test_add_noise_semigroup_exact():
    state = random_gaussian_state(1, 9, nu_max=4.0)
    assert np.array_equal(add_noise(state, 0.0).gamma, state.gamma)
    two_step = add_noise(add_noise(state, 0.3), 0.7)
    one_step = add_noise(state, 1.0)
    assert np.array_equal(two_step.gamma, one_step.gamma)
    assert entropy(add_noise(GaussianState.vacuum(), 2.0)) == pytest.approx(
        2.0 * math.log(2.0), abs=1e-12)
    with pytest.raises(DomainError):
        add_noise(state, -0.1)
    with pytest.raises(DomainError):
        add_noise(state, [0.5, -0.1])
    # an array of times broadcasts against the stack axes
    noisy = add_noise(state, [[0.3], [1.0]])
    assert noisy.gamma.shape == (2, 1, 2, 2)
    assert np.array_equal(noisy.gamma[1, 0], one_step.gamma)


def test_entropy_nondecreasing_under_noise():
    state = random_gaussian_state(1, 13, nu_max=6.0, r_max=1.0)
    values = [entropy(add_noise(state, t)) for t in np.linspace(0.0, 5.0, 21)]
    assert np.all(np.diff(values) >= -1e-12)


@given(st.integers(min_value=0, max_value=10 ** 6),
       st.floats(min_value=0.05, max_value=0.95),
       st.floats(min_value=0.0, max_value=3.0),
       st.floats(min_value=0.0, max_value=3.0))
@settings(max_examples=50, deadline=None)
def test_noise_commutation_beam_splitter(seed, lam, t_a, t_b):
    a = random_gaussian_state(1, seed, nu_max=8.0, r_max=1.0)
    b = random_gaussian_state(1, seed + 1, nu_max=8.0, r_max=1.0)
    rec = noise_commutation_check(a, b, MixingParams.beam_splitter(lam), t_a, t_b)
    assert rec.equal
    assert rec.t_C == pytest.approx(lam * t_a + (1.0 - lam) * t_b, abs=1e-12)


def test_noise_commutation_amplifier():
    a = random_gaussian_state(1, 21, nu_max=5.0)
    b = random_gaussian_state(1, 22, nu_max=5.0)
    rec = noise_commutation_check(a, b, MixingParams.amplifier(1.5), 2.0, 1.0)
    assert rec.equal
    assert rec.t_C == pytest.approx(3.5)


def test_displacement_mixes_with_weights():
    # in Fock space: translating the inputs by w_A theta and w_B theta, then
    # mixing, equals mixing, then translating by w_C theta with
    # w_C = sqrt(lam_A) w_A + s sqrt(lam_B) w_B; s = -1 only for the
    # amplifier along p, where the time-reversed B port flips its P shift
    rho_a, rho_b = fock.thermal_state(0.5, 40), fock.fock_state(1, 40)
    w_a, w_b, theta = 0.7, -1.3, 0.3
    for p in (MixingParams.beam_splitter(0.6), MixingParams.amplifier(1.5)):
        mixed = fock.two_mode_mix(rho_a, rho_b, p)
        for direction in ("q", "p"):
            first = fock.two_mode_mix(fock.displace_fock(rho_a, direction, w_a * theta),
                                      fock.displace_fock(rho_b, direction, w_b * theta), p)
            s = -1.0 if p.kind == AMPLIFIER and direction == "p" else 1.0

            def distance(sign):
                w_c = math.sqrt(p.lambda_A) * w_a + sign * math.sqrt(p.lambda_B) * w_b
                return fock.trace_distance(
                    first, fock.displace_fock(mixed, direction, w_c * theta))

            assert distance(s) <= 1e-7, (p.kind, direction)
            assert distance(-s) > 0.1, (p.kind, direction)


def test_time_reverse_involution_and_entropy():
    thermal = GaussianState.thermal(2.0)
    assert np.array_equal(time_reverse(thermal).gamma, thermal.gamma)
    state = random_gaussian_state(1, 41, nu_max=5.0, r_max=1.2)
    twice = time_reverse(time_reverse(state))
    assert np.array_equal(twice.gamma, state.gamma)
    assert entropy(time_reverse(state)) == pytest.approx(entropy(state), abs=1e-10)


@pytest.mark.parametrize("params", [MixingParams.beam_splitter(0.3),
                                    MixingParams.amplifier(1.5)])
def test_channels_broadcast_over_stacks(params):
    # a stack goes through the channels as its rows do one by one
    a = [random_gaussian_state(1, seed, nu_max=6.0, r_max=1.2) for seed in range(5)]
    b = [random_gaussian_state(1, seed + 100, nu_max=6.0, r_max=1.2)
         for seed in range(5)]
    stack_a = GaussianState(1, [s.gamma for s in a])
    stack_b = GaussianState(1, [s.gamma for s in b])
    mixed, reversed_ = mix(stack_a, stack_b, params), time_reverse(stack_a)
    for k in range(5):
        row = mix(a[k], b[k], params)
        assert np.array_equal(mixed.gamma[k], row.gamma)
        assert np.array_equal(reversed_.gamma[k], time_reverse(a[k]).gamma)
    # one state against a stack broadcasts the single state
    assert np.array_equal(mix(a[0], stack_b, params).gamma[3],
                          mix(a[0], b[3], params).gamma)


@pytest.mark.parametrize("params", [MixingParams.beam_splitter(0.3),
                                    MixingParams.amplifier(2.0)])
def test_physicality_preserved(params):
    for seed in range(300):
        a = random_gaussian_state(1, seed, nu_max=10.0, r_max=1.5)
        b = random_gaussian_state(1, seed + 10 ** 6, nu_max=10.0, r_max=1.5)
        out = mix(a, b, params)
        assert symplectic_eigenvalues(out)[0] >= 1.0 - PHYSICALITY_TOL
        assert symplectic_eigenvalues(add_noise(out, 0.5))[0] >= 1.0 - PHYSICALITY_TOL
