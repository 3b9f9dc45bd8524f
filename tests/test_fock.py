import functools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from qepi import fock
from qepi.channels import BEAM_SPLITTER, MixingParams
from qepi.symplectic import DomainError, g

G_HALF = 0.9547712524422192

BS_DIM = 35
AMP_DIM = 40


def test_vacuum_and_fock_states():
    vac = fock.vacuum_state(10)
    assert fock.vn_entropy(vac) == pytest.approx(0.0, abs=1e-12)
    assert np.linalg.matrix_rank(vac.rho) == 1
    two = fock.fock_state(2, 10)
    assert fock.vn_entropy(two) == pytest.approx(0.0, abs=1e-12)
    assert math.copysign(1.0, fock.vn_entropy(fock.fock_state(1, 10))) == 1.0
    n_op = np.diag(np.arange(10.0)).astype(complex)
    assert fock.expectation(two, n_op) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(fock.CutoffError):
        fock.fock_state(10, 10)


def test_thermal_state_entropy():
    thermal = fock.thermal_state(1.0, 60)
    assert fock.vn_entropy(thermal) == pytest.approx(2.0 * math.log(2.0), abs=1e-8)
    assert fock.trace_leak(thermal) < 1e-10
    with pytest.raises(fock.CutoffError):
        fock.thermal_state(2.0, 8)


def test_coherent_state():
    alpha = 1.2 + 0.4j
    coh = fock.coherent_state(alpha, 40)
    assert fock.vn_entropy(coh) == pytest.approx(0.0, abs=1e-10)
    a = fock.ladder(40)
    q_op = (a + a.conj().T) / math.sqrt(2.0)
    assert fock.expectation(coh, q_op) == pytest.approx(
        math.sqrt(2.0) * alpha.real, abs=1e-9)


def test_squeezed_thermal_state():
    st = fock.squeezed_thermal_state(0.4, 0.5, 50)
    # squeezing is unitary, entropy stays g(0.5)
    assert fock.vn_entropy(st) == pytest.approx(g(0.5), abs=1e-8)


def test_two_mode_mix_vacuum_fixed_point():
    vac = fock.vacuum_state(BS_DIM)
    out = fock.two_mode_mix(vac, vac, MixingParams.beam_splitter(0.7))
    assert abs(out.rho[0, 0] - 1.0) < 1e-10


def test_two_mode_mix_matches_gaussian_closed_form():
    thermal = fock.thermal_state(1.0, BS_DIM)
    vac = fock.vacuum_state(BS_DIM)
    out = fock.two_mode_mix(thermal, vac, MixingParams.beam_splitter(0.5))
    assert fock.vn_entropy(out) == pytest.approx(G_HALF, abs=1e-6)


def test_two_mode_mix_amplifier_matches_closed_form():
    vac = fock.vacuum_state(AMP_DIM)
    out = fock.two_mode_mix(vac, vac, MixingParams.amplifier(2.0))
    assert fock.vn_entropy(out) == pytest.approx(2.0 * math.log(2.0), abs=1e-6)


@pytest.mark.parametrize("lam", [0.3, 0.5, 0.9])
def test_oracle_gaussian_agreement_beam_splitter(lam):
    thermal = fock.thermal_state(0.8, BS_DIM)
    coh = fock.coherent_state(0.7, BS_DIM)
    out = fock.two_mode_mix(thermal, coh, MixingParams.beam_splitter(lam))
    # Gaussian prediction: nu_C = lam (2*0.8+1) + (1-lam) * 1
    nu_c = lam * 2.6 + (1.0 - lam)
    assert fock.vn_entropy(out) == pytest.approx(g((nu_c - 1.0) / 2.0), abs=1e-5)


@pytest.mark.parametrize("kappa", [1.5, 2.0])
def test_oracle_gaussian_agreement_amplifier(kappa):
    dim = 55  # kappa = 2 more than doubles the energy of thermal(0.5)
    thermal = fock.thermal_state(0.5, dim)
    vac = fock.vacuum_state(dim)
    out = fock.two_mode_mix(thermal, vac, MixingParams.amplifier(kappa))
    nu_c = kappa * 2.0 + (kappa - 1.0)
    assert fock.vn_entropy(out) == pytest.approx(g((nu_c - 1.0) / 2.0), abs=1e-5)


def test_two_mode_mix_cutoff_gate():
    # the leak is the joint output population of the top Fock layer of
    # either mode plus the trace deficit
    dim = 12
    vac = fock.vacuum_state(dim)
    pops = 0.5 ** np.arange(dim)
    hot = fock.FockDensityMatrix(1, dim, np.diag(pops / pops.sum()).astype(complex))
    cases = [(vac, vac, MixingParams.amplifier(2.0)),
             (hot, vac, MixingParams.beam_splitter(0.5)),
             (fock.fock_state(2, dim), hot, MixingParams.amplifier(1.1)),
             (hot, fock.coherent_state(1.0, dim), MixingParams.beam_splitter(0.3))]
    for rho_a, rho_b, p in cases:
        with pytest.raises(fock.CutoffError) as err:
            fock.two_mode_mix(rho_a, rho_b, p, leak_tol=1e-10)
        joint = np.diagonal(_dense_joint(rho_a, rho_b, p)).real.reshape(dim, dim)
        top = joint[-1, :].sum() + joint[:, -1].sum() - joint[-1, -1]
        assert err.value.leak == pytest.approx(top + abs(1.0 - joint.sum()),
                                               rel=0.0, abs=1e-12)
        assert err.value.leak > 1e-10


def test_vn_entropy_maximally_mixed():
    rho = fock.FockDensityMatrix(1, 4, np.eye(4, dtype=complex) / 4.0)
    assert fock.vn_entropy(rho) == pytest.approx(math.log(4.0), abs=1e-12)


def test_relative_entropy_cases():
    thermal = fock.thermal_state(1.0, 30)
    assert fock.relative_entropy(thermal, thermal) == pytest.approx(0.0, abs=1e-10)
    theta = 0.3
    displaced = fock.displace_fock(thermal, "q", theta)
    # analytic: |alpha|^2 ln((N+1)/N) with |alpha|^2 = theta^2 / 2
    expected = (theta ** 2 / 2.0) * math.log(2.0)
    assert fock.relative_entropy(thermal, displaced) == pytest.approx(
        expected, abs=1e-6)
    assert fock.relative_entropy(fock.fock_state(0, 10),
                                 fock.fock_state(1, 10)) == math.inf
    with pytest.raises(DomainError):
        fock.relative_entropy(thermal, fock.fock_state(0, 10))


def test_relative_entropy_nonnegative_random():
    rng = np.random.default_rng(4)
    for _ in range(10):
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        sig = m @ m.conj().T
        sig /= np.trace(sig).real
        val = fock.relative_entropy(fock.FockDensityMatrix(1, 8, rho),
                                    fock.FockDensityMatrix(1, 8, sig))
        assert val >= -1e-10


def test_liouville_evolve_identity_and_gaussian_agreement():
    vac = fock.vacuum_state(60)
    assert fock.liouville_evolve(vac, 0.0) is vac
    evolved = fock.liouville_evolve(vac, 2.0)
    assert fock.vn_entropy(evolved) == pytest.approx(2.0 * math.log(2.0), abs=1e-5)
    assert abs(np.trace(evolved.rho).real - 1.0) < 1e-8


def test_liouville_evolve_semigroup():
    thermal = fock.thermal_state(0.5, 40)
    one = fock.liouville_evolve(fock.liouville_evolve(thermal, 0.4), 0.6)
    direct = fock.liouville_evolve(thermal, 1.0)
    assert fock.trace_distance(one, direct) < 1e-6


def test_liouville_evolve_fock_input():
    one = fock.fock_state(1, 40)
    evolved = fock.liouville_evolve(one, 0.5)
    assert fock.vn_entropy(evolved) > 0.0
    assert abs(np.trace(evolved.rho).real - 1.0) < 1e-8


def _random_state(rng, dim, rank=None):
    rank = dim if rank is None else rank
    m = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = m @ m.conj().T
    return fock.FockDensityMatrix(1, dim, rho / np.trace(rho).real)


def _random_diagonal(rng, dim):
    pops = rng.random(dim)
    return fock.FockDensityMatrix(1, dim, np.diag(pops / pops.sum()).astype(complex))


@functools.lru_cache(maxsize=None)
def _dense_unitary(p, dim):
    """Reference: expm of the dense generator on the dim^2 product space."""
    a = fock.ladder(dim)
    op_a, op_b = np.kron(a, np.eye(dim)), np.kron(np.eye(dim), a)
    if p.kind == BEAM_SPLITTER:
        theta = math.atan(math.sqrt((1.0 - p.lambda_A) / p.lambda_A))
        gen = theta * (op_a.conj().T @ op_b - op_a @ op_b.conj().T)
    else:
        r = math.atanh(math.sqrt((p.lambda_A - 1.0) / p.lambda_A))
        gen = r * (op_a.conj().T @ op_b.conj().T - op_a @ op_b)
    return sla.expm(gen)


def _dense_joint(rho_a, rho_b, p):
    u = _dense_unitary(p, rho_a.dim)
    return u @ np.kron(rho_a.rho, rho_b.rho) @ u.conj().T


def _dense_mix(rho_a, rho_b, p):
    dim = rho_a.dim
    out = np.einsum("ijkj->ik", _dense_joint(rho_a, rho_b, p).reshape(dim, dim, dim, dim))
    return out / np.trace(out).real


@pytest.mark.parametrize("params", [MixingParams.beam_splitter(0.3),
                                    MixingParams.beam_splitter(0.9),
                                    MixingParams.amplifier(1.1),
                                    MixingParams.amplifier(2.0),
                                    MixingParams.amplifier(16.0)])
@pytest.mark.parametrize("dim", [8, 12])
def test_two_mode_mix_matches_dense_reference(params, dim):
    rng = np.random.default_rng(dim)
    rho_a, rho_b = _random_state(rng, dim), _random_state(rng, dim)
    cold_a, cold_b = fock.thermal_state(0.005, dim), fock.thermal_state(0.001, dim)
    for rho in (cold_a, cold_b):
        evs = np.linalg.eigvalsh(rho.rho)
        assert evs[0] < dim * np.finfo(float).eps * evs[-1]
    # The mix takes about 2 dim product vectors at a time: the full-rank
    # pair spans dim / 2 such chunks and the rank-5 one three (the last
    # partial at dim 8).
    pairs = {"full rank + full rank": (rho_a, rho_b),
             "fock |2> + coherent": (fock.fock_state(2, dim),
                                     fock.coherent_state(0.4 - 0.2j, dim)),
             "rank 2 + full rank": (_random_state(rng, dim, 2), rho_b),
             "thermal weights below dim eps": (cold_a, cold_b),
             "full rank + rank 5": (rho_a, _random_state(rng, dim, 5))}
    # an exactly Fock-diagonal input takes a route of its own
    diag_a, diag_b = _random_diagonal(rng, dim), _random_diagonal(rng, dim)
    pairs.update({"diagonal + full rank": (diag_a, rho_b),
                  "full rank + diagonal": (rho_a, diag_b),
                  "coherent + fock |1>": (fock.coherent_state(0.3j, dim),
                                          fock.fock_state(1, dim)),
                  "diagonal + diagonal": (diag_a, diag_b)})
    cold = {}
    for name, (a, b) in pairs.items():
        fock._sectors.cache_clear()
        cold[name] = fock.two_mode_mix(a, b, params, leak_tol=1.0)
        err = np.max(np.abs(cold[name].rho - _dense_mix(a, b, params)))
        assert err < 1e-12, (name, err)
    # a store that every pair has filled gives the same bits as an empty
    # one, and the blocks it holds are read-only
    for a, b in pairs.values():
        fock.two_mode_mix(a, b, params, leak_tol=1.0)
    for name, (a, b) in pairs.items():
        warm = fock.two_mode_mix(a, b, params, leak_tol=1.0)
        assert np.array_equal(warm.rho, cold[name].rho), name
    store = fock._sectors(params.kind, params.lambda_A, dim)
    blocks = [array for block in store.blocks if block is not None for array in block]
    assert blocks and not any(array.flags.writeable for array in blocks)


def test_two_mode_mix_memory_is_cubic_in_cutoff():
    # the dim^2 x dim^2 joint state alone would take 16 dim^4 bytes, 198 MiB here
    thermal = fock.thermal_state(1.0, 60)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fock.two_mode_mix(thermal, thermal, MixingParams.beam_splitter(0.5))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def _dense_noise_superoperator(dim):
    """Reference: -1/4 ([Q,[Q,.]] + [P,[P,.]]) on row-major vec(rho)."""
    eye = np.eye(dim)
    gen = np.zeros((dim * dim, dim * dim), dtype=complex)
    for op in fock.quadratures(dim):
        sq = op @ op
        gen -= 0.25 * (np.kron(sq, eye) + np.kron(eye, sq.T) - 2.0 * np.kron(op, op.T))
    return gen


@pytest.mark.parametrize("t", [0.01, 0.7, 3.0])
def test_liouville_evolve_matches_dense_reference(t):
    # the Fock-diagonal input takes the path that skips its zero bands
    dim = 10
    rho = _random_state(np.random.default_rng(7), dim)
    diagonal = fock.FockDensityMatrix(1, dim, np.diag(np.diag(rho.rho)))
    for state in (rho, diagonal):
        want = sla.expm(t * _dense_noise_superoperator(dim)) @ state.rho.reshape(-1)
        got = fock.liouville_evolve(state, t)
        assert np.max(np.abs(got.rho - want.reshape(dim, dim))) < 1e-12
        assert abs(np.trace(got.rho).real - 1.0) < 1e-12
    assert np.count_nonzero(got.rho - np.diag(np.diag(got.rho))) == 0


@pytest.mark.parametrize("t", [0.01, 0.7, 3.0])
def test_liouville_evolve_thermal_stays_thermal(t):
    # additive noise for time t adds t/2 photons to a thermal state
    dim = 120
    got = fock.liouville_evolve(fock.thermal_state(0.7, dim), t)
    want = fock.thermal_state(0.7 + t / 2.0, dim)
    assert np.max(np.abs(got.rho - want.rho)) < 1e-12
    assert abs(np.trace(got.rho).real - 1.0) < 1e-12


def test_displace_fock_properties():
    vac = fock.vacuum_state(40)
    same = fock.displace_fock(vac, "q", 0.0)
    assert np.allclose(same.rho, vac.rho, atol=1e-12)
    theta = 0.8
    moved = fock.displace_fock(vac, "q", theta)
    q_op, _ = fock.quadratures(40)
    assert fock.expectation(moved, q_op) == pytest.approx(theta, abs=1e-8)
    assert fock.vn_entropy(moved) == pytest.approx(0.0, abs=1e-10)
    thermal = fock.thermal_state(1.0, 40)
    shifted = fock.displace_fock(thermal, "p", 0.5)
    assert fock.vn_entropy(shifted) == pytest.approx(fock.vn_entropy(thermal),
                                                     abs=1e-10)


def test_trace_leak():
    assert fock.trace_leak(fock.vacuum_state(10)) == pytest.approx(0.0, abs=1e-14)
    assert fock.trace_leak(fock.thermal_state(1.0, 60)) < 1e-10
    top = fock.fock_state(9, 10)
    assert fock.trace_leak(top) == pytest.approx(1.0, abs=1e-12)


def test_density_matrix_validation():
    with pytest.raises(fock.NumericError):
        fock.FockDensityMatrix(1, 4, np.diag([0.5, 0.5, 0.5, -0.5]).astype(complex))
    with pytest.raises(fock.NumericError):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 1] = 1.0
        m[0, 0] = 1.0
        fock.FockDensityMatrix(1, 4, m)
    with pytest.raises(DomainError):
        fock.FockDensityMatrix(3, 4, np.eye(64, dtype=complex) / 64.0)
    with pytest.raises(DomainError):
        fock.FockDensityMatrix(2, 4, np.eye(16, dtype=complex) / 16.0)
