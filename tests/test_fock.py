import functools
import math
import tracemalloc

import mpmath
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


def test_cutoff_below_one_is_domain_error():
    # a cutoff below 1 is a bad argument (exit 2), not an infeasible one (exit 3)
    for make in (fock.vacuum_state, lambda dim: fock.fock_state(0, dim),
                 lambda dim: fock.thermal_state(0.0, dim),
                 lambda dim: fock.thermal_state(1.0, dim),
                 lambda dim: fock.coherent_state(0.5, dim)):
        for dim in (0, -3):
            with pytest.raises(DomainError, match="^cutoff must be >= 1"):
                make(dim)
    with pytest.raises(fock.CutoffError):
        fock.fock_state(3, 3)


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


def test_two_mode_mix_cutoff_gate(monkeypatch):
    # the amplitudes are exact, so the leak is the joint output mass that
    # leaves the box: the trace deficit of the exact joint output in it
    dim = 12
    vac = fock.vacuum_state(dim)
    pops = 0.5 ** np.arange(dim)
    hot = fock.FockDensityMatrix(np.diag(pops / pops.sum()).astype(complex))
    full = _random_state(np.random.default_rng(12), dim)
    cases = [(vac, vac, MixingParams.amplifier(2.0)),
             (fock.fock_state(2, dim), hot, MixingParams.amplifier(1.1)),
             (hot, fock.coherent_state(1.0, dim), MixingParams.beam_splitter(0.3)),
             # neither input diagonal: the pure-component route
             (fock.coherent_state(1.0, dim), full, MixingParams.beam_splitter(0.7))]
    # the states above are built under the default gate, the mixes below
    # under one that each of them fails
    monkeypatch.setattr(fock, "LEAK_TOL", 1e-10)
    for rho_a, rho_b, p in cases:
        with pytest.raises(fock.CutoffError) as err:
            fock.two_mode_mix(rho_a, rho_b, p)
        mass = np.trace(_exact_joint(rho_a, rho_b, p)).real
        assert err.value.leak == pytest.approx(abs(1.0 - mass), rel=0.0, abs=1e-12)
        assert err.value.leak > 1e-10
    assert not fock._is_diagonal(cases[-1][0].rho) and not fock._is_diagonal(full.rho)
    # the beam splitter conserves photon number: hot x vacuum stays in the
    # box, which the top-layer gate of truncated blocks refused
    out = fock.two_mode_mix(hot, vac, MixingParams.beam_splitter(0.5))
    assert np.max(np.abs(out.rho - _exact_mix(hot, vac, MixingParams.beam_splitter(0.5)))) < 1e-12
    # vacuum x vacuum through amplifier(2) is thermal(1), which puts 2^-dim
    # above the cutoff
    with pytest.raises(fock.CutoffError) as err:
        fock.two_mode_mix(vac, vac, MixingParams.amplifier(2.0))
    assert err.value.leak == pytest.approx(0.5 ** dim, rel=1e-12)


def test_vn_entropy_maximally_mixed():
    rho = fock.FockDensityMatrix(np.eye(4, dtype=complex) / 4.0)
    assert fock.vn_entropy(rho) == pytest.approx(math.log(4.0), abs=1e-12)


def test_xlogx_terms_match_scipy_xlogy_bitwise():
    from scipy.special import xlogy
    rng = np.random.default_rng(20141017)
    x = np.concatenate([rng.random(50_000),
                        np.exp(rng.uniform(math.log(5e-324), 0.0, 50_000)),
                        np.zeros(8), [5e-324, 2.2e-308, 0.5, 1.0]])
    assert np.array_equal(fock._xlogx(x), xlogy(x, x))
    assert np.isnan(fock._xlogx(np.array([0.5, np.nan]))[1])


@pytest.mark.parametrize("make", [
    lambda: fock.thermal_state(1.0, 30),
    lambda: fock.coherent_state(0.8 + 0.3j, 30),
    lambda: fock.squeezed_thermal_state(0.4, 0.5, 40),
    lambda: fock.fock_state(3, 10),
    lambda: fock.two_mode_mix(fock.thermal_state(1.0, 30), fock.coherent_state(0.5, 30),
                              MixingParams.beam_splitter(0.3))])
def test_entropies_keep_the_bits_of_xlogy(make, monkeypatch):
    from scipy.special import xlogy
    rho = make()
    evs = np.maximum(np.linalg.eigvalsh(rho.rho), 0.0)
    assert fock.vn_entropy(rho) == 0.0 - float(np.sum(xlogy(evs, evs)))
    sigma = fock.FockDensityMatrix(np.eye(rho.dim, dtype=complex) / rho.dim)
    got = fock.relative_entropy(rho, sigma)
    monkeypatch.setattr(fock, "_xlogx", lambda x: xlogy(x, x))
    assert got == fock.relative_entropy(rho, sigma)


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
        val = fock.relative_entropy(fock.FockDensityMatrix(rho),
                                    fock.FockDensityMatrix(sig))
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
    return fock.FockDensityMatrix(rho / np.trace(rho).real)


def _random_diagonal(rng, dim):
    pops = rng.random(dim)
    return fock.FockDensityMatrix(np.diag(pops / pops.sum()).astype(complex))


# The exact references below share no code with qepi's recurrence.  The
# beam splitter conserves n_A + n_B, so every sector that meets the box
# of REF_DIM levels lies inside the (2 REF_DIM - 1)^2 product space, where
# expm of the truncated generator is exact.  The amplifier conserves
# n_A - n_B and every sector is infinite: each is exponentiated on its
# first AMP_SECTOR_SIZE pairs, which converges in the box to about 4e-15
# at kappa = 16 (the 40^2 and 60^2 product spaces have not converged
# there).
REF_DIM = 12
AMP_SECTOR_SIZE = 200


@functools.lru_cache(maxsize=None)
def _exact_box(p):
    """<x, y|U|a, b> for x, y, a, b < REF_DIM, as [x, y, a, b]."""
    if p.kind == BEAM_SPLITTER:
        size = 2 * REF_DIM - 1
        a = np.diag(np.sqrt(np.arange(1.0, size)), 1)
        op_a, op_b = np.kron(a, np.eye(size)), np.kron(np.eye(size), a)
        theta = math.atan(math.sqrt((1.0 - p.lambda_A) / p.lambda_A))
        u = sla.expm(theta * (op_a.T @ op_b - op_a @ op_b.T)).reshape((size,) * 4)
        return u[:REF_DIM, :REF_DIM, :REF_DIM, :REF_DIM]
    r = math.atanh(math.sqrt((p.lambda_A - 1.0) / p.lambda_A))
    box = np.zeros((REF_DIM,) * 4)
    for d in range(1 - REF_DIM, REF_DIM):              # the sector n_A - n_B = d
        n_a = np.arange(max(0, d), max(0, d) + AMP_SECTOR_SIZE)
        n_b = n_a - d
        off = r * np.sqrt(n_a[1:] * n_b[1:])
        u = sla.expm(np.diag(off, -1) - np.diag(off, 1))
        n = REF_DIM - abs(d)
        box[n_a[:n, None], n_b[:n, None], n_a[:n], n_b[:n]] = u[:n, :n]
    return box


def _exact_joint(rho_a, rho_b, p):
    """The joint output inside the box of rho_a.dim levels, unnormalised."""
    dim = rho_a.dim
    u = _exact_box(p)[:dim, :dim, :dim, :dim].reshape(dim * dim, dim * dim)
    return u @ np.kron(rho_a.rho, rho_b.rho) @ u.T


def _exact_mix(rho_a, rho_b, p):
    dim = rho_a.dim
    out = np.einsum("ijkj->ik", _exact_joint(rho_a, rho_b, p).reshape(dim, dim, dim, dim))
    return out / np.trace(out).real


def _cold():
    """Empty the channel and amplitude stores."""
    fock._sectors.cache_clear()
    fock._amplitudes.cache_clear()


@pytest.mark.parametrize("params", [MixingParams.beam_splitter(0.3),
                                    MixingParams.beam_splitter(0.9),
                                    MixingParams.amplifier(1.1),
                                    MixingParams.amplifier(2.0),
                                    MixingParams.amplifier(16.0)])
@pytest.mark.parametrize("dim", [8, 12])
def test_two_mode_mix_matches_dense_reference(params, dim, monkeypatch):
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
    # the random states fill the top Fock layer: no cutoff gate here
    monkeypatch.setattr(fock, "LEAK_TOL", 1.0)
    cold = {}
    for name, (a, b) in pairs.items():
        _cold()
        cold[name] = fock.two_mode_mix(a, b, params)
        err = np.max(np.abs(cold[name].rho - _exact_mix(a, b, params)))
        assert err < 1e-12, (name, err)
    # a store that every pair has filled gives the same bits as an empty
    # one, and the blocks it holds are read-only
    for a, b in pairs.values():
        fock.two_mode_mix(a, b, params)
    for name, (a, b) in pairs.items():
        warm = fock.two_mode_mix(a, b, params)
        assert np.array_equal(warm.rho, cold[name].rho), name
    store = fock._sectors(params, dim)
    blocks = [u for u in store.blocks if u is not None] + store.amps.blocks
    assert blocks and not any(u.flags.writeable for u in blocks)
    assert not any(array.flags.writeable for array in store.layout)


def _exact_w(p, dim):
    """W[b, x, a] = <x, y|U|a, b> of the exact reference, y fixed by the charge."""
    box = _exact_box(p)
    b, x, a = np.indices((dim,) * 3)
    y = x - a + b if p.reversed_b else a + b - x
    inside = (y >= 0) & (y < dim)
    return np.where(inside, box[x, np.where(inside, y, 0), a, b], 0.0)


@pytest.mark.parametrize("params", [MixingParams.beam_splitter(0.3),
                                    MixingParams.beam_splitter(0.9),
                                    MixingParams.amplifier(1.1),
                                    MixingParams.amplifier(2.0),
                                    MixingParams.amplifier(16.0)])
@pytest.mark.parametrize("dim", [8, 12])
def test_amplitudes_match_exact_reference(params, dim):
    # every amplitude between levels below the cutoff, sectors k >= dim too
    _cold()
    w = fock._sectors(params, dim).dense(2 * dim - 2)
    assert np.max(np.abs(w - _exact_w(params, dim))) < 1e-13


def _bs_amplitude(tau, x, y, a, b):
    """<x, y|U|a, b> of the beam splitter, expanded from U a^dag U^dag = c a^dag - s b^dag
    and U b^dag U^dag = s a^dag + c b^dag."""
    c, s = mpmath.sqrt(tau), mpmath.sqrt(1 - tau)
    total = mpmath.fsum(mpmath.binomial(a, i) * mpmath.binomial(b, x - i) * (-1) ** (a - i)
                        * c ** (b - x + 2 * i) * s ** (a + x - 2 * i)
                        for i in range(max(0, x - b), min(a, x) + 1))
    return total * mpmath.sqrt(mpmath.factorial(x) * mpmath.factorial(y)
                               / (mpmath.factorial(a) * mpmath.factorial(b)))


def _amp_amplitude(kappa, x, y, a, b):
    """<x, y|S|a, b> of the amplifier, from the SU(1,1) disentangling
    S = exp(t a^dag b^dag) cosh(r)^-(n_A + n_B + 1) exp(-t a b), t = tanh r."""
    t, f = mpmath.sqrt(1 - 1 / kappa), mpmath.factorial
    total = mpmath.fsum((-t) ** i * t ** (x - a + i) * mpmath.sqrt(kappa) ** (2 * i - a - b - 1)
                        / (f(i) * f(x - a + i) * f(a - i) * f(b - i))
                        for i in range(max(0, a - x), min(a, b) + 1))
    return total * mpmath.sqrt(f(a) * f(b) * f(x) * f(y))


@pytest.mark.parametrize("params", [MixingParams.beam_splitter(0.1),
                                    MixingParams.beam_splitter(0.5),
                                    MixingParams.beam_splitter(0.9),
                                    MixingParams.amplifier(1.1),
                                    MixingParams.amplifier(2.0),
                                    MixingParams.amplifier(16.0)])
def test_amplitudes_match_40_digit_closed_forms(params):
    dim = 60
    _cold()
    w = fock._sectors(params, dim).dense(2 * dim - 2)
    rng = np.random.default_rng(60)
    # the box's corners, then random entries
    picks = [(b, x, a) for b in (0, dim - 1) for x in (0, dim - 1) for a in (0, dim - 1)]
    picks += [tuple(int(v) for v in rng.integers(0, dim, 3)) for _ in range(300)]
    amplitude = _amp_amplitude if params.reversed_b else _bs_amplitude
    with mpmath.workdps(40):
        lam = mpmath.mpf(params.lambda_A)
        for b, x, a in picks:
            y = x - a + b if params.reversed_b else a + b - x
            want = amplitude(lam, x, y, a, b) if 0 <= y < dim else 0
            assert abs(w[b, x, a] - float(want)) < 1e-13, (b, x, a)


@pytest.mark.parametrize("lam", [0.1, 0.5, 0.9])
def test_fock_input_beam_splitter_is_binomial(lam):
    dim = 30
    vac = fock.vacuum_state(dim)
    for n in (0, 1, 5, dim - 1):
        out = fock.two_mode_mix(fock.fock_state(n, dim), vac, MixingParams.beam_splitter(lam))
        m = np.arange(n + 1)
        want = np.array([math.comb(n, k) for k in m]) * lam ** m * (1.0 - lam) ** (n - m)
        assert fock._is_diagonal(out.rho)
        assert np.max(np.abs(np.diagonal(out.rho).real[:n + 1] - want)) < 1e-13
        assert not np.diagonal(out.rho)[n + 1:].any()


@pytest.mark.parametrize("kappa", [1.1, 2.0, 16.0])
def test_fock_input_amplifier_matches_closed_form(kappa, monkeypatch):
    # <m|Phi(|n><n|)|m> = C(m, n) kappa^-(n+1) (1 - 1/kappa)^(m-n); the gate
    # refuses exactly the mass above the cutoff
    dim = 60
    vac = fock.vacuum_state(dim)
    m = np.arange(dim)
    for n in (0, 1, 3):
        want = np.array([math.comb(k, n) for k in m]) * kappa ** -(n + 1.0) \
            * (1.0 - 1.0 / kappa) ** np.maximum(m - n, 0)
        rho = fock.fock_state(n, dim)
        if 1.0 - want.sum() > fock.LEAK_TOL:
            with pytest.raises(fock.CutoffError) as err:
                fock.two_mode_mix(rho, vac, MixingParams.amplifier(kappa))
            assert err.value.leak == pytest.approx(1.0 - want.sum(), rel=0.0, abs=1e-13)
        with monkeypatch.context() as patch:
            patch.setattr(fock, "LEAK_TOL", 1.0)
            out = fock.two_mode_mix(rho, vac, MixingParams.amplifier(kappa))
        assert np.max(np.abs(np.diagonal(out.rho).real - want / want.sum())) < 1e-13
    # kappa = 16 leaks past cutoff 60, so its gate is checked too
    assert kappa < 16.0 or 1.0 - want.sum() > fock.LEAK_TOL


@pytest.mark.parametrize("params", [MixingParams.beam_splitter(0.5),
                                    MixingParams.amplifier(2.0)])
def test_cold_mix_calls_no_expm(params, monkeypatch):
    dim = 20
    states = [fock.thermal_state(0.3, dim), fock.coherent_state(0.5, dim),
              fock.squeezed_thermal_state(0.2, 0.1, dim), fock.fock_state(1, dim)]
    _cold()

    def refuse(*args, **kwargs):
        raise AssertionError("expm called by a mix")
    monkeypatch.setattr(sla, "expm", refuse)
    monkeypatch.setattr(fock, "LEAK_TOL", 1.0)
    thermal, coherent, squeezed, one = states
    # both diagonal, one diagonal, neither
    for a, b in ((thermal, one), (coherent, one), (coherent, squeezed)):
        fock.two_mode_mix(a, b, params)


@pytest.mark.parametrize("kappa", [2.0, 1.1])
def test_amplifier_reads_the_beam_splitter_sectors(kappa):
    # qepi oracle's pair: amplifier(kappa) after beam_splitter(1 / kappa)
    # at the same cutoff builds no sector
    dim = 30
    _cold()
    vac = fock.vacuum_state(dim)
    fock.two_mode_mix(fock.thermal_state(1.0, dim), vac, MixingParams.beam_splitter(1.0 / kappa))
    amps = fock._amplitudes(1.0 / kappa, dim)
    built = list(amps.blocks)
    fock.two_mode_mix(vac, vac, MixingParams.amplifier(kappa))
    assert fock._sectors(MixingParams.amplifier(kappa), dim).amps is amps
    assert len(amps.blocks) == len(built) == dim
    assert all(new is old for new, old in zip(amps.blocks, built))


def test_density_matrices_compare_by_identity():
    rho = fock.thermal_state(0.5, 30)
    copy = fock.FockDensityMatrix(rho.rho)
    assert rho == rho and rho != copy
    assert len({rho, copy, rho}) == 2 and hash(rho) == hash(rho)


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
    diagonal = fock.FockDensityMatrix(np.diag(np.diag(rho.rho)))
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
        fock.FockDensityMatrix(np.diag([0.5, 0.5, 0.5, -0.5]).astype(complex))
    with pytest.raises(fock.NumericError):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 1] = 1.0
        m[0, 0] = 1.0
        fock.FockDensityMatrix(m)
    with pytest.raises(DomainError):
        fock.FockDensityMatrix(np.ones((4, 3), dtype=complex) / 3.0)
    with pytest.raises(DomainError):
        fock.FockDensityMatrix(np.zeros((0, 0), dtype=complex))
    assert fock.FockDensityMatrix(np.eye(4, dtype=complex) / 4.0).dim == 4


def _inf_off_diagonal():
    rho = np.eye(2, dtype=complex) / 2.0
    rho[0, 1] = rho[1, 0] = np.inf
    return rho


@pytest.mark.parametrize("rho", [np.diag([np.nan, 1.0]), _inf_off_diagonal()],
                         ids=["nan on the diagonal", "inf off the diagonal"])
def test_density_matrix_refuses_non_finite_entries(rho):
    with pytest.raises(fock.NumericError, match="non-finite"):
        fock.FockDensityMatrix(rho)


def _expm_displace(rho, direction, theta):
    """Reference: conjugation by a dense expm of the truncated generator."""
    q1, p1 = fock.quadratures(rho.dim)
    u = sla.expm(-1j * theta * p1 if direction == "q" else 1j * theta * q1)
    return u @ rho.rho @ u.conj().T


@pytest.mark.parametrize("dim", [12, 30])
@pytest.mark.parametrize("direction", ["q", "p"])
def test_displace_fock_matches_expm_route(dim, direction):
    states = (fock.thermal_state(0.05, dim), fock.coherent_state(0.3 - 0.2j, dim),
              fock.fock_state(2, dim))
    for rho in states:
        for theta in (0.05, -0.05, 0.025, -0.025, 0.7):
            want = _expm_displace(rho, direction, theta)
            got = fock.displace_fock(rho, direction, theta)
            assert np.max(np.abs(got.rho - want)) < 1e-12, (rho, theta)
    # past the cutoff both routes refuse alike
    hot = fock.thermal_state(1.0, 30)
    want = fock.trace_leak(fock.FockDensityMatrix(_expm_displace(hot, direction, 0.7)))
    with pytest.raises(fock.CutoffError) as err:
        fock.displace_fock(hot, direction, 0.7)
    assert err.value.leak == pytest.approx(want, rel=1e-6)


# per cutoff, a thermal, a squeezed thermal and a coherent state that the
# translations below keep under the leak gate
INHERITING = {"12-thermal": lambda: fock.thermal_state(0.1, 12),
              "12-squeezed": lambda: fock.squeezed_thermal_state(0.1, 0.1, 12),
              "12-coherent": lambda: fock.coherent_state(0.3, 12),
              "30-thermal": lambda: fock.thermal_state(1.0, 30),
              "30-squeezed": lambda: fock.squeezed_thermal_state(0.1, 0.9, 30),
              "30-coherent": lambda: fock.coherent_state(1.0, 30),
              "60-thermal": lambda: fock.thermal_state(2.0, 60),
              "60-squeezed": lambda: fock.squeezed_thermal_state(0.1, 2.0, 60),
              "60-coherent": lambda: fock.coherent_state(2.0, 60)}


@pytest.mark.parametrize("state", INHERITING)
@pytest.mark.parametrize("direction", ["q", "p"])
def test_translation_inherits_the_eigensystem(state, direction):
    rho = INHERITING[state]()
    dim = rho.dim
    other = "p" if direction == "q" else "q"
    for theta in (0.05, -0.025):
        once = fock.displace_fock(rho, direction, theta)
        for image in (once, fock.displace_fock(once, other, theta)):
            w, x = image.eigensystem
            assert w is rho.eigensystem[0] and image.spectrum is rho.spectrum
            assert not x.flags.writeable
            assert np.linalg.norm(image.rho @ x - x * w) <= 1e-13
            assert np.linalg.norm(x.conj().T @ x - np.eye(dim)) <= 1e-13
            assert fock.vn_entropy(image) == fock.vn_entropy(rho)
            fresh = fock.FockDensityMatrix(image.rho)
            assert fock.relative_entropy(rho, image) == pytest.approx(
                fock.relative_entropy(rho, fresh), rel=0.0, abs=1e-12)


def test_translated_state_keeps_every_check():
    # the image's entries are checked as the constructor checks them: a
    # non-finite product or a trace off 1 is refused (the inherited spectrum
    # passed the eigenvalue floor when rho was built)
    rho = fock.thermal_state(1.0, 30)
    for u, match in ((np.where(np.eye(30, dtype=bool), np.nan, 0.0), "non-finite"),
                     (1.1 * np.eye(30), "trace")):
        with pytest.raises(fock.NumericError, match=match):
            fock._unitary_image(rho, u)


def test_two_mode_mix_store_filled_by_other_pairs_gives_cold_bits(monkeypatch):
    # W is allocated by the first mix with one diagonal input and filled
    # through the highest sector of U that a mix reaches; entries other
    # pairs filled meet zero entries of the inputs, so a store whose W they
    # filled gives the same bits as an empty one
    dim = 12
    rng = np.random.default_rng(11)
    full_a, full_b = _random_state(rng, dim), _random_state(rng, dim)
    diag = _random_diagonal(rng, dim)
    one_diagonal = [(fock.fock_state(2, dim), fock.coherent_state(0.4 - 0.2j, dim)),
                    (fock.coherent_state(0.3j, dim), fock.fock_state(1, dim)),
                    (fock.fock_state(0, dim), full_a),
                    (diag, full_b), (full_a, diag)]
    # the random states fill the top Fock layer: no cutoff gate here
    monkeypatch.setattr(fock, "LEAK_TOL", 1.0)
    for params in (MixingParams.beam_splitter(0.3), MixingParams.amplifier(1.1)):
        cold = []
        for a, b in one_diagonal:
            _cold()
            cold.append(fock.two_mode_mix(a, b, params).rho)
            assert np.max(np.abs(cold[-1] - _exact_mix(a, b, params))) < 1e-12
        _cold()
        fock.two_mode_mix(fock.fock_state(3, dim), diag, params)
        fock.two_mode_mix(full_a, full_b, params)
        store = fock._sectors(params, dim)
        assert store.w is None
        for a, b in reversed(one_diagonal):
            fock.two_mode_mix(a, b, params)
        assert store.dual == all(u is not None for u in store.blocks)
        assert store.filled == len(store.amps.blocks) == 2 * dim - 1
        for (a, b), want in zip(one_diagonal, cold):
            assert np.array_equal(fock.two_mode_mix(a, b, params).rho, want)
        # W holds every block, and the view the mix gets is read-only
        w = store.dense(2 * dim - 2)
        assert not w.flags.writeable
        n_a, n_b, _, edges = store.layout
        for q in range(2 * dim - 1):
            u, rows = store.block(q), slice(edges[q], edges[q + 1])
            assert np.array_equal(w[n_b[rows], n_a[rows][0]:n_a[rows][-1] + 1, n_a[rows]], u.T)


def test_both_diagonal_mix_allocates_no_dense_tensor():
    dim = 30
    params = MixingParams.beam_splitter(0.5)
    _cold()
    fock.two_mode_mix(fock.thermal_state(1.0, dim), fock.vacuum_state(dim), params)
    assert fock._sectors(params, dim).w is None
    fock.two_mode_mix(fock.thermal_state(1.0, dim), fock.coherent_state(0.5, dim), params)
    assert fock._sectors(params, dim).w.shape == (dim, dim, dim)


class _Counter:
    """Counts the calls of a numpy function, and which arrays it got."""

    def __init__(self, monkeypatch, name):
        self.args = []
        original = getattr(np.linalg, name)

        def counted(a, *rest, **kwargs):
            self.args.append(a)
            return original(a, *rest, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)

    def on(self, array):
        return sum(a is array for a in self.args)


@pytest.mark.parametrize("pair", ["diagonal + diagonal", "diagonal + coherent",
                                  "coherent + squeezed"])
def test_one_eigvalsh_per_mix_output(pair, monkeypatch):
    dim = 30
    thermal = fock.thermal_state(1.0, dim)
    other = {"diagonal + diagonal": fock.fock_state(2, dim),
             "diagonal + coherent": fock.coherent_state(1.0, dim),
             "coherent + squeezed": fock.squeezed_thermal_state(0.3, 0.5, dim)}[pair]
    first = fock.coherent_state(1.0, dim) if pair == "coherent + squeezed" else thermal
    eigvalsh = _Counter(monkeypatch, "eigvalsh")
    out = fock.two_mode_mix(first, other, MixingParams.beam_splitter(0.5))
    s = fock.vn_entropy(out)
    # a Fock-diagonal output's spectrum is its sorted diagonal, no eigvalsh
    diagonal = pair == "diagonal + diagonal"
    assert fock._is_diagonal(out.rho) == diagonal
    assert len(eigvalsh.args) == eigvalsh.on(out.rho) == (0 if diagonal else 1)
    assert s == 0.0 - float(np.sum(fock._xlogx(np.maximum(np.linalg.eigvalsh(out.rho), 0.0))))
    evolved = fock.liouville_evolve(thermal, 0.1)
    fock.vn_entropy(evolved)
    assert eigvalsh.on(evolved.rho) == 0


def test_state_decompositions_are_kept_read_only():
    rho = fock.squeezed_thermal_state(0.3, 0.5, 30)
    w, v = rho.eigensystem
    assert not any(array.flags.writeable for array in (rho.spectrum, w, v))
    assert rho.spectrum is rho.spectrum and rho.eigensystem is rho.eigensystem
    assert np.max(np.abs((v * w) @ v.conj().T - rho.rho)) < 1e-14


def _tricky_diagonal(rng, dim):
    """Populations with exact zeros, ties, 1e-300 and entries just above
    EIGENVALUE_FLOOR among random ones, trace 1."""
    kind = rng.integers(0, 5, dim)
    kind[0] = 0                                  # one free population at least
    special = {1: 0.0, 2: 1e-300, 3: np.nextafter(fock.EIGENVALUE_FLOOR, 0.0)}
    pops = np.where(kind == 4, 0.25, rng.random(dim))
    free = (kind == 0) | (kind == 4)
    for k, value in special.items():
        pops[kind == k] = value
    pops[free] *= (1.0 - pops[~free].sum()) / pops[free].sum()
    return pops


@pytest.mark.parametrize("dim", [1, 2, 30, 120])
def test_diagonal_spectrum_is_eigvalsh_bit_for_bit(dim, monkeypatch):
    rng = np.random.default_rng(dim)
    eigvalsh = _Counter(monkeypatch, "eigvalsh")
    for _ in range(20):
        rho = np.diag(_tricky_diagonal(rng, dim)).astype(complex)
        state = fock.FockDensityMatrix(rho)
        got = state.spectrum
        assert not eigvalsh.args
        want = np.linalg.eigvalsh(state.rho)
        eigvalsh.args.clear()
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert not got.flags.writeable


@pytest.mark.parametrize("t", [0.01, 0.7, 3.0])
def test_liouville_evolve_band_sparse_matches_dense_reference(t):
    # the diagonal and the +-3 band only: two of the dim bands are evolved
    dim = 10
    rng = np.random.default_rng(5)
    pops = rng.uniform(0.5, 1.0, dim)
    band = 0.003 * (rng.normal(size=dim - 3) + 1j * rng.normal(size=dim - 3))
    rho = np.diag(pops / pops.sum()) + np.diag(band, 3) + np.diag(band.conj(), -3)
    state = fock.FockDensityMatrix(rho)
    want = sla.expm(t * _dense_noise_superoperator(dim)) @ state.rho.reshape(-1)
    got = fock.liouville_evolve(state, t)
    assert np.max(np.abs(got.rho - want.reshape(dim, dim))) < 1e-12
    n, m = np.indices((dim, dim))
    assert not got.rho[(np.abs(n - m) != 0) & (np.abs(n - m) != 3)].any()


def test_coherent_state_amplitudes_match_gammaln():
    from scipy.special import gammaln
    alpha, dim = 1.3 - 0.4j, 60
    n = np.arange(dim)
    amps = np.exp(-0.5 * abs(alpha) ** 2 + n * np.log(abs(alpha)) - 0.5 * gammaln(n + 1.0)
                  + 1j * n * np.angle(alpha))
    got = fock.coherent_state(alpha, dim).rho
    assert np.max(np.abs(got - np.outer(amps, amps.conj()))) < 1e-15


def _populations_cases():
    rng = np.random.default_rng(28)
    thermal = 0.5 ** np.arange(1.0, 31.0)
    return [_tricky_diagonal(rng, 30), _tricky_diagonal(rng, 1), thermal / thermal.sum(),
            np.array([0.25, 0.75]) + 1j * np.array([3e-13, -2e-13])]


@pytest.mark.parametrize("pop", _populations_cases(),
                         ids=["tricky", "one level", "thermal", "imaginary within tolerance"])
def test_state_from_populations_is_the_diagonal_matrix_bit_for_bit(pop):
    state = fock._from_populations(pop)
    dense = fock.FockDensityMatrix(np.diag(pop))
    # the checks on the matrix itself, entry by entry
    want = fock._hermitian_part(np.diag(pop).astype(complex))
    for got in (state, dense):
        assert got.diagonal and got.dim == pop.size
        assert got.rho.dtype == want.dtype and got.rho.tobytes() == want.tobytes()
        assert got.spectrum.tobytes() == np.linalg.eigvalsh(want).tobytes()
        assert not got.rho.flags.writeable and not got.spectrum.flags.writeable


def _refused(make):
    with pytest.raises(fock.NumericError) as refusal:
        make()
    return str(refusal.value)


@pytest.mark.parametrize("pop, what", [
    (np.array([np.nan, 1.0]), "non-finite"),
    (np.array([np.inf, 0.0]), "non-finite"),
    (np.array([0.5, 0.5 + 2e-8]), "trace"),
    (np.array([1.0 + 2e-10, -2e-10]), "negative eigenvalue"),
    (np.array([0.5 + 1e-11j, 0.5]), "non-Hermitian"),
], ids=["nan", "inf", "trace", "below the floor", "imaginary"])
def test_population_refusals_are_the_matrix_refusals(pop, what):
    message = _refused(lambda: fock._from_populations(pop))
    assert what in message
    assert _refused(lambda: fock.FockDensityMatrix(np.diag(pop))) == message
    matrix = np.diag(pop).astype(complex)
    if what == "negative eigenvalue":
        assert message == f"negative eigenvalue {np.linalg.eigvalsh(matrix)[0]:.3e}"
    else:
        assert _refused(lambda: fock._hermitian_part(matrix)) == message


def _anti_hermitian_off_diagonal():
    # off-diagonal entries within HERMITICITY_TOL whose Hermitian part is zero
    rho = np.diag([0.5, 0.5]).astype(complex)
    rho[0, 1] = rho[1, 0] = 1e-14j
    return fock.FockDensityMatrix(rho)


def _made_states():
    dim, half = 30, MixingParams.beam_splitter(0.5)
    thermal, two = fock.thermal_state(1.0, dim), fock.fock_state(2, dim)
    coherent = fock.coherent_state(0.8 + 0.3j, dim)
    squeezed = fock.squeezed_thermal_state(0.3, 0.5, dim)
    return {
        "vacuum": lambda: fock.vacuum_state(dim),
        "fock": lambda: two,
        "thermal": lambda: thermal,
        "coherent": lambda: coherent,
        "coherent at 0": lambda: fock.coherent_state(0.0, dim),
        "squeezed thermal": lambda: squeezed,
        "dense diagonal": lambda: fock.FockDensityMatrix(thermal.rho),
        "anti-Hermitian off the diagonal": _anti_hermitian_off_diagonal,
        "both-diagonal mix": lambda: fock.two_mode_mix(thermal, two, half),
        "both-diagonal amplifier mix": lambda: fock.two_mode_mix(
            fock.vacuum_state(dim), fock.vacuum_state(dim), MixingParams.amplifier(2.0)),
        "one-diagonal mix": lambda: fock.two_mode_mix(thermal, coherent, half),
        "non-diagonal mix": lambda: fock.two_mode_mix(coherent, squeezed, half),
        "unitary image": lambda: fock.displace_fock(thermal, "q", 0.3),
        "evolved diagonal": lambda: fock.liouville_evolve(thermal, 0.4),
        "evolved non-diagonal": lambda: fock.liouville_evolve(coherent, 0.4),
    }


@pytest.mark.parametrize("how", list(_made_states()))
def test_diagonal_field_agrees_with_a_fresh_scan(how):
    state = _made_states()[how]()
    assert state.diagonal == fock._is_diagonal(state.rho)
    assert state.diagonal == (how in ("vacuum", "fock", "thermal", "coherent at 0",
                                      "dense diagonal", "anti-Hermitian off the diagonal",
                                      "both-diagonal mix", "both-diagonal amplifier mix",
                                      "evolved diagonal"))
    with pytest.raises(AttributeError):
        state.diagonal = not state.diagonal


@functools.lru_cache(maxsize=4)
def _dense_noise_propagator(dim, t):
    return sla.expm(t * _dense_noise_superoperator(dim))


def _truncated_thermal(dim):
    pop = 0.5 ** np.arange(1.0, dim + 1.0)      # thermal(1), renormalised below the cutoff
    return fock.FockDensityMatrix(np.diag(pop / pop.sum()))


@pytest.mark.parametrize("make", [_truncated_thermal, functools.partial(fock.fock_state, 2),
                                  functools.partial(fock.coherent_state, 0.8 + 0.3j)],
                         ids=["thermal(1)", "|2>", "coherent"])
@pytest.mark.parametrize("dim", [12, 30])
@pytest.mark.parametrize("t", [0.3, 2.0])
def test_liouville_evolve_matches_expm_of_the_truncated_liouvillian(make, dim, t):
    state = make(dim)
    want = (_dense_noise_propagator(dim, t) @ state.rho.reshape(-1)).reshape(dim, dim)
    got = fock.liouville_evolve(state, t)
    assert np.max(np.abs(got.rho - want)) < 1e-13
    assert got.diagonal == state.diagonal
