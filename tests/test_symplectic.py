import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qepi import symplectic
from qepi.channels import MixingParams
from qepi.inequalities import random_qepi_suite
from qepi.symplectic import (G_MAX, PHYSICALITY_TOL, DomainError, GaussianState,
                             ValidationError,
                             delta, entropy, entropy_power, g, g_inv, photon_number,
                             random_gaussian_state, spectrum_entropy,
                             symplectic_eigenvalues, symplectic_form)

# high-precision evaluations of the closed forms, frozen as oracles
G_HALF = 0.9547712524422192
G_INV_ONE = 0.5422114197377451
DELTA_ONE = 0.13212055882855768


def test_g_basics():
    assert g(0.0) == 0.0
    assert g(1.0) == pytest.approx(2.0 * math.log(2.0), abs=1e-14)
    assert g(0.5) == pytest.approx(G_HALF, abs=1e-13)


def test_g_tiny_argument_continuous_at_zero():
    assert g(1e-13) == pytest.approx(0.0, abs=1e-11)
    assert g(1e-13) > 0.0


def test_g_rejects_bad_input():
    with pytest.raises(DomainError):
        g(-0.1)
    with pytest.raises(DomainError):
        g(float("nan"))


@pytest.mark.filterwarnings("error")
def test_g_inv_basics():
    assert g_inv(0.0) == 0.0
    # a signed zero, e.g. the entropy of a pure state, is no NaN iteration
    assert g_inv(-0.0) == 0.0
    np.testing.assert_array_equal(g_inv(np.array([-0.0, 0.0, 1.0])),
                                  [0.0, 0.0, g_inv(1.0)])
    assert g_inv(2.0 * math.log(2.0)) == pytest.approx(1.0, abs=1e-10)
    assert g_inv(1.0) == pytest.approx(G_INV_ONE, abs=1e-10)
    with pytest.raises(DomainError):
        g_inv(-1e-3)


@pytest.mark.parametrize("n_val", np.geomspace(1e-6, 100.0, 25))
def test_g_roundtrip(n_val):
    assert g_inv(g(float(n_val))) == pytest.approx(n_val, abs=1e-10, rel=1e-10)


@pytest.mark.parametrize("s_val", np.linspace(0.01, g(100.0), 25))
def test_g_inv_roundtrip(s_val):
    assert g(g_inv(float(s_val))) == pytest.approx(s_val, abs=1e-10)


def _g_mp(n):
    return mpmath.log1p(n) + n * mpmath.log1p(1 / n)


def test_g_and_g_inv_match_mpmath():
    # g_inv is solved in u = ln N, where the relative tolerance of findroot
    # is a relative tolerance on N at every scale
    ns = np.geomspace(1e-300, 1e300, 121)
    s_vals = g(ns)
    n_back = g_inv(s_vals)
    with mpmath.workdps(50):
        for n_val, s_val, got in zip(ns, s_vals, n_back):
            n_mp = mpmath.mpf(float(n_val))
            s_mp = mpmath.mpf(float(s_val))
            want_s = _g_mp(n_mp)
            assert abs(s_mp / want_s - 1) <= 1e-13, n_val
            u = mpmath.findroot(lambda u: _g_mp(mpmath.exp(u)) / s_mp - 1,
                                mpmath.log(n_mp))
            assert abs(mpmath.mpf(float(got)) / mpmath.exp(u) - 1) <= 1e-13, n_val


def test_g_inv_top_of_range():
    assert g_inv(40.0) == pytest.approx(math.exp(39.0) - 0.5, rel=1e-13)
    assert math.isfinite(g_inv(G_MAX))
    with pytest.raises(DomainError):
        g_inv(711.0)
    with pytest.raises(DomainError):
        g_inv(np.array([1.0, 711.0]))


def test_g_inv_array_matches_scalar():
    s_vals = np.concatenate([[0.0], np.geomspace(1e-12, 700.0, 300)])
    got = g_inv(s_vals.reshape(-1, 1))
    assert got.shape == (301, 1)
    assert isinstance(g_inv(1.0), float)
    assert np.array_equal(got.ravel(), [g_inv(float(s)) for s in s_vals])


def test_entropy_power_and_photon_number():
    assert entropy_power(0.0, 3) == 1.0
    assert entropy_power(2.0 * math.log(2.0), 1) == pytest.approx(4.0, abs=1e-12)
    assert entropy_power(2.0 * math.log(2.0), 2) == pytest.approx(2.0, abs=1e-12)
    assert photon_number(0.0, 1) == 0.0
    assert photon_number(2.0 * math.log(2.0), 1) == pytest.approx(1.0, abs=1e-10)
    assert photon_number(2.0, 2) == pytest.approx(G_INV_ONE, abs=1e-10)


def test_delta_values():
    assert delta(1.0) == pytest.approx(DELTA_ONE, abs=1e-12)
    # tail decay: x = e^{g(10)} maps back to photon number 10
    x_tail = math.exp(g(10.0))
    assert abs(delta(x_tail)) < 0.01
    assert delta(x_tail) == pytest.approx(0.003970205593469636, abs=1e-10)
    with pytest.raises(DomainError):
        delta(0.5)


def test_delta_monotone_nonincreasing():
    xs = np.geomspace(1.0, 200.0, 80)
    vals = delta(xs)
    assert np.all(np.diff(vals) <= 1e-12)
    assert np.all(vals >= -1e-12)


@given(st.floats(min_value=1.0, max_value=50.0),
       st.floats(min_value=1.0, max_value=50.0))
@settings(max_examples=60, deadline=None)
def test_delta_midpoint_convex(x, y):
    assert delta(0.5 * (x + y)) <= 0.5 * (delta(x) + delta(y)) + 1e-12


def test_symplectic_form_properties():
    for n in (1, 2, 3):
        omega = symplectic_form(n)
        assert np.allclose(omega @ omega, -np.eye(2 * n))
        assert np.allclose(omega.T, -omega)


def test_symplectic_eigenvalues_williamson_forms():
    nus = symplectic_eigenvalues(GaussianState(1, np.diag([3.0, 3.0])))
    assert nus == pytest.approx([3.0], abs=1e-12)
    r = 0.8
    nus = symplectic_eigenvalues(
        GaussianState(1, np.diag([math.exp(2 * r), math.exp(-2 * r)])))
    assert nus == pytest.approx([1.0], abs=1e-12)
    nus = symplectic_eigenvalues(GaussianState(2, np.diag([2.0, 2.0, 5.0, 5.0])))
    assert nus == pytest.approx([2.0, 5.0], abs=1e-12)


@given(st.integers(min_value=0, max_value=10 ** 9), st.sampled_from([1, 2, 3]),
       st.sampled_from([1.0 + 1e-9, 8.0]), st.floats(min_value=0.0, max_value=3.0))
@settings(max_examples=60, deadline=None)
def test_spectrum_invariant_under_random_symplectic(seed, n, nu_max, r_max):
    # the generator conjugates a Williamson form by a random symplectic, so
    # the drawn eigenvalues must be recovered by the eigensolver
    states = [random_gaussian_state(n, seed + k, nu_max=nu_max, r_max=r_max)
              for k in range(3)]
    stack = GaussianState(n, [state.gamma for state in states], validate=False)
    nus, entropies = symplectic_eigenvalues(stack), entropy(stack)
    assert nus.shape == (3, n) and entropies.shape == (3,)
    for k, state in enumerate(states):
        # same seed stream: regenerate to learn the drawn nus
        rng2 = np.random.default_rng(seed + k)
        drawn = np.sort(np.exp(rng2.uniform(0.0, math.log(nu_max), size=n)))
        assert nus[k] == pytest.approx(drawn, rel=1e-10)
        assert nus[k] == pytest.approx(symplectic_eigenvalues(state), rel=1e-14)
        assert entropies[k] == pytest.approx(entropy(state), rel=1e-14, abs=1e-14)
        if n == 1:
            # nu = sqrt(det gamma) carries a rounding error of about
            # eps * cond(gamma) on any route, and cond(gamma) = e^{4r}
            closed = g((math.sqrt(np.linalg.det(state.gamma)) - 1.0) / 2.0)
            tol = 1e-12 * np.linalg.cond(state.gamma)
            assert entropy(state) == pytest.approx(closed, rel=tol, abs=tol)


def _triple_product_spectrum(gamma: np.ndarray, n: int) -> np.ndarray:
    """The spectrum as eigvalsh of the complex product L^T (i Omega) L, written out."""
    chol = np.linalg.cholesky(gamma)
    herm = chol.swapaxes(-1, -2) @ (1j * symplectic_form(n)) @ chol
    return np.linalg.eigvalsh(herm)[..., n:]


def _seeded_stack(n: int, size: int, **kwargs) -> GaussianState:
    keys = np.stack([np.full(size, 77 + n), np.arange(size)], axis=-1)
    return random_gaussian_state(n, keys, **kwargs)


def test_spectrum_kernel_matches_triple_product_one_mode():
    # nu = 1 exactly (nu_max = 1), squeezing up to r = 3, and thermal states
    gammas = np.concatenate([
        _seeded_stack(1, 4000, nu_max=1.0, r_max=3.0).gamma,
        _seeded_stack(1, 5000, nu_max=10.0, r_max=3.0).gamma,
        _seeded_stack(1, 1000, nu_max=1e6, r_max=1.0).gamma,
        (2.0 * np.geomspace(1e-9, 1e3, 10)[:, None, None] + 1.0) * np.eye(2)])
    assert gammas.shape[0] == 10 ** 4 + 10
    nus = symplectic_eigenvalues(GaussianState(1, gammas, validate=False))
    assert np.array_equal(nus, _triple_product_spectrum(gammas, 1))


@pytest.mark.parametrize("n", [2, 3])
def test_spectrum_kernel_matches_triple_product_multimode(n):
    gammas = np.concatenate([_seeded_stack(n, 500, nu_max=1.0, r_max=3.0).gamma,
                             _seeded_stack(n, 1500, nu_max=10.0, r_max=3.0).gamma])
    nus = symplectic_eigenvalues(GaussianState(n, gammas, validate=False))
    want = _triple_product_spectrum(gammas, n)
    assert nus.shape == (2000, n)
    assert np.max(np.abs(nus - want) / want) <= 1e-13


@pytest.mark.parametrize("n", [1, 2, 3])
def test_spectrum_kernel_refuses_non_covariance_input(n):
    good = 3.0 * np.eye(2 * n)
    for bad in (-good, np.diag([5.0] + [-0.5] * (2 * n - 1)),
                np.diag([np.nan] + [3.0] * (2 * n - 1)),
                np.diag([3.0] * (2 * n - 1) + [np.inf])):
        with pytest.raises(ValidationError):
            symplectic_eigenvalues(GaussianState(n, np.stack([good, bad]), validate=False))


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """Count the calls of np.linalg.eigvalsh; the list holds one entry per call."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls


@pytest.mark.parametrize("n, eigensolves", [(1, 0), (2, 1)])
def test_spectrum_eigensolves_only_from_two_modes(eigvalsh_calls, n, eigensolves):
    stack = _seeded_stack(n, 64, nu_max=10.0, r_max=1.0)
    one = GaussianState(n, stack.gamma[0], validate=False)
    for call in (lambda: symplectic_eigenvalues(one),
                 lambda: symplectic_eigenvalues(stack),
                 lambda: GaussianState(n, stack.gamma),
                 lambda: entropy(stack)):
        eigvalsh_calls.clear()
        call()
        assert len(eigvalsh_calls) == eigensolves


def test_one_mode_suite_makes_no_eigensolve(eigvalsh_calls):
    summary = random_qepi_suite(300, 3, MixingParams.amplifier(2.0), with_stam=True)
    assert summary.stam_skipped < 300
    assert eigvalsh_calls == []


@pytest.mark.parametrize("r_max", [5.0, 8.0])
@pytest.mark.parametrize("nu_max", [1.0, 10.0, 1e6])
def test_one_mode_spectrum_is_the_triple_product_under_strong_squeezing(r_max, nu_max):
    gammas = _seeded_stack(1, 3000, nu_max=nu_max, r_max=r_max).gamma
    nus = symplectic_eigenvalues(GaussianState(1, gammas, validate=False))
    assert nus.shape == (3000, 1)
    assert np.array_equal(nus, _triple_product_spectrum(gammas, 1))


def test_one_mode_spectrum_refuses_a_non_positive_definite_member():
    good = _seeded_stack(1, 4, nu_max=10.0, r_max=1.0).gamma
    for bad in ([[1.0, 2.0], [2.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]], np.diag([3.0, 0.0])):
        gammas = np.concatenate([good, [bad]])
        with pytest.raises(ValidationError, match="not positive definite"):
            symplectic_eigenvalues(GaussianState(1, gammas, validate=False))
        with pytest.raises(ValidationError, match="not positive definite"):
            GaussianState(1, gammas)


def test_spectrum_entropy_is_entropy_of_the_spectrum():
    stack = _seeded_stack(2, 50, nu_max=10.0, r_max=1.0)
    nus = symplectic_eigenvalues(stack)
    assert np.array_equal(spectrum_entropy(nus), entropy(stack))
    thermal = GaussianState.thermal(1.0)
    assert spectrum_entropy(symplectic_eigenvalues(thermal)) == entropy(thermal)
    assert spectrum_entropy(np.array([3.0])) == pytest.approx(2.0 * math.log(2.0), abs=1e-15)
    assert isinstance(spectrum_entropy(np.array([3.0])), float)
    with pytest.raises(ValidationError):
        spectrum_entropy(np.array([[3.0], [1.0 - 10 * PHYSICALITY_TOL]]))


def test_entropy_examples():
    assert entropy(GaussianState.vacuum()) == 0.0
    assert isinstance(entropy(GaussianState.thermal(1.0)), float)
    assert entropy(GaussianState(1, 3.0 * np.eye(2))) == pytest.approx(
        2.0 * math.log(2.0), abs=1e-12)
    assert entropy(GaussianState(2, 3.0 * np.eye(4))) == pytest.approx(
        4.0 * math.log(2.0), abs=1e-12)


def test_entropy_additive_over_direct_sums():
    a = random_gaussian_state(1, 11, nu_max=6.0, r_max=1.0)
    b = random_gaussian_state(1, 12, nu_max=6.0, r_max=1.0)
    joint = GaussianState(2, np.block([
        [a.gamma, np.zeros((2, 2))], [np.zeros((2, 2)), b.gamma]]))
    assert entropy(joint) == pytest.approx(entropy(a) + entropy(b), abs=1e-9)


def test_validation_rejects_asymmetric_and_unphysical():
    with pytest.raises(ValidationError):
        GaussianState(1, np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValidationError):
        GaussianState(1, 0.5 * np.eye(2))
    # |eigvals(Omega gamma)| cannot see the sign of det gamma; these are not
    # positive definite, so no covariance matrices
    for gamma in (-3.0 * np.eye(2), [[1.0, 2.0], [2.0, 1.0]], np.diag([5.0, -0.5]),
                  np.diag([np.nan, 3.0]), np.diag([np.inf, 3.0])):
        with pytest.raises(ValidationError):
            GaussianState(1, gamma)
        with pytest.raises(ValidationError):
            entropy(GaussianState(1, gamma, validate=False))


def test_random_state_determinism_and_degenerate_box():
    assert np.array_equal(random_gaussian_state(2, 5).gamma,
                          random_gaussian_state(2, 5).gamma)
    vac = random_gaussian_state(1, 0, nu_max=1.0, r_max=0.0)
    assert np.allclose(vac.gamma, np.eye(2), atol=1e-12)
    with pytest.raises(DomainError):
        random_gaussian_state(1, 0, nu_max=0.5)


def test_random_states_always_physical():
    for seed in range(200):
        state = random_gaussian_state(1, seed, nu_max=20.0, r_max=1.5)
        assert symplectic_eigenvalues(state)[0] >= 1.0 - PHYSICALITY_TOL


def _masked_g(mean_photons):
    """g as written before its two branches were picked by np.where."""
    N = np.asarray(mean_photons, dtype=float)
    flat = np.atleast_1d(N).astype(float)
    out = np.zeros_like(flat)
    tiny = (flat > 0) & (flat < 1e-290)
    out[tiny] = flat[tiny] * (1.0 - np.log(flat[tiny]))
    pos = flat >= 1e-290
    out[pos] = np.log1p(flat[pos]) + flat[pos] * np.log1p(1.0 / flat[pos])
    out = out.reshape(np.shape(N))
    return float(out) if out.ndim == 0 else out


def _bit_identical(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


G_EDGE_VALUES = np.array([0.0, -0.0, 5e-324, 1e-310, np.nextafter(1e-290, 0.0), 1e-290,
                          np.nextafter(1e-290, 1.0), 1e-16, 0.5, 1.0, 1e10, 1e300,
                          np.finfo(float).max, G_MAX])


def test_g_bit_identical_to_the_masked_form():
    sample = np.exp(np.random.default_rng(16).uniform(
        math.log(1e-320), math.log(1e308), 10 ** 5))
    for values in (G_EDGE_VALUES, sample, sample.reshape(100, 1000)):
        assert _bit_identical(g(values), _masked_g(values))
    for value in G_EDGE_VALUES:
        assert isinstance(g(value), float)
        assert _bit_identical(g(value), _masked_g(value))


def test_g_inv_edge_values_warn_not_and_skip_g(monkeypatch):
    calls = []
    monkeypatch.setattr(symplectic, "g", lambda x: calls.append(x) or _masked_g(x))
    edges = [0.0, -0.0, 5e-324, G_MAX]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [g_inv(s) for s in edges] + list(g_inv(np.array(edges)))
    assert got[:4] == got[4:]
    assert got[0] == got[1] == 0.0 and math.copysign(1.0, got[1]) == 1.0
    # the root for the smallest subnormal entropy, about 7e-327, rounds to 0
    assert got[2] == 0.0 and got[3] == pytest.approx(np.finfo(float).max, rel=1e-12)
    # the Newton iterates are nonnegative by construction, so g_inv never
    # calls the checked g
    assert calls == []


def _newton_g_inv(entropy_nats):
    """g_inv as written before its Newton step shared ln(1 + 1/x) with g."""
    def g_kernel(N):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            large = np.log1p(N) + N * np.log1p(1.0 / N)
            tiny = N * (1.0 - np.log(N))
        return np.where(N >= 1e-290, large, np.where(N > 0.0, tiny, 0.0))

    s = np.asarray(entropy_nats, dtype=float) + 0.0
    with np.errstate(divide="ignore", over="ignore"):
        x = np.where(s > 1.0, np.exp(s - 1.0) - 0.5, s / (1.0 - np.log(s)))
        tol = 1e-15 * np.maximum(1.0, s)
        active = np.ones(s.shape, dtype=bool)
        for _ in range(50):
            new = x - (g_kernel(x) - s) / np.log1p(1.0 / x)
            new = np.where(new > 0.0, new, x / 10.0)
            converged = np.abs(new - x) <= tol * new
            x = np.where(active, new, x)
            active &= ~converged
            if not active.any():
                break
    return float(x) if x.ndim == 0 else x


G_INV_EDGE_VALUES = [0.0, -0.0, 5e-324, np.nextafter(1e-290, 0.0), 1e-290,
                     np.nextafter(1e-290, 1.0), 1.0, G_MAX]


def test_g_inv_bit_identical_to_the_newton_loop():
    sample = np.exp(np.random.default_rng(19).uniform(
        math.log(5e-324), math.log(G_MAX), 3 * 10 ** 5))
    sample = np.minimum(sample, G_MAX)
    edges = np.array(G_INV_EDGE_VALUES)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for values in (sample, edges):
            assert _bit_identical(g_inv(values), _newton_g_inv(values))
        for value in G_INV_EDGE_VALUES:
            assert isinstance(g_inv(value), float)
            assert _bit_identical(g_inv(value), _newton_g_inv(value))


def test_g_inv_checks_its_argument_once(monkeypatch):
    calls, require = [], symplectic.require

    def counted(name, *args, **kwargs):
        calls.append(name)
        return require(name, *args, **kwargs)
    monkeypatch.setattr(symplectic, "require", counted)
    g_inv(1.0)
    g_inv(np.geomspace(1e-300, 700.0, 50))
    g_inv(np.zeros((3, 4)))
    assert calls == ["entropy"] * 3
