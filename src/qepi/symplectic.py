"""Gaussian state data model and entropy functionals.

Conventions: quadratures are interleaved (Q1, P1, ..., Qn, Pn), the
vacuum covariance matrix is the identity, so symplectic eigenvalues
satisfy nu >= 1 and a single thermal mode with mean photon number N has
gamma = (2N+1) * I and entropy g(N).  All entropies are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import seedstream

SYMMETRY_TOL = 1e-12
PHYSICALITY_TOL = 1e-9
# ln of the largest float: math.exp overflows above it
LOG_FLOAT_MAX = math.log(np.finfo(float).max)


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class ValidationError(ValueError):
    """A state or matrix violates a structural invariant."""


class NumericError(RuntimeError):
    """A computation on valid arguments failed numerically."""


def require(name: str, value, low=-math.inf, high=math.inf, *, low_open: bool = False):
    """Return value if every element lies between low and high; else raise DomainError.

    The bounds are inclusive, except low with low_open and an infinite bound:
    so NaN lies in no interval, and the default one holds exactly the
    finite numbers.  A scalar is compared as it is, so an integer is never
    rounded to float.  Only a failure formats a message, which names the
    first element outside.
    """
    low_open |= low == -math.inf
    high_open = high == math.inf
    scalar = isinstance(value, (int, float, np.generic))
    a = value if scalar else np.asarray(value)
    ok = (a > low if low_open else a >= low) & (a < high if high_open else a <= high)
    if ok if scalar else ok.all():
        return value
    where = tuple(np.argwhere(~ok)[0].tolist()) if np.ndim(a) else ()
    got = f"{a[where]} at index {where[0] if len(where) == 1 else where}" if where else a
    if high < math.inf:
        interval = f"in {'(' if low_open else '['}{low}, {high}]"
    else:
        bound = ("positive" if low == 0 and low_open else
                 f"{'>' if low_open else '>='} {low}" if low > -math.inf else "")
        finite = "finite" if np.asarray(a).dtype.kind == "f" else ""
        interval = " and ".join(word for word in (finite, bound) if word)
    raise DomainError(f"{name} must be {interval}, got {got}")


def symplectic_form(n: int) -> np.ndarray:
    """2n x 2n symplectic form, block diagonal of [[0,1],[-1,0]]."""
    require("mode count", n, 1)
    omega = np.zeros((2 * n, 2 * n))
    for j in range(n):
        omega[2 * j, 2 * j + 1] = 1.0
        omega[2 * j + 1, 2 * j] = -1.0
    return omega


@dataclass(frozen=True)
class GaussianState:
    """n-mode Gaussian state, given by its covariance matrix gamma.

    gamma has shape (..., 2n, 2n): leading axes hold a stack of states, and
    one state is the case with no leading axes.  Entropies and Fisher
    informations are invariant under translations, so no displacement is
    kept.
    """

    n: int
    gamma: np.ndarray

    def __init__(self, n: int, gamma, validate: bool = True):
        gamma = np.array(gamma, dtype=float)
        if gamma.shape[-2:] != (2 * n, 2 * n):
            raise ValidationError(
                f"covariance matrix must be {2*n}x{2*n}, got {gamma.shape}")
        if validate:
            _require_finite(gamma)
            asym = np.max(np.abs(gamma - gamma.swapaxes(-1, -2)))
            if asym > SYMMETRY_TOL:
                raise ValidationError(
                    f"covariance matrix asymmetry {asym:.3e} exceeds {SYMMETRY_TOL}")
            gamma = 0.5 * (gamma + gamma.swapaxes(-1, -2))
        gamma.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "gamma", gamma)
        if validate:
            nus = symplectic_eigenvalues(self)
            if not np.all(nus[..., 0] >= 1.0 - PHYSICALITY_TOL):
                raise ValidationError(
                    f"unphysical state: min symplectic eigenvalue {nus.min()}")

    @classmethod
    def vacuum(cls, n: int = 1) -> "GaussianState":
        return cls(n, np.eye(2 * n), validate=False)

    @classmethod
    def thermal(cls, mean_photons: float, n: int = 1) -> "GaussianState":
        require("mean photon number", mean_photons, 0)
        return cls(n, (2.0 * mean_photons + 1.0) * np.eye(2 * n), validate=False)


def _with_spectrum(n: int, gamma, nus: np.ndarray) -> GaussianState:
    """Unvalidated states of covariance matrices gamma that carry nus, their
    symplectic spectra, as already taken: symplectic_eigenvalues returns nus
    for them and decomposes nothing."""
    state = GaussianState(n, gamma, validate=False)
    object.__setattr__(state, "_spectrum", nus)
    return state


def _require_finite(gamma: np.ndarray) -> None:
    """Reject a non-finite covariance matrix before any arithmetic on it."""
    if not np.all(np.isfinite(gamma)):
        raise ValidationError("covariance matrix has non-finite entries")


def symplectic_eigenvalues(state: GaussianState) -> np.ndarray:
    """Symplectic spectrum nu of each covariance matrix, shape (..., n), ascending.

    With gamma = L L^T (Cholesky), the Hermitian matrix i L^T Omega L is
    similar to i Omega gamma, whose eigenvalues are +-nu_k; the upper n of
    its eigvalsh are the nu_k.  Omega L is L with each row pair (2j, 2j+1)
    replaced by (row 2j+1, -row 2j), so the only product is one real
    batched matmul L^T (Omega L).  A gamma that is not positive definite is
    no covariance matrix and raises ValidationError.  Symmetry is checked
    only by a validating GaussianState; states built with validate=False
    are trusted to be symmetric.

    For n = 1, L^T (Omega L) = [[0, l00 l11], [-l00 l11, 0]] exactly, and
    eigvalsh returns +-l00 l11 for it without rounding, so nu is the
    product of the factor's diagonal, bit-identical and with no eigensolve.
    A state built by _with_spectrum returns the spectra it carries.
    """
    carried = getattr(state, "_spectrum", None)
    if carried is not None:
        return carried
    _require_finite(state.gamma)
    try:
        chol = np.linalg.cholesky(state.gamma)
    except np.linalg.LinAlgError:
        raise ValidationError("covariance matrix is not positive definite") from None
    if state.n == 1:
        return chol[..., :1, 0] * chol[..., 1:, 1]
    omega_chol = np.empty_like(chol)
    omega_chol[..., 0::2, :] = chol[..., 1::2, :]
    omega_chol[..., 1::2, :] = -chol[..., 0::2, :]
    return np.linalg.eigvalsh(1j * (chol.swapaxes(-1, -2) @ omega_chol))[..., state.n:]


def g(mean_photons) -> float:
    """Entropy in nats of a thermal mode with the given mean photon number."""
    N = require("mean photon number", np.asarray(mean_photons, dtype=float), 0)
    out = _g(N)
    return float(out) if out.ndim == 0 else out


def _g(N: np.ndarray) -> np.ndarray:
    """g on a float array N >= 0, unchecked: both branches, picked per element."""
    # (N+1)ln(N+1) - N ln N rewritten as ln(N+1) + N ln(1 + 1/N); the naive
    # form loses all precision to cancellation for large N.  ln(1 + 1/N) is
    # safe down to normal floats; below that, 1/N overflows, so use the
    # tiny-N expansion N(1 - ln N) instead.  At N = 0 both branches are NaN.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        large = np.log1p(N) + N * np.log1p(1.0 / N)
        tiny = N * (1.0 - np.log(N))
    return np.where(N >= 1e-290, large, np.where(N > 0.0, tiny, 0.0))


# g of the largest float; every finite entropy up to it has a finite inverse
G_MAX = g(np.finfo(float).max)
_G_INV_MAX_ITER = 50


def g_inv(entropy_nats) -> float:
    """Inverse of g: mean photon number of a thermal mode with given entropy.

    Safeguarded Newton on g(N) = S, applied to every element at once.  g is
    concave and increasing, so an iterate below the root never overshoots
    it; a step that would land at N <= 0 divides the iterate by 10 instead.
    """
    s = require("entropy", np.asarray(entropy_nats, dtype=float), 0, G_MAX)
    x = _g_inv(s)
    return float(x) if x.ndim == 0 else x


def _g_inv(s: np.ndarray) -> np.ndarray:
    """g_inv on a float array s in [0, G_MAX], unchecked.

    Each Newton step takes ln(1 + 1/x) once, as g's large-N term and as
    g'(x), the step's slope; g's tiny-N branch is evaluated only in a step
    with some iterate below 1e-290.  Every iterate is >= 0, so g's value is
    the one _g picks, bit for bit.
    """
    # -0.0 + 0.0 is 0.0, so a signed zero takes the path whose root is exactly 0
    s = s + 0.0
    # log(0) and 1/x at x = 0 or subnormal x give inf, which makes the step 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # start from the large-N asymptote g(N) ~ 1 + ln(N + 1/2) or the
        # tiny-N expansion g(N) ~ N(1 - ln N)
        x = np.where(s > 1.0, np.exp(s - 1.0) - 0.5, s / (1.0 - np.log(s)))
        # one rounding unit of S moves the root by a few 1e-16 max(1, S)
        # relatively, so a smaller relative step is rounding noise
        tol = 1e-15 * np.maximum(1.0, s)
        active = np.ones(s.shape, dtype=bool)
        for _ in range(_G_INV_MAX_ITER):
            slope = np.log1p(1.0 / x)
            g_x = np.log1p(x) + x * slope
            tiny = x < 1e-290
            if tiny.any():
                g_x = np.where(tiny, np.where(x > 0.0, x * (1.0 - np.log(x)), 0.0), g_x)
            new = x - (g_x - s) / slope
            new = np.where(new > 0.0, new, x / 10.0)
            converged = np.abs(new - x) <= tol * new
            x = np.where(active, new, x)
            active &= ~converged
            if not active.any():
                break
    return x


def entropy(state: GaussianState):
    """Von Neumann entropy of a Gaussian state, sum of g((nu-1)/2).

    A float for one state, an array over the leading axes for a stack.
    """
    return spectrum_entropy(symplectic_eigenvalues(state))


def spectrum_entropy(nus: np.ndarray):
    """Entropy sum_k g((nu_k - 1)/2) of states with symplectic spectra nus, shape (..., n).

    For a caller that already holds the spectrum; a nu below 1 by more than
    PHYSICALITY_TOL is no quantum state and raises ValidationError.
    """
    if not np.all(nus[..., 0] >= 1.0 - PHYSICALITY_TOL):
        raise ValidationError(f"unphysical state: min nu {nus.min()}")
    out = np.sum(g((np.maximum(nus, 1.0) - 1.0) / 2.0), axis=-1)
    return float(out) if out.ndim == 0 else out


def entropy_power(entropy_nats: float, n: int) -> float:
    """exp(S/n), the quantity the entropy power inequality bounds linearly."""
    require("mode count", n, 1)
    require("entropy per mode", entropy_nats / n, 0, LOG_FLOAT_MAX)
    return math.exp(entropy_nats / n)


def photon_number(entropy_nats: float, n: int) -> float:
    """Mean photon number per mode of a thermal state with the same entropy."""
    require("mode count", n, 1)
    return g_inv(entropy_nats / n)


def delta(x) -> float:
    """Gap between the entropy-power-to-photon-number map and its linear fit.

    delta(x) = g_inv(ln x) - x/e + 1/2, defined for x >= 1; nonnegative,
    decreasing, convex, with delta(1) = 1/2 - 1/e.
    """
    xa = require("entropy power", np.asarray(x, dtype=float), 1.0)
    out = g_inv(np.log(xa)) - xa / math.e + 0.5
    return float(out) if xa.ndim == 0 else out


def _seed_keys(seed) -> np.ndarray:
    """SeedSequence entropy as a uint64 array of shape (..., L)."""
    keys = np.asarray(seed)
    if keys.dtype.kind not in "iu" or keys.size == 0:
        raise DomainError(f"seed must be integers in [0, 2**64), got {seed!r}")
    return np.atleast_1d(require("seed", keys, 0)).astype(np.uint64)


def _rotations(phi: np.ndarray) -> np.ndarray:
    c, s = np.cos(phi), np.sin(phi)
    out = np.empty(phi.shape + (2, 2))
    out[..., 0, 0] = out[..., 1, 1] = c
    out[..., 0, 1], out[..., 1, 0] = s, -s
    return out


def _gamma_from_uniforms(n: int, u: np.ndarray, nu_max: float,
                         r_max: float) -> np.ndarray:
    """Covariance matrices from uniforms u of shape (..., 5n - 1).

    u holds, per state, the draws (nu_1..nu_n if nu_max > 1; then per mode
    phi_1, r, phi_2; then the n - 1 mixer angles) that the sequential
    Generator.uniform calls of this generator made, in that order; each
    maps to low + (high - low) * u as numpy's uniform does.  gamma is
    S diag(nu) S^T with S the ordered product of the per-mode rotations
    and squeezers and the adjacent mode mixers.  Each mode's block
    R(phi_1) diag(e^r, e^-r) R(phi_2) is a stacked 2x2 matmul, placed on
    the diagonal of S; each mixer then rotates, by a stacked matmul, the
    two pairs of columns it mixes.  The terms a 2n x 2n product chain adds
    beyond these are products with 0 and 1, which are exact, so every
    state gets the bits of a product chain of its own.
    """
    lead = u.shape[:-1]
    if nu_max > 1.0:
        nus, u = np.exp(math.log(nu_max) * u[..., :n]), u[..., n:]
    else:
        nus = np.ones(lead + (n,))
    two_pi = 2 * math.pi
    r = -r_max + (r_max - -r_max) * u[..., 1:3 * n:3]
    # math.exp as the per-state generator used: numpy's SIMD exp differs from
    # libm in the last bit for some arguments, which would change the states
    squeeze, unsqueeze = (np.fromiter(map(math.exp, x.ravel().tolist()), float,
                                      count=x.size).reshape(x.shape) for x in (r, -r))
    first = _rotations(two_pi * u[..., 0:3 * n:3])
    first[..., 0] *= squeeze[..., None]
    first[..., 1] *= unsqueeze[..., None]
    blocks = first @ _rotations(two_pi * u[..., 2:3 * n:3])
    s_total = np.zeros(lead + (2 * n, 2 * n))
    for j in range(n):
        s_total[..., 2 * j:2 * j + 2, 2 * j:2 * j + 2] = blocks[..., j, :, :]
    for j in range(n - 1):
        mixer = _rotations(two_pi * u[..., 3 * n + j])
        for q in range(2):
            pair = [2 * j + q, 2 * j + 2 + q]
            s_total[..., pair] = s_total[..., pair] @ mixer
    gamma = (s_total * np.repeat(nus, 2, axis=-1)[..., None, :]) @ s_total.swapaxes(-1, -2)
    return 0.5 * (gamma + gamma.swapaxes(-1, -2))


def random_gaussian_state(n: int, seed, nu_max: float = 10.0,
                          r_max: float = 1.0) -> GaussianState:
    """Random physical Gaussian states, deterministic for a fixed seed.

    gamma = S diag(nu_1, nu_1, ..., nu_n, nu_n) S^T with the nu_k drawn
    log-uniformly from [1, nu_max] and S a product of random per-mode
    rotations, squeezers (|r| <= r_max) and adjacent mode mixers; each
    state takes 5n - 1 uniforms, 4n - 1 when nu_max == 1.  nu_max must be
    finite and r_max at most LOG_FLOAT_MAX, so that e^r is a float.

    seed is either a numpy Generator, whose next uniforms give one state,
    or SeedSequence entropy: an int gives the state of default_rng(seed),
    and an integer array of shape (..., L) a stack of shape (...) whose
    state i is that of default_rng(seed[i]), all drawn in one array pass.
    """
    require("nu_max", nu_max, 1.0)
    require("r_max", r_max, 0.0, LOG_FLOAT_MAX)
    k = 5 * n - 1 if nu_max > 1.0 else 4 * n - 1
    if isinstance(seed, np.random.Generator):
        u = seed.random(k)
    else:
        keys = _seed_keys(seed)
        u = seedstream.uniforms(keys, k)
    return GaussianState(n, _gamma_from_uniforms(n, u, nu_max, r_max), validate=False)
