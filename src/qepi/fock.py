"""Truncated Fock-space oracle: single-mode density matrices at a finite cutoff.

Everything the Gaussian modules compute in closed form can be cross-checked
here by brute force on one mode with a finite Fock cutoff, and non-Gaussian
inputs (Fock states) become available.  The channel kernels use the
photon-number structure that survives truncation: the mixing unitaries
conserve n_A + n_B (beam splitter) or n_A - n_B (amplifier), and the
additive-noise generator maps each diagonal band of rho to itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg.blas import zherk
from scipy.special import gammaln, xlogy

from .channels import BEAM_SPLITTER, MixingParams
from .symplectic import DomainError

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-8
LEAK_TOL = 1e-8
EIGENVALUE_FLOOR = -1e-10
SUPPORT_TOL = 1e-12


class CutoffError(RuntimeError):
    """The Fock cutoff is too small for the requested computation."""

    def __init__(self, message: str, leak: float = float("nan")):
        super().__init__(message)
        self.leak = leak


class AccuracyError(RuntimeError):
    """A numerical routine failed its embedded accuracy estimate."""


class NumericError(RuntimeError):
    """Unexpected numerical pathology (e.g. significant negative eigenvalues)."""


@dataclass(frozen=True)
class FockDensityMatrix:
    modes: int          # always 1
    dim: int            # Fock dimension
    rho: np.ndarray     # dim x dim complex Hermitian

    def __init__(self, modes: int, dim: int, rho, validate: bool = True):
        rho = np.array(rho, dtype=complex)
        if modes != 1:
            raise DomainError(f"oracle supports 1 mode, got {modes}")
        if rho.shape != (dim, dim):
            raise DomainError(f"expected {dim}x{dim} matrix, got {rho.shape}")
        if validate:
            herm = np.max(np.abs(rho - rho.conj().T))
            if herm > HERMITICITY_TOL:
                raise NumericError(f"non-Hermitian density matrix: {herm:.3e}")
            rho = 0.5 * (rho + rho.conj().T)
            tr = float(np.trace(rho).real)
            if abs(tr - 1.0) > TRACE_TOL:
                raise NumericError(f"trace {tr} deviates from 1 beyond {TRACE_TOL}")
            evs = np.linalg.eigvalsh(rho)
            if evs[0] < EIGENVALUE_FLOOR:
                raise NumericError(f"negative eigenvalue {evs[0]:.3e}")
        rho.flags.writeable = False
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "rho", rho)


def ladder(dim: int) -> np.ndarray:
    """Annihilation operator on a dim-dimensional Fock space."""
    return np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)


def quadratures(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Q = (a + a^dag)/sqrt(2), P = i(a^dag - a)/sqrt(2)."""
    a = ladder(dim)
    q = (a + a.conj().T) / math.sqrt(2.0)
    p = 1j * (a.conj().T - a) / math.sqrt(2.0)
    return q, p


# ---------------------------------------------------------------------------
# state constructors

def vacuum_state(dim: int) -> FockDensityMatrix:
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    return FockDensityMatrix(1, dim, rho, validate=False)


def fock_state(k: int, dim: int) -> FockDensityMatrix:
    if not (0 <= k < dim):
        raise CutoffError(f"Fock level {k} does not fit below cutoff {dim}")
    rho = np.zeros((dim, dim), dtype=complex)
    rho[k, k] = 1.0
    return FockDensityMatrix(1, dim, rho, validate=False)


def thermal_state(mean_photons: float, dim: int) -> FockDensityMatrix:
    if mean_photons < 0:
        raise DomainError("mean photon number must be >= 0")
    if mean_photons == 0:
        return vacuum_state(dim)
    n = np.arange(dim)
    logp = n * math.log(mean_photons) - (n + 1) * math.log(mean_photons + 1.0)
    probs = np.exp(logp)
    tail = 1.0 - probs.sum()
    if tail > LEAK_TOL:
        raise CutoffError(f"thermal({mean_photons}) tail {tail:.3e} exceeds "
                          f"{LEAK_TOL} at cutoff {dim}", leak=tail)
    return FockDensityMatrix(1, dim, np.diag(probs.astype(complex)), validate=False)


def coherent_state(alpha: complex, dim: int) -> FockDensityMatrix:
    n = np.arange(dim)
    log_amp = n * np.log(np.abs(alpha)) if alpha != 0 else np.where(n == 0, 0.0, -np.inf)
    amps = np.exp(-0.5 * abs(alpha) ** 2 + log_amp - 0.5 * gammaln(n + 1.0))
    if alpha != 0:
        amps = amps * np.exp(1j * n * np.angle(alpha))
    norm = float(np.vdot(amps, amps).real)
    if 1.0 - norm > LEAK_TOL:
        raise CutoffError(f"coherent({alpha}) tail {1-norm:.3e} exceeds "
                          f"{LEAK_TOL} at cutoff {dim}", leak=1.0 - norm)
    return FockDensityMatrix(1, dim, np.outer(amps, amps.conj()), validate=False)


def squeezed_thermal_state(r: float, mean_photons: float, dim: int) -> FockDensityMatrix:
    """Single-mode squeezer applied to a thermal state."""
    base = thermal_state(mean_photons, dim)
    a = ladder(dim)
    squeezer = sla.expm(0.5 * r * (a @ a - a.conj().T @ a.conj().T))
    rho = squeezer @ base.rho @ squeezer.conj().T
    rho /= np.trace(rho).real
    out = FockDensityMatrix(1, dim, rho, validate=True)
    leak = trace_leak(out)
    if leak > LEAK_TOL:
        raise CutoffError(f"squeezed thermal leak {leak:.3e} at cutoff {dim}", leak=leak)
    return out


# ---------------------------------------------------------------------------
# channels

def _pure_components(rho: FockDensityMatrix) -> np.ndarray:
    """Columns sqrt(w_j) phi_j of rho = sum_j w_j |phi_j><phi_j|.

    Weights at or below dim * eps * max(w), the eigensolver's own backward
    error, are dropped; their mass reappears as trace deficit in the leak
    gate of two_mode_mix.
    """
    w, v = np.linalg.eigh(rho.rho)
    keep = w > rho.dim * np.finfo(float).eps * w[-1]
    return v[:, keep] * np.sqrt(w[keep])


def two_mode_mix(rho_a: FockDensityMatrix, rho_b: FockDensityMatrix,
                 p: MixingParams, leak_tol: float = LEAK_TOL) -> FockDensityMatrix:
    """Tr_B[U (rho_A x rho_B) U^dag] for the beam splitter / amplifier.

    With rho_A = sum_j r_j |phi_j><phi_j| and rho_B = sum_k s_k |psi_k><psi_k|
    (one eigh each), the output is sum_jk r_j s_k M_jk M_jk^dag, where M_jk
    is U (phi_j x psi_k) read as an n_A x n_B matrix; the dim^2 x dim^2
    joint state is never formed.  The beam splitter theta (a^dag b - a b^dag)
    conserves n_A + n_B and the amplifier r (a^dag b^dag - a b) conserves
    n_A - n_B, also after truncation, so U is block-diagonal by that charge
    with blocks of at most dim.  Ordered by n_A, a block's generator is real,
    skew and tridiagonal, with entry angle * sqrt(n_A' max(n_B, n_B')) from
    (n_A, n_B) to its neighbour (n_A', n_B') = (n_A + 1, n_B -+ 1).  The
    product vectors are laid out in charge order, about 2 dim at a time, so
    each sector is a contiguous row slice rotated by its block; they are
    then contracted by zherk.  Cost rank_A rank_B dim^3, memory O(dim^3).
    """
    if rho_a.dim != rho_b.dim:
        raise DomainError("two_mode_mix needs two states of equal cutoff")
    dim = rho_a.dim
    if p.kind == BEAM_SPLITTER and p.lambda_A == 0.0:
        return rho_b
    n_a, n_b = np.divmod(np.arange(dim * dim), dim)
    if p.kind == BEAM_SPLITTER:
        angle = math.atan(math.sqrt((1.0 - p.lambda_A) / p.lambda_A))
        charge = n_a + n_b
    else:
        angle = math.atanh(math.sqrt((p.lambda_A - 1.0) / p.lambda_A))
        charge = n_a - n_b
    order = np.argsort(charge, kind="stable")
    sa, sb = n_a[order], n_b[order]
    comp_a, comp_b = _pure_components(rho_a)[sa], _pure_components(rho_b)[sb]
    live = np.any(comp_a, axis=1) & np.any(comp_b, axis=1)
    edges = np.concatenate(([0], np.flatnonzero(np.diff(charge[order])) + 1, [dim * dim]))
    blocks = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if live[lo:hi].any():
            off = angle * np.sqrt(sa[lo + 1:hi] * np.maximum(sb[lo:hi - 1], sb[lo + 1:hi]))
            blocks.append((lo, hi, sla.expm(np.diag(off, -1) - np.diag(off, 1))))
    inverse = np.argsort(order)
    step = max(1, 2 * dim // comp_b.shape[1])
    acc = np.zeros((dim, dim), dtype=complex, order="F")
    diag = np.zeros(dim * dim)
    for j in range(0, comp_a.shape[1], step):
        vecs = (comp_a[:, j:j + step, None] * comp_b[:, None, :]).reshape(dim * dim, -1)
        flat = vecs.view(float)
        for lo, hi, u in blocks:
            flat[lo:hi] = u @ flat[lo:hi]
        diag += np.einsum("ij,ij->i", flat, flat)
        # rows n_A, columns (n_B, component); zherk on m.T adds conj(m m^dag)
        m = vecs[inverse].reshape(dim, -1)
        acc = zherk(1.0, m.T, beta=1.0, c=acc, trans=2, overwrite_c=1)
    # Cutoff adequacy: population in the top Fock layer of either output mode.
    diag = diag[inverse].reshape(dim, dim)
    top = float(diag[-1, :].sum() + diag[:, -1].sum() - diag[-1, -1])
    tr_def = abs(1.0 - float(diag.sum()))
    leak = top + tr_def
    if leak > leak_tol:
        raise CutoffError(f"mixing leak {leak:.3e} exceeds {leak_tol} at cutoff {dim}",
                          leak=leak)
    out = np.triu(acc).conj() + np.triu(acc, 1).T      # acc: conj(rho), upper triangle
    out /= np.trace(out).real
    return FockDensityMatrix(1, dim, out, validate=True)


# ---------------------------------------------------------------------------
# entropies

def _clean_spectrum(evs: np.ndarray, what: str) -> np.ndarray:
    if evs.min() < -1e-8:
        raise NumericError(f"{what}: eigenvalue {evs.min():.3e} below -1e-8")
    return np.maximum(evs, 0.0)


def vn_entropy(rho: FockDensityMatrix) -> float:
    """-Tr[rho ln rho] in nats."""
    evs = _clean_spectrum(np.linalg.eigvalsh(rho.rho), "vn_entropy")
    return float(-np.sum(xlogy(evs, evs)))


def relative_entropy(rho: FockDensityMatrix, sigma: FockDensityMatrix) -> float:
    """Tr[rho (ln rho - ln sigma)]; +inf outside sigma's support."""
    if rho.rho.shape != sigma.rho.shape:
        raise DomainError("shape mismatch in relative entropy")
    p, up = np.linalg.eigh(rho.rho)
    q, uq = np.linalg.eigh(sigma.rho)
    p = _clean_spectrum(p, "relative_entropy")
    q = _clean_spectrum(q, "relative_entropy")
    overlap = np.abs(up.conj().T @ uq) ** 2      # overlap[i, j] = |<p_i|q_j>|^2
    null = q < SUPPORT_TOL
    if null.any() and float(p @ overlap[:, null].sum(axis=1)) > SUPPORT_TOL:
        return float("inf")
    supp = ~null
    cross = float(p @ (overlap[:, supp] @ np.log(q[supp])))
    return float(np.sum(xlogy(p, p))) - cross


# ---------------------------------------------------------------------------
# additive-noise evolution and displacements

def trace_distance(a: FockDensityMatrix, b: FockDensityMatrix) -> float:
    evs = np.linalg.eigvalsh(a.rho - b.rho)
    return 0.5 * float(np.sum(np.abs(evs)))


def liouville_evolve(rho: FockDensityMatrix, t: float) -> FockDensityMatrix:
    """Evolve for time t under the additive-noise semigroup, exact on the cutoff.

    The generator -1/4 ([Q,[Q,rho]] + [P,[P,rho]]) reads, entrywise,
    -(c_m + c_n)/4 rho_mn + 1/2 (sqrt(mn) rho_{m-1,n-1}
    + sqrt((m+1)(n+1)) rho_{m+1,n+1}) with c = diag(a a^dag + a^dag a), i.e.
    2m + 1 except dim - 1 at the top level of the truncated space.  So each
    band n - m = +-k evolves on its own under a symmetric tridiagonal
    matrix, exponentiated here through its eigendecomposition.  A band
    that is exactly zero stays zero and is skipped, so a Fock-diagonal
    input costs one eigensolve.
    """
    if t < 0:
        raise DomainError("evolution time must be >= 0")
    if t == 0:
        return rho
    dim = rho.dim
    m = np.arange(dim)
    c = 2.0 * m + 1.0
    c[-1] = dim - 1
    out = np.zeros_like(rho.rho)
    for k in range(dim):
        j = m[:dim - k]                       # band entries (j, j + k)
        if not (rho.rho[j, j + k].any() or rho.rho[j + k, j].any()):
            continue
        w, v = sla.eigh_tridiagonal(-(c[j] + c[j + k]) / 4.0,
                                    0.5 * np.sqrt(j[1:] * (j[1:] + k)))
        prop = (v * np.exp(t * w)) @ v.T
        out[j, j + k] = prop @ rho.rho[j, j + k]
        out[j + k, j] = prop @ rho.rho[j + k, j]
    return FockDensityMatrix(1, dim, out, validate=True)


def displace_fock(rho: FockDensityMatrix, direction: str,
                  theta: float) -> FockDensityMatrix:
    """Conjugate by the phase-space translation D_R(theta).

    direction "q" shifts <Q> by +theta (unitary exp(-i theta P)),
    direction "p" shifts <P> by +theta (unitary exp(+i theta Q)).
    """
    if direction not in ("q", "p"):
        raise DomainError(f"direction must be 'q' or 'p', got {direction!r}")
    q1, p1 = quadratures(rho.dim)
    gen = -1j * theta * p1 if direction == "q" else 1j * theta * q1
    u = sla.expm(gen)
    out = u @ rho.rho @ u.conj().T
    fdm = FockDensityMatrix(1, rho.dim, out, validate=True)
    leak = trace_leak(fdm)
    if leak > LEAK_TOL:
        raise CutoffError(f"displacement leak {leak:.3e} at cutoff {rho.dim}", leak=leak)
    return fdm


def expectation(rho: FockDensityMatrix, op: np.ndarray) -> float:
    return float(np.trace(op @ rho.rho).real)


def trace_leak(rho: FockDensityMatrix) -> float:
    """Trace deficit plus population of the highest Fock layer (cutoff gate)."""
    tr_def = abs(1.0 - float(np.trace(rho.rho).real))
    top = float(rho.rho[-1, -1].real)
    return tr_def + max(top, 0.0)
