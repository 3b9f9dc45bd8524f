"""Truncated Fock-space oracle: single-mode density matrices at a finite cutoff.

Everything the Gaussian modules compute in closed form can be cross-checked
here by brute force on one mode with a finite Fock cutoff, and non-Gaussian
inputs (Fock states) become available.  The channel kernels use the
photon-number structure that survives truncation: the mixing unitaries
conserve n_A + n_B (beam splitter) or n_A - n_B (amplifier), and the
additive-noise generator maps each diagonal band of rho to itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from numpy.lib.stride_tricks import sliding_window_view
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

class _Sectors:
    """The charge sectors of one mixing channel at one cutoff.

    The beam splitter theta (a^dag b - a b^dag) conserves n_A + n_B and the
    amplifier r (a^dag b^dag - a b) conserves n_A - n_B, also after
    truncation.  Sector k holds the pairs with n_A + n_B = k (beam
    splitter) or n_A - n_B = k - (dim - 1) (amplifier), at most dim of
    them, and U acts on it as a real orthogonal block.  Ordered by n_A, the
    block's generator is skew and tridiagonal, with entry
    angle * sqrt(n_A' max(n_B, n_B')) from (n_A, n_B) to its neighbour
    (n_A', n_B') = (n_A + 1, n_B -+ 1).  Each block is built on first use
    and kept read-only.
    """

    def __init__(self, kind: str, lambda_a: float, dim: int):
        self.dim = dim
        self.beam_splitter = kind == BEAM_SPLITTER
        if self.beam_splitter:
            self.angle = math.atan(math.sqrt((1.0 - lambda_a) / lambda_a))
        else:
            self.angle = math.atanh(math.sqrt((lambda_a - 1.0) / lambda_a))
        self.blocks = [None] * (2 * dim - 1)

    def charge(self, n_a, n_b):
        return n_a + n_b if self.beam_splitter else n_a - n_b + self.dim - 1

    def live(self, supp_a: np.ndarray, supp_b: np.ndarray) -> np.ndarray:
        """The sectors that hold a pair (n_A, n_B) in both supports."""
        kernel = supp_b if self.beam_splitter else supp_b[::-1]
        return np.flatnonzero(np.convolve(supp_a.astype(float), kernel.astype(float)))

    def block(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """n_A (ascending), n_B and the block of sector k, built on first use."""
        if self.blocks[k] is None:
            dim = self.dim
            if self.beam_splitter:
                n_a = np.arange(max(0, k - dim + 1), min(k, dim - 1) + 1)
                n_b = k - n_a
            else:
                diff = k - dim + 1
                n_a = np.arange(max(0, diff), min(dim, dim + diff))
                n_b = n_a - diff
            off = self.angle * np.sqrt(n_a[1:] * np.maximum(n_b[:-1], n_b[1:]))
            u = sla.expm(np.diag(off, -1) - np.diag(off, 1))
            for array in (n_a, n_b, u):
                array.flags.writeable = False
            self.blocks[k] = (n_a, n_b, u)
        return self.blocks[k]


@functools.lru_cache(maxsize=8)
def _sectors(kind: str, lambda_a: float, dim: int) -> _Sectors:
    """The sector store: the blocks of the last 8 channels mixed."""
    return _Sectors(kind, lambda_a, dim)


def _eigen_floor(w: np.ndarray, dim: int) -> float:
    """Weights at or below this are below the eigensolver's backward error."""
    return dim * np.finfo(float).eps * w.max()


def _pure_components(rho: FockDensityMatrix) -> np.ndarray:
    """Columns sqrt(w_j) phi_j of rho = sum_j w_j |phi_j><phi_j|.

    Weights at or below _eigen_floor are dropped; their mass reappears as
    trace deficit in the leak gate of two_mode_mix.
    """
    w, v = np.linalg.eigh(rho.rho)
    keep = w > _eigen_floor(w, rho.dim)
    return v[:, keep] * np.sqrt(w[keep])


def _is_diagonal(rho: FockDensityMatrix) -> bool:
    """No nonzero entry off the diagonal."""
    return np.count_nonzero(rho.rho) == np.count_nonzero(np.diagonal(rho.rho))


def _populations(rho: FockDensityMatrix) -> tuple[np.ndarray, np.ndarray, bool]:
    """Populations, support and whether rho is exactly Fock-diagonal.

    The populations of a diagonal state are its eigenvalues, so they get the
    floor of _pure_components; the support of any other state is the set of
    its nonzero rows.
    """
    pop = np.diagonal(rho.rho).real
    if _is_diagonal(rho):
        pop = np.where(pop > _eigen_floor(pop, rho.dim), pop, 0.0)
        return pop, pop > 0.0, True
    return pop, np.any(rho.rho != 0.0, axis=1), False


def _mix_components(rho_a: FockDensityMatrix, rho_b: FockDensityMatrix,
                    sectors: _Sectors) -> tuple[np.ndarray, np.ndarray]:
    """Output and joint output populations from the pure components.

    The product vectors phi_j x psi_k are laid out in charge order, about
    2 dim at a time, so each sector is a contiguous row slice rotated by its
    block; zherk then contracts them.  Cost rank_A rank_B dim^3.
    """
    dim = rho_a.dim
    n_a, n_b = np.divmod(np.arange(dim * dim), dim)
    charge = sectors.charge(n_a, n_b)
    order = np.argsort(charge, kind="stable")
    sa, sb = n_a[order], n_b[order]
    comp_a, comp_b = _pure_components(rho_a)[sa], _pure_components(rho_b)[sb]
    live = np.any(comp_a, axis=1) & np.any(comp_b, axis=1)
    edges = np.concatenate(([0], np.flatnonzero(np.diff(charge[order])) + 1, [dim * dim]))
    blocks = [(lo, hi, sectors.block(charge[order[lo]])[2])
              for lo, hi in zip(edges[:-1], edges[1:]) if live[lo:hi].any()]
    inverse = np.argsort(order)
    step = max(1, 2 * dim // comp_b.shape[1])
    acc = np.zeros((dim, dim), dtype=complex, order="F")
    joint = np.zeros(dim * dim)
    for j in range(0, comp_a.shape[1], step):
        vecs = (comp_a[:, j:j + step, None] * comp_b[:, None, :]).reshape(dim * dim, -1)
        flat = vecs.view(float)
        for lo, hi, u in blocks:
            flat[lo:hi] = u @ flat[lo:hi]
        joint += np.einsum("ij,ij->i", flat, flat)
        # rows n_A, columns (n_B, component); zherk on m.T adds conj(m m^dag)
        m = vecs[inverse].reshape(dim, -1)
        acc = zherk(1.0, m.T, beta=1.0, c=acc, trans=2, overwrite_c=1)
    out = np.triu(acc).conj() + np.triu(acc, 1).T      # acc: conj(rho), upper triangle
    return out, joint[inverse].reshape(dim, dim)


def _shift_sum(h: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """sum_s h[s] * sigma[x + s, x' + s] over the shifts s = 1 - dim .. dim - 1."""
    dim = sigma.shape[0]
    pad = np.zeros((3 * dim - 2, 3 * dim - 2), dtype=complex)
    pad[dim - 1:2 * dim - 1, dim - 1:2 * dim - 1] = sigma
    # window (k, k) of pad is sigma shifted by s = k + 1 - dim
    shifted = sliding_window_view(pad, (dim, dim)).diagonal().transpose(2, 0, 1)
    return (h * shifted).sum(axis=0)


def _mix_diagonal(rho_a: FockDensityMatrix, rho_b: FockDensityMatrix,
                  sectors: _Sectors) -> tuple[np.ndarray, np.ndarray]:
    """Output and joint output populations when an input is Fock-diagonal.

    The joint output populations need only the inputs' diagonals, since U
    conserves the charge; they are the output itself when both inputs are
    diagonal.  With one diagonal input the output is a sum of shifted
    copies of the other, see two_mode_mix.
    """
    dim = rho_a.dim
    pop_a, supp_a, diag_a = _populations(rho_a)
    pop_b, supp_b, diag_b = _populations(rho_b)
    live = sectors.live(supp_a, supp_b)
    joint = np.outer(pop_a, pop_b)     # input populations, then output ones
    # w[b, x, a] = <x, y|U|a, b>, with a zero slab at b = dim and at a = dim
    w = None if diag_a and diag_b else np.zeros((dim + 1, dim, dim + 1))
    for k in live:
        n_a, n_b, u = sectors.block(k)
        joint[n_a, n_b] = (u * u) @ joint[n_a, n_b]
        if w is not None:
            w[n_b, n_a[0]:n_a[-1] + 1, n_a] = u.T
    x = np.arange(dim)
    shift = np.arange(1 - dim, dim)[:, None]
    if diag_a and diag_b:
        out = np.diag(joint.sum(axis=1)).astype(complex)
    else:
        if diag_b:      # rows (x, a = x + s) of w, columns b in the support of rho_B
            supp, pop, sigma = np.flatnonzero(supp_b), pop_b, rho_a.rho
            m = w[supp].transpose(1, 2, 0).reshape(-1, supp.size)
            a = x + shift
            rows = x * (dim + 1) + np.where((a >= 0) & (a < dim), a, dim)
        else:           # rows (b, x) of w, columns a in the support of rho_A
            supp, pop, sigma = np.flatnonzero(supp_a), pop_a, rho_b.rho
            m = w[:, :, supp].reshape(-1, supp.size)
            b = x + shift
            if not sectors.beam_splitter:
                b, sigma = dim - 1 - b, sigma[::-1, ::-1]
            rows = np.where((b >= 0) & (b < dim), b, dim) * dim + x
        g = m[rows] * np.sqrt(pop[supp])       # g[s, x, k], k over the support
        out = _shift_sum(g @ g.transpose(0, 2, 1), sigma)
    return out, joint


def two_mode_mix(rho_a: FockDensityMatrix, rho_b: FockDensityMatrix,
                 p: MixingParams, leak_tol: float = LEAK_TOL) -> FockDensityMatrix:
    """Tr_B[U (rho_A x rho_B) U^dag] for the beam splitter / amplifier.

    U is block-diagonal by charge (see _Sectors); the blocks of the sectors
    the inputs populate come from a store kept per channel.  Write
    W[y, x, a] = <x, y|U|a, b>, with b fixed by the charge.  The contraction
    follows the inputs' structure:

    - both Fock-diagonal (populations p, r): the output is diagonal,
      rho_C[x, x] = sum_{y, a} W[y, x, a]^2 p_a r_b, which is sum_q |U_q|^2
      (p x r)_q per sector, marginalised.  Cost O(dim^3).
    - one diagonal: rho_C = sum_s H_s * sigma[x + s, x' + s] over at most
      2 dim - 1 shifts, with sigma the other input and H_s real symmetric,
      one batched matmul over the diagonal input's support.  rho_B = diag(r)
      gives sigma = rho_A and H_s = sum_b r_b V V^T with V[x] =
      W[y, x, x + s]; rho_A = diag(p) gives H_s[x, x'] =
      sum_a p_a W[y, x, a] W[y, x', a] at b = x + s (beam splitter,
      sigma = rho_B) or b = dim - 1 - s - x (amplifier, sigma = rho_B
      flipped in both indices).  Cost O(dim^3 |support|).
    - neither: with rho_A = sum_j r_j |phi_j><phi_j| and rho_B =
      sum_k s_k |psi_k><psi_k| (one eigh each), the output is
      sum_jk r_j s_k M_jk M_jk^dag, where M_jk is U (phi_j x psi_k) read as
      an n_A x n_B matrix.  Cost rank_A rank_B dim^3.

    The dim^2 x dim^2 joint state is never formed; memory is O(dim^3).  A
    diagonal input's populations at or below dim * eps * max are dropped,
    as are the eigenvalues of a general one; the cutoff gate counts the
    joint output population of the top Fock layer of either mode plus the
    trace deficit, so it also counts that mass.
    """
    if rho_a.dim != rho_b.dim:
        raise DomainError("two_mode_mix needs two states of equal cutoff")
    dim = rho_a.dim
    if p.kind == BEAM_SPLITTER and p.lambda_A == 0.0:
        return rho_b
    sectors = _sectors(p.kind, p.lambda_A, dim)
    if _is_diagonal(rho_a) or _is_diagonal(rho_b):
        out, joint = _mix_diagonal(rho_a, rho_b, sectors)
    else:
        out, joint = _mix_components(rho_a, rho_b, sectors)
    top = float(joint[-1, :].sum() + joint[:, -1].sum() - joint[-1, -1])
    tr_def = abs(1.0 - float(joint.sum()))
    leak = top + tr_def
    if leak > leak_tol:
        raise CutoffError(f"mixing leak {leak:.3e} exceeds {leak_tol} at cutoff {dim}",
                          leak=leak)
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
    # 0.0 - 0.0 is 0.0 where -0.0 would be a pure state's negated sum
    return 0.0 - float(np.sum(xlogy(evs, evs)))


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
