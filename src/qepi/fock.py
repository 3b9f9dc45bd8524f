"""Truncated Fock-space oracle: single-mode density matrices at a finite cutoff.

Everything the Gaussian modules compute in closed form can be cross-checked
here by brute force on one mode with a finite Fock cutoff, and non-Gaussian
inputs (Fock states) become available.  The channel kernels use the
photon-number structure that survives truncation: the mixing unitaries
conserve n_A + n_B (beam splitter) or n_A - n_B (amplifier), and the
additive-noise generator maps each diagonal band of rho to itself.  A
state records once, when it is built, whether rho is Fock-diagonal (its
`diagonal` field); such a state is its population vector, which the
constructors, the mixes and the noise evolution hand over and check in
O(dim) rather than as a dense matrix.

scipy is imported inside the functions that use it, so importing this
module (and with it qepi and qepi.cli) loads no scipy: the Gaussian
commands never pay its start-up.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .channels import MixingParams
from .symplectic import DomainError, NumericError, require

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


class AccuracyError(NumericError):
    """A numerical routine failed its embedded accuracy estimate."""


def _gate(leak: float, what: str, dim: int) -> None:
    """The cutoff gate: refuse a leak above LEAK_TOL."""
    if leak > LEAK_TOL:
        raise CutoffError(f"{what} {leak:.3e} exceeds {LEAK_TOL} at cutoff {dim}", leak=leak)


@dataclass(frozen=True, eq=False)
class FockDensityMatrix:
    """A density matrix on dim Fock levels, validated and read-only once built.

    Building one checks rho finite, Hermitian and of unit trace (and keeps
    its Hermitian part) and its least eigenvalue against EIGENVALUE_FLOOR;
    the eigenvalues, ascending, are kept as `spectrum`.  `diagonal` records
    whether rho has no nonzero entry off the diagonal.  Such a rho is
    checked through its diagonal alone (see _hermitian_part), and its
    spectrum is that diagonal, sorted: eigvalsh's reduction to tridiagonal
    form leaves a diagonal matrix as it is and its tridiagonal solver
    splits it into 1 x 1 blocks, so it would return the same bits.
    Since rho cannot change, its eigh is kept the first time it is asked
    for, as `eigensystem`.  A unitary image u rho u^dag inherits both from
    rho instead (see _unitary_image).
    """

    dim: int                # Fock dimension, read from the shape of rho
    rho: np.ndarray         # dim x dim complex Hermitian
    spectrum: np.ndarray    # the eigenvalues of rho, ascending, read-only
    diagonal: bool          # no nonzero entry of rho off the diagonal

    def __init__(self, rho):
        rho = np.array(rho, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.size == 0:
            raise DomainError(f"expected a non-empty square matrix, got shape {rho.shape}")
        if not _is_diagonal(rho):
            rho = _hermitian_part(rho)
            # off-diagonal entries within HERMITICITY_TOL can cancel in it
            if not _is_diagonal(rho):
                _set_state(self, rho, _above_floor(np.linalg.eigvalsh(rho)), False)
                return
        _set_populations(self, np.diagonal(rho))

    @functools.cached_property
    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """(w, v) = eigh(rho): ascending eigenvalues and eigenvectors as columns."""
        w, v = np.linalg.eigh(self.rho)
        w.flags.writeable = v.flags.writeable = False
        return w, v


def _hermitian_part(rho: np.ndarray) -> np.ndarray:
    """(rho + rho^dag) / 2, once rho is checked finite, Hermitian and of unit trace.

    Finiteness comes first: NaN fails no comparison, and an infinite entry
    would turn the Hermiticity residual into NaN.  rho may also be the
    diagonal of a Fock-diagonal matrix: the same operations on it give the
    same refusals, messages and bits as on the matrix, in O(dim).
    """
    if not np.isfinite(rho).all():
        raise NumericError("density matrix has non-finite entries")
    herm = np.max(np.abs(rho - rho.conj().T))
    if herm > HERMITICITY_TOL:
        raise NumericError(f"non-Hermitian density matrix: {herm:.3e}")
    rho = 0.5 * (rho + rho.conj().T)
    tr = float((np.trace(rho) if rho.ndim == 2 else rho.sum()).real)
    if abs(tr - 1.0) > TRACE_TOL:
        raise NumericError(f"trace {tr} deviates from 1 beyond {TRACE_TOL}")
    return rho


def _above_floor(evs: np.ndarray) -> np.ndarray:
    """The ascending eigenvalues evs, read-only, once the least is checked
    against EIGENVALUE_FLOOR."""
    if evs[0] < EIGENVALUE_FLOOR:
        raise NumericError(f"negative eigenvalue {evs[0]:.3e}")
    evs.flags.writeable = False
    return evs


def _set_state(state: FockDensityMatrix, rho: np.ndarray, spectrum: np.ndarray,
               diagonal: bool) -> None:
    """Make state the density matrix rho, now read-only, of the read-only spectrum."""
    rho.flags.writeable = False
    object.__setattr__(state, "dim", rho.shape[0])
    object.__setattr__(state, "rho", rho)
    object.__setattr__(state, "spectrum", spectrum)
    object.__setattr__(state, "diagonal", diagonal)


def _set_populations(state: FockDensityMatrix, pop: np.ndarray) -> None:
    """Make state diag(pop), checked through its diagonal, in O(dim) (see _hermitian_part)."""
    pop = _hermitian_part(np.asarray(pop, dtype=complex))
    _set_state(state, np.diag(pop), _above_floor(np.sort(pop.real)), True)


def _from_populations(pop: np.ndarray) -> FockDensityMatrix:
    """The Fock-diagonal state diag(pop), with the checks, refusals and bits
    of FockDensityMatrix(np.diag(pop))."""
    state = object.__new__(FockDensityMatrix)
    _set_populations(state, pop)
    return state


def _unitary_image(rho: FockDensityMatrix, u: np.ndarray) -> FockDensityMatrix:
    """u rho u^dag for a unitary u, its decompositions inherited from rho.

    With rho = v diag(w) v^dag, the image is (u v) diag(w) (u v)^dag: it
    takes rho's spectrum (the same array, so its entropy carries the same
    bits, and already checked against the eigenvalue floor) and the
    eigensystem (w, u v) from rho's eigh, and no eigensolve of its own.
    Its entries are checked as the constructor checks them.
    """
    image = object.__new__(FockDensityMatrix)
    out = _hermitian_part(u @ rho.rho @ u.conj().T)
    _set_state(image, out, rho.spectrum, _is_diagonal(out))
    w, v = rho.eigensystem
    x = u @ v
    x.flags.writeable = False
    object.__setattr__(image, "eigensystem", (w, x))
    return image


def _is_diagonal(rho: np.ndarray) -> bool:
    """No nonzero entry off the diagonal."""
    return np.count_nonzero(rho) == np.count_nonzero(np.diagonal(rho))


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

def _require_integer(name: str, value, low: int) -> int:
    """value as an int if it is a whole number >= low, a numpy scalar too; else DomainError."""
    require(name, value, low)
    if value != int(value):
        raise DomainError(f"{name} must be an integer, got {value}")
    return int(value)


def vacuum_state(dim: int) -> FockDensityMatrix:
    return fock_state(0, dim)


def fock_state(k: int, dim: int) -> FockDensityMatrix:
    dim = _require_integer("cutoff", dim, 1)
    k = _require_integer("Fock level", k, 0)
    if k >= dim:
        raise CutoffError(f"Fock level {k} does not fit below cutoff {dim}")
    pop = np.zeros(dim)
    pop[k] = 1.0
    return _from_populations(pop)


def thermal_state(mean_photons: float, dim: int) -> FockDensityMatrix:
    dim = _require_integer("cutoff", dim, 1)
    require("mean photon number", mean_photons, 0.0)
    if mean_photons == 0:
        return vacuum_state(dim)
    n = np.arange(dim)
    logp = n * math.log(mean_photons) - (n + 1) * math.log(mean_photons + 1.0)
    probs = np.exp(logp)
    _gate(1.0 - probs.sum(), f"thermal({mean_photons}) tail", dim)
    return _from_populations(probs)


def coherent_state(alpha: complex, dim: int) -> FockDensityMatrix:
    dim = _require_integer("cutoff", dim, 1)
    require("|alpha|", abs(alpha), 0.0)
    n = np.arange(dim)
    log_amp = n * np.log(np.abs(alpha)) if alpha != 0 else np.where(n == 0, 0.0, -np.inf)
    log_factorial = np.array([math.lgamma(k + 1.0) for k in range(dim)])
    amps = np.exp(-0.5 * abs(alpha) ** 2 + log_amp - 0.5 * log_factorial)
    if alpha != 0:
        amps = amps * np.exp(1j * n * np.angle(alpha))
    _gate(1.0 - float(np.vdot(amps, amps).real), f"coherent({alpha}) tail", dim)
    return FockDensityMatrix(np.outer(amps, amps.conj()))


def squeezed_thermal_state(r: float, mean_photons: float, dim: int) -> FockDensityMatrix:
    """Single-mode squeezer applied to a thermal state."""
    require("r", r)
    import scipy.linalg as sla
    base = thermal_state(mean_photons, dim)
    a = ladder(base.dim)
    squeezer = sla.expm(0.5 * r * (a @ a - a.conj().T @ a.conj().T))
    rho = squeezer @ base.rho @ squeezer.conj().T
    rho /= np.trace(rho).real
    out = FockDensityMatrix(rho)
    _gate(trace_leak(out), "squeezed thermal leak", dim)
    return out


# ---------------------------------------------------------------------------
# channels

class _Amplitudes:
    """The beam splitter's amplitudes inside the cutoff box, one block per sector.

    U = exp(theta (a^dag b - a b^dag)), c = cos theta = sqrt(tau) and
    s = sqrt(1 - tau), conserves k = n_A + n_B.  Block k is B_k[x, a] =
    <x, k - x|U|a, k - a> over the levels x, a in [lo_k, lo_k + size_k)
    that keep both modes below the cutoff.  The symmetric recurrence (after
    Risbo, J. Geodesy 70, 383 (1996))

        k B_k[x, a] = sqrt(a) (c sqrt(x) B_{k-1}[x-1, a-1] - s sqrt(y) B_{k-1}[x, a-1])
                    + sqrt(b) (s sqrt(x) B_{k-1}[x-1, a] + c sqrt(y) B_{k-1}[x, a]),

    y = k - x and b = k - a, reads only in-box entries of sector k - 1: the
    blocks are exact to rounding.  They are built in order up to the highest
    sector asked for, as read-only views of one flat buffer, and kept for
    the last 8 (tau, cutoff).
    """

    def __init__(self, tau: float, dim: int):
        k = np.arange(2 * dim - 1)
        self.lo = np.maximum(0, k - dim + 1)
        self.size = np.minimum(k, dim - 1) - self.lo + 1
        self.offset = np.concatenate(([0], np.cumsum(self.size ** 2)))
        self.flat = np.empty(self.offset[-1])
        self.blocks = []
        self._pad = np.zeros((dim + 1, dim + 1))    # the last block, B[x, a] at [x + 1, a + 1]
        self._root = np.sqrt(k)
        self._c_root, self._s_root = math.sqrt(tau) * self._root, math.sqrt(1.0 - tau) * self._root

    def levels(self, k: int) -> tuple[slice, slice]:
        """The levels x (or a) of sector k, ascending, and y = k - x (or b)."""
        lo, n = int(self.lo[k]), int(self.size[k])
        return slice(lo, lo + n), slice(k - lo, k - lo - n if k >= lo + n else None, -1)

    def upto(self, top: int) -> list[np.ndarray]:
        """Blocks 0 .. top, each built the first time a mix reaches its sector."""
        root, c_root, s_root = self._root, self._c_root, self._s_root
        while len(self.blocks) <= top:
            k = len(self.blocks)
            x, y = self.levels(k)
            lo, n = x.start, x.stop - x.start
            block = self.flat[self.offset[k]:self.offset[k + 1]].reshape(n, n)
            if k == 0:
                block[0, 0] = 1.0
            else:
                last = self._pad[lo:lo + n + 1, lo:lo + n + 1]
                up, down = last[:-1], last[1:]      # rows x - 1 and x of B_{k-1}
                first = c_root[x, None] * up[:, :-1] - s_root[y, None] * down[:, :-1]
                second = s_root[x, None] * up[:, 1:] + c_root[y, None] * down[:, 1:]
                np.multiply(first, root[x], out=block)      # first: columns a - 1
                block += second * root[y]
                block /= k
            # the pad entries sector k + 1 reads beyond this block stay zero
            self._pad[lo + 1:lo + n + 1, lo + 1:lo + n + 1] = block
            block.flags.writeable = False
            self.blocks.append(block)
        return self.blocks


class _Sectors:
    """One mixing channel at one cutoff; a store is kept for the last 8 mixed.

    Beam splitter lambda reads U at tau = lambda (see _Amplitudes).  The
    amplifier of gain kappa is U at tau = 1 / kappa with B's input and
    output exchanged, <x, y|S|a, b> = kappa^(-1/2) <x, b|U|a, y>.  Both
    conserve n_A + label_b[n_B], label_b reversing n_B when B is (the
    amplifier).  Sector q's real block is U's own, or gathered from U's
    sectors; the blocks, the charge order and W are kept read-only.
    """

    def __init__(self, p: MixingParams, dim: int):
        self.dim = dim
        self.dual = p.reversed_b
        self.label_b = np.arange(dim)[::-1] if self.dual else np.arange(dim)
        self.amps = _amplitudes(1.0 / p.lambda_A if self.dual else p.lambda_A, dim)
        self.scale = 1.0 / math.sqrt(p.lambda_A) if self.dual else 1.0
        self.blocks = [None] * (2 * dim - 1)     # the amplifier's, see block()
        self.w = None       # the dense W, see dense()
        self.filled = 0     # W holds U's sectors 0 .. filled - 1

    @functools.cached_property
    def layout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """n_A, n_B of the dim^2 pairs in charge order, the position of pair
        (n_A, n_B) at n_A dim + n_B, and the sector edges; read-only."""
        n_a, n_b = np.divmod(np.arange(self.dim * self.dim), self.dim)
        order = np.argsort(n_a + self.label_b[n_b], kind="stable")
        edges = np.concatenate(([0], np.cumsum(self.amps.size)))
        arrays = n_a[order], n_b[order], np.argsort(order), edges
        for array in arrays:
            array.flags.writeable = False
        return arrays

    def block(self, q: int) -> np.ndarray:
        """The block of sector q, rows and columns by ascending n_A."""
        amps = self.amps
        if not self.dual:
            return amps.upto(q)[q]
        if self.blocks[q] is None:
            x = np.arange(amps.lo[q], amps.lo[q] + amps.size[q])
            k = x[:, None] + x - q + self.dim - 1       # <x, y|S|a, b> is in U's sector x + b
            amps.upto(k[-1, -1])
            lo = amps.lo[k]
            u = self.scale * amps.flat[amps.offset[k] + (x[:, None] - lo) * amps.size[k] + x - lo]
            u.flags.writeable = False
            self.blocks[q] = u
        return self.blocks[q]

    def dense(self, top: int) -> np.ndarray:
        """W[b, x, a] = <x, y|U|a, b>, y fixed by the charge, read-only: dim^3
        doubles, filled through U's sector top; past it only zero inputs meet W."""
        if self.w is None:
            self.w = np.zeros((self.dim, self.dim, self.dim))
        amps = self.amps
        for k, u in enumerate(amps.upto(top)[self.filled:top + 1], start=self.filled):
            x = amps.levels(k)[0]
            v = np.arange(x.start, x.stop)
            if self.dual:       # sector k holds W[k - x, x, a]
                self.w[k - v, v, x] = self.scale * u
            else:               # and W[k - a, x, a] of the beam splitter
                self.w[k - v, x, v] = u.T
        self.filled = max(self.filled, top + 1)
        view = self.w.view()
        view.flags.writeable = False
        return view


_amplitudes = functools.lru_cache(maxsize=8)(_Amplitudes)
_sectors = functools.lru_cache(maxsize=8)(_Sectors)


def _eigen_floor(w: np.ndarray, dim: int) -> float:
    """Weights at or below this are below the eigensolver's backward error."""
    return dim * np.finfo(float).eps * w.max()


def _pure_components(rho: FockDensityMatrix) -> np.ndarray:
    """Columns sqrt(w_j) phi_j of rho = sum_j w_j |phi_j><phi_j|.

    Weights at or below _eigen_floor are dropped; their mass reappears as
    trace deficit in the leak gate of two_mode_mix.
    """
    w, v = rho.eigensystem
    keep = w > _eigen_floor(w, rho.dim)
    return v[:, keep] * np.sqrt(w[keep])


def _populations(rho: FockDensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Populations and support.

    The populations of a diagonal state are its eigenvalues, so they get the
    floor of _pure_components; the support of any other state is the set of
    its nonzero rows.
    """
    pop = np.diagonal(rho.rho).real
    if rho.diagonal:
        pop = np.where(pop > _eigen_floor(pop, rho.dim), pop, 0.0)
        return pop, pop > 0.0
    return pop, np.any(rho.rho != 0.0, axis=1)


def _mix_components(rho_a: FockDensityMatrix, rho_b: FockDensityMatrix,
                    sectors: _Sectors) -> np.ndarray:
    """The output when neither input is diagonal, from their pure components.

    The product vectors phi_j x psi_k are laid out in charge order, about
    2 dim at a time, so each sector is a contiguous row slice rotated by its
    block; zherk then contracts them.  Cost rank_A rank_B dim^3.
    """
    from scipy.linalg.blas import zherk
    dim = rho_a.dim
    n_a, n_b, position, edges = sectors.layout
    comp_a, comp_b = _pure_components(rho_a)[n_a], _pure_components(rho_b)[n_b]
    live = np.any(comp_a, axis=1) & np.any(comp_b, axis=1)
    blocks = [(edges[q], edges[q + 1], sectors.block(q))
              for q in np.flatnonzero(np.logical_or.reduceat(live, edges[:-1]))]
    step = max(1, 2 * dim // comp_b.shape[1])
    acc = np.zeros((dim, dim), dtype=complex, order="F")
    for j in range(0, comp_a.shape[1], step):
        vecs = (comp_a[:, j:j + step, None] * comp_b[:, None, :]).reshape(dim * dim, -1)
        flat = vecs.view(float)
        for lo, hi, u in blocks:
            flat[lo:hi] = u @ flat[lo:hi]
        # rows n_A, columns (n_B, component); zherk on m.T adds conj(m m^dag)
        m = vecs[position].reshape(dim, -1)
        acc = zherk(1.0, m.T, beta=1.0, c=acc, trans=2, overwrite_c=1)
    return np.triu(acc).conj() + np.triu(acc, 1).T      # acc: conj(rho), upper triangle


def _shift_sum(h: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """sum_s h[s] * sigma~_s for s = 0 .. dim - 1, see _mix_diagonal.

    sigma~_s[x, x'] is window (s, s) of diag(sigma, sigma): sigma[x + s,
    x' + s] when x + s and x' + s are both below dim, sigma[x + s - dim,
    x' + s - dim] when neither is, and 0 otherwise.  The real and
    imaginary parts sit in one array, which a strided view reads as the
    windows; two real contractions with h give the sum.
    """
    dim = sigma.shape[0]
    pad = np.zeros((2, 2 * dim, 2 * dim))
    pad[:, :dim, :dim] = pad[:, dim:, dim:] = sigma.real, sigma.imag
    part, row, col = pad.strides
    windows = as_strided(pad, (2, dim, dim, dim), (part, row + col, row, col),
                         writeable=False)
    re, im = np.einsum("sij,csij->cij", h, windows)
    return re + 1j * im


def _mix_diagonal(rho_a: FockDensityMatrix, rho_b: FockDensityMatrix,
                  sectors: _Sectors) -> np.ndarray:
    """The output when an input is Fock-diagonal, O(dim^3 n), n the span of its support.

    W[b, x, a] = <x, y|U|a, b>, y fixed by the charge; p and r are the
    populations of rho_A and rho_B.  Both diagonal: the output's
    populations rho_C[x, x] = sum_{a, b} W[b, x, a]^2 p_a r_b, over U's
    sectors, as a vector.  One diagonal: rho_C = sum_s H_s
    * sigma[x + s, x' + s] over s = 1 - dim .. dim - 1.  rho_B diagonal gives
    sigma = rho_A, H_s[x, x'] = sum_b r_b W[b, x, x + s] W[b, x', x' + s];
    rho_A diagonal gives sigma = rho_B relabelled in both indices, H_s[x, x']
    = sum_a p_a W[b, x, a] W[b', x', a], b and b' labelled x + s and x' + s.
    The shifts fold into dim: shift s (0 < s < dim) reads only the rows
    x < dim - s and shift s - dim only the others, so fold s takes row x
    from whichever reads it, at t = x + s (mod dim) (see _shift_sum).
    """
    dim = rho_a.dim
    pop_a, supp_a = _populations(rho_a)
    pop_b, supp_b = _populations(rho_b)
    # the highest sector of U a pair in the supports reaches: a + b, or x + b = a + y
    top_a, top_b = np.flatnonzero(supp_a)[-1], np.flatnonzero(supp_b)[-1]
    top = dim - 1 + min(top_a, top_b) if sectors.dual else top_a + top_b
    if rho_a.diagonal and rho_b.diagonal:
        amps, out = sectors.amps, np.zeros(dim)
        for k, u in enumerate(amps.upto(top)[:top + 1]):
            x, y = amps.levels(k)
            if sectors.dual:
                out[x] += pop_b[y] * ((u * u) @ pop_a[x])
            else:
                out[x] += (u * u) @ (pop_a[x] * pop_b[y])
        return sectors.scale ** 2 * out
    w = sectors.dense(top)
    label = sectors.label_b
    x = np.arange(dim)
    t = (x + x[:, None]) % dim                      # t[s, x] = x + s (mod dim)
    # g[s, x, k] over the levels k from the first to the last in the
    # diagonal input's support (a view of W), sqrt(0) = 0 in between
    supp = np.flatnonzero(supp_b if rho_b.diagonal else supp_a)
    span = slice(supp[0], supp[-1] + 1)
    if rho_b.diagonal:      # g[s, x, b] = sqrt(r_b) W[b, x, t]
        sigma = rho_a.rho
        g = w.reshape(dim, dim * dim)[span].take(x * dim + t, axis=1)
        g *= np.sqrt(pop_b[span])[:, None, None]
        g = g.transpose(1, 2, 0)
    else:           # g[s, x, a] = sqrt(p_a) W[b, x, a] with b labelled t
        sigma = rho_b.rho[np.ix_(label, label)]
        g = w.reshape(dim * dim, dim)[:, span].take(label[t] * dim + x, axis=0)
        g *= np.sqrt(pop_a[span])
    return _shift_sum(g @ g.transpose(0, 2, 1), sigma)


def two_mode_mix(rho_a: FockDensityMatrix, rho_b: FockDensityMatrix,
                 p: MixingParams) -> FockDensityMatrix:
    """Tr_B[U (rho_A x rho_B) U^dag] for the beam splitter / amplifier.

    U's blocks hold the exact channel's amplitudes between levels below the
    cutoff (see _Sectors).  The contraction follows the inputs' structure,
    in O(dim^3) memory (see _mix_diagonal and _mix_components).  The trace
    deficit 1 - tr rho_C is exactly the output mass above the cutoff, plus
    the inputs' weights at or below dim * eps * max, which are dropped; the
    cutoff gate refuses it above LEAK_TOL.  The output of two diagonal
    inputs comes as its populations, and is gated, normalised and checked
    as a vector.
    """
    if rho_a.dim != rho_b.dim:
        raise DomainError("two_mode_mix needs two states of equal cutoff")
    dim = rho_a.dim
    if p.lambda_A == 0.0:        # a beam splitter; an amplifier has lambda_A >= 1
        return rho_b
    diagonal = rho_a.diagonal or rho_b.diagonal
    out = (_mix_diagonal if diagonal else _mix_components)(rho_a, rho_b, _sectors(p, dim))
    tr = out.sum() if out.ndim == 1 else np.trace(out).real
    _gate(abs(1.0 - tr), "mixing leak", dim)
    out /= tr
    return _from_populations(out) if out.ndim == 1 else FockDensityMatrix(out)


# ---------------------------------------------------------------------------
# entropies

def _xlogx(x: np.ndarray) -> np.ndarray:
    """The terms x ln x of an entropy sum: 0.0 where x <= 0, NaN where x is NaN.

    math.log is libm's log, as in scipy.special.xlogy(x, x), so on x >= 0
    the terms carry the same bits; numpy's own log differs from it in the
    last bit.
    """
    return np.array([0.0 if v <= 0.0 else v * math.log(v) for v in x.tolist()])


def vn_entropy(rho: FockDensityMatrix) -> float:
    """-Tr[rho ln rho] in nats."""
    evs = np.maximum(rho.spectrum, 0.0)
    # 0.0 - 0.0 is 0.0 where -0.0 would be a pure state's negated sum
    return 0.0 - float(np.sum(_xlogx(evs)))


def relative_entropy(rho: FockDensityMatrix, sigma: FockDensityMatrix) -> float:
    """Tr[rho (ln rho - ln sigma)]; +inf outside sigma's support."""
    if rho.rho.shape != sigma.rho.shape:
        raise DomainError("shape mismatch in relative entropy")
    p, up = rho.eigensystem
    q, uq = sigma.eigensystem
    p, q = np.maximum(p, 0.0), np.maximum(q, 0.0)
    overlap = np.abs(up.conj().T @ uq) ** 2      # overlap[i, j] = |<p_i|q_j>|^2
    null = q < SUPPORT_TOL
    if null.any() and float(p @ overlap[:, null].sum(axis=1)) > SUPPORT_TOL:
        return float("inf")
    supp = ~null
    cross = float(p @ (overlap[:, supp] @ np.log(q[supp])))
    return float(np.sum(_xlogx(p))) - cross


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
    matrix v diag(w) v^T, and the band r becomes v (e^{tw} * (v^T r)): two
    matrix-vector products after one tridiagonal eigensolve, and no dense
    propagator.  A band that is exactly zero stays zero: only the bands
    that one np.nonzero of rho finds occupied are evolved, and a
    Fock-diagonal input is its population vector, one band.
    """
    require("evolution time", t, 0.0)
    if t == 0:
        return rho
    import scipy.linalg as sla
    dim = rho.dim
    m = np.arange(dim)
    c = 2.0 * m + 1.0
    c[-1] = dim - 1

    def evolve(k: int, *bands: np.ndarray) -> list[np.ndarray]:
        """Bands at distance k from the diagonal, each its dim - k entries, after time t."""
        j = m[:dim - k]
        w, v = sla.eigh_tridiagonal(-(c[j] + c[j + k]) / 4.0,
                                    0.5 * np.sqrt(j[1:] * (j[1:] + k)))
        growth = np.exp(t * w)
        return [v @ (growth * (v.T @ r)) for r in bands]

    if rho.diagonal:
        return _from_populations(*evolve(0, np.diagonal(rho.rho).real))
    out = np.zeros_like(rho.rho)
    rows, cols = np.nonzero(rho.rho)
    for k in np.unique(np.abs(cols - rows)).tolist():
        j = m[:dim - k]
        out[j, j + k], out[j + k, j] = evolve(k, rho.rho[j, j + k], rho.rho[j + k, j])
    return FockDensityMatrix(out)


@functools.lru_cache(maxsize=8)
def _q_eigenbasis(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and real orthonormal eigenvectors of the truncated Q, read-only."""
    q, v = np.linalg.eigh(quadratures(dim)[0].real)
    q.flags.writeable = v.flags.writeable = False
    return q, v


def displace_fock(rho: FockDensityMatrix, direction: str,
                  theta: float) -> FockDensityMatrix:
    """Conjugate by the phase-space translation D_R(theta).

    direction "q" shifts <Q> by +theta (unitary exp(-i theta P)),
    direction "p" shifts <P> by +theta (unitary exp(+i theta Q)).  Both
    come from one eigenbasis V of the truncated Q per cutoff:
    exp(i theta Q) = V exp(i theta q) V^T, and P = -R^dag Q R with
    R = diag(i^n) holds exactly after truncation, so
    exp(-i theta P) = R^dag exp(i theta Q) R.  That u is unitary to
    rounding, so the translated state inherits rho's spectrum and
    eigensystem (see _unitary_image): a translation takes no eigensolve.
    """
    if direction not in ("q", "p"):
        raise DomainError(f"direction must be 'q' or 'p', got {direction!r}")
    require("theta", theta)
    q, v = _q_eigenbasis(rho.dim)
    u = (v * np.exp(1j * theta * q)) @ v.T
    if direction == "q":
        r = np.array([1, 1j, -1, -1j])[np.arange(rho.dim) % 4]      # i^n, exactly
        u = r.conj()[:, None] * u * r
    fdm = _unitary_image(rho, u)
    _gate(trace_leak(fdm), "displacement leak", rho.dim)
    return fdm


def expectation(rho: FockDensityMatrix, op: np.ndarray) -> float:
    return float(np.trace(op @ rho.rho).real)


def trace_leak(rho: FockDensityMatrix) -> float:
    """Trace deficit plus population of the highest Fock layer (cutoff gate)."""
    tr_def = abs(1.0 - float(np.trace(rho.rho).real))
    top = float(rho.rho[-1, -1].real)
    return tr_def + max(top, 0.0)
