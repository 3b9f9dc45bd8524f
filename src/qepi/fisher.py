"""Quantum Fisher information for phase-space translations, two routes.

Route 1 (Gaussian): J = 4 dS/dt along the additive-noise flow, from the
closed-form Gaussian entropy (de Bruijn identity).
Route 2 (Fock): J per direction as the second derivative of the relative
entropy S(rho || rho_theta) at theta = 0, by finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fock
from .channels import add_noise
from .symplectic import (GaussianState, NumericError, entropy, spectrum_entropy,
                         symplectic_eigenvalues)

FULL_RANK_NU_TOL = 1e-6
FULL_RANK_EIG_TOL = 1e-10
EXTRAPOLATION_REL_TOL = 1e-4
DEBRUIJN_REL_TOL = 1e-3
# finite-difference steps: the noise time of the Gaussian route, the
# translation of the Fock route, and the noise time of the de Bruijn check
GAUSSIAN_STEP = 1e-3
FOCK_STEP = 0.05
FOCK_NOISE_STEP = 0.01


class DivergenceError(NumericError):
    """Fisher information diverges for (near-)pure states; refused."""


def full_rank(state: GaussianState):
    """Whether each state is far enough from purity for a finite Fisher information.

    True where the smallest symplectic eigenvalue is at least
    1 + FULL_RANK_NU_TOL; a bool for one state, an array for a stack.
    """
    return spectrum_full_rank(symplectic_eigenvalues(state))


def spectrum_full_rank(nus: np.ndarray):
    """full_rank of the states whose symplectic spectra nus, shape (..., n), are known."""
    return nus[..., 0] >= 1.0 + FULL_RANK_NU_TOL


def fisher_total_gaussian(state: GaussianState):
    """Total Fisher information J of a Gaussian state via 4 dS/dt at t = 0.

    Forward differences in the noise time at steps h, h/2 and h/4, with
    h = GAUSSIAN_STEP, and two Richardson levels; the entropy of gamma + t*I
    is smooth in t even at degenerate symplectic eigenvalues.  The state's
    one spectrum gives both the purity check and S(0); the three noisy
    copies take one stacked entropy call.  A float for one state, an array
    over the leading axes for a stack; DivergenceError is raised if any
    state is near-pure.
    """
    h = GAUSSIAN_STEP
    nus = symplectic_eigenvalues(state)
    if not np.all(spectrum_full_rank(nus)):
        raise DivergenceError("Fisher information diverges near purity "
                              f"(min nu below 1 + {FULL_RANK_NU_TOL})")
    # Forward differences only: t < 0 could leave the physical cone for
    # near-pure squeezed states.  Two Richardson levels give O(h^3) error.
    times = np.array([h, h / 2.0, h / 4.0])
    times = times.reshape((3,) + (1,) * (state.gamma.ndim - 2))
    s0 = spectrum_entropy(nus)
    s1, s2, s4 = entropy(add_noise(state, times))
    d1, d2, d4 = (s1 - s0) / h, (s2 - s0) / (h / 2.0), (s4 - s0) / (h / 4.0)
    r1 = 2.0 * d2 - d1
    r2 = 2.0 * d4 - d2
    total = 4.0 * (r2 + (r2 - r1) / 3.0)
    return float(total) if np.ndim(total) == 0 else total


def fisher_direction_fock(rho: fock.FockDensityMatrix, direction: str) -> float:
    """Fisher information along one quadrature direction by finite differences.

    J = d^2/dtheta^2 S(rho || rho_theta) at 0; since the relative entropy
    vanishes at theta = 0, the second central difference reduces to
    [S(rho||rho_h) + S(rho||rho_-h)] / h^2, Richardson-extrapolated over
    h = FOCK_STEP and h/2.
    """
    evs = np.linalg.eigvalsh(rho.rho)
    if evs[0] < FULL_RANK_EIG_TOL:
        raise DivergenceError(
            f"rank-deficient state (min eigenvalue {evs[0]:.3e}); "
            "relative-entropy Fisher information diverges")

    def second_diff(step: float) -> float:
        plus = fock.displace_fock(rho, direction, step)
        minus = fock.displace_fock(rho, direction, -step)
        return (fock.relative_entropy(rho, plus)
                + fock.relative_entropy(rho, minus)) / step ** 2

    j_h = second_diff(FOCK_STEP)
    j_h2 = second_diff(FOCK_STEP / 2.0)
    j = (4.0 * j_h2 - j_h) / 3.0
    if j > 1e-12 and abs(j_h2 - j_h) / 3.0 > EXTRAPOLATION_REL_TOL * abs(j):
        raise fock.AccuracyError(
            f"finite-difference extrapolation disagreement "
            f"{abs(j_h2 - j_h)/3.0:.3e} exceeds {EXTRAPOLATION_REL_TOL} relative")
    if j < -1e-8:
        raise fock.NumericError(f"negative Fisher information {j:.3e}")
    return max(j, 0.0)


def fisher_total_fock(rho: fock.FockDensityMatrix) -> float:
    """Sum of the direction-wise Fisher informations over both quadratures."""
    return fisher_direction_fock(rho, "q") + fisher_direction_fock(rho, "p")


@dataclass(frozen=True)
class DeBruijnRecord:
    fisher_sum: float
    entropy_rate_times_4: float
    relative_deviation: float
    passes: bool


def debruijn_check(rho: fock.FockDensityMatrix) -> DeBruijnRecord:
    """Direction-summed Fisher information vs 4 dS/dt, to DEBRUIJN_REL_TOL relative.

    dS/dt is a forward difference at noise times FOCK_NOISE_STEP and half
    of it, with one Richardson level.
    """
    lhs = fisher_total_fock(rho)
    s0 = fock.vn_entropy(rho)

    def forward(step: float) -> float:
        evolved = fock.liouville_evolve(rho, step)
        return (fock.vn_entropy(evolved) - s0) / step

    d1 = forward(FOCK_NOISE_STEP)
    d2 = forward(FOCK_NOISE_STEP / 2.0)
    rhs = 4.0 * (2.0 * d2 - d1)
    dev = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    return DeBruijnRecord(fisher_sum=lhs, entropy_rate_times_4=rhs,
                          relative_deviation=dev, passes=dev < DEBRUIJN_REL_TOL)

