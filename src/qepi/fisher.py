"""Quantum Fisher information for phase-space translations, two routes.

Route 1 (Gaussian): J = 4 dS/dt along the additive-noise flow, from the
closed-form Gaussian entropy (de Bruijn identity).
Route 2 (Fock): J per direction as the second derivative of the relative
entropy S(rho || rho_theta) at theta = 0, by finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fock
from .channels import MixingParams, add_noise
from .symplectic import (GaussianState, NumericError, entropy, require,
                         spectrum_entropy, symplectic_eigenvalues)

FULL_RANK_NU_TOL = 1e-6
FULL_RANK_EIG_TOL = 1e-10
EXTRAPOLATION_REL_TOL = 1e-4
DEBRUIJN_REL_TOL = 1e-3


class DivergenceError(NumericError):
    """Fisher information diverges for (near-)pure states; refused."""


@dataclass(frozen=True)
class FisherRecord:
    total: float
    method: str                            # gaussian_debruijn | fock_finite_difference
    state_ref: str = ""
    per_direction: tuple = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {"total": self.total, "method": self.method,
                "state_ref": self.state_ref,
                "per_direction": list(self.per_direction)}


def full_rank(state: GaussianState):
    """Whether each state is far enough from purity for a finite Fisher information.

    True where the smallest symplectic eigenvalue is at least
    1 + FULL_RANK_NU_TOL; a bool for one state, an array for a stack.
    """
    return spectrum_full_rank(symplectic_eigenvalues(state))


def spectrum_full_rank(nus: np.ndarray):
    """full_rank of the states whose symplectic spectra nus, shape (..., n), are known."""
    return nus[..., 0] >= 1.0 + FULL_RANK_NU_TOL


def fisher_total_gaussian(state: GaussianState, h: float = 1e-3) -> FisherRecord:
    """Total Fisher information of a Gaussian state via 4 dS/dt at t = 0.

    Forward differences in the noise time at steps h, h/2 and h/4 with two
    Richardson levels; the entropy of gamma + t*I is smooth in t even at
    degenerate symplectic eigenvalues.  The state's one spectrum gives both
    the purity check and S(0); the three noisy copies take one stacked
    entropy call.  On a stack of states, total is an array over its leading
    axes, and DivergenceError is raised if any state is near-pure.
    """
    require("h", h, 0.0, low_open=True)
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
    return FisherRecord(total=float(total) if np.ndim(total) == 0 else total,
                        method="gaussian_debruijn",
                        state_ref=f"gaussian(n={state.n})")


def fisher_direction_fock(rho: fock.FockDensityMatrix, direction: str,
                          h: float = 0.05) -> float:
    """Fisher information along one quadrature direction by finite differences.

    J = d^2/dtheta^2 S(rho || rho_theta) at 0; since the relative entropy
    vanishes at theta = 0, the second central difference reduces to
    [S(rho||rho_h) + S(rho||rho_-h)] / h^2, Richardson-extrapolated over
    h and h/2.
    """
    require("h", h, 0.0, low_open=True)
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

    j_h = second_diff(h)
    j_h2 = second_diff(h / 2.0)
    j = (4.0 * j_h2 - j_h) / 3.0
    if j > 1e-12 and abs(j_h2 - j_h) / 3.0 > EXTRAPOLATION_REL_TOL * abs(j):
        raise fock.AccuracyError(
            f"finite-difference extrapolation disagreement "
            f"{abs(j_h2 - j_h)/3.0:.3e} exceeds {EXTRAPOLATION_REL_TOL} relative")
    if j < -1e-8:
        raise fock.NumericError(f"negative Fisher information {j:.3e}")
    return max(j, 0.0)


def fisher_total_fock(rho: fock.FockDensityMatrix, h: float = 0.05) -> FisherRecord:
    """Sum of the direction-wise Fisher informations over both quadratures."""
    per = [fisher_direction_fock(rho, direction, h=h) for direction in ("q", "p")]
    return FisherRecord(total=float(sum(per)), method="fock_finite_difference",
                        state_ref=f"fock(dim={rho.dim})",
                        per_direction=tuple(per))


@dataclass(frozen=True)
class DeBruijnRecord:
    fisher_sum: float
    entropy_rate_times_4: float
    relative_deviation: float
    passes: bool


def debruijn_check(rho: fock.FockDensityMatrix, h_theta: float = 0.05,
                   h_t: float = 0.01) -> DeBruijnRecord:
    """Direction-summed Fisher information vs 4 dS/dt, to DEBRUIJN_REL_TOL relative."""
    require("h_theta", h_theta, 0.0, low_open=True)
    require("h_t", h_t, 0.0, low_open=True)
    lhs = fisher_total_fock(rho, h=h_theta).total
    s0 = fock.vn_entropy(rho)

    def forward(step: float) -> float:
        evolved = fock.liouville_evolve(rho, step)
        return (fock.vn_entropy(evolved) - s0) / step

    d1 = forward(h_t)
    d2 = forward(h_t / 2.0)
    rhs = 4.0 * (2.0 * d2 - d1)
    dev = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    return DeBruijnRecord(fisher_sum=lhs, entropy_rate_times_4=rhs,
                          relative_deviation=dev, passes=dev < DEBRUIJN_REL_TOL)


def stam_check(j_a, j_b, j_c, p: MixingParams, tol: float = 1e-9):
    """1/J_C >= lam_A/J_A + lam_B/J_B; arrays give an array-valued report."""
    from .inequalities import InequalityReport
    ja, jb, jc = (np.asarray(j, dtype=float) for j in (j_a, j_b, j_c))
    if np.any(np.minimum(np.minimum(ja, jb), jc) <= 0):
        raise DivergenceError("Stam check needs strictly positive Fisher informations")
    lhs = 1.0 / jc
    rhs = p.lambda_A / ja + p.lambda_B / jb
    return InequalityReport.build("stam", lhs, rhs, tol=tol,
                                  inputs={"J_A": j_a, "J_B": j_b, "J_C": j_c,
                                          "kind": p.kind, "lambda_A": p.lambda_A})


def weighted_fisher_check(j_a: float, j_b: float, j_c: float,
                          w_a: float, w_b: float, p: MixingParams,
                          tol: float = 1e-9):
    """w_C^2 J_C <= w_A^2 J_A + w_B^2 J_B with w_C = sqrt(lam_A) w_A + sqrt(lam_B) w_B."""
    from .inequalities import InequalityReport
    if min(j_a, j_b, j_c) <= 0:
        raise DivergenceError("weighted Fisher check needs positive Fisher informations")
    w_c = math.sqrt(p.lambda_A) * w_a + math.sqrt(p.lambda_B) * w_b
    lhs = w_a ** 2 * j_a + w_b ** 2 * j_b
    rhs = w_c ** 2 * j_c
    return InequalityReport.build("weighted_fisher", lhs, rhs, tol=tol,
                                  inputs={"J_A": j_a, "J_B": j_b, "J_C": j_c,
                                          "w_A": w_a, "w_B": w_b, "w_C": w_c,
                                          "kind": p.kind, "lambda_A": p.lambda_A})


def optimal_weights(j_a: float, j_b: float, p: MixingParams) -> tuple[float, float]:
    """Cauchy-Schwarz-optimal weights reducing the weighted check to Stam."""
    return math.sqrt(p.lambda_A) / j_a, math.sqrt(p.lambda_B) / j_b
