"""Gaussian channels: beam splitter, amplifier and additive noise.

Covariance action:
    beam splitter:  gamma_C = lam_A gamma_A + lam_B gamma_B,
                    with lam_A = lambda, lam_B = 1 - lambda;
    amplifier:      gamma_C = lam_A gamma_A + lam_B T gamma_B T,
                    with lam_A = kappa, lam_B = kappa - 1,
where T flips the sign of every P quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .symplectic import DomainError, GaussianState, ValidationError, require

BEAM_SPLITTER = "beam_splitter"
AMPLIFIER = "amplifier"
KAPPA_MAX = 16.0


@dataclass(frozen=True)
class MixingParams:
    kind: str
    lambda_A: float
    lambda_B: float

    def __post_init__(self):
        if self.kind == BEAM_SPLITTER:
            require("transmissivity", self.lambda_A, 0.0, 1.0)
            lambda_b = 1.0 - self.lambda_A
        elif self.kind == AMPLIFIER:
            require("gain", self.lambda_A, 1.0, KAPPA_MAX)
            lambda_b = self.lambda_A - 1.0
        else:
            raise DomainError(f"unknown mixing kind {self.kind!r}")
        require("lambda_B", self.lambda_B, lambda_b - 1e-12, lambda_b + 1e-12)

    @classmethod
    def beam_splitter(cls, transmissivity: float) -> "MixingParams":
        return cls(BEAM_SPLITTER, transmissivity, 1.0 - transmissivity)

    @classmethod
    def amplifier(cls, gain: float) -> "MixingParams":
        return cls(AMPLIFIER, gain, gain - 1.0)


def time_reversal_matrix(n: int) -> np.ndarray:
    """Diagonal matrix with +1 on Q and -1 on P quadratures."""
    return np.diag(np.tile([1.0, -1.0], n))


def mix(a: GaussianState, b: GaussianState, p: MixingParams) -> GaussianState:
    """Gaussian output of the beam splitter / amplifier on the A port.

    Stacks of states broadcast against each other over their leading axes.
    """
    if a.n != b.n:
        raise ValidationError(f"mode count mismatch: {a.n} vs {b.n}")
    if p.kind == BEAM_SPLITTER:
        gamma_b = b.gamma
    else:
        t = time_reversal_matrix(b.n)
        gamma_b = t @ b.gamma @ t
    return GaussianState(a.n, p.lambda_A * a.gamma + p.lambda_B * gamma_b, validate=False)


def add_noise(state: GaussianState, t) -> GaussianState:
    """Additive Gaussian noise semigroup: gamma -> gamma + t*I.

    t may be an array of times; it broadcasts against the leading axes of
    the state, so an array of shape (k,) on one state gives k states.
    """
    t = require("noise time", np.asarray(t, dtype=float), 0.0)
    gamma = state.gamma + t[..., None, None] * np.eye(2 * state.n)
    return GaussianState(state.n, gamma, validate=False)


def time_reverse(state: GaussianState) -> GaussianState:
    t = time_reversal_matrix(state.n)
    return GaussianState(state.n, t @ state.gamma @ t, validate=False)


@dataclass(frozen=True)
class CommutationRecord:
    max_gamma_deviation: float
    t_C: float
    equal: bool


def noise_commutation_check(a: GaussianState, b: GaussianState, p: MixingParams,
                            t_a: float, t_b: float,
                            tol: float = 1e-12) -> CommutationRecord:
    """Noise-then-mix equals mix-then-noise with t_C = lam_A t_A + lam_B t_B."""
    t_c = p.lambda_A * t_a + p.lambda_B * t_b
    lhs = mix(add_noise(a, t_a), add_noise(b, t_b), p)
    rhs = add_noise(mix(a, b, p), t_c)
    dev = float(np.max(np.abs(lhs.gamma - rhs.gamma)))
    return CommutationRecord(dev, t_c, dev <= tol)
