"""Gaussian channels: beam splitter, amplifier and additive noise.

Covariance action of both mixing channels:
    gamma_C = lam_A gamma_A + lam_B T gamma_B T,
with lam_A = lambda, lam_B = 1 - lambda and T = I for the beam splitter,
and lam_A = kappa, lam_B = kappa - 1 and T flipping the sign of every P
quadrature for the amplifier, which feeds B in time-reversed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .symplectic import DomainError, GaussianState, ValidationError, require

BEAM_SPLITTER = "beam_splitter"
AMPLIFIER = "amplifier"
KAPPA_MAX = 16.0


@dataclass(frozen=True)
class MixingParams:
    """One mixing channel; kind labels its family and fixes the domain of lambda_A."""

    kind: str
    lambda_A: float

    def __post_init__(self):
        if self.kind == BEAM_SPLITTER:
            require("transmissivity", self.lambda_A, 0.0, 1.0)
        elif self.kind == AMPLIFIER:
            require("gain", self.lambda_A, 1.0, KAPPA_MAX)
        else:
            raise DomainError(f"unknown mixing kind {self.kind!r}")

    @property
    def reversed_b(self) -> bool:
        """Whether B enters time-reversed: the amplifier's B does."""
        return self.kind == AMPLIFIER

    @property
    def lambda_B(self) -> float:
        """1 - lam_A, or lam_A - 1 when B is reversed."""
        return self.lambda_A - 1.0 if self.reversed_b else 1.0 - self.lambda_A

    @classmethod
    def beam_splitter(cls, transmissivity: float) -> "MixingParams":
        return cls(BEAM_SPLITTER, transmissivity)

    @classmethod
    def amplifier(cls, gain: float) -> "MixingParams":
        return cls(AMPLIFIER, gain)


@functools.cache
def _signs(n: int, reversed_b: bool) -> np.ndarray:
    """s s^T, read-only, with s = (1, -1, 1, -1, ...) if reversed_b, else all ones."""
    s = np.tile([1.0, -1.0 if reversed_b else 1.0], n)
    signs = np.outer(s, s)
    signs.flags.writeable = False
    return signs


def mix(a: GaussianState, b: GaussianState, p: MixingParams) -> GaussianState:
    """Gaussian output of the beam splitter / amplifier on the A port.

    T gamma T is (s s^T) o gamma, so B enters with the weight lam_B s s^T
    (see _signs).  Stacks of states broadcast against each other over
    their leading axes.
    """
    if a.n != b.n:
        raise ValidationError(f"mode count mismatch: {a.n} vs {b.n}")
    weight_b = p.lambda_B * _signs(b.n, p.reversed_b)
    return GaussianState(a.n, p.lambda_A * a.gamma + weight_b * b.gamma, validate=False)


def add_noise(state: GaussianState, t) -> GaussianState:
    """Additive Gaussian noise semigroup: gamma -> gamma + t*I.

    t may be an array of times; it broadcasts against the leading axes of
    the state, so an array of shape (k,) on one state gives k states.
    """
    t = require("noise time", np.asarray(t, dtype=float), 0.0)
    gamma = state.gamma + t[..., None, None] * np.eye(2 * state.n)
    return GaussianState(state.n, gamma, validate=False)
