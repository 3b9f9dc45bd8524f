"""Bosonic broadcast-channel rate regions.

One sender feeds two receivers through a beam splitter of transmissivity
lam >= 1/2 under a mean-photon-number constraint n_bar; beta is the
fraction of photons carrying receiver-B information.  Two outer bounds
on R_C are computed: the conjectured region (photon-number inequality)
and the proven, slightly weaker entropy-power bound.  Rates in nats per
channel use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .files import atomic_write, csv_text
from .symplectic import g, require

# points of beta in [0, 1] a rate region holds
CAPACITY_GRID_SIZE = 101


@dataclass(frozen=True)
class CapacityPoint:
    beta: float
    R_B: float
    R_C_conjectured: float
    R_C_qepi: float

    @property
    def feasible(self) -> bool:
        return self.R_C_conjectured >= 0.0


def capacity_point(transmissivity: float, n_bar: float, beta) -> CapacityPoint:
    """Rate pair bounds at the power split beta.

    R_B               = g(lam beta n_bar)
    R_C (conjectured) = g((1-lam) n_bar) - g((1-lam) beta n_bar)
    R_C (proven)      = g((1-lam) n_bar)
                        - ln[((1-lam) e^{g(lam beta n_bar)} + 2 lam - 1) / lam]
    Negative R_C values are reported raw; they are meaningful near beta = 1.
    beta may be an array, and the rates are then arrays over it; floats for
    a float beta.
    """
    require("transmissivity", transmissivity, 0.5, 1.0)
    require("n_bar", n_bar, 0.0)
    b = require("beta", np.asarray(beta, dtype=float), 0.0, 1.0)
    lam = transmissivity
    r_b = g(lam * b * n_bar)
    base = g((1.0 - lam) * n_bar)
    r_c_conj = base - g((1.0 - lam) * b * n_bar)
    # (1-lam) e^{R_B} + 2 lam - 1 rewritten as lam + (1-lam)(e^{R_B} - 1) so
    # the subtracted term is exactly zero at beta = 0
    r_c_qepi = base - np.log(1.0 + (1.0 - lam) * np.expm1(r_b) / lam)
    if b.ndim == 0:
        beta, r_c_qepi = float(b), float(r_c_qepi)
    return CapacityPoint(beta=beta, R_B=r_b, R_C_conjectured=r_c_conj,
                         R_C_qepi=r_c_qepi)


def capacity_region(transmissivity: float, n_bar: float) -> list[CapacityPoint]:
    """Sweep beta over a uniform grid of CAPACITY_GRID_SIZE points."""
    region = capacity_point(transmissivity, n_bar,
                            np.linspace(0.0, 1.0, CAPACITY_GRID_SIZE))
    return [CapacityPoint(*row) for row in zip(region.beta.tolist(), region.R_B.tolist(),
                                               region.R_C_conjectured.tolist(),
                                               region.R_C_qepi.tolist())]


def write_region_csv(path, points: list[CapacityPoint]) -> None:
    """Write the region as CSV, atomically: a failed write leaves no file."""
    rows = [(f"{pt.beta:.10g}", f"{pt.R_B:.12g}", f"{pt.R_C_conjectured:.12g}",
             f"{pt.R_C_qepi:.12g}", str(int(pt.feasible))) for pt in points]
    atomic_write(path, (csv_text([("beta", "R_B", "R_C_conj", "R_C_qepi", "feasible")]
                                 + rows),))
