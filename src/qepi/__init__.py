"""Bosonic Gaussian channel algebra, entropy functionals and Fisher
information machinery for verifying entropy power inequalities."""

from .broadcast import CapacityPoint, capacity_point, capacity_region
from .channels import MixingParams, add_noise, mix
from .fisher import (debruijn_check, fisher_direction_fock, fisher_total_fock,
                     fisher_total_gaussian)
from .fock import (FockDensityMatrix, coherent_state, fock_state,
                   liouville_evolve, relative_entropy, thermal_state,
                   two_mode_mix, vacuum_state, vn_entropy)
from .inequalities import (InequalityReport, asymptotic_check, delta_surface_max,
                           delta_surface_sup, epni_gap, linear_check, moe_bound,
                           moe_conjectured, moe_delta, qepi_check,
                           random_qepi_suite, ratio_trajectory, stam_check,
                           weighted_fisher_check)
from .symplectic import (GaussianState, delta, entropy, entropy_power, g, g_inv,
                         photon_number, random_gaussian_state,
                         spectrum_entropy, symplectic_eigenvalues)

__all__ = [name for name in dir() if not name.startswith("_")]
