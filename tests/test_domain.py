"""The one domain check, `symplectic.require`, and the library entry points it guards."""

import math

import numpy as np
import pytest

from qepi import fock
from qepi.broadcast import capacity_point
from qepi.channels import MixingParams, add_noise
from qepi.inequalities import (asymptotic_check, epni_gap, linear_check, optimal_weights,
                               qepi_check, stam_check, weighted_fisher_check)
from qepi.symplectic import (LOG_FLOAT_MAX, DomainError, GaussianState, entropy_power, g,
                             random_gaussian_state, require)

NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("value", [0.5, 0, np.float64(1.0), np.array([0.0, 0.25, 1.0]),
                                   [0.5, 1.0]])
def test_require_returns_value_inside(value):
    assert require("x", value, 0, 1) is value


@pytest.mark.parametrize("value", [NAN, INF, -INF, np.float64(NAN), np.array(NAN),
                                   np.array([0.5, NAN])])
def test_require_refuses_nan_and_infinities(value):
    with pytest.raises(DomainError, match="^x must be finite, got"):
        require("x", value)


def test_require_interval_ends():
    assert require("h", 1e-300, 0, low_open=True) == 1e-300
    with pytest.raises(DomainError, match=r"^h must be finite and positive, got 0\.0$"):
        require("h", 0.0, 0, low_open=True)
    assert require("n", 0.0, 0) == 0.0
    with pytest.raises(DomainError, match=r"^n must be finite and >= 0, got -1e-12$"):
        require("n", -1e-12, 0)
    with pytest.raises(DomainError, match=r"^lam must be in \[0\.5, 1\], got 1\.5$"):
        require("lam", 1.5, 0.5, 1)
    with pytest.raises(DomainError, match=r"^k must be in \(0, 4\], got 0$"):
        require("k", 0, 0, 4, low_open=True)


def test_require_compares_integers_exactly():
    # 2**64 - 1 rounds to 2**64 as a float, which the interval leaves out
    top = 2 ** 64 - 1
    assert float(top) == 2.0 ** 64 and float(top) > top
    assert require("seed", top, 0, top) == top
    assert require("seed", np.uint64(top), 0, top) == top
    assert require("seed", np.array([0, top], dtype=np.uint64), 0, top)[1] == top
    with pytest.raises(DomainError, match=r"^seed must be in \[0, 18446744073709551615\]"):
        require("seed", 2 ** 64, 0, top)
    # an integer is always finite, so its message does not say so
    with pytest.raises(DomainError, match=r"^trials must be >= 1, got 0$"):
        require("trials", 0, 1)


def test_require_names_the_first_offending_element():
    values = np.full(101, NAN)
    values[:3] = 1.0
    with pytest.raises(DomainError) as err:
        require("beta", values, 0, 1)
    assert str(err.value) == "beta must be in [0, 1], got nan at index 3"
    with pytest.raises(DomainError) as err:
        require("s", np.array([[1.0, 2.0], [-3.0, -4.0]]), 0)
    assert str(err.value) == "s must be finite and >= 0, got -3.0 at index (1, 0)"
    with pytest.raises(DomainError) as err:
        g(np.array([1.0, 2.0, NAN, -1.0]))
    assert str(err.value) == "mean photon number must be finite and >= 0, got nan at index 2"


def test_capacity_point_names_n_bar_in_one_line():
    with pytest.raises(DomainError) as err:
        capacity_point(0.8, NAN, np.linspace(0.0, 1.0, 101))
    assert str(err.value) == "n_bar must be finite and >= 0.0, got nan"


BS = MixingParams.beam_splitter(0.5)

# library entry points given a NaN, infinite or out-of-range argument
LIBRARY_CALLS = {
    "fock thermal_state nan": lambda: fock.thermal_state(NAN, 10),
    "fock thermal_state inf": lambda: fock.thermal_state(INF, 10),
    "fock coherent_state nan": lambda: fock.coherent_state(complex(NAN, 0.0), 10),
    "fock squeezed_thermal_state nan r": lambda: fock.squeezed_thermal_state(NAN, 0.5, 20),
    "fock fock_state cutoff 0": lambda: fock.fock_state(0, 0),
    "fock fock_state level -1": lambda: fock.fock_state(-1, 10),
    "fock vacuum_state cutoff 7.9": lambda: fock.vacuum_state(7.9),
    "fock fock_state level 1.5": lambda: fock.fock_state(1.5, 10),
    "fock thermal_state cutoff 60.5": lambda: fock.thermal_state(1.0, 60.5),
    "fock coherent_state cutoff 20.5": lambda: fock.coherent_state(0.5, 20.5),
    "fock squeezed_thermal_state cutoff 40.5":
        lambda: fock.squeezed_thermal_state(0.1, 0.5, 40.5),
    "fock liouville_evolve nan": lambda: fock.liouville_evolve(fock.thermal_state(1.0, 30),
                                                               NAN),
    "fock displace_fock nan": lambda: fock.displace_fock(fock.thermal_state(1.0, 30), "q",
                                                         NAN),
    "GaussianState.thermal nan": lambda: GaussianState.thermal(NAN),
    "GaussianState.thermal inf": lambda: GaussianState.thermal(INF),
    "add_noise nan": lambda: add_noise(GaussianState.vacuum(), NAN),
    "add_noise inf in array": lambda: add_noise(GaussianState.vacuum(), [0.5, INF]),
    "MixingParams nan transmissivity": lambda: MixingParams("beam_splitter", NAN),
    "MixingParams nan gain": lambda: MixingParams("amplifier", NAN),
    "qepi_check nan": lambda: qepi_check(NAN, 1.0, 1.0, 1, BS),
    "linear_check nan": lambda: linear_check(1.0, NAN, 1.0, 1, BS),
    "epni_gap nan": lambda: epni_gap(NAN, 1.0, 1.0, 0.5),
    "stam_check nan J": lambda: stam_check(NAN, 1.0, 1.0, BS),
    "stam_check inf J": lambda: stam_check(1.0, INF, 1.0, BS),
    "stam_check nan J in array": lambda: stam_check([1.0, 2.0], 1.0, [1.0, NAN], BS),
    "stam_check nan J beside a zero": lambda: stam_check(NAN, 0.0, 1.0, BS),
    "weighted_fisher_check nan J":
        lambda: weighted_fisher_check(1.0, NAN, 1.0, 0.5, 0.5, BS),
    "weighted_fisher_check inf J":
        lambda: weighted_fisher_check(1.0, 1.0, INF, 0.5, 0.5, BS),
    "weighted_fisher_check nan weight":
        lambda: weighted_fisher_check(1.0, 1.0, 1.0, NAN, 0.5, BS),
    "weighted_fisher_check inf weight":
        lambda: weighted_fisher_check(1.0, 1.0, 1.0, 0.5, -INF, BS),
    "optimal_weights nan J": lambda: optimal_weights(NAN, 1.0, BS),
    "optimal_weights inf J": lambda: optimal_weights(1.0, INF, BS),
    "entropy_power nan": lambda: entropy_power(NAN, 1),
    "entropy_power overflow": lambda: entropy_power(2.0 * LOG_FLOAT_MAX, 1),
    "random_gaussian_state nan nu_max": lambda: random_gaussian_state(1, 0, nu_max=NAN),
    "random_gaussian_state inf nu_max": lambda: random_gaussian_state(1, 0, nu_max=INF),
    "random_gaussian_state nan r_max": lambda: random_gaussian_state(1, 0, r_max=NAN),
    "random_gaussian_state r_max 1e3": lambda: random_gaussian_state(1, 0, r_max=1e3),
    "asymptotic_check nan": lambda: asymptotic_check(GaussianState.vacuum(), [1.0, NAN]),
}


@pytest.mark.parametrize("call", sorted(LIBRARY_CALLS))
def test_library_refuses_bad_argument(call):
    with pytest.raises(DomainError):
        LIBRARY_CALLS[call]()



@pytest.mark.parametrize("call, name", [
    (lambda: fock.vacuum_state(7.9), "cutoff"),
    (lambda: fock.fock_state(1.5, 10), "Fock level"),
    (lambda: fock.thermal_state(1.0, 60.5), "cutoff"),
    (lambda: fock.coherent_state(0.5, 20.5), "cutoff")])
def test_fock_cutoffs_and_levels_must_be_integers(call, name):
    with pytest.raises(DomainError, match=f"^{name} must be an integer, got "):
        call()


def test_fock_constructors_take_numpy_integers():
    dim, level = np.int64(12), np.int32(3)
    for state in (fock.vacuum_state(dim), fock.fock_state(level, dim),
                  fock.thermal_state(0.2, dim), fock.coherent_state(0.5, dim)):
        assert state.dim == 12 and type(state.dim) is int
    assert fock.fock_state(level, dim).rho[3, 3] == 1.0
