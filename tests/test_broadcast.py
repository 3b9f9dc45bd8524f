import csv
import math

import numpy as np
import pytest

from qepi import files
from qepi.broadcast import (CAPACITY_GRID_SIZE, CapacityPoint, capacity_point,
                            capacity_region, write_region_csv)
from qepi.symplectic import DomainError, g


def test_beta_zero_endpoint():
    pt = capacity_point(0.7, 5.0, 0.0)
    assert pt.R_B == 0.0
    assert pt.R_C_conjectured == pytest.approx(g(0.3 * 5.0), abs=1e-12)
    assert pt.R_C_qepi == pytest.approx(g(1.5), abs=1e-12)
    assert pt.feasible


def test_beta_one_balanced():
    # lam = 1/2, beta = 1: both receivers see the full thermal load, so the
    # conjectured C rate vanishes exactly
    pt = capacity_point(0.5, 4.0, 1.0)
    assert pt.R_B == pytest.approx(g(2.0), abs=1e-12)
    assert pt.R_C_conjectured == pytest.approx(0.0, abs=1e-12)
    assert pt.R_C_qepi <= 1e-12


def test_qepi_region_contains_conjectured():
    # the proven bound is weaker, so its outer region is larger
    for lam in (0.5, 0.6, 0.75, 0.9):
        for n_bar in (1.0, 5.0, 15.0):
            for pt in capacity_region(lam, n_bar):
                assert pt.R_C_qepi >= pt.R_C_conjectured - 1e-12


def test_monotone_in_beta():
    pts = capacity_region(0.7, 5.0)
    r_b = np.array([p.R_B for p in pts])
    r_c = np.array([p.R_C_conjectured for p in pts])
    assert np.all(np.diff(r_b) >= -1e-12)
    assert np.all(np.diff(r_c) <= 1e-12)


def test_bound_gap_is_small():
    worst = 0.0
    for lam in (0.5, 0.6, 0.7, 0.8, 0.9):
        for n_bar in (1.0, 5.0, 15.0):
            for pt in capacity_region(lam, n_bar):
                worst = max(worst, pt.R_C_qepi - pt.R_C_conjectured)
    assert worst <= 0.14


def test_feasibility_flag():
    pts = capacity_region(0.5, 4.0)
    assert all(p.feasible for p in pts)
    assert pts[-1].R_C_conjectured == pytest.approx(0.0, abs=1e-12)


def test_domain_errors():
    with pytest.raises(DomainError):
        capacity_point(0.4, 1.0, 0.5)
    with pytest.raises(DomainError):
        capacity_point(0.7, -1.0, 0.5)
    with pytest.raises(DomainError):
        capacity_point(0.7, 1.0, 1.5)


def test_region_csv(tmp_path):
    pts = capacity_region(0.7, 5.0)
    path = tmp_path / "region.csv"
    write_region_csv(path, pts)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["beta", "R_B", "R_C_conj", "R_C_qepi", "feasible"]
    assert len(rows) == CAPACITY_GRID_SIZE + 1
    assert float(rows[1][0]) == 0.0
    assert float(rows[-1][0]) == 1.0
    assert rows[1][4] in ("0", "1")
    assert float(rows[1][1]) == pytest.approx(pts[0].R_B, rel=1e-10)


def test_region_csv_failed_write_leaves_nothing(tmp_path, monkeypatch):
    # neither a partial region.csv nor a .tmp-qepi-* file survives a failure
    pts = capacity_region(0.7, 5.0)
    path = tmp_path / "region.csv"
    unformattable = CapacityPoint(beta=0.5, R_B=None, R_C_conjectured=0.0, R_C_qepi=0.0)
    with pytest.raises(TypeError):
        write_region_csv(path, pts[:5] + [unformattable] + pts[5:])
    assert list(tmp_path.iterdir()) == []

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(files.os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        write_region_csv(path, pts)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("lam", [0.5, 0.7, 1.0])
@pytest.mark.parametrize("n_bar", [0.0, 4.0, 15.0])
def test_array_beta_equals_scalar_calls(lam, n_bar):
    betas = np.linspace(0.0, 1.0, 101)
    region = capacity_point(lam, n_bar, betas)
    for k, beta in enumerate(betas.tolist()):
        pt = capacity_point(lam, n_bar, beta)
        assert isinstance(pt.R_C_qepi, float)
        assert (region.beta[k], region.R_B[k], region.R_C_conjectured[k],
                region.R_C_qepi[k]) == (pt.beta, pt.R_B, pt.R_C_conjectured,
                                        pt.R_C_qepi)
    assert capacity_region(lam, n_bar) == [capacity_point(lam, n_bar, b)
                                           for b in betas.tolist()]


def test_array_beta_domain_error():
    with pytest.raises(DomainError):
        capacity_point(0.7, 1.0, np.array([0.0, 0.5, 1.5]))
