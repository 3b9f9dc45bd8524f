import csv
import io
import json
import os

import numpy as np
import pytest

from qepi import fock, symplectic
from qepi.broadcast import capacity_region
from qepi.cli import main
from qepi.inequalities import delta_surface, moe_bound, moe_conjectured


def test_verify_exit_zero_and_reproducible_report(tmp_path):
    out = tmp_path / "report.json"
    argv = ["verify", "--trials", "50", "--seed", "7", "--lambda", "0.4",
            "--out", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    meta = json.loads((tmp_path / "report.json.meta.json").read_text())
    assert meta["report"] == "report.json"
    assert "written_at" in meta
    assert main(argv) == 0
    assert out.read_bytes() == first
    payload = json.loads(first)
    assert payload["trials"] == 50
    assert payload["failures"] == []


def test_verify_amplifier_and_csv_format(tmp_path):
    out = tmp_path / "report.csv"
    assert main(["verify", "--trials", "20", "--kappa", "2.0",
                 "--out", str(out), "--format", "csv"]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["key", "value"]
    keys = {r[0] for r in rows[1:]}
    assert {"trials", "kind", "min_qepi_slack"} <= keys


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


@pytest.mark.parametrize("extra", [["--kappa", "2"], []])
def test_verify_report_is_strict_json(extra, tmp_path):
    # an amplifier has no photon-gap minimum and a run without --stam no
    # Stam minimum: both are null, not Infinity
    out = tmp_path / "report.json"
    assert main(["verify", "--trials", "50", "--out", str(out)] + extra) == 0
    payload = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert payload["min_stam_slack"] is None and payload["min_stam_trial"] is None
    if extra:
        assert payload["min_photon_gap"] is None
    else:
        assert isinstance(payload["min_photon_gap"], float)
        assert isinstance(payload["min_photon_gap_trial"], int)


def test_verify_validation_error_is_numerical_failure(monkeypatch, capsys):
    def failing(state):
        raise symplectic.ValidationError("forced failure")
    monkeypatch.setattr(symplectic, "symplectic_eigenvalues", failing)
    assert main(["verify", "--trials", "5"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure:")
    assert "forced failure" in err[0]


def test_verify_bad_lambda_usage_error(capsys):
    assert main(["verify", "--trials", "5", "--lambda", "1.5"]) == 2
    assert "usage error" in capsys.readouterr().err


def test_verify_bad_kappa_usage_error():
    assert main(["verify", "--trials", "5", "--kappa", "0.5"]) == 2


def test_verify_negative_seed_usage_error(capsys):
    assert main(["verify", "--trials", "3", "--seed", "-1"]) == 2
    assert "usage error" in capsys.readouterr().err


def test_verify_huge_nu_max():
    # entropies past 38 nats, where photon numbers exceed 1e16
    assert main(["verify", "--trials", "3", "--nu-max", "1e20"]) == 0
    # photon numbers near 1e100 round by far more than 1/e - 1/2
    assert main(["verify", "--trials", "3", "--nu-max", "1e100"]) == 0


def test_oracle_small_cutoff_infeasible(capsys):
    assert main(["oracle", "--cutoff", "8"]) == 3
    assert "infeasible" in capsys.readouterr().err


@pytest.mark.parametrize("cutoff", ["0", "-3"])
def test_oracle_cutoff_below_one_usage_error(cutoff, capsys):
    assert main(["oracle", "--cutoff", cutoff]) == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("error", [fock.NumericError, fock.AccuracyError])
def test_oracle_numerical_failure_exits_one(error, monkeypatch, capsys):
    def failing(rho):
        raise error("forced failure")
    monkeypatch.setattr(fock, "vn_entropy", failing)
    assert main(["oracle", "--cutoff", "30"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "forced failure" in err[0]


def test_oracle_default_passes(tmp_path):
    out = tmp_path / "oracle.json"
    assert main(["oracle", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["max_abs_error"] < 1e-5
    assert len(payload["checks"]) == 3


def test_figures_outputs(tmp_path):
    outdir = tmp_path / "figs"
    assert main(["figures", "--out", str(outdir), "--lambda", "0.7",
                 "--n-bar", "5.0"]) == 0
    for name, header in [
            ("delta_surface.csv", ["S_bar", "lambda", "delta"]),
            ("moe_bounds.csv", ["S_bar", "lambda", "gaussian_ansatz", "qepi_bound"]),
            ("region.csv", ["beta", "R_B", "R_C_conj", "R_C_qepi", "feasible"])]:
        path = outdir / name
        assert path.exists()
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == header
        assert len(rows) > 100


@pytest.mark.parametrize("argv", [["figures", "--seed", "1"],
                                  ["figures", "--format", "json"],
                                  ["oracle", "--seed", "1"]])
def test_subcommands_refuse_options_they_do_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _csv_writer_bytes(rows) -> bytes:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue().encode("utf-8")


def test_figures_csv_bytes_match_csv_writer(tmp_path):
    assert main(["figures", "--out", str(tmp_path)]) == 0
    s_grid, lam_grid, surface = delta_surface()
    rows = [["S_bar", "lambda", "delta"]]
    for i, s in enumerate(s_grid):
        for j, lam in enumerate(lam_grid):
            rows.append([f"{s:.10g}", f"{lam:.10g}", f"{surface[i, j]:.12g}"])
    assert (tmp_path / "delta_surface.csv").read_bytes() == _csv_writer_bytes(rows)

    rows = [["S_bar", "lambda", "gaussian_ansatz", "qepi_bound"]]
    lams = np.linspace(0.0, 1.0, 201)
    for s_bar in (0.5, 1.0, 1.5):
        for lam, ansatz, bound in zip(lams, moe_conjectured(s_bar, lams),
                                      moe_bound(s_bar, lams)):
            rows.append([f"{s_bar:.10g}", f"{lam:.10g}", f"{ansatz:.12g}",
                         f"{bound:.12g}"])
    assert (tmp_path / "moe_bounds.csv").read_bytes() == _csv_writer_bytes(rows)

    rows = [["beta", "R_B", "R_C_conj", "R_C_qepi", "feasible"]]
    for pt in capacity_region(0.8, 15.0, grid_size=101):
        rows.append([f"{pt.beta:.10g}", f"{pt.R_B:.12g}", f"{pt.R_C_conjectured:.12g}",
                     f"{pt.R_C_qepi:.12g}", int(pt.feasible)])
    assert (tmp_path / "region.csv").read_bytes() == _csv_writer_bytes(rows)
