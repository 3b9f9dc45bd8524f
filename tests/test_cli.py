import csv
import json
import os

import pytest

from qepi import fock
from qepi.cli import main


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


def test_verify_bad_lambda_usage_error(capsys):
    assert main(["verify", "--trials", "5", "--lambda", "1.5"]) == 2
    assert "usage error" in capsys.readouterr().err


def test_verify_bad_kappa_usage_error():
    assert main(["verify", "--trials", "5", "--kappa", "0.5"]) == 2


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
