import csv
import importlib
import io
import json
import math
import os
import pkgutil
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import qepi
from qepi import cli, fisher, fock, inequalities, symplectic
from qepi.broadcast import capacity_region
from qepi.cli import main
from qepi.channels import MixingParams, mix
from qepi.fisher import fisher_total_gaussian
from qepi.inequalities import (LAM_GRID, S_GRID, delta_surface, moe_bound, moe_conjectured,
                               qepi_check, stam_check)
from qepi.symplectic import GaussianState, entropy, random_gaussian_state


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


def test_verify_report_replays_its_tightest_trials(tmp_path):
    # the report alone (seed, channel, draw settings, with_stam) replays the
    # trial of each minimum, bit for bit, away from the default settings
    out = tmp_path / "report.json"
    assert main(["verify", "--trials", "300", "--seed", "3", "--kappa", "2", "--stam",
                 "--nu-max", "100", "--r-max", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert (report["nu_max"], report["r_max"], report["with_stam"]) == (100.0, 2.0, True)
    make = {"beam_splitter": MixingParams.beam_splitter, "amplifier": MixingParams.amplifier}
    p = make[report["kind"]](report["lambda_A"])

    def replay(trial):
        a, b = (random_gaussian_state(1, np.random.default_rng(np.random.SeedSequence(
            (report["seed"], trial, k))), nu_max=report["nu_max"], r_max=report["r_max"])
                for k in (0, 1))
        return a, b, mix(a, b, p)

    a, b, c = replay(report["min_qepi_trial"])
    assert qepi_check(entropy(a), entropy(b), entropy(c), 1, p).slack == \
        report["min_qepi_slack"]
    a, b, c = replay(report["min_stam_trial"])
    j_a, j_b, j_c = fisher_total_gaussian(GaussianState(1, np.stack([a.gamma, b.gamma,
                                                                      c.gamma])))
    assert stam_check(j_a, j_b, j_c, p).slack == report["min_stam_slack"]
    # the default draw settings give another state
    default = random_gaussian_state(1, np.random.default_rng(np.random.SeedSequence(
        (report["seed"], report["min_stam_trial"], 0))))
    assert not np.array_equal(default.gamma, a.gamma)


def test_verify_amplifier(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "--trials", "20", "--kappa", "2.0", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["kind"] == "amplifier" and payload["trials"] == 20
    assert {"trials", "kind", "min_qepi_slack"} <= payload.keys()


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


def test_verify_refuses_lambda_with_kappa(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--trials", "5", "--lambda", "0.3", "--kappa", "2"])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


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


def test_oracle_non_finite_state_exits_one(monkeypatch, capsys):
    # a mix output with a NaN entry is refused by the state's validation,
    # and the refusal maps to the numerical-failure family
    def nan_mix(rho_a, rho_b, sectors):
        out = np.eye(rho_a.dim, dtype=complex) / rho_a.dim
        out[0, 1] = np.nan
        return out
    monkeypatch.setattr(fock, "_mix_diagonal", nan_mix)
    assert main(["oracle", "--cutoff", "30"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: ")
    assert "non-finite" in err[0]


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
                                  ["oracle", "--seed", "1"],
                                  ["verify", "--format", "csv"],
                                  ["oracle", "--format", "json"],
                                  ["oracle", "--tolerance", "1e-3"]])
def test_subcommands_refuse_options_they_do_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_figures_lambda_zero_usage_error(tmp_path, capsys):
    assert main(["figures", "--out", str(tmp_path), "--lambda", "0"]) == 2
    assert "usage error" in capsys.readouterr().err
    assert not (tmp_path / "region.csv").exists()


def test_trajectory_tables(capsys):
    assert main(["trajectory", "--t-max", "20"]) == 0
    out = capsys.readouterr().out
    titles = ["thermal(N=1) + vacuum, balanced beam splitter",
              "vacuum + vacuum, amplifier gain 2"]
    tables = [block.splitlines() for block in out.strip("\n").split("\n\n")]
    assert [table[0] for table in tables] == titles
    first_ratio = float(tables[0][2].split()[-1])
    want = (0.5 * math.exp(symplectic.g(1.0)) + 0.5) / math.exp(symplectic.g(0.5))
    assert abs(first_ratio - want) < 1e-12
    assert [table[-1].split()[-1] for table in tables] == ["1.000000000000"] * 2


def test_trajectory_t_max_zero_usage_error(capsys):
    assert main(["trajectory", "--t-max", "0"]) == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("t_max", ["nan", "inf"])
def test_trajectory_non_finite_t_max_usage_error(t_max, capsys):
    assert main(["trajectory", "--t-max", t_max]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: t_max must be finite and positive")


@pytest.mark.parametrize("t_max", ["530", "1e12"])
def test_trajectory_t_max_above_cap_usage_error(t_max, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["trajectory", "--t-max", t_max]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("usage error: t_max must be in (0.0, 500.0]")
    assert captured.out == ""


def test_verify_r_max_at_cap_passes(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", "--r-max", "4"]) == 0
    assert " violations=0" in capsys.readouterr().out


def test_figures_computes_the_gap_surface_once(tmp_path, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return delta_surface(*args, **kwargs)
    monkeypatch.setattr(cli, "delta_surface", counted)
    monkeypatch.setattr(inequalities, "delta_surface", counted)
    assert main(["figures", "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


# runs in a fresh interpreter, so no other test has imported scipy yet
SCIPY_PROBE = """
import sys
import qepi, qepi.cli as cli

def loaded():
    return [m for m in ("scipy.linalg", "scipy.special", "scipy.integrate")
            if m in sys.modules]

assert cli.main(["verify", "--trials", "50", "--kappa", "2", "--stam"]) == 0
assert cli.main(["figures", "--out", sys.argv[1]]) == 0
print("gaussian", loaded())
assert cli.main(["oracle", "--cutoff", "30"]) == 0
print("oracle", loaded())
"""


def _run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that finds this qepi, warnings as errors."""
    src = os.path.dirname(os.path.dirname(qepi.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-W", "error", *args],
                          capture_output=True, text=True, check=True, env=env)


def test_gaussian_commands_load_no_scipy(tmp_path):
    out = _run_python("-c", SCIPY_PROBE, str(tmp_path))
    probes = dict(line.split(" ", 1) for line in out.stdout.splitlines()
                  if line.startswith(("gaussian ", "oracle ")))
    assert probes["gaussian"] == "[]"
    # the oracle loads scipy.linalg, so the probe sees a loaded module
    assert "'scipy.linalg'" in probes["oracle"]
    assert "'scipy.special'" not in probes["oracle"]


COHERENT_PROBE = """
import sys
import qepi.fock as fock
fock.coherent_state(0.8 + 0.3j, 30)
print("coherent", [m for m in sys.modules if m.startswith("scipy")])
"""


def test_coherent_state_loads_no_scipy():
    out = _run_python("-c", COHERENT_PROBE)
    assert "coherent []" in out.stdout.splitlines()


def test_figures_peak_python_memory(tmp_path):
    # the surface CSV is 1.4 MB; joined and encoded whole it peaked at 4.5 MiB,
    # and at 1.6 MiB while the gap surface was one grid-sized expression
    assert main(["figures", "--out", str(tmp_path)]) == 0
    tracemalloc.start()
    try:
        assert main(["figures", "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.0 * 2**20


def _csv_writer_bytes(rows) -> bytes:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue().encode("utf-8")


def test_figures_csv_bytes_match_csv_writer(tmp_path):
    assert main(["figures", "--out", str(tmp_path)]) == 0
    surface = delta_surface()
    rows = [["S_bar", "lambda", "delta"]]
    for i, s in enumerate(S_GRID):
        for j, lam in enumerate(LAM_GRID):
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
    for pt in capacity_region(0.8, 15.0):
        rows.append([f"{pt.beta:.10g}", f"{pt.R_B:.12g}", f"{pt.R_C_conjectured:.12g}",
                     f"{pt.R_C_qepi:.12g}", int(pt.feasible)])
    assert (tmp_path / "region.csv").read_bytes() == _csv_writer_bytes(rows)


@pytest.mark.parametrize("command, name", [
    ("verify --nu-max nan", "nu_max"),
    ("verify --nu-max inf", "nu_max"),
    ("verify --r-max nan", "r_max"),
    ("verify --r-max inf", "r_max"),
    ("verify --r-max 1e3", "r_max"),
    # past SUITE_R_MAX = 4: the draws failed as not positive definite at 10,
    # and overflowed with a RuntimeWarning at 400
    ("verify --r-max 10", "r_max"),
    ("verify --r-max 400", "r_max"),
    ("verify --trials 0", "trials"),
    ("figures --n-bar nan", "n_bar"),
    ("figures --lambda nan", "transmissivity"),
    ("oracle --cutoff 0", "cutoff")])
def test_bad_argument_is_one_usage_error_line(command, name, tmp_path, capsys):
    argv = command.split()
    if argv[0] == "verify":
        argv[1:1] = ["--trials", "3"]
    if argv[0] == "figures":
        argv += ["--out", str(tmp_path / "figs")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"usage error: {name} must be ")
    assert captured.out == ""
    # the arguments are checked before any file is written
    assert not (tmp_path / "figs").exists()


def test_verify_largest_seed_is_valid():
    # compared as an integer: as a float, 2**64 - 1 rounds to 2**64
    assert main(["verify", "--trials", "3", "--seed", str(2 ** 64 - 1)]) == 0


@pytest.mark.parametrize("channel", ["--kappa 2", "--lambda 0.5"])
def test_verify_stam_divergence_is_numerical_failure(channel, capsys):
    # at nu_max = 1e12 the finite-difference Fisher route reads J <= 0
    assert main(["verify", "--stam", "--nu-max", "1e12", "--trials", "200"]
                + channel.split()) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: ")


def _raise(error):
    def failing(*args, **kwargs):
        raise error("forced failure")
    return failing


# the error families and their exit codes, as the README tabulates them
FAMILIES = {fock.CutoffError: (3, "infeasible: "),
            symplectic.ValidationError: (1, "numerical failure: "),
            symplectic.NumericError: (1, "numerical failure: "),
            symplectic.DomainError: (2, "usage error: ")}


@pytest.mark.parametrize("error, code, prefix", [
    (symplectic.ValidationError, 1, "numerical failure: "),
    (symplectic.NumericError, 1, "numerical failure: "),
    (fock.AccuracyError, 1, "numerical failure: "),
    (fisher.DivergenceError, 1, "numerical failure: "),
    (inequalities.IntegrationError, 1, "numerical failure: "),
    (fock.CutoffError, 3, "infeasible: "),
    (symplectic.DomainError, 2, "usage error: "),
    (OSError, 1, "I/O error: ")])
def test_main_maps_each_error_family(error, code, prefix, monkeypatch, capsys):
    monkeypatch.setattr(cli, "random_qepi_suite", _raise(error))
    assert main(["verify", "--trials", "5"]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(prefix) and "forced failure" in err[0]


def test_main_propagates_errors_of_no_family(monkeypatch):
    monkeypatch.setattr(cli, "random_qepi_suite", _raise(ValueError))
    with pytest.raises(ValueError, match="forced failure"):
        main(["verify", "--trials", "5"])


def _qepi_error_classes():
    found = set()
    for info in pkgutil.iter_modules(qepi.__path__):
        module = importlib.import_module(f"qepi.{info.name}")
        found |= {obj for obj in vars(module).values()
                  if isinstance(obj, type) and issubclass(obj, BaseException)
                  and obj.__module__ == module.__name__}
    return found


def test_every_qepi_error_has_one_exit_family(monkeypatch, capsys):
    # a new error class outside every family would leave main as a traceback
    classes = _qepi_error_classes()
    assert {fock.AccuracyError, fisher.DivergenceError,
            inequalities.IntegrationError} | set(FAMILIES) <= classes
    assert fock.NumericError is symplectic.NumericError
    for error in classes:
        families = [family for family in FAMILIES if issubclass(error, family)]
        assert len(families) == 1, (error, families)
        code, prefix = FAMILIES[families[0]]
        monkeypatch.setattr(cli, "random_qepi_suite", _raise(error))
        assert main(["verify", "--trials", "5"]) == code, error
        assert capsys.readouterr().err.startswith(prefix)


def test_main_builds_its_parser_once(capsys):
    cli.build_parser.cache_clear()
    for argv in (["verify", "--trials", "5"], ["verify", "--trials", "3", "--kappa", "2"],
                 ["trajectory", "--t-max", "1"]):
        assert main(argv) == 0
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_importing_the_cli_builds_no_parser():
    out = _run_python("-c", "import qepi.cli as cli; "
                            "print(cli.build_parser.cache_info().misses)")
    assert out.stdout == "0\n"


def test_shared_parser_reports_survive_failed_calls(tmp_path, capsys):
    # a usage error inside argparse and a DomainError between two identical
    # calls leave the shared parser as it was
    out = tmp_path / "report.json"
    argv = ["verify", "--trials", "40", "--seed", "5", "--kappa", "1.5", "--stam",
            "--out", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--trials", "5", "--lambda", "0.3", "--kappa", "2"])
    assert exc.value.code == 2
    assert main(["verify", "--trials", "0"]) == 2
    assert main(argv) == 0
    assert out.read_bytes() == first


@pytest.mark.parametrize("command", [[], ["verify"], ["figures"], ["oracle"],
                                     ["trajectory"]])
def test_shared_parser_help_matches_a_fresh_parser(command, capsys):
    assert main(["verify", "--trials", "3"]) == 0
    capsys.readouterr()
    texts = []
    for parse in (main, cli.build_parser.__wrapped__().parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(command + ["--help"])
        assert exc.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    assert texts[0].startswith(" ".join(["usage: qepi"] + command))
