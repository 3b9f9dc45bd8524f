"""Command-line front end: verification suites, figure data, oracle
cross-checks and the proof trajectory.

Exit codes: 0 success, 1 inequality violation, oracle disagreement, a
numerical failure or an I/O error, 2 usage error, 3 oracle infeasibility
(cutoff too small).  `main` alone maps errors to them, by family.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import os
import sys

import numpy as np

from . import broadcast, fock
from .channels import MixingParams
from .files import _grid_csv, atomic_write
from .inequalities import LAM_GRID, S_GRID, SUITE_R_MAX, TRAJECTORY_T_MAX, delta_surface, \
    delta_surface_max, moe_bound, moe_conjectured, random_qepi_suite, ratio_trajectory
from .symplectic import DomainError, GaussianState, NumericError, ValidationError, g

ORACLE_TOLERANCE = 1e-5


def _write_report(path: str, payload: dict) -> None:
    atomic_write(path, (json.dumps(payload, indent=2, sort_keys=True), "\n"))
    # timestamps live in a sidecar so report bodies stay byte-reproducible
    meta = {"written_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "report": os.path.basename(path)}
    atomic_write(path + ".meta.json", (json.dumps(meta, indent=2), "\n"))


def cmd_verify(args) -> int:
    params = (MixingParams.beam_splitter(args.transmissivity) if args.kappa is None
              else MixingParams.amplifier(args.kappa))
    summary = random_qepi_suite(args.trials, args.seed, params,
                                nu_max=args.nu_max, r_max=args.r_max,
                                with_stam=args.stam)
    if args.out:
        _write_report(args.out, summary.to_dict())
    violations = len(summary.failures)
    print(f"trials={summary.trials} kind={summary.kind} lambda_A={summary.lambda_A} "
          f"min_qepi_slack={summary.min_qepi_slack:.3e} "
          f"min_qepi_trial={summary.min_qepi_trial} violations={violations}")
    return 0 if violations == 0 else 1


def cmd_figures(args) -> int:
    # the region first: it checks --lambda and --n-bar before any file is written
    points = broadcast.capacity_region(args.transmissivity, args.n_bar)
    os.makedirs(args.out, exist_ok=True)

    surface = delta_surface()
    atomic_write(os.path.join(args.out, "delta_surface.csv"),
                 _grid_csv(("S_bar", "lambda", "delta"), S_GRID, LAM_GRID, "%.12g", surface))

    s_bars = np.array([[0.5], [1.0], [1.5]])
    # per S_bar, the ansatz and the bound of each lambda in turn
    bounds = np.stack([moe_conjectured(s_bars, LAM_GRID), moe_bound(s_bars, LAM_GRID)],
                      axis=-1).reshape(s_bars.size, -1)
    atomic_write(os.path.join(args.out, "moe_bounds.csv"),
                 _grid_csv(("S_bar", "lambda", "gaussian_ansatz", "qepi_bound"),
                          s_bars[:, 0], LAM_GRID, "%.12g,%.12g", bounds))

    broadcast.write_region_csv(os.path.join(args.out, "region.csv"), points)

    mx, s_at, lam_at = delta_surface_max(surface)
    print(f"delta surface max {mx:.6f} at S_bar={s_at:.4f} lambda={lam_at:.6f}")
    print(f"wrote delta_surface.csv, moe_bounds.csv, region.csv to {args.out}")
    return 0


def cmd_oracle(args) -> int:
    dim = args.cutoff
    thermal = fock.thermal_state(1.0, dim)
    vac = fock.vacuum_state(dim)
    out = fock.two_mode_mix(thermal, vac, MixingParams.beam_splitter(0.5))
    amp = fock.two_mode_mix(vac, vac, MixingParams.amplifier(2.0))
    evolved = fock.liouville_evolve(vac, 2.0)
    checks = [("thermal1_vacuum_bs_half", fock.vn_entropy(out), g(0.5)),
              ("vacuum_vacuum_amp2", fock.vn_entropy(amp), 2.0 * math.log(2.0)),
              ("vacuum_noise_t2", fock.vn_entropy(evolved), 2.0 * math.log(2.0))]
    worst = max(abs(got - want) for _, got, want in checks)
    payload = {"cutoff": dim,
               "checks": [{"name": name, "oracle": got, "closed_form": want,
                           "abs_error": abs(got - want)}
                          for name, got, want in checks],
               "max_abs_error": worst,
               "tolerance": ORACLE_TOLERANCE}
    if args.out:
        _write_report(args.out, payload)
    for name, got, want in checks:
        print(f"{name}: oracle={got:.9f} closed_form={want:.9f} "
              f"err={abs(got-want):.2e}")
    if worst > ORACLE_TOLERANCE:
        print(f"oracle disagreement {worst:.3e} exceeds {ORACLE_TOLERANCE}",
              file=sys.stderr)
        return 1
    return 0


def cmd_trajectory(args) -> int:
    instances = [("thermal(N=1) + vacuum, balanced beam splitter",
                  GaussianState.thermal(1.0), GaussianState.vacuum(),
                  MixingParams.beam_splitter(0.5)),
                 ("vacuum + vacuum, amplifier gain 2",
                  GaussianState.vacuum(), GaussianState.vacuum(),
                  MixingParams.amplifier(2.0))]
    for title, a, b, p in instances:
        traj = ratio_trajectory(a, b, p, t_max=args.t_max)
        print(f"\n{title}")
        print(f"{'t':>10s} {'t_C':>12s} {'S_C':>12s} {'ratio':>18s}")
        stride = max(1, traj.t.size // 20)
        for i in list(range(0, traj.t.size, stride)) + [traj.t.size - 1]:
            print(f"{traj.t[i]:10.3f} {traj.t_C[i]:12.5g} {traj.S_C[i]:12.6f} "
                  f"{traj.ratio[i]:18.12f}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The qepi parser, built on the first call and shared by every later one.

    Parsing leaves no state in it, so `main` reuses one parser per process;
    importing this module builds none.
    """
    parser = argparse.ArgumentParser(
        prog="qepi",
        description="Verify bosonic entropy power inequalities and export figure data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify",
                              help="randomized inequality suite on Gaussian pairs")
    p_verify.add_argument("--out", type=str, default=None, help="JSON report path")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--trials", type=int, default=1000)
    channel = p_verify.add_mutually_exclusive_group()
    channel.add_argument("--lambda", dest="transmissivity", type=float, default=0.5,
                         help="beam-splitter transmissivity (default 0.5)")
    channel.add_argument("--kappa", type=float, default=None, help="amplifier gain")
    p_verify.add_argument("--nu-max", type=float, default=10.0)
    p_verify.add_argument("--r-max", type=float, default=1.0,
                          help=f"largest squeezing drawn, in [0, {SUITE_R_MAX:g}] (default 1)")
    p_verify.add_argument("--stam", action="store_true",
                          help="also run the Fisher information inequality")
    p_verify.set_defaults(func=cmd_verify)

    p_fig = sub.add_parser("figures",
                           help="export gap-surface, output-entropy and rate-region CSVs")
    p_fig.add_argument("--out", type=str, default=".", help="directory for the CSVs")
    p_fig.add_argument("--lambda", dest="transmissivity", type=float, default=0.8)
    p_fig.add_argument("--n-bar", type=float, default=15.0)
    p_fig.set_defaults(func=cmd_figures)

    p_oracle = sub.add_parser("oracle",
                              help="Gaussian closed form vs truncated-Fock cross-check")
    p_oracle.add_argument("--out", type=str, default=None, help="JSON report path")
    p_oracle.add_argument("--cutoff", type=int, default=60)
    p_oracle.set_defaults(func=cmd_oracle)

    p_traj = sub.add_parser("trajectory",
                            help="print the monotone proof trajectory of two instances")
    p_traj.add_argument("--t-max", type=float, default=200.0,
                        help=f"end time, in (0, {TRAJECTORY_T_MAX:g}] (default 200)")
    p_traj.set_defaults(func=cmd_trajectory)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the one place an error becomes an exit code; an error of no family is a bug
    try:
        return args.func(args)
    except fock.CutoffError as exc:
        print(f"infeasible: {exc} (leak={exc.leak:.3e})", file=sys.stderr)
        return 3
    except (ValidationError, NumericError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
