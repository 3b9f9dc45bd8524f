"""Command-line front end: verification suites, figure data, oracle cross-checks.

Exit codes: 0 success, 1 inequality violation found, oracle disagreement
or a numerical failure (in the oracle, or a ValidationError from a
computation: no argument is a covariance matrix), 2 usage error, 3 oracle
infeasibility (cutoff too small).
"""

from __future__ import annotations

import argparse
import csv
import datetime
import io
import json
import math
import os
import sys

import numpy as np

from . import broadcast, fock
from .channels import MixingParams
from .files import atomic_write, csv_text
from .inequalities import delta_surface, delta_surface_max, moe_bound, \
    moe_conjectured, random_qepi_suite
from .symplectic import ValidationError, g


def _write_report(path: str, payload: dict, fmt: str) -> None:
    if fmt == "json":
        body = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["key", "value"])
        for key in sorted(payload):
            writer.writerow([key, json.dumps(payload[key], sort_keys=True)])
        body = buf.getvalue()
    atomic_write(path, body)
    # timestamps live in a sidecar so report bodies stay byte-reproducible
    meta = {"written_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "report": os.path.basename(path)}
    atomic_write(path + ".meta.json", json.dumps(meta, indent=2) + "\n")


def _mixing_from_args(args) -> MixingParams:
    if args.kappa is not None:
        return MixingParams.amplifier(args.kappa)
    lam = 0.5 if getattr(args, "transmissivity", None) is None else args.transmissivity
    return MixingParams.beam_splitter(lam)


def cmd_verify(args) -> int:
    try:
        params = _mixing_from_args(args)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    summary = random_qepi_suite(args.trials, args.seed, params,
                                nu_max=args.nu_max, r_max=args.r_max,
                                with_stam=args.stam)
    payload = summary.to_dict()
    if args.out:
        _write_report(args.out, payload, args.format)
    violations = len(summary.failures)
    print(f"trials={summary.trials} kind={summary.kind} lambda_A={summary.lambda_A} "
          f"min_qepi_slack={summary.min_qepi_slack:.3e} "
          f"min_qepi_trial={summary.min_qepi_trial} violations={violations}")
    return 0 if violations == 0 else 1


def cmd_figures(args) -> int:
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)

    s_grid, lam_grid, surface = delta_surface()
    lam_text = [f"{lam:.10g}" for lam in lam_grid.tolist()]
    # one block of text per S_bar, so the rows never all live as strings at once
    blocks = [csv_text([("S_bar", "lambda", "delta")])]
    for s, deltas in zip(s_grid.tolist(), surface):
        s_text = f"{s:.10g}"
        blocks.append(csv_text((s_text, lam, f"{d:.12g}")
                               for lam, d in zip(lam_text, deltas.tolist())))
    atomic_write(os.path.join(outdir, "delta_surface.csv"), "".join(blocks))

    rows = [("S_bar", "lambda", "gaussian_ansatz", "qepi_bound")]
    lams = np.linspace(0.0, 1.0, 201)
    lam_text = [f"{lam:.10g}" for lam in lams.tolist()]
    for s_bar in (0.5, 1.0, 1.5):
        ansatz = [f"{x:.12g}" for x in moe_conjectured(s_bar, lams).tolist()]
        bound = [f"{x:.12g}" for x in moe_bound(s_bar, lams).tolist()]
        rows += [(f"{s_bar:.10g}",) + row for row in zip(lam_text, ansatz, bound)]
    atomic_write(os.path.join(outdir, "moe_bounds.csv"), csv_text(rows))

    points = broadcast.capacity_region(args.transmissivity or 0.8, args.n_bar,
                                       grid_size=101)
    broadcast.write_region_csv(os.path.join(outdir, "region.csv"), points)

    mx, s_at, lam_at = delta_surface_max()
    print(f"delta surface max {mx:.6f} at S_bar={s_at:.4f} lambda={lam_at:.6f}")
    print(f"wrote delta_surface.csv, moe_bounds.csv, region.csv to {outdir}")
    return 0


def cmd_oracle(args) -> int:
    dim = args.cutoff
    if dim < 1:
        print(f"usage error: --cutoff must be at least 1, got {dim}", file=sys.stderr)
        return 2
    checks = []
    try:
        thermal = fock.thermal_state(1.0, dim)
        vac = fock.vacuum_state(dim)
        out = fock.two_mode_mix(thermal, vac, MixingParams.beam_splitter(0.5))
        checks.append(("thermal1_vacuum_bs_half",
                       fock.vn_entropy(out), g(0.5)))
        amp = fock.two_mode_mix(vac, vac, MixingParams.amplifier(2.0))
        checks.append(("vacuum_vacuum_amp2",
                       fock.vn_entropy(amp), 2.0 * math.log(2.0)))
        evolved = fock.liouville_evolve(vac, 2.0)
        checks.append(("vacuum_noise_t2",
                       fock.vn_entropy(evolved), 2.0 * math.log(2.0)))
    except fock.CutoffError as exc:
        print(f"oracle infeasible at cutoff {dim}: {exc} (leak={exc.leak:.3e})",
              file=sys.stderr)
        return 3
    except (fock.NumericError, fock.AccuracyError) as exc:
        print(f"oracle numerical failure at cutoff {dim}: {exc}", file=sys.stderr)
        return 1
    worst = max(abs(got - want) for _, got, want in checks)
    payload = {"cutoff": dim,
               "checks": [{"name": name, "oracle": got, "closed_form": want,
                           "abs_error": abs(got - want)}
                          for name, got, want in checks],
               "max_abs_error": worst,
               "tolerance": args.tolerance}
    if args.out:
        _write_report(args.out, payload, args.format)
    for name, got, want in checks:
        print(f"{name}: oracle={got:.9f} closed_form={want:.9f} "
              f"err={abs(got-want):.2e}")
    if worst > args.tolerance:
        print(f"oracle disagreement {worst:.3e} exceeds {args.tolerance}",
              file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qepi",
        description="Verify bosonic entropy power inequalities and export figure data.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", type=str, default=None)
    common.add_argument("--format", choices=("csv", "json"), default="json")

    p_verify = sub.add_parser("verify", parents=[common],
                              help="randomized inequality suite on Gaussian pairs")
    p_verify.add_argument("--trials", type=int, default=1000)
    p_verify.add_argument("--lambda", dest="transmissivity", type=float, default=None)
    p_verify.add_argument("--kappa", type=float, default=None)
    p_verify.add_argument("--nu-max", type=float, default=10.0)
    p_verify.add_argument("--r-max", type=float, default=1.0)
    p_verify.add_argument("--stam", action="store_true",
                          help="also run the Fisher information inequality")
    p_verify.set_defaults(func=cmd_verify)

    p_fig = sub.add_parser("figures", parents=[common],
                           help="export gap-surface, output-entropy and rate-region CSVs")
    p_fig.add_argument("--lambda", dest="transmissivity", type=float, default=0.8)
    p_fig.add_argument("--n-bar", type=float, default=15.0)
    p_fig.set_defaults(func=cmd_figures)

    p_oracle = sub.add_parser("oracle", parents=[common],
                              help="Gaussian closed form vs truncated-Fock cross-check")
    p_oracle.add_argument("--cutoff", type=int, default=60)
    p_oracle.add_argument("--tolerance", type=float, default=1e-5)
    p_oracle.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
