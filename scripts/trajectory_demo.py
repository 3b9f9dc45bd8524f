#!/usr/bin/env python3
"""Print the monotone proof trajectory for a thermal/vacuum beam-splitter
instance and a vacuum amplifier instance.

The ratio column starts at the entropy-power-inequality ratio of the
instance and climbs monotonically to 1 as Gaussian noise is added along
the reparametrized flow.
"""

import argparse

from qepi.channels import MixingParams
from qepi.inequalities import ratio_trajectory
from qepi.symplectic import GaussianState


def show(title, a, b, p, t_max):
    traj = ratio_trajectory(a, b, p, t_max=t_max)
    print(f"\n{title}")
    print(f"{'t':>10s} {'t_C':>12s} {'S_C':>12s} {'ratio':>18s}")
    stride = max(1, traj.t.size // 20)
    rows = list(range(0, traj.t.size, stride)) + [traj.t.size - 1]
    for i in rows:
        print(f"{traj.t[i]:10.3f} {traj.t_C[i]:12.5g} {traj.S_C[i]:12.6f} "
              f"{traj.ratio[i]:18.12f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--t-max", type=float, default=200.0)
    args = parser.parse_args()
    show("thermal(N=1) + vacuum, balanced beam splitter",
         GaussianState.thermal(1.0), GaussianState.vacuum(),
         MixingParams.beam_splitter(0.5), args.t_max)
    show("vacuum + vacuum, amplifier gain 2",
         GaussianState.vacuum(), GaussianState.vacuum(),
         MixingParams.amplifier(2.0), args.t_max)


if __name__ == "__main__":
    main()
