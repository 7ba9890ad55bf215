#!/usr/bin/env python3
"""Experiment sweeps on connected topologies, one NAME each:

  protocol_comparison  the five protocols across failure probabilities: the
                       robustness / delay / forwarding-load / energy grid
  credit_sweep         how much initial credit the budget policy needs as
                       failures rise, with the plain flood as the reference
  spreading_sweep      the probabilistic policy's spreading factor: flatter
                       conversion curves trade extra forwards for little
                       robustness

Each writes runs.csv and aggregate.csv under --out (default out/NAME), one
subdirectory per sweep where an experiment runs more than one.
"""

import argparse
import sys

from gradcast import cli

P_F = "scenario.p_f=0,0.4,0.8"

# name -> {output subdirectory ("" for --out itself): sweep axes}
EXPERIMENTS = {
    "protocol_comparison": {
        "": ["scenario.protocol=BGB,GRAB,P-GRAB,U-GRAB,UP-GRAB", P_F],
    },
    "credit_sweep": {
        "grab": ["scenario.protocol=GRAB", "policies.credit_factor=1,5,10,20", P_F],
        "bgb": ["scenario.protocol=BGB", P_F],
    },
    "spreading_sweep": {
        "": ["scenario.protocol=P-GRAB", "policies.spread_factor=1,2,4,8,16", P_F],
    },
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("name", choices=EXPERIMENTS)
    ap.add_argument("--out", help="output directory (default: out/NAME)")
    ap.add_argument("--seeds", type=int, default=30)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--config", default=None)
    args = ap.parse_args()
    out = args.out or f"out/{args.name}"
    base = ["--seeds", str(args.seeds), "--jobs", str(args.jobs),
            "--set", "scenario.require_connected=true"]
    if args.config:
        base += ["--config", args.config]
    for sub, axes in EXPERIMENTS[args.name].items():
        argv = ["sweep", "--out", f"{out}/{sub}" if sub else out]
        for axis in axes:
            argv += ["--axis", axis]
        rc = cli.main(argv + base)
        if rc != 0:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
