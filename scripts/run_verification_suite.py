#!/usr/bin/env python3
"""Run every Monte Carlo criterion's CLI runs through the CLI and summarize.

The study runs are config.CRITERIA, the table whose entries the acceptance
tests of criteria 06-10 run, so at full scale this script runs every
configuration those tests pin down. check-phi, walk-check and decompose
run once each. Every run writes its artifacts into its own subdirectory
of --out. --quick appends each command's QUICK items after its full-scale
items, which shrinks every plan to a smoke-test scale that finishes in
well under a minute; pass --workers to parallelize replica loops.

Exit status is the number of failed runs, so `echo $?` counts failures.
"""
import argparse
import sys
import time

from kpzlab.cli import main as kpzlab_main
from kpzlab.config import CRITERIA

# (command, --set items at full scale) of the runs outside CRITERIA
SINGLE_RUNS = [
    ("check-phi", []),
    ("walk-check", []),
    ("decompose", ["plan.t=10", "plan.epsilon=0.3"]),
]

# --set items per command at --quick, applied after the full-scale items
QUICK = {
    "decompose": ["plan.replicas=30"],
    "remainder": ["plan.epsilon_grid=0.2 0.1", "plan.replicas=50"],
    "gradient": ["plan.epsilon_grid=0.2 0.1", "plan.replicas=50"],
    "drift": ["plan.times=5 25", "plan.replicas=50"],
    # kurtosis SE ~ sqrt(24/N): below N ~ 1000 the 0.3 threshold is noise
    "whitenoise": ["plan.epsilon_grid=0.3", "plan.replicas=1000"],
    "stationarity": ["plan.checkpoints=1 4 16 64", "plan.l=128"],
}


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="verification-out",
                    help="artifact root (default: verification-out)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--quick", action="store_true",
                    help="smoke-test scale instead of verification scale")
    args = ap.parse_args(argv)

    # (output subdirectory, command, full-scale --set items) of every run
    runs = [(command, command, sets) for command, sets in SINGLE_RUNS]
    runs += [(f"{number:02d}-{i}-{command}", command, sets)
             for number, entries in sorted(CRITERIA.items())
             for i, (command, sets) in enumerate(entries, start=1)]
    failures = []
    t0 = time.monotonic()
    for name, command, sets in runs:
        sets = sets + (QUICK.get(command, []) if args.quick else [])
        argv_cmd = [command, "--out", f"{args.out}/{name}",
                    "--seed", str(args.seed),
                    "--workers", str(args.workers)]
        for item in sets:
            argv_cmd += ["--set", item]
        print(f"=== {' '.join([name] + sets)} ===", flush=True)
        rc = kpzlab_main(argv_cmd)
        if rc != 0:
            failures.append(name)
        print(flush=True)

    minutes = (time.monotonic() - t0) / 60.0
    if failures:
        print(f"FAILED ({minutes:.1f} min): {', '.join(failures)}")
    else:
        print(f"all {len(runs)} runs passed ({minutes:.1f} min)")
    return len(failures)


if __name__ == "__main__":
    sys.exit(run())
