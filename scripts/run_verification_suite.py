#!/usr/bin/env python3
"""Run every shipped verification study through the CLI and summarize.

Each command runs with its shipped defaults (the same plans the acceptance
tests pin down) and writes artifacts into a per-command subdirectory of
--out. --quick shrinks every plan to a smoke-test scale that finishes in
well under a minute; pass --workers to parallelize replica loops.

Exit status is the number of failed commands, so `echo $?` counts failures.
"""
import argparse
import sys
import time

from kpzlab.cli import main as kpzlab_main

# (command, extra --set items at full scale, extra items at --quick)
SUITE = [
    ("check-phi", [], []),
    ("walk-check", [], []),
    ("decompose", ["plan.t=10", "plan.epsilon=0.3"],
     ["plan.replicas=30"]),
    ("remainder", [], ["plan.epsilon_grid=0.2 0.1", "plan.replicas=50"]),
    ("gradient", [], ["plan.epsilon_grid=0.2 0.1", "plan.replicas=50"]),
    ("drift", [], ["plan.times=5 25", "plan.replicas=50"]),
    # kurtosis SE ~ sqrt(24/N): below N ~ 1000 the 0.3 threshold is noise
    ("whitenoise", [], ["plan.epsilon_grid=0.3", "plan.replicas=1000"]),
    ("stationarity", [],
     ["plan.checkpoints=1 4 16 64", "plan.l=128"]),
]


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="verification-out",
                    help="artifact root (default: verification-out)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--quick", action="store_true",
                    help="smoke-test scale instead of verification scale")
    args = ap.parse_args(argv)

    failures = []
    t0 = time.monotonic()
    for command, full, quick in SUITE:
        sets = full + (quick if args.quick else [])
        argv_cmd = [command, "--out", f"{args.out}/{command}",
                    "--seed", str(args.seed),
                    "--workers", str(args.workers)]
        for item in sets:
            argv_cmd += ["--set", item]
        print(f"=== {command} ===", flush=True)
        rc = kpzlab_main(argv_cmd)
        if rc != 0:
            failures.append(command)
        print(flush=True)

    minutes = (time.monotonic() - t0) / 60.0
    if failures:
        print(f"FAILED ({minutes:.1f} min): {', '.join(failures)}")
    else:
        print(f"all {len(SUITE)} commands passed ({minutes:.1f} min)")
    return len(failures)


if __name__ == "__main__":
    sys.exit(run())
