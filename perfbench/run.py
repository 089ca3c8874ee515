#!/usr/bin/env python3
"""kpzlab benchmark: time verified workload passes, print metrics as JSON.

Run from the root of a source checkout; kpzlab is imported from ./src:

    python3 perfbench/run.py --workload studies --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all   # every workload, one table

Everything runs in one process with workers=1. One pass runs each of the
workload's operations once. An untimed warm-up pass is verified in full
(per-operation checks, and the reference tables at the default seed); every
timed pass must reproduce its output digests bit for bit. With --trace 0
the last stdout line reports the end-to-end metrics; with --trace 1 it
reports per-layer metrics from a traced half of the run, measured against
an untraced half, and self-tests the tracer.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = BENCH_DIR / "reference.json"
DEFAULT_SEED = 0
SETUP_PROBES = 3
MIN_PASSES = 3

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "site_updates_per_s": "1/s",
    "noise_draws_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Measured in a fresh interpreter: import kpzlab and resolve the workload's
# configs and plans, as a user pays before the first call.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import kpzlab.cli, workloads
workloads.build(sys.argv[3], int(sys.argv[4]), sys.argv[5])
print(time.perf_counter() - t0)
"""


def machine_facts() -> dict:
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(cache_dir.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (idx / "size").read_text().strip()
        except OSError:
            continue
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "caches": caches,
            "loadavg_start": list(os.getloadavg()),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(workload: str, seed: int, scratch: str) -> list:
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH_DIR),
             workload, str(seed), scratch],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


class Runner:
    """Runs passes over a workload's operations and keeps the tallies."""

    def __init__(self, ops, compare):
        self.ops = ops
        self.compare = compare  # (fingerprint, reference) -> problems
        self.attempted = 0
        self.failed = 0
        self.digests = {}
        self.problems = {}
        self.underpowered = {}
        self.fingerprints = {}

    def _call(self, op):
        t0 = time.perf_counter()
        try:
            raw = op.run()
        except Exception:  # one failed operation must not stop the run
            traceback.print_exc()
            return None, time.perf_counter() - t0
        return raw, time.perf_counter() - t0

    def warm_up(self, reference) -> None:
        """Untimed pass whose outputs are verified in full."""
        for op in self.ops:
            self.attempted += 1
            raw, _ = self._call(op)
            try:
                out = None if raw is None else op.outcome(raw, verify=True)
            except Exception:
                traceback.print_exc()
                out = None
            if out is None:
                problems = ["raised (traceback on stderr)"]
            else:
                problems = list(out.problems)
                self.underpowered[op.name] = out.underpowered
                self.fingerprints[op.name] = out.fingerprint
                if reference is not None:
                    ref = reference.get(op.name)
                    problems += ["no reference tables"] if ref is None else \
                        [f"reference: {p}" for p in
                         self.compare(out.fingerprint, ref)]
            # a failed operation gets no digest, so every later run of it fails
            self.digests[op.name] = None if problems else out.digest
            if problems:
                self.failed += 1
                self.problems[op.name] = problems

    def passes(self, seconds: float, min_passes: int, tracer=None) -> list:
        """Timed passes until the next would overrun `seconds`.

        Returns one list of operation times per pass.
        """
        walls = []
        t_begin = time.perf_counter()
        while True:
            if tracer is not None:
                tracer.begin_run(len(walls))
            t_pass = time.perf_counter()
            times = []
            for op in self.ops:
                self.attempted += 1
                raw, dt = self._call(op)
                times.append(dt)
                try:
                    ok = raw is not None and \
                        op.outcome(raw, verify=False).digest == self.digests[op.name]
                except Exception:
                    traceback.print_exc()
                    ok = False
                if not ok:
                    self.failed += 1
                    self.problems.setdefault(op.name, []).append(
                        f"pass {len(walls)}: output differs from the verified pass")
            walls.append(times)
            now = time.perf_counter()
            if len(walls) >= min_passes and \
                    now - t_begin + (now - t_pass) > seconds:
                return walls


def typical_pass(passes: list) -> float:
    """Sum over operations of each operation's median time across passes."""
    return sum(statistics.median(op_times) for op_times in zip(*passes))


def trace_selftest(tracer, work, unbound) -> list:
    """Every import site is wrapped; traced counts equal the plans' counts."""
    problems = [f"unwrapped import site {s}" for s in unbound]
    expected = {"lattice.step.calls": work.steps,
                "lattice.step.site_updates": work.site_updates,
                "noise grid draws": work.grid_draws}
    for run, m in sorted(tracer.run_metrics().items()):
        got = {"lattice.step.calls": m["lattice.step.calls"],
               "lattice.step.site_updates": m["lattice.step.site_updates"],
               "noise grid draws": m["noise.sample_grid.draws"]
               + m["noise.sample_spacetime.draws"]}
        problems += [f"traced pass {run}: {k} = {got[k]:.0f}, plan says "
                     f"{expected[k]}" for k in expected if got[k] != expected[k]]
    return problems


def run_workload(args, workloads) -> int:
    facts = machine_facts()
    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        setup = [] if args.trace else measure_setup(args.workload, args.seed,
                                                    scratch)
        ops = workloads.build(args.workload, args.seed, scratch)
        work = sum((op.work for op in ops), workloads.Work())
        reference = None
        if args.seed == DEFAULT_SEED and not args.record_reference:
            stored = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
            reference = stored.get(args.workload, {})

        runner = Runner(ops, workloads.compare_fingerprints)
        runner.warm_up(reference)
        selftest = []
        if args.trace:
            from tracer import PER_LAYER, Tracer
            plain = runner.passes(args.seconds / 2, 2)
            t = Tracer()
            t.install()
            unbound = t.unbound_sites()
            try:
                traced = runner.passes(args.seconds / 2, 2, tracer=t)
            finally:
                t.uninstall()
            # traced passes are compared to the untraced warm-up digests in
            # passes(): any difference counts as a failed operation
            selftest = trace_selftest(t, work, unbound)
            t.dump(str(OUT / f"spans-{args.workload}.npz"))
            layer = t.layer_metrics()
            layer["trace.overhead_frac"] = \
                typical_pass(traced) / typical_pass(plain) - 1.0
            walls = plain
            metrics = {k: {"value": layer[k], "unit": PER_LAYER[k][0]}
                       for k in PER_LAYER}
        else:
            walls = runner.passes(args.seconds, MIN_PASSES)
            wall = typical_pass(walls)
            values = {"wall_s": wall, "setup_s": statistics.median(setup),
                      "site_updates_per_s": work.site_updates / wall,
                      "noise_draws_per_s": work.noise_draws / wall,
                      "peak_rss_mb":
                          resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
            metrics = {k: {"value": values[k], "unit": u}
                       for k, u in END_TO_END.items()}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if args.record_reference:
        stored = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        stored[args.workload] = runner.fingerprints
        REFERENCE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")

    wall = typical_pass(walls)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"facts {json.dumps(facts, sort_keys=True)}")
    print(f"passes {len(walls)} timed + 1 warm-up; wall_s {wall:.4f}; "
          f"pass sums {' '.join(f'{sum(p):.4f}' for p in walls)}")
    if setup:
        print(f"setup_s probes {' '.join(f'{s:.3f}' for s in setup)}")
    print(f"work per pass: steps={work.steps} site_updates={work.site_updates} "
          f"noise_draws={work.noise_draws}")
    print(f"site_updates_per_s {work.site_updates / wall:.6g}  noise_draws_per_s "
          f"{work.noise_draws / wall:.6g}  ops_failed {runner.failed} / "
          f"ops_total {runner.attempted}")
    for name, checks in runner.underpowered.items():
        if checks:
            print(f"underpowered study checks of {name} (value, not failure): "
                  + " ".join(f"{k}={'pass' if v else 'fail'}"
                             for k, v in checks.items()))
    for name, problems in runner.problems.items():
        for p in problems:
            print(f"FAILED {name}: {p}")
    for p in selftest:
        print(f"SELFTEST FAILED: {p}")
    result = {"correct": runner.failed == 0 and not selftest,
              "attempted": runner.attempted, "failed": runner.failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_all(args, names) -> int:
    """Each workload in its own process (peak RSS is per process)."""
    results = {}
    rows = []
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", "0"], capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        results[name] = res
        m = {k: v["value"] for k, v in res["metrics"].items()}
        rows.append(f"{name:14s} {m['wall_s']:9.4f} {m['setup_s']:8.4f} "
                    f"{m['site_updates_per_s']:12.5g} "
                    f"{m['noise_draws_per_s']:12.5g} {m['peak_rss_mb']:8.1f} "
                    f"{res['failed']:>4d}/{res['attempted']}")
    print(f"{'workload':14s} {'wall_s':>9s} {'setup_s':>8s} "
          f"{'site_upd/s':>12s} {'draws/s':>12s} {'rss_mb':>8s} failed/total")
    print("\n".join(rows))
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="studies | commands | all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="store the warm-up pass tables as the reference "
                         f"(use with --seed {DEFAULT_SEED})")
    args = ap.parse_args(argv)
    if not (SRC / "kpzlab" / "__init__.py").is_file():
        print(f"error: no kpzlab sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.record_reference and args.seed != DEFAULT_SEED:
        ap.error(f"--record-reference needs --seed {DEFAULT_SEED}")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import workloads
    if args.workload == "all":
        return run_all(args, workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}")
    return run_workload(args, workloads)


if __name__ == "__main__":
    sys.exit(main())
