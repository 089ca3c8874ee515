"""The names the benchmark in perfbench/ calls or wraps still exist and work.

perfbench/ times kpzlab from outside: its tracer rebinds named functions
and methods at every kpzlab import site, and its workloads spot-check the
vectorized noise against the scalar path. These tests load both modules
from their files (without writing bytecode next to them) and run those
two entry points, so a rename or a broken noise view fails here first.
The last test runs the benchmark's own correctness check on each workload.
"""
import importlib
import importlib.util
import inspect
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from kpzlab import cli, config, noise, output
from kpzlab.noise import make_noise

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


def _load(monkeypatch, name):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  BENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, mod)  # dataclasses need it
    spec.loader.exec_module(mod)
    return mod


def _resolve(modname, attr):
    obj = importlib.import_module(modname)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def test_tracer_layers_resolve_and_bind_every_import_site(monkeypatch):
    _load(monkeypatch, "workloads")  # imports the kpzlab modules it runs
    tracer = _load(monkeypatch, "tracer")
    for name, modname, attr, _ in tracer.LAYERS:
        assert callable(_resolve(modname, attr)), name
    original = noise.NoiseModel.__dict__["sample_grid"]
    t = tracer.Tracer()
    t.install()
    try:
        assert noise.NoiseModel.__dict__["sample_grid"] is not original
        assert t.unbound_sites() == []
    finally:
        t.uninstall()
    assert noise.NoiseModel.__dict__["sample_grid"] is original


@pytest.mark.parametrize("d", [1, 2])
def test_spot_check_grid_accepts_a_shifted_view(monkeypatch, d):
    workloads = _load(monkeypatch, "workloads")
    y = (1,) + (0,) * (d - 1)
    base = make_noise("triangular", 1.2, seed=4)
    model = base.perturb_at(2, y, 0.5)
    assert model.sample(2, y) != base.sample(2, y)
    bad = workloads.spot_check_grid(model, d, 9, (1, 2),
                                    np.random.default_rng(d),
                                    extra_sites=[(2, y)])
    assert bad == []


def test_side_rule_keeps_the_names_and_sides_the_workloads_use(
        monkeypatch, tmp_path):
    # workloads.py sizes its work from cli.resolve_side and side_for
    assert cli.resolve_side is config.resolve_side
    workloads = _load(monkeypatch, "workloads")
    plans = [workloads._remainder_op(0, "polymer", 30).plan,
             workloads._gradient_op(0, 2, 30).plan,
             workloads._pairing_op(0, 30).plan]
    for plan in plans:
        for h in (1, 5, 40, 41):
            assert plan.side_for(h) == 2 * h + 1
    simulate = workloads.build("commands", 0, str(tmp_path))[0]
    assert simulate.command == "simulate"
    assert workloads._cli_side(simulate) == 321


@pytest.mark.parametrize("by_keyword", [False, True],
                         ids=["positional", "keyword"])
def test_tracer_counts_the_bytes_write_csv_writes(monkeypatch, tmp_path,
                                                  by_keyword):
    # _file_bytes reads the path from args[0] or the "path" keyword, so a
    # new write_csv signature fails here before it fails in the benchmark
    tracer = _load(monkeypatch, "tracer")
    path = tmp_path / "one.csv"
    columns = {"seed": 3, "x": [-1, 0, 1], "value": [0.5, 0.25, 1 / 3]}
    t = tracer.Tracer()
    t.install()
    try:
        t.begin_run(0)
        if by_keyword:
            output.write_csv(path=str(path), columns=columns)
        else:
            output.write_csv(str(path), columns)
    finally:
        t.uninstall()
    m = t.run_metrics()[0]
    assert m["output.write_csv.calls"] == 1
    assert m["output.write_csv.bytes"] == path.stat().st_size > 0


def test_traced_write_csv_bytes_equal_the_file(monkeypatch, tmp_path):
    # the tracer counts output.write_csv.bytes from the size of the file at
    # its first argument or its "path" keyword
    assert list(inspect.signature(output.write_csv).parameters)[0] == "path"
    _load(monkeypatch, "workloads")
    tracer = _load(monkeypatch, "tracer")
    t = tracer.Tracer()
    t.install()
    try:
        t.begin_run(0)
        assert cli.main(["simulate", "--out", str(tmp_path),
                         "--set", "model.d=2", "--set", "plan.t=3"]) == 0
    finally:
        t.uninstall()
    m = t.run_metrics()[0]
    assert m["output.write_csv.calls"] == 1
    assert m["output.write_csv.bytes"] == \
        (tmp_path / "simulate-0.csv").stat().st_size > 0


@pytest.mark.parametrize("workload", ["studies", "commands"])
def test_traced_benchmark_pass_is_correct(workload):
    # the benchmark's traced run at the reference seed checks every
    # operation against perfbench/reference.json, every traced pass's
    # digests against the verified pass, and the traced step calls, site
    # updates and grid draws against the plan's counts (trace_selftest)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--trace", "1", "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    tail = "\n".join(proc.stdout.splitlines()[-20:]) + proc.stderr[-2000:]
    assert proc.returncode == 0, tail
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, tail
