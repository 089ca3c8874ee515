"""End-to-end command-line tests: exit codes, artifacts, config errors.

Every invocation goes through main(argv) in process, writing artifacts to
tmp_path. Runs are kept tiny; statistical assertions live elsewhere.
"""
import csv
import importlib.metadata
import itertools
import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import kpzlab
from kpzlab import cli, config, lattice, studies
from kpzlab.assumptions import check_assumptions
from kpzlab.cli import main, resolve_side
from kpzlab.config import ConfigError, load_config
from kpzlab.driving import make_driving
from kpzlab.lattice import (ConeWrapWarning, EvolutionConfig, LatticeGeometry,
                            evolve)
from kpzlab.noise import replica_noise
from kpzlab.output import sha256_text
from kpzlab.studies import ExperimentPlan, remainder_ratio_study
from oracles import csv_writer_rows, read_strict_json


def read_doc(path):
    with open(path) as fh:
        return json.load(fh)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def run_decompose(out, *extra):
    args = ["decompose", "--out", str(out), "--set", "plan.t=1",
            "--set", "plan.replicas=5", "--set", "plan.epsilon=0.5"]
    args.extend(extra)
    return main(args)


# ---------------------------------------------------------------------------
# side resolution policy


def test_resolve_side_cone_exact():
    assert resolve_side("cone-exact", 0, 5) == 11
    assert resolve_side("cone-exact", 15, 5) == 15
    assert resolve_side("cone-exact", 0, 0) == 3
    with pytest.raises(ConfigError, match="L >= 11, got L = 9"):
        resolve_side("cone-exact", 9, 5)


def test_cone_refusal_survives_pickling():
    # a refusal raised in a worker process reaches the parent intact
    with pytest.raises(ConfigError) as exc:
        resolve_side("cone-exact", 9, 5)
    back = pickle.loads(pickle.dumps(exc.value))
    assert type(back) is ConfigError
    assert str(back) == str(exc.value)


def test_resolve_side_torus():
    assert resolve_side("torus", 8, 5) == 8
    assert resolve_side("torus", 3, 5) == 3
    for side in (0, 2):
        with pytest.raises(ConfigError, match="plan.l >= 3"):
            resolve_side("torus", side, 5)


def test_command_reads_names_every_command_and_only_real_keys():
    assert set(config.COMMAND_READS) == set(cli.COMMANDS)
    for reads in config.COMMAND_READS.values():
        for name in reads:
            sec, _, key = name.partition(".")
            assert sec in config.SCHEMA and (not key or
                                             key in config.SCHEMA[sec])


def _fail_on_any_run(monkeypatch):
    """Make any replica map or lattice step fail: refusals must come first."""
    def ran(*args, **kwargs):
        raise AssertionError("a run started before the refusal")
    monkeypatch.setattr(studies, "map_replicas", ran)
    monkeypatch.setattr(lattice, "step", ran)


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("argv,key", [
    (["simulate", "--set", "plan.geometry=cone", "--set", "plan.l=21",
      "--set", "plan.t=30"], "plan.geometry"),
    (["gradient", "--set", "plan.geometry=torus"], "plan.l"),
    (["gradient", "--set", "plan.l=5", "--set", "plan.epsilon_grid=0.5,0.4"],
     "plan.l"),
    (["remainder", "--set", "plan.l=7", "--set", "plan.epsilon_grid=0.5,0.4"],
     "plan.l"),
    (["drift", "--set", "plan.l=21", "--set", "plan.times=5 10"], "plan.l"),
    (["drift", "--set", "plan.times=-1 3"], "plan.times"),
    (["drift", "--set", "plan.times="], "plan.times"),
    (["stationarity", "--set", "plan.checkpoints=-2 1 2", "--set",
      "plan.l=16"], "plan.checkpoints"),
    (["stationarity", "--set", "plan.checkpoints="], "plan.checkpoints"),
    (["stationarity", "--set", "plan.checkpoints=1 4", "--set", "plan.l=16"],
     "plan.checkpoints needs at least three positive times"),
    (["stationarity", "--set", "plan.checkpoints=0 1 2", "--set",
      "plan.l=16"], "plan.checkpoints needs at least three positive times"),
    (["decompose", "--set", "plan.l=5", "--set", "plan.t=10"], "plan.l"),
    (["remainder", "--set", "scheme.preset=intermediate-disorder-1d",
      "--set", "model.d=2"], "model.d"),
    (["remainder", "--set", "scheme.preset=2d-exponential"], "scheme.preset"),
    (["decompose", "--set", "scheme.preset=2d-exponential", "--set",
      "plan.t=10"], "scheme.preset"),
    (["decompose", "--set", "scheme.preset=intermediate-disorder-1d",
      "--set", "model.d=2", "--set", "plan.t=10"], "model.d"),
    (["whitenoise", "--set", "scheme.alpha_exp=3", "--set",
      "plan.replicas=30", "--set", "plan.epsilon_grid=0.3"],
     "scheme.alpha_exp=3.0 has no effect under "
     "scheme.preset=intermediate-disorder-1d"),
    (["remainder", "--set", "scheme.c=2"],
     "scheme.c=2.0 has no effect under scheme.preset=power-law"),
    (["decompose", "--set", "scheme.preset=2d-exponential", "--set",
      "model.d=2", "--set", "scheme.gamma_coef=0.5", "--set", "plan.t=10"],
     "scheme.gamma_coef=0.5 has no effect under "
     "scheme.preset=2d-exponential"),
    (["whitenoise", "--set", "test_function.amplitude=0", "--set",
      "plan.replicas=30", "--set", "plan.epsilon_grid=0.3"],
     "squared norm must be positive and finite, got 0.0"),
    (["gradient", "--set", "scheme.alpha_exp=3", "--set", "plan.replicas=30",
      "--set", "plan.epsilon_grid=0.5,0.4"],
     "scheme.alpha_exp=3.0 has no effect on gradient"),
    (["drift", "--set", "scheme.beta_coef=7"],
     "scheme.beta_coef=7.0 has no effect on drift"),
    (["stationarity", "--set", "scheme.gamma_exp=1"],
     "scheme.gamma_exp=1.0 has no effect on stationarity"),
    (["simulate", "--set", "scheme.preset=intermediate-disorder-1d"],
     "scheme.preset='intermediate-disorder-1d' has no effect on simulate"),
    (["decompose", "--set", "plan.t=3", "--set", "plan.replicas=0"],
     "plan.replicas >= 1, got 0"),
    (["decompose", "--set", "plan.t=3", "--set", "plan.replicas=-3"],
     "plan.replicas >= 1, got -3"),
    (["gradient", "--set", "model.phi=nope"],
     "unknown driving function 'nope'"),
    (["remainder", "--set", "scheme.preset=nope"],
     "unknown scheme preset 'nope'"),
    (["drift", "--set", "model.noise_family=gauss"],
     "unknown noise family 'gauss'"),
    (["stationarity", "--set", "plan.l=2"], "plan.l >= 3, got 2"),
    (["stationarity", "--set", "plan.epsilon_grid=0.2,0.1"],
     "plan.epsilon_grid must hold one, got [0.2, 0.1]"),
    (["gradient", "--set", "plan.geometry=torus", "--set", "plan.l=2"],
     "plan.l >= 3, got 2"),
    (["remainder", "--set", "plan.schedule=macro-fixed", "--set",
      "plan.macro_time=-1", "--set", "plan.replicas=30", "--set",
      "plan.epsilon_grid=0.5,0.4"], "plan.macro_time"),
    (["gradient", "--set", "plan.schedule=macro-fixed", "--set",
      "plan.macro_time=0", "--set", "plan.replicas=30", "--set",
      "plan.epsilon_grid=0.5,0.4"], "plan.macro_time"),
    (["gradient", "--set", "plan.replicas=29", "--set",
      "plan.epsilon_grid=0.5,0.4"], "plan.replicas >= 30, got 29"),
    (["decompose", "--set", "plan.schedule=foo", "--set", "plan.t=2"],
     "plan.schedule has no effect on decompose"),
    (["simulate", "--set", "plan.replicas=3"],
     "plan.replicas has no effect on simulate"),
    (["check-phi", "--set", "plan.t=-5", "--set", "test_function.width_t=-1"],
     "plan.t has no effect on check-phi"),
    (["check-phi", "--set", "test_function.width_t=-1"],
     "test_function.width_t has no effect on check-phi"),
    (["drift", "--set", "plan.schedule=macro-fixed"],
     "plan.schedule has no effect on drift"),
    (["remainder", "--set", "plan.macro_time=2"],
     "plan.macro_time has no effect on remainder"),
    (["remainder", "--set", "scheme.alpha_exp=-1", "--set",
      "plan.schedule=macro-fixed", "--set", "plan.replicas=30", "--set",
      "plan.epsilon_grid=0.5,0.4"],
     "scheme.preset=power-law, scheme.alpha_exp=-1.0"),
    (["gradient", "--set", "scheme.alpha_exp=-1", "--set",
      "plan.schedule=macro-fixed", "--set", "plan.replicas=30", "--set",
      "plan.epsilon_grid=0.5,0.4"],
     "scheme.preset=power-law, scheme.alpha_exp=-1.0"),
    (["remainder", "--set", "model.phi=ew", "--set", "plan.replicas=30"],
     "model.phi"),
    (["remainder", "--set", "model.phi=gkpz", "--set",
      "model.coupling=1e-12", "--set", "plan.replicas=30", "--set",
      "plan.epsilon_grid=0.2,0.1"], "model.phi=gkpz"),
])
def test_side_misconfiguration_exits_2_before_any_run(tmp_path, capsys,
                                                      monkeypatch, argv, key,
                                                      workers):
    # the cone-exact studies need sides 7 (gradient), 9 (remainder: one
    # step past horizon 3) and 23 (drift: one step past t = 10), decompose
    # side 21; capture times must be a nonempty list of times >= 0; a
    # scheme preset built for one dimension runs in no other, and takes no
    # key it does not read; a run that builds no scheme takes no [scheme]
    # key at all; the pairing bump needs a positive norm; decompose needs a
    # replica; a plan refuses unknown phi, scheme and noise names, a torus
    # side below 3, a macro_time that is not positive and, under
    # macro-fixed, a scheme whose alpha does not shrink; a study needs 30
    # replicas; a command takes no --set of a [plan] or [test_function]
    # key it does not read (plan.macro_time is read under macro-fixed only);
    # the remainder study needs a phi whose hessian check-phi calls
    # nondegenerate (ew, or gkpz at a coupling of 1e-12, is not);
    # stationarity runs one epsilon, so it refuses a longer grid, and its
    # p99 trend needs three positive checkpoints
    _fail_on_any_run(monkeypatch)
    rc = main(argv + ["--out", str(tmp_path), "--workers", workers])
    assert rc == 2
    assert key in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv,key", [
    (["simulate", "--set", "plan.epsilon=1.5"], "plan.epsilon"),
    (["walk-check", "--set", "plan.epsilon=0"], "plan.epsilon"),
    (["simulate", "--set", "plan.t=-1"], "plan.t"),
    (["simulate", "--set", "model.noise_scale=-1"], "model.noise_scale"),
    (["drift", "--set", "model.noise_scale=0"], "model.noise_scale"),
    (["simulate", "--set", "model.d=0"], "model.d"),
    (["check-phi", "--set", "model.phi=gkpz", "--set", "model.coupling=-1"],
     "model.coupling"),
    (["whitenoise", "--set", "test_function.width_t=0", "--set",
      "plan.replicas=30"], "test_function.width_t"),
    (["whitenoise", "--set", "test_function.width_x=-1", "--set",
      "plan.replicas=30"], "test_function.width_x"),
    (["whitenoise", "--set", "test_function.center_x=0,0", "--set",
      "plan.replicas=30"], "test_function.center_x"),
    (["whitenoise", "--set", "scheme.preset=power-law", "--set",
      "scheme.alpha_exp=-1", "--set", "plan.replicas=30"],
     "scheme.alpha_exp=-1.0"),
    (["check-phi", "--set", "model.coupling=0.5"],
     "model.coupling has no effect on check-phi under model.phi=polymer"),
    (["simulate", "--set", "model.coupling=0.5", "--set", "plan.t=3"],
     "model.coupling has no effect on simulate under model.phi=polymer"),
    (["check-phi", "--set", "model.noise_scale=2"],
     "model.noise_scale has no effect on check-phi"),
    (["check-phi", "--set", "model.noise_family=triangular"],
     "model.noise_family has no effect on check-phi"),
    (["decompose", "--set", "plan.t=0"], "plan.t"),
    (["walk-check", "--set", "plan.t=0"], "plan.t"),
    (["remainder", "--set", "scheme.alpha_exp=nan", "--set",
      "plan.replicas=30", "--set", "plan.epsilon_grid=0.2,0.1"],
     "scheme.alpha_exp=nan"),
    (["decompose", "--set", "scheme.preset=2d-exponential", "--set",
      "model.d=2", "--set", "scheme.c=nan", "--set", "plan.t=3"],
     "scheme.c=nan"),
    (["decompose", "--set", "scheme.preset=2d-exponential", "--set",
      "model.d=2", "--set", "scheme.c=inf", "--set", "plan.t=3"],
     "scheme.c=inf"),
    (["check-phi", "--set", "model.phi=gkpz", "--set",
      "model.coupling=nan"], "model.coupling=nan"),
    (["check-phi", "--set", "model.phi=gkpz", "--set",
      "model.coupling=inf"], "model.coupling=inf"),
    (["simulate", "--set", "model.phi=gkpz", "--set", "model.coupling=inf",
      "--set", "plan.t=3"], "model.coupling=inf"),
    (["simulate", "--set", "model.noise_scale=inf", "--set", "plan.t=3"],
     "model.noise_scale=inf"),
])
def test_refusals_name_their_key(tmp_path, capsys, monkeypatch, argv, key):
    # a value no run takes (an infinite coupling or noise scale among
    # them), or a --set [model] key the run does not read
    # (model.coupling is read under model.phi=gkpz only, and check-phi draws
    # no noise), exits 2 naming its key before any replica runs
    _fail_on_any_run(monkeypatch)
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert key in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_model_keys_are_read_where_the_model_uses_them(tmp_path):
    # coupling counts under gkpz, in whichever order the --set items come
    for sets in (["model.phi=gkpz", "model.coupling=0.05"],
                 ["model.coupling=0.05", "model.phi=gkpz"]):
        for command in ("check-phi", "simulate", "remainder"):
            cfg = load_config(None, command, sets)
            assert cfg["model"]["coupling"] == 0.05
    cfg = load_config(None, "simulate", ["model.noise_scale=2",
                                         "model.noise_family=triangular"])
    assert cfg["model"]["noise_family"] == "triangular"
    # a file value of a [model] key the command does not read passes
    ini = tmp_path / "run.ini"
    ini.write_text("[model]\ncoupling = 0.5\nnoise_scale = 2\n")
    assert load_config(str(ini), "check-phi")["model"]["coupling"] == 0.5


@pytest.mark.parametrize("workers", ["1", "2"])
def test_cone_exact_study_on_a_given_side_matches_auto_size(tmp_path,
                                                            workers):
    # horizons 2 and 3 auto-size to sides 5 and 7; side 17 holds both cones
    argv = ["gradient", "--workers", workers, "--set", "plan.replicas=30",
            "--set", "plan.epsilon_grid=0.5,0.4"]
    auto, given = tmp_path / "auto", tmp_path / "given"
    rc = main(argv + ["--out", str(auto)])
    assert main(argv + ["--out", str(given), "--set", "plan.l=17"]) == rc
    assert (given / "gradient-0.csv").read_bytes() == \
        (auto / "gradient-0.csv").read_bytes()
    assert read_doc(auto / "gradient-0.json")["report"]["plan"]["L"] == 0
    assert read_doc(given / "gradient-0.json")["report"]["plan"]["L"] == 17


# ---------------------------------------------------------------------------
# worker resolution


@pytest.mark.parametrize("flags", [["--workers", "0"],
                                   ["--set", "run.workers=-1"]])
def test_workers_below_one_exits_2(tmp_path, capsys, monkeypatch, flags):
    _fail_on_any_run(monkeypatch)
    assert main(["remainder", "--out", str(tmp_path)] + flags) == 2
    assert "run.workers" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# simulate


def test_simulate_artifacts_and_manifest(tmp_path):
    rc = main(["simulate", "--out", str(tmp_path), "--seed", "7",
               "--set", "plan.t=3"])
    assert rc == 0
    csv_path = tmp_path / "simulate-7.csv"
    doc = read_doc(tmp_path / "simulate-7.json")

    man = doc["manifest"]
    assert man["command"] == "simulate" and man["seed"] == 7
    assert man["workers"] == 1
    assert len(man["config_sha256"]) == 64
    assert "plan.t=3" in man["resolved_config"]
    assert set(man["versions"]) == {"kpzlab", "python", "numpy", "scipy"}
    assert man["versions"]["scipy"] == importlib.metadata.version("scipy")
    phases = man["phases"]
    assert set(phases) == {"run", "export"}
    assert min(p["wall_s"] for p in phases.values()) >= 0.0
    # the CSV is written before the total is read, so it includes export
    assert man["wall_time_s"] == pytest.approx(
        phases["run"]["wall_s"] + phases["export"]["wall_s"], abs=1e-9)
    assert doc["passed"] is True

    rep = doc["report"]
    assert rep["t"] == 3 and rep["d"] == 1
    assert rep["L"] == 7  # auto-resolved cone-exact side 2*3+1
    assert rep["height_min"] <= rep["height_mean"] <= rep["height_max"]

    raw = csv_path.read_bytes()
    assert raw.count(b"\r\n") == 8  # header + one row per site
    rows = read_rows(csv_path)
    assert len(rows) == 7
    assert {"x1", "value", "epsilon", "seed"} <= set(rows[0])


_TINY_STUDY = ["--set", "plan.replicas=30", "--set", "plan.epsilon_grid=0.5 0.4"]


@pytest.mark.parametrize("argv", [
    ["simulate", "--set", "plan.t=2"],
    ["check-phi"],
    ["walk-check", "--set", "plan.t=2"],
    ["decompose", "--set", "plan.t=2", "--set", "plan.replicas=2"],
    ["remainder"] + _TINY_STUDY,
    ["gradient"] + _TINY_STUDY,
    ["drift", "--set", "plan.times=1 2"] + _TINY_STUDY,
    ["whitenoise"] + _TINY_STUDY,
    ["stationarity", "--set", "plan.checkpoints=1 2 4", "--set",
     "plan.geometry=torus", "--set", "plan.l=8", "--set", "plan.replicas=30",
     "--set", "plan.epsilon_grid=0.5"],
], ids=lambda argv: argv[0])
def test_manifest_times_library_import_as_its_own_phase(tmp_path, argv):
    # whitenoise and stationarity import scipy.stats before their run
    # phase starts, so phases.run times the run alone; the phases add up
    # to the manifest's wall time
    assert main(argv + ["--out", str(tmp_path)]) in (0, 1)
    man = read_doc(tmp_path / f"{argv[0]}-0.json")["manifest"]
    phases = man["phases"]
    expect = {"run", "export"}
    if argv[0] in ("whitenoise", "stationarity"):
        expect.add("import")
    assert set(phases) == expect
    assert min(p["wall_s"] for p in phases.values()) >= 0.0
    assert man["wall_time_s"] == pytest.approx(
        sum(p["wall_s"] for p in phases.values()), abs=1e-9)


# Run in a fresh interpreter: other test modules import scipy into this one.
_IMPORT_GUARD = """
import sys
import kpzlab, kpzlab.cli
from kpzlab.cli import main
assert "importlib.metadata" not in sys.modules
out = sys.argv[1]
tiny = ["--set", "plan.replicas=30", "--set", "plan.epsilon_grid=0.5 0.4"]
for argv in (["simulate", "--set", "plan.t=3"], ["check-phi"],
             ["walk-check", "--set", "plan.t=3"],
             ["decompose", "--set", "plan.t=3", "--set", "plan.replicas=30"],
             ["remainder"] + tiny, ["gradient"] + tiny,
             ["drift", "--set", "plan.times=1 2"] + tiny):
    assert main(argv + ["--out", out]) == 0, argv
assert "scipy" not in sys.modules
# a process pool, and the logging it pulls in, only for workers > 1
assert "concurrent.futures" not in sys.modules
assert "logging" not in sys.modules
assert main(["gradient", "--workers", "2", "--out", out] + tiny) == 0
assert "concurrent.futures" in sys.modules
assert main(["whitenoise", "--out", out] + tiny) in (0, 1)
assert "scipy.stats" in sys.modules
# the manifest read the scipy version once, for all eight commands
assert "importlib.metadata" in sys.modules
assert kpzlab.cli._scipy_version.cache_info().misses == 1
"""


def test_only_scipy_commands_import_scipy(tmp_path):
    # importing scipy.stats takes ~1 s, which no command pays unless it
    # uses scipy; the whitenoise run shows the guard can fail. Importing
    # importlib.metadata (~15 ms) waits for the first manifest, and
    # concurrent.futures (~13 ms with logging) for a run with workers > 1.
    src = str(Path(kpzlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _IMPORT_GUARD,
                           str(tmp_path)], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr


def _phi_and_noise(command, sets, seed):
    m = load_config(None, command, sets)["model"]
    return (make_driving(m["phi"], m["d"], m["coupling"]),
            replica_noise(m["noise_family"], m["noise_scale"], seed, 0))


@pytest.mark.parametrize("d,t", [(1, 5), (2, 3), (3, 2)])
def test_simulate_csv_equals_row_writer(tmp_path, d, t):
    sets = [f"model.d={d}", f"plan.t={t}", "plan.epsilon=0.3"]
    argv = ["simulate", "--out", str(tmp_path), "--seed", "4"]
    assert main(argv + [a for s in sets for a in ("--set", s)]) == 0
    phi, noise = _phi_and_noise("simulate", sets, 4)
    g = LatticeGeometry(d, 2 * t + 1)
    sl = evolve(EvolutionConfig(phi, noise, g, 0.3, t))
    sites = itertools.product(range(g.lo, g.lo + g.L), repeat=d)
    rows = [{"d": d, "L": g.L, "t": t, "epsilon": 0.3,
             "seed": noise.spec.seed,
             **{f"x{i}": c for i, c in enumerate(site, start=1)},
             "value": v} for site, v in zip(sites, sl.values.ravel())]
    csv_writer_rows(tmp_path / "oracle.csv", rows)
    assert (tmp_path / "simulate-4.csv").read_bytes() == \
        (tmp_path / "oracle.csv").read_bytes()


def test_run_fault_exits_3_without_artifacts(tmp_path, capsys, recwarn):
    # noise of half-width 1e308 overflows the heights to inf and nan; the
    # fault is reported in one line, with no numpy warning before it
    rc = main(["simulate", "--out", str(tmp_path),
               "--set", "model.noise_scale=1e308", "--set", "plan.epsilon=1",
               "--set", "plan.t=5"])
    assert rc == 3
    assert [str(w.message) for w in recwarn] == []
    assert capsys.readouterr().err == \
        "error: run fault: nonfinite height nan at t=5, site (-5,)\n"
    assert not list(tmp_path.iterdir())


def test_value_error_inside_a_run_is_a_run_fault(tmp_path, capsys,
                                                 monkeypatch):
    # only a ConfigError is a refusal: any other ValueError raised while
    # replicas run is a fault of the run, exit 3 with no artifact
    def fault(*args, **kwargs):
        raise ValueError("broken sampler")
    monkeypatch.setattr(studies, "decomposition_row", fault)
    assert run_decompose(tmp_path) == 3
    assert capsys.readouterr().err == "error: run fault: broken sampler\n"
    assert not list(tmp_path.iterdir())


def test_cone_refusal_exit_2(tmp_path, capsys):
    rc = main(["simulate", "--out", str(tmp_path),
               "--set", "plan.t=50", "--set", "plan.l=21"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "needs side L >= 101" in err
    assert not list(tmp_path.iterdir())  # refused before writing anything


# ---------------------------------------------------------------------------
# decompose


def test_decompose_flat_first_step(tmp_path, capsys):
    # a height-zero start makes the mean and curvature parts exactly zero,
    # and the increment is exactly the keyed noise
    assert run_decompose(tmp_path) == 0
    out = capsys.readouterr().out
    assert "assertion lattice_identity_1e-10: PASS" in out
    assert "assertion macro_identity_1e-10: PASS" in out

    rows = read_rows(tmp_path / "decompose-0.csv")
    assert len(rows) == 5
    for r in rows:
        assert r["A"] == "0.0" and r["B"] == "0.0" and r["D"] == "0.0"
        assert r["C"] == r["increment"]
        assert float(r["C"]) != 0.0

    doc = read_doc(tmp_path / "decompose-0.json")
    assert doc["report"]["worst_lattice_residual_rel"] == 0.0
    assert doc["report"]["coefficients"]["nu"] == pytest.approx(1 / 3)


@pytest.mark.parametrize("argv, named", [
    # 0.1 ** -400 overflows a float: a power-law alpha no run can use
    (["remainder", "--set", "scheme.alpha_exp=-400", "--set",
      "plan.replicas=30", "--set", "plan.epsilon_grid=0.2,0.1"],
     ["alpha = inf", "eps = 0.1", "scheme.preset=power-law",
      "scheme.alpha_exp=-400.0"]),
    # at eps = 0.0375 the 2d-exponential alpha = exp(-711) is subnormal, and
    # gamma/alpha overflows to inf in every macro column
    (["decompose", "--set", "scheme.preset=2d-exponential", "--set",
      "model.d=2", "--set", "plan.epsilon=0.0375", "--set", "plan.t=3",
      "--set", "plan.replicas=2"],
     ["alpha = 1.47", "eps = 0.0375", "scheme.preset=2d-exponential",
      "scheme.c=1.0"]),
    # alpha = gamma = 1e-200 at eps = 0.1: alpha gamma, the divisor of
    # lambda, underflows to zero; remainder reads eps = 0.2 first
    (["decompose", "--set", "scheme.alpha_exp=200", "--set",
      "scheme.gamma_exp=200", "--set", "plan.epsilon=0.1", "--set",
      "plan.t=3", "--set", "plan.replicas=1"],
     ["lambda = inf", "eps = 0.1",
      "scheme.preset=power-law", "scheme.alpha_exp=200.0",
      "scheme.gamma_exp=200.0"]),
    (["remainder", "--set", "scheme.alpha_exp=200", "--set",
      "scheme.gamma_exp=200", "--set", "plan.epsilon_grid=0.2 0.1",
      "--set", "plan.replicas=30"],
     ["lambda = inf", "eps = 0.1",
      "scheme.preset=power-law", "scheme.alpha_exp=200.0",
      "scheme.gamma_exp=200.0"]),
    # sigma^2 = 1e400 overflows in D_coef
    (["decompose", "--set", "plan.t=5", "--set", "plan.replicas=2", "--set",
      "model.noise_scale=1e200"],
     ["D_coef = inf", "eps = 0.1", "model.noise_scale=1e+200"]),
], ids=["overflowing-alpha", "subnormal-alpha", "underflowed-lambda-divisor",
        "underflowed-lambda-divisor-on-grid", "overflowing-noise-coefficient"])
def test_scheme_no_run_can_use_is_refused(tmp_path, capsys, monkeypatch,
                                          argv, named):
    # refused with exit 2 before any replica runs, naming the scheme keys
    # and the eps, and leaving no artifact
    _fail_on_any_run(monkeypatch)
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert all(n in err for n in named), err
    assert not list(tmp_path.iterdir())


def test_scheme_quotients_are_not_checked_under_a_degenerate_phi(tmp_path):
    # ew forms no macro column, so the lambda divisor that underflows to
    # zero above is no refusal; decompose writes no macro column either
    assert run_decompose(tmp_path, "--set", "model.phi=ew", "--set",
                         "scheme.alpha_exp=200", "--set",
                         "scheme.gamma_exp=200") == 0
    assert "coefficients" not in read_doc(tmp_path / "decompose-0.json")[
        "report"]


@pytest.mark.parametrize("argv, threshold", [
    (["simulate", "--set", "plan.t=3"], "1/(8d) = 0.125"),
    (["remainder", "--set", "plan.replicas=30"], "1/(8d) = 0.125"),
    (["walk-check", "--set", "model.d=2", "--set", "model.coupling=0.07"],
     "1/(8d) = 0.0625"),
])
def test_gkpz_coupling_above_the_monotone_threshold_is_refused(
        tmp_path, capsys, monkeypatch, argv, threshold):
    # above 1/(8d) gkpz is not monotone, outside the model class: every
    # command but check-phi refuses it before any run
    _fail_on_any_run(monkeypatch)
    argv = argv[:1] + ["--set", "model.phi=gkpz", "--set",
                       "model.coupling=0.5"] + argv[1:]
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "model.coupling" in err and threshold in err, err
    assert not list(tmp_path.iterdir())


def test_gkpz_coupling_at_the_threshold_runs_and_check_phi_audits_above(
        tmp_path, capsys):
    for d, coupling in ((1, 0.125), (2, 0.0625)):
        assert main(["simulate", "--out", str(tmp_path), "--set", "plan.t=3",
                     "--set", f"model.d={d}", "--set", "model.phi=gkpz",
                     "--set", f"model.coupling={coupling}"]) == 0
    assert main(["check-phi", "--out", str(tmp_path), "--set",
                 "model.phi=gkpz", "--set", "model.coupling=0.5"]) == 1
    assert "assertion monotonicity: FAIL" in capsys.readouterr().out
    assert read_strict_json(tmp_path / "check-phi-0.json")["assertions"][
        "monotonicity"] is False


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("argv, rc, nonfinite", [
    # ew has no witness constants: three NaN fields
    (["check-phi", "--set", "model.phi=ew"], 1,
     ["report.witness.threshold_M", "report.witness.constant_c",
      "report.witness.radius"]),
    # heights of order 1e307 overflow their variance
    (["simulate", "--set", "plan.t=3", "--set", "model.noise_scale=1e308"],
     1, ["report.height_std"]),
])
def test_non_finite_results_are_written_as_strict_json(
        tmp_path, capsys, argv, rc, nonfinite):
    # each NaN or infinity is null, and its path is listed in the
    # artifact and on stderr; a NaN result still fails its assertion,
    # and any non-finite value fails the run
    assert main(argv + ["--out", str(tmp_path)]) == rc
    doc = read_strict_json(tmp_path / f"{argv[0]}-0.json")
    assert doc["nonfinite"] == nonfinite
    for path in nonfinite:
        *keys, last = path.split(".")
        node = doc
        for k in keys:
            node = node[k]
        assert node[last] is None
    err = capsys.readouterr().err
    assert all(path in err for path in nonfinite), err
    assert doc["passed"] is False


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_a_non_finite_report_value_fails_the_run(tmp_path, capsys):
    # simulate has no assertions, so only the non-finite height_std fails
    # it: passed is false, the path is printed on stderr and the exit is 1
    argv = ["simulate", "--out", str(tmp_path), "--set", "plan.t=3",
            "--set", "model.noise_scale=1e308"]
    assert main(argv) == 1
    doc = read_strict_json(tmp_path / "simulate-0.json")
    assert doc["assertions"] == {} and doc["passed"] is False
    assert doc["report"]["height_std"] is None
    out, err = capsys.readouterr()
    assert "non-finite values written as null: report.height_std\n" in err
    assert "simulate: FAILED" in out


def test_out_of_memory_in_a_run_is_a_run_fault(tmp_path, capsys,
                                              monkeypatch):
    # a MemoryError raised inside a run exits 3 with no artifact; the
    # allocation is only pretended, never made
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 133. GiB for an array with "
                          "shape (133693, 133693) and data type float64")
    monkeypatch.setattr(cli, "evolve", no_memory)
    assert main(["simulate", "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == (
        "error: run fault: out of memory: Unable to allocate 133. GiB for an "
        "array with shape (133693, 133693) and data type float64\n")
    assert not list(tmp_path.iterdir())


def test_worst_rel_propagates_nan():
    rows = [{"r": 1.0, "ref": 4.0}, {"r": -3.0, "ref": -2.0},
            {"r": 0.0, "ref": 0.0}]
    assert cli._worst_rel(rows, "r", "ref") == 1.5
    assert cli._worst_rel([], "r", "ref") == 0.0
    assert cli._worst_rel([{"r": -1e-9, "ref": 0.0}], "r", "ref") == \
        pytest.approx(1e291)
    for bad in ({"r": math.nan, "ref": 1.0}, {"r": 1.0, "ref": math.nan}):
        assert math.isnan(cli._worst_rel(rows + [bad], "r", "ref"))


@pytest.mark.parametrize("sets", [
    ["model.phi=ew"],
    # q, r and q - r of order 1e-12: the hessian check-phi fails
    ["model.phi=gkpz", "model.coupling=1e-12"],
])
def test_decompose_degenerate_update_skips_macro(tmp_path, sets):
    rc = run_decompose(tmp_path, *[a for s in sets for a in ("--set", s)])
    assert rc == 0
    doc = read_doc(tmp_path / "decompose-0.json")
    assert doc["report"]["degenerate_hessian"] is True
    assert set(doc["assertions"]) == {"lattice_identity_1e-10"}
    assert "coefficients" not in doc["report"]
    header = read_rows(tmp_path / "decompose-0.csv")[0]
    assert "lattice_residual" in header
    assert not {"time_derivative", "macro_residual", "nu"} & set(header)


def test_decompose_command_matches_remainder_study(tmp_path):
    # both run evolve_and_decompose and macro_terms: decompose at
    # plan.t = t_eps + 1 must give the study's bits at horizon t_eps
    plan = ExperimentPlan(epsilon_grid=(0.2, 0.1), replicas=30, seed=5)
    samples = remainder_ratio_study(plan).tables["samples"]
    keys = ("A", "B", "C", "D", "remainder", "laplacian_term",
            "grad_sq_term", "noise_term", "time_derivative")
    for eps in plan.epsilon_grid:
        out = tmp_path / str(eps)
        assert main(["decompose", "--out", str(out), "--seed", "5",
                     "--set", f"plan.t={plan.t_for(eps) + 1}",
                     "--set", f"plan.epsilon={eps}",
                     "--set", "plan.replicas=30"]) == 0
        rows = read_rows(out / "decompose-5.csv")
        ref = [r for r in samples if r["epsilon"] == eps]
        assert len(rows) == len(ref) == 30
        for cli_row, study_row in zip(rows, ref):
            assert int(cli_row["replica"]) == study_row["replica"]
            for key in keys:
                assert float(cli_row[key]).hex() == study_row[key].hex(), key


@pytest.mark.parametrize("phi", ["polymer", "ew"])
def test_decompose_same_bytes_for_any_worker_count(tmp_path, phi):
    csvs = []
    for workers in ("1", "2"):
        out = tmp_path / workers
        assert run_decompose(out, "--set", f"model.phi={phi}", "--set",
                             "plan.t=4", "--workers", workers) == 0
        csvs.append((out / "decompose-0.csv").read_bytes())
    assert csvs[0] == csvs[1]


def test_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_decompose(a) == 0
    snapshot = (a / "decompose-0.csv").read_bytes()
    assert run_decompose(a) == 0  # same directory, same resolved config
    assert (a / "decompose-0.csv").read_bytes() == snapshot
    assert run_decompose(b) == 0  # out dir is hashed but rows ignore it
    assert (b / "decompose-0.csv").read_bytes() == snapshot
    da, db = read_doc(a / "decompose-0.json"), read_doc(b / "decompose-0.json")
    assert da["report"] == db["report"]
    assert sha256_text(da["manifest"]["resolved_config"]) == \
        da["manifest"]["config_sha256"]


def test_seed_flag_renames_artifacts_and_changes_data(tmp_path):
    assert run_decompose(tmp_path, "--seed", "9") == 0
    assert (tmp_path / "decompose-9.csv").exists()
    assert not (tmp_path / "decompose-0.csv").exists()
    assert run_decompose(tmp_path) == 0
    r0 = read_rows(tmp_path / "decompose-0.csv")
    r9 = read_rows(tmp_path / "decompose-9.csv")
    assert r0[0]["C"] != r9[0]["C"]


# ---------------------------------------------------------------------------
# check-phi


def test_check_phi_flags_curvature_free_update(tmp_path, capsys):
    rc = main(["check-phi", "--out", str(tmp_path), "--set", "model.phi=ew"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "assertion nondegenerate_hessian: FAIL" in out
    doc = read_doc(tmp_path / "check-phi-0.json")
    assert doc["passed"] is False
    assert doc["assertions"]["nondegenerate_hessian"] is False
    assert doc["assertions"]["shift_additivity"] is True
    assert doc["assertions"]["monotonicity"] is True
    rows = read_rows(tmp_path / "check-phi-0.csv")
    assert {r["check"] for r in rows} >= {"monotonicity", "mean_domination"}


@pytest.mark.parametrize("phi", ["polymer", "gkpz", "ew"])
def test_check_phi_csv_equals_row_writer(tmp_path, phi):
    sets = [f"model.phi={phi}", "model.d=2"]
    main(["check-phi", "--out", str(tmp_path), "--seed", "3",
          "--set", sets[0], "--set", sets[1]])
    report = check_assumptions(_phi_and_noise("check-phi", sets, 3)[0],
                               seed=3)
    rows = [{"check": c.name, "passed": c.passed, "worst": c.worst,
             "detail": c.detail} for c in report.checks]
    csv_writer_rows(tmp_path / "oracle.csv", rows)
    assert (tmp_path / "check-phi-3.csv").read_bytes() == \
        (tmp_path / "oracle.csv").read_bytes()


# ---------------------------------------------------------------------------
# walk-check


def test_walk_check_passes_at_default_horizon(tmp_path, capsys):
    rc = main(["walk-check", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "assertion derivative_agreement: PASS" in out
    assert "assertion mass_is_epsilon: PASS" in out
    doc = read_doc(tmp_path / "walk-check-0.json")
    assert doc["report"]["t"] == 4  # command overlay keeps the run small
    assert doc["report"]["sites_checked"] == 16  # 7 + 5 + 3 + 1 cone sites
    assert doc["report"]["worst_abs_diff"] <= doc["report"]["tolerance"]


def test_walk_check_fails_on_a_nan_past_the_first_site(tmp_path, capsys,
                                                      monkeypatch):
    def pairs(run, x0):
        return ([(4, (0,), 1.0, 1.0), (3, (1,), math.nan, 1.0)],
                [0.0, math.nan])
    monkeypatch.setattr(cli, "derivative_pairs", pairs)
    assert main(["walk-check", "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "assertion derivative_agreement: FAIL" in out
    assert "assertion mass_is_epsilon: FAIL" in out


def test_walk_check_on_small_torus_warns_wrap(tmp_path):
    # T = 4 needs side 9; the accepted torus of side 5 wraps the cone, and
    # the derivatives still agree because the wrapped draw is the one shifted
    with pytest.warns(ConeWrapWarning, match="outruns torus side L=5"):
        rc = main(["walk-check", "--out", str(tmp_path),
                   "--set", "plan.geometry=torus", "--set", "plan.l=5"])
    assert rc == 0
    assert read_doc(tmp_path / "walk-check-0.json")["report"]["t"] == 4


# ---------------------------------------------------------------------------
# study dispatch


def test_gradient_study_cli(tmp_path):
    rc = main(["gradient", "--out", str(tmp_path),
               "--set", "plan.replicas=30",
               "--set", "plan.epsilon_grid=0.5 0.25"])
    assert rc == 0
    doc = read_doc(tmp_path / "gradient-0.json")
    assert doc["assertions"]["p95_band_bounded"] is True
    rows = read_rows(tmp_path / "gradient-0.csv")
    assert [float(r["epsilon"]) for r in rows] == [0.5, 0.25]


def test_gradient_macro_fixed_reads_the_scheme(tmp_path):
    # macro-fixed horizons are ceil(macro_time/alpha(eps)): scheme keys count
    assert main(["gradient", "--out", str(tmp_path), "--set",
                 "plan.schedule=macro-fixed", "--set", "scheme.alpha_exp=1",
                 "--set", "plan.replicas=30",
                 "--set", "plan.epsilon_grid=0.5 0.4"]) == 0
    plan = read_doc(tmp_path / "gradient-0.json")["report"]["plan"]
    assert plan["scheme_params"]["alpha_exp"] == 1.0


def test_plan_validation_error_exits_2(tmp_path, capsys):
    rc = main(["gradient", "--out", str(tmp_path),
               "--set", "plan.replicas=10"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config file errors


def test_unknown_key_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[plan]\nreplicsa = 50\n")
    rc = main(["remainder", "--config", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{bad}, line 2: unknown key 'replicsa' in [plan]" in err


def test_unknown_section_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("# comment\n[plans]\nt = 3\n")
    rc = main(["simulate", "--config", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "line 2: unknown section [plans]" in err


def test_bad_value_names_key(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[plan]\nreplicas = soon\n")
    rc = main(["remainder", "--config", str(bad)])
    assert rc == 2
    assert "bad value for plan.replicas" in capsys.readouterr().err


def test_valid_config_file_is_not_rescanned(tmp_path, monkeypatch):
    # line numbers are looked up only to name a bad value's line
    ini = tmp_path / "run.ini"
    ini.write_text("[plan]\nepsilon = 0.3\nt = 1\n")
    monkeypatch.setattr(config, "_find_line",
                        lambda *a: pytest.fail("config file rescanned"))
    cfg = load_config(str(ini), "simulate")
    assert (cfg["plan"]["epsilon"], cfg["plan"]["t"]) == (0.3, 1)


def test_missing_config_file(capsys):
    rc = main(["simulate", "--config", "/nonexistent/nope.ini"])
    assert rc == 2
    assert "cannot read config" in capsys.readouterr().err


def test_bad_set_syntax(capsys):
    assert main(["simulate", "--set", "replicas=50"]) == 2
    assert "--set expects section.key=value" in capsys.readouterr().err


def test_unknown_scheme_preset_exits_2(tmp_path, capsys):
    assert run_decompose(tmp_path, "--set", "scheme.preset=custom") == 2
    assert "unknown scheme preset 'custom'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_unknown_set_key(capsys):
    assert main(["simulate", "--set", "plan.nope=1"]) == 2
    assert "unknown key 'plan.nope'" in capsys.readouterr().err


def test_set_wins_over_file(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[plan]\nepsilon = 0.3\nt = 1\nreplicas = 3\n")
    rc = main(["decompose", "--config", str(ini), "--out", str(tmp_path),
               "--set", "plan.epsilon=0.2"])
    assert rc == 0
    doc = read_doc(tmp_path / "decompose-0.json")
    assert doc["report"]["epsilon"] == 0.2
    assert "plan.epsilon=0.2" in doc["manifest"]["resolved_config"]
    assert doc["report"]["replicas"] == 3  # untouched file values survive


def test_unread_key_rule_checks_set_items_only(tmp_path):
    # one config file may serve several commands, so its values of keys a
    # command does not read pass; macro_time counts under macro-fixed, in
    # whichever order the --set items come
    ini = tmp_path / "run.ini"
    ini.write_text("[plan]\nreplicas = 3\n[test_function]\nwidth_t = 2\n")
    assert load_config(str(ini), "simulate")["plan"]["replicas"] == 3
    for sets in (["plan.schedule=macro-fixed", "plan.macro_time=0.5"],
                 ["plan.macro_time=0.5", "plan.schedule=macro-fixed"]):
        for command in ("remainder", "gradient"):
            cfg = load_config(None, command, sets)
            assert cfg["plan"]["macro_time"] == 0.5


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "kpzlab" in capsys.readouterr().out
