"""The verification script and the shipped config file drive the CLI as
documented.

scripts/run_verification_suite.py is loaded from its file (without writing
bytecode next to it) and its kpzlab_main is replaced by a recorder, so the
tests see every command line the script would run and start no run.
"""
import importlib.util
import pathlib
import sys

import pytest

from kpzlab import config

ROOT = pathlib.Path(__file__).resolve().parent.parent
SINGLE = ["check-phi", "walk-check", "decompose"]


def _load_script(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "run_verification_suite", ROOT / "scripts" / "run_verification_suite.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _record(monkeypatch, exit_codes=None):
    """Run the script with a recorder for kpzlab_main; return its exit
    status and the recorded (command, --out, --set items) of each run."""
    mod = _load_script(monkeypatch)
    calls = []

    def recorder(argv):
        sets = [argv[i + 1] for i, a in enumerate(argv) if a == "--set"]
        calls.append((argv[0], argv[argv.index("--out") + 1], sets))
        assert argv[argv.index("--seed") + 1] == "7"
        assert argv[argv.index("--workers") + 1] == "2"
        return (exit_codes or {}).get(argv[0], 0)

    monkeypatch.setattr(mod, "kpzlab_main", recorder)
    return mod, calls


def _criteria_runs():
    return [(command, sets) for number in sorted(config.CRITERIA)
            for command, sets in config.CRITERIA[number]]


@pytest.mark.parametrize("quick", [False, True])
def test_script_runs_every_criteria_entry_and_the_single_runs(
        monkeypatch, capsys, tmp_path, quick):
    mod, calls = _record(monkeypatch)
    argv = ["--out", str(tmp_path), "--seed", "7", "--workers", "2"]
    assert mod.run(argv + (["--quick"] if quick else [])) == 0
    assert "all 12 runs passed" in capsys.readouterr().out

    expected = [(c, s) for c, s in mod.SINGLE_RUNS] + _criteria_runs()
    assert [c for c, _, _ in calls] == SINGLE + [c for c, _ in
                                                 _criteria_runs()]
    assert len(calls) == 12
    for (command, out, sets), (_, full) in zip(calls, expected):
        # full-scale items first, then the command's quick items
        assert sets == full + (mod.QUICK.get(command, []) if quick else [])
        assert pathlib.Path(out).parent == tmp_path
        config.load_config(None, command, sets)  # every run resolves
    outs = [out for _, out, _ in calls]
    assert len(set(outs)) == len(outs)


def test_script_has_quick_items_for_every_criteria_command(monkeypatch):
    # else --quick would run that criterion at full scale
    mod = _load_script(monkeypatch)
    for command, _ in _criteria_runs():
        assert mod.QUICK.get(command), command


def test_script_exit_status_counts_failed_runs(monkeypatch, capsys,
                                               tmp_path):
    # four remainder runs and decompose fail; the status counts runs, not
    # the sum of their exit codes
    mod, calls = _record(monkeypatch, {"remainder": 1, "decompose": 2})
    rc = mod.run(["--out", str(tmp_path), "--seed", "7", "--workers", "2",
                  "--quick"])
    assert rc == 5
    assert len(calls) == 12
    summary = capsys.readouterr().out.splitlines()[-1]
    assert summary.startswith("FAILED") and "decompose" in summary


@pytest.mark.parametrize("command", ["simulate", "decompose", "walk-check"])
def test_quick_demo_config_resolves_for_its_commands(command):
    cfg = config.load_config(str(ROOT / "configs" / "quick-demo.ini"),
                             command)
    assert cfg["plan"]["t"] == 32
    assert cfg["plan"]["epsilon"] == 0.2
    assert cfg["plan"]["replicas"] == 50
