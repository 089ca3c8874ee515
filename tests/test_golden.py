"""Golden artifacts: the bits of a verification run and of the noise field.

tests/golden/ is written by scripts/regenerate_golden.py. A change that
moves bits on purpose reruns it and says which digests moved and why; any
other difference is a regression. The script is loaded from its file
(without writing bytecode next to it), so the test digests exactly as the
script does.
"""
import importlib.util
import json
import pathlib
import sys

import numpy as np
import pytest

from kpzlab.noise import make_noise, replica_noise
from oracles import scalar_sample

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


@pytest.fixture
def regen(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "regenerate_golden", ROOT / "scripts" / "regenerate_golden.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_quick_suite_artifacts_equal_the_golden_digests(regen, tmp_path,
                                                        capsys):
    golden = json.loads((GOLDEN / "quick-seed0.json").read_text())
    assert regen.versions() == golden["versions"], (
        f"golden digests were made with {golden['versions']}, this run has "
        f"{regen.versions()}: float reprs and scipy p-values may differ; "
        f"rerun scripts/regenerate_golden.py on purpose")
    digests = regen.quick_digests(tmp_path)
    capsys.readouterr()
    expected = golden["artifacts"]
    differ = sorted(k for k in expected.keys() | digests.keys()
                    if expected.get(k) != digests.get(k))
    assert differ == [], f"artifacts that differ from the golden run: {differ}"


def test_regenerate_names_each_moved_digest(regen):
    old = {"a.csv": "0" * 64, "b.json": "1" * 64, "gone.csv": "2" * 64}
    new = {"a.csv": "0" * 64, "b.json": "3" * 64, "new.csv": "4" * 64}
    assert regen.moved_digests(old, new) == [
        ("b.json", "1" * 12, "3" * 12), ("gone.csv", "2" * 12, "-"),
        ("new.csv", "-", "4" * 12)]


def test_noise_draws_equal_the_contract_vectors(regen):
    doc = json.loads((GOLDEN / "noise-contract.json").read_text())
    scale = doc["scale"]
    rows = doc["vectors"]
    assert len(rows) == len(regen.noise_vectors())
    differ = []
    for family, seed, replica, t, x, z in rows:
        model = make_noise(family, scale, seed) if replica is None else \
            replica_noise(family, scale, seed, replica)
        grid = model.sample_spacetime(np.array([t]), [np.array([c]) for c in x])
        if (float(grid[0]).hex(), scalar_sample(model, t, x).hex()) != (z, z):
            differ.append((family, seed, replica, t, x))
    assert differ == [], f"draws that differ from the contract: {differ}"
