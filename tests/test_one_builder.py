"""studies.ExperimentPlan is the one builder of phi, scheme, noise,
geometry and evolution in src/kpzlab, and studies.decomposition_row the
one decomposition sampler.

Every other module takes the objects a plan built, so a batched engine or
a new geometry rule has one place to change. Each builder's own module
defines it without calling it. Likewise only studies.py calls
evolve_and_decompose and macro_terms, so the decompose command and the
remainder study sample their rows one way, and only lattice.capture calls
step, so every evolution is read one way. noise.blocks is the one rule
that cuts a grid into blocks: no other function steps through a range.
"""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "kpzlab"
BUILDERS = {"make_driving", "make_scheme", "replica_noise", "LatticeGeometry",
            "EvolutionConfig"}
SAMPLERS = {"evolve_and_decompose", "macro_terms"}
MODULES = [p for p in sorted(SRC.glob("*.py"))
           if p.name not in ("__init__.py", "studies.py")]
ALL_MODULES = sorted(SRC.glob("*.py"))


def _builder_calls(source: str, names=BUILDERS) -> list:
    """'line N: name' for each call of one of the names in the source."""
    calls = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", "")
            if name in names:
                calls.append(f"line {node.lineno}: {name}")
    return calls


def test_scanner_finds_builder_calls():
    src = ("x = make_driving('polymer', 1)\n"
           "y = lattice.LatticeGeometry(1, 5)\n"
           "z = EvolutionConfig\nw = replace(config, noise=n)\n")
    assert _builder_calls(src) == ["line 1: make_driving",
                                   "line 2: LatticeGeometry"]
    src = ("s = evolve_and_decompose(run, x0)\n"
           "m = rescale.macro_terms(s, scheme, 1.0, hess, 1)\n"
           "f = macro_terms\n")
    assert _builder_calls(src, SAMPLERS) == ["line 1: evolve_and_decompose",
                                             "line 2: macro_terms"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_the_plan_builds(path):
    assert _builder_calls(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_studies_samples_decompositions(path):
    assert _builder_calls(path.read_text(), SAMPLERS) == []


def _call_owners(source: str, match) -> list:
    """Names of the functions whose bodies make a call that match accepts;
    '<module>' for a call outside any function."""
    tree = ast.parse(source)
    owner = {}
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                owner.setdefault(node, fn.name)
    return [owner.get(node, "<module>") for node in ast.walk(tree)
            if isinstance(node, ast.Call) and match(node)]


def _callers(source: str, name: str) -> list:
    """Names of the functions whose bodies call name."""
    return _call_owners(source, lambda node: name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)))


def _is_stepped_range(node: ast.Call) -> bool:
    """range(start, stop, step) with a step other than -1: the loop of a
    block cutter, not a countdown."""
    return (getattr(node.func, "id", None) == "range" and len(node.args) == 3
            and ast.unparse(node.args[2]) != "-1")


def _names(source: str) -> set:
    """Every identifier, attribute, imported name and string constant."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_scanner_finds_step_callers_and_names():
    src = ("def capture(c):\n    return step(c)\n"
           "def other():\n    lattice.step(1)\n    step = 3\n"
           "step(0)\n__all__ = ['trajectory']\n")
    assert sorted(_callers(src, "step")) == ["<module>", "capture", "other"]
    assert "trajectory" in _names(src)
    assert "trajectory" in _names("from .lattice import trajectory\n")


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_only_capture_steps(path):
    expect = ["capture"] if path.name == "lattice.py" else []
    assert _callers(path.read_text(), "step") == expect


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_module_names_trajectory(path):
    assert "trajectory" not in _names(path.read_text())


def test_scanner_finds_stepped_ranges():
    src = ("def cutter(n):\n    return list(range(0, n, 8))\n"
           "def countdown(t):\n    return list(range(t, 0, -1))\n"
           "def plain(n):\n    return range(n), range(1, n)\n"
           "x = range(0, 9, k)\n")
    assert sorted(_call_owners(src, _is_stepped_range)) == ["<module>",
                                                             "cutter"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_module_names_the_old_block_cutters(path):
    assert not {"_row_blocks", "_cell_blocks"} & _names(path.read_text())


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_only_noise_blocks_cuts_a_grid(path):
    expect = ["blocks"] if path.name == "noise.py" else []
    assert _call_owners(path.read_text(), _is_stepped_range) == expect


@pytest.mark.parametrize("name", ["lattice.py", "studies.py"])
def test_lattice_and_studies_cut_through_noise_blocks(name):
    tree = ast.parse((SRC / name).read_text())
    imported = {a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "noise"
                for a in node.names}
    assert "blocks" in imported
    assert _callers((SRC / name).read_text(), "blocks")
