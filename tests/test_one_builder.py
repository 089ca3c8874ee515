"""studies.ExperimentPlan is the one builder of phi, scheme, noise,
geometry and evolution in src/kpzlab, and studies.decomposition_row the
one decomposition sampler.

Every other module takes the objects a plan built, so a batched engine or
a new geometry rule has one place to change. Each builder's own module
defines it without calling it. Likewise only studies.py calls
evolve_and_decompose and macro_terms, so the decompose command and the
remainder study sample their rows one way.
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
