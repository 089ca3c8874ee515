"""Driving function tests: values, gradients, Hessians, axiom audits.

Closed forms are checked against finite differences and against frozen
hand-computed values; the axiom auditor must accept the shipped update
rules and reject the degenerate and the non-smooth ones.
"""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kpzlab.assumptions as assumptions_mod
from kpzlab.assumptions import check_assumptions
from kpzlab.driving import (_PHI_BLOCK, DrivingFunction,
                            EdwardsWilkinsonDriving, GeneralizedKpzDriving,
                            HessianAtOrigin, PolymerDriving, make_driving,
                            psi_example_prime, stencil_offsets)
from oracles import (CallableDriving, audit_stencil_batch, fd_gradient_many,
                     gkpz_value_many, polymer_value_many, psi_example)

ALL_BUILTINS = [make_driving(n, d) for n in ("polymer", "gkpz", "ew")
                for d in (1, 2)]


def test_stencil_offsets_order():
    assert stencil_offsets(1) == [(0,), (1,), (-1,)]
    assert stencil_offsets(2) == [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]


# ---------------------------------------------------------------------------
# values


def test_polymer_zero_at_origin():
    assert PolymerDriving(1).value((0.0, 0.0, 0.0)) == 0.0
    assert PolymerDriving(2).value(np.zeros(5)) == 0.0


def test_polymer_worked_value():
    # log((1 + e^0.2 + e^0.1)/3), frozen
    v = PolymerDriving(1).value((0.0, 0.2, 0.1))
    assert v == pytest.approx(0.10333055956113443, abs=1e-14)


def test_polymer_overflow_safe():
    # max-shifted evaluation keeps huge stencils finite
    v = PolymerDriving(1).value((1000.0, 999.0, 998.0))
    assert np.isfinite(v)
    assert v == pytest.approx(1000.0 + math.log((1 + math.e**-1 + math.e**-2) / 3),
                              abs=1e-10)


def test_ew_is_plain_mean():
    assert EdwardsWilkinsonDriving(1).value((3.0, 6.0, 0.0)) == 3.0


def test_gkpz_value_formula():
    phi = GeneralizedKpzDriving(1, coupling=0.05)
    u = np.array([0.0, 0.4, -0.2])
    ubar = u.mean()
    expect = ubar + 0.05 * sum(psi_example(x - ubar) for x in u)
    assert phi.value(u) == pytest.approx(expect, abs=1e-15)


def _kernel_inputs(d):
    """Stencil arrays of one phi block and of a whole lattice's stack:
    random, shifted far from the origin, and with NaN and inf heights."""
    n = 2 * d + 1
    rng = np.random.default_rng(11 + d)
    L = {1: 301, 2: 41, 3: 13}[d]
    for shape in [(n, _PHI_BLOCK // n), (n,) + (L,) * d]:
        U = rng.uniform(-5.0, 5.0, size=shape)
        yield U
        yield U + 1e6
        yield rng.normal(0.0, 0.3, size=shape)  # mostly inside |x| <= 1
        bad = U.copy()
        bad.flat[::97] = np.nan
        bad.flat[5::101] = np.inf
        bad.flat[7::103] = -np.inf
        yield bad


@pytest.mark.parametrize("d", [1, 2, 3])
def test_kernels_equal_one_expression(d):
    # the in-place kernels give the bits of the one-expression references,
    # NaN and inf included (their RuntimeWarnings are the references' too)
    polymer, gkpz = PolymerDriving(d), GeneralizedKpzDriving(d)
    with np.errstate(all="ignore"):
        for U in _kernel_inputs(d):
            assert (polymer.value_many(U).tobytes()
                    == polymer_value_many(U).tobytes())
            assert (gkpz.value_many(U).tobytes()
                    == gkpz_value_many(U, gkpz.coupling).tobytes())


def test_gkpz_default_coupling():
    assert GeneralizedKpzDriving(1).coupling == pytest.approx(1 / 16)
    assert GeneralizedKpzDriving(2).coupling == pytest.approx(1 / 32)
    with pytest.raises(ValueError):
        GeneralizedKpzDriving(1, coupling=0.0)


@pytest.mark.parametrize("phi", ALL_BUILTINS, ids=lambda p: f"{p.name}-d{p.d}")
@pytest.mark.parametrize("c", [-5.0, 0.7, 40.0])
def test_shift_equivariance(phi, c):
    rng = np.random.default_rng(12)
    u = rng.uniform(-2, 2, size=phi.n)
    assert phi.value(u + c) == pytest.approx(phi.value(u) + c, abs=1e-10)


@pytest.mark.parametrize("phi", ALL_BUILTINS, ids=lambda p: f"{p.name}-d{p.d}")
def test_permutation_symmetry(phi):
    rng = np.random.default_rng(3)
    u = rng.uniform(-2, 2, size=phi.n)
    for _ in range(5):
        p = rng.permutation(phi.n)
        assert phi.value(u[p]) == pytest.approx(phi.value(u), abs=1e-12)


@given(u=st.lists(st.floats(-10, 10), min_size=3, max_size=3),
       c=st.floats(-20, 20))
@settings(max_examples=150, deadline=None)
def test_polymer_equivariance_property(u, c):
    phi = PolymerDriving(1)
    u = np.array(u)
    assert phi.value(u + c) == pytest.approx(phi.value(u) + c, abs=1e-9)


@given(u=st.lists(st.floats(-10, 10), min_size=5, max_size=5),
       c=st.floats(-20, 20))
@settings(max_examples=150, deadline=None)
def test_gkpz_equivariance_property(u, c):
    phi = GeneralizedKpzDriving(2)
    u = np.array(u)
    assert phi.value(u + c) == pytest.approx(phi.value(u) + c, abs=1e-9)


# ---------------------------------------------------------------------------
# gradients


def test_polymer_gradient_at_origin():
    g = PolymerDriving(1).gradient(np.zeros(3))
    assert np.allclose(g, 1 / 3, atol=1e-15)


@pytest.mark.parametrize("phi", ALL_BUILTINS, ids=lambda p: f"{p.name}-d{p.d}")
def test_gradients_are_stochastic_vectors(phi):
    rng = np.random.default_rng(7)
    U = rng.uniform(-0.5, 0.5, size=(phi.n, 64))
    G = phi.gradient_many(U)
    assert G.min() >= -1e-12
    assert np.abs(G.sum(axis=0) - 1.0).max() <= 1e-12


def test_gkpz_gradient_matches_fd():
    phi = GeneralizedKpzDriving(1, coupling=0.03)
    rng = np.random.default_rng(8)
    # stay away from the psi kink at |u_a - mean| = 1
    U = rng.uniform(-0.3, 0.3, size=(3, 32))
    G = phi.gradient_many(U)
    G_fd = fd_gradient_many(phi, U)
    assert np.abs(G - G_fd).max() < 1e-6


def test_polymer_gradient_matches_fd():
    phi = PolymerDriving(2)
    rng = np.random.default_rng(9)
    U = rng.uniform(-1, 1, size=(5, 16))
    assert np.abs(phi.gradient_many(U) - fd_gradient_many(phi, U)).max() < 1e-6


def test_base_class_has_no_derivative_fallbacks():
    # every driving function the package builds brings closed forms; the
    # finite-difference fallbacks live with CallableDriving in the oracles
    phi = DrivingFunction(1)
    for call in (lambda: phi.value_many(np.zeros((3, 1))),
                 lambda: phi.gradient_many(np.zeros((3, 1))),
                 phi.hessian_origin):
        with pytest.raises(NotImplementedError):
            call()


# ---------------------------------------------------------------------------
# Hessians at the flat stencil


def test_polymer_hessian_d1_closed_form():
    h = PolymerDriving(1).hessian_origin()
    assert h.q == pytest.approx(2 / 9, abs=1e-15)
    assert h.r == pytest.approx(-1 / 9, abs=1e-15)
    assert h.q_minus_r == pytest.approx(1 / 3, abs=1e-15)


def test_gkpz_hessian_closed_form():
    for d in (1, 2):
        c = 1.0 / (16 * d)
        h = GeneralizedKpzDriving(d).hessian_origin()
        n = 2 * d + 1
        assert h.q == pytest.approx(2 * c * (n - 1) / n, abs=1e-15)
        assert h.r == pytest.approx(-2 * c / n, abs=1e-15)
        assert h.q_minus_r == pytest.approx(2 * c, abs=1e-15)


@pytest.mark.parametrize("phi", ALL_BUILTINS, ids=lambda p: f"{p.name}-d{p.d}")
def test_hessian_row_sums_vanish(phi):
    # consequence of shift equivariance: q + 2d r = 0
    h = phi.hessian_origin()
    assert abs(h.q + 2 * phi.d * h.r) <= 1e-10


@pytest.mark.parametrize("name", ["polymer", "gkpz"])
@pytest.mark.parametrize("d", [1, 2])
def test_hessian_fd_matches_analytic(name, d):
    phi = make_driving(name, d)
    H = phi.hessian_matrix_fd()
    h = phi.hessian_origin()
    n = phi.n
    expect = np.full((n, n), h.r) + np.eye(n) * (h.q - h.r)
    assert np.abs(H - expect).max() <= 1e-5


def test_ew_hessian_degenerate():
    h = EdwardsWilkinsonDriving(1).hessian_origin()
    assert h.q == 0.0 and h.r == 0.0


# ---------------------------------------------------------------------------
# psi and the monotonicity threshold


def test_psi_example_values():
    assert psi_example(0.5) == 0.25
    assert psi_example(-1.0) == 1.0
    assert psi_example(2.0) == 3.0
    assert psi_example_prime(0.25) == 0.5
    assert psi_example_prime(-3.0) == -2.0
    arr = psi_example(np.array([-2.0, 0.0, 0.5]))
    assert np.allclose(arr, [3.0, 0.0, 0.25])


def test_monotone_threshold():
    # gkpz stays monotone up to the coupling 1/(4d sup|psi'|) = 1/(8d); the
    # default 1/(16d) sits strictly inside that region
    for d in (1, 2):
        assert GeneralizedKpzDriving(d).coupling == pytest.approx(1 / (16 * d))
        assert GeneralizedKpzDriving(d).coupling < 1 / (8 * d)


def test_make_driving_rejects_unknown():
    with pytest.raises(ValueError):
        make_driving("ballistic", 1)


# ---------------------------------------------------------------------------
# axiom audit


def test_audit_accepts_polymer():
    rep = check_assumptions(PolymerDriving(1), samples=20_000)
    assert rep.passed
    assert rep.witness_constant >= 0.9 * (1 / 3) / 4
    assert rep.quadratic_radius > 0
    assert np.isfinite(rep.witness_threshold)
    d = rep.as_dict()
    assert d["passed"] and d["witness"]["constant_c"] == rep.witness_constant


def test_audit_accepts_gkpz_at_threshold():
    phi = GeneralizedKpzDriving(1, coupling=1 / 8)  # 1/(8d), the threshold
    rep = check_assumptions(phi, samples=20_000)
    assert {c.name: c.passed for c in rep.checks}["monotonicity"]
    assert rep.passed


def test_audit_rejects_plain_mean():
    rep = check_assumptions(EdwardsWilkinsonDriving(1), samples=20_000)
    assert not rep.passed
    passed = {c.name: c.passed for c in rep.checks}
    assert not passed["nondegenerate_hessian"]
    assert not passed["strict_domination"]
    for name in ("shift_additivity", "zero_at_origin", "permutation_symmetry",
                 "monotonicity", "mean_domination"):
        assert passed[name]


def test_audit_flags_non_c2_update():
    # mean plus |.|^1.5 spread penalty: equivariant and symmetric but the
    # second derivative blows up at the origin
    def rough(u):
        ub = u.mean()
        return float(ub + 0.1 * (np.abs(u - ub) ** 1.5).sum())

    rep = check_assumptions(CallableDriving(1, rough, name="rough"),
                            samples=2_000)
    assert not rep.passed
    passed = {c.name: c.passed for c in rep.checks}
    assert not passed["c2_near_origin"]
    assert passed["shift_additivity"]


def _hexed(obj):
    """JSON-like report with every float written as float.hex."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {k: _hexed(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_hexed(v) for v in obj]
    return obj


@pytest.mark.parametrize("block", [assumptions_mod._PHI_BLOCK, 1_100])
@pytest.mark.parametrize("phi", ALL_BUILTINS, ids=lambda p: f"{p.name}-{p.d}")
def test_audit_blocks_equal_one_batch(monkeypatch, phi, block):
    # 22,000 stencils in blocks of _PHI_BLOCK // n: 2,730 (d = 1) or 1,638
    # (d = 2) at the default, 366 or 220 at 1,100; only d = 2 at 1,100
    # ends on a full block. The whole batch in one block is the reference
    samples = 20_000
    runs = []
    for size in (block, 10 ** 9):
        monkeypatch.setattr(assumptions_mod, "_PHI_BLOCK", size)
        seen = {"value_many": 0, "gradient_many": 0}
        for method in seen:
            def counted(U, _real=getattr(type(phi), method), _name=method):
                seen[_name] += U[0].size
                return _real(phi, U)
            monkeypatch.setattr(phi, method, counted)
        report = check_assumptions(phi, samples=samples, seed=7).as_dict()
        runs.append((_hexed(report), seen))
    # the same bits, from every stencil of the batch
    assert runs[0] == runs[1]


def test_audit_blocks_keep_nan(monkeypatch):
    # a phi that is NaN on a few stencils of the batch: each check that
    # sees one reports NaN, in blocks of 500 as in one block
    def spiky(u):
        return float("nan") if u[1] > 4.98 else float(u.mean())

    phi = CallableDriving(1, spiky, name="spiky")
    reports = []
    for block in (500, 10 ** 9):
        monkeypatch.setattr(assumptions_mod, "_PHI_BLOCK", block)
        reports.append(_hexed(check_assumptions(phi, samples=2_000,
                                                seed=3).as_dict()))
    assert reports[0] == reports[1]
    assert reports[0]["checks"][0]["worst"] == "nan"


def test_audit_permutation_check_keeps_nan():
    # NaN on the stencils whose middle value is large, so the permuted
    # evaluations are NaN wherever the value or its permutation is: the
    # worst permutation error is NaN, and the check fails
    def spiky(u):
        return float("nan") if u[1] > 4.0 else float(u.mean())

    rep = check_assumptions(CallableDriving(1, spiky, name="spiky"),
                            samples=2_000, seed=3)
    perm = {c.name: c for c in rep.checks}["permutation_symmetry"]
    assert not perm.passed
    assert math.isnan(perm.worst)


@pytest.mark.parametrize("samples", [100_000, 2_003, 9])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("default_block", [True, False])
def test_audit_stencil_blocks_equal_the_batch(samples, d, default_block):
    # the blocks hold the bits of the batch drawn whole, and the generator
    # is left where the whole draw leaves it, so perms and the domination
    # profile read the same values
    n = 2 * d + 1
    block = _PHI_BLOCK // n if default_block else 1_100
    seeded = lambda: np.random.default_rng(12345)  # noqa: E731
    ref_rng = seeded()
    U, shifts = audit_stencil_batch(ref_rng, n, samples)
    rng = seeded()
    count, blocks = assumptions_mod._sample_stencils(rng, n, samples, block)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    blocks = list(blocks)
    assert count == U.shape[1]
    assert all(Ub.shape[1] <= block for Ub, _ in blocks)
    assert np.concatenate([Ub for Ub, _ in blocks], axis=1).tobytes() \
        == U.tobytes()
    assert np.concatenate([sh for _, sh in blocks]).tobytes() \
        == shifts.tobytes()
    assert rng.permutation(n).tolist() == ref_rng.permutation(n).tolist()


def test_audit_holds_one_block():
    # the default polymer d=2 audit draws 110,000 stencils (8.4 MiB as one
    # batch plus its concatenated copy); it holds one block at a time
    phi = PolymerDriving(2)
    tracemalloc.start()
    try:
        check_assumptions(phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("q,r,degenerate", [
    (0.2, -0.04, False),   # polymer d=1
    (0.0, 0.0, True),      # ew
    (2e-12, -5e-13, True),  # gkpz at coupling 1e-12
    (0.3, 0.3 - 1e-10, True),
    (0.3, -1e-10, True),
    (float("nan"), 0.1, True),
])
def test_one_degeneracy_rule(q, r, degenerate):
    # one tolerance: the audit's nondegenerate_hessian check and the
    # macro terms read HessianAtOrigin.degenerate
    hess = HessianAtOrigin(q, r)
    assert hess.degenerate is degenerate


def test_callable_wrapper_fd_fallbacks():
    inner = PolymerDriving(1)
    phi = CallableDriving(1, lambda u: float(inner.value(u)), name="wrapped")
    rng = np.random.default_rng(5)
    u = rng.uniform(-1, 1, size=3)
    assert phi.value(u) == pytest.approx(inner.value(u), abs=1e-14)
    assert np.abs(phi.gradient(u) - inner.gradient(u)).max() < 1e-6
    h_fd = phi.hessian_origin()
    h = inner.hessian_origin()
    assert h_fd.q == pytest.approx(h.q, abs=1e-5)
    assert h_fd.r == pytest.approx(h.r, abs=1e-5)
