"""Acceptance suite: eleven end-to-end properties with pinned tolerances.

One test per criterion; the terminal summary prints a PASS/FAIL line for
each. All seeds are frozen so any failure reproduces bit for bit, and the
sized-down Monte Carlo runs keep the whole file at a few minutes on one
core. Numbered docstrings state the property, the frozen parameters, and
the tolerance being enforced.

The Monte Carlo criteria 06-10 take their runs from config.CRITERIA and
run each through its CLI command handler, the glue the command line runs.
Each first asserts that its entries resolve to the literal plan (and
capture times or test function) written here, so an edit of the table
cannot silently change a criterion.
"""
import itertools
import math
import time

import numpy as np
import pytest

from kpzlab import cli, config
from kpzlab.driving import make_driving
from kpzlab.lattice import (EvolutionConfig, LatticeGeometry, capture,
                            min_cone_side)
from kpzlab.noise import make_noise
from kpzlab.rescale import (coefficients, decompose, intermediate_disorder_1d,
                            macro_terms)
from kpzlab.studies import ExperimentPlan
from kpzlab.walk import derivative_pairs
from oracles import polymer_path_sum, zero_layer_shift


def test_criterion_01_path_sum_matches_direct_recursion():
    """Recursed heights equal the brute-force weighted-path oracle.

    polymer update, d=1, horizons 1..6 at the anchor site, eps=0.3,
    50 seeds; relative error <= 1e-10; wall time < 10 s.
    """
    t0 = time.monotonic()
    phi = make_driving("polymer", 1)
    g = LatticeGeometry(1, 13)  # anchor stays cone-exact through t=6
    eps = 0.3
    worst = 0.0
    for seed in range(50):
        noise = make_noise(seed=seed)
        slices = list(capture(EvolutionConfig(phi, noise, g, eps, T=6),
                              range(7)))
        for t in range(1, 7):
            direct = slices[t].value_at((0,))
            oracle = polymer_path_sum(noise, eps, t, (0,), 1)
            rel = abs(direct - oracle) / max(abs(direct), abs(oracle), 1e-300)
            worst = max(worst, rel)
    assert worst <= 1e-10
    assert time.monotonic() - t0 < 10.0


def test_criterion_02_curvature_identities_and_fd_agreement():
    """Analytic curvature at a flat stencil has the forced structure.

    q + 2d r = 0 within 1e-10 for every built-in update in d=1,2; the
    polymer values in d=1 are (2/9, -1/9) within 1e-10; finite-difference
    second derivatives match the closed forms within 1e-5.
    """
    for d in (1, 2):
        for name in ("polymer", "gkpz", "ew"):
            h = make_driving(name, d).hessian_origin()
            assert abs(h.q + 2 * d * h.r) <= 1e-10, (name, d)

    h1 = make_driving("polymer", 1).hessian_origin()
    assert abs(h1.q - 2.0 / 9.0) <= 1e-10
    assert abs(h1.r + 1.0 / 9.0) <= 1e-10

    for d in (1, 2):
        for name in ("polymer", "gkpz"):
            phi = make_driving(name, d)
            h = phi.hessian_origin()
            expect = np.full((phi.n, phi.n), h.r) + \
                np.eye(phi.n) * (h.q - h.r)
            assert np.abs(phi.hessian_matrix_fd() - expect).max() <= 1e-5


def test_criterion_03_walk_derivatives_match_finite_differences():
    """Backward-walk noise derivatives agree with central differences.

    Checked at every cone site for (polymer, d=1, t=5), (gkpz, d=1, t=5),
    (polymer, d=2, t=3) at eps=0.25; |walk - fd| <= max(1e-8, 1e-4*eps)
    and each layer's derivative mass equals eps within 1e-6*eps; < 60 s.
    """
    t0 = time.monotonic()
    eps = 0.25
    tol = max(1e-8, 1e-4 * eps)
    # (phi, d, T, sites in the cone of (T, origin) over s = 1..T)
    for name, d, T, sites in (("polymer", 1, 5, 25), ("gkpz", 1, 5, 25),
                              ("polymer", 2, 3, 19)):
        g = LatticeGeometry(d, min_cone_side(T))
        run = EvolutionConfig(make_driving(name, d), make_noise(seed=2026), g,
                              eps, T=T)
        pairs, mass_errors = derivative_pairs(run, (0,) * d)
        assert (len(pairs), len(mass_errors)) == (sites, T)
        assert all(err <= 1e-6 * eps for err in mass_errors), (name, d)
        bad = [(s, y) for s, y, dw, df in pairs if not abs(dw - df) <= tol]
        assert not bad, (name, d, bad)
    assert time.monotonic() - t0 < 60.0


def test_criterion_04_first_layer_erasure_bounded():
    """Erasing the first noise layer moves f(t,x) by at most its bound.

    100 frozen configurations: t = 1 + k mod 20, eps = 0.05 + 0.009k,
    alternating polymer/gkpz updates, d=1, side 41 (cone-exact to t=20).
    """
    g = LatticeGeometry(1, 41)
    for k in range(100):
        t = 1 + k % 20
        eps = 0.05 + 0.009 * k
        phi = make_driving("polymer" if k % 2 == 0 else "gkpz", 1)
        noise = make_noise(seed=1000 + k)
        shift, bound = zero_layer_shift(phi, noise, g, eps, t, (0,))
        assert abs(shift) <= bound + 1e-12, (k, t, eps, shift, bound)


def test_criterion_05_increment_decomposition_identities():
    """Mean + curvature + noise + remainder rebuilds every increment.

    polymer d=1, eps=0.3, side 51, horizons 0..9, 20 replicas: over
    10200 lattice points both the raw-increment identity and its
    macroscopically rescaled counterpart hold within 1e-10 relative.
    """
    eps = 0.3
    phi = make_driving("polymer", 1)
    hess = phi.hessian_origin()
    scheme = intermediate_disorder_1d()
    g = LatticeGeometry(1, 51)
    sigma = 1.0  # uniform noise at half-width sqrt(3)
    samples = []  # (lattice sample, its macro_terms) pairs
    for rep in range(20):
        noise = make_noise(seed=rep)
        slices = list(capture(EvolutionConfig(phi, noise, g, eps, T=10),
                              range(11)))
        for t in range(10):
            for site in itertools.product(range(g.lo, g.lo + g.L)):
                s = decompose(slices[t], slices[t + 1], phi, noise, eps, site)
                samples.append((s, macro_terms(s, scheme, sigma, hess, 1)))
    assert len(samples) >= 10_000
    assert max(abs(s.lattice_residual) / max(abs(s.increment), 1e-300)
               for s, _ in samples) <= 1e-10
    assert max(abs(m["macro_residual"]) / max(abs(m["time_derivative"]),
                                              1e-300)
               for _, m in samples) <= 1e-10


def _criterion(number):
    """Criterion `number`'s CLI runs from config.CRITERIA, each resolved as
    the bare command plus its --set items: [(command, config)]."""
    return [(command, config.load_config(None, command, sets))
            for command, sets in config.CRITERIA[number]]


def _run(command, cfg):
    """One run through the command's CLI handler, writing no artifact:
    (columns, summary, assertions)."""
    return cli.COMMANDS[command][1](cfg, 1)


def test_criterion_06_remainder_shrinks_against_every_term():
    """The leftover term becomes negligible next to each kept term.

    Median |remainder/term| for all four denominators is decreasing
    (at most one inversion) along eps = 0.2, 0.1, 0.05, 0.025 with 200
    replicas, for polymer and gkpz in d=1 under both horizon schedules;
    whole sweep < 600 s.
    """
    t0 = time.monotonic()
    runs = _criterion(6)
    assert [command for command, _ in runs] == ["remainder"] * 4
    assert [ExperimentPlan.from_config(cfg) for _, cfg in runs] == [
        ExperimentPlan(epsilon_grid=(0.2, 0.1, 0.05, 0.025), replicas=200,
                       seed=0, phi_name=name, schedule=schedule)
        for name in ("polymer", "gkpz")
        for schedule in ("adversarial", "macro-fixed")]
    for command, cfg in runs:
        _, _, assertions = _run(command, cfg)
        assert all(assertions.values()), (cfg["model"]["phi"],
                                          cfg["plan"]["schedule"], assertions)
    assert time.monotonic() - t0 < 600.0


def test_criterion_07_neighbor_gap_scales_like_sqrt_eps():
    """Nearest-neighbor height gaps stay O(sqrt(eps)) at the horizon.

    p95 of max_a |f(t,x+a) - f(t,x)| / sqrt(eps) varies by a factor of
    at most 3 across eps = 0.2 .. 0.025; 1000 replicas in d=1 and 800
    in d=2, seed 0.
    """
    runs = _criterion(7)
    assert [command for command, _ in runs] == ["gradient"] * 2
    assert [ExperimentPlan.from_config(cfg) for _, cfg in runs] == [
        ExperimentPlan(replicas=1000, seed=0),
        ExperimentPlan(replicas=800, seed=0, d=2)]
    for command, cfg in runs:
        _, summary, assertions = _run(command, cfg)
        assert assertions["p95_band_bounded"], summary["band"]
        assert summary["band"] <= 3.0
        assert all(assertions.values()), assertions


def test_criterion_08_single_step_drift_within_bound():
    """One-step means stay below the a-priori drift ceiling.

    polymer d=1, eps=0.1, 500 replicas: mean increment and mean update
    gap at t = 10, 100, 1000 are each <= scale*eps + 3*SE (and not
    significantly negative).
    """
    [(command, cfg)] = _criterion(8)
    assert command == "drift"
    assert ExperimentPlan.from_config(cfg) == \
        ExperimentPlan(epsilon_grid=(0.1,), replicas=500, seed=0)
    assert cfg["plan"]["times"] == (10, 100, 1000)
    _, _, assertions = _run(command, cfg)
    assert all(assertions.values()), assertions


def test_criterion_09_rescaled_noise_pairs_like_white_noise():
    """Pairings of the rescaled noise field match the Gaussian limit.

    Default separable bump (target variance pi/4), intermediate-disorder
    scaling, eps grid 0.3/0.25/0.2, 2000 replicas, seed 0: at the
    smallest eps the pairing mean is within 3 SE of 0, the variance
    within 10% of target, |skewness| <= 0.15, |excess kurtosis| <= 0.3;
    < 300 s.
    """
    t0 = time.monotonic()
    [(command, cfg)] = _criterion(9)
    assert command == "whitenoise"
    assert ExperimentPlan.from_config(cfg) == \
        ExperimentPlan(epsilon_grid=(0.3, 0.25, 0.2), replicas=2000,
                       seed=0, scheme_preset="intermediate-disorder-1d",
                       scheme_params={})
    assert cfg["test_function"] == {"amplitude": 1.0, "center_t": 0.0,
                                    "width_t": 1.0, "center_x": (0.0,),
                                    "width_x": (1.0,)}
    columns, _, assertions = _run(command, cfg)
    assert columns["target_variance"][0] == \
        pytest.approx(math.pi / 4, abs=1e-12)
    assert all(assertions.values()), assertions
    assert time.monotonic() - t0 < 300.0


def test_criterion_10_gradient_law_shows_no_growth_trend():
    """Height gradients stay stochastically bounded over long runs.

    polymer d=1, eps=0.1, torus side 512, 30 replicas, checkpoints 2^k
    for k = 0..13: the p99 of |forward gradient| shows no growth trend,
    and the flat start has exactly zero gradient.
    """
    [(command, cfg)] = _criterion(10)
    assert command == "stationarity"
    assert ExperimentPlan.from_config(cfg) == \
        ExperimentPlan(epsilon_grid=(0.1,), replicas=30, seed=0,
                       geometry_policy="torus", L=512)
    assert cfg["plan"]["checkpoints"] == tuple(2 ** k for k in range(14))
    _, _, assertions = _run(command, cfg)
    assert assertions["p99_no_growth_trend"]
    assert all(assertions.values()), assertions


def test_criterion_11_coefficients_are_scale_free():
    """The intermediate-disorder preset pins (nu, lambda/2 ratio, D).

    polymer d=1 with unit-variance noise yields coefficients
    (1/3, 2/3, 1) independent of eps, each within 1e-12.
    """
    hess = make_driving("polymer", 1).hessian_origin()
    scheme = intermediate_disorder_1d()
    for eps in (0.5, 0.3, 0.2, 0.1, 0.05):
        co = coefficients(scheme, eps, 1, hess, 1.0)
        assert abs(co.nu - 1.0 / 3.0) <= 1e-12
        assert abs(co.lam - 2.0 / 3.0) <= 1e-12
        assert abs(co.D - 1.0) <= 1e-12
