"""Scaling schemes, macroscopic coefficients, and the exact decomposition.

The four-piece split of a one-step increment is checked on hand-built
stencils, on degenerate dynamics, and against the macroscopic identity;
the Laplacian term must equal nu times the discrete Laplacian of the
rescaled field at every cell interior, up to rounding.
"""
import itertools
import math

import numpy as np
import pytest

from kpzlab.driving import (EdwardsWilkinsonDriving, PolymerDriving,
                            make_driving, stencil_offsets)
from kpzlab.lattice import (EvolutionConfig, HeightSlice, LatticeGeometry,
                            min_cone_side, step, trajectory)
from kpzlab.noise import make_noise
from kpzlab.rescale import (Coefficients, DecompositionSample, coefficients,
                            decompose, exponential_2d,
                            intermediate_disorder_1d, macro_terms,
                            make_scheme, power_law)
from oracles import scalar_sample

# ---------------------------------------------------------------------------
# schemes


def test_scheme_presets():
    a = intermediate_disorder_1d()
    assert a.alpha(0.1) == pytest.approx(1e-4)
    assert a.beta(0.1) == pytest.approx(1e-2)
    assert a.gamma(0.1) == 1.0
    b = exponential_2d(C=2.0)
    assert b.alpha(0.5) == pytest.approx(math.exp(-8.0))
    assert b.beta(0.5) == pytest.approx(math.exp(-4.0))
    assert b.gamma(0.5) == 2.0
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="C must be positive and finite"):
            exponential_2d(C=bad)
    for key in ("alpha_exp", "beta_exp", "gamma_exp", "alpha_coef",
                "beta_coef", "gamma_coef"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="must be finite"):
                power_law(**{"alpha_exp": 2.0, "beta_exp": 1.0, key: bad})
    with pytest.raises(ValueError):
        make_scheme("parabolic")


def test_make_scheme_kwargs():
    sch = make_scheme("power-law", alpha_exp=2, beta_exp=1, gamma_exp=0.5,
                      alpha_coef=3.0)
    assert sch.alpha(0.5) == pytest.approx(0.75)
    assert sch.gamma(0.25) == pytest.approx(0.5)
    sch2 = make_scheme("2d-exponential", C=1.5)
    assert sch2.alpha(1.0) == pytest.approx(math.exp(-1.5))


def test_validate_on_grid():
    sch = intermediate_disorder_1d()
    sch.validate_on_grid((0.3, 0.2, 0.1))
    # alpha grows along a rising grid (a plan refuses such a grid first)
    with pytest.raises(ValueError, match="decrease"):
        sch.validate_on_grid((0.1, 0.2))
    # constant alpha never shrinks
    flat = power_law(alpha_exp=0, beta_exp=1)
    with pytest.raises(ValueError):
        flat.validate_on_grid((0.2, 0.1))
    neg = power_law(alpha_exp=2, beta_exp=1, beta_coef=-1.0)
    with pytest.raises(ValueError):
        neg.validate_on_grid((0.2, 0.1))


# ---------------------------------------------------------------------------
# coefficients


def test_coefficients_weak_noise_window_d1():
    hess = PolymerDriving(1).hessian_origin()
    sch = intermediate_disorder_1d()
    for eps in (0.5, 0.3, 0.1, 0.05, 0.01):
        co = coefficients(sch, eps, 1, hess, sigma=1.0)
        assert co.nu == pytest.approx(1 / 3, abs=1e-12)
        assert co.lam == pytest.approx(2 / 3, abs=1e-12)
        assert co.D == pytest.approx(1.0, abs=1e-12)


def test_coefficients_gamma_homogeneity():
    hess = PolymerDriving(1).hessian_origin()
    one = power_law(alpha_exp=2, beta_exp=1, gamma_coef=1.0)
    two = power_law(alpha_exp=2, beta_exp=1, gamma_coef=2.0)
    c1 = coefficients(one, 0.2, 1, hess, 1.0)
    c2 = coefficients(two, 0.2, 1, hess, 1.0)
    assert c2.nu == pytest.approx(c1.nu)
    assert c2.lam == pytest.approx(c1.lam / 2)
    assert c2.D == pytest.approx(4 * c1.D)


def test_coefficients_d2():
    hess = PolymerDriving(2).hessian_origin()
    sch = power_law(alpha_exp=2, beta_exp=1)  # beta^2 = alpha
    co = coefficients(sch, 0.3, 2, hess, 1.0)
    assert co.nu == pytest.approx(1 / 5, abs=1e-12)


def test_coefficients_reject_degenerate():
    hess = EdwardsWilkinsonDriving(1).hessian_origin()
    with pytest.raises(ValueError, match="degenerate"):
        coefficients(intermediate_disorder_1d(), 0.2, 1, hess, 1.0)


# ---------------------------------------------------------------------------
# the four-piece split


def _two_slices(values, phi, nm, eps, g):
    cur = HeightSlice(g, 0, values)
    return cur, step(cur, phi, eps, nm.sample_grid(1, g.site_mesh()))


def test_decompose_flat_start():
    g = LatticeGeometry(1, 5)
    phi = PolymerDriving(1)
    nm = make_noise(seed=3)
    eps = 0.3
    cur, nxt = _two_slices(np.zeros(5), phi, nm, eps, g)
    s = decompose(cur, nxt, phi, nm, eps, (0,))
    assert s.A == 0.0 and s.B == 0.0 and s.D == 0.0
    assert s.C == eps * scalar_sample(nm, 1, (0,))
    assert s.increment == s.C


def test_decompose_worked_stencil():
    # heights (center, right, left) = (0, 0.2, 0.1) around the origin
    g = LatticeGeometry(1, 5)
    phi = PolymerDriving(1)
    nm = make_noise(seed=1)
    eps = 0.3
    vals = np.zeros(5)
    vals[g.index((1,))] = 0.2
    vals[g.index((-1,))] = 0.1
    cur, nxt = _two_slices(vals, phi, nm, eps, g)
    s = decompose(cur, nxt, phi, nm, eps, (0,))
    assert s.A == pytest.approx(0.1, abs=1e-16)
    assert s.B == pytest.approx(1 / 300, abs=1e-15)
    assert s.C == eps * scalar_sample(nm, 1, (0,))
    # remainder equals the Taylor defect of phi on this stencil, well below
    # the quadratic terms and with the concave sign
    assert s.D == pytest.approx(phi.value((0.0, 0.2, 0.1)) - s.A - s.B,
                                abs=1e-15)
    assert s.D == pytest.approx(-2.7737721989e-06, abs=1e-12)
    assert abs(s.D) < 1e-4
    assert abs(s.lattice_residual) <= 1e-15


def test_decompose_plain_mean_has_no_taylor_defect():
    # for the mean update the increment is exactly A + C, so B = D = 0
    g = LatticeGeometry(1, 7)
    phi = EdwardsWilkinsonDriving(1)
    nm = make_noise(seed=9)
    rng = np.random.default_rng(2)
    vals = rng.uniform(-1, 1, size=7)
    cur, nxt = _two_slices(vals, phi, nm, 0.4, g)
    for x in range(-3, 4):
        s = decompose(cur, nxt, phi, nm, 0.4, (x,))
        assert s.B == 0.0
        assert abs(s.D) <= 1e-15 * (1.0 + abs(s.increment))


def test_decompose_needs_consecutive_slices():
    g = LatticeGeometry(1, 5)
    phi = PolymerDriving(1)
    nm = make_noise()
    s0, s1, s2 = trajectory(EvolutionConfig(phi, nm, g, 0.3, T=2))
    assert decompose(s1, s2, phi, nm, 0.3, (0,)).t == 1
    for cur, nxt in ((s0, s2), (s1, s1), (s2, s1)):
        with pytest.raises(ValueError, match="consecutive"):
            decompose(cur, nxt, phi, nm, 0.3, (0,))


def test_residual_properties():
    # exact in binary
    s = DecompositionSample(epsilon=0.1, t=0, x=(0,), A=1.0, B=2.0, C=3.0,
                            D=4.0, increment=10.5)
    assert s.lattice_residual == 0.5


# ---------------------------------------------------------------------------
# macroscopic identity


def test_macro_terms_reconstruct_time_derivative():
    # the four macroscopic terms are all (gamma/alpha) times the lattice
    # pieces, so their sum must reproduce the scaled increment exactly
    hess = PolymerDriving(1).hessian_origin()
    sch = intermediate_disorder_1d()
    rng = np.random.default_rng(11)
    for _ in range(1000):
        A, B, C, D = rng.uniform(-1, 1, size=4) * rng.choice([1e-3, 1.0, 10.0])
        s = DecompositionSample(epsilon=0.3, t=5, x=(0,), A=A, B=B, C=C, D=D,
                                increment=A + B + C + D)
        m = macro_terms(s, sch, 1.0, hess, 1)
        assert m["macro_residual"] == m["time_derivative"] - (
            m["laplacian_term"] + m["grad_sq_term"] + m["noise_term"]
            + m["remainder"])
        assert abs(m["macro_residual"]) <= max(
            1e-10 * abs(m["time_derivative"]), 1e-12)


def test_macro_terms_are_the_decompose_columns():
    # the dict is the decompose CSV's macro block, coefficients included
    hess = PolymerDriving(2).hessian_origin()
    sch = power_law(alpha_exp=2, beta_exp=1, gamma_exp=0.5)
    s = DecompositionSample(epsilon=0.2, t=1, x=(0, 0), A=0.5, B=0.25,
                            C=-0.3, D=0.01, increment=0.46)
    m = macro_terms(s, sch, 0.5, hess, 2)
    assert list(m) == ["nu", "lambda", "D_coef", "xi", "time_derivative",
                       "laplacian_term", "grad_sq_term", "noise_term",
                       "remainder", "macro_residual"]
    co = coefficients(sch, 0.2, 2, hess, 0.5)
    assert (m["nu"], m["lambda"], m["D_coef"]) == (co.nu, co.lam, co.D)


def test_macro_terms_scale_each_piece():
    hess = PolymerDriving(1).hessian_origin()
    sch = intermediate_disorder_1d()
    eps = 0.2
    ratio = sch.gamma(eps) / sch.alpha(eps)
    s = DecompositionSample(epsilon=eps, t=1, x=(0,), A=0.5, B=0.25, C=-0.3,
                            D=0.01, increment=0.46)
    m = macro_terms(s, sch, 1.0, hess, 1)
    assert m["laplacian_term"] == pytest.approx(ratio * s.A, rel=1e-12)
    assert m["grad_sq_term"] == pytest.approx(ratio * s.B, rel=1e-12)
    assert m["noise_term"] == pytest.approx(ratio * s.C, rel=1e-12)
    assert m["remainder"] == pytest.approx(ratio * s.D, rel=1e-12)
    assert m["time_derivative"] == pytest.approx(ratio * s.increment,
                                                 rel=1e-12)


def test_xi_value_scaling():
    # sigma 1, alpha 1e-4, beta 1e-2, d=1: xi is 1000 times the raw draw
    hess = PolymerDriving(1).hessian_origin()
    sch = intermediate_disorder_1d()
    eps = 0.1
    s = DecompositionSample(epsilon=eps, t=3, x=(0,), A=0.0, B=0.0,
                            C=eps * 0.5, D=0.0, increment=eps * 0.5)
    assert macro_terms(s, sch, 1.0, hess, 1)["xi"] == pytest.approx(
        500.0, rel=1e-12)
    assert macro_terms(s, sch, 0.5, hess, 1)["xi"] == pytest.approx(
        1000.0, rel=1e-12)


# ---------------------------------------------------------------------------
# the Laplacian term against the rescaled field


def _rescaled(slices, alpha, beta, gamma):
    """F(t, x) = gamma f(ceil(t/alpha), ceil(x/beta)), a step function."""
    def F(t, x):
        v = tuple(math.ceil(c / beta) for c in x)
        return gamma * slices[math.ceil(t / alpha)].value_at(v)
    return F


def _discrete_laplacian(F, t, x, beta, d):
    """(2d+1)/beta^2 times (mean of F over x + beta*a, minus F at x)."""
    x = np.asarray(x, dtype=np.float64)
    mean = sum(F(t, x + beta * np.asarray(off))
               for off in stencil_offsets(d)) / (2 * d + 1)
    return (2 * d + 1) * (mean - F(t, x)) / beta ** 2


@pytest.mark.parametrize("name", ["polymer", "gkpz"])
@pytest.mark.parametrize("d", [1, 2])
def test_laplacian_term_equals_discrete_laplacian_in_cells(name, d):
    # at a cell interior ((m - 1/2) alpha, (v - 1/2) beta) the stencil
    # x + beta*a lands in the cells of the lattice neighbours v + a; at
    # the cell corners (m alpha, v beta) ceil can land one cell off
    phi = make_driving(name, d)
    hess = phi.hessian_origin()
    sch = power_law(alpha_exp=2, beta_exp=1, gamma_exp=0.5)
    g = LatticeGeometry(d, min_cone_side(5))
    nm = make_noise(seed=11)
    for eps in (0.5, 0.3, 0.1):
        slices = list(trajectory(EvolutionConfig(phi, nm, g, eps, T=5)))
        a, b, gam = sch.alpha(eps), sch.beta(eps), sch.gamma(eps)
        F = _rescaled(slices, a, b, gam)
        nu = coefficients(sch, eps, d, hess, nm.sigma).nu
        for m in range(1, 5):
            for v in itertools.product(range(g.lo, g.lo + g.L), repeat=d):
                s = macro_terms(decompose(slices[m], slices[m + 1], phi, nm,
                                          eps, v), sch, nm.sigma, hess, d)
                oracle = nu * _discrete_laplacian(
                    F, (m - 0.5) * a, [(c - 0.5) * b for c in v], b, d)
                scale = (nu * (2 * d + 1) * gam / b ** 2
                         * np.abs(slices[m].stencil_at(v)).max())
                assert abs(s["laplacian_term"] - oracle) <= 1e-13 * scale


def test_coefficients_dataclass_fields():
    co = Coefficients(nu=0.1, lam=0.2, D=0.3)
    assert (co.nu, co.lam, co.D) == (0.1, 0.2, 0.3)
