"""Scaling schemes, macroscopic coefficients, and the exact decomposition.

The four-piece split of a one-step increment is checked on hand-built
stencils, on degenerate dynamics, and against the macroscopic identity;
the Laplacian term must equal nu times the discrete Laplacian of the
rescaled field at every cell interior, up to rounding. The coefficients
nu, lambda and D_coef are macro_terms columns, and a plan refuses a
scheme exactly when a column of a unit sample is not finite.
"""
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpzlab.driving import (EdwardsWilkinsonDriving, PolymerDriving,
                            make_driving, stencil_offsets)
from kpzlab.lattice import (EvolutionConfig, HeightSlice, LatticeGeometry,
                            capture, min_cone_side, step)
from kpzlab.noise import make_noise
from kpzlab.config import ConfigError
from kpzlab.rescale import (DecompositionSample, decompose, exponential_2d,
                            macro_terms, make_scheme, power_law)
from kpzlab.studies import ExperimentPlan
from oracles import scalar_sample


def _unit_columns(scheme, eps, d, hess, sigma):
    """macro_terms of a unit sample (A = B = C = D = 1) at eps."""
    s = DecompositionSample(epsilon=eps, t=0, x=(0,) * d, A=1.0, B=1.0,
                            C=1.0, D=1.0, increment=4.0)
    return macro_terms(s, scheme, sigma, hess, d)

# ---------------------------------------------------------------------------
# schemes


def test_scheme_presets():
    a = make_scheme("intermediate-disorder-1d")
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


def test_intermediate_disorder_is_the_old_scheme_bit_for_bit():
    # the preset is power_law(4.0, 2.0); the scheme it replaced returned
    # eps**4, eps**2 and 1.0, and every eps a run reads must keep its bits,
    # as a float and as the np.float64 that ExperimentPlan.scheme_at passes
    grids = [0.3, 0.25, 0.2, 0.1, 0.05, 0.025, 1.0, 5e-324, 2.2e-308]
    draws = np.random.default_rng(28).uniform(0.0, 1.0, 100_000)
    sch = make_scheme("intermediate-disorder-1d")
    for e in grids + [1.0 - float(u) for u in draws]:
        for x in (e, np.float64(e)):
            got = [float(f(x)).hex() for f in (sch.alpha, sch.beta,
                                                 sch.gamma)]
            assert got == [float(x ** 4).hex(), float(x ** 2).hex(),
                           (1.0).hex()], e


def test_make_scheme_kwargs():
    sch = make_scheme("power-law", alpha_exp=2, beta_exp=1, gamma_exp=0.5,
                      alpha_coef=3.0)
    assert sch.alpha(0.5) == pytest.approx(0.75)
    assert sch.gamma(0.25) == pytest.approx(0.5)
    sch2 = make_scheme("2d-exponential", C=1.5)
    assert sch2.alpha(1.0) == pytest.approx(math.exp(-1.5))


def test_validate_on_grid():
    sch = make_scheme("intermediate-disorder-1d")
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
    sch = make_scheme("intermediate-disorder-1d")
    for eps in (0.5, 0.3, 0.1, 0.05, 0.01):
        m = _unit_columns(sch, eps, 1, hess, sigma=1.0)
        assert m["nu"] == pytest.approx(1 / 3, abs=1e-12)
        assert m["lambda"] == pytest.approx(2 / 3, abs=1e-12)
        assert m["D_coef"] == pytest.approx(1.0, abs=1e-12)


def test_coefficients_gamma_homogeneity():
    hess = PolymerDriving(1).hessian_origin()
    one = power_law(alpha_exp=2, beta_exp=1, gamma_coef=1.0)
    two = power_law(alpha_exp=2, beta_exp=1, gamma_coef=2.0)
    c1 = _unit_columns(one, 0.2, 1, hess, 1.0)
    c2 = _unit_columns(two, 0.2, 1, hess, 1.0)
    assert c2["nu"] == pytest.approx(c1["nu"])
    assert c2["lambda"] == pytest.approx(c1["lambda"] / 2)
    assert c2["D_coef"] == pytest.approx(4 * c1["D_coef"])


def test_coefficients_d2():
    hess = PolymerDriving(2).hessian_origin()
    sch = power_law(alpha_exp=2, beta_exp=1)  # beta^2 = alpha
    assert _unit_columns(sch, 0.3, 2, hess, 1.0)["nu"] == pytest.approx(
        1 / 5, abs=1e-12)


def test_coefficients_reject_degenerate():
    hess = EdwardsWilkinsonDriving(1).hessian_origin()
    with pytest.raises(ValueError, match="degenerate"):
        _unit_columns(make_scheme("intermediate-disorder-1d"), 0.2, 1, hess,
                      1.0)


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
    s0, s1, s2 = capture(EvolutionConfig(phi, nm, g, 0.3, T=2), (0, 1, 2))
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
    sch = make_scheme("intermediate-disorder-1d")
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
    # the coefficients do not depend on the sample
    co = _unit_columns(sch, 0.2, 2, hess, 0.5)
    assert (m["nu"], m["lambda"], m["D_coef"]) == (co["nu"], co["lambda"],
                                                   co["D_coef"])


def test_macro_terms_scale_each_piece():
    hess = PolymerDriving(1).hessian_origin()
    sch = make_scheme("intermediate-disorder-1d")
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
    sch = make_scheme("intermediate-disorder-1d")
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
        slices = list(capture(EvolutionConfig(phi, nm, g, eps, T=5),
                              range(6)))
        a, b, gam = sch.alpha(eps), sch.beta(eps), sch.gamma(eps)
        F = _rescaled(slices, a, b, gam)
        nu = _unit_columns(sch, eps, d, hess, nm.sigma)["nu"]
        for m in range(1, 5):
            for v in itertools.product(range(g.lo, g.lo + g.L), repeat=d):
                s = macro_terms(decompose(slices[m], slices[m + 1], phi, nm,
                                          eps, v), sch, nm.sigma, hess, d)
                oracle = nu * _discrete_laplacian(
                    F, (m - 0.5) * a, [(c - 0.5) * b for c in v], b, d)
                scale = (nu * (2 * d + 1) * gam / b ** 2
                         * np.abs(slices[m].stencil_at(v)).max())
                assert abs(s["laplacian_term"] - oracle) <= 1e-13 * scale


def _plan(d=2, phi_name="polymer", coupling=None, noise_scale=math.sqrt(3),
          **kw):
    """A plan on the power-law scheme with the keyword values kw."""
    params = ExperimentPlan().scheme_params
    return ExperimentPlan(d=d, phi_name=phi_name, coupling=coupling,
                          noise_scale=noise_scale,
                          scheme_params={**params, **kw})


@pytest.mark.parametrize("kw, eps, named", [
    # 0.1 ** -400 overflows a float
    (dict(alpha_exp=-400), 0.1, "alpha = inf"),
    (dict(gamma_coef=-1.0), 0.5, "gamma = -1.0"),
    (dict(beta_coef=1e-310), 0.5, "beta = 5e-311"),
    # every value normal, but gamma^2 overflows in the D coefficient
    (dict(gamma_coef=1e200), 0.5, "D_coef = inf"),
    # beta is normal, but beta^2 underflows to zero: 0/0 in the Laplacian
    (dict(beta_coef=1e-170), 0.5, "laplacian_term = nan"),
    # alpha and gamma are normal, but alpha gamma, the divisor of the
    # lambda coefficient, underflows to zero
    (dict(alpha_exp=200, gamma_exp=200), 0.1, "lambda = inf"),
    # sigma^2 = 1e400 overflows in the D coefficient, and the refusal
    # names the noise scale
    (dict(noise_scale=1e200), 0.1, "D_coef = inf"),
    (dict(noise_scale=1e200), 0.1, "model.noise_scale=1e+200"),
])
def test_scheme_at_refuses_values_no_run_can_use(kw, eps, named):
    with pytest.raises(ConfigError, match=re.escape(named)):
        _plan(**kw).scheme_at((eps,))
    _plan().scheme_at((eps,))


# random power-law schemes: exponents and coefficients whose values stay
# normal on eps in [0.05, 1] (alpha >= 0.1 * 0.05^6 > 1e-9)
_TAME = dict(alpha_exp=st.floats(0.0, 6.0), beta_exp=st.floats(0.0, 6.0),
             gamma_exp=st.floats(-3.0, 3.0), alpha_coef=st.floats(0.1, 10.0),
             beta_coef=st.floats(0.1, 10.0), gamma_coef=st.floats(0.1, 10.0))


def _close(x, y, ulps=8):
    return abs(x - y) <= ulps * math.ulp(y)


@given(kw=st.fixed_dictionaries(_TAME), eps=st.floats(0.05, 1.0),
       d=st.integers(1, 3), phi_name=st.sampled_from(["polymer", "gkpz"]),
       sigma=st.floats(0.1, 10.0))
@settings(max_examples=300, deadline=None)
def test_every_macro_factor_is_gamma_over_alpha(kw, eps, d, phi_name, sigma):
    # nu(2d+1)gamma/beta^2, (lambda/2)gamma^2/((q-r)beta^2) and
    # sqrt(D)/(eps sigma sqrt(alpha) beta^(d/2)) each equal gamma/alpha
    hess = make_driving(phi_name, d).hessian_origin()
    sch = power_law(**kw)
    a, b, g = sch.alpha(eps), sch.beta(eps), sch.gamma(eps)
    m = _unit_columns(sch, eps, d, hess, sigma)
    k = g / a
    assert _close(m["nu"] * (2 * d + 1) * g / b ** 2, k)
    assert _close(m["lambda"] / 2 * g ** 2 / (hess.q_minus_r * b ** 2), k)
    assert _close(math.sqrt(m["D_coef"])
                  / (eps * sigma * math.sqrt(a) * b ** (d / 2)), k)
    assert _close(m["time_derivative"], 4 * k)


def _unusable(plan, eps):
    """Whether some scheme value or unit-sample column is not finite, found
    with Python floats, where a division by zero or an overflowing power
    raises instead of giving inf or NaN."""
    sch = plan.scheme()
    try:
        values = (sch.alpha(eps), sch.beta(eps), sch.gamma(eps))
        if not all(math.isfinite(v) and v >= 2.2250738585072014e-308
                   for v in values):
            return True
        hess = plan.phi().hessian_origin()
        if hess.degenerate:
            return False
        m = _unit_columns(sch, eps, plan.d, hess, plan.noise_for(0).sigma)
    except (ZeroDivisionError, OverflowError):
        return True
    return not all(map(math.isfinite, m.values()))


# power-law schemes from tame to unusable: extreme exponents and
# coefficients overflow, underflow or reach a subnormal value
_WILD = dict(
    alpha_exp=st.one_of(st.floats(0.0, 8.0), st.floats(-400.0, 400.0)),
    beta_exp=st.one_of(st.floats(0.0, 8.0), st.floats(-200.0, 200.0)),
    gamma_exp=st.one_of(st.floats(-4.0, 4.0), st.floats(-400.0, 400.0)),
    alpha_coef=st.sampled_from([1.0, 3.0, 1e-300, 1e300, 1e-310]),
    beta_coef=st.sampled_from([1.0, 0.5, 1e-170, 1e160, 1e-300]),
    gamma_coef=st.sampled_from([1.0, 2.0, 1e-200, 1e200, -1.0]))


@given(kw=st.fixed_dictionaries(_WILD), eps=st.floats(0.01, 1.0),
       d=st.integers(1, 3),
       phi_name=st.sampled_from(["polymer", "gkpz", "ew"]),
       noise_scale=st.sampled_from([math.sqrt(3), 1e-200, 1e200]))
@settings(max_examples=400, deadline=None)
def test_scheme_at_refuses_exactly_the_unusable(kw, eps, d, phi_name,
                                                noise_scale):
    # under ew, whose hessian is degenerate, no column is formed, so only
    # alpha, beta and gamma are checked
    plan = _plan(d=d, phi_name=phi_name, noise_scale=noise_scale, **kw)
    try:
        plan.scheme_at((eps,))
        refused = False
    except ConfigError:
        refused = True
    assert refused == _unusable(plan, eps)
