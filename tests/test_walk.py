"""Backward-walk derivative representation tests.

The exact walk law must agree with finite differences of the grown
surface, conserve mass, stay inside the dependence cone, and collapse to
a lazy uniform convolution whenever the gradient weights are constant.
"""
import numpy as np
import pytest

from kpzlab.driving import EdwardsWilkinsonDriving, PolymerDriving
from kpzlab.lattice import (ConeWrapWarning, EvolutionConfig, HeightSlice,
                            LatticeGeometry, capture)
from kpzlab.noise import make_noise
from kpzlab.walk import (backward_walk_distribution, derivative_fd,
                         derivative_pairs)
from oracles import CallableDriving, scalar_sample, zero_layer_shift


def _grown(phi, nm, L, eps, T, d=1):
    g = LatticeGeometry(d, L)
    run = EvolutionConfig(phi, nm, g, eps, T)
    return g, list(capture(run, range(T + 1)))


def _walk_derivative(masses, g, s, y, eps):
    """d f(t, x) / d z_{s,y} read off the walk's law, as derivative_pairs
    reads it."""
    return eps * float(masses[s][g.index(y)])


def _lazy_uniform_masses(T, L, x_index):
    """Exact reference law: T-fold convolution with kernel (1/3, 1/3, 1/3)."""
    cur = np.zeros(L)
    cur[x_index] = 1.0
    out = [cur.copy()]
    for _ in range(T):
        cur = (cur + np.roll(cur, +1) + np.roll(cur, -1)) / 3.0
        out.append(cur.copy())
    return out


def test_one_step_walk_is_point_mass():
    g, slices = _grown(PolymerDriving(1), make_noise(seed=1), 7, 0.4, 1)
    masses = backward_walk_distribution(slices, PolymerDriving(1), 1, (0,))
    assert len(masses) == 2
    assert masses[1][g.index((0,))] == 1.0
    # one backward step spreads mass over the whole stencil
    assert 0.0 < masses[0][g.index((0,))] < 1.0
    assert masses[0][g.index((1,))] > 0.0
    assert masses[0].sum() == pytest.approx(1.0, abs=1e-12)


def test_mass_conserved_every_layer():
    phi = PolymerDriving(1)
    g, slices = _grown(phi, make_noise(seed=2), 13, 0.6, 5)
    masses = backward_walk_distribution(slices, phi, 5, (1,))
    for s in range(0, 6):
        assert masses[s].sum() == pytest.approx(1.0, abs=1e-12)


def test_walk_stays_inside_cone():
    phi = PolymerDriving(1)
    g, slices = _grown(phi, make_noise(seed=3), 15, 0.5, 4)
    masses = backward_walk_distribution(slices, phi, 4, (0,))
    for s in range(0, 5):
        reach = 4 - s
        for x in range(g.lo, g.lo + g.L):
            if abs(x) > reach:
                assert masses[s][g.index((x,))] == 0.0


def test_walk_on_flat_history_is_lazy_convolution():
    # constant gradient weights 1/3 each: the law is the T-fold lazy kernel
    g = LatticeGeometry(1, 11)
    slices = [HeightSlice.flat(g, t=k) for k in range(5)]
    phi = PolymerDriving(1)
    masses = backward_walk_distribution(slices, phi, 4, (0,))
    ref = _lazy_uniform_masses(4, 11, g.index((0,))[0])
    for k in range(5):
        assert np.abs(masses[4 - k] - ref[k]).max() < 1e-14


def test_plain_mean_walk_ignores_environment():
    # the mean update has constant weights on any surface
    phi = EdwardsWilkinsonDriving(1)
    g, slices = _grown(phi, make_noise(seed=8), 11, 0.9, 4)
    masses = backward_walk_distribution(slices, phi, 4, (2,))
    ref = _lazy_uniform_masses(4, 11, g.index((2,))[0])
    for k in range(5):
        assert np.abs(masses[4 - k] - ref[k]).max() < 1e-14


def test_derivative_at_anchor_is_epsilon():
    phi = PolymerDriving(1)
    eps = 0.35
    g, slices = _grown(phi, make_noise(seed=4), 9, eps, 3)
    masses = backward_walk_distribution(slices, phi, 3, (0,))
    assert _walk_derivative(masses, g, 3, (0,), eps) == eps


def test_derivative_layer_sums_equal_epsilon():
    phi = PolymerDriving(1)
    eps = 0.5
    g, slices = _grown(phi, make_noise(seed=5), 13, eps, 5)
    masses = backward_walk_distribution(slices, phi, 5, (0,))
    for s in range(1, 6):
        total = sum(_walk_derivative(masses, g, s, (y,), eps)
                    for y in range(g.lo, g.lo + g.L))
        assert total == pytest.approx(eps, abs=1e-12 * eps)


def test_linear_dynamics_fd_is_exact_at_any_step():
    # the mean update is linear in every draw, so central differences carry
    # no truncation error even with a huge step
    phi = EdwardsWilkinsonDriving(1)
    nm = make_noise(seed=6)
    g = LatticeGeometry(1, 11)
    eps = 0.7
    run = EvolutionConfig(phi, nm, g, eps, T=4)
    masses = backward_walk_distribution(list(capture(run, range(4))), phi,
                                        4, (0,))
    for (s, y) in [(1, 0), (1, 2), (2, -1), (4, 0)]:
        walk = _walk_derivative(masses, g, s, (y,), eps)
        fd = derivative_fd(run, (0,), s, (y,), h=0.3)
        assert fd == pytest.approx(walk, abs=1e-12)


def test_walk_matches_fd_polymer():
    run = EvolutionConfig(PolymerDriving(1), make_noise(seed=7),
                          LatticeGeometry(1, 11), 0.4, T=5)
    pairs, mass_errors = derivative_pairs(run, (0,))
    assert len(pairs) == 25  # 9 + 7 + 5 + 3 + 1 cone sites
    for s, y, walk, fd in pairs:
        assert fd == pytest.approx(walk, rel=1e-6, abs=1e-9), (s, y)
    assert max(mass_errors) <= 1e-12


def test_fd_shifts_the_wrapped_site_on_a_small_torus():
    # T = 4 on side 5: the cone site y = 3 wraps to -2, the only key of
    # that site the torus reads, so the finite difference must shift it
    phi = PolymerDriving(1)
    nm = make_noise(seed=0)
    g = LatticeGeometry(1, 5)
    eps, T = 0.1, 4
    run = EvolutionConfig(phi, nm, g, eps, T)
    masses = backward_walk_distribution(list(capture(run, range(T))), phi,
                                        T, (0,))
    walk = _walk_derivative(masses, g, 1, (3,), eps)
    assert walk > 1e-3
    with pytest.warns(ConeWrapWarning):
        fd = derivative_fd(run, (0,), 1, (3,), h=1e-6)
        fd_canonical = derivative_fd(run, (0,), 1, (-2,), h=1e-6)
    assert fd == fd_canonical
    assert fd == pytest.approx(walk, rel=1e-6, abs=1e-9)


def test_fd_richardson_rate():
    # central differences converge at second order in the step
    phi = PolymerDriving(1)
    nm = make_noise(seed=7)
    g = LatticeGeometry(1, 9)
    eps = 0.5
    run = EvolutionConfig(phi, nm, g, eps, T=3)
    masses = backward_walk_distribution(list(capture(run, range(3))), phi,
                                        3, (0,))
    exact = _walk_derivative(masses, g, 1, (1,), eps)
    e1 = abs(derivative_fd(run, (0,), 1, (1,), h=1e-2) - exact)
    e2 = abs(derivative_fd(run, (0,), 1, (1,), h=5e-3) - exact)
    assert 3.0 <= e1 / e2 <= 5.0


def test_zero_layer_shift_one_step_equality():
    # at horizon 1 the erased layer is the only noise ever seen at the
    # anchor, so the shift saturates its bound exactly
    phi = PolymerDriving(1)
    nm = make_noise(seed=10)
    g = LatticeGeometry(1, 5)
    eps = 0.6
    shift, bound = zero_layer_shift(phi, nm, g, eps, 1, (0,))
    assert abs(shift) == bound
    assert shift == eps * scalar_sample(nm, 1, (0,))


def test_zero_layer_shift_bounded_many_seeds():
    phi = PolymerDriving(1)
    g = LatticeGeometry(1, 41)
    for seed in range(40):
        t = 1 + seed % 20
        eps = 0.05 + 0.9 * ((seed * 7) % 11) / 11.0
        shift, bound = zero_layer_shift(phi, make_noise(seed=seed), g, eps,
                                        t, (0,))
        assert abs(shift) <= bound + 1e-12


def test_zero_layer_shift_linear_dynamics_closed_form():
    # mean dynamics: the shift is eps times the lazy-kernel average of the
    # first layer, computed here independently by convolution
    phi = EdwardsWilkinsonDriving(1)
    nm = make_noise(seed=12)
    L, eps, T = 17, 0.8, 4
    g = LatticeGeometry(1, L)
    shift, bound = zero_layer_shift(phi, nm, g, eps, T, (0,))
    z1 = nm.sample_grid(1, g.site_mesh())
    kerneled = z1.copy()
    for _ in range(T - 1):
        kerneled = (kerneled + np.roll(kerneled, 1) + np.roll(kerneled, -1)) / 3.0
    expect = eps * kerneled[g.index((0,))]
    assert shift == pytest.approx(expect, abs=1e-12)
    assert abs(shift) <= bound


def test_walk_rejects_non_monotone_update():
    # an equivariant but order-reversing rule has a negative weight
    def skew(u):
        return float(u.mean() + 0.5 * (u[1] - u[0]))

    phi = CallableDriving(1, skew, name="skew")
    g = LatticeGeometry(1, 7)
    slices = [HeightSlice.flat(g, t=k) for k in range(3)]
    with pytest.raises(ArithmeticError, match="monotone"):
        backward_walk_distribution(slices, phi, 2, (0,))


def test_backward_walk_needs_slices_from_zero():
    # the walk from (t, x) reads slices 0..t-1, indexed by their time
    phi = PolymerDriving(1)
    g, slices = _grown(phi, make_noise(seed=13), 9, 0.4, 4)
    full = backward_walk_distribution(slices, phi, 4, (0,))
    # slices past t-1 are never read
    short = backward_walk_distribution(slices[:4], phi, 4, (0,))
    assert all(np.array_equal(a, b) for a, b in zip(full, short))
    for bad in (slices[:3], slices[1:], [slices[0], slices[2], slices[1],
                                         slices[3]], []):
        with pytest.raises(ValueError, match="needs the slices"):
            backward_walk_distribution(bad, phi, 4, (0,))
