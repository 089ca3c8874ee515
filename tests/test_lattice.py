"""Lattice geometry, growth recursion, path-sum oracle, snapshots.

The recursion is validated against closed forms at small horizons and
against the independent path-enumeration oracle; the torus must reproduce
infinite-lattice values exactly whenever the dependence cone fits.
"""
import math

import numpy as np
import pytest
from scipy import stats

from kpzlab.driving import (EdwardsWilkinsonDriving, PolymerDriving,
                            make_driving)
from kpzlab.lattice import (ConeWrapWarning, EvolutionConfig, HeightHistory,
                            HeightSlice, LatticeGeometry, evolve,
                            load_slice, min_cone_side, polymer_path_sum,
                            save_slice, slice_csv_rows, step)
from kpzlab.noise import make_noise


class ShiftedNoise:
    """View of a base field with all space keys displaced by a fixed offset.

    Only used to make translation equivariance literal: growing under the
    shifted field must reproduce the original surface shifted in space.
    """

    def __init__(self, base, dx: int):
        self.base = base
        self.dx = dx

    def sample_grid(self, t, coords):
        return self.base.sample_grid(t, [coords[0] + self.dx, *coords[1:]])

    def sample(self, t, x):
        return self.base.sample(t, (x[0] + self.dx, *x[1:]))


# ---------------------------------------------------------------------------
# geometry


def test_geometry_window():
    g = LatticeGeometry(1, 5)
    assert (g.lo, g.hi, g.n_sites) == (-2, 2, 5)
    assert g.wrap(3) == (-2,)
    assert g.wrap(-3) == (2,)
    assert g.index((2,)) == (4,)
    assert list(g.sites()) == [(-2,), (-1,), (0,), (1,), (2,)]


def test_geometry_2d():
    g = LatticeGeometry(2, 4)
    assert g.lo == -2 and g.hi == 1
    assert g.wrap((2, -3)) == (-2, 1)
    assert g.shape == (4, 4)
    mesh = g.site_mesh()
    flat = list(zip(mesh[0].ravel(), mesh[1].ravel()))
    assert flat == [tuple(s) for s in g.sites()]


def test_geometry_validation():
    with pytest.raises(ValueError):
        LatticeGeometry(0, 5)
    with pytest.raises(ValueError):
        LatticeGeometry(1, 2)


def test_min_cone_side():
    assert min_cone_side(3) == 7
    assert min_cone_side(0) == 1


# ---------------------------------------------------------------------------
# slices


def test_slice_stencil_order_and_wrap():
    g = LatticeGeometry(1, 5)
    sl = HeightSlice(g, 0, np.array([10.0, 11.0, 12.0, 13.0, 14.0]))
    # values indexed by canonical sites -2..2
    assert sl.value_at((0,)) == 12.0
    assert list(sl.stencil_at((0,))) == [12.0, 13.0, 11.0]
    # wrap at the window edge
    assert list(sl.stencil_at((2,))) == [14.0, 10.0, 13.0]
    assert sl.local_average((0,)) == pytest.approx(12.0)


def test_stencil_2d_order():
    g = LatticeGeometry(2, 5)
    vals = np.zeros((5, 5))
    vals[g.index((0, 0))] = 1.0
    vals[g.index((1, 0))] = 2.0
    vals[g.index((-1, 0))] = 3.0
    vals[g.index((0, 1))] = 4.0
    vals[g.index((0, -1))] = 5.0
    sl = HeightSlice(g, 0, vals)
    assert list(sl.stencil_at((0, 0))) == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_local_average_worked():
    g = LatticeGeometry(1, 5)
    vals = np.zeros(5)
    sl = HeightSlice(g, 0, vals)
    sl.values[g.index((0,))] = 0.0
    sl.values[g.index((1,))] = 0.2
    sl.values[g.index((-1,))] = 0.1
    assert sl.local_average((0,)) == pytest.approx(0.1, abs=1e-16)


def test_discrete_gradient():
    g = LatticeGeometry(2, 5)
    mesh = g.site_mesh()
    sl = HeightSlice(g, 0, mesh[0].astype(float))  # f = x1
    grad = sl.discrete_gradient((0, 0))
    assert grad[0] == 1.0 and grad[1] == 0.0
    const = HeightSlice.flat(g, height=2.5)
    assert np.all(const.discrete_gradient((1, 1)) == 0.0)


def test_gradient_field_matches_pointwise():
    g = LatticeGeometry(1, 7)
    rng = np.random.default_rng(0)
    sl = HeightSlice(g, 0, rng.uniform(size=7))
    gf = sl.gradient_field(axis=0)
    for x in range(g.lo, g.lo + g.L):
        assert gf[g.index((x,))] == pytest.approx(
            sl.value_at((x + 1,)) - sl.value_at((x,)), abs=0)


@pytest.mark.parametrize("d,L", [(2, 9), (3, 7)])
def test_step_equals_full_mesh_formula(d, L):
    # step draws on cached open site axes; the full-mesh formula is the
    # reference it replaced
    g = LatticeGeometry(d, L)
    phi = make_driving("gkpz", d)
    nm = make_noise("triangular", 1.2, seed=17).perturb_at(4, (1,) * d, 0.5)
    vals = np.random.default_rng(d).uniform(-1, 1, size=g.shape)
    sl = HeightSlice(g, 3, vals)
    U = [vals]
    for axis in range(d):
        U += [np.roll(vals, -1, axis=axis), np.roll(vals, 1, axis=axis)]
    eps = 0.3
    ref = phi.value_many(np.stack(U)) + eps * nm.sample_grid(4, g.site_mesh())
    got = step(sl, phi, nm, eps).values
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def test_slice_shape_validation():
    g = LatticeGeometry(2, 4)
    with pytest.raises(ValueError):
        HeightSlice(g, 0, np.zeros(16))


def test_history_consecutive():
    g = LatticeGeometry(1, 3)
    a = HeightSlice.flat(g, t=0)
    b = HeightSlice.flat(g, t=1)
    h = HeightHistory([a, b])
    assert h.start_t == 0 and h.end_t == 1 and h.final is b
    with pytest.raises(KeyError):
        h.at(2)
    with pytest.raises(ValueError):
        HeightHistory([a, HeightSlice.flat(g, t=2)])
    with pytest.raises(ValueError):
        HeightHistory([])


# ---------------------------------------------------------------------------
# one growth step


def test_first_step_is_pure_noise():
    # phi vanishes on the flat start, so f(1, x) = eps * z_{1,x}
    g = LatticeGeometry(1, 9)
    nm = make_noise(seed=2)
    eps = 0.3
    for phi in (PolymerDriving(1), EdwardsWilkinsonDriving(1)):
        nxt = step(HeightSlice.flat(g, t=0), phi, nm, eps)
        assert nxt.t == 1
        for x in range(g.lo, g.lo + g.L):
            assert nxt.value_at((x,)) == pytest.approx(
                eps * nm.sample(1, (x,)), abs=1e-16)


def test_ew_step_closed_form():
    g = LatticeGeometry(1, 7)
    rng = np.random.default_rng(1)
    sl = HeightSlice(g, 3, rng.uniform(size=7))
    nm = make_noise(seed=5)
    nxt = step(sl, EdwardsWilkinsonDriving(1), nm, 0.2)
    for x in range(g.lo, g.lo + g.L):
        expect = sl.local_average((x,)) + 0.2 * nm.sample(4, (x,))
        assert nxt.value_at((x,)) == pytest.approx(expect, abs=1e-15)


def test_polymer_two_steps_closed_form():
    # f(2, x) = eps z2x + log( (1/3) sum_a exp(eps z_{1, x+a}) )
    g = LatticeGeometry(1, 7)
    nm = make_noise(seed=8)
    eps = 0.4
    hist = evolve(EvolutionConfig(PolymerDriving(1), nm, g, eps, T=2))
    x = 0
    z1 = [nm.sample(1, (x + a,)) for a in (0, 1, -1)]
    expect = eps * nm.sample(2, (x,)) + math.log(
        sum(math.exp(eps * z) for z in z1) / 3.0)
    assert hist.final.value_at((x,)) == pytest.approx(expect, abs=1e-13)


def test_step_shift_covariance():
    g = LatticeGeometry(1, 9)
    rng = np.random.default_rng(4)
    sl = HeightSlice(g, 0, rng.uniform(size=9))
    shifted = HeightSlice(g, 0, sl.values + 5.0)
    nm = make_noise(seed=3)
    phi = PolymerDriving(1)
    a = step(sl, phi, nm, 0.3)
    b = step(shifted, phi, nm, 0.3)
    assert np.abs(b.values - a.values - 5.0).max() < 1e-12


# ---------------------------------------------------------------------------
# evolve


def test_evolve_zero_horizon():
    g = LatticeGeometry(1, 5)
    cfg = EvolutionConfig(PolymerDriving(1), make_noise(), g, 0.5, T=0)
    hist = evolve(cfg)
    assert isinstance(hist, HeightHistory)
    assert len(hist.slices) == 1 and np.all(hist.final.values == 0.0)


def test_evolve_deterministic():
    g = LatticeGeometry(2, 7)
    cfg = EvolutionConfig(PolymerDriving(2), make_noise(seed=13), g, 0.3, T=3,
                          keep_history=False)
    a = evolve(cfg)
    b = evolve(cfg)
    assert np.array_equal(a.values, b.values)


def test_evolve_validation():
    g = LatticeGeometry(1, 5)
    with pytest.raises(ValueError):
        EvolutionConfig(PolymerDriving(1), make_noise(), g, 0.0, T=1)
    with pytest.raises(ValueError):
        EvolutionConfig(PolymerDriving(1), make_noise(), g, 1.5, T=1)
    with pytest.raises(ValueError):
        EvolutionConfig(PolymerDriving(1), make_noise(), g, 0.5, T=-1)
    with pytest.raises(ValueError):
        EvolutionConfig(PolymerDriving(2), make_noise(), g, 0.5, T=1)


def test_cone_exactness_torus_size_invariance():
    # a site carries the infinite-lattice value exactly when its whole
    # dependence cone sits inside the canonical window (noise keys are
    # canonical coordinates, so sites near the window edge wrap their keys)
    nm = make_noise(seed=21)
    phi = PolymerDriving(1)
    T, eps = 3, 0.5
    small = evolve(EvolutionConfig(phi, nm, LatticeGeometry(1, 9), eps, T,
                                   keep_history=False))
    big = evolve(EvolutionConfig(phi, nm, LatticeGeometry(1, 101), eps, T,
                                 keep_history=False))
    for x in (-1, 0, 1):  # |x| + T <= (9-1)/2
        assert small.value_at((x,)) == big.value_at((x,))


def test_cone_exactness_2d():
    nm = make_noise(seed=22)
    phi = PolymerDriving(2)
    small = evolve(EvolutionConfig(phi, nm, LatticeGeometry(2, 5), 0.5, 2,
                                   keep_history=False))
    big = evolve(EvolutionConfig(phi, nm, LatticeGeometry(2, 11), 0.5, 2,
                                 keep_history=False))
    # only the anchor's cone fits inside the 5-wide canonical window
    assert small.value_at((0, 0)) == big.value_at((0, 0))


def test_wrap_warning_when_cone_outruns_torus():
    g = LatticeGeometry(1, 5)
    cfg = EvolutionConfig(PolymerDriving(1), make_noise(), g, 0.5, T=3)
    with pytest.warns(ConeWrapWarning):
        evolve(cfg)


def test_translation_equivariance_literal():
    # growing under the key-shifted field equals the shifted surface
    nm = make_noise(seed=17)
    phi = PolymerDriving(1)
    T, dx, eps = 3, 2, 0.5
    base = evolve(EvolutionConfig(phi, nm, LatticeGeometry(1, 2 * T + 1 + 2 * dx),
                                  eps, T, keep_history=False))
    moved = evolve(EvolutionConfig(phi, ShiftedNoise(nm, dx),
                                   LatticeGeometry(1, 2 * T + 1), eps, T,
                                   keep_history=False))
    assert moved.value_at((0,)) == base.value_at((dx,))


def test_translation_invariance_in_law():
    # gradients at two distant sites, independent replica pools: same law
    phi = PolymerDriving(1)
    T, L, eps, n = 4, 16, 0.4, 300

    def grads(site, seeds):
        out = []
        for s in seeds:
            sl = evolve(EvolutionConfig(phi, make_noise(seed=s),
                                        LatticeGeometry(1, L), eps, T,
                                        keep_history=False))
            out.append(sl.value_at((site + 1,)) - sl.value_at((site,)))
        return np.array(out)

    a = grads(0, range(n))
    b = grads(5, range(n, 2 * n))
    res = stats.ks_2samp(a, b)
    assert res.statistic <= 1.628 * math.sqrt(2.0 / n)  # 1% critical value


# ---------------------------------------------------------------------------
# path-sum oracle


def test_path_sum_one_step():
    nm = make_noise(seed=6)
    assert polymer_path_sum(nm, 0.3, 1, (2,), 1) == pytest.approx(
        0.3 * nm.sample(1, (2,)), abs=1e-15)


def test_path_sum_two_steps_closed_form():
    nm = make_noise(seed=6)
    eps, x = 0.5, 0
    expect = eps * nm.sample(2, (x,)) + math.log(
        sum(math.exp(eps * nm.sample(1, (x + a,))) for a in (0, 1, -1)) / 3.0)
    assert polymer_path_sum(nm, eps, 2, (x,), 1) == pytest.approx(expect,
                                                                  abs=1e-13)


def test_path_sum_matches_recursion_small():
    nm = make_noise(seed=30)
    eps, T = 0.4, 4
    # window wide enough that the cones of |x| <= 2 never wrap keys
    hist = evolve(EvolutionConfig(PolymerDriving(1), nm,
                                  LatticeGeometry(1, 2 * T + 1 + 4), eps, T))
    for t in (1, 2, 3, 4):
        for x in (-1, 0, 2):
            assert hist.at(t).value_at((x,)) == pytest.approx(
                polymer_path_sum(nm, eps, t, (x,), 1), abs=1e-12)


def test_path_sum_budget_guard():
    nm = make_noise()
    with pytest.raises(ValueError, match="budget"):
        polymer_path_sum(nm, 0.3, 9, (0,), 1)  # 3^8 paths
    with pytest.raises(ValueError):
        polymer_path_sum(nm, 0.3, 0, (0,), 1)
    # explicit budget raises earlier
    with pytest.raises(ValueError, match="budget"):
        polymer_path_sum(nm, 0.3, 4, (0,), 1, budget=10)


# ---------------------------------------------------------------------------
# snapshots


def test_snapshot_roundtrip(tmp_path):
    g = LatticeGeometry(2, 5)
    rng = np.random.default_rng(2)
    sl = HeightSlice(g, 7, rng.uniform(size=(5, 5)))
    path = tmp_path / "slice.kpzs"
    save_slice(path, sl, 0.25, 99)
    back, eps, seed = load_slice(path)
    assert np.array_equal(back.values, sl.values)
    assert back.t == 7 and back.geometry == g
    assert eps == 0.25 and seed == 99


def test_snapshot_rejects_garbage(tmp_path):
    short = tmp_path / "short.bin"
    short.write_bytes(b"too short")
    with pytest.raises(ValueError):
        load_slice(short)
    wrong = tmp_path / "wrong.bin"
    wrong.write_bytes(b"X" * 64)  # full header size, bad magic
    with pytest.raises(ValueError):
        load_slice(wrong)


def test_csv_rows_cover_all_sites():
    g = LatticeGeometry(1, 5)
    sl = HeightSlice(g, 2, np.arange(5.0))
    rows = list(slice_csv_rows(sl, 0.1, 3))
    assert len(rows) == 5
    assert rows[0]["x1"] == -2 and rows[-1]["x1"] == 2
    assert rows[0]["value"] == 0.0 and rows[-1]["value"] == 4.0
    assert all(r["t"] == 2 and r["epsilon"] == 0.1 and r["seed"] == 3
               for r in rows)


def test_make_driving_dimension_consistency():
    for name in ("polymer", "gkpz", "ew"):
        phi = make_driving(name, 2)
        assert phi.d == 2 and phi.n == 5
