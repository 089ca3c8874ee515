"""Lattice geometry, growth recursion, path-sum oracle, CSV export.

The recursion is validated against closed forms at small horizons and
against the independent path-enumeration oracle; the torus must reproduce
infinite-lattice values exactly whenever the dependence cone fits.
"""
import itertools
import math

import numpy as np
import pytest
from scipy import stats

import kpzlab.lattice as lattice_mod
import kpzlab.noise as noise_mod
from kpzlab.driving import (_PHI_BLOCK, EdwardsWilkinsonDriving,
                            PolymerDriving, make_driving)
from kpzlab.lattice import (ConeWrapWarning, EvolutionConfig, HeightSlice,
                            LatticeGeometry, _site_axes, capture, evolve,
                            min_cone_side, slice_columns, step)
from kpzlab.noise import _BLOCK, NoiseModel, blocks, make_noise
from kpzlab.rescale import evolve_and_decompose
from oracles import (CallableDriving, polymer_path_sum, scalar_sample,
                     unblocked_evolve)


class ShiftedNoise:
    """View of a base field with all space keys displaced by a fixed offset.

    Only used to make translation equivariance literal: growing under the
    shifted field must reproduce the original surface shifted in space.
    """

    def __init__(self, base, dx: int):
        self.base = base
        self.dx = dx

    def sample_spacetime(self, times, coords):
        return self.base.sample_spacetime(times,
                                          [coords[0] + self.dx, *coords[1:]])


# ---------------------------------------------------------------------------
# geometry


def test_geometry_window():
    g = LatticeGeometry(1, 5)
    assert (g.lo, g.n_sites) == (-2, 5)
    assert g.wrap(3) == (-2,)
    assert g.wrap(-3) == (2,)
    assert g.index((2,)) == (4,)


def test_geometry_2d():
    g = LatticeGeometry(2, 4)
    assert g.lo == -2
    assert g.wrap((2, -3)) == (-2, 1)
    assert g.shape == (4, 4)
    mesh = g.site_mesh()
    flat = list(zip(mesh[0].ravel(), mesh[1].ravel()))
    assert flat == list(itertools.product(range(-2, 2), repeat=2))


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


def test_gradient_field_matches_pointwise():
    # the stationarity study's forward gradient f(x + e_1) - f(x)
    g = LatticeGeometry(1, 7)
    rng = np.random.default_rng(0)
    sl = HeightSlice(g, 0, rng.uniform(size=7))
    gf = sl.stencil_stack()[1] - sl.values
    for x in range(g.lo, g.lo + g.L):
        assert gf[g.index((x,))] == pytest.approx(
            sl.value_at((x + 1,)) - sl.value_at((x,)), abs=0)


def _roll_stack(vals):
    """Stencil stack by np.roll, the reference for stencil_stack."""
    U = [vals]
    for axis in range(vals.ndim):
        U += [np.roll(vals, -1, axis=axis), np.roll(vals, 1, axis=axis)]
    return np.stack(U)


def _boxes(d, L, rng):
    """The whole lattice, every block step uses, single sites at every
    corner, boxes that span one axis and so touch both of its torus edges,
    and random boxes, each a (start, stop) pair per axis."""
    boxes = [((0, L),) * d]
    boxes += [tuple((s.start, s.stop) for s in cut)
              for cut in blocks((L,) * d, _PHI_BLOCK)]
    boxes += [tuple((c, c + 1) for c in corner)
              for corner in itertools.product((0, L - 1), repeat=d)]
    boxes += [tuple((0, L) if j == i else (L // 2, L // 2 + 1)
                    for j in range(d)) for i in range(d)]
    for _ in range(20):
        starts = rng.integers(0, L, size=d)
        boxes.append(tuple((int(a), int(rng.integers(a + 1, L + 1)))
                           for a in starts))
    return boxes


@pytest.mark.parametrize("d,L", [(1, 3), (1, 4), (2, 3), (2, 6), (3, 3),
                                 (3, 4), (1, 20001), (2, 91), (2, 321),
                                 (3, 23)])
def test_stencil_stack_equals_roll_oracle(d, L):
    # every box of _boxes against the same part of the rolled stack, and
    # stencil_at at every site, named by its canonical coordinates shifted
    # by -1, 0 or 1 whole turns per axis
    g = LatticeGeometry(d, L)
    vals = np.random.default_rng(L + d).uniform(-1, 1, size=g.shape)
    sl = HeightSlice(g, 0, vals)
    ref = _roll_stack(vals)
    assert np.array_equal(sl.stencil_stack().view(np.uint64),
                          ref.view(np.uint64))
    for box in _boxes(d, L, np.random.default_rng(d * L)):
        got = sl.stencil_stack(box)
        part = ref[(slice(None),) + tuple(slice(a, b) for a, b in box)]
        assert got.shape == part.shape, box
        assert np.array_equal(got.view(np.uint64), part.view(np.uint64)), box
    turns = np.random.default_rng(d).integers(-1, 2, size=(g.n_sites, d))
    for idx, k in zip(itertools.product(range(L), repeat=d), turns):
        x = tuple(int(i + g.lo + L * n) for i, n in zip(idx, k))
        assert np.array_equal(sl.stencil_at(x).view(np.uint64),
                              ref[(slice(None),) + idx].view(np.uint64)), x


class _CountedPolymer(PolymerDriving):
    def __init__(self, d):
        super().__init__(d)
        self.shapes = []

    def value_many(self, U):
        self.shapes.append(U.shape)
        return super().value_many(U)


@pytest.mark.parametrize("d,L,count", [
    (1, 8192, 1), (2, 90, 1), (3, 20, 1), (2, 81, 1), (1, 3, 1),
    (1, 8193, 2), (2, 91, 2), (2, 321, 13), (3, 23, 2), (3, 91, 182)])
def test_step_evaluates_phi_in_blocks(d, L, count):
    # at most _PHI_BLOCK sites per phi call, even where one row is larger
    # (91^2 sites at d=3 L=91: two blocks per row); a lattice that fits is
    # one call on the whole stack, the same one the unblocked update makes
    g = LatticeGeometry(d, L)
    phi = _CountedPolymer(d)
    sl = HeightSlice(g, 0, np.random.default_rng(d).uniform(size=g.shape))
    step(sl, phi, 0.5, np.zeros(g.shape))
    assert len(phi.shapes) == count
    assert sum(math.prod(s[1:]) for s in phi.shapes) == g.n_sites
    assert all(s[0] == 2 * d + 1 and len(s) == d + 1 for s in phi.shapes)
    if g.n_sites <= _PHI_BLOCK:
        assert phi.shapes == [(2 * d + 1,) + g.shape]
    else:
        assert all(math.prod(s[1:]) <= _PHI_BLOCK for s in phi.shapes)


def _stencil_max(u):
    return float(u.max())


@pytest.mark.parametrize("phi_name", ["polymer", "gkpz", "ew", "callable"])
@pytest.mark.parametrize("d,L", [(2, 321), (3, 23)])
def test_blocked_evolve_equals_unblocked(phi_name, d, L):
    # ragged last blocks: 321 rows in blocks of 25, 23 rows in 15 + 8
    cuts = blocks((L,) * d, _PHI_BLOCK)
    assert len(cuts) > 1 and L % cuts[0][0].stop != 0
    if phi_name == "callable":
        phi, T = CallableDriving(d, _stencil_max, name="max"), 2
    else:
        phi, T = make_driving(phi_name, d), 4
    nm = make_noise("triangular", 1.1, seed=23).perturb_at(2, (1,) * d, 0.7)
    cfg = EvolutionConfig(phi, nm, LatticeGeometry(d, L), 0.6, T)
    got = evolve(cfg).values
    ref = unblocked_evolve(cfg).values
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("d,L", [(2, 9), (3, 7)])
def test_step_equals_full_mesh_formula(d, L):
    # step's arithmetic on a layer drawn over the cached open site axes;
    # np.roll stencils and a full-mesh draw are the reference
    g = LatticeGeometry(d, L)
    phi = make_driving("gkpz", d)
    nm = make_noise("triangular", 1.2, seed=17).perturb_at(4, (1,) * d, 0.5)
    vals = np.random.default_rng(d).uniform(-1, 1, size=g.shape)
    sl = HeightSlice(g, 3, vals)
    eps = 0.3
    ref = (phi.value_many(_roll_stack(vals))
           + eps * nm.sample_grid(4, g.site_mesh()))
    got = step(sl, phi, eps, nm.sample_grid(4, _site_axes(d, L))).values
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def test_slice_shape_validation():
    g = LatticeGeometry(2, 4)
    with pytest.raises(ValueError):
        HeightSlice(g, 0, np.zeros(16))


# ---------------------------------------------------------------------------
# one growth step


def _layer(nm, t, g):
    return nm.sample_grid(t, g.site_mesh())


def test_first_step_is_pure_noise():
    # phi vanishes on the flat start, so f(1, x) = eps * z_{1,x}
    g = LatticeGeometry(1, 9)
    nm = make_noise(seed=2)
    eps = 0.3
    for phi in (PolymerDriving(1), EdwardsWilkinsonDriving(1)):
        nxt = step(HeightSlice.flat(g, t=0), phi, eps, _layer(nm, 1, g))
        assert nxt.t == 1
        for x in range(g.lo, g.lo + g.L):
            assert nxt.value_at((x,)) == pytest.approx(
                eps * scalar_sample(nm, 1, (x,)), abs=1e-16)


def test_ew_step_closed_form():
    g = LatticeGeometry(1, 7)
    rng = np.random.default_rng(1)
    sl = HeightSlice(g, 3, rng.uniform(size=7))
    nm = make_noise(seed=5)
    nxt = step(sl, EdwardsWilkinsonDriving(1), 0.2, _layer(nm, 4, g))
    for x in range(g.lo, g.lo + g.L):
        expect = sl.stencil_at((x,)).mean() + 0.2 * scalar_sample(nm, 4,
                                                                   (x,))
        assert nxt.value_at((x,)) == pytest.approx(expect, abs=1e-15)


def test_polymer_two_steps_closed_form():
    # f(2, x) = eps z2x + log( (1/3) sum_a exp(eps z_{1, x+a}) )
    g = LatticeGeometry(1, 7)
    nm = make_noise(seed=8)
    eps = 0.4
    final = evolve(EvolutionConfig(PolymerDriving(1), nm, g, eps, T=2))
    x = 0
    z1 = [scalar_sample(nm, 1, (x + a,)) for a in (0, 1, -1)]
    expect = eps * scalar_sample(nm, 2, (x,)) + math.log(
        sum(math.exp(eps * z) for z in z1) / 3.0)
    assert final.value_at((x,)) == pytest.approx(expect, abs=1e-13)


def test_step_shift_covariance():
    g = LatticeGeometry(1, 9)
    rng = np.random.default_rng(4)
    sl = HeightSlice(g, 0, rng.uniform(size=9))
    shifted = HeightSlice(g, 0, sl.values + 5.0)
    nm = make_noise(seed=3)
    phi = PolymerDriving(1)
    z = _layer(nm, 1, g)
    a = step(sl, phi, 0.3, z)
    b = step(shifted, phi, 0.3, z)
    assert np.abs(b.values - a.values - 5.0).max() < 1e-12


# ---------------------------------------------------------------------------
# evolve


def test_evolve_zero_horizon():
    g = LatticeGeometry(1, 5)
    cfg = EvolutionConfig(PolymerDriving(1), make_noise(), g, 0.5, T=0)
    flat = evolve(cfg)
    assert isinstance(flat, HeightSlice)
    assert flat.t == 0 and np.all(flat.values == 0.0)


def test_evolve_deterministic():
    g = LatticeGeometry(2, 7)
    cfg = EvolutionConfig(PolymerDriving(2), make_noise(seed=13), g, 0.3, T=3)
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
    small = evolve(EvolutionConfig(phi, nm, LatticeGeometry(1, 9), eps, T))
    big = evolve(EvolutionConfig(phi, nm, LatticeGeometry(1, 101), eps, T))
    for x in (-1, 0, 1):  # |x| + T <= (9-1)/2
        assert small.value_at((x,)) == big.value_at((x,))


def test_cone_exactness_2d():
    nm = make_noise(seed=22)
    phi = PolymerDriving(2)
    small = evolve(EvolutionConfig(phi, nm, LatticeGeometry(2, 5), 0.5, 2))
    big = evolve(EvolutionConfig(phi, nm, LatticeGeometry(2, 11), 0.5, 2))
    # only the anchor's cone fits inside the 5-wide canonical window
    assert small.value_at((0, 0)) == big.value_at((0, 0))


def test_wrap_warning_when_cone_outruns_torus():
    g = LatticeGeometry(1, 5)
    cfg = EvolutionConfig(PolymerDriving(1), make_noise(), g, 0.5, T=3)
    with pytest.warns(ConeWrapWarning):
        evolve(cfg)
    # capture itself never warns (the torus runs rely on it)
    assert [s.t for s in capture(cfg, range(4))] == [0, 1, 2, 3]


@pytest.mark.parametrize("d,T", [(1, 5), (1, 8), (2, 4)])
def test_decompose_wrap_warning_threshold(d, T):
    # f(T, x) reads layer-1 noise within L1 distance T - 1 of x, so the
    # decomposed step is exact from side 2T - 1 on, and warns below it;
    # pytest turns a ConeWrapWarning on the silent sides into an error
    def run(L):
        return EvolutionConfig(PolymerDriving(d), make_noise(seed=13),
                               LatticeGeometry(d, L), 0.3, T)
    x = (0,) * d
    exact = evolve_and_decompose(run(min_cone_side(T)), x)
    edge = evolve_and_decompose(run(2 * T - 1), x)
    for part in ("A", "B", "C", "D", "increment"):
        assert np.float64(getattr(edge, part)).view(np.uint64) == \
            np.float64(getattr(exact, part)).view(np.uint64)
    with pytest.warns(ConeWrapWarning, match=f"L={2 * T - 3} "):
        evolve_and_decompose(run(2 * T - 3), x)


# ---------------------------------------------------------------------------
# time-blocked noise: capture against a plain loop of step


def _stepped(config):
    """Reference: each layer drawn alone through sample_grid on a full mesh."""
    g = config.geometry
    cur = HeightSlice.flat(g, t=0)
    out = [cur]
    for t in range(1, config.T + 1):
        cur = step(cur, config.phi, config.epsilon, _layer(config.noise, t, g))
        out.append(cur)
    return out


def _horizons(d, L):
    """T inside one block, an exact multiple of it and a ragged last
    block; with k = 1 every layer exceeds _BLOCK and is cut inside."""
    k = max(1, _BLOCK // L ** d)
    return (max(1, k - 1), 2 * k, 2 * k + 1)


@pytest.mark.parametrize("family", ["uniform", "triangular"])
@pytest.mark.parametrize("d,L", [(1, 4001), (2, 101), (3, 25), (1, 40001),
                                 (2, 191), (3, 33)])
def test_evolve_equals_stepwise_draws(family, d, L):
    base = make_noise(family, 1.3, seed=31)
    origin, ones = (0,) * d, (1,) * d
    views = [base, base.perturb_at(2, origin, 0.5).perturb_at(3, ones, -1.0)]
    phi = PolymerDriving(d)
    k = max(1, _BLOCK // L ** d)
    for nm in views:
        ref = _stepped(EvolutionConfig(phi, nm, LatticeGeometry(d, L), 0.4,
                                       T=max(_horizons(d, L))))
        for T in _horizons(d, L):
            cfg = EvolutionConfig(phi, nm, LatticeGeometry(d, L), 0.4, T)
            # every time, the ends, the last step, the two sides of each
            # noise block boundary, and unsorted times with duplicates
            straddle = [t for t in (k, k + 1, 2 * k, 2 * k + 1) if t <= T]
            for times in (range(T + 1), [0], [T], [T - 1, T], straddle,
                          [T, 1, T, 0, 1]):
                got = list(capture(cfg, times))
                assert [s.t for s in got] == sorted(set(times))
                for a in got:
                    assert np.array_equal(a.values.view(np.uint64),
                                          ref[a.t].values.view(np.uint64))
            final = evolve(cfg)
            assert final.t == T
            assert np.array_equal(final.values.view(np.uint64),
                                  ref[T].values.view(np.uint64))


def _count_work(monkeypatch):
    """Count step calls, keyed hash draws and the layers drawn in blocks."""
    counts = {"steps": 0, "keys": 0, "layers": []}
    real_step, real_hash = lattice_mod.step, noise_mod.hash_keys_vec
    real_spacetime = NoiseModel.sample_spacetime

    def counted_step(*args, **kwargs):
        counts["steps"] += 1
        return real_step(*args, **kwargs)

    def counted_hash(*args, **kwargs):
        h = real_hash(*args, **kwargs)
        counts["keys"] += h.size
        return h

    def recorded_spacetime(self, times, coords):
        counts["layers"] += np.asarray(times).ravel().tolist()
        return real_spacetime(self, times, coords)

    monkeypatch.setattr(lattice_mod, "step", counted_step)
    monkeypatch.setattr(noise_mod, "hash_keys_vec", counted_hash)
    monkeypatch.setattr(NoiseModel, "sample_spacetime", recorded_spacetime)
    return counts


@pytest.mark.parametrize("d,L,T", [(1, 9, 0), (1, 9, 4), (1, 4001, 19),
                                   (2, 191, 2), (3, 7, 3)])
def test_evolution_work_counts(monkeypatch, d, L, T):
    # the benchmark's traced self-test relies on exactly one step call and
    # one keyed draw per site per step, whatever the blocking and whatever
    # times a capture keeps
    counts = _count_work(monkeypatch)
    cfg = EvolutionConfig(PolymerDriving(d), make_noise(seed=2),
                          LatticeGeometry(d, L), 0.3, T)
    for read in (evolve, lambda c: list(capture(c, [0])),
                 lambda c: list(capture(c, [T // 2])),
                 lambda c: list(capture(c, range(T + 1)))):
        counts.update(steps=0, keys=0, layers=[])
        read(cfg)
        assert counts["steps"] == T
        assert counts["keys"] == T * L ** d
        assert counts["layers"] == list(range(1, T + 1))
    # a time outside 0..T is refused before any step
    counts.update(steps=0, keys=0)
    with pytest.raises(ValueError, match=rf"\[-1, {T + 1}\] outside 0\.\.{T}"):
        list(capture(cfg, [-1, 0, T + 1]))
    assert counts["steps"] == counts["keys"] == 0


@pytest.mark.parametrize("d,L,t", [(1, 9, 0), (1, 9, 3), (2, 191, 1)])
def test_evolve_and_decompose_work_counts(monkeypatch, d, L, t):
    counts = _count_work(monkeypatch)
    evolve_and_decompose(EvolutionConfig(PolymerDriving(d), make_noise(seed=4),
                                         LatticeGeometry(d, L), 0.3, t + 1),
                         (0,) * d)
    assert counts["steps"] == t + 1
    # every layer of the run, plus the one draw of C = eps * z
    assert counts["keys"] == (t + 1) * L ** d + 1
    assert counts["layers"] == list(range(1, t + 2))


def test_evolve_and_decompose_refuses_a_run_without_steps():
    run = EvolutionConfig(PolymerDriving(1), make_noise(seed=4),
                          LatticeGeometry(1, 3), 0.3, 0)
    with pytest.raises(ValueError, match="T >= 1"):
        evolve_and_decompose(run, (0,))


def test_nonfinite_heights_raise_with_time_and_site():
    # heights reach about 50 at site 1 at t=2; phi turns any stencil above 10
    # into inf, so sites 0, 1 and 2 are inf at t=3, the block's last slice
    phi = CallableDriving(1, lambda u: math.inf if u.max() > 10
                          else float(u.mean()))
    nm = make_noise(seed=9).perturb_at(2, (1,), 100.0)
    cfg = EvolutionConfig(phi, nm, LatticeGeometry(1, 7), 0.5, T=3)
    with pytest.raises(FloatingPointError, match=r"t=3, site \(0,\)") as exc:
        evolve(cfg)
    assert not isinstance(exc.value, ValueError)
    # a finite run of the same driving passes the check
    evolve(EvolutionConfig(phi, make_noise(seed=9), LatticeGeometry(1, 7),
                           0.5, T=3))


def test_translation_equivariance_literal():
    # growing under the key-shifted field equals the shifted surface
    nm = make_noise(seed=17)
    phi = PolymerDriving(1)
    T, dx, eps = 3, 2, 0.5
    base = evolve(EvolutionConfig(phi, nm, LatticeGeometry(1, 2 * T + 1 + 2 * dx),
                                  eps, T))
    moved = evolve(EvolutionConfig(phi, ShiftedNoise(nm, dx),
                                   LatticeGeometry(1, 2 * T + 1), eps, T))
    assert moved.value_at((0,)) == base.value_at((dx,))


def test_translation_invariance_in_law():
    # gradients at two distant sites, independent replica pools: same law
    phi = PolymerDriving(1)
    T, L, eps, n = 4, 16, 0.4, 300

    def grads(site, seeds):
        out = []
        for s in seeds:
            sl = evolve(EvolutionConfig(phi, make_noise(seed=s),
                                        LatticeGeometry(1, L), eps, T))
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
    slices = list(capture(EvolutionConfig(
        PolymerDriving(1), nm, LatticeGeometry(1, 2 * T + 1 + 4), eps, T),
        range(T + 1)))
    for t in (1, 2, 3, 4):
        for x in (-1, 0, 2):
            assert slices[t].value_at((x,)) == pytest.approx(
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
# CSV export


def test_csv_rows_cover_all_sites():
    # slice_columns: metadata scalars, then one row per site, row-major;
    # the array columns have the lattice's shape and are read raveled
    for d, L in [(1, 5), (2, 4), (3, 3)]:
        g = LatticeGeometry(d, L)
        sl = HeightSlice(g, 2, np.arange(float(g.n_sites)).reshape(g.shape))
        cols = slice_columns(sl, 0.1, 3)
        assert list(cols) == (["d", "L", "t", "epsilon", "seed"]
                              + [f"x{i}" for i in range(1, d + 1)]
                              + ["value"])
        assert (cols["d"], cols["L"], cols["t"], cols["epsilon"],
                cols["seed"]) == (d, L, 2, 0.1, 3)
        sites = list(itertools.product(range(g.lo, g.lo + L), repeat=d))
        coords = np.stack([np.ravel(cols[f"x{i}"])
                           for i in range(1, d + 1)], axis=1)
        assert coords.tolist() == [list(s) for s in sites]
        assert np.ravel(cols["value"]).tolist() == [sl.value_at(s)
                                                    for s in sites]


def test_make_driving_dimension_consistency():
    for name in ("polymer", "gkpz", "ew"):
        phi = make_driving(name, 2)
        assert phi.d == 2 and phi.n == 5
