"""Noise field and keyed-randomness tests.

The noise layer must behave like a pure function of (seed, t, x): stable
across instances and vectorization paths, mean zero, bounded, with the
advertised standard deviation, and with single-draw shifts that touch
exactly the requested draws.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kpzlab.noise as noise_mod
from kpzlab.noise import (_BLOCK, DEFAULT_SCALE, FAMILIES, NoiseSpec,
                          _triangular_icdf, make_noise)
from kpzlab.rng import (derive_seed, hash_keys, hash_keys_vec, mix64,
                        unit_open_vec)
from oracles import scalar_sample, uniform_icdf, unit_open, word_to_draw

# ---------------------------------------------------------------------------
# keyed hash core


def test_hash_keys_regression_constant():
    # first output of the reference splitmix64 stream started at state 0;
    # frozen so any change to the mixing chain is caught immediately
    assert hash_keys(0, ()) == 0xE220A8397B1DCDAF


def test_mix64_stays_in_64_bits():
    for z in (0, 1, 2**63, 2**64 - 1, 0xDEADBEEF):
        h = mix64(z)
        assert 0 <= h <= 0xFFFFFFFFFFFFFFFF


def test_hash_keys_order_sensitive():
    assert hash_keys(0, (1, 2)) != hash_keys(0, (2, 1))
    assert hash_keys(0, (5,)) != hash_keys(1, (5,))


def test_derive_seed_matches_hash_keys():
    assert derive_seed(42, 7) == hash_keys(42, (7,))
    assert derive_seed(42, 7) != derive_seed(42, 8)


def test_unit_open_range_and_midpoint():
    h = 0x123456789ABCDEF0
    comp = h ^ 0xFFFFFFFFFFFFFFFF
    u = unit_open_vec(np.array([0, 2**64 - 1, h, comp], dtype=np.uint64))
    assert 0.0 < u[0] < 1.0
    # top word rounds to 1.0 exactly (1 - 2^-54 is not representable);
    # the inverse-CDF maps send u = 1 to the closed support bound
    assert u[1] == 1.0
    # symmetric placement: h and its bitwise complement average to 1/2
    assert abs((u[2] + u[3]) / 2 - 0.5) < 2**-53


def test_hash_keys_vec_matches_scalar():
    ts = np.arange(1, 40)
    xs = np.arange(-20, 19)
    vec = hash_keys_vec(3, [np.array(9), ts, xs])
    for i in range(len(ts)):
        assert int(vec[i]) == hash_keys(3, (9, int(ts[i]), int(xs[i])))


def test_hash_keys_vec_no_arrays_returns_scalar_hash():
    out = hash_keys_vec(5, [])
    assert int(out) == hash_keys(5, ())


def test_hash_keys_vec_zero_dim_keys_match_scalar():
    # 0-d ufunc results are numpy scalars; the in-place chain must not
    # depend on getting an array back
    out = hash_keys_vec(7, [np.array(3), np.array(5), np.array(-9)])
    assert int(out) == hash_keys(7, (3, 5, -9))
    out = hash_keys_vec(7, [np.int64(-1)])
    assert int(out) == hash_keys(7, (-1,))
    mixed = hash_keys_vec(7, [np.array(4), np.arange(-3, 3)])
    assert [int(h) for h in mixed] == [hash_keys(7, (4, x))
                                       for x in range(-3, 3)]


def test_hash_keys_vec_open_mesh_matches_full_and_scalar():
    ts = np.arange(1, 6).reshape(5, 1)
    xs = np.arange(-4, 3).reshape(1, 7)
    open_ = hash_keys_vec(11, [np.array(2), ts, xs])
    full = hash_keys_vec(11, [np.array(2), *np.broadcast_arrays(ts, xs)])
    assert open_.shape == (5, 7)
    assert np.array_equal(open_, full)
    for i in range(5):
        for j in range(7):
            assert int(open_[i, j]) == hash_keys(11, (2, int(ts[i, 0]),
                                                      int(xs[0, j])))
    # a key spanning the full shape may come first, too
    wide = np.broadcast_to(ts, (5, 7))
    assert np.array_equal(hash_keys_vec(11, [np.array(2), wide, xs]), full)


def test_hash_keys_vec_leaves_keys_untouched():
    ts = np.arange(1, 6, dtype=np.int64).reshape(5, 1)
    xs = np.arange(-4, 3, dtype=np.int64).reshape(1, 7)
    lists = [[1, 2, 3], [-1, 0, 1]]
    before = [ts.copy(), xs.copy()]
    ts.flags.writeable = False  # any write into a caller's key would raise
    hash_keys_vec(0, [np.array(1), ts, xs])
    hash_keys_vec(0, [xs])
    hash_keys_vec(0, lists)
    assert np.array_equal(ts, before[0]) and np.array_equal(xs, before[1])
    assert lists == [[1, 2, 3], [-1, 0, 1]]


def _words():
    """The top word, edge words around 0, 2^63 and 2^64 - 2^11, and 64
    random ones."""
    rnd = np.random.default_rng(3).integers(0, 2**64, 64, dtype=np.uint64)
    edges = np.array([2**64 - 1, 0, 1, 2**40, 2**63 - 1, 2**63,
                      2**64 - 2**11 - 1, 2**64 - 2**11], dtype=np.uint64)
    return np.concatenate([edges, rnd])


def test_unit_open_vec_matches_scalar():
    hs = _words()
    vec = unit_open_vec(hs)
    for h, u in zip(hs, vec):
        assert u.hex() == unit_open(int(h)).hex()


@pytest.mark.parametrize("family", FAMILIES)
def test_words_map_to_draws_like_the_scalar_reference(family):
    # the array map from hash words to draws, bit for bit, including the
    # top words, whose u rounds to 1 and lands on the support bound
    nm = make_noise(family, 1.3, seed=0)
    hs = _words()
    out = np.empty(hs.shape)
    nm._fill(hs, out)
    for h, z in zip(hs, out):
        assert z.hex() == word_to_draw(int(h), family, 1.3).hex()
    assert hs[0] == 2**64 - 1 and out[0] == 1.3


@given(family=st.sampled_from(FAMILIES), seed=st.integers(0, 2**64 - 1),
       t=st.integers(1, 10**6), x=st.integers(-10**6, 10**6),
       shift=st.sampled_from([0.0, 0.375, -2.5]))
@settings(max_examples=300, deadline=None)
def test_sample_is_pure(family, seed, t, x, shift):
    a = make_noise(family, seed=seed).sample(t, x)
    b = make_noise(family, seed=seed).sample(t, (x,))
    assert a == b
    assert abs(a) <= DEFAULT_SCALE
    # bit for bit the scalar reference, on the field and on a shifted view
    assert a.hex() == scalar_sample(make_noise(family, seed=seed), t, x).hex()
    view = make_noise(family, seed=seed).perturb_at(t, x, shift)
    assert view.sample(t, x).hex() == scalar_sample(view, t, x).hex()


# ---------------------------------------------------------------------------
# distributional checks (frozen seed, large N)


def test_uniform_moments_and_bound():
    nm = make_noise(seed=0)
    z = nm.sample_grid(1, [np.arange(1_000_000)])
    assert abs(z.mean()) <= 3e-3
    assert abs(z.std() - 1.0) <= 0.01
    assert np.abs(z).max() <= math.sqrt(3.0)
    assert np.abs(z).max() > 1.7  # support is actually filled out


def test_triangular_moments_and_bound():
    nm = make_noise("triangular", scale=math.sqrt(6.0), seed=0)
    assert abs(nm.sigma - 1.0) < 1e-15
    z = nm.sample_grid(1, [np.arange(1_000_000)])
    assert abs(z.mean()) <= 3e-3
    assert abs(z.std() - 1.0) <= 0.01
    assert np.abs(z).max() <= math.sqrt(6.0)


def test_neighbor_draws_uncorrelated():
    nm = make_noise(seed=0)
    n = 100_000
    x = np.arange(n)
    a = nm.sample_grid(1, [x])
    thresh = 4.0 / math.sqrt(n)
    assert abs(np.corrcoef(a, nm.sample_grid(1, [x + 1]))[0, 1]) <= thresh
    assert abs(np.corrcoef(a, nm.sample_grid(2, [x]))[0, 1]) <= thresh


def test_sigma_property():
    assert NoiseSpec("uniform", math.sqrt(3.0), 0).sigma == pytest.approx(1.0)
    assert NoiseSpec("uniform", 2.0, 0).sigma == pytest.approx(2 / math.sqrt(3))
    assert NoiseSpec("triangular", 2.0, 0).sigma == pytest.approx(2 / math.sqrt(6))
    assert NoiseSpec("triangular", 2.0, 0).bound == 2.0


# ---------------------------------------------------------------------------
# array draws against the scalar reference path of tests/oracles.py


def test_sample_grid_bit_identical_to_scalar():
    xs = np.arange(-8, 9)
    for family in FAMILIES:
        nm = make_noise(family, seed=11)
        grid = nm.sample_grid(3, [xs])
        for i, x in enumerate(xs):
            assert grid[i] == scalar_sample(nm, 3, (int(x),))


def test_sample_grid_2d_bit_identical():
    m = np.meshgrid(np.arange(-3, 4), np.arange(-3, 4), indexing="ij")
    for family in FAMILIES:
        nm = make_noise(family, seed=4)
        grid = nm.sample_grid(2, m)
        for i in range(7):
            for j in range(7):
                site = (int(m[0][i, j]), int(m[1][i, j]))
                assert grid[i, j] == scalar_sample(nm, 2, site)


def test_sample_spacetime_bit_identical():
    ts = np.array([[1, 2], [3, 4]])
    xs = np.array([[0, 1], [-1, 2]])
    for family in FAMILIES:
        nm = make_noise(family, seed=5)
        out = nm.sample_spacetime(ts, [xs])
        for i in range(2):
            for j in range(2):
                assert out[i, j] == scalar_sample(nm, int(ts[i, j]),
                                                  (int(xs[i, j]),))


# ---------------------------------------------------------------------------
# open meshes and blocked draws against the one-shot full-mesh reference


def _reference(nm, keys):
    """One-shot path: hash the full broadcast mesh, then map every word."""
    u = unit_open_vec(hash_keys_vec(nm.spec.seed,
                                    np.broadcast_arrays(*keys)))
    if nm.spec.family == "uniform":
        return uniform_icdf(u, nm.spec.scale)
    return _triangular_icdf(u, nm.spec.scale)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


def _axes(shape, lo=-3):
    """Coordinate axes of an axis-aligned box, as an open mesh."""
    return np.meshgrid(*[np.arange(lo, lo + n) for n in shape],
                       indexing="ij", sparse=True)


def _block_shapes(inner):
    """Shapes (n,) + inner around the block size: one row short of a
    block, exactly one block, one row over, three blocks plus a ragged
    tail. An empty inner shape gives empty grids with 0 and 3 rows."""
    if math.prod(inner) == 0:
        return [(0,) + inner, (3,) + inner]
    per = _BLOCK // math.prod(inner)
    return [(n,) + inner for n in (per - 1, per, per + 1, 3 * per + 7)]


@pytest.mark.parametrize("family", ["uniform", "triangular"])
@pytest.mark.parametrize("inner", [(), (100,), (20, 20), (0,)],
                         ids=["d1", "d2", "d3", "empty"])
def test_sample_grid_open_mesh_equals_full_mesh(family, inner):
    nm = make_noise(family, 1.7, seed=2**63 + 3)
    for shape in _block_shapes(inner):
        axes = _axes(shape)
        full = np.meshgrid(*[a.ravel() for a in axes], indexing="ij")
        ref = _reference(nm, [4, *full])
        assert _same_bits(nm.sample_grid(4, axes), ref)
        assert _same_bits(nm.sample_grid(4, full), ref)


@pytest.mark.parametrize("family", ["uniform", "triangular"])
@pytest.mark.parametrize("inner", [(100,), (20, 20), (8, 8, 8), (0,)],
                         ids=["d1", "d2", "d3", "empty"])
def test_sample_spacetime_open_mesh_equals_full_mesh(family, inner):
    nm = make_noise(family, 0.9, seed=12)
    for shape in _block_shapes(inner):
        times = np.arange(1, shape[0] + 1).reshape((-1,) + (1,) * len(inner))
        space = [c[np.newaxis] for c in _axes(inner)]
        full = np.broadcast_arrays(times, *space)
        ref = _reference(nm, full)
        assert _same_bits(nm.sample_spacetime(times, space), ref)
        assert _same_bits(nm.sample_spacetime(full[0], full[1:]), ref)
        # a caller's buffer, stale values and all, is filled the same way
        out = np.full(ref.shape, np.nan)
        assert nm.sample_spacetime(times, space, out=out) is out
        assert _same_bits(out, ref)


def test_sample_spacetime_refuses_an_out_of_another_shape_or_dtype():
    nm = make_noise("uniform", 1.0, seed=1)
    times, space = np.arange(1, 4).reshape(-1, 1), [np.arange(5)[None]]
    for out in (np.empty((3, 4)), np.empty((3, 5), dtype=np.float32)):
        with pytest.raises(ValueError, match="out must be float64"):
            nm.sample_spacetime(times, space, out=out)


@pytest.mark.parametrize("family", ["uniform", "triangular"])
@pytest.mark.parametrize("inner", [(40001,), (191, 191), (33, 33, 33)],
                         ids=["d1", "d2", "d3"])
def test_sample_spacetime_single_layer_over_block_equals_sample_grid(
        monkeypatch, family, inner):
    # one (1, L, ..., L) layer larger than a block is cut inside the layer
    assert math.prod(inner) > _BLOCK
    nm = make_noise(family, 1.4, seed=8).perturb_at(5, (2,) * len(inner), 0.5)
    axes = _axes(inner)
    times = np.full((1,) * (len(inner) + 1), 5)
    sizes = []

    def recorded(*args):
        h = hash_keys_vec(*args)
        sizes.append(h.size)
        return h

    monkeypatch.setattr(noise_mod, "hash_keys_vec", recorded)
    got = nm.sample_spacetime(times, axes)
    assert max(sizes) <= _BLOCK and sum(sizes) == math.prod(inner)
    assert got.shape == (1,) + inner
    assert _same_bits(got[0], nm.sample_grid(5, axes))


@pytest.mark.parametrize("family", ["uniform", "triangular"])
def test_edits_on_open_meshes_equal_full_meshes(family):
    base = make_noise(family, 1.1, seed=5)
    views = [base.perturb_at(2, (1, -2), 0.75),
             base.perturb_at(2, (0, 0), 0.125).perturb_at(3, (-1, 4), -2.0),
             base.perturb_at(1, (2, 2), 0.5).perturb_at(1, (2, 2), 0.25)
                 .perturb_at(2, (2, 2), 1.0)]
    axes = _axes((_BLOCK // 50 + 3, 50))
    full = np.meshgrid(*[a.ravel() for a in axes], indexing="ij")
    times = np.arange(1, 5).reshape(4, 1, 1)
    space = [c[np.newaxis, :12, :9] for c in axes]
    st_full = np.broadcast_arrays(times, *space)
    for nm in views:
        for t in (1, 2, 3):
            got = nm.sample_grid(t, axes)
            assert _same_bits(got, nm.sample_grid(t, full))
            for site in ((1, -2), (0, 0), (-1, 4), (2, 2), (5, 7)):
                idx = tuple(c - a.ravel()[0] for c, a in zip(site, axes))
                assert got[idx] == scalar_sample(nm, t, site)
        got = nm.sample_spacetime(times, space)
        assert _same_bits(got, nm.sample_spacetime(st_full[0], st_full[1:]))
        for i, j, k in ((1, 4, 1), (1, 3, 3), (0, 3, 3), (2, 2, 7), (0, 5, 5),
                        (1, 5, 5)):
            site = (int(st_full[1][i, j, k]), int(st_full[2][i, j, k]))
            assert got[i, j, k] == scalar_sample(nm, i + 1, site)


# ---------------------------------------------------------------------------
# views: single-draw shifts


def test_perturb_at_shifts_one_draw():
    nm = make_noise(seed=9)
    h = 0.25
    up = nm.perturb_at(2, (1,), h)
    assert up.sample(2, (1,)) == pytest.approx(nm.sample(2, (1,)) + h, abs=0)
    assert up.sample(2, (0,)) == nm.sample(2, (0,))
    assert up.sample(1, (1,)) == nm.sample(1, (1,))
    # shifts accumulate
    both = up.perturb_at(2, (1,), h)
    assert both.sample(2, (1,)) == pytest.approx(nm.sample(2, (1,)) + 2 * h)
    # zero-delta perturbation is a no-op on values
    assert nm.perturb_at(2, (1,), 0.0).sample(2, (1,)) == nm.sample(2, (1,))


def test_edits_apply_on_grids_and_spacetime():
    base = make_noise(seed=6)
    nm = base.perturb_at(1, (0,), 7.0).perturb_at(2, (1,), 0.5)
    xs = np.arange(-2, 3)
    g1 = nm.sample_grid(1, [xs])
    assert g1[2] == base.sample(1, (0,)) + 7.0
    assert g1[3] == base.sample(1, (1,))
    ts = np.array([1, 2, 2])
    xv = np.array([0, 1, 0])
    out = nm.sample_spacetime(ts, [xv])
    assert out[0] == base.sample(1, (0,)) + 7.0
    assert out[1] == pytest.approx(base.sample(2, (1,)) + 0.5, abs=1e-15)
    assert out[2] == base.sample(2, (0,))


def test_layers_start_at_one():
    nm = make_noise()
    with pytest.raises(ValueError):
        nm.sample(0, (0,))
    with pytest.raises(ValueError):
        nm.sample_grid(0, [np.arange(3)])
    with pytest.raises(ValueError):
        nm.sample_spacetime(np.array([0, 1]), [np.array([0, 0])])


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec("gaussian", 1.0, 0)
    with pytest.raises(ValueError):
        NoiseSpec("uniform", 0.0, 0)


def test_seeds_decouple_fields():
    a = make_noise(seed=0).sample_grid(1, [np.arange(1000)])
    b = make_noise(seed=1).sample_grid(1, [np.arange(1000)])
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.13
    assert not np.any(a == b)
