"""Space-time noise fields z_{t,x}.

A NoiseModel is a pure function of (seed, t, x): i.i.d. in law across
sites and layers, mean zero, bounded, continuous. Views (overrides, zeroed
layers, single-site perturbations) share the base draws and cost O(#edits)
memory regardless of lattice size.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence, Tuple

import numpy as np

from .rng import hash_keys, hash_keys_vec, unit_open, unit_open_vec

Site = Tuple[int, ...]

FAMILIES = ("uniform", "triangular")

DEFAULT_SCALE = math.sqrt(3.0)  # uniform on [-sqrt3, sqrt3]: sigma = 1

# elements hashed per block: the block's uint64 and float64 scratch arrays
# (256 KiB each) stay in a 1-2 MB L2 cache across the passes of the chain
_BLOCK = 1 << 15


def _as_site(x) -> Site:
    if isinstance(x, (int, np.integer)):
        return (int(x),)
    return tuple(int(c) for c in x)


@dataclass(frozen=True)
class NoiseSpec:
    """Distribution family, half-width scale, and generation seed."""

    family: str = "uniform"
    scale: float = DEFAULT_SCALE
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown noise family {self.family!r}, "
                             f"expected one of {FAMILIES}")
        if not (self.scale > 0):
            raise ValueError("noise scale must be positive")

    @property
    def sigma(self) -> float:
        # uniform on [-s,s]: var s^2/3; symmetric triangular: var s^2/6
        if self.family == "uniform":
            return self.scale / math.sqrt(3.0)
        return self.scale / math.sqrt(6.0)

    @property
    def bound(self) -> float:
        return self.scale


def _uniform_icdf(u, scale):
    return scale * (2.0 * u - 1.0)


def _triangular_icdf(u, scale):
    # symmetric triangle on [-s, s] with mode 0
    lo = scale * (np.sqrt(2.0 * u) - 1.0)
    hi = scale * (1.0 - np.sqrt(2.0 * (1.0 - u)))
    return np.where(u < 0.5, lo, hi)


@dataclass(frozen=True)
class NoiseModel:
    """Keyed noise field with optional sparse edits.

    Precedence at (t, x): absolute override if present, else zero if t is a
    zeroed layer, else the keyed draw; additive shifts apply on top.
    """

    spec: NoiseSpec
    overrides: Mapping[Tuple[int, Site], float] = field(default_factory=dict)
    shifts: Mapping[Tuple[int, Site], float] = field(default_factory=dict)
    zeroed_times: frozenset = frozenset()

    @property
    def sigma(self) -> float:
        return self.spec.sigma

    @property
    def bound(self) -> float:
        return self.spec.bound

    def _raw(self, t: int, x: Site) -> float:
        h = hash_keys(self.spec.seed, (t, *x))
        u = unit_open(h)
        if self.spec.family == "uniform":
            return float(_uniform_icdf(u, self.spec.scale))
        return float(_triangular_icdf(np.float64(u), self.spec.scale))

    def sample(self, t: int, x) -> float:
        """Noise value z_{t,x}; t >= 1, x an integer site (int or tuple)."""
        if t < 1:
            raise ValueError("noise layers start at t=1")
        xs = _as_site(x)
        key = (t, xs)
        if key in self.overrides:
            v = self.overrides[key]
        elif t in self.zeroed_times:
            v = 0.0
        else:
            v = self._raw(t, xs)
        return v + self.shifts.get(key, 0.0)

    def sample_grid(self, t: int, coords: Sequence[np.ndarray]) -> np.ndarray:
        """Vectorized draws at layer t for coordinate arrays (one per axis).

        coords may be a full mesh or an open one (np.meshgrid(...,
        sparse=True)); each axis key is hashed at its own extent and the
        draws are computed in row blocks. Returns the draws over the
        broadcast shape of coords, bit-identical to sample() at every site.
        """
        if t < 1:
            raise ValueError("noise layers start at t=1")
        coords = [np.asarray(c) for c in coords]
        if t in self.zeroed_times:
            out = np.zeros(np.broadcast(*coords).shape)
        else:
            out = self._draws((t,), coords)
        if self.overrides or self.shifts:
            self._apply_edits(out, t, coords)
        return out

    def sample_spacetime(self, times, coords: Sequence[np.ndarray]) -> np.ndarray:
        """Vectorized draws where the layer index varies across the grid.

        times and coords may form a full or an open mesh; with times of
        shape (M, 1, ...) each time row is hashed once and broadcast over
        space. Returns the draws over the broadcast shape, computed in row
        blocks, bit-identical to sample() at every cell.
        """
        times = np.asarray(times)
        if times.min() < 1:
            raise ValueError("noise layers start at t=1")
        coords = [np.asarray(c) for c in coords]
        out = self._draws((), [times, *coords])
        if self.zeroed_times:
            zero = np.isin(times, sorted(self.zeroed_times))
            out[np.broadcast_to(zero, out.shape)] = 0.0
        if self.overrides or self.shifts:
            self._apply_edits(out, times, coords)
        return out

    def _draws(self, scalar_keys, key_arrays) -> np.ndarray:
        """Keyed draws over the broadcast shape of key_arrays.

        Grids of up to _BLOCK elements are hashed in one call. Larger ones
        are cut along axis 0 into blocks of about _BLOCK elements, so the
        scratch of each block stays in cache; every block is hashed, mapped
        to floats and written into one preallocated output.
        """
        shape = np.broadcast(*key_arrays).shape
        out = np.empty(shape)
        if out.size <= _BLOCK:
            self._fill(hash_keys_vec(self.spec.seed, scalar_keys, key_arrays),
                       out)
            return out
        rows = max(1, _BLOCK // (out.size // shape[0]))
        # only arrays spanning axis 0 are cut; the rest broadcast to each block
        cut = [a.ndim == out.ndim and a.shape[0] != 1 for a in key_arrays]
        for r0 in range(0, shape[0], rows):
            block = [a[r0:r0 + rows] if c else a
                     for a, c in zip(key_arrays, cut)]
            self._fill(hash_keys_vec(self.spec.seed, scalar_keys, block),
                       out[r0:r0 + rows])
        return out

    def _fill(self, h: np.ndarray, dst: np.ndarray) -> None:
        """Map hash words to draws of the family, written into dst."""
        u = unit_open_vec(h, out=dst)
        if self.spec.family == "uniform":
            # _uniform_icdf in place, operation for operation
            np.multiply(u, 2.0, out=u)
            np.subtract(u, 1.0, out=u)
            np.multiply(u, self.spec.scale, out=u)
        else:
            dst[...] = _triangular_icdf(u, self.spec.scale)

    def _apply_edits(self, out, times, coords) -> None:
        # sparse edits, in place: one boolean mask per edited site; edit
        # counts are tiny by contract, the keys may be any broadcastable mesh
        def mask(tt, xs):
            m = np.asarray(times) == tt
            for c, xc in zip(coords, xs):
                m = m & (c == xc)
            return np.broadcast_to(m, out.shape)

        for (tt, xs), val in self.overrides.items():
            out[mask(tt, xs)] = val
        for (tt, xs), dv in self.shifts.items():
            out[mask(tt, xs)] += dv

    # views -----------------------------------------------------------------

    def with_override(self, t: int, x, value: float) -> "NoiseModel":
        new = dict(self.overrides)
        new[(t, _as_site(x))] = float(value)
        return replace(self, overrides=new)

    def zero_first_layer(self) -> "NoiseModel":
        """View with every t=1 draw replaced by 0."""
        return replace(self, zeroed_times=self.zeroed_times | {1})

    def perturb_at(self, s: int, y, delta: float) -> "NoiseModel":
        """View with the draw at (s, y) shifted by delta."""
        key = (s, _as_site(y))
        new = dict(self.shifts)
        new[key] = new.get(key, 0.0) + float(delta)
        return replace(self, shifts=new)


def make_noise(family: str = "uniform", scale: float = DEFAULT_SCALE,
               seed: int = 0) -> NoiseModel:
    return NoiseModel(NoiseSpec(family=family, scale=scale, seed=seed))
