"""Space-time noise fields z_{t,x}.

A NoiseModel is a pure function of (seed, t, x): i.i.d. in law across
sites and layers, mean zero, bounded, continuous. The one edit is an
additive shift of single draws (perturb_at), which a finite difference in
one noise variable needs; a shifted view shares the base draws and costs
O(#shifts) memory regardless of lattice size.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence, Tuple

import numpy as np

from .rng import derive_seed, hash_keys_vec, unit_open_vec

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


def _triangular_icdf(u, scale):
    # symmetric triangle on [-s, s] with mode 0
    lo = scale * (np.sqrt(2.0 * u) - 1.0)
    hi = scale * (1.0 - np.sqrt(2.0 * (1.0 - u)))
    return np.where(u < 0.5, lo, hi)


@dataclass(frozen=True)
class NoiseModel:
    """Keyed noise field plus sparse additive shifts.

    The value at (t, x) is the keyed draw plus shifts[(t, x)], if any.
    """

    spec: NoiseSpec
    shifts: Mapping[Tuple[int, Site], float] = field(default_factory=dict)

    @property
    def sigma(self) -> float:
        return self.spec.sigma

    @property
    def bound(self) -> float:
        return self.spec.bound

    def sample(self, t: int, x) -> float:
        """Noise value z_{t,x}; t >= 1, x an integer site (int or tuple).

        One cell of _draws plus its shift, kept off sample_spacetime, the
        path of grid draws.
        """
        if t < 1:
            raise ValueError("noise layers start at t=1")
        xs = _as_site(x)
        return float(self._draws((t, *xs))) + self.shifts.get((t, xs), 0.0)

    def sample_grid(self, t: int, coords: Sequence[np.ndarray]) -> np.ndarray:
        """Draws at layer t for coordinate arrays (one per axis).

        coords may be a full or an open mesh; sample_spacetime with a 0-d
        time key does the work.
        """
        return self.sample_spacetime(np.asarray(t), coords)

    def sample_spacetime(self, times, coords: Sequence[np.ndarray]) -> np.ndarray:
        """Vectorized draws where the layer index varies across the grid.

        times and coords may form a full or an open mesh; with times of
        shape (M, 1, ...) each time row is hashed once and broadcast over
        space. Returns the draws over the broadcast shape, computed in row
        blocks; no cell's value depends on the blocking or the mesh form.
        """
        times = np.asarray(times)
        if times.size and times.min() < 1:
            raise ValueError("noise layers start at t=1")
        coords = [np.asarray(c) for c in coords]
        out = self._draws([times, *coords])
        # shifts, in place: one boolean mask per shifted site; shift counts
        # are tiny by contract, the keys may be any broadcastable mesh
        for (tt, xs), dv in self.shifts.items():
            m = times == tt
            for c, xc in zip(coords, xs):
                m = m & (c == xc)
            out[np.broadcast_to(m, out.shape)] += dv
        return out

    def _draws(self, key_arrays) -> np.ndarray:
        """Keyed draws over the broadcast shape of key_arrays.

        Grids of up to _BLOCK elements are hashed in one call. Larger ones
        are cut along their leading axis of extent > 1 into blocks of about
        _BLOCK elements, so the scratch of each block stays in cache (a
        single (1, L, L) layer is cut along its rows); every block is
        hashed, mapped to floats and written into one preallocated output.
        """
        shape = np.broadcast(*key_arrays).shape
        out = np.empty(shape)
        if out.size <= _BLOCK:
            self._fill(hash_keys_vec(self.spec.seed, key_arrays), out)
            return out
        axis = next(i for i, n in enumerate(shape) if n > 1)
        rows = max(1, _BLOCK // (out.size // shape[axis]))
        # key arrays align with the output from the right; only those
        # spanning the cut axis are cut, the rest broadcast to each block
        lead = (slice(None),) * axis
        cut = [a.ndim > out.ndim - 1 - axis
               and a.shape[axis - out.ndim + a.ndim] != 1 for a in key_arrays]
        for r0 in range(0, shape[axis], rows):
            rs = slice(r0, r0 + rows)
            block = [a[(slice(None),) * (axis - out.ndim + a.ndim) + (rs,)]
                     if c else a for a, c in zip(key_arrays, cut)]
            self._fill(hash_keys_vec(self.spec.seed, block),
                       out[lead + (rs,)])
        return out

    def _fill(self, h: np.ndarray, dst: np.ndarray) -> None:
        """Map hash words to draws of the family, written into dst."""
        u = unit_open_vec(h, out=dst)
        if self.spec.family == "uniform":
            # scale * (2u - 1) in place
            np.multiply(u, 2.0, out=u)
            np.subtract(u, 1.0, out=u)
            np.multiply(u, self.spec.scale, out=u)
        else:
            dst[...] = _triangular_icdf(u, self.spec.scale)

    # views -----------------------------------------------------------------

    def perturb_at(self, s: int, y, delta: float) -> "NoiseModel":
        """View with the draw at (s, y) shifted by delta."""
        key = (s, _as_site(y))
        new = dict(self.shifts)
        new[key] = new.get(key, 0.0) + float(delta)
        return replace(self, shifts=new)


def make_noise(family: str = "uniform", scale: float = DEFAULT_SCALE,
               seed: int = 0) -> NoiseModel:
    return NoiseModel(NoiseSpec(family=family, scale=scale, seed=seed))


def replica_noise(family: str, scale: float, seed: int,
                  replica: int) -> NoiseModel:
    """Noise field of one replica: keyed by the replica's derived seed."""
    return make_noise(family, scale, derive_seed(seed, replica))
