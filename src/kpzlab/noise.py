"""Space-time noise fields z_{t,x}.

A NoiseModel is a pure function of (seed, t, x): i.i.d. in law across
sites and layers, mean zero, bounded, continuous. The one edit is an
additive shift of single draws (perturb_at), which a finite difference in
one noise variable needs; a shifted view shares the base draws and costs
O(#shifts) memory regardless of lattice size.

blocks(shape, limit) is the one rule that cuts a grid into cache-sized
blocks: the keyed draws, the growth step's phi evaluations, the noise
layers drawn ahead, the white-noise pairing's cells, the audit's stencil
batch and the CSV rows all use it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .rng import derive_seed, hash_keys_vec, unit_open_vec

Site = Tuple[int, ...]

FAMILIES = ("uniform", "triangular")

DEFAULT_SCALE = math.sqrt(3.0)  # uniform on [-sqrt3, sqrt3]: sigma = 1

# elements hashed per block: the block's uint64 and float64 scratch arrays
# (256 KiB each) stay in a 1-2 MB L2 cache across the passes of the chain
_BLOCK = 1 << 15


def blocks(shape: Tuple[int, ...], limit: Optional[int] = None
           ) -> List[Tuple[slice, ...]]:
    """Blocks of at most limit cells (default _BLOCK, read at call time)
    that tile the C-order grid of this shape in order, each one slice per
    axis with explicit bounds: whole rows of the leading axis together or,
    where one row holds more than limit cells, each of its rows along the
    next axis cut the same way, down to single cells if need be.
    """
    limit = _BLOCK if limit is None else limit
    if math.prod(shape) == 0:
        return []
    axis, inner = 0, math.prod(shape[1:])
    while inner > limit:
        axis += 1
        inner //= shape[axis]
    step, n = max(1, limit // inner), shape[axis]
    rest = tuple(slice(0, m) for m in shape[axis + 1:])
    return [tuple(slice(p, p + 1) for p in prefix)
            + (slice(i, min(i + step, n)),) + rest
            for prefix in np.ndindex(*shape[:axis])
            for i in range(0, n, step)]


def cut(a: np.ndarray, box: Tuple[slice, ...]) -> np.ndarray:
    """Key array a's part under box, a block of the grid a aligns with from
    the right; axes of extent 1 stay whole, so an open mesh stays open."""
    box = box[len(box) - a.ndim:]
    return a[tuple(s if m > 1 else slice(None) for s, m in zip(box, a.shape))]


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
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError("noise scale must be positive and finite")

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

    def sample_spacetime(self, times, coords: Sequence[np.ndarray],
                         out: Optional[np.ndarray] = None) -> np.ndarray:
        """Vectorized draws where the layer index varies across the grid.

        times and coords may form a full or an open mesh; with times of
        shape (M, 1, ...) each time row is hashed once and broadcast over
        space. Returns the draws over the broadcast shape, computed in
        blocks(shape), written into out when given (a float64 array of that
        shape, which a caller drawing many blocks reuses); no cell's value
        depends on the blocking or the mesh form.
        """
        times = np.asarray(times)
        if times.size and times.min() < 1:
            raise ValueError("noise layers start at t=1")
        coords = [np.asarray(c) for c in coords]
        out = self._draws([times, *coords], out)
        # shifts, in place: one boolean mask per shifted site; shift counts
        # are tiny by contract, the keys may be any broadcastable mesh
        for (tt, xs), dv in self.shifts.items():
            m = times == tt
            for c, xc in zip(coords, xs):
                m = m & (c == xc)
            out[np.broadcast_to(m, out.shape)] += dv
        return out

    def _draws(self, key_arrays,
               out: Optional[np.ndarray] = None) -> np.ndarray:
        """Keyed draws over the broadcast shape of key_arrays, into out if
        given: in one hash call up to _BLOCK elements, else one block of
        blocks(shape) at a time, each key array cut to the block, so each
        block's scratch stays in cache."""
        shape = np.broadcast(*key_arrays).shape
        if out is None:
            out = np.empty(shape)
        elif out.shape != shape or out.dtype != np.float64:
            raise ValueError(f"out must be float64 of shape {shape}, got "
                             f"{out.dtype} of shape {out.shape}")
        if out.size <= _BLOCK:
            self._fill(hash_keys_vec(self.spec.seed, key_arrays), out)
            return out
        for box in blocks(shape):
            self._fill(hash_keys_vec(self.spec.seed,
                                     [cut(a, box) for a in key_arrays]),
                       out[box])
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
