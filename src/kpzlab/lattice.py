"""Torus geometry, height slices, and the growth recursion.

The update is f(t+1, x) = phi((f(t, x+a))_a) + epsilon * z_{t+1, x}, started
from the flat zero surface. Sites live on a d-dimensional torus of side L
whose coordinates are canonical signed representatives in
[-(L//2), L-1-L//2]; noise is keyed by those representatives, so two runs
at different L agree exactly wherever their windows overlap. Information
moves one site per step, so with L >= 2T+1 the torus run reproduces the
infinite-lattice values at the central site through time T (cone
exactness).

Every evolution is read through capture(config, times), which steps from
flat to T and yields the slices at the requested times only; evolve() asks
for T alone. Because the noise is a pure function of (seed, t, x),
capture() hashes the layers ahead of time in blocks of about _BLOCK draws
(many layers of a small lattice per call, one layer of a large one) and
hands each layer's row to step(), which only does the arithmetic. Each
block's last slice is checked for nonfinite heights.

step() evaluates phi one block of noise.blocks(shape, _PHI_BLOCK) at a
time, each block building only its own box of the stencil stack, so the
stack and the temporaries of value_many stay in a 2 MiB L2 cache. Phi acts
on each stencil on its own, so the blocked slice is bit for bit the
unblocked one.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, Iterator, List, Tuple

import numpy as np

from .driving import _PHI_BLOCK, DrivingFunction
from .noise import _BLOCK, NoiseModel, Site, blocks


class ConeWrapWarning(UserWarning):
    """Raised as a warning when a horizon outruns the torus half-width."""


def min_cone_side(T: int) -> int:
    """Smallest torus side guaranteeing cone exactness through time T."""
    return 2 * T + 1


@dataclass(frozen=True)
class LatticeGeometry:
    d: int
    L: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.L < 3:
            raise ValueError("torus side L must be >= 3")

    @property
    def lo(self) -> int:
        return -(self.L // 2)

    @property
    def n_sites(self) -> int:
        return self.L ** self.d

    @property
    def shape(self) -> Tuple[int, ...]:
        return (self.L,) * self.d

    def wrap(self, x) -> Site:
        if isinstance(x, (int, np.integer)):
            x = (int(x),)
        return tuple((int(c) - self.lo) % self.L + self.lo for c in x)

    def index(self, x) -> Tuple[int, ...]:
        """Array index of a (possibly unwrapped) site."""
        w = self.wrap(x)
        return tuple(c - self.lo for c in w)

    def site_mesh(self) -> List[np.ndarray]:
        """Coordinate arrays (one per axis) over the canonical window.

        Dense (d arrays of L^d sites) and built afresh on each call from
        the cached open axes, so no full mesh outlives its caller.
        """
        return [np.broadcast_to(a, self.shape).copy()
                for a in _site_axes(self.d, self.L)]


@lru_cache(maxsize=32)
def _site_axes(d: int, L: int) -> Tuple[np.ndarray, ...]:
    """Open (sparse) coordinate mesh: axis i has shape L along dimension i.

    capture() draws on it, with a (k, 1, ..., 1) time key prepended,
    so each axis key is hashed on L values, not L^d.
    Read-only, because the cache hands the same arrays to every caller.
    """
    lo = -(L // 2)
    axes = np.meshgrid(*[np.arange(lo, lo + L, dtype=np.int64)] * d,
                       indexing="ij", sparse=True)
    for a in axes:
        a.flags.writeable = False
    return tuple(axes)


@lru_cache(maxsize=32)
def _phi_blocks(d: int, L: int) -> Tuple[Tuple[tuple, tuple], ...]:
    """step's blocks of the lattice, blocks((L,) * d, _PHI_BLOCK), each as
    its slices and as its stencil_stack box."""
    return tuple((cut, tuple((s.start, s.stop) for s in cut))
                 for cut in blocks((L,) * d, _PHI_BLOCK))


# one entry per box: a lattice of more than 1024 phi blocks (at least
# n_sites / _PHI_BLOCK of them) rebuilds its pairs on every step
@lru_cache(maxsize=1024)
def _shift_pairs(L: int, box: Tuple[Tuple[int, int], ...]
                 ) -> Tuple[Tuple[tuple, tuple], ...]:
    """(destination, source) index pairs that fill the box's stencil stack.

    Row 0 holds x, row 2i+1 holds x + e_i and row 2i+2 holds x - e_i along
    axis i: each is one bulk copy of the box shifted one site along its
    axis plus, where the shift leaves the torus, the one wrapped edge
    cell, as np.roll would move them.
    """
    src = tuple(slice(a, b) for a, b in box)
    pairs = [((0,), src)]
    for i, (a, b) in enumerate(box):
        for row, s, edge, wrap in ((2 * i + 1, 1, b - a - 1, 0),
                                   (2 * i + 2, -1, 0, L - 1)):
            lo, hi = max(a + s, 0), min(b + s, L)
            moves = [(slice(lo - a - s, hi - a - s), slice(lo, hi))]
            if hi - lo < b - a:
                moves.append((slice(edge, edge + 1), slice(wrap, wrap + 1)))
            pairs += [((row,) + (slice(None),) * i + (dst,),
                       src[:i] + (cut,) + src[i + 1:]) for dst, cut in moves]
    return tuple(pairs)


@dataclass
class HeightSlice:
    """Heights at one time over the full torus window."""

    geometry: LatticeGeometry
    t: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != self.geometry.shape:
            raise ValueError(f"values shape {v.shape} != {self.geometry.shape}")
        self.values = v

    @classmethod
    def flat(cls, geometry: LatticeGeometry, t: int = 0):
        return cls(geometry, t, np.zeros(geometry.shape))

    def value_at(self, x) -> float:
        return float(self.values[self.geometry.index(x)])

    def stencil_at(self, x) -> np.ndarray:
        """Heights over the closed neighborhood of x, stencil order: the
        stencil stack of the single-site box of x."""
        box = tuple((i, i + 1) for i in self.geometry.index(x))
        return self.stencil_stack(box).reshape(-1)

    def stencil_stack(self, box: Tuple[Tuple[int, int], ...] | None = None
                      ) -> np.ndarray:
        """Heights over the closed neighborhood of each site of box, a
        (start, stop) index pair per axis (default: the whole lattice), in
        stencil order, of shape (2d+1,) + the box's shape: row 0 is the
        slice itself, rows 2i+1 and 2i+2 hold the values at x + e_i and
        x - e_i (torus wrap).
        """
        g, vals = self.geometry, self.values
        box = ((0, g.L),) * g.d if box is None else box
        U = np.empty((2 * g.d + 1,) + tuple(b - a for a, b in box))
        for dst, src in _shift_pairs(g.L, box):
            U[dst] = vals[src]
        return U


@dataclass(frozen=True)
class EvolutionConfig:
    phi: DrivingFunction
    noise: NoiseModel
    geometry: LatticeGeometry
    epsilon: float
    T: int

    def __post_init__(self):
        if not (0.0 < self.epsilon <= 1.0):
            raise ValueError("epsilon must lie in (0, 1]")
        if self.T < 0:
            raise ValueError("T must be >= 0")
        if self.phi.d != self.geometry.d:
            raise ValueError("phi dimension != lattice dimension")


def step(slice_: HeightSlice, phi: DrivingFunction, epsilon: float,
         z: np.ndarray) -> HeightSlice:
    """One growth update: phi over each stencil plus epsilon times z.

    z is the noise layer t+1, drawn by capture(), the only caller of step().
    The new slice is filled one block of blocks(shape, _PHI_BLOCK) at a
    time, so each block's stencil stack and phi temporaries stay in L2;
    the result is bit for bit that of one phi call on the whole stack.
    """
    g = slice_.geometry
    new = np.empty(g.shape)
    for cut, box in _phi_blocks(g.d, g.L):
        np.add(phi.value_many(slice_.stencil_stack(box)), epsilon * z[cut],
               out=new[cut])
    return HeightSlice(g, slice_.t + 1, new)


def capture(config: EvolutionConfig,
            times: Iterable[int]) -> Iterator[HeightSlice]:
    """Grow from the flat zero surface to T in T step() calls and yield the
    slice at each distinct time in times, ascending.

    A time outside 0..T raises ValueError before any step. The noise is
    drawn k = max(1, _BLOCK // L^d) layers at a time in one sample_spacetime
    call, and never past T. A block is stepped with numpy's overflow
    warnings off and raises FloatingPointError, before yielding any slice,
    when its last slice holds a nonfinite height. Never warns about torus
    wrap; its readers do.
    """
    keep = frozenset(times)
    if bad := keep.difference(range(config.T + 1)):
        raise ValueError(f"capture times {sorted(bad)} outside 0..{config.T}")
    g = config.geometry
    axes = _site_axes(g.d, g.L)
    k = max(1, _BLOCK // g.n_sites)
    cur = HeightSlice.flat(g, t=0)
    if 0 in keep:
        yield cur
    for (ts,) in blocks((config.T,), k):
        layers = np.arange(ts.start + 1, ts.stop + 1, dtype=np.int64)
        z = config.noise.sample_spacetime(layers.reshape((-1,) + (1,) * g.d),
                                          axes)
        block = []
        with np.errstate(over="ignore", invalid="ignore"):
            for z_t in z:
                cur = step(cur, config.phi, config.epsilon, z_t)
                block.append(cur)
        _check_finite(cur)
        yield from (s for s in block if s.t in keep)


def _check_finite(slice_: HeightSlice) -> None:
    bad = ~np.isfinite(slice_.values)
    if bad.any():
        g = slice_.geometry
        site = tuple(int(i) + g.lo for i in np.argwhere(bad)[0])
        raise FloatingPointError(
            f"nonfinite height {slice_.values[bad][0]} at t={slice_.t}, "
            f"site {site}")


def _warn_if_wrapped(T: int, g: LatticeGeometry) -> None:
    """Warn, at the caller's caller, when a horizon outruns the torus."""
    if T > 0 and g.L < min_cone_side(T):
        warnings.warn(
            f"horizon T={T} outruns torus side L={g.L} "
            f"(need L >= {min_cone_side(T)} for cone exactness); "
            "values carry torus wrap bias", ConeWrapWarning, stacklevel=3)


def evolve(config: EvolutionConfig) -> HeightSlice:
    """Run the recursion from the flat zero surface to time T.

    Returns the final slice. Warns when the dependence cone of late times
    wraps the torus.
    """
    _warn_if_wrapped(config.T, config.geometry)
    last, = capture(config, (config.T,))
    return last


# ---------------------------------------------------------------------------
# CSV export


def slice_columns(slice_: HeightSlice, epsilon: float,
                  seed: int) -> Dict[str, object]:
    """Columns for the CSV export, one row per site in row-major order.

    The metadata are scalars; x1..xd are the site coordinates and value
    the heights, each an array of the lattice's shape that write_csv reads
    in row-major order. The coordinates are broadcast views of the site
    axes, so no per-site coordinate array is made.
    """
    g = slice_.geometry
    cols: Dict[str, object] = {"d": g.d, "L": g.L, "t": slice_.t,
                               "epsilon": epsilon, "seed": seed}
    for axis, a in enumerate(_site_axes(g.d, g.L), start=1):
        cols[f"x{axis}"] = np.broadcast_to(a, g.shape)
    cols["value"] = slice_.values
    return cols
