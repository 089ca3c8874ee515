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

step() evaluates phi in row blocks (axis 0) of at most _PHI_BLOCK sites,
or one row when a row is larger: each block builds only its own rows of
the stencil stack, with the wrapped edge rows, so the stack and the
temporaries of value_many stay in a 2 MiB L2 cache instead of streaming a
(2d+1, L, ..., L) stack through memory. Phi acts on each stencil on its
own, so the blocked slice is bit for bit the unblocked one. A lattice of
at most _PHI_BLOCK sites is one block.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, Iterator, List, Tuple

import numpy as np

from .driving import _PHI_BLOCK, DrivingFunction
from .noise import _BLOCK, NoiseModel, Site


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
def _row_blocks(d: int, L: int) -> Tuple[Tuple[int, int], ...]:
    """Row ranges [r0, r1) along axis 0 of at most _PHI_BLOCK sites each,
    or of one row when a row is larger: a row is never cut.

    One range, (0, L), when the whole lattice fits.
    """
    rows = max(1, _PHI_BLOCK // L ** (d - 1))
    return tuple((r0, min(r0 + rows, L)) for r0 in range(0, L, rows))


# one entry per row block: a lattice of more than 1024 blocks (d = 1 past
# L = 2^23, d = 2 from L = 2731, d = 3 from L = 1025) rebuilds its pairs
# on every step
@lru_cache(maxsize=1024)
def _shift_pairs(d: int, L: int, r0: int, r1: int
                 ) -> Tuple[Tuple[tuple, tuple], ...]:
    """(destination, source) index pairs that fill rows r0..r1-1 of a
    stencil stack.

    Row 0 holds x, row 2i+1 holds x + e_i and row 2i+2 holds x - e_i along
    axis i: each is one bulk slice copy plus the one wrapped edge, as
    np.roll would move them. Along axis 0 the neighbors of the block's
    first and last rows come from the rows around it, or from the far
    edge of the torus when the block touches one.
    """
    n = r1 - r0
    rows = slice(r0, r1)
    pairs = [((0,), (rows,))]
    if r1 < L:
        pairs.append(((1,), (slice(r0 + 1, r1 + 1),)))
    else:
        pairs += [((1, slice(0, n - 1)), (slice(r0 + 1, L),)),
                  ((1, slice(n - 1, n)), (slice(0, 1),))]
    if r0 > 0:
        pairs.append(((2,), (slice(r0 - 1, r1 - 1),)))
    else:
        pairs += [((2, slice(1, n)), (slice(0, r1 - 1),)),
                  ((2, slice(0, 1)), (slice(L - 1, L),))]
    for axis in range(1, d):
        lead = (slice(None),) * axis
        src = (rows,) + (slice(None),) * (axis - 1)
        head, tail = slice(0, L - 1), slice(1, L)
        first, last = slice(0, 1), slice(L - 1, L)
        up, down = 2 * axis + 1, 2 * axis + 2
        pairs += [((up,) + lead + (head,), src + (tail,)),
                  ((up,) + lead + (last,), src + (first,)),
                  ((down,) + lead + (tail,), src + (head,)),
                  ((down,) + lead + (first,), src + (last,))]
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
        """Heights over the closed neighborhood of x, stencil order: x's
        column of the one-row stencil stack of its row."""
        i = self.geometry.index(x)
        return self.stencil_stack(i[0], i[0] + 1)[(slice(None), 0) + i[1:]]

    def stencil_stack(self, r0: int = 0, r1: int | None = None) -> np.ndarray:
        """Heights over the closed neighborhood of rows r0..r1-1, stencil
        order; the defaults give every site.

        Shape (2d+1, r1-r0) + (L,) * (d-1): row 0 is the slice itself, rows
        2i+1 and 2i+2 hold the values at x + e_i and x - e_i (torus wrap).
        """
        g, vals = self.geometry, self.values
        r1 = g.L if r1 is None else r1
        U = np.empty((2 * g.d + 1, r1 - r0) + vals.shape[1:])
        for dst, src in _shift_pairs(g.d, g.L, r0, r1):
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
    The new slice is filled in row blocks of at most _PHI_BLOCK sites (or
    one row when a row is larger), so each block's stencil stack and phi
    temporaries stay in L2; the result is bit for bit that of one phi call
    on the whole stack.
    """
    g = slice_.geometry
    new = np.empty(g.shape)
    for r0, r1 in _row_blocks(g.d, g.L):
        np.add(phi.value_many(slice_.stencil_stack(r0, r1)),
               epsilon * z[r0:r1], out=new[r0:r1])
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
    for t0 in range(1, config.T + 1, k):
        t_last = min(t0 + k, config.T + 1) - 1
        layers = np.arange(t0, t_last + 1, dtype=np.int64)
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
