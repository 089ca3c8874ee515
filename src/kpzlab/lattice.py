"""Torus geometry, height slices, and the growth recursion.

The update is f(t+1, x) = phi((f(t, x+a))_a) + epsilon * z_{t+1, x}, started
from the flat zero surface. Sites live on a d-dimensional torus of side L
whose coordinates are canonical signed representatives in
[-(L//2), L-1-L//2]; noise is keyed by those representatives, so two runs
at different L agree exactly wherever their windows overlap. Information
moves one site per step, so with L >= 2T+1 the torus run reproduces the
infinite-lattice values at the central site through time T (cone
exactness).

Every evolution runs through trajectory(), which yields the slices at
t = 0..T. Because the noise is a pure function of (seed, t, x), it hashes
the layers ahead of time in blocks of about _BLOCK draws (many layers of a
small lattice per call, one layer of a large one), and hands each layer's
row to step(); the draws are bit for bit those step() takes on its own.
Each block's last slice is checked for nonfinite heights.
"""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, List, Optional, Tuple, Union

import numpy as np

from .driving import DrivingFunction, stencil_offsets
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
    def hi(self) -> int:
        return self.lo + self.L - 1

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

    def sites(self):
        """Iterate all canonical sites in row-major order."""
        rng = range(self.lo, self.lo + self.L)
        return itertools.product(*[rng] * self.d)


@lru_cache(maxsize=32)
def _site_axes(d: int, L: int) -> Tuple[np.ndarray, ...]:
    """Open (sparse) coordinate mesh: axis i has shape L along dimension i.

    step() and trajectory() draw on it so each axis key is hashed on L
    values, not L^d; trajectory() prepends a (k, 1, ..., 1) time key.
    Read-only, because the cache hands the same arrays to every caller.
    """
    lo = -(L // 2)
    axes = np.meshgrid(*[np.arange(lo, lo + L, dtype=np.int64)] * d,
                       indexing="ij", sparse=True)
    for a in axes:
        a.flags.writeable = False
    return tuple(axes)


@lru_cache(maxsize=32)
def _shift_pairs(d: int, L: int) -> Tuple[Tuple[tuple, tuple], ...]:
    """(destination, source) index pairs that fill a stencil stack's rows.

    Row 2i+1 holds x + e_i and row 2i+2 holds x - e_i along axis i: each
    is one bulk slice copy plus the one wrapped edge, as np.roll would
    move them.
    """
    pairs = []
    for axis in range(d):
        lead = (slice(None),) * axis
        head, tail = slice(0, L - 1), slice(1, L)
        first, last = slice(0, 1), slice(L - 1, L)
        up, down = 2 * axis + 1, 2 * axis + 2
        pairs += [((up,) + lead + (head,), lead + (tail,)),
                  ((up,) + lead + (last,), lead + (first,)),
                  ((down,) + lead + (tail,), lead + (head,)),
                  ((down,) + lead + (first,), lead + (last,))]
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
    def flat(cls, geometry: LatticeGeometry, t: int = 0, height: float = 0.0):
        return cls(geometry, t, np.full(geometry.shape, float(height)))

    def value_at(self, x) -> float:
        return float(self.values[self.geometry.index(x)])

    def stencil_at(self, x) -> np.ndarray:
        """Heights over the closed neighborhood of x, stencil order."""
        g = self.geometry
        xs = g.wrap(x)
        offs = stencil_offsets(g.d)
        return np.array([self.values[g.index(tuple(c + o for c, o in zip(xs, off)))]
                         for off in offs])

    def stencil_stack(self) -> np.ndarray:
        """Heights over every site's closed neighborhood, stencil order.

        Shape (2d+1,) + lattice shape: row 0 is the slice itself, rows
        2i+1 and 2i+2 hold the values at x + e_i and x - e_i (torus wrap).
        """
        vals = self.values
        g = self.geometry
        U = np.empty((2 * g.d + 1,) + vals.shape)
        U[0] = vals
        for dst, src in _shift_pairs(g.d, g.L):
            U[dst] = vals[src]
        return U

    def gradient_field(self, axis: int = 0) -> np.ndarray:
        """f(x+e_axis) - f(x) over the whole torus, as an array."""
        return np.roll(self.values, -1, axis=axis) - self.values


@dataclass
class HeightHistory:
    slices: List[HeightSlice]

    def __post_init__(self):
        if not self.slices:
            raise ValueError("history needs at least one slice")
        t0 = self.slices[0].t
        for k, s in enumerate(self.slices):
            if s.t != t0 + k:
                raise ValueError("history slices must be consecutive in t")

    @property
    def start_t(self) -> int:
        return self.slices[0].t

    @property
    def end_t(self) -> int:
        return self.slices[-1].t

    def at(self, t: int) -> HeightSlice:
        k = t - self.start_t
        if not (0 <= k < len(self.slices)):
            raise KeyError(f"time {t} outside stored range "
                           f"[{self.start_t}, {self.end_t}]")
        return self.slices[k]

    @property
    def final(self) -> HeightSlice:
        return self.slices[-1]


@dataclass(frozen=True)
class EvolutionConfig:
    phi: DrivingFunction
    noise: NoiseModel
    geometry: LatticeGeometry
    epsilon: float
    T: int
    keep_history: bool = True

    def __post_init__(self):
        if not (0.0 < self.epsilon <= 1.0):
            raise ValueError("epsilon must lie in (0, 1]")
        if self.T < 0:
            raise ValueError("T must be >= 0")
        if self.phi.d != self.geometry.d:
            raise ValueError("phi dimension != lattice dimension")


def step(slice_: HeightSlice, phi: DrivingFunction, noise: NoiseModel,
         epsilon: float, z: Optional[np.ndarray] = None) -> HeightSlice:
    """One growth update: phi over each stencil plus fresh scaled noise.

    z, when given, is the layer t+1 of noise over the window, as
    trajectory() draws it ahead of time; otherwise step draws it itself.
    """
    g = slice_.geometry
    t_next = slice_.t + 1
    if z is None:
        z = noise.sample_grid(t_next, _site_axes(g.d, g.L))
    new = phi.value_many(slice_.stencil_stack()) + epsilon * z
    return HeightSlice(g, t_next, new)


def trajectory(config: EvolutionConfig) -> Iterator[HeightSlice]:
    """Yield the slices at t = 0..T, grown from the flat zero surface.

    The noise is drawn k = max(1, _BLOCK // L^d) layers at a time in one
    sample_spacetime call, and never past T. Raises FloatingPointError
    when the last slice of a block holds a nonfinite height. Never warns
    about torus wrap; evolve() does.
    """
    g = config.geometry
    axes = _site_axes(g.d, g.L)
    k = max(1, _BLOCK // g.n_sites)
    cur = HeightSlice.flat(g, t=0)
    yield cur
    for t0 in range(1, config.T + 1, k):
        t_last = min(t0 + k, config.T + 1) - 1
        times = np.arange(t0, t_last + 1, dtype=np.int64)
        z = config.noise.sample_spacetime(times.reshape((-1,) + (1,) * g.d),
                                          axes)
        for z_t in z:
            cur = step(cur, config.phi, config.noise, config.epsilon, z=z_t)
            if cur.t == t_last:
                _check_finite(cur)
            yield cur


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


def evolve(config: EvolutionConfig) -> Union[HeightHistory, HeightSlice]:
    """Run the recursion from the flat zero surface to time T.

    Returns the full history when keep_history, else the final slice.
    Warns when the dependence cone of late times wraps the torus.
    """
    _warn_if_wrapped(config.T, config.geometry)
    if config.keep_history:
        return HeightHistory(list(trajectory(config)))
    for cur in trajectory(config):
        pass
    return cur


# ---------------------------------------------------------------------------
# independent polymer oracle: brute-force sum over lazy paths


def polymer_path_sum(noise: NoiseModel, epsilon: float, t: int, x,
                     d: int, budget: int = 5000) -> float:
    """f(t, x) for the polymer update via explicit path enumeration.

    log of the (2d+1)^(t-1)-normalized sum over lazy nearest-neighbor
    paths (p_0 = 0, each step stays or moves to a neighbor) of
    exp(epsilon * sum_i z_{t-i, x+p_i}). Enumerates every path, so it is
    an oracle independent of the recursion; guarded by a path budget.
    """
    if t < 1:
        raise ValueError("path sum needs t >= 1")
    offs = stencil_offsets(d)
    n_paths = (2 * d + 1) ** (t - 1)
    if n_paths > budget:
        raise ValueError(f"{n_paths} paths exceed budget {budget}")
    if isinstance(x, (int, np.integer)):
        x = (int(x),)
    x = tuple(int(c) for c in x)
    exponents = np.empty(n_paths)
    for idx, steps in enumerate(itertools.product(offs, repeat=t - 1)):
        pos = x
        acc = noise.sample(t, pos)  # i = 0 term
        for i, st in enumerate(steps, start=1):
            pos = tuple(p + o for p, o in zip(pos, st))
            acc += noise.sample(t - i, pos)
        exponents[idx] = epsilon * acc
    m = exponents.max()
    return float(m + math.log(np.exp(exponents - m).sum())
                 - (t - 1) * math.log(2 * d + 1))


# ---------------------------------------------------------------------------
# CSV export


def slice_csv_rows(slice_: HeightSlice, epsilon: float, seed: int):
    """Rows for the CSV export: metadata plus one row per site."""
    g = slice_.geometry
    flat = slice_.values.ravel(order="C")
    for i, site in enumerate(g.sites()):
        row = {"d": g.d, "L": g.L, "t": slice_.t,
               "epsilon": epsilon, "seed": seed}
        for axis, c in enumerate(site):
            row[f"x{axis + 1}"] = c
        row["value"] = flat[i]
        yield row
