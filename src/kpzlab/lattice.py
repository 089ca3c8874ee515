"""Torus geometry, height slices, and the growth recursion.

The update is f(t+1, x) = phi((f(t, x+a))_a) + epsilon * z_{t+1, x}, started
from the flat zero surface. Sites live on a d-dimensional torus of side L
whose coordinates are canonical signed representatives in
[-(L//2), L-1-L//2]; noise is keyed by those representatives, so two runs
at different L agree exactly wherever their windows overlap. Information
moves one site per step, so with L >= 2T+1 the torus run reproduces the
infinite-lattice values at the central site through time T (cone
exactness).
"""
from __future__ import annotations

import itertools
import math
import struct
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Tuple, Union

import numpy as np

from .driving import DrivingFunction, stencil_offsets
from .noise import NoiseModel, Site


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
        """Coordinate arrays (one per axis) over the canonical window."""
        return _site_mesh(self.d, self.L)

    def sites(self):
        """Iterate all canonical sites in row-major order."""
        rng = range(self.lo, self.lo + self.L)
        return itertools.product(*[rng] * self.d)


@lru_cache(maxsize=32)
def _site_mesh(d: int, L: int) -> List[np.ndarray]:
    lo = -(L // 2)
    axes = [np.arange(lo, lo + L, dtype=np.int64) for _ in range(d)]
    return list(np.meshgrid(*axes, indexing="ij"))


@lru_cache(maxsize=32)
def _site_axes(d: int, L: int) -> Tuple[np.ndarray, ...]:
    """Open (sparse) coordinate mesh: axis i has shape L along dimension i.

    step() draws on it so each axis key is hashed on L values, not L^d.
    Read-only, because the cache hands the same arrays to every caller.
    """
    lo = -(L // 2)
    axes = np.meshgrid(*[np.arange(lo, lo + L, dtype=np.int64)] * d,
                       indexing="ij", sparse=True)
    for a in axes:
        a.flags.writeable = False
    return tuple(axes)


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

    def local_average(self, x) -> float:
        return float(self.stencil_at(x).mean())

    def discrete_gradient(self, x) -> np.ndarray:
        """Forward differences f(x+e_i) - f(x), one per axis."""
        g = self.geometry
        xs = g.wrap(x)
        base = self.value_at(xs)
        out = np.empty(g.d)
        for axis in range(g.d):
            nb = list(xs)
            nb[axis] += 1
            out[axis] = self.value_at(tuple(nb)) - base
        return out

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
         epsilon: float) -> HeightSlice:
    """One growth update: phi over each stencil plus fresh scaled noise."""
    g = slice_.geometry
    vals = slice_.values
    U = np.empty((2 * g.d + 1,) + vals.shape)
    U[0] = vals
    k = 1
    for axis in range(g.d):
        U[k] = np.roll(vals, -1, axis=axis)      # value at x + e_axis
        U[k + 1] = np.roll(vals, +1, axis=axis)  # value at x - e_axis
        k += 2
    t_next = slice_.t + 1
    new = phi.value_many(U) + epsilon * noise.sample_grid(t_next,
                                                          _site_axes(g.d, g.L))
    return HeightSlice(g, t_next, new)


def evolve(config: EvolutionConfig) -> Union[HeightHistory, HeightSlice]:
    """Run the recursion from the flat zero surface to time T.

    Returns the full history when keep_history, else the final slice.
    Warns when the dependence cone of late times wraps the torus.
    """
    g = config.geometry
    if config.T > 0 and g.L < min_cone_side(config.T):
        warnings.warn(
            f"horizon T={config.T} outruns torus side L={g.L} "
            f"(need L >= {min_cone_side(config.T)} for cone exactness); "
            "values carry torus wrap bias", ConeWrapWarning, stacklevel=2)
    cur = HeightSlice.flat(g, t=0)
    slices = [cur]
    for _ in range(config.T):
        cur = step(cur, config.phi, config.noise, config.epsilon)
        if config.keep_history:
            slices.append(cur)
    if config.keep_history:
        return HeightHistory(slices)
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
# slice snapshots: compact binary plus CSV export

_MAGIC = b"KPZS"
_VERSION = 1
_HEADER = struct.Struct("<4sHHIqdQ")  # magic, version, d, L, t, epsilon, seed


def save_slice(path, slice_: HeightSlice, epsilon: float, seed: int) -> None:
    g = slice_.geometry
    head = _HEADER.pack(_MAGIC, _VERSION, g.d, g.L, slice_.t,
                        float(epsilon), seed & 0xFFFFFFFFFFFFFFFF)
    with open(path, "wb") as fh:
        fh.write(head)
        fh.write(slice_.values.astype("<f8").ravel(order="C").tobytes())


def load_slice(path) -> Tuple[HeightSlice, float, int]:
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise ValueError("not a height-slice snapshot")
        magic, version, d, L, t, epsilon, seed = _HEADER.unpack(head)
        if magic != _MAGIC or version != _VERSION:
            raise ValueError("not a height-slice snapshot")
        data = np.frombuffer(fh.read(), dtype="<f8").astype(np.float64)
    g = LatticeGeometry(d, L)
    if data.size != g.n_sites:
        raise ValueError("snapshot payload size mismatch")
    return HeightSlice(g, t, data.reshape(g.shape)), epsilon, seed


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
