"""Backward random walk carrying noise derivatives of the height.

The derivative of f(t, x) with respect to the noise z_{s, y} equals
epsilon times the probability that a backward walk started at (t, x)
sits at y at time s. The walk steps from (s, y) to (s-1, y+a) with
probability equal to the a-component of grad phi evaluated on the
time-(s-1) stencil around y, so its law is computed here exactly by
propagating the full mass vector (no sampling). derivative_pairs checks
it against finite differences for walk-check and acceptance criterion 03;
derivative_fd reruns the evolution it is given with one draw shifted.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

import numpy as np

from .driving import DrivingFunction, stencil_offsets
from .lattice import (EvolutionConfig, HeightSlice, LatticeGeometry, capture,
                      evolve)

WEIGHT_TOL = 1e-12


@dataclass
class WalkDistribution:
    """Exact occupation law of the backward walk anchored at (t, x).

    masses[k] is the distribution over torus sites at time s = t - k,
    stored as a full lattice array; masses[0] is a point mass at x.
    """

    geometry: LatticeGeometry
    t: int
    x: Tuple[int, ...]
    masses: List[np.ndarray]

    def mass_at(self, s: int, y) -> float:
        if not (0 <= s <= self.t):
            raise ValueError(f"walk time {s} outside [0, {self.t}]")
        return float(self.masses[self.t - s][self.geometry.index(y)])

    def total_mass(self, s: int) -> float:
        if not (0 <= s <= self.t):
            raise ValueError(f"walk time {s} outside [0, {self.t}]")
        return float(self.masses[self.t - s].sum())


def _gradient_field(phi: DrivingFunction, slice_: HeightSlice) -> np.ndarray:
    """grad phi over every site's stencil; shape (2d+1,) + lattice shape."""
    G = phi.gradient_many(slice_.stencil_stack())
    gmin = float(G.min())
    total_err = float(np.abs(G.sum(axis=0) - 1.0).max())
    if gmin < -WEIGHT_TOL or total_err > 1e-9:
        raise ArithmeticError(
            f"gradient weights invalid at t={slice_.t}: min={gmin:.3e}, "
            f"sum deviation={total_err:.3e}; phi is not a monotone "
            "equivariant update here")
    return G


def backward_walk_distribution(slices: Sequence[HeightSlice],
                               phi: DrivingFunction, t: int,
                               x) -> WalkDistribution:
    """Propagate the walk's law from (t, x) down to time 0.

    slices[s] is the slice at time s, as capture(config, range(t)) yields
    them; slices 0 ... t-1 must be present. Masses are conserved exactly
    up to float addition; support grows one site per backward step.
    """
    need = max(t, 1)
    if [s.t for s in slices[:need]] != list(range(need)):
        raise ValueError(f"the walk from t={t} needs the slices at "
                         f"t = 0..{need - 1} in order")
    g = slices[0].geometry
    xs = g.wrap(x)
    offs = stencil_offsets(g.d)
    cur = np.zeros(g.shape)
    cur[g.index(xs)] = 1.0
    masses = [cur]
    for s in range(t, 0, -1):
        G = _gradient_field(phi, slices[s - 1])
        nxt = np.zeros(g.shape)
        for k, off in enumerate(offs):
            W = cur * G[k]
            if not any(off):
                nxt += W
                continue
            axis = next(i for i, o in enumerate(off) if o)
            nxt += np.roll(W, off[axis], axis=axis)
        cur = nxt
        masses.append(cur)
    return WalkDistribution(g, t, xs, masses)


def derivative_via_walk(dist: WalkDistribution, s: int, y,
                        epsilon: float) -> float:
    """d f(t,x) / d z_{s,y} = epsilon * P(walk at y at time s); s in [1, t]."""
    if not (1 <= s <= dist.t):
        raise ValueError("noise layers run from 1 to t")
    return epsilon * dist.mass_at(s, y)


def derivative_fd(config: EvolutionConfig, x, s: int, y,
                  h: float = 1e-5) -> float:
    """Central finite difference of f(T, x), T = config.T, in the single
    draw z_{s,y} of config's noise.

    The torus reads the noise only at canonical sites, so the draw that
    is shifted is the one at the wrapped y.
    """
    yw = config.geometry.wrap(y)
    vals = []
    for sign in (+1.0, -1.0):
        noise = config.noise.perturb_at(s, yw, sign * h)
        vals.append(evolve(replace(config, noise=noise)).value_at(x))
    return (vals[0] - vals[1]) / (2.0 * h)


def derivative_pairs(config: EvolutionConfig, x):
    """derivative_via_walk against derivative_fd for f(T, x), T = config.T:
    ([(s, y, walk, fd)] over the cone, s = 1..T and |y - x|_1 <= T - s,
    and [|eps * total_mass(s) - eps|] for s = 1..T)."""
    eps, T, g = config.epsilon, config.T, config.geometry
    dist = backward_walk_distribution(list(capture(config, range(T + 1))),
                                      config.phi, T, x)
    pairs = [(s, y, derivative_via_walk(dist, s, y, eps),
              derivative_fd(config, x, s, y))
             for s in range(1, T + 1) for y in _l1_ball(tuple(x), T - s, g.d)]
    return pairs, [abs(eps * dist.total_mass(s) - eps)
                   for s in range(1, T + 1)]


def _l1_ball(center: Tuple[int, ...], radius: int, d: int):
    if radius < 0:
        return
    rng = range(-radius, radius + 1)
    for off in itertools.product(rng, repeat=d):
        if sum(abs(o) for o in off) <= radius:
            yield tuple(c + o for c, o in zip(center, off))
