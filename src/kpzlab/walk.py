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
from dataclasses import replace
from typing import List, Sequence, Tuple

import numpy as np

from .driving import DrivingFunction, stencil_offsets
from .lattice import EvolutionConfig, HeightSlice, capture, evolve

WEIGHT_TOL = 1e-12


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
                               x) -> List[np.ndarray]:
    """The walk's law from (t, x) at each time s = 0..t: masses[s] is a
    full lattice array, masses[t] the point mass at x.

    slices[s] is the slice at time s, as capture(config, range(t)) yields
    them; slices 0 ... t-1 must be present. Masses are conserved exactly
    up to float addition; support grows one site per backward step.
    """
    need = max(t, 1)
    if [s.t for s in slices[:need]] != list(range(need)):
        raise ValueError(f"the walk from t={t} needs the slices at "
                         f"t = 0..{need - 1} in order")
    g = slices[0].geometry
    offs = stencil_offsets(g.d)
    cur = np.zeros(g.shape)
    cur[g.index(x)] = 1.0
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
    return masses[::-1]


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
    """The walk derivative d f(T, x) / d z_{s,y} = eps * P(walk at y at
    time s) against derivative_fd, T = config.T: ([(s, y, walk, fd)] over
    the cone, s = 1..T and |y - x|_1 <= T - s, and [|eps * mass(s) - eps|]
    for s = 1..T)."""
    eps, T, g = config.epsilon, config.T, config.geometry
    masses = backward_walk_distribution(list(capture(config, range(T + 1))),
                                        config.phi, T, x)
    pairs = [(s, y, eps * float(masses[s][g.index(y)]),
              derivative_fd(config, x, s, y))
             for s in range(1, T + 1) for y in _l1_ball(tuple(x), T - s, g.d)]
    return pairs, [abs(eps * float(masses[s].sum()) - eps)
                   for s in range(1, T + 1)]


def _l1_ball(center: Tuple[int, ...], radius: int, d: int):
    rng = range(-radius, radius + 1)
    for off in itertools.product(rng, repeat=d):
        if sum(abs(o) for o in off) <= radius:
            yield tuple(c + o for c, o in zip(center, off))
