"""Test oracles: independent computations the package is checked against.

Neither is used by the package itself; each recomputes a quantity by a
route that shares no code path with the one under test.
"""
import itertools
import math
from typing import Tuple

import numpy as np

from kpzlab.driving import DrivingFunction, stencil_offsets
from kpzlab.lattice import EvolutionConfig, LatticeGeometry, evolve
from kpzlab.noise import NoiseModel
from kpzlab.walk import _l1_ball


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


def zero_layer_shift(phi: DrivingFunction, noise: NoiseModel,
                     geometry: LatticeGeometry, epsilon: float, t: int, x
                     ) -> Tuple[float, float]:
    """Effect of erasing the first noise layer, with its a-priori bound.

    Returns (shift, bound): shift = f(t,x) - g(t,x) where g grows under
    the zeroed-layer view, and bound = epsilon * max |z_{1,y}| over the
    sites y within L1 distance < t of x.
    """
    f = evolve(EvolutionConfig(phi, noise, geometry, epsilon, T=t))
    g = evolve(EvolutionConfig(phi, noise.zero_first_layer(), geometry,
                               epsilon, T=t))
    xs = geometry.wrap(x)
    zmax = 0.0
    for y in _l1_ball(xs, t - 1, geometry.d):
        zmax = max(zmax, abs(noise.sample(1, geometry.wrap(y))))
    return f.value_at(x) - g.value_at(x), epsilon * zmax
