"""Test oracles: independent computations the package is checked against.

None is used by the package itself; each recomputes a quantity by a
route that shares no code path with the one under test. The scalar draw
path here is the reference for the package's array draws, and
CallableDriving is the driving function of a plain callable, with
finite-difference derivatives. The whole-grid pairing, as a plain sum
and as an axis-by-axis contraction, is the reference for the white-noise
study's blocked contraction.
"""
import csv
import itertools
import math
from typing import Callable, List, Sequence, Tuple

import numpy as np

from kpzlab.driving import (DrivingFunction, HessianAtOrigin,
                            stencil_offsets)
from kpzlab.lattice import (EvolutionConfig, HeightSlice, LatticeGeometry,
                            evolve, step)
from kpzlab.noise import NoiseModel
from kpzlab.output import fmt_value
from kpzlab.rng import hash_keys
from kpzlab.studies import _pairing_cells
from kpzlab.walk import _l1_ball


# ---------------------------------------------------------------------------
# the scalar draw path: Python ints and floats, one cell at a time


def unit_open(h: int) -> float:
    """Map a 64-bit word to the unit interval, symmetric about 1/2.

    Mathematically ((h >> 11) + 1/2) * 2^-53 lies in (0, 1); the top word
    rounds to 1.0 in float64, so downstream maps must tolerate u = 1.
    """
    return ((h >> 11) + 0.5) * 2.0**-53


def uniform_icdf(u, scale):
    """Inverse CDF of the uniform law on [-scale, scale]."""
    return scale * (2.0 * u - 1.0)


def word_to_draw(h: int, family: str, scale: float) -> float:
    """The draw of one 64-bit hash word: unit_open, then the inverse CDF of
    the family, on Python floats (math.sqrt for the triangle's branches)."""
    u = unit_open(h)
    if family == "uniform":
        return uniform_icdf(u, scale)
    if u < 0.5:
        return scale * (math.sqrt(2.0 * u) - 1.0)
    return scale * (1.0 - math.sqrt(2.0 * (1.0 - u)))


def scalar_sample(noise: NoiseModel, t: int, x) -> float:
    """z_{t,x} of a noise view by the scalar route, shift included.

    hash_keys on Python ints over the key stream (t, *x), word_to_draw,
    plus the view's shift at (t, x): no array code, so it checks every
    vectorized draw of the package from outside.
    """
    xs = (int(x),) if isinstance(x, (int, np.integer)) else \
        tuple(int(c) for c in x)
    h = hash_keys(noise.spec.seed, (t, *xs))
    z = word_to_draw(h, noise.spec.family, noise.spec.scale)
    return z + noise.shifts.get((t, xs), 0.0)


# ---------------------------------------------------------------------------
# the built-in driving functions and the audit's stencil batch, whole


def psi_example(x):
    """Kink penalty of the gkpz driving: x^2 inside |x|<=1, then 2|x|-1.

    C1 everywhere, C2 near 0 with psi''(0)=2, slope bounded by 2.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.where(np.abs(x) <= 1.0, x * x, 2.0 * np.abs(x) - 1.0)
    return out if out.ndim else float(out)


def polymer_value_many(U: np.ndarray) -> np.ndarray:
    """Polymer phi of the stencil columns as one max-shifted expression."""
    U = np.asarray(U, dtype=np.float64)
    m = U.max(axis=0)
    return m + np.log(np.exp(U - m).sum(axis=0) / U.shape[0])


def gkpz_value_many(U: np.ndarray, coupling: float) -> np.ndarray:
    """gkpz phi of the stencil columns: mean plus coupled psi_example sum."""
    U = np.asarray(U, dtype=np.float64)
    ubar = U.mean(axis=0)
    return ubar + coupling * psi_example(U - ubar).sum(axis=0)


def audit_stencil_batch(rng: np.random.Generator, n: int, samples: int):
    """The audit's stencils (n, samples + samples // 10) and their shifts,
    drawn whole: samples wide stencils in the inf-ball of radius 5, then
    samples // 10 near-origin ones, then one shift in [-10, 10] each."""
    U = rng.uniform(-5.0, 5.0, size=(n, samples))
    small = rng.uniform(-1e-3, 1e-3, size=(n, samples // 10))
    U = np.concatenate([U, small], axis=1)
    return U, rng.uniform(-10.0, 10.0, size=U.shape[1])


# ---------------------------------------------------------------------------
# a driving function given as a plain callable


def fd_gradient_many(phi: DrivingFunction, U: np.ndarray) -> np.ndarray:
    """Gradients of phi at the stencil columns of U by central finite
    differences of phi.value_many, step 1e-5 * max(1, |u|_inf)."""
    U = np.asarray(U, dtype=np.float64)
    h = 1e-5 * np.maximum(1.0, np.abs(U).max(axis=0))
    G = np.empty_like(U)
    for a in range(phi.n):
        Up = U.copy()
        Um = U.copy()
        Up[a] += h
        Um[a] -= h
        G[a] = (phi.value_many(Up) - phi.value_many(Um)) / (2.0 * h)
    return G


class CallableDriving(DrivingFunction):
    """Wrap a scalar function of 2d+1 stencil values.

    Derivatives are finite differences: fd_gradient_many for the
    gradient, and the base class's hessian_matrix_fd for the Hessian at
    the flat stencil. Nothing is assumed about smoothness beyond what
    check_assumptions verifies.
    """

    def __init__(self, d: int, fn: Callable[[np.ndarray], float],
                 name: str = "user"):
        super().__init__(d)
        self.fn = fn
        self.name = name

    def value_many(self, U: np.ndarray) -> np.ndarray:
        U = np.asarray(U, dtype=np.float64)
        flatcols = U.reshape(self.n, -1)
        out = np.array([self.fn(flatcols[:, j])
                        for j in range(flatcols.shape[1])])
        return out.reshape(U.shape[1:])

    def gradient_many(self, U: np.ndarray) -> np.ndarray:
        return fd_gradient_many(self, U)

    def hessian_origin(self) -> HessianAtOrigin:
        H = self.hessian_matrix_fd()
        n = self.n
        q = float(np.trace(H) / n)
        off = H[~np.eye(n, dtype=bool)]
        r = float(off.mean())
        return HessianAtOrigin(q, r)


# ---------------------------------------------------------------------------
# recursions recomputed by other routes


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
        acc = scalar_sample(noise, t, pos)  # i = 0 term
        for i, st in enumerate(steps, start=1):
            pos = tuple(p + o for p, o in zip(pos, st))
            acc += scalar_sample(noise, t - i, pos)
        exponents[idx] = epsilon * acc
    m = exponents.max()
    return float(m + math.log(np.exp(exponents - m).sum())
                 - (t - 1) * math.log(2 * d + 1))


def zero_layer_shift(phi: DrivingFunction, noise: NoiseModel,
                     geometry: LatticeGeometry, epsilon: float, t: int, x
                     ) -> Tuple[float, float]:
    """Effect of erasing the first noise layer, with its a-priori bound.

    Returns (shift, bound): shift = f(t,x) - g(t,x) where g is stepped
    with a zero first layer and each later layer drawn site by site by
    scalar_sample, and bound = epsilon * max |z_{1,y}| over the sites y
    within L1 distance < t of x.
    """
    f = evolve(EvolutionConfig(phi, noise, geometry, epsilon, T=t))
    g = HeightSlice.flat(geometry, t=0)
    sites = list(itertools.product(range(geometry.lo,
                                         geometry.lo + geometry.L),
                                   repeat=geometry.d))
    for s in range(1, t + 1):
        z = np.array([0.0 if s == 1 else scalar_sample(noise, s, y)
                      for y in sites]).reshape(geometry.shape)
        g = step(g, phi, epsilon, z)
    xs = geometry.wrap(x)
    zmax = 0.0
    for y in _l1_ball(xs, t - 1, geometry.d):
        zmax = max(zmax, abs(scalar_sample(noise, 1, geometry.wrap(y))))
    return f.value_at(x) - g.value_at(x), epsilon * zmax


def unblocked_evolve(config: EvolutionConfig) -> HeightSlice:
    """The recursion with phi applied to the whole stencil stack at once.

    Each step is phi.value_many(stencil_stack()) + epsilon * z, with z
    drawn layer by layer on a full site mesh: no row blocks, no layers
    drawn ahead.
    """
    g = config.geometry
    cur = HeightSlice.flat(g, t=0)
    for t in range(1, config.T + 1):
        z = config.noise.sample_grid(t, g.site_mesh())
        cur = HeightSlice(g, t, config.phi.value_many(cur.stencil_stack())
                          + config.epsilon * z)
    return cur


def csv_writer_rows(path, rows: Sequence[dict]) -> None:
    """The CSV a row table makes through csv.writer, row by row.

    Columns in first-seen order, "" where a row lacks one, each cell
    formatted by fmt_value (checked on its own in test_output.py) and
    quoted by csv.QUOTE_MINIMAL.
    """
    fieldnames: List[str] = []
    for r in rows:
        for k in r:
            if k not in fieldnames:
                fieldnames.append(k)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
        w.writerow(fieldnames)
        for r in rows:
            w.writerow([fmt_value(r.get(k, "")) for k in fieldnames])


# ---------------------------------------------------------------------------
# the white-noise pairing on its whole cell grid


def full_cell_averages(factors: Sequence[np.ndarray]) -> np.ndarray:
    """The grid of cell averages: nested np.multiply.outer of the per-axis
    factors of studies._pairing_cells."""
    out = factors[0]
    for f in factors[1:]:
        out = np.multiply.outer(out, f)
    return out


def _full_pairing_grid(plan, fn, epsilon: float):
    """alpha * beta^d, the pairing's coef, the per-axis factors and one full
    meshgrid of noise keys at epsilon."""
    scheme = plan.scheme()
    alpha, beta = scheme.alpha(epsilon), scheme.beta(epsilon)
    m, v_ranges, factors = _pairing_cells(fn, alpha, beta)
    mesh = np.meshgrid(m + 1, *v_ranges, indexing="ij")
    coef = math.sqrt(alpha) * beta ** (plan.d / 2.0) / plan.noise_for(0).sigma
    return alpha * beta ** plan.d, coef, factors, mesh


def full_grid_pairings(plan, fn, epsilon: float
                       ) -> Tuple[np.ndarray, np.ndarray, float]:
    """Each replica's pairing at epsilon, the same sum of |z * cell_avg|,
    and the lattice variance, as plain sums over the whole cell grid.

    One full meshgrid of keys, one draw array per replica, and
    coef * (z * cell_avg).sum(): no cell blocks, no contraction.
    """
    cell_volume, coef, factors, mesh = _full_pairing_grid(plan, fn, epsilon)
    cell_avg = full_cell_averages(factors)
    sums, abs_sums = [], []
    for k in range(plan.replicas):
        p = plan.noise_for(k).sample_spacetime(mesh[0], mesh[1:]) * cell_avg
        sums.append(coef * float(p.sum()))
        abs_sums.append(coef * float(np.abs(p).sum()))
    return (np.array(sums), np.array(abs_sums),
            float(cell_volume * (cell_avg ** 2).sum()))


def full_grid_contraction(plan, fn, epsilon: float) -> np.ndarray:
    """Each replica's pairing at epsilon, contracted on the whole cell grid.

    One full meshgrid of keys and one draw array per replica; the factor
    of the last axis multiplies the array along that axis, which
    np.add.reduce sums away, and so on inward to the time axis.
    """
    _, coef, factors, mesh = _full_pairing_grid(plan, fn, epsilon)
    out = []
    for k in range(plan.replicas):
        a = plan.noise_for(k).sample_spacetime(mesh[0], mesh[1:])
        for f in factors[::-1]:
            a = np.add.reduce(a * f, axis=-1)
        out.append(coef * float(a))
    return np.array(out)
