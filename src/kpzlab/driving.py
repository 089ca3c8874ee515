"""Driving functions phi acting on nearest-neighbor stencils.

A stencil collects the heights (f(t, x+a)) for a in the closed neighborhood
{0, +e1, -e1, ..., +ed, -ed}, in that fixed order (center first, then the
two neighbors along each axis). All gradients and Hessians returned by this
module use the same indexing.

Built-ins:
  polymer  log of the average of exponentiated heights (log-sum-exp / 2d+1)
  gkpz     mean height plus a coupling times a sum of kink penalties
  ew       plain mean height (degenerate reference dynamics)
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

Offset = Tuple[int, ...]

# stencil sites per phi evaluation block: a (2d+1, block) float64 stack and
# the temporaries value_many makes of its size (~0.3 MB each at d = 2) stay
# in a 2 MiB L2 cache, where a whole 321x321 stack (4.1 MB) does not.
# check_assumptions evaluates _PHI_BLOCK // (2d+1) stencils per block, so
# its stacks hold _PHI_BLOCK values (64 KiB)
_PHI_BLOCK = 1 << 13


def stencil_offsets(d: int) -> List[Offset]:
    """Neighborhood offsets in stencil order: 0, +e1, -e1, ..., +ed, -ed."""
    offs: List[Offset] = [tuple(0 for _ in range(d))]
    for axis in range(d):
        for sign in (+1, -1):
            v = [0] * d
            v[axis] = sign
            offs.append(tuple(v))
    return offs


def _as_values(u, d: int) -> np.ndarray:
    v = np.asarray(u, dtype=np.float64)
    if v.shape != (2 * d + 1,):
        raise ValueError(f"expected {2*d+1} stencil values, got {v.shape}")
    return v


# |q|, |r| or |q - r| at most this makes an origin Hessian degenerate
DEGENERACY_TOL = 1e-9


@dataclass(frozen=True)
class HessianAtOrigin:
    """Hessian of phi at the flat stencil: q on the diagonal, r off it."""

    q: float
    r: float

    @property
    def q_minus_r(self) -> float:
        return self.q - self.r

    @property
    def nondegeneracy(self) -> float:
        """min(|q|, |r|, |q - r|): how far the Hessian is from degenerate."""
        return min(abs(self.q), abs(self.r), abs(self.q_minus_r))

    @property
    def degenerate(self) -> bool:
        """q, r or q - r within DEGENERACY_TOL of zero: check-phi fails
        phi, and it has no usable gradient coefficient, so no macro
        terms."""
        return not self.nondegeneracy > DEGENERACY_TOL  # NaN is degenerate


def psi_example_prime(x):
    """Derivative of gkpz's kink penalty psi, which is x^2 inside
    |x| <= 1 and 2|x| - 1 outside: C1 everywhere, C2 near 0 with
    psi''(0) = 2, slope bounded by 2."""
    x = np.asarray(x, dtype=np.float64)
    out = np.where(np.abs(x) <= 1.0, 2.0 * x, 2.0 * np.sign(x))
    return out if out.ndim else float(out)


PSI_EXAMPLE_CURVATURE = 2.0  # psi''(0)


class DrivingFunction:
    """Base: scalar and vectorized evaluation plus the finite-difference
    Hessian that check_assumptions compares with hessian_origin.

    Subclasses set `name` and `d` and override value_many, gradient_many
    and hessian_origin with closed forms.
    """

    name = "custom"

    def __init__(self, d: int):
        if d < 1:
            raise ValueError("dimension must be >= 1")
        self.d = int(d)
        self.n = 2 * d + 1

    # -- evaluation ---------------------------------------------------------

    def value_many(self, U: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def value(self, u) -> float:
        v = _as_values(u, self.d)
        return float(self.value_many(v.reshape(self.n, 1))[0])

    # -- first derivatives ----------------------------------------------------

    def gradient_many(self, U: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def gradient(self, u) -> np.ndarray:
        v = _as_values(u, self.d)
        return self.gradient_many(v.reshape(self.n, 1))[:, 0]

    # -- second derivatives at the flat stencil -------------------------------

    def hessian_matrix_fd(self, h: float = 1e-4) -> np.ndarray:
        """Finite-difference Hessian at 0 via gradient differences.

        Raises if the mixed partials come out asymmetric, which is the
        operational signature of a phi that is not C2 near the origin.
        """
        n = self.n
        H = np.empty((n, n))
        for i in range(n):
            up = np.zeros(n)
            up[i] = h
            H[i] = (self.gradient(up) - self.gradient(-up)) / (2.0 * h)
        asym = np.abs(H - H.T).max()
        if asym > 1e-3:
            raise ArithmeticError(
                f"mixed partials asymmetric by {asym:.3e} at step {h}; "
                "phi does not look C2 near the origin")
        return 0.5 * (H + H.T)

    def hessian_origin(self) -> HessianAtOrigin:
        raise NotImplementedError


class PolymerDriving(DrivingFunction):
    """phi(u) = log( (2d+1)^{-1} sum_a exp(u_a) ), evaluated max-shifted."""

    name = "polymer"

    def value_many(self, U: np.ndarray) -> np.ndarray:
        # one temporary of U's size, exponentiated in place
        U = np.asarray(U, dtype=np.float64)
        m = np.maximum.reduce(U)
        E = np.subtract(U, m)
        np.exp(E, out=E)
        return m + np.log(np.add.reduce(E) / self.n)

    def gradient_many(self, U: np.ndarray) -> np.ndarray:
        U = np.asarray(U, dtype=np.float64)
        E = np.exp(U - U.max(axis=0))
        return E / E.sum(axis=0)

    def hessian_origin(self) -> HessianAtOrigin:
        p = 1.0 / self.n
        return HessianAtOrigin(q=p - p * p, r=-p * p)


class GeneralizedKpzDriving(DrivingFunction):
    """phi(u) = mean(u) + coupling * sum_a psi(u_a - mean(u)).

    Monotone whenever coupling <= 1/(4d * sup|psi'|); the default coupling
    1/(16d) sits at half that threshold for the shipped psi.
    """

    name = "gkpz"

    def __init__(self, d: int, coupling: float | None = None):
        super().__init__(d)
        self.coupling = float(coupling) if coupling is not None else 1.0 / (16.0 * d)
        if not (math.isfinite(self.coupling) and self.coupling > 0):
            raise ValueError("coupling must be positive and finite")

    def value_many(self, U: np.ndarray) -> np.ndarray:
        # psi of the gaps from |U - ubar|, computed once: 2|x| - 1 goes
        # into a second array, the square overwrites |x| in place, and
        # putmask keeps the square where |x| <= 1 (NaN takes 2|x| - 1);
        # putmask ran ~4x faster than np.copyto(where=) on audit blocks
        U = np.asarray(U, dtype=np.float64)
        ubar = np.add.reduce(U) / self.n  # U.mean(axis=0), bit for bit
        A = np.subtract(U, ubar)
        np.abs(A, out=A)
        quadratic = A <= 1.0
        P = np.multiply(A, 2.0)
        np.subtract(P, 1.0, out=P)
        np.multiply(A, A, out=A)
        np.putmask(P, quadratic, A)
        return ubar + self.coupling * np.add.reduce(P)

    def gradient_many(self, U: np.ndarray) -> np.ndarray:
        U = np.asarray(U, dtype=np.float64)
        ubar = U.mean(axis=0)
        P = psi_example_prime(U - ubar)
        return 1.0 / self.n + self.coupling * (P - P.sum(axis=0) / self.n)

    def hessian_origin(self) -> HessianAtOrigin:
        cw = self.coupling * PSI_EXAMPLE_CURVATURE
        return HessianAtOrigin(q=cw * (self.n - 1) / self.n, r=-cw / self.n)


class EdwardsWilkinsonDriving(DrivingFunction):
    """phi(u) = mean(u). Degenerate: flat Hessian, no strict domination."""

    name = "ew"

    def value_many(self, U: np.ndarray) -> np.ndarray:
        return np.asarray(U, dtype=np.float64).mean(axis=0)

    def gradient_many(self, U: np.ndarray) -> np.ndarray:
        U = np.asarray(U, dtype=np.float64)
        return np.full_like(U, 1.0 / self.n)

    def hessian_origin(self) -> HessianAtOrigin:
        return HessianAtOrigin(0.0, 0.0)


def make_driving(name: str, d: int, coupling: float | None = None) -> DrivingFunction:
    if name == "polymer":
        return PolymerDriving(d)
    if name == "gkpz":
        return GeneralizedKpzDriving(d, coupling=coupling)
    if name == "ew":
        return EdwardsWilkinsonDriving(d)
    raise ValueError(f"unknown driving function {name!r}; "
                     "expected polymer, gkpz or ew")
