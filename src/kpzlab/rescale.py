"""Macroscopic rescaling and the exact four-term increment decomposition.

The rescaled field is F(t, x) = gamma * f(ceil(t/alpha), ceil(x/beta))
with ceil the least-integer-above map (so ceil(-0.3) = 0). Inside a cell
the space map sends x + beta*a exactly to the lattice neighbor, so there
nu times the discrete Laplacian of F is the laplacian_term below, up to
rounding.

At a lattice point the one-step increment splits exactly into
    A  local average minus center height,
    B  half (q - r) times the squared spread of the stencil,
    C  epsilon times the fresh noise,
    D  whatever is left (the Taylor remainder of phi).
Scaled by gamma/alpha these become the discrete heat term, the squared
gradient term, the noise term and the remainder of the macroscopic
equation, with coefficients nu, lambda, D determined by the scheme.
evolve_and_decompose(config, x) runs the evolution it is given and
decomposes its last step, and macro_terms gives a sample's macroscopic
view; studies.decomposition_row, the one decomposition sampler, calls both.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

from .driving import DrivingFunction, HessianAtOrigin
from .lattice import EvolutionConfig, HeightSlice, _warn_if_wrapped, capture
from .noise import NoiseModel


@dataclass(frozen=True)
class ScalingScheme:
    """Time/space/height scale factors alpha, beta, gamma as functions of eps."""

    alpha: Callable[[float], float]
    beta: Callable[[float], float]
    gamma: Callable[[float], float]

    def validate_on_grid(self, grid: Sequence[float]) -> None:
        """alpha and beta must shrink along the grid, which the caller has
        checked is strictly decreasing, at each eps of which
        ExperimentPlan.scheme_at has found them positive."""
        a = [self.alpha(e) for e in grid]
        b = [self.beta(e) for e in grid]
        if any(a2 >= a1 for a1, a2 in zip(a, a[1:])) or \
           any(b2 >= b1 for b1, b2 in zip(b, b[1:])):
            raise ValueError("alpha and beta must decrease along the grid")


def intermediate_disorder_1d() -> ScalingScheme:
    """alpha = eps^4, beta = eps^2, gamma = 1 (d=1 weak-noise window)."""
    return ScalingScheme(alpha=lambda e: e ** 4,
                         beta=lambda e: e ** 2,
                         gamma=lambda e: 1.0)


def exponential_2d(C: float = 1.0) -> ScalingScheme:
    """alpha = exp(-C/eps^2), beta = sqrt(alpha), gamma = 1/eps (d=2 regime)."""
    if not (C > 0 and math.isfinite(C)):
        raise ValueError("C must be positive and finite")
    return ScalingScheme(alpha=lambda e: math.exp(-C / e ** 2),
                         beta=lambda e: math.exp(-C / (2 * e ** 2)),
                         gamma=lambda e: 1.0 / e)


def power_law(alpha_exp: float, beta_exp: float, gamma_exp: float = 0.0,
              alpha_coef: float = 1.0, beta_coef: float = 1.0,
              gamma_coef: float = 1.0) -> ScalingScheme:
    """Custom scheme alpha = a*eps^p, beta = b*eps^q, gamma = c*eps^s."""
    if not all(map(math.isfinite, (alpha_exp, beta_exp, gamma_exp,
                                   alpha_coef, beta_coef, gamma_coef))):
        raise ValueError("power-law exponents and coefficients must be "
                         "finite")
    return ScalingScheme(alpha=lambda e: alpha_coef * e ** alpha_exp,
                         beta=lambda e: beta_coef * e ** beta_exp,
                         gamma=lambda e: gamma_coef * e ** gamma_exp)


def make_scheme(preset: str, **kw) -> ScalingScheme:
    if preset == "intermediate-disorder-1d":
        return intermediate_disorder_1d()
    if preset == "2d-exponential":
        return exponential_2d(**kw)
    if preset == "power-law":
        return power_law(**kw)
    raise ValueError(f"unknown scheme preset {preset!r}")


@dataclass(frozen=True)
class DecompositionSample:
    """One lattice increment split into its four exact pieces."""

    epsilon: float
    t: int
    x: Tuple[int, ...]
    A: float
    B: float
    C: float
    D: float
    increment: float

    @property
    def lattice_residual(self) -> float:
        """increment - (A + B + C + D): zero up to rounding."""
        return self.increment - (self.A + self.B + self.C + self.D)


def decompose(cur: HeightSlice, nxt: HeightSlice, phi: DrivingFunction,
              noise: NoiseModel, epsilon: float, x) -> DecompositionSample:
    """Split f(t+1,x) - f(t,x) into A + B + C + D at one lattice point.

    cur and nxt are the slices at t and t+1; D is defined as the
    difference, so the reconstruction identity is exact by construction
    and the interesting content is D's smallness.
    """
    if nxt.t != cur.t + 1:
        raise ValueError(f"decompose needs consecutive slices, got "
                         f"t={cur.t} and t={nxt.t}")
    g = cur.geometry
    xs = g.wrap(x)
    stencil = cur.stencil_at(xs)
    f = stencil[0]
    fbar = stencil.mean()
    hess = phi.hessian_origin()
    A = fbar - f
    B = 0.5 * hess.q_minus_r * float(((stencil - fbar) ** 2).sum())
    C = epsilon * noise.sample(cur.t + 1, xs)
    inc = nxt.value_at(xs) - f
    D = inc - A - B - C
    return DecompositionSample(epsilon=epsilon, t=cur.t, x=xs,
                               A=A, B=B, C=C, D=D, increment=inc)


def evolve_and_decompose(config: EvolutionConfig, x) -> DecompositionSample:
    """Run config from flat and decompose its last step, at (config.T - 1, x).

    Warns when the torus side is below 2T - 1, the side evolve() to T - 1
    asks for. That rule is exact: f(T, x) reads layer-s noise only within
    L1 distance T - s of x, so layer-1 noise only within T - 1, and a side
    of 2T - 1 holds that cone without wrap.
    """
    if config.T < 1:
        raise ValueError("evolve_and_decompose needs T >= 1")
    _warn_if_wrapped(config.T - 1, config.geometry)
    prev, cur = capture(config, (config.T - 1, config.T))
    return decompose(prev, cur, config.phi, config.noise, config.epsilon, x)


def macro_terms(sample: DecompositionSample, scheme: ScalingScheme,
                sigma: float, hessian: HessianAtOrigin,
                d: int) -> Dict[str, float]:
    """The decompose CSV's macro columns of a sample, at its epsilon.

    The one place that forms a quotient of alpha, beta and gamma. The
    coefficients, refused when phi's hessian is degenerate, are
    nu              = beta^2/((2d+1) alpha),
    lambda          = 2(q-r) beta^2/(alpha gamma),
    D_coef          = sigma^2 eps^2 beta^d gamma^2/alpha,
    time_derivative = (gamma/alpha) * increment,
    laplacian_term  = nu * (2d+1) (gamma/beta^2) A,
    grad_sq_term    = (lambda/2) * gamma^2/((q-r) beta^2) B,
    noise_term      = sqrt(D) * xi with xi = C/(eps sigma sqrt(alpha) beta^{d/2}),
    remainder       = (gamma/alpha) * D,
    macro_residual  = time_derivative - (the four terms): zero up to rounding.
    """
    if hessian.degenerate:
        raise ValueError("degenerate driving function: q, r or q - r is "
                         "zero, no gradient coefficient exists")
    epsilon = sample.epsilon
    a = scheme.alpha(epsilon)
    b = scheme.beta(epsilon)
    g = scheme.gamma(epsilon)
    nu = b * b / ((2 * d + 1) * a)
    lam = 2.0 * hessian.q_minus_r * b * b / (a * g)
    Dco = sigma * sigma * epsilon * epsilon * b ** d * g * g / a
    xi = sample.C / (epsilon * sigma * math.sqrt(a) * b ** (d / 2.0))
    m = {"nu": nu, "lambda": lam, "D_coef": Dco, "xi": xi,
         "time_derivative": (g / a) * sample.increment,
         "laplacian_term": nu * (2 * d + 1) * g / (b * b) * sample.A,
         "grad_sq_term": (lam / 2.0) * g * g
                         / (hessian.q_minus_r * b * b) * sample.B,
         "noise_term": math.sqrt(Dco) * xi,
         "remainder": (g / a) * sample.D}
    m["macro_residual"] = m["time_derivative"] - (
        m["laplacian_term"] + m["grad_sq_term"] + m["noise_term"]
        + m["remainder"])
    return m
