"""Sampled verification of the axioms a driving function must satisfy.

Checked properties, each on randomized stencils inside the inf-ball of
radius DEFAULT_RADIUS and to tolerance DEFAULT_TOL: additivity under
constant shifts, zero at the flat stencil, full permutation symmetry,
monotonicity (nonnegative gradient), C2 behavior near the origin (stable
symmetric finite-difference Hessian), a nondegenerate origin Hessian,
domination of the plain-mean update, and strict domination quantified by
a radial profile on the zero-mean hyperplane together with a fitted
quadratic-lower-bound witness (M, c).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from .driving import DrivingFunction, HessianAtOrigin
from .noise import _PHI_BLOCK
from .rng import derive_seed

DEFAULT_TOL = 1e-9
DEFAULT_SAMPLES = 100_000
DEFAULT_RADIUS = 5.0
# radial domination profile: geometric radii from 1e-3 to DEFAULT_RADIUS,
# each probed with PROFILE_PER_RADIUS zero-mean stencils
PROFILE_RADII = 24
PROFILE_PER_RADIUS = 2000


@dataclass
class CheckResult:
    name: str
    passed: bool
    worst: float
    detail: str = ""


@dataclass
class AssumptionReport:
    phi_name: str
    d: int
    hessian: HessianAtOrigin
    checks: List[CheckResult] = field(default_factory=list)
    # rows (radius, min phi at that radius, min phi/radius^2)
    domination_profile: List[Tuple[float, float, float]] = field(default_factory=list)
    witness_threshold: float = float("nan")  # M: phi below it implies the bound
    witness_constant: float = float("nan")   # c in phi >= c |u|^2
    quadratic_radius: float = float("nan")   # fitted radius of validity

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> Dict:
        return {
            "phi": self.phi_name,
            "d": self.d,
            "passed": self.passed,
            "hessian": {"q": self.hessian.q, "r": self.hessian.r},
            "checks": [{"name": c.name, "passed": c.passed,
                        "worst": c.worst, "detail": c.detail}
                       for c in self.checks],
            "witness": {"threshold_M": self.witness_threshold,
                        "constant_c": self.witness_constant,
                        "radius": self.quadratic_radius},
            "domination_profile": [
                {"radius": rr, "min_phi": mp, "min_ratio": mr}
                for rr, mp, mr in self.domination_profile],
        }


def _sample_stencils(rng: np.random.Generator, n: int,
                     count: int) -> np.ndarray:
    """Stencil batch (n, count) filling the inf-ball of DEFAULT_RADIUS."""
    U = rng.uniform(-DEFAULT_RADIUS, DEFAULT_RADIUS, size=(n, count))
    # sprinkle small-radius samples so the near-origin regime is covered
    small = rng.uniform(-1e-3, 1e-3, size=(n, count // 10))
    return np.concatenate([U, small], axis=1)


def check_assumptions(phi: DrivingFunction,
                      samples: int = DEFAULT_SAMPLES,
                      seed: int = 0) -> AssumptionReport:
    n = phi.n
    tol = DEFAULT_TOL
    rng = np.random.default_rng(derive_seed(seed, 0xA5) & 0x7FFFFFFFFFFFFFFF)
    U = _sample_stencils(rng, n, samples)
    count = U.shape[1]
    shifts = rng.uniform(-2 * DEFAULT_RADIUS, 2 * DEFAULT_RADIUS, size=count)
    perms = [rng.permutation(n) for _ in range(8)]

    # the batch is evaluated in column blocks of at most _PHI_BLOCK stencils
    # (phi, its gradient and their temporaries stay in L2); each check
    # keeps one extreme per block and reduces them as one array, so NaN
    # propagates and the results are those of the whole batch, bit for bit
    blocks = range(0, count, _PHI_BLOCK)
    shift_err = np.empty(len(blocks))
    perm_err = np.empty((len(perms), len(blocks)))
    grad_min = np.empty(len(blocks))
    mean_gap = np.empty(len(blocks))
    for b, c0 in enumerate(blocks):
        cols = slice(c0, c0 + _PHI_BLOCK)
        Ub = np.ascontiguousarray(U[:, cols])
        vals = phi.value_many(Ub)
        sh = shifts[cols]
        shift_err[b] = np.abs(phi.value_many(Ub + sh) - (vals + sh)).max()
        for i, perm in enumerate(perms):
            perm_err[i, b] = np.abs(phi.value_many(Ub[perm]) - vals).max()
        grad_min[b] = phi.gradient_many(Ub).min()
        mean_gap[b] = (vals - Ub.mean(axis=0)).min()

    checks: List[CheckResult] = []

    # shift additivity: phi(u + c 1) = phi(u) + c
    err = shift_err.max()
    checks.append(CheckResult("shift_additivity", err <= tol, float(err)))

    # flat stencil maps to zero
    z = abs(phi.value(np.zeros(n)))
    checks.append(CheckResult("zero_at_origin", z <= tol, float(z)))

    # full permutation symmetry on random permutations
    worst = 0.0
    for row in perm_err:
        worst = max(worst, float(row.max()))
    checks.append(CheckResult("permutation_symmetry", worst <= tol, worst))

    # monotonicity: every gradient component nonnegative at every sample
    gmin = float(grad_min.min())
    checks.append(CheckResult("monotonicity", gmin >= -tol, gmin,
                              "min gradient component"))

    # C2 near origin: finite-difference Hessian symmetric and stable in h
    try:
        H1 = phi.hessian_matrix_fd(1e-4)
        H2 = phi.hessian_matrix_fd(5e-5)
        drift = float(np.abs(H1 - H2).max())
        checks.append(CheckResult("c2_near_origin", drift <= 1e-4, drift,
                                  "FD Hessian drift under step halving"))
    except ArithmeticError as exc:
        checks.append(CheckResult("c2_near_origin", False, float("inf"), str(exc)))

    hess = phi.hessian_origin()

    # nondegeneracy: q, r and q-r all bounded away from zero
    ndg = min(abs(hess.q), abs(hess.r), abs(hess.q_minus_r))
    checks.append(CheckResult("nondegenerate_hessian", ndg > tol, float(ndg),
                              f"q={hess.q!r} r={hess.r!r}"))

    # domination of the plain-mean update: phi(u) >= mean(u)
    dom = float(mean_gap.min())
    checks.append(CheckResult("mean_domination", dom >= -tol, dom))

    # strict domination profile on the zero-mean hyperplane
    profile, m_hat, c_hat, delta_hat = _domination_profile(phi, hess, rng)
    floor = 0.9 * hess.q_minus_r / 4.0
    strict_ok = (hess.q_minus_r > tol) and np.isfinite(delta_hat) and c_hat >= floor > 0
    checks.append(CheckResult(
        "strict_domination", bool(strict_ok),
        float(c_hat if np.isfinite(c_hat) else 0.0),
        f"fitted c vs floor {floor!r}"))

    report = AssumptionReport(phi_name=phi.name, d=phi.d, hessian=hess,
                              checks=checks, domination_profile=profile,
                              witness_threshold=m_hat, witness_constant=c_hat,
                              quadratic_radius=delta_hat)
    return report


def _domination_profile(phi: DrivingFunction, hess: HessianAtOrigin,
                        rng: np.random.Generator):
    """Radial minima of phi on the zero-mean hyperplane and the (M, c) fit.

    c(rho) = min phi / rho^2 per radius; the quadratic regime is the largest
    prefix of radii where c(rho) >= 0.9 (q-r)/4; c_hat is the worst ratio on
    that prefix and M_hat is 99% of the smallest phi value seen beyond it,
    so that on the sample phi(u) <= M_hat forces u into the fitted regime.
    """
    n = phi.n
    radii = np.geomspace(1e-3, DEFAULT_RADIUS, PROFILE_RADII)
    profile: List[Tuple[float, float, float]] = []
    floor = 0.9 * hess.q_minus_r / 4.0
    for rho in radii:
        W = rng.standard_normal(size=(n, PROFILE_PER_RADIUS))
        W -= W.mean(axis=0)
        norms = np.linalg.norm(W, axis=0)
        norms[norms == 0] = 1.0
        Uh = W / norms * rho
        vmin = float(phi.value_many(Uh).min())
        profile.append((float(rho), vmin, vmin / rho**2))

    delta_hat = float("nan")
    c_hat = float("nan")
    prefix_ratios = []
    for rho, _vmin, ratio in profile:
        if ratio >= floor and floor > 0:
            prefix_ratios.append(ratio)
            delta_hat = rho
        else:
            break
    if prefix_ratios:
        c_hat = min(prefix_ratios)
        beyond = [vmin for rho, vmin, _ in profile if rho > delta_hat]
        m_hat = 0.99 * min(beyond) if beyond else max(v for _, v, _ in profile)
    else:
        m_hat = float("nan")
    return profile, m_hat, c_hat, delta_hat
