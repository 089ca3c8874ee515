"""Sampled verification of the axioms a driving function must satisfy.

Checked properties, each on randomized stencils inside the inf-ball of
radius DEFAULT_RADIUS and to tolerance DEFAULT_TOL: additivity under
constant shifts, zero at the flat stencil, full permutation symmetry,
monotonicity (nonnegative gradient), C2 behavior near the origin (stable
symmetric finite-difference Hessian), a nondegenerate origin Hessian,
domination of the plain-mean update, and strict domination quantified by
a radial profile on the zero-mean hyperplane together with a fitted
quadratic-lower-bound witness (M, c).

The stencil batch is drawn and evaluated one block of _PHI_BLOCK // n
stencils at a time, so an audit holds one block (and the temporaries phi
makes of it), whatever the sample count. Each block holds the same bits
as the same columns of the batch drawn whole from the seeded generator.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

import numpy as np

from .driving import _PHI_BLOCK, DrivingFunction, HessianAtOrigin
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


_Block = Tuple[np.ndarray, np.ndarray]


def _sample_stencils(rng: np.random.Generator, n: int, samples: int,
                     block: int) -> Tuple[int, Iterator[_Block]]:
    """The stencil count and the batch's blocks (U, shifts), in order.

    The batch is what rng would draw as one (n, samples) array filling the
    inf-ball of DEFAULT_RADIUS, then (n, samples // 10) near-origin
    stencils appended as columns, then one shift per stencil. Each of those
    2n + 1 streams (a wide row, a near-origin row, the shifts) is read in
    order from its own copy of rng's bit generator, advanced to the
    stream's first draw, so a block of at most `block` columns holds the
    batch's bits. rng itself is advanced past every draw of the batch
    before this returns.
    """
    small = samples // 10  # near-origin stencils, so that regime is covered
    count = samples + small
    starts = ([i * samples for i in range(n)]
              + [n * samples + i * small for i in range(n)] + [n * count])
    streams = []
    for start in starts:
        bits = copy.deepcopy(rng.bit_generator)
        bits.advance(start)
        streams.append(np.random.Generator(bits))
    rng.bit_generator.advance(n * count + count)

    def blocks():
        for c0 in range(0, count, block):
            c1 = min(c0 + block, count)
            wide = max(0, min(c1, samples) - c0)
            U = np.empty((n, c1 - c0))
            for i in range(n):
                U[i, :wide] = streams[i].uniform(
                    -DEFAULT_RADIUS, DEFAULT_RADIUS, size=wide)
                U[i, wide:] = streams[n + i].uniform(
                    -1e-3, 1e-3, size=c1 - c0 - wide)
            yield U, streams[-1].uniform(-2 * DEFAULT_RADIUS,
                                         2 * DEFAULT_RADIUS, size=c1 - c0)
    return count, blocks()


def check_assumptions(phi: DrivingFunction,
                      samples: int = DEFAULT_SAMPLES,
                      seed: int = 0) -> AssumptionReport:
    n = phi.n
    tol = DEFAULT_TOL
    rng = np.random.default_rng(derive_seed(seed, 0xA5) & 0x7FFFFFFFFFFFFFFF)
    # blocks of _PHI_BLOCK stencil values: the stack and every temporary
    # phi makes of it stay under glibc's 128 KiB mmap threshold, so no
    # block maps and unmaps fresh pages
    block = max(1, _PHI_BLOCK // n)
    count, stencil_blocks = _sample_stencils(rng, n, samples, block)
    perms = [rng.permutation(n) for _ in range(8)]

    # the batch is drawn and evaluated one block of stencils at a time;
    # each check keeps one extreme per block and reduces them as one
    # array, so NaN propagates and the results are those of the whole
    # batch, bit for bit
    nblocks = -(-count // block)
    shift_err = np.empty(nblocks)
    perm_err = np.empty((len(perms), nblocks))
    grad_min = np.empty(nblocks)
    mean_gap = np.empty(nblocks)
    for b, (Ub, sh) in enumerate(stencil_blocks):
        vals = phi.value_many(Ub)
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
    worst = float(perm_err.max())
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
    checks.append(CheckResult("nondegenerate_hessian", not hess.degenerate,
                              float(hess.nondegeneracy),
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
