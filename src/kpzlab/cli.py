"""Command-line front end: config parsing, study dispatch, artifacts.

Each command writes <command>-<seed>.csv and .json into the output
directory (atomic rename), prints one line per assertion, and exits 0 only
if every assertion passed. Config errors and cone-policy refusals exit 2.
A run fault (an ArithmeticError such as non-finite heights) exits 3 and
writes no artifact.

Every handler in COMMANDS takes a resolved config and a worker count, so
the acceptance tests run config.CRITERIA through the same handlers.
"""
from __future__ import annotations

import argparse
import platform
import sys
import time
from typing import Dict, List, Optional

import numpy as np
import scipy

from . import __version__, studies
from .assumptions import check_assumptions
# the tests import ConeRefusal from here
from .config import (ConeRefusal, ConfigError, dump_resolved,  # noqa: F401
                     load_config, resolve_side, scheme_params)
from .driving import make_driving
from .lattice import (EvolutionConfig, LatticeGeometry, evolve, slice_columns,
                      trajectory)
from .noise import NoiseModel, replica_noise
from .output import rows_to_columns, sha256_text, write_csv, write_json
from .rescale import (coefficients, evolve_and_decompose, macro_terms,
                      make_scheme)
from .studies import (ExperimentPlan, GaussianBump, drift_bound_study,
                      gradient_scaling_study, remainder_ratio_study,
                      stationarity_study, whitenoise_pairing_study)
from .walk import (_l1_ball, backward_walk_distribution, derivative_fd,
                   derivative_via_walk)

def _noise(cfg: Dict, replica: int) -> NoiseModel:
    m = cfg["model"]
    return replica_noise(m["noise_family"], m["noise_scale"],
                         cfg["run"]["seed"], replica)


def _single_run(cfg: Dict) -> EvolutionConfig:
    """The evolution of simulate, decompose and walk-check: plan.t steps at
    plan.epsilon with replica 0's noise, on the side resolve_side gives
    plan.t."""
    m, p = cfg["model"], cfg["plan"]
    L = resolve_side(p["geometry"], p["l"], p["t"])
    return EvolutionConfig(make_driving(m["phi"], m["d"], m["coupling"]),
                           _noise(cfg, 0), LatticeGeometry(m["d"], L),
                           p["epsilon"], p["t"])


def plan_from_config(cfg: Dict) -> ExperimentPlan:
    m, p = cfg["model"], cfg["plan"]
    return ExperimentPlan(
        epsilon_grid=tuple(p["epsilon_grid"]),
        replicas=p["replicas"],
        seed=cfg["run"]["seed"],
        phi_name=m["phi"],
        d=m["d"],
        coupling=m["coupling"],
        noise_family=m["noise_family"],
        noise_scale=m["noise_scale"],
        scheme_preset=cfg["scheme"]["preset"],
        scheme_params=scheme_params(cfg),
        schedule=p["schedule"],
        macro_time=p["macro_time"],
        geometry_policy=p["geometry"],
        L=p["l"],
    )


# ---------------------------------------------------------------------------
# command implementations: each returns (columns, json_payload, assertions)


def _cmd_simulate(cfg: Dict, workers: int):
    run = _single_run(cfg)
    sl = evolve(run)
    columns = slice_columns(sl, run.epsilon, run.noise.spec.seed)
    v = sl.values
    payload = {"t": run.T, "L": run.geometry.L, "d": run.geometry.d,
               "epsilon": run.epsilon,
               "height_min": float(v.min()), "height_max": float(v.max()),
               "height_mean": float(v.mean()), "height_std": float(v.std())}
    return columns, payload, {}


def _decompose_worker(replica: int, cfg: Dict, run: EvolutionConfig):
    """Replica `replica`'s decomposition at (plan.t - 1, origin)."""
    return evolve_and_decompose(run.phi, _noise(cfg, replica), run.geometry,
                                run.epsilon, run.T - 1, (0,) * run.geometry.d)


def _cmd_decompose(cfg: Dict, workers: int):
    p = cfg["plan"]
    if p["t"] < 1:
        raise ConfigError("decompose needs plan.t >= 1")
    run = _single_run(cfg)
    T, eps, d, sigma = run.T, run.epsilon, run.geometry.d, run.noise.sigma
    hess = run.phi.hessian_origin()
    scheme = make_scheme(cfg["scheme"]["preset"], **scheme_params(cfg))
    degenerate = abs(hess.q - hess.r) < 1e-14
    coef = None if degenerate else coefficients(scheme, eps, d, hess, sigma)
    samples = studies.map_replicas(_decompose_worker, p["replicas"], workers,
                                   cfg, run)
    rows = []
    worst_lattice = 0.0
    worst_macro = 0.0
    for k, s in enumerate(samples):
        row = {"replica": k, "epsilon": eps, "t": s.t}
        for i, xi in enumerate(s.x, start=1):
            row[f"x{i}"] = xi
        resid = s.increment - (s.A + s.B + s.C + s.D)
        rel = abs(resid) / max(abs(s.increment), 1e-300)
        worst_lattice = max(worst_lattice, rel)
        row.update(A=s.A, B=s.B, C=s.C, D=s.D, increment=s.increment,
                   lattice_residual=resid)
        if coef is not None:
            sm = macro_terms(s, scheme, eps, sigma, hess, d)
            mresid = sm.time_derivative - (sm.laplacian_term + sm.grad_sq_term
                                           + sm.noise_term + sm.remainder)
            mrel = abs(mresid) / max(abs(sm.time_derivative), 1e-300)
            worst_macro = max(worst_macro, mrel)
            row["nu"] = coef.nu
            row["lambda"] = coef.lam
            row.update(D_coef=coef.D, xi=sm.xi,
                       time_derivative=sm.time_derivative,
                       laplacian_term=sm.laplacian_term,
                       grad_sq_term=sm.grad_sq_term,
                       noise_term=sm.noise_term, remainder=sm.remainder,
                       macro_residual=mresid)
        rows.append(row)
    assertions = {"lattice_identity_1e-10": worst_lattice <= 1e-10}
    payload = {"t": T, "epsilon": eps, "replicas": p["replicas"],
               "worst_lattice_residual_rel": worst_lattice,
               "degenerate_hessian": degenerate}
    if coef is not None:
        assertions["macro_identity_1e-10"] = worst_macro <= 1e-10
        payload["worst_macro_residual_rel"] = worst_macro
        payload["coefficients"] = {"nu": coef.nu, "lambda": coef.lam,
                                   "D": coef.D}
    return rows_to_columns(rows), payload, assertions


def _cmd_check_phi(cfg: Dict, workers: int):
    m = cfg["model"]
    phi = make_driving(m["phi"], m["d"], m["coupling"])
    report = check_assumptions(phi, seed=cfg["run"]["seed"])
    rows = [{"check": c.name, "passed": c.passed, "worst": c.worst,
             "detail": c.detail} for c in report.checks]
    assertions = {c.name: c.passed for c in report.checks}
    return rows_to_columns(rows), report.as_dict(), assertions


def _cmd_walk_check(cfg: Dict, workers: int):
    if cfg["plan"]["t"] < 1:
        raise ConfigError("walk-check needs plan.t >= 1")
    run = _single_run(cfg)
    phi, noise, g = run.phi, run.noise, run.geometry
    T, eps, d = run.T, run.epsilon, g.d
    x0 = (0,) * d
    slices = list(trajectory(run))
    dist = backward_walk_distribution(slices, phi, T, x0)
    tol = max(1e-8, 1e-4 * eps)
    rows = []
    worst = 0.0
    worst_mass = 0.0
    for s in range(1, T + 1):
        total = dist.total_mass(s)
        worst_mass = max(worst_mass, abs(eps * total - eps))
        reach = T - s
        for y in _l1_ball(x0, reach, d):
            dw = derivative_via_walk(dist, s, y, eps)
            df = derivative_fd(phi, noise, g, eps, T, x0, s, y)
            diff = abs(dw - df)
            worst = max(worst, diff)
            row = {"s": s}
            for i, yi in enumerate(y, start=1):
                row[f"y{i}"] = yi
            row.update(walk_derivative=dw, fd_derivative=df, abs_diff=diff)
            rows.append(row)
    assertions = {"derivative_agreement": worst <= tol,
                  "mass_is_epsilon": worst_mass <= 1e-6 * eps}
    payload = {"t": T, "epsilon": eps, "d": d, "tolerance": tol,
               "worst_abs_diff": worst, "worst_mass_error": worst_mass,
               "sites_checked": len(rows)}
    return rows_to_columns(rows), payload, assertions


def _study(res, table: str):
    return rows_to_columns(res.tables[table]), res.summary, res.assertions


def _cmd_remainder(cfg: Dict, workers: int):
    return _study(remainder_ratio_study(plan_from_config(cfg),
                                        workers=workers), "series")


def _cmd_gradient(cfg: Dict, workers: int):
    return _study(gradient_scaling_study(plan_from_config(cfg),
                                         workers=workers), "series")


def _cmd_drift(cfg: Dict, workers: int):
    return _study(drift_bound_study(plan_from_config(cfg),
                                    times=cfg["plan"]["times"],
                                    workers=workers), "estimates")


def _cmd_whitenoise(cfg: Dict, workers: int):
    plan = plan_from_config(cfg)
    tf = cfg["test_function"]
    fn = GaussianBump(d=plan.d, amplitude=tf["amplitude"],
                      center_t=tf["center_t"], width_t=tf["width_t"],
                      center_x=tuple(tf["center_x"]),
                      width_x=tuple(tf["width_x"]))
    return _study(whitenoise_pairing_study(plan, fn, workers=workers),
                  "pairings")


def _cmd_stationarity(cfg: Dict, workers: int):
    return _study(stationarity_study(plan_from_config(cfg),
                                     checkpoints=cfg["plan"]["checkpoints"],
                                     workers=workers), "quantiles")


# name -> (help, handler); each handler returns (columns, payload, assertions)
COMMANDS = {
    "simulate": ("grow a surface and export the final height slice",
                 _cmd_simulate),
    "decompose": ("decompose one-step increments into the four parts",
                  _cmd_decompose),
    "check-phi": ("audit a driving function against the model axioms",
                  _cmd_check_phi),
    "walk-check": ("compare walk derivatives with finite differences",
                   _cmd_walk_check),
    "remainder": ("remainder-to-term ratio decay study", _cmd_remainder),
    "gradient": ("normalized nearest-neighbor gradient scale study",
                 _cmd_gradient),
    "drift": ("one-step drift upper-bound study", _cmd_drift),
    "whitenoise": ("rescaled-noise pairing normality study", _cmd_whitenoise),
    "stationarity": ("long-run gradient-field stability study",
                     _cmd_stationarity),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kpzlab",
        description="Lattice growth models with a local KPZ decomposition: "
                    "simulation, exact identities, and Monte Carlo "
                    "verification studies.")
    ap.add_argument("--version", action="version",
                    version=f"kpzlab {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", metavar="FILE",
                        help="INI config file (see docs/config.md)")
        sp.add_argument("--seed", type=int, help="master seed (wins over file)")
        sp.add_argument("--out", help="output directory (wins over file)")
        sp.add_argument("--workers", type=int,
                        help="worker processes for replica ensembles, >= 1 "
                             "(wins over file)")
        sp.add_argument("--set", action="append", default=[], metavar="S.K=V",
                        help="override any config key, e.g. plan.replicas=50")
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        cfg = load_config(args.config, args.command, args.set)
        if args.seed is not None:
            cfg["run"]["seed"] = args.seed
        if args.out is not None:
            cfg["run"]["out"] = args.out
        if args.workers is not None:
            cfg["run"]["workers"] = args.workers
        workers = cfg["run"]["workers"]
        if workers < 1:
            raise ConfigError(f"run.workers must be >= 1, got {workers}")

        columns, payload, assertions = COMMANDS[args.command][1](cfg,
                                                                 workers)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ArithmeticError as e:
        print(f"error: run fault: {e}", file=sys.stderr)
        return 3

    seed = cfg["run"]["seed"]
    out = cfg["run"]["out"]
    base = f"{args.command}-{seed}"
    csv_path = f"{out}/{base}.csv"
    json_path = f"{out}/{base}.json"
    t_run = time.monotonic()
    write_csv(csv_path, columns)
    t_export = time.monotonic()
    resolved = dump_resolved(cfg)
    manifest = {
        "command": args.command,
        "seed": seed,
        "workers": workers,
        "config_sha256": sha256_text(resolved),
        "resolved_config": resolved,
        "versions": {"kpzlab": __version__,
                     "python": platform.python_version(),
                     "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "wall_time_s": t_export - t0,
        "phases": {"run": {"wall_s": t_run - t0},
                   "export": {"wall_s": t_export - t_run}},
    }
    doc = {"manifest": manifest, "assertions": assertions,
           "passed": all(assertions.values()), "report": payload}
    write_json(json_path, doc)

    for name, ok in assertions.items():
        print(f"assertion {name}: {'PASS' if ok else 'FAIL'}")
    status = 0 if all(assertions.values()) else 1
    print(f"{args.command}: {'ok' if status == 0 else 'FAILED'} "
          f"({manifest['wall_time_s']:.2f}s) -> {csv_path}, {json_path}")
    return status


if __name__ == "__main__":
    sys.exit(main())
