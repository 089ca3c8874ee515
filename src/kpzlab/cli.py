"""Command-line front end: config parsing, study dispatch, artifacts.

Each command writes <command>-<seed>.csv and .json into the output
directory (atomic rename), prints one line per assertion, and exits 0 only
if every assertion passed. A refusal (a config.ConfigError, raised before
any replica runs) exits 2. A run fault (an ArithmeticError such as
non-finite heights, or any other ValueError raised inside a run) exits 3.
Neither writes an artifact.

Every handler in COMMANDS takes a resolved config and a worker count, so
the acceptance tests run config.CRITERIA through the same handlers. Each
builds its runs through studies.ExperimentPlan, and decompose its rows
through studies.decomposition_row: this module is only glue.
"""
from __future__ import annotations

import argparse
import functools
import importlib
import platform
import sys
import time
from typing import Dict, List, Optional

import numpy as np

from . import __version__, studies
from .assumptions import check_assumptions
from .config import ConfigError, dump_resolved, load_config
# perfbench/workloads.py (_cli_side) sizes the commands' work from this name
from .config import resolve_side as resolve_side
from .lattice import evolve, slice_columns
from .output import rows_to_columns, sha256_text, write_csv, write_json
from .studies import (ExperimentPlan, GaussianBump, drift_bound_study,
                      gradient_scaling_study, remainder_ratio_study,
                      stationarity_study, whitenoise_pairing_study)
from .walk import derivative_pairs


@functools.cache
def _scipy_version() -> str:
    """The installed scipy's version, read once per process. Importing
    importlib.metadata here keeps its import chain off every start-up."""
    from importlib import metadata
    return metadata.version("scipy")


# ---------------------------------------------------------------------------
# command implementations: each returns (columns, json_payload, assertions)


def _cmd_simulate(cfg: Dict, workers: int):
    p = cfg["plan"]
    run = ExperimentPlan.from_config(cfg).run(0, p["epsilon"], p["t"])
    sl = evolve(run)
    columns = slice_columns(sl, run.epsilon, run.noise.spec.seed)
    v = sl.values
    payload = {"t": run.T, "L": run.geometry.L, "d": run.geometry.d,
               "epsilon": run.epsilon,
               "height_min": float(v.min()), "height_max": float(v.max()),
               "height_mean": float(v.mean()), "height_std": float(v.std())}
    return columns, payload, {}


def _worst(values) -> float:
    """The largest of the values, at least 0, and NaN if any is NaN, so
    that no assertion on it passes."""
    return float(np.max([0.0, *values]))


def _worst_rel(rows: List[dict], key: str, ref: str) -> float:
    """Largest |row[key]| / |row[ref]| over the rows, as _worst."""
    return _worst(abs(r[key]) / max(abs(r[ref]), 1e-300) for r in rows)


def _cmd_decompose(cfg: Dict, workers: int):
    p = cfg["plan"]
    plan = ExperimentPlan.from_config(cfg)
    T, eps = p["t"], p["epsilon"]
    # the cone and scheme refusals come before any replica runs
    plan.side_for(T)
    plan.scheme_at((eps,))
    rows = studies.map_replicas(studies.decomposition_row, plan.replicas,
                                workers, plan, eps, T)
    degenerate = plan.phi().hessian_origin().degenerate
    worst_lattice = _worst_rel(rows, "lattice_residual", "increment")
    assertions = {"lattice_identity_1e-10": worst_lattice <= 1e-10}
    payload = {"t": T, "epsilon": eps, "replicas": plan.replicas,
               "worst_lattice_residual_rel": worst_lattice,
               "degenerate_hessian": degenerate}
    if not degenerate:
        worst_macro = _worst_rel(rows, "macro_residual", "time_derivative")
        assertions["macro_identity_1e-10"] = worst_macro <= 1e-10
        payload["worst_macro_residual_rel"] = worst_macro
        payload["coefficients"] = {"nu": rows[0]["nu"],
                                   "lambda": rows[0]["lambda"],
                                   "D": rows[0]["D_coef"]}
    return rows_to_columns(rows), payload, assertions


def _cmd_check_phi(cfg: Dict, workers: int):
    plan = ExperimentPlan.from_config(cfg)
    report = check_assumptions(plan.phi(), seed=plan.seed)
    rows = [{"check": c.name, "passed": c.passed, "worst": c.worst,
             "detail": c.detail} for c in report.checks]
    assertions = {c.name: c.passed for c in report.checks}
    return rows_to_columns(rows), report.as_dict(), assertions


def _cmd_walk_check(cfg: Dict, workers: int):
    p = cfg["plan"]
    plan = ExperimentPlan.from_config(cfg)
    run = plan.run(0, p["epsilon"], p["t"])
    T, eps, d = run.T, run.epsilon, run.geometry.d
    pairs, mass_errors = derivative_pairs(run, plan.center_site())
    tol = max(1e-8, 1e-4 * eps)
    rows = [{"s": s, **{f"y{i}": yi for i, yi in enumerate(y, start=1)},
             "walk_derivative": dw, "fd_derivative": df,
             "abs_diff": abs(dw - df)} for s, y, dw, df in pairs]
    worst = _worst(r["abs_diff"] for r in rows)
    worst_mass = _worst(mass_errors)
    assertions = {"derivative_agreement": worst <= tol,
                  "mass_is_epsilon": worst_mass <= 1e-6 * eps}
    payload = {"t": T, "epsilon": eps, "d": d, "tolerance": tol,
               "worst_abs_diff": worst, "worst_mass_error": worst_mass,
               "sites_checked": len(rows)}
    return rows_to_columns(rows), payload, assertions


def _study(res, table: str):
    return rows_to_columns(res.tables[table]), res.summary, res.assertions


def _cmd_remainder(cfg: Dict, workers: int):
    return _study(remainder_ratio_study(ExperimentPlan.from_config(cfg),
                                        workers=workers), "series")


def _cmd_gradient(cfg: Dict, workers: int):
    return _study(gradient_scaling_study(ExperimentPlan.from_config(cfg),
                                         workers=workers), "series")


def _cmd_drift(cfg: Dict, workers: int):
    return _study(drift_bound_study(ExperimentPlan.from_config(cfg),
                                    times=cfg["plan"]["times"],
                                    workers=workers), "estimates")


def _cmd_whitenoise(cfg: Dict, workers: int):
    plan = ExperimentPlan.from_config(cfg)
    fn = GaussianBump(d=plan.d, **cfg["test_function"])
    return _study(whitenoise_pairing_study(plan, fn, workers=workers),
                  "pairings")


def _cmd_stationarity(cfg: Dict, workers: int):
    return _study(stationarity_study(ExperimentPlan.from_config(cfg),
                                     checkpoints=cfg["plan"]["checkpoints"],
                                     workers=workers), "quantiles")


# commands whose run imports scipy.stats, which kpzlab keeps off its
# import path; main imports it first, as its own manifest phase, so that
# phases.run times the run alone
_SCIPY_STATS_COMMANDS = ("whitenoise", "stationarity")

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
    t0 = t_start = time.monotonic()
    phases = {}
    if args.command in _SCIPY_STATS_COMMANDS:
        importlib.import_module("scipy.stats")
        t_start = time.monotonic()
        phases["import"] = {"wall_s": t_start - t0}
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
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ArithmeticError, ValueError) as e:
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
                     "scipy": _scipy_version()},
        "wall_time_s": t_export - t0,
        "phases": {**phases, "run": {"wall_s": t_run - t_start},
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
