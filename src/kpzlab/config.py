"""Declarative run configuration: INI sections, documented defaults.

A run is described by one config file; command-line flags win over file
values. Every key has a default, so the empty config is valid. Unknown
sections or keys are rejected with the offending line number, value errors
name the section and key.
"""
from __future__ import annotations

import configparser
import math
import os
from typing import Dict, List, Optional, Tuple

from .studies import ExperimentPlan

ENV_WORKERS = "KPZLAB_WORKERS"


class ConfigError(ValueError):
    pass


def _floats(text: str) -> Tuple[float, ...]:
    return tuple(float(p) for p in text.replace(",", " ").split())


def _ints(text: str) -> Tuple[int, ...]:
    return tuple(int(p) for p in text.replace(",", " ").split())


# section -> key -> (parser, default, help). None default means "unset".
SCHEMA: Dict[str, Dict[str, tuple]] = {
    "run": {
        "seed": (int, 0, "master seed; replica seeds derive from it"),
        "out": (str, ".", "output directory for artifacts"),
        "workers": (int, 0, f"worker processes; 0 = ${ENV_WORKERS} or 1"),
    },
    "model": {
        "phi": (str, "polymer", "driving function: polymer | gkpz | ew"),
        "d": (int, 1, "lattice dimension"),
        "coupling": (float, None, "gkpz coupling; default 1/(16d)"),
        "noise_family": (str, "uniform", "uniform | triangular"),
        "noise_scale": (float, math.sqrt(3.0),
                        "half-width of the noise support (sqrt(3) -> unit "
                        "variance uniform)"),
    },
    "scheme": {
        "preset": (str, "power-law",
                   "power-law | intermediate-disorder-1d | 2d-exponential"),
        "alpha_exp": (float, 2.0, "power-law: alpha = alpha_coef*eps^this"),
        "beta_exp": (float, 1.0, "power-law: beta = beta_coef*eps^this"),
        "gamma_exp": (float, 0.0, "power-law: gamma = gamma_coef*eps^this"),
        "alpha_coef": (float, 1.0, "power-law alpha coefficient"),
        "beta_coef": (float, 1.0, "power-law beta coefficient"),
        "gamma_coef": (float, 1.0, "power-law gamma coefficient"),
        "c": (float, 1.0, "2d-exponential: alpha = exp(-c/eps^2)"),
    },
    "plan": {
        "epsilon_grid": (_floats, (0.2, 0.1, 0.05, 0.025),
                         "strictly decreasing noise strengths"),
        "epsilon": (float, 0.1, "single-run noise strength (simulate, "
                    "decompose, walk-check)"),
        "replicas": (int, 200, "independent replicas per epsilon (>= 30)"),
        "schedule": (str, "adversarial",
                     "horizon rule: adversarial (ceil(1/eps)) | macro-fixed "
                     "(ceil(macro_time/alpha(eps)))"),
        "macro_time": (float, 1.0, "macroscopic horizon for macro-fixed"),
        "geometry": (str, "cone-exact", "cone-exact | torus"),
        "l": (int, 0, "torus side; 0 = auto (cone-exact only)"),
        "t": (int, 100, "growth steps for simulate/decompose/walk-check"),
        "times": (_ints, (10, 100, 1000), "drift study capture times"),
        "checkpoints": (_ints, tuple(2 ** k for k in range(14)),
                        "stationarity checkpoint times"),
    },
    "test_function": {
        "amplitude": (float, 1.0, "bump amplitude"),
        "center_t": (float, 0.0, "bump center, time axis"),
        "width_t": (float, 1.0, "bump width, time axis"),
        "center_x": (_floats, (0.0,), "bump center per space axis"),
        "width_x": (_floats, (1.0,), "bump width per space axis"),
    },
}

# Per-command defaults that overlay the schema defaults (file and flags
# still win). These make the bare commands reproduce the shipped
# verification suites.
COMMAND_OVERLAYS: Dict[str, Dict[Tuple[str, str], object]] = {
    "gradient": {("plan", "replicas"): 1000},
    "drift": {("plan", "epsilon_grid"): (0.1,),
              ("plan", "replicas"): 500},
    "whitenoise": {("plan", "epsilon_grid"): (0.3, 0.25, 0.2),
                   ("plan", "replicas"): 2000,
                   ("scheme", "preset"): "intermediate-disorder-1d"},
    "stationarity": {("plan", "epsilon_grid"): (0.1,),
                     ("plan", "replicas"): 30,
                     ("plan", "geometry"): "torus",
                     ("plan", "l"): 512},
    "walk-check": {("plan", "t"): 4},
    "decompose": {("plan", "replicas"): 100},
}


def _find_line(path: str, section: str, key: Optional[str]) -> int:
    """Best-effort line number of a section header or key for messages."""
    try:
        with open(path, "r") as fh:
            lines = fh.readlines()
    except OSError:
        return 0
    in_section = False
    for i, line in enumerate(lines, start=1):
        s = line.strip()
        if s.startswith("[") and s.endswith("]"):
            if key is None and s == f"[{section}]":
                return i
            in_section = s == f"[{section}]"
        elif key is not None and in_section:
            name = s.split("=", 1)[0].split(":", 1)[0].strip()
            if name == key:
                return i
    return 0


def load_config(path: Optional[str], command: str,
                overrides: Optional[List[str]] = None) -> Dict[str, Dict]:
    """Resolve defaults <- command overlay <- file <- --set overrides."""
    resolved = {sec: {k: spec[1] for k, spec in keys.items()}
                for sec, keys in SCHEMA.items()}
    for (sec, key), val in COMMAND_OVERLAYS.get(command, {}).items():
        resolved[sec][key] = val

    if path is not None:
        cp = configparser.ConfigParser(interpolation=None)
        try:
            with open(path, "r") as fh:
                cp.read_file(fh, source=path)
        except OSError as e:
            raise ConfigError(f"{path}: cannot read config: {e}") from e
        except configparser.Error as e:
            raise ConfigError(f"{path}: {e}") from e
        for sec in cp.sections():
            if sec not in SCHEMA:
                raise ConfigError(f"{path}, line {_find_line(path, sec, None)}: "
                                  f"unknown section [{sec}]")
            for key, raw in cp.items(sec):
                if key not in SCHEMA[sec]:
                    line = _find_line(path, sec, key)
                    raise ConfigError(f"{path}, line {line}: unknown key "
                                      f"'{key}' in [{sec}]")
                resolved[sec][key] = _parse_value(sec, key, raw,
                                                 where=f"{path}, line "
                                                 f"{_find_line(path, sec, key)}")

    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        sec, key = dotted.split(".", 1)
        if sec not in SCHEMA or key not in SCHEMA[sec]:
            raise ConfigError(f"--set: unknown key '{sec}.{key}'")
        resolved[sec][key] = _parse_value(sec, key, raw, where=f"--set {item}")
    return resolved


def _parse_value(sec: str, key: str, raw: str, where: str):
    parser = SCHEMA[sec][key][0]
    try:
        return parser(raw)
    except ValueError as e:
        raise ConfigError(f"{where}: bad value for {sec}.{key}: {e}") from e


def effective_workers(cfg: Dict[str, Dict]) -> int:
    w = cfg["run"]["workers"]
    if w and w > 0:
        return w
    env = os.environ.get(ENV_WORKERS, "")
    try:
        return max(1, int(env)) if env else 1
    except ValueError:
        return 1


def scheme_params(cfg: Dict[str, Dict]) -> Dict:
    s = cfg["scheme"]
    if s["preset"] == "power-law":
        return {"alpha_exp": s["alpha_exp"], "beta_exp": s["beta_exp"],
                "gamma_exp": s["gamma_exp"], "alpha_coef": s["alpha_coef"],
                "beta_coef": s["beta_coef"], "gamma_coef": s["gamma_coef"]}
    if s["preset"] == "2d-exponential":
        return {"C": s["c"]}
    return {}


def plan_from_config(cfg: Dict[str, Dict]) -> ExperimentPlan:
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
        L=p["l"] if p["l"] > 0 else 512,
    )


def dump_resolved(cfg: Dict[str, Dict]) -> str:
    """Canonical text of the resolved config, for hashing and the manifest."""
    lines = []
    for sec in sorted(cfg):
        for key in sorted(cfg[sec]):
            v = cfg[sec][key]
            if isinstance(v, tuple):
                v = " ".join(repr(x) if isinstance(x, float) else str(x)
                             for x in v)
            elif isinstance(v, float):
                v = repr(v)
            lines.append(f"{sec}.{key}={v}")
    return "\n".join(lines) + "\n"
