"""Declarative run configuration: INI sections, documented defaults.

A run is described by one config file; command-line flags win over file
values. Every key has a default, so the empty config is valid. Unknown
sections or keys are rejected with the offending line number, value errors
name the section and key.
"""
from __future__ import annotations

import configparser
import math
from typing import Callable, Dict, List, Optional, Tuple

from .lattice import min_cone_side


class ConfigError(ValueError):
    pass


class ConeRefusal(ConfigError):
    def __init__(self, needed: int, got: int, horizon: int):
        super().__init__(
            f"cone-exact policy violated: horizon {horizon} needs side "
            f"L >= {needed}, got L = {got}; rerun with plan.l >= {needed} "
            f"or geometry = torus")
        self.needed, self.got, self.horizon = needed, got, horizon

    def __reduce__(self):
        # rebuilt from its fields, not from args = (message,), so a refusal
        # raised in a worker process crosses back to the parent intact
        return (type(self), (self.needed, self.got, self.horizon))


def resolve_side(policy: str, side: int, horizon: int) -> int:
    """Torus side for a run that must stay exact up to `horizon` steps.

    The one side rule of every command and study. cone-exact: side 0
    auto-sizes to 2*horizon+1 (at least 3), a given side is used when it
    is at least that and refused (ConeRefusal) when smaller. torus: the
    given side, which must be at least 3; wrap is accepted.
    """
    if policy not in ("cone-exact", "torus"):
        raise ConfigError(f"plan.geometry must be cone-exact or torus, "
                          f"got {policy!r}")
    needed = max(3, min_cone_side(horizon))
    if policy == "cone-exact":
        if side == 0:
            return needed
        if side < needed:
            raise ConeRefusal(needed, side, horizon)
        return side
    if side < 3:
        raise ConfigError(f"torus geometry needs plan.l >= 3, got {side}")
    return side


def _floats(text: str) -> Tuple[float, ...]:
    return tuple(float(p) for p in text.replace(",", " ").split())


def _ints(text: str) -> Tuple[int, ...]:
    return tuple(int(p) for p in text.replace(",", " ").split())


# section -> key -> (parser, default, help). None default means "unset".
SCHEMA: Dict[str, Dict[str, tuple]] = {
    "run": {
        "seed": (int, 0, "master seed; replica seeds derive from it"),
        "out": (str, ".", "output directory for artifacts"),
        "workers": (int, 1, "worker processes for replica ensembles (>= 1)"),
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
        "replicas": (int, 200, "independent replicas per epsilon (>= 30 "
                     "in a study, >= 1 in decompose)"),
        "schedule": (str, "adversarial",
                     "horizon rule: adversarial (ceil(1/eps)) | macro-fixed "
                     "(ceil(macro_time/alpha(eps)))"),
        "macro_time": (float, 1.0, "macroscopic horizon for macro-fixed "
                       "(> 0)"),
        "geometry": (str, "cone-exact", "cone-exact | torus"),
        "l": (int, 0, "torus side (>= 3 under torus); 0 = auto 2h+1 "
              "(cone-exact only)"),
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
# still win). With them each bare study command runs the first CLI run of
# its criterion in CRITERIA.
COMMAND_OVERLAYS: Dict[str, Dict[Tuple[str, str], object]] = {
    "gradient": {("plan", "replicas"): 1000},
    "drift": {("plan", "epsilon_grid"): (0.1,),
              ("plan", "replicas"): 500},
    "whitenoise": {("plan", "epsilon_grid"): (0.3, 0.25, 0.2),
                   ("plan", "replicas"): 2000,
                   ("scheme", "preset"): "intermediate-disorder-1d"},
    # horizons reach 8192 steps, far past any cone-exact window, and the
    # gradient field is translation invariant on the torus
    "stationarity": {("plan", "epsilon_grid"): (0.1,),
                     ("plan", "replicas"): 30,
                     ("plan", "geometry"): "torus",
                     ("plan", "l"): 512},
    "walk-check": {("plan", "t"): 4},
    "decompose": {("plan", "replicas"): 100},
}

# every command reads model.phi and model.d; all but check-phi, which draws
# no noise, read the noise keys
_MODEL = ("model.phi", "model.d")
_NOISE = _MODEL + ("model.noise_family", "model.noise_scale")
_SINGLE_RUN = _NOISE + ("plan.epsilon", "plan.t", "plan.geometry", "plan.l")
_SCHEDULED = _NOISE + ("plan.epsilon_grid", "plan.replicas", "plan.schedule",
                       "plan.geometry", "plan.l")

# What each command reads of [model] and [plan] (a dotted key each) and of
# [scheme] and [test_function] (the section name, for the whole section).
# Under model.phi=gkpz every command also reads model.coupling. A command
# that reads plan.schedule also reads plan.macro_time and [scheme] under
# macro-fixed, whose horizons are ceil(macro_time/alpha(eps)). load_config
# refuses a --set of a [model], [plan] or [test_function] key that the
# command does not read, and a [scheme] value off its default in a command
# that does not read [scheme].
COMMAND_READS: Dict[str, Tuple[str, ...]] = {
    "simulate": _SINGLE_RUN,
    "walk-check": _SINGLE_RUN,
    "decompose": _SINGLE_RUN + ("plan.replicas", "scheme"),
    "check-phi": _MODEL,
    "remainder": _SCHEDULED + ("scheme",),
    "gradient": _SCHEDULED,
    "drift": _NOISE + ("plan.epsilon_grid", "plan.replicas", "plan.times",
                       "plan.geometry", "plan.l"),
    "whitenoise": _NOISE + ("plan.epsilon_grid", "plan.replicas", "scheme",
                            "test_function"),
    "stationarity": _NOISE + ("plan.epsilon_grid", "plan.replicas",
                              "plan.checkpoints", "plan.geometry", "plan.l"),
}


# The CLI runs of each Monte Carlo acceptance criterion: (command, --set
# items applied on top of the command's overlay). tests/test_acceptance.py
# runs every entry through its command handler, and
# scripts/run_verification_suite.py runs every entry through the CLI.
CRITERIA: Dict[int, List[Tuple[str, List[str]]]] = {
    6: [("remainder", []),
        ("remainder", ["plan.schedule=macro-fixed"]),
        ("remainder", ["model.phi=gkpz"]),
        ("remainder", ["model.phi=gkpz", "plan.schedule=macro-fixed"])],
    7: [("gradient", []),
        ("gradient", ["model.d=2", "plan.replicas=800"])],
    8: [("drift", [])],
    9: [("whitenoise", [])],
    10: [("stationarity", [])],
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
                sets: Optional[List[str]] = None) -> Dict[str, Dict]:
    """Resolve defaults <- command overlay <- file <- --set items."""
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
                resolved[sec][key] = _parse_value(
                    sec, key, raw,
                    lambda: f"{path}, line {_find_line(path, sec, key)}")

    set_keys = []
    for item in sets or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        sec, key = dotted.split(".", 1)
        if sec not in SCHEMA or key not in SCHEMA[sec]:
            raise ConfigError(f"--set: unknown key '{sec}.{key}'")
        resolved[sec][key] = _parse_value(sec, key, raw,
                                         lambda: f"--set {item}")
        set_keys.append((sec, dotted))
    reads = COMMAND_READS[command]
    if resolved["model"]["phi"] == "gkpz":
        reads += ("model.coupling",)
    if "plan.schedule" in reads and \
            resolved["plan"]["schedule"] == "macro-fixed":
        reads += ("plan.macro_time", "scheme")
    for sec, dotted in set_keys:
        if sec in ("model", "plan", "test_function") and \
                sec not in reads and dotted not in reads:
            under = (f" under model.phi={resolved['model']['phi']}"
                     if dotted == "model.coupling" else "")
            raise ConfigError(f"--set {dotted} has no effect on {command}"
                              f"{under}, which does not read it")
    _refuse_unread_scheme(resolved, command, reads)
    _refuse_bad_read_values(resolved, reads)
    return resolved


def _parse_value(sec: str, key: str, raw: str, where: Callable[[], str]):
    """Parse one value; `where` names its origin, and is only called on
    failure (a file origin rescans the file for the line number)."""
    parser = SCHEMA[sec][key][0]
    try:
        return parser(raw)
    except ValueError as e:
        raise ConfigError(f"{where()}: bad value for {sec}.{key}: {e}") from e


# the [scheme] keys the power-law preset reads, each its make_scheme keyword
POWER_LAW_KEYS = ("alpha_exp", "beta_exp", "gamma_exp", "alpha_coef",
                  "beta_coef", "gamma_coef")
# preset -> the [scheme] keys it reads -> their make_scheme keywords
SCHEME_READS: Dict[str, Dict[str, str]] = {
    "power-law": {k: k for k in POWER_LAW_KEYS},
    "2d-exponential": {"c": "C"},
}


def scheme_params(cfg: Dict[str, Dict]) -> Dict:
    """Keyword arguments of rescale.make_scheme for the [scheme] section.

    Refuses a preset built for one dimension (intermediate-disorder-1d,
    2d-exponential) in another model.d, and a [scheme] key set away from
    its default under a preset that does not read it.
    """
    s, d = cfg["scheme"], cfg["model"]["d"]
    preset = s["preset"]
    for name, preset_d in (("intermediate-disorder-1d", 1),
                           ("2d-exponential", 2)):
        if preset == name and d != preset_d:
            raise ConfigError(f"scheme.preset={name} is a d={preset_d} "
                              f"scheme, but model.d={d}")
    reads = SCHEME_READS.get(preset, {})
    for key in POWER_LAW_KEYS + ("c",):
        if key not in reads and s[key] != SCHEMA["scheme"][key][1]:
            raise ConfigError(f"scheme.{key}={s[key]!r} has no effect under "
                              f"scheme.preset={preset}; leave it at its "
                              f"default or choose a preset that reads it")
    return {arg: s[key] for key, arg in reads.items()}


def _refuse_bad_read_values(cfg: Dict[str, Dict],
                            reads: Tuple[str, ...]) -> None:
    """Refuse, naming the key, a value the command reads that no run takes.

    These are the single-run keys, which no ExperimentPlan field holds,
    and [test_function]; ExperimentPlan checks the keys it holds.
    """
    p, f, d = cfg["plan"], cfg["test_function"], cfg["model"]["d"]
    if "plan.epsilon" in reads and not 0 < p["epsilon"] <= 1:
        raise ConfigError(f"plan.epsilon must lie in (0, 1], "
                          f"got {p['epsilon']}")
    if "plan.t" in reads and p["t"] < 0:
        raise ConfigError(f"plan.t must be >= 0, got {p['t']}")
    if "test_function" not in reads:
        return
    for key in ("center_x", "width_x"):
        if len(f[key]) != d:
            raise ConfigError(f"test_function.{key} needs model.d = {d} "
                              f"entries, got {len(f[key])}")
    for key, widths in (("width_t", (f["width_t"],)),
                        ("width_x", f["width_x"])):
        if not all(w > 0 for w in widths):
            raise ConfigError(f"test_function.{key} must be positive, "
                              f"got {f[key]}")


def _refuse_unread_scheme(cfg: Dict[str, Dict], command: str,
                          reads: Tuple[str, ...]) -> None:
    """Refuse [scheme] keys off their defaults in runs that build no scheme."""
    if "scheme" in reads:
        return
    for key, spec in SCHEMA["scheme"].items():
        if cfg["scheme"][key] != spec[1]:
            raise ConfigError(f"scheme.{key}={cfg['scheme'][key]!r} has no "
                              f"effect on {command}, which builds no scheme")


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
