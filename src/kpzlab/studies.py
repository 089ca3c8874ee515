"""Monte Carlo studies that turn the limit statements into checkable claims.

Every study consumes an ExperimentPlan (plain data, safe to pickle), runs
deterministic replicas whose noise seeds derive from the plan seed, and
returns a StudyResult holding CSV-ready tables, a JSON-ready summary and a
dict of named boolean assertions. Replica k reuses the same derived seed
across the whole epsilon grid, so per-epsilon statistics are paired and
trend/band assertions are stable at moderate replica counts.

plan.run(replica, eps, horizon) is the one builder of an evolution, for
every command, decomposition_row the one decomposition sampler (of the
decompose command and the remainder study), and map_replicas the one
replica runner. A plan refuses bad values and unknown names when it is
built, and each study checks its inputs, its largest torus side and its
replica floor before map_replicas, so a refusal comes before any replica
runs. The white-noise pairing is a contraction of each replica's draws
with the bump's per-axis cell factors, one axis at a time.

scipy is imported only inside the functions that use it (GaussianBump's
erf integrals, the white-noise and stationarity statistics): importing
scipy.stats costs about a second, which every other command would pay at
start-up.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .config import SCHEMA, ConfigError, resolve_side
from .driving import DrivingFunction, make_driving
from .lattice import EvolutionConfig, LatticeGeometry, capture, evolve
from .noise import NoiseModel, blocks, cut, replica_noise
from .rescale import (DecompositionSample, ScalingScheme,
                      evolve_and_decompose, macro_terms, make_scheme,
                      preset_reads)
from .rng import derive_seed


def _scheme_params(scheme: Dict) -> Dict:
    """make_scheme's keywords: the values of the [scheme] keys that the
    section's preset reads (rescale.PRESETS)."""
    return {arg: scheme[key]
            for key, arg in preset_reads(scheme["preset"]).items()}


def _config_key(section: str, key: str):
    """A plan field read from the config key section.key, defaulting to
    that key's SCHEMA default."""
    return field(default=SCHEMA[section][key][1],
                 metadata={"section": section, "key": key})


@dataclass(frozen=True)
class ExperimentPlan:
    """Declarative description of a study or of a single run.

    Each field but scheme_params names its config key and defaults to that
    key's SCHEMA default; scheme_params holds make_scheme's keywords, the
    values of the [scheme] keys the preset reads, by default the default
    preset's keys at their defaults.

    schedule 'adversarial' probes t_eps = ceil(1/eps); 'macro-fixed' holds a
    macroscopic time fixed through the scheme, t_eps = ceil(macro_time/alpha).
    L is the config's plan.l, and side_for applies config.resolve_side:
    under 'cone-exact', L = 0 sizes each torus to 2h+1 for its horizon h,
    so no wrap reaches the anchor, and a given L is used when it is at
    least that and refused when smaller; 'torus' needs L >= 3, uses it for
    every horizon and accepts wrap bias.
    """

    epsilon_grid: Tuple[float, ...] = _config_key("plan", "epsilon_grid")
    replicas: int = _config_key("plan", "replicas")
    seed: int = _config_key("run", "seed")
    phi_name: str = _config_key("model", "phi")
    d: int = _config_key("model", "d")
    coupling: Optional[float] = _config_key("model", "coupling")
    noise_family: str = _config_key("model", "noise_family")
    noise_scale: float = _config_key("model", "noise_scale")
    scheme_preset: str = _config_key("scheme", "preset")
    scheme_params: Dict = field(default_factory=lambda: _scheme_params(
        {k: spec[1] for k, spec in SCHEMA["scheme"].items()}))
    schedule: str = _config_key("plan", "schedule")
    macro_time: float = _config_key("plan", "macro_time")
    geometry_policy: str = _config_key("plan", "geometry")
    L: int = _config_key("plan", "l")

    @classmethod
    def from_config(cls, cfg: Dict[str, Dict]) -> "ExperimentPlan":
        """The plan of a resolved config (config.load_config)."""
        return cls(scheme_params=_scheme_params(cfg["scheme"]),
                   **{f.name: cfg[f.metadata["section"]][f.metadata["key"]]
                      for f in fields(cls) if f.metadata})

    def __post_init__(self):
        eps = self.epsilon_grid
        if not eps or any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
            raise ConfigError("plan.epsilon_grid must be nonempty and "
                              "strictly decreasing")
        if any(not (0 < e <= 1) for e in eps):
            raise ConfigError("plan.epsilon_grid values must lie in (0, 1]")
        if self.replicas < 1:
            raise ConfigError(f"plan.replicas >= 1, got {self.replicas}")
        if self.schedule not in ("adversarial", "macro-fixed"):
            raise ConfigError("plan.schedule must be adversarial or "
                              "macro-fixed")
        if not (math.isfinite(self.macro_time) and self.macro_time > 0):
            raise ConfigError(f"plan.macro_time must be positive and finite, "
                              f"got {self.macro_time}")
        # each builder decides its own values and names, here, before any
        # replica; a refusal names the config keys that builder reads
        coupling = (f", model.coupling={self.coupling!r}"
                    if self.phi_name == "gkpz" else "")
        for build, keys in (
                (self.phi, f"model.phi={self.phi_name}, "
                           f"model.d={self.d}{coupling}"),
                (self.scheme, self._scheme_keys()),
                (lambda: self.noise_for(0),
                 f"model.noise_family={self.noise_family}, "
                 f"model.noise_scale={self.noise_scale!r}")):
            try:
                build()
            except ValueError as e:
                raise ConfigError(f"{e} under {keys}") from e
        # macro-fixed horizons ceil(macro_time/alpha) need alpha to shrink
        if self.schedule == "macro-fixed":
            self.scheme_on_grid()
        self.side_for(0)  # refuses an unknown policy and a torus without L

    # construction helpers (objects are rebuilt inside workers) -------------

    def phi(self) -> DrivingFunction:
        return make_driving(self.phi_name, self.d, self.coupling)

    def scheme(self) -> ScalingScheme:
        return make_scheme(self.scheme_preset, **self.scheme_params)

    def _scheme_keys(self) -> str:
        """The [scheme] keys the preset reads, as key=value, for a refusal."""
        return f"scheme.preset={self.scheme_preset}" + "".join(
            f", scheme.{key}={self.scheme_params[arg]!r}" for key, arg
            in preset_reads(self.scheme_preset).items())

    def scheme_at(self, epsilons: Sequence[float]) -> ScalingScheme:
        """The scheme, refused at any of the epsilons a command reads where
        alpha, beta or gamma is not a finite, positive, normal float or,
        unless phi's hessian is degenerate, a macro_terms column of a unit
        sample (A = B = C = D = 1) is not finite; the refusal names each."""
        scheme, hess = self.scheme(), self.phi().hessian_origin()
        for eps in epsilons:
            # float64 arithmetic: what overflows or divides by zero is inf
            # or NaN, not an exception, so each column can be named
            with np.errstate(all="ignore"):
                values = {k: np.float64(getattr(scheme, k)(np.float64(eps)))
                          for k in ("alpha", "beta", "gamma")}
                bad = {k: v for k, v in values.items()
                       if not (math.isfinite(v) and v >= np.finfo(v).tiny)}
                if not bad and not hess.degenerate:
                    unit = DecompositionSample(eps, 0, self.center_site(),
                                               1.0, 1.0, 1.0, 1.0, 4.0)
                    fixed = ScalingScheme(*(lambda e, v=v: v
                                            for v in values.values()))
                    bad = {k: v for k, v in macro_terms(
                        unit, fixed, self.noise_for(0).sigma, hess,
                        self.d).items() if not math.isfinite(v)}
            if bad:
                named = ", ".join(f"{k} = {float(v)!r}"
                                  for k, v in bad.items())
                raise ConfigError(f"the scheme gives {named} at eps = {eps!r} "
                                  f"(d = {self.d}), which no run can use, "
                                  f"under {self._scheme_keys()}, "
                                  f"model.noise_scale={self.noise_scale!r}")
        return scheme

    def scheme_on_grid(self) -> ScalingScheme:
        """The scheme, refused unless it is usable at each eps of
        plan.epsilon_grid and its alpha and beta decrease along it."""
        scheme = self.scheme_at(self.epsilon_grid)
        try:
            scheme.validate_on_grid(self.epsilon_grid)
        except ValueError as e:
            raise ConfigError(f"{e} plan.epsilon_grid = "
                              f"{list(self.epsilon_grid)} under "
                              f"{self._scheme_keys()}") from e
        return scheme

    def noise_for(self, replica: int) -> NoiseModel:
        return replica_noise(self.noise_family, self.noise_scale, self.seed,
                             replica)

    def t_for(self, epsilon: float) -> int:
        if self.schedule == "adversarial":
            return int(math.ceil(1.0 / epsilon))
        return int(math.ceil(self.macro_time / self.scheme().alpha(epsilon)))

    def side_for(self, horizon: int) -> int:
        return resolve_side(self.geometry_policy, self.L, horizon)

    def center_site(self) -> Tuple[int, ...]:
        return tuple(0 for _ in range(self.d))

    def run(self, replica: int, epsilon: float,
            horizon: int) -> EvolutionConfig:
        """Replica `replica`'s evolution at `epsilon` for `horizon` steps,
        on the torus side_for(horizon): the one evolution builder."""
        return EvolutionConfig(self.phi(), self.noise_for(replica),
                               LatticeGeometry(self.d, self.side_for(horizon)),
                               epsilon, T=horizon)


def _quantile_series(name: str, per_eps: Dict[float, np.ndarray],
                     seed: int) -> List[dict]:
    """Quantiles and their bootstrap SEs per epsilon, largest epsilon first."""
    rows = []
    for i, (eps, vals) in enumerate(sorted(per_eps.items(), reverse=True)):
        vals = np.asarray(vals, dtype=np.float64)
        qs = np.quantile(vals, [0.5, 0.9, 0.95])
        rng = np.random.default_rng(derive_seed(seed, 0xB007, i))
        boot = vals[rng.integers(0, len(vals), size=(200, len(vals)))]
        bq = np.quantile(boot, [0.5, 0.9, 0.95], axis=1)
        ses = bq.std(axis=1, ddof=1)
        q50, q90, q95 = map(float, qs)
        se50, se90, se95 = map(float, ses)
        rows.append({"statistic": name, "epsilon": eps, "count": len(vals),
                     "q50": q50, "q90": q90, "q95": q95,
                     "se50": se50, "se90": se90, "se95": se95})
    return rows


def _capture_times(key: str, times: Sequence[int]) -> Tuple[int, ...]:
    """Sorted distinct capture times; refuses an empty list or a time < 0."""
    out = tuple(sorted(set(int(t) for t in times)))
    if not out or out[0] < 0:
        raise ConfigError(f"{key} must list at least one time, all >= 0; "
                          f"got {list(times)}")
    return out


def count_trend_inversions(values: Sequence[float]) -> float:
    """How often a series expected to decrease fails to; NaN if a value is
    NaN, so that no assertion on the count passes."""
    if any(math.isnan(v) for v in values):
        return math.nan
    return sum(1 for a, b in zip(values, values[1:]) if b >= a)


@dataclass
class StudyResult:
    assertions: Dict[str, bool]
    summary: Dict
    tables: Dict[str, List[dict]]


def _replica_range(worker: Callable, lo: int, hi: int, shared: tuple) -> list:
    return [worker(k, *shared) for k in range(lo, hi)]


def map_replicas(worker: Callable, replicas: int, workers: int,
                 *shared) -> list:
    """[worker(k, *shared) for k in range(replicas)], in replica order.

    workers > 1 splits the replicas into min(workers, replicas) contiguous
    ranges, one task each, so the shared arguments are pickled once per
    range; the results are the same for any worker count.
    """
    n = min(workers, replicas)
    if n <= 1:
        return _replica_range(worker, 0, replicas, shared)
    # imported here: concurrent.futures and the logging it pulls in cost
    # every start-up about 13 ms, and most runs use one worker
    from concurrent import futures
    bounds = [replicas * i // n for i in range(n + 1)]
    with futures.ProcessPoolExecutor(max_workers=n) as pool:
        ranges = pool.map(_replica_range, [worker] * n, bounds, bounds[1:],
                          [shared] * n)
        return [r for part in ranges for r in part]


def _check_study_replicas(plan: ExperimentPlan) -> None:
    """Refuse a study of fewer than the 30 replicas its statistics need."""
    if plan.replicas < 30:
        raise ConfigError(f"a study needs plan.replicas >= 30, got "
                          f"{plan.replicas}")


# ---------------------------------------------------------------------------
# remainder negligibility


def _remainder_horizon(plan: ExperimentPlan, eps: float) -> int:
    """Steps of a remainder run: t_for(eps), then the decomposed step."""
    return plan.t_for(eps) + 1


def decomposition_row(replica: int, plan: ExperimentPlan, epsilon: float,
                      horizon: int) -> dict:
    """Replica `replica`'s decomposition at (horizon - 1, origin) as a
    decompose CSV row: its lattice columns, then the macro_terms columns
    unless phi's hessian is degenerate."""
    run = plan.run(replica, epsilon, horizon)
    s = evolve_and_decompose(run, plan.center_site())
    row = {"replica": replica, "epsilon": epsilon, "t": s.t,
           **{f"x{i}": c for i, c in enumerate(s.x, start=1)},
           "A": s.A, "B": s.B, "C": s.C, "D": s.D, "increment": s.increment,
           "lattice_residual": s.lattice_residual}
    hess = run.phi.hessian_origin()
    if not hess.degenerate:
        row.update(macro_terms(s, plan.scheme(), run.noise.sigma, hess,
                               plan.d))
    return row


# the remainder study's samples columns, as perfbench/reference.json pins them
_SAMPLE_KEYS = ("replica", "epsilon", "t", "A", "B", "C", "D", "remainder",
                "laplacian_term", "grad_sq_term", "noise_term",
                "time_derivative")


def _remainder_worker(replica: int, plan: ExperimentPlan) -> List[dict]:
    rows = []
    for eps in plan.epsilon_grid:
        row = decomposition_row(replica, plan, eps,
                                _remainder_horizon(plan, eps))
        rows.append({key: row[key] for key in _SAMPLE_KEYS})
    return rows


RATIO_NAMES = ("ratio_vs_laplacian", "ratio_vs_grad_sq", "ratio_vs_noise",
               "ratio_vs_time_derivative")
_RATIO_DENOMS = ("laplacian_term", "grad_sq_term", "noise_term",
                 "time_derivative")


def remainder_ratio_study(plan: ExperimentPlan, workers: int = 1) -> StudyResult:
    """Medians of |remainder| over each macroscopic term must fall with eps."""
    _check_study_replicas(plan)
    plan.scheme_at(plan.epsilon_grid)
    plan.side_for(max(_remainder_horizon(plan, e) for e in plan.epsilon_grid))
    hess = plan.phi().hessian_origin()
    if hess.degenerate:
        raise ConfigError(f"remainder needs a nondegenerate hessian, but "
                          f"model.phi={plan.phi_name} has q={hess.q!r}, "
                          f"r={hess.r!r}")
    raw = map_replicas(_remainder_worker, plan.replicas, workers, plan)
    rows = [r for chunk in raw for r in chunk]

    assertions: Dict[str, bool] = {}
    nonzero = all(r[den] != 0.0 for r in rows for den in _RATIO_DENOMS)
    assertions["denominators_nonzero"] = nonzero

    series: Dict[str, List[dict]] = {}
    # A phi that is exactly quadratic over the visited gradient range (the
    # gkpz family below its kink) leaves only double-rounding residue in the
    # remainder. Median trends are degenerate there, so such series pass by
    # a stricter route: every single ratio must sit at rounding level.
    ROUNDING = 1e-10
    at_rounding = all(
        abs(r["D"]) <= ROUNDING * (abs(r["A"]) + abs(r["B"]) + abs(r["C"]))
        for r in rows)
    for name, den in zip(RATIO_NAMES, _RATIO_DENOMS):
        per_eps: Dict[float, list] = {e: [] for e in plan.epsilon_grid}
        for r in rows:
            d = r[den]
            per_eps[r["epsilon"]].append(abs(r["remainder"] / d) if d else
                                         float("inf"))
        qs = _quantile_series(name, {e: np.array(v) for e, v in per_eps.items()},
                              plan.seed)
        series[name] = qs
        if at_rounding:
            assertions[f"{name}_median_trend"] = True
        else:
            inv = count_trend_inversions([q["q50"] for q in qs])
            assertions[f"{name}_median_trend"] = inv <= 1

    table = [row for qs in series.values() for row in qs]
    summary = {
        "plan": _plan_dict(plan),
        "remainder_at_rounding_level": at_rounding,
        "series": series,
    }
    return StudyResult(assertions, summary, {"series": table, "samples": rows})


# ---------------------------------------------------------------------------
# gradient scale


def _gradient_worker(replica: int, plan: ExperimentPlan) -> List[dict]:
    x0 = plan.center_site()
    rows = []
    for eps in plan.epsilon_grid:
        run = plan.run(replica, eps, plan.t_for(eps))
        st = evolve(run).stencil_at(x0)
        stat = float(np.abs(st[1:] - st[0]).max() / math.sqrt(eps))
        rows.append({"replica": replica, "epsilon": eps, "t": run.T,
                     "normalized_gradient": stat})
    return rows


BAND_LIMIT = 3.0  # largest allowed ratio of p95s across the epsilon grid


def gradient_scaling_study(plan: ExperimentPlan, workers: int = 1) -> StudyResult:
    """max_a |f(t,x)-f(t,x+a)| / sqrt(eps): p95 must stay in a flat band."""
    _check_study_replicas(plan)
    plan.side_for(max(map(plan.t_for, plan.epsilon_grid)))
    raw = map_replicas(_gradient_worker, plan.replicas, workers, plan)
    rows = [r for chunk in raw for r in chunk]
    per_eps = {e: np.array([r["normalized_gradient"] for r in rows
                            if r["epsilon"] == e])
               for e in plan.epsilon_grid}
    qs = _quantile_series("normalized_gradient", per_eps, plan.seed)
    p95 = [q["q95"] for q in qs]
    band = max(p95) / min(p95) if min(p95) > 0 else float("inf")
    assertions = {"p95_band_bounded": band <= BAND_LIMIT,
                  "p95_positive": min(p95) > 0}
    summary = {"plan": _plan_dict(plan), "band": band,
               "band_limit": BAND_LIMIT, "series": qs}
    return StudyResult(assertions, summary, {"series": qs, "samples": rows})


# ---------------------------------------------------------------------------
# drift bounds


def _drift_worker(replica: int, plan: ExperimentPlan,
                  times: Tuple[int, ...], horizon: int) -> List[dict]:
    x0 = plan.center_site()
    want = set(times)
    rows = []
    for eps in plan.epsilon_grid:
        run = plan.run(replica, eps, horizon)
        prev = None
        for cur in capture(run, want | {t + 1 for t in want}):
            if prev is not None and prev.t in want:
                st = prev.stencil_at(x0)
                rows.append({"replica": replica, "epsilon": eps, "t": prev.t,
                             "increment": cur.value_at(x0) - float(st[0]),
                             "phi_gap": float(run.phi.value(st) - st.mean())})
            prev = cur
    return rows


def drift_bound_study(plan: ExperimentPlan, times: Sequence[int],
                      workers: int = 1) -> StudyResult:
    """MC means of the one-step drift and of phi(stencil)-mean vs B*eps."""
    _check_study_replicas(plan)
    times = _capture_times("plan.times", times)
    horizon = max(times) + 1  # each capture time reads the step after it
    plan.side_for(horizon)
    raw = map_replicas(_drift_worker, plan.replicas, workers, plan, times,
                       horizon)
    rows = [r for chunk in raw for r in chunk]
    bound_scale = plan.noise_for(0).bound
    table = []
    assertions: Dict[str, bool] = {}
    for eps in plan.epsilon_grid:
        for t in times:
            for key in ("increment", "phi_gap"):
                vals = np.array([r[key] for r in rows
                                 if r["epsilon"] == eps and r["t"] == t])
                mean = float(vals.mean())
                se = float(vals.std(ddof=1) / math.sqrt(len(vals)))
                bound = bound_scale * eps
                ok_hi = mean <= bound + 3 * se
                ok_lo = mean >= -3 * se
                table.append({"epsilon": eps, "t": t, "estimator": key,
                              "mean": mean, "se": se, "bound": bound,
                              "count": len(vals),
                              "within": ok_hi and ok_lo})
                assertions[f"{key}_within_bound_eps{eps}_t{t}"] = ok_hi and ok_lo
    summary = {"plan": _plan_dict(plan), "times": list(times),
               "bound_scale": bound_scale, "rows": table}
    return StudyResult(assertions, summary, {"estimates": table})


# ---------------------------------------------------------------------------
# white-noise pairing


SUPPORT_THRESHOLD = 1e-12  # relative size of the bump at its window's edge


@dataclass(frozen=True)
class GaussianBump:
    """Separable bump A exp(-((t-t0)/wt)^2 - sum ((x_i-c_i)/w_i)^2)."""

    d: int = 1
    amplitude: float = 1.0
    center_t: float = 0.0
    width_t: float = 1.0
    center_x: Tuple[float, ...] = (0.0,)
    width_x: Tuple[float, ...] = (1.0,)

    def __post_init__(self):
        # the [test_function] values, refused before any replica runs
        for key in ("center_x", "width_x"):
            n = len(getattr(self, key))
            if n != self.d:
                raise ConfigError(f"test_function.{key} needs model.d = "
                                  f"{self.d} entries, got {n}")
        for key, widths in (("width_t", (self.width_t,)),
                            ("width_x", self.width_x)):
            if not all(w > 0 for w in widths):
                raise ConfigError(f"test_function.{key} must be positive, "
                                  f"got {getattr(self, key)}")

    def squared_norm(self) -> float:
        """Exact integral of f^2 over t > 0, x in R^d."""
        out = self.amplitude * self.amplitude * self.squared_axis_mass(
            0.0, math.inf, self.center_t, self.width_t)
        for c, w in zip(self.center_x, self.width_x):
            out *= self.squared_axis_mass(-math.inf, math.inf, c, w)
        return out

    def support_halfwidth(self) -> float:
        """Radius (in scaled units) beyond which |f| < SUPPORT_THRESHOLD * A."""
        return math.sqrt(math.log(1.0 / SUPPORT_THRESHOLD))

    def axis_integrals(self, edges: np.ndarray, center: float,
                       width: float) -> np.ndarray:
        """Exact integrals of exp(-((u-c)/w)^2) between consecutive edges."""
        from scipy import special
        z = (edges - center) / width
        prims = width * math.sqrt(math.pi) / 2.0 * special.erf(z)
        return np.diff(prims)

    def squared_axis_mass(self, lo: float, hi: float, center: float,
                          width: float) -> float:
        """Exact integral of exp(-2((u-c)/w)^2) over [lo, hi]."""
        from scipy import special
        s = math.sqrt(2.0)
        zlo = s * (lo - center) / width
        zhi = s * (hi - center) / width
        return float(width * math.sqrt(math.pi / 2.0) / 2.0 *
                     (special.erf(zhi) - special.erf(zlo)))


def _pairing_cells(fn: GaussianBump, alpha: float, beta: float,
                   coverage: float = 0.9999):
    """Cell index ranges and the per-axis factors of the exact cell
    averages of the pairing sum.

    Axis 0 is time, in cells of width alpha from cell 1 on (the noise
    starts after t = 0); each space axis has cells of width beta over the
    bump's support. Cell k of an axis of width h spans ((k-1)h, kh].
    """
    half = fn.support_halfwidth()
    ranges, factors = [], []
    covered = 1.0
    for i, (c, w) in enumerate(zip((fn.center_t, *fn.center_x),
                                   (fn.width_t, *fn.width_x))):
        h = beta if i else alpha
        first = math.ceil((c - w * half) / h) if i else 1
        k = np.arange(first, max(first, math.ceil((c + w * half) / h)) + 1)
        edges = np.concatenate([[(k[0] - 1) * h], k * h])
        ranges.append(k)
        factors.append(fn.axis_integrals(edges, c, w) / h)
        # coverage of the squared norm by the truncated window, exact via erf
        covered *= fn.squared_axis_mass(edges[0], edges[-1], c, w)
    covered *= fn.amplitude ** 2
    total = fn.squared_norm()
    if covered < coverage * total:
        raise ConfigError(
            f"cell window holds {covered/total:.6f} of the squared norm, "
            f"below the required {coverage}")

    # separable cell averages: the product of these per-axis averages,
    # amplitude once; the pairing contracts them axis by axis (_contract)
    factors[0] = fn.amplitude * factors[0]
    return ranges[0], ranges[1:], factors


def _contract(a: np.ndarray, factors: Sequence[np.ndarray]):
    """a contracted with one factor per trailing axis, last axis first:
    each factor multiplies a in place along its last axis, which
    np.add.reduce then sums away.

    Every sum runs along one whole axis, so a block of whole trailing axes
    gives the bits the whole grid gives. Only elementwise ufuncs and
    np.add.reduce: BLAS kernels vary by CPU.
    """
    for f in reversed(factors):
        a *= f
        a = np.add.reduce(a, axis=-1)
    return a


def _pairing_worker(replica: int, plan: ExperimentPlan,
                    grids: list) -> List[float]:
    """Pairings of one replica on every eps grid, one block of cells at a
    time.

    The blocks are noise.blocks of the cell grid, each with its part of
    the grid's open key mesh (noise.cut). Each block's draws are
    contracted over the axes after the cut axis, the last one the blocks
    do not span, into an array of shape[:axis + 1] (one value per time
    layer when blocks are whole layers), which the factors up to the cut
    axis then contract.
    """
    model = plan.noise_for(replica)
    out = []
    for axes, factors, coef in grids:
        shape = tuple(f.size for f in factors)
        mesh, cuts = np.ix_(*axes), blocks(shape)
        first = [s.stop - s.start for s in cuts[0]]
        axis = max((i for i, n in enumerate(first) if n < shape[i]),
                   default=0)
        # one draw buffer for every block, the size of the first (largest):
        # a fresh block-sized array per block costs a page fault per 4 KiB
        # once freed memory is trimmed
        buf = np.empty(math.prod(first))
        partial = np.empty(shape[:axis + 1])
        for box in cuts:
            ext = tuple(s.stop - s.start for s in box)
            keys = [cut(a, box) for a in mesh]
            z = model.sample_spacetime(
                keys[0], keys[1:], out=buf[:math.prod(ext)].reshape(ext))
            partial[box[:axis + 1]] = _contract(z, factors[axis + 1:])
        out.append(coef * float(_contract(partial, factors[:axis + 1])))
    return out


def whitenoise_pairing_study(plan: ExperimentPlan,
                             fn: Optional[GaussianBump] = None,
                             workers: int = 1) -> StudyResult:
    """Pair the rescaled noise with a bump; the sums must look N(0, ||f||^2).

    The exact per-axis cell averages are built once per eps, in this
    process, and reach each map_replicas range once. Each replica draws
    every grid one block of cells at a time, hashing each time row of the
    block's open cell mesh once, and contracts the draws with the per-axis
    factors one axis at a time (_contract), so memory does not grow with
    the cell count and the pairings have the same bits for any blocking
    and worker count. The lattice variance is alpha * beta^d times the
    product of the factors' sums of squares.
    """
    _check_study_replicas(plan)
    from scipy import stats
    if fn is None:
        fn = GaussianBump(d=plan.d,
                          center_x=tuple(0.0 for _ in range(plan.d)),
                          width_x=tuple(1.0 for _ in range(plan.d)))
    if fn.d != plan.d:
        raise ValueError("test function dimension != plan dimension")
    target = fn.squared_norm()
    if not (math.isfinite(target) and target > 0):
        raise ConfigError(f"the [test_function] squared norm must be "
                          f"positive and finite, got {target}")
    scheme = plan.scheme_on_grid()
    sigma = plan.noise_for(0).sigma
    grids, lattice_vars = [], []
    for eps in plan.epsilon_grid:
        alpha = scheme.alpha(eps)
        beta = scheme.beta(eps)
        m, v_ranges, factors = _pairing_cells(fn, alpha, beta)
        axes = [m + 1, *v_ranges]  # noise layer m + 1 over cell m
        coef = math.sqrt(alpha) * beta ** (plan.d / 2.0) / sigma
        grids.append((axes, factors, coef))
        lattice_vars.append(alpha * beta ** plan.d * math.prod(
            float(np.add.reduce(f * f)) for f in factors))
    all_pairings = np.column_stack(map_replicas(
        _pairing_worker, plan.replicas, workers, plan, grids))
    table = []
    assertions: Dict[str, bool] = {}
    smallest = min(plan.epsilon_grid)
    for eps, (_, factors, _), lattice_var, pairings in zip(
            plan.epsilon_grid, grids, lattice_vars, all_pairings):
        mean = float(pairings.mean())
        var = float(pairings.var(ddof=1))
        se_mean = math.sqrt(var / plan.replicas)
        skew = float(stats.skew(pairings))
        exkurt = float(stats.kurtosis(pairings, fisher=True))
        ks = stats.kstest(pairings, "norm", args=(0.0, math.sqrt(target)))
        row = {"epsilon": eps, "count": plan.replicas, "mean": mean,
               "se_mean": se_mean, "variance": var,
               "target_variance": target, "lattice_variance": lattice_var,
               "skewness": skew, "excess_kurtosis": exkurt,
               "normality_pvalue": float(ks.pvalue),
               "cells": math.prod(f.size for f in factors)}
        table.append(row)
        if eps == smallest:
            assertions["mean_unbiased"] = abs(mean) <= 3 * se_mean
            assertions["variance_within_10pct"] = abs(var - target) <= 0.10 * target
            assertions["skewness_small"] = abs(skew) <= 0.15
            assertions["excess_kurtosis_small"] = abs(exkurt) <= 0.30
    summary = {"plan": _plan_dict(plan), "target_variance": target,
               "rows": table}
    return StudyResult(assertions, summary, {"pairings": table})


# ---------------------------------------------------------------------------
# gradient-field stationarity / tightness


def _stationarity_worker(replica: int, plan: ExperimentPlan,
                         checkpoints: Tuple[int, ...]) -> Dict[int, np.ndarray]:
    run = plan.run(replica, plan.epsilon_grid[0], max(checkpoints))
    # f(x + e_1) - f(x): row 1 of the stencil stack holds x + e_1
    return {cur.t: (cur.stencil_stack()[1] - cur.values).ravel()
            for cur in capture(run, checkpoints)}


def stationarity_study(plan: ExperimentPlan, checkpoints: Sequence[int],
                       workers: int = 1) -> StudyResult:
    """Track the first-axis gradient field along dyadic checkpoints.

    Pools gradients over sites and replicas per checkpoint; reports
    quantiles of |grad|, two-sample KS distances between consecutive
    checkpoints, and asserts the p99 shows no late growth trend. Long
    horizons exceed any affordable dependence cone, so the plan must
    explicitly accept torus geometry, and its grid must hold one epsilon.
    """
    _check_study_replicas(plan)
    if len(plan.epsilon_grid) != 1:
        raise ConfigError("stationarity runs one epsilon; plan.epsilon_grid "
                          f"must hold one, got {list(plan.epsilon_grid)}")
    from scipy import stats
    if plan.geometry_policy != "torus":
        raise ConfigError("stationarity runs on a fixed torus; set the "
                          "plan's geometry_policy to 'torus' to acknowledge "
                          "wrap")
    checkpoints = _capture_times("plan.checkpoints", checkpoints)
    positive = [cp for cp in checkpoints if cp > 0]
    if len(positive) < 3:
        raise ConfigError("plan.checkpoints needs at least three positive "
                          f"times for the p99 trend, got {list(checkpoints)}")
    raw = map_replicas(_stationarity_worker, plan.replicas, workers, plan,
                       checkpoints)
    pooled = {cp: np.concatenate([r[cp] for r in raw]) for cp in checkpoints}

    qrows = []
    p99s = {}
    for cp in checkpoints:
        a = np.abs(pooled[cp])
        q = np.quantile(a, [0.5, 0.9, 0.99]) if a.size else [0, 0, 0]
        p99s[cp] = float(q[2])
        qrows.append({"t": cp, "pooled_count": int(a.size),
                      "abs_q50": float(q[0]), "abs_q90": float(q[1]),
                      "abs_q99": float(q[2])})

    ks_rows = []
    for a, b in zip(checkpoints, checkpoints[1:]):
        res = stats.ks_2samp(pooled[a], pooled[b])
        ks_rows.append({"t_from": a, "t_to": b,
                        "ks_statistic": float(res.statistic),
                        "pvalue": float(res.pvalue)})

    # late-time flatness: the last three p99 values sit in a narrow band
    tail = [p99s[c] for c in positive[-3:]]
    assertions = {"p99_no_growth_trend": max(tail) <= 1.2 * min(tail)}
    if 0 in p99s:
        assertions["flat_start_zero_gradient"] = p99s[0] == 0.0

    summary = {"plan": _plan_dict(plan), "checkpoints": list(checkpoints),
               "quantiles": qrows,
               "ks_distances": ks_rows}
    return StudyResult(assertions, summary,
                       {"quantiles": qrows, "ks_distances": ks_rows})


def _plan_dict(plan: ExperimentPlan) -> Dict:
    """The plan's fields for a JSON report, phi_name and scheme_preset
    written as phi and scheme."""
    rename = {"phi_name": "phi", "scheme_preset": "scheme"}
    return {rename.get(k, k): v for k, v in asdict(plan).items()}
