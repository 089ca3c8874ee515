"""The benchmark's workloads, their work counts and their output checks.

An operation is one study call through kpzlab's public API or one command
through ``kpzlab.cli.main``. Each operation knows the work it must do,
counted from its plan or config rather than from inside the program:
lattice steps, site updates (sum over evolutions of T * L^d) and keyed
noise draws. Each one also knows how to check its own output.

Operations are called through their module attribute at call time
(``studies.remainder_ratio_study``, ``cli.main``) so that the tracer's
wrappers see them.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from kpzlab import cli, config, lattice, noise, rng, studies

ADVERSARIAL_GRID = (0.2, 0.1, 0.05, 0.025)
PAIRING_GRID = (0.3, 0.25, 0.2)
# Separable default bump of whitenoise_pairing_study: pairing variance pi/4.
PAIRING_TARGET = math.pi / 4
PAIRING_HALFWIDTH = math.sqrt(math.log(1e12))
# Decomposition identities hold to rounding; cli decompose uses the same bound.
IDENTITY_BOUND = 1e-10

# why each was chosen: perfbench/README.md and BENCHMARK.json
WORKLOADS = ("studies", "commands")


@dataclass
class Work:
    """Work one operation does, counted from its plan or config."""

    steps: int = 0
    site_updates: int = 0
    grid_draws: int = 0     # through sample_grid / sample_spacetime
    scalar_draws: int = 0   # through NoiseModel.sample

    @property
    def noise_draws(self) -> int:
        return self.grid_draws + self.scalar_draws

    def __add__(self, other: "Work") -> "Work":
        return Work(self.steps + other.steps,
                    self.site_updates + other.site_updates,
                    self.grid_draws + other.grid_draws,
                    self.scalar_draws + other.scalar_draws)


def _lattice_work(evolutions: Sequence[Tuple[int, int, int]],
                  scalar_draws: int = 0) -> Work:
    """Work of (count, steps, sites per step) evolutions: one draw per site."""
    steps = sum(n * t for n, t, _ in evolutions)
    sites = sum(n * t * s for n, t, s in evolutions)
    return Work(steps, sites, sites, scalar_draws)


def _same_bits(a: float, b: float) -> bool:
    return float(a).hex() == float(b).hex()


def _bits_differ(what: str, model: noise.NoiseModel, t: int, coords, values,
                 picks) -> List[str]:
    """Compare vectorized draws at picked flat indices with the scalar path."""
    bad = []
    for i in picks:
        i = int(i)
        tt = int(np.asarray(t).flat[i]) if np.ndim(t) else int(t)
        site = tuple(int(c.flat[i]) for c in coords)
        if not _same_bits(values.flat[i], model.sample(tt, site)):
            bad.append(f"{what} draw at t={tt} x={site} differs from "
                       "NoiseModel.sample")
    return bad


def spot_check_grid(model: noise.NoiseModel, d: int, side: int,
                    layers: Sequence[int], picker: np.random.Generator,
                    extra_sites: Sequence[Tuple[int, Tuple[int, ...]]] = ()
                    ) -> List[str]:
    """sample_grid draws over a lattice window equal the scalar draws."""
    geo = lattice.LatticeGeometry(d, side)
    mesh = geo.site_mesh()
    bad = []
    for t in layers:
        values = model.sample_grid(t, mesh)
        picks = list(picker.integers(0, values.size, 16))
        picks += [int(np.ravel_multi_index(geo.index(x), geo.shape))
                  for tt, x in extra_sites if tt == t]
        bad += _bits_differ("sample_grid", model, t, mesh, values, picks)
    return bad


# ---------------------------------------------------------------------------
# output fingerprints: exact digests within a run, tolerant reference across


def _number(v) -> Optional[float]:
    if isinstance(v, (bool, np.bool_)):
        return None
    if isinstance(v, (int, float, np.integer, np.floating)):
        return float(v)
    try:
        return float(v)
    except (TypeError, ValueError):
        return None


class Fingerprint:
    """Per-column sums and extremes of a table, plus digests of text values.

    Rows stream through add(), so a 1e5-row CSV costs no extra memory.
    """

    def __init__(self):
        self.rows = 0
        self.numeric: Dict[str, List[float]] = {}
        self.text: Dict[str, "hashlib._Hash"] = {}

    def add(self, row: Dict) -> None:
        self.rows += 1
        for key, value in row.items():
            x = _number(value)
            if x is None:
                self.text.setdefault(key, hashlib.sha256()).update(
                    f"{value}\n".encode())
                continue
            acc = self.numeric.setdefault(key, [0.0, 0.0, math.inf, -math.inf, 0])
            if not math.isfinite(x):
                acc[4] += 1
                continue
            acc[0] += x
            acc[1] += abs(x)
            acc[2] = min(acc[2], x)
            acc[3] = max(acc[3], x)

    def as_dict(self) -> Dict:
        return {"rows": self.rows,
                "numeric": {k: {"sum": v[0], "abs_sum": v[1], "min": v[2],
                                "max": v[3], "nonfinite": v[4]}
                            for k, v in sorted(self.numeric.items())},
                "text": {k: h.hexdigest()[:16] for k, h in sorted(self.text.items())}}


def compare_fingerprints(got: Dict, ref: Dict, rel: float = 1e-9) -> List[str]:
    """Differences beyond rel times each column's absolute sum; exact for text."""
    bad = []
    for table in sorted(set(got) | set(ref)):
        g, r = got.get(table), ref.get(table)
        if g is None or r is None:
            bad.append(f"table {table} missing from "
                       f"{'output' if g is None else 'reference'}")
            continue
        if g["rows"] != r["rows"]:
            bad.append(f"{table}: {g['rows']} rows, reference {r['rows']}")
        if g["text"] != r["text"] or set(g["numeric"]) != set(r["numeric"]):
            bad.append(f"{table}: columns or text values differ from reference")
            continue
        for col, rc in r["numeric"].items():
            gc = g["numeric"][col]
            if gc["nonfinite"] != rc["nonfinite"]:
                bad.append(f"{table}.{col}: nonfinite count differs")
            for stat in ("sum", "abs_sum", "min", "max"):
                a, b = gc[stat], rc[stat]
                if a != b and not abs(a - b) <= rel * rc["abs_sum"]:
                    bad.append(f"{table}.{col}.{stat} = {a!r}, reference {b!r}")
    return bad


# ---------------------------------------------------------------------------
# operations


@dataclass
class Outcome:
    """What an operation produced, gathered after its timed call."""

    digest: str
    fingerprint: Dict
    problems: List[str] = field(default_factory=list)
    # study assertions the replica count does not power: reported, not failed
    underpowered: Dict[str, bool] = field(default_factory=dict)


class Op:
    name: str
    work: Work

    def run(self):
        """The timed call; returns the raw result for outcome()."""
        raise NotImplementedError

    def outcome(self, raw, verify: bool) -> Outcome:
        raise NotImplementedError


class StudyOp(Op):
    """One call of a studies.*_study function on an ExperimentPlan."""

    def __init__(self, name: str, study: str, plan: studies.ExperimentPlan,
                 work: Work, underpowered: Callable[[str], bool],
                 verify: Callable[["StudyOp", studies.StudyResult], List[str]]):
        self.name, self.study, self.plan, self.work = name, study, plan, work
        self._underpowered = underpowered
        self._verify = verify

    def run(self):
        return getattr(studies, self.study)(self.plan)

    def outcome(self, res: studies.StudyResult, verify: bool) -> Outcome:
        text = json.dumps(res.tables, sort_keys=True, default=repr)
        out = Outcome(hashlib.sha256(text.encode()).hexdigest(), {})
        if not verify:
            return out
        for table, rows in sorted(res.tables.items()):
            fp = Fingerprint()
            for row in rows:
                fp.add(row)
            out.fingerprint[table] = fp.as_dict()
        for key, passed in res.assertions.items():
            if self._underpowered(key):
                out.underpowered[key] = bool(passed)
            elif not passed:
                out.problems.append(f"assertion {key} failed")
        out.problems += self._verify(self, res)
        return out


class CliOp(Op):
    """One kpzlab command through cli.main, artifacts in a scratch dir."""

    def __init__(self, name: str, argv: List[str], seed: int, out_dir: str,
                 work: Work, verify: Callable[["CliOp", Dict, Dict], List[str]]):
        self.name, self.work = name, work
        self.command = argv[0]
        self.seed = seed
        self.out_dir = os.path.join(out_dir, name)
        self.cfg = config.load_config(None, self.command,
                                      [s for s in argv[1:] if s != "--set"])
        self.cfg["run"]["seed"] = seed
        self.argv = argv + ["--seed", str(seed), "--workers", "1",
                            "--out", self.out_dir]
        self._verify = verify

    def run(self):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self.argv)

    @property
    def csv_path(self) -> str:
        return os.path.join(self.out_dir, f"{self.command}-{self.seed}.csv")

    def outcome(self, rc: int, verify: bool) -> Outcome:
        h = hashlib.sha256(f"rc={rc}\n".encode())
        if rc != 0:
            return Outcome(h.hexdigest(), {}, [f"exit code {rc}"])
        with open(self.csv_path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        with open(self.csv_path[:-4] + ".json") as fh:
            doc = json.load(fh)
        h.update(json.dumps([doc["report"], doc["assertions"]],
                            sort_keys=True).encode())
        out = Outcome(h.hexdigest(), {})
        if verify:
            fp = Fingerprint()
            for row in self.rows():
                fp.add(row)
            out.fingerprint["csv"] = fp.as_dict()
            out.problems += self._verify(self, doc, out.fingerprint["csv"])
        return out

    def rows(self):
        with open(self.csv_path, newline="") as fh:
            yield from csv.DictReader(fh)


# ---------------------------------------------------------------------------
# per-operation checks


def _check_remainder(op: StudyOp, res) -> List[str]:
    plan = op.plan
    samples = res.tables["samples"]
    bad = []
    if len(samples) != plan.replicas * len(plan.epsilon_grid):
        bad.append(f"{len(samples)} samples for {plan.replicas} replicas")
    x0 = plan.center_site()
    models = {}
    for r in samples:
        k = r["replica"]
        model = models.setdefault(k, plan.noise_for(k))
        # C is eps times the draw landing during the decomposed step
        if not _same_bits(r["C"], r["epsilon"] * model.sample(r["t"] + 1, x0)):
            bad.append(f"replica {k} eps {r['epsilon']}: C differs from "
                       "eps * NoiseModel.sample")
        terms = (r["laplacian_term"] + r["grad_sq_term"] + r["noise_term"]
                 + r["remainder"])
        if abs(r["time_derivative"] - terms) > \
                IDENTITY_BOUND * abs(r["time_derivative"]):
            bad.append(f"replica {k} eps {r['epsilon']}: decomposition "
                       "does not rebuild the increment")
    t_max = plan.t_for(plan.epsilon_grid[-1])
    bad += spot_check_grid(plan.noise_for(0), plan.d, plan.side_for(t_max + 1),
                           (1, t_max + 1), np.random.default_rng(plan.seed))
    return bad


def _check_gradient(op: StudyOp, res) -> List[str]:
    plan = op.plan
    vals = np.array([r["normalized_gradient"] for r in res.tables["samples"]])
    bad = []
    if vals.size != plan.replicas * len(plan.epsilon_grid):
        bad.append(f"{vals.size} samples for {plan.replicas} replicas")
    if not (np.all(np.isfinite(vals)) and np.all(vals >= 0)):
        bad.append("normalized gradients not finite and nonnegative")
    t_max = plan.t_for(plan.epsilon_grid[-1])
    bad += spot_check_grid(plan.noise_for(0), plan.d, plan.side_for(t_max),
                           (t_max,), np.random.default_rng(plan.seed))
    return bad


def pairing_mesh(plan: studies.ExperimentPlan, eps: float):
    """Cell indices of the pairing sum for the default bump (d = 1)."""
    scheme = plan.scheme()
    alpha, beta = scheme.alpha(eps), scheme.beta(eps)
    m = np.arange(1, max(1, math.ceil(PAIRING_HALFWIDTH / alpha)) + 1)
    v = np.arange(math.ceil(-PAIRING_HALFWIDTH / beta),
                  math.ceil(PAIRING_HALFWIDTH / beta) + 1)
    return m, v


def _check_pairing(op: StudyOp, res) -> List[str]:
    plan = op.plan
    rows = res.tables["pairings"]
    bad = []
    if [r["epsilon"] for r in rows] != list(plan.epsilon_grid):
        bad.append("pairing rows do not follow the epsilon grid")
    for r in rows:
        m, v = pairing_mesh(plan, r["epsilon"])
        if r["cells"] != m.size * v.size or r["count"] != plan.replicas:
            bad.append(f"eps {r['epsilon']}: {r['cells']} cells x "
                       f"{r['count']} replicas, plan says {m.size * v.size} x "
                       f"{plan.replicas}")
        if abs(r["target_variance"] - PAIRING_TARGET) > 1e-12:
            bad.append(f"target variance {r['target_variance']} is not pi/4")
        if not all(math.isfinite(x) for x in r.values()):
            bad.append(f"eps {r['epsilon']}: nonfinite statistic")
    # the study's space-time draws: layer m + 1 over the cell mesh
    m, v = pairing_mesh(plan, plan.epsilon_grid[0])
    tt, vv = np.meshgrid(m + 1, v, indexing="ij")
    model = plan.noise_for(0)
    values = model.sample_spacetime(tt, [vv])
    picks = np.random.default_rng(plan.seed).integers(0, values.size, 32)
    bad += _bits_differ("sample_spacetime", model, tt, [vv], values, picks)
    return bad


def _cli_noise(op: CliOp, replica: int) -> noise.NoiseModel:
    m = op.cfg["model"]
    return noise.NoiseModel(noise.NoiseSpec(
        m["noise_family"], m["noise_scale"], rng.derive_seed(op.seed, replica)))


def _cli_side(op: CliOp) -> int:
    p = op.cfg["plan"]
    return cli.resolve_side(p["geometry"], p["l"], p["t"])


def _check_simulate(op: CliOp, doc: Dict, fp: Dict) -> List[str]:
    d, T = op.cfg["model"]["d"], op.cfg["plan"]["t"]
    side = _cli_side(op)
    value = fp["numeric"]["value"]
    bad = []
    if fp["rows"] != side ** d or value["nonfinite"]:
        bad.append(f"{fp['rows']} rows ({value['nonfinite']} nonfinite), "
                   f"expected {side ** d} finite heights")
    if (doc["report"]["t"], doc["report"]["L"]) != (T, side):
        bad.append("report t/L differ from the config")
    bad += spot_check_grid(_cli_noise(op, 0), d, side, (1, T),
                           np.random.default_rng(op.seed))
    return bad


def _check_decompose(op: CliOp, doc: Dict, fp: Dict) -> List[str]:
    T, eps = op.cfg["plan"]["t"], op.cfg["plan"]["epsilon"]
    x0 = (0,) * op.cfg["model"]["d"]
    bad = []
    n = 0
    for row in op.rows():
        n += 1
        k = int(row["replica"])
        inc = float(row["increment"])
        total = sum(float(row[c]) for c in "ABCD")
        if abs(inc - total) > IDENTITY_BOUND * abs(inc):
            bad.append(f"replica {k}: A+B+C+D misses the increment")
        if not _same_bits(float(row["C"]), eps * _cli_noise(op, k).sample(T, x0)):
            bad.append(f"replica {k}: C differs from eps * NoiseModel.sample")
    if n != op.cfg["plan"]["replicas"]:
        bad.append(f"{n} rows for {op.cfg['plan']['replicas']} replicas")
    return bad


def cone_sites(d: int, T: int) -> int:
    """Sites (s, y) with |y|_1 <= T - s for s = 1..T: walk-check's checks."""
    return sum(sum(1 for off in itertools.product(range(-r, r + 1), repeat=d)
                   if sum(map(abs, off)) <= r) for r in range(T))


def _check_walk(op: CliOp, doc: Dict, fp: Dict) -> List[str]:
    d, T = op.cfg["model"]["d"], op.cfg["plan"]["t"]
    rep = doc["report"]
    bad = []
    if rep["sites_checked"] != cone_sites(d, T):
        bad.append(f"{rep['sites_checked']} sites checked, cone has "
                   f"{cone_sites(d, T)}")
    if not rep["worst_abs_diff"] <= rep["tolerance"]:
        bad.append("walk and finite-difference derivatives disagree")
    # derivative_fd perturbs one draw: the edited grid must match the
    # scalar path at the edited site too
    s, y = max(1, T // 2), (1,) + (0,) * (d - 1)
    model = _cli_noise(op, 0).perturb_at(s, y, 1e-5)
    bad += spot_check_grid(model, d, _cli_side(op), (s,),
                           np.random.default_rng(op.seed), extra_sites=[(s, y)])
    return bad


def _check_phi(op: CliOp, doc: Dict, fp: Dict) -> List[str]:
    checks = doc["report"]["checks"]
    if len(checks) != 8 or not all(c["passed"] for c in checks):
        return ["check-phi did not report 8 passing checks"]
    return []


# ---------------------------------------------------------------------------
# workload construction


def _remainder_op(seed: int, phi: str, replicas: int) -> StudyOp:
    plan = studies.ExperimentPlan(epsilon_grid=ADVERSARIAL_GRID,
                                  replicas=replicas, seed=seed, phi_name=phi,
                                  schedule="adversarial")
    # per replica and eps: evolve t steps, then one more step, on the cone
    # of t + 1; decompose draws one scalar noise value
    evols = [(replicas, plan.t_for(e) + 1,
              plan.side_for(plan.t_for(e) + 1) ** plan.d)
             for e in plan.epsilon_grid]
    work = _lattice_work(evols, replicas * len(plan.epsilon_grid))
    return StudyOp(f"remainder.{phi}", "remainder_ratio_study", plan, work,
                   lambda key: key.endswith("_median_trend"), _check_remainder)


def _gradient_op(seed: int, d: int, replicas: int) -> StudyOp:
    plan = studies.ExperimentPlan(epsilon_grid=ADVERSARIAL_GRID,
                                  replicas=replicas, seed=seed, d=d)
    evols = [(replicas, plan.t_for(e), plan.side_for(plan.t_for(e)) ** d)
             for e in plan.epsilon_grid]
    return StudyOp(f"gradient.d{d}", "gradient_scaling_study", plan,
                   _lattice_work(evols), lambda key: key == "p95_band_bounded",
                   _check_gradient)


def _pairing_op(seed: int, replicas: int) -> StudyOp:
    plan = studies.ExperimentPlan(epsilon_grid=PAIRING_GRID, replicas=replicas,
                                  seed=seed,
                                  scheme_preset="intermediate-disorder-1d",
                                  scheme_params={})
    cells = sum(m.size * v.size
                for m, v in (pairing_mesh(plan, e) for e in PAIRING_GRID))
    # every pairing check is statistical; 2000 replicas power them
    return StudyOp("whitenoise.id1d", "whitenoise_pairing_study", plan,
                   Work(grid_draws=replicas * cells), lambda key: True,
                   _check_pairing)


def _cli_op(name: str, argv: List[str], seed: int, out_dir: str,
            verify) -> CliOp:
    op = CliOp(name, argv, seed, out_dir, Work(), verify)
    d, T = op.cfg["model"]["d"], op.cfg["plan"]["t"]
    sites = _cli_side(op) ** d
    if op.command == "simulate":
        op.work = _lattice_work([(1, T, sites)])
    elif op.command == "decompose":
        # per replica: evolve T - 1 steps, then one step; one scalar draw
        reps = op.cfg["plan"]["replicas"]
        op.work = _lattice_work([(reps, T, sites)], reps)
    elif op.command == "walk-check":
        # one evolution with history, then two finite-difference
        # evolutions per checked site
        op.work = _lattice_work([(1 + 2 * cone_sites(d, T), T, sites)])
    return op


def build(workload: str, seed: int, out_dir: str) -> List[Op]:
    """The operations of one workload pass, inputs derived from seed.

    Replica counts are the plans' minimum of 30, which keeps each study
    call short: its median over the many passes of a run is then a time in
    one machine state rather than an average over several.
    """
    if workload == "studies":
        return [_remainder_op(seed, "polymer", 30),
                _remainder_op(seed, "gkpz", 30),
                _gradient_op(seed, 1, 30),
                _gradient_op(seed, 2, 30),
                _pairing_op(seed, 30)]
    if workload == "commands":
        d2 = ["--set", "model.d=2"]
        # T = 160 gives a 321 x 321 cone-exact torus: >= 1e5 sites per step
        ops = [_cli_op("simulate.polymer.d2",
                       ["simulate", "--set", "plan.t=160"] + d2,
                       seed, out_dir, _check_simulate),
               _cli_op("walk-check.d1", ["walk-check", "--set", "plan.t=16"],
                       seed, out_dir, _check_walk),
               _cli_op("walk-check.d2", ["walk-check", "--set", "plan.t=6"] + d2,
                       seed, out_dir, _check_walk)]
        for phi in ("polymer", "gkpz"):
            for d in (1, 2):
                ops.append(_cli_op(f"check-phi.{phi}.d{d}",
                                   ["check-phi", "--set", f"model.phi={phi}",
                                    "--set", f"model.d={d}"],
                                   seed, out_dir, _check_phi))
        ops.append(_cli_op("decompose", ["decompose", "--set", "plan.t=200",
                                         "--set", "plan.replicas=30"],
                           seed, out_dir, _check_decompose))
        return ops
    raise ValueError(f"unknown workload {workload!r}")
