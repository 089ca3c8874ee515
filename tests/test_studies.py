"""Study-layer tests: plans, quantile series, and small frozen runs.

Full-scale statistical verification lives in the acceptance suite; here
each study is exercised at toy scale against closed forms and structural
invariants, with seeds frozen so every number is reproducible.
"""
import gc
import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from kpzlab import studies
from kpzlab.config import ConfigError, load_config
from kpzlab.rng import derive_seed
from kpzlab.studies import (ExperimentPlan, GaussianBump, _pairing_cells,
                            _quantile_series, count_trend_inversions,
                            drift_bound_study,
                            gradient_scaling_study, map_replicas,
                            remainder_ratio_study, stationarity_study,
                            whitenoise_pairing_study)
from kpzlab.studies import _gradient_worker
from oracles import (full_cell_averages, full_grid_contraction,
                     full_grid_pairings, scalar_sample)


def small_plan(**kw):
    base = dict(epsilon_grid=(0.5, 0.25), replicas=30, seed=0)
    base.update(kw)
    return ExperimentPlan(**base)


# ---------------------------------------------------------------------------
# plan validation and helpers


def test_plan_rejects_bad_grids():
    with pytest.raises(ValueError):
        ExperimentPlan(epsilon_grid=())
    with pytest.raises(ValueError):
        ExperimentPlan(epsilon_grid=(0.1, 0.2))
    with pytest.raises(ValueError):
        ExperimentPlan(epsilon_grid=(1.5, 0.5))
    with pytest.raises(ConfigError, match="plan.replicas >= 1, got 0"):
        ExperimentPlan(replicas=0)
    with pytest.raises(ValueError):
        ExperimentPlan(schedule="heuristic")
    with pytest.raises(ValueError):
        ExperimentPlan(geometry_policy="open")
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ConfigError, match="plan.macro_time"):
            ExperimentPlan(macro_time=bad)
    # ten replicas make a plan, which a single run may use, but no study
    plan = ExperimentPlan(replicas=10)
    with pytest.raises(ConfigError, match="plan.replicas >= 30, got 10"):
        gradient_scaling_study(plan)


@pytest.mark.parametrize("kw,key", [
    (dict(d=0), "model.d=0"),
    (dict(d=-2, phi_name="gkpz"), "model.d=-2"),
    (dict(phi_name="gkpz", coupling=math.nan), "model.coupling=nan"),
    (dict(phi_name="gkpz", coupling=-0.5), "model.coupling=-0.5"),
    (dict(noise_scale=0.0), "model.noise_scale=0.0"),
    (dict(noise_scale=math.nan), "model.noise_scale=nan"),
    (dict(phi_name="ballistic"), "model.phi=ballistic"),
    (dict(noise_family="gauss"), "model.noise_family=gauss"),
    (dict(scheme_preset="parabolic", scheme_params={}),
     "scheme.preset=parabolic"),
    (dict(scheme_params={**ExperimentPlan().scheme_params,
                         "beta_coef": math.inf}), "scheme.beta_coef=inf"),
])
def test_plan_refusals_name_their_key(kw, key):
    # each builder decides its own values; the plan names the keys it reads
    with pytest.raises(ConfigError) as exc:
        ExperimentPlan(**kw)
    assert key in str(exc.value)


def test_plan_defaults_are_the_config_defaults():
    assert ExperimentPlan() == \
        ExperimentPlan.from_config(load_config(None, "remainder"))


def test_plan_horizon_rules():
    p = small_plan()
    assert p.t_for(0.3) == 4  # ceil(1/0.3)
    assert p.t_for(0.5) == 2
    q = small_plan(schedule="macro-fixed", macro_time=1.0)
    # default scheme: alpha = eps^2
    assert q.t_for(0.5) == 4
    assert q.t_for(0.25) == 16
    r = small_plan(schedule="macro-fixed", macro_time=0.5)
    assert r.t_for(0.5) == 2


def test_plan_geometry_rules():
    p = small_plan()
    assert p.L == 0  # auto-size, as plan.l = 0
    assert p.side_for(5) == 11
    assert p.side_for(0) == 3
    q = small_plan(geometry_policy="torus", L=64)
    assert q.side_for(5) == 64
    # a given cone-exact L is used when it covers the horizon's cone
    r = small_plan(L=15)
    assert r.side_for(5) == 15
    assert r.side_for(7) == 15
    with pytest.raises(ConfigError, match="L >= 17, got L = 15"):
        r.side_for(8)
    # torus needs a side of at least 3; plan.l = 0 means nothing there
    for side in (0, 2):
        with pytest.raises(ConfigError, match="plan.l >= 3"):
            small_plan(geometry_policy="torus", L=side)
    assert small_plan(geometry_policy="torus", L=3).side_for(5) == 3
    with pytest.raises(ConfigError, match="plan.geometry"):
        small_plan(geometry_policy="cone")
    assert small_plan(d=2).center_site() == (0, 0)


def test_plan_replica_noise_is_common_across_epsilons():
    p = small_plan()
    assert p.noise_for(3).spec.seed == derive_seed(0, 3)
    assert p.noise_for(3).spec.seed != p.noise_for(4).spec.seed


# ---------------------------------------------------------------------------
# quantile machinery


def test_quantile_series_ordering():
    vals = {0.5: np.arange(100.0), 0.25: np.arange(100.0) * 2}
    qs = _quantile_series("stat", vals, seed=0)
    assert [r["epsilon"] for r in qs] == [0.5, 0.25]
    for r in qs:
        assert r["statistic"] == "stat"
        assert r["q50"] <= r["q90"] <= r["q95"]
        assert r["se50"] > 0 and r["count"] == 100
    assert [r["q50"] for r in qs] == [pytest.approx(49.5), pytest.approx(99.0)]


def test_count_trend_inversions():
    assert count_trend_inversions([3.0, 2.0, 1.0]) == 0
    assert count_trend_inversions([1.0, 2.0, 3.0]) == 2
    assert count_trend_inversions([2.0, 2.0, 1.0]) == 1
    assert count_trend_inversions([1.0]) == 0
    # a NaN anywhere makes the count NaN, which no bound on it admits
    for values in ([3.0, math.nan, 1.0], [3.0, 2.0, math.nan], [math.nan]):
        assert math.isnan(count_trend_inversions(values))


def _logged_gradient_worker(replica, plan, log_dir):
    (log_dir / str(replica)).touch(exist_ok=False)  # a second run raises
    return replica, _gradient_worker(replica, plan)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_map_replicas_runs_each_replica_once_in_order(tmp_path, workers):
    plan = small_plan(epsilon_grid=(0.5,), replicas=31)
    ref = [(k, _gradient_worker(k, plan)) for k in range(31)]
    assert map_replicas(_logged_gradient_worker, 31, workers, plan,
                        tmp_path) == ref
    assert sorted(int(p.name) for p in tmp_path.iterdir()) == list(range(31))


@pytest.mark.parametrize("study,args", [
    (remainder_ratio_study, ()), (gradient_scaling_study, ()),
    (drift_bound_study, ((1, 2),)), (whitenoise_pairing_study, ()),
    (stationarity_study, ((1, 2),))])
def test_every_study_refuses_fewer_than_30_replicas(monkeypatch, study,
                                                     args):
    def ran(*a, **kw):
        raise AssertionError("replicas ran before the refusal")
    monkeypatch.setattr(studies, "map_replicas", ran)
    plan = small_plan(replicas=29, geometry_policy="torus", L=9)
    with pytest.raises(ConfigError, match="plan.replicas >= 30, got 29"):
        study(plan, *args)


# ---------------------------------------------------------------------------
# gradient study


def test_gradient_stat_closed_form_at_horizon_one():
    # with eps = 1 the first slice is the raw noise layer, so the statistic
    # is exactly max(|z(1,1)-z(1,0)|, |z(1,-1)-z(1,0)|)
    plan = ExperimentPlan(epsilon_grid=(1.0, 0.5), replicas=30, seed=0)
    res = gradient_scaling_study(plan)
    rows = [r for r in res.tables["samples"] if r["epsilon"] == 1.0]
    assert len(rows) == 30
    for r in rows:
        nm = plan.noise_for(r["replica"])
        z0, zp, zm = (scalar_sample(nm, 1, (x,)) for x in (0, 1, -1))
        assert r["normalized_gradient"] == pytest.approx(
            max(abs(zp - z0), abs(zm - z0)), abs=1e-15)
        assert r["t"] == 1


def test_gradient_study_reproducible():
    plan = small_plan()
    a = gradient_scaling_study(plan)
    b = gradient_scaling_study(plan)
    assert a.tables["samples"] == b.tables["samples"]
    assert a.summary["band"] == b.summary["band"]
    assert a.assertions == b.assertions
    assert set(a.assertions) == {"p95_band_bounded", "p95_positive"}


# ---------------------------------------------------------------------------
# remainder study


def test_remainder_study_small_run():
    plan = small_plan()
    res = remainder_ratio_study(plan)
    assert len(res.tables["samples"]) == 2 * 30
    assert res.assertions["denominators_nonzero"]
    # polymer remainders are genuinely nonzero, so the rounding route is off
    assert not res.summary["remainder_at_rounding_level"]
    stats = {row["statistic"] for row in res.tables["series"]}
    assert stats == {"ratio_vs_laplacian", "ratio_vs_grad_sq",
                     "ratio_vs_noise", "ratio_vs_time_derivative"}
    assert all(res.assertions.values())  # frozen seed, decay 0.5 -> 0.25


def test_remainder_study_quadratic_update_hits_rounding_route():
    # below its kink the kinked-penalty update is exactly quadratic, so the
    # remainder is pure double rounding and the stricter route must engage;
    # eps <= 0.25 keeps every visited stencil gap under the kink
    plan = small_plan(phi_name="gkpz", epsilon_grid=(0.25, 0.125))
    res = remainder_ratio_study(plan)
    assert res.summary["remainder_at_rounding_level"]
    assert all(res.assertions.values())


# ---------------------------------------------------------------------------
# drift study


def test_drift_study_plain_mean_has_zero_gap():
    plan = small_plan(epsilon_grid=(0.5,), phi_name="ew")
    res = drift_bound_study(plan, times=(1, 3))
    gaps = [r for r in res.tables["estimates"] if r["estimator"] == "phi_gap"]
    assert len(gaps) == 2
    for r in gaps:
        assert r["mean"] == 0.0 and r["within"]
    assert all(res.assertions.values())


def test_drift_study_rows_and_keys():
    plan = small_plan(epsilon_grid=(0.5,))
    res = drift_bound_study(plan, times=(2,))
    assert set(res.assertions) == {"increment_within_bound_eps0.5_t2",
                                   "phi_gap_within_bound_eps0.5_t2"}
    row = res.tables["estimates"][0]
    assert row["bound"] == pytest.approx(0.5 * math.sqrt(3.0))
    assert row["count"] == 30


# ---------------------------------------------------------------------------
# test function and pairing cells


def test_bump_default_squared_norm():
    fn = GaussianBump()
    assert fn.squared_norm() == pytest.approx(math.pi / 4, abs=1e-14)


def test_bump_squared_norm_matches_quadrature():
    # separable integrand, so integrate f^2 axis by axis with adaptive
    # quadrature and compare against the closed form
    fn = GaussianBump(d=1, amplitude=1.3, center_t=0.4, width_t=0.8,
                      center_x=(-0.2,), width_x=(1.5,))
    t_part, _ = integrate.quad(
        lambda t: (fn.amplitude
                   * math.exp(-((t - fn.center_t) / fn.width_t) ** 2)) ** 2,
        0.0, 20.0)
    x_part, _ = integrate.quad(
        lambda x: math.exp(-2.0 * ((x - fn.center_x[0]) / fn.width_x[0]) ** 2),
        -30.0, 30.0)
    # t_part carries amplitude^2; x_part is the unit-height x factor
    assert t_part * x_part == pytest.approx(fn.squared_norm(), rel=1e-9)


def test_bump_axis_machinery():
    fn = GaussianBump()
    edges = np.linspace(-6, 6, 241)
    ints = fn.axis_integrals(edges, 0.0, 1.0)
    assert ints.sum() == pytest.approx(math.sqrt(math.pi), rel=1e-10)
    assert fn.squared_axis_mass(-8, 8, 0.0, 1.0) == pytest.approx(
        math.sqrt(math.pi / 2), rel=1e-12)
    assert fn.support_halfwidth() == pytest.approx(math.sqrt(math.log(1e12)))


def test_bump_validation():
    with pytest.raises(ValueError):
        GaussianBump(d=2)  # center/width still 1-entry defaults
    with pytest.raises(ValueError):
        GaussianBump(width_t=0.0)
    with pytest.raises(ValueError):
        GaussianBump(width_x=(-1.0,))


def test_pairing_cells_weights_sum_like_integral():
    fn = GaussianBump()
    alpha, beta = 0.0625, 0.25
    m, v_ranges, factors = _pairing_cells(fn, alpha, beta)
    cell_avg = full_cell_averages(factors)
    assert m[0] == 1 and cell_avg.shape == (len(m), len(v_ranges[0]))
    total = cell_avg.sum() * alpha * beta
    exact = (math.sqrt(math.pi) / 2) * math.sqrt(math.pi)  # t-half * x-full
    assert total == pytest.approx(exact, rel=1e-3)


def test_pairing_cells_zero_amplitude():
    fn = GaussianBump(amplitude=0.0)
    m, v_ranges, factors = _pairing_cells(fn, 0.25, 0.5)
    assert np.all(full_cell_averages(factors) == 0.0)


def test_pairing_cells_coverage_guard():
    with pytest.raises(ConfigError, match="cell window holds"):
        _pairing_cells(GaussianBump(), 0.25, 0.5, coverage=1.01)


def test_whitenoise_study_small_run():
    plan = ExperimentPlan(epsilon_grid=(0.5,), replicas=200, seed=0,
                          scheme_preset="intermediate-disorder-1d",
                          scheme_params={})
    res = whitenoise_pairing_study(plan)
    row = res.tables["pairings"][0]
    assert row["count"] == 200
    assert row["target_variance"] == pytest.approx(math.pi / 4)
    # the deterministic cell-sum variance must track the integral closely
    assert row["lattice_variance"] == pytest.approx(row["target_variance"],
                                                    rel=0.02)
    assert abs(row["mean"]) <= 3 * row["se_mean"]
    assert row["normality_pvalue"] > 0.01
    assert set(res.assertions) == {"mean_unbiased", "variance_within_10pct",
                                   "skewness_small", "excess_kurtosis_small"}


@pytest.mark.parametrize("d, preset, grid, width_t", [
    # eps 0.25 pairs 228,820 cells: 8 blocks of whole time layers
    (1, "intermediate-disorder-1d", (0.5, 0.4, 0.25), 1.0),
    # 10,648, 25,872 and 76,464 cells (3 blocks) over a 3-axis grid
    (2, "power-law", (0.5, 0.4, 0.3), 1.0),
    # 3 x 36^3 cells: each 46,656-cell time layer is cut in two blocks
    (3, "power-law", (0.3,), 0.05)])
def test_whitenoise_row_equals_full_mesh_pairings(d, preset, grid, width_t):
    # the study contracts blocks of an open cell mesh; the same contraction
    # on one full meshgrid has its bits, and the plain sum
    # (z * cell_avg).sum() agrees to rounding
    params = {} if preset != "power-law" else ExperimentPlan().scheme_params
    plan = ExperimentPlan(epsilon_grid=grid, replicas=30, seed=4, d=d,
                          scheme_preset=preset, scheme_params=params)
    fn = GaussianBump(d=d, width_t=width_t, center_x=(0.0,) * d,
                      width_x=(1.0,) * d)
    res = whitenoise_pairing_study(plan, fn)
    for row in res.tables["pairings"]:
        contracted = full_grid_contraction(plan, fn, row["epsilon"])
        assert row["mean"] == float(contracted.mean())
        assert row["variance"] == float(contracted.var(ddof=1))
        plain, plain_abs, lattice_var = full_grid_pairings(plan, fn,
                                                           row["epsilon"])
        assert np.all(np.abs(contracted - plain) <= 1e-14 * plain_abs)
        assert row["lattice_variance"] == pytest.approx(lattice_var,
                                                        rel=1e-14, abs=0)


@pytest.mark.parametrize("d, width_t, width_x, block, cut_axis", [
    # 22 x 22 x 22 cells: blocks of single cells, runs within a row, whole
    # rows, whole time layers and the whole grid
    *((2, 1.0, 1.0, b, a) for b, a in [(1, 2), (7, 2), (21, 2), (22, 1),
                                       (23, 1), (483, 1), (484, 0),
                                       (485, 0), (8192, 0)]),
    # 2 x 12 x 12 x 12 cells: a cut at each of the four axes
    *((3, 0.05, 0.5, b, a) for b, a in [(5, 3), (12, 2), (100, 2), (144, 1),
                                        (1728, 0), (8192, 0)])])
def test_pairing_worker_same_bits_for_any_block_size(monkeypatch, d, width_t,
                                                     width_x, block,
                                                     cut_axis):
    # every sum runs along one whole axis, so the cut changes no bit
    plan = ExperimentPlan(epsilon_grid=(0.5,), replicas=2, seed=2, d=d,
                          scheme_preset="power-law",
                          scheme_params=ExperimentPlan().scheme_params)
    fn = GaussianBump(d=d, width_t=width_t, center_x=(0.0,) * d,
                      width_x=(width_x,) * d)
    scheme = plan.scheme()
    alpha, beta = scheme.alpha(0.5), scheme.beta(0.5)
    m, v_ranges, factors = _pairing_cells(fn, alpha, beta)
    coef = math.sqrt(alpha) * beta ** (d / 2.0) / plan.noise_for(0).sigma
    grids = [([m + 1, *v_ranges], factors, coef)]
    monkeypatch.setattr(studies, "_BLOCK", block)
    shape = tuple(f.size for f in factors)
    assert studies._cell_blocks(shape)[0] == cut_axis
    got = [studies._pairing_worker(k, plan, grids)[0]
           for k in range(plan.replicas)]
    assert np.array_equal(got, full_grid_contraction(plan, fn, 0.5))


@pytest.mark.parametrize("shape", [(7, 5), (3, 40000), (2, 300, 300),
                                   (1, 1, 70001), (40, 30, 29)])
def test_cell_blocks_cut_the_grid_into_contiguous_runs(shape):
    grid = np.arange(math.prod(shape)).reshape(shape)
    axis, cuts = studies._cell_blocks(shape)
    cuts = list(cuts)
    runs = [grid[cut].reshape(-1) for cut in cuts]
    assert max(r.size for r in runs) <= studies._BLOCK
    # one index of each axis before the cut axis, whole axes after it
    for cut in cuts:
        assert all(c.stop - c.start == 1 for c in cut[:axis])
        assert all(c == slice(None) for c in cut[axis + 1:])
    assert np.array_equal(np.concatenate(runs), grid.reshape(-1))


def test_pairing_worker_holds_one_block_of_cells():
    # eps 0.2 pairs 867,504 cells; a whole-grid draw array alone is 6.9 MB
    plan = ExperimentPlan(epsilon_grid=(0.2,), replicas=30, seed=0,
                          scheme_preset="intermediate-disorder-1d",
                          scheme_params={})
    scheme = plan.scheme()
    m, v_ranges, factors = _pairing_cells(GaussianBump(), scheme.alpha(0.2),
                                          scheme.beta(0.2))
    grids = [([m + 1, *v_ranges], factors, 1.0)]
    studies._pairing_worker(0, plan, grids)  # warm caches and imports
    gc.disable()  # a reference cycle would hold blocks until a collection
    tracemalloc.start()
    try:
        studies._pairing_worker(1, plan, grids)
        left, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert peak < 2.5e6, f"{peak / 1e6:.2f} MB peak for one worker call"
    assert left < 1e5, f"{left / 1e6:.2f} MB still held after the call"


def test_whitenoise_study_same_bits_for_any_worker_count():
    plan = ExperimentPlan(epsilon_grid=(0.5, 0.4), replicas=30, seed=1,
                          scheme_preset="intermediate-disorder-1d",
                          scheme_params={})
    one = whitenoise_pairing_study(plan, workers=1)
    two = whitenoise_pairing_study(plan, workers=2)
    assert repr(one.tables) == repr(two.tables)


def test_whitenoise_study_rejects_mismatched_dimension():
    plan = ExperimentPlan(epsilon_grid=(0.5,), replicas=30,
                          scheme_preset="intermediate-disorder-1d",
                          scheme_params={})
    with pytest.raises(ValueError):
        whitenoise_pairing_study(plan, GaussianBump(d=2, center_x=(0.0, 0.0),
                                                    width_x=(1.0, 1.0)))


# ---------------------------------------------------------------------------
# stationarity study


def test_stationarity_requires_torus_acknowledgement():
    plan = small_plan(epsilon_grid=(0.1,))
    with pytest.raises(ValueError, match="torus"):
        stationarity_study(plan, checkpoints=(0, 1))


def test_stationarity_small_run():
    plan = ExperimentPlan(epsilon_grid=(0.1,), replicas=30, seed=0,
                          geometry_policy="torus", L=32)
    res = stationarity_study(plan, checkpoints=(0, 1, 2, 4))
    assert set(res.assertions) == {"flat_start_zero_gradient",
                                   "p99_no_growth_trend"}
    assert res.assertions["flat_start_zero_gradient"]
    rows = res.tables["quantiles"]
    assert [r["t"] for r in rows] == [0, 1, 2, 4]
    assert rows[0]["abs_q99"] == 0.0
    assert rows[1]["abs_q99"] > 0.0
    assert rows[0]["pooled_count"] == 32 * 30
    assert len(res.tables["ks_distances"]) == 3
    # the geometry is reported once, under plan
    assert "geometry_policy" not in res.summary and "L" not in res.summary
    assert (res.summary["plan"]["geometry_policy"],
            res.summary["plan"]["L"]) == ("torus", 32)
