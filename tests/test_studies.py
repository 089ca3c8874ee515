"""Study-layer tests: plans, quantile series, and small frozen runs.

Full-scale statistical verification lives in the acceptance suite; here
each study is exercised at toy scale against closed forms and structural
invariants, with seeds frozen so every number is reproducible.
"""
import math

import numpy as np
import pytest
from scipy import integrate

from kpzlab import studies
from kpzlab.config import ConeRefusal, ConfigError, load_config
from kpzlab.rng import derive_seed
from kpzlab.studies import (ExperimentPlan, GaussianBump, WindowTooNarrow,
                            _pairing_cells, _quantile_series,
                            count_trend_inversions, drift_bound_study,
                            gradient_scaling_study, map_replicas,
                            remainder_ratio_study, stationarity_study,
                            whitenoise_pairing_study)
from kpzlab.studies import _gradient_worker
from oracles import scalar_sample


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
    with pytest.raises(ConeRefusal) as exc:
        r.side_for(8)
    assert exc.value.needed == 17
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
    m, v_ranges, cell_avg = _pairing_cells(fn, alpha, beta)
    assert m[0] == 1 and cell_avg.shape == (len(m), len(v_ranges[0]))
    total = cell_avg.sum() * alpha * beta
    exact = (math.sqrt(math.pi) / 2) * math.sqrt(math.pi)  # t-half * x-full
    assert total == pytest.approx(exact, rel=1e-3)


def test_pairing_cells_zero_amplitude():
    fn = GaussianBump(amplitude=0.0)
    m, v_ranges, cell_avg = _pairing_cells(fn, 0.25, 0.5)
    assert np.all(cell_avg == 0.0)


def test_pairing_cells_coverage_guard():
    with pytest.raises(WindowTooNarrow):
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


def test_whitenoise_row_equals_full_mesh_pairings():
    # the study hashes an open cell mesh; the full meshgrid is the reference
    plan = ExperimentPlan(epsilon_grid=(0.5, 0.4), replicas=30, seed=4,
                          scheme_preset="intermediate-disorder-1d",
                          scheme_params={})
    res = whitenoise_pairing_study(plan)
    scheme = plan.scheme()
    fn = GaussianBump()
    for row in res.tables["pairings"]:
        alpha, beta = scheme.alpha(row["epsilon"]), scheme.beta(row["epsilon"])
        m, v_ranges, cell_avg = _pairing_cells(fn, alpha, beta)
        mesh = np.meshgrid(m + 1, *v_ranges, indexing="ij")
        coef = math.sqrt(alpha) * beta ** 0.5 / plan.noise_for(0).sigma
        pairings = np.array([
            coef * float((plan.noise_for(k).sample_spacetime(mesh[0], mesh[1:])
                          * cell_avg).sum()) for k in range(plan.replicas)])
        assert row["mean"] == float(pairings.mean())
        assert row["variance"] == float(pairings.var(ddof=1))


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
    res = stationarity_study(plan, checkpoints=(0, 1, 2))
    assert res.assertions == {"flat_start_zero_gradient": True}
    rows = res.tables["quantiles"]
    assert [r["t"] for r in rows] == [0, 1, 2]
    assert rows[0]["abs_q99"] == 0.0
    assert rows[1]["abs_q99"] > 0.0
    assert rows[0]["pooled_count"] == 32 * 30
    assert len(res.tables["ks_distances"]) == 2
    # the geometry is reported once, under plan
    assert "geometry_policy" not in res.summary and "L" not in res.summary
    assert (res.summary["plan"]["geometry_policy"],
            res.summary["plan"]["L"]) == ("torus", 32)
