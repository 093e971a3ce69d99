import inspect
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import train_alone, train_gp_alone

from mtgp.benchmark import (
    BENCHMARK_MTGP_FAMILY,
    ForresterParams,
    PRIMARY_PARAMS,
    STUDY_TRAIN_CONFIG,
    StudyConfig,
    _model_seed,
    _scenario_data,
    _scenario_seed,
    achieved_correlation,
    calibrate_auxiliary,
    forrester,
    format_study_table,
    pearson_correlation,
    percent_improvement,
    rmse,
    run_study,
    training_diagnostics,
)
from mtgp.data import MultiTaskDataset
from mtgp.errors import DomainError, ShapeError, UndefinedCorrelationError
from mtgp import cli, training
from mtgp.multitask import mtgp_predict
from mtgp.training import FitJob, MTGPFamily, TrainConfig, train

TINY = TrainConfig(max_iterations=40, num_restarts=2, seed=0)


class TestForrester:
    def test_midpoint(self):
        assert forrester(0.5) == pytest.approx(math.sin(2.0), abs=1e-12)

    def test_pure_linear_term(self):
        params = ForresterParams(0.0, 1.0)
        for x in (0.0, 0.25, 0.8):
            assert forrester(x, params) == pytest.approx(x - 0.5, abs=1e-15)

    def test_left_endpoint(self):
        assert forrester(0.0) == pytest.approx(4.0 * math.sin(-4.0), abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            forrester(1.2)
        with pytest.raises(DomainError):
            forrester(np.array([0.1, -0.1]))

    def test_matches_independent_evaluation_on_grid(self):
        # independently coded pointwise evaluation via the math module
        params = ForresterParams(0.7, -3.2)
        grid = np.linspace(0.0, 1.0, 1000)
        ours = forrester(grid, params)
        for i, x in enumerate(grid):
            u = 6.0 * x - 2.0
            expected = 0.7 * u * u * math.sin(12.0 * x - 4.0) + (-3.2) * (x - 0.5)
            assert abs(ours[i] - expected) < 1e-12


class TestPearsonCorrelation:
    def test_perfect_correlation(self):
        y = np.array([1.0, 2.0, 5.0])
        assert pearson_correlation(y, y) == pytest.approx(1.0, abs=1e-15)

    def test_perfect_anticorrelation(self):
        y = np.array([1.0, 2.0, 5.0])
        assert pearson_correlation(y, -y) == pytest.approx(-1.0, abs=1e-15)

    def test_three_point_value(self):
        # hand formula: r = 3 / sqrt(2 * 14/3) ... = 0.98198 for these series
        assert pearson_correlation([1, 2, 3], [1, 2, 4]) == pytest.approx(0.98198, abs=1e-5)

    def test_zero_variance_rejected(self):
        with pytest.raises(UndefinedCorrelationError):
            pearson_correlation([1.0, 1.0], [0.0, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            pearson_correlation([1.0], [1.0, 2.0])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_bounded_and_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=5)
        b = rng.normal(size=5)
        r = pearson_correlation(a, b)
        assert -1.0 <= r <= 1.0
        assert r == pytest.approx(pearson_correlation(b, a), abs=1e-14)


class TestRmse:
    def test_identical_vectors(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_three_four_five(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5), abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-10, 10), st.integers(1, 20))
    def test_constant_offset(self, c, n):
        base = np.linspace(0, 1, n)
        assert rmse(base + c, base) == pytest.approx(abs(c), abs=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            rmse([1.0], [1.0, 2.0])


class TestPercentImprovement:
    @pytest.mark.parametrize(
        "gp,mtgp,expected",
        [(4.44, 3.68, 17.1), (1.47, 1.15, 21.77), (1.47, 0.84, 42.86), (4.44, 4.08, 8.10)],
    )
    def test_reported_table_rows(self, gp, mtgp, expected):
        assert percent_improvement(gp, mtgp) == pytest.approx(expected, abs=0.05)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.1, 10), st.floats(0.1, 10), st.floats(0.1, 100))
    def test_invariant_under_common_rescaling(self, gp, mtgp, scale):
        assert percent_improvement(gp, mtgp) == pytest.approx(
            percent_improvement(gp * scale, mtgp * scale), rel=1e-9
        )

    def test_zero_baseline(self):
        assert percent_improvement(0.0, 1.0) == 0.0


class TestCalibration:
    def test_target_one_returns_primary(self):
        params = calibrate_auxiliary(1.0)
        assert (params.a, params.b) == (1.0, 0.0)

    @pytest.mark.parametrize("target", [0.89, 0.53, 0.33])
    def test_targets_within_tolerance(self, target):
        params = calibrate_auxiliary(target)
        achieved = achieved_correlation(params)
        assert abs(achieved - target) <= 0.03

    def test_out_of_range_target(self):
        with pytest.raises(DomainError):
            calibrate_auxiliary(0.0)
        with pytest.raises(DomainError):
            calibrate_auxiliary(1.2)


def standalone_rmses(study, n_primary, n_auxiliary, seed, aux):
    """(GP, MTGP) task-1 test RMSEs of one draw, each model trained alone under
    TINY with the seed :func:`run_study` gives it: the reference a batched
    study row equals."""
    x1, y1, x2, y2, x_test, y_test = _scenario_data(study, n_primary, n_auxiliary, seed, aux)
    gp = train_gp_alone(x1, y1, replace(TINY, seed=_model_seed(TINY, seed, "gp")))
    mtgp = train_alone(
        MultiTaskDataset((x1, x2), (y1, y2)),
        replace(TINY, seed=_model_seed(TINY, seed, "mtgp")),
        family=BENCHMARK_MTGP_FAMILY,
    )
    return tuple(rmse(mtgp_predict(model, 0, x_test).mean, y_test) for model in (gp, mtgp))


class TestRunScenario:
    """One seeded draw of a study cell and its standalone fits."""

    def scenario(self, **kw):
        defaults = dict(correlations=(1.0,), size_grid=((4, 4),), replicates=1, n_test=25)
        defaults.update(kw)
        return StudyConfig(**defaults)

    def test_deterministic(self):
        a = standalone_rmses(self.scenario(), 4, 4, 5, PRIMARY_PARAMS)
        b = standalone_rmses(self.scenario(), 4, 4, 5, PRIMARY_PARAMS)
        assert a == b

    def test_result_fields(self):
        # a study row of one draw whose auxiliary is the primary (target 1.0)
        (row,) = run_study(self.scenario(), TINY).rows
        assert row["gp_rmse"] >= 0 and row["mtgp_rmse"] >= 0
        assert row["percent_improvement"] == pytest.approx(
            percent_improvement(row["gp_rmse"], row["mtgp_rmse"]), abs=1e-12
        )
        assert row["n_primary"] == 4 and row["n_auxiliary"] == 4
        assert row["correlation_achieved"] == pytest.approx(1.0, abs=1e-12)

    def test_training_inputs_disjoint_from_test_grid(self):
        x1, y1, x2, y2, xt, yt = _scenario_data(self.scenario(n_test=50), 4, 4, 5, PRIMARY_PARAMS)
        assert not np.any(np.isin(x1[:, 0], xt[:, 0]))
        assert not np.any(np.isin(x2[:, 0], xt[:, 0]))

    def test_observation_noise_applied(self):
        clean = _scenario_data(self.scenario(), 4, 4, 5, PRIMARY_PARAMS)
        noisy = _scenario_data(self.scenario(observation_noise=0.5), 4, 4, 5, PRIMARY_PARAMS)
        np.testing.assert_array_equal(clean[0], noisy[0])  # same inputs
        assert np.any(clean[1] != noisy[1])  # different targets

    def test_zero_coupling_auxiliary_is_inert_on_average(self):
        # near convergence the two trainers agree; short budgets leave
        # optimizer noise well above the 5% bound. The ten draws train as one
        # batch per model, each fit as it would alone (batch invariance).
        cfg = TrainConfig(max_iterations=600, num_restarts=3, seed=0)
        aux = calibrate_auxiliary(0.89)
        study = StudyConfig(n_test=40)
        seeds = range(10)
        draws = [_scenario_data(study, 6, 6, seed, aux) for seed in seeds]
        gp_jobs = [
            FitJob(MultiTaskDataset((x1,), (y1,)), _model_seed(cfg, seed, "gp"), MTGPFamily("gp"))
            for seed, (x1, y1, *_) in zip(seeds, draws)
        ]
        mtgp_jobs = [
            FitJob(
                MultiTaskDataset((x1, x2), (y1, y2)),
                _model_seed(cfg, seed, "mtgp"),
                MTGPFamily(mode="independent"),
            )
            for seed, (x1, y1, x2, y2, _, _) in zip(seeds, draws)
        ]
        models = train(gp_jobs + mtgp_jobs, cfg)
        gps, mtgps = models[: len(seeds)], models[len(seeds) :]
        rel = []
        for gp, mtgp, (*_, x_test, y_test) in zip(gps, mtgps, draws):
            gp_rmse = rmse(mtgp_predict(gp, 0, x_test).mean, y_test)
            mtgp_rmse = rmse(mtgp_predict(mtgp, 0, x_test).mean, y_test)
            rel.append(abs(mtgp_rmse - gp_rmse) / gp_rmse)
        assert float(np.mean(rel)) < 0.05


class TestStudyConfig:
    @pytest.mark.parametrize(
        "bad",
        [
            {"n_test": 0},
            {"size_grid": ((5, 5), (5, 0))},
            {"size_grid": ((0, 5),)},
            {"observation_noise": -0.1},
            {"observation_noise": math.nan},
            {"observation_noise": math.inf},
            {"correlations": ()},
            {"size_grid": ()},
            {"correlations": (0.89, 0.89)},
            {"size_grid": ((5, 5), (5, 5))},
            {"correlations": (1.5,)},
            {"correlations": (0.0,)},
            {"correlations": (math.nan,)},
            {"correlations": (0.89, 0.8900001)},  # one f"{r:g}" artifact name
            # counts and the seed must be integers, checked before any calibration
            {"replicates": 1.5},
            {"replicates": True},
            {"n_test": 2.5},
            {"size_grid": ((2.5, 3),)},
            {"seed": 1.5},
        ],
    )
    def test_bad_values_rejected(self, bad):
        with pytest.raises(DomainError):
            StudyConfig(**bad)

    def test_numpy_integer_counts_accepted(self):
        config = StudyConfig(
            size_grid=((np.int64(4), np.int32(6)),),
            replicates=np.int64(2),
            n_test=np.int32(5),
            seed=np.int64(-1),
        )
        assert (config.replicates, config.n_test, config.seed) == (2, 5, -1)


class TestRunStudy:
    def small_study(self, replicates=1):
        return StudyConfig(
            correlations=(0.89, 0.53),
            size_grid=((4, 4), (4, 6)),
            replicates=replicates,
            n_test=20,
            seed=0,
        )

    def test_one_study_training_for_the_api_and_the_cli(self):
        default = inspect.signature(run_study).parameters["train_config"].default
        assert default is STUDY_TRAIN_CONFIG
        assert TrainConfig(**cli.BENCHMARK_TRAIN_DEFAULTS) == STUDY_TRAIN_CONFIG
        assert STUDY_TRAIN_CONFIG.max_iterations == 200

    def test_row_and_aggregate_counts(self):
        res = run_study(self.small_study(replicates=2), TINY)
        assert len(res.rows) == 2 * 2 * 2
        assert len(res.aggregates) == 2 * 2

    def test_single_replicate_std_zero(self):
        res = run_study(self.small_study(), TINY)
        for agg in res.aggregates:
            assert agg["gp_rmse_std"] == 0.0
            assert agg["improvement_per_replicate_std"] == 0.0
            assert agg["replicates"] == 1

    def test_aggregate_improvement_matches_mean_rmses(self):
        res = run_study(self.small_study(replicates=2), TINY)
        for agg in res.aggregates:
            assert agg["improvement"] == pytest.approx(
                percent_improvement(agg["gp_rmse_mean"], agg["mtgp_rmse_mean"]), abs=1e-12
            )

    def test_gp_baseline_shared_within_replicate(self):
        res = run_study(self.small_study(), TINY)
        by_corr = {}
        for row in res.rows:
            key = (row["n_primary"], row["n_auxiliary"], row["replicate"])
            by_corr.setdefault(key, []).append(row["gp_rmse"])
        for values in by_corr.values():
            assert len(set(values)) == 1

    def test_study_matches_standalone_scenario(self):
        study = StudyConfig(
            correlations=(0.89,), size_grid=((4, 5),), replicates=1, n_test=20, seed=3
        )
        res = run_study(study, TINY)
        row = res.rows[0]
        gp_rmse, mtgp_rmse = standalone_rmses(
            study, 4, 5, _scenario_seed(3, 4, 0), res.calibrations[0.89]
        )
        assert gp_rmse == row["gp_rmse"]
        assert mtgp_rmse == row["mtgp_rmse"]

    def test_batched_study_rows_match_standalone_scenarios(self):
        study = StudyConfig(
            correlations=(0.89, 0.53), size_grid=((4, 5),), replicates=2, n_test=20, seed=3
        )
        res = run_study(study, TINY)
        assert len(res.rows) == 4
        for row in res.rows:
            gp_rmse, mtgp_rmse = standalone_rmses(
                study,
                4,
                5,
                _scenario_seed(3, 4, row["replicate"]),
                res.calibrations[row["correlation_target"]],
            )
            assert gp_rmse == row["gp_rmse"]
            assert mtgp_rmse == row["mtgp_rmse"]

    def test_unsorted_axes_give_the_sorted_study(self):
        def study(correlations, size_grid):
            config = StudyConfig(correlations, size_grid, replicates=2, n_test=20, seed=1)
            return run_study(config, TINY)

        unsorted = study((0.53, 0.89), ((6, 4), (4, 4)))
        ordered = study((0.89, 0.53), ((4, 4), (6, 4)))
        assert unsorted.rows == ordered.rows
        assert unsorted.aggregates == ordered.aggregates
        assert [r["correlation_target"] for r in unsorted.aggregates] == [0.89, 0.89, 0.53, 0.53]
        assert unsorted.series.keys() == ordered.series.keys()
        for key, series in unsorted.series.items():
            for name, values in series.items():
                np.testing.assert_array_equal(values, ordered.series[key][name])

    def test_one_adam_run_per_cell_and_per_primary_size(self, monkeypatch):
        runs = []
        original = training.adam_maximize

        def counting(objective, x0, config, trace=None):
            runs.append(x0.shape[0])
            return original(objective, x0, config, trace=trace)

        monkeypatch.setattr(training, "adam_maximize", counting)
        study = StudyConfig(
            correlations=(0.89, 0.53), size_grid=((4, 4), (6, 4)), replicates=2, n_test=20
        )
        res = run_study(study, TINY)
        assert len(res.rows) == 2 * 2 * 2
        R = TINY.num_restarts
        # one baseline batch per distinct n_primary (2 replicates each), then
        # one multi-task batch per cell (2 correlations x 2 replicates each)
        assert runs == [2 * R, 2 * R, 4 * R, 4 * R]

    def test_aggregates_carry_training_diagnostics(self):
        res = run_study(self.small_study(replicates=2), TINY)
        for agg in res.aggregates:
            for key in ("mtgp_training", "gp_training"):
                diag = agg[key]
                assert diag["fits"] == 2
                assert diag["restarts"] == 2 * TINY.num_restarts
                assert diag["failed_restarts"] == 0
                assert sum(diag["stop_reasons"].values()) == diag["restarts"]
                assert set(diag["stop_reasons"]) <= {"converged", "max_iterations"}
                assert 0 < diag["iterations_median"] <= diag["iterations_max"]
                assert diag["iterations_max"] <= TINY.max_iterations
                assert diag["jitter_escalations"] >= 0

    def test_series_captured_for_first_replicate(self):
        res = run_study(self.small_study(replicates=2), TINY)
        assert set(res.series) == {(0.89, 4, 4), (0.89, 4, 6), (0.53, 4, 4), (0.53, 4, 6)}
        series = res.series[(0.89, 4, 4)]
        assert series["x"].shape == (20,)
        assert np.all(series["gp_stddev"] >= 0)

    def test_table_formatting(self):
        res = run_study(self.small_study(), TINY)
        table = format_study_table(res)
        assert "Task Pair" in table
        assert "MTGP \\ GP RMSE" in table
        assert "% Improvement" in table
        assert "r=0.89" in table


class TestTrainingDiagnostics:
    def test_counts_restart_outcomes(self):
        ok = {"status": "ok", "jitter_escalations": 0}
        fits = [
            {"restarts": [
                {**ok, "iterations": 10, "stop_reason": "converged"},
                {**ok, "iterations": 40, "stop_reason": "max_iterations", "jitter_escalations": 2},
            ]},
            {"restarts": [
                {**ok, "iterations": 25, "stop_reason": "objective_failed: not finite"},
                {"status": "failed", "error": "objective_failed: Cholesky failed",
                 "stop_reason": "objective_failed: Cholesky failed", "jitter_escalations": 1},
            ]},
        ]
        assert training_diagnostics(fits) == {
            "fits": 2,
            "restarts": 4,
            "failed_restarts": 1,
            "stop_reasons": {"converged": 1, "max_iterations": 1, "objective_failed": 2},
            "jitter_escalations": 3,
            "iterations_median": 25.0,
            "iterations_max": 40,
        }

    def test_all_failed_reports_zero_iterations(self):
        failed = {"status": "failed", "error": "e", "stop_reason": "objective_failed: e",
                  "jitter_escalations": 0}
        diag = training_diagnostics([{"restarts": [failed]}])
        assert diag["iterations_median"] == 0.0 and diag["iterations_max"] == 0
