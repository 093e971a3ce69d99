import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    family_template,
    gp_parameter_layout,
    materialize,
    rig_factorization,
    spec_parameter_layout,
    train_alone,
    train_gp_alone,
)
from mtgp import model_io
from mtgp.coregionalization import assemble_joint_covariance
from mtgp.data import MultiTaskDataset
from mtgp.errors import DomainError, TrainingFailedError
from mtgp.gp import gp_fit
from mtgp.kernels import MATERN52, SQUARED_EXPONENTIAL, ScalarKernelSpec, kernel_matrix
from mtgp.multitask import (
    LMLBatch,
    mtgp_fit,
    mtgp_log_marginal_likelihood,
    mtgp_predict,
    spec_layout,
)
from mtgp.seeding import make_rng
from mtgp.training import (
    AdamRun,
    FitJob,
    MTGPFamily,
    TrainConfig,
    adam_maximize,
    check_gradients,
    median_lengthscales,
    train,
)

FAST = TrainConfig(max_iterations=150, num_restarts=2, seed=0)


def batched(objective):
    """Batch objective for adam_maximize from a (value, gradient) one."""

    def evaluate(X, rows):
        assert len(rows) == len(X)
        values, grads = zip(*(objective(x) for x in X))
        return LMLBatch(
            np.array(values, dtype=float),
            np.array(grads, dtype=float),
            np.zeros(len(X), dtype=bool),
            {},
        )

    return evaluate


def _family_layout(mode, rank=1):
    """A family's layout on a 2-task, 2-input dataset, and its template spec."""
    rng = make_rng("layout", mode)
    dataset = MultiTaskDataset(
        (rng.uniform(0, 1, (3, 2)), rng.uniform(0, 1, (2, 2))),
        (rng.normal(size=3), rng.normal(size=2)),
    )
    family = MTGPFamily(mode=mode, rank=rank)
    template, noise = family_template(family, dataset)
    layout = spec_layout(
        template, noise, dataset, learn_W=family.learns_W, learn_gamma=family.learns_gamma
    )
    return layout, template


class TestParameterLayout:
    @settings(max_examples=50, deadline=None)
    @given(
        st.sampled_from(["slfm", "lmc", "independent"]),
        st.lists(st.floats(-5.0, 5.0), min_size=20, max_size=20),
    )
    def test_round_trip_property(self, mode, values):
        layout, _ = _family_layout(mode, rank=2 if mode == "lmc" else 1)
        vec = np.asarray(values[: layout.size])  # the lmc layout has 20 entries
        spec, noise = materialize(layout, vec)
        family = MTGPFamily(mode=mode)
        again = spec_parameter_layout(
            spec, noise, learn_W=family.learns_W, learn_gamma=family.learns_gamma
        ).initial_vector()
        np.testing.assert_array_equal(again[layout.is_W], vec[layout.is_W])
        np.testing.assert_allclose(again, vec, rtol=0, atol=1e-14)

    def test_gp_flat_order(self):
        layout = gp_parameter_layout(ScalarKernelSpec(SQUARED_EXPONENTIAL, [0.4, 2.2], 1.9), 0.07)
        np.testing.assert_array_equal(
            layout.initial_vector(), np.log([0.4, 2.2, 1.9, 0.07])
        )
        assert not layout.is_W.any()

    def test_gp_near_inverse(self):
        kern = ScalarKernelSpec(SQUARED_EXPONENTIAL, [0.4, 2.2], 1.9)
        vec = gp_parameter_layout(kern, 0.07).initial_vector()
        ones = gp_parameter_layout(ScalarKernelSpec(SQUARED_EXPONENTIAL, [1, 1], 1), 1.0)
        spec, noise = materialize(ones, vec)
        np.testing.assert_allclose(spec.terms[0].base_kernel.lengthscales, kern.lengthscales, rtol=1e-15)
        assert noise[0] == pytest.approx(0.07, rel=1e-15)

    def test_learned_groups_by_family(self):
        # Q = D = 2 terms, P = 2 inputs: per term 2 log-lengthscales and a
        # log-signal-variance, then W (D x R) and log-gamma (D) when learned
        for mode, rank, has_W, has_gamma in [
            ("slfm", 1, True, False),
            ("lmc", 2, True, True),
            ("independent", 1, False, False),
        ]:
            layout, template = _family_layout(mode, rank)
            size = 2 * 3 + 2 * (2 * rank if has_W else 0) + 2 * (2 if has_gamma else 0) + 2
            assert layout.size == size
            assert int(layout.is_W.sum()) == (2 * 2 * rank if has_W else 0)
            spec, _ = materialize(layout, layout.initial_vector())
            if not has_W:
                for t, t0 in zip(spec.terms, template.terms):
                    np.testing.assert_array_equal(t.W, t0.W)
            if not has_gamma:
                assert all(np.all(t.gamma == 0.0) for t in spec.terms)

    def test_lmc_rank2_round_trip(self):
        layout, _ = _family_layout("lmc", rank=2)
        vec = make_rng("layout-rt", 0).normal(size=layout.size)
        spec, noise = materialize(layout, vec)
        np.testing.assert_allclose(
            spec_parameter_layout(spec, noise).initial_vector(), vec, rtol=1e-12, atol=1e-12
        )

    def test_zero_gamma_is_minus_infinity(self):
        _, template = _family_layout("slfm")
        full = spec_parameter_layout(template, np.ones(2))
        vec = full.initial_vector()
        gamma = ["log_gamma" in n for n in full.names()]
        assert np.all(vec[gamma] == -np.inf)
        spec, _ = materialize(full, vec)
        assert all(np.all(t.gamma == 0.0) for t in spec.terms)


class TestCheckGradients:
    def test_quadratic_objective(self):
        def objective(v):
            return 0.5 * float(v @ v), v

        point = make_rng("quad", 0).normal(size=6)
        assert check_gradients(objective, point) < 1e-9

    def test_detects_wrong_gradient(self):
        def objective(v):
            return 0.5 * float(v @ v), 2.0 * v

        assert check_gradients(objective, np.ones(3)) > 0.1


class TestAdam:
    def test_zero_iterations_returns_initialization(self):
        def objective(v):
            return -float(v @ v), -2.0 * v

        x0 = np.array([[3.0, -1.0]])
        run = adam_maximize(batched(objective), x0, TrainConfig(max_iterations=0))
        np.testing.assert_array_equal(run.vector, x0)
        assert run.iterations == 0

    def test_final_value_never_below_initial(self):
        # adversarial curvature: a narrow ridge Adam can overshoot
        def objective(v):
            return -float(v[0] ** 2 + 50 * v[1] ** 2), -np.array([2 * v[0], 100 * v[1]])

        run = adam_maximize(
            batched(objective),
            np.array([[2.0, 0.3]]),
            TrainConfig(max_iterations=40, learning_rate=0.4),
        )
        assert run.value[0] >= run.initial_value[0]

    def test_converges_on_smooth_objective(self):
        def objective(v):
            return -float((v - 2.0) @ (v - 2.0)), -2.0 * (v - 2.0)

        run = adam_maximize(
            batched(objective),
            np.zeros((1, 2)),
            TrainConfig(max_iterations=2000, learning_rate=0.1, convergence_tolerance=1e-9),
        )
        assert run.stop_reasons == ["converged"]
        np.testing.assert_allclose(run.vector[0], 2.0, atol=1e-2)

    def test_trajectory_positive_after_inverse_transform(self):
        rng = make_rng("transform-safety", 0)
        X = rng.uniform(0, 1, size=(8, 1))
        Y = rng.normal(size=8)
        layout = gp_parameter_layout(ScalarKernelSpec(SQUARED_EXPONENTIAL, [1.0], 1.0), 1.0)

        from mtgp.gp import gp_log_marginal_likelihood

        iterates = []

        def objective(vec):
            iterates.append(vec.copy())
            spec, noise = materialize(layout, vec)
            return gp_log_marginal_likelihood(spec.terms[0].base_kernel, noise[0], X, Y)

        adam_maximize(
            batched(objective),
            np.zeros((1, 3)),
            TrainConfig(max_iterations=60, learning_rate=0.3),
        )
        assert len(iterates) > 1
        for vec in iterates:
            spec, noise = materialize(layout, vec)
            kern = spec.terms[0].base_kernel
            assert np.all(kern.lengthscales > 0)
            assert kern.signal_variance > 0
            assert noise[0] > 0

    def test_failed_row_keeps_best_iterate_and_spares_the_others(self):
        # row 1 sits far from the others; its objective fails at step 3
        def quadratic(v):
            return -float((v - 1.0) @ (v - 1.0)), -2.0 * (v - 1.0)

        calls, seen_rows = [], []

        def objective(X, rows):
            calls.append(len(X))
            seen_rows.append(list(rows))
            batch = batched(quadratic)(X, rows)
            if len(calls) == 4:
                for i in np.flatnonzero(X[:, 0] > 50.0):
                    batch.errors[int(i)] = "synthetic Cholesky failure"
            return batch

        x0 = np.array([[0.0, 0.5], [100.0, 0.0], [-1.0, 2.0]])
        config = TrainConfig(max_iterations=30, learning_rate=0.1)
        run = adam_maximize(objective, x0, config)
        assert not np.isnan(run.value[1])
        assert run.stop_reasons[1] == "objective_failed: synthetic Cholesky failure"
        assert run.row_iterations[1] == 3
        # the best iterate of row 1 is its step-2 point, not the rejected step 3
        assert run.value[1] == pytest.approx(quadratic(run.vector[1])[0], rel=1e-15)
        assert run.value[1] > run.initial_value[1]
        assert calls[4:] == [2] * (len(calls) - 4)
        assert seen_rows[:4] == [[0, 1, 2]] * 4 and seen_rows[4:] == [[0, 2]] * (len(calls) - 4)
        alone = adam_maximize(batched(quadratic), x0[[0, 2]], config)
        np.testing.assert_array_equal(run.vector[[0, 2]], alone.vector)
        np.testing.assert_array_equal(run.value[[0, 2]], alone.value)
        np.testing.assert_array_equal(run.row_iterations[[0, 2]], alone.row_iterations)
        assert [run.stop_reasons[i] for i in (0, 2)] == alone.stop_reasons

    def test_failed_initial_point_marks_row_failed(self):
        def objective(v):
            value = np.nan if v[0] > 50.0 else -float(v @ v)
            return value, -2.0 * v

        run = adam_maximize(
            batched(objective), np.array([[1.0], [100.0]]), TrainConfig(max_iterations=5)
        )
        assert list(np.isnan(run.value)) == [False, True]
        assert run.stop_reasons[1] == "objective_failed: objective not finite"
        assert run.row_iterations[1] == 0
        assert run.row_iterations[0] == 5


class TestTrainGP:
    def test_recovers_known_generator(self):
        true = ScalarKernelSpec(SQUARED_EXPONENTIAL, [0.2], 1.0)
        for seed in range(3):
            rng = make_rng("gen", seed)
            X = rng.uniform(0, 1, size=(40, 1))
            K = kernel_matrix(true, X, X) + 1e-4 * np.eye(40)
            Y = np.linalg.cholesky(K) @ rng.normal(size=40)
            model = train_gp_alone(
                X, Y, TrainConfig(max_iterations=800, num_restarts=2, seed=seed)
            )
            ls = model.kernel.terms[0].base_kernel.lengthscales
            assert abs(np.log(ls[0]) - np.log(0.2)) < 0.5

    def test_recovers_known_generator_matern(self):
        true = ScalarKernelSpec(MATERN52, [0.2], 1.0)
        rng = make_rng("gen-matern", 0)
        X = rng.uniform(0, 1, size=(40, 1))
        K = kernel_matrix(true, X, X) + 1e-4 * np.eye(40)
        Y = np.linalg.cholesky(K) @ rng.normal(size=40)
        model = train_gp_alone(
            X,
            Y,
            TrainConfig(max_iterations=800, num_restarts=2, seed=0),
            kernel_kind=MATERN52,
        )
        ls = model.kernel.terms[0].base_kernel.lengthscales
        assert abs(np.log(ls[0]) - np.log(0.2)) < 0.5

    def test_pure_noise_learns_noise_dominated_model(self):
        rng = make_rng("purenoise", 1)
        X = rng.uniform(0, 1, size=(30, 1))
        Y = rng.normal(size=30) * 2.0
        model = train_gp_alone(X, Y, TrainConfig(max_iterations=1500, num_restarts=3, seed=0))
        sample_var = float(np.var(Y))
        assert sample_var / 2 <= model.noise_variances[0] <= sample_var * 2
        assert model.kernel.terms[0].base_kernel.signal_variance < model.noise_variances[0]

    def test_pure_noise_total_variance_even_when_lengthscale_collapses(self):
        # on some draws the maximum-likelihood solution explains white noise
        # with a collapsed lengthscale instead of the noise term; the two are
        # operationally equivalent, so assert the total variance and the
        # absence of predictive structure rather than the split
        rng = make_rng("purenoise", 0)
        X = rng.uniform(0, 1, size=(30, 1))
        Y = rng.normal(size=30) * 2.0
        model = train_gp_alone(X, Y, TrainConfig(max_iterations=1500, num_restarts=3, seed=0))
        sample_var = float(np.var(Y))
        total = model.noise_variances[0] + model.kernel.terms[0].base_kernel.signal_variance
        assert sample_var / 2 <= total <= sample_var * 2
        held_out = np.linspace(0.013, 0.987, 50).reshape(-1, 1)
        pred = mtgp_predict(model, 0, held_out)
        assert np.std(pred.mean) < np.std(Y) / 2

    def test_deterministic_given_seed(self):
        rng = make_rng("det", 0)
        X = rng.uniform(0, 1, size=(12, 1))
        Y = rng.normal(size=12)
        a = train_gp_alone(X, Y, FAST)
        b = train_gp_alone(X, Y, FAST)
        ka, kb = a.kernel.terms[0].base_kernel, b.kernel.terms[0].base_kernel
        np.testing.assert_array_equal(ka.lengthscales, kb.lengthscales)
        assert ka.signal_variance == kb.signal_variance
        assert a.noise_variances[0] == b.noise_variances[0]

    def test_zero_iterations_returns_heuristic_init(self):
        rng = make_rng("noopt", 0)
        X = rng.uniform(0, 1, size=(10, 1))
        Y = 3.0 + rng.normal(size=10)
        model = train_gp_alone(
            X, Y, TrainConfig(max_iterations=0, num_restarts=1, seed=0), standardize=False
        )
        kernel = model.kernel.terms[0].base_kernel
        np.testing.assert_allclose(kernel.lengthscales, median_lengthscales(X))
        assert kernel.signal_variance == pytest.approx(np.var(Y), rel=1e-12)
        assert model.fit_info["iterations"] == 0

    def test_winner_is_best_restart(self):
        rng = make_rng("winner", 0)
        X = rng.uniform(0, 1, size=(10, 1))
        Y = np.sin(6 * X[:, 0])
        model = train_gp_alone(X, Y, TrainConfig(max_iterations=100, num_restarts=4, seed=3))
        finals = [
            d["final_objective"] for d in model.fit_info["restarts"] if d["status"] == "ok"
        ]
        assert model.fit_info["objective"] == max(finals)

    def test_standardization_folds_back_exactly(self):
        rng = make_rng("fold", 0)
        X = rng.uniform(0, 1, size=(15, 1))
        Y = 100.0 + 25.0 * np.sin(6 * X[:, 0])
        model = train_gp_alone(X, Y, FAST, standardize=True)
        pred = mtgp_predict(model, 0, X)
        assert np.max(np.abs(pred.mean - Y)) < 25.0  # raw units, not standardized


class TestTrainMTGP:
    def _dataset(self, seed=0):
        rng = make_rng("mt-train", seed)
        X0 = rng.uniform(0, 1, size=(8, 1))
        X1 = rng.uniform(0, 1, size=(10, 1))
        f = lambda x: np.sin(5 * x)
        return MultiTaskDataset((X0, X1), (f(X0[:, 0]), 0.8 * f(X1[:, 0]) + 0.1))

    def test_deterministic_given_seed(self):
        dataset = self._dataset()
        a = train_alone(dataset, FAST)
        b = train_alone(dataset, FAST)
        for ta, tb in zip(a.kernel.terms, b.kernel.terms):
            np.testing.assert_array_equal(ta.W, tb.W)
            np.testing.assert_array_equal(ta.base_kernel.lengthscales, tb.base_kernel.lengthscales)
        np.testing.assert_array_equal(a.noise_variances, b.noise_variances)

    def test_improves_objective_from_initialization(self):
        dataset = self._dataset()
        model = train_alone(dataset, FAST)
        for diag in model.fit_info["restarts"]:
            if diag["status"] == "ok":
                assert diag["final_objective"] >= diag["initial_objective"]

    def test_family_modes_produce_expected_structure(self):
        dataset = self._dataset()
        slfm = train_alone(dataset, FAST, family=MTGPFamily(mode="slfm"))
        assert all(t.rank == 1 and np.all(t.gamma == 0.0) for t in slfm.kernel.terms)
        lmc = train_alone(dataset, FAST, family=MTGPFamily(mode="lmc"))
        assert any(np.any(t.gamma > 0) for t in lmc.kernel.terms)
        ind = train_alone(dataset, FAST, family=MTGPFamily(mode="independent"))
        for q, t in enumerate(ind.kernel.terms):
            expected = np.zeros((2, 1))
            expected[q, 0] = 1.0
            np.testing.assert_array_equal(t.W, expected)

    @pytest.mark.parametrize("standardize", [True, False])
    @pytest.mark.parametrize(
        "family",
        [MTGPFamily("slfm"), MTGPFamily("lmc", MATERN52, rank=2), MTGPFamily("independent")],
        ids=["slfm", "lmc-matern52-rank2", "independent"],
    )
    def test_model_equals_its_refit_through_mtgp_fit(self, family, standardize):
        dataset = self._dataset()
        model = train_alone(dataset, FAST, family=family, standardize=standardize)
        refit = mtgp_fit(model.kernel, model.noise_variances, dataset, standardize)
        _same_conditioning(model, refit)
        np.testing.assert_array_equal(model.task_means, refit.task_means)
        np.testing.assert_array_equal(model.task_stds, refit.task_stds)

    def test_num_terms_default_is_task_count(self):
        dataset = self._dataset()
        model = train_alone(dataset, FAST)
        assert model.kernel.num_terms == dataset.num_tasks

    def test_trace_callback_invoked(self):
        dataset = self._dataset()
        records = []
        train_alone(
            dataset,
            TrainConfig(max_iterations=5, num_restarts=2, seed=0),
            trace=lambda r, i, v, g: records.append((r, i, v, g)),
        )
        restarts = {r for r, _, _, _ in records}
        assert restarts == {0, 1}
        assert all(np.isfinite(v) and g >= 0 for _, _, v, g in records)

    def test_zero_iterations_keeps_template(self):
        dataset = self._dataset()
        model = train_alone(
            dataset, TrainConfig(max_iterations=0, num_restarts=1, seed=0)
        )
        template, _ = family_template(
            MTGPFamily(), MultiTaskDataset(dataset.inputs, tuple(
                (Y - np.mean(Y)) / np.std(Y) for Y in dataset.targets
            ))
        )
        for t_model, t_template in zip(model.kernel.terms, template.terms):
            np.testing.assert_allclose(
                t_model.base_kernel.lengthscales, t_template.base_kernel.lengthscales,
                rtol=1e-12,
            )
        assert model.fit_info["iterations"] == 0

    def test_restart_independent_of_batch(self):
        # restart 0 follows the same path whether it runs alone or in a batch;
        # with the Matern lmc family it converges while the others keep running
        dataset = self._dataset()
        config = TrainConfig(max_iterations=400, num_restarts=1, seed=5, convergence_tolerance=1e-4)
        for family in (MTGPFamily(mode="slfm"), MTGPFamily(mode="lmc", kernel_kind=MATERN52)):
            alone = train_alone(dataset, config, family=family).fit_info["restarts"][0]
            batch = train_alone(
                dataset, TrainConfig(**{**config.__dict__, "num_restarts": 4}), family=family
            ).fit_info["restarts"][0]
            assert batch["final_objective"] == pytest.approx(alone["final_objective"], rel=1e-8)
            assert batch["iterations"] == alone["iterations"]
            assert batch["stop_reason"] == alone["stop_reason"]

    def test_restart_diagnostics_report_stop_reason_and_escalations(self):
        dataset = self._dataset()
        model = train_alone(dataset, TrainConfig(max_iterations=300, num_restarts=3, seed=1))
        for diag in model.fit_info["restarts"]:
            assert diag["status"] == "ok"
            assert diag["stop_reason"] in ("converged", "max_iterations")
            assert diag["converged"] == (diag["stop_reason"] == "converged")
            assert diag["jitter_escalations"] >= 0


def test_escalated_and_failed_restarts_are_reported(monkeypatch):
    # step 0 evaluates the four restarts: restart 1's factorization needs
    # escalated jitter and restart 2's fails, so step 1 runs restarts 0, 1
    # and 3, and the third of them, restart 3, needs escalated jitter
    dataset = TestTrainMTGP()._dataset()
    config = TrainConfig(max_iterations=20, num_restarts=4, seed=3)
    clean = train_alone(dataset, config).fit_info["restarts"]
    assert [r["jitter_escalations"] for r in clean] == [0, 0, 0, 0]
    calls = rig_factorization(monkeypatch, {0: (1, 2), 1: (2, None)})
    restarts = train_alone(dataset, config).fit_info["restarts"]
    assert calls[:2] == [4, 3]
    assert [r["jitter_escalations"] for r in restarts] == [0, 1, 0, 1]
    assert [r["status"] for r in restarts] == ["ok", "ok", "failed", "ok"]
    failed = "objective_failed: Cholesky failed for 18x18 matrix even with relative jitter 0.0001"
    assert restarts[2]["error"] == restarts[2]["stop_reason"] == failed
    assert restarts[0] == clean[0]  # rows never influence each other


def _same_fit(a, b):
    """Bitwise-equal learned parameters, objective and restart outcomes of two models."""
    for ta, tb in zip(a.kernel.terms, b.kernel.terms):
        np.testing.assert_array_equal(ta.W, tb.W)
        np.testing.assert_array_equal(ta.gamma, tb.gamma)
        np.testing.assert_array_equal(ta.base_kernel.lengthscales, tb.base_kernel.lengthscales)
        assert ta.base_kernel.signal_variance == tb.base_kernel.signal_variance
    np.testing.assert_array_equal(a.noise_variances, b.noise_variances)
    assert a.fit_info["objective"] == b.fit_info["objective"]
    assert a.fit_info["winning_restart"] == b.fit_info["winning_restart"]
    for ra, rb in zip(a.fit_info["restarts"], b.fit_info["restarts"]):
        assert (ra["iterations"], ra["stop_reason"]) == (rb["iterations"], rb["stop_reason"])
        assert ra["final_objective"] == rb["final_objective"]


def _same_conditioning(a, b):
    """Bitwise-equal factor, weights, jitter and per-term prior pieces of two models."""
    np.testing.assert_array_equal(a.L, b.L)
    np.testing.assert_array_equal(a.weights, b.weights)
    assert a.jitter == b.jitter
    for pa, pb in zip(a.prior_terms, b.prior_terms, strict=True):
        assert pa[0] == pb[0]  # the kernel kind
        for xa, xb in zip(pa[1:], pb[1:]):
            np.testing.assert_array_equal(xa, xb)


class TestTrainBatch:
    """Same-shape fits trained as one batch equal the same fits trained alone."""

    # converging restarts leave the batch at different steps, so every fit
    # sees its running rows shrink while the others keep going
    CONFIG = TrainConfig(max_iterations=300, num_restarts=3, convergence_tolerance=1e-3)

    @staticmethod
    def _datasets(count, n0=6, n1=4, dim=1):
        out = []
        for i in range(count):
            rng = make_rng("batch-data", i)
            X0, X1 = rng.uniform(0, 1, (n0, dim)), rng.uniform(0, 1, (n1, dim))
            f = lambda X: np.sin(5 * X[:, 0] + i) + 0.3 * X.sum(axis=1)
            out.append(MultiTaskDataset((X0, X1), (f(X0), (0.8 + 0.1 * i) * f(X1) - 0.2)))
        return out

    @staticmethod
    def _gp_datasets(count, n=7, dim=2):
        datasets = TestTrainBatch._datasets(count, n, 0, dim)
        return [MultiTaskDataset(d.inputs[:1], d.targets[:1]) for d in datasets]

    @pytest.mark.parametrize(
        "family,sizes",
        [
            (MTGPFamily(mode="lmc", kernel_kind=MATERN52), (5, 20)),
            (MTGPFamily(mode="slfm"), (6, 4)),
        ],
        ids=["lmc-matern52", "slfm-se"],
    )
    def test_mtgp_batch_equals_each_fit_alone(self, family, sizes):
        datasets = self._datasets(4, *sizes)
        seeds = [11, 12, 13, 14]
        models = train([FitJob(d, seed, family) for d, seed in zip(datasets, seeds)], self.CONFIG)
        stops = {r["stop_reason"] for m in models for r in m.fit_info["restarts"]}
        assert stops == {"converged", "max_iterations"}
        for dataset, seed, model in zip(datasets, seeds, models):
            alone = train_alone(dataset, replace(self.CONFIG, seed=seed), family=family)
            _same_fit(model, alone)

    def test_gp_batch_equals_each_fit_alone(self):
        datasets = self._gp_datasets(5)
        seeds = [3, 1, 4, 1, 5]
        family = MTGPFamily("gp", MATERN52)
        models = train([FitJob(d, seed, family) for d, seed in zip(datasets, seeds)], self.CONFIG)
        stops = {r["stop_reason"] for m in models for r in m.fit_info["restarts"]}
        assert stops == {"converged", "max_iterations"}
        for dataset, seed, model in zip(datasets, seeds, models):
            (X,), (Y,) = dataset.inputs, dataset.targets
            alone = train_gp_alone(X, Y, replace(self.CONFIG, seed=seed), kernel_kind=MATERN52)
            _same_fit(model, alone)

    def test_the_job_seed_stands_in_for_the_config_seed(self):
        dataset = self._datasets(1)[0]
        (model,) = train([FitJob(dataset, 5)], FAST)
        _same_fit(model, train_alone(dataset, replace(FAST, seed=5)))
        assert model.fit_info["objective"] != train_alone(dataset, FAST).fit_info["objective"]

    def test_batch_builds_one_layout_per_fit_and_no_spec(self, build_counts):
        config = TrainConfig(max_iterations=5, num_restarts=2)
        for jobs in (
            [FitJob(d, i) for i, d in enumerate(self._datasets(3))],
            [FitJob(d, i, MTGPFamily("gp")) for i, d in enumerate(self._gp_datasets(3))],
        ):
            build_counts.clear()
            train(jobs, config)
            assert build_counts == {"layouts": 3}  # no dataset of scaled targets

    def test_mixed_jobs_train_in_one_stack_per_shape(self, monkeypatch):
        from mtgp.multitask import LayoutStack

        stacks, original = [], LayoutStack.__init__

        def counted(self, layouts, rows_per_layout):
            stacks.append(len(layouts))
            original(self, layouts, rows_per_layout)

        monkeypatch.setattr(LayoutStack, "__init__", counted)
        a, b, gp = self._datasets(2), self._datasets(2, n0=5, n1=5), self._gp_datasets(2, dim=1)
        jobs = [
            FitJob(a[0], 1), FitJob(gp[0], 2, MTGPFamily("gp")), FitJob(b[0], 3),
            FitJob(a[1], 4), FitJob(gp[1], 5, MTGPFamily("gp")), FitJob(b[1], 6),
        ]
        traced = {}

        def trace(row, iteration, value, grad_norm):
            traced.setdefault(row, []).append(value)

        models = train(jobs, self.CONFIG, trace)
        assert stacks == [2, 2, 2]  # shapes a, gp and b, in order of first appearance
        R = self.CONFIG.num_restarts
        assert sorted(traced) == list(range(len(jobs) * R))  # restart r of job j is row j * R + r
        for j, (job, model) in enumerate(zip(jobs, models)):
            assert model.num_tasks == job.dataset.num_tasks
            _same_fit(model, train([job], self.CONFIG)[0])
            finals = [r["final_objective"] for r in model.fit_info["restarts"]]
            assert [max(traced[j * R + r]) for r in range(R)] == finals

    def test_failed_fit_raises_with_its_diagnostics(self, monkeypatch):
        from mtgp.multitask import LayoutStack

        original = LayoutStack.evaluate

        def fail_fit_one(self, X, rows):
            batch = original(self, X, rows)
            if self.y.shape[1] == 10:  # the stack of the 6 + 4 row datasets
                for i in np.flatnonzero(self.owner[rows] == 1):
                    batch.errors[int(i)] = "synthetic Cholesky failure"
            return batch

        monkeypatch.setattr(LayoutStack, "evaluate", fail_fit_one)
        other = [FitJob(d, i) for i, d in enumerate(self._datasets(2, n0=5, n1=6))]
        jobs = other + [FitJob(d, i) for i, d in enumerate(self._datasets(3))]
        with pytest.raises(TrainingFailedError, match="all restarts failed in fit 3$") as excinfo:
            train(jobs, FAST)
        diagnostics = excinfo.value.diagnostics
        assert [d["restart"] for d in diagnostics] == list(range(FAST.num_restarts))
        for diag in diagnostics:
            assert diag["status"] == "failed"
            assert diag["error"] == "objective_failed: synthetic Cholesky failure"


def with_base_jitter(K):
    """K plus the base relative jitter the objective factorizes with."""
    return K + 1e-8 * np.mean(np.diag(K)) * np.eye(K.shape[0])


def dense_lml(K, r):
    """Gaussian log density of residuals r under covariance K, by slogdet and solve."""
    sign, logdet = np.linalg.slogdet(K)
    assert sign > 0
    return -0.5 * r @ np.linalg.solve(K, r) - 0.5 * logdet - 0.5 * r.size * np.log(2 * np.pi)


class TestOneTaskCase:
    """The gp family is the one-task, independent-family case of the training driver."""

    def _data(self):
        rng = make_rng("one-task", 0)
        X = rng.uniform(0, 1, size=(12, 2))
        Y = 40.0 + 6.0 * np.sin(4 * X[:, 0]) + X[:, 1] + 0.3 * rng.normal(size=12)
        return X, Y

    @pytest.mark.parametrize("standardize", [True, False])
    def test_gp_lml_is_raw_target_likelihood(self, standardize):
        X, Y = self._data()
        model = train_gp_alone(X, Y, FAST, kernel_kind=MATERN52, standardize=standardize)
        kernel = model.kernel.terms[0].base_kernel
        K = kernel_matrix(kernel, X, X) + model.noise_variances[0] * np.eye(Y.size)
        dense = dense_lml(with_base_jitter(K), Y - model.task_means[0])
        assert model.fit_info["log_marginal_likelihood"] == pytest.approx(dense, rel=1e-9)

    def test_lmc_lml_is_raw_target_likelihood(self):
        rng = make_rng("one-task-lmc", 0)
        X0, X1 = rng.uniform(0, 1, size=(8, 1)), rng.uniform(0, 1, size=(6, 1))
        dataset = MultiTaskDataset(
            (X0, X1),
            (
                5.0 + 2.0 * np.sin(5 * X0[:, 0]) + 0.1 * rng.normal(size=8),
                -3.0 + 0.5 * np.sin(5 * X1[:, 0]) + 0.05 * rng.normal(size=6),
            ),
        )
        model = train_alone(dataset, FAST, family=MTGPFamily(mode="lmc", rank=2))
        tasks = dataset.task_indices()
        s = model.task_stds[tasks]
        K = assemble_joint_covariance(model.kernel, dataset) + np.diag(model.noise_variances[tasks])
        # K is in standardized units; the raw targets' covariance is S K S,
        # S the per-row task std
        K = with_base_jitter(K)
        r = dataset.stacked_targets() - model.task_means[tasks]
        dense = dense_lml(s[:, None] * K * s[None, :], r)
        assert model.fit_info["log_marginal_likelihood"] == pytest.approx(dense, rel=1e-9)

    def test_gp_equals_independent_mtgp_scaled_back(self):
        X, Y = self._data()
        config = TrainConfig(max_iterations=150, num_restarts=1, seed=2)
        gp = train_gp_alone(X, Y, config)
        mt = train_alone(MultiTaskDataset((X,), (Y,)), config, family=MTGPFamily(mode="independent"))
        s2 = float(np.std(Y)) ** 2
        base = mt.kernel.terms[0].base_kernel
        kernel = gp.kernel.terms[0].base_kernel
        np.testing.assert_array_equal(kernel.lengthscales, base.lengthscales)
        assert kernel.signal_variance == base.signal_variance * s2
        assert gp.noise_variances[0] == float(mt.noise_variances[0]) * s2
        assert gp.task_means[0] == float(np.mean(Y))
        assert gp.fit_info["objective"] == mt.fit_info["objective"]
        # the folded model is the one gp_fit conditions on its kernel, noise and mean
        refit = gp_fit(kernel, gp.noise_variances[0], X, Y, mean_const=gp.task_means[0])
        _same_conditioning(gp, refit)


class TestConfigValidation:
    def test_train_config_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(num_restarts=0)
        with pytest.raises(ValueError):
            TrainConfig(convergence_tolerance=0.0)

    @pytest.mark.parametrize(
        "field,value", [("max_iterations", 2.5), ("num_restarts", 1.5), ("num_restarts", True)]
    )
    def test_train_config_rejects_non_integer_counts(self, field, value):
        with pytest.raises(DomainError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("seed", [1.5, "abc", True])
    def test_train_config_rejects_a_seed_that_is_not_an_integer(self, seed):
        with pytest.raises(DomainError, match="seed"):
            TrainConfig(seed=seed)

    @pytest.mark.parametrize("seed", [-1, np.int64(7), np.uint32(3)])
    def test_train_config_takes_negative_and_numpy_integer_seeds(self, seed):
        assert TrainConfig(seed=seed).seed == seed

    def test_train_config_takes_numpy_integer_counts(self):
        config = TrainConfig(max_iterations=np.int64(3), num_restarts=np.int32(1))
        X = np.linspace(0, 1, 5)[:, None]
        assert train_gp_alone(X, np.sin(3 * X[:, 0]), config).fit_info["iterations"] == 3

    def test_family_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            MTGPFamily(mode="tensor")

    @pytest.mark.parametrize(
        "field,value",
        [
            ("num_terms", 0),
            ("num_terms", -1),
            ("num_terms", 1.5),
            ("num_terms", "2"),
            ("rank", 0),
            ("rank", 1.5),
            ("rank", None),
            ("kernel_kind", "cubic"),
        ],
    )
    def test_family_rejects_bad_shape(self, field, value):
        with pytest.raises(DomainError, match=field):
            MTGPFamily(**{field: value})

    @pytest.mark.parametrize(
        "settings,field",
        [
            ({"mode": "slfm", "rank": 2}, "rank"),
            ({"mode": "independent", "rank": 2}, "rank"),
            ({"mode": "gp", "rank": 3}, "rank"),
            ({"mode": "independent", "num_terms": 2}, "num_terms"),
            ({"mode": "gp", "num_terms": 1}, "num_terms"),
        ],
    )
    def test_family_rejects_a_setting_its_mode_does_not_use(self, settings, field):
        with pytest.raises(DomainError, match=field):
            MTGPFamily(**settings)

    @pytest.mark.parametrize("seed", [1.5, True, "3", None])
    def test_job_rejects_a_seed_that_is_not_an_integer(self, seed):
        with pytest.raises(DomainError, match="seed"):
            FitJob(TestTrainBatch._datasets(1)[0], seed)

    def test_gp_job_requires_a_single_task(self):
        with pytest.raises(DomainError, match="family 'gp' requires a single task, data has 2"):
            FitJob(TestTrainBatch._datasets(1)[0], 0, MTGPFamily("gp"))

    def test_job_rejects_a_rank_above_its_task_count(self):
        family = MTGPFamily("lmc", rank=3)
        with pytest.raises(DomainError, match=r"rank 3 exceeds the number of tasks \(2\)"):
            FitJob(TestTrainBatch._datasets(1)[0], 0, family)

    def test_family_takes_numpy_integer_shape(self):
        family = MTGPFamily(mode="lmc", num_terms=np.int64(1), rank=np.int64(2))
        model = train_alone(TestTrainBatch._datasets(1)[0], FAST, family=family)
        assert [t.rank for t in model.kernel.terms] == [2]
        assert json.loads(json.dumps(model_io.model_document(model, "mtgp-lmc")))["ranks"] == [2]
