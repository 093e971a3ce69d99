import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    dense_gaussian_conditioning,
    family_template,
    gp_exact_layout,
    materialize,
    random_dataset,
    random_kernel,
    random_mtgp_spec,
    spec_parameter_layout,
)
from mtgp.coregionalization import (
    CoregionalizationTerm,
    MultiTaskKernelSpec,
    assemble_joint_covariance,
)
from mtgp.data import MultiTaskDataset
from mtgp.errors import ShapeError
from mtgp.gp import gp_fit, gp_log_marginal_likelihood
from mtgp.kernels import MATERN52, SQUARED_EXPONENTIAL, ScalarKernelSpec
from mtgp.multitask import (
    PREDICT_BLOCK_ROWS,
    LayoutStack,
    mtgp_fit,
    mtgp_log_marginal_likelihood,
    mtgp_predict,
    spec_layout,
)
from mtgp.seeding import make_rng
from mtgp.training import MTGPFamily


def evaluate(layout, X):
    """The objective at the rows of X (B, size), through a one-layout stack:
    the path training runs."""
    return LayoutStack([layout], X.shape[0]).evaluate(X, np.arange(X.shape[0]))


def se(ls=1.0, sv=1.0):
    return ScalarKernelSpec(SQUARED_EXPONENTIAL, np.atleast_1d(ls), sv)


def indicator_spec(kernels):
    """One term per task with unit loading: fully decoupled tasks."""
    D = len(kernels)
    terms = []
    for d, kern in enumerate(kernels):
        W = np.zeros((D, 1))
        W[d, 0] = 1.0
        terms.append(CoregionalizationTerm(W, np.zeros(D), kern))
    return MultiTaskKernelSpec(D, tuple(terms))


class TestMTGPFit:
    def test_single_task_reduces_to_gp_fit(self):
        rng = make_rng("mt-single", 0)
        X = rng.uniform(0, 1, size=(5, 1))
        Y = rng.normal(size=5)
        kern = se(0.6, 1.3)
        spec = MultiTaskKernelSpec(
            1, (CoregionalizationTerm(np.array([[1.0]]), np.zeros(1), kern),)
        )
        model = mtgp_fit(spec, [0.1], MultiTaskDataset((X,), (Y,)), standardize=False)
        solo = gp_fit(kern, 0.1, X, Y)
        np.testing.assert_array_equal(model.weights, solo.weights)
        np.testing.assert_array_equal(model.L, solo.L)

    def test_block_diagonal_weights_concatenate_independent_fits(self):
        # equal signal/noise scales keep the joint and solo jitters identical
        rng = make_rng("mt-blockdiag", 0)
        kernels_ = [se(float(rng.uniform(0.3, 1.0)), 1.4) for _ in range(2)]
        spec = indicator_spec(kernels_)
        dataset = MultiTaskDataset(
            (rng.uniform(0, 1, (3, 1)), rng.uniform(0, 1, (4, 1))),
            (rng.normal(size=3), rng.normal(size=4)),
        )
        noise = np.array([0.12, 0.12])
        model = mtgp_fit(spec, noise, dataset, standardize=False)
        expected = np.concatenate(
            [
                gp_fit(kernels_[d], 0.12, *dataset.single_task(d)).weights
                for d in range(2)
            ]
        )
        np.testing.assert_allclose(model.weights, expected, atol=1e-8)

    def test_joint_factor_reconstructs_joint_matrix(self):
        rng = make_rng("mt-factor", 0)
        spec = random_mtgp_spec(rng, 2)
        dataset = random_dataset(rng, 2, max_per_task=4)
        noise = np.array([0.1, 0.2])
        model = mtgp_fit(spec, noise, dataset, standardize=False)
        K = assemble_joint_covariance(spec, dataset)
        K += np.diag(noise[dataset.task_indices()]) + model.jitter * np.eye(K.shape[0])
        np.testing.assert_allclose(model.L @ model.L.T, K, rtol=1e-8, atol=1e-12)

    def test_factor_is_cholesky_batch_of_the_assembled_covariance(self):
        from mtgp.linalg import cholesky_batch
        from mtgp.multitask import Workspace, _assemble

        rng = make_rng("mt-fit-factor", 0)
        spec = random_mtgp_spec(rng, 2, with_gamma=True)
        dataset = random_dataset(rng, 2, max_per_task=5)
        model = mtgp_fit(spec, [0.05, 0.2], dataset)
        layout = model.layout
        groups = layout.groups(layout.template[None])
        K, _ = _assemble(layout, layout.sqdiff, *groups, Workspace.of(layout, 1))
        given = K[0].diagonal().copy()
        L, _, _, errors = cholesky_batch(K)  # adds the jitter to K's diagonal in place
        assert not errors
        np.testing.assert_array_equal(model.L, L[0])
        np.testing.assert_array_equal(K[0].diagonal(), given + model.jitter)

    def test_non_finite_covariance_raises(self):
        from mtgp.errors import IllConditionedKernelError

        rng = make_rng("mt-overflow", 0)
        spec = random_mtgp_spec(rng, 2)
        term = spec.terms[0]
        W = term.W.copy()
        W[0, 0] = 1e300  # finite, but W W^T overflows
        spec = MultiTaskKernelSpec(
            2, (CoregionalizationTerm(W, term.gamma, term.base_kernel),) + spec.terms[1:]
        )
        with pytest.raises(IllConditionedKernelError, match="not finite"):
            mtgp_fit(spec, [0.1, 0.1], random_dataset(rng, 2, max_per_task=4))

    def test_noise_length_checked(self):
        spec = random_mtgp_spec(make_rng("mt-shape", 0), 2)
        dataset = random_dataset(make_rng("mt-shape", 1), 2)
        with pytest.raises(ShapeError):
            mtgp_fit(spec, [0.1], dataset)

    @pytest.mark.parametrize("entry", [mtgp_fit, mtgp_log_marginal_likelihood])
    @pytest.mark.parametrize("mismatch", ["tasks", "input_dim", "noise"])
    def test_spec_that_does_not_fit_the_data_is_rejected(self, entry, mismatch):
        rng = make_rng("mt-spec-shape", mismatch)
        dataset = random_dataset(rng, 2)  # two tasks, one input
        tasks, dim, noises = {"tasks": (3, 1, 3), "input_dim": (2, 2, 2), "noise": (2, 1, 3)}[mismatch]
        with pytest.raises(ShapeError):
            entry(random_mtgp_spec(rng, tasks, dim=dim), [0.1] * noises, dataset)

    @pytest.mark.parametrize("entry", [gp_fit, gp_log_marginal_likelihood])
    @pytest.mark.parametrize("mismatch", ["input_dim", "noise"])
    def test_gp_kernel_that_does_not_fit_the_data_is_rejected(self, entry, mismatch):
        kernel, noise = (se([1.0, 1.0]), 0.1) if mismatch == "input_dim" else (se(), [0.1, 0.2])
        with pytest.raises(ShapeError):
            entry(kernel, noise, np.linspace(0.0, 1.0, 3)[:, None], np.zeros(3))

    def test_standardization_statistics_stored(self):
        rng = make_rng("mt-std", 0)
        dataset = MultiTaskDataset(
            (rng.uniform(0, 1, (4, 1)), rng.uniform(0, 1, (3, 1))),
            (10.0 + 5.0 * rng.normal(size=4), -3.0 + 0.5 * rng.normal(size=3)),
        )
        spec = random_mtgp_spec(rng, 2)
        model = mtgp_fit(spec, [0.1, 0.1], dataset, standardize=True)
        assert model.standardized
        np.testing.assert_allclose(model.task_means, [np.mean(t) for t in dataset.targets])
        np.testing.assert_allclose(model.task_stds, [np.std(t) for t in dataset.targets])


class TestMTGPPredict:
    def test_decoupled_tasks_match_single_task_gp(self):
        for i in range(5):
            rng = make_rng("mt-auto", i)
            sv, noise_val = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.05, 0.3))
            kernels_ = [se(float(rng.uniform(0.3, 1.2)), sv) for _ in range(2)]
            spec = indicator_spec(kernels_)
            dataset = MultiTaskDataset(
                (rng.uniform(0, 1, (3, 1)), rng.uniform(0, 1, (4, 1))),
                (rng.normal(size=3), rng.normal(size=4)),
            )
            model = mtgp_fit(spec, [noise_val, noise_val], dataset, standardize=False)
            Xs = rng.uniform(0, 1, size=(3, 1))
            for d in range(2):
                joint = mtgp_predict(model, d, Xs)
                solo = mtgp_predict(gp_fit(kernels_[d], noise_val, *dataset.single_task(d)), 0, Xs)
                np.testing.assert_allclose(joint.mean, solo.mean, atol=1e-8)
                np.testing.assert_allclose(joint.variance, solo.variance, atol=1e-8)

    def test_rank_one_coupling_scales_prediction(self):
        # task 1 has no data; with B = w w^T, w = (1, c), its posterior mean is
        # c times the task-0 mean computed from the same base kernel
        rng = make_rng("mt-rankone", 0)
        c = 1.7
        kern = se(0.5, 1.2)
        spec = MultiTaskKernelSpec(
            2, (CoregionalizationTerm(np.array([[1.0], [c]]), np.zeros(2), kern),)
        )
        X0 = rng.uniform(0, 1, size=(4, 1))
        Y0 = rng.normal(size=4)
        dataset = MultiTaskDataset((X0, np.zeros((0, 1))), (Y0, np.zeros(0)))
        noise = 0.1
        model = mtgp_fit(spec, [noise, noise], dataset, standardize=False)
        Xs = rng.uniform(0, 1, size=(5, 1))
        pred1 = mtgp_predict(model, 1, Xs)
        solo = mtgp_predict(gp_fit(kern, noise, X0, Y0), 0, Xs)
        np.testing.assert_allclose(pred1.mean, c * solo.mean, atol=1e-8)

    def test_matches_dense_conditioning_small_instance(self):
        rng = make_rng("mt-dense", 0)
        spec = random_mtgp_spec(rng, 2)
        dataset = MultiTaskDataset(
            (rng.uniform(0, 1, (3, 1)), rng.uniform(0, 1, (3, 1))),
            (rng.normal(size=3), rng.normal(size=3)),
        )
        noise = np.array([0.1, 0.15])
        model = mtgp_fit(spec, noise, dataset, standardize=False)
        Xs = rng.uniform(0, 1, size=(1, 1))
        task = 1
        pred = mtgp_predict(model, task, Xs, full_cov=True)
        extended = MultiTaskDataset(
            (dataset.inputs[0], np.vstack([dataset.inputs[1], Xs])),
            (dataset.targets[0], np.concatenate([dataset.targets[1], np.zeros(1)])),
        )
        joint_ext = assemble_joint_covariance(spec, extended)
        order = np.array([0, 1, 2, 3, 4, 5, 6])  # queries already last in task-major order
        joint = joint_ext[np.ix_(order, order)]
        joint[:6, :6] += np.diag(noise[dataset.task_indices()]) + model.jitter * np.eye(6)
        mean, cov = dense_gaussian_conditioning(joint, 6, dataset.stacked_targets())
        np.testing.assert_allclose(pred.mean, mean, atol=1e-10)
        np.testing.assert_allclose(pred.covariance, cov, atol=1e-10)

    def test_task_permutation_invariance(self):
        rng = make_rng("mt-perm", 0)
        spec = random_mtgp_spec(rng, 3, with_gamma=True)
        dataset = random_dataset(rng, 3, max_per_task=3)
        noise = rng.uniform(0.05, 0.3, size=3)
        perm = np.array([2, 0, 1])
        spec_p = MultiTaskKernelSpec(
            3,
            tuple(
                CoregionalizationTerm(t.W[perm], t.gamma[perm], t.base_kernel)
                for t in spec.terms
            ),
        )
        dataset_p = MultiTaskDataset(
            tuple(dataset.inputs[d] for d in perm), tuple(dataset.targets[d] for d in perm)
        )
        model = mtgp_fit(spec, noise, dataset, standardize=False)
        model_p = mtgp_fit(spec_p, noise[perm], dataset_p, standardize=False)
        Xs = rng.uniform(0, 1, size=(4, 1))
        for new_idx, old_idx in enumerate(perm):
            a = mtgp_predict(model, old_idx, Xs)
            b = mtgp_predict(model_p, new_idx, Xs)
            np.testing.assert_allclose(a.mean, b.mean, atol=1e-10)
            np.testing.assert_allclose(a.variance, b.variance, atol=1e-10)

    def test_zero_coupling_auxiliary_task_is_inert(self):
        # the appended task has its own indicator term and the same scale, so
        # adding it must leave primary-task predictions unchanged
        rng = make_rng("mt-inert", 0)
        sv, noise_val = 1.3, 0.1
        kern0, kern1 = se(0.5, sv), se(0.9, sv)
        spec2 = indicator_spec([kern0, kern1])
        dataset2 = MultiTaskDataset(
            (rng.uniform(0, 1, (4, 1)), rng.uniform(0, 1, (3, 1))),
            (rng.normal(size=4), rng.normal(size=3)),
        )
        spec1 = MultiTaskKernelSpec(
            1, (CoregionalizationTerm(np.array([[1.0]]), np.zeros(1), kern0),)
        )
        dataset1 = MultiTaskDataset((dataset2.inputs[0],), (dataset2.targets[0],))
        m1 = mtgp_fit(spec1, [noise_val], dataset1, standardize=False)
        m2 = mtgp_fit(spec2, [noise_val, noise_val], dataset2, standardize=False)
        Xs = rng.uniform(0, 1, size=(6, 1))
        p1 = mtgp_predict(m1, 0, Xs)
        p2 = mtgp_predict(m2, 0, Xs)
        np.testing.assert_allclose(p1.mean, p2.mean, atol=1e-8)
        np.testing.assert_allclose(p1.variance, p2.variance, atol=1e-8)

    def test_brute_force_equivalence_batch(self):
        for i in range(20):
            rng = make_rng("mt-brute", i)
            D = int(rng.integers(1, 4))
            spec = random_mtgp_spec(rng, D, with_gamma=bool(rng.integers(0, 2)))
            dataset = random_dataset(rng, D, max_per_task=2)
            noise = rng.uniform(0.05, 0.3, size=D)
            model = mtgp_fit(spec, noise, dataset, standardize=False)
            task = int(rng.integers(0, D))
            Xs = rng.uniform(0, 1, size=(2, 1))
            pred = mtgp_predict(model, task, Xs, full_cov=True)
            extended = MultiTaskDataset(
                tuple(
                    np.vstack([X, Xs]) if d == task else X
                    for d, X in enumerate(dataset.inputs)
                ),
                tuple(
                    np.concatenate([Y, np.zeros(2)]) if d == task else Y
                    for d, Y in enumerate(dataset.targets)
                ),
            )
            joint_ext = assemble_joint_covariance(spec, extended)
            offsets = np.cumsum([0] + list(extended.counts))
            train_idx, query_idx = [], []
            for d in range(D):
                block = np.arange(offsets[d], offsets[d + 1])
                if d == task:
                    train_idx.extend(block[: dataset.counts[d]])
                    query_idx.extend(block[dataset.counts[d] :])
                else:
                    train_idx.extend(block)
            order = np.asarray(train_idx + query_idx)
            joint = joint_ext[np.ix_(order, order)]
            ntot = dataset.total_count
            joint[:ntot, :ntot] += np.diag(noise[dataset.task_indices()]) + model.jitter * np.eye(ntot)
            mean, cov = dense_gaussian_conditioning(joint, ntot, dataset.stacked_targets())
            np.testing.assert_allclose(pred.mean, mean, atol=1e-10)
            np.testing.assert_allclose(pred.covariance, cov, atol=1e-10)

    def test_standardized_predictions_in_raw_units(self):
        rng = make_rng("mt-stdpred", 0)
        X0 = rng.uniform(0, 1, size=(6, 1))
        X1 = rng.uniform(0, 1, size=(5, 1))
        Y0 = 40.0 + 7.0 * np.sin(5 * X0[:, 0])
        Y1 = -2.0 + 0.3 * np.cos(5 * X1[:, 0])
        dataset = MultiTaskDataset((X0, X1), (Y0, Y1))
        spec = random_mtgp_spec(rng, 2)
        model = mtgp_fit(spec, [1e-8, 1e-8], dataset, standardize=True)
        pred = mtgp_predict(model, 0, X0)
        # loose tolerance: this asserts the 40-unit offset and 7-unit scale
        # come back out, not interpolation precision
        np.testing.assert_allclose(pred.mean, Y0, atol=0.2)
        assert np.all(pred.variance >= 0.0)


    def test_a_large_query_holds_one_cross_covariance(self):
        # K(X*, X) is assembled in blocks into one (M, N) array and the solve
        # runs in place in it, so a 32-block query's traced peak stays near
        # M N 8 bytes (the unblocked assembly held about five such arrays)
        rng = make_rng("mt-predict-memory", 0)
        D, P, n = 3, 3, 10
        terms = tuple(
            CoregionalizationTerm(
                rng.normal(0.0, 0.7, (D, 1)), rng.uniform(0.05, 0.3, D), random_kernel(rng, P, kind)
            )
            for kind in (MATERN52, SQUARED_EXPONENTIAL, MATERN52)
        )
        dataset = MultiTaskDataset(
            tuple(rng.uniform(0, 1, (n, P)) for _ in range(D)), tuple(rng.normal(size=n) for _ in range(D))
        )
        model = mtgp_fit(MultiTaskKernelSpec(D, terms), [0.01] * D, dataset)
        M = 32 * PREDICT_BLOCK_ROWS
        Xs = rng.uniform(0, 1, (M, P))
        expected = mtgp_predict(model, 1, Xs)
        tracemalloc.start()
        try:
            pred = mtgp_predict(model, 1, Xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * M * D * n * 8
        np.testing.assert_array_equal(pred.mean, expected.mean)
        np.testing.assert_array_equal(pred.variance, expected.variance)

def _close(a, b, tol=1e-10):
    """|a - b| <= tol, relative once |a| exceeds 1."""
    a, b = np.asarray(a), np.asarray(b)
    assert np.all(np.abs(a - b) <= tol * np.maximum(1.0, np.abs(a)))


class TestInvariances:
    """Predictions and likelihoods do not depend on how the data is ordered."""

    @staticmethod
    def _instance(seed):
        rng = make_rng("invariance", seed)
        spec = random_mtgp_spec(rng, 3, dim=2, with_gamma=True)
        dataset = random_dataset(rng, 3, dim=2, max_per_task=5)
        noise = rng.uniform(0.05, 0.3, size=3)
        return rng, spec, dataset, noise

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_rows_permuted_within_tasks(self, seed):
        rng, spec, dataset, noise = self._instance(seed)
        perms = [rng.permutation(n) for n in dataset.counts]
        shuffled = MultiTaskDataset(
            tuple(X[p] for X, p in zip(dataset.inputs, perms)),
            tuple(Y[p] for Y, p in zip(dataset.targets, perms)),
        )
        _close(
            mtgp_log_marginal_likelihood(spec, noise, dataset)[0],
            mtgp_log_marginal_likelihood(spec, noise, shuffled)[0],
        )
        model, model_s = mtgp_fit(spec, noise, dataset), mtgp_fit(spec, noise, shuffled)
        Xs = rng.uniform(0, 1, size=(4, 2))
        for d in range(3):
            a, b = mtgp_predict(model, d, Xs), mtgp_predict(model_s, d, Xs)
            _close(a.mean, b.mean)
            _close(a.variance, b.variance)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.permutations(range(3)))
    def test_tasks_relabelled(self, seed, perm):
        # new task k is old task perm[k]: rows of W, gamma and noise follow
        rng, spec, dataset, noise = self._instance(seed)
        perm = np.asarray(perm)
        spec_p = MultiTaskKernelSpec(
            3,
            tuple(
                CoregionalizationTerm(t.W[perm], t.gamma[perm], t.base_kernel)
                for t in spec.terms
            ),
        )
        dataset_p = MultiTaskDataset(
            tuple(dataset.inputs[d] for d in perm), tuple(dataset.targets[d] for d in perm)
        )
        _close(
            mtgp_log_marginal_likelihood(spec, noise, dataset)[0],
            mtgp_log_marginal_likelihood(spec_p, noise[perm], dataset_p)[0],
        )
        model, model_p = mtgp_fit(spec, noise, dataset), mtgp_fit(spec_p, noise[perm], dataset_p)
        Xs = rng.uniform(0, 1, size=(4, 2))
        for new, old in enumerate(perm):
            a, b = mtgp_predict(model, old, Xs), mtgp_predict(model_p, new, Xs)
            _close(a.mean, b.mean)
            _close(a.variance, b.variance)


class TestMTGPLogMarginalLikelihood:
    def test_single_task_equals_gp(self):
        rng = make_rng("mt-lml-single", 0)
        X = rng.uniform(0, 1, size=(5, 1))
        Y = rng.normal(size=5)
        kern = se(0.7, 1.1)
        spec = MultiTaskKernelSpec(
            1, (CoregionalizationTerm(np.array([[1.0]]), np.zeros(1), kern),)
        )
        value, _ = mtgp_log_marginal_likelihood(spec, [0.1], MultiTaskDataset((X,), (Y,)))
        expected, _ = gp_log_marginal_likelihood(kern, 0.1, X, Y)
        assert value == expected

    def test_block_diagonal_sums_per_task_likelihoods(self):
        rng = make_rng("mt-lml-block", 0)
        kernels_ = [se(float(rng.uniform(0.3, 1.0)), 1.2) for _ in range(2)]
        spec = indicator_spec(kernels_)
        dataset = MultiTaskDataset(
            (rng.uniform(0, 1, (3, 1)), rng.uniform(0, 1, (4, 1))),
            (rng.normal(size=3), rng.normal(size=4)),
        )
        value, _ = mtgp_log_marginal_likelihood(spec, [0.15, 0.15], dataset)
        expected = sum(
            gp_log_marginal_likelihood(kernels_[d], 0.15, *dataset.single_task(d))[0]
            for d in range(2)
        )
        assert value == pytest.approx(expected, abs=1e-8)

    def test_gradient_matches_finite_differences(self):
        from mtgp.training import check_gradients

        for i in range(5):
            rng = make_rng("mt-lml-fd", i)
            spec = random_mtgp_spec(rng, 2, with_gamma=True)
            dataset = MultiTaskDataset(
                (rng.uniform(0, 1, (3, 1)), rng.uniform(0, 1, (3, 1))),
                (rng.normal(size=3), rng.normal(size=3)),
            )
            layout = spec_layout(spec, rng.uniform(0.05, 0.3, size=2), dataset)

            def objective(vec):
                s, n = materialize(layout, vec)
                return mtgp_log_marginal_likelihood(s, n, dataset)

            assert check_gradients(objective, layout.initial_vector()) < 1e-4

    def test_parameter_name_order(self):
        spec = random_mtgp_spec(make_rng("mt-names", 0), 2, num_terms=1)
        names = spec_parameter_layout(spec, np.ones(2)).names()
        assert names == [
            "term0.log_lengthscale0",
            "term0.log_signal_variance",
            "term0.W[0,0]",
            "term0.W[1,0]",
            "term0.log_gamma0",
            "term0.log_gamma1",
            "log_noise0",
            "log_noise1",
        ]

    def test_fixed_nonzero_gamma_enters_the_covariance(self):
        # a layout that does not learn gamma still adds its template's gamma to B_q
        from mtgp.linalg import BASE_JITTER_REL

        rng = make_rng("mt-fixed-gamma", 0)
        spec = random_mtgp_spec(rng, 2, with_gamma=True)
        dataset = random_dataset(rng, 2, min_per_task=2)
        noise = np.array([0.1, 0.2])
        fixed = spec_layout(spec, noise, dataset, learn_gamma=False)
        assert not any("gamma" in name for name in fixed.names())
        value = fixed.evaluate_template().values[0]
        assert value == spec_layout(spec, noise, dataset).evaluate_template().values[0]
        y, tasks = dataset.stacked_targets(), dataset.task_indices()
        K = assemble_joint_covariance(spec, dataset) + np.diag(noise[tasks])
        K += BASE_JITTER_REL * np.mean(np.diag(K)) * np.eye(y.size)
        dense = -0.5 * y @ np.linalg.solve(K, y) - 0.5 * np.linalg.slogdet(K)[1]
        assert value == pytest.approx(dense - 0.5 * y.size * np.log(2 * np.pi), rel=1e-10)

    def test_uses_total_observation_count_in_constant(self):
        # heterotopic counts: the Gaussian constant must use sum of N_d
        rng = make_rng("mt-const", 0)
        spec = random_mtgp_spec(rng, 2)
        dataset = MultiTaskDataset(
            (rng.uniform(0, 1, (4, 1)), rng.uniform(0, 1, (1, 1))),
            (np.zeros(4), np.zeros(1)),
        )
        value, _ = mtgp_log_marginal_likelihood(spec, [0.3, 0.3], dataset)
        K = assemble_joint_covariance(spec, dataset) + 0.3 * np.eye(5)
        from mtgp.linalg import cholesky_batch

        jitter = cholesky_batch(K[None].copy())[2][0]
        expected = (
            -0.5 * np.linalg.slogdet(K + jitter * np.eye(5))[1]
            - 0.5 * 5 * np.log(2 * np.pi)
        )
        assert value == pytest.approx(expected, abs=1e-10)


def _batch_case(name):
    """(layout, dataset) for one configuration of the batched objective."""
    from mtgp.kernels import MATERN52

    rng = make_rng("batch-core", name)
    if name == "gp":
        X = rng.uniform(0, 1, (6, 2))
        layout = gp_exact_layout(ScalarKernelSpec(MATERN52, [0.4, 0.7], 1.3), 0.1, X, rng.normal(size=6))
        return layout, MultiTaskDataset((X,), (layout.y,))
    counts = {"empty-task": (4, 0, 3)}.get(name, (4, 5))
    dataset = MultiTaskDataset(
        tuple(rng.uniform(0, 1, (n, 2)) for n in counts),
        tuple(rng.normal(size=n) for n in counts),
    )
    mode, kind, rank = {
        "se-slfm": ("slfm", SQUARED_EXPONENTIAL, 1),
        "matern-lmc": ("lmc", MATERN52, 2),
        "mixed-lmc": ("lmc", SQUARED_EXPONENTIAL, 1),
        "independent": ("independent", MATERN52, 1),
        "empty-task": ("lmc", SQUARED_EXPONENTIAL, 1),
        "ragged-rank": ("lmc", SQUARED_EXPONENTIAL, 1),
    }[name]
    family = MTGPFamily(mode=mode, kernel_kind=kind, rank=rank)
    spec, noise = family_template(family, dataset)
    if name == "ragged-rank":
        # terms of different ranks: W is padded and only the real columns learned
        W = rng.normal(size=(2, 2))
        terms = (CoregionalizationTerm(W, spec.terms[0].gamma, spec.terms[0].base_kernel),) + spec.terms[1:]
        spec = MultiTaskKernelSpec(spec.num_tasks, terms)
    if name == "mixed-lmc":
        terms = list(spec.terms)
        base = terms[1].base_kernel
        terms[1] = CoregionalizationTerm(
            terms[1].W, terms[1].gamma, ScalarKernelSpec(MATERN52, base.lengthscales, base.signal_variance)
        )
        spec = MultiTaskKernelSpec(spec.num_tasks, tuple(terms))
    layout = spec_layout(
        spec, noise, dataset, learn_W=family.learns_W, learn_gamma=family.learns_gamma
    )
    return layout, dataset


BATCH_CASES = ["se-slfm", "matern-lmc", "mixed-lmc", "independent", "empty-task", "ragged-rank", "gp"]


class TestBatchedObjective:
    """The vectorized exact-GP core against dense per-row references."""

    def _batch(self, layout, name, B=3):
        rng = make_rng("batch-points", name)
        X = layout.initial_vector() + rng.normal(0.0, 0.3, size=(B, layout.size))
        X[:, layout.is_W] = rng.normal(0.0, 0.7, size=(B, int(np.sum(layout.is_W))))
        return X

    @pytest.mark.parametrize("name", BATCH_CASES)
    def test_rows_match_dense_reference(self, name):
        layout, dataset = _batch_case(name)
        X = self._batch(layout, name)
        batch = evaluate(layout, X)
        assert not batch.errors and not np.any(batch.escalated)
        y = dataset.stacked_targets()
        n = y.size
        for b in range(X.shape[0]):
            spec, noise = materialize(layout, X[b])
            K = assemble_joint_covariance(spec, dataset) + np.diag(noise[dataset.task_indices()])
            K += 1e-8 * np.mean(np.diag(K)) * np.eye(n)
            dense = (
                -0.5 * y @ np.linalg.solve(K, y)
                - 0.5 * np.linalg.slogdet(K)[1]
                - 0.5 * n * np.log(2 * np.pi)
            )
            assert batch.values[b] == pytest.approx(dense, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("name", BATCH_CASES)
    def test_row_gradients_match_finite_differences(self, name):
        from mtgp.training import check_gradients

        layout, _ = _batch_case(name)
        X = self._batch(layout, name)

        def objective(vec):
            batch = evaluate(layout, vec[None])
            return batch.values[0], batch.grads[0]

        for b in range(X.shape[0]):
            assert check_gradients(objective, X[b]) < 1e-4

    @pytest.mark.parametrize("name", BATCH_CASES)
    def test_rows_do_not_depend_on_the_batch(self, name):
        layout, _ = _batch_case(name)
        X = self._batch(layout, name, B=4)
        batch = evaluate(layout, X)
        for b in range(X.shape[0]):
            alone = evaluate(layout, X[b : b + 1])
            np.testing.assert_array_equal(alone.values[0], batch.values[b])
            np.testing.assert_array_equal(alone.grads[0], batch.grads[b])

    def test_value_differences_match_the_gradient_with_the_jitter(self):
        # the jitter rel * mean(diag K) moves with s2, W, gamma and noise, so
        # the gradient carries its derivative; without it these components
        # were up to 1.8e-4 apart at this point (cond(K) 2.1e3)
        rng = np.random.default_rng(16)
        dataset = MultiTaskDataset(
            (rng.uniform(0, 1, (4, 2)), rng.uniform(0, 1, (3, 2))),
            (rng.normal(size=4), rng.normal(size=3)),
        )
        spec, noise = family_template(MTGPFamily(mode="lmc"), dataset)
        layout = spec_layout(spec, noise, dataset)
        point = layout.initial_vector() + rng.normal(0.0, 0.5, size=layout.size)
        point[layout.is_W] = rng.normal(0.0, 0.8, size=int(np.sum(layout.is_W)))
        analytic = evaluate(layout, point[None]).grads[0]
        step = 1e-4
        shifted = point + step * np.vstack([np.eye(layout.size), -np.eye(layout.size)])
        values = evaluate(layout, shifted).values
        numeric = (values[: layout.size] - values[layout.size :]) / (2 * step)
        names = layout.names()
        checked = [i for i, n in enumerate(names) if "signal" in n or ".W[" in n or "gamma" in n]
        assert len(checked) == 2 * (1 + 2 + 2)
        error = np.abs(numeric - analytic) / np.maximum(np.abs(analytic), np.abs(numeric))
        assert np.max(error[checked]) <= 1e-6

    @pytest.mark.parametrize("name", BATCH_CASES)
    def test_names_are_distinct_and_mark_W(self, name):
        layout, _ = _batch_case(name)
        names = layout.names()
        assert len(set(names)) == len(names) == layout.size
        named_W = [re.fullmatch(r"term\d+\.W\[\d+,\d+\]", n) is not None for n in names]
        np.testing.assert_array_equal(named_W, layout.is_W)

    def test_fixed_groups_keep_template_values(self):
        layout, _ = _batch_case("se-slfm")
        spec, _ = materialize(layout, self._batch(layout, "se-slfm")[0])
        assert all(t.rank == 1 and np.all(t.gamma == 0.0) for t in spec.terms)
        layout, _ = _batch_case("independent")
        spec, _ = materialize(layout, self._batch(layout, "independent")[0])
        for q, term in enumerate(spec.terms):
            np.testing.assert_array_equal(term.W[:, 0], np.eye(spec.num_tasks)[q])

    def test_flat_order_is_the_canonical_parameter_order(self):
        layout, _ = _batch_case("ragged-rank")
        vec = self._batch(layout, "ragged-rank", B=1)[0]
        spec, noise = materialize(layout, vec)
        assert [t.rank for t in spec.terms] == [2, 1]
        expected = []
        for term in spec.terms:
            expected += list(np.log(term.base_kernel.lengthscales))
            expected += [np.log(term.base_kernel.signal_variance)]
            expected += list(term.W.reshape(-1)) + list(np.log(term.gamma))
        expected += list(np.log(noise))
        assert len(expected) == len(spec_parameter_layout(spec, noise).names())
        np.testing.assert_allclose(expected, vec, rtol=1e-12)

    def test_wrapper_is_the_template_row(self):
        layout, dataset = _batch_case("matern-lmc")
        X = self._batch(layout, "matern-lmc", B=1)
        spec, noise = materialize(layout, X[0])
        value, grad = mtgp_log_marginal_likelihood(spec, noise, dataset)
        batch = evaluate(layout, X)
        assert value == pytest.approx(batch.values[0], rel=1e-12)
        # lmc learns every parameter, so both gradients use the canonical order
        assert grad.shape == (len(spec_parameter_layout(spec, noise).names()),)
        np.testing.assert_allclose(grad, batch.grads[0], rtol=1e-9, atol=1e-12)

    def test_failed_and_escalated_rows_are_reported(self):
        from mtgp.linalg import BASE_JITTER_REL, cholesky_batch

        K = np.stack(
            [
                np.eye(2),
                np.diag([1.0, -1e-7]),  # needs jitter above the base
                np.diag([1.0, -1.0]),  # indefinite beyond the maximum jitter
                np.full((2, 2), np.nan),
            ]
        )
        L, rel, _, errors = cholesky_batch(K)
        np.testing.assert_allclose(L[0], np.eye(2), atol=1e-7)
        assert list(rel > BASE_JITTER_REL) == [False, True, False, False]
        assert rel[0] == BASE_JITTER_REL and rel[1] == pytest.approx(1e-6)
        assert set(errors) == {2, 3}
        assert np.all(np.isnan(L[2])) and np.all(np.isnan(L[3]))

    def test_factor_does_not_depend_on_failing_neighbours(self):
        from mtgp.linalg import BASE_JITTER_REL, cholesky_batch

        rng = np.random.default_rng(4)
        A = rng.normal(size=(3, 20, 20))
        K = A @ A.swapaxes(-1, -2) + 0.1 * np.eye(20)
        alone = cholesky_batch(K.copy())[0]  # cholesky_batch adds the jitter in place
        failing = np.diag(np.r_[np.ones(19), -1e-7])  # needs escalated jitter
        L, rel, _, errors = cholesky_batch(np.concatenate([K[:1], failing[None], K[1:]]))
        assert not errors and list(rel > BASE_JITTER_REL) == [False, True, False, False]
        np.testing.assert_array_equal(L[[0, 2, 3]], alone)

    def test_non_finite_rows_of_a_factorized_batch_are_errors(self):
        from mtgp.linalg import BASE_JITTER_REL, cholesky_batch

        rng = np.random.default_rng(5)
        A = rng.normal(size=(3, 6, 6))
        K = A @ A.swapaxes(-1, -2) + 0.1 * np.eye(6)
        alone = cholesky_batch(K.copy())[0]
        nan, inf = np.full((6, 6), np.nan), np.diag(np.r_[np.ones(5), np.inf])
        stack = np.stack([K[0], nan, K[1], inf, K[2]])
        # numpy factorizes these without raising, so the batched call succeeds
        assert not np.isfinite(np.linalg.cholesky(stack.copy())).all()
        L, rel, jitter, errors = cholesky_batch(stack)
        assert set(errors) == {1, 3} and all("not finite" in m for m in errors.values())
        assert np.isnan(L[[1, 3]]).all() and np.isnan(rel[[1, 3]]).all()
        assert np.isnan(jitter[[1, 3]]).all()
        assert list(rel[[0, 2, 4]]) == [BASE_JITTER_REL] * 3
        np.testing.assert_array_equal(L[[0, 2, 4]], alone)


GRADIENT_FAMILIES = [
    (mode, kind)
    for mode in ("slfm", "lmc", "independent")
    for kind in (SQUARED_EXPONENTIAL, "matern52")
]


class TestBatchedGradientProperty:
    """The batched gradient against central differences at random parameters.

    The differences are taken of the dense log marginal likelihood of the
    objective's own matrix, K plus the base jitter ``BASE_JITTER_REL *
    mean(diag K)``, an oracle independent of the objective's code. The jitter
    cannot be left out: its derivative, ``rel tr(M) / N`` per unit of
    ``d tr(K)``, reaches 1e-3 where the weights ``alpha`` are large (seed 48 of
    the slfm SE case), above the tolerance on small gradient entries.
    """

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(GRADIENT_FAMILIES), st.integers(0, 2**32 - 1))
    def test_gradient_matches_central_differences(self, family_case, seed):
        from mtgp.linalg import BASE_JITTER_REL

        mode, kind = family_case
        rng = np.random.default_rng(seed)
        counts = rng.integers(2, 6, size=2)
        dataset = MultiTaskDataset(
            tuple(rng.uniform(0, 1, (int(n), 2)) for n in counts),
            tuple(rng.normal(size=int(n)) for n in counts),
        )
        family = MTGPFamily(mode=mode, kernel_kind=kind, rank=2 if mode == "lmc" else 1)
        spec, noise = family_template(family, dataset)
        layout = spec_layout(
            spec, noise, dataset, learn_W=family.learns_W, learn_gamma=family.learns_gamma
        )
        point = layout.initial_vector() + rng.normal(0.0, 0.5, size=layout.size)
        point[layout.is_W] = rng.normal(0.0, 0.8, size=int(np.sum(layout.is_W)))
        y, tasks = dataset.stacked_targets(), dataset.task_indices()

        def dense_lml(vec):
            spec_v, noise_v = materialize(layout, vec)
            K = assemble_joint_covariance(spec_v, dataset) + np.diag(noise_v[tasks])
            K += BASE_JITTER_REL * np.mean(np.diag(K)) * np.eye(K.shape[0])
            return -0.5 * y @ np.linalg.solve(K, y) - 0.5 * np.linalg.slogdet(K)[1]

        step = 1e-6
        numeric = np.array(
            [
                (dense_lml(point + step * e) - dense_lml(point - step * e)) / (2 * step)
                for e in np.eye(layout.size)
            ]
        )
        analytic = evaluate(layout, point[None]).grads[0]
        scale = max(1.0, float(np.max(np.abs(analytic))))
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-6 * scale)


INVARIANCE_CASES = [
    (mode, kind)
    for mode in ("slfm", "lmc-rank2", "independent", "ragged-rank")
    for kind in (SQUARED_EXPONENTIAL, "matern52")
]


def _invariance_layouts(mode, kind, rng, fits=1):
    """Layouts of ``fits`` same-shape 2-task, 2-input datasets for one family case."""
    counts = rng.integers(1, 5, size=2)
    family = MTGPFamily(
        mode="lmc" if mode.startswith(("lmc", "ragged")) else mode,
        kernel_kind=kind,
        rank=2 if mode == "lmc-rank2" else 1,
    )
    layouts = []
    W0 = rng.normal(size=(2, 2))
    for _ in range(fits):
        dataset = MultiTaskDataset(
            tuple(rng.uniform(0, 1, (int(n), 2)) for n in counts),
            tuple(rng.normal(size=int(n)) for n in counts),
        )
        spec, noise = family_template(family, dataset)
        if mode == "ragged-rank":
            # term 0 has rank 2, term 1 rank 1: W is padded, the padding fixed at 0
            first = spec.terms[0]
            spec = MultiTaskKernelSpec(
                2, (CoregionalizationTerm(W0, first.gamma, first.base_kernel),) + spec.terms[1:]
            )
        layouts.append(
            spec_layout(spec, noise, dataset, learn_W=family.learns_W, learn_gamma=family.learns_gamma)
        )
    return layouts


def _random_points(layout, rng, B):
    X = layout.initial_vector() + rng.normal(0.0, 0.5, size=(B, layout.size))
    X[:, layout.is_W] = rng.normal(0.0, 0.8, size=(B, int(np.sum(layout.is_W))))
    return X


class TestBatchInvariance:
    """A row's value and gradient are bitwise the same in any batch."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(INVARIANCE_CASES), st.integers(0, 2**32 - 1), st.integers(1, 6))
    def test_row_equals_its_one_row_evaluation(self, case, seed, B):
        rng = np.random.default_rng(seed)
        (layout,) = _invariance_layouts(*case, rng)
        X = _random_points(layout, rng, B)
        batch = evaluate(layout, X)
        for b in range(B):
            alone = evaluate(layout, X[b : b + 1])
            np.testing.assert_array_equal(alone.values[0], batch.values[b])
            np.testing.assert_array_equal(alone.grads[0], batch.grads[b])

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(INVARIANCE_CASES),
        st.integers(0, 2**32 - 1),
        st.lists(st.integers(0, 4), min_size=3, max_size=3).filter(any),
    )
    def test_stack_rows_equal_each_fit_alone(self, case, seed, running):
        # three fits of R = 4 restarts; fit f has running[f] rows still running
        R = 4
        rng = np.random.default_rng(seed)
        layouts = _invariance_layouts(*case, rng, fits=3)
        X0 = np.concatenate([_random_points(layout, rng, R) for layout in layouts])
        rows = np.concatenate(
            [f * R + np.sort(rng.choice(R, size=n, replace=False)) for f, n in enumerate(running)]
        )
        batch = LayoutStack(layouts, R).evaluate(X0[rows], rows)
        for f, layout in enumerate(layouts):
            mine = np.flatnonzero(rows // R == f)
            if mine.size == 0:
                continue
            alone = evaluate(layout, X0[rows[mine]])
            np.testing.assert_array_equal(alone.values, batch.values[mine])
            np.testing.assert_array_equal(alone.grads, batch.grads[mine])


class TestWorkspace:
    """The stack's workspace holds temporaries only: results outlive the next call."""

    @pytest.mark.parametrize("case", INVARIANCE_CASES)
    def test_later_calls_leave_earlier_results_unchanged(self, case):
        R = 4
        rng = np.random.default_rng(7)
        layouts = _invariance_layouts(*case, rng, fits=2)
        stack = LayoutStack(layouts, R)
        X0 = np.concatenate([_random_points(layout, rng, R) for layout in layouts])
        # all rows, the same rows at new points, then rows stopping until one is left
        calls = [np.arange(2 * R), np.arange(2 * R), np.array([0, 2, 5, 6, 7]), np.array([6])]
        kept = []
        for i, rows in enumerate(calls):
            X = X0[rows] + 0.1 * i
            batch = stack.evaluate(X, rows)
            kept.append((batch, batch.values.copy(), batch.grads.copy()))
            # the stack's rows equal their evaluation in a stack of their own
            fresh = LayoutStack(layouts, R).evaluate(X, rows)
            np.testing.assert_array_equal(batch.values, fresh.values)
            np.testing.assert_array_equal(batch.grads, fresh.grads)
        for batch, values, grads in kept:
            np.testing.assert_array_equal(batch.values, values)
            np.testing.assert_array_equal(batch.grads, grads)
