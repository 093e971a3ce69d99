import numpy as np
import pytest

from conftest import dense_gaussian_conditioning, gp_parameter_layout, materialize
from mtgp.errors import DomainError, IllConditionedKernelError, ShapeError
from mtgp.gp import gp_fit, gp_log_marginal_likelihood
from mtgp.kernels import SQUARED_EXPONENTIAL, ScalarKernelSpec, kernel_matrix
from mtgp.linalg import cholesky_batch
from mtgp.multitask import mtgp_predict
from mtgp.seeding import make_rng


def se(ls=1.0, sv=1.0):
    return ScalarKernelSpec(SQUARED_EXPONENTIAL, np.atleast_1d(ls), sv)


class TestGPFit:
    def test_single_point_weight(self):
        model = gp_fit(se(), 1e-10, np.array([[0.0]]), np.array([2.0]))
        assert model.weights[0] == pytest.approx(2.0, rel=1e-6)

    def test_duplicated_rows_with_zero_noise_survive_via_jitter(self):
        # the relative jitter added before factorization lifts the exactly
        # singular duplicate-row matrix, so fitting succeeds by design
        X = np.array([[0.3], [0.3]])
        model = gp_fit(se(), 0.0, X, np.array([1.0, 1.0]))
        assert model.noise_variances[0] == 1e-10
        assert np.all(np.diag(model.L) > 0)

    def test_unfixable_matrix_raises(self):
        L, rel, jitter, errors = cholesky_batch(np.array([[[1.0, 2.0], [2.0, 1.0]]]))
        assert "even with relative jitter" in errors[0]
        assert np.isnan(L).all() and np.isnan(rel[0]) and np.isnan(jitter[0])

    def test_non_finite_covariance_raises(self):
        with pytest.raises(IllConditionedKernelError, match="not finite"):
            gp_fit(se(), np.inf, np.array([[0.0], [1.0]]), np.zeros(2))

    @pytest.mark.parametrize("fit", [gp_fit, gp_log_marginal_likelihood])
    def test_non_finite_mean_const_raises(self, fit):
        with pytest.raises(DomainError, match="working targets"):
            fit(se(), 0.1, np.array([[0.0], [1.0]]), np.zeros(2), mean_const=np.inf)

    def test_cholesky_factor_lower_triangular_positive_diagonal(self, rng):
        X = rng.uniform(0, 1, size=(6, 2))
        Y = rng.normal(size=6)
        model = gp_fit(se([0.5, 0.8], 1.2), 0.05, X, Y)
        np.testing.assert_array_equal(model.L, np.tril(model.L))
        assert np.all(np.diag(model.L) > 0)

    def test_factor_reconstructs_matrix(self, rng):
        X = rng.uniform(0, 1, size=(5, 1))
        model = gp_fit(se(0.7, 1.5), 0.1, X, rng.normal(size=5))
        kernel = model.kernel.terms[0].base_kernel
        K = kernel_matrix(kernel, X, X) + (0.1 + model.jitter) * np.eye(5)
        np.testing.assert_allclose(model.L @ model.L.T, K, rtol=1e-8)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            gp_fit(se(), 0.1, np.zeros((2, 1)), np.zeros(3))
        with pytest.raises(ShapeError):
            gp_fit(se(), 0.1, np.zeros((0, 1)), np.zeros(0))


class TestGPPredict:
    def test_interpolates_training_data_when_noiseless(self, rng):
        X = rng.uniform(0, 1, size=(5, 1))
        Y = np.sin(4 * X[:, 0])
        model = gp_fit(se(0.5), 1e-10, X, Y)
        pred = mtgp_predict(model, 0, X)
        np.testing.assert_allclose(pred.mean, Y, atol=1e-4)
        assert np.all(pred.variance < 1e-4)

    def test_reverts_to_prior_far_from_data(self):
        X = np.array([[0.0]])
        model = gp_fit(se(0.1, 2.0), 1e-6, X, np.array([5.0]), mean_const=1.0)
        pred = mtgp_predict(model, 0, np.array([[50.0]]))
        assert pred.mean[0] == pytest.approx(1.0, abs=1e-8)
        assert pred.variance[0] == pytest.approx(2.0, abs=1e-8)

    def test_variance_never_exceeds_signal_variance(self, rng):
        X = rng.uniform(0, 1, size=(4, 1))
        model = gp_fit(se(0.4, 1.7), 0.01, X, rng.normal(size=4))
        pred = mtgp_predict(model, 0, rng.uniform(0, 1, size=(20, 1)))
        assert np.all(pred.variance <= 1.7 + 1e-12)
        assert np.all(pred.variance >= 0.0)

    def test_matches_dense_conditioning_oracle(self):
        rng = make_rng("gp-oracle", 0)
        X = rng.uniform(0, 1, size=(2, 1))
        Y = rng.normal(size=2)
        Xs = rng.uniform(0, 1, size=(1, 1))
        noise = 0.1
        kern = se(0.6, 1.4)
        model = gp_fit(kern, noise, X, Y)
        pred = mtgp_predict(model, 0, Xs, full_cov=True)
        joint = kernel_matrix(kern, np.vstack([X, Xs]), np.vstack([X, Xs]))
        joint[:2, :2] += (noise + model.jitter) * np.eye(2)
        mean, cov = dense_gaussian_conditioning(joint, 2, Y)
        np.testing.assert_allclose(pred.mean, mean, atol=1e-10)
        np.testing.assert_allclose(pred.covariance, cov, atol=1e-10)

    def test_oracle_equivalence_random_instances(self):
        for i in range(20):
            rng = make_rng("gp-oracle-batch", i)
            n, m, dim = int(rng.integers(1, 7)), int(rng.integers(1, 4)), int(rng.integers(1, 3))
            kern = ScalarKernelSpec(
                SQUARED_EXPONENTIAL, rng.uniform(0.3, 1.5, dim), float(rng.uniform(0.5, 2.0))
            )
            X = rng.uniform(0, 1, size=(n, dim))
            Y = rng.normal(size=n)
            Xs = rng.uniform(0, 1, size=(m, dim))
            noise = float(rng.uniform(0.05, 0.3))
            model = gp_fit(kern, noise, X, Y)
            pred = mtgp_predict(model, 0, Xs, full_cov=True)
            joint = kernel_matrix(kern, np.vstack([X, Xs]), np.vstack([X, Xs]))
            joint[:n, :n] += (noise + model.jitter) * np.eye(n)
            mean, cov = dense_gaussian_conditioning(joint, n, Y)
            np.testing.assert_allclose(pred.mean, mean, atol=1e-10)
            np.testing.assert_allclose(pred.covariance, cov, atol=1e-10)

    def test_variance_monotone_in_training_set(self):
        rng = make_rng("gp-monotone", 0)
        kern = se(0.5, 1.0)
        X = rng.uniform(0, 1, size=(5, 1))
        Y = rng.normal(size=5)
        Xs = rng.uniform(0, 1, size=(10, 1))
        var_small = mtgp_predict(gp_fit(kern, 0.1, X[:4], Y[:4]), 0, Xs).variance
        var_full = mtgp_predict(gp_fit(kern, 0.1, X, Y), 0, Xs).variance
        assert np.all(var_full <= var_small + 1e-8)

    def test_empty_query(self):
        model = gp_fit(se(), 0.1, np.array([[0.0]]), np.array([1.0]))
        pred = mtgp_predict(model, 0, np.zeros((0, 1)))
        assert pred.mean.shape == (0,)

    def test_query_dimension_mismatch(self):
        model = gp_fit(se(), 0.1, np.array([[0.0]]), np.array([1.0]))
        with pytest.raises(ShapeError):
            mtgp_predict(model, 0, np.zeros((2, 3)))

    def test_full_covariance_diagonal_equals_variance(self, rng):
        X = rng.uniform(0, 1, size=(4, 1))
        model = gp_fit(se(0.5), 0.05, X, rng.normal(size=4))
        pred = mtgp_predict(model, 0, rng.uniform(0, 1, size=(3, 1)), full_cov=True)
        np.testing.assert_array_equal(np.diag(pred.covariance), pred.variance)


class TestGPLogMarginalLikelihood:
    def test_single_point_standard_normal(self):
        # k(x,x) + noise = 1 with zero target: plain standard normal density
        # (tolerance covers the 1e-8 relative jitter added before factorization)
        value, _ = gp_log_marginal_likelihood(se(1.0, 0.5), 0.5, np.array([[0.0]]), np.array([0.0]))
        assert value == pytest.approx(-0.5 * np.log(2 * np.pi), abs=1e-5)

    def test_zero_targets_drop_data_fit_term(self, rng):
        X = rng.uniform(0, 1, size=(4, 1))
        kern = se(0.8, 1.2)
        noise = 0.2
        value, _ = gp_log_marginal_likelihood(kern, noise, X, np.zeros(4))
        K = kernel_matrix(kern, X, X) + noise * np.eye(4)
        jitter = cholesky_batch(K[None].copy())[2][0]
        expected = -0.5 * np.linalg.slogdet(K + jitter * np.eye(4))[1] - 2 * np.log(2 * np.pi)
        assert value == pytest.approx(expected, abs=1e-10)

    def test_cholesky_path_matches_dense_determinant_formula(self):
        for i in range(10):
            rng = make_rng("gp-lml-dense", i)
            n = int(rng.integers(1, 9))
            kern = se(float(rng.uniform(0.3, 1.5)), float(rng.uniform(0.5, 2.0)))
            X = rng.uniform(0, 1, size=(n, 1))
            Y = rng.normal(size=n)
            noise = float(rng.uniform(0.05, 0.3))
            value, _ = gp_log_marginal_likelihood(kern, noise, X, Y)
            K = kernel_matrix(kern, X, X) + noise * np.eye(n)
            jitter = cholesky_batch(K[None].copy())[2][0]
            Kj = K + jitter * np.eye(n)
            dense = (
                -0.5 * Y @ np.linalg.solve(Kj, Y)
                - 0.5 * np.linalg.slogdet(Kj)[1]
                - 0.5 * n * np.log(2 * np.pi)
            )
            assert value == pytest.approx(dense, abs=1e-8)

    def test_gradient_matches_finite_differences(self):
        from mtgp.training import check_gradients

        for i in range(5):
            rng = make_rng("gp-lml-fd", i)
            dim = int(rng.integers(1, 3))
            X = rng.uniform(0, 1, size=(5, dim))
            Y = rng.normal(size=5)
            layout = gp_parameter_layout(se(np.ones(dim)), 1.0)

            def objective(vec):
                spec, noise = materialize(layout, vec)
                return gp_log_marginal_likelihood(spec.terms[0].base_kernel, noise[0], X, Y)

            point = rng.normal(0, 0.5, size=dim + 2)
            assert check_gradients(objective, point) < 1e-4
