import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gp_exact_layout, gp_parameter_layout
from mtgp.errors import ShapeError
from mtgp.kernels import (
    MATERN52,
    PROFILE_SCALE,
    SQUARED_EXPONENTIAL,
    ScalarKernelSpec,
    kernel_matrix,
    kernel_profile,
)
from mtgp.linalg import BASE_JITTER_REL, cholesky_batch
from mtgp.seeding import make_rng


def se(ls, sv=1.0):
    return ScalarKernelSpec(SQUARED_EXPONENTIAL, np.atleast_1d(ls), sv)


def k_pair(spec, x, x2):
    """k(x, x2) for single input vectors: kernel_matrix on one row each."""
    return float(kernel_matrix(spec, np.atleast_1d(x)[None, :], np.atleast_1d(x2)[None, :])[0, 0])


def profile_gradients(spec, X):
    """Derivatives of kernel_matrix(spec, X, X) w.r.t. [log l_1, ..., log l_P, log s2],
    built from kernel_profile as the model's objective builds them."""
    scaled_sq = (X[:, None, :] - X[None, :, :]) ** 2 / spec.lengthscales**2
    unit, slope = kernel_profile(spec.kind, PROFILE_SCALE[spec.kind] * scaled_sq.sum(axis=-1))
    grads = [spec.signal_variance * slope * scaled_sq[:, :, p] for p in range(spec.input_dim)]
    return grads + [spec.signal_variance * unit]


class TestKernelEval:
    def test_identity_case_returns_signal_variance(self):
        assert k_pair(se(1.0), [0.3], [0.3]) == 1.0

    def test_unit_distance(self):
        assert k_pair(se(1.0), [0.0], [1.0]) == pytest.approx(np.exp(-0.5), abs=1e-12)

    def test_scaled(self):
        assert k_pair(se(2.0, 3.0), [0.0], [2.0]) == pytest.approx(
            3.0 * np.exp(-0.5), abs=1e-12
        )

    def test_matern_identity(self):
        spec = ScalarKernelSpec(MATERN52, [0.7], 2.5)
        assert k_pair(spec, [0.4], [0.4]) == pytest.approx(2.5, abs=1e-12)

    def test_matern_value(self):
        # direct evaluation of the nu=5/2 closed form at r = 1/0.5 = 2
        r = 2.0
        expected = 1.3 * (1 + np.sqrt(5) * r + 5 * r**2 / 3) * np.exp(-np.sqrt(5) * r)
        spec = ScalarKernelSpec(MATERN52, [0.5], 1.3)
        assert k_pair(spec, [0.0], [1.0]) == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            k_pair(se([1.0, 1.0]), [0.0], [0.0, 1.0])

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            se(-1.0)
        with pytest.raises(ValueError):
            se(1.0, 0.0)
        with pytest.raises(ValueError):
            ScalarKernelSpec("cubic", [1.0], 1.0)


class TestKernelMatrix:
    def test_two_point_matrix(self):
        K = kernel_matrix(se(1.0), np.array([[0.0], [1.0]]))
        e = np.exp(-0.5)
        np.testing.assert_allclose(K, [[1.0, e], [e, 1.0]], atol=1e-15)

    def test_empty_second_argument(self):
        K = kernel_matrix(se(1.0), np.zeros((3, 1)), np.zeros((0, 1)))
        assert K.shape == (3, 0)

    def test_symmetric_with_signal_variance_diagonal(self, rng):
        X = rng.uniform(0, 1, size=(6, 2))
        spec = se([0.5, 1.5], 2.0)
        K = kernel_matrix(spec, X, X)
        np.testing.assert_allclose(K, K.T, atol=0)
        np.testing.assert_allclose(np.diag(K), 2.0, atol=1e-15)

    def test_column_mismatch(self):
        with pytest.raises(ShapeError):
            kernel_matrix(se([1.0, 1.0]), np.zeros((2, 1)))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([SQUARED_EXPONENTIAL, MATERN52]))
    def test_positive_definite_with_jitter(self, seed, kind):
        rng = np.random.default_rng(seed)
        n, dim = int(rng.integers(2, 8)), int(rng.integers(1, 3))
        spec = ScalarKernelSpec(
            kind, rng.uniform(0.2, 2.0, size=dim), float(rng.uniform(0.2, 3.0))
        )
        X = rng.uniform(0, 1, size=(n, dim))
        K = kernel_matrix(spec, X, X)
        np.linalg.cholesky(K + 1e-8 * np.eye(n))  # raises if not PD
        L, rel, _, errors = cholesky_batch(K[None].copy())
        assert not errors and rel[0] == BASE_JITTER_REL  # no escalation needed
        assert np.all(np.diag(L[0]) > 0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_swap_symmetry_exact(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-2, 2, size=2)
        y = rng.uniform(-2, 2, size=2)
        spec = se(rng.uniform(0.2, 2.0, size=2), float(rng.uniform(0.2, 3.0)))
        assert k_pair(spec, x, y) == k_pair(spec, y, x)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(-5, 5))
    def test_se_stationarity(self, seed, shift):
        # shifting both arguments perturbs the represented difference by at
        # most a few ulps of the shift, so equality holds to ~1e-12 relative
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, size=1)
        y = rng.uniform(-1, 1, size=1)
        spec = se(0.7, 1.3)
        assert k_pair(spec, x, y) == pytest.approx(
            k_pair(spec, x + shift, y + shift), rel=1e-12
        )


class TestKernelMatrixGrad:
    """Kernel-matrix derivatives through kernel_profile, against kernel_matrix."""

    def test_signal_variance_gradient_is_kernel_matrix(self, rng):
        X = rng.uniform(0, 1, size=(4, 2))
        for kind in (SQUARED_EXPONENTIAL, MATERN52):
            spec = ScalarKernelSpec(kind, [0.6, 1.2], 1.7)
            grads = profile_gradients(spec, X)
            np.testing.assert_allclose(grads[-1], kernel_matrix(spec, X, X), rtol=1e-14)

    def test_single_pair_lengthscale_gradient(self):
        grads = profile_gradients(se(1.0), np.array([[0.0], [1.0]]))
        assert grads[0][0, 1] == pytest.approx(np.exp(-0.5), abs=1e-12)

    def test_lengthscale_gradient_zero_on_diagonal(self, rng):
        X = rng.uniform(0, 1, size=(5, 1))
        for kind in (SQUARED_EXPONENTIAL, MATERN52):
            grads = profile_gradients(ScalarKernelSpec(kind, [0.8], 1.0), X)
            np.testing.assert_allclose(np.diag(grads[0]), 0.0, atol=0)

    def test_grad_order_matches_names(self):
        spec = se([1.0, 2.0], 1.0)
        names = gp_parameter_layout(spec, 0.1).names()
        # the GP's flat vector is the kernel's log-parameters plus log-noise
        kernel_names = ["term0.log_lengthscale0", "term0.log_lengthscale1", "term0.log_signal_variance"]
        assert names == kernel_names + ["log_noise0"]
        assert len(profile_gradients(spec, np.zeros((2, 2)))) == 3

    def test_empty_input_rejected(self):
        # the objective that consumes these derivatives needs a training point
        with pytest.raises(ShapeError):
            gp_exact_layout(se(1.0), 0.1, np.zeros((0, 1)), np.zeros(0))

    @pytest.mark.parametrize("kind", [SQUARED_EXPONENTIAL, MATERN52])
    def test_matches_central_finite_differences(self, kind):
        # spec tolerance: relative error < 1e-5 at step 1e-6 on random inputs
        step = 1e-6
        for trial in range(5):
            rng = make_rng("kernel-fd", kind, trial)
            dim = int(rng.integers(1, 4))
            X = rng.uniform(0.0, 1.0, size=(4, dim))
            ls = rng.uniform(0.3, 1.5, size=dim)
            sv = float(rng.uniform(0.5, 2.0))
            spec = ScalarKernelSpec(kind, ls, sv)
            grads = profile_gradients(spec, X)
            for j in range(dim + 1):
                def matrix_at(delta):
                    log_ls = np.log(ls).copy()
                    log_sv = np.log(sv)
                    if j < dim:
                        log_ls[j] += delta
                    else:
                        log_sv += delta
                    return kernel_matrix(
                        ScalarKernelSpec(kind, np.exp(log_ls), np.exp(log_sv)), X, X
                    )

                numeric = (matrix_at(step) - matrix_at(-step)) / (2 * step)
                denom = np.maximum(np.abs(grads[j]), np.maximum(np.abs(numeric), 1e-8))
                assert np.max(np.abs(grads[j] - numeric) / denom) < 1e-5
