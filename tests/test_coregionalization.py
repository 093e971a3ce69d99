import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import kronecker_joint, random_kernel
from mtgp.coregionalization import (
    CoregionalizationTerm,
    MultiTaskKernelSpec,
    assemble_joint_covariance,
    build_B,
)
from mtgp.data import MultiTaskDataset
from mtgp.errors import ShapeError
from mtgp.kernels import SQUARED_EXPONENTIAL, ScalarKernelSpec, kernel_matrix
from mtgp.multitask import mtgp_fit, mtgp_predict
from mtgp.seeding import make_rng


def term(W, gamma, ls=1.0, sv=1.0):
    return CoregionalizationTerm(
        np.asarray(W, dtype=float),
        np.asarray(gamma, dtype=float),
        ScalarKernelSpec(SQUARED_EXPONENTIAL, [ls], sv),
    )


class TestBuildB:
    def test_diagonal_only(self):
        np.testing.assert_allclose(build_B(term(np.zeros((2, 1)), [1.0, 1.0])), np.eye(2))

    def test_rank_one_outer_product(self):
        np.testing.assert_allclose(
            build_B(term([[1.0], [2.0]], [0.0, 0.0])), [[1.0, 2.0], [2.0, 4.0]]
        )

    def test_low_rank_plus_diagonal(self):
        B = build_B(term([[1.0, 0.0], [1.0, 1.0]], [0.5, 0.0]))
        np.testing.assert_allclose(B, [[1.5, 1.0], [1.0, 2.0]])

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            term([[1.0], [1.0]], [-0.1, 0.0])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 3))
    def test_symmetric_psd(self, seed, num_tasks, rank):
        rng = np.random.default_rng(seed)
        B = build_B(
            term(rng.normal(size=(num_tasks, rank)), rng.uniform(0, 1, size=num_tasks))
        )
        np.testing.assert_array_equal(B, B.T)
        assert np.min(np.linalg.eigvalsh(B)) >= -1e-10


def joint_block(spec, d, d2, X_d, X_d2):
    """Block (d, d2) of the joint covariance, sliced from the dense assembly."""
    n, m = len(X_d), len(X_d2)
    sets = [np.zeros((0, 1))] * spec.num_tasks
    sets[d] = np.vstack([X_d, sets[d]])
    sets[d2] = np.vstack([sets[d2], X_d2])
    dataset = MultiTaskDataset(tuple(sets), tuple(np.zeros(len(X)) for X in sets))
    K = assemble_joint_covariance(spec, dataset)
    start = np.cumsum([0] + list(dataset.counts))
    if d == d2:
        return K[start[d] : start[d] + n, start[d] + n : start[d] + n + m]
    return K[start[d] : start[d] + n, start[d2] : start[d2] + m]


class TestCrossCovarianceBlock:
    """Off-diagonal and diagonal blocks, read off :func:`assemble_joint_covariance`."""

    def test_independent_tasks_share_nothing(self):
        spec = MultiTaskKernelSpec(2, (term(np.zeros((2, 1)), [1.0, 1.0]),))
        X = np.array([[0.0], [0.5]])
        block = joint_block(spec, 0, 1, X, X)
        np.testing.assert_array_equal(block, np.zeros((2, 2)))

    def test_diagonal_block_scales_kernel_matrix(self):
        spec = MultiTaskKernelSpec(2, (term([[1.0], [2.0]], [0.0, 0.0]),))
        X = np.array([[0.0], [1.0]])
        e = np.exp(-0.5)
        np.testing.assert_allclose(
            joint_block(spec, 0, 0, X, X), [[1.0, e], [e, 1.0]], atol=1e-15
        )

    def test_blockwise_assembly_matches_kronecker(self):
        rng = make_rng("coreg-kron", 0)
        X = rng.uniform(0, 1, size=(3, 1))
        spec = MultiTaskKernelSpec(
            2,
            (
                term(rng.normal(size=(2, 1)), rng.uniform(0, 0.5, size=2), ls=0.7),
                term(rng.normal(size=(2, 1)), rng.uniform(0, 0.5, size=2), ls=1.4),
            ),
        )
        blocks = np.block(
            [
                [joint_block(spec, d, e, X, X) for e in range(2)]
                for d in range(2)
            ]
        )
        np.testing.assert_allclose(blocks, kronecker_joint(spec, X), atol=1e-14)

    def test_transpose_property_exact(self):
        rng = make_rng("coreg-transpose", 0)
        spec = MultiTaskKernelSpec(
            3, tuple(term(rng.normal(size=(3, 2)), rng.uniform(0, 1, 3)) for _ in range(2))
        )
        Xa = rng.uniform(0, 1, size=(4, 1))
        Xb = rng.uniform(0, 1, size=(2, 1))
        ab = joint_block(spec, 0, 2, Xa, Xb)
        ba = joint_block(spec, 2, 0, Xb, Xa)
        np.testing.assert_array_equal(ab, ba.T)

    def test_task_index_out_of_range(self):
        # the model's cross-covariances go through mtgp_predict, which names the task
        spec = MultiTaskKernelSpec(2, (term(np.ones((2, 1)), [0.0, 0.0]),))
        dataset = MultiTaskDataset((np.zeros((1, 1)), np.ones((1, 1))), (np.zeros(1), np.ones(1)))
        model = mtgp_fit(spec, [0.1, 0.1], dataset)
        with pytest.raises(ShapeError, match="task 2 out of range"):
            mtgp_predict(model, 2, np.zeros((1, 1)))


class TestAssembleJointCovariance:
    def test_single_task_reduces_to_kernel_matrix(self):
        rng = make_rng("coreg-single", 0)
        X = rng.uniform(0, 1, size=(4, 1))
        base = ScalarKernelSpec(SQUARED_EXPONENTIAL, [0.8], 1.3)
        spec = MultiTaskKernelSpec(
            1, (CoregionalizationTerm(np.array([[1.0]]), np.zeros(1), base),)
        )
        dataset = MultiTaskDataset((X,), (np.zeros(4),))
        np.testing.assert_array_equal(
            assemble_joint_covariance(spec, dataset), kernel_matrix(base, X, X)
        )

    def test_isotopic_matches_kronecker_oracle(self):
        rng = make_rng("coreg-kron", 1)
        X = rng.uniform(0, 1, size=(2, 1))
        spec = MultiTaskKernelSpec(
            2, (term(rng.normal(size=(2, 1)), [0.0, 0.0], ls=0.9, sv=1.1),)
        )
        dataset = MultiTaskDataset((X, X), (np.zeros(2), np.zeros(2)))
        np.testing.assert_allclose(
            assemble_joint_covariance(spec, dataset), kronecker_joint(spec, X), atol=1e-12
        )

    def test_symmetric_and_positive_definite_with_noise(self):
        rng = make_rng("coreg-pd", 0)
        spec = MultiTaskKernelSpec(
            2, tuple(term(rng.normal(size=(2, 1)), rng.uniform(0, 1, 2)) for _ in range(2))
        )
        dataset = MultiTaskDataset(
            (rng.uniform(0, 1, (3, 1)), rng.uniform(0, 1, (2, 1))),
            (rng.normal(size=3), rng.normal(size=2)),
        )
        K = assemble_joint_covariance(spec, dataset)
        np.testing.assert_allclose(K, K.T, atol=0)
        assert np.all(np.linalg.eigvalsh(K + 0.1 * np.eye(5)) > 0)

    def test_indicator_terms_give_block_diagonal(self):
        base = [random_kernel(make_rng("coreg-ind", q)) for q in range(2)]
        terms = []
        for d in range(2):
            W = np.zeros((2, 1))
            W[d, 0] = 1.0
            terms.append(CoregionalizationTerm(W, np.zeros(2), base[d]))
        spec = MultiTaskKernelSpec(2, tuple(terms))
        rng = make_rng("coreg-ind", 9)
        dataset = MultiTaskDataset(
            (rng.uniform(0, 1, (3, 1)), rng.uniform(0, 1, (2, 1))),
            (np.zeros(3), np.zeros(2)),
        )
        K = assemble_joint_covariance(spec, dataset)
        np.testing.assert_array_equal(K[:3, 3:], np.zeros((3, 2)))
        np.testing.assert_array_equal(K[3:, :3], np.zeros((2, 3)))

    def test_task_count_mismatch(self):
        spec = MultiTaskKernelSpec(2, (term(np.ones((2, 1)), [0.0, 0.0]),))
        with pytest.raises(ShapeError):
            assemble_joint_covariance(
                spec, MultiTaskDataset((np.zeros((1, 1)),), (np.zeros(1),))
            )


class TestSpecValidation:
    def test_rank_one_factor_model_detection(self):
        def rank_one_factor_model(spec):
            return all(t.rank == 1 and np.all(t.gamma == 0.0) for t in spec.terms)

        slfm = MultiTaskKernelSpec(2, (term([[0.5], [1.0]], [0.0, 0.0]),))
        assert rank_one_factor_model(slfm)
        lmc = MultiTaskKernelSpec(2, (term([[0.5], [1.0]], [0.1, 0.0]),))
        assert not rank_one_factor_model(lmc)
        wide = MultiTaskKernelSpec(2, (term([[0.5, 0.1], [1.0, 0.0]], [0.0, 0.0]),))
        assert not rank_one_factor_model(wide)

    def test_term_task_count_checked(self):
        with pytest.raises(ShapeError):
            MultiTaskKernelSpec(3, (term(np.ones((2, 1)), [0.0, 0.0]),))

    def test_needs_at_least_one_term(self):
        with pytest.raises(ShapeError):
            MultiTaskKernelSpec(2, ())
