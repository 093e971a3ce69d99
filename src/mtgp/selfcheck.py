"""Embedded verification suite backing the ``check`` CLI command.

Each check compares a fast code path against an independent slow oracle
(dense joint-Gaussian conditioning, explicit Kronecker products, central
finite differences, per-task refits). All checks are deterministic given the
seed.
"""

from dataclasses import dataclass

import numpy as np

from . import gp, kernels, multitask, training
from .coregionalization import (
    CoregionalizationTerm,
    MultiTaskKernelSpec,
    assemble_joint_covariance,
    build_B,
)
from .data import MultiTaskDataset
from .seeding import make_rng


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _dense_condition(joint, n_train, y_train):
    """Oracle: condition an (n_train + m) joint Gaussian on its first block."""
    K_tt = joint[:n_train, :n_train]
    K_st = joint[n_train:, :n_train]
    K_ss = joint[n_train:, n_train:]
    solve = np.linalg.solve(K_tt, np.eye(n_train))
    mean = K_st @ solve @ y_train
    cov = K_ss - K_st @ solve @ K_st.T
    return mean, cov


def _random_kernel(rng, dim):
    return kernels.ScalarKernelSpec(
        kernels.SQUARED_EXPONENTIAL,
        rng.uniform(0.3, 1.5, size=dim),
        float(rng.uniform(0.5, 2.0)),
    )


def _check_gp_conditioning(seed: int) -> CheckResult:
    worst = 0.0
    for i in range(10):
        rng = make_rng(seed, "chk-gp-cond", i)
        n, m, dim = int(rng.integers(2, 7)), int(rng.integers(1, 4)), int(rng.integers(1, 3))
        kern = _random_kernel(rng, dim)
        X = rng.uniform(0.0, 1.0, size=(n, dim))
        Y = rng.normal(size=n)
        Xs = rng.uniform(0.0, 1.0, size=(m, dim))
        noise = float(rng.uniform(0.05, 0.3))
        model = gp.gp_fit(kern, noise, X, Y)
        pred = multitask.mtgp_predict(model, 0, Xs, full_cov=True)
        joint = kernels.kernel_matrix(kern, np.vstack([X, Xs]), np.vstack([X, Xs]))
        joint[:n, :n] += (noise + model.jitter) * np.eye(n)
        mean, cov = _dense_condition(joint, n, Y)
        worst = max(
            worst,
            float(np.max(np.abs(mean - pred.mean))),
            float(np.max(np.abs(cov - pred.covariance))),
        )
    return CheckResult(
        "gp-conditioning-oracle", worst < 1e-10, f"max deviation {worst:.3e} (tol 1e-10)"
    )


def _random_mtgp_instance(rng, slfm: bool = True):
    D = int(rng.integers(2, 4))
    dim = 1
    terms = []
    for _ in range(2):
        W = rng.normal(0.0, 0.7, size=(D, 1))
        gamma = np.zeros(D) if slfm else rng.uniform(0.05, 0.3, size=D)
        terms.append(CoregionalizationTerm(W, gamma, _random_kernel(rng, dim)))
    spec = MultiTaskKernelSpec(D, tuple(terms))
    counts = rng.integers(1, 4, size=D)
    dataset = MultiTaskDataset(
        tuple(rng.uniform(0.0, 1.0, size=(int(c), dim)) for c in counts),
        tuple(rng.normal(size=int(c)) for c in counts),
    )
    noise = rng.uniform(0.05, 0.3, size=D)
    return spec, dataset, noise


def _check_mtgp_conditioning(seed: int) -> CheckResult:
    worst = 0.0
    for i in range(10):
        rng = make_rng(seed, "chk-mt-cond", i)
        spec, dataset, noise = _random_mtgp_instance(rng)
        model = multitask.mtgp_fit(spec, noise, dataset, standardize=False)
        task = int(rng.integers(0, spec.num_tasks))
        Xs = rng.uniform(0.0, 1.0, size=(2, dataset.input_dim))
        pred = multitask.mtgp_predict(model, task, Xs, full_cov=True)
        # oracle: treat query points as an extra block of the requested task
        extended = MultiTaskDataset(
            tuple(
                np.vstack([X, Xs]) if d == task else X
                for d, X in enumerate(dataset.inputs)
            ),
            tuple(
                np.concatenate([Y, np.zeros(len(Xs))]) if d == task else Y
                for d, Y in enumerate(dataset.targets)
            ),
        )
        joint_ext = assemble_joint_covariance(spec, extended)
        # reorder: training rows first (task-major), then the query rows
        offsets = np.cumsum([0] + list(extended.counts))
        train_idx, query_idx = [], []
        for d in range(spec.num_tasks):
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
        mean, cov = _dense_condition(joint, ntot, dataset.stacked_targets())
        worst = max(
            worst,
            float(np.max(np.abs(mean - pred.mean))),
            float(np.max(np.abs(cov - pred.covariance))),
        )
    return CheckResult(
        "mtgp-conditioning-oracle", worst < 1e-10, f"max deviation {worst:.3e} (tol 1e-10)"
    )


def _check_kronecker(seed: int) -> CheckResult:
    worst = 0.0
    for i in range(5):
        rng = make_rng(seed, "chk-kron", i)
        D, n, dim = 2, 4, 1
        X = rng.uniform(0.0, 1.0, size=(n, dim))
        terms = tuple(
            CoregionalizationTerm(
                rng.normal(size=(D, 1)), rng.uniform(0.0, 0.2, size=D), _random_kernel(rng, dim)
            )
            for _ in range(2)
        )
        spec = MultiTaskKernelSpec(D, terms)
        dataset = MultiTaskDataset((X, X), (np.zeros(n), np.zeros(n)))
        assembled = assemble_joint_covariance(spec, dataset)
        kron = np.zeros_like(assembled)
        for term in terms:
            kron += np.kron(build_B(term), kernels.kernel_matrix(term.base_kernel, X, X))
        worst = max(worst, float(np.max(np.abs(assembled - kron))))
    return CheckResult(
        "kronecker-equivalence", worst < 1e-12, f"max deviation {worst:.3e} (tol 1e-12)"
    )


def _check_block_diagonal(seed: int) -> CheckResult:
    worst = 0.0
    for i in range(5):
        rng = make_rng(seed, "chk-block", i)
        D, dim = 2, 1
        # shared signal/noise scale keeps the joint and solo jitters equal,
        # so the comparison isolates the decoupling structure
        sv = float(rng.uniform(0.5, 2.0))
        kerns = [
            kernels.ScalarKernelSpec(
                kernels.SQUARED_EXPONENTIAL, rng.uniform(0.3, 1.5, size=dim), sv
            )
            for _ in range(D)
        ]
        terms = []
        for d in range(D):
            W = np.zeros((D, 1))
            W[d, 0] = 1.0
            terms.append(CoregionalizationTerm(W, np.zeros(D), kerns[d]))
        spec = MultiTaskKernelSpec(D, tuple(terms))
        counts = [int(rng.integers(2, 5)) for _ in range(D)]
        dataset = MultiTaskDataset(
            tuple(rng.uniform(0.0, 1.0, size=(c, dim)) for c in counts),
            tuple(rng.normal(size=c) for c in counts),
        )
        noise = np.full(D, float(rng.uniform(0.05, 0.3)))
        model = multitask.mtgp_fit(spec, noise, dataset, standardize=False)
        Xs = rng.uniform(0.0, 1.0, size=(3, dim))
        for d in range(D):
            joint_pred = multitask.mtgp_predict(model, d, Xs)
            solo = gp.gp_fit(kerns[d], float(noise[d]), *dataset.single_task(d))
            solo_pred = multitask.mtgp_predict(solo, 0, Xs)
            worst = max(
                worst,
                float(np.max(np.abs(joint_pred.mean - solo_pred.mean))),
                float(np.max(np.abs(joint_pred.variance - solo_pred.variance))),
            )
    return CheckResult(
        "block-diagonal-equivalence", worst < 1e-8, f"max deviation {worst:.3e} (tol 1e-8)"
    )


def _check_gp_gradient(seed: int) -> CheckResult:
    worst = 0.0
    for i in range(5):
        rng = make_rng(seed, "chk-gp-grad", i)
        dim = int(rng.integers(1, 3))
        X = rng.uniform(0.0, 1.0, size=(5, dim))
        Y = rng.normal(size=5)

        def objective(vec):  # [log l_1, ..., log l_P, log s2, log noise]
            nat = np.exp(vec)
            kern = kernels.ScalarKernelSpec(kernels.SQUARED_EXPONENTIAL, nat[:dim], nat[dim])
            return gp.gp_log_marginal_likelihood(kern, nat[dim + 1], X, Y)

        point = rng.normal(0.0, 0.5, size=dim + 2)
        worst = max(worst, training.check_gradients(objective, point))
    return CheckResult(
        "gp-gradient-finite-difference", worst < 1e-4, f"max relative error {worst:.3e} (tol 1e-4)"
    )


def _check_mtgp_gradient(seed: int) -> CheckResult:
    worst = 0.0
    for i in range(5):
        rng = make_rng(seed, "chk-mt-grad", i)
        spec, dataset, noise = _random_mtgp_instance(rng, slfm=False)
        layout = multitask.ParameterLayout(spec, noise)

        def objective(vec):
            nat = layout.natural_batch(vec[None])[0]
            noise_v = nat[layout.group_slices[2]]
            return multitask.mtgp_log_marginal_likelihood(layout.spec_of(nat), noise_v, dataset)

        worst = max(worst, training.check_gradients(objective, layout.initial_vector()))
    return CheckResult(
        "mtgp-gradient-finite-difference", worst < 1e-4, f"max relative error {worst:.3e} (tol 1e-4)"
    )


def run_self_checks(seed: int = 0) -> list[CheckResult]:
    return [
        _check_gp_conditioning(seed),
        _check_mtgp_conditioning(seed),
        _check_kronecker(seed),
        _check_block_diagonal(seed),
        _check_gp_gradient(seed),
        _check_mtgp_gradient(seed),
    ]
