"""Exact single-task Gaussian process regression.

Fitting factorizes ``K_XX + noise*I`` once; prediction and the log marginal
likelihood reuse the Cholesky factor:

    mean(x*) = m + k(x*, X) alpha,            alpha = (K_XX + noise*I)^{-1} (Y - m)
    var(x*)  = k(x*, x*) - k(x*, X) (K_XX + noise*I)^{-1} k(X, x*)
    log p(Y) = -1/2 (Y-m)^T alpha - sum_i log L_ii - N/2 log(2 pi)
"""

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .coregionalization import CoregionalizationTerm, MultiTaskKernelSpec
from .data import MultiTaskDataset
from .errors import IllConditionedKernelError, ShapeError
from .kernels import ScalarKernelSpec
from .linalg import cholesky_with_jitter, chol_solve, tri_solve
from .multitask import NOISE_FLOOR, ExactGPLayout, ParameterLayout, PosteriorPrediction


@dataclass(eq=False)
class GPModel:
    """Immutable fitted state of a single-task GP."""

    kernel: ScalarKernelSpec
    noise_variance: float
    mean_const: float
    X: np.ndarray
    Y: np.ndarray
    L: np.ndarray
    alpha: np.ndarray
    jitter: float
    fit_info: dict | None = field(default=None, repr=False)

    @property
    def input_dim(self) -> int:
        return self.kernel.input_dim


def gp_fit(
    kernel: ScalarKernelSpec,
    noise_variance: float,
    X,
    Y,
    mean_const: float = 0.0,
) -> GPModel:
    """Fit the exact GP posterior to (X, Y).

    The noise variance is floored at ``NOISE_FLOOR``; a relative jitter is
    added before factorization and escalated on failure (see
    :mod:`mtgp.linalg`).
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    Y = np.asarray(Y, dtype=float).reshape(-1)
    if X.shape[0] != Y.shape[0]:
        raise ShapeError(f"{X.shape[0]} input rows but {Y.shape[0]} targets")
    if X.shape[0] < 1:
        raise ShapeError("need at least one training point")
    if not np.all(np.isfinite(Y)):
        raise ValueError("targets must be finite")
    noise = max(float(noise_variance), NOISE_FLOOR)
    K = kernels.kernel_matrix(kernel, X, X) + noise * np.eye(X.shape[0])
    L, jitter = cholesky_with_jitter(K)
    alpha = chol_solve(L, Y - mean_const)
    return GPModel(kernel, noise, float(mean_const), X, Y, L, alpha, jitter)


def gp_predict(model: GPModel, Xstar, full_cov: bool = False) -> PosteriorPrediction:
    """Posterior mean and variance (optionally full covariance) at Xstar."""
    Xstar = np.asarray(Xstar, dtype=float)
    if Xstar.ndim == 1:
        Xstar = Xstar.reshape(-1, 1)
    if Xstar.shape[1] != model.input_dim:
        raise ShapeError(
            f"query has {Xstar.shape[1]} columns, model expects {model.input_dim}"
        )
    if Xstar.shape[0] == 0:
        empty = np.zeros(0)
        return PosteriorPrediction(empty, empty.copy(), np.zeros((0, 0)) if full_cov else None)
    Kstar = kernels.kernel_matrix(model.kernel, Xstar, model.X)
    mean = model.mean_const + Kstar @ model.alpha
    V = tri_solve(model.L, Kstar.T)  # L^{-1} K_Xx*
    if full_cov:
        Kss = kernels.kernel_matrix(model.kernel, Xstar, Xstar)
        cov = Kss - V.T @ V
        cov = 0.5 * (cov + cov.T)
        variance = np.maximum(np.diag(cov).copy(), 0.0)
        np.fill_diagonal(cov, variance)
        return PosteriorPrediction(mean, variance, cov)
    variance = kernels.kernel_diag(model.kernel, Xstar) - np.sum(V**2, axis=0)
    return PosteriorPrediction(mean, np.maximum(variance, 0.0))


def _one_task_spec(kernel: ScalarKernelSpec) -> MultiTaskKernelSpec:
    return MultiTaskKernelSpec(1, (CoregionalizationTerm(np.ones((1, 1)), np.zeros(1), kernel),))


def gp_parameters(kernel: ScalarKernelSpec, noise_variance: float) -> ParameterLayout:
    """The single-task GP's parameters as the one-task, one-term layout.

    W is fixed at 1 and gamma at 0; the flat vector is
    ``[log l_1, ..., log l_P, log s2, log noise]``, and ``materialize``
    returns a one-term spec whose base kernel is the GP's kernel.
    """
    return ParameterLayout(
        _one_task_spec(kernel), [noise_variance], learn_W=False, learn_gamma=False
    )


def gp_layout(kernel: ScalarKernelSpec, noise_variance: float, X, Y) -> ExactGPLayout:
    """The exact-GP objective of :func:`gp_parameters` on the data (X, Y)."""
    return ExactGPLayout(
        _one_task_spec(kernel),
        [noise_variance],
        MultiTaskDataset((X,), (Y,)),
        learn_W=False,
        learn_gamma=False,
    )


def gp_log_marginal_likelihood(
    kernel: ScalarKernelSpec,
    noise_variance: float,
    X,
    Y,
    mean_const: float = 0.0,
) -> tuple[float, np.ndarray]:
    """Log marginal likelihood of Y and its gradient over log-parameters.

    The gradient is ordered ``[log l_1, ..., log l_P, log s2, log noise]``
    and uses the identity dL/dt = 1/2 tr((alpha alpha^T - K^{-1}) dK/dt);
    it is the B=1 case of the exact-GP core on :func:`gp_layout`.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    Y = np.asarray(Y, dtype=float).reshape(-1)
    if X.shape[0] != Y.shape[0]:
        raise ShapeError(f"{X.shape[0]} input rows but {Y.shape[0]} targets")
    batch = gp_layout(kernel, float(noise_variance), X, Y - mean_const).evaluate_template()
    if batch.errors:
        raise IllConditionedKernelError(batch.errors[0])
    return float(batch.values[0]), batch.grads[0]
