"""Exact single-task Gaussian process regression, the one-task multi-task GP.

A GP with kernel k and noise variance n is the one-task, one-term MTGP with
W = 1 and gamma = 0, so fitting, prediction and the log marginal likelihood
all run on the layout's covariance assembly in :mod:`mtgp.multitask`, and a
fitted GP is a one-task :class:`~mtgp.multitask.MTGPModel`:

    mean(x*) = m + k(x*, X) alpha,            alpha = (K_XX + noise*I)^{-1} (Y - m)
    var(x*)  = k(x*, x*) - k(x*, X) (K_XX + noise*I)^{-1} k(X, x*)
    log p(Y) = -1/2 (Y-m)^T alpha - sum_i log L_ii - N/2 log(2 pi)
"""

import numpy as np

from .coregionalization import CoregionalizationTerm, MultiTaskKernelSpec
from .data import MultiTaskDataset, scale_targets
from .errors import IllConditionedKernelError
from .kernels import ScalarKernelSpec
from .multitask import ExactGPLayout, MTGPModel, _condition


def gp_fit(
    kernel: ScalarKernelSpec,
    noise_variance: float,
    X,
    Y,
    mean_const: float = 0.0,
) -> MTGPModel:
    """Fit the exact GP posterior to (X, Y) as the one-task, one-term MTGP.

    The model conditions on ``Y - mean_const`` (its task mean, with task
    std 1) and predicts with ``mtgp_predict(model, 0, Xstar)``. The noise
    variance is floored at ``NOISE_FLOOR``; a relative jitter is added
    before factorization and escalated on failure (see :mod:`mtgp.linalg`).
    """
    dataset = MultiTaskDataset((X,), (Y,))
    means, stds = np.array([float(mean_const)]), np.ones(1)
    work = scale_targets(dataset, means, stds)
    layout = ExactGPLayout(_one_task_spec(kernel), [noise_variance], work)
    return _condition(layout, dataset, means, stds, False)


def _one_task_spec(kernel: ScalarKernelSpec) -> MultiTaskKernelSpec:
    return MultiTaskKernelSpec(1, (CoregionalizationTerm(np.ones((1, 1)), np.zeros(1), kernel),))


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
    it is the B=1 case of the exact-GP core on the one-task, one-term
    layout with W fixed at 1 and gamma at 0.
    """
    Y = np.asarray(Y, dtype=float).reshape(-1)
    layout = ExactGPLayout(
        _one_task_spec(kernel),
        [float(noise_variance)],
        MultiTaskDataset((X,), (Y - mean_const,)),
        learn_W=False,
        learn_gamma=False,
    )
    batch = layout.evaluate_template()
    if batch.errors:
        raise IllConditionedKernelError(batch.errors[0])
    return float(batch.values[0]), batch.grads[0]
