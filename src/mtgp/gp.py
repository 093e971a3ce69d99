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
from .data import MultiTaskDataset
from .errors import IllConditionedKernelError
from .kernels import ScalarKernelSpec
from .multitask import ExactGPLayout, MTGPModel, _condition, spec_layout


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
    return _condition(_gp_layout(kernel, noise_variance, X, Y, mean_const), False)


def _gp_layout(kernel: ScalarKernelSpec, noise_variance, X, Y, mean_const) -> ExactGPLayout:
    """The GP's own layout on (X, Y): one task, one term with W fixed at 1
    and gamma at 0, whose working targets are ``Y - mean_const``."""
    spec = MultiTaskKernelSpec(1, (CoregionalizationTerm(np.ones((1, 1)), np.zeros(1), kernel),))
    layout = spec_layout(spec, [noise_variance], MultiTaskDataset((X,), (Y,)), False, False)
    return layout.scale(np.array([float(mean_const)]), np.ones(1))


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
    batch = _gp_layout(kernel, noise_variance, X, Y, mean_const).evaluate_template()
    if batch.errors:
        raise IllConditionedKernelError(batch.errors[0])
    return float(batch.values[0]), batch.grads[0]
