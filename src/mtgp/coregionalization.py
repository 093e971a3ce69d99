"""Task-covariance construction for multi-task kernels.

A multi-task kernel is a sum of Q latent components. Component q pairs a
D x D positive semidefinite task matrix

    B_q = W_q W_q^T + diag(gamma_q)

with a scalar input-space kernel k_q, giving the matrix-valued kernel

    K(x, x')[d, e] = sum_q B_q[d, e] * k_q(x, x').

The rank-one restriction (every W_q a single column, gamma_q = 0) is the
latent-factor special case used as the package default.

:func:`build_B` and :func:`assemble_joint_covariance` are the dense oracle
of ``mtgp check`` and the acceptance tests; the model itself assembles its
covariances in :mod:`mtgp.multitask`, where a spec enters a parameter layout
through :func:`~mtgp.multitask.spec_layout` and leaves it through
:meth:`~mtgp.multitask.ParameterLayout.spec_of`.
"""

from dataclasses import dataclass

import numpy as np

from .data import MultiTaskDataset
from .errors import ShapeError
from .kernels import ScalarKernelSpec, kernel_matrix


@dataclass(frozen=True, eq=False)
class CoregionalizationTerm:
    """One latent component: task loadings W (D x R), task-specific
    variances gamma (length D, non-negative), and the shared input kernel."""

    W: np.ndarray
    gamma: np.ndarray
    base_kernel: ScalarKernelSpec

    def __post_init__(self):
        W = np.asarray(self.W, dtype=float)
        if W.ndim == 1:
            W = W.reshape(-1, 1)
        if W.ndim != 2 or W.shape[0] == 0:
            raise ShapeError("W must be a D x R matrix with D >= 1")
        gamma = np.asarray(self.gamma, dtype=float).reshape(-1)
        if gamma.shape[0] != W.shape[0]:
            raise ShapeError(
                f"gamma has length {gamma.shape[0]} but W has {W.shape[0]} rows"
            )
        if not np.all(np.isfinite(W)) or not np.all(np.isfinite(gamma)):
            raise ValueError("W and gamma must be finite")
        if np.any(gamma < 0.0):
            raise ValueError("gamma entries must be non-negative")
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "gamma", gamma)

    @property
    def num_tasks(self) -> int:
        return self.W.shape[0]

    @property
    def rank(self) -> int:
        return self.W.shape[1]


@dataclass(frozen=True, eq=False)
class MultiTaskKernelSpec:
    """Ordered sum of Q coregionalization terms over D tasks."""

    num_tasks: int
    terms: tuple

    def __post_init__(self):
        terms = tuple(self.terms)
        if len(terms) == 0:
            raise ShapeError("need at least one coregionalization term")
        for q, term in enumerate(terms):
            if term.num_tasks != self.num_tasks:
                raise ShapeError(
                    f"term {q} covers {term.num_tasks} tasks, spec declares {self.num_tasks}"
                )
        dims = {term.base_kernel.input_dim for term in terms}
        if len(dims) != 1:
            raise ShapeError(f"terms disagree on input dimension: {sorted(dims)}")
        object.__setattr__(self, "terms", terms)

    @property
    def num_terms(self) -> int:
        return len(self.terms)

    @property
    def input_dim(self) -> int:
        return self.terms[0].base_kernel.input_dim


def build_B(term: CoregionalizationTerm) -> np.ndarray:
    """Task covariance ``W W^T + diag(gamma)``, symmetric PSD by construction."""
    B = term.W @ term.W.T + np.diag(term.gamma)
    return 0.5 * (B + B.T)


def assemble_joint_covariance(
    spec: MultiTaskKernelSpec, dataset: MultiTaskDataset
) -> np.ndarray:
    """Full joint prior covariance over all tasks, task-major ordering.

    Entry (i, j) is ``sum_q B_q[task_i, task_j] k_q(x_i, x_j)``, built term
    by term from :func:`build_B` and :func:`~mtgp.kernels.kernel_matrix`;
    for isotopic data this reproduces the Kronecker sum ``sum_q B_q (x) K_q``
    exactly. The model computes its covariances with
    :class:`~mtgp.multitask.ExactGPLayout`; this dense construction shares
    no code with it and serves as its oracle.
    """
    if dataset.num_tasks != spec.num_tasks:
        raise ShapeError(
            f"dataset has {dataset.num_tasks} tasks, kernel spec declares {spec.num_tasks}"
        )
    if dataset.input_dim != spec.input_dim:
        raise ShapeError(
            f"dataset input dimension {dataset.input_dim} != kernel's {spec.input_dim}"
        )
    X_all = dataset.stacked_inputs()
    tasks = dataset.task_indices()
    K = np.zeros((dataset.total_count, dataset.total_count))
    for term in spec.terms:
        K += build_B(term)[np.ix_(tasks, tasks)] * kernel_matrix(term.base_kernel, X_all, X_all)
    return K
