"""Shared test oracles and builders.

The oracles here are deliberately independent of the package's fast paths:
dense joint-Gaussian conditioning uses ``np.linalg.solve`` on the full joint
covariance, and the Kronecker construction uses ``np.kron`` directly.
"""

import collections

import numpy as np
import pytest

from mtgp.coregionalization import (
    CoregionalizationTerm,
    MultiTaskKernelSpec,
    build_B,
)
from mtgp.data import MultiTaskDataset
from mtgp.gp import _gp_layout
from mtgp.kernels import SQUARED_EXPONENTIAL, ScalarKernelSpec, kernel_matrix
from mtgp.multitask import ExactGPLayout, ParameterLayout, spec_layout
from mtgp.seeding import make_rng
from mtgp.training import FitJob, MTGPFamily, _fit_layout, train


def dense_gaussian_conditioning(joint, n_train, y_train):
    """Condition an (n_train + m)-point joint Gaussian on its first block."""
    K_tt = joint[:n_train, :n_train]
    K_st = joint[n_train:, :n_train]
    K_ss = joint[n_train:, n_train:]
    A = np.linalg.solve(K_tt, np.eye(n_train))
    mean = K_st @ A @ y_train
    cov = K_ss - K_st @ A @ K_st.T
    return mean, cov


def kronecker_joint(spec: MultiTaskKernelSpec, X: np.ndarray) -> np.ndarray:
    """Isotopic joint covariance via explicit Kronecker products."""
    n = X.shape[0]
    out = np.zeros((spec.num_tasks * n, spec.num_tasks * n))
    for term in spec.terms:
        out += np.kron(build_B(term), kernel_matrix(term.base_kernel, X, X))
    return out


def random_kernel(rng, dim=1, kind=SQUARED_EXPONENTIAL):
    return ScalarKernelSpec(
        kind, rng.uniform(0.3, 1.5, size=dim), float(rng.uniform(0.5, 2.0))
    )


def random_mtgp_spec(rng, num_tasks, num_terms=2, dim=1, with_gamma=False):
    terms = []
    for _ in range(num_terms):
        W = rng.normal(0.0, 0.7, size=(num_tasks, 1))
        gamma = rng.uniform(0.05, 0.3, size=num_tasks) if with_gamma else np.zeros(num_tasks)
        terms.append(CoregionalizationTerm(W, gamma, random_kernel(rng, dim)))
    return MultiTaskKernelSpec(num_tasks, tuple(terms))


def random_dataset(rng, num_tasks, dim=1, max_per_task=3, min_per_task=1):
    counts = rng.integers(min_per_task, max_per_task + 1, size=num_tasks)
    return MultiTaskDataset(
        tuple(rng.uniform(0.0, 1.0, size=(int(c), dim)) for c in counts),
        tuple(rng.normal(size=int(c)) for c in counts),
    )


def spec_parameter_layout(spec, noise_variances, learn_W=True, learn_gamma=True) -> ParameterLayout:
    """The layout of ``spec`` and ``noise_variances`` where no data is at hand
    (:func:`spec_layout` on one zero row per task)."""
    rows = tuple(np.zeros((1, spec.input_dim)) for _ in range(spec.num_tasks))
    dataset = MultiTaskDataset(rows, tuple(np.zeros(1) for _ in rows))
    return spec_layout(spec, noise_variances, dataset, learn_W, learn_gamma)


def gp_parameter_layout(kernel: ScalarKernelSpec, noise_variance: float) -> ParameterLayout:
    """The single-task GP's parameters ``[log l..., log s2, log noise]``."""
    return gp_exact_layout(kernel, noise_variance, np.zeros((1, kernel.input_dim)), np.zeros(1))


def gp_exact_layout(kernel: ScalarKernelSpec, noise_variance: float, X, Y) -> ExactGPLayout:
    """The single-task GP's exact-GP objective on (X, Y): the one-task,
    one-term layout with W fixed at 1 and gamma at 0."""
    return _gp_layout(kernel, noise_variance, X, Y, 0.0)


def materialize(layout: ParameterLayout, vector):
    """The kernel spec and noise vector of one flat parameter vector of ``layout``."""
    nat = layout.natural_batch(np.asarray(vector)[None])[0]
    return layout.spec_of(nat), nat[layout.group_slices[2]].copy()


def family_template(family, dataset: MultiTaskDataset):
    """The kernel spec and noise vector training starts ``family`` from on
    ``dataset``'s own targets; learned loadings W are 1 (training draws them)."""
    layout = _fit_layout(dataset, family, standardize=False)[0]
    return layout.spec_of(layout.template), layout.template[layout.group_slices[2]].copy()


def train_alone(dataset, config, family=MTGPFamily(), standardize=True, trace=None):
    """The model of one :class:`FitJob` on ``dataset``, seeded by
    ``config.seed``, trained on its own."""
    return train([FitJob(dataset, config.seed, family, standardize)], config, trace)[0]


def train_gp_alone(X, Y, config, kernel_kind=SQUARED_EXPONENTIAL, standardize=True):
    """:func:`train_alone` of the gp family on the one-task data ``(X, Y)``."""
    family = MTGPFamily("gp", kernel_kind)
    return train_alone(MultiTaskDataset((X,), (Y,)), config, family, standardize)


@pytest.fixture
def rng():
    return make_rng("tests", 0)


@pytest.fixture
def build_counts(monkeypatch):
    """A Counter of the parameter layouts (``layouts``), kernel specs
    (``specs``) and datasets (``datasets``) built from here on."""
    counts = collections.Counter()
    watched = [
        (ParameterLayout, "__init__", "layouts"),
        (MultiTaskKernelSpec, "__post_init__", "specs"),
        (MultiTaskDataset, "__post_init__", "datasets"),
    ]
    for owner, name, key in watched:

        def counted(*args, _function=getattr(owner, name), _key=key, **kwargs):
            counts[_key] += 1
            return _function(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return counts
