"""Exact multi-task Gaussian process regression over heterotopic data.

The joint prior over all observations (task-major order) has covariance
``sum_q B_q[task_i, task_j] k_q(x_i, x_j)``; observation noise adds a
block-diagonal ``noise_d`` on each task's rows. Posterior inference is the
standard Gaussian conditioning on that joint matrix, so predictions for one
task borrow strength from every coupled task.

Targets are standardized per task inside fitting by default (tasks often
live in wildly different units); statistics are stored on the model and
inverted at prediction time. Pass ``standardize=False`` to work in raw units.

The joint covariance has one assembly, on the flat parameter vectors of
:class:`ExactGPLayout` (a :class:`ParameterLayout`, the package's one
flat-vector conversion). Training runs it, with the log marginal likelihood
and its gradient, on all restarts at once, and a :class:`LayoutStack` runs it
on the restarts of many same-shape fits at once; both likelihood functions
(this module's and :mod:`mtgp.gp`'s) are its B=1 case, and fitting and
prediction (here and in :mod:`mtgp.gp`) use it on the fitted parameters.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import kernels
from .coregionalization import CoregionalizationTerm, MultiTaskKernelSpec
from .data import MultiTaskDataset, standardize_targets
from .errors import IllConditionedKernelError, ShapeError
from .linalg import (
    cholesky_batch,
    cholesky_inverse_batch,
    cholesky_with_jitter,
    chol_solve,
    tri_solve,
)

NOISE_FLOOR = 1e-10


@dataclass(eq=False)
class PosteriorPrediction:
    """Posterior mean and variance per query point; variance is clamped at 0.

    ``covariance`` is populated only when the full posterior covariance was
    requested; its diagonal then equals ``variance``.
    """

    mean: np.ndarray
    variance: np.ndarray
    covariance: np.ndarray | None = None

    @property
    def stddev(self) -> np.ndarray:
        return np.sqrt(self.variance)


@dataclass(eq=False)
class MTGPModel:
    """Immutable fitted state of a multi-task GP."""

    kernel: MultiTaskKernelSpec
    noise_variances: np.ndarray
    dataset: MultiTaskDataset
    task_means: np.ndarray
    task_stds: np.ndarray
    L: np.ndarray
    weights: np.ndarray
    jitter: float
    layout: "ExactGPLayout" = field(repr=False)
    standardized: bool = True
    fit_info: dict | None = field(default=None, repr=False)

    @property
    def num_tasks(self) -> int:
        return self.kernel.num_tasks

    @property
    def input_dim(self) -> int:
        return self.kernel.input_dim


def _noise_vector(noise_variances, num_tasks: int) -> np.ndarray:
    noise = np.asarray(noise_variances, dtype=float).reshape(-1)
    if noise.shape[0] != num_tasks:
        raise ShapeError(f"expected {num_tasks} noise variances, got {noise.shape[0]}")
    return noise


def mtgp_fit(
    kernel: MultiTaskKernelSpec,
    noise_variances,
    dataset: MultiTaskDataset,
    standardize: bool = True,
) -> MTGPModel:
    """Factorize the joint covariance and solve for the weight vector.

    Noise variances are floored at ``NOISE_FLOOR``. With ``standardize=True``
    the factorization happens in per-task standardized target units. The
    covariance is the B=1 assembly of :class:`ExactGPLayout`, the one the
    training objective uses.
    """
    noise = np.maximum(_noise_vector(noise_variances, kernel.num_tasks), NOISE_FLOOR)
    if standardize:
        work, means, stds = standardize_targets(dataset)
    else:
        work = dataset
        means = np.zeros(dataset.num_tasks)
        stds = np.ones(dataset.num_tasks)
    layout = ExactGPLayout(kernel, noise, work)
    K, _ = _assemble(layout, layout.sqdiff, *(b.value[None] for b in layout.blocks))
    L, jitter = cholesky_with_jitter(K[0])
    weights = chol_solve(L, layout.y)
    return MTGPModel(
        kernel, noise, dataset, means, stds, L, weights, jitter, layout, standardized=standardize
    )


def mtgp_predict(
    model: MTGPModel, task: int, Xstar, full_cov: bool = False
) -> PosteriorPrediction:
    """Posterior mean/variance for one task at query points Xstar."""
    if not 0 <= task < model.num_tasks:
        raise ShapeError(f"task {task} out of range for D={model.num_tasks}")
    Xstar = np.asarray(Xstar, dtype=float)
    if Xstar.ndim == 1:
        Xstar = Xstar.reshape(-1, 1)
    if Xstar.shape[1] != model.input_dim:
        raise ShapeError(
            f"query has {Xstar.shape[1]} columns, model expects {model.input_dim}"
        )
    mu, s = model.task_means[task], model.task_stds[task]
    if Xstar.shape[0] == 0:
        empty = np.zeros(0)
        return PosteriorPrediction(empty, empty.copy(), np.zeros((0, 0)) if full_cov else None)
    Kstar, prior = model.layout.cross_covariance(task, Xstar, full_cov)
    mean = mu + s * (Kstar @ model.weights)
    V = tri_solve(model.L, Kstar.T)
    if full_cov:
        cov = (prior - V.T @ V) * s**2
        cov = 0.5 * (cov + cov.T)
        variance = np.maximum(np.diag(cov).copy(), 0.0)
        np.fill_diagonal(cov, variance)
        return PosteriorPrediction(mean, variance, cov)
    variance = (prior - np.sum(V**2, axis=0)) * s**2
    return PosteriorPrediction(mean, np.maximum(variance, 0.0))


def mtgp_parameter_names(spec: MultiTaskKernelSpec) -> list[str]:
    """Canonical order of all transformed parameters, matching the gradient
    returned by :func:`mtgp_log_marginal_likelihood`.

    Per term q: the base kernel's log-parameters, then W entries row-major,
    then log-gamma per task; finally log-noise per task.
    """
    names: list[str] = []
    for q, term in enumerate(spec.terms):
        for kname in kernels.log_param_names(term.base_kernel):
            names.append(f"term{q}.{kname}")
        for d in range(term.num_tasks):
            for r in range(term.rank):
                names.append(f"term{q}.W[{d},{r}]")
        for d in range(term.num_tasks):
            names.append(f"term{q}.log_gamma{d}")
    for d in range(spec.num_tasks):
        names.append(f"log_noise{d}")
    return names


# ---------------------------------------------------------------------------
# The exact-GP objective: log marginal likelihood and gradient, batched
# ---------------------------------------------------------------------------


class LMLBatch(NamedTuple):
    """Log marginal likelihoods and flat gradients of B parameter vectors.

    ``escalated`` flags rows whose Cholesky factorization needed more than
    the base jitter; ``errors`` maps each row whose factorization failed even
    at the maximum jitter to its message (its value and gradient are NaN).
    """

    values: np.ndarray
    grads: np.ndarray
    escalated: np.ndarray
    errors: dict


class _BatchData(NamedTuple):
    """The data of a batch's rows, as :func:`_lml_batch` reads them.

    ``sqdiff`` is the per-dimension squared differences, (P, N*N) when every
    row shares one dataset, else (B, P, N*N) per row; ``y`` likewise (N,) or
    (B, N). ``fits`` lists ``(rows, y)`` per fit: the slice of consecutive
    batch rows that belong to one dataset, and its targets (N,).
    """

    sqdiff: np.ndarray
    y: np.ndarray
    fits: list


class _Block(NamedTuple):
    """One parameter group: template values and where the learned entries sit.

    ``index`` holds the flat positions of the learned entries (shaped like
    ``value`` when every entry is learned, else listed in C order of
    ``mask``); ``None`` means the group is fixed at ``value``.
    """

    value: np.ndarray
    index: np.ndarray | None
    mask: np.ndarray | None
    log: bool

    def natural(self, X: np.ndarray) -> np.ndarray:
        """Natural values for each row of the flat batch X, shape (B, *value.shape)."""
        if self.index is None:
            return np.broadcast_to(self.value, (X.shape[0],) + self.value.shape)
        raw = X[:, self.index]
        if self.log:
            raw = np.exp(raw)
        if self.mask is None:
            return raw
        out = np.repeat(self.value[None], X.shape[0], axis=0)
        out[:, self.mask] = raw
        return out

    def scatter(self, grads: np.ndarray, g: np.ndarray):
        """Write the learned entries of the group gradient g into flat grads."""
        if self.index is not None:
            grads[:, self.index] = g if self.mask is None else g[:, self.mask]

    def flat(self, vector: np.ndarray):
        """Write the template's transformed learned values into a flat vector."""
        if self.index is not None:
            with np.errstate(divide="ignore"):
                v = np.log(self.value) if self.log else self.value  # gamma 0 -> -inf
            vector[self.index] = v if self.mask is None else v[self.mask]


class ParameterLayout:
    """Flat parameter vector <-> (kernel spec, noise vector) of one model shape.

    Built from a template kernel spec and noise vector. The flat vector is
    the learned subset of :func:`mtgp_parameter_names`, in that order:
    log-lengthscales (Q, P), log-signal-variances (Q,) and log-noise (D,)
    always, W (Q, D, R) when ``learn_W`` and log-gamma (Q, D) when
    ``learn_gamma``. W is untransformed; a zero gamma is ``-inf``. Groups
    not learned keep the template's values.

    The single-task GP is the one-task, one-term case with W fixed at 1 and
    gamma at 0, whose flat vector is ``[log l..., log s2, log noise]``.
    """

    def __init__(
        self,
        spec: MultiTaskKernelSpec,
        noise_variances,
        learn_W: bool = True,
        learn_gamma: bool = True,
    ):
        noise = _noise_vector(noise_variances, spec.num_tasks)
        Q, D, P = spec.num_terms, spec.num_tasks, spec.input_dim
        self.ranks = [t.rank for t in spec.terms]
        R = max(self.ranks)
        W = np.zeros((Q, D, R))
        W_mask = np.zeros((Q, D, R), dtype=bool)
        ls_index = np.empty((Q, P), dtype=int)
        s2_index = np.empty(Q, dtype=int)
        gamma_index = np.empty((Q, D), dtype=int)
        W_index = []
        pos = 0
        for q, term in enumerate(spec.terms):
            W[q, :, : term.rank] = term.W
            ls_index[q] = np.arange(pos, pos + P)
            s2_index[q] = pos + P
            pos += P + 1
            if learn_W:
                W_mask[q, :, : term.rank] = True
                W_index.extend(range(pos, pos + D * term.rank))
                pos += D * term.rank
            if learn_gamma:
                gamma_index[q] = np.arange(pos, pos + D)
                pos += D
        noise_index = np.arange(pos, pos + D)
        self.size = pos + D
        if not learn_W:
            W_block = _Block(W, None, None, False)
        elif W_mask.all():
            W_block = _Block(W, np.asarray(W_index).reshape(Q, D, R), None, False)
        else:
            W_block = _Block(W, np.asarray(W_index), W_mask, False)
        ls = np.array([t.base_kernel.lengthscales for t in spec.terms])
        s2 = np.array([t.base_kernel.signal_variance for t in spec.terms])
        gamma = np.array([t.gamma for t in spec.terms])
        self.blocks = (
            _Block(ls, ls_index, None, True),
            _Block(s2, s2_index, None, True),
            W_block,
            _Block(gamma, gamma_index if learn_gamma else None, None, True),
            _Block(noise, noise_index, None, True),
        )
        self.has_gamma = learn_gamma or bool(np.any(gamma))
        self.is_W = np.zeros(self.size, dtype=bool)
        self.is_W[W_index] = True
        self.kinds = [t.base_kernel.kind for t in spec.terms]
        self.num_tasks = D

    def initial_vector(self) -> np.ndarray:
        """The template's learned parameters as a flat vector."""
        vector = np.empty(self.size)
        for block in self.blocks:
            block.flat(vector)
        return vector

    def materialize(self, vector: np.ndarray) -> tuple[MultiTaskKernelSpec, np.ndarray]:
        """Kernel spec and noise vector of one flat parameter vector."""
        ls, s2, W, gamma, noise = (b.natural(np.asarray(vector)[None])[0] for b in self.blocks)
        terms = tuple(
            CoregionalizationTerm(
                W[q, :, :rank],
                gamma[q],
                kernels.ScalarKernelSpec(self.kinds[q], ls[q], float(s2[q])),
            )
            for q, rank in enumerate(self.ranks)
        )
        return MultiTaskKernelSpec(self.num_tasks, terms), np.array(noise)


class ExactGPLayout(ParameterLayout):
    """The parameter layout plus the fixed data of the exact-GP objective.

    Built once per fit from a template kernel, noise vector and dataset. On
    top of :class:`ParameterLayout` it holds the training inputs, their
    per-dimension squared differences, the task one-hot and the targets, so
    evaluating a batch builds no Python objects. :func:`_assemble` is the
    package's one joint-covariance assembly: the objective runs it on a
    batch, :func:`mtgp_fit` on the template, and :meth:`cross_covariance`
    extends it to query rows.
    """

    def __init__(
        self,
        spec: MultiTaskKernelSpec,
        noise_variances,
        dataset: MultiTaskDataset,
        learn_W: bool = True,
        learn_gamma: bool = True,
    ):
        if dataset.num_tasks != spec.num_tasks:
            raise ShapeError(
                f"dataset has {dataset.num_tasks} tasks, kernel spec declares {spec.num_tasks}"
            )
        if dataset.input_dim != spec.input_dim:
            raise ShapeError(
                f"dataset input dimension {dataset.input_dim} != kernel's {spec.input_dim}"
            )
        super().__init__(spec, noise_variances, learn_W, learn_gamma)
        Q, D, P = spec.num_terms, spec.num_tasks, spec.input_dim
        self.kind_groups = [
            (kind, np.asarray([q for q in range(Q) if self.kinds[q] == kind]))
            for kind in sorted(set(self.kinds))
        ]
        self.X = dataset.stacked_inputs()
        N = self.X.shape[0]
        diff = self.X[:, None, :] - self.X[None, :, :]
        self.sqdiff = np.ascontiguousarray((diff**2).reshape(N * N, P).T)  # (P, N*N)
        self.tasks = dataset.task_indices()
        self.pair_index = self.tasks[:, None] * D + self.tasks[None, :]  # into flat (D, D)
        self.onehot = np.zeros((N, D))
        self.onehot[np.arange(N), self.tasks] = 1.0
        self.y = dataset.stacked_targets()
        self.shape = (Q, D, P, N)
        self.data = _BatchData(self.sqdiff, self.y, [(slice(None), self.y)])

    def evaluate(self, X: np.ndarray, rows=None) -> LMLBatch:
        """Log marginal likelihood and flat gradient for each row of X (B, size).

        ``rows`` (the restart indices :func:`~mtgp.training.adam_maximize`
        passes) is not needed: every row belongs to this layout's dataset.
        """
        X = np.asarray(X, dtype=float)
        return self._evaluate_natural([b.natural(X) for b in self.blocks], self.data)

    def evaluate_template(self) -> LMLBatch:
        """The B=1 batch of the template's own parameters, with no transform round trip."""
        return self._evaluate_natural([b.value[None] for b in self.blocks], self.data)

    def _evaluate_natural(self, params, data: _BatchData) -> LMLBatch:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            values, group_grads, escalated, errors = _lml_batch(self, data, *params)
        grads = np.empty((values.shape[0], self.size))
        for block, g in zip(self.blocks, group_grads):
            block.scatter(grads, g)
        if errors:
            grads[list(errors)] = np.nan
        return LMLBatch(values, grads, escalated, errors)

    def cross_covariance(
        self, task: int, Xstar: np.ndarray, full_cov: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Template prior covariances of task ``task`` at the query rows Xstar (M, P).

        Returns ``K(X*, X)`` (M, N) against the training rows, and ``K(X*, X*)``
        (M, M) when ``full_cov``, else its diagonal, the prior variance (M,).
        Terms are added one at a time, so a large query never holds a
        (Q, M, N) stack.
        """
        ls, s2, W, gamma, _ = (b.value for b in self.blocks)
        Bq = _task_covariances(self, W[None], gamma[None])[0]
        Kstar = np.zeros((Xstar.shape[0], self.X.shape[0]))
        prior = np.zeros((Xstar.shape[0],) * (2 if full_cov else 1))
        for q, kind in enumerate(self.kinds):
            inv_ls2 = ls[q] ** -2.0
            coeffs = Bq[q, task, self.tasks]
            if np.any(coeffs != 0.0):
                sq = _scaled_sq_dists(Xstar, self.X, inv_ls2)
                Kstar += s2[q] * kernels.kernel_profile(kind, sq)[0] * coeffs
            if Bq[q, task, task] == 0.0:
                continue
            if full_cov:
                sq = _scaled_sq_dists(Xstar, Xstar, inv_ls2)
                prior += Bq[q, task, task] * (s2[q] * kernels.kernel_profile(kind, sq)[0])
            else:
                prior += Bq[q, task, task] * s2[q]
        return Kstar, prior


class LayoutStack:
    """Same-shape exact-GP layouts evaluated as one batch.

    Each layout holds one dataset and its fit's template; all share the
    model shape, the task pattern (rows per task) and the template values of
    every parameter group they do not learn, so one flat vector means the
    same parameters under each. Row i of the batch's initial vectors belongs
    to layout ``owner[i]``: ``rows_per_layout`` consecutive rows each. The
    data is stacked, ``sqdiff`` (F, P, N*N) and ``y`` (F, N), and
    :meth:`evaluate` picks each running row's dataset by its row index.

    Every row's value and gradient are bitwise those of its layout's own
    :meth:`ExactGPLayout.evaluate` on that fit's running rows. numpy takes
    BLAS or its own loop for the small parameter products by the memory
    layout of the natural parameters, which differs between a batch of one
    row and of several; so the rows of fits down to their last running row
    are evaluated apart, in the one-row layout.
    """

    def __init__(self, layouts, rows_per_layout: int):
        first = layouts[0]
        for layout in layouts[1:]:
            _require_same_shape(first, layout)
        self.layout = first
        self.sqdiff = np.stack([layout.sqdiff for layout in layouts])
        self.y = np.stack([layout.y for layout in layouts])
        self.owner = np.repeat(np.arange(len(layouts)), rows_per_layout)

    def evaluate(self, X: np.ndarray, rows: np.ndarray) -> LMLBatch:
        """Log marginal likelihood and flat gradient of X (B, size), row b of
        which is initial row ``rows[b]`` (ascending)."""
        X = np.asarray(X, dtype=float)
        owner = self.owner[rows]
        alone = np.bincount(owner)[owner] == 1
        if alone.all() or not alone.any():
            return self._evaluate(X, owner, alone.all())
        parts = [np.flatnonzero(~alone), np.flatnonzero(alone)]
        batches = [self._evaluate(X[p], owner[p], one) for p, one in zip(parts, (False, True))]
        values, grads = np.empty(owner.size), np.empty((owner.size, X.shape[1]))
        escalated, errors = np.empty(owner.size, dtype=bool), {}
        for p, batch in zip(parts, batches):
            values[p], grads[p], escalated[p] = batch.values, batch.grads, batch.escalated
            errors.update({int(p[i]): message for i, message in batch.errors.items()})
        return LMLBatch(values, grads, escalated, errors)

    def _evaluate(self, X, owner, one_row: bool) -> LMLBatch:
        params = [b.natural(X) for b in self.layout.blocks]
        if one_row:
            params = [np.ascontiguousarray(p) for p in params]
        starts = np.flatnonzero(np.diff(owner, prepend=-1))
        ends = np.append(starts[1:], owner.size)
        fits = [(slice(a, b), self.y[owner[a]]) for a, b in zip(starts, ends)]
        data = _BatchData(self.sqdiff[owner], self.y[owner], fits)
        return self.layout._evaluate_natural(params, data)


def _require_same_shape(a: ExactGPLayout, b: ExactGPLayout):
    """Raise ShapeError unless one flat vector means the same model under a and b."""
    if a.shape != b.shape or a.size != b.size or a.kinds != b.kinds or a.ranks != b.ranks:
        raise ShapeError(
            f"layouts of one batch must share a model shape: (Q, D, P, N) {a.shape} "
            f"with {a.size} parameters vs {b.shape} with {b.size}"
        )
    if not np.array_equal(a.tasks, b.tasks):
        raise ShapeError("layouts of one batch must share the rows per task")
    for x, y in zip(a.blocks, b.blocks):
        if x.index is None or y.index is None:
            same = x.index is y.index and np.array_equal(x.value, y.value)
        else:
            same = np.array_equal(x.index, y.index) and (
                x.mask is None or np.array_equal(x.value, y.value)  # entries kept at the template
            )
        if not same:
            raise ShapeError("layouts of one batch must learn and fix the same parameters")


def _scaled_sq_dists(A: np.ndarray, B: np.ndarray, inv_ls2: np.ndarray) -> np.ndarray:
    """``sum_p (A_ip - B_jp)^2 / l_p^2`` for row sets A (M, P) and B (N, P).

    Summed one input dimension at a time, so a large query holds (M, N)
    arrays only, never an (M, N, P) one.
    """
    sq = np.zeros((A.shape[0], B.shape[0]))
    for p, w in enumerate(inv_ls2):
        d = A[:, p, None] - B[None, :, p]
        d *= d
        d *= w
        sq += d
    return sq


def _task_covariances(layout: ExactGPLayout, W, gamma) -> np.ndarray:
    """``B_q = W_q W_q^T + diag(gamma_q)`` for W (B,Q,D,R) and gamma (B,Q,D)."""
    D = layout.num_tasks
    Bq = W @ W.swapaxes(-1, -2)
    if layout.has_gamma:
        Bq.reshape(Bq.shape[:2] + (D * D,))[..., :: D + 1] += gamma
    return Bq


def _assemble(layout: ExactGPLayout, sqdiff, ls, s2, W, gamma, noise):
    """Joint covariance ``K`` (B, N, N) of a batch of natural parameters.

    Scaled squared distances go through :func:`~mtgp.kernels.kernel_profile`,
    each term is weighted by its ``B_q`` task mask, and the per-task noise
    lands on the diagonal. ``sqdiff`` is the layout's (P, N*N) or one per
    row, (B, P, N*N); other shapes as in :func:`_lml_batch`. Also returns the
    per-term pieces the gradient reuses: ``(inv_ls2, unit, slope, Bq, mask,
    Kq)``, where ``slope is unit`` for SE.
    """
    Q, D, P, N = layout.shape
    B = ls.shape[0]
    inv_ls2 = ls**-2.0
    sq = (inv_ls2 @ sqdiff).reshape(B, Q, N, N)
    if len(layout.kind_groups) == 1:
        unit, slope = kernels.kernel_profile(layout.kind_groups[0][0], sq)
    else:
        unit, slope = np.empty_like(sq), np.empty_like(sq)
        for kind, qs in layout.kind_groups:
            unit[:, qs], slope[:, qs] = kernels.kernel_profile(kind, sq[:, qs])
    Bq = _task_covariances(layout, W, gamma)
    mask = np.take(Bq.reshape(B, Q, D * D), layout.pair_index, axis=-1)
    Kq = s2[..., None, None] * unit
    K = (mask * Kq).sum(axis=1)
    K.reshape(B, N * N)[:, :: N + 1] += noise[:, layout.tasks]
    return K, (inv_ls2, unit, slope, Bq, mask, Kq)


def _lml_batch(layout: ExactGPLayout, data: _BatchData, ls, s2, W, gamma, noise):
    """Value and per-group gradients of the joint log marginal likelihood.

    Natural parameters carry a leading batch axis B: ls (B,Q,P), s2 (B,Q),
    W (B,Q,D,R), gamma (B,Q,D), noise (B,D); ``data`` holds the rows' data.
    Every operation acts row by row, except the two products that BLAS
    computes across rows (the quadratic term and the noise gradient); those
    run per fit, so a row's result does not depend on the other fits sharing
    its batch. With ``M = alpha alpha^T - K^{-1}``
    every derivative is ``1/2 tr(M dK/dt)``; per term, ``T = E^T (M * K_q) E``
    sums M * K_q over task blocks, so dL/dW = T W, dL/d(log gamma) =
    gamma diag(T) / 2 and dL/d(log s2) = sum(B_q * T) / 2. Gradients of
    positive parameters are in log space.
    """
    Q, D, P, N = layout.shape
    B = ls.shape[0]
    K, parts = _assemble(layout, data.sqdiff, ls, s2, W, gamma, noise)
    inv_ls2, unit, slope, Bq, mask, Kq = parts

    L, escalated, errors = cholesky_batch(K)
    if errors:
        L[list(errors)] = np.eye(N)
    Kinv = cholesky_inverse_batch(L)
    alpha = (Kinv @ data.y[..., None])[..., 0]
    logdet = 2.0 * np.log(L.reshape(B, N * N)[:, :: N + 1]).sum(axis=1)
    quadratic = np.concatenate([alpha[fit] @ y for fit, y in data.fits])
    values = -0.5 * quadratic - 0.5 * logdet - 0.5 * N * np.log(2.0 * np.pi)
    if errors:
        values[list(errors)] = np.nan

    M = alpha[:, :, None] * alpha[:, None, :] - Kinv
    MK = M[:, None] * Kq
    T = layout.onehot.T @ MK @ layout.onehot
    # G = M * dK/d(log l_p) without the (d_p / l_p)^2 factor; slope is unit for SE
    G = MK * mask if slope is unit else (M[:, None] * mask) * (s2[..., None, None] * slope)
    g_ls = 0.5 * inv_ls2 * (G.reshape(B, Q, N * N) @ data.sqdiff.swapaxes(-1, -2))
    g_s2 = 0.5 * (Bq * T).sum(axis=(-2, -1))
    g_W = T @ W
    g_gamma = 0.5 * gamma * T.reshape(B, Q, D * D)[..., :: D + 1]
    M_diag = M.reshape(B, N * N)[:, :: N + 1]
    g_noise = 0.5 * noise * np.concatenate([M_diag[fit] @ layout.onehot for fit, _ in data.fits])
    return values, (g_ls, g_s2, g_W, g_gamma, g_noise), escalated, errors


def mtgp_log_marginal_likelihood(
    kernel: MultiTaskKernelSpec,
    noise_variances,
    dataset: MultiTaskDataset,
) -> tuple[float, np.ndarray]:
    """Joint log marginal likelihood and its full parameter gradient.

    The value is the log density of the stacked targets under the joint
    prior plus block-diagonal noise, with the Gaussian constant using the
    total observation count. Gradient order follows
    :func:`mtgp_parameter_names`; gamma gradients are reported in log-space
    (zero whenever gamma is pinned at zero). This is the B=1 case of
    :class:`ExactGPLayout` with every parameter learned.
    """
    batch = ExactGPLayout(kernel, noise_variances, dataset).evaluate_template()
    if batch.errors:
        raise IllConditionedKernelError(batch.errors[0])
    return float(batch.values[0]), batch.grads[0]
