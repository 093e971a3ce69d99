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
and its gradient, through a :class:`LayoutStack`: all restarts of one or many
same-shape fits at once. Each row of a batch is computed on its own (no
product runs across rows), so a restart's value and gradient are bitwise the
same whichever rows run beside it. Both likelihood functions (this module's
and :mod:`mtgp.gp`'s) are its B=1 case, and fitting and prediction use it on
the fitted parameters. Training and fitting factorize with the one jitter
policy of :func:`~mtgp.linalg.cholesky_batch`. A single-task GP is the
one-task, one-term :class:`MTGPModel` (:func:`~mtgp.gp.gp_fit`), predicted
with ``mtgp_predict(model, 0, X)``.
"""

import functools
import itertools
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import kernels
from .coregionalization import CoregionalizationTerm, MultiTaskKernelSpec
from .data import MultiTaskDataset, working_targets
from .errors import IllConditionedKernelError, ShapeError
from .linalg import BASE_JITTER_REL, cholesky_batch, cholesky_inverse_batch, chol_solve, tri_solve

NOISE_FLOOR = 1e-10
_DOUBLE_MAX = np.finfo(float).max


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
    """Immutable fitted state of a multi-task GP, or of a single-task GP as
    its one-task, one-term case (:func:`~mtgp.gp.gp_fit`). It is conditioned
    on the targets ``(Y_d - task_means_d) / task_stds_d`` of ``dataset``.

    Its fitted parameters are ``layout.template``; ``kernel``,
    ``noise_variances`` and ``prior_terms`` are read off them, the kernel spec
    only when first asked for, so training, saving and loading build none.
    """

    layout: "ExactGPLayout" = field(repr=False)
    dataset: MultiTaskDataset
    task_means: np.ndarray
    task_stds: np.ndarray
    L: np.ndarray
    weights: np.ndarray
    jitter: float
    standardized: bool = True
    fit_info: dict | None = field(default=None, repr=False)

    @functools.cached_property
    def kernel(self) -> MultiTaskKernelSpec:
        return self.layout.spec_of(self.layout.template.copy())

    @functools.cached_property
    def prior_terms(self) -> tuple:
        """Per term q, what every query shares: its kernel kind, the factor
        ``PROFILE_SCALE / l_q^2`` on each input's squared distance, ``s2_q``
        and ``B_q``."""
        layout = self.layout
        ls, s2, _, gamma, W = layout.groups(layout.template[None])
        Bq = _task_covariances(layout, W, gamma)[0]
        ls, s2 = ls[0], s2[0]
        return tuple(
            (kind, ls[q] ** -2.0 * layout.profile_scale[q], s2[q], Bq[q])
            for q, kind in enumerate(layout.kinds)
        )

    @property
    def noise_variances(self) -> np.ndarray:
        return self.layout.template[self.layout.group_slices[2]].copy()

    @property
    def num_tasks(self) -> int:
        return self.layout.num_tasks

    @property
    def input_dim(self) -> int:
        return self.layout.shape[2]


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
    covariance and its factor are the training objective's B=1 case (the
    assembly of :class:`ExactGPLayout`, :func:`~mtgp.linalg.cholesky_batch`);
    a failed factorization raises :class:`IllConditionedKernelError`.
    ``jitter`` is the absolute jitter added to the diagonal.
    """
    work, means, stds = working_targets(dataset, standardize)
    return _condition(ExactGPLayout(kernel, noise_variances, work), dataset, means, stds, standardize)


def _condition(layout: "ExactGPLayout", dataset, means, stds, standardized) -> MTGPModel:
    """The fitted model whose parameters are ``layout.template``.

    ``layout`` holds the targets ``(Y_d - means_d) / stds_d`` of ``dataset``
    and becomes the model's: its noise variances are floored at
    ``NOISE_FLOOR`` in place. The model keeps ``dataset``.
    """
    noise = layout.template[layout.group_slices[2]]
    np.maximum(noise, NOISE_FLOOR, out=noise)
    with np.errstate(over="ignore", invalid="ignore"):
        K, _ = _assemble(layout, layout.sqdiff, *layout.groups(layout.template[None]))
        L, _, jitter, errors = cholesky_batch(K)
    if errors:
        raise IllConditionedKernelError(errors[0])
    weights = chol_solve(L[0], layout.y)
    return MTGPModel(layout, dataset, means, stds, L[0], weights, float(jitter[0]), standardized)


def mtgp_predict(
    model: MTGPModel, task: int, Xstar, full_cov: bool = False
) -> PosteriorPrediction:
    """Posterior mean/variance for one task at query points Xstar.

    A query so far from the data that a kernel's argument overflows gets
    that kernel's limit, 0, so far enough away the prediction is the prior.
    """
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
    Kstar, prior = _cross_covariance(model, task, Xstar, full_cov)
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


def _cross_covariance(
    model: MTGPModel, task: int, Xstar: np.ndarray, full_cov: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Prior covariances of task ``task`` at the query rows Xstar (M, P).

    Returns ``K(X*, X)`` (M, N) against the training rows, and ``K(X*, X*)``
    (M, M) when ``full_cov``, else its diagonal, the prior variance (M,).
    Terms are added one at a time from the model's :attr:`~MTGPModel.prior_terms`,
    so a large query never holds a (Q, M, N) stack.
    """
    X, tasks = model.layout.X, model.layout.tasks
    Kstar = np.zeros((Xstar.shape[0], X.shape[0]))
    prior = np.zeros((Xstar.shape[0],) * (2 if full_cov else 1))
    with np.errstate(over="ignore"):  # a far query's distances overflow
        for kind, scale, s2, Bq in model.prior_terms:
            coeffs = Bq[task, tasks]
            if coeffs.any():
                z = _scaled_sq_dists(Xstar, X, scale)
                Kstar += s2 * kernels.kernel_profile(kind, z)[0] * coeffs
            if Bq[task, task] == 0.0:
                continue
            if full_cov:
                z = _scaled_sq_dists(Xstar, Xstar, scale)
                prior += Bq[task, task] * (s2 * kernels.kernel_profile(kind, z)[0])
            else:
                prior += Bq[task, task] * s2
    return Kstar, prior


# ---------------------------------------------------------------------------
# The exact-GP objective: log marginal likelihood and gradient, batched
# ---------------------------------------------------------------------------


class LMLBatch(NamedTuple):
    """Log marginal likelihoods and flat gradients of B parameter vectors.

    ``escalated`` flags rows whose Cholesky factorization needed more than
    the base jitter; ``errors`` maps each row whose factorization failed even
    at the maximum jitter to its message (its value and gradient are NaN).
    ``phases`` holds the seconds the evaluation spent in each of
    :data:`PHASES`.
    """

    values: np.ndarray
    grads: np.ndarray
    escalated: np.ndarray
    errors: dict
    phases: tuple = (0.0,) * 5


# the objective's phases, in the order of ``LMLBatch.phases``
PHASES = ("materialize", "assemble", "cholesky", "inverse", "gradient")
# entry names of each natural group, in group_slices order, formatted with the index in the group
_NAME_FORMATS = (
    "term{0}.log_lengthscale{1}",
    "term{0}.log_signal_variance",
    "log_noise{0}",
    "term{0}.log_gamma{1}",
    "term{0}.W[{1},{2}]",
)


class ParameterLayout:
    """Flat parameter vector <-> natural parameters of one model shape.

    Built from a kernel spec or by :meth:`ExactGPLayout.of_shape`. This
    class is the one place that sets the flat order: per term q, its log-lengthscales
    and log-signal-variance, then W_q row-major when ``learn_W`` and its
    log-gamma per task when ``learn_gamma``; finally log-noise per task.
    :meth:`names` names the entries in that order. W is untransformed; a
    zero gamma is ``-inf``. Groups not learned keep the template's values,
    and so do the padding columns of W when terms differ in rank.

    Inside, a batch's natural parameters are one (B, F) array in the order
    ``[ls (Q*P) | s2 (Q) | noise (D) | gamma (Q*D) | W (Q*D*R)]``, whose
    leading ``num_logs`` entries (all but W) are exponentiated. One
    ``np.take`` of the flat vectors by ``gather`` fills it and one
    ``np.exp`` transforms it, both row by row, so each row's natural
    parameters are computed the same way in any batch. The gradient, one
    concatenation of the learned groups' gradients, returns to the flat
    order through one ``np.take`` by ``scatter``.

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
        ranks = [t.rank for t in spec.terms]
        W = np.zeros((spec.num_terms, spec.num_tasks, max(ranks)))
        for q, term in enumerate(spec.terms):
            W[q, :, : term.rank] = term.W
        template = np.concatenate(
            [
                np.array([t.base_kernel.lengthscales for t in spec.terms]).reshape(-1),
                [t.base_kernel.signal_variance for t in spec.terms],
                noise,
                np.array([t.gamma for t in spec.terms]).reshape(-1),
                W.reshape(-1),
            ]
        )
        kinds = [t.base_kernel.kind for t in spec.terms]
        self._build(kinds, ranks, spec.num_tasks, spec.input_dim, template, learn_W, learn_gamma)

    def _build(self, kinds, ranks, D: int, P: int, template, learn_W: bool, learn_gamma: bool):
        """Set the flat order of terms of these kinds and ranks over D tasks and
        P inputs, around ``template``, their natural parameters (F,)."""
        Q, R = len(kinds), max(ranks)
        self.template, self.kinds, self.ranks, self.num_tasks = template, kinds, ranks, D
        s2_at, noise_at = Q * P, Q * P + Q
        gamma_at = noise_at + D
        self.num_logs = W_at = gamma_at + Q * D
        # natural position of each flat entry, in flat order
        natural = []
        for q, rank in enumerate(ranks):
            natural += range(q * P, (q + 1) * P)
            natural.append(s2_at + q)
            if learn_W:
                natural += [W_at + (q * D + d) * R + r for d in range(D) for r in range(rank)]
            if learn_gamma:
                natural += range(gamma_at + q * D, gamma_at + (q + 1) * D)
        natural += range(noise_at, noise_at + D)
        natural = np.asarray(natural)
        self.size = natural.size
        self.gather = np.zeros(template.size, dtype=int)
        self.gather[natural] = np.arange(self.size)
        fixed = np.ones(template.size, dtype=bool)
        fixed[natural] = False
        self.fixed = np.flatnonzero(fixed)
        self.natural_index = natural
        # the gradient concatenates [ls, s2, noise, gamma if learned, W if learned]
        self.scatter = natural if learn_gamma else np.where(natural < W_at, natural, natural - Q * D)
        self.is_W = natural >= W_at
        self.learn_W, self.learn_gamma = learn_W, learn_gamma
        self.has_gamma = learn_gamma or bool(np.any(template[gamma_at:W_at]))
        bounds = [0, s2_at, noise_at, gamma_at, W_at, None]
        self.group_slices = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
        self.group_shapes = ((Q, P), (Q,), (D,), (Q, D), (Q, D, R))

    def natural_batch(self, X: np.ndarray) -> np.ndarray:
        """The (B, F) natural parameters of the flat batch X (B, size)."""
        nat = np.take(X, self.gather, axis=1)
        logs = nat[:, : self.num_logs]
        np.exp(logs, out=logs)
        if self.fixed.size:
            nat[:, self.fixed] = self.template[self.fixed]
        return nat

    def groups(self, nat: np.ndarray):
        """Views ``(ls, s2, noise, gamma, W)`` of natural parameters (B, F),
        shaped (B,Q,P), (B,Q), (B,D), (B,Q,D) and (B,Q,D,R)."""
        B = nat.shape[0]
        slices, shapes = self.group_slices, self.group_shapes
        return tuple(nat[:, at].reshape((B,) + shape) for at, shape in zip(slices, shapes))

    def names(self) -> list[str]:
        """Each flat entry's name, read off its natural position:
        ``term{q}.log_lengthscale{p}``, ``term{q}.log_signal_variance``,
        ``term{q}.W[d,r]``, ``term{q}.log_gamma{d}`` or ``log_noise{d}``."""
        natural = [
            name.format(*index)
            for name, shape in zip(_NAME_FORMATS, self.group_shapes)
            for index in itertools.product(*map(range, shape))
        ]
        return [natural[i] for i in self.natural_index.tolist()]

    def initial_vector(self) -> np.ndarray:
        """The template's learned parameters as a flat vector."""
        with np.errstate(divide="ignore"):  # a zero gamma is -inf
            logs = np.log(self.template[: self.num_logs])
        return np.concatenate([logs, self.template[self.num_logs :]])[self.natural_index]

    def relaid(self, learn_W: bool, learn_gamma: bool) -> "ParameterLayout":
        """The layout of the same terms around the same template that learns
        these groups: the flat order of a model file's vector."""
        layout = ParameterLayout.__new__(ParameterLayout)
        D, P = self.num_tasks, self.group_shapes[0][1]
        layout._build(self.kinds, self.ranks, D, P, self.template, learn_W, learn_gamma)
        return layout

    def spec_of(self, nat: np.ndarray) -> MultiTaskKernelSpec:
        """The kernel spec of one row of natural parameters (F,)."""
        ls, s2, _, gamma, W = (group[0] for group in self.groups(nat[None]))
        terms = tuple(
            CoregionalizationTerm(
                W[q, :, :rank],
                gamma[q],
                kernels.ScalarKernelSpec(self.kinds[q], ls[q], float(s2[q])),
            )
            for q, rank in enumerate(self.ranks)
        )
        return MultiTaskKernelSpec(self.num_tasks, terms)


class ExactGPLayout(ParameterLayout):
    """The parameter layout plus the fixed data of the exact-GP objective.

    Built once per fit, by :meth:`of_shape` or from a kernel spec. On
    top of :class:`ParameterLayout` it holds the training inputs, their
    per-dimension squared differences, the task one-hot and the targets, so
    evaluating a batch builds no Python objects. :func:`_assemble` is the
    package's one joint-covariance assembly: the training objective
    (:meth:`LayoutStack.evaluate`) runs it on a batch, conditioning
    (:func:`_condition`) and the likelihood wrappers (:meth:`evaluate_template`)
    on the template, and prediction (:func:`_cross_covariance`) extends it to
    query rows. A fitted model's layout is its own, with the fitted
    parameters as its template.
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
        self._attach(dataset)

    @classmethod
    def of_shape(cls, kinds, ranks, dataset: MultiTaskDataset, learn_W: bool, learn_gamma: bool):
        """The layout of terms of these kinds and ranks on ``dataset`` before
        its parameters are known, which training and model files give: its
        template has W = 1 and gamma = 0 where they are not learned, zero
        padding in W and zeros for the learned parameters."""
        Q, D, P = len(kinds), dataset.num_tasks, dataset.input_dim
        W = np.zeros((Q, D, max(ranks)))
        for q, rank in enumerate(ranks):
            W[q, :, :rank] = 1.0
        layout = cls.__new__(cls)
        template = np.concatenate([np.zeros(Q * P + Q + D + Q * D), W.reshape(-1)])
        layout._build(list(kinds), list(ranks), D, P, template, learn_W, learn_gamma)
        layout._attach(dataset)
        return layout

    def _attach(self, dataset: MultiTaskDataset):
        Q, D, P = len(self.kinds), self.num_tasks, dataset.input_dim
        self.kind_groups = [
            (kind, np.asarray([q for q in range(Q) if self.kinds[q] == kind]))
            for kind in sorted(set(self.kinds))
        ]
        # per term, the factor kernels.kernel_profile expects on r^2
        self.profile_scale = np.array([kernels.PROFILE_SCALE[k] for k in self.kinds])[:, None]
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
        self.log_norm = 0.5 * N * np.log(2.0 * np.pi)

    def evaluate_template(self) -> LMLBatch:
        """The B=1 batch of the template's own parameters, with no transform round trip."""
        return _lml_batch(self, self.template[None], self.sqdiff, self.y, time.perf_counter())


class LayoutStack:
    """Same-shape exact-GP layouts evaluated as one batch.

    Each layout holds one dataset and its fit's template; all share the
    model shape, the task pattern (rows per task) and the template values of
    every parameter they do not learn, so one flat vector means the same
    parameters under each. Row i of the batch's initial vectors belongs to
    layout ``owner[i]``: ``rows_per_layout`` consecutive rows each. The data
    is stacked, ``sqdiff`` (F, P, N*N) and ``y`` (F, N), and
    :meth:`evaluate` picks each running row's dataset by its row index.
    The objective computes every row on its own, so a row's value and
    gradient are bitwise the same whichever rows run beside it, in this
    stack or in a one-row stack of its layout alone.
    """

    def __init__(self, layouts, rows_per_layout: int):
        first = layouts[0]
        for layout in layouts[1:]:
            _require_same_shape(first, layout)
        self.layout = first
        self.sqdiff = np.stack([layout.sqdiff for layout in layouts])
        self.y = np.stack([layout.y for layout in layouts])
        self.owner = np.repeat(np.arange(len(layouts)), rows_per_layout)
        self._rows = self._data = None  # the running rows and their (sqdiff, y)

    def evaluate(self, X: np.ndarray, rows: np.ndarray) -> LMLBatch:
        """Log marginal likelihood and flat gradient of X (B, size), row b of
        which is initial row ``rows[b]``.

        The running rows' data is gathered again only when ``rows`` changes,
        which happens when a row stops.
        """
        started = time.perf_counter()
        if self._rows is None or not np.array_equal(rows, self._rows):
            owner = self.owner[rows]
            self._rows = np.array(rows)
            self._data = (self.sqdiff[owner], self.y[owner])
        nat = self.layout.natural_batch(X)
        return _lml_batch(self.layout, nat, *self._data, started)


def _require_same_shape(a: ExactGPLayout, b: ExactGPLayout):
    """Raise ShapeError unless one flat vector means the same model under a and b."""
    if a.shape != b.shape or a.size != b.size or a.kinds != b.kinds or a.ranks != b.ranks:
        raise ShapeError(
            f"layouts of one batch must share a model shape: (Q, D, P, N) {a.shape} "
            f"with {a.size} parameters vs {b.shape} with {b.size}"
        )
    if not np.array_equal(a.tasks, b.tasks):
        raise ShapeError("layouts of one batch must share the rows per task")
    if not (
        np.array_equal(a.natural_index, b.natural_index)
        and np.array_equal(a.template[a.fixed], b.template[b.fixed])
    ):
        raise ShapeError("layouts of one batch must learn and fix the same parameters")


def _scaled_sq_dists(A: np.ndarray, B: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """``sum_p (A_ip - B_jp)^2 * scale_p`` for row sets A (M, P) and B (N, P).

    Summed one input dimension at a time, so a large query holds (M, N)
    arrays only, never an (M, N, P) one. A sum that overflows to +inf is
    clamped to the largest double, where the Matern profile reaches its
    limit 0 (at +inf it would be ``(1 + inf) * exp(-inf)``, NaN); finite sums
    are unchanged, and -inf already gives the squared exponential's 0.
    Callers ignore the overflow.
    """
    sq = np.zeros((A.shape[0], B.shape[0]))
    for p, w in enumerate(scale):
        d = A[:, p, None] - B[None, :, p]
        d *= d
        d *= w
        sq += d
    return np.minimum(sq, _DOUBLE_MAX, out=sq)


def _task_covariances(layout: ExactGPLayout, W, gamma) -> np.ndarray:
    """``B_q = W_q W_q^T + diag(gamma_q)`` for W (B,Q,D,R) and gamma (B,Q,D)."""
    D = layout.num_tasks
    Bq = W @ W.swapaxes(-1, -2)
    if layout.has_gamma:
        Bq.reshape(Bq.shape[:2] + (D * D,))[..., :: D + 1] += gamma
    return Bq


def _assemble(layout: ExactGPLayout, sqdiff, ls, s2, noise, gamma, W):
    """Joint covariance ``K`` (B, N, N) of a batch of natural parameters.

    The kernel profile's factor rides on the inverse squared lengthscales,
    so one product gives each term's profile argument; each term is
    weighted by its ``s2_q B_q`` task mask, and the per-task noise lands on
    the diagonal. ``sqdiff`` is the layout's (P, N*N) or one per row,
    (B, P, N*N); parameters as :meth:`ParameterLayout.groups` gives them.
    Also returns the per-term pieces the gradient reuses: ``(inv_ls2, unit,
    slope, Bq, mask, Km)`` with ``Km = mask * unit``, where ``slope is
    unit`` for SE.
    """
    Q, D, P, N = layout.shape
    B = ls.shape[0]
    inv_ls2 = ls**-2.0
    z = ((inv_ls2 * layout.profile_scale) @ sqdiff).reshape(B, Q, N, N)
    if len(layout.kind_groups) == 1:
        unit, slope = kernels.kernel_profile(layout.kind_groups[0][0], z)
    else:
        unit, slope = np.empty_like(z), np.empty_like(z)
        for kind, qs in layout.kind_groups:
            unit[:, qs], slope[:, qs] = kernels.kernel_profile(kind, z[:, qs])
    Bq = _task_covariances(layout, W, gamma)
    mask = np.take((Bq * s2[..., None, None]).reshape(B, Q, D * D), layout.pair_index, axis=-1)
    Km = mask * unit
    K = Km.sum(axis=1)
    K.reshape(B, N * N)[:, :: N + 1] += noise[:, layout.tasks]
    return K, (inv_ls2, unit, slope, Bq, mask, Km)


def _lml_batch(layout: ExactGPLayout, nat, sqdiff, y, started: float) -> LMLBatch:
    """Value and flat gradient of the joint log marginal likelihood.

    ``nat`` holds the natural parameters (B, F) of the batch's rows,
    ``sqdiff`` and ``y`` their data, shared (P, N*N) and (N,) or one per
    row, (B, P, N*N) and (B, N). Every operation acts on each row alone, so
    a row's result does not depend on the rows beside it. With ``M = alpha
    alpha^T - K^{-1}`` every derivative is ``1/2 tr(M dK/dt)``. The jitter
    ``rel mean(diag K)`` the factorization adds moves with the parameters;
    adding ``rel tr(M) / N`` to M's diagonal carries its derivative. Per
    term, ``T = E^T (M * K_q) E`` sums M * K_q over task blocks, so dL/dW =
    T W, dL/d(log gamma) = gamma diag(T) / 2 and dL/d(log s2) = sum(B_q *
    T) / 2. Gradients of positive parameters are in log space. ``started``
    is the evaluation's start, from which the phases are timed.
    """
    Q, D, P, N = layout.shape
    B = nat.shape[0]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ls, s2, noise, gamma, W = layout.groups(nat)
        t_natural = time.perf_counter()
        K, (inv_ls2, unit, slope, Bq, mask, Km) = _assemble(
            layout, sqdiff, ls, s2, noise, gamma, W
        )
        t_assembled = time.perf_counter()
        L, rel, _, errors = cholesky_batch(K)
        if errors:
            L[list(errors)] = np.eye(N)
        half_logdet = np.log(L.reshape(B, N * N)[:, :: N + 1]).sum(axis=1)
        t_factored = time.perf_counter()
        Kinv = cholesky_inverse_batch(L)
        t_inverted = time.perf_counter()

        alpha = (Kinv @ y[..., None])[..., 0]
        values = -0.5 * (alpha * y).sum(axis=-1) - half_logdet - layout.log_norm
        M = alpha[:, :, None] * alpha[:, None, :]
        M -= Kinv
        M_diag = M.reshape(B, N * N)[:, :: N + 1]
        M_diag += (rel / N * M_diag.sum(axis=1))[:, None]
        # G = M * dK/d(log l_p) without the (d_p / l_p)^2 factor; slope is unit for SE
        G = M[:, None] * Km if slope is unit else (M[:, None] * mask) * slope
        g_ls = 0.5 * inv_ls2 * (G.reshape(B, Q, N * N) @ sqdiff.swapaxes(-1, -2))
        g_noise = 0.5 * noise * (M_diag[:, None, :] @ layout.onehot)[:, 0]
        if layout.learn_W or layout.learn_gamma:
            T = layout.onehot.T @ (M[:, None] * unit) @ layout.onehot
            T *= s2[..., None, None]
            g_s2 = 0.5 * (Bq * T).sum(axis=(-2, -1))
        else:  # dK/d(log s2_q) = Km_q, which is G for SE
            g_s2 = 0.5 * (G if slope is unit else M[:, None] * Km).sum(axis=(-2, -1))
        parts = [g_ls.reshape(B, Q * P), g_s2, g_noise]
        if layout.learn_gamma:
            g_gamma = 0.5 * gamma * T.reshape(B, Q, D * D)[..., :: D + 1]
            parts.append(g_gamma.reshape(B, Q * D))
        if layout.learn_W:
            parts.append((T @ W).reshape(B, -1))
        grads = np.take(np.concatenate(parts, axis=1), layout.scatter, axis=1)
    if errors:
        rows = list(errors)
        values[rows] = np.nan
        grads[rows] = np.nan
    phases = (
        t_natural - started,
        t_assembled - t_natural,
        t_factored - t_assembled,
        t_inverted - t_factored,
        time.perf_counter() - t_inverted,
    )
    return LMLBatch(values, grads, rel > BASE_JITTER_REL, errors, phases)


def mtgp_log_marginal_likelihood(
    kernel: MultiTaskKernelSpec,
    noise_variances,
    dataset: MultiTaskDataset,
) -> tuple[float, np.ndarray]:
    """Joint log marginal likelihood and its full parameter gradient.

    The value is the log density of the stacked targets under the joint
    prior plus block-diagonal noise, with the Gaussian constant using the
    total observation count. Gradient order is the fully learned
    :class:`ParameterLayout`'s; gamma gradients are reported in log-space
    (zero whenever gamma is pinned at zero). This is the B=1 case of
    :class:`ExactGPLayout` with every parameter learned.
    """
    batch = ExactGPLayout(kernel, noise_variances, dataset).evaluate_template()
    if batch.errors:
        raise IllConditionedKernelError(batch.errors[0])
    return float(batch.values[0]), batch.grads[0]
