"""Exact multi-task Gaussian process regression over heterotopic data.

The joint prior over all observations (task-major order) has covariance
``sum_q B_q[task_i, task_j] k_q(x_i, x_j)``; observation noise adds a
block-diagonal ``noise_d`` on each task's rows. Posterior inference is the
standard Gaussian conditioning on that joint matrix, so predictions for one
task borrow strength from every coupled task.

Targets are standardized per task inside fitting by default (tasks often
live in wildly different units); a fit's layout scales its own targets
(:meth:`ExactGPLayout.scale`), and the model keeps the statistics and
inverts them at prediction time. Pass ``standardize=False`` for raw units.

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
from .data import MultiTaskDataset, task_scaling
from .errors import DomainError, IllConditionedKernelError, ShapeError
from .linalg import BASE_JITTER_REL, cholesky_batch, cholesky_inverse_batch, chol_solve, tri_solve

NOISE_FLOOR = 1e-10
_DOUBLE_MAX = np.finfo(float).max
# query rows whose kernel values are computed together (see _kernel_rows)
PREDICT_BLOCK_ROWS = 256


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
    layout = spec_layout(kernel, noise_variances, dataset)
    return _condition(layout.scale(*task_scaling(dataset, standardize)), standardize)


def _condition(layout: "ExactGPLayout", standardized) -> MTGPModel:
    """The fitted model whose parameters are ``layout.template``.

    It is conditioned on the layout's working targets ``y`` and keeps its
    dataset and scaling. ``layout`` becomes the model's: its noise variances
    are floored at ``NOISE_FLOOR`` in place.
    """
    noise = layout.template[layout.group_slices[2]]
    np.maximum(noise, NOISE_FLOOR, out=noise)
    work = Workspace.of(layout, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        K, _ = _assemble(layout, layout.sqdiff, *layout.groups(layout.template[None]), work)
        L, _, jitter, errors = cholesky_batch(K)
    if errors:
        raise IllConditionedKernelError(errors[0])
    weights = chol_solve(L[0], layout.y)
    data = layout.dataset, layout.means, layout.stds
    return MTGPModel(layout, *data, L[0], weights, float(jitter[0]), standardized)


def mtgp_predict(
    model: MTGPModel, task: int, Xstar, full_cov: bool = False
) -> PosteriorPrediction:
    """Posterior mean/variance for one task at query points Xstar.

    ``K(X*, X)`` is assembled in row blocks (:func:`_kernel_rows`), but the
    mean's product and the triangular solve, made in place in ``K(X*, X)``,
    run over all rows at once, so outputs do not depend on the block size.
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
    V = tri_solve(model.L, Kstar.T)  # Kstar is overwritten
    if full_cov:
        cov = (prior - V.T @ V) * s**2
        cov = 0.5 * (cov + cov.T)
        variance = np.maximum(np.diag(cov).copy(), 0.0)
        np.fill_diagonal(cov, variance)
        return PosteriorPrediction(mean, variance, cov)
    V *= V
    variance = (prior - np.sum(V, axis=0)) * s**2
    return PosteriorPrediction(mean, np.maximum(variance, 0.0))


def _cross_covariance(
    model: MTGPModel, task: int, Xstar: np.ndarray, full_cov: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Prior covariances of task ``task`` at the query rows Xstar (M, P).

    Returns ``K(X*, X)`` (M, N, C-ordered) against the training rows, and
    ``K(X*, X*)`` (M, M) when ``full_cov``, else its diagonal, the prior
    variance (M,): :func:`_kernel_rows` of the :attr:`~MTGPModel.prior_terms`
    whose task coefficients are not all 0.
    """
    cross, auto = [], []
    for kind, scale, s2, Bq in model.prior_terms:
        coeffs = Bq[task, model.layout.tasks]
        if coeffs.any():
            cross.append((kind, scale, s2, coeffs))
        if Bq[task, task] != 0.0:
            auto.append((kind, scale, s2, Bq[task, task]))
    Kstar = _kernel_rows(Xstar, model.layout.X, cross)
    if full_cov:
        return Kstar, _kernel_rows(Xstar, Xstar, auto)
    prior = np.zeros(Xstar.shape[0])
    for _, _, s2, coeff in auto:
        prior += coeff * s2
    return Kstar, prior


def _kernel_rows(A: np.ndarray, B: np.ndarray, terms: list) -> np.ndarray:
    """``sum_t (s2_t * unit_t(A_i, B_j)) * c_t`` (M, N) for rows A (M, P) and
    B (N, P) over ``terms`` ``(kind, scale, s2, c)``, ``c`` a scalar or (N,).

    PREDICT_BLOCK_ROWS rows of A at a time, in scratch made once per call:
    each input's squared differences once per block, shared by all terms,
    then each term's ``sum_p (A_ip - B_jp)^2 * scale_p``, summed from 0 in
    input order. A sum that overflows to +inf is clamped to the largest
    double, where the Matern profile reaches its limit 0 (at +inf it would be
    ``(1 + inf) * exp(-inf)``, NaN); -inf already gives the squared
    exponential's 0. All steps are elementwise, so blocking keeps the bits.
    """
    M, N = A.shape[0], B.shape[0]
    out = np.zeros((M, N))
    rows = min(M, PREDICT_BLOCK_ROWS)
    scratch = np.empty((A.shape[1] + 2, rows, N))
    sqdiff, z, tmp = scratch[:-2], scratch[-2], scratch[-1]
    with np.errstate(over="ignore"):  # a far query's distances overflow
        for start in range(0, M, rows):
            block = slice(start, start + rows)
            n = min(rows, M - start)
            d = np.subtract(A[block].T[:, :, None], B.T[:, None, :], out=sqdiff[:, :n])
            d *= d
            zb, tb = z[:n], tmp[:n]
            for kind, scale, s2, c in terms:
                zb.fill(0.0)
                for p, w in enumerate(scale):
                    zb += np.multiply(d[p], w, out=tb)
                np.minimum(zb, _DOUBLE_MAX, out=zb)
                unit = kernels.kernel_profile(kind, zb)[0]  # zb, overwritten
                unit *= s2
                unit *= c
                out[block] += unit
    return out


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


class Workspace(NamedTuple):
    """Preallocated buffers for the objective's (rows, Q, N, N) and
    (rows, N, N) temporaries, so that evaluating a batch allocates and frees
    none of them. A batch of B <= rows rows computes into their leading
    ``[:B]`` views (:meth:`head`) with ``out=``, which gives the bits the
    allocating expressions give. Without it each call of a study-sized batch
    allocates and frees about 1 MB, which glibc's allocator hands back to the
    OS and faults in again on the next call.

    The buffers are views of one block: above glibc's initial 128 KiB mmap
    threshold it is mapped, and freeing it raises the threshold, so later
    stacks' workspaces come from the heap and are not faulted in again. (From
    a study's third operation in one process on, 0-3 page faults each,
    against about 150 with one allocation per buffer.)
    """

    unit: np.ndarray  # the profile argument z, overwritten with the unit kernel
    mask: np.ndarray  # s2_q B_q[task_i, task_j]
    Km: np.ndarray  # mask * unit
    K: np.ndarray
    Kinv: np.ndarray
    M: np.ndarray  # alpha alpha^T - K^{-1}
    G: np.ndarray  # M * dK/d(log l_p) without its distance factor, then M * unit

    @classmethod
    def of(cls, layout: "ExactGPLayout", rows: int) -> "Workspace":
        Q, _, _, N = layout.shape
        shapes = ((rows, Q, N, N),) * 3 + ((rows, N, N),) * 3 + ((rows, Q, N, N),)
        sizes = [int(np.prod(shape)) for shape in shapes]
        views = np.split(np.empty(sum(sizes)), np.cumsum(sizes)[:-1])
        return cls(*(view.reshape(shape) for view, shape in zip(views, shapes)))

    def head(self, B: int) -> "Workspace":
        return Workspace(*(buffer[:B] for buffer in self))


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

    Built from the model shape: term q has kernel ``kinds[q]`` and W_q of
    rank ``ranks[q]``. The start template has W = 1 in each term's rank
    columns and zeros elsewhere; :func:`spec_layout` writes a kernel spec
    into it. This class is the one place that sets the flat order: per term
    q, its log-lengthscales and log-signal-variance, then W_q row-major when
    ``learn_W`` and its log-gamma per task when ``learn_gamma``; finally
    log-noise per task. :meth:`names` names the entries in that order. W is untransformed; a
    zero gamma is ``-inf``. Groups not learned keep the template's values,
    and so do the padding columns of W when terms differ in rank.

    Inside, a batch's natural parameters are one (B, F) array in the order
    ``[ls (Q*P) | s2 (Q) | noise (D) | gamma (Q*D) | W (Q*D*R)]``, whose
    leading ``num_logs`` entries (all but W) are exponentiated. One ``take``
    of the flat vectors by ``gather`` fills it and one ``np.exp`` transforms
    it, both row by row, so each row's natural parameters are computed the
    same way in any batch. The gradient, one concatenation of the groups'
    gradients in natural order, returns to the flat order through one
    ``take`` by ``natural_index``.

    The single-task GP is the one-task, one-term case with W fixed at 1 and
    gamma at 0, whose flat vector is ``[log l..., log s2, log noise]``.
    """

    def __init__(self, kinds, ranks, num_tasks: int, input_dim: int, learn_W, learn_gamma):
        Q, D, P, R = len(kinds), num_tasks, input_dim, max(ranks)
        self.kinds, self.ranks, self.num_tasks = list(kinds), list(ranks), D
        W = np.zeros((Q, D, R))
        for q, rank in enumerate(ranks):
            W[q, :, :rank] = 1.0
        self.template = template = np.concatenate([np.zeros(Q * P + Q + D + Q * D), W.reshape(-1)])
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
        self.fixed = np.ones(template.size, dtype=bool)  # entries kept at the template's value
        self.fixed[natural] = False
        self.natural_index = natural
        self.is_W = natural >= W_at
        self.learn_W, self.learn_gamma = learn_W, learn_gamma
        bounds = [0, s2_at, noise_at, gamma_at, W_at, None]
        self.group_slices = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
        self.group_shapes = ((Q, P), (Q,), (D,), (Q, D), (Q, D, R))

    def natural_batch(self, X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The (B, F) natural parameters of the flat batch X (B, size), in a
        new array or, when given, in ``out`` (B, F), which is returned: one
        ``take`` by ``gather``, one in-place ``exp`` of the log entries and
        one copy of the fixed entries from the template. Either way each
        entry is the same copy or ``exp`` of one flat entry, so the bits do
        not depend on where they are written."""
        nat = X.take(self.gather, axis=1, out=out, mode="clip")  # the indices are valid
        logs = nat[:, : self.num_logs]
        np.exp(logs, out=logs)
        np.copyto(nat, self.template, where=self.fixed)
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

    Built once per fit from the model shape and the dataset. On
    top of :class:`ParameterLayout` it holds the raw dataset, its inputs,
    their per-dimension squared differences, the task one-hot and the
    working targets (:meth:`scale`), so evaluating a batch builds no Python
    objects. :func:`_assemble` is the package's one joint-covariance
    assembly: the training objective (:meth:`LayoutStack.evaluate`) runs it
    on a batch, conditioning (:func:`_condition`) and the likelihood
    wrappers (:meth:`log_marginal_likelihood`) on the template, and prediction
    (:func:`_cross_covariance`) extends it to query rows. A fitted model's
    layout is its own, with the fitted parameters as its template.
    """

    def __init__(self, kinds, ranks, dataset: MultiTaskDataset, learn_W: bool, learn_gamma: bool):
        super().__init__(kinds, ranks, dataset.num_tasks, dataset.input_dim, learn_W, learn_gamma)
        Q, D, P = len(self.kinds), self.num_tasks, dataset.input_dim
        self.kind_groups = [
            (kind, np.asarray([q for q in range(Q) if self.kinds[q] == kind]))
            for kind in sorted(set(self.kinds))
        ]
        # per term, the factor kernels.kernel_profile expects on r^2
        self.profile_scale = np.array([kernels.PROFILE_SCALE[k] for k in self.kinds])[:, None]
        self.dataset = dataset
        self.X = dataset.stacked_inputs()
        N = self.X.shape[0]
        diff = self.X[:, None, :] - self.X[None, :, :]
        self.sqdiff = np.ascontiguousarray((diff**2).reshape(N * N, P).T)  # (P, N*N)
        self.tasks = dataset.task_indices()
        self.pair_index = self.tasks[:, None] * D + self.tasks[None, :]  # into flat (D, D)
        self.onehot = np.zeros((N, D))
        self.onehot[np.arange(N), self.tasks] = 1.0
        self.shape = (Q, D, P, N)
        self.log_norm = 0.5 * N * np.log(2.0 * np.pi)
        self.scale(np.zeros(D), np.ones(D))

    def scale(self, means: np.ndarray, stds: np.ndarray) -> "ExactGPLayout":
        """Set the working targets ``y``, each row's ``(Y - means_d) / stds_d``
        for its task d, keep ``means`` and ``stds`` (D,), and return the layout.
        Raises :class:`DomainError` when a working target is not finite."""
        y = (self.dataset.stacked_targets() - means[self.tasks]) / stds[self.tasks]
        if not np.isfinite(y).all():
            raise DomainError("working targets (Y - mean) / std must be finite")
        self.means, self.stds, self.y = means, stds, y
        return self

    def log_marginal_likelihood(self) -> tuple[float, np.ndarray]:
        """Value and flat gradient of the template's own parameters: the B=1
        batch, with no transform round trip. Raises
        :class:`IllConditionedKernelError` when the factorization fails."""
        started, groups = time.perf_counter(), self.groups(self.template[None])
        batch = _lml_batch(self, groups, self.sqdiff, self.y, Workspace.of(self, 1), started)
        if batch.errors:
            raise IllConditionedKernelError(batch.errors[0])
        return float(batch.values[0]), batch.grads[0]


def spec_layout(spec, noise_variances, dataset, learn_W=True, learn_gamma=True) -> ExactGPLayout:
    """The layout of ``spec``'s kinds and ranks on ``dataset``, whose
    template holds ``spec`` and ``noise_variances``: the one way a kernel
    spec becomes a layout (:meth:`~ParameterLayout.spec_of` is the way back).
    Raises :class:`ShapeError` when the spec's task count or input dimension
    is not the dataset's, or there is not one noise variance per task.
    """
    D, P = dataset.num_tasks, dataset.input_dim
    if spec.num_tasks != D:
        raise ShapeError(f"dataset has {D} tasks, kernel spec declares {spec.num_tasks}")
    if spec.input_dim != P:
        raise ShapeError(f"dataset input dimension {P} != kernel's {spec.input_dim}")
    noise = np.asarray(noise_variances, dtype=float).reshape(-1)
    if noise.shape[0] != D:
        raise ShapeError(f"expected {D} noise variances, got {noise.shape[0]}")
    kinds = [term.base_kernel.kind for term in spec.terms]
    layout = ExactGPLayout(kinds, [term.rank for term in spec.terms], dataset, learn_W, learn_gamma)
    ls, s2, template_noise, gamma, W = (group[0] for group in layout.groups(layout.template[None]))
    for q, term in enumerate(spec.terms):
        ls[q] = term.base_kernel.lengthscales
        s2[q] = term.base_kernel.signal_variance
        gamma[q] = term.gamma
        W[q, :, : term.rank] = term.W
    template_noise[:] = noise
    return layout


class LayoutStack:
    """Same-shape exact-GP layouts evaluated as one batch.

    Each layout holds one dataset and its fit's template. The caller
    guarantees that all share the model shape, the task pattern (rows per
    task) and the template values of every parameter they do not learn, so
    one flat vector means the same parameters under each; the layouts of one
    :func:`~mtgp.training.train` group do. Row i of the batch's initial
    vectors belongs to layout ``owner[i]``: ``rows_per_layout`` consecutive
    rows each. The data is stacked, ``sqdiff`` (F, P, N*N) and ``y`` (F, N),
    and :meth:`evaluate` picks each running row's dataset by its row index.
    The stack owns a natural-parameter buffer with a row per initial row and
    one :class:`Workspace` sized for all rows, which hold the temporaries of
    every evaluation. The objective computes every row on its own, so a
    row's value and gradient are bitwise the same whichever rows run beside
    it, in this stack or in a one-row stack of its layout alone.
    """

    def __init__(self, layouts, rows_per_layout: int):
        self.layout = layouts[0]
        self.sqdiff = np.stack([layout.sqdiff for layout in layouts])
        self.y = np.stack([layout.y for layout in layouts])
        self.owner = np.repeat(np.arange(len(layouts)), rows_per_layout)
        self.work = Workspace.of(self.layout, self.owner.size)
        self.nat = np.empty((self.owner.size, self.layout.template.size))
        # the running rows (kept by reference) and their natural-parameter
        # buffer, its groups() views, data and workspace views
        self._rows = self._nat = self._data = None

    def evaluate(self, X: np.ndarray, rows: np.ndarray) -> LMLBatch:
        """Log marginal likelihood and flat gradient of X (B, size), row b of
        which is initial row ``rows[b]``.

        The natural parameters are written into the leading B rows of the
        stack's own buffer. Its :meth:`~ParameterLayout.groups` views and the
        running rows' data and workspace views are taken again only when
        ``rows`` is another object than at the last call, so the caller
        passes the same array for as long as the same rows run and never
        changes it in place (:func:`~mtgp.training.adam_maximize` rebinds it
        only when a row stops); an equal new array only costs the views
        again. The stack's buffers hold temporaries only: the returned
        ``values`` and ``grads`` are new arrays.
        """
        started = time.perf_counter()
        if rows is not self._rows:
            owner = self.owner[rows]
            self._rows, self._nat = rows, self.nat[: len(rows)]
            groups = self.layout.groups(self._nat)
            self._data = (groups, self.sqdiff[owner], self.y[owner], self.work.head(len(rows)))
        self.layout.natural_batch(X, out=self._nat)
        return _lml_batch(self.layout, *self._data, started)


def _task_covariances(layout: ExactGPLayout, W, gamma) -> np.ndarray:
    """``B_q = W_q W_q^T + diag(gamma_q)`` for W (B,Q,D,R) and gamma (B,Q,D)."""
    D = layout.num_tasks
    Bq = W @ W.swapaxes(-1, -2)
    Bq.reshape(Bq.shape[:2] + (D * D,))[..., :: D + 1] += gamma
    return Bq


def _assemble(layout: ExactGPLayout, sqdiff, ls, s2, noise, gamma, W, work: Workspace):
    """Joint covariance ``K`` (B, N, N) of a batch of natural parameters.

    The kernel profile's factor rides on the inverse squared lengthscales,
    so one product gives each term's profile argument; each term is
    weighted by its ``s2_q B_q`` task mask, and the per-task noise lands on
    the diagonal. ``sqdiff`` is the layout's (P, N*N) or one per row,
    (B, P, N*N); parameters as :meth:`ParameterLayout.groups` gives them.
    ``K``, ``unit``, ``mask`` and ``Km`` are buffers of ``work``, a
    :class:`Workspace` of B rows.
    Also returns the per-term pieces the gradient reuses: ``(inv_ls2, unit,
    slope, Bq, mask, Km)`` with ``Km = mask * unit``, where ``slope is
    unit`` for SE.
    """
    Q, D, P, N = layout.shape
    B = ls.shape[0]
    inv_ls2 = ls**-2.0
    z = work.unit
    np.matmul(inv_ls2 * layout.profile_scale, sqdiff, out=z.reshape(B, Q, N * N))
    if len(layout.kind_groups) == 1:
        unit, slope = kernels.kernel_profile(layout.kind_groups[0][0], z)
    else:
        unit, slope = z, np.empty_like(z)
        for kind, qs in layout.kind_groups:  # z[:, qs] is a copy
            unit[:, qs], slope[:, qs] = kernels.kernel_profile(kind, z[:, qs])
    Bq = _task_covariances(layout, W, gamma)
    # the indices are valid; mode="raise" would buffer the output
    mask = (Bq * s2[..., None, None]).reshape(B, Q, D * D).take(
        layout.pair_index, axis=-1, out=work.mask, mode="clip"
    )
    Km = np.multiply(mask, unit, out=work.Km)
    K = np.add.reduce(Km, axis=1, out=work.K)
    K.reshape(B, N * N)[:, :: N + 1] += noise.take(layout.tasks, axis=1)
    return K, (inv_ls2, unit, slope, Bq, mask, Km)


def _lml_batch(
    layout: ExactGPLayout, groups, sqdiff, y, work: Workspace, started: float
) -> LMLBatch:
    """Value and flat gradient of the joint log marginal likelihood.

    ``groups`` holds the :meth:`~ParameterLayout.groups` views of the
    natural parameters (B, F) of the batch's rows, ``sqdiff`` and ``y``
    their data, shared (P, N*N) and (N,) or one per row, (B, P, N*N) and
    (B, N). Every operation acts on each row alone, so a row's result does
    not depend on the rows beside it. With ``M = alpha alpha^T - K^{-1}``
    every derivative is ``1/2 tr(M dK/dt)``. The jitter ``rel mean(diag K)``
    the factorization adds moves with the parameters; adding ``rel tr(M) /
    N`` to M's diagonal carries its derivative. Per term, ``T = E^T (M *
    K_q) E`` sums M * K_q over task blocks, so dL/dW = T W, dL/d(log gamma)
    = gamma diag(T) / 2 and dL/d(log s2) = sum(B_q * T) / 2. Gradients of
    positive parameters are in log space, concatenated in natural order (a
    layout that learns neither W nor gamma stops after noise) and gathered
    once by ``layout.natural_index``. The large temporaries live in
    ``work``, a :class:`Workspace` of B rows; ``values`` and ``grads`` are
    new arrays. Sums and gathers call ``np.add.reduce`` and
    ``ndarray.take``, the C loops behind ``np.sum`` and ``np.take``, without
    the Python wrappers. ``started`` is the evaluation's start, from which
    the phases are timed.
    """
    Q, D, P, N = layout.shape
    ls, s2, noise, gamma, W = groups
    B = ls.shape[0]
    t_natural = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        K, (inv_ls2, unit, slope, Bq, mask, Km) = _assemble(
            layout, sqdiff, ls, s2, noise, gamma, W, work
        )
        t_assembled = time.perf_counter()
        L, rel, _, errors = cholesky_batch(K)
        half_logdet = np.add.reduce(np.log(L.reshape(B, N * N)[:, :: N + 1]), axis=1)
        t_factored = time.perf_counter()
        Kinv = cholesky_inverse_batch(L, work.Kinv)
        t_inverted = time.perf_counter()

        alpha = (Kinv @ y[..., None])[..., 0]
        values = -0.5 * np.add.reduce(alpha * y, axis=-1) - half_logdet - layout.log_norm
        M = np.multiply(alpha[:, :, None], alpha[:, None, :], out=work.M)
        M -= Kinv
        M_diag = M.reshape(B, N * N)[:, :: N + 1]
        M_diag += (rel / N * np.add.reduce(M_diag, axis=1))[:, None]
        # G = M * dK/d(log l_p) without the (d_p / l_p)^2 factor; slope is unit for SE
        if slope is unit:
            G = np.multiply(M[:, None], Km, out=work.G)
        else:
            G = np.multiply(M[:, None], mask, out=work.G)
            G *= slope
        g_ls = 0.5 * inv_ls2 * (G.reshape(B, Q, N * N) @ sqdiff.swapaxes(-1, -2))
        g_noise = 0.5 * noise * (M_diag[:, None, :] @ layout.onehot)[:, 0]
        if layout.learn_W or layout.learn_gamma:
            T = layout.onehot.T @ np.multiply(M[:, None], unit, out=work.G) @ layout.onehot
            T *= s2[..., None, None]
            g_s2 = 0.5 * np.add.reduce(Bq * T, axis=(-2, -1))
            g_gamma = 0.5 * gamma * T.reshape(B, Q, D * D)[..., :: D + 1]
            loadings = [g_gamma.reshape(B, Q * D), (T @ W).reshape(B, -1)]
        else:  # dK/d(log s2_q) = Km_q, and M * Km is G for SE
            if slope is not unit:
                G = np.multiply(M[:, None], Km, out=work.G)
            g_s2 = 0.5 * np.add.reduce(G, axis=(-2, -1))
            loadings = []  # natural_index stops at noise
        g_natural = np.concatenate([g_ls.reshape(B, Q * P), g_s2, g_noise, *loadings], axis=1)
        grads = g_natural.take(layout.natural_index, axis=1)
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
    return spec_layout(kernel, noise_variances, dataset).log_marginal_likelihood()
