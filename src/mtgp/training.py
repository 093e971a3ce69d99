"""Hyperparameter estimation by log-marginal-likelihood ascent.

Positive parameters are optimized through log-transforms; task loadings W
are unconstrained, which keeps every task matrix positive semidefinite by
construction. The optimizer is Adam with bias correction run full-batch,
restarted from several seeded initializations; the restart with the best
objective wins (ties to the lowest restart index).

One driver trains every model, and it trains a list of same-shape datasets
at once: per dataset the target standardization, one layout whose template
is the family's start, and the seeded restart vectors; then one
:func:`adam_maximize` run over all restarts of all fits, through the
vectorized objective of a :class:`~mtgp.multitask.LayoutStack` of their
layouts (one dataset is a stack of one); then per fit the winner, set as
its layout's template and conditioned on there (no kernel spec is built),
and ``fit_info``, whose ``wall_time_s`` and ``timing`` are the whole
batch's. The objective computes each row on its own, so a fit's result is
bitwise the one it gets when trained alone. :func:`train_mtgp_batch` runs
the driver on multi-task data and :func:`train_gp_batch` as the one-task
case (the independent family on one-task datasets), folding the target
scale and offset into each model; :func:`train_mtgp` and :func:`train_gp`
are their one-dataset case.
"""

import time
from dataclasses import dataclass

import numpy as np

from .data import MultiTaskDataset, working_targets
from .errors import DomainError, MTGPError, ShapeError, TrainingFailedError
from .kernels import KERNEL_KINDS, SQUARED_EXPONENTIAL
from .multitask import PHASES, ExactGPLayout, LayoutStack, LMLBatch, MTGPModel, _condition
from .seeding import make_rng

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
CONVERGENCE_WINDOW = 20
RESTART_LOG_JITTER = 0.3
W_INIT_STD = 0.5
# diagonal-dominant start for low-rank-plus-diagonal models: tasks begin
# nearly independent and coupling grows only where the data supports it
LMC_W_INIT_STD = 0.2
LMC_GAMMA_INIT_FRACTION = 0.6


def _is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer (a bool is not one)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    max_iterations: int = 2000
    convergence_tolerance: float = 1e-7
    num_restarts: int = 4
    seed: int = 0

    def __post_init__(self):
        # written so that NaN fails every check
        if not 0.0 < self.learning_rate < np.inf:
            raise DomainError(f"learning_rate must be finite and > 0, got {self.learning_rate!r}")
        if not (_is_integer(self.max_iterations) and self.max_iterations >= 0):
            raise DomainError(f"max_iterations must be an int >= 0, got {self.max_iterations!r}")
        if not 0.0 < self.convergence_tolerance < np.inf:
            raise DomainError(
                f"convergence_tolerance must be finite and > 0, got {self.convergence_tolerance!r}"
            )
        if not (_is_integer(self.num_restarts) and self.num_restarts >= 1):
            raise DomainError(f"num_restarts must be an int >= 1, got {self.num_restarts!r}")


@dataclass(frozen=True)
class MTGPFamily:
    """Model family for multi-task training.

    mode "slfm": rank-one loadings per term, gamma pinned to zero.
    mode "lmc": low-rank-plus-diagonal task matrices, gamma learned.
    mode "independent": fixed indicator loadings, one term per task; tasks
    share nothing (used for decoupling checks).
    """

    mode: str = "slfm"
    kernel_kind: str = SQUARED_EXPONENTIAL
    num_terms: int | None = None
    rank: int = 1

    def __post_init__(self):
        if self.mode not in ("slfm", "lmc", "independent"):
            raise ValueError(f"unknown family mode {self.mode!r}")
        if self.kernel_kind not in KERNEL_KINDS:
            raise DomainError(f"unknown kernel_kind {self.kernel_kind!r}")
        if not (self.num_terms is None or _is_integer(self.num_terms) and self.num_terms >= 1):
            raise DomainError(f"num_terms must be None or an int >= 1, got {self.num_terms!r}")
        if not (_is_integer(self.rank) and self.rank >= 1):
            raise DomainError(f"rank must be an int >= 1, got {self.rank!r}")

    @property
    def learns_W(self) -> bool:
        return self.mode != "independent"

    @property
    def learns_gamma(self) -> bool:
        return self.mode == "lmc"


# ---------------------------------------------------------------------------
# Gradient verification
# ---------------------------------------------------------------------------


def check_gradients(objective, point, step: float = 1e-6) -> float:
    """Worst relative error between analytic and central-difference gradients.

    ``objective(v)`` must return ``(value, gradient)``. The denominator is
    ``max(|analytic|, |numeric|, 1e-8)`` per coordinate.
    """
    point = np.asarray(point, dtype=float)
    _, analytic = objective(point)
    analytic = np.asarray(analytic, dtype=float)
    worst = 0.0
    for i in range(point.size):
        shifted = point.copy()
        shifted[i] = point[i] + step
        up, _ = objective(shifted)
        shifted[i] = point[i] - step
        down, _ = objective(shifted)
        numeric = (up - down) / (2.0 * step)
        denom = max(abs(analytic[i]), abs(numeric), 1e-8)
        worst = max(worst, abs(analytic[i] - numeric) / denom)
    return worst


# ---------------------------------------------------------------------------
# Adam ascent
# ---------------------------------------------------------------------------


@dataclass
class AdamRun:
    """Outcome of :func:`adam_maximize` for a batch of B problems.

    Per-row arrays, except ``iterations``: the number of batch steps taken,
    which is the most any row took. ``value`` is NaN for rows whose initial
    point failed (``failed``). ``stop_reasons`` holds ``converged``,
    ``max_iterations`` or ``objective_failed: <message>`` per row, and
    ``jitter_escalations`` counts the row's evaluations whose Cholesky
    factorization needed more than the base jitter. ``timing`` holds the
    run's seconds per objective phase (``<phase>_s`` for each of
    :data:`~mtgp.multitask.PHASES`), ``adam_step_s`` for everything else
    (the Adam update, the per-row bookkeeping and call overhead) and
    ``objective_calls``.
    """

    vector: np.ndarray
    value: np.ndarray
    initial_value: np.ndarray
    iterations: int
    row_iterations: np.ndarray
    converged: np.ndarray
    failed: np.ndarray
    stop_reasons: list
    jitter_escalations: np.ndarray
    timing: dict


def _failures(batch: LMLBatch) -> dict:
    """Row -> message for every row whose evaluation failed or is not finite."""
    if not batch.errors and np.isfinite(batch.values).all() and np.isfinite(batch.grads).all():
        return {}
    finite = np.isfinite(batch.values) & np.all(np.isfinite(batch.grads), axis=1)
    failures = {int(i): "objective not finite" for i in np.flatnonzero(~finite)}
    failures.update(batch.errors)
    return failures


def adam_maximize(
    objective,
    x0: np.ndarray,
    config: TrainConfig,
    trace=None,
) -> AdamRun:
    """Maximize B independent problems at once with bias-corrected Adam.

    ``x0`` has shape (B, n). ``objective(X, rows)`` receives the (b, n)
    iterates of the rows still running and their ascending indices into
    ``x0``, and returns an :class:`~mtgp.multitask.LMLBatch` for them. Each
    row keeps the best iterate it has seen (its initialization
    included), so its reported value never falls below the initial one. A
    row stops when its objective changed by less than the relative
    tolerance over the last :data:`CONVERGENCE_WINDOW` iterations, or when
    its objective fails (Cholesky failure or a non-finite value); a failed
    step is rejected and the row keeps its best iterate. Rows never
    influence each other. ``trace(row, iteration, value, grad_norm)`` is
    called per row and evaluation, iteration by iteration.
    """
    started = time.perf_counter()
    x = np.array(x0, dtype=float)
    B = x.shape[0]
    batch = objective(x, np.arange(B))
    phases, calls = list(batch.phases), 1
    initial_value = np.array(batch.values, dtype=float)
    best_x, best_value = x.copy(), initial_value.copy()
    escalations = np.array(batch.escalated, dtype=int)
    row_iterations = np.zeros(B, dtype=int)
    converged = np.zeros(B, dtype=bool)
    failed = np.zeros(B, dtype=bool)
    stop_reasons = ["max_iterations"] * B
    for r, message in _failures(batch).items():
        failed[r] = True
        best_value[r] = np.nan
        stop_reasons[r] = f"objective_failed: {message}"
    rows = np.flatnonzero(~failed)
    if trace is not None:
        _trace_rows(trace, rows, 0, initial_value[rows], batch.grads[rows])

    # the state of the rows still running, compacted to those rows
    x, grad = x[rows], np.asarray(batch.grads)[rows]
    bx, bv = x.copy(), initial_value[rows]
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    window = CONVERGENCE_WINDOW + 1
    history = np.empty((window, rows.size))
    history[0] = bv
    for t in range(1, config.max_iterations + 1):
        if rows.size == 0:
            break
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * grad
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * grad**2
        mhat = m / (1.0 - ADAM_BETA1**t)
        vhat = v / (1.0 - ADAM_BETA2**t)
        x += config.learning_rate * mhat / (np.sqrt(vhat) + ADAM_EPS)
        batch = objective(x, rows)
        values, grad = batch.values, batch.grads
        phases = [a + b for a, b in zip(phases, batch.phases)]
        calls += 1
        if batch.escalated.any():
            escalations[rows] += batch.escalated
        failures = _failures(batch)
        stop = np.zeros(rows.size, dtype=bool)
        for i, message in failures.items():
            stop[i] = True
            stop_reasons[rows[i]] = f"objective_failed: {message}"
        if trace is not None:
            _trace_rows(trace, rows[~stop], t, values[~stop], grad[~stop])
        better = values > bv
        if failures:
            better &= ~stop
        np.copyto(bv, values, where=better)
        np.copyto(bx, x, where=better[:, None])
        history[t % window] = values
        finished = bool(failures)
        if t >= CONVERGENCE_WINDOW:
            prev = history[(t - CONVERGENCE_WINDOW) % window]
            tolerance = config.convergence_tolerance * np.maximum(1.0, np.abs(prev))
            done = np.abs(values - prev) <= tolerance
            if failures:
                done &= ~stop
            if done.any():
                for r in rows[done]:
                    converged[r] = True
                    stop_reasons[r] = "converged"
                stop |= done
                finished = True
        if finished:
            row_iterations[rows[stop]] = t
            best_x[rows[stop]] = bx[stop]
            best_value[rows[stop]] = bv[stop]
            keep = ~stop
            rows, x, grad, m, v = rows[keep], x[keep], grad[keep], m[keep], v[keep]
            bx, bv, history = bx[keep], bv[keep], history[:, keep]
    row_iterations[rows] = config.max_iterations
    best_x[rows] = bx
    best_value[rows] = bv
    timing = {f"{name}_s": seconds for name, seconds in zip(PHASES, phases)}
    timing["adam_step_s"] = time.perf_counter() - started - sum(phases)
    timing["objective_calls"] = calls
    return AdamRun(
        best_x,
        best_value,
        initial_value,
        int(row_iterations.max(initial=0)),
        row_iterations,
        converged,
        failed,
        stop_reasons,
        escalations,
        timing,
    )


def _trace_rows(trace, rows, iteration, values, grads):
    norms = np.linalg.norm(grads, axis=1)
    for r, value, norm in zip(rows, values, norms):
        trace(int(r), iteration, float(value), float(norm))


# ---------------------------------------------------------------------------
# Initialization heuristics
# ---------------------------------------------------------------------------


def median_lengthscales(X: np.ndarray) -> np.ndarray:
    """Median positive pairwise distance per input dimension, fallback 1."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    out = np.ones(X.shape[1])
    if X.shape[0] < 2:
        return out
    iu = np.triu_indices(X.shape[0], k=1)
    for p in range(X.shape[1]):
        dists = np.abs(X[iu[0], p] - X[iu[1], p])
        positive = dists[dists > 0.0]
        if positive.size:
            out[p] = float(np.median(positive))
    return out


def _target_variance(Y: np.ndarray) -> float:
    var = float(np.var(Y)) if Y.size else 0.0
    return var if var > 0.0 else 1.0


# ---------------------------------------------------------------------------
# Training drivers
# ---------------------------------------------------------------------------


def _restart_diagnostics(run: AdamRun, rows: range) -> list:
    """One dict per restart of a fit whose restarts are ``rows`` of the batch run."""
    diagnostics = []
    for r, row in enumerate(rows):
        info = {"restart": r, "status": "failed" if run.failed[row] else "ok"}
        if run.failed[row]:
            info["error"] = run.stop_reasons[row]
        else:
            info.update(
                initial_objective=float(run.initial_value[row]),
                final_objective=float(run.value[row]),
                iterations=int(run.row_iterations[row]),
                converged=bool(run.converged[row]),
            )
        info["stop_reason"] = run.stop_reasons[row]
        info["jitter_escalations"] = int(run.jitter_escalations[row])
        diagnostics.append(info)
    return diagnostics


def _fit_layout(dataset: MultiTaskDataset, family: MTGPFamily, standardize: bool):
    """One fit's layout on its working targets, with the standardization means,
    stds and ``sum_d N_d log s_d``. Its template is the family's start.

    Latent terms start at staggered lengthscales (a geometric spread over one
    octave pair per term) so that separate components can pick up smooth
    trends and short-scale structure; a single shared scale tends to collapse
    all latents onto the same structure. Independent mode keeps one scale per
    task term.
    """
    work, means, stds = working_targets(dataset, standardize)
    # change of variables: observed-units likelihood differs by -sum N_d log s_d
    log_scale = float(np.sum([n * np.log(s) for n, s in zip(dataset.counts, stds)]))
    D, independent = work.num_tasks, family.mode == "independent"
    if family.mode == "lmc" and family.rank > D:
        # W W^T has rank at most D, so extra columns only add redundant parameters
        raise DomainError(f"rank {family.rank} exceeds the number of tasks ({D})")
    Q = D if family.num_terms is None or independent else family.num_terms
    rank = int(family.rank) if family.mode == "lmc" else 1
    layout = ExactGPLayout.of_shape(
        [family.kernel_kind] * Q, [rank] * Q, work, family.learns_W, family.learns_gamma
    )
    ls, s2, noise, gamma, W = (group[0] for group in layout.groups(layout.template[None]))
    spread = np.geomspace(1.0, 4.0, Q) if not independent and Q > 1 else np.ones(Q)
    ls[:] = median_lengthscales(work.stacked_inputs()) * spread[:, None]
    s2[:] = _target_variance(work.stacked_targets())
    task_vars = np.array([_target_variance(Y) for Y in work.targets])
    noise[:] = 0.01 * task_vars
    if family.mode == "lmc":
        gamma[:] = (LMC_GAMMA_INIT_FRACTION / Q) * task_vars
    if independent:  # term q loads on task q alone
        W[:] = np.eye(D)[:, :, None]
    return layout, means, stds, log_scale


def _restart_vectors(layout, family: MTGPFamily, config: TrainConfig, seed, stream) -> np.ndarray:
    """The (num_restarts, size) initial vectors of one fit.

    Restart r draws from ``make_rng(seed, stream, r)``: it redraws the learned
    task loadings W (diagonal-dominant families start with timid coupling),
    and restarts after the first also jitter the log-parameters.
    """
    is_w = layout.is_W
    w_std = LMC_W_INIT_STD if family.mode == "lmc" else W_INIT_STD
    x0 = np.tile(layout.initial_vector(), (config.num_restarts, 1))
    for r, vec in enumerate(x0):
        rng = make_rng(seed, stream, r)
        if np.any(is_w):
            vec[is_w] = rng.normal(0.0, w_std, size=int(np.sum(is_w)))
        if r > 0:
            vec[~is_w] += rng.normal(0.0, RESTART_LOG_JITTER, size=int(np.sum(~is_w)))
    return x0


def _train(datasets, config, seeds, family, standardize, stream, trace, fit) -> list:
    """The training driver behind :func:`train_mtgp_batch` and :func:`train_gp_batch`.

    Per dataset it standardizes the targets, builds the family's layout,
    and draws the restart vectors from the dataset's own seed. One
    :func:`adam_maximize` run then ascends every restart of every fit
    through the layouts' :class:`LayoutStack`, so a fit's result does not
    depend on which other fits share its batch. Each fit's winner becomes
    its layout's template, which goes with its standardization means and
    stds to ``fit(i, layout, means, stds)``, whose model gets ``fit_info``;
    ``wall_time_s`` and ``timing`` are the whole batch's.
    """
    started = time.perf_counter()
    if len(seeds) != len(datasets):
        raise ShapeError(f"{len(datasets)} datasets need as many seeds, got {len(seeds)}")
    if not datasets:
        return []
    R = config.num_restarts
    fits = [_fit_layout(dataset, family, standardize) for dataset in datasets]
    layouts = [layout for layout, *_ in fits]
    objective = LayoutStack(layouts, R).evaluate
    x0 = np.concatenate(
        [_restart_vectors(lay, family, config, seed, stream) for lay, seed in zip(layouts, seeds)]
    )
    try:
        run = adam_maximize(objective, x0, config, trace=trace)
    except MTGPError as exc:
        diagnostics = [{"restart": r, "status": "failed", "error": str(exc)} for r in range(R)]
        raise TrainingFailedError("all restarts failed", diagnostics) from exc
    models = []
    for i, (layout, means, stds, log_scale) in enumerate(fits):
        rows = range(i * R, (i + 1) * R)
        diagnostics = _restart_diagnostics(run, rows)
        failed = run.failed[rows]
        if failed.all():
            where = f" in fit {i} of {len(fits)}" if len(fits) > 1 else ""
            raise TrainingFailedError(f"all restarts failed{where}", diagnostics)
        restart = int(np.argmax(np.where(failed, -np.inf, run.value[rows])))
        row = rows[restart]
        layout.template = layout.natural_batch(run.vector[row][None])[0]
        model = fit(i, layout, means, stds)
        model.fit_info = {
            "log_marginal_likelihood": float(run.value[row]) - log_scale,
            "objective": float(run.value[row]),
            "iterations": int(run.row_iterations[row]),
            "restart": restart,
            "wall_time_s": None,  # the whole batch's, set below
            "timing": dict(run.timing),  # the whole batch's
            "restarts": diagnostics,
        }
        models.append(model)
    wall_time = time.perf_counter() - started
    for model in models:
        model.fit_info["wall_time_s"] = wall_time
    return models


def train_mtgp_batch(
    datasets,
    config: TrainConfig,
    seeds,
    family: MTGPFamily = MTGPFamily(),
    standardize: bool = True,
    trace=None,
) -> list[MTGPModel]:
    """Fit one multi-task GP per dataset, all restarts of all fits in one batch.

    The datasets must share their shape: task count, rows per task and input
    dimension (else :class:`~mtgp.errors.ShapeError`). Fit i uses
    ``seeds[i]`` in place of ``config.seed`` and returns the model
    :func:`train_mtgp` would return for it alone. ``trace`` numbers rows
    across the batch: restart r of fit i is row ``i * num_restarts + r``.
    """
    datasets = list(datasets)

    def fit(i, layout, means, stds):
        return _condition(layout, datasets[i], means, stds, standardize)

    return _train(datasets, config, list(seeds), family, standardize, "mtgp-restart", trace, fit)


def train_mtgp(
    dataset: MultiTaskDataset,
    config: TrainConfig = TrainConfig(),
    family: MTGPFamily = MTGPFamily(),
    standardize: bool = True,
    trace=None,
) -> MTGPModel:
    """Fit a multi-task GP by joint marginal-likelihood ascent.

    The one-dataset case of :func:`train_mtgp_batch`. The winning restart's
    parameters are conditioned on the targets it trained on; the model keeps
    the raw dataset.
    """
    return train_mtgp_batch([dataset], config, [config.seed], family, standardize, trace)[0]


def train_gp_batch(
    inputs,
    targets,
    config: TrainConfig,
    seeds,
    kernel_kind: str = SQUARED_EXPONENTIAL,
    standardize: bool = True,
    trace=None,
) -> list[MTGPModel]:
    """Fit one single-task GP per (X, Y) pair, all restarts in one batch.

    The one-task case of :func:`train_mtgp_batch` (the independent family on
    one-task datasets); every X must have the same shape. Optimization runs
    on standardized targets when ``standardize`` is set; the learned scale
    and offset are folded back exactly into each model's signal variance,
    noise variance, and task mean, so the models, one-task MTGPs with task
    std 1, predict in raw units with ``mtgp_predict(model, 0, X)``.
    """
    inputs, targets = list(inputs), list(targets)
    if len(inputs) != len(targets):
        raise ShapeError(f"{len(inputs)} input arrays but {len(targets)} target arrays")
    datasets = [MultiTaskDataset((X,), (Y,)) for X, Y in zip(inputs, targets)]

    def fold(i, layout, means, stds):
        # signal and noise variance in raw units; the targets keep only the mean
        for group in layout.group_slices[1:3]:
            layout.template[group] *= float(stds[0]) ** 2
        layout.y = datasets[i].targets[0] - means[0]
        return _condition(layout, datasets[i], means, np.ones(1), False)

    family = MTGPFamily(mode="independent", kernel_kind=kernel_kind)
    return _train(datasets, config, list(seeds), family, standardize, "gp-restart", trace, fold)


def train_gp(
    X,
    Y,
    config: TrainConfig = TrainConfig(),
    kernel_kind: str = SQUARED_EXPONENTIAL,
    standardize: bool = True,
    trace=None,
) -> MTGPModel:
    """Fit a single-task GP: the one-dataset case of :func:`train_gp_batch`."""
    return train_gp_batch([X], [Y], config, [config.seed], kernel_kind, standardize, trace)[0]
