"""Hyperparameter estimation by log-marginal-likelihood ascent.

Positive parameters are optimized through log-transforms; task loadings W
are unconstrained, which keeps every task matrix positive semidefinite by
construction. The optimizer is Adam with bias correction run full-batch,
restarted from several seeded initializations; the restart with the best
objective wins (ties to the lowest restart index).

:func:`train` trains every model. Each :class:`FitJob` names a dataset, the
seed of its restarts, its family and whether its targets are standardized.
Jobs that :class:`~mtgp.multitask.LayoutStack` can stack (one family and
``standardize``, the same rows per task and input dimension) train as one
group: per job one layout on its scaled targets, whose template is the
family's start, and the seeded restart vectors; then one
:func:`adam_maximize` run over all restarts of the group; then per job the
winner, set as its layout's template and conditioned on there (no kernel
spec is built), and ``fit_info``, the one record of the fit, which ``mtgp
train`` writes as ``metrics.json``; its ``wall_time_s`` and ``timing`` are
the whole group's. The objective computes each row on its own, so a fit's
result is bitwise the one it gets when trained alone. The single-task GP is
the family of mode ``"gp"``: the independent family on one task, whose model
has the target scale and offset folded in.
"""

import functools
import operator
import time
from dataclasses import dataclass

import numpy as np

from .data import MultiTaskDataset, task_scaling
from .errors import DomainError, TrainingFailedError
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
GRADIENT_CHECK_STEP = 1e-6


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
        if not _is_integer(self.seed):  # negative seeds are masked by seed_entropy
            raise DomainError(f"seed must be an int, got {self.seed!r}")


@dataclass(frozen=True)
class MTGPFamily:
    """Model family.

    mode "slfm": rank-one loadings per term, gamma pinned to zero.
    mode "lmc": low-rank-plus-diagonal task matrices, gamma learned.
    mode "independent": fixed indicator loadings, one term per task; tasks
    share nothing (used for decoupling checks).
    mode "gp": the single-task GP, the independent family on one task. Its
    restarts draw from a stream of their own, and its model has the target
    scale folded into its signal and noise variances.
    """

    mode: str = "slfm"
    kernel_kind: str = SQUARED_EXPONENTIAL
    num_terms: int | None = None
    rank: int = 1

    def __post_init__(self):
        if self.mode not in ("slfm", "lmc", "independent", "gp"):
            raise ValueError(f"unknown family mode {self.mode!r}")
        if self.kernel_kind not in KERNEL_KINDS:
            raise DomainError(f"unknown kernel_kind {self.kernel_kind!r}")
        if not (self.num_terms is None or _is_integer(self.num_terms) and self.num_terms >= 1):
            raise DomainError(f"num_terms must be None or an int >= 1, got {self.num_terms!r}")
        if not (_is_integer(self.rank) and self.rank >= 1):
            raise DomainError(f"rank must be an int >= 1, got {self.rank!r}")
        if self.num_terms is not None and not self.learns_W:
            raise DomainError(
                f"num_terms must be None in mode {self.mode!r}, got {self.num_terms!r}"
            )
        if self.rank != 1 and self.mode != "lmc":
            raise DomainError(f"rank must be 1 outside mode 'lmc', got {self.rank!r}")

    @property
    def learns_W(self) -> bool:
        return self.mode in ("slfm", "lmc")

    @property
    def learns_gamma(self) -> bool:
        return self.mode == "lmc"


@dataclass(frozen=True)
class FitJob:
    """One fit for :func:`train`: its dataset, the seed its restarts draw
    from (in place of ``TrainConfig.seed``), its family and whether its
    targets are standardized. Its checks against the dataset (a ``gp`` job
    has one task, a rank is at most the task count) run when it is made."""

    dataset: MultiTaskDataset
    seed: int
    family: MTGPFamily = MTGPFamily()
    standardize: bool = True

    def __post_init__(self):
        if not _is_integer(self.seed):  # negative seeds are masked by seed_entropy
            raise DomainError(f"seed must be an int, got {self.seed!r}")
        D = self.dataset.num_tasks
        if self.family.mode == "gp" and D != 1:
            raise DomainError(f"family 'gp' requires a single task, data has {D}")
        if self.family.rank > D:  # W W^T has rank at most D: extra columns are redundant
            raise DomainError(f"rank {self.family.rank} exceeds the number of tasks ({D})")


# ---------------------------------------------------------------------------
# Gradient verification
# ---------------------------------------------------------------------------


def check_gradients(objective, point) -> float:
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
        shifted[i] = point[i] + GRADIENT_CHECK_STEP
        up, _ = objective(shifted)
        shifted[i] = point[i] - GRADIENT_CHECK_STEP
        down, _ = objective(shifted)
        numeric = (up - down) / (2.0 * GRADIENT_CHECK_STEP)
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
    which is the most any row took. ``value`` is the best objective a row
    reached, NaN for a row whose initial point failed. ``stop_reasons``
    holds ``converged``, ``max_iterations`` or ``objective_failed:
    <message>`` per row, and ``jitter_escalations`` counts the row's
    evaluations whose Cholesky factorization needed more than the base
    jitter. ``timing`` holds the run's seconds per objective phase
    (``<phase>_s`` for each of :data:`~mtgp.multitask.PHASES`),
    ``adam_step_s`` for everything else (the Adam update, the per-row
    bookkeeping and call overhead) and ``objective_calls``.
    """

    vector: np.ndarray
    value: np.ndarray
    initial_value: np.ndarray
    iterations: int
    row_iterations: np.ndarray
    stop_reasons: list
    jitter_escalations: np.ndarray
    timing: dict


def _failures(batch: LMLBatch) -> dict:
    """Row -> message for every row whose evaluation failed or is not finite."""
    # np.count_nonzero is C; ndarray.all() goes through a Python wrapper
    if (
        not batch.errors
        and np.count_nonzero(np.isfinite(batch.values)) == batch.values.size
        and np.count_nonzero(np.isfinite(batch.grads)) == batch.grads.size
    ):
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
    ``x0``, and returns an :class:`~mtgp.multitask.LMLBatch` for them.
    ``rows`` is the same object from call to call until a row stops, and is
    never changed in place (:class:`~mtgp.multitask.LayoutStack` recognizes
    it by identity). Step 0 evaluates the initial points, each later step
    one Adam update. Each row keeps the best iterate it has seen (its
    initialization included), so its reported value never falls below the
    initial one. A row stops when its objective changed by less than the
    relative tolerance over the last :data:`CONVERGENCE_WINDOW` iterations,
    or when its objective fails (Cholesky failure or a non-finite value); a
    failed step is rejected and the row keeps its best iterate, a NaN value
    if it failed at step 0. Rows never influence each other.
    ``trace(row, iteration, value, grad_norm)`` is called per row and
    successful evaluation, iteration by iteration.

    The update keeps numpy's operators: at these sizes ``out=`` keywords
    cost more to parse than the temporaries they save.
    """
    started = time.perf_counter()
    x = np.array(x0, dtype=float)
    B = x.shape[0]
    best_x, best_value = x.copy(), np.full(B, np.nan)
    escalations = np.zeros(B, dtype=int)
    row_iterations = np.full(B, config.max_iterations)
    stop_reasons = ["max_iterations"] * B
    phases = [0.0] * len(PHASES)
    # the state of the rows still running, compacted to those rows
    rows, bx, bv = np.arange(B), x.copy(), best_value.copy()
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    window = CONVERGENCE_WINDOW + 1
    history = np.empty((window, B))
    for t in range(config.max_iterations + 1):
        if t > 0:
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * grad
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * grad**2
            mhat = m / (1.0 - ADAM_BETA1**t)
            vhat = v / (1.0 - ADAM_BETA2**t)
            x += config.learning_rate * mhat / (np.sqrt(vhat) + ADAM_EPS)
        batch = objective(x, rows)
        values, grad = batch.values, batch.grads
        phases = list(map(operator.add, phases, batch.phases))
        if t == 0:
            initial_value = np.array(values, dtype=float)
        if np.count_nonzero(batch.escalated):
            escalations[rows] += batch.escalated
        failures = _failures(batch)
        stop = np.zeros(rows.size, dtype=bool)
        for i, message in failures.items():
            stop[i] = True
            stop_reasons[rows[i]] = f"objective_failed: {message}"
        if trace is not None:
            _trace_rows(trace, rows[~stop], t, values[~stop], grad[~stop])
        better = ~(values <= bv)  # true against the NaN before a row's first value
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
            if np.count_nonzero(done):
                for r in rows[done]:
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
        if rows.size == 0:
            break
    best_x[rows] = bx
    best_value[rows] = bv
    timing = {f"{name}_s": seconds for name, seconds in zip(PHASES, phases)}
    timing["adam_step_s"] = time.perf_counter() - started - sum(phases)
    timing["objective_calls"] = t + 1
    return AdamRun(
        best_x,
        best_value,
        initial_value,
        int(row_iterations.max(initial=0)),
        row_iterations,
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
        failed = np.isnan(run.value[row])
        info = {"restart": r, "status": "failed" if failed else "ok"}
        if failed:
            info["error"] = run.stop_reasons[row]
        else:
            info.update(
                initial_objective=float(run.initial_value[row]),
                final_objective=float(run.value[row]),
                iterations=int(run.row_iterations[row]),
                converged=run.stop_reasons[row] == "converged",
            )
        info["stop_reason"] = run.stop_reasons[row]
        info["jitter_escalations"] = int(run.jitter_escalations[row])
        diagnostics.append(info)
    return diagnostics


def _fit_layout(dataset: MultiTaskDataset, family: MTGPFamily, standardize: bool):
    """One fit's layout on ``dataset``, which scales its targets by
    :func:`~mtgp.data.task_scaling`, and ``sum_d N_d log s_d``. Its template
    is the family's start. Its shape, learned entries and fixed template
    values depend only on :func:`train`'s group key, so the layouts of one
    group can share a :class:`LayoutStack`.

    Latent terms start at staggered lengthscales (a geometric spread over one
    octave pair per term) so that separate components can pick up smooth
    trends and short-scale structure; a single shared scale tends to collapse
    all latents onto the same structure. Families with fixed loadings keep
    one scale per task term.
    """
    D = dataset.num_tasks
    Q = family.num_terms or D
    kinds, ranks = [family.kernel_kind] * Q, [int(family.rank)] * Q
    layout = ExactGPLayout(kinds, ranks, dataset, family.learns_W, family.learns_gamma).scale(
        *task_scaling(dataset, standardize)
    )
    # change of variables: observed-units likelihood differs by -sum N_d log s_d
    log_scale = float(np.sum([n * np.log(s) for n, s in zip(dataset.counts, layout.stds)]))
    ls, s2, noise, gamma, W = (group[0] for group in layout.groups(layout.template[None]))
    spread = np.geomspace(1.0, 4.0, Q) if family.learns_W and Q > 1 else np.ones(Q)
    ls[:] = median_lengthscales(layout.X) * spread[:, None]
    s2[:] = _target_variance(layout.y)
    task_vars = np.array([_target_variance(layout.y[layout.tasks == d]) for d in range(D)])
    noise[:] = 0.01 * task_vars
    if family.learns_gamma:
        gamma[:] = (LMC_GAMMA_INIT_FRACTION / Q) * task_vars
    if not family.learns_W:  # term q loads on task q alone
        W[:] = np.eye(D)[:, :, None]
    return layout, log_scale


def _restart_vectors(layout, family: MTGPFamily, config: TrainConfig, seed) -> np.ndarray:
    """The (num_restarts, size) initial vectors of one fit.

    Restart r draws from ``make_rng(seed, stream, r)``, the stream being
    ``"gp-restart"`` for the gp family and ``"mtgp-restart"`` for the others:
    it redraws the learned task loadings W (diagonal-dominant families start
    with timid coupling), and restarts after the first also jitter the
    log-parameters.
    """
    is_w = layout.is_W
    w_std = LMC_W_INIT_STD if family.mode == "lmc" else W_INIT_STD
    stream = "gp-restart" if family.mode == "gp" else "mtgp-restart"
    x0 = np.tile(layout.initial_vector(), (config.num_restarts, 1))
    for r, vec in enumerate(x0):
        rng = make_rng(seed, stream, r)
        if np.any(is_w):
            vec[is_w] = rng.normal(0.0, w_std, size=int(np.sum(is_w)))
        if r > 0:
            vec[~is_w] += rng.normal(0.0, RESTART_LOG_JITTER, size=int(np.sum(~is_w)))
    return x0


def _job_trace(trace, index, R, row, *record):
    """``trace`` of the group row ``row``, renumbered as its job's row in :func:`train`."""
    trace(index[row // R] * R + row % R, *record)


def _train(jobs: dict, config: TrainConfig, trace) -> list:
    """Train one group of :func:`train`'s jobs, ``{job index: job}``, which
    share their family, ``standardize`` and shape, as one batch.

    Per job it builds the family's layout on the scaled targets and draws
    the restart vectors from the job's seed. One :func:`adam_maximize` run
    then ascends every restart of every fit through the layouts'
    :class:`LayoutStack`, so a fit's result does not depend on which other
    fits share its batch. Each fit's winner becomes its layout's template,
    and the model is conditioned on it; the gp family first folds the target
    scale into the signal and noise variances, so its model predicts raw
    targets with task std 1 and keeps only the mean. The model gets
    ``fit_info`` (``metrics.json``'s keys), whose ``wall_time_s`` and
    ``timing`` are the whole group's. A fit whose restarts all failed
    raises :class:`~mtgp.errors.TrainingFailedError` with their diagnostics.
    """
    started = time.perf_counter()
    R, index = config.num_restarts, list(jobs)
    family, standardize = jobs[index[0]].family, jobs[index[0]].standardize
    fits = [_fit_layout(job.dataset, family, standardize) for job in jobs.values()]
    layouts = [layout for layout, _ in fits]
    objective = LayoutStack(layouts, R).evaluate
    seeds = [job.seed for job in jobs.values()]
    x0 = np.concatenate(
        [_restart_vectors(lay, family, config, seed) for lay, seed in zip(layouts, seeds)]
    )
    if trace is not None:  # the group's row k * R + r is restart r of job index[k]
        trace = functools.partial(_job_trace, trace, index, R)
    run = adam_maximize(objective, x0, config, trace=trace)
    models = []
    for k, (layout, log_scale) in enumerate(fits):
        rows = range(k * R, (k + 1) * R)
        diagnostics = _restart_diagnostics(run, rows)
        if np.isnan(run.value[rows]).all():
            raise TrainingFailedError(f"all restarts failed in fit {index[k]}", diagnostics)
        restart = int(np.nanargmax(run.value[rows]))
        row = rows[restart]
        layout.template = layout.natural_batch(run.vector[row][None])[0]
        # the gp family: signal and noise variance in raw units, and the
        # targets keep only the mean, so the model is not a standardized one
        if family.mode == "gp":
            for group in layout.group_slices[1:3]:
                layout.template[group] *= float(layout.stds[0]) ** 2
            layout.scale(layout.means, np.ones(1))
        model = _condition(layout, standardize and family.mode != "gp")
        model.fit_info = {
            "log_marginal_likelihood": float(run.value[row]) - log_scale,
            "objective": float(run.value[row]),
            "iterations": int(run.row_iterations[row]),
            "winning_restart": restart,
            "num_restarts": R,
            "wall_time_s": None,  # the whole group's, set below
            "timing": dict(run.timing),  # the whole group's
            "restarts": diagnostics,
        }
        models.append(model)
    wall_time = time.perf_counter() - started
    for model in models:
        model.fit_info["wall_time_s"] = wall_time
    return models


def train(jobs, config: TrainConfig, trace=None) -> list[MTGPModel]:
    """Fit one model per :class:`FitJob` under ``config``, in job order.

    Jobs of one family and ``standardize`` whose datasets share the rows per
    task and the input dimension train as one batch, the groups in order of
    first appearance; each model is bitwise the one its job gets when
    trained alone. ``config.seed`` is not read: each job carries its seed.
    ``trace(row, iteration, value, grad_norm)`` numbers rows across the
    jobs: restart r of job j is row ``j * num_restarts + r``.
    """
    groups = {}
    for i, job in enumerate(jobs):
        key = (job.family, job.standardize, job.dataset.counts, job.dataset.input_dim)
        groups.setdefault(key, {})[i] = job
    models = {}
    for group in groups.values():
        models.update(zip(group, _train(group, config, trace)))
    return [models[i] for i in range(len(models))]
