"""Two-task Forrester benchmark: single-task GP vs multi-task GP.

The primary task is the canonical Forrester curve

    f(x) = a * (6x - 2)^2 * sin(12x - 4) + b * (x - 0.5),   x in [0, 1]

with (a, b) = (1, 0); auxiliary tasks are (a, b) variants calibrated so the
two curves hit a target Pearson correlation. A study (:func:`run_study`)
sweeps correlation levels and per-task sample sizes over seeded replicates.
For each seeded draw of data it trains a single-task GP on the task-1 data
alone and a multi-task GP on both tasks, then compares root-mean-square
errors on held-out task-1 points.

A study's fits are many small ones of few shapes; it lists them all as
jobs (:class:`~mtgp.training.FitJob`) of one :func:`~mtgp.training.train`
call, which batches the fits of each shape: the single-task baselines of all
replicates of one primary size, and the multi-task fits of all correlation
levels and replicates of one size pair. Every fit gets the result it would
get alone, so a row does not depend on the rest of the study. Each cell's
aggregate reports the restart outcomes of its fits
(:func:`training_diagnostics`).
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import MultiTaskDataset
from .errors import CalibrationError, DomainError, ShapeError, UndefinedCorrelationError
from .multitask import mtgp_predict
from .seeding import make_rng, seed_entropy
from .training import FitJob, MTGPFamily, TrainConfig, _is_integer, train

CALIBRATION_GRID_SIZE = 1000
CORRELATION_TOLERANCE = 0.03
_A_BOX = (0.0, 1.5)
_B_BOX = (-15.0, 15.0)

# low-rank-plus-diagonal task covariance with a diagonal-dominant start is the
# robust choice on 5-sample tasks; see MTGPFamily for the initialization
BENCHMARK_MTGP_FAMILY = MTGPFamily(mode="lmc", rank=1)


@dataclass(frozen=True)
class ForresterParams:
    """Scale coefficient ``a`` and linear-trend coefficient ``b``."""

    a: float
    b: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise ValueError("Forrester coefficients must be finite")


PRIMARY_PARAMS = ForresterParams(1.0, 0.0)


def forrester(x, params: ForresterParams = PRIMARY_PARAMS):
    """Evaluate the Forrester curve; scalar in, scalar out (arrays pass through)."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise DomainError("forrester inputs must lie in [0, 1]")
    value = params.a * (6.0 * arr - 2.0) ** 2 * np.sin(12.0 * arr - 4.0) + params.b * (
        arr - 0.5
    )
    return float(value) if np.isscalar(x) else value


def pearson_correlation(y1, y2) -> float:
    """Sample Pearson coefficient between two equal-length series."""
    y1 = np.asarray(y1, dtype=float).reshape(-1)
    y2 = np.asarray(y2, dtype=float).reshape(-1)
    if y1.shape != y2.shape or y1.size < 2:
        raise ShapeError("need two equal-length vectors of length >= 2")
    c1 = y1 - np.mean(y1)
    c2 = y2 - np.mean(y2)
    denom = np.sqrt(np.sum(c1**2) * np.sum(c2**2))
    if denom == 0.0:
        raise UndefinedCorrelationError("correlation undefined for zero-variance series")
    return float(np.clip(np.sum(c1 * c2) / denom, -1.0, 1.0))


def rmse(predicted, actual) -> float:
    predicted = np.asarray(predicted, dtype=float).reshape(-1)
    actual = np.asarray(actual, dtype=float).reshape(-1)
    if predicted.shape != actual.shape or predicted.size == 0:
        raise ShapeError("need two equal-length nonempty vectors")
    return float(np.sqrt(np.mean((predicted - actual) ** 2)))


def percent_improvement(gp_rmse: float, mtgp_rmse: float) -> float:
    """100 * (gp - mtgp) / gp; zero when the baseline error is zero."""
    if gp_rmse <= 0.0:
        return 0.0
    return 100.0 * (gp_rmse - mtgp_rmse) / gp_rmse


# ---------------------------------------------------------------------------
# Auxiliary-task calibration
# ---------------------------------------------------------------------------


def _correlation_surface(a_grid: np.ndarray, b_grid: np.ndarray, grid: np.ndarray):
    """corr(f_primary, a*s + b*t) on the (a, b) mesh, via moment algebra."""
    s = (6.0 * grid - 2.0) ** 2 * np.sin(12.0 * grid - 4.0)
    t = grid - 0.5
    cs = s - np.mean(s)
    ct = t - np.mean(t)
    var_s = float(np.mean(cs**2))
    var_t = float(np.mean(ct**2))
    cov_st = float(np.mean(cs * ct))
    A, B = np.meshgrid(a_grid, b_grid, indexing="ij")
    cov = A * var_s + B * cov_st
    var_f = A**2 * var_s + 2.0 * A * B * cov_st + B**2 * var_t
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = cov / np.sqrt(var_f * var_s)
    corr[var_f <= 0.0] = np.nan
    return A, B, corr


def calibrate_auxiliary(target_r: float) -> ForresterParams:
    """Find (a, b) whose curve correlates with the primary at ``target_r``.

    Deterministic coarse-to-fine mesh search over a in [0, 1.5], b in
    [-15, 15], correlation measured on a 1000-point uniform grid. Among
    near-optimal candidates the one closest to (a, b) = (1, 0) wins, so a
    target of 1.0 returns the primary parameters themselves.
    """
    if not 0.0 < target_r <= 1.0:
        raise DomainError("target correlation must lie in (0, 1]")
    grid = np.linspace(0.0, 1.0, CALIBRATION_GRID_SIZE)
    a_lo, a_hi = _A_BOX
    b_lo, b_hi = _B_BOX
    na, nb = 61, 121
    best = None
    for _ in range(4):
        a_grid = np.linspace(a_lo, a_hi, na)
        b_grid = np.linspace(b_lo, b_hi, nb)
        A, B, corr = _correlation_surface(a_grid, b_grid, grid)
        diff = np.abs(corr - target_r)
        diff[~np.isfinite(diff)] = np.inf
        dmin = float(np.min(diff))
        if not np.isfinite(dmin):
            raise CalibrationError("correlation undefined everywhere in the search box")
        near = diff <= dmin + 1e-12
        pref = np.abs(A - 1.0) + np.abs(B) / (abs(b_hi) + abs(b_lo) + 1.0)
        pref = np.where(near, pref, np.inf)
        i, j = np.unravel_index(int(np.argmin(pref)), pref.shape)
        best = (float(A[i, j]), float(B[i, j]), float(corr[i, j]))
        a_step = a_grid[1] - a_grid[0] if na > 1 else 0.0
        b_step = b_grid[1] - b_grid[0] if nb > 1 else 0.0
        a_lo = max(_A_BOX[0], best[0] - 2.0 * a_step)
        a_hi = min(_A_BOX[1], best[0] + 2.0 * a_step)
        b_lo = max(_B_BOX[0], best[1] - 2.0 * b_step)
        b_hi = min(_B_BOX[1], best[1] + 2.0 * b_step)
        na = nb = 41
    a, b, achieved = best
    if abs(achieved - target_r) > CORRELATION_TOLERANCE:
        raise CalibrationError(
            f"target correlation {target_r} unreachable; best {achieved:.4f} "
            f"at (a={a:.4f}, b={b:.4f})"
        )
    return ForresterParams(a, b)


def achieved_correlation(aux: ForresterParams) -> float:
    grid = np.linspace(0.0, 1.0, CALIBRATION_GRID_SIZE)
    return pearson_correlation(forrester(grid, PRIMARY_PARAMS), forrester(grid, aux))


# ---------------------------------------------------------------------------
# Studies
# ---------------------------------------------------------------------------

DEFAULT_CORRELATIONS = (0.89, 0.53, 0.33)
DEFAULT_SIZE_GRID = ((5, 5), (5, 10), (10, 5), (10, 10))
# the study runs many small trainings; the short budget doubles as
# regularization on the 5-sample cells and is applied to both models
STUDY_TRAIN_CONFIG = TrainConfig(max_iterations=200)


@dataclass(frozen=True)
class StudyConfig:
    correlations: tuple = DEFAULT_CORRELATIONS
    size_grid: tuple = DEFAULT_SIZE_GRID
    replicates: int = 5
    n_test: int = 100
    observation_noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        # written so that NaN fails every check; a correlation's artifacts are
        # named by its f"{r:g}" form, so correlations must differ in that form
        axes = ([f"{r:g}" for r in self.correlations], [tuple(p) for p in self.size_grid])
        if not all(values and len(set(values)) == len(values) for values in axes):
            raise DomainError(
                "correlations (to 6 significant digits) and size pairs must be non-empty and "
                f"distinct, got correlations={self.correlations!r} and size_grid={self.size_grid!r}"
            )
        if not all(0.0 < r <= 1.0 for r in self.correlations):
            raise DomainError(f"correlation targets must lie in (0, 1], got {self.correlations!r}")
        if not (_is_integer(self.replicates) and self.replicates >= 1):
            raise DomainError(f"replicates must be an int >= 1, got {self.replicates!r}")
        counts = [self.n_test, *(n for pair in self.size_grid for n in pair)]
        if not all(_is_integer(n) and n >= 1 for n in counts):
            raise DomainError(
                f"sample counts must be ints >= 1, got size_grid={self.size_grid!r} "
                f"and n_test={self.n_test!r}"
            )
        if not _is_integer(self.seed):
            raise DomainError(f"seed must be an int, got {self.seed!r}")
        if not 0.0 <= self.observation_noise < math.inf:
            raise DomainError(
                f"observation_noise must be finite and non-negative, got {self.observation_noise!r}"
            )


@dataclass
class StudyResult:
    config: StudyConfig
    train: TrainConfig  # the training every fit of the study ran
    calibrations: dict  # target -> ForresterParams
    achieved: dict  # target -> achieved_correlation of its calibration
    rows: list  # per-replicate dicts
    aggregates: list  # per-cell dicts
    series: dict  # (target, n1, n2) -> prediction-band arrays for replicate 0


def _scenario_seed(study_seed: int, n_primary: int, replicate: int) -> int:
    # shared across correlation levels and auxiliary sizes so the task-1
    # design (and hence the GP baseline) is paired within a replicate
    entropy = seed_entropy(study_seed, "scenario", n_primary, replicate)
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def _sample_inputs(rng, n: int, forbidden: np.ndarray) -> np.ndarray:
    """Uniform samples on [0, 1], redrawn if they collide with held-out points."""
    x = rng.uniform(0.0, 1.0, size=n)
    while np.any(np.isin(x, forbidden)):
        clash = np.isin(x, forbidden)
        x[clash] = rng.uniform(0.0, 1.0, size=int(np.sum(clash)))
    return x.reshape(-1, 1)


def _scenario_data(
    study: StudyConfig, n_primary: int, n_auxiliary: int, seed: int, aux: ForresterParams
):
    """One seeded draw: task-1 and auxiliary training data, and the task-1 test grid.

    Each task's inputs come from their own stream, so the task-1 design
    depends only on ``seed`` and ``n_primary``; y1's noise is drawn before
    y2's from a third stream.
    """
    x_test = np.linspace(0.0, 1.0, study.n_test).reshape(-1, 1)
    y_test = forrester(x_test[:, 0], PRIMARY_PARAMS)
    x1 = _sample_inputs(make_rng(seed, "task1"), n_primary, x_test[:, 0])
    x2 = _sample_inputs(make_rng(seed, "task2"), n_auxiliary, x_test[:, 0])
    y1 = forrester(x1[:, 0], PRIMARY_PARAMS)
    y2 = forrester(x2[:, 0], aux)
    if study.observation_noise > 0.0:
        noise_rng = make_rng(seed, "noise")
        y1 = y1 + noise_rng.normal(0.0, study.observation_noise, size=y1.shape)
        y2 = y2 + noise_rng.normal(0.0, study.observation_noise, size=y2.shape)
    return x1, y1, x2, y2, x_test, y_test


def _model_seed(config: TrainConfig, scenario_seed: int, tag: str) -> int:
    mixed = seed_entropy(config.seed, scenario_seed, tag)
    return int(np.random.SeedSequence(mixed).generate_state(1, np.uint64)[0])


def run_study(study: StudyConfig, train_config: TrainConfig = STUDY_TRAIN_CONFIG) -> StudyResult:
    """Sweep correlation targets and size pairs over seeded replicates.

    The task-1 training design depends only on (study seed, n_primary,
    replicate), so the single-task baseline is trained once per such key and
    shared across correlation levels, mirroring the paired comparisons of
    the study tables. Every fit of the study is one job of a single
    :func:`~mtgp.training.train` call; each fit's result is the one it would
    get alone. The cells run in output order, targets descending and size
    pairs ascending, and each builds its rows and aggregate in one pass.
    """
    calibrations = {r: calibrate_auxiliary(r) for r in study.correlations}
    achieved = {r: achieved_correlation(aux) for r, aux in calibrations.items()}
    replicates = range(study.replicates)

    # the cells in output order; a baseline's draw is keyed (n1, rep), a
    # multi-task fit's (target, n1, n2, rep)
    correlations, sizes = sorted(study.correlations, reverse=True), sorted(study.size_grid)
    grid = [(target, n1, n2) for target in correlations for n1, n2 in sizes]
    seeds, gp_draws, mt_draws, jobs = {}, {}, {}, []
    for n1 in sorted({n1 for n1, _ in study.size_grid}):
        for rep in replicates:
            seed = seeds[(n1, rep)] = _scenario_seed(study.seed, n1, rep)
            x1, y1, *_ = gp_draws[(n1, rep)] = _scenario_data(study, n1, 1, seed, PRIMARY_PARAMS)
            model_seed = _model_seed(train_config, seed, "gp")
            jobs.append(FitJob(MultiTaskDataset((x1,), (y1,)), model_seed, MTGPFamily("gp")))
    for target, n1, n2 in grid:
        for rep in replicates:
            draw = _scenario_data(study, n1, n2, seeds[(n1, rep)], calibrations[target])
            x1, y1, x2, y2, *_ = mt_draws[(target, n1, n2, rep)] = draw
            model_seed = _model_seed(train_config, seeds[(n1, rep)], "mtgp")
            dataset = MultiTaskDataset((x1, x2), (y1, y2))
            jobs.append(FitJob(dataset, model_seed, BENCHMARK_MTGP_FAMILY))
    fits = dict(zip([*gp_draws, *mt_draws], train(jobs, train_config)))
    gp_preds = {
        key: mtgp_predict(fits[key], 0, x_test) for key, (*_, x_test, _) in gp_draws.items()
    }

    rows, aggregates, series = [], [], {}
    for target, n1, n2 in grid:
        aux, cell = calibrations[target], []
        for rep in replicates:
            *_, x_test, y_test = mt_draws[(target, n1, n2, rep)]
            mt, gp = mtgp_predict(fits[(target, n1, n2, rep)], 0, x_test), gp_preds[(n1, rep)]
            gp_rmse, mtgp_rmse = rmse(gp.mean, y_test), rmse(mt.mean, y_test)
            cell.append(
                {
                    "correlation_target": target,
                    "correlation_achieved": achieved[target],
                    "aux_a": aux.a,
                    "aux_b": aux.b,
                    "n_primary": n1,
                    "n_auxiliary": n2,
                    "replicate": rep,
                    "seed": seeds[(n1, rep)],
                    "gp_rmse": gp_rmse,
                    "mtgp_rmse": mtgp_rmse,
                    "percent_improvement": percent_improvement(gp_rmse, mtgp_rmse),
                }
            )
            if rep == 0:
                series[(target, n1, n2)] = {
                    "x": x_test[:, 0],
                    "true": y_test,
                    "gp_mean": gp.mean,
                    "gp_stddev": gp.stddev,
                    "mtgp_mean": mt.mean,
                    "mtgp_stddev": mt.stddev,
                }
        rows += cell
        def col(name):
            return np.asarray([row[name] for row in cell])
        gp_mean = float(np.mean(col("gp_rmse")))
        mtgp_mean = float(np.mean(col("mtgp_rmse")))
        aggregates.append(
            {
                "correlation_target": target,
                "correlation_achieved": achieved[target],
                "n_primary": n1,
                "n_auxiliary": n2,
                "replicates": len(cell),
                "gp_rmse_mean": gp_mean,
                "gp_rmse_std": float(np.std(col("gp_rmse"))),
                "mtgp_rmse_mean": mtgp_mean,
                "mtgp_rmse_std": float(np.std(col("mtgp_rmse"))),
                # headline number, consistent with quoting the two mean RMSEs
                "improvement": percent_improvement(gp_mean, mtgp_mean),
                "improvement_per_replicate_mean": float(np.mean(col("percent_improvement"))),
                "improvement_per_replicate_std": float(np.std(col("percent_improvement"))),
                "mtgp_training": training_diagnostics(
                    [fits[(target, n1, n2, rep)].fit_info for rep in replicates]
                ),
                "gp_training": training_diagnostics(
                    [fits[(n1, rep)].fit_info for rep in replicates]
                ),
            }
        )
    return StudyResult(study, train_config, calibrations, achieved, rows, aggregates, series)


def training_diagnostics(fit_infos) -> dict:
    """Restart outcomes of a set of fits, from each model's ``fit_info``.

    ``fits`` and ``restarts`` count fits and restarts, ``failed_restarts``
    the restarts whose initial point failed, ``stop_reasons`` the restarts
    per reason (``converged``, ``max_iterations``, ``objective_failed``) and
    ``jitter_escalations`` the escalated factorizations of all restarts;
    ``iterations_median`` and ``iterations_max`` are over the restarts that
    did not fail (0 when none did).
    """
    restarts = [info for fit_info in fit_infos for info in fit_info["restarts"]]
    iterations = [info["iterations"] for info in restarts if info["status"] == "ok"]
    reasons = {}
    for info in restarts:
        reason = info["stop_reason"].split(":")[0]
        reasons[reason] = reasons.get(reason, 0) + 1
    return {
        "fits": len(fit_infos),
        "restarts": len(restarts),
        "failed_restarts": sum(info["status"] == "failed" for info in restarts),
        "stop_reasons": reasons,
        "jitter_escalations": sum(info["jitter_escalations"] for info in restarts),
        "iterations_median": float(np.median(iterations)) if iterations else 0.0,
        "iterations_max": max(iterations, default=0),
    }


def format_study_table(result: StudyResult) -> str:
    """Aligned text table: one block per correlation level."""
    rmse_header = "MTGP \\ GP RMSE"
    lines = []
    for target in result.config.correlations:
        achieved = result.achieved[target]
        lines.append(f"Correlation target r={target:g} (achieved r={achieved:.3f})")
        header = f"{'Task Pair':<24}{rmse_header:<24}{'% Improvement':>14}"
        lines.append(header)
        lines.append("-" * len(header))
        for agg in result.aggregates:
            if agg["correlation_target"] != target:
                continue
            pair = f"T1 n={agg['n_primary']} - T2 n={agg['n_auxiliary']}"
            rmse_col = f"{agg['mtgp_rmse_mean']:.2f} " + "\\ " + f"{agg['gp_rmse_mean']:.2f}"
            lines.append(f"{pair:<24}{rmse_col:<24}{agg['improvement']:>14.2f}")
        lines.append("")
    return "\n".join(lines)
