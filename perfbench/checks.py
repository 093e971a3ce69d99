"""Correctness checks, computed apart from the program.

Each ``check_*`` function takes parsed outputs and returns a list of
failure messages (empty when the outputs are right), so the self-test can
feed it perturbed copies. The reference computations use only numpy, the
closed-form truth functions and the kernel formulas of the README:

    squared_exponential: s2 * exp(-r^2 / 2)
    matern52:            s2 * (1 + sqrt(5) r + 5 r^2 / 3) * exp(-sqrt(5) r)
    r^2 = sum_p ((x_p - x'_p) / l_p)^2,   K[i, j] = sum_q B_q[t_i, t_j] k_q(x_i, x_j)

plus the README's numerical conventions: per-task standardized targets, a
relative jitter of 1e-8 times the mean diagonal, noise floored at 1e-10.
"""

import csv
import glob
import json
import os

import numpy as np

CORRELATION_TOLERANCE = 0.03
CALIBRATION_GRID = 1000
# relative agreement demanded of values the program derives by plain
# arithmetic from numbers it also writes (percent improvement, RMSE)
ARITHMETIC_RTOL = 1e-9
# dense slogdet/solve versus the program's Cholesky path
LML_ATOL = 1e-6
LML_RTOL = 1e-8
# posterior mean/variance: tolerance relative to the prior scale of the task
POSTERIOR_RTOL = 1e-8
JITTER_REL = 1e-8
NOISE_FLOOR = 1e-10


def read_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# study
# ---------------------------------------------------------------------------


def forrester(x, a: float = 1.0, b: float = 0.0):
    x = np.asarray(x, dtype=float)
    return a * (6.0 * x - 2.0) ** 2 * np.sin(12.0 * x - 4.0) + b * (x - 0.5)


def load_study(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    series = {}
    for path in glob.glob(os.path.join(out_dir, "series_predictions_*.csv")):
        rows = read_csv(path)
        series[os.path.basename(path)] = {k: np.array([float(r[k]) for r in rows]) for k in rows[0]}
    return {"rows": read_csv(os.path.join(out_dir, "study_rows.csv")), "summary": summary, "series": series}


def check_study(study: dict, correlations: list, sizes: list, replicates: int) -> list[str]:
    failures = []
    rows = study["rows"]
    expected = len(correlations) * len(sizes) * replicates
    if len(rows) != expected:
        failures.append(f"study: {len(rows)} rows, expected {expected}")
    for row in rows:
        cell = "r={correlation_target} n={n_primary},{n_auxiliary} replicate {replicate}".format(**row)
        gp, mt, pi = float(row["gp_rmse"]), float(row["mtgp_rmse"]), float(row["percent_improvement"])
        if not (np.isfinite(gp) and np.isfinite(mt) and gp > 0.0):
            failures.append(f"study: non-finite or zero RMSE at {cell}")
            continue
        if not _rel_close(pi, 100.0 * (gp - mt) / gp, ARITHMETIC_RTOL):
            failures.append(f"study: percent_improvement {pi!r} != 100*(gp-mtgp)/gp at {cell}")

    grid = np.linspace(0.0, 1.0, CALIBRATION_GRID)
    primary = forrester(grid)
    calibrations = study["summary"]["calibrations"]
    for target in correlations:
        cal = calibrations.get(f"{target:g}")
        if cal is None:
            failures.append(f"study: no calibration for r={target:g}")
            continue
        r = float(np.corrcoef(primary, forrester(grid, cal["a"], cal["b"]))[0, 1])
        if abs(r - target) > CORRELATION_TOLERANCE:
            failures.append(f"study: calibration for r={target:g} gives r={r:.4f}")

    for target in correlations:
        for n1, n2 in sizes:
            name = f"series_predictions_r{target:g}_t1-{n1}_t2-{n2}.csv"
            series = study["series"].get(name)
            row = next(
                (r for r in rows if float(r["correlation_target"]) == target
                 and int(r["n_primary"]) == n1 and int(r["n_auxiliary"]) == n2
                 and int(r["replicate"]) == 0),
                None,
            )
            if series is None or row is None:
                failures.append(f"study: missing series file or replicate-0 row for {name}")
                continue
            truth = forrester(series["x"])
            for model in ("gp", "mtgp"):
                got = float(np.sqrt(np.mean((series[f"{model}_mean"] - truth) ** 2)))
                if not _rel_close(got, float(row[f"{model}_rmse"]), ARITHMETIC_RTOL):
                    failures.append(
                        f"study: {name} {model} RMSE {got} != row's {row[f'{model}_rmse']}"
                    )
    return failures


def check_headline(rows: list, target: float) -> list[str]:
    """At correlation ``target`` the mean MTGP RMSE is below the mean GP RMSE.

    The paper's headline is a property of the mean over replicates, so the
    rows of every study in a run are pooled; one replicate alone can miss it.
    """
    high = [r for r in rows if float(r["correlation_target"]) == target]
    mt = np.mean([float(r["mtgp_rmse"]) for r in high])
    gp = np.mean([float(r["gp_rmse"]) for r in high])
    if not mt < gp:
        return [f"study: at r={target:g} mean MTGP RMSE {mt:.4f} is not below mean GP RMSE {gp:.4f}"]
    return []


# ---------------------------------------------------------------------------
# model files: dense reference algebra
# ---------------------------------------------------------------------------


def _decode(doc: dict) -> np.ndarray:
    return np.array([float.fromhex(h) for h in doc["hex"]], dtype=float).reshape(doc["shape"])


def _base_kernel(kind: str, lengthscales, s2, XA, XB) -> np.ndarray:
    diff = (XA[:, None, :] - XB[None, :, :]) / lengthscales
    r2 = np.sum(diff**2, axis=-1)
    if kind == "squared_exponential":
        return s2 * np.exp(-0.5 * r2)
    if kind == "matern52":
        r = np.sqrt(r2)
        return s2 * (1.0 + np.sqrt(5.0) * r + (5.0 / 3.0) * r2) * np.exp(-np.sqrt(5.0) * r)
    raise ValueError(f"unknown kernel kind {kind!r}")


class DenseModel:
    """A model file's parameters and data, evaluated by dense linear algebra."""

    def __init__(self, doc: dict):
        params = doc["parameters"]
        values = {name: float.fromhex(h) for (name, _), h in zip(params["schema"], params["values_hex"])}
        tasks_doc = doc["data"]["tasks"]
        xs = [_decode(t["x"]).reshape(-1, doc["input_dim"]) for t in tasks_doc]
        ys = [_decode(t["y"]).reshape(-1) for t in tasks_doc]
        self.X = np.vstack(xs)
        self.tasks = np.concatenate([np.full(x.shape[0], d) for d, x in enumerate(xs)])
        self.counts = np.array([x.shape[0] for x in xs])
        y = np.concatenate(ys)
        P = doc["input_dim"]
        if doc["model_type"] == "gp":
            ls = np.exp([values[f"log_lengthscale{p}"] for p in range(P)])
            self.terms = [(doc["kernel_kinds"][0], ls, np.exp(values["log_signal_variance"]), np.ones((1, 1)))]
            noise = np.array([np.exp(values["log_noise"])])
            self.means = np.array([float.fromhex(doc["mean_const"]["hex"])])
            self.stds = np.ones(1)
        else:
            D = doc["num_tasks"]
            self.terms = []
            for q, (kind, rank) in enumerate(zip(doc["kernel_kinds"], doc["ranks"])):
                ls = np.exp([values[f"term{q}.log_lengthscale{p}"] for p in range(P)])
                s2 = np.exp(values[f"term{q}.log_signal_variance"])
                W = np.array([[values[f"term{q}.W[{d},{r}]"] for r in range(rank)] for d in range(D)])
                gamma = np.exp([values[f"term{q}.log_gamma{d}"] for d in range(D)])
                self.terms.append((kind, ls, s2, W @ W.T + np.diag(gamma)))
            noise = np.exp([values[f"log_noise{d}"] for d in range(D)])
            if doc["standardize"]:
                st = doc["standardization"]
                self.means = np.array([float.fromhex(h) for h in st["task_means_hex"]])
                self.stds = np.array([float.fromhex(h) for h in st["task_stds_hex"]])
            else:
                self.means, self.stds = np.zeros(D), np.ones(D)
        self.noise = np.maximum(noise, NOISE_FLOOR)
        self.y_work = (y - self.means[self.tasks]) / self.stds[self.tasks]
        K = self.prior(self.X, self.tasks, self.X, self.tasks) + np.diag(self.noise[self.tasks])
        self.K = K + JITTER_REL * float(np.mean(np.diag(K))) * np.eye(K.shape[0])
        self.alpha = np.linalg.solve(self.K, self.y_work)

    def prior(self, XA, tA, XB, tB) -> np.ndarray:
        out = np.zeros((XA.shape[0], XB.shape[0]))
        for kind, ls, s2, B in self.terms:
            out += B[np.ix_(tA, tB)] * _base_kernel(kind, ls, s2, XA, XB)
        return out

    def prior_variance(self, tasks) -> np.ndarray:
        return sum(s2 * B[tasks, tasks] for _, _, s2, B in self.terms)

    def log_marginal_likelihood(self) -> float:
        """Density of the raw targets: standardized LML minus sum_d N_d log s_d."""
        sign, logdet = np.linalg.slogdet(self.K)
        n = self.y_work.size
        value = -0.5 * self.y_work @ self.alpha - 0.5 * logdet - 0.5 * n * np.log(2.0 * np.pi)
        return float(value - np.sum(self.counts * np.log(self.stds))) if sign > 0 else float("nan")

    def posterior(self, Xq, tq) -> tuple[np.ndarray, np.ndarray]:
        Ks = self.prior(Xq, tq, self.X, self.tasks)
        mean = self.means[tq] + self.stds[tq] * (Ks @ self.alpha)
        v = np.linalg.solve(self.K, Ks.T)
        var = (self.prior_variance(tq) - np.sum(Ks * v.T, axis=1)) * self.stds[tq] ** 2
        return mean, np.maximum(var, 0.0)


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# train-cli
# ---------------------------------------------------------------------------


def check_train(model_doc: dict, metrics: dict) -> list[str]:
    """The reported log marginal likelihood equals the dense recomputation."""
    dense = DenseModel(model_doc).log_marginal_likelihood()
    reported = float(metrics["log_marginal_likelihood"])
    if not abs(dense - reported) <= LML_ATOL + LML_RTOL * abs(dense):
        return [f"train: metrics.json LML {reported!r} != dense recomputation {dense!r}"]
    return []


def check_beats_constant(pred_mean, y_held, y0_train, label: str) -> list[str]:
    """Task-0 held-out RMSE of the model is below the constant predictor's."""
    model = float(np.sqrt(np.mean((np.asarray(pred_mean) - y_held) ** 2)))
    const = float(np.sqrt(np.mean((np.mean(y0_train) - y_held) ** 2)))
    if not model < const:
        return [f"train: {label} task-0 RMSE {model:.4f} does not beat the constant predictor's {const:.4f}"]
    return []


# ---------------------------------------------------------------------------
# predict-cli
# ---------------------------------------------------------------------------


def parse_rows(rows: list[dict]) -> dict:
    """Query or prediction CSV rows as arrays: X, task, and mean/stddev if present."""
    xcols = sorted((k for k in rows[0] if k.startswith("x")), key=lambda k: int(k[1:])) if rows else []
    out = {
        "X": np.array([[float(r[c]) for c in xcols] for r in rows]).reshape(len(rows), len(xcols)),
        "task": np.array([int(r["task"]) for r in rows], dtype=int),
    }
    for col in ("mean", "stddev"):
        if rows and col in rows[0]:
            out[col] = np.array([float(r[col]) for r in rows])
    return out


def check_predictions(pred: dict, query: dict, model: DenseModel, sample: np.ndarray) -> list[str]:
    """Order and inputs kept, stddev finite and >= 0, dense conditioning agrees."""
    failures = []
    if pred["X"].shape != query["X"].shape or not np.array_equal(pred["X"], query["X"]):
        failures.append("predict: output rows do not reproduce the query inputs in order")
    if not np.array_equal(pred["task"], query["task"]):
        failures.append("predict: output task column differs from the query")
    sd = pred["stddev"]
    if not np.all(np.isfinite(sd) & (sd >= 0.0)):
        failures.append("predict: stddev not finite and non-negative everywhere")
    if failures:
        return failures
    tq = query["task"][sample]
    mean, var = model.posterior(query["X"][sample], tq)
    scale = model.prior_variance(tq) * model.stds[tq] ** 2
    mean_err = np.abs(pred["mean"][sample] - mean) / np.sqrt(scale)
    var_err = np.abs(pred["stddev"][sample] ** 2 - var) / scale
    if not (np.all(mean_err <= POSTERIOR_RTOL) and np.all(var_err <= POSTERIOR_RTOL)):
        failures.append(
            f"predict: dense conditioning disagrees (max mean err {np.max(mean_err):.3g}, "
            f"max variance err {np.max(var_err):.3g} of the prior scale)"
        )
    return failures
