"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the workload seed, so the same seed
gives byte-identical files. The program only ever sees the files written
here (or, for the study, its own ``--seed``).
"""

import csv
import json
import os

import numpy as np

INPUT_DIM = 3
# task 0 is the scarce high-fidelity source; tasks 1 and 2 are cheaper,
# biased sources of the same quantity. N_total = 30.
TASK_SIZES = (8, 12, 10)
OBSERVATION_NOISE = 0.01
HELD_OUT_POINTS = 512

# study operation: criterion 7's grid with one replicate per invocation
STUDY_CORRELATIONS = "0.89,0.53,0.33"
STUDY_SIZES = "5,5;5,20;10,10"
STUDY_REPLICATES = 1

# predict-cli query mix per model: several small files and one large one
SMALL_QUERY_ROWS = 40
SMALL_QUERIES_PER_MODEL = 4
LARGE_QUERY_ROWS = 20000

# the three model families trained per dataset (train-cli times these calls;
# predict-cli queries the models they produce)
TRAIN_CALLS = (
    ("mtgp-lmc", "matern52"),
    ("mtgp-slfm", "squared_exponential"),
    ("gp", "squared_exponential"),
)


def rng_for(seed: int, *tags) -> np.random.Generator:
    words = [int(seed) & 0xFFFFFFFF]
    for tag in tags:
        words.extend(tag.encode() if isinstance(tag, str) else [int(tag) & 0xFFFFFFFF])
    return np.random.default_rng(np.random.SeedSequence(words))


def derived_seed(seed: int, *tags) -> int:
    """A non-negative 31-bit seed for the program's own ``--seed`` flag."""
    return int(rng_for(seed, *tags).integers(0, 2**31 - 1))


def high_fidelity(X: np.ndarray) -> np.ndarray:
    x1, x2, x3 = X[:, 0], X[:, 1], X[:, 2]
    return 1.5 * np.sin(np.pi * (x1 + 0.5 * x2)) + 2.0 * (x3 - 0.4) ** 2 + 0.5 * x1 * x2


def truth(X: np.ndarray, task: int) -> np.ndarray:
    """Noise-free value of source ``task`` at inputs X (rows in [0, 1]^3)."""
    hi = high_fidelity(X)
    if task == 0:
        return hi
    if task == 1:
        return 0.85 * hi + 0.4 * (X[:, 2] - 0.5) - 0.1
    return 0.6 * hi + 0.15 * np.cos(2.0 * np.pi * X[:, 1]) + 0.2


def _design(rng, n: int) -> np.ndarray:
    """Latin hypercube: one point in each of n strata along every input."""
    strata = np.argsort(rng.random((INPUT_DIM, n)), axis=1).T
    return (strata + rng.random((n, INPUT_DIM))) / n


def _fmt(v) -> str:
    return repr(float(v))


def write_task_csv(path: str, X: np.ndarray, tasks: np.ndarray, y: np.ndarray):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow([f"x{p + 1}" for p in range(X.shape[1])] + ["task", "y"])
        for row, t, v in zip(X, tasks, y):
            w.writerow([_fmt(c) for c in row] + [int(t), _fmt(v)])


def write_query_csv(path: str, X: np.ndarray, tasks: np.ndarray):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow([f"x{p + 1}" for p in range(X.shape[1])] + ["task"])
        for row, t in zip(X, tasks):
            w.writerow([_fmt(c) for c in row] + [int(t)])


def make_dataset(seed: int, index: int, directory: str) -> dict:
    """Write one multi-fidelity training set and its held-out task-0 grid.

    Returns a description with the paths and the arrays the checks need.
    """
    os.makedirs(directory, exist_ok=True)
    rng = rng_for(seed, "dataset", index)
    xs, ts, ys = [], [], []
    for task, n in enumerate(TASK_SIZES):
        X = _design(rng, n)
        y = truth(X, task) + rng.normal(0.0, OBSERVATION_NOISE, size=n)
        xs.append(X)
        ts.append(np.full(n, task))
        ys.append(y)
    X, tasks, y = np.vstack(xs), np.concatenate(ts), np.concatenate(ys)
    full = os.path.join(directory, "train.csv")
    task0 = os.path.join(directory, "train_task0.csv")
    write_task_csv(full, X, tasks, y)
    write_task_csv(task0, X[tasks == 0], tasks[tasks == 0], y[tasks == 0])
    X_held = _design(rng, HELD_OUT_POINTS)
    held = os.path.join(directory, "held_out.csv")
    write_query_csv(held, X_held, np.zeros(HELD_OUT_POINTS, dtype=int))
    return {
        "dir": directory,
        "train_csv": full,
        "task0_csv": task0,
        "held_out_csv": held,
        "X_held": X_held,
        "y_held": truth(X_held, 0),
        "y0_train": y[tasks == 0],
    }


def write_run_config(path: str, family: str, kernel: str, **overrides):
    doc = {"family": family, "kernel": kernel}
    doc.update(overrides)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)


def make_queries(seed: int, index: int, directory: str, num_tasks: int) -> list:
    """Query files for one model: small mixed-task files, then one large file.

    A single-task model (``num_tasks == 1``) gets task-0 rows only.
    """
    rng = rng_for(seed, "queries", index, num_tasks)
    paths = []
    sizes = [SMALL_QUERY_ROWS] * SMALL_QUERIES_PER_MODEL + [LARGE_QUERY_ROWS]
    for j, n in enumerate(sizes):
        X = rng.uniform(0.0, 1.0, size=(n, INPUT_DIM))
        tasks = rng.integers(0, num_tasks, size=n)
        path = os.path.join(directory, f"query_{num_tasks}t_{j}.csv")
        write_query_csv(path, X, tasks)
        paths.append(path)
    return paths
