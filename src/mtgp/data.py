"""Multi-task datasets: per-task input/target arrays and the CSV carrier format.

Tasks may be observed at different input sets and sample counts (heterotopic
data); all tasks share the input dimension. The canonical joint ordering is
task-major: all rows of task 0, then task 1, and so on.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError, ValidationError


@dataclass(frozen=True, eq=False)
class MultiTaskDataset:
    """Per-task inputs ``X_d`` (N_d x P) and targets ``Y_d`` (length N_d)."""

    inputs: tuple
    targets: tuple

    def __post_init__(self):
        if len(self.inputs) == 0 or len(self.inputs) != len(self.targets):
            raise ShapeError("need one (inputs, targets) pair per task, at least one task")
        xs, ys = [], []
        dim = None
        for d, (X, Y) in enumerate(zip(self.inputs, self.targets)):
            X = np.asarray(X, dtype=float)
            Y = np.asarray(Y, dtype=float).reshape(-1)
            if X.ndim == 1:
                X = X.reshape(-1, 1)
            if X.ndim != 2:
                raise ShapeError(f"task {d}: inputs must be 2-d, got ndim={X.ndim}")
            if X.shape[0] != Y.shape[0]:
                raise ShapeError(
                    f"task {d}: {X.shape[0]} input rows but {Y.shape[0]} targets"
                )
            if dim is None:
                dim = X.shape[1]
            elif X.shape[1] != dim:
                raise ShapeError(
                    f"task {d}: input dimension {X.shape[1]} differs from task 0's {dim}"
                )
            if not np.all(np.isfinite(X)) or not np.all(np.isfinite(Y)):
                raise DomainError(f"task {d}: inputs and targets must be finite")
            xs.append(X)
            ys.append(Y)
        if all(X.shape[0] == 0 for X in xs):
            raise ShapeError("at least one task must have at least one observation")
        object.__setattr__(self, "inputs", tuple(xs))
        object.__setattr__(self, "targets", tuple(ys))

    @property
    def num_tasks(self) -> int:
        return len(self.inputs)

    @property
    def input_dim(self) -> int:
        return self.inputs[0].shape[1]

    @property
    def counts(self) -> tuple:
        return tuple(X.shape[0] for X in self.inputs)

    @property
    def total_count(self) -> int:
        return sum(self.counts)

    def stacked_inputs(self) -> np.ndarray:
        return np.vstack(self.inputs)

    def stacked_targets(self) -> np.ndarray:
        return np.concatenate(self.targets)

    def task_indices(self) -> np.ndarray:
        """Task id of each joint row, task-major order."""
        return np.concatenate(
            [np.full(n, d, dtype=int) for d, n in enumerate(self.counts)]
        )

    def single_task(self, d: int) -> tuple[np.ndarray, np.ndarray]:
        return self.inputs[d], self.targets[d]


def standardize_targets(
    dataset: MultiTaskDataset,
) -> tuple[MultiTaskDataset, np.ndarray, np.ndarray]:
    """Per-task (Y - mean) / std computed on the training targets only.

    Degenerate tasks (empty, single sample, or constant targets) keep std 1
    so the transform stays invertible.
    """
    means = np.zeros(dataset.num_tasks)
    stds = np.ones(dataset.num_tasks)
    new_targets = []
    for d, Y in enumerate(dataset.targets):
        if Y.size > 0:
            means[d] = float(np.mean(Y))
            s = float(np.std(Y))
            if s > 0.0:
                stds[d] = s
        new_targets.append((Y - means[d]) / stds[d])
    return MultiTaskDataset(dataset.inputs, tuple(new_targets)), means, stds


# ---------------------------------------------------------------------------
# CSV task-data files: header x1..xP, task, y (columns in any order)
# ---------------------------------------------------------------------------


def _input_columns(fieldnames: list[str]) -> list[str]:
    xcols = sorted(
        (name for name in fieldnames if name.startswith("x") and name[1:].isdigit()),
        key=lambda name: int(name[1:]),
    )
    if not xcols:
        raise ValidationError("no input columns found; expected x1..xP")
    expected = [f"x{i}" for i in range(1, len(xcols) + 1)]
    if xcols != expected:
        raise ValidationError(
            f"input columns {xcols} are not contiguous x1..x{len(xcols)}"
        )
    return xcols


def read_task_csv(path) -> tuple[MultiTaskDataset, list[str]]:
    """Parse a task-data CSV into a dataset.

    Returns the dataset and the input column names. Raises
    :class:`ValidationError` naming the offending row or column on any
    malformed content, including non-contiguous task indices.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValidationError(f"{path}: empty file, header row required")
        fields = reader.fieldnames = [f.strip() for f in reader.fieldnames]  # rows keyed stripped
        xcols = _input_columns(fields)
        extras = set(fields) - set(xcols) - {"task", "y"}
        if extras:
            raise ValidationError(f"{path}: unknown columns {sorted(extras)}")
        for required in ("task", "y"):
            if required not in fields:
                raise ValidationError(f"{path}: missing required column '{required}'")
        rows_x, rows_task, rows_y = [], [], []
        for lineno, row in enumerate(reader, start=2):
            try:
                values = [float(row[c]) for c in xcols] + [float(row["y"])]
            except (TypeError, ValueError):
                raise ValidationError(f"{path}: line {lineno}: non-numeric value") from None
            if not all(math.isfinite(v) for v in values):
                raise ValidationError(f"{path}: line {lineno}: non-finite value")
            rows_x.append(values[:-1])
            rows_y.append(values[-1])
            raw_task = (row["task"] or "").strip()
            try:
                task = int(raw_task)
            except ValueError:
                raise ValidationError(
                    f"{path}: line {lineno}: task {raw_task!r} is not an integer"
                ) from None
            if task < 0 or float(raw_task) != task:
                raise ValidationError(
                    f"{path}: line {lineno}: task index must be a non-negative integer"
                )
            rows_task.append(task)
    if not rows_task:
        raise ValidationError(f"{path}: no data rows")
    tasks = np.asarray(rows_task)
    present = sorted(set(rows_task))
    num_tasks = max(present) + 1
    missing = sorted(set(range(num_tasks)) - set(present))
    if missing:
        raise ValidationError(
            f"{path}: task indices {present} are not contiguous from 0; missing {missing}"
        )
    X = np.asarray(rows_x, dtype=float)
    Y = np.asarray(rows_y, dtype=float)
    inputs = tuple(X[tasks == d] for d in range(num_tasks))
    targets = tuple(Y[tasks == d] for d in range(num_tasks))
    return MultiTaskDataset(inputs, targets), xcols


def read_query_csv(path) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Parse a prediction-query CSV with columns x1..xP and task.

    Rows keep their file order; task indices are validated as non-negative
    integers but need not cover a contiguous range. Returns (X, tasks, xcols);
    an empty file (header only) yields zero-row arrays.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValidationError(f"{path}: empty file, header row required")
        fields = reader.fieldnames = [f.strip() for f in reader.fieldnames]  # rows keyed stripped
        xcols = _input_columns(fields)
        extras = set(fields) - set(xcols) - {"task"}
        if extras:
            raise ValidationError(f"{path}: unknown columns {sorted(extras)}")
        if "task" not in fields:
            raise ValidationError(f"{path}: missing required column 'task'")
        rows_x, rows_task = [], []
        for lineno, row in enumerate(reader, start=2):
            try:
                rows_x.append([float(row[c]) for c in xcols])
            except (TypeError, ValueError):
                raise ValidationError(f"{path}: line {lineno}: non-numeric value") from None
            raw_task = (row["task"] or "").strip()
            try:
                task = int(raw_task)
            except ValueError:
                raise ValidationError(
                    f"{path}: line {lineno}: task {raw_task!r} is not an integer"
                ) from None
            if task < 0:
                raise ValidationError(
                    f"{path}: line {lineno}: task index must be non-negative"
                )
            rows_task.append(task)
    X = np.asarray(rows_x, dtype=float).reshape(len(rows_x), len(xcols))
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if bad.size:
        raise ValidationError(f"{path}: line {int(bad[0]) + 2}: non-finite value")
    return X, np.asarray(rows_task, dtype=int), xcols
