"""Multi-task datasets: per-task input/target arrays and the CSV carrier format.

Tasks may be observed at different input sets and sample counts (heterotopic
data); all tasks share the input dimension. The canonical joint ordering is
task-major: all rows of task 0, then task 1, and so on.
"""

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError, ValidationError, not_utf8


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
            if not (np.isfinite(X).all() and np.isfinite(Y).all()):
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


def task_scaling(dataset: MultiTaskDataset, standardize: bool) -> tuple[np.ndarray, np.ndarray]:
    """``(means, stds)``: a fit computes on task d's working targets
    ``(Y_d - means_d) / stds_d``.

    Standardized, they are each task's training target mean and std; a
    degenerate task (empty, single sample, or constant targets) keeps std 1
    so the transform stays invertible. Otherwise they are 0 and 1.
    """
    means = np.zeros(dataset.num_tasks)
    stds = np.ones(dataset.num_tasks)
    if standardize:
        for d, Y in enumerate(dataset.targets):
            if Y.size > 0:
                means[d] = float(Y.mean())
                s = float(Y.std())
                if s > 0.0:
                    stds[d] = s
    return means, stds


# ---------------------------------------------------------------------------
# CSV task-data files: header x1..xP, task, y (columns in any order)
# ---------------------------------------------------------------------------

# rows parsed (and, in the CLI, formatted) per block: whole columns convert
# with one call each while the strings held at once stay bounded
CSV_BLOCK_ROWS = 4096


def _input_columns(path, fieldnames: list[str]) -> list[str]:
    xcols = sorted(
        (name for name in fieldnames if name.startswith("x") and name[1:].isdigit()),
        key=lambda name: int(name[1:]),
    )
    if not xcols:
        raise ValidationError(f"{path}: no input columns found; expected x1..xP")
    expected = [f"x{i}" for i in range(1, len(xcols) + 1)]
    if xcols != expected:
        raise ValidationError(
            f"{path}: input columns {xcols} are not contiguous x1..x{len(xcols)}"
        )
    return xcols


def _row_blocks(reader):
    """``(file line numbers, rows)`` per block of up to CSV_BLOCK_ROWS non-blank rows."""
    lines, rows = [], []
    for row in reader:
        if row:
            rows.append(row)
            lines.append(reader.line_num)
            if len(rows) == CSV_BLOCK_ROWS:
                yield lines, rows
                lines, rows = [], []
    if rows:
        yield lines, rows


def _convert(rows, width: int, value_index: list, task_index: int, task_data: bool):
    """The float value columns and integer tasks of CSV ``rows``: the one
    statement of the row rules, checked in this order and raised as a
    ``ValueError`` with the message of a one-row block: surplus fields, a
    non-numeric value (a short row's missing fields read as None), a
    non-finite one (task data), a task that is not an integer, a negative
    task."""
    lengths = set(map(len, rows))
    if lengths != {width}:
        if max(lengths) > width:
            raise ValueError(f"{max(lengths)} fields, the header has {width}")
        rows = [row + [None] * (width - len(row)) for row in rows]
    columns = list(zip(*rows))
    try:
        values = [list(map(float, columns[i])) for i in value_index]
    except (TypeError, ValueError):
        raise ValueError("non-numeric value") from None
    if task_data and not all(all(map(math.isfinite, v)) for v in values):
        raise ValueError("non-finite value")
    fields = columns[task_index]
    try:
        tasks = list(map(int, fields))
    except (TypeError, ValueError):
        raise ValueError(f"task {(fields[0] or '').strip()!r} is not an integer") from None
    if min(tasks) < 0:
        rule = "a non-negative integer" if task_data else "non-negative"
        raise ValueError(f"task index must be {rule}")
    return values, tasks


def _read_table(path, value_names: tuple, task_data: bool):
    """Open ``path`` and parse it with :func:`_parse_table`. A leading
    byte-order mark (a spreadsheet's "CSV UTF-8") is not part of the first
    column name. A file that is not UTF-8 text, or a line the csv module
    rejects (a field longer than its limit, a NUL byte), is a
    :class:`ValidationError` naming the file."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            return _parse_table(path, reader, value_names, task_data)
    except UnicodeDecodeError as exc:
        raise not_utf8(path, exc) from None
    except csv.Error as exc:
        raise ValidationError(f"{path}: line {reader.line_num}: {exc}") from None


def _parse_table(path, reader, value_names: tuple, task_data: bool):
    """Parse a CSV of float columns x1..xP plus ``value_names`` and an integer
    ``task`` column, CSV_BLOCK_ROWS rows at a time.

    Header names are stripped; any other column, or a repeated name, is
    rejected. Each block converts with :func:`_convert`; a block that fails
    is converted again row by row to raise its first bad row's error with
    the row's file line. Blank lines are skipped. Returns (xcols, the file
    line of each row, the float columns, the tasks).
    """
    required = ("task", *value_names)
    header = next(reader, None)
    if header is None:
        raise ValidationError(f"{path}: empty file, header row required")
    fields = [f.strip() for f in header]
    xcols = _input_columns(path, fields)
    extras = set(fields) - set(xcols) - set(required)
    if extras:
        raise ValidationError(f"{path}: unknown columns {sorted(extras)}")
    repeated = sorted({f for f in fields if fields.count(f) > 1})
    if repeated:
        raise ValidationError(f"{path}: repeated columns {repeated}")
    for name in required:
        if name not in fields:
            raise ValidationError(f"{path}: missing required column '{name}'")
    value_index = [fields.index(c) for c in xcols + list(value_names)]
    convert = functools.partial(
        _convert, width=len(fields), value_index=value_index,
        task_index=fields.index("task"), task_data=task_data,
    )
    all_lines, values, tasks = [], [[] for _ in value_index], []
    for lines, rows in _row_blocks(reader):
        try:
            block, block_tasks = convert(rows)
        except ValueError:
            for line, row in zip(lines, rows):
                try:
                    convert([row])
                except ValueError as exc:
                    raise ValidationError(f"{path}: line {line}: {exc}") from None
            raise  # every failed block holds a bad row
        all_lines += lines
        for column, v in zip(values, block):
            column += v
        tasks += block_tasks
    return xcols, all_lines, values, tasks


def read_task_csv(path) -> tuple[MultiTaskDataset, list[str]]:
    """Parse a task-data CSV into a dataset.

    Returns the dataset and the input column names. Raises
    :class:`ValidationError` naming the offending file line or column on any
    malformed content, including non-contiguous task indices.
    """
    xcols, _, values, rows_task = _read_table(path, ("y",), task_data=True)
    if not rows_task:
        raise ValidationError(f"{path}: no data rows")
    present = sorted(set(rows_task))
    num_tasks = present[-1] + 1
    if num_tasks > len(present):
        # contiguous indices from 0 all lie below the row count, so only
        # those are listed, however large the largest index is
        seen = set(present)
        missing = [d for d in range(min(num_tasks, len(rows_task))) if d not in seen]
        more = num_tasks - len(present) - len(missing)
        raise ValidationError(
            f"{path}: task indices {present} are not contiguous from 0; missing {missing}"
            + (f" and {more} more" if more else "")
        )
    tasks = np.asarray(rows_task)
    X = np.column_stack(values[:-1])
    Y = np.asarray(values[-1], dtype=float)
    inputs = tuple(X[tasks == d] for d in range(num_tasks))
    targets = tuple(Y[tasks == d] for d in range(num_tasks))
    return MultiTaskDataset(inputs, targets), xcols


def read_query_csv(path) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Parse a prediction-query CSV with columns x1..xP and task.

    Rows keep their file order; task indices are validated as non-negative
    integers but need not cover a contiguous range. Returns (X, tasks, xcols);
    an empty file (header only) yields zero-row arrays. Errors name the file
    line; a non-numeric value anywhere is reported before a non-finite one.
    """
    xcols, lines, values, tasks = _read_table(path, (), task_data=False)
    X = np.column_stack(values)
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if bad.size:
        raise ValidationError(f"{path}: line {lines[bad[0]]}: non-finite value")
    try:
        return X, np.asarray(tasks, dtype=int), xcols
    except OverflowError:
        i = next(i for i, task in enumerate(tasks) if task > np.iinfo(int).max)
        raise ValidationError(
            f"{path}: line {lines[i]}: task index {tasks[i]} exceeds the 64-bit integer range"
        ) from None
