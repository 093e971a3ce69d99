"""Spans around the program's public functions, recorded from outside it.

:class:`Tracer` rebinds each function named in :data:`TRACED` in every
``mtgp.*`` module that holds it with a timing wrapper, so calls made through
``module.func`` and through ``from module import func`` are both seen. A
span records its name, start, end, thread and parent span; spans live in
compact arrays until the run ends.

Parents follow the calling thread's open spans. A span opened on a thread
with no open span of its own (the study's pool workers) takes the main
thread's innermost open span as its parent, which is the span that handed
it the work. Self time is a span's duration minus the union of its
children's intervals, so overlapping children on different threads are not
subtracted twice.
"""

import functools
import threading
import time
from array import array

import numpy as np

# (module, function) pairs; the label is "<module>.<function>".
TRACED = (
    ("training", "train_mtgp"),
    ("training", "train_gp"),
    ("training", "adam_maximize"),
    ("training", "mtgp_materialize"),
    ("multitask", "mtgp_log_marginal_likelihood"),
    ("multitask", "mtgp_fit"),
    ("multitask", "mtgp_predict"),
    ("gp", "gp_log_marginal_likelihood"),
    ("gp", "gp_fit"),
    ("gp", "gp_predict"),
    ("coregionalization", "joint_covariance_parts"),
    ("coregionalization", "build_B"),
    ("kernels", "kernel_matrix"),
    ("kernels", "kernel_matrix_grad"),
    ("linalg", "cholesky_with_jitter"),
    ("linalg", "chol_solve"),
    ("linalg", "tri_solve"),
    ("data", "read_task_csv"),
    ("data", "read_query_csv"),
    ("model_io", "save_model"),
    ("model_io", "load_model"),
    ("cli", "cmd_predict"),
    ("cli", "cmd_benchmark"),
    ("benchmark", "calibrate_auxiliary"),
    ("benchmark", "run_study"),
)
# the objective closure handed to adam_maximize gets a span of its own
OBJECTIVE = "training.objective"

# per-span amounts used to normalise layer metrics
POINTS, ROWS, ITERATIONS, ESCALATED, FAILED = "points", "rows", "iterations", "escalated", "failed"


class Tracer:
    def __init__(self):
        self._t0 = time.perf_counter()
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.label = array("i")
        self.thread = array("q")
        self.parent = array("q")
        self.amounts: dict[str, dict[int, float]] = {}
        self.absent: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._main_stack: list[int] = []
        self._restore: list[tuple] = []
        self._base_jitter = 1e-8

    # -- span store -------------------------------------------------------

    def _id(self, label: str) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.get_ident() == self._main else []
            self._local.stack = stack
        return stack

    def _open(self, label_id: int) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack and stack is not self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = -1
        with self._lock:
            i = len(self.start)
            self.label.append(label_id)
            self.thread.append(threading.get_ident())
            self.parent.append(parent)
            self.end.append(0.0)
            self.start.append(time.perf_counter() - self._t0)
        stack.append(i)
        return i

    def _close(self, i: int):
        self.end[i] = time.perf_counter() - self._t0
        self._stack().pop()

    def _note(self, kind: str, i: int, amount: float):
        self.amounts.setdefault(kind, {})[i] = amount

    def span(self, label: str, fn, after=None):
        """Wrap ``fn`` so every call records a span named ``label``."""
        label_id = self._id(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(label_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(i)
                self._note(FAILED, i, 1.0)
                raise
            self._close(i)
            if after is not None:
                after(i, args, kwargs, result)
            return result

        return traced

    # -- installing wrappers ----------------------------------------------

    def install(self, modules: dict):
        """Rebind every traced function in ``modules`` (name -> module)."""
        for mod_name, fn_name in TRACED:
            label = f"{mod_name}.{fn_name}"
            home = modules.get(f"mtgp.{mod_name}")
            original = getattr(home, fn_name, None) if home is not None else None
            if original is None:
                self.absent.append(label)
                continue
            wrapped = self.span(label, self._wrap_args(label, original), self._after(label))
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, value))
                        setattr(mod, attr, wrapped)
        linalg = modules.get("mtgp.linalg")
        self._base_jitter = float(getattr(linalg, "BASE_JITTER_REL", self._base_jitter))

    def uninstall(self):
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def _wrap_args(self, label: str, fn):
        if label != "training.adam_maximize":
            return fn

        @functools.wraps(fn)
        def with_traced_objective(objective, *args, **kwargs):
            return fn(self.span(OBJECTIVE, objective), *args, **kwargs)

        return with_traced_objective

    def _after(self, label: str):
        if label in ("multitask.mtgp_predict", "gp.gp_predict"):
            def points(i, args, kwargs, result):
                self._note(POINTS, i, float(np.asarray(result.mean).shape[0]))
            return points
        if label == "data.read_query_csv":
            def rows(i, args, kwargs, result):
                self._note(ROWS, i, float(result[0].shape[0]))
            return rows
        if label == "training.adam_maximize":
            def iterations(i, args, kwargs, result):
                self._note(ITERATIONS, i, float(result.iterations))
            return iterations
        if label == "linalg.cholesky_with_jitter":
            def escalation(i, args, kwargs, result):
                K = np.asarray(args[0] if args else kwargs["K"])
                scale = float(np.mean(np.diag(K))) if K.shape[0] else 1.0
                scale = scale if scale > 0.0 else 1.0
                if result[1] > self._base_jitter * scale * (1.0 + 1e-9):
                    self._note(ESCALATED, i, 1.0)
            return escalation
        return None

    # -- analysis ---------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
            "label": np.frombuffer(self.label, dtype=np.int32).copy(),
            "thread": np.frombuffer(self.thread, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
        }

    def summary(self) -> dict:
        """Per label: calls, total and self seconds, and summed amounts."""
        a = self.arrays()
        n = a["start"].size
        duration = a["end"] - a["start"]
        self_time = duration - children_union(a["start"], a["end"], a["parent"])
        out = {}
        for label_id, label in enumerate(self.labels):
            sel = a["label"] == label_id
            entry = {
                "calls": int(np.sum(sel)),
                "total_s": float(np.sum(duration[sel])),
                "self_s": float(np.sum(self_time[sel])),
            }
            for kind, values in self.amounts.items():
                idx = np.fromiter(values.keys(), dtype=np.int64, count=len(values))
                amt = np.fromiter(values.values(), dtype=float, count=len(values))
                keep = sel[idx] if n else np.zeros(0, dtype=bool)
                entry[kind] = float(np.sum(amt[keep]))
            out[label] = entry
        return out


def children_union(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """For each span, the length of the union of its children's intervals."""
    covered = np.zeros(start.size)
    has_parent = parent >= 0
    if not np.any(has_parent):
        return covered
    idx = np.nonzero(has_parent)[0]
    order = idx[np.lexsort((start[idx], parent[idx]))]
    par = parent[order]
    # shift each parent's group onto its own stretch of the time axis so one
    # running maximum never carries an end time across groups
    _, group = np.unique(par, return_inverse=True)
    width = float(np.max(end) - min(0.0, float(np.min(start)))) + 1.0
    s = start[order] + group * width
    e = end[order] + group * width
    run_max = np.maximum.accumulate(e)
    prev = np.concatenate(([-np.inf], run_max[:-1]))
    piece = np.clip(e - np.maximum(s, prev), 0.0, None)
    np.add.at(covered, par, piece)
    return covered
