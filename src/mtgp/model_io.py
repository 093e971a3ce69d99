"""Versioned JSON model files.

A model file is self-describing: schema version, model family, the
parameter schema with transformed values (hex-encoded floats, so repeated
save/load cycles are lossless), standardization statistics, the training
data, and a fingerprint of that data. Loading refits the stored parameters
on the stored data, which reproduces the in-process model bit for bit. It
reads the file in one pass: one layout, which scales its own targets, and
each check on the file's contents once (:func:`load_model`).
"""

import hashlib
import json
import math

import numpy as np

from .data import MultiTaskDataset, task_scaling
from .errors import ValidationError, not_utf8
from .kernels import KERNEL_KINDS
from .multitask import ExactGPLayout, MTGPModel, ParameterLayout, _condition

SCHEMA_VERSION = 1


def _hex(x: float) -> str:
    return float(x).hex()


def _unhex(s: str) -> float:
    try:
        return float.fromhex(s)
    except (TypeError, ValueError):
        raise ValidationError(f"bad hex float {s!r} in model file") from None


def _unhex_all(values: list) -> np.ndarray:
    try:
        return np.fromiter(map(float.fromhex, values), dtype=float, count=len(values))
    except (TypeError, ValueError):
        for s in values:
            _unhex(s)  # raises on the first bad value
        raise


def _decimal(x: float):
    """Informational decimal mirror of a hex float; None when not JSON-safe."""
    return float(x) if np.isfinite(x) else None


def _encode_array(arr: np.ndarray) -> dict:
    arr = np.asarray(arr, dtype=float)
    return {
        "shape": list(arr.shape),
        "hex": [_hex(v) for v in arr.reshape(-1)],
    }


def _decode_array(doc: dict) -> np.ndarray:
    flat = _unhex_all(_require(doc, "hex", list))
    shape = _require(doc, "shape", list)
    if not all(isinstance(n, int) and n >= 0 for n in shape) or math.prod(shape) != flat.size:
        raise ValidationError(f"model file array of shape {shape} has {flat.size} values")
    return flat.reshape(shape)


def dataset_fingerprint(dataset: MultiTaskDataset) -> str:
    digest = hashlib.sha256(b"mtgp-dataset-v1")
    for X, Y in zip(dataset.inputs, dataset.targets):
        digest.update(np.asarray(X.shape, dtype="<i8").tobytes())
        digest.update(np.ascontiguousarray(X, dtype="<f8").tobytes())
        digest.update(np.ascontiguousarray(Y, dtype="<f8").tobytes())
    return "sha256:" + digest.hexdigest()


def _encode_dataset(dataset: MultiTaskDataset) -> list:
    return [
        {"x": _encode_array(X), "y": _encode_array(Y)}
        for X, Y in zip(dataset.inputs, dataset.targets)
    ]


def _decode_dataset(tasks_doc: list) -> MultiTaskDataset:
    inputs = tuple(_decode_array(_require(t, "x")) for t in tasks_doc)
    targets = tuple(_decode_array(_require(t, "y")) for t in tasks_doc)
    return MultiTaskDataset(inputs, targets)


def model_document(model: MTGPModel, family: str) -> dict:
    """Serializable dict for a fitted model, in the format ``family`` names.

    Both formats store the model layout's template as the flat vector of
    the :class:`ParameterLayout` of its kinds and ranks with the format's
    learn flags, named by its :meth:`~ParameterLayout.names`. Family ``gp``
    stores the GP's layout (W fixed at 1, gamma at 0), whose names drop the
    ``term0.`` prefix and the noise's task index, and the task mean; any
    other family stores the fully learned layout and the standardization.
    No kernel spec is built. Every value is log-transformed except W, so a
    zero gamma is ``-inf`` and reloads to exactly 0. A family whose file
    would reload to a different model raises ``ValueError``.
    """
    gp = family == "gp"
    *_, gamma, W = model.layout.groups(model.layout.template[None])
    if gp:  # the GP of gp_fit: one task, one term of rank 1 with W = 1, gamma = 0, std 1
        fits = W.shape == (1, 1, 1, 1) and (W.item(), gamma.item(), model.task_stds[0]) == (1, 0, 1)
    else:  # loading refits with the data's standardization or with none
        means, stds = task_scaling(model.dataset, model.standardized)
        fits = np.all(model.task_means == means) and np.all(model.task_stds == stds)
    if not fits:
        raise ValueError(f"a {family!r} model file would not reload to this model")
    kinds, ranks = model.layout.kinds, model.layout.ranks
    layout = ParameterLayout(kinds, ranks, model.num_tasks, model.input_dim, not gp, not gp)
    layout.template = model.layout.template
    names = layout.names()
    if gp:  # one task, so no term prefix and no task index on the noise
        names = [name.removeprefix("term0.") for name in names[:-1]] + ["log_noise"]
    vector = layout.initial_vector()
    doc = {
        "schema_version": SCHEMA_VERSION,
        "family": family,
        "model_type": "gp" if gp else "mtgp",
        "input_dim": model.input_dim,
        "num_tasks": model.num_tasks,
        "kernel_kinds": layout.kinds,
        "parameters": {
            "schema": [[n, "identity" if w else "log"] for n, w in zip(names, layout.is_W)],
            "values_hex": [_hex(v) for v in vector],
            "values": [_decimal(v) for v in vector],
        },
        "data": {"tasks": _encode_dataset(model.dataset)},
        "dataset_fingerprint": dataset_fingerprint(model.dataset),
    }
    if gp:
        mean_const = float(model.task_means[0])
        return doc | {"mean_const": {"hex": _hex(mean_const), "value": mean_const}}
    return doc | {
        "ranks": layout.ranks,
        "standardize": bool(model.standardized),
        "standardization": {
            "task_means": [float(v) for v in model.task_means],
            "task_stds": [float(v) for v in model.task_stds],
            "task_means_hex": [_hex(v) for v in model.task_means],
            "task_stds_hex": [_hex(v) for v in model.task_stds],
        },
    }


def save_model(model, path, family: str) -> dict:
    doc = model_document(model, family)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return doc


def _require(doc: dict, key: str, kind: type | None = None):
    """``doc[key]``, which must exist and, when ``kind`` is given, be of that type."""
    if not isinstance(doc, dict) or key not in doc:
        raise ValidationError(f"model file missing key {key!r}")
    value = doc[key]
    # bool is a subclass of int, so a bool passes only where a bool is asked for
    if kind and not (isinstance(value, kind) and (kind is bool) == isinstance(value, bool)):
        raise ValidationError(f"model file key {key!r} must be of type {kind.__name__}")
    return value


def _positive_int(doc: dict, key: str) -> int:
    value = _require(doc, key, int)
    if value < 1:
        raise ValidationError(f"model file key {key!r} must be a positive integer, got {value}")
    return value


def load_model(path):
    """Load and refit a model file; returns an :class:`MTGPModel` (a GP is its
    one-task case, :func:`~mtgp.gp.gp_fit`).

    One pass: the stored data must match ``dataset_fingerprint``; one
    :class:`ExactGPLayout` of ``kernel_kinds`` and ``ranks`` on it (a ``gp``
    file's has one task, one kind and rank 1, with W fixed at 1 and gamma at
    0) scales its targets once, by the stored finite ``mean_const`` (gp) or
    the data's own standardization, and maps the stored vector to natural
    parameters, which are checked once and conditioned on. No kernel spec is
    built until ``model.kernel`` is read.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return _decode_model(json.load(fh))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise not_utf8(path, exc) from None
    except ValidationError as exc:  # the file is named once, here
        raise ValidationError(f"{path}: {exc}") from None


def _decode_model(doc) -> MTGPModel:
    version = _require(doc, "schema_version", int)
    if version != SCHEMA_VERSION:
        raise ValidationError(
            f"unsupported model schema version {version!r} (supported: {SCHEMA_VERSION})"
        )
    model_type = _require(doc, "model_type")
    if model_type not in ("gp", "mtgp"):
        raise ValidationError(f"unknown model_type {model_type!r}")
    gp = model_type == "gp"
    kinds = _require(doc, "kernel_kinds", list)
    if not kinds:
        raise ValidationError("model file key 'kernel_kinds' is empty")
    for kind in kinds:
        if kind not in KERNEL_KINDS:
            raise ValidationError(f"unknown kernel kind {kind!r}")
    num_tasks = _positive_int(doc, "num_tasks")
    if gp and len(kinds) != 1:
        raise ValidationError("model file key 'kernel_kinds' of a gp must hold one kind")
    if gp and num_tasks != 1:
        raise ValidationError("model file key 'num_tasks' of a gp must be 1")
    ranks = [1] if gp else _require(doc, "ranks", list)
    if len(ranks) != len(kinds) or not all(type(r) is int and r >= 1 for r in ranks):
        raise ValidationError(
            "model file key 'ranks' must hold one positive integer per kernel kind"
        )
    params = _require(doc, "parameters")
    vector = _unhex_all(_require(params, "values_hex", list))
    # each rank column stores at least one value: check before any array is sized by the ranks
    if sum(ranks) > vector.shape[0]:
        raise ValidationError("parameter vector has wrong length")
    tasks_doc = _require(_require(doc, "data"), "tasks", list)
    if len(tasks_doc) != num_tasks:
        raise ValidationError(f"model file key 'tasks' must hold {num_tasks} tasks")
    dataset = _decode_dataset(tasks_doc)
    if dataset_fingerprint(dataset) != _require(doc, "dataset_fingerprint"):
        raise ValidationError("data does not match model file key 'dataset_fingerprint'")
    input_dim = _positive_int(doc, "input_dim")
    if dataset.input_dim != input_dim:
        raise ValidationError(
            f"model file key 'input_dim' is {input_dim}, its data has {dataset.input_dim}"
        )
    if gp:  # the GP conditions on Y - mean_const, with task std 1
        mean_const = _unhex(_require(_require(doc, "mean_const"), "hex"))
        if not math.isfinite(mean_const):
            raise ValidationError("model file key 'mean_const' must be finite")
        means, stds, standardized = np.array([mean_const]), np.ones(1), False
    else:
        standardized = _require(doc, "standardize", bool)
        means, stds = task_scaling(dataset, standardized)
    layout = ExactGPLayout(kinds, ranks, dataset, learn_W=not gp, learn_gamma=not gp)
    layout.scale(means, stds)
    if vector.shape[0] != layout.size:
        raise ValidationError("parameter vector has wrong length")
    with np.errstate(over="ignore"):
        natural = layout.natural_batch(vector[None])[0]
    # lengthscales and signal variances lead the natural order
    if not np.isfinite(natural).all() or np.any(natural[: layout.group_slices[1].stop] <= 0.0):
        raise ValidationError(
            "parameter values must transform to finite numbers, "
            "with positive lengthscales and signal variances"
        )
    layout.template = natural
    return _condition(layout, standardized)
