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
import math

import numpy as np

from .data import MultiTaskDataset, task_scaling
from .errors import ValidationError, read_json, read_key, write_json
from .kernels import KERNEL_KINDS
from .multitask import ExactGPLayout, MTGPModel, ParameterLayout, _condition

SCHEMA_VERSION = 1
_FILE = "model file"  # how read_key's messages name a model file


def _hex(x: float) -> str:
    return float(x).hex()


def _unhex(values: list) -> np.ndarray:
    """The floats of the hex strings ``values``, or an error naming the first bad one."""
    try:
        return np.fromiter(map(float.fromhex, values), dtype=float, count=len(values))
    except (TypeError, ValueError):
        for s in values:
            try:
                float.fromhex(s)
            except (TypeError, ValueError):
                raise ValidationError(f"bad hex float {s!r} in model file") from None
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
    flat = _unhex(read_key(doc, "hex", _FILE, list))
    shape = read_key(doc, "shape", _FILE, list)
    if not all(type(n) is int and n >= 0 for n in shape) or math.prod(shape) != flat.size:
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
    inputs = tuple(_decode_array(read_key(t, "x", _FILE)) for t in tasks_doc)
    targets = tuple(_decode_array(read_key(t, "y", _FILE)) for t in tasks_doc)
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
    write_json(path, doc)
    return doc


def _positive_int(doc: dict, key: str) -> int:
    value = read_key(doc, key, _FILE, int)
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
    doc = read_json(path)
    try:
        return _decode_model(doc)
    except ValidationError as exc:  # the file is named once, here
        raise ValidationError(f"{path}: {exc}") from None


def _decode_model(doc) -> MTGPModel:
    version = read_key(doc, "schema_version", _FILE, int)
    if version != SCHEMA_VERSION:
        raise ValidationError(
            f"unsupported model schema version {version!r} (supported: {SCHEMA_VERSION})"
        )
    model_type = read_key(doc, "model_type", _FILE)
    if model_type not in ("gp", "mtgp"):
        raise ValidationError(f"unknown model_type {model_type!r}")
    gp = model_type == "gp"
    kinds = read_key(doc, "kernel_kinds", _FILE, list)
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
    ranks = [1] if gp else read_key(doc, "ranks", _FILE, list)
    if len(ranks) != len(kinds) or not all(type(r) is int and r >= 1 for r in ranks):
        raise ValidationError(
            "model file key 'ranks' must hold one positive integer per kernel kind"
        )
    params = read_key(doc, "parameters", _FILE)
    vector = _unhex(read_key(params, "values_hex", _FILE, list))
    # each rank column stores at least one value: check before any array is sized by the ranks
    if sum(ranks) > vector.shape[0]:
        raise ValidationError("parameter vector has wrong length")
    tasks_doc = read_key(read_key(doc, "data", _FILE), "tasks", _FILE, list)
    if len(tasks_doc) != num_tasks:
        raise ValidationError(f"model file key 'tasks' must hold {num_tasks} tasks")
    dataset = _decode_dataset(tasks_doc)
    if dataset_fingerprint(dataset) != read_key(doc, "dataset_fingerprint", _FILE):
        raise ValidationError("data does not match model file key 'dataset_fingerprint'")
    input_dim = _positive_int(doc, "input_dim")
    if dataset.input_dim != input_dim:
        raise ValidationError(
            f"model file key 'input_dim' is {input_dim}, its data has {dataset.input_dim}"
        )
    if gp:  # the GP conditions on Y - mean_const, with task std 1
        (mean_const,) = _unhex([read_key(read_key(doc, "mean_const", _FILE), "hex", _FILE)])
        if not math.isfinite(mean_const):
            raise ValidationError("model file key 'mean_const' must be finite")
        means, stds, standardized = np.array([mean_const]), np.ones(1), False
    else:
        standardized = read_key(doc, "standardize", _FILE, bool)
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
