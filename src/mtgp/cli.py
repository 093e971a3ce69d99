"""Command-line interface: train, predict, benchmark, check.

Exit codes: 0 success, 1 self-check failure, 2 input validation failure (an
unreadable or unwritable file included), 3 computation failure. All commands
are deterministic under fixed seeds and write byte-identical CSV output
across runs on the same platform.
"""

import argparse
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from . import __version__, benchmark, model_io
from .data import CSV_BLOCK_ROWS, read_query_csv, read_task_csv
from .errors import (
    DomainError,
    MTGPError,
    ShapeError,
    ValidationError,
    read_json,
    read_key,
    write_json,
)
from .kernels import KERNEL_KINDS, SQUARED_EXPONENTIAL
from .multitask import mtgp_predict
from .selfcheck import run_self_checks
from .training import FitJob, MTGPFamily, TrainConfig, train

FAMILIES = ("gp", "mtgp-slfm", "mtgp-lmc")


def _write_csv(path, header: list[str], columns: list[np.ndarray]):
    """Write equal-length numeric array columns as CSV, CSV_BLOCK_ROWS rows at a time.

    Each cell is the ``repr`` of the column's Python value: the shortest
    round-trip form of a float and the digits of an integer, the bytes
    ``csv.writer`` gives for ``repr(float(v))`` and int cells.
    """
    num_rows = len(columns[0])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, num_rows, CSV_BLOCK_ROWS):
            block = [map(repr, c[start : start + CSV_BLOCK_ROWS].tolist()) for c in columns]
            fh.write("\n".join(map(",".join, zip(*block))) + "\n")


def _config_object(doc, allowed, path, what: str = "top-level JSON value") -> dict:
    """``doc`` (``what`` in the config file ``path``), a JSON object with keys in ``allowed``."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: {what} must be an object")
    for key in doc:
        if key not in allowed:
            raise ValidationError(f"{path}: unknown key {key!r}")
    return doc


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

# each TrainConfig key and its type
_TRAIN_KEYS = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
_RUN_CONFIG_KEYS = {"family", "kernel", "q", "rank", "standardize", *_TRAIN_KEYS, "output_dir"}


def _given(doc: dict, kinds: dict, path: str) -> dict:
    """The keys of ``kinds`` that ``doc`` sets, each of its type; an absent or
    null key is left out, so it keeps the default of the record it sets."""
    typed = {key: read_key(doc, key, f"{path}:", kind, None) for key, kind in kinds.items()}
    return {key: value for key, value in typed.items() if value is not None}


def _parse_run_config(path) -> dict:
    doc = _config_object(read_json(path), _RUN_CONFIG_KEYS, path)
    family = doc.get("family")
    if family not in FAMILIES:
        raise ValidationError(f"{path}: key 'family' must be one of {list(FAMILIES)}")
    kernel = read_key(doc, "kernel", f"{path}:", str, SQUARED_EXPONENTIAL)
    if kernel not in KERNEL_KINDS:
        raise ValidationError(f"{path}: key 'kernel' must be one of {list(KERNEL_KINDS)}")
    q, rank = read_key(doc, "q", f"{path}:", int, None), read_key(doc, "rank", f"{path}:", int, 1)
    try:
        model_family = MTGPFamily(family.removeprefix("mtgp-"), kernel, q, rank)
    except DomainError as exc:  # a num_terms or rank error, named by its config key
        key = "q" if str(exc).startswith("num_terms") else "rank"
        raise ValidationError(f"{path}: key {key!r}: {exc}") from None
    return {
        "family": family,
        "model_family": model_family,
        "standardize": read_key(doc, "standardize", f"{path}:", bool, True),
        "train": _given(doc, _TRAIN_KEYS, path),
        "output_dir": read_key(doc, "output_dir", f"{path}:", str, None),
    }


def _open_trace(path):
    if path is None:
        return None, None
    fh = open(path, "w", encoding="utf-8")

    def trace(restart, iteration, objective, grad_norm):
        fh.write(
            json.dumps(
                {
                    "restart": restart,
                    "iteration": iteration,
                    "objective": objective,
                    "grad_norm": grad_norm,
                },
                sort_keys=True,
            )
        )
        fh.write("\n")

    return trace, fh


def cmd_train(args) -> int:
    config = _parse_run_config(args.config)
    if args.seed is not None:
        config["train"]["seed"] = args.seed
    out_dir = args.out or config["output_dir"]
    if out_dir is None:
        raise ValidationError("no output directory: pass --out or set 'output_dir' in the config")
    dataset, _ = read_task_csv(args.data)
    train_config = TrainConfig(**config["train"])
    job = FitJob(dataset, train_config.seed, config["model_family"], config["standardize"])
    # an unusable output directory or trace fails before the training and
    # leaves no directory behind (the trace may go inside --out)
    made = []  # the directories os.makedirs makes, innermost first
    head = os.path.abspath(out_dir)
    while not os.path.exists(head):
        made.append(head)
        head = os.path.dirname(head)
    os.makedirs(out_dir, exist_ok=True)
    try:
        trace, trace_fh = _open_trace(args.trace)
    except OSError:
        for path in made:
            os.rmdir(path)
        raise
    try:
        (model,) = train([job], train_config, trace)
    finally:
        if trace_fh is not None:
            trace_fh.close()
    model_path = os.path.join(out_dir, "model.json")
    model_io.save_model(model, model_path, config["family"])
    write_json(os.path.join(out_dir, "metrics.json"), model.fit_info)
    lml = model.fit_info["log_marginal_likelihood"]
    print(f"wrote {model_path} (log marginal likelihood {lml:.6f})")
    return 0


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------


def cmd_predict(args) -> int:
    model = model_io.load_model(args.model)
    X, tasks, xcols = read_query_csv(args.data)
    if X.shape[1] != model.input_dim:
        raise ValidationError(
            f"query has {X.shape[1]} input columns, model expects {model.input_dim}"
        )
    bad = tasks[tasks >= model.num_tasks]
    if bad.size:
        raise ValidationError(
            f"query task index {int(bad[0])} out of range for a {model.num_tasks}-task model"
        )
    mean = np.zeros(X.shape[0])
    stddev = np.zeros(X.shape[0])
    for d in sorted(set(tasks.tolist())):
        rows = np.where(tasks == d)[0]
        pred = mtgp_predict(model, d, X[rows])
        mean[rows] = pred.mean
        stddev[rows] = pred.stddev
    _write_csv(args.out, xcols + ["task", "mean", "stddev"], [*X.T, tasks, mean, stddev])
    print(f"wrote {args.out} ({X.shape[0]} rows)")
    return 0


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------

_STUDY_FIELDS = dataclasses.fields(benchmark.StudyConfig)
# each StudyConfig field's key in study configs and in summary.json
_STUDY_NAMES = {f.name: "sizes" if f.name == "size_grid" else f.name for f in _STUDY_FIELDS}
_STUDY_KEYS = {*_STUDY_NAMES.values(), "train"}
# the types of the scalar fields: replicates, n_test, observation_noise, seed
_STUDY_SCALARS = {f.name: f.type for f in _STUDY_FIELDS if f.type is not tuple}


def _parse_sizes(text: str) -> tuple:
    pairs = []
    for chunk in text.split(";"):
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ValidationError(f"bad --sizes entry {chunk!r}; expected 'n1,n2'")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ValidationError(f"bad --sizes entry {chunk!r}; expected integers") from None
    return tuple(pairs)


def _parse_correlations(text: str) -> tuple:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise ValidationError(f"bad --correlations value {text!r}") from None


def _parse_study_config(args):
    """The :class:`~mtgp.benchmark.StudyConfig` and :class:`TrainConfig` of
    the study config file (if any) and the flags, which override it. A key or
    flag that is absent or null keeps its default: StudyConfig's, and
    ``benchmark.STUDY_TRAIN_CONFIG``'s in the ``train`` block."""
    path = args.config
    doc = _config_object(read_json(path), _STUDY_KEYS, path) if path else {}
    correlations, sizes = doc.get("correlations"), doc.get("sizes")
    if correlations is not None and not (
        isinstance(correlations, list)
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in correlations)
    ):
        raise ValidationError(f"{path}: 'correlations' must be a list of numbers")
    if sizes is not None and not (
        isinstance(sizes, list)
        and all(isinstance(p, list) and list(map(type, p)) == [int, int] for p in sizes)
    ):
        raise ValidationError(f"{path}: 'sizes' must be a list of [n1, n2] integer pairs")
    train_doc = {} if doc.get("train") is None else doc["train"]
    train = _given(_config_object(train_doc, _TRAIN_KEYS, path, "'train'"), _TRAIN_KEYS, path)
    given = _given(doc, _STUDY_SCALARS, path)
    if correlations is not None:
        given["correlations"] = tuple(map(float, correlations))
    if sizes is not None:
        given["sizes"] = tuple(map(tuple, sizes))
    # flags override the config file; StudyConfig checks the merged values
    flags = {"replicates": args.replicates, "seed": args.seed}
    given.update((key, value) for key, value in flags.items() if value is not None)
    if args.correlations is not None:
        given["correlations"] = _parse_correlations(args.correlations)
    if args.sizes is not None:
        given["sizes"] = _parse_sizes(args.sizes)
    fields = {field: given[key] for field, key in _STUDY_NAMES.items() if key in given}
    study = benchmark.StudyConfig(**fields)
    return study, dataclasses.replace(benchmark.STUDY_TRAIN_CONFIG, **train)


def _write_study_files(result, out_dir: str):
    """Write the study's files, each from the record it reports."""
    rows_path = os.path.join(out_dir, "study_rows.csv")
    header = list(result.rows[0])  # the rows' own keys, in run_study's order
    columns = [[row[f] for row in result.rows] for f in header]
    # integer fields (sizes, replicate, the 64-bit seed) stay Python ints
    _write_csv(
        rows_path,
        header,
        [np.array(c, dtype=object if all(isinstance(v, int) for v in c) else float) for c in columns],
    )
    config = {_STUDY_NAMES[field]: v for field, v in dataclasses.asdict(result.config).items()}
    config["train"] = dataclasses.asdict(result.train)
    summary = {
        "config": config,
        "calibrations": {
            f"{target:g}": {
                "a": params.a,
                "b": params.b,
                "achieved": result.achieved[target],
            }
            for target, params in result.calibrations.items()
        },
        "aggregates": result.aggregates,
    }
    write_json(os.path.join(out_dir, "summary.json"), summary)
    grid = np.linspace(0.0, 1.0, 200)
    primary = benchmark.forrester(grid, benchmark.PRIMARY_PARAMS)
    for target, params in result.calibrations.items():
        path = os.path.join(out_dir, f"series_functions_r{target:g}.csv")
        aux = benchmark.forrester(grid, params)
        _write_csv(path, ["x", "primary", "auxiliary"], [grid, primary, aux])
    for (target, n1, n2), series in sorted(result.series.items()):
        path = os.path.join(
            out_dir, f"series_predictions_r{target:g}_t1-{n1}_t2-{n2}.csv"
        )
        gp_band = 2.0 * series["gp_stddev"]
        mtgp_band = 2.0 * series["mtgp_stddev"]
        _write_csv(
            path,
            ["x", "true", "gp_mean", "gp_lo", "gp_hi", "mtgp_mean", "mtgp_lo", "mtgp_hi"],
            [
                series["x"],
                series["true"],
                series["gp_mean"],
                series["gp_mean"] - gp_band,
                series["gp_mean"] + gp_band,
                series["mtgp_mean"],
                series["mtgp_mean"] - mtgp_band,
                series["mtgp_mean"] + mtgp_band,
            ],
        )
    return rows_path


def cmd_benchmark(args) -> int:
    study, train_config = _parse_study_config(args)
    # an unusable output directory fails before the study, not after it
    os.makedirs(args.out, exist_ok=True)
    result = benchmark.run_study(study, train_config)
    _write_study_files(result, args.out)
    print(benchmark.format_study_table(result))
    print(f"artifacts written to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def cmd_check(args) -> int:
    results = run_self_checks(seed=args.seed if args.seed is not None else 0)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status}  {res.name}: {res.detail}")
        failed += 0 if res.passed else 1
    if failed:
        print(f"{failed} of {len(results)} checks failed")
        return 1
    print(f"all {len(results)} checks passed")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process.

    It holds nothing of a call: each ``parse_args`` starts a fresh namespace,
    and :func:`main` runs the module's ``cmd_<command>`` function as bound at
    call time, so a rebound or monkeypatched ``cmd_*`` is the one that runs.
    """
    parser = argparse.ArgumentParser(
        prog="mtgp",
        description="Single- and multi-task Gaussian process regression toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="fit a model from a task-data CSV")
    p_train.add_argument("--data", required=True, help="task-data CSV (x1..xP, task, y)")
    p_train.add_argument("--config", required=True, help="run-config JSON")
    p_train.add_argument("--out", help="output directory for model.json and metrics.json")
    p_train.add_argument("--seed", type=int, help="override the config seed")
    p_train.add_argument("--trace", help="write per-iteration JSONL trace here")

    p_pred = sub.add_parser("predict", help="predict from a saved model")
    p_pred.add_argument("--model", required=True, help="model.json path")
    p_pred.add_argument("--data", required=True, help="query CSV (x1..xP, task)")
    p_pred.add_argument("--out", required=True, help="output predictions CSV")

    p_bench = sub.add_parser("benchmark", help="run the two-task Forrester study")
    p_bench.add_argument("--config", help="study-config JSON (optional)")
    p_bench.add_argument("--out", required=True, help="output directory")
    p_bench.add_argument("--correlations", help="comma-separated targets, e.g. 0.89,0.53")
    p_bench.add_argument("--sizes", help="semicolon-separated pairs, e.g. 5,5;5,20")
    p_bench.add_argument("--replicates", type=int, help="replicates per cell")
    p_bench.add_argument("--seed", type=int, help="study seed")

    p_check = sub.add_parser("check", help="run the embedded verification suite")
    p_check.add_argument("--seed", type=int, help="seed for the randomized checks")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (MTGPError, OSError) as exc:  # bad input exits 2, a failed computation 3
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ValidationError, ShapeError, DomainError, OSError)) else 3


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
