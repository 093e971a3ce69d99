import csv
import hashlib
import json
import math
import operator
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mtgp
import mtgp.cli as cli
from mtgp import benchmark, model_io, multitask, training
from mtgp.benchmark import forrester
from mtgp.data import CSV_BLOCK_ROWS, read_task_csv
from mtgp.errors import TrainingFailedError
from mtgp.multitask import mtgp_predict
from mtgp.seeding import make_rng


def write_two_task_csv(path, n0=6, n1=5, seed=0):
    rng = make_rng("cli-data", seed)
    rows = []
    for _ in range(n0):
        x = float(rng.uniform(0, 1))
        rows.append((x, 0, forrester(x)))
    for _ in range(n1):
        x = float(rng.uniform(0, 1))
        rows.append((x, 1, 0.5 * forrester(x) + 1.0))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "task", "y"])
        for x, task, y in rows:
            writer.writerow([repr(x), task, repr(y)])
    return path


def write_config(path, **overrides):
    config = {
        "family": "mtgp-slfm",
        "max_iterations": 60,
        "num_restarts": 2,
        "seed": 0,
    }
    config.update(overrides)
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def read_csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def train_model(tmp_path, family, **overrides):
    """Train a small model of the family (single-task data for "gp"); returns model.json."""
    data = write_two_task_csv(tmp_path / "data.csv", n1=0 if family == "gp" else 5)
    config = write_config(tmp_path / "config.json", family=family, **{"max_iterations": 5, **overrides})
    out = tmp_path / "run"
    assert cli.main(["train", "--data", str(data), "--config", str(config), "--out", str(out)]) == 0
    return out / "model.json"


# damaged model files: (family, damage to the document, expected message)
MODEL_FILE_DAMAGE = {
    "values_hex": ("mtgp-slfm", lambda doc: doc["parameters"].pop("values_hex"), "'values_hex'"),
    "tasks": ("mtgp-slfm", lambda doc: doc["data"].pop("tasks"), "'tasks'"),
    "x-hex": ("mtgp-slfm", lambda doc: doc["data"]["tasks"][0]["x"].pop("hex"), "'hex'"),
    "y": ("mtgp-slfm", lambda doc: doc["data"]["tasks"][1].pop("y"), "'y'"),
    "mean_const-hex": ("gp", lambda doc: doc["mean_const"].pop("hex"), "'hex'"),
    "shape": ("mtgp-slfm", lambda doc: doc["data"]["tasks"][0]["y"].update(shape=[7]), "shape [7]"),
}

def set_parameter(doc, name, value):
    """Overwrite the model file's stored (transformed) parameter ``name``."""
    names = [n for n, _ in doc["parameters"]["schema"]]
    doc["parameters"]["values_hex"][names.index(name)] = float(value).hex()


def edit_hex(array_doc):
    """Change the first stored value of a model file array."""
    array_doc["hex"][0] = (float.fromhex(array_doc["hex"][0]) + 1.0).hex()


# model files with a value of the wrong type: (family, damage, expected message)
BAD_TRANSFORM = "parameter values must transform to finite numbers"
MEAN_CONST = "model file key 'mean_const' must be finite"
MODEL_FILE_BAD_VALUES = {
    "kernel_kinds-empty": ("gp", lambda doc: doc.update(kernel_kinds=[]), "'kernel_kinds'"),
    "schema_version-true": ("gp", lambda doc: doc.update(schema_version=True), "'schema_version'"),
    "schema_version-float": ("gp", lambda doc: doc.update(schema_version=1.0), "'schema_version'"),
    "schema_version-string": ("gp", lambda doc: doc.update(schema_version="1"), "'schema_version'"),
    "tasks-number": ("mtgp-slfm", lambda doc: doc["data"].update(tasks=5), "'tasks'"),
    "input_dim-string": ("mtgp-slfm", lambda doc: doc.update(input_dim="abc"), "'input_dim'"),
    "num_tasks-negative": ("mtgp-slfm", lambda doc: doc.update(num_tasks=-1), "'num_tasks'"),
    "ranks-string": ("mtgp-slfm", lambda doc: doc.update(ranks=["a", "b"]), "'ranks'"),
    "ranks-huge": ("mtgp-slfm", lambda doc: doc.update(ranks=[10**30, 1]), "wrong length"),
    "standardize-string": ("mtgp-slfm", lambda doc: doc.update(standardize="false"), "'standardize'"),
    "standardize-list": ("mtgp-slfm", lambda doc: doc.update(standardize=[1]), "'standardize'"),
    "y-edited": ("mtgp-slfm", lambda doc: edit_hex(doc["data"]["tasks"][0]["y"]), "'dataset_fingerprint'"),
    "gp-two-kinds": (
        "gp", lambda doc: doc.update(kernel_kinds=["squared_exponential"] * 2), "'kernel_kinds'"
    ),
    "gp-three-num_tasks": ("gp", lambda doc: doc.update(num_tasks=3), "'num_tasks'"),
    "gp-two-data-tasks": ("gp", lambda doc: doc["data"]["tasks"].append(doc["data"]["tasks"][0]), "'tasks'"),
    "signal_variance-overflow": (
        "mtgp-slfm", lambda doc: set_parameter(doc, "term0.log_signal_variance", 1000), BAD_TRANSFORM
    ),
    "lengthscale-overflow": (
        "mtgp-slfm", lambda doc: set_parameter(doc, "term0.log_lengthscale0", 1000), BAD_TRANSFORM
    ),
    "lengthscale-underflow": (
        "mtgp-slfm", lambda doc: set_parameter(doc, "term0.log_lengthscale0", -1000), BAD_TRANSFORM
    ),
    "noise-overflow": ("mtgp-slfm", lambda doc: set_parameter(doc, "log_noise0", 800), BAD_TRANSFORM),
    "gp-noise-overflow": ("gp", lambda doc: set_parameter(doc, "log_noise", 800), BAD_TRANSFORM),
    "gp-mean_const-inf": ("gp", lambda doc: doc["mean_const"].update(hex="inf"), MEAN_CONST),
    "gp-mean_const-nan": ("gp", lambda doc: doc["mean_const"].update(hex="nan"), MEAN_CONST),
    "gp-mean_const--inf": ("gp", lambda doc: doc["mean_const"].update(hex="-inf"), MEAN_CONST),
    "values_hex-not-hex": (
        "mtgp-slfm",
        lambda doc: operator.setitem(doc["parameters"]["values_hex"], 0, "zz"),
        "bad hex float 'zz' in model file",
    ),
    "x-hex-number": (
        "mtgp-slfm",
        lambda doc: operator.setitem(doc["data"]["tasks"][0]["x"]["hex"], 0, 5),
        "bad hex float 5 in model file",
    ),
    "gp-mean_const-not-hex": (
        "gp", lambda doc: doc["mean_const"].update(hex="one"), "bad hex float 'one' in model file"
    ),
    "model_type-unknown": ("gp", lambda doc: doc.update(model_type="svm"), "unknown model_type 'svm'"),
    "kernel_kinds-unknown": (
        "mtgp-slfm", lambda doc: doc.update(kernel_kinds=["rbf", "rbf"]), "unknown kernel kind 'rbf'"
    ),
    "input_dim-disagrees": (
        "mtgp-slfm", lambda doc: doc.update(input_dim=2), "model file key 'input_dim' is 2, its data has 1"
    ),
    "y-shape-bool": (
        "mtgp-slfm",
        lambda doc: doc["data"]["tasks"][0]["y"].update(shape=[6, True]),
        "model file array of shape [6, True] has 6 values",
    ),
    "values_hex-one-more": (
        "mtgp-slfm",
        lambda doc: doc["parameters"]["values_hex"].append("0x0.0p+0"),
        "parameter vector has wrong length",
    ),
}

# run configs that exit 2, with the message after the config's path
BAD_RUN_CONFIGS = [
    ({"family": "svm"}, "key 'family' must be one of ['gp', 'mtgp-slfm', 'mtgp-lmc']"),
    ({"kernel": "rbf"}, "key 'kernel' must be one of ['squared_exponential', 'matern52']"),
    ({"kernel": 5}, "key 'kernel' must be of type str"),
    ({"q": True}, "key 'q' must be of type int"),
    ({"q": 2.0}, "key 'q' must be of type int"),
    ({"learning_rate": "fast"}, "key 'learning_rate' must be of type float"),
    ({"max_iterations": 5.0}, "key 'max_iterations' must be of type int"),
    ({"standardize": 1}, "key 'standardize' must be of type bool"),
    ({"output_dir": 3}, "key 'output_dir' must be of type str"),
    ({"colour": 1}, "unknown key 'colour'"),
]

# study configs and flags that exit 2, with the message ({config}: the config's path)
BAD_STUDY_CONFIGS = [
    (["--sizes", "4,x"], {}, "bad --sizes entry '4,x'; expected integers"),
    (["--sizes", "4"], {}, "bad --sizes entry '4'; expected 'n1,n2'"),
    (["--correlations", "0.5,high"], {}, "bad --correlations value '0.5,high'"),
    ([], {"correlations": [0.5, "a"]}, "{config}: 'correlations' must be a list of numbers"),
    ([], {"correlations": 0.5}, "{config}: 'correlations' must be a list of numbers"),
    ([], {"correlations": [True]}, "{config}: 'correlations' must be a list of numbers"),
    ([], {"sizes": [[4, 4.0]]}, "{config}: 'sizes' must be a list of [n1, n2] integer pairs"),
    ([], {"sizes": "4,4"}, "{config}: 'sizes' must be a list of [n1, n2] integer pairs"),
    ([], {"train": [1]}, "{config}: 'train' must be an object"),
    ([], {"train": {"rate": 1}}, "{config}: unknown key 'rate'"),
    ([], {"train": {"seed": 1.5}}, "{config}: key 'seed' must be of type int"),
    ([], {"train": {"learning_rate": False}}, "{config}: key 'learning_rate' must be of type float"),
    ([], {"replicates": True}, "{config}: key 'replicates' must be of type int"),
    ([], {"observation_noise": "0"}, "{config}: key 'observation_noise' must be of type float"),
    ([], {"size_grid": [[4, 4]]}, "{config}: unknown key 'size_grid'"),
]

# training settings out of range, in a run config and in a study's train block
BAD_TRAIN_SETTINGS = [
    ("num_restarts", 0),
    ("learning_rate", -1),
    ("max_iterations", -5),
    ("convergence_tolerance", 0),
    ("learning_rate", math.inf),
    ("convergence_tolerance", math.inf),
]

# run-config family settings that are out of range or that the family does not use
BAD_FAMILY_SETTINGS = [
    ("gp", "q", 4),
    ("mtgp-slfm", "rank", 3),
    ("mtgp-slfm", "q", 0),
    ("mtgp-lmc", "rank", 0),
]

# the parameters.schema lists model files have always carried
MODEL_FILE_SCHEMAS = {
    "gp": [["log_lengthscale0", "log"], ["log_signal_variance", "log"], ["log_noise", "log"]],
    "mtgp-slfm": [
        ["term0.log_lengthscale0", "log"], ["term0.log_signal_variance", "log"],
        ["term0.W[0,0]", "identity"], ["term0.W[1,0]", "identity"],
        ["term0.log_gamma0", "log"], ["term0.log_gamma1", "log"],
        ["term1.log_lengthscale0", "log"], ["term1.log_signal_variance", "log"],
        ["term1.W[0,0]", "identity"], ["term1.W[1,0]", "identity"],
        ["term1.log_gamma0", "log"], ["term1.log_gamma1", "log"],
        ["log_noise0", "log"], ["log_noise1", "log"],
    ],
    "mtgp-lmc": [
        ["term0.log_lengthscale0", "log"], ["term0.log_signal_variance", "log"],
        ["term0.W[0,0]", "identity"], ["term0.W[0,1]", "identity"],
        ["term0.W[1,0]", "identity"], ["term0.W[1,1]", "identity"],
        ["term0.log_gamma0", "log"], ["term0.log_gamma1", "log"],
        ["log_noise0", "log"], ["log_noise1", "log"],
    ],
}
FIXTURES = os.path.join(os.path.dirname(__file__), "data")


class TestTrainPredict:
    def test_mtgp_round_trip(self, tmp_path):
        data = write_two_task_csv(tmp_path / "data.csv")
        config = write_config(tmp_path / "config.json")
        out = tmp_path / "run"
        assert cli.main(["train", "--data", str(data), "--config", str(config), "--out", str(out)]) == 0
        assert (out / "model.json").exists()
        metrics = json.loads((out / "metrics.json").read_text())
        assert np.isfinite(metrics["log_marginal_likelihood"])

        query = tmp_path / "query.csv"
        query.write_text("x1,task\n0.25,0\n0.5,1\n0.75,0\n", encoding="utf-8")
        preds = tmp_path / "preds.csv"
        assert cli.main(["predict", "--model", str(out / "model.json"), "--data", str(query), "--out", str(preds)]) == 0
        rows = read_csv_rows(preds)
        assert [r["task"] for r in rows] == ["0", "1", "0"]
        assert all(float(r["stddev"]) >= 0 for r in rows)

        # round trip against the in-process model
        model = model_io.load_model(out / "model.json")
        expected0 = mtgp_predict(model, 0, np.array([[0.25], [0.75]])).mean
        got0 = [float(r["mean"]) for r in rows if r["task"] == "0"]
        np.testing.assert_allclose(got0, expected0, atol=1e-10)

    def test_gp_family_single_task(self, tmp_path):
        rng = make_rng("cli-gp", 0)
        data = tmp_path / "one.csv"
        with open(data, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x1", "task", "y"])
            for _ in range(8):
                x = float(rng.uniform(0, 1))
                writer.writerow([repr(x), 0, repr(forrester(x))])
        config = write_config(tmp_path / "config.json", family="gp")
        out = tmp_path / "run"
        assert cli.main(["train", "--data", str(data), "--config", str(config), "--out", str(out)]) == 0
        query = tmp_path / "query.csv"
        query.write_text("x1,task\n0.4,0\n", encoding="utf-8")
        preds = tmp_path / "p.csv"
        assert cli.main(["predict", "--model", str(out / "model.json"), "--data", str(query), "--out", str(preds)]) == 0
        model = model_io.load_model(out / "model.json")
        expected = mtgp_predict(model, 0, np.array([[0.4]])).mean[0]
        assert float(read_csv_rows(preds)[0]["mean"]) == pytest.approx(expected, abs=1e-10)

    def test_gp_family_rejects_multi_task_data(self, tmp_path, capsys):
        data = write_two_task_csv(tmp_path / "data.csv")
        config = write_config(tmp_path / "config.json", family="gp")
        code = cli.main(["train", "--data", str(data), "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "family 'gp' requires a single task, data has 2" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_task_gap_exits_2(self, tmp_path, capsys):
        data = tmp_path / "gap.csv"
        data.write_text("x1,task,y\n0.1,0,1.0\n0.2,2,2.0\n", encoding="utf-8")
        config = write_config(tmp_path / "config.json")
        code = cli.main(["train", "--data", str(data), "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "missing [1]" in capsys.readouterr().err

    @pytest.mark.parametrize("task", [10**12, 2**53 + 1, 10**30, 2**100])
    def test_huge_task_id_exits_2_with_a_short_message(self, tmp_path, capsys, task):
        # the listed gaps are bounded by the row count, not by the largest id,
        # and an id above 2^53 is read exactly
        data = tmp_path / "huge.csv"
        data.write_text(f"x1,task,y\n0.1,0,1.0\n0.2,{task},2.0\n", encoding="utf-8")
        config = write_config(tmp_path / "config.json")
        code = cli.main(["train", "--data", str(data), "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "huge.csv" in err and len(err) < 300
        assert f"indices [0, {task}] are not contiguous from 0; missing [1] and {task - 2} more" in err

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        data = write_two_task_csv(tmp_path / "data.csv")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"family": "mtgp-slfm", "kernl": "matern52"}), encoding="utf-8")
        code = cli.main(["train", "--data", str(data), "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "kernl" in capsys.readouterr().err

    def test_training_failure_exits_3(self, tmp_path, monkeypatch):
        data = write_two_task_csv(tmp_path / "data.csv")
        config = write_config(tmp_path / "config.json")

        def boom(*args, **kwargs):
            raise TrainingFailedError("all restarts failed", [{"restart": 0}])

        monkeypatch.setattr(cli, "train", boom)
        code = cli.main(["train", "--data", str(data), "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 3

    def test_empty_query_gives_header_only(self, tmp_path):
        data = write_two_task_csv(tmp_path / "data.csv")
        config = write_config(tmp_path / "config.json")
        out = tmp_path / "run"
        cli.main(["train", "--data", str(data), "--config", str(config), "--out", str(out)])
        query = tmp_path / "query.csv"
        query.write_text("x1,task\n", encoding="utf-8")
        preds = tmp_path / "p.csv"
        assert cli.main(["predict", "--model", str(out / "model.json"), "--data", str(query), "--out", str(preds)]) == 0
        assert preds.read_text(encoding="utf-8") == "x1,task,mean,stddev\n"

    def test_header_only_query_of_the_wrong_width_exits_2(self, tmp_path, capsys):
        model = train_model(tmp_path, "gp")
        query = tmp_path / "query.csv"
        query.write_text("x1,x2,task\n", encoding="utf-8")
        preds = tmp_path / "p.csv"
        assert cli.main(["predict", "--model", str(model), "--data", str(query), "--out", str(preds)]) == 2
        assert "query has 2 input columns, model expects 1" in capsys.readouterr().err
        assert not preds.exists()

    def test_query_task_out_of_range_exits_2(self, tmp_path):
        data = write_two_task_csv(tmp_path / "data.csv")
        config = write_config(tmp_path / "config.json")
        out = tmp_path / "run"
        cli.main(["train", "--data", str(data), "--config", str(config), "--out", str(out)])
        query = tmp_path / "query.csv"
        query.write_text("x1,task\n0.5,7\n", encoding="utf-8")
        assert cli.main(["predict", "--model", str(out / "model.json"), "--data", str(query), "--out", str(tmp_path / "p.csv")]) == 2

    def test_query_task_beyond_int64_exits_2(self, tmp_path, capsys):
        data = write_two_task_csv(tmp_path / "data.csv")
        config = write_config(tmp_path / "config.json")
        out = tmp_path / "run"
        cli.main(["train", "--data", str(data), "--config", str(config), "--out", str(out)])
        query = tmp_path / "query.csv"
        query.write_text("x1,task\n0.1,0\n0.1,99999999999999999999\n", encoding="utf-8")
        code = cli.main(["predict", "--model", str(out / "model.json"), "--data", str(query), "--out", str(tmp_path / "p.csv")])
        assert code == 2
        assert "line 3: task index 99999999999999999999" in capsys.readouterr().err

    def test_seed_flag_overrides_config(self, tmp_path):
        data = write_two_task_csv(tmp_path / "data.csv")
        config = write_config(tmp_path / "config.json", seed=0)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cli.main(["train", "--data", str(data), "--config", str(config), "--out", str(out_a), "--seed", "9"])
        cli.main(["train", "--data", str(data), "--config", str(config), "--out", str(out_b)])
        doc_a = json.loads((out_a / "model.json").read_text())
        doc_b = json.loads((out_b / "model.json").read_text())
        assert doc_a["parameters"]["values_hex"] != doc_b["parameters"]["values_hex"]

    def test_byte_identical_reruns(self, tmp_path):
        data = write_two_task_csv(tmp_path / "data.csv")
        config = write_config(tmp_path / "config.json")
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cli.main(["train", "--data", str(data), "--config", str(config), "--out", str(out_a)])
        cli.main(["train", "--data", str(data), "--config", str(config), "--out", str(out_b)])
        assert (out_a / "model.json").read_bytes() == (out_b / "model.json").read_bytes()
        query = tmp_path / "query.csv"
        query.write_text("x1,task\n0.3,0\n0.6,1\n", encoding="utf-8")
        pa, pb = tmp_path / "pa.csv", tmp_path / "pb.csv"
        cli.main(["predict", "--model", str(out_a / "model.json"), "--data", str(query), "--out", str(pa)])
        cli.main(["predict", "--model", str(out_b / "model.json"), "--data", str(query), "--out", str(pb)])
        assert pa.read_bytes() == pb.read_bytes()

    def test_trace_written(self, tmp_path):
        data = write_two_task_csv(tmp_path / "data.csv")
        config = write_config(tmp_path / "config.json", max_iterations=5)
        trace = tmp_path / "o" / "trace.jsonl"  # inside the --out that train makes
        argv = ["train", "--data", str(data), "--config", str(config), "--out", str(tmp_path / "o")]
        assert cli.main([*argv, "--trace", str(trace)]) == 0
        lines = [json.loads(line) for line in trace.read_text().splitlines()]
        assert {rec["restart"] for rec in lines} == {0, 1}
        assert all({"iteration", "objective", "grad_norm"} <= set(rec) for rec in lines)


    @pytest.mark.parametrize("family", ["gp", "mtgp-lmc"])
    def test_metrics_report_each_restart(self, tmp_path, family):
        model = train_model(tmp_path, family, num_restarts=3)
        metrics = json.loads((model.parent / "metrics.json").read_text())
        restarts = metrics["restarts"]
        assert [r["restart"] for r in restarts] == [0, 1, 2]
        for r in restarts:
            assert r["status"] == "ok"
            assert r["stop_reason"] == "max_iterations" and r["iterations"] == 5
            assert r["jitter_escalations"] >= 0
            assert r["final_objective"] >= r["initial_objective"]
        assert restarts[metrics["winning_restart"]]["final_objective"] == metrics["objective"]


    def test_metrics_report_phase_timing(self, tmp_path):
        model = train_model(tmp_path, "mtgp-lmc", kernel="matern52")
        metrics = json.loads((model.parent / "metrics.json").read_text())
        timing = metrics["timing"]
        phases = ["materialize_s", "assemble_s", "cholesky_s", "inverse_s", "gradient_s", "adam_step_s"]
        assert sorted(timing) == sorted(phases + ["objective_calls"])
        # the initial point plus one batch step per iteration; no restart converged
        assert timing["objective_calls"] == metrics["iterations"] + 1
        assert all(timing[p] >= 0.0 for p in phases)
        assert sum(timing[p] for p in phases) <= metrics["wall_time_s"]
        assert "timing" not in model.read_text()

    def test_padded_csv_headers_read_like_plain_ones(self, tmp_path):
        plain = write_two_task_csv(tmp_path / "data.csv")
        lines = plain.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "x1,task,y"
        padded = tmp_path / "padded.csv"
        padded.write_text("\n".join([" x1 , task,y "] + lines[1:]) + "\n", encoding="utf-8")
        config = write_config(tmp_path / "config.json", max_iterations=5)
        query = tmp_path / "query.csv"
        query.write_text("x1,task\n0.3,0\n0.6,1\n", encoding="utf-8")
        padded_query = tmp_path / "padded_query.csv"
        padded_query.write_text(" task , x1\n0,0.3\n1,0.6\n", encoding="utf-8")
        outputs = []
        for data, queries in ((plain, query), (padded, padded_query)):
            out = tmp_path / data.stem
            assert cli.main(["train", "--data", str(data), "--config", str(config), "--out", str(out)]) == 0
            preds = tmp_path / f"{data.stem}_preds.csv"
            argv = ["predict", "--model", str(out / "model.json"), "--data", str(queries), "--out", str(preds)]
            assert cli.main(argv) == 0
            outputs.append(((out / "model.json").read_bytes(), preds.read_bytes()))
        assert outputs[0] == outputs[1]


class TestBadInputExitCodes:
    """Bad input exits 2 with a one-line error, never a traceback."""

    def _assert_exit_2(self, argv, capsys, needle, path=None):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and needle in err
        assert "Traceback" not in err and err.count("\n") == 1  # one line
        if path is not None:  # the message names the file once, at its start
            assert err.startswith(f"error: {path}: ") and err.count(str(path)) == 1

    def _assert_message(self, argv, capsys, message):
        """Exit 2 with exactly ``error: <message>`` on stderr."""
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @staticmethod
    def _files(tmp_path, command):
        """Usable files for each file flag of ``command``."""
        if command == "train":
            return {
                "--data": write_two_task_csv(tmp_path / "data.csv"),
                "--config": write_config(tmp_path / "config.json", max_iterations=5),
                "--out": tmp_path / "o",
            }
        if command == "benchmark":
            study = tmp_path / "study.json"
            study.write_text('{"replicates": 1}', encoding="utf-8")
            return {"--config": study, "--out": tmp_path / "s"}
        query = tmp_path / "query.csv"
        query.write_text("x1,task\n0.5,0\n", encoding="utf-8")
        return {
            "--model": train_model(tmp_path, "mtgp-slfm"),
            "--data": query,
            "--out": tmp_path / "p.csv",
        }

    @staticmethod
    def _argv(command, files):
        return [command] + [str(v) for item in files.items() for v in item]

    @pytest.mark.parametrize(
        "command,header,needle",
        [
            ("train", " x1 , task , y , color ", "unknown columns ['color']"),
            ("train", " x1 , y ", "missing required column 'task'"),
            ("predict", " x1 , task , y ", "unknown columns ['y']"),
            ("predict", " x1 ", "missing required column 'task'"),
        ],
    )
    def test_padded_header_column_errors_exit_2(self, tmp_path, capsys, command, header, needle):
        width = len(header.split(","))
        data = tmp_path / "padded.csv"
        data.write_text(header + "\n" + ",".join(["0"] * width) + "\n", encoding="utf-8")
        if command == "train":
            config = write_config(tmp_path / "config.json")
            argv = ["train", "--data", str(data), "--config", str(config), "--out", str(tmp_path / "o")]
        else:
            model = train_model(tmp_path, "mtgp-slfm")
            argv = ["predict", "--model", str(model), "--data", str(data), "--out", str(tmp_path / "p.csv")]
        self._assert_exit_2(argv, capsys, needle)

    @pytest.mark.parametrize(
        "command,text,needle",
        [
            ("predict", "x1,task\n0.1,0\n0.2,0,7\n", "line 3: 3 fields, the header has 2"),
            ("predict", "x1,task,task\n0.1,0,1\n", "repeated columns ['task']"),
            ("predict", "x1,task\n0.1,0\n\n\nabc,0\n", "line 5: non-numeric value"),
            ("train", "x1,task,y\n0.1,0,1.0\n0.2,0,2,9\n", "line 3: 4 fields, the header has 3"),
            ("train", "x1,task,y,y\n0.1,0,1.0,2.0\n", "repeated columns ['y']"),
        ],
    )
    def test_malformed_rows_and_headers_exit_2(self, tmp_path, capsys, command, text, needle):
        data = tmp_path / "bad.csv"
        data.write_text(text, encoding="utf-8")
        if command == "train":
            config = write_config(tmp_path / "config.json")
            argv = ["train", "--data", str(data), "--config", str(config), "--out", str(tmp_path / "o")]
        else:
            model = train_model(tmp_path, "mtgp-slfm")
            argv = ["predict", "--model", str(model), "--data", str(data), "--out", str(tmp_path / "p.csv")]
        self._assert_exit_2(argv, capsys, needle)

    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_field_over_the_csv_limit_exits_2(self, tmp_path, capsys, command):
        # csv's default field limit is 131072 characters
        data = tmp_path / "long.csv"
        if command == "train":
            data.write_text("x1,task,y\n0.1,0,1.0\n" + "1" * 200_000 + ",0,2.0\n", encoding="utf-8")
            config = write_config(tmp_path / "config.json")
            argv = ["train", "--data", str(data), "--config", str(config), "--out", str(tmp_path / "o")]
        else:
            data.write_text("x1,task\n0.1,0\n" + "1" * 200_000 + ",0\n", encoding="utf-8")
            model = train_model(tmp_path, "mtgp-slfm")
            argv = ["predict", "--model", str(model), "--data", str(data), "--out", str(tmp_path / "p.csv")]
        self._assert_exit_2(argv, capsys, "line 3: field larger than field limit", path=data)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_training_value_exits_2(self, tmp_path, capsys, bad):
        data = tmp_path / "bad.csv"
        data.write_text(f"x1,task,y\n0.1,0,1.0\n0.2,0,{bad}\n0.3,1,2.0\n", encoding="utf-8")
        config = write_config(tmp_path / "config.json")
        argv = ["train", "--data", str(data), "--config", str(config), "--out", str(tmp_path / "o")]
        self._assert_exit_2(argv, capsys, "line 3: non-finite value")

    @pytest.mark.parametrize(
        "command,flag",
        [
            ("train", "--data"),
            ("train", "--config"),
            ("train", "--out"),
            ("train", "--trace"),
            ("predict", "--model"),
            ("predict", "--data"),
            ("predict", "--out"),
            ("benchmark", "--config"),
        ],
    )
    def test_unusable_file_exits_2(self, tmp_path, capsys, command, flag):
        files = self._files(tmp_path, command)
        bad = tmp_path / "missing" / "x"
        if (command, flag) == ("train", "--out"):
            # the output directory cannot be made under a regular file
            (tmp_path / "missing").write_text("", encoding="utf-8")
        files[flag] = bad
        argv = self._argv(command, files)
        self._assert_exit_2(argv, capsys, str(bad))
        if (command, flag) == ("train", "--trace"):
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("family", ["gp", "mtgp-slfm"])
    def test_unusable_train_out_fails_before_training(self, tmp_path, capsys, monkeypatch, family):
        calls = []

        def recording(*args, **kwargs):
            calls.append(args)

        monkeypatch.setattr(cli, "train", recording)
        data = write_two_task_csv(tmp_path / "data.csv", n1=0 if family == "gp" else 5)
        config = write_config(tmp_path / "config.json", family=family)
        (tmp_path / "file").write_text("", encoding="utf-8")
        bad = tmp_path / "file" / "out"
        argv = ["train", "--data", str(data), "--config", str(config), "--out", str(bad)]
        self._assert_exit_2(argv, capsys, str(bad))
        assert calls == []

    def test_unusable_benchmark_out_fails_before_the_study(self, tmp_path, capsys, monkeypatch):
        calls = []

        def recording(*args, **kwargs):
            calls.append(args)

        monkeypatch.setattr(cli.benchmark, "run_study", recording)
        (tmp_path / "file").write_text("", encoding="utf-8")
        bad = tmp_path / "file" / "study"
        argv = ["benchmark", "--correlations", "0.89", "--sizes", "4,4", "--replicates", "1",
                "--out", str(bad)]
        self._assert_exit_2(argv, capsys, str(bad))
        assert calls == []

    @pytest.mark.parametrize("command,flag", [("train", "--data"), ("train", "--config"),
                                              ("predict", "--model"), ("predict", "--data")])
    def test_file_that_is_not_utf8_exits_2(self, tmp_path, capsys, command, flag):
        files = self._files(tmp_path, command)
        bad = files[flag]
        text = bad.read_bytes()
        cut = text.index(b"0")  # inside a value of the CSV or the JSON
        bad.write_bytes(text[:cut] + b"\xff" + text[cut:])
        self._assert_exit_2(self._argv(command, files), capsys, "not UTF-8 text: byte 0xff", path=bad)

    @pytest.mark.parametrize(
        "command,flag,text,message",
        [
            ("train", "--config", "{", "not valid JSON: "
             "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
            ("benchmark", "--config", "", "not valid JSON: Expecting value: line 1 column 1 (char 0)"),
            ("predict", "--model", "{}x", "not valid JSON: Extra data: line 1 column 3 (char 2)"),
            ("train", "--config", "[]", "top-level JSON value must be an object"),
            ("benchmark", "--config", "null", "top-level JSON value must be an object"),
            ("predict", "--model", "[]", "model file missing key 'schema_version'"),
        ],
    )
    def test_json_file_that_is_not_an_object_exits_2(
        self, tmp_path, capsys, command, flag, text, message
    ):
        files = self._files(tmp_path, command)
        files[flag].write_text(text, encoding="utf-8")
        self._assert_message(self._argv(command, files), capsys, f"{files[flag]}: {message}")

    @pytest.mark.parametrize("doc,message", BAD_RUN_CONFIGS)
    def test_bad_run_config_exits_2(self, tmp_path, capsys, doc, message):
        files = self._files(tmp_path, "train")
        write_config(files["--config"], **doc)
        self._assert_message(self._argv("train", files), capsys, f"{files['--config']}: {message}")
        assert not files["--out"].exists()

    def test_no_output_directory_exits_2(self, tmp_path, capsys):
        files = self._files(tmp_path, "train")
        del files["--out"]
        message = "no output directory: pass --out or set 'output_dir' in the config"
        self._assert_message(self._argv("train", files), capsys, message)

    @pytest.mark.parametrize("flags,doc,message", BAD_STUDY_CONFIGS)
    def test_bad_study_config_exits_2(self, tmp_path, capsys, flags, doc, message):
        files = self._files(tmp_path, "benchmark")
        files["--config"].write_text(json.dumps(doc), encoding="utf-8")
        argv = self._argv("benchmark", files) + flags
        self._assert_message(argv, capsys, message.format(config=files["--config"]))
        assert not files["--out"].exists()

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_query_value_exits_2(self, tmp_path, capsys, bad):
        model = train_model(tmp_path, "mtgp-slfm")
        query = tmp_path / "query.csv"
        query.write_text(f"x1,task\n0.5,0\n{bad},0\n", encoding="utf-8")
        argv = ["predict", "--model", str(model), "--data", str(query), "--out", str(tmp_path / "p.csv")]
        self._assert_exit_2(argv, capsys, "line 3: non-finite value")

    @pytest.mark.parametrize("damage", list(MODEL_FILE_DAMAGE))
    def test_model_file_missing_key_exits_2(self, tmp_path, capsys, damage):
        family, mutate, needle = MODEL_FILE_DAMAGE[damage]
        doc = json.loads(train_model(tmp_path, family).read_text())
        mutate(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        query = tmp_path / "query.csv"
        query.write_text("x1,task\n0.5,0\n", encoding="utf-8")
        argv = ["predict", "--model", str(bad), "--data", str(query), "--out", str(tmp_path / "p.csv")]
        self._assert_exit_2(argv, capsys, needle, path=bad)

    @pytest.mark.parametrize("damage", list(MODEL_FILE_BAD_VALUES))
    def test_model_file_bad_value_exits_2(self, tmp_path, capsys, damage):
        family, mutate, needle = MODEL_FILE_BAD_VALUES[damage]
        doc = json.loads(train_model(tmp_path, family).read_text())
        mutate(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        query = tmp_path / "query.csv"
        query.write_text("x1,task\n0.5,0\n", encoding="utf-8")
        argv = ["predict", "--model", str(bad), "--data", str(query), "--out", str(tmp_path / "p.csv")]
        self._assert_exit_2(argv, capsys, needle, path=bad)

    def test_model_file_overflowing_covariance_exits_3(self, tmp_path, capsys):
        # finite, well-typed parameters whose joint covariance is not finite
        doc = json.loads(train_model(tmp_path, "mtgp-slfm").read_text())
        set_parameter(doc, "term0.W[0,0]", 1e300)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        query = tmp_path / "query.csv"
        query.write_text("x1,task\n0.5,0\n", encoding="utf-8")
        argv = ["predict", "--model", str(bad), "--data", str(query), "--out", str(tmp_path / "p.csv")]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("key,value", BAD_TRAIN_SETTINGS)
    def test_out_of_range_train_setting_exits_2(self, tmp_path, capsys, key, value):
        data = write_two_task_csv(tmp_path / "data.csv", n1=0)
        config = write_config(tmp_path / "config.json", family="gp", **{key: value})
        argv = ["train", "--data", str(data), "--config", str(config), "--out", str(tmp_path / "o")]
        self._assert_exit_2(argv, capsys, key)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key,value", BAD_TRAIN_SETTINGS + [("learning_rate", "fast")])
    def test_bad_study_train_setting_exits_2(self, tmp_path, capsys, key, value):
        config = tmp_path / "study.json"
        config.write_text(json.dumps({"train": {key: value}}), encoding="utf-8")
        argv = ["benchmark", "--config", str(config), "--out", str(tmp_path / "s")]
        self._assert_exit_2(argv, capsys, key)

    @pytest.mark.parametrize(
        "flags,needle",
        [(["--replicates", "0"], "replicates"), (["--sizes", "0,5"], "sample counts")],
    )
    def test_out_of_range_study_flag_exits_2(self, tmp_path, capsys, flags, needle):
        argv = ["benchmark", "--out", str(tmp_path / "s"), "--correlations", "0.89", *flags]
        self._assert_exit_2(argv, capsys, needle)

    @pytest.mark.parametrize("family,key,value", BAD_FAMILY_SETTINGS)
    def test_bad_family_setting_exits_2(self, tmp_path, capsys, family, key, value):
        data = write_two_task_csv(tmp_path / "data.csv", n1=0 if family == "gp" else 5)
        config = write_config(tmp_path / "config.json", family=family, **{key: value})
        argv = ["train", "--data", str(data), "--config", str(config), "--out", str(tmp_path / "o")]
        self._assert_exit_2(argv, capsys, f"key {key!r}", path=config)
        assert not (tmp_path / "o").exists()

    def test_lmc_rank_above_task_count_exits_2(self, tmp_path, capsys):
        data = write_two_task_csv(tmp_path / "data.csv")
        config = write_config(tmp_path / "config.json", family="mtgp-lmc", rank=50)
        argv = ["train", "--data", str(data), "--config", str(config), "--out", str(tmp_path / "o")]
        self._assert_exit_2(argv, capsys, "rank 50 exceeds the number of tasks (2)")
        assert not (tmp_path / "o").exists()


class TestOracleIndependence:
    """Training and prediction share no code with the dense covariance oracle."""

    @pytest.mark.parametrize("family,kernel", [("gp", "squared_exponential"), ("mtgp-lmc", "matern52")])
    def test_train_predict_without_the_oracle(self, tmp_path, monkeypatch, family, kernel):
        from mtgp import coregionalization, kernels

        oracle = (
            kernels.kernel_matrix,
            coregionalization.build_B,
            coregionalization.assemble_joint_covariance,
        )

        def forbidden(*args, **kwargs):
            raise AssertionError("the dense covariance oracle was called")

        # rebind every name the package holds for them, `from ... import` copies too
        for name, module in list(sys.modules.items()):
            if name == "mtgp" or name.startswith("mtgp."):
                for attr, value in list(vars(module).items()):
                    if any(value is fn for fn in oracle):
                        monkeypatch.setattr(module, attr, forbidden)
        rank = {"rank": 2} if family == "mtgp-lmc" else {}
        model = train_model(tmp_path, family, kernel=kernel, max_iterations=20, **rank)
        query = tmp_path / "query.csv"
        query.write_text("x1,task\n0.25,0\n0.5,0\n" + ("0.75,1\n" if rank else ""), encoding="utf-8")
        out = tmp_path / "p.csv"
        assert cli.main(["predict", "--model", str(model), "--data", str(query), "--out", str(out)]) == 0
        assert len(read_csv_rows(out)) == (3 if rank else 2)
        with pytest.raises(AssertionError, match="oracle"):
            kernels.kernel_matrix(None, None)


def _load_perfbench(name):
    """A perfbench module loaded read-only from its file, under a private name."""
    import importlib.util

    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestPerfbenchOracles:
    """``mtgp train``/``mtgp predict`` outputs against perfbench's dense recomputations."""

    @pytest.mark.parametrize(
        "family,kernel,rank",
        [("mtgp-lmc", "matern52", 2), ("mtgp-slfm", "squared_exponential", 1), ("gp", "squared_exponential", 1)],
    )
    def test_train_and_predict_match_the_dense_model(self, tmp_path, family, kernel, rank):
        checks, inputs = _load_perfbench("checks"), _load_perfbench("inputs")
        ds = inputs.make_dataset(3, 0, str(tmp_path / "data"))
        data = ds["task0_csv"] if family == "gp" else ds["train_csv"]
        config = write_config(
            tmp_path / "config.json", family=family, kernel=kernel, rank=rank, max_iterations=150
        )
        out = tmp_path / "run"
        assert cli.main(["train", "--data", data, "--config", str(config), "--out", str(out)]) == 0
        doc = checks.load_json(str(out / "model.json"))
        assert checks.check_train(doc, checks.load_json(str(out / "metrics.json"))) == []
        preds = tmp_path / "preds.csv"
        argv = ["predict", "--model", str(out / "model.json"), "--data", ds["held_out_csv"], "--out", str(preds)]
        assert cli.main(argv) == 0
        pred = checks.parse_rows(checks.read_csv(str(preds)))
        query = checks.parse_rows(checks.read_csv(ds["held_out_csv"]))
        sample = np.arange(0, query["task"].size, 8)
        assert checks.check_predictions(pred, query, checks.DenseModel(doc), sample) == []


class TestPredictEdgeCases:
    @pytest.mark.parametrize("family,kernel", [("mtgp-lmc", "matern52"), ("mtgp-slfm", "squared_exponential")])
    def test_far_query_predicts_the_prior(self, tmp_path, capsys, family, kernel):
        path = train_model(tmp_path, family, kernel=kernel)
        query = tmp_path / "far.csv"
        query.write_text("x1,task\n1e300,0\n-1e300,1\n1e308,0\n", encoding="utf-8")
        out = tmp_path / "p.csv"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow warning fails the test
            assert cli.main(["predict", "--model", str(path), "--data", str(query), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        model = model_io.load_model(path)
        for row in read_csv_rows(out):
            d = int(row["task"])
            prior = sum(
                t.base_kernel.signal_variance * (t.W[d] @ t.W[d] + t.gamma[d]) for t in model.kernel.terms
            )
            assert float(row["mean"]) == model.task_means[d]
            assert float(row["stddev"]) == pytest.approx(np.sqrt(prior) * model.task_stds[d], rel=1e-12)

    def test_non_finite_solve_exits_3(self, tmp_path, capsys, monkeypatch):
        path = train_model(tmp_path, "mtgp-slfm")
        cross_covariance = multitask._cross_covariance

        def nan_cross_covariance(*args):
            Kstar, prior = cross_covariance(*args)
            Kstar[0, 0] = np.nan
            return Kstar, prior

        monkeypatch.setattr(multitask, "_cross_covariance", nan_cross_covariance)
        query = tmp_path / "query.csv"
        query.write_text("x1,task\n0.5,0\n", encoding="utf-8")
        argv = ["predict", "--model", str(path), "--data", str(query), "--out", str(tmp_path / "p.csv")]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not finite" in err and "Traceback" not in err


# `mtgp predict` of write_block_query's query against models trained on
# write_three_task_csv's data: sha256 of the output, recorded when each
# task's K(X*, X) was still computed in one piece
BLOCK_QUERY_SHA256 = {
    "mtgp-lmc": "d84df3be74c66c845b8d26660b08531b658960f6ef9d1d88cbfbd6ce2f9c0925",
    "mtgp-slfm": "5d15eb17727edda9abb0f4fe4c0e45542c4ddff405ce078ab9810accbc63d0a0",
    "gp": "e93cad5bcebbf8017f78933b66a5b1839d45b9185e1499c72ec0aa623b4f7809",
}
# 2 * PREDICT_BLOCK_ROWS + 37 at the default block size of 256
BLOCK_QUERY_ROWS_PER_TASK = 549


def write_three_task_csv(path, seed=0):
    """A seeded 3-input, 3-task training CSV of 8, 12 and 10 rows."""
    rng = make_rng("cli-three-tasks", seed)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2", "x3", "task", "y"])
        for task, n in enumerate((8, 12, 10)):
            for x in rng.uniform(0.0, 1.0, size=(n, 3)):
                y = np.sin(3.0 * x[0] + x[1]) + (0.5 + 0.2 * task) * x[2] ** 2 + 0.1 * task
                writer.writerow([repr(float(v)) for v in x] + [task, repr(float(y))])
    return path


def write_block_query(path, num_tasks, seed=0):
    """BLOCK_QUERY_ROWS_PER_TASK rows per task on [0, 1]^3, tasks interleaved;
    each task's row 267, past its first block of the default 256 rows, is at
    x = 1e300."""
    rng = make_rng("cli-block-query", seed)
    X = rng.uniform(0.0, 1.0, size=(num_tasks * BLOCK_QUERY_ROWS_PER_TASK, 3))
    tasks = np.arange(X.shape[0]) % num_tasks
    X[num_tasks * 267 + np.arange(num_tasks)] = 1e300
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2", "x3", "task"])
        for x, task in zip(X, tasks):
            writer.writerow([repr(float(v)) for v in x] + [int(task)])
    return path


class TestBlockedPrediction:
    """A query of several blocks of rows per task predicts the same bytes at
    every block size: only elementwise work is blocked, never the mean's
    product or the solve, whose bits depend on where a row sits."""

    @pytest.mark.parametrize(
        "family,kernel,rank",
        [("mtgp-lmc", "matern52", 2), ("mtgp-slfm", "squared_exponential", 1), ("gp", "matern52", 1)],
    )
    def test_outputs_equal_the_pinned_bytes_at_every_block_size(
        self, tmp_path, capsys, monkeypatch, family, kernel, rank
    ):
        assert BLOCK_QUERY_ROWS_PER_TASK > 2 * multitask.PREDICT_BLOCK_ROWS
        data = write_three_task_csv(tmp_path / "data.csv")
        if family == "gp":
            rows = read_csv_rows(data)
            with open(tmp_path / "task0.csv", "w", newline="", encoding="utf-8") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
                writer.writeheader()
                writer.writerows(row for row in rows if row["task"] == "0")
            data = tmp_path / "task0.csv"
        config = write_config(
            tmp_path / "config.json", family=family, kernel=kernel, rank=rank, max_iterations=40
        )
        out = tmp_path / "run"
        assert cli.main(["train", "--data", str(data), "--config", str(config), "--out", str(out)]) == 0
        query = write_block_query(tmp_path / "query.csv", 1 if family == "gp" else 3)
        preds = tmp_path / "preds.csv"
        argv = ["predict", "--model", str(out / "model.json"), "--data", str(query), "--out", str(preds)]
        capsys.readouterr()
        for block_rows in (1, 7, multitask.PREDICT_BLOCK_ROWS):
            monkeypatch.setattr(multitask, "PREDICT_BLOCK_ROWS", block_rows)
            assert cli.main(argv) == 0
            digest = hashlib.sha256(preds.read_bytes()).hexdigest()
            assert digest == BLOCK_QUERY_SHA256[family], block_rows
        assert capsys.readouterr().err == ""


class TestRepeatedMain:
    """``cli.main`` builds its parser once per process and may be called again and again."""

    def test_a_seed_flag_does_not_carry_over_to_the_next_call(self, tmp_path, monkeypatch):
        data = write_two_task_csv(tmp_path / "data.csv")
        config = write_config(tmp_path / "config.json", seed=3, max_iterations=5)
        seeds = []
        train = cli.train

        def recording(jobs, config, trace=None):
            seeds.append((config.seed, *(job.seed for job in jobs)))
            return train(jobs, config, trace)

        monkeypatch.setattr(cli, "train", recording)
        argv = ["train", "--data", str(data), "--config", str(config), "--out", str(tmp_path / "o")]
        assert cli.main(argv + ["--seed", "7"]) == 0
        assert cli.main(argv) == 0
        assert seeds == [(7, 7), (3, 3)]

    def test_a_command_rebound_after_a_call_is_the_one_that_runs(self, tmp_path, monkeypatch, capsys):
        argv = ["predict", "--model", str(tmp_path / "missing.json"), "--data", "q.csv", "--out", "p.csv"]
        assert cli.main(argv) == 2
        assert cli.build_parser() is cli.build_parser()
        ran = []
        monkeypatch.setattr(cli, "cmd_predict", lambda args: ran.append(args.model) or 0)
        assert cli.main(argv) == 0
        assert ran == [str(tmp_path / "missing.json")]


class TestModuleEntryPoint:
    """``python -m mtgp`` and ``python -m mtgp.cli`` run the CLI."""

    def _run(self, *args, cwd):
        src = os.path.dirname(os.path.dirname(mtgp.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
        )

    def test_package_help_exits_0(self, tmp_path):
        done = self._run("mtgp", "--help", cwd=tmp_path)
        assert done.returncode == 0
        assert "train" in done.stdout

    def test_cli_module_nan_csv_exits_2(self, tmp_path):
        data = tmp_path / "bad.csv"
        data.write_text("x1,task,y\n0.1,0,nan\n0.3,0,2.0\n", encoding="utf-8")
        config = write_config(tmp_path / "config.json")
        done = self._run(
            "mtgp.cli", "train", "--data", str(data), "--config", str(config), "--out", "o", cwd=tmp_path
        )
        assert done.returncode == 2
        assert "non-finite" in done.stderr and "Traceback" not in done.stderr
        assert not (tmp_path / "o").exists()


class TestModelIO:
    def test_version_check(self, tmp_path):
        data = write_two_task_csv(tmp_path / "data.csv")
        config = write_config(tmp_path / "config.json")
        out = tmp_path / "run"
        cli.main(["train", "--data", str(data), "--config", str(config), "--out", str(out)])
        doc = json.loads((out / "model.json").read_text())
        doc["schema_version"] = 99
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["predict", "--model", str(bad), "--data", str(data), "--out", str(tmp_path / "p.csv")]) == 2

    def test_fingerprint_stable(self, tmp_path):
        data = write_two_task_csv(tmp_path / "data.csv")
        dataset, _ = read_task_csv(data)
        assert model_io.dataset_fingerprint(dataset) == model_io.dataset_fingerprint(dataset)

    @pytest.mark.parametrize("family", ["gp", "mtgp-slfm", "mtgp-lmc"])
    def test_model_file_round_trip(self, tmp_path, family):
        overrides = {"rank": 2, "q": 1} if family == "mtgp-lmc" else {}
        path = train_model(tmp_path, family, max_iterations=60, **overrides)
        text = path.read_text()
        model = model_io.load_model(path)
        again = tmp_path / "again.json"
        model_io.save_model(model, again, family)
        assert again.read_text() == text
        schema = MODEL_FILE_SCHEMAS[family]
        params = json.loads(text)["parameters"]
        assert params["schema"] == schema
        gammas = [h for (name, _), h in zip(schema, params["values_hex"]) if "log_gamma" in name]
        if family == "mtgp-slfm":
            assert gammas == ["-inf"] * 4
            assert all(np.all(t.gamma == 0.0) for t in model.kernel.terms)
        if family == "mtgp-lmc":
            assert "-inf" not in gammas
            assert all(np.all(t.gamma > 0.0) for t in model.kernel.terms)
        # a file written by an earlier version loads and saves back unchanged
        earlier = os.path.join(FIXTURES, f"model_v1_{family}.json")
        model_io.save_model(model_io.load_model(earlier), again, family)
        with open(earlier, encoding="utf-8") as fh:
            assert again.read_text() == fh.read()

    @pytest.mark.parametrize("family", ["gp", "mtgp-slfm", "mtgp-lmc"])
    def test_predictions_from_earlier_model_files_are_unchanged(self, tmp_path, family):
        # predictions_v1_*.csv hold the output of the version that wrote these model files
        query = "query_task0.csv" if family == "gp" else "query_mixed.csv"
        out = tmp_path / "p.csv"
        model = os.path.join(FIXTURES, f"model_v1_{family}.json")
        argv = ["predict", "--model", model, "--data", os.path.join(FIXTURES, query), "--out", str(out)]
        assert cli.main(argv) == 0
        with open(os.path.join(FIXTURES, f"predictions_v1_{family}.csv"), "rb") as fh:
            assert out.read_bytes() == fh.read()

    @pytest.mark.parametrize("family", ["gp", "mtgp-slfm", "mtgp-lmc"])
    def test_training_reproduces_its_model_file(self, tmp_path, family):
        # trained_<family>.json, _metrics.json (without the run's times) and _trace.jsonl
        # hold what `mtgp train` wrote for this data and config
        extra = {"kernel": "matern52", "rank": 2} if family == "mtgp-lmc" else {}
        config = write_config(tmp_path / "config.json", family=family, max_iterations=100, **extra)
        data = os.path.join(FIXTURES, "train_one_task.csv" if family == "gp" else "train_two_tasks.csv")
        out = tmp_path / "run"
        argv = ["train", "--data", data, "--config", str(config), "--out", str(out)]
        assert cli.main([*argv, "--trace", str(tmp_path / "trace.jsonl")]) == 0
        metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
        del metrics["timing"], metrics["wall_time_s"]
        stripped = json.dumps(metrics, indent=2, sort_keys=True) + "\n"
        pinned = {
            f"trained_{family}.json": (out / "model.json").read_bytes(),
            f"trained_{family}_metrics.json": stripped.encode(),
            f"trained_{family}_trace.jsonl": (tmp_path / "trace.jsonl").read_bytes(),
        }
        for name, written in pinned.items():
            with open(os.path.join(FIXTURES, name), "rb") as fh:
                assert written == fh.read(), name

    def test_load_builds_one_layout_and_scales_once(self, build_counts):
        # the one dataset is the file's data; the layout scales its targets itself
        model = model_io.load_model(os.path.join(FIXTURES, "model_v1_mtgp-lmc.json"))
        mtgp_predict(model, 1, np.array([[0.3]]))
        assert build_counts == {"layouts": 1, "datasets": 1}
        assert model.kernel is model.kernel  # the one spec, built when first read
        assert build_counts == {"layouts": 1, "specs": 1, "datasets": 1}
        build_counts.clear()
        model_io.load_model(os.path.join(FIXTURES, "model_v1_gp.json"))
        assert build_counts == {"layouts": 1, "datasets": 1}

    @pytest.mark.parametrize("family", ["gp", "mtgp-slfm", "mtgp-lmc"])
    def test_save_reads_the_model_layout_and_builds_no_spec(self, build_counts, family):
        path = os.path.join(FIXTURES, f"model_v1_{family}.json")
        model = model_io.load_model(path)
        build_counts.clear()
        model_io.model_document(model, family)
        assert build_counts == {"layouts": 1}  # no spec, no scaled dataset

    @pytest.mark.parametrize("trained,family", [("mtgp-slfm", "gp"), ("gp", "mtgp-slfm")])
    def test_family_that_would_reload_differently_is_rejected(self, tmp_path, trained, family):
        # a two-task model has no gp file; a GP's task mean is no standardization
        model = model_io.load_model(train_model(tmp_path, trained))
        path = tmp_path / "other.json"
        with pytest.raises(ValueError, match="would not reload"):
            model_io.save_model(model, path, family)
        assert not path.exists()


# values whose shortest round-trip form is easy to get wrong
FORMAT_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e22, 1.0, 0.1 + 0.2, 3.0, -42.0, 2.0**53, 1.7976931348623157e308]


class TestWriteCsv:
    """``cli._write_csv`` writes the bytes of ``csv.writer`` with ``repr(float(v))`` cells."""

    @staticmethod
    def reference(path, header, columns):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for i in range(len(columns[0])):
                writer.writerow(
                    [int(c[i]) if c.dtype.kind == "i" else repr(float(c[i])) for c in columns]
                )

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.sampled_from([0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS + 1]),
        floats=st.lists(
            st.one_of(st.sampled_from(FORMAT_EDGE_FLOATS), st.floats(), st.integers(-(2**60), 2**60).map(float)),
            min_size=1,
            max_size=16,
        ),
        ints=st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=8),
    )
    def test_bytes_match_csv_writer(self, tmp_path_factory, n, floats, ints):
        tmp = tmp_path_factory.mktemp("write")
        values = np.resize(np.array(floats), n)
        columns = [values, np.resize(np.array(ints, dtype=np.int64), n), values[::-1].copy(), -values]
        header = ["x1", "task", "mean", "stddev"]
        cli._write_csv(tmp / "got.csv", header, columns)
        self.reference(tmp / "want.csv", header, columns)
        assert (tmp / "got.csv").read_bytes() == (tmp / "want.csv").read_bytes()

    def test_strided_columns(self, tmp_path):
        X = np.arange(3 * (CSV_BLOCK_ROWS + 3), dtype=float).reshape(-1, 3) / 7.0
        columns = [X[:, 0], X[:, 2]]
        cli._write_csv(tmp_path / "got.csv", ["a", "b"], columns)
        self.reference(tmp_path / "want.csv", ["a", "b"], columns)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


class TestBenchmarkCommand:
    def test_single_cell_run(self, tmp_path):
        config = tmp_path / "study.json"
        config.write_text(
            json.dumps(
                {
                    "correlations": [0.89],
                    "sizes": [[4, 4]],
                    "replicates": 2,
                    "n_test": 20,
                    "train": {"max_iterations": 40, "num_restarts": 2},
                }
            ),
            encoding="utf-8",
        )
        out = tmp_path / "study"
        assert cli.main(["benchmark", "--config", str(config), "--out", str(out)]) == 0
        rows = read_csv_rows(out / "study_rows.csv")
        assert len(rows) == 2
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["aggregates"]) == 1
        assert abs(summary["calibrations"]["0.89"]["achieved"] - 0.89) <= 0.03
        for key in ("mtgp_training", "gp_training"):
            diag = summary["aggregates"][0][key]
            assert (diag["fits"], diag["restarts"], diag["failed_restarts"]) == (2, 4, 0)
            assert sum(diag["stop_reasons"].values()) == 4
            assert diag["iterations_max"] <= 40
        # the header the study files have always carried, and the config block
        # with the training the study ran
        assert list(rows[0]) == [
            "correlation_target", "correlation_achieved", "aux_a", "aux_b", "n_primary",
            "n_auxiliary", "replicate", "seed", "gp_rmse", "mtgp_rmse", "percent_improvement",
        ]
        assert json.dumps(summary["config"], sort_keys=True) == (
            '{"correlations": [0.89], "n_test": 20, "observation_noise": 0.0, '
            '"replicates": 2, "seed": 0, "sizes": [[4, 4]], "train": {'
            '"convergence_tolerance": 1e-07, "learning_rate": 0.05, "max_iterations": 40, '
            '"num_restarts": 2, "seed": 0}}'
        )
        assert (out / "series_functions_r0.89.csv").exists()
        assert (out / "series_predictions_r0.89_t1-4_t2-4.csv").exists()

    def test_criterion_7_grid_reproduces_its_pinned_files(self, tmp_path, capsys):
        # criterion 7's grid at 2 replicates; the pinned files were written by
        # this same command, so any change to a study number shows here
        out = tmp_path / "study"
        argv = ["benchmark", "--correlations", "0.89,0.53,0.33", "--sizes", "5,5;5,20;10,10",
                "--replicates", "2", "--seed", "0", "--out", str(out)]
        assert cli.main(argv) == 0
        for name in ("study_rows.csv", "summary.json"):
            with open(os.path.join(FIXTURES, "study_c7_r2", name), "rb") as fh:
                assert (out / name).read_bytes() == fh.read(), name

    def test_flag_overrides(self, tmp_path):
        config = tmp_path / "study.json"
        config.write_text(
            json.dumps({"train": {"max_iterations": 30, "num_restarts": 1}}),
            encoding="utf-8",
        )
        out = tmp_path / "study"
        code = cli.main(
            [
                "benchmark",
                "--config", str(config),
                "--out", str(out),
                "--correlations", "0.89",
                "--sizes", "4,4",
                "--replicates", "1",
                "--seed", "5",
            ]
        )
        assert code == 0
        assert len(read_csv_rows(out / "study_rows.csv")) == 1

    def test_bad_sizes_flag_exits_2(self, tmp_path):
        assert cli.main(["benchmark", "--out", str(tmp_path / "s"), "--sizes", "4"]) == 2

    @pytest.mark.parametrize("sizes", [[[5.7, 5]], [[True, 5]], [[5, 5, 9]]])
    def test_sizes_must_be_integer_pairs(self, tmp_path, capsys, sizes):
        config = tmp_path / "study.json"
        config.write_text(json.dumps({"sizes": sizes}), encoding="utf-8")
        out = tmp_path / "s"
        assert cli.main(["benchmark", "--config", str(config), "--out", str(out)]) == 2
        assert "'sizes' must be a list of [n1, n2] integer pairs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, doc",
        [
            (["--sizes", "5,5;5,0"], {}),
            ([], {"n_test": 0}),
            ([], {"observation_noise": float("nan")}),
            ([], {"sizes": []}),
            ([], {"correlations": []}),
            (["--sizes", "5,5;5,5", "--correlations", "0.89,0.89"], {}),
            (["--sizes", "5,5;5,5"], {}),
            (["--correlations", "0.89,0.89"], {}),
            ([], {"correlations": [1.5]}),
            (["--correlations", "0"], {}),
            (["--correlations", "0.89,0.8900001"], {}),
        ],
    )
    def test_bad_study_values_exit_2_before_any_training(self, tmp_path, monkeypatch, args, doc):
        calls = []
        monkeypatch.setattr(benchmark, "calibrate_auxiliary", lambda *a: calls.append("calibrate"))
        monkeypatch.setattr(training, "adam_maximize", lambda *a, **k: calls.append("adam"))
        config = tmp_path / "study.json"
        config.write_text(json.dumps({"replicates": 2, **doc}), encoding="utf-8")
        out = tmp_path / "s"
        assert cli.main(["benchmark", "--config", str(config), "--out", str(out), *args]) == 2
        assert calls == [] and not out.exists()

    def test_unknown_study_key_exits_2(self, tmp_path):
        config = tmp_path / "study.json"
        config.write_text(json.dumps({"replicate": 3}), encoding="utf-8")
        assert cli.main(["benchmark", "--config", str(config), "--out", str(tmp_path / "s")]) == 2


def parse_study(*flags):
    return cli._parse_study_config(cli.build_parser().parse_args(["benchmark", "--out", "-", *flags]))


class TestConfigDefaults:
    """An absent or null config key takes the default of the record it sets."""

    def test_study_defaults_are_the_records(self):
        assert parse_study() == (benchmark.StudyConfig(), benchmark.STUDY_TRAIN_CONFIG)

    @pytest.mark.parametrize("key", sorted(cli._STUDY_KEYS))
    def test_null_study_key_is_its_default(self, tmp_path, key):
        config = tmp_path / "study.json"
        config.write_text(json.dumps({key: None}), encoding="utf-8")
        assert parse_study("--config", str(config)) == parse_study()

    def test_null_study_train_keys_are_the_study_training(self, tmp_path):
        config = tmp_path / "study.json"
        config.write_text(json.dumps({"train": dict.fromkeys(cli._TRAIN_KEYS)}), encoding="utf-8")
        assert parse_study("--config", str(config))[1] == benchmark.STUDY_TRAIN_CONFIG

    def test_null_run_config_keys_are_their_defaults(self, tmp_path):
        given, plain = tmp_path / "given.json", tmp_path / "plain.json"
        plain.write_text('{"family": "mtgp-slfm"}', encoding="utf-8")
        nulls = dict.fromkeys(cli._RUN_CONFIG_KEYS - {"family"})
        given.write_text(json.dumps({"family": "mtgp-slfm", **nulls}), encoding="utf-8")
        assert cli._parse_run_config(str(given)) == cli._parse_run_config(str(plain))


class TestReadmeConfigKeys:
    """The README names every key the config readers take, and no other."""

    README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")

    def test_run_json_example_has_the_run_config_keys(self):
        example = self.README.split("`run.json` (unknown keys are rejected):")[1].split("```")[1]
        assert set(re.findall(r'^\s*"(\w+)":', example, re.M)) == cli._RUN_CONFIG_KEYS

    def test_study_config_sentence_has_the_study_keys(self):
        sentence = self.README.split("A `--config` file may set")[1].split(";")[0]
        assert set(re.findall(r"`(\w+)`", sentence)) == cli._STUDY_KEYS


class TestCheckCommand:
    def test_exits_zero_and_lists_checks(self, capsys):
        assert cli.main(["check", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") >= 4
        # check_seed0.txt pins the whole report, figures included
        with open(os.path.join(FIXTURES, "check_seed0.txt"), encoding="utf-8") as fh:
            assert out == fh.read()

    def test_fault_injection_exits_one(self, monkeypatch, capsys):
        import mtgp.gp

        original = mtgp.gp.gp_log_marginal_likelihood

        def flipped(*args, **kwargs):
            value, grad = original(*args, **kwargs)
            grad = np.asarray(grad).copy()
            grad[0] = -grad[0]
            return value, grad

        monkeypatch.setattr(mtgp.gp, "gp_log_marginal_likelihood", flipped)
        assert cli.main(["check"]) == 1
        assert "FAIL" in capsys.readouterr().out
