"""Self-test of the benchmark's correctness checks and span arithmetic.

Produces genuine outputs with small runs of the program, confirms every
check accepts them, then feeds each check perturbed copies and confirms it
rejects each one. Run from the repository root:

    python3 perfbench/selftest.py

Exit code 0 when every check both accepts and rejects as it should.
"""

import copy
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from tracer import children_union  # noqa: E402
from workload import Study, setup_call  # noqa: E402

RESULTS = []


def expect(name: str, failures: list, reject: bool, marker: str = ""):
    ok = any(marker in f for f in failures) if reject else not failures
    RESULTS.append(ok)
    verdict = "rejected" if failures else "accepted"
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {verdict}" + (f" ({failures[0]})" if failures else ""))


def study_checks(work: str):
    out = os.path.join(work, "study")
    setup_call(["benchmark", "--out", out, "--correlations", inputs.STUDY_CORRELATIONS,
                "--sizes", inputs.STUDY_SIZES, "--replicates", "1", "--seed", "3"])
    study = checks.load_study(out)

    def run(s):
        return checks.check_study(s, Study.correlations, Study.sizes, 1)

    expect("study: genuine output", run(study), reject=False)

    s = copy.deepcopy(study)
    row = s["rows"][0]
    row["percent_improvement"] = repr(float(row["percent_improvement"]) * (1 + 1e-6) + 1e-6)
    expect("study: percent_improvement off by 1e-6", run(s), True, "percent_improvement")

    s = copy.deepcopy(study)
    s["summary"]["calibrations"]["0.53"]["b"] += 4.0
    expect("study: calibration b shifted", run(s), True, "calibration")

    s = copy.deepcopy(study)
    name = sorted(s["series"])[0]
    s["series"][name]["mtgp_mean"][10] += 1e-3
    expect("study: one series mean moved by 1e-3", run(s), True, "RMSE")

    s = copy.deepcopy(study)
    del s["series"][name]
    expect("study: series file missing", run(s), True, "missing")

    expect("study: headline at r=0.89", checks.check_headline(study["rows"], 0.89), reject=False)
    rows = copy.deepcopy(study["rows"])
    for r in rows:
        r["gp_rmse"], r["mtgp_rmse"] = r["mtgp_rmse"], r["gp_rmse"]
    expect("study: GP and MTGP RMSE swapped", checks.check_headline(rows, 0.89), True, "not below")


def train_and_predict_checks(work: str):
    ds = inputs.make_dataset(0, 0, os.path.join(work, "data"))
    models = {}
    for family, kernel in inputs.TRAIN_CALLS:
        config = os.path.join(work, f"{family}.json")
        inputs.write_run_config(config, family, kernel, max_iterations=200, num_restarts=1)
        out = os.path.join(work, family)
        data = ds["task0_csv"] if family == "gp" else ds["train_csv"]
        setup_call(["train", "--data", data, "--config", config, "--out", out])
        doc = checks.load_json(os.path.join(out, "model.json"))
        metrics = checks.load_json(os.path.join(out, "metrics.json"))
        models[family] = (doc, out)
        expect(f"train {family}: genuine LML", checks.check_train(doc, metrics), reject=False)

        bad = dict(metrics, log_marginal_likelihood=metrics["log_marginal_likelihood"] + 1e-4)
        expect(f"train {family}: LML off by 1e-4", checks.check_train(doc, bad), True, "LML")

        bad_doc = copy.deepcopy(doc)
        values = bad_doc["parameters"]["values_hex"]
        values[0] = (float.fromhex(values[0]) + 1e-3).hex()
        expect(f"train {family}: first parameter moved by 1e-3", checks.check_train(bad_doc, metrics), True, "LML")

        if family == "gp":
            continue
        pred_path = os.path.join(out, "held.csv")
        setup_call(["predict", "--model", os.path.join(out, "model.json"),
                    "--data", ds["held_out_csv"], "--out", pred_path])
        mean = checks.parse_rows(checks.read_csv(pred_path))["mean"]
        expect(f"train {family}: beats constant",
               checks.check_beats_constant(mean, ds["y_held"], ds["y0_train"], family), reject=False)
        const = np.full_like(mean, np.mean(ds["y0_train"]))
        expect(f"train {family}: constant predictions",
               checks.check_beats_constant(const, ds["y_held"], ds["y0_train"], family), True, "constant")

    doc, out = models["mtgp-lmc"]
    query_path = inputs.make_queries(0, 0, work, 3)[0]
    pred_path = os.path.join(work, "pred.csv")
    setup_call(["predict", "--model", os.path.join(out, "model.json"), "--data", query_path, "--out", pred_path])
    pred = checks.parse_rows(checks.read_csv(pred_path))
    query = checks.parse_rows(checks.read_csv(query_path))
    dense = checks.DenseModel(doc)
    sample = np.arange(0, query["task"].size, 2)

    def run(p):
        return checks.check_predictions(p, query, dense, sample)

    expect("predict: genuine output", run(pred), reject=False)

    p = copy.deepcopy(pred)
    for k in ("X", "task", "mean", "stddev"):
        p[k][[0, 1]] = p[k][[1, 0]]
    expect("predict: two rows swapped", run(p), True, "query inputs")

    p = copy.deepcopy(pred)
    p["task"][0] = (p["task"][0] + 1) % 3
    expect("predict: task column changed", run(p), True, "task column")

    p = copy.deepcopy(pred)
    p["stddev"][3] = -0.01
    expect("predict: negative stddev", run(p), True, "stddev")

    p = copy.deepcopy(pred)
    p["stddev"][3] = np.nan
    expect("predict: nan stddev", run(p), True, "stddev")

    p = copy.deepcopy(pred)
    p["mean"][sample[1]] += 1e-5
    expect("predict: one mean moved by 1e-5", run(p), True, "dense conditioning")

    p = copy.deepcopy(pred)
    p["stddev"][sample[2]] *= 1.0001
    expect("predict: one stddev scaled by 1.0001", run(p), True, "dense conditioning")


def span_checks():
    # parent 0 spans [0, 10]; its children 1 and 2 overlap in [2, 4], as
    # spans of two pool threads do
    start = np.array([0.0, 1.0, 2.0, 6.0, 2.5])
    end = np.array([10.0, 4.0, 5.0, 7.0, 3.0])
    parent = np.array([-1, 0, 0, 0, 2])
    covered = children_union(start, end, parent)
    ok = np.allclose(covered, [5.0, 0.0, 0.5, 0.0, 0.0])
    RESULTS.append(ok)
    print(f"{'PASS' if ok else 'FAIL'}  spans: union of overlapping children ({covered.tolist()})")


def main() -> int:
    work = os.path.join(HERE, "out", f"selftest-{os.getpid()}")
    try:
        span_checks()
        study_checks(work)
        train_and_predict_checks(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{sum(RESULTS)} of {len(RESULTS)} self-test cases behaved as expected")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
