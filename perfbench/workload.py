"""One benchmark workload in one process: set up, time rounds, check, report.

Started by ``run.py`` with a cleaned thread environment and ``src`` on the
path. Every operation is one in-process call of ``mtgp.cli.main`` with the
argv a user would type. A round is a fixed list of operations; the run
repeats whole rounds until its time budget is used (at least one round).
"""

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import inputs
from tracer import ESCALATED, FAILED, ITERATIONS, OBJECTIVE, POINTS, ROWS, Tracer

SETUP_REPEATS = 3
IMPORT_REPEATS = 5
# rows of each predict output compared against dense conditioning
CHECKED_ROWS = 20
SHORT_TRAIN = {"max_iterations": 100, "num_restarts": 1}
WARM_TRAIN = {"max_iterations": 5, "num_restarts": 1}


class Op:
    def __init__(self, argv, **info):
        self.argv = argv
        self.info = info


def call_cli(argv) -> tuple:
    """Run ``mtgp.cli.main(argv)``; return (exit code or error, wall s, cpu s)."""
    from mtgp import cli

    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a traceback escaping the CLI is a failed operation
            rc = f"{type(exc).__name__}: {exc}"
        return rc, time.perf_counter() - wall, time.process_time() - cpu


def setup_call(argv):
    rc, _, _ = call_cli(argv)
    if rc != 0:
        raise RuntimeError(f"set-up command {argv} failed: {rc}")


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """Inputs made in ``setup``; ``round_ops(r)`` lists round r's operations;
    ``check`` verifies one finished operation and ``finish`` the whole run,
    each returning failure messages; ``quality`` gives the quality figures."""

    def finish(self) -> list:
        return []


class Study(Workload):
    """`mtgp benchmark` over criterion 7's grid, one study seed per round."""

    correlations = [float(v) for v in inputs.STUDY_CORRELATIONS.split(",")]
    sizes = [tuple(int(n) for n in p.split(",")) for p in inputs.STUDY_SIZES.split(";")]

    def __init__(self, seed: int, work: str):
        self.seed, self.work = seed, work
        self.rows = []

    def setup(self):
        warm = os.path.join(self.work, "warm")
        setup_call(["benchmark", "--out", warm, "--correlations", "0.89", "--sizes", "5,5",
                    "--replicates", "1", "--seed", str(inputs.derived_seed(self.seed, "warm"))])
        shutil.rmtree(warm)

    def round_ops(self, r: int) -> list:
        out = os.path.join(self.work, f"study-{r}")
        study_seed = inputs.derived_seed(self.seed, "study", r)
        return [Op(["benchmark", "--out", out, "--correlations", inputs.STUDY_CORRELATIONS,
                    "--sizes", inputs.STUDY_SIZES, "--replicates", str(inputs.STUDY_REPLICATES),
                    "--seed", str(study_seed)], out=out)]

    def check(self, op: Op, r: int) -> list:
        study = checks.load_study(op.info["out"])
        shutil.rmtree(op.info["out"])
        self.rows.extend(study["rows"])
        return checks.check_study(study, self.correlations, self.sizes, inputs.STUDY_REPLICATES)

    def finish(self) -> list:
        return checks.check_headline(self.rows, max(self.correlations))

    def quality(self) -> dict:
        return {
            "quality.mtgp_rmse": float(np.mean([float(r["mtgp_rmse"]) for r in self.rows])),
            "quality.gp_rmse": float(np.mean([float(r["gp_rmse"]) for r in self.rows])),
        }


class TrainCli(Workload):
    """`mtgp train` on generated 3-task, 3-input multi-fidelity data."""

    DATASETS = 2

    def __init__(self, seed: int, work: str):
        self.seed, self.work = seed, work
        self.quality_values = {}

    def setup(self):
        self.datasets = [
            inputs.make_dataset(self.seed, i, os.path.join(self.work, f"data{i}"))
            for i in range(self.DATASETS)
        ]
        for family, kernel in inputs.TRAIN_CALLS:
            inputs.write_run_config(os.path.join(self.work, f"{family}.json"), family, kernel)
            warm = os.path.join(self.work, f"warm-{family}.json")
            inputs.write_run_config(warm, family, kernel, **WARM_TRAIN)
            ds = self.datasets[0]
            data = ds["task0_csv"] if family == "gp" else ds["train_csv"]
            setup_call(["train", "--data", data, "--config", warm,
                        "--out", os.path.join(self.work, "warm")])

    def round_ops(self, r: int) -> list:
        ops = []
        for i, ds in enumerate(self.datasets):
            for family, _ in inputs.TRAIN_CALLS:
                out = os.path.join(ds["dir"], family)
                data = ds["task0_csv"] if family == "gp" else ds["train_csv"]
                ops.append(Op(["train", "--data", data,
                               "--config", os.path.join(self.work, f"{family}.json"),
                               "--out", out], out=out, family=family, dataset=ds))
        return ops

    def check(self, op: Op, r: int) -> list:
        out, family, ds = op.info["out"], op.info["family"], op.info["dataset"]
        metrics = checks.load_json(os.path.join(out, "metrics.json"))
        failures = checks.check_train(checks.load_json(os.path.join(out, "model.json")), metrics)
        if r == 0:
            pred_path = os.path.join(out, "held_out_predictions.csv")
            setup_call(["predict", "--model", os.path.join(out, "model.json"),
                        "--data", ds["held_out_csv"], "--out", pred_path])
            mean = checks.parse_rows(checks.read_csv(pred_path))["mean"]
            rmse = float(np.sqrt(np.mean((mean - ds["y_held"]) ** 2)))
            if family == "gp":
                # not asked of the baseline: on 8 task-0 rows in 3-D its
                # likelihood optimum can ignore the dominant input
                self.quality_values.setdefault("quality.gp_rmse", []).append(rmse)
            else:
                failures += checks.check_beats_constant(mean, ds["y_held"], ds["y0_train"], family)
                self.quality_values.setdefault("quality.mtgp_rmse", []).append(rmse)
                lml = float(metrics["log_marginal_likelihood"])
                self.quality_values.setdefault("quality.train_lml", []).append(lml)
        return failures

    def quality(self) -> dict:
        return {k: float(np.mean(v)) for k, v in self.quality_values.items()}


class PredictCli(Workload):
    """`mtgp predict` with small and large query files against trained models."""

    DATASETS = 2

    def __init__(self, seed: int, work: str):
        self.seed, self.work = seed, work
        self.digests = {}
        self.dense = {}
        self.rmse = {"mtgp": [], "gp": []}
        self.lml = []

    def setup(self):
        self.models = []
        for i in range(self.DATASETS):
            ds = inputs.make_dataset(self.seed, i, os.path.join(self.work, f"data{i}"))
            queries = {
                n: inputs.make_queries(self.seed, i, ds["dir"], n) for n in (1, 3)
            }
            for family, kernel in inputs.TRAIN_CALLS:
                config = os.path.join(ds["dir"], f"{family}.json")
                inputs.write_run_config(config, family, kernel, **SHORT_TRAIN)
                out = os.path.join(ds["dir"], family)
                data = ds["task0_csv"] if family == "gp" else ds["train_csv"]
                setup_call(["train", "--data", data, "--config", config, "--out", out,
                            "--seed", str(inputs.derived_seed(self.seed, "train", i))])
                if family != "gp":
                    self.lml.append(checks.load_json(os.path.join(out, "metrics.json"))["log_marginal_likelihood"])
                self.models.append((family, os.path.join(out, "model.json"),
                                    queries[1 if family == "gp" else 3], ds))

    def round_ops(self, r: int) -> list:
        ops = []
        for m, (family, model, queries, ds) in enumerate(self.models):
            for j, query in enumerate(queries):
                out = os.path.join(ds["dir"], f"pred-{family}-{j}.csv")
                ops.append(Op(["predict", "--model", model, "--data", query, "--out", out],
                              out=out, key=(m, j), family=family, query=query, model=model,
                              last=j == len(queries) - 1))
        return ops

    def check(self, op: Op, r: int) -> list:
        key = op.info["key"]
        if r > 0:
            if file_digest(op.info["out"]) != self.digests[key]:
                return [f"predict: output of {op.argv} differs from the first round's"]
            return []
        self.digests[key] = file_digest(op.info["out"])
        pred = checks.parse_rows(checks.read_csv(op.info["out"]))
        query = checks.parse_rows(checks.read_csv(op.info["query"]))
        model = self.dense.get(op.info["model"])
        if model is None:
            model = self.dense[op.info["model"]] = checks.DenseModel(checks.load_json(op.info["model"]))
        rng = inputs.rng_for(self.seed, "check", *key)
        sample = rng.choice(query["task"].size, size=min(CHECKED_ROWS, query["task"].size), replace=False)
        failures = checks.check_predictions(pred, query, model, sample)
        if op.info["last"] and not failures:
            task0 = pred["task"] == 0
            truth = inputs.truth(pred["X"][task0], 0)
            rmse = float(np.sqrt(np.mean((pred["mean"][task0] - truth) ** 2)))
            self.rmse["gp" if op.info["family"] == "gp" else "mtgp"].append(rmse)
        return failures

    def quality(self) -> dict:
        return {
            "quality.mtgp_rmse": float(np.mean(self.rmse["mtgp"])),
            "quality.gp_rmse": float(np.mean(self.rmse["gp"])),
            "quality.train_lml": float(np.mean(self.lml)),
        }


WORKLOADS = {"study": Study, "train-cli": TrainCli, "predict-cli": PredictCli}


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


class Run:
    def __init__(self, workload: Workload):
        self.workload = workload
        self.next_round = 0
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.errors = []

    def rounds(self, budget_s: float) -> list:
        """Whole rounds until the budget is closest to used; per-round records."""
        records = []
        started = time.perf_counter()
        while True:
            r = self.next_round
            self.next_round += 1
            latencies, cpu = [], 0.0
            for op in self.workload.round_ops(r):
                self.attempted += 1
                gc.collect()  # every operation starts without the last one's garbage
                rc, wall, cpu_s = call_cli(op.argv)
                if rc != 0:
                    self.failed += 1
                    self.errors.append(f"{op.argv}: {rc}")
                    continue
                latencies.append(wall)
                cpu += cpu_s
                try:
                    self.failures += self.workload.check(op, r)
                except (OSError, LookupError, ValueError) as exc:
                    self.failures.append(f"{op.argv}: output missing or unreadable: {exc!r}")
            records.append({"wall": sum(latencies), "cpu": cpu, "latencies": latencies})
            elapsed = time.perf_counter() - started
            mean_round = elapsed / len(records)
            if budget_s - elapsed <= 0.5 * mean_round:
                return records


def median_setup(workload_cls, seed: int, work_root: str) -> tuple:
    """Set up SETUP_REPEATS times from scratch; keep the last, report the median."""
    times = []
    for k in range(SETUP_REPEATS):
        work = os.path.join(work_root, f"work{k}")
        if k:
            shutil.rmtree(os.path.join(work_root, f"work{k - 1}"))
        started = time.perf_counter()
        wl = workload_cls(seed, work)
        wl.setup()
        times.append(time.perf_counter() - started)
    return wl, statistics.median(times)


def import_seconds(repeats: int = IMPORT_REPEATS) -> float:
    """Median time to import the CLI in a fresh interpreter, as each `mtgp` call does."""
    code = ("import time; t = time.perf_counter(); import mtgp.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, timeout=60)
        samples.append(float(done.stdout.strip()))
    return statistics.median(samples)


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in
                       ("MTGP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


def end_to_end(records: list, setup_s: float) -> dict:
    latencies = [x for rec in records for x in rec["latencies"]]
    total = sum(rec["wall"] for rec in records)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(rec["wall"] for rec in records), "s"),
        "ops_per_s": (len(latencies) / total, "1/s"),
        "op_ms_p50": (1e3 * statistics.median(latencies), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(summary: dict, traced_rounds: int, plain: list, traced: list) -> dict:
    def entry(label):
        return summary.get(label, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    def per_call(label, field, scale):
        e = entry(label)
        return scale * e[field] / e["calls"] if e["calls"] else 0.0

    def per_amount(label, field, amount, scale):
        e = entry(label)
        return scale * e[field] / e[amount] if e.get(amount) else 0.0

    def per_round(label, field="calls"):
        return entry(label).get(field, 0.0) / traced_rounds

    plain_wall = statistics.median(rec["wall"] for rec in plain)
    traced_wall = statistics.median(rec["wall"] for rec in traced)
    return {
        "training.train_mtgp.ms": (per_call("training.train_mtgp", "total_s", 1e3), "ms"),
        "training.train_gp.ms": (per_call("training.train_gp", "total_s", 1e3), "ms"),
        "training.objective.calls": (per_round(OBJECTIVE), "count"),
        "training.mtgp_materialize.self_us": (per_call("training.mtgp_materialize", "self_s", 1e6), "us"),
        "training.adam_maximize.self_us_per_iter": (
            per_amount("training.adam_maximize", "self_s", ITERATIONS, 1e6), "us/iter"),
        "training.restarts_failed": (per_round("training.adam_maximize", FAILED), "count"),
        "multitask.mtgp_log_marginal_likelihood.self_us": (
            per_call("multitask.mtgp_log_marginal_likelihood", "self_s", 1e6), "us"),
        "multitask.mtgp_fit.ms": (per_call("multitask.mtgp_fit", "total_s", 1e3), "ms"),
        "multitask.mtgp_predict.us_per_point": (
            per_amount("multitask.mtgp_predict", "total_s", POINTS, 1e6), "us/point"),
        "gp.gp_log_marginal_likelihood.self_us": (
            per_call("gp.gp_log_marginal_likelihood", "self_s", 1e6), "us"),
        "gp.gp_fit.ms": (per_call("gp.gp_fit", "total_s", 1e3), "ms"),
        "gp.gp_predict.us_per_point": (per_amount("gp.gp_predict", "total_s", POINTS, 1e6), "us/point"),
        "coregionalization.joint_covariance_parts.self_us": (
            per_call("coregionalization.joint_covariance_parts", "self_s", 1e6), "us"),
        "coregionalization.build_B.calls": (per_round("coregionalization.build_B"), "count"),
        "kernels.kernel_matrix.self_us": (per_call("kernels.kernel_matrix", "self_s", 1e6), "us"),
        "kernels.kernel_matrix.calls": (per_round("kernels.kernel_matrix"), "count"),
        "kernels.kernel_matrix_grad.self_us": (per_call("kernels.kernel_matrix_grad", "self_s", 1e6), "us"),
        "linalg.cholesky_with_jitter.self_us": (
            per_call("linalg.cholesky_with_jitter", "self_s", 1e6), "us"),
        "linalg.cholesky_with_jitter.calls": (per_round("linalg.cholesky_with_jitter"), "count"),
        "linalg.jitter_escalations": (per_round("linalg.cholesky_with_jitter", ESCALATED), "count"),
        "linalg.chol_solve.self_us": (per_call("linalg.chol_solve", "self_s", 1e6), "us"),
        "linalg.tri_solve.self_us": (per_call("linalg.tri_solve", "self_s", 1e6), "us"),
        "data.read_task_csv.ms": (per_call("data.read_task_csv", "total_s", 1e3), "ms"),
        "data.read_query_csv.us_per_row": (per_amount("data.read_query_csv", "total_s", ROWS, 1e6), "us/row"),
        "model_io.save_model.ms": (per_call("model_io.save_model", "total_s", 1e3), "ms"),
        "model_io.load_model.self_ms": (per_call("model_io.load_model", "self_s", 1e3), "ms"),
        "cli.cmd_predict.self_us_per_row": (
            1e6 * entry("cli.cmd_predict")["self_s"] / entry("data.read_query_csv")[ROWS]
            if entry("data.read_query_csv").get(ROWS) else 0.0, "us/row"),
        "cli.cmd_benchmark.self_ms": (per_call("cli.cmd_benchmark", "self_s", 1e3), "ms"),
        "benchmark.calibrate_auxiliary.ms": (per_call("benchmark.calibrate_auxiliary", "total_s", 1e3), "ms"),
        "benchmark.run_study.self_ms": (per_call("benchmark.run_study", "self_s", 1e3), "ms"),
        "run.cpu_s": (statistics.median(rec["cpu"] for rec in plain), "s"),
        "run.wall_s": (plain_wall, "s"),
        "trace.overhead_s": (traced_wall - plain_wall, "s"),
    }


QUALITY_UNITS = {"quality.mtgp_rmse": "rmse", "quality.gp_rmse": "rmse", "quality.train_lml": "nats"}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True, help="directory for trace files and scratch space")
    args = p.parse_args(argv)

    import_s = import_seconds()
    import mtgp  # noqa: F401  (the in-process import stays out of the timed set-ups)

    work_root = os.path.join(args.out, f"work-{args.workload}-{os.getpid()}")
    workload, setup_rest = median_setup(WORKLOADS[args.workload], args.seed, work_root)
    run = Run(workload)
    tracer = None
    if args.trace:
        plain = run.rounds(args.seconds / 2.0)
        tracer = Tracer()
        tracer.install({name: mod for name, mod in sys.modules.items()
                        if name == "mtgp" or name.startswith("mtgp.")})
        try:
            traced = run.rounds(args.seconds / 2.0)
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        metrics = per_layer(summary, len(traced), plain, traced)
        metrics.update({k: (v, QUALITY_UNITS[k]) for k, v in workload.quality().items()})
        for k, unit in QUALITY_UNITS.items():
            metrics.setdefault(k, (0.0, unit))
        records = plain + traced
    else:
        records = run.rounds(args.seconds)
        metrics = end_to_end(records, import_s + setup_rest)
    run.failures += workload.finish()
    shutil.rmtree(work_root, ignore_errors=True)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "rounds": len(records),
        "round_wall_s": [rec["wall"] for rec in records],
        "round_cpu_s": [rec["cpu"] for rec in records],
        "op_latencies_s": [rec["latencies"] for rec in records],
        "operations": sum(len(rec["latencies"]) for rec in records),
        "import_s": import_s,
        "setup_without_import_s": setup_rest,
        "quality": workload.quality(),
        "check_failures": run.failures[:20],
        "operation_errors": run.errors[:20],
    }
    if tracer is not None:
        report["absent_functions"] = tracer.absent
        report["spans"] = len(tracer.start)
        report["traced_rounds"] = len(traced)
        np.savez_compressed(os.path.join(args.out, f"trace-{args.workload}.npz"),
                            labels=np.array(tracer.labels), **tracer.arrays())
        with open(os.path.join(args.out, f"layers-{args.workload}.json"), "w", encoding="utf-8") as fh:
            json.dump({"report": report, "summary": summary,
                       "metrics": {k: v for k, (v, _) in metrics.items()}}, fh, indent=1, sort_keys=True)
    for msg in run.failures[:20] + run.errors[:20]:
        print(msg, file=sys.stderr)
    print("report " + json.dumps(report, sort_keys=True))
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
