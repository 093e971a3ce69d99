"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its headline numbers (run with ``pytest -s`` to see them
on success). Criteria with runtime bounds assert wall time as well.
"""

import csv
import json
import time

import numpy as np
import pytest

import mtgp.cli as cli
import mtgp.gp
from conftest import (
    dense_gaussian_conditioning,
    gp_parameter_layout,
    kronecker_joint,
    materialize,
    train_alone,
)
from mtgp import model_io
from mtgp.benchmark import (
    StudyConfig,
    forrester,
    ForresterParams,
    percent_improvement,
    run_study,
)
from mtgp.coregionalization import (
    CoregionalizationTerm,
    MultiTaskKernelSpec,
    assemble_joint_covariance,
)
from mtgp.data import MultiTaskDataset
from mtgp.gp import gp_fit, gp_log_marginal_likelihood
from mtgp.kernels import SQUARED_EXPONENTIAL, ScalarKernelSpec, kernel_matrix
from mtgp.multitask import (
    spec_layout,
    mtgp_fit,
    mtgp_log_marginal_likelihood,
    mtgp_predict,
)
from mtgp.seeding import make_rng
from mtgp.training import TrainConfig, check_gradients


def report(number, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number} ({name}): PASS{suffix}")


def test_criterion_01_single_task_oracle_equivalence():
    started = time.perf_counter()
    worst = 0.0
    for i in range(50):
        rng = make_rng("acc1", i)
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 4))
        dim = int(rng.integers(1, 3))
        kern = ScalarKernelSpec(
            SQUARED_EXPONENTIAL, rng.uniform(0.3, 1.5, dim), float(rng.uniform(0.5, 2.0))
        )
        X = rng.uniform(0, 1, size=(n, dim))
        Y = rng.normal(size=n)
        Xs = rng.uniform(0, 1, size=(m, dim))
        noise = float(rng.uniform(0.05, 0.3))
        model = gp_fit(kern, noise, X, Y)
        pred = mtgp_predict(model, 0, Xs, full_cov=True)
        joint = kernel_matrix(kern, np.vstack([X, Xs]), np.vstack([X, Xs]))
        joint[:n, :n] += (noise + model.jitter) * np.eye(n)
        mean, cov = dense_gaussian_conditioning(joint, n, Y)
        worst = max(
            worst,
            float(np.max(np.abs(pred.mean - mean))),
            float(np.max(np.abs(pred.covariance - cov))),
        )
    elapsed = time.perf_counter() - started
    assert worst < 1e-10
    assert elapsed < 5.0
    report(1, "single-task conditioning oracle", f"max dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_multi_task_oracle_equivalence():
    started = time.perf_counter()
    worst = 0.0
    for i in range(50):
        rng = make_rng("acc2", i)
        D = int(rng.integers(1, 4))
        counts = rng.integers(1, 3, size=D)
        while counts.sum() > 8:
            counts = rng.integers(1, 3, size=D)
        terms = []
        for _ in range(2):
            W = rng.normal(0.0, 0.7, size=(D, 1))
            gamma = rng.uniform(0.0, 0.3, size=D)
            kern = ScalarKernelSpec(
                SQUARED_EXPONENTIAL, rng.uniform(0.3, 1.5, 1), float(rng.uniform(0.5, 2.0))
            )
            terms.append(CoregionalizationTerm(W, gamma, kern))
        spec = MultiTaskKernelSpec(D, tuple(terms))
        dataset = MultiTaskDataset(
            tuple(rng.uniform(0, 1, size=(int(c), 1)) for c in counts),
            tuple(rng.normal(size=int(c)) for c in counts),
        )
        noise = rng.uniform(0.05, 0.3, size=D)
        model = mtgp_fit(spec, noise, dataset, standardize=False)
        task = int(rng.integers(0, D))
        Xs = rng.uniform(0, 1, size=(2, 1))
        pred = mtgp_predict(model, task, Xs, full_cov=True)
        extended = MultiTaskDataset(
            tuple(np.vstack([X, Xs]) if d == task else X for d, X in enumerate(dataset.inputs)),
            tuple(
                np.concatenate([Y, np.zeros(2)]) if d == task else Y
                for d, Y in enumerate(dataset.targets)
            ),
        )
        joint_ext = assemble_joint_covariance(spec, extended)
        offsets = np.cumsum([0] + list(extended.counts))
        train_idx, query_idx = [], []
        for d in range(D):
            block = np.arange(offsets[d], offsets[d + 1])
            if d == task:
                train_idx.extend(block[: dataset.counts[d]])
                query_idx.extend(block[dataset.counts[d] :])
            else:
                train_idx.extend(block)
        order = np.asarray(train_idx + query_idx)
        joint = joint_ext[np.ix_(order, order)]
        ntot = dataset.total_count
        joint[:ntot, :ntot] += np.diag(noise[dataset.task_indices()]) + model.jitter * np.eye(ntot)
        mean, cov = dense_gaussian_conditioning(joint, ntot, dataset.stacked_targets())
        worst = max(
            worst,
            float(np.max(np.abs(pred.mean - mean))),
            float(np.max(np.abs(pred.covariance - cov))),
        )
    elapsed = time.perf_counter() - started
    assert worst < 1e-10
    assert elapsed < 10.0
    report(2, "multi-task conditioning oracle", f"max dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_kronecker_identity():
    worst = 0.0
    for i in range(20):
        rng = make_rng("acc3", i)
        X = rng.uniform(0, 1, size=(4, 1))
        terms = tuple(
            CoregionalizationTerm(
                rng.normal(size=(2, 1)),
                rng.uniform(0.0, 0.3, size=2),
                ScalarKernelSpec(
                    SQUARED_EXPONENTIAL, rng.uniform(0.3, 1.5, 1), float(rng.uniform(0.5, 2.0))
                ),
            )
            for _ in range(2)
        )
        spec = MultiTaskKernelSpec(2, terms)
        dataset = MultiTaskDataset((X, X), (np.zeros(4), np.zeros(4)))
        assembled = assemble_joint_covariance(spec, dataset)
        worst = max(worst, float(np.max(np.abs(assembled - kronecker_joint(spec, X)))))
    assert worst < 1e-12
    report(3, "Kronecker identity on isotopic data", f"max dev {worst:.2e}")


def test_criterion_04_block_diagonal_equivalence():
    worst = 0.0
    for i in range(20):
        rng = make_rng("acc4", i)
        sv = float(rng.uniform(0.5, 2.0))
        noise_val = float(rng.uniform(0.05, 0.3))
        kerns = [
            ScalarKernelSpec(SQUARED_EXPONENTIAL, rng.uniform(0.3, 1.2, 1), sv)
            for _ in range(2)
        ]
        terms = []
        for d in range(2):
            W = np.zeros((2, 1))
            W[d, 0] = 1.0
            terms.append(CoregionalizationTerm(W, np.zeros(2), kerns[d]))
        spec = MultiTaskKernelSpec(2, tuple(terms))
        counts = rng.integers(2, 5, size=2)
        dataset = MultiTaskDataset(
            tuple(rng.uniform(0, 1, (int(c), 1)) for c in counts),
            tuple(rng.normal(size=int(c)) for c in counts),
        )
        model = mtgp_fit(spec, [noise_val, noise_val], dataset, standardize=False)
        Xs = rng.uniform(0, 1, size=(3, 1))
        for d in range(2):
            joint_pred = mtgp_predict(model, d, Xs)
            solo = mtgp_predict(gp_fit(kerns[d], noise_val, *dataset.single_task(d)), 0, Xs)
            worst = max(
                worst,
                float(np.max(np.abs(joint_pred.mean - solo.mean))),
                float(np.max(np.abs(joint_pred.variance - solo.variance))),
            )
    assert worst < 1e-8
    report(4, "block-diagonal autokrigeability", f"max dev {worst:.2e}")


def test_criterion_05_gradient_correctness():
    started = time.perf_counter()
    worst_gp = 0.0
    for i in range(20):
        rng = make_rng("acc5-gp", i)
        dim = int(rng.integers(1, 3))
        X = rng.uniform(0, 1, size=(int(rng.integers(3, 7)), dim))
        Y = rng.normal(size=X.shape[0])
        layout = gp_parameter_layout(ScalarKernelSpec(SQUARED_EXPONENTIAL, np.ones(dim), 1.0), 1.0)

        def objective(vec):
            spec, noise = materialize(layout, vec)
            return gp_log_marginal_likelihood(spec.terms[0].base_kernel, noise[0], X, Y)

        worst_gp = max(worst_gp, check_gradients(objective, rng.normal(0, 0.5, size=dim + 2)))

    worst_mt = 0.0
    for i in range(20):
        rng = make_rng("acc5-mt", i)
        D = 2
        terms = tuple(
            CoregionalizationTerm(
                rng.normal(0, 0.7, size=(D, 1)),
                rng.uniform(0.05, 0.3, size=D),
                ScalarKernelSpec(
                    SQUARED_EXPONENTIAL, rng.uniform(0.3, 1.5, 1), float(rng.uniform(0.5, 2.0))
                ),
            )
            for _ in range(2)
        )
        spec = MultiTaskKernelSpec(D, terms)
        dataset = MultiTaskDataset(
            (rng.uniform(0, 1, (3, 1)), rng.uniform(0, 1, (3, 1))),
            (rng.normal(size=3), rng.normal(size=3)),
        )
        mt_layout = spec_layout(spec, rng.uniform(0.05, 0.3, size=D), dataset)

        def objective(vec):
            s, nz = materialize(mt_layout, vec)
            return mtgp_log_marginal_likelihood(s, nz, dataset)

        worst_mt = max(worst_mt, check_gradients(objective, mt_layout.initial_vector()))
    elapsed = time.perf_counter() - started
    assert worst_gp < 1e-4
    assert worst_mt < 1e-4
    assert elapsed < 30.0
    report(
        5,
        "analytic gradients vs finite differences",
        f"gp {worst_gp:.2e}, mtgp {worst_mt:.2e}, {elapsed:.1f}s",
    )


def test_criterion_06_improvement_arithmetic():
    rows = [
        (4.44, 3.68, 17.1),
        (1.47, 1.15, 21.77),
        (1.47, 0.84, 42.86),
        (4.44, 4.08, 8.10),
    ]
    for gp_rmse, mtgp_rmse, expected in rows:
        got = percent_improvement(gp_rmse, mtgp_rmse)
        assert got == pytest.approx(expected, abs=0.05)
    report(6, "reported percent-improvement arithmetic", f"{len(rows)} rows within 0.05")


def test_criterion_07_trend_reproduction():
    started = time.perf_counter()
    study = StudyConfig(
        correlations=(0.89, 0.53, 0.33),
        size_grid=((5, 5), (5, 20), (10, 10)),
        replicates=20,
        seed=0,
    )
    # the training `mtgp benchmark` runs when no config sets it
    _, config = cli._parse_study_config(cli.build_parser().parse_args(["benchmark", "--out", "-"]))
    result = run_study(study, config)
    elapsed = time.perf_counter() - started

    agg = {
        (a["correlation_target"], a["n_primary"], a["n_auxiliary"]): a
        for a in result.aggregates
    }
    for target in study.correlations:
        cell = next(a for a in result.aggregates if a["correlation_target"] == target)
        assert abs(cell["correlation_achieved"] - target) <= 0.03

    # (a) high-correlation improvement positive and above low-correlation
    for n1, n2 in study.size_grid:
        high = agg[(0.89, n1, n2)]["improvement"]
        low = agg[(0.33, n1, n2)]["improvement"]
        assert high > 0.0, f"({n1},{n2}): improvement at r=0.89 is {high:.2f}"
        assert high > low, f"({n1},{n2}): r=0.89 {high:.2f} <= r=0.33 {low:.2f}"

    # (b) MTGP at least matches the GP in >= 80% of high-correlation replicates
    rows89 = [r for r in result.rows if r["correlation_target"] == 0.89]
    frac = sum(1 for r in rows89 if r["mtgp_rmse"] <= r["gp_rmse"]) / len(rows89)
    assert frac >= 0.80, f"mtgp<=gp in only {frac:.2%} of replicates"

    # (c) more auxiliary data does not hurt at high correlation
    assert agg[(0.89, 5, 20)]["improvement"] >= agg[(0.89, 5, 5)]["improvement"]

    assert elapsed < 600.0
    detail = ", ".join(
        f"({n1},{n2}): r.89 {agg[(0.89, n1, n2)]['improvement']:+.1f}% vs r.33 "
        f"{agg[(0.33, n1, n2)]['improvement']:+.1f}%"
        for n1, n2 in study.size_grid
    )
    report(7, "correlation/data-availability trends", f"{detail}; frac {frac:.2f}; {elapsed:.0f}s")


def test_criterion_08_forrester_values():
    import math

    grid = np.linspace(0.0, 1.0, 1000)
    params = ForresterParams(1.0, 0.0)
    ours = forrester(grid, params)
    worst = 0.0
    for i, x in enumerate(grid):
        u = 6.0 * x - 2.0
        expected = u * u * math.sin(12.0 * x - 4.0)
        worst = max(worst, abs(ours[i] - expected))
    assert worst < 1e-12
    assert forrester(0.5) == pytest.approx(0.90930, abs=1e-5)
    assert forrester(0.0) == pytest.approx(3.02720, abs=1e-5)
    report(8, "Forrester closed form", f"max dev {worst:.2e} over 1000 points")


def test_criterion_09_determinism_and_round_trip(tmp_path):
    rng = make_rng("acc9", 0)
    data_path = tmp_path / "data.csv"
    with open(data_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x1", "task", "y"])
        xs0 = rng.uniform(0, 1, size=7)
        xs1 = rng.uniform(0, 1, size=6)
        for x in xs0:
            writer.writerow([repr(float(x)), 0, repr(forrester(float(x)))])
        for x in xs1:
            writer.writerow([repr(float(x)), 1, repr(0.5 * forrester(float(x)) + 1.0)])
    config_path = tmp_path / "config.json"
    config = {"family": "mtgp-slfm", "max_iterations": 60, "num_restarts": 2, "seed": 0}
    config_path.write_text(json.dumps(config), encoding="utf-8")
    query_path = tmp_path / "query.csv"
    with open(query_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x1", "task"])
        for x in np.linspace(0.05, 0.95, 9):
            writer.writerow([repr(float(x)), 0])

    outputs = []
    for run in ("a", "b"):
        out_dir = tmp_path / run
        assert cli.main(
            ["train", "--data", str(data_path), "--config", str(config_path), "--out", str(out_dir)]
        ) == 0
        preds = tmp_path / f"preds_{run}.csv"
        assert cli.main(
            ["predict", "--model", str(out_dir / "model.json"), "--data", str(query_path), "--out", str(preds)]
        ) == 0
        outputs.append((out_dir, preds))

    (dir_a, preds_a), (dir_b, preds_b) = outputs
    assert (dir_a / "model.json").read_bytes() == (dir_b / "model.json").read_bytes()
    assert preds_a.read_bytes() == preds_b.read_bytes()

    # in-process training with the same configuration and data
    from mtgp.data import read_task_csv

    dataset, _ = read_task_csv(data_path)
    model = train_alone(
        dataset,
        TrainConfig(max_iterations=60, num_restarts=2, seed=0),
    )
    grid = np.linspace(0.05, 0.95, 9).reshape(-1, 1)
    expected = mtgp_predict(model, 0, grid)
    with open(preds_a, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    got_mean = np.asarray([float(r["mean"]) for r in rows])
    got_std = np.asarray([float(r["stddev"]) for r in rows])
    assert np.max(np.abs(got_mean - expected.mean)) < 1e-10
    assert np.max(np.abs(got_std - expected.stddev)) < 1e-10
    report(9, "CLI round trip and determinism", "byte-identical reruns; 1e-10 round trip")


def test_criterion_10_self_check_and_fault_injection(monkeypatch, capsys):
    assert cli.main(["check", "--seed", "0"]) == 0
    capsys.readouterr()

    original = mtgp.gp.gp_log_marginal_likelihood

    def flipped(*args, **kwargs):
        value, grad = original(*args, **kwargs)
        grad = np.asarray(grad).copy()
        grad[0] = -grad[0]
        return value, grad

    monkeypatch.setattr(mtgp.gp, "gp_log_marginal_likelihood", flipped)
    assert cli.main(["check", "--seed", "0"]) == 1
    monkeypatch.undo()
    capsys.readouterr()
    report(10, "self-check gate with fault injection", "exit 0 clean, exit 1 perturbed")
