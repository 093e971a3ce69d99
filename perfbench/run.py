"""Benchmark for mtgp: the Forrester study, `mtgp train` and `mtgp predict`.

Usage (from the repository root):

    python3 perfbench/run.py --workload study --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1            # all workloads, one after another

Each workload runs in a process of its own, started here with the program's
thread settings cleared (MTGP_NUM_THREADS, OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS, MKL_NUM_THREADS) and ``src`` on its import path. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("study", "train-cli", "predict-cli")
THREAD_VARIABLES = ("MTGP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# a workload must finish well inside the three minutes a run may take
CHILD_TIMEOUT_S = 170


def workload_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # nothing is written into the program's source tree, so every run of a
    # checkout pays the same import cost
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_workload(name: str, seed: int, seconds: int, trace: int) -> tuple:
    """Run one workload in its own process; return (exit code, stdout lines)."""
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out", out]
    with subprocess.Popen(cmd, cwd=ROOT, env=workload_env(), stdout=subprocess.PIPE, text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print(f"workload {name} exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return 1, []
    return proc.returncode, stdout.splitlines()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "mtgp", "cli.py")):
        print(f"no program source at {os.path.join(ROOT, 'src', 'mtgp')}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        code, lines = run_workload(name, args.seed, args.seconds, args.trace)
        if code != 0 or not lines:
            print(f"workload {name} failed (exit {code})", file=sys.stderr)
            return 1
        for line in lines[:-1]:
            print(line)
        results[name] = json.loads(lines[-1])
        if len(names) > 1:
            res = results[name]
            print(f"== {name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
            for metric, m in res["metrics"].items():
                print(f"   {metric:<48} {m['value']:>14.6g} {m['unit']}")
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}:{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
