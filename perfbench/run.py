"""finecert benchmark: closed-loop workloads, end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a finecert checkout; the package is imported from its
``src`` directory. Each run starts fresh worker processes (worker.py) with
BLAS/OpenMP threads pinned to 1. With ``--trace 0`` the last stdout line
holds the end-to-end metrics, with ``--trace 1`` the per-layer metrics;
earlier lines hold the run metadata and a readable table. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import calibrate
import metrics
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
#: Processes set up per untraced run; setup_s is the median of their
#: set-up times, each scaled by the kernel timed before and after it.
SETUP_REPEATS = 9
#: Wall-clock limit of one run, all of its processes included.
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerError(Exception):
    pass


def worker_env(root):
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    env.update({name: "1" for name in THREAD_VARS})
    return env


def launch(root, env, deadline, *args):
    """Run worker.py with ``args`` and return its last stdout line as JSON."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, *args, "--t0", repr(t0)], cwd=root, env=env,
                            stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise WorkerError(f"worker {' '.join(args)} exceeded the run time limit") from None
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(root, env, name, seed, seconds, trace, deadline):
    """One run: the measured worker plus, untraced, SETUP_REPEATS - 1 set-up-only ones."""
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
              "--trace", str(trace)]
    setups, raw = [], []
    repeats = 1 if trace else SETUP_REPEATS
    for repeat in range(repeats):
        only = ("--setup-only",) if repeat < repeats - 1 else ()
        before = calibrate.timed()
        result = launch(root, env, deadline, *common, *only)
        raw.append(result["setup_s"])
        setups.append(calibrate.scale(raw[-1], before, result["calibration_after_s"]))
    if not trace:
        result["metrics"]["setup_s"] = statistics.median(setups)
        result["raw"]["setup_s"] = statistics.median(raw)
    return result


def specs(trace):
    return metrics.per_layer() if trace else metrics.END_TO_END


def table(name, result, trace):
    values = [(metric, result["metrics"][metric], unit) for metric, unit, _ in specs(trace)]
    values.append(("failed_ops_frac", result["failed"] / result["attempted"], "frac"))
    if not trace:
        units = dict(((metric, unit) for metric, unit, _ in metrics.END_TO_END), calibration_ms="ms")
        values += [(f"raw.{metric}", value, units[metric])
                   for metric, value in result["raw"].items()]
    rows = [f"{name}: attempted={result['attempted']} failed={result['failed']}"]
    rows += [f"  {metric:<46} {value:>16.6g} {unit}" for metric, value, unit in values]
    rows += [f"  failure: {message}" for message in result["messages"]]
    return rows


def contract_line(result, trace):
    units = {metric: unit for metric, unit, _ in specs(trace)}
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": result["metrics"][m], "unit": u} for m, u in units.items()},
    })


def self_test(root, env):
    """Check the benchmark itself; returns a list of problems."""
    problems = []
    spec_path = os.path.join(root, "BENCHMARK.json")
    if os.path.isfile(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
        for key, ours in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.per_layer())):
            listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
            if listed != list(ours):
                problems.append(f"BENCHMARK.json {key} differs from metrics.py")
    for name in WORKLOADS:
        found = len(problems)
        deadline = time.perf_counter() + RUN_LIMIT_S
        # one rotation, the first output corrupted: exactly one failure
        result = launch(root, env, deadline, "--workload", name, "--seed", "1", "--seconds", "0",
                        "--min-ops", "1", "--corrupt-op", "0")
        if result["failed"] != 1:
            problems.append(f"{name}: corrupted output gave {result['failed']} failures, not 1")
        # two traced runs of one seed: identical counts
        counts = []
        for _ in range(2):
            traced = launch(root, env, deadline, "--workload", name, "--seed", "1", "--seconds",
                            "0", "--trace", "1")
            if traced["failed"]:
                problems.append(f"{name}: traced run failed: {traced['messages']}")
            counts.append({m: traced["metrics"][m] for m in metrics.EXACT_COUNTS})
        if counts[0] != counts[1]:
            changed = sorted(m for m in counts[0] if counts[0][m] != counts[1][m])
            problems.append(f"{name}: counts differ between runs of one seed: {changed}")
        print(f"self-test {name}: {'ok' if len(problems) == found else 'FAILED'}", flush=True)
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check output checks, count repeatability and BENCHMARK.json")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "finecert", "__init__.py")):
        print(f"run.py: no finecert source at {root}/src; run from a checkout root", file=sys.stderr)
        return 2
    env = worker_env(root)
    # One core for this process and every process it starts, so that the
    # reference kernel and the operations it scales run on the same core.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    calibrate.kernel()  # untimed first run: its code and data into the caches
    try:
        if args.self_test:
            problems = self_test(root, env)
            for problem in problems:
                print(f"FAIL {problem}", file=sys.stderr)
            return 1 if problems else 0
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            deadline = time.perf_counter() + RUN_LIMIT_S
            results[name] = run_workload(root, env, name, args.seed, args.seconds, args.trace,
                                         deadline)
    except WorkerError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print("meta: " + json.dumps(results[names[0]]["meta"]))
    for name in names:
        print("\n".join(table(name, results[name], args.trace)))
    if len(names) == 1:
        print(contract_line(results[names[0]], args.trace))
    else:
        print(json.dumps({name: json.loads(contract_line(r, args.trace))
                          for name, r in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
