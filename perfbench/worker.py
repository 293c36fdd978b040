"""One benchmark process: set up a workload, run it closed-loop, print raw results.

run.py starts this in a fresh process per run, from the checkout root,
with BLAS/OpenMP threads pinned and ``src`` on PYTHONPATH. The last stdout
line is a JSON object with the setup time, the operation counts and either
the end-to-end or the per-layer values.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

import calibrate
import metrics
import spans

#: Fewest operations per untraced run, so that ten lie beyond p90.
MIN_OPS = 100
#: Failure messages kept for the report.
MAX_MESSAGES = 5


def cpu_seconds():
    """CPU time of this process plus its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def git_commit(root):
    """Commit of the checkout read from its .git directory, or "unknown"."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip("\n").endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args, root, np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": git_commit(root),
    }


class Run:
    """Closed-loop measurement of one workload: one client, one operation at a time."""

    def __init__(self, workload, tracer=None, corrupt_op=-1):
        self.workload = workload
        self.tracer = tracer
        self.in_process = workload.in_process
        self.corrupt_op = corrupt_op
        self.attempted = 0
        self.messages = []
        self.failed = 0
        self.latencies = {False: [], True: []}  # by traced
        self.cpu = []
        self.calibration = []  # kernel times around untraced end-to-end operations
        self.totals = spans.empty_summary()
        self.first = None  # span summary of the first traced rotation
        self.first_ops = 0
        self.first_stdout_bytes = 0

    def op(self, op, traced):
        wl, tracer = self.workload, self.tracer
        if traced and self.in_process:
            tracer.install()
            tracer.begin_op()
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        try:
            out, error = wl.call(op, traced), None
        except Exception as exc:  # a raising operation is a failed one
            out, error = None, exc
        latency = time.perf_counter() - start
        cpu = cpu_seconds() - cpu0
        summary = None
        if traced:
            if self.in_process:
                summary = tracer.end_op()
                tracer.uninstall()
            elif out is not None and out.spans is not None:
                summary = out.spans
        if self.attempted == self.corrupt_op and out is not None:
            out = wl.corrupt(out)
        self.attempted += 1
        self.latencies[traced].append(latency)
        if not traced:
            self.cpu.append(cpu)
        if self.calibration:
            self.calibration.append(calibrate.timed())
        if error is None:
            try:
                wl.check(op, out)
            except Exception as exc:  # wrong output, or output the check cannot read
                error = exc
        if error is not None:
            self.failed += 1
            if len(self.messages) < MAX_MESSAGES:
                self.messages.append(f"{type(error).__name__}: {error}"[:500])
        return summary, out

    def rotation(self, traced):
        ops = self.workload.rotation()
        first = traced and self.first is None
        summaries = spans.empty_summary()
        for op in ops:
            summary, out = self.op(op, traced)
            if summary is not None:
                spans.merge(summaries, summary)
            if first and not self.in_process and out is not None:
                self.first_stdout_bytes += len(out.stdout)
        if traced:
            spans.merge(self.totals, summaries)
            if first:
                self.first, self.first_ops = summaries, len(ops)

    def measure(self, seconds, min_ops, calibration):
        """Untraced rotations, the kernel timed after each operation.

        ``calibration`` is the kernel's time just before the first operation.
        """
        self.calibration = [calibration]
        start = time.perf_counter()
        while True:
            self.rotation(False)
            if time.perf_counter() - start >= seconds and self.attempted >= min_ops:
                return

    def scaled(self, values):
        """Per-operation ``values`` at the kernel's nominal speed."""
        cal = self.calibration
        return [calibrate.scale(v, a, b) for v, a, b in zip(values, cal, cal[1:])]

    def measure_traced(self, seconds):
        """Alternate untraced and traced rotations, ending on a traced one."""
        start = time.perf_counter()
        while True:
            self.rotation(False)
            self.rotation(True)
            if time.perf_counter() - start >= seconds:
                return


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="launcher's time.perf_counter() just before starting this process")
    parser.add_argument("--min-ops", type=int, default=MIN_OPS)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--corrupt-op", type=int, default=-1,
                        help="corrupt this operation's output before its check (self-test)")
    args = parser.parse_args(argv)
    root = os.getcwd()

    import numpy as np

    import finecert

    src = os.path.join(root, "src")
    if os.path.commonpath([os.path.abspath(finecert.__file__), src]) != src:
        raise SystemExit(f"finecert imported from {finecert.__file__}, not from {src}")
    from workloads import make_workload

    workload = make_workload(args.workload, finecert, args.seed, root)
    in_process = workload.in_process
    tracer = spans.Tracer(finecert) if args.trace and in_process else None
    for op in workload.warm_up_ops:
        workload.check(op, workload.call(op))
    setup_s = time.perf_counter() - args.t0
    calibrate.kernel()  # untimed first run: its code and data into the caches
    calibration = calibrate.timed()
    result = {"setup_s": setup_s, "calibration_after_s": calibration}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    run = Run(workload, tracer, args.corrupt_op)
    if args.trace:
        run.measure_traced(args.seconds)
        result["metrics"] = metrics.layers(
            run.totals, run.first, run.first_ops, run.first_stdout_bytes,
            run.latencies[True], run.latencies[False])
    else:
        run.measure(args.seconds, args.min_ops, calibration)
        usage = resource.getrusage(resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN)
        latencies = run.latencies[False]
        result["metrics"] = metrics.end_to_end(run.scaled(latencies), run.scaled(run.cpu),
                                               usage.ru_maxrss)
        result["raw"] = metrics.end_to_end(latencies, run.cpu, usage.ru_maxrss)
        del result["raw"]["peak_rss_mb"]  # not a time: nothing to scale
        result["raw"]["calibration_ms"] = 1e3 * statistics.median(run.calibration)
    result.update(attempted=run.attempted, failed=run.failed, messages=run.messages,
                  meta=metadata(args, root, np))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
