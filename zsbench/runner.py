"""Runs one workload for one seed and reports its metrics.

Untraced run (``--trace 0``): set-up is timed in fresh child processes, then
ops run back to back until their summed time reaches ``--seconds``; each op's
output is checked outside its timing.  Traced run (``--trace 1``): every
input runs twice, once untraced and once under the span wrappers, in
alternating order, until both halves together reach ``--seconds``.
"""

from __future__ import annotations

import collections
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import mpmath
import numpy as np

from . import layers
from .spans import Instrumentation, Tracer
from .workloads import WORKLOADS

SETUP_REPS = 5

# The hosts this runs on change speed by up to half within seconds (other
# tenants share the cores), which moves a run's raw median by 25% or more.
# Each timing is therefore scaled by a fixed reference kernel timed right
# before and right after it: a scaled time is what the op would take on a
# host where the kernel takes REF_NOMINAL_S.  Raw times are kept in the
# result file.
REF_NOMINAL_S = 0.0125

# (metric, unit, better) printed by the untraced run.  Throughput and the
# solved share are not here: on toy-separate both follow the seed's mix of
# certified (~0.5 s) and refused (~0.1 s) runs, whose binomial spread across
# seeds exceeds any bound they could be given; the traced run reports them.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("op_p50_s", "s", "lower"),
    ("op_p90_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# (metric, unit, better) the traced run adds to ``layers.METRICS``
RUN_METRICS = [
    ("trace.ops_per_s", "1/s", "higher"),
    ("untraced.ops_per_s", "1/s", "higher"),
    ("trace.overhead_frac", "fraction", "lower"),
    ("verdict.solved_frac", "fraction", "higher"),
    ("verdict.failed_frac", "fraction", "lower"),
]
PER_LAYER = layers.METRICS + RUN_METRICS


class Tally:
    """Per-op times, verdicts and failures of one run.

    ``refs[i]`` and ``refs[i + 1]`` are the reference kernel times around
    op ``i`` (untraced runs only).

    ``crashes`` are ops that raised an error other than ``ZerosepError``;
    ``wrong`` are ops whose output failed its check; ``shortfalls`` are ops
    whose output passed its check but fell short of what the workload
    expects of its verdict.  All three count as failed ops; only a wrong
    output makes the run incorrect.
    """

    def __init__(self):
        self.times: list[float] = []
        self.refs: list[float] = []
        self.verdicts: collections.Counter = collections.Counter()
        self.solved = 0
        self.crashes: list[str] = []
        self.wrong: list[str] = []
        self.shortfalls: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.times)

    @property
    def failed(self) -> int:
        return len(self.crashes) + len(self.wrong) + len(self.shortfalls)

    def merge(self, other: "Tally") -> None:
        self.times += other.times
        self.verdicts.update(other.verdicts)
        self.solved += other.solved
        self.crashes += other.crashes
        self.wrong += other.wrong
        self.shortfalls += other.shortfalls


def timed_op(workload, inp, tally: Tally, tracer: Tracer | None = None,
             op_id: int = 0) -> float:
    """Run one op, check it, and record it; returns the op's seconds."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = workload.op(inp)
        else:
            out = tracer.run_op(op_id, workload.op, inp)
        dt = time.perf_counter() - t0
    except Exception as exc:  # any non-zerosep error is a failed op
        dt = time.perf_counter() - t0
        tally.times.append(dt)
        tally.verdicts[type(exc).__name__] += 1
        tally.crashes.append(f"{type(exc).__name__}: {exc}")
        traceback.print_exc(file=sys.stderr)
        return dt
    tally.times.append(dt)
    err = workload.check(out)
    workload.cleanup(out)
    tally.verdicts[out.verdict] += 1
    if err is not None:
        tally.wrong.append(f"{out.verdict}: {err}")
    elif out.shortfall is not None:
        tally.shortfalls.append(f"{out.verdict}: {out.shortfall}")
    elif out.solved:
        tally.solved += 1
    return dt


def reference_kernel() -> float:
    """Seconds for a fixed mix of interpreter, big-integer and small-array
    numpy work, the same kinds of work zerosep does."""
    t0 = time.perf_counter()
    x = 3 ** 200
    acc = 0
    for i in range(3000):
        acc = (acc * x + i) % (x + 12345)
    a = np.arange(1.0, 2049.0)
    for _ in range(80):
        b = np.exp(-1j * a * 0.37) * a ** -1.01
        complex(np.sum(np.log1p(-b)))
    return time.perf_counter() - t0


def run_untraced(workload, seconds: float) -> Tally:
    tally = Tally()
    tally.refs.append(reference_kernel())
    busy = 0.0
    for inp in workload.inputs():
        if busy >= seconds:
            break
        busy += timed_op(workload, inp, tally)
        tally.refs.append(reference_kernel())
    return tally


def scaled(seconds: float, ref_before: float, ref_after: float) -> float:
    return seconds * REF_NOMINAL_S / (0.5 * (ref_before + ref_after))


def scaled_op_times(tally: Tally) -> list[float]:
    return [scaled(t, tally.refs[i], tally.refs[i + 1])
            for i, t in enumerate(tally.times)]


def run_traced(workload, seconds: float, tracer: Tracer) -> tuple[Tally, Tally]:
    """Each input once untraced and once traced, alternating which goes
    first so cache warmth favours neither side."""
    plain, traced = Tally(), Tally()
    for i, inp in enumerate(workload.inputs()):
        if sum(plain.times) + sum(traced.times) >= seconds:
            break
        for use_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if use_trace:
                with Instrumentation(tracer, layers.TARGETS):
                    timed_op(workload, inp, traced, tracer, op_id=i)
            else:
                timed_op(workload, inp, plain)
    return plain, traced


def percentile(values: list[float], q: int) -> float:
    """q-th percentile, inclusive method (exact order statistics at the ends)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def child_setup_seconds(run_py: str, workload: str, seed: int) -> tuple[float, float]:
    """Wall time, raw and scaled, of a fresh process that imports, builds,
    sieves and runs the warm-up op, then exits."""
    ref_before = reference_kernel()
    t0 = time.perf_counter()
    subprocess.run([sys.executable, run_py, "--workload", workload,
                    "--seed", str(seed), "--setup-only"],
                   check=True, stdout=subprocess.DEVNULL, timeout=150)
    raw = time.perf_counter() - t0
    return raw, scaled(raw, ref_before, reference_kernel())


def git_short_hash(root: str) -> str:
    """Commit of the checkout read from ``.git`` directly; ``unknown`` when
    the checkout is not a git repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head[:7]
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()[:7]
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0][:7]
    except OSError:
        pass
    return "unknown"


def environment(root: str, args, thread_vars) -> dict:
    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "git": git_short_hash(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": {v: os.environ.get(v) for v in thread_vars},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(args, root: str, run_py: str, thread_vars) -> int:
    out_dir = os.path.join(root, "zsbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="ops-", dir=out_dir)
    try:
        workload = WORKLOADS[args.workload](args.seed, scratch)
        if args.setup_only:
            workload.setup()
            return 0
        return _measure(workload, args, root, run_py, thread_vars, out_dir)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _measure(workload, args, root, run_py, thread_vars, out_dir) -> int:
    env = environment(root, args, thread_vars)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        tracer = Tracer()
        with Instrumentation(tracer, layers.TARGETS):
            workload.setup()
        plain, tally = run_traced(workload, args.seconds, tracer)
        metrics = layers.layer_metrics(tracer.spans)
        metrics["trace.ops_per_s"] = len(tally.times) / sum(tally.times)
        metrics["untraced.ops_per_s"] = len(plain.times) / sum(plain.times)
        metrics["trace.overhead_frac"] = sum(tally.times) / sum(plain.times) - 1.0
        tracer.write_jsonl(stem + ".spans.jsonl")
        tally.merge(plain)
        metrics["verdict.solved_frac"] = tally.solved / tally.attempted
        metrics["verdict.failed_frac"] = tally.failed / tally.attempted
        units = PER_LAYER
    else:
        setups = [child_setup_seconds(run_py, args.workload, args.seed)
                  for _ in range(SETUP_REPS)]
        workload.setup()
        tally = run_untraced(workload, args.seconds)
        op_times = scaled_op_times(tally)
        metrics = {
            "setup_s": statistics.median(s for _, s in setups),
            "op_p50_s": statistics.median(op_times),
            "op_p90_s": percentile(op_times, 90),
            "peak_rss_mb": peak_rss_mb(),
        }
        env["raw"] = {
            "setup_s": [raw for raw, _ in setups],
            "op_p50_s": statistics.median(tally.times),
            "op_p90_s": percentile(tally.times, 90),
            "ref_median_s": statistics.median(tally.refs),
            "ops": tally.attempted,
            "ops_per_s": tally.attempted / sum(tally.times),
            "solved_frac": tally.solved / tally.attempted,
        }
        units = END_TO_END

    for crash in tally.crashes:
        print(f"op failed: {crash}", file=sys.stderr)
    for wrong in tally.wrong:
        print(f"check failed: {wrong}", file=sys.stderr)
    for shortfall in tally.shortfalls:
        print(f"op fell short: {shortfall}", file=sys.stderr)
    print("environment " + json.dumps(env, sort_keys=True))
    print("verdicts " + json.dumps(dict(sorted(tally.verdicts.items()))))
    for name, unit, _ in units:
        print(f"{name:<32} {metrics[name]:>14.6g} {unit}")
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _ in units},
    }
    with open(stem + ".json", "w") as fh:
        json.dump({"environment": env, "verdicts": dict(tally.verdicts),
                   **result}, fh, indent=2, sort_keys=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1
