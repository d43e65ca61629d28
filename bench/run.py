"""automonad benchmark: one closed-loop client, one workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: harness, compile, long-words (see `workloads.py`).  A run imports the package from `src/` of the checkout that
holds this file, sets the workload up several times (`setup_s` is the
median), then repeats the workload's round of operations, whole, until
`--seconds` have passed.  Outputs are checked after the timed region.

With `--trace 0` the last stdout line is a JSON object with the end-to-end
metrics.  With `--trace 1` the run times one untraced round, installs the
tracing wrappers of `tracing.py`, runs the round twice traced (its counts
must repeat exactly), prints the per-layer metrics and writes the spans to
`bench/out/`.  Human-readable lines come first in both modes.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import ERROR, OK, WORKLOADS, WRONG, identity  # noqa: E402

SETUP_REPEATS = 11


def import_package():
    """Import automonad afresh (dropping any earlier import), so that each
    set-up pays the import."""
    for name in [n for n in sys.modules if n == "automonad" or n.startswith("automonad.")]:
        del sys.modules[name]
    importlib.import_module("automonad")
    importlib.import_module("automonad.cli")
    return SimpleNamespace(**{layer: sys.modules[f"automonad.{layer}"] for layer in tracing.LAYERS})


def set_up(workload, seed):
    """Median of SETUP_REPEATS (import + inputs + fixed automata).  Each
    discarded set-up is collected before the next starts, so that
    `peak_rss_mb` holds one set-up, not all of them."""
    times = []
    for _ in range(SETUP_REPEATS):
        m = ops = None
        gc.collect()
        t0 = perf_counter()
        m = import_package()
        ops = workload.build(m, seed, identity)
        times.append(perf_counter() - t0)
    return m, ops, statistics.median(times)


class Log:
    """Latency and output key of each executed operation.  Only the first
    output of each distinct (operation, key) is kept, for checking, so
    memory does not grow with the number of rounds."""

    def __init__(self, ops):
        self.ops = ops
        self.latencies: list[float] = []
        self.keys: list[tuple] = []
        self.outputs: dict = {}

    def add(self, i, latency, out):
        key = (i, op_key(self.ops[i], out))
        self.latencies.append(latency)
        self.keys.append(key)
        self.outputs.setdefault(key, out)


def per_op_medians(log):
    """Median latency of each operation of the round over the run's rounds.

    Their sum is a round with every operation at its typical speed: it
    leaves out the odd round that a shared machine ran fast or slow, which
    a total over all rounds would average in."""
    by_op = [[] for _ in log.ops]
    for (i, _key), latency in zip(log.keys, log.latencies):
        by_op[i].append(latency)
    return [statistics.median(xs) for xs in by_op]


def op_key(op, out):
    return type(out).__name__ if isinstance(out, Exception) else op.key(out)


def run_round(ops, log, tracer=None):
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = perf_counter()
        try:
            out = op.fn()
        except Exception as exc:  # a failed operation, counted and reported
            exc.__traceback__ = None
            out = exc
        latency = perf_counter() - t0
        log.add(i, latency, out)


def measure(ops, seconds):
    """Closed loop: whole rounds until `seconds` have passed."""
    log = Log(ops)
    start = perf_counter()
    rounds = 0
    while True:
        run_round(ops, log)
        rounds += 1
        if perf_counter() - start >= seconds:
            break
    return log, perf_counter() - start, rounds


class Checker:
    """Verdict per (operation, output key); each distinct output is
    verified once."""

    def __init__(self, ops):
        self.ops = ops
        self.verdicts: dict = {}
        self.failures: dict[str, int] = {}
        self.wrong = 0
        self.failed = 0
        self.attempted = 0

    def check(self, log):
        for key in log.keys:
            self.attempted += 1
            if key not in self.verdicts:
                out = log.outputs[key]
                if isinstance(out, Exception):
                    self.verdicts[key] = (ERROR, f"{type(out).__name__}: {str(out)[:120]}")
                else:
                    self.verdicts[key] = self.ops[key[0]].verify(out)
            status, detail = self.verdicts[key]
            if status != OK:
                self.failed += 1
                self.wrong += status == WRONG
                label = f"{status}: {self.ops[key[0]].label} -> {detail}"
                self.failures[label] = self.failures.get(label, 0) + 1


def tail(latencies, percentile):
    """Latency at `percentile` (nearest rank), lowered where needed so that
    at least ten samples lie beyond it: (value, percentile, samples beyond).

    Each workload fixes its percentile.  Taking the highest percentile that
    leaves ten samples beyond would tie the metric to the number of rounds
    that fit in the run, and move it between clusters of operations."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(min(math.ceil(percentile / 100 * n) - 1, n - 11), 0)
    return ordered[k], 100.0 * (k + 1) / n, n - k - 1


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def describe_environment(args):
    print(
        f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}"
        f" | python {platform.python_version()} | nproc {len(os.sched_getaffinity(0))}"
        f" | closed loop, 1 client, 1 process"
    )


def report_failures(checker):
    for label, count in sorted(checker.failures.items()):
        print(f"  {count:4d} x {label}")


def untraced(args, workload):
    m, ops, setup_s = set_up(workload, args.seed)
    log, elapsed, rounds = measure(ops, args.seconds)
    checker = Checker(ops)
    checker.check(log)
    latencies = log.latencies
    busy = sum(latencies)
    ops_per_s = len(ops) / sum(per_op_medians(log))
    p50 = statistics.median(latencies)
    tail_s, pct, beyond = tail(latencies, workload.TAIL_PERCENTILE)
    states = workload.states_built(m, ops)
    wrappers = tracing.installed_wrappers()
    fail_ratio = checker.failed / checker.attempted
    rss = peak_rss_mb()
    print(f"setup_s       {setup_s:.6f} s (median of {SETUP_REPEATS})")
    print(f"ops_per_s     {ops_per_s:.4f} 1/s (round of {len(ops)} at each operation's median "
          f"latency; {len(latencies)} ops in {rounds} rounds, {busy:.3f} s in operations, "
          f"{elapsed:.3f} s wall, mean {len(latencies) / busy:.4f} 1/s)")
    print(f"op_p50_ms     {p50 * 1e3:.4f} ms")
    print(f"op_tail_ms    {tail_s * 1e3:.4f} ms (p{pct:.2f} of {len(latencies)} samples, "
          f"{beyond} beyond)")
    print(f"fail_ratio    {fail_ratio:.6f} ({checker.failed}/{checker.attempted}; "
          f"success_ratio {1 - fail_ratio:.6f})")
    print(f"peak_rss_mb   {rss:.3f} MB")
    print(f"states_built  {states} states")
    print(f"check         {'PASS' if checker.wrong == 0 else 'FAIL'}: {checker.wrong} wrong "
          f"outputs, {checker.failed - checker.wrong} errors; tracing wrappers installed: {wrappers}")
    report_failures(checker)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "success_ratio": (1 - fail_ratio, "ratio"),
        "peak_rss_mb": (rss, "MB"),
        "states_built": (states, "count"),
    }
    return checker.wrong == 0 and wrappers == 0, checker, metrics


def traced(args, workload):
    m, ops, _setup_s = set_up(workload, args.seed)
    log = Log(ops)
    run_round(ops, log)
    untraced_ops_per_s = len(log.latencies) / sum(log.latencies)
    checker = Checker(ops)
    checker.check(log)
    reference = log.keys

    tracer = tracing.Tracer()
    tracer.install()
    ops = workload.build(m, args.seed, tracer.adopt)
    checker.ops = ops
    rounds = []
    for _ in range(2):
        tracer.reset()
        tracer.active = True
        log = Log(ops)
        run_round(ops, log, tracer)
        tracer.active = False
        metrics = tracer.layer_metrics()
        metrics["cli.output_bytes"] = (
            sum(len(out[1].encode()) for (i, _k), out in log.outputs.items()
                if ops[i].cli and not isinstance(out, Exception)),
            "bytes",
        )
        checker.check(log)
        rounds.append((metrics, len(log.latencies) / sum(log.latencies), log.keys != reference))
    metrics, traced_ops_per_s, changed = rounds[0]
    changed = changed or rounds[1][2]
    overhead = untraced_ops_per_s / traced_ops_per_s
    metrics["trace.ops_per_s"] = (traced_ops_per_s, "1/s")
    metrics["trace.untraced_ops_per_s"] = (untraced_ops_per_s, "1/s")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    unrepeated = [
        name for name, (value, unit) in metrics.items()
        if unit in ("count", "bytes") and rounds[1][0][name][0] != value
    ]

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(path, {"workload": args.workload, "seed": args.seed,
                        "ops": [op.label for op in ops]})
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value} {unit}")
    print(f"tracing overhead: untraced {untraced_ops_per_s:.4f} ops/s, traced "
          f"{traced_ops_per_s:.4f} ops/s, ratio {overhead:.3f}")
    print(f"counts repeated exactly across two traced rounds: {not unrepeated} {unrepeated}")
    print(f"outputs changed under tracing: {changed}")
    print(f"spans: {len(tracer.spans)} kept, {tracer.spans_dropped} dropped, "
          f"written to {path.relative_to(ROOT)}")
    print(f"check         {'PASS' if checker.wrong == 0 else 'FAIL'}: {checker.wrong} wrong "
          f"outputs, {checker.failed - checker.wrong} errors")
    report_failures(checker)
    return checker.wrong == 0 and not unrepeated and not changed, checker, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "automonad" / "__init__.py").is_file():
        print(f"automonad sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    describe_environment(args)
    workload = WORKLOADS[args.workload]()
    correct, checker, metrics = (traced if args.trace else untraced)(args, workload)
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
