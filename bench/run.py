"""Benchmark of quivertilt: time from an input module to a checked verdict.

Usage, from the root of a source tree:

    python3 bench/run.py --workload examples --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the tree and driven only through
its public API, from one process and one thread, in a closed loop (the
next verdict starts when the previous one has returned).  Every verdict is
checked against the one its task expects.

``--trace 0`` times whole passes over the workload's task list and prints
the end-to-end metrics, in seconds at reference speed (see speed.py).
``--trace 1`` runs one untraced pass and then one pass with every layer
wrapped (see tracing.py), prints the per-layer metrics and writes the
spans to ``.bench_out/``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A summary for people goes to standard error.
"""

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path

import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPAN_DIR = ROOT / ".bench_out"

# Seconds of one untraced pass of each workload on a 2-core x86-64 VM.  A
# run makes round(seconds / nominal) passes, at least one, so the number
# of verdicts a run times depends on --seconds only, never on how fast
# the code under test is: both sides of a comparison time the same work.
NOMINAL_PASS_S = {"examples": 7.5, "an-hereditary-q": 30.0, "an-rad2-gf101": 11.0}
# Set-up runs max(passes, SETUP_REPEATS) times and setup_s is the median.
# Every pass gets inputs of its own, so no pass reuses caches that an
# earlier pass filled on the input objects.
SETUP_REPEATS = 15
# verdict_tail_s is the highest percentile with this many samples above it.
TAIL_BEYOND = 10

END_TO_END_UNITS = {"verdicts_per_s": "1/s", "verdict_p50_s": "s", "verdict_tail_s": "s",
                    "setup_s": "s", "peak_rss_mib": "MiB"}


def load_package():
    """Import quivertilt from ``src/`` of this tree, and from nowhere else."""
    pkg_dir = ROOT / "src" / "quivertilt"
    if not (pkg_dir / "__init__.py").is_file():
        raise SystemExit(f"error: no quivertilt sources at {pkg_dir}")
    sys.path.insert(0, str(pkg_dir.parent))
    import quivertilt
    if Path(quivertilt.__file__).resolve().parent != pkg_dir.resolve():
        raise SystemExit(f"error: imported quivertilt from {quivertilt.__file__}, not {pkg_dir}")
    return quivertilt


def run_setups(qt, workload: str, seed: int, copies: int, sizes=None, timer=speed.timed):
    """Set up ``copies`` times from the seed's texts; returns the median
    set-up time and one task list per copy.  ``timer(fn)`` runs fn and
    returns (its result or exception, seconds)."""
    inputs = workloads.make_inputs(workload, seed, sizes)
    times, task_lists = [], []
    for _ in range(copies):
        gc.collect()
        tasks, seconds = timer(lambda: workloads.setup(qt, workload, inputs, seed))
        if isinstance(tasks, Exception):
            raise tasks
        task_lists.append(tasks)
        times.append(seconds)
    return statistics.median(times), task_lists


def run_pass(tasks, timer=speed.timed, tracer=None, log=None):
    """Run every task once, in order.  Returns the per-verdict seconds and
    the number of failed verdicts."""
    times, failed = [], 0
    for task in tasks:
        gc.collect()
        if tracer is not None:
            tracer.begin(task.id, task.field)
        got, seconds = timer(task.run)
        if tracer is not None:
            tracer.end()
        times.append(seconds)
        if isinstance(got, Exception):  # a verdict that raises is a failed verdict
            got = ("raised", type(got).__name__, str(got))
        if got != task.expect:
            failed += 1
            if log is not None:
                print(f"FAILED {task.id}: got {got!r}, expected {task.expect!r}", file=log)
    return times, failed


def tail(times):
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples above it; the maximum when there are too few samples."""
    ordered = sorted(times)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def timed_run(qt, workload: str, seed: int, seconds: float, log=None, sizes=None) -> dict:
    passes = max(1, round(seconds / NOMINAL_PASS_S[workload]))
    times, failed = [], 0
    with speed.ProbeClock() as clock:
        setup_s, task_lists = run_setups(qt, workload, seed, max(passes, SETUP_REPEATS),
                                         sizes, clock.time)
        for tasks in task_lists[:passes]:
            t, f = run_pass(tasks, clock.time, log=log)
            times += t
            failed += f
    tail_s, tail_pct = tail(times)
    values = {
        "verdicts_per_s": len(times) / sum(times),
        "verdict_p50_s": statistics.median(times),
        "verdict_tail_s": tail_s,
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if log is not None:
        print(f"{workload} seed {seed}: {passes} pass(es), {len(times)} verdicts, "
              f"{failed} failed (fail_frac {failed / len(times):.4f}); "
              f"verdict_tail_s is p{tail_pct:.1f} of {len(times)} samples", file=log)
    return result(values, END_TO_END_UNITS, len(times), failed)


def traced_run(qt, workload: str, seed: int, log=None, sizes=None, span_path=None) -> dict:
    """One untraced pass, then set-up and one pass with every layer traced.
    The difference between the two passes is the tracing overhead.  Both
    are timed in wall seconds: speed probes would land inside spans."""
    _, (tasks,) = run_setups(qt, workload, seed, 1, sizes)
    plain_times, plain_failed = run_pass(tasks, log=log)
    with tracing.Tracer(qt) as tracer:
        _, (tasks,) = run_setups(qt, workload, seed, 1, sizes)
        times, failed = run_pass(tasks, tracer=tracer, log=log)
    attempted = len(plain_times) + len(times)
    failed += plain_failed
    values = tracer.metrics()
    values["trace.overhead_frac"] = sum(times) / sum(plain_times) - 1
    values["verdict.fail_frac"] = failed / attempted
    if log is not None:
        for note in tracer.notes():
            print(note, file=log)
        print(f"{workload} seed {seed}: traced pass {sum(times):.2f} s, untraced "
              f"{sum(plain_times):.2f} s, coverage {values['trace.coverage']:.3f}", file=log)
    if span_path is not None:
        tracer.write_spans(span_path)
    return result(values, dict(tracing.PER_LAYER), attempted, failed)


def result(values: dict, units: dict, attempted: int, failed: int) -> dict:
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    qt = load_package()
    if args.trace:
        SPAN_DIR.mkdir(exist_ok=True)
        span_path = SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        out = traced_run(qt, args.workload, args.seed, log=sys.stderr, span_path=span_path)
    else:
        out = timed_run(qt, args.workload, args.seed, args.seconds, log=sys.stderr)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
