"""Tests of the benchmark itself, on the smallest size of each workload.

Run from the root of the tree: python3 -m pytest bench
"""

import inspect
import json
import signal
import sys
from pathlib import Path

import pytest

import run
import speed
import tracing
import workloads

SMALLEST = {"examples": ("cycle2", "a2-bongartz"), "an-hereditary-q": (3,), "an-rad2-gf101": (3,)}


@pytest.fixture(scope="module")
def qt():
    return run.load_package()


def package_bindings(qt):
    """Every attribute of every package module and of the classes they
    define, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == qt.__name__ or name.startswith(qt.__name__ + ".")):
            continue
        for attr, value in vars(mod).items():
            out[(name, attr)] = id(value)
            if inspect.isclass(value) and value.__module__ == name:
                for member, mvalue in vars(value).items():
                    out[(name, attr, member)] = id(mvalue)
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smallest_size_returns_expected_verdicts(qt, workload):
    _, (tasks,) = run.run_setups(qt, workload, 0, 1, SMALLEST[workload])
    assert tasks
    for task in tasks:
        assert task.run() == task.expect, task.id


def test_other_seed_gives_same_verdicts_on_other_text(qt):
    for workload in ("an-hereditary-q", "an-rad2-gf101"):
        texts = [workloads.make_inputs(workload, seed, SMALLEST[workload])[0].text
                 for seed in (0, 7)]
        assert texts[0] != texts[1]
        _, (tasks,) = run.run_setups(qt, workload, 7, 1, SMALLEST[workload])
        times, failed = run.run_pass(tasks)
        assert failed == 0 and len(times) == len(tasks)


def test_traced_run_reports_every_layer_metric_and_restores_the_package(qt, tmp_path):
    before = package_bindings(qt)
    spans = tmp_path / "spans.jsonl"
    out = run.traced_run(qt, "examples", 0, sizes=("a2-bongartz",), span_path=spans)
    assert out["correct"]
    assert list(out["metrics"]) == [name for name, _ in tracing.PER_LAYER]
    assert out["metrics"]["trace.coverage"]["value"] >= 0.9
    assert package_bindings(qt) == before
    assert not hasattr(qt.linalg.rank, "__wrapped__")
    records = [json.loads(line) for line in spans.read_text().splitlines()]
    assert records and all(r["start"] <= r["end"] for r in records)
    assert all(r["parent"] is None or r["parent"] < r["id"] for r in records)


def test_two_traced_runs_with_one_seed_count_the_same(qt):
    counts = []
    for _ in range(2):
        out = run.traced_run(qt, "an-rad2-gf101", 3, sizes=(3,))
        assert out["correct"]
        counts.append({k: m["value"] for k, m in out["metrics"].items() if m["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["linalg.elim.calls"] > 0 and counts[0]["recollement.reflect.brick"] == 4


def test_probe_clock_scales_time_and_restores_the_signal_state():
    previous = signal.getsignal(signal.SIGALRM)
    with speed.ProbeClock() as clock:
        out, seconds = clock.time(lambda: sum(range(200_000)))
        raised, _ = clock.time(lambda: 1 // 0)
    assert out == sum(range(200_000)) and seconds > 0
    assert isinstance(raised, ZeroDivisionError)
    assert len(clock.samples) >= 1
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_metric_lists_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
