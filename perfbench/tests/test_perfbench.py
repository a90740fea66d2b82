"""Tests of the benchmark itself: seeded inputs, checks that catch a wrong
output, tracing that changes no result, and a span behind every per-layer
metric on exactly the workloads the mapping names.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SMALLEST = "mnar-bag-knn-eqodds"


def make_runner(name, seed, out_dir):
    return bench.Runner(workloads.WORKLOADS[name], seed, out_dir, bench.load_program())


def test_inputs_depend_only_on_seed(tmp_path):
    wl = workloads.WORKLOADS[SMALLEST]
    read = lambda d: (d / "data.csv").read_bytes()  # noqa: E731
    for d, seed in (("a", 3), ("b", 3), ("c", 4)):
        workloads.write_inputs(wl, seed, tmp_path / d)
    assert read(tmp_path / "a") == read(tmp_path / "b")
    assert read(tmp_path / "a") != read(tmp_path / "c")


def test_tracing_keeps_csvs_identical_and_checks_catch_bad_output(tmp_path):
    runner = make_runner(SMALLEST, 5, tmp_path)
    runner.call(0)
    untraced = runner.csv_bytes(0)
    restore = spans.install(spans.Tracer())
    try:
        runner.call(0)
    finally:
        restore()
    assert runner.csv_bytes(0) == untraced
    assert runner.failed == 0, runner.problems

    summary = Path(runner.records[0]["results"]) / "summary.csv"
    lines = summary.read_text().splitlines()
    fields = lines[1].split(",")
    fields[4] = repr(float(fields[4]) + 0.25)  # shift one grid point's mean
    summary.write_text("\n".join([lines[0], ",".join(fields)] + lines[2:]) + "\n")
    bad = workloads.check_outputs(runner.workload, runner.records[0], [])
    assert fields[1] in bad


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_per_layer_spans_follow_the_mapping(name, tmp_path):
    runner = make_runner(name, 2, tmp_path)
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        runner.call()
    finally:
        restore()
    assert runner.failed == 0, runner.problems
    totals = tracer.totals()
    for metric, _, key, _, exercised in bench.PER_LAYER:
        hits = bench.layer_total(totals, key, "calls")
        if name in exercised:
            assert hits > 0, f"{metric}: no span on {name}"
        else:
            assert hits == 0, f"{metric}: unexpected span on {name}"
    top_share, top = bench.self_time_shares(tracer)[0]
    assert top == bench.DOMINANT[name], (top, top_share)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        (name, unit, better) for name, unit, better in bench.END_TO_END
    ]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, *_ in bench.PER_LAYER
    ] + [bench.TRACE_OVERHEAD]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", SMALLEST, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
