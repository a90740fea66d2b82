"""fairmiss benchmark: one workload, seeded inputs, timed experiment calls.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Inputs are generated from ``--seed`` into ``.perfbench_work/``. With
``--trace 0`` the run times ``harness.run_experiment`` calls (what ``fairmiss
run`` does) in a closed loop for ``--seconds`` and reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced calls and
reports per-layer self times and counts. Every call's CSVs are
checked. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Fixed before numpy loads so BLAS and OpenMP use one thread in this process
# and in every child it starts.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

# How much work a call needs depends on its data: on the synthetic workload
# the solver iterations of a call differ up to twofold between draws. So each
# call of a run takes the next input set drawn from the run's seed, and the
# median spans many draws. The quality metrics come from the first
# QUALITY_SETS sets, which every run calls, so they do not depend on how many
# calls fit.
MAX_INPUT_SETS = 32
QUALITY_SETS = 4

# set-up samples per run, spread over its length
SETUP_SAMPLES = 6

SETUP_SNIPPET = """\
import sys, time
t0 = time.perf_counter()
from fairmiss import harness
harness.load_config(sys.argv[1])
print(repr(time.perf_counter() - t0))
"""

S, M, A = "synth-cluster-penalty", "mnar-bag-knn-eqodds", "mcar-affine-penalty-wide"
ALL = (S, M, A)

# name, unit, better; README.md defines each
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("test_accuracy", "fraction", "higher"),
    ("one_minus_meo", "fraction", "higher"),
    ("ok_frac", "fraction", "higher"),
)

# metric, unit, span name (or prefix), statistic, workloads that exercise it.
# The statistic is "s" (total time), "self_s" (time outside traced children),
# "calls" or "count" (rows or clusters counted at the span).
PER_LAYER = (
    ("encode.cluster_missing_patterns.s", "s", "encode.cluster_missing_patterns", "s", (S,)),
    ("encode.cluster_missing_patterns.calls", "count",
     "encode.cluster_missing_patterns", "calls", (S,)),
    ("encode.clusters", "count", "encode.cluster_missing_patterns", "count", (S,)),
    ("encode.ClusterPartition.assign_dataset.s", "s",
     "encode.ClusterPartition.assign_dataset", "s", (S,)),
    ("classify.train_intervention.self_s", "s", "classify.train_intervention", "self_s", ALL),
    ("classify.train_intervention.calls", "count", "classify.train_intervention", "calls", ALL),
    ("classify.train_intervention.rows", "count", "classify.train_intervention", "count", ALL),
    ("impute.knn.fit.s", "s", "impute.knn.fit", "s", (M,)),
    ("impute.knn.transform.s", "s", "impute.knn.transform", "s", (M,)),
    ("impute.knn.transform.rows", "count", "impute.knn.transform", "count", (M,)),
    ("classify.train_fair_bagging.self_s", "s", "classify.train_fair_bagging", "self_s", (M,)),
    ("classify.predict_dataset.self_s", "s", "classify.predict_dataset", "self_s", (M,)),
    # fairmissbag applies its flip rates inside BagModel.scores, and no workload
    # runs eqodds on a single-model method, so no workload reaches this span.
    ("classify.apply_postprocess.s", "s", "classify.apply_postprocess", "s", ()),
    ("data.fair_resample.s", "s", "data.fair_resample", "s", (M,)),
    ("classify.postprocess_eqodds.s", "s", "classify.postprocess_eqodds", "s", (M,)),
    ("classify.postprocess_eqodds.calls", "count", "classify.postprocess_eqodds", "calls", (M,)),
    ("encode.encode_indicators.self_s", "s", "encode.encode_indicators", "self_s", (M, A)),
    ("encode.encode_plain.self_s", "s", "encode.encode_plain", "self_s", (S,)),
    ("encode.AffineEncoder.s", "s", "encode.AffineEncoder", "s", (A,)),
    ("data.load_csv.s", "s", "data.load_csv", "s", (M, A)),
    ("data.split_train_test.s", "s", "data.split_train_test", "s", ALL),
    ("data.FeatureScaler.s", "s", "data.FeatureScaler", "s", ALL),
    ("simulate.inject_missing.s", "s", "simulate.inject_missing", "s", (M, A)),
    ("metrics.s", "s", "metrics", "s", ALL),
    ("harness.fit_pipeline.s", "s", "harness.fit_pipeline", "s", ALL),
    ("harness.evaluate_pipeline.s", "s", "harness.evaluate_pipeline", "s", ALL),
    ("harness.run_experiment.self_s", "s", "harness.run_experiment", "self_s", ALL),
)
TRACE_OVERHEAD = ("trace.overhead_s", "s")

# span whose self time should dominate each workload's traced run
DOMINANT = {
    S: "encode.cluster_missing_patterns",
    M: "impute.knn.transform",
    A: "classify.train_intervention",
}


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
    }


def setup_seconds(config: str) -> float:
    """Seconds to import fairmiss and load the config in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET, config],
        env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def load_program():
    """Import fairmiss from this checkout's sources and nowhere else."""
    if not (SRC / "fairmiss" / "__init__.py").is_file():
        raise SystemExit(f"fairmiss sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fairmiss
    from fairmiss import harness

    if Path(fairmiss.__file__).resolve().parent != SRC / "fairmiss":
        raise SystemExit(f"imported fairmiss from {fairmiss.__file__}, not {SRC}")
    return harness


class Runner:
    """Runs one workload's experiment calls over its input sets and checks
    each call's CSVs."""

    def __init__(self, workload, seed, work: Path, harness):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.harness = harness
        self.records = {}    # input set -> record from workloads.write_inputs
        self.configs = {}    # input set -> loaded experiment config
        self.reference = {}  # input set -> CSV bytes of its first call
        self.quality = {}    # input set -> (mean test accuracy, mean MEO)
        self.calls = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def inputs(self, i: int) -> dict:
        """Record of input set ``i``, whose files are written on first use."""
        if i not in self.records:
            self.records[i] = workloads.write_inputs(
                self.workload, self.seed * MAX_INPUT_SETS + i, self.work / f"set{i}")
            self.configs[i] = self.harness.load_config(self.records[i]["config"])
        return self.records[i]

    def csv_bytes(self, i: int) -> tuple:
        out = Path(self.records[i]["results"])
        return tuple((out / f"{n}.csv").read_bytes() for n in ("raw", "summary", "pareto"))

    def call(self, i: int = None) -> float:
        """One timed run_experiment call on input set ``i`` (by default the
        next one in turn); returns its wall time."""
        i = self.calls % MAX_INPUT_SETS if i is None else i
        self.calls += 1
        record = self.inputs(i)
        t0 = time.perf_counter()
        result = self.harness.run_experiment(self.configs[i])
        wall = time.perf_counter() - t0
        bad = workloads.check_outputs(self.workload, record, result.failures)
        csvs = self.csv_bytes(i)
        if i not in self.reference:
            self.reference[i] = csvs
            means = list(result.aggregated.values())
            # a call with no surviving grid point counts as the worst result
            self.quality[i] = (
                statistics.fmean(a["test_accuracy"][0] for a in means) if means else 0.0,
                statistics.fmean(a["meo"][0] for a in means) if means else 1.0,
            )
        elif csvs != self.reference[i]:
            bad = {gp.gid: "CSVs differ from the first call on this input set"
                   for gp in result.grid}
        self.attempted += self.workload.operations
        self.failed += workloads.REPEATS * len(bad)
        self.problems += [f"set {i} {gid}: {why}" for gid, why in sorted(bad.items())]
        return wall

    def loop(self, seconds: float, before_call=lambda: None) -> list:
        """Closed loop of calls for about ``seconds``: at least QUALITY_SETS
        calls, and a further call only while the median call still fits.
        ``before_call`` runs untimed before each call."""
        walls = []
        start = time.perf_counter()
        while True:
            before_call()
            walls.append(self.call())
            elapsed = time.perf_counter() - start
            if len(walls) >= QUALITY_SETS and elapsed + statistics.median(walls) > seconds:
                return walls


def layer_total(totals: dict, key: str, stat: str) -> float:
    """``stat`` summed over the spans named ``key`` or starting ``key.``."""
    return sum(t[stat] for span, t in totals.items()
               if span == key or span.startswith(key + "."))


def per_layer(tracer: spans.Tracer, calls: int) -> dict:
    """Per-call averages of every PER_LAYER metric from the recorded spans."""
    totals = tracer.totals()
    return {name: {"value": layer_total(totals, key, stat) / calls, "unit": unit}
            for name, unit, key, stat, _ in PER_LAYER}


def self_time_shares(tracer: spans.Tracer) -> list:
    totals = tracer.totals()
    whole = sum(t["self_s"] for t in totals.values())
    return sorted(((t["self_s"] / whole, name) for name, t in totals.items()), reverse=True)


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = workloads.WORKLOADS[workload_name]
    work = WORK / workload_name
    harness = load_program()
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(workload, seed, work, harness)
    print("environment " + json.dumps(environment()))

    if not trace:
        # set-up samples are spread over the run, so a slow spell of the
        # machine weighs on few of them
        setup = []
        config = runner.inputs(0)["config"]
        start = time.perf_counter()

        def sample_setup():
            if time.perf_counter() - start >= len(setup) * seconds / SETUP_SAMPLES:
                setup.append(setup_seconds(config))

        walls = runner.loop(seconds, sample_setup)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_mb,
            "test_accuracy": statistics.fmean(runner.quality[i][0] for i in range(QUALITY_SETS)),
            "one_minus_meo": 1.0 - statistics.fmean(
                runner.quality[i][1] for i in range(QUALITY_SETS)),
            "ok_frac": (runner.attempted - runner.failed) / runner.attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in END_TO_END}
        print(f"calls {len(walls)} wall_s " + " ".join(f"{w:.4f}" for w in walls))
        for name, unit, better in END_TO_END:
            print(f"{name} = {values[name]:.6g} {unit} ({better} is better)")
        print(f"meo = {1.0 - values['one_minus_meo']:.6g} fraction (lower is better)")
        print(f"fail_frac = {runner.failed / runner.attempted:.6g} "
              f"({runner.failed} of {runner.attempted} operations)")
    else:
        # alternate untraced and traced calls so drift in machine speed
        # falls on both sides of trace.overhead_s alike
        tracer = spans.Tracer()
        untraced, traced = [], []
        start = time.perf_counter()
        while True:
            i = len(traced) % MAX_INPUT_SETS
            untraced.append(runner.call(i))
            restore = spans.install(tracer)
            try:
                traced.append(runner.call(i))
            finally:
                restore()
            pair = statistics.median(untraced) + statistics.median(traced)
            if time.perf_counter() - start + pair > seconds:
                break
        metrics = per_layer(tracer, len(traced))
        metrics[TRACE_OVERHEAD[0]] = {
            "value": statistics.median(traced) - statistics.median(untraced),
            "unit": TRACE_OVERHEAD[1],
        }
        print(f"calls untraced {len(untraced)} traced {len(traced)}")
        for share, name in self_time_shares(tracer)[:5]:
            print(f"self-time share {share:.3f} {name}")
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
    print("inputs " + json.dumps({
        "workload": workload_name, "seed": seed,
        "set_seeds": [r["seed"] for _, r in sorted(runner.records.items())],
        "rows": workload.rows, "features": runner.records[0]["features"],
    }))
    for problem in runner.problems:
        print(f"check failed: {problem}")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fairmiss benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="non-negative")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
