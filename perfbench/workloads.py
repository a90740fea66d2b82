"""Seeded inputs, experiment configs and correctness checks for each workload.

Every workload is a ``fairmiss run`` config. The two CSV workloads also get a
CSV and a schema file written from the workload seed; the synthetic workload
passes the seed to the program's built-in synthetic source. The program sees
only these generated files. Nothing here imports fairmiss, so inputs can be
generated before the program is loaded.

Run ``python3 perfbench/workloads.py --workload NAME --seed N --out DIR`` to
write one workload's inputs and print where they went.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_FEATURES = 8
TEST_FRACTION = 0.3
REPEATS = 1  # splits per experiment call; a run's calls draw fresh inputs instead


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    source: str            # "synthetic" or "csv"
    rows: int              # rows in the source data
    method: str            # [method] section body
    intervention: str      # [intervention] section body
    missingness: str = ""  # [missingness] section body, if any

    @property
    def grid_size(self) -> int:
        """Grid points: the values on the tau or epsilon line."""
        line = next(ln for ln in self.intervention.splitlines()
                    if ln.startswith(("tau", "epsilon")))
        return len(line.split("=", 1)[1].split(","))

    @property
    def operations(self) -> int:
        """(repeat, grid point) pairs in one run_experiment call."""
        return REPEATS * self.grid_size


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="synth-cluster-penalty",
            why="paper's 2400x2 synthetic data, pattern clustering per grid point, "
                "many small penalty fits; no imputer, no LP",
            source="synthetic",
            rows=2400,
            method="name = clustering\nk_min = 1\nalpha = 1.0\nbeta = 0.0\n",
            intervention="name = penalty\nconstraint = meo\ntau = 0.01, 1\n",
        ),
        Workload(
            name="mnar-bag-knn-eqodds",
            why="MNAR CSV, fair bagging with per-bag KNN imputation and eqodds "
                "post-processing; no clustering, no penalty",
            source="csv",
            rows=2000,
            missingness="mechanism = mnar\n"
                        "entry1 = x8, label, 0.3, 0.7\n"
                        "entry2 = x3, x1<0, 0.3, 0.6\n"
                        "entry3 = x5, label, 0.2, 0.5\n"
                        "entry4 = x6, label, 0.2, 0.4\n"
                        "entry5 = x7, label, 0.2, 0.4\n",
            method="name = fairmissbag\nimputer = knn:5\nmode = random-pick\nbags = 2\n",
            intervention="name = eqodds\nepsilon = 0.02, 0.1\n",
        ),
        Workload(
            name="mcar-affine-penalty-wide",
            why="MCAR CSV with affine cross terms (58 columns): a few large, wide "
                "penalty fits dominated by matrix products",
            source="csv",
            rows=2000,
            missingness="mechanism = mcar\n"
            + "".join(f"entry{j} = x{j}, none, 0.2, 0.2\n" for j in range(1, 7)),
            method="name = affine\n",
            intervention="name = penalty\nconstraint = meo\ntau = 0.1, 10\n",
        ),
    )
}


def _csv_rows(rng: np.random.Generator, n: int):
    """Complete features, a binary group and a label with group-dependent base
    rates, so the unconstrained classifier has a disparity to repair."""
    s = (rng.random(n) < 0.45).astype(np.int64)
    y = (rng.random(n) < np.where(s == 1, 0.55, 0.4)).astype(np.int64)
    sign = 2.0 * y - 1.0
    strengths = np.array([0.5, 0.35, 0.3, 0.25, 0.4, 0.2, 0.1, 0.45])
    x = rng.normal(size=(n, N_FEATURES)) + sign[:, None] * strengths[None, :]
    x[:, 1] += 0.6 * s  # a feature that also carries the group
    return x, s, y


def write_inputs(workload: Workload, seed: int, out_dir: Path) -> dict:
    """Write the config (and for CSV workloads the data and schema) into
    ``out_dir``. Returns the input record: paths, seed, rows, features and the
    statistics the correctness check needs."""
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {"workload": workload.name, "seed": seed, "rows": workload.rows}
    data_section = "source = synthetic\n"
    if workload.source == "csv":
        rng = np.random.default_rng(seed)
        x, s, y = _csv_rows(rng, workload.rows)
        names = [f"x{j + 1}" for j in range(N_FEATURES)]
        data_path = out_dir / "data.csv"
        with open(data_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(names + ["group", "label"])
            for i in range(workload.rows):
                writer.writerow(
                    [format(v, ".10g") for v in x[i]] + [int(s[i]), int(y[i])]
                )
        schema_path = out_dir / "data.schema"
        schema_path.write_text(
            "".join(f"{n} = feature\n" for n in names)
            + "group = sensitive\nlabel = label\n"
        )
        data_section = f"source = csv\npath = {data_path}\nschema = {schema_path}\n"
        record.update(features=N_FEATURES, label_rate=float(y.mean()),
                      cells=_cell_sizes(s, y))
    else:
        record.update(features=2)
    sections = [
        ("data", data_section),
        ("missingness", workload.missingness),
        ("method", workload.method),
        ("intervention", workload.intervention),
        ("sweep", f"repeats = {REPEATS}\ntest_fraction = {TEST_FRACTION}\n"
                  f"seed = {seed}\n"),
        ("output", f"dir = {out_dir / 'results'}\n"),
    ]
    config_path = out_dir / "experiment.cfg"
    config_path.write_text(
        "".join(f"[{name}]\n{body}\n" for name, body in sections if body)
    )
    record.update(config=str(config_path), results=str(out_dir / "results"))
    return record


def _cell_sizes(s: np.ndarray, y: np.ndarray) -> dict:
    return {f"{g},{lab}": int(np.sum((s == g) & (y == lab))) for g in (0, 1) for lab in (0, 1)}


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

RAW_METRICS = ("train_accuracy", "test_accuracy", "fnr_diff", "fpr_diff", "meo")

# criterion-2 target of the paper's synthetic experiment
SYNTH_MIN_ACCURACY = 0.95
SYNTH_MAX_MEO = 0.06


def _read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def fairness_bound(epsilon: float, cells: dict, test_fraction: float = TEST_FRACTION) -> float:
    """Upper bound on the test MEO of an epsilon-fair post-processed model.

    The post-processor holds each rate gap within epsilon on the data it was
    fitted on; on the test split each gap also carries the sampling error of
    two rate estimates. The bound adds four standard errors of each rate gap
    at the worst case p = 1/2, using the expected test size of every (group,
    label) cell of the generated data.
    """
    slack = 0.0
    for lab in (0, 1):
        n0 = cells[f"0,{lab}"] * test_fraction
        n1 = cells[f"1,{lab}"] * test_fraction
        slack += 4.0 * math.sqrt(0.25 / n0 + 0.25 / n1)
    return epsilon + 0.5 * slack


def check_outputs(workload: Workload, record: dict, failures: list) -> dict:
    """Check one run's CSVs. Returns {grid_id: reason} for every failed grid
    point (empty when all pass); a run-level failure marks every grid point."""
    out = Path(record["results"])
    bad = {}
    grid_ids = [f"g{i}" for i in range(workload.grid_size)]
    for rec in failures:
        bad[rec["grid_id"] or "*"] = f"harness failure: {rec['error']}"

    raw = _read_csv(out / "raw.csv")
    summary = _read_csv(out / "summary.csv")
    pareto = _read_csv(out / "pareto.csv")
    means = {}
    for gid in grid_ids:
        rows = [r for r in raw if r["grid_id"] == gid]
        if sorted(int(r["repeat"]) for r in rows) != list(range(REPEATS)):
            bad.setdefault(gid, "raw.csv lacks repeats")
            continue
        vals = [float(r[m]) for r in rows for m in RAW_METRICS]
        if not all(0.0 <= v <= 1.0 for v in vals):
            bad.setdefault(gid, "raw.csv metric outside [0, 1]")
        summ = {r["metric"]: float(r["mean"]) for r in summary if r["grid_id"] == gid}
        if set(summ) != set(RAW_METRICS):
            bad.setdefault(gid, "summary.csv lacks metrics")
            continue
        for m in RAW_METRICS:
            mean = sum(float(r[m]) for r in rows) / len(rows)
            if not math.isclose(summ[m], mean, rel_tol=1e-9, abs_tol=1e-12):
                bad.setdefault(gid, f"summary.csv {m} mean disagrees with raw.csv")
        means[gid] = summ
        if workload.source == "csv":
            majority = max(record["label_rate"], 1.0 - record["label_rate"])
            if summ["test_accuracy"] <= majority:
                bad.setdefault(gid, f"test accuracy {summ['test_accuracy']:.4f} "
                                    f"does not beat the majority rate {majority:.4f}")
    if not pareto or any(r["grid_id"] not in means for r in pareto):
        bad.setdefault("*", "pareto.csv empty or names an unknown grid point")

    if workload.name == "synth-cluster-penalty" and means:
        if not any(m["test_accuracy"] >= SYNTH_MIN_ACCURACY and m["meo"] <= SYNTH_MAX_MEO
                   for m in means.values()):
            bad.setdefault("*", "no grid point reaches accuracy >= 0.95 at MEO <= 0.06")
    if workload.name == "mnar-bag-knn-eqodds" and raw:
        eps, gid = min((float(r["params"].split("=")[1]), r["grid_id"]) for r in raw)
        bound = fairness_bound(eps, record["cells"])
        if gid in means and means[gid]["meo"] > bound:
            bad.setdefault(gid, f"MEO {means[gid]['meo']:.4f} at epsilon={eps} "
                                f"exceeds the bound {bound:.4f}")
    if "*" in bad:
        return {gid: bad["*"] for gid in grid_ids}
    return bad


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    print(json.dumps(write_inputs(WORKLOADS[args.workload], args.seed, Path(args.out))))


if __name__ == "__main__":
    main()
