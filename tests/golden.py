"""The golden-output matrix: fixed configs whose raw/summary/pareto.csv and
failure lists are checked in as ``golden_outputs.json``.

Every config runs in-process through ``load_config`` and ``run_experiment``,
one repeat each at sweep seed 3, on a 2000-row MNAR CSV that ``write_inputs``
generates (generator seed 5): eight methods crossed with four interventions,
clustering at k_min 20 under the penalty (every grid point fails there),
clustering with a validation holdout and bounded group representation, and
the exact Theorem-1 table.

``tests/test_golden.py`` compares a fresh run with the checked-in file: byte
for byte where the environment equals the one the goldens were made on, and
within ``ABS_TOL`` elsewhere. Rewrite the goldens with

    PYTHONPATH=src python tests/golden.py

which prints the name of each config whose CSV bytes or failure list it
changed (or that is new), and list every one of them, with the reason, where
the change is described. A golden is never rewritten to hide a defect.
"""

from __future__ import annotations

import csv
import json
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

from fairmiss.harness import load_config, run_experiment

GOLDEN_PATH = Path(__file__).with_name("golden_outputs.json")
CSV_NAMES = ("raw.csv", "summary.csv", "pareto.csv")

# Outside the goldens' environment every numeric CSV field may differ by this
# much: a few flipped predictions in a (group, label) cell of about 150 test
# rows. Non-numeric fields and failing (repeat, grid point) pairs must match.
ABS_TOL = 0.02

ROWS, DATA_SEED, SWEEP_SEED = 2000, 5, 3
N_FEATURES = 8

MNAR = (
    "[missingness]\nmechanism = mnar\n"
    "entry1 = x8, label, 0.3, 0.7\n"
    "entry2 = x3, x1<0, 0.3, 0.6\n"
    "entry3 = x5, label, 0.2, 0.5\n"
    "entry4 = x6, label, 0.2, 0.4\n"
    "entry5 = x7, label, 0.2, 0.4\n"
)

METHODS = {
    "itc-mean": "name = impute-then-classify\nimputer = mean",
    "itc-knn3": "name = impute-then-classify\nimputer = knn:3",
    "itc-iterative3": "name = impute-then-classify\nimputer = iterative:3",
    "indicators": "name = indicators",
    "affine": "name = affine",
    "clustering-k100": "name = clustering\nk_min = 100",
    "bag-knn3-random-pick": "name = fairmissbag\nimputer = knn:3\nmode = random-pick",
    "bag-mean-score-average": "name = fairmissbag\nimputer = mean\nmode = score-average",
}

INTERVENTIONS = {
    "none": "name = none",
    "penalty-meo": "name = penalty\nconstraint = meo\ntau = 0.1, 10",
    "penalty-fnr": "name = penalty\nconstraint = fnr\ntau = 1",
    "eqodds": "name = eqodds\nepsilon = 0, 0.05",
}


def configs(data_section: str) -> dict:
    """Config name -> config body, without its [output] section."""
    sweep = f"[sweep]\nrepeats = 1\nseed = {SWEEP_SEED}\n"

    def body(method, intervention):
        return (f"{data_section}\n{MNAR}\n[method]\n{method}\n\n"
                f"[intervention]\n{intervention}\n\n{sweep}")

    out = {f"{m}/{i}": body(mbody, ibody)
           for m, mbody in METHODS.items() for i, ibody in INTERVENTIONS.items()}
    out["clustering-k20/penalty-meo"] = body("name = clustering\nk_min = 20",
                                             INTERVENTIONS["penalty-meo"])
    bounded = "name = clustering\nk_min = 100\nval_fraction = 0.3\nalpha = 0.7\nbeta = 0.3"
    for i in ("none", "penalty-meo"):
        out[f"clustering-val-bounded/{i}"] = body(bounded, INTERVENTIONS[i])
    # the group bounds reject a split here, without and with a holdout
    out["clustering-bounded-k20/none"] = body(
        "name = clustering\nk_min = 20\nalpha = 0.7\nbeta = 0.3", INTERVENTIONS["none"])
    out["clustering-val-bounded-k50/none"] = body(
        "name = clustering\nk_min = 50\nval_fraction = 0.3\nalpha = 0.6\nbeta = 0.4",
        INTERVENTIONS["none"])
    out["exact-table/eqodds"] = ("[data]\nsource = theorem1\nalpha0 = 0.2\n\n"
                                 "[intervention]\nname = eqodds\nepsilon = 0, 0.1\n")
    return out


def write_inputs(out_dir: Path) -> str:
    """Write the CSV and its schema; return the [data] section that reads
    them. The rows: complete features, a binary group, and a label whose base
    rate depends on the group; x2 also carries the group."""
    rng = np.random.default_rng(DATA_SEED)
    s = (rng.random(ROWS) < 0.45).astype(np.int64)
    y = (rng.random(ROWS) < np.where(s == 1, 0.55, 0.4)).astype(np.int64)
    strengths = np.array([0.5, 0.35, 0.3, 0.25, 0.4, 0.2, 0.1, 0.45])
    x = rng.normal(size=(ROWS, N_FEATURES)) + (2.0 * y - 1.0)[:, None] * strengths
    x[:, 1] += 0.6 * s
    names = [f"x{j + 1}" for j in range(N_FEATURES)]
    data_path, schema_path = out_dir / "data.csv", out_dir / "data.schema"
    with open(data_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names + ["group", "label"])
        for i in range(ROWS):
            writer.writerow([format(v, ".10g") for v in x[i]] + [int(s[i]), int(y[i])])
    schema_path.write_text("".join(f"{n} = feature\n" for n in names)
                           + "group = sensitive\nlabel = label\n")
    return f"[data]\nsource = csv\npath = {data_path}\nschema = {schema_path}\n"


def run_matrix(work_dir: Path) -> dict:
    """Config name -> {each CSV name: its text, "failures": [[repeat, grid id,
    error], ...]}, from running every config under ``work_dir``."""
    data_section = write_inputs(work_dir)
    outputs = {}
    for i, (name, body) in enumerate(configs(data_section).items()):
        out = work_dir / f"run{i}"
        cfg_path = work_dir / f"run{i}.cfg"
        cfg_path.write_text(f"{body}\n[output]\ndir = {out}\n")
        result = run_experiment(load_config(cfg_path))
        outputs[name] = {n: (out / n).read_text() for n in CSV_NAMES}
        outputs[name]["failures"] = [[f["repeat"], f["grid_id"], f["error"]]
                                     for f in result.failures]
    return outputs


def environment() -> dict:
    """What the outputs' bits depend on besides the code."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def main() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        outputs = run_matrix(Path(tmp))
    old = json.loads(GOLDEN_PATH.read_text())["configs"] if GOLDEN_PATH.exists() else {}
    for name, got in outputs.items():
        if old.get(name) != got:
            print(name)
    GOLDEN_PATH.write_text(json.dumps({"environment": environment(), "configs": outputs},
                                      indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(outputs)} configs to {GOLDEN_PATH}", file=sys.stderr)


if __name__ == "__main__":
    main()
