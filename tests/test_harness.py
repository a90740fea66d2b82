import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings, strategies as st

import fairmiss
from fairmiss import cli, harness, optim
from fairmiss.data import Dataset, balance_cells, load_csv, read_schema, write_csv
from fairmiss.errors import ConfigError, FairmissError
from fairmiss.harness import (
    DataConfig,
    ExperimentConfig,
    InterventionConfig,
    MethodConfig,
    SweepConfig,
    fit_pipeline,
    fit_repeat,
    evaluate_pipeline,
    exact_table_analysis,
    grid_points,
    load_config,
    run_experiment,
    sweep_and_aggregate,
)
from fairmiss.simulate import (
    MaskedPositives, MissingEntry, MissingnessSpec, gen_synthetic, inject_missing,
)

from conftest import random_dataset


def write_config(tmp_path, body, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(body)
    return p


BASIC = """
[data]
source = synthetic

[method]
name = indicators

[intervention]
name = penalty
tau = 0.1, 10

[sweep]
repeats = 2
test_fraction = 0.3
seed = 5

[output]
dir = {out}
"""


class TestConfig:
    def test_load_and_validate(self, tmp_path):
        cfg = load_config(write_config(tmp_path, BASIC.format(out=tmp_path / "o")))
        assert cfg.method.name == "indicators"
        assert cfg.intervention.tau == (0.1, 10.0)
        assert cfg.sweep.repeats == 2

    def test_every_field_type_reads(self, tmp_path):
        body = (
            "[data]\nsource = theorem1\nsensitive_values = A, B\nbalance = yes\n"
            "alpha1 = 0.3\nsamples = 7\n"
        )
        cfg = load_config(write_config(tmp_path, body))
        assert cfg.data == DataConfig(
            source="theorem1", sensitive_values=("A", "B"), balance=True,
            alpha1=0.3, samples=7,
        )

    def test_unknown_section_rejected(self, tmp_path):
        bad = BASIC.format(out=tmp_path) + "\n[surprise]\nkey = 1\n"
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, bad))

    def test_missing_csv_rejected(self, tmp_path):
        body = "[data]\nsource = csv\npath = nope.csv\nschema = nope.txt\n"
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, body))

    def test_missingness_entries_parse(self, tmp_path):
        body = BASIC.format(out=tmp_path) + (
            "\n[missingness]\nmechanism = mnar\n"
            "entry1 = x1, label, 0.1, 0.4\n"
            "entry2 = x2, x1<0.2, 0.1, 0.4\n"
        )
        cfg = load_config(write_config(tmp_path, body))
        assert cfg.missingness.mechanism == "mnar"
        assert cfg.missingness.entries[0].indicator == "label"
        assert cfg.missingness.entries[1].threshold == 0.2

    def test_bad_mechanism_rejected(self, tmp_path):
        body = BASIC.format(out=tmp_path) + (
            "\n[missingness]\nmechanism = mar\nentry1 = x1, label, 0.1, 0.4\n"
        )
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, body))

    @pytest.mark.parametrize(
        "section, body, match",
        [
            ("method", "k_min = abc", r"\[method\] k_min = 'abc': expected an integer"),
            ("sweep", "test_fraction = 0.3x", r"\[sweep\] test_fraction .* a number"),
            ("intervention", "name = penalty\ntau = 0.1, x", r"\[intervention\] tau = '0.1, x'"),
            ("data", "balance = maybe", r"\[data\] balance = 'maybe': expected true or false"),
            ("missingness", "mechanism = mcar\nentry1 = x1, none, 0.1, abc", "non-numeric"),
            ("method", "imputer = knn:abc", "cannot parse imputer spec 'knn:abc'"),
            ("method", "nme = clustering", r"\[method\] unknown key 'nme'"),
            ("intervention", "name = penalty\nconstraint = foo", "unknown penalty constraint"),
            ("intervention", "name = penalty\ntau = 0.1, -1", "tau must be finite and >= 0"),
            ("intervention", "name = eqodds\nepsilon = -0.1", "epsilon must be finite and >= 0"),
            ("method", "imputer = iterative:3:nan", "ridge penalty must be finite and >= 0"),
            ("method", "imputer = iterative:3:inf", "ridge penalty must be finite and >= 0"),
            ("method", "name = clustering\nk_min = 0", "k_min must be >= 1, got 0"),
            ("method", "name = fairmissbag\nbags = 0", "bags must be >= 1, got 0"),
            ("method", "val_fraction = 1", r"val_fraction must lie in \[0, 1\)"),
            ("method", "val_fraction = -0.1", r"val_fraction must lie in \[0, 1\)"),
            ("method", "alpha = 0.4\nbeta = 0.5", "need 0 <= beta <= alpha <= 1"),
            ("method", "alpha = 1.5", "need 0 <= beta <= alpha <= 1"),
            ("method", "beta = -0.1", "need 0 <= beta <= alpha <= 1"),
            ("data", "source = theorem1\nalpha0 = 0.9", "mixture masking rate must be below 1/3"),
            ("data", "source = theorem1\nalpha0 = nan", r"per-group rate must lie in \[0, 1\)"),
            ("data", "source = theorem1\nalpha1 = nan", r"per-group rate must lie in \[0, 1\)"),
            ("data", "source = theorem1\nq0 = nan", "priors must be positive and sum to 1"),
            ("sweep", "seed = -3", "seed must be >= 0"),
            ("missingness", "mechanism = mcar\nentry1 = nosuch, none, 0.1, 0.1",
             "missingness target column 'nosuch' is not a feature of the synthetic data: x1, x2"),
            ("missingness", "mechanism = mar\nentry1 = x2, nosuch, 0.1, 0.2",
             "missingness indicator column 'nosuch' is not a feature of the synthetic data"),
            ("data", "source = theorem1\n\n[missingness]\nmechanism = mcar\n"
             "entry1 = x, none, 0.1, 0.1", r"\[missingness\]: the exact table .* no rows"),
            ("data", "source = theorem1\n\n[method]\nname = clustering",
             r"\[method\]: the exact table .* trains no model"),
            ("data", "source = theorem1\n\n[intervention]\nname = penalty\ntau = 1",
             r"\[intervention\] name = penalty: the exact table"),
        ],
    )
    def test_malformed_setting_is_a_config_error(self, tmp_path, capsys, section, body, match):
        p = write_config(tmp_path, f"[{section}]\n{body}\n")
        with pytest.raises(ConfigError, match=match):
            load_config(p)
        assert cli.main(["validate", str(p)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_readme_example_loads(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        cfg = load_config(write_config(tmp_path, block))
        assert cfg == ExperimentConfig(
            missingness=MissingnessSpec("mnar", (
                MissingEntry("x1", "label", 0.1, 0.4),
                MissingEntry("x2", "x1", 0.1, 0.4, 0.2),
            )),
            method=MethodConfig(name="clustering"),
            intervention=InterventionConfig(name="penalty", constraint="meo"),
            sweep=SweepConfig(repeats=10),
        )

    def test_readme_library_example_runs(self, capsys):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        exec(re.search(r"```python\n(.*?)```", readme, re.S).group(1), {})
        accuracy, meo = map(float, capsys.readouterr().out.split())
        assert 0.0 <= accuracy <= 1.0 and 0.0 <= meo <= 1.0

    def test_missingness_config_roundtrip(self, tmp_path):
        from oracles import missingness_to_config

        body = BASIC.format(out=tmp_path) + (
            "\n[missingness]\nmechanism = mnar\n"
            "entry1 = x1, label, 0.1, 0.4\n"
            "entry2 = x2, x1<0.2, 0.1, 0.4\n"
        )
        cfg = load_config(write_config(tmp_path, body))
        section = missingness_to_config(cfg.missingness)
        body2 = BASIC.format(out=tmp_path) + "\n" + section
        cfg2 = load_config(write_config(tmp_path, body2, "rt.cfg"))
        assert cfg2.missingness == cfg.missingness


def raw_records(*repeats):
    """Raw records of the given repeats, each a grid id -> metric dict, in the
    repeat-major order ``run_experiment`` appends them."""
    return [{"grid_id": gid, "params": "", "repeat": r, **values}
            for r, rep in enumerate(repeats) for gid, values in rep.items()]


class TestAggregate:
    def test_two_values(self):
        out = sweep_and_aggregate(raw_records({"g0": {"m": 0.8}}, {"g0": {"m": 0.9}}), ("m",))
        mean, stderr = out["g0"]["m"]
        assert mean == pytest.approx(0.85)
        assert stderr == pytest.approx(np.std([0.8, 0.9], ddof=1) / np.sqrt(2))
        assert stderr == pytest.approx(0.05)

    def test_single_repeat_stderr_zero(self):
        out = sweep_and_aggregate(raw_records({"g0": {"m": 0.7}}), ("m",))
        assert out["g0"]["m"] == (0.7, 0.0)

    def test_constant_metric_stderr_zero(self):
        out = sweep_and_aggregate(raw_records(*[{"g0": {"m": 0.5}}] * 10), ("m",))
        assert out["g0"]["m"][1] == pytest.approx(0.0)

    def test_grid_point_missing_from_a_repeat(self):
        out = sweep_and_aggregate(raw_records(
            {"g0": {"m": 0.8}, "g1": {"m": 0.2}},
            {"g0": {"m": 0.9}},
            {"g0": {"m": 1.0}, "g1": {"m": 0.4}},
        ), ("m",))
        assert out["g0"]["m"][0] == pytest.approx(0.9)
        mean, stderr = out["g1"]["m"]
        assert mean == pytest.approx(0.3)
        assert stderr == pytest.approx(0.1)


class TestRunExperiment:
    def test_outputs_and_pareto_contract(self, tmp_path):
        out = tmp_path / "res"
        cfg = load_config(write_config(tmp_path, BASIC.format(out=out)))
        result = run_experiment(cfg)
        assert result.succeeded
        raw = (out / "raw.csv").read_text().splitlines()
        summary = (out / "summary.csv").read_text().splitlines()
        pareto = (out / "pareto.csv").read_text().splitlines()
        assert raw[0].startswith("method,grid_id,params,repeat,train_accuracy")
        assert len(raw) == 1 + 2 * 2  # grid x repeats
        assert summary[0] == "method,grid_id,params,metric,mean,stderr"
        raw_gids = {ln.split(",")[1] for ln in raw[1:]}
        pareto_gids = [ln.split(",")[1] for ln in pareto[1:]]
        assert set(pareto_gids) <= raw_gids
        # mutually non-dominating frontier
        pts = []
        for ln in pareto[1:]:
            parts = ln.split(",")
            pts.append((float(parts[3]), float(parts[5])))
        for a in pts:
            for b in pts:
                if a != b:
                    assert not (b[0] >= a[0] and b[1] <= a[1])

    def test_deterministic_bytes(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            cfg = load_config(write_config(tmp_path, BASIC.format(out=out)))
            run_experiment(cfg)
        for name in ("raw.csv", "summary.csv", "pareto.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_exact_table_mode_reports_gap(self, tmp_path):
        body = """
[data]
source = theorem1
alpha0 = 0.25
q0 = 0.5
samples = 0

[output]
dir = {out}
"""
        out = tmp_path / "thm"
        cfg = load_config(write_config(tmp_path, body.format(out=out)))
        result = run_experiment(cfg)
        rec = result.raw[0]
        assert rec["f_eps_original"] == pytest.approx(1.0, abs=1e-9)
        assert rec["f_eps_imputed_best"] == pytest.approx(0.75, abs=1e-6)
        assert rec["gap"] == pytest.approx(0.25, abs=1e-6)
        text = (out / "summary.csv").read_text()
        assert "f_eps_original" in text and "f_eps_imputed_best" in text

    def test_exact_table_writes_the_sweep_layout(self, tmp_path):
        out = tmp_path / "thm"
        body = (f"[data]\nsource = theorem1\nalpha0 = 0.2\n\n[intervention]\nname = eqodds\n"
                f"epsilon = 0, 0.05, 0.1\n\n[output]\ndir = {out}\n")
        run_experiment(load_config(write_config(tmp_path, body)))
        rows = exact_table_analysis(MaskedPositives((0.2, 0.2), (0.5, 0.5)), (0.0, 0.05, 0.1))
        metrics = ("f_eps_original", "f_eps_imputed_best", "gap", "mi_bits")
        keys = [("exact-table", f"g{i}", f"epsilon={eps}")
                for i, eps in enumerate(("0", "0.05", "0.1"))]
        raw = (out / "raw.csv").read_text().splitlines()
        assert raw[0] == "method,grid_id,params,repeat," + ",".join(metrics)
        assert raw[1:] == [",".join([*key, "0", *(harness._fmt(row[m]) for m in metrics)])
                           for key, row in zip(keys, rows)]
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[1:] == [",".join([*key, m, harness._fmt(row[m]), "0"])
                               for key, row in zip(keys, rows) for m in metrics]
        assert (out / "pareto.csv").read_text() == (
            "method,grid_id,params,test_accuracy_mean,test_accuracy_stderr,meo_mean,meo_stderr\n")

    def test_clustering_on_sampled_worst_case(self, tmp_path):
        # the masked cluster holds only positives: its leaf predicts 1
        body = """
[data]
source = theorem1
samples = 2000

[method]
name = clustering

[intervention]
name = none

[output]
dir = {out}
"""
        cfg = load_config(write_config(tmp_path, body.format(out=tmp_path / "t1")))
        result = run_experiment(cfg)
        assert result.succeeded, result.failures
        assert result.aggregated["g0"]["test_accuracy"][0] == 1.0

    def test_methods_cover_missingness_pipeline(self, tmp_path):
        # csv source + mnar injection + fairmissbag, small but end to end
        ds = gen_synthetic(0)
        from fairmiss.data import write_csv

        csv_path = tmp_path / "synth.csv"
        write_csv(ds.subset(np.arange(0, 2400, 8)), csv_path)
        schema_path = tmp_path / "schema.txt"
        schema_path.write_text(
            "x1 = feature\nx2 = feature\nsensitive = sensitive\nlabel = label\n"
        )
        body = f"""
[data]
source = csv
path = {csv_path}
schema = {schema_path}

[method]
name = fairmissbag
imputer = mean
bags = 2

[intervention]
name = none

[sweep]
repeats = 1
test_fraction = 0.3
seed = 1

[output]
dir = {tmp_path / "bag"}
"""
        result = run_experiment(load_config(write_config(tmp_path, body, "bag.cfg")))
        assert result.succeeded
        assert 0.0 <= result.aggregated["g0"]["test_accuracy"][0] <= 1.0


class TestAllMethods:
    @pytest.mark.parametrize(
        "method_lines",
        [
            "name = impute-then-classify\nimputer = mean",
            "name = impute-then-classify\nimputer = knn:3",
            "name = indicators",
            "name = affine",
            "name = clustering\nk_min = 1\nalpha = 1.0\nbeta = 0.0",
            "name = fairmissbag\nimputer = mean\nbags = 2",
        ],
    )
    def test_every_method_runs_end_to_end(self, tmp_path, method_lines):
        from fairmiss.data import write_csv

        ds = gen_synthetic(0).subset(np.arange(0, 2400, 6))
        csv_path = tmp_path / "d.csv"
        write_csv(ds, csv_path)
        schema_path = tmp_path / "schema.txt"
        schema_path.write_text(
            "x1 = feature\nx2 = feature\nsensitive = sensitive\nlabel = label\n"
        )
        name = method_lines.splitlines()[0].split("=")[1].strip()
        body = f"""
[data]
source = csv
path = {csv_path}
schema = {schema_path}

[method]
{method_lines}

[intervention]
name = none

[sweep]
repeats = 1
test_fraction = 0.3
seed = 2

[output]
dir = {tmp_path / name}
"""
        result = run_experiment(load_config(write_config(tmp_path, body, f"{name}.cfg")))
        assert result.succeeded, result.failures
        acc = result.aggregated["g0"]["test_accuracy"][0]
        assert 0.3 <= acc <= 1.0

    def test_all_repeats_failing_is_reported(self, tmp_path):
        # single-group data cannot support the disparity penalty
        from fairmiss.data import Dataset, write_csv

        rng = np.random.default_rng(0)
        ds = Dataset(rng.normal(size=(40, 2)), np.zeros(40, int), rng.integers(0, 2, 40))
        csv_path = tmp_path / "one_group.csv"
        write_csv(ds, csv_path)
        schema_path = tmp_path / "schema.txt"
        schema_path.write_text(
            "x1 = feature\nx2 = feature\nsensitive = sensitive\nlabel = label\n"
        )
        body = f"""
[data]
source = csv
path = {csv_path}
schema = {schema_path}

[method]
name = indicators

[intervention]
name = penalty
tau = 1.0

[sweep]
repeats = 2
test_fraction = 0.3
seed = 0

[output]
dir = {tmp_path / "fail"}
"""
        result = run_experiment(load_config(write_config(tmp_path, body, "fail.cfg")))
        assert not result.succeeded
        assert len(result.failures) == 2
        assert cli.main(["run", str(tmp_path / "fail.cfg")]) == 1

    def test_a_repeat_that_cannot_be_split_fails_each_grid_point(self, tmp_path, capsys):
        # the (s = 1, y = 1) cell has one row, so no repeat can be split
        rows = ["x1,x2,sensitive,label"] + [f"{i % 5}.5,{i % 3},{i % 2},0" for i in range(20)]
        rows += [f"{i}.25,,0,1" for i in range(10)] + ["1.0,2.0,1,1"]
        (tmp_path / "d.csv").write_text("\n".join(rows) + "\n")
        (tmp_path / "schema.txt").write_text(
            "x1 = feature\nx2 = feature\nsensitive = sensitive\nlabel = label\n"
        )
        body = f"""
[data]
source = csv
path = {tmp_path / "d.csv"}
schema = {tmp_path / "schema.txt"}

[method]
name = indicators

[intervention]
name = penalty
tau = 0.1, 10

[sweep]
repeats = 2

[output]
dir = {tmp_path / "out"}
"""
        cfg_path = write_config(tmp_path, body)
        result = run_experiment(load_config(cfg_path))
        assert sorted((f["repeat"], f["grid_id"]) for f in result.failures) == [
            (0, "g0"), (0, "g1"), (1, "g0"), (1, "g1")]
        assert all(f["error"] == "cell (s=1, y=1) has fewer than 2 samples, cannot split"
                   for f in result.failures)
        assert result.raw == [] and result.aggregated == {} and not result.succeeded
        headers = {"raw.csv": "method,grid_id,params,repeat," + ",".join(harness.METRIC_NAMES),
                   "summary.csv": ",".join(harness.SUMMARY_COLUMNS),
                   "pareto.csv": ",".join(harness.PARETO_COLUMNS)}
        for name, header in headers.items():
            assert (tmp_path / "out" / name).read_text() == header + "\n"
        capsys.readouterr()
        assert cli.main(["run", str(cfg_path)]) == 1
        out = capsys.readouterr().out
        assert out.count("failed repeat=") == 4 and "grid=:" not in out

    def test_outputs_follow_grid_order_past_ten_points(self, tmp_path, capsys):
        # g10 and g11 sort before g2 as strings; every output keeps grid order
        taus = ", ".join(f"{0.1 * (i + 1):g}" for i in range(12))
        body = BASIC.format(out=tmp_path / "o").replace("tau = 0.1, 10", f"tau = {taus}")
        cfg_path = write_config(tmp_path, body)
        assert cli.main(["run", str(cfg_path)]) == 0
        gids = [f"g{i}" for i in range(12)]
        printed = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
        assert printed[:12] == gids

        def column(name, field):
            lines = (tmp_path / "o" / name).read_text().splitlines()[1:]
            return [line.split(",")[field] for line in lines]

        assert list(zip(column("raw.csv", 1), column("raw.csv", 3))) == [
            (gid, r) for gid in gids for r in ("0", "1")]
        assert column("summary.csv", 1) == [gid for gid in gids
                                            for _ in harness.METRIC_NAMES]
        pareto = column("pareto.csv", 1)
        assert pareto and pareto == sorted(pareto, key=gids.index)


class TestPreprocessingEqualsAPreparedCsv:
    """A run's preprocessing writes the CSVs that a run on the data prepared
    beforehand and written back does."""

    SCHEMA = "x1 = feature\nx2 = feature\nx3 = feature\nsensitive = sensitive\nlabel = label\n"
    OUTPUTS = ("raw.csv", "summary.csv", "pareto.csv")

    @staticmethod
    def short_decimal_csv(path, n=240, seed=4):
        # two decimals survive write_csv and load_csv exactly; x1, which an
        # MNAR entry reads, stays observed; group 1 is rarer, so balancing
        # drops rows
        rng = np.random.default_rng(seed)
        x = np.round(rng.normal(size=(n, 3)), 2)
        x[:, 1:][rng.random((n, 2)) < 0.1] = np.nan
        s = (rng.random(n) < 0.3).astype(int)
        y = (np.nan_to_num(x[:, 0]) + 0.5 * s + rng.normal(size=n) > 0).astype(int)
        write_csv(Dataset(x, s, y), path)

    def run(self, tmp_path, name, csv_path, data_lines="", sweep_lines="", sections=""):
        """Run a config on ``csv_path``; returns it and its CSVs' bytes."""
        (tmp_path / "schema.txt").write_text(self.SCHEMA)
        body = f"""
[data]
source = csv
path = {csv_path}
schema = {tmp_path / "schema.txt"}
{data_lines}
[method]
name = indicators

[intervention]
name = penalty
tau = 0.1, 10

[sweep]
repeats = 1
test_fraction = 0.3
seed = 7
{sweep_lines}
[output]
dir = {tmp_path / name}
{sections}"""
        cfg = load_config(write_config(tmp_path, body, f"{name}.cfg"))
        assert run_experiment(cfg).succeeded
        return cfg, [(tmp_path / name / out).read_bytes() for out in self.OUTPUTS]

    def test_inject_before_split_masks_the_data_then_splits(self, tmp_path):
        csv_path = tmp_path / "d.csv"
        self.short_decimal_csv(csv_path)
        cfg, injected = self.run(
            tmp_path, "inject", csv_path, sweep_lines="inject_before_split = true",
            sections="[missingness]\nmechanism = mnar\n"
                     "entry1 = x2, label, 0.1, 0.5\nentry2 = x3, x1<0.2, 0.05, 0.4\n")
        assert cfg.sweep.inject_before_split
        ds = load_csv(csv_path, read_schema(tmp_path / "schema.txt"))
        masked = inject_missing(ds, cfg.missingness, cfg.sweep.seed * 1000)
        assert masked.mask.sum() > ds.mask.sum()
        write_csv(masked, tmp_path / "masked.csv")
        assert self.run(tmp_path, "masked", tmp_path / "masked.csv")[1] == injected

    def test_balance_downsamples_the_data_before_the_sweep(self, tmp_path):
        csv_path = tmp_path / "d.csv"
        self.short_decimal_csv(csv_path)
        cfg, balanced_in_run = self.run(tmp_path, "balance", csv_path, data_lines="balance = true")
        assert cfg.data.balance
        ds = load_csv(csv_path, read_schema(tmp_path / "schema.txt"))
        balanced = balance_cells(ds, cfg.sweep.seed)
        assert balanced.n_samples < ds.n_samples
        write_csv(balanced, tmp_path / "balanced.csv")
        assert self.run(tmp_path, "balanced", tmp_path / "balanced.csv")[1] == balanced_in_run


class TestLeafPolicy:
    @pytest.mark.parametrize(
        "intervention, error",
        [
            ("name = penalty\ntau = 0.1, 1", "disparity penalty undefined"),
            ("name = eqodds\nepsilon = 0, 0.1", "rates undefined"),
        ],
    )
    def test_leaf_without_a_needed_cell_fails_its_grid_points(
        self, tmp_path, intervention, error
    ):
        # drop the masked (s = 1, y = 0) rows: the x2-missing leaf has no such
        # cell, which mean-equalized-odds and eqodds need
        ds = gen_synthetic(0)
        keep = ~(ds.mask[:, 1] & (ds.sensitive == 1) & (ds.labels == 0))
        write_csv(ds.subset(np.flatnonzero(keep)[::4]), tmp_path / "d.csv")
        (tmp_path / "schema.txt").write_text(
            "x1 = feature\nx2 = feature\nsensitive = sensitive\nlabel = label\n"
        )
        body = f"""
[data]
source = csv
path = {tmp_path / "d.csv"}
schema = {tmp_path / "schema.txt"}

[method]
name = clustering

[intervention]
{intervention}

[output]
dir = {tmp_path / "out"}
"""
        cfg_path = write_config(tmp_path, body)
        result = run_experiment(load_config(cfg_path))
        assert [(f["repeat"], f["grid_id"]) for f in result.failures] == [(0, "g0"), (0, "g1")]
        assert all(f"empty cell (s=1, y=0): {error}" in f["error"] for f in result.failures)
        assert not result.succeeded
        assert cli.main(["run", str(cfg_path)]) == 1


class TestLeakage:
    def test_fitted_state_ignores_test_rows(self, rng, tmp_path):
        cfg = load_config(write_config(tmp_path, BASIC.format(out=tmp_path / "x")))
        train = random_dataset(rng, n=80, d=3, missing_rate=0.2)
        test_a = random_dataset(rng, n=30, d=3, missing_rate=0.2)
        test_b = random_dataset(rng, n=30, d=3, missing_rate=0.6)
        gp = grid_points(cfg.intervention)[0]
        rep = fit_repeat(train, test_a, cfg, seed=3)
        f1 = fit_pipeline(rep, gp, seed=3)
        f2 = fit_pipeline(rep, gp, seed=3)
        assert np.array_equal(f1.predictor.weights, f2.predictor.weights)
        evaluate_pipeline(f1, rep, seed=0)
        m = evaluate_pipeline(f1, fit_repeat(train, test_b, cfg, seed=3), seed=0)
        assert np.array_equal(f1.predictor.weights, f2.predictor.weights)
        assert set(m) == {"train_accuracy", "test_accuracy", "fnr_diff", "fpr_diff", "meo"}

    @pytest.mark.parametrize(
        "method",
        [
            "name = indicators",
            "name = impute-then-classify\nimputer = knn:3",
            "name = affine",
            "name = fairmissbag\nimputer = knn:3\nbags = 2\nmode = random-pick",
        ],
    )
    def test_repeat_state_is_identical_for_two_test_splits(self, rng, tmp_path, method):
        body = BASIC.format(out=tmp_path / "x").replace("name = indicators", method)
        body = body.replace("name = penalty\ntau = 0.1, 10", "name = eqodds\nepsilon = 0, 0.1")
        cfg = load_config(write_config(tmp_path, body))
        train = random_dataset(rng, n=80, d=3, missing_rate=0.2)
        states = []
        for missing_rate in (0.2, 0.6):
            test = random_dataset(rng, n=30, d=3, missing_rate=missing_rate)
            rep = fit_repeat(train, test, cfg, seed=3)
            # fair bagging's trainer is train_fair_bagging bound to the bags
            bags = rep.trainer.args[0] if "fairmissbag" in method else ()
            train_inputs = rep.train_input if bags else (rep.train_input,)
            models = [fit_pipeline(rep, gp, seed=3).predictor
                      for gp in grid_points(cfg.intervention)]
            members = models if not bags else [bag for p in models for bag in p.bags]
            states.append((
                rep.train.features.tobytes(),  # the fitted scaler's effect
                [enc.features.tobytes() for enc in train_inputs],
                [bag.rows.tobytes() for bag in bags],
                [(m.weights.tobytes(), m.bias, m.rates.flip) for m in members],
            ))
        assert states[0] == states[1]


class TestExactAnalysis:
    def test_gap_matches_mixture_rate_on_grid(self):
        for a in (0.05, 0.1, 0.2, 0.3):
            rows = exact_table_analysis(MaskedPositives((a, a), (0.5, 0.5)), (0.0,))
            assert rows[0]["gap"] == pytest.approx(a, abs=1e-6)


class TestCli:
    def test_validate_command(self, tmp_path, capsys):
        p = write_config(tmp_path, BASIC.format(out=tmp_path / "v"))
        assert cli.main(["validate", str(p)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_rejects_bad_config(self, tmp_path, capsys):
        p = write_config(tmp_path, "[data]\nsource = nonsense\n")
        assert cli.main(["validate", str(p)]) == 1

    @pytest.mark.parametrize("schema, header", [
        ("x1 = feature\nx2 = feat\nsensitive = sensitive\nlabel = label", "x1,x2,sensitive,label"),
        ("x1 = feature\nx2 = feature\nsensitive = sensitive\nlabel = ignore",
         "x1,x2,sensitive,label"),
        ("x1 = feature\nx2 = feature\nx3 = feature\nsensitive = sensitive\nlabel = label",
         "x1,x2,sensitive,label"),
        ("x1 = feature\nx2 = feature\nx2 = ignore\nsensitive = sensitive\nlabel = label",
         "x1,x2,sensitive,label"),
        ("x1 = feature\nx2 = feature\nsensitive = sensitive\nlabel = label",
         "x1,x2,x2,sensitive,label"),
    ], ids=["unknown-role", "no-label", "column-the-csv-lacks", "schema-lists-a-column-twice",
            "csv-header-repeats-a-column"])
    def test_validate_checks_the_schema_against_the_csv_header(self, tmp_path, capsys,
                                                                schema, header):
        csv_path, schema_path = tmp_path / "d.csv", tmp_path / "d.schema"
        csv_path.write_text(header + "\n" + ",".join(["0"] * header.count(",")) + ",1\n")
        schema_path.write_text(schema + "\n")
        with pytest.raises(FairmissError) as loader:
            load_csv(csv_path, read_schema(schema_path))
        body = f"[data]\nsource = csv\npath = {csv_path}\nschema = {schema_path}\n"
        assert cli.main(["validate", str(write_config(tmp_path, body))]) == 1
        assert capsys.readouterr().err == f"error: {loader.value}\n"

    def test_theorem1_command(self, capsys):
        assert cli.main(["theorem1", "--alpha", "0.25", "--q0", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "gap" in out and "0.250000" in out

    @pytest.mark.parametrize("level", ["basic_format", "bogus"])
    def test_an_unknown_log_level_is_one_error(self, monkeypatch, capsys, level):
        monkeypatch.setenv("FAIRMISS_LOG", level)
        assert cli.main(["theorem1", "--alpha", "0.25"]) == 1
        assert capsys.readouterr() == (
            "", f"error: FAIRMISS_LOG={level!r}: expected one of DEBUG, INFO, WARNING, "
                "ERROR, CRITICAL\n")

    def test_a_log_level_name_is_read_in_any_case(self, monkeypatch, capsys):
        monkeypatch.setenv("FAIRMISS_LOG", "Error")
        assert cli.main(["theorem1", "--alpha", "0.25"]) == 0

    @pytest.mark.parametrize("args, error", [
        (["--alpha", "nan"], "each per-group rate must lie in [0, 1)"),
        (["--alpha", "0.25", "--alpha1", "nan"], "each per-group rate must lie in [0, 1)"),
        (["--alpha", "0.25", "--q0", "nan"], "priors must be positive and sum to 1"),
        (["--alpha", "0.25", "--epsilon", "nan"], "epsilon must be finite and >= 0, got nan"),
        (["--alpha", "0.25", "--epsilon", "inf"], "epsilon must be finite and >= 0, got inf"),
    ])
    def test_theorem1_command_rejects_non_finite_input(self, capsys, args, error):
        assert cli.main(["theorem1", *args]) == 1
        assert capsys.readouterr().err == f"error: {error}\n"

    def test_run_rejects_a_nan_theorem1_rate(self, tmp_path, capsys):
        body = f"[data]\nsource = theorem1\nalpha0 = nan\n\n[output]\ndir = {tmp_path / 'r'}\n"
        assert cli.main(["run", str(write_config(tmp_path, body))]) == 1
        assert capsys.readouterr().err == "error: each per-group rate must lie in [0, 1)\n"

    def test_synthetic_command_roundtrips(self, tmp_path, capsys):
        out_csv = tmp_path / "synth.csv"
        schema = tmp_path / "synth.schema"
        code = cli.main([
            "synthetic", "--seed", "3", "--out", str(out_csv), "--schema", str(schema)
        ])
        assert code == 0
        ds = load_csv(out_csv, read_schema(schema))
        assert ds.n_samples == 2400
        assert int(ds.mask[:, 1].sum()) == 800

    def test_synthetic_command_rejects_a_negative_seed(self, tmp_path, capsys):
        out_csv = tmp_path / "synth.csv"
        assert cli.main(["synthetic", "--seed", "-1", "--out", str(out_csv)]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0\n"
        assert not out_csv.exists()

    def test_run_command(self, tmp_path, capsys):
        body = """
[data]
source = theorem1
alpha0 = 0.2

[output]
dir = {out}
"""
        p = write_config(tmp_path, body.format(out=tmp_path / "r"))
        assert cli.main(["run", str(p)]) == 0
        assert "best_constrained_accuracy" in capsys.readouterr().out


    def test_run_reports_a_csv_that_is_not_utf8(self, tmp_path, capsys):
        (tmp_path / "d.csv").write_bytes(b"x1,sensitive,label\n0.5,0,1\ncaf\xe9,1,0\n")
        (tmp_path / "s.txt").write_text("x1 = feature\nsensitive = sensitive\nlabel = label\n")
        body = f"""
[data]
source = csv
path = {tmp_path / "d.csv"}
schema = {tmp_path / "s.txt"}

[output]
dir = {tmp_path / "out"}
"""
        assert cli.main(["run", str(write_config(tmp_path, body))]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {tmp_path / 'd.csv'}: row 3: byte 0xe9 is not UTF-8 text\n"


    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_config_that_is_not_utf8_is_one_error_line(self, tmp_path, capsys, command):
        p = tmp_path / "exp.cfg"
        p.write_bytes(b"[data]\n# caf\xe9\nsource = synthetic\n")
        assert cli.main([command, str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {p}: line 2: byte 0xe9 is not UTF-8 text\n"
        assert captured.out == ""

    def test_run_reports_a_schema_that_is_not_utf8(self, tmp_path, capsys):
        (tmp_path / "d.csv").write_text("x1,sensitive,label\n0.5,0,1\n")
        (tmp_path / "s.txt").write_bytes(b"x1 = feature\ncaf\xe9 = ignore\n")
        body = f"""
[data]
source = csv
path = {tmp_path / "d.csv"}
schema = {tmp_path / "s.txt"}

[output]
dir = {tmp_path / "out"}
"""
        assert cli.main(["run", str(write_config(tmp_path, body))]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {tmp_path / 's.txt'}: line 2: byte 0xe9 is not UTF-8 text\n"

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("role, key", [("csv", "path"), ("schema", "schema")])
    def test_a_directory_as_an_input_file_is_one_error_line(self, tmp_path, capsys, command,
                                                            role, key):
        files = {"path": tmp_path / "d.csv", "schema": tmp_path / "s.txt"}
        files["path"].write_text("x1,sensitive,label\n0.5,0,1\n")
        files["schema"].write_text("x1 = feature\nsensitive = sensitive\nlabel = label\n")
        files[key] = tmp_path / "a_dir"
        files[key].mkdir()
        body = (f"[data]\nsource = csv\npath = {files['path']}\nschema = {files['schema']}\n"
                f"\n[output]\ndir = {tmp_path / 'out'}\n")
        assert cli.main([command, str(write_config(tmp_path, body))]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {role} path {str(files[key])!r} is not a regular file\n"
        assert captured.out == ""

    def test_an_output_dir_that_cannot_be_made_fails_before_any_repeat(self, tmp_path, capsys,
                                                                       monkeypatch):
        (tmp_path / "f").write_text("a regular file\n")
        out = tmp_path / "f" / "out"
        monkeypatch.setattr(harness, "fit_repeat", lambda *args: pytest.fail("a repeat ran"))
        assert cli.main(["run", str(write_config(tmp_path, BASIC.format(out=out)))]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot create output directory {str(out)!r}: Not a directory\n"
        assert captured.out == ""

    @pytest.mark.parametrize("flag", ["--out", "--schema"])
    def test_synthetic_into_a_missing_dir_is_one_error_line(self, tmp_path, capsys, flag):
        paths = {"--out": tmp_path / "s.csv", "--schema": tmp_path / "s.schema"}
        paths[flag] = tmp_path / "missing" / "file"
        args = [arg for key, path in paths.items() for arg in (key, str(path))]
        assert cli.main(["synthetic", *args]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {paths[flag]}: No such file or directory\n"
        assert captured.out == ""


def test_load_config_names_the_line_of_a_byte_that_is_not_utf8(tmp_path):
    body = BASIC.format(out=tmp_path / "o").encode()
    p = tmp_path / "exp.cfg"
    p.write_bytes(body + b"# caf\xe9\n")
    line = body.count(b"\n") + 1
    with pytest.raises(ConfigError, match=rf": line {line}: byte 0xe9 is not UTF-8 text$"):
        load_config(p)
    # the same config in UTF-8, with CRLF line ends, loads
    p.write_bytes(body.replace(b"\n", b"\r\n") + "# café\r\n".encode())
    assert load_config(p).method.name == "indicators"


def test_config_with_a_byte_order_mark_loads_as_without(tmp_path):
    body = BASIC.format(out=tmp_path / "o").lstrip().encode()  # "[data]" first
    p, bom = tmp_path / "exp.cfg", tmp_path / "bom.cfg"
    p.write_bytes(body)
    bom.write_bytes(b"\xef\xbb\xbf" + body)
    assert load_config(bom) == load_config(p)
    # a byte that is not UTF-8 after the mark is still named by its line
    bom.write_bytes(b"\xef\xbb\xbf" + body + b"# caf\xe9\n")
    line = body.count(b"\n") + 1
    with pytest.raises(ConfigError, match=rf": line {line}: byte 0xe9 is not UTF-8 text$"):
        load_config(bom)


def test_load_config_of_a_missing_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config(tmp_path / "absent.cfg")


@pytest.mark.parametrize("bounds, got", [
    ("alpha = 0.4", "alpha=0.4, beta=0.0"),
    ("alpha = 1\nbeta = 0.6", "alpha=1.0, beta=0.6"),
], ids=["alpha", "beta"])
def test_clustering_alpha_below_one_over_the_groups_is_one_config_error(tmp_path, bounds, got):
    # two groups in the synthetic data, and so in every training split: alpha
    # = 0.4 < 1/2 or beta = 0.6 > 1/2 fails before any fit
    body = BASIC.format(out=tmp_path / "a").replace(
        "name = indicators", f"name = clustering\n{bounds}")
    cfg = load_config(write_config(tmp_path, body))
    with pytest.raises(ConfigError, match=re.escape(
            f"clustering: bounded representation needs 0 <= beta <= 1/|S| <= alpha <= 1 "
            f"(got {got}, |S|=2)")):
        run_experiment(cfg)
    assert not (tmp_path / "a").exists()
    cfg.method.alpha, cfg.method.beta = 0.5, 0.5
    assert run_experiment(cfg).succeeded


def fresh_python(code, *args):
    """Run ``code`` in a new interpreter that imports fairmiss from this
    checkout and the test helpers from ``tests/``."""
    paths = [str(Path(fairmiss.__file__).parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=300)


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize costs about 0.4 s and 48 MB; no fairmiss module imports
    # it: fits load L-BFGS-B's extension file on its own, and the one
    # equalized-odds program is solved by metrics.fair_vertices
    out = fresh_python("import sys, fairmiss.harness; print('scipy.optimize' in sys.modules)")
    assert out.stdout.strip() == "False"


CLUSTERING_RUN = ("[data]\nsource = synthetic\n\n[method]\nname = clustering\nk_min = 200\n\n"
                  "[intervention]\nname = penalty\ntau = 0.1, 10\n\n[sweep]\nrepeats = 1\n\n")
EXACT_TABLE_RUN = ("[data]\nsource = theorem1\nalpha0 = 0.2\n\n"
                   "[intervention]\nname = eqodds\nepsilon = 0, 0.1\n\n")


@pytest.mark.parametrize("argv, body", [(["run"], CLUSTERING_RUN),
                                        (["theorem1", "--alpha", "0.25"], None),
                                        (["run"], EXACT_TABLE_RUN)],
                         ids=["clustering", "theorem1", "exact-table"])
def test_fairmiss_run_leaves_scipy_optimize_unloaded(tmp_path, argv, body):
    if body is not None:  # a run of this config body, writing to tmp_path/out
        body += f"[output]\ndir = {tmp_path / 'out'}\n"
        argv = argv + [str(write_config(tmp_path, body))]
    code = ("import sys; from fairmiss import cli; code = cli.main(sys.argv[1:]); "
            "print('scipy.optimize' in sys.modules); sys.exit(code)")
    out = fresh_python(code, *argv)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "False"
    if body is not None:
        for name in ("raw.csv", "summary.csv", "pareto.csv"):
            assert (tmp_path / "out" / name).is_file()


def test_a_fit_then_import_scipy_optimize_share_one_lbfgsb_module():
    code = """
import sys
import numpy as np
from fairmiss.optim import LAM, descend, load_lbfgsb, make_objective
rng = np.random.default_rng(3)
x = rng.normal(size=(80, 3))
y = (x[:, 0] + rng.normal(size=80) > 0).astype(np.int64)
objective = make_objective(x, y, LAM)
w, f, iterations = descend(objective, np.zeros(4))
assert "scipy.optimize" not in sys.modules
import scipy.optimize
from oracles import reference_descend
w_ref, f_ref, iterations_ref = reference_descend(objective, np.zeros(4))
print(w.tobytes() == w_ref.tobytes(), f == f_ref, iterations == iterations_ref > 0)
print(sys.modules["scipy.optimize._lbfgsb"] is load_lbfgsb() is scipy.optimize._lbfgsb_py._lbfgsb)
"""
    out = fresh_python(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["True"] * 4


def test_a_scipy_without_the_lbfgsb_extension_is_one_error(tmp_path, monkeypatch, capsys):
    empty = tmp_path / "scipy"
    empty.mkdir()
    monkeypatch.setattr(optim, "_scipy_dir", lambda: str(empty))
    monkeypatch.setattr(optim, "load_lbfgsb", optim.load_lbfgsb.__wrapped__)  # uncached
    message = (f"scipy {scipy.__version__} has no L-BFGS-B extension in {empty / 'optimize'}; "
               "fairmiss needs scipy >= 1.15")
    x = np.array([[0.0], [1.0]])
    with pytest.raises(FairmissError) as exc:
        optim.descend(optim.make_objective(x, [0, 1], optim.LAM), np.zeros(2))
    assert str(exc.value) == message
    body = BASIC.format(out=tmp_path / "out")
    assert cli.main(["run", str(write_config(tmp_path, body))]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "out").exists()


FUZZ_METHODS = {
    "impute-then-classify": "name = impute-then-classify\nimputer = {imputer}",
    "indicators": "name = indicators",
    "affine": "name = affine",
    "clustering": "name = clustering\nk_min = {k_min}",
    "fairmissbag random-pick": "name = fairmissbag\nimputer = {imputer}\nbags = 2\nmode = random-pick",
    "fairmissbag score-average": "name = fairmissbag\nimputer = {imputer}\nbags = 2\nmode = score-average",
}
FUZZ_INTERVENTIONS = {
    "none": "name = none",
    "penalty": "name = penalty\nconstraint = meo\ntau = 0, 10",
    "eqodds": "name = eqodds\nepsilon = 0, 0.1",
}


@st.composite
def tiny_csv(draw):
    """CSV text of 8-30 rows, 1-3 features, 1-3 groups and random masks; a
    feature column may be constant or entirely missing."""
    n = draw(st.integers(8, 30))
    d = draw(st.integers(1, 3))
    groups = draw(st.sampled_from([1, 2, 2, 2, 3]))
    columns = []
    for _ in range(d):
        kind = draw(st.sampled_from(["random"] * 6 + ["constant", "missing"]))
        if kind == "missing":
            columns.append([""] * n)
            continue
        if kind == "constant":
            values = [draw(st.floats(-3, 3, allow_subnormal=False))] * n
        else:
            values = draw(st.lists(st.floats(-3, 3, allow_subnormal=False), min_size=n, max_size=n))
        masked = set(draw(st.lists(st.integers(0, n - 1), max_size=n // 2)))
        columns.append(["" if i in masked else repr(v) for i, v in enumerate(values)])
    sens = draw(st.lists(st.integers(0, groups - 1), min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    lines = [",".join([f"x{j + 1}" for j in range(d)] + ["group", "label"])]
    lines += [",".join([col[i] for col in columns] + [str(sens[i]), str(labels[i])])
              for i in range(n)]
    return d, "\n".join(lines) + "\n"


@pytest.mark.parametrize("intervention", sorted(FUZZ_INTERVENTIONS))
@pytest.mark.parametrize("method", sorted(FUZZ_METHODS))
# each example is a whole run, and each of the 18 cases takes a tenth of the
# profile's examples
@settings(max_examples=max(3, settings().max_examples // 10))
@given(case=tiny_csv(), imputer=st.sampled_from(["zero", "mean", "knn:2", "iterative:2"]),
       k_min=st.integers(1, 6), seed=st.integers(0, 99))
def test_tiny_random_data_gives_results_or_recorded_failures(method, intervention, case,
                                                             imputer, k_min, seed):
    d, text = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "d.csv").write_text(text)
        (tmp / "d.schema").write_text("".join(f"x{j + 1} = feature\n" for j in range(d))
                                      + "group = sensitive\nlabel = label\n")
        body = (f"[data]\nsource = csv\npath = {tmp / 'd.csv'}\nschema = {tmp / 'd.schema'}\n\n"
                f"[method]\n{FUZZ_METHODS[method].format(imputer=imputer, k_min=k_min)}\n\n"
                f"[intervention]\n{FUZZ_INTERVENTIONS[intervention]}\n\n"
                f"[sweep]\nrepeats = 2\nseed = {seed}\n\n[output]\ndir = {tmp / 'out'}\n")
        # any exception but a FairmissError fails the test
        result = run_experiment(load_config(write_config(tmp, body)))
        for name in ("raw.csv", "summary.csv", "pareto.csv"):
            assert (tmp / "out" / name).is_file()
    # exactly one outcome per (repeat, grid point): a result or a recorded failure
    outcomes = sorted((rec["repeat"], rec["grid_id"]) for rec in result.raw + result.failures)
    assert outcomes == sorted((r, gp.gid) for r in range(2) for gp in result.grid)
    assert all(isinstance(rec["error"], str) and rec["error"] for rec in result.failures)
