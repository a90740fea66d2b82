"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL
line with its runtime. Run with ``pytest -s tests/test_acceptance.py`` to see
the lines as they complete."""

import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from fairmiss import classify, data, harness, metrics, simulate
from fairmiss.classify import (
    PENALTY_LABELS,
    Intervention,
    train_intervention,
)
from fairmiss.encode import cluster_missing_patterns, encode_indicators, encode_plain
from fairmiss.impute import ZeroImputer
from fairmiss.optim import make_objective
from fairmiss.metrics import (
    TradeoffPoint,
    best_fair_accuracy,
    pareto_frontier,
)
from fairmiss.simulate import MaskedPositives, masked_positives_table

from conftest import random_dataset
from oracles import (
    binary_entropy,
    conditional_entropy,
    entropy,
    train_logreg,
    uniform_mixture_rates,
)


@contextmanager
def criterion(number, title, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"[FAIL] criterion {number}: {title} ({elapsed:.2f}s)", file=sys.stderr)
        raise
    elapsed = time.perf_counter() - start
    print(f"[PASS] criterion {number}: {title} ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.1f}s"
    )


def test_criterion_1_exact_imputation_gap():
    with criterion(1, "exact accuracy gap of impute-then-classify", 1.0):
        table = masked_positives_table(MaskedPositives((0.25, 0.25), (0.5, 0.5)))
        f_orig, _ = best_fair_accuracy(table, 0.0)
        assert f_orig == pytest.approx(1.0, abs=1e-9)
        best_imputed = max(
            best_fair_accuracy(table.impute_na(p), 0.0)[0]
            for p in np.linspace(0.0, 1.0, 11)
        )
        assert best_imputed == pytest.approx(0.75, abs=1e-6)
        for a in (0.05, 0.1, 0.2, 0.3):
            t = masked_positives_table(MaskedPositives((a, a), (0.5, 0.5)))
            f0, _ = best_fair_accuracy(t, 0.0)
            fi = max(
                best_fair_accuracy(t.impute_na(p), 0.0)[0]
                for p in np.linspace(0.0, 1.0, 11)
            )
            assert f0 - fi == pytest.approx(a, abs=1e-6)
            assert t.mutual_info_my() == pytest.approx(binary_entropy(a), abs=1e-9)


def _clustered_penalty_run(seed, tau):
    ds = simulate.gen_synthetic(seed)
    train, test = data.split_train_test(ds, 0.3, seed)
    scaler = data.FeatureScaler().fit(train)
    train, test = scaler.transform(train), scaler.transform(test)
    part = cluster_missing_patterns(train, k_min=1, alpha=1.0, beta=0.0)
    assign_tr = part.assign_dataset(train)
    assign_te = part.assign_dataset(test)
    preds = np.empty(test.n_samples, dtype=np.int64)
    for q in range(part.n_clusters):
        enc_tr = encode_plain(train.subset(np.flatnonzero(assign_tr == q)), ZeroImputer())
        model = train_intervention(enc_tr, Intervention("penalty", tau=tau))
        rows = np.flatnonzero(assign_te == q)
        enc_te = encode_plain(test.subset(rows), ZeroImputer())
        preds[rows] = model.predict(enc_te, 0)
    rates = metrics.group_rates(preds, test)
    return metrics.accuracy(preds, test), metrics.disparity(rates, "meo")


def _baseline_eqodds_run(seed, eps):
    ds = simulate.gen_synthetic(seed)
    train, test = data.split_train_test(ds, 0.3, seed)
    scaler = data.FeatureScaler().fit(train)
    train, test = scaler.transform(train), scaler.transform(test)
    enc_tr = encode_plain(train, ZeroImputer())
    model = classify.train_intervention(enc_tr, Intervention("eqodds", epsilon=eps))
    preds = model.predict(encode_plain(test, ZeroImputer()), seed + 977)
    grates = metrics.group_rates(preds, test)
    return metrics.accuracy(preds, test), metrics.disparity(grates, "meo")


def test_criterion_2_synthetic_clustering_beats_baseline():
    with criterion(2, "missing-pattern clustering on the synthetic data", 60.0):
        seeds = range(5)
        taus = (0.01, 0.1, 1.0, 10.0, 100.0)
        by_tau = {}
        for tau in taus:
            runs = [_clustered_penalty_run(s, tau) for s in seeds]
            by_tau[tau] = (
                float(np.mean([r[0] for r in runs])),
                float(np.mean([r[1] for r in runs])),
            )
        good = [v for v in by_tau.values() if v[0] >= 0.95 and v[1] <= 0.06]
        assert good, f"no grid point reached the target: {by_tau}"

        # impute-then-classify with zero imputation, repaired into the same
        # fairness band by the exact post-processor
        baseline = {}
        for eps in (0.0, 0.02, 0.05):
            runs = [_baseline_eqodds_run(s, eps) for s in seeds]
            baseline[eps] = (
                float(np.mean([r[0] for r in runs])),
                float(np.mean([r[1] for r in runs])),
            )
        comparable = [v for v in baseline.values() if v[1] <= 0.1]
        assert comparable, f"baseline never reached the fairness band: {baseline}"
        assert max(v[0] for v in comparable) <= 0.85, baseline


def _mnar_dataset(seed, n=4000, delta=0.25, gamma=0.5):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n)
    s = rng.integers(0, 2, n)
    cols = [(2 * y - 1) * delta + rng.normal(0, 1, n) for _ in range(4)]
    cols.append((2 * y - 1) * gamma + rng.normal(0, 1, n))
    ds = data.Dataset(np.column_stack(cols), s, y, ("x1", "x2", "x3", "x4", "x5"))
    spec = simulate.MissingnessSpec(
        "mnar", (simulate.MissingEntry("x5", "label", 0.1, 0.4),)
    )
    return simulate.inject_missing(ds, spec, seed * 7 + 1)


def test_criterion_3_mnar_indicator_advantage():
    with criterion(3, "indicator encoding beats imputation under MNAR", 120.0):
        ind, base = [], []
        for seed in range(10):
            ds = _mnar_dataset(seed)
            train, test = data.split_train_test(ds, 0.3, seed)
            scaler = data.FeatureScaler().fit(train)
            train, test = scaler.transform(train), scaler.transform(test)

            model = train_logreg(encode_indicators(train))
            preds = model.predict(encode_indicators(test), 0)
            rates = metrics.group_rates(preds, test)
            ind.append((metrics.accuracy(preds, test),
                        metrics.disparity(rates, "meo")))

            model = train_logreg(encode_plain(train, ZeroImputer()))
            preds = model.predict(encode_plain(test, ZeroImputer()), 0)
            rates = metrics.group_rates(preds, test)
            base.append((metrics.accuracy(preds, test),
                         metrics.disparity(rates, "meo")))
        ind_acc = float(np.mean([r[0] for r in ind]))
        base_acc = float(np.mean([r[0] for r in base]))
        ind_meo = float(np.mean([r[1] for r in ind]))
        base_meo = float(np.mean([r[1] for r in base]))
        # both pipelines sit in the same fairness band (group-symmetric data)
        assert ind_meo <= 0.1 and base_meo <= 0.1
        assert ind_acc - base_acc >= 0.02, (ind_acc, base_acc)


def test_criterion_4_random_pick_preserves_fairness():
    with criterion(4, "uniform random-pick ensembles keep the member bound", 1.0):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            eps = float(rng.random() * 0.3)
            k = int(rng.integers(1, 8))
            tables = []
            for _ in range(k):
                t = {}
                for y in (0, 1):
                    r = rng.random()
                    lo, hi = max(0.0, r - eps / 2), min(1.0, r + eps / 2)
                    t[(0, y)] = float(rng.uniform(lo, hi))
                    t[(1, y)] = float(rng.uniform(lo, hi))
                tables.append(t)
            assert all(
                abs(t[(0, y)] - t[(1, y)]) <= eps for t in tables for y in (0, 1)
            )
            mix = uniform_mixture_rates(tables)
            viol = max(abs(mix[(0, y)] - mix[(1, y)]) for y in (0, 1))
            assert viol <= eps + 1e-12


def test_criterion_5_split_loss_monotonicity():
    with criterion(5, "accepted splits always lower the training loss", 60.0):
        rng = np.random.default_rng(99)
        checked = 0
        for _ in range(50):
            n = int(rng.integers(40, 110))
            d = int(rng.integers(2, 5))
            ds = random_dataset(rng, n=n, d=d, missing_rate=float(rng.uniform(0.1, 0.4)))
            part = cluster_missing_patterns(ds, k_min=1, alpha=1.0, beta=0.0)
            for rec in part.splits:
                assert rec.children_loss < rec.parent_loss + 1e-6
                checked += 1
        assert checked > 0


def test_criterion_6_information_preservation_and_fano():
    with criterion(6, "zero-impute+mask keeps all label information", 5.0):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(20, 60))
            d = int(rng.integers(1, 4))
            x = rng.integers(0, 3, size=(n, d)).astype(float)
            x[rng.random((n, d)) < 0.35] = np.nan
            y = rng.integers(0, 2, n)
            ds = data.Dataset(x, rng.integers(0, 2, n), y)
            enc = encode_indicators(ds)
            orig_cols = [x[:, j] for j in range(d)]
            enc_cols = [enc.features[:, j] for j in range(2 * d)]
            imputed_only = [enc.features[:, j] for j in range(d)]
            h_y = entropy(y)
            mi_orig = h_y - conditional_entropy(y, orig_cols)
            mi_enc = h_y - conditional_entropy(y, enc_cols)
            assert mi_enc == pytest.approx(mi_orig, abs=1e-10)
            assert (
                conditional_entropy(y, enc_cols)
                <= conditional_entropy(y, imputed_only) + 1e-12
            )


def test_criterion_7_mechanical_invariants():
    with criterion(7, "resampling, Pareto, gradients, tau=0 reduction", 30.0):
        rng = np.random.default_rng(31)
        # (a) fair resampling preserves every cell count, 1000 datasets
        for _ in range(1000):
            n = int(rng.integers(8, 30))
            ds = random_dataset(rng, n=n, d=2, missing_rate=0.2)
            out = ds.subset(data.fair_resample(ds, int(rng.integers(0, 10_000))))
            for (cell_a, idx_a), (cell_b, idx_b) in zip(ds.cells(), out.cells()):
                assert cell_a == cell_b and len(idx_a) == len(idx_b)

        # (b) pareto filter equals the quadratic oracle, 200 point sets
        for _ in range(200):
            n = int(rng.integers(1, 60))
            pts = [
                TradeoffPoint(float(a), float(b))
                for a, b in zip(rng.integers(0, 9, n) / 8.0, rng.integers(0, 9, n) / 8.0)
            ]
            got = [(p.accuracy, p.disparity) for p in pareto_frontier(pts)]
            oracle = sorted(
                {
                    (p.accuracy, p.disparity)
                    for p in pts
                    if not any(
                        (q.accuracy >= p.accuracy and q.disparity <= p.disparity)
                        and (q.accuracy > p.accuracy or q.disparity < p.disparity)
                        for q in pts
                    )
                }
            )
            assert got == oracle

        # (c) analytic gradients match central differences at 20 points each
        enc = data.Dataset(
            rng.normal(size=(50, 3)),
            rng.integers(0, 2, 50),
            rng.integers(0, 2, 50),
            ("orig:a", "orig:b", "orig:c"),
        )
        for tau, constraint in ((0.0, "mean-equalized-odds"), (3.0, "mean-equalized-odds")):
            f = make_objective(enc.features, enc.labels, 1e-4, tau, enc.cells(),
                               PENALTY_LABELS[constraint])
            for _ in range(20):
                w = rng.normal(scale=0.7, size=4)
                _, grad = f(w)
                fd = np.zeros_like(w)
                for i in range(w.size):
                    e = np.zeros_like(w)
                    e[i] = 1e-6
                    fd[i] = (f(w + e)[0] - f(w - e)[0]) / 2e-6
                assert np.linalg.norm(grad - fd) <= 1e-5 * max(np.linalg.norm(fd), 1.0)

        # (d) tau = 0 penalty training is bit-identical to plain training
        for _ in range(5):
            enc = data.Dataset(
                rng.normal(size=(40, 2)),
                rng.integers(0, 2, 40),
                rng.integers(0, 2, 40),
                ("orig:a", "orig:b"),
            )
            plain = train_logreg(enc)
            pen = train_intervention(enc, Intervention("penalty", tau=0.0))
            assert np.array_equal(plain.weights, pen.weights)
            assert plain.bias == pen.bias


def test_criterion_8_harness_determinism(tmp_path):
    with criterion(8, "identical master seed gives byte-identical CSVs", 60.0):
        body = """
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
seed = 9

[output]
dir = {out}
"""
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            cfg_path = tmp_path / f"{tag}.cfg"
            cfg_path.write_text(body.format(out=out))
            harness.run_experiment(harness.load_config(cfg_path))
            outs.append(out)
        for name in ("raw.csv", "summary.csv", "pareto.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
