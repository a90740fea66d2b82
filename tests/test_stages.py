"""The two stages of a repeat (``fit_repeat`` once, ``fit_pipeline`` per grid
point) against ``reference_pipeline``, which refits everything at every grid
point, and counts of the work the per-repeat stage shares."""

from dataclasses import replace

import numpy as np
import pytest

from fairmiss import classify, encode
from fairmiss.data import (
    Dataset,
    FeatureScaler,
    fair_resample,
    load_csv,
    read_schema,
    split_train_test,
    write_csv,
)
from fairmiss.encode import AffineEncoder, cluster_missing_patterns, encode_indicators, encode_plain
from fairmiss.errors import FairmissError
from fairmiss.harness import grid_points, load_config, run_experiment
from fairmiss.impute import Imputer, make_imputer
from fairmiss.metrics import accuracy, disparity, group_rates
from fairmiss.simulate import gen_synthetic, inject_missing

INTERVENTIONS = {
    "none": "name = none",
    "penalty-meo": "name = penalty\nconstraint = meo\ntau = 0.1, 10",
    "penalty-fnr": "name = penalty\nconstraint = fnr\ntau = 0.1",
    "eqodds": "name = eqodds\nepsilon = 0, 0.05",
}

METHODS = {
    "itc-mean": "name = impute-then-classify\nimputer = mean",
    "itc-knn": "name = impute-then-classify\nimputer = knn:3",
    "itc-iterative": "name = impute-then-classify\nimputer = iterative:3",
    "indicators": "name = indicators",
    "affine": "name = affine",
    "clustering": "name = clustering\nk_min = 20",
    "bag-random-pick": "name = fairmissbag\nimputer = mean\nbags = 3\nmode = random-pick",
    "bag-score-average": "name = fairmissbag\nimputer = knn:3\nbags = 2\nmode = score-average",
    "bag-random-pick-knn": "name = fairmissbag\nimputer = knn:3\nbags = 2\nmode = random-pick",
}

MNAR = """
[missingness]
mechanism = mnar
entry1 = x3, label, 0.2, 0.6
entry2 = x2, x1<0, 0.2, 0.5
entry3 = x4, label, 0.1, 0.3
"""


def _linear_predict(model, enc, seed):
    """The model's labels, its flips applied here to the plain model's."""
    preds = replace(model, rates=None).predict(enc, seed)
    if model.rates is not None:
        preds = classify.apply_postprocess(model.rates, preds, enc.sensitive, seed)
    return preds


def _reference_clustering(train, cfg, interv, seed):
    """The partition and one model per leaf (a label-pure leaf predicts its
    label), each leaf encoded anew; leaf q draws with seed + q."""
    part = cluster_missing_patterns(
        train, cfg.method.k_min, cfg.method.alpha, cfg.method.beta,
        val_fraction=cfg.method.val_fraction, seed=seed,
    )
    assignments = part.assign_dataset(train)
    leaves = []
    for q in range(part.n_clusters):
        leaf = train.subset(np.flatnonzero(assignments == q))
        labels = np.unique(leaf.labels)
        leaves.append(int(labels[0]) if labels.size == 1
                      else classify.train_intervention(encode_plain(leaf), interv))

    def predict(ds, s):
        routed = part.assign_dataset(ds)
        preds = np.empty(ds.n_samples, dtype=np.int64)
        for q, leaf in enumerate(leaves):
            rows = np.flatnonzero(routed == q)
            if rows.size and isinstance(leaf, int):
                preds[rows] = leaf
            elif rows.size:
                preds[rows] = _linear_predict(leaf, encode_plain(ds.subset(rows)), s + q)
        return preds

    return predict


def _bag_scores(imputer, model, ds):
    s = replace(model, rates=None).scores(encode_indicators(ds, imputer=imputer))
    if model.rates is None:
        return s
    base = (s >= 0.5).astype(np.int64)
    flip = model.rates.flip_probs(ds.sensitive, base)
    return np.where(base == 1, 1.0 - flip, flip)


def _reference_bagging(bags, mode, ds, seed):
    rng = np.random.default_rng(seed)
    if mode == "score-average":
        # the mean Pr(output = 1): thresholded without flip rates, drawn from with them
        p = np.mean([_bag_scores(*bag, ds) for bag in bags], axis=0)
        if bags[0][1].rates is None:
            return (p >= 0.5).astype(np.int64)
        return (rng.random(ds.n_samples) < p).astype(np.int64)
    picks = rng.integers(0, len(bags), size=ds.n_samples)
    u = rng.random(ds.n_samples)
    out = np.empty(ds.n_samples, dtype=np.int64)
    for b, (imputer, model) in enumerate(bags):
        sel = picks == b
        if sel.any():
            scores = _bag_scores(imputer, model, ds.subset(np.flatnonzero(sel)))
            out[sel] = scores >= 0.5 if model.rates is None else u[sel] < scores
    return out


def reference_pipeline(train, test, cfg, gp, seed, eval_seed) -> dict:
    """One grid point fitted from scratch: scaler, imputer or encoder and every
    bag refitted, and every predicted row set encoded anew."""
    scaler = FeatureScaler().fit(train)
    train, test = scaler.transform(train), scaler.transform(test)
    interv = gp.intervention
    name = cfg.method.name
    if name == "clustering":
        predict = _reference_clustering(train, cfg, interv, seed)
    elif name == "fairmissbag":
        bags = []
        for b in range(1, cfg.method.bags + 1):
            bag = train.subset(fair_resample(train, seed + b))
            imputer = make_imputer(cfg.method.imputer).fit(bag)
            enc = encode_indicators(bag, imputer=imputer)
            bags.append((imputer, classify.train_intervention(enc, interv)))
        predict = lambda ds, s: _reference_bagging(bags, cfg.method.mode, ds, s)  # noqa: E731
    else:
        if name == "impute-then-classify":
            imputer = make_imputer(cfg.method.imputer).fit(train)
            encoder = lambda ds: encode_plain(ds, imputer)  # noqa: E731
        elif name == "indicators":
            encoder = encode_indicators
        else:
            encoder = AffineEncoder().fit(train).transform
        model = classify.train_intervention(encoder(train), interv)
        predict = lambda ds, s: _linear_predict(model, encoder(ds), s)  # noqa: E731
    train_preds = predict(train, seed)
    preds = predict(test, eval_seed)
    rates = group_rates(preds, test)
    return {
        "train_accuracy": accuracy(train_preds, train),
        "test_accuracy": accuracy(preds, test),
        "fnr_diff": disparity(rates, "fnr-diff"),
        "fpr_diff": disparity(rates, "fpr-diff"),
        "meo": disparity(rates, "meo"),
    }


def reference_experiment(cfg, ds) -> dict:
    """(repeat, grid id) -> metrics or error message, with run_experiment's
    splits and seeds (masking after the split)."""
    out = {}
    for r in range(cfg.sweep.repeats):
        seed_r = cfg.sweep.seed + r
        train, test = split_train_test(ds, cfg.sweep.test_fraction, seed_r)
        if cfg.missingness is not None:
            train = inject_missing(train, cfg.missingness, seed_r * 1000)
            test = inject_missing(test, cfg.missingness, seed_r * 1000 + 500)
        for g, gp in enumerate(grid_points(cfg.intervention)):
            try:
                out[(r, gp.gid)] = reference_pipeline(
                    train, test, cfg, gp, seed_r, seed_r * 1000 + 700 + g
                )
            except FairmissError as exc:
                out[(r, gp.gid)] = str(exc)
    return out


def experiment(result) -> dict:
    out = {(f["repeat"], f["grid_id"]): f["error"] for f in result.failures}
    for rec in result.raw:
        out[(rec["repeat"], rec["grid_id"])] = {
            k: v for k, v in rec.items() if k not in ("grid_id", "params", "repeat")
        }
    return out


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    """name -> [data] and [missingness] config sections: a quarter of the
    synthetic data, and an MNAR-masked CSV."""
    d = tmp_path_factory.mktemp("stages")
    synth = gen_synthetic(0)
    synth = synth.subset(np.arange(0, synth.n_samples, 4))
    write_csv(synth, d / "synth.csv")
    (d / "synth.schema").write_text(
        "x1 = feature\nx2 = feature\nsensitive = sensitive\nlabel = label\n"
    )
    rng = np.random.default_rng(8)
    n = 360
    s = (rng.random(n) < 0.45).astype(np.int64)
    y = (rng.random(n) < np.where(s == 1, 0.55, 0.4)).astype(np.int64)
    x = rng.normal(size=(n, 4)) + (2.0 * y - 1.0)[:, None] * np.array([0.5, 0.3, 0.4, 0.2])
    x[:, 1] += 0.6 * s
    write_csv(Dataset(x, s, y), d / "mnar.csv")
    (d / "mnar.schema").write_text(
        "".join(f"x{j} = feature\n" for j in range(1, 5))
        + "sensitive = sensitive\nlabel = label\n"
    )
    out = {}
    for name, extra in (("synth", ""), ("mnar", MNAR)):
        body = f"[data]\nsource = csv\npath = {d / name}.csv\nschema = {d / name}.schema\n"
        out[name] = body + extra
    return out


def load(tmp_path, sections, method, intervention):
    body = (
        f"{sections}\n[method]\n{method}\n\n[intervention]\n{intervention}\n\n"
        f"[sweep]\nrepeats = 2\nseed = 3\n\n[output]\ndir = {tmp_path / 'out'}\n"
    )
    (tmp_path / "exp.cfg").write_text(body)
    return load_config(tmp_path / "exp.cfg")


def source_dataset(cfg):
    return load_csv(cfg.data.path, read_schema(cfg.data.schema))


@pytest.mark.parametrize("method", sorted(METHODS))
@pytest.mark.parametrize("source", ["synth", "mnar"])
def test_stages_equal_the_reference_pipeline(tmp_path, sources, source, method):
    for name, interv in INTERVENTIONS.items():
        cfg = load(tmp_path, sources[source], METHODS[method], interv)
        got = experiment(run_experiment(cfg))
        want = reference_experiment(cfg, source_dataset(cfg))
        assert got == want, name
        assert len(got) == 2 * len(grid_points(cfg.intervention))


@pytest.mark.parametrize("method", ["itc-knn", "bag-random-pick-knn"])
def test_a_failing_repeat_stage_fails_every_grid_point_as_before(tmp_path, sources, method):
    cfg = load(tmp_path, sources["mnar"], METHODS[method].replace("knn:3", "knn:1000"),
               INTERVENTIONS["penalty-meo"])
    result = run_experiment(cfg)
    assert [(f["repeat"], f["grid_id"]) for f in result.failures] == [
        (0, "g0"), (0, "g1"), (1, "g0"), (1, "g1")
    ]
    assert all(f["error"] == "k=1000 exceeds the 252 training rows" for f in result.failures)
    assert experiment(result) == reference_experiment(cfg, source_dataset(cfg))


def count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize(
    "intervention",
    ["name = none", "name = penalty\ntau = 0.1, 10", "name = eqodds\nepsilon = 0, 0.02, 0.05, 0.1"],
)
def test_imputer_transforms_twice_per_bag_per_repeat(tmp_path, sources, monkeypatch,
                                                     intervention):
    calls = count_calls(monkeypatch, Imputer, "transform")
    cfg = load(tmp_path, sources["mnar"], METHODS["bag-random-pick"], intervention)
    assert run_experiment(cfg).succeeded
    assert len(calls) == 2 * 3 * 2  # training and test split, 3 bags, 2 repeats


@pytest.mark.parametrize("method, models", [("bag-random-pick", 3), ("itc-knn", 1)])
def test_eqodds_trains_one_plain_model_per_bag_per_repeat(tmp_path, sources, monkeypatch,
                                                          method, models):
    trained = count_calls(monkeypatch, classify, "train_intervention")
    solved = count_calls(monkeypatch, classify, "postprocess_eqodds")
    cfg = load(tmp_path, sources["mnar"], METHODS[method],
               "name = eqodds\nepsilon = 0, 0.02, 0.05, 0.1")
    assert run_experiment(cfg).succeeded
    assert len(trained) == models * 2
    assert all(interv.kind == "none" for _, interv in trained)
    assert len(solved) == models * 2 * 4


@pytest.mark.parametrize("method, intervention", [
    ("name = clustering\nk_min = 1", "name = penalty\ntau = 0.1, 10"),
    ("name = clustering\nk_min = 20", "name = none"),
    ("name = clustering\nk_min = 20", "name = eqodds\nepsilon = 0, 0.02, 0.05, 0.1"),
])
def test_clustering_encodes_each_split_once_per_repeat(tmp_path, sources, monkeypatch,
                                                       method, intervention):
    calls = count_calls(monkeypatch, encode, "encode_plain")
    cfg = load(tmp_path, sources["synth"], method, intervention)
    assert run_experiment(cfg).raw
    assert len(calls) == 2 * 2  # training and test split, 2 repeats


@pytest.mark.parametrize("intervention", ["name = penalty\ntau = 0.1, 10", "name = none"])
def test_clustering_routes_each_split_once_per_grid_point(tmp_path, sources, monkeypatch,
                                                          intervention):
    calls = count_calls(monkeypatch, encode.ClusterPartition, "assign_dataset")
    cfg = load(tmp_path, sources["synth"], "name = clustering\nk_min = 20", intervention)
    assert run_experiment(cfg).succeeded
    sizes = [ds.n_samples for _, ds in calls]
    # per grid point of each of 2 repeats: the training split (for its leaves
    # and its accuracy), then the test split
    assert len(sizes) == 2 * 2 * len(grid_points(cfg.intervention))
    assert sizes[0::2] == [sizes[0]] * (len(sizes) // 2)
    assert sizes[1::2] == [sizes[1]] * (len(sizes) // 2)
    assert sizes[0] > sizes[1]
