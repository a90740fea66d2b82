"""Config-driven experiment runner.

Builds a pipeline (data source -> optional missingness injection -> encoding
method -> fairness intervention), sweeps the intervention's hyperparameter
grid, repeats over stratified train/test splits, aggregates mean and standard
error per grid point, and emits raw / summary / Pareto CSV files. Everything
is a deterministic function of the config and its master seed, and stage S
of repeat r draws from the stream of key (seed, S, r, ...). The exact table
(``theorem1`` source, ``samples = 0``) is one repeat of the same shape:
``exact_table_analysis`` gives one record of ``TABLE_METRICS`` per eqodds
epsilon, and the sweep's aggregation and CSV writer take those records.

Each repeat runs in two stages:

- ``fit_repeat``, once per repeat, is the only code that fits by the method
  name (``run_experiment`` also reads it, to check clustering's group bounds
  against the data's groups before the sweep). It fits what no grid point
  changes on the training split: the scaler, then the imputer or encoder
  (impute-then-classify, indicators, affine) or each bag's resample and
  imputer (fairmissbag, ``classify.draw_bags``). It encodes the training
  and test splits once (per bag for fairmissbag, zero-imputed for
  clustering), each encoding a ``data.Dataset`` with no missing cell whose
  feature names are its column tags. It returns them with the method's
  trainer, which maps an ``Intervention`` to a predictor whose
  ``predict(input, seed)`` reads a split as ``fit_repeat`` encoded it:
  - impute-then-classify, indicators and affine train a
    ``classify.LinearModel`` (``classify.TrainingSet.train``), whose eqodds
    flips draw with the given seed. eqodds post-processes one plain model per
    encoding and repeat, so each epsilon solves only its one vertex program.
  - fairmissbag trains the ``classify.FairEnsemble``, one LinearModel per bag
    (``classify.train_fair_bagging``).
  - clustering searches the missing-pattern partition of the training split
    (its holdout drawn with the repeat's ``HOLDOUT`` key) and gives a
    ``ClusterRouter``: one leaf predictor per cluster, leaf q drawing with
    key (seed, q). A leaf is a LinearModel trained on the rows of the
    zero-imputed training encoding that the search assigned it, or, when
    those rows carry a single label, a ``ConstantPredictor`` of that label
    (no model can be trained there, so neither the penalty nor eqodds applies
    to that leaf). The partition does not depend on the intervention, yet it
    is still searched at every grid point: searching it once per repeat
    changes which layer dominates the benchmark's clustering workload, and
    that move waits for the change that re-pins it (ROADMAP item 2).
- ``fit_pipeline``, once per grid point, calls the trainer with the grid
  point's intervention and scores the predictor on the training split.

``evaluate_pipeline`` predicts the encoded test split and scores it.
"""

from __future__ import annotations

import configparser
import functools
import logging
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import classify, data, encode, metrics, optim, simulate
from .errors import ConfigError, FairmissError, ValidationError
from .impute import make_imputer

log = logging.getLogger("fairmiss")

# stage ids S of the stream keys (seed, S, r, ...); balancing has no repeat r
SPLIT, MASK, TEST_MASK, BALANCE, BAG, HOLDOUT, TRAIN_PREDICT, EVALUATE = range(8)

# the [method] and [intervention] keys each choice reads besides its name; a
# key the chosen one does not read must keep its default
READS = {
    "method": {"impute-then-classify": ("imputer",), "indicators": (), "affine": (),
               "clustering": ("k_min", "alpha", "beta", "val_fraction"),
               "fairmissbag": ("imputer", "bags", "mode")},
    "intervention": {"none": (), "penalty": ("constraint", "tau"), "eqodds": ("epsilon",)},
}
METHODS = tuple(READS["method"])

METRIC_NAMES = ("train_accuracy", "test_accuracy", "fnr_diff", "fpr_diff", "meo")
TABLE_METRICS = ("f_eps_original", "f_eps_imputed_best", "gap", "mi_bits")
SUMMARY_COLUMNS = ("method", "grid_id", "params", "metric", "mean", "stderr")
PARETO_COLUMNS = (
    "method", "grid_id", "params",
    "test_accuracy_mean", "test_accuracy_stderr", "meo_mean", "meo_stderr",
)


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class DataConfig:
    source: str = "synthetic"
    path: str = ""
    schema: str = ""
    sensitive_values: tuple[str, ...] = ()
    balance: bool = False
    alpha0: float = 0.25
    alpha1: float = None  # theorem1 source: None = alpha0
    q0: float = 0.5
    samples: int = 0  # theorem1 source: 0 = exact-table mode


@dataclass
class MethodConfig:
    name: str = "indicators"
    imputer: str = "zero"
    k_min: int = 1
    alpha: float = 1.0
    beta: float = 0.0
    val_fraction: float = 0.0
    bags: int = 10
    mode: str = "score-average"


@dataclass
class InterventionConfig:
    name: str = "none"
    constraint: str = "mean-equalized-odds"  # or its alias meo | fnr
    tau: tuple[float, ...] = (0.01, 0.1, 1.0, 10.0, 100.0)
    epsilon: tuple[float, ...] = (0.0, 0.01, 0.1)


@dataclass
class SweepConfig:
    repeats: int = 1
    test_fraction: float = 0.3
    seed: int = 0
    inject_before_split: bool = False


@dataclass
class OutputConfig:
    dir: str = "results"


@dataclass
class ExperimentConfig:
    """One field per config section; each section's keys are the fields of
    its dataclass, except [missingness] (``mechanism`` and ``entryN`` lines)."""

    data: DataConfig = field(default_factory=DataConfig)
    missingness: simulate.MissingnessSpec = None
    method: MethodConfig = field(default_factory=MethodConfig)
    intervention: InterventionConfig = field(default_factory=InterventionConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    output: OutputConfig = field(default_factory=OutputConfig)


CONSTRAINT_ALIASES = {"meo": "mean-equalized-odds", "fnr": "fnr-difference"}


def _list_of(item):
    return lambda text: tuple(item(t.strip()) for t in text.split(",") if t.strip())


# field annotation -> (what the value must be, parser); a parser raises
# ValueError or KeyError on a malformed value
_VALUE_PARSERS = {
    str: ("a string", str.strip),
    int: ("an integer", int),
    float: ("a number", float),
    bool: ("true or false",
           lambda text: configparser.ConfigParser.BOOLEAN_STATES[text.lower()]),
    tuple[str, ...]: ("a comma-separated list", _list_of(str)),
    tuple[float, ...]: ("a comma-separated list of numbers", _list_of(float)),
}


def _read_section(name: str, cls, items: dict):
    """Build the section's dataclass, reading each key by its field's type;
    keys left out keep the field defaults."""
    types = typing.get_type_hints(cls)
    values = {}
    for key, text in items.items():
        if key not in types:
            raise ConfigError(f"[{name}] unknown key {key!r}")
        expected, parse = _VALUE_PARSERS[types[key]]
        try:
            values[key] = parse(text)
        except (KeyError, ValueError):
            raise ConfigError(f"[{name}] {key} = {text!r}: expected {expected}") from None
    return cls(**values)


def _parse_entry(value: str) -> simulate.MissingEntry:
    parts = [p.strip() for p in value.split(",")]
    if len(parts) != 4:
        raise ConfigError(
            f"missingness entry needs 'target, indicator, p0, p1': {value!r}"
        )
    target, ind, p0, p1 = parts
    try:
        threshold = None
        if ind.lower() == "none":
            ind = None
        elif "<" in ind:
            ind, tval = (t.strip() for t in ind.split("<", 1))
            threshold = float(tval)
        return simulate.MissingEntry(target, ind, float(p0), float(p1), threshold)
    except ValueError:
        raise ConfigError(f"missingness entry has a non-numeric value: {value!r}") from None


def _read_missingness(items: dict) -> simulate.MissingnessSpec:
    for key in items:
        if key != "mechanism" and not key.startswith("entry"):
            raise ConfigError(f"[missingness] unknown key {key!r}")
    entries = [_parse_entry(items[k]) for k in sorted(items) if k.startswith("entry")]
    try:
        return simulate.MissingnessSpec(
            items.get("mechanism", "").strip().lower(), tuple(entries)
        )
    except ValidationError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path) -> ExperimentConfig:
    """Read and validate an experiment config. A ``;`` after whitespace
    starts a comment, also after a value."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    try:
        text = data.read_text(path, ConfigError)
    except OSError:
        raise ConfigError(f"cannot read config file {path}") from None
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from None
    types = typing.get_type_hints(ExperimentConfig)
    sections = {}
    for name in parser.sections():
        if name not in types:
            raise ConfigError(f"unknown config section [{name}]")
        items = dict(parser[name])
        sections[name] = (_read_missingness(items) if name == "missingness"
                          else _read_section(name, types[name], items))
    cfg = ExperimentConfig(**sections)
    validate_config(cfg)
    return cfg


def validate_config(cfg: ExperimentConfig) -> None:
    if cfg.data.source not in ("csv", "synthetic", "theorem1"):
        raise ConfigError(f"unknown data source {cfg.data.source!r}")
    if cfg.data.source == "csv":
        for role, path in (("csv", cfg.data.path), ("schema", cfg.data.schema)):
            if not path or not Path(path).exists():
                raise ConfigError(f"{role} path {path!r} does not exist")
            if not Path(path).is_file():
                raise ConfigError(f"{role} path {path!r} is not a regular file")
    if cfg.method.name not in METHODS:
        raise ConfigError(f"unknown method {cfg.method.name!r}")
    if cfg.method.mode not in classify.ENSEMBLE_MODES:
        raise ConfigError(f"unknown ensemble mode {cfg.method.mode!r}")
    m = cfg.method
    if m.k_min < 1:
        raise ConfigError(f"k_min must be >= 1, got {m.k_min}")
    if m.bags < 1:
        raise ConfigError(f"bags must be >= 1, got {m.bags}")
    if not 0.0 <= m.val_fraction < 1.0:
        raise ConfigError(f"val_fraction must lie in [0, 1), got {m.val_fraction}")
    # the 1/|S| bound between them needs the data: run_experiment checks it
    if not 0.0 <= m.beta <= m.alpha <= 1.0:
        raise ConfigError(f"need 0 <= beta <= alpha <= 1, got alpha={m.alpha}, beta={m.beta}")
    try:
        make_imputer(cfg.method.imputer)
        data.stream_key(cfg.sweep.seed)
        grid = grid_points(cfg.intervention)
        if cfg.data.source == "theorem1":
            _masked_positives(cfg.data)
    except ValidationError as exc:
        raise ConfigError(str(exc)) from None
    if not grid:
        raise ConfigError(f"{cfg.intervention.name} intervention needs a non-empty grid")
    if cfg.sweep.repeats < 1:
        raise ConfigError("repeats must be >= 1")
    if not 0.0 < cfg.sweep.test_fraction < 1.0:
        raise ConfigError("test_fraction must lie strictly between 0 and 1")
    if cfg.data.source == "theorem1" and cfg.data.samples < 0:
        raise ConfigError("samples must be >= 0")
    if cfg.data.source == "theorem1" and cfg.data.samples == 0:
        # a section the exact table would ignore: it has no rows and no model
        table = "the exact table (source = theorem1, samples = 0)"
        if cfg.missingness is not None:
            raise ConfigError(f"[missingness]: {table} has no rows to mask")
        if cfg.method != MethodConfig():
            raise ConfigError(f"[method]: {table} trains no model; leave the section out")
        if cfg.intervention.name == "penalty":
            raise ConfigError(f"[intervention] name = penalty: {table} takes eqodds or none")
    for section, reads in READS.items():
        chosen = getattr(cfg, section)
        default = vars(type(chosen)())
        for key, value in vars(chosen).items():
            if key != "name" and key not in reads[chosen.name] and value != default[key]:
                raise ConfigError(f"[{section}] {key}: {section} {chosen.name!r} does not "
                                  "read it; leave it out")
    if cfg.data.source == "csv":  # the loader's header check, without the rows
        schema = data.read_schema(cfg.data.schema)
        data.read_header(cfg.data.path, schema)
        names = tuple(c for c, role in schema.items() if role == "feature")
    elif cfg.data.source == "synthetic":
        names = simulate.SYNTHETIC_FEATURES
    else:
        names = simulate.MASKED_POSITIVES_FEATURES
    if cfg.missingness is not None:
        for e in cfg.missingness.entries:
            columns = {"target": e.target}
            if e.indicator not in (None, simulate.LABEL_INDICATOR):
                columns["indicator"] = e.indicator
            for role, col in columns.items():
                if col not in names:
                    raise ConfigError(f"missingness {role} column {col!r} is not a feature "
                                      f"of the {cfg.data.source} data: {', '.join(names)}")


# ---------------------------------------------------------------------------
# grid and pipelines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridPoint:
    gid: str
    label: str  # "tau=0.1", "epsilon=0", "" for none
    intervention: classify.Intervention


def grid_points(icfg: InterventionConfig) -> list:
    """One grid point per tau (penalty) or epsilon (eqodds), one for none.
    Raises ValidationError for an invalid intervention."""
    constraint = CONSTRAINT_ALIASES.get(icfg.constraint, icfg.constraint)
    param = {"penalty": "tau", "eqodds": "epsilon"}.get(icfg.name)
    if param is None:
        return [GridPoint("g0", "", classify.Intervention(icfg.name, constraint=constraint))]
    return [
        GridPoint(f"g{i}", f"{param}={_fmt(v)}",
                  classify.Intervention(icfg.name, constraint=constraint, **{param: v}))
        for i, v in enumerate(getattr(icfg, param))
    ]


@dataclass(frozen=True)
class ConstantPredictor:
    """Predicts one label everywhere: the model of a label-pure cluster."""

    label: int

    def predict(self, enc: data.Dataset, seed: int) -> np.ndarray:
        return np.full(enc.n_samples, self.label, dtype=np.int64)


@dataclass(frozen=True)
class ClusterRouter:
    """Routes each row to its cluster's leaf predictor; leaf q draws with
    key (seed, q).

    Leaf policy: a label-pure leaf is a ``ConstantPredictor``. A leaf that
    lacks a group, or a cell its intervention needs (eqodds and the meo
    penalty all four, the fnr penalty the y = 1 cells), fails the whole grid
    point by ``Dataset.require_cells``, and ``run_experiment`` records it."""

    partition: encode.ClusterPartition
    leaves: tuple

    def predict(self, split: tuple, seed: int) -> np.ndarray:
        """``split`` is (a scaled split, whose mask routes its rows, and that
        split's zero-imputed encoding, which the leaves read)."""
        ds, enc = split
        assignments = self.partition.assign_dataset(ds)
        preds = np.empty(enc.n_samples, dtype=np.int64)
        for q, leaf in enumerate(self.leaves):
            rows = np.flatnonzero(assignments == q)
            if rows.size:
                preds[rows] = leaf.predict(enc.subset(rows), data.stream_key(seed, q))
        return preds


def _fit_leaf(enc: data.Dataset, interv: classify.Intervention):
    labels = np.unique(enc.labels)
    if labels.size == 1:
        return ConstantPredictor(int(labels[0]))
    return classify.train_intervention(enc, interv)


def _train_clusters(train: data.Dataset, enc: data.Dataset, method: MethodConfig,
                    seed: int, interv: classify.Intervention) -> ClusterRouter:
    """Search the missing-pattern partition of the scaled training split and
    fit each leaf on the zero-imputed encoding of the rows the search gave it."""
    part = encode.cluster_missing_patterns(train, method.k_min, method.alpha, method.beta,
                                           val_fraction=method.val_fraction, seed=seed)
    return ClusterRouter(part, tuple(_fit_leaf(enc.subset(leaf.rows), interv)
                                     for leaf in part.leaves))


@dataclass
class RepeatFit:
    """The per-repeat stage: what one training split fixes for every grid
    point. It is fitted on the training rows alone; the test split is only
    scaled and encoded with it."""

    train: data.Dataset   # both splits scaled
    test: data.Dataset
    train_input: object   # each split as the predictors' predict reads it
    test_input: object
    trainer: typing.Callable  # Intervention -> predictor with predict(input, seed)


def fit_repeat(train: data.Dataset, test: data.Dataset, cfg: ExperimentConfig,
               seed: int, r: int = 0) -> RepeatFit:
    scaler = data.FeatureScaler().fit(train)
    train, test = scaler.transform(train), scaler.transform(test)
    name = cfg.method.name
    if name == "clustering":
        enc = encode.encode_plain(train)
        return RepeatFit(train, test, (train, enc), (test, encode.encode_plain(test)),
                         functools.partial(_train_clusters, train, enc, cfg.method,
                                           (seed, HOLDOUT, r)))
    if name == "fairmissbag":
        bags = classify.draw_bags(train, cfg.method.bags, cfg.method.imputer, (seed, BAG, r))
        return RepeatFit(train, test, tuple(bag.train_encoded for bag in bags),
                         tuple(bag.encode(test) for bag in bags),
                         functools.partial(classify.train_fair_bagging, bags,
                                           mode=cfg.method.mode))
    if name == "impute-then-classify":
        imputer = make_imputer(cfg.method.imputer).fit(train)
        encoder = lambda ds: encode.encode_plain(ds, imputer)
    elif name == "indicators":
        encoder = encode.encode_indicators
    elif name == "affine":
        encoder = encode.AffineEncoder().fit(train).transform
    else:
        raise ConfigError(f"unknown method {name!r}")
    enc = encoder(train)
    return RepeatFit(train, test, enc, encoder(test), classify.TrainingSet(enc).train)


@dataclass
class FittedPipeline:
    """One grid point's predictor, trained on the repeat's training split."""

    predictor: object  # predict(input, seed) -> labels
    train_accuracy: float


def fit_pipeline(rep: RepeatFit, gp: GridPoint, seed: int) -> FittedPipeline:
    predictor = rep.trainer(gp.intervention)
    preds = predictor.predict(rep.train_input, seed)
    return FittedPipeline(predictor, metrics.accuracy(preds, rep.train))


def evaluate_pipeline(fp: FittedPipeline, rep: RepeatFit, seed: int) -> dict:
    preds = fp.predictor.predict(rep.test_input, seed)
    rates = metrics.group_rates(preds, rep.test)
    return {
        "train_accuracy": fp.train_accuracy,
        "test_accuracy": metrics.accuracy(preds, rep.test),
        "fnr_diff": metrics.disparity(rates, "fnr-diff"),
        "fpr_diff": metrics.disparity(rates, "fpr-diff"),
        "meo": metrics.disparity(rates, "meo"),
    }


# ---------------------------------------------------------------------------
# experiment driver
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    method: str
    grid: list
    raw: list            # dicts: grid_id, params, repeat, metrics...; grid-major
    aggregated: dict     # gid -> {metric: (mean, stderr)}, in grid order
    pareto: list         # gids surviving Pareto filtering
    failures: list       # dicts: repeat, grid_id, error; one per (repeat, grid
    # point) without a raw record
    metrics: tuple = METRIC_NAMES  # TABLE_METRICS for the exact table

    @property
    def succeeded(self) -> bool:
        done = {rec["grid_id"] for rec in self.raw}
        return all(gp.gid in done for gp in self.grid)


def _load_source(cfg: ExperimentConfig):
    d = cfg.data
    if d.source == "csv":
        schema = data.read_schema(d.schema)
        return data.load_csv(d.path, schema, d.sensitive_values or None)
    if d.source == "synthetic":
        return simulate.gen_synthetic(cfg.sweep.seed)
    dist = _masked_positives(d)
    if d.samples > 0:
        return simulate.sample_masked_positives(dist, d.samples, cfg.sweep.seed)
    return dist


def _masked_positives(d: DataConfig) -> simulate.MaskedPositives:
    alpha1 = d.alpha0 if d.alpha1 is None else d.alpha1
    return simulate.MaskedPositives((d.alpha0, alpha1), (d.q0, 1.0 - d.q0))


def exact_table_analysis(dist: simulate.MaskedPositives, epsilons) -> list:
    """Constrained-accuracy values on the exact table versus its imputations.

    One dict of ``TABLE_METRICS`` per tolerance: the exact optimum on the
    original table, the best optimum over imputations mapping the missing
    symbol to 1 with probability p on an 11-point grid, and their gap.
    ``mi_bits`` is the exact mutual information between the missing
    indicator and the label.
    """
    table = simulate.masked_positives_table(dist)
    mi_bits = table.mutual_info_my()
    rows = []
    for eps in epsilons:
        f_orig, _ = metrics.best_fair_accuracy(table, eps)
        f_imp = max(
            metrics.best_fair_accuracy(table.impute_na(p), eps)[0]
            for p in np.linspace(0.0, 1.0, 11)
        )
        rows.append({"f_eps_original": f_orig, "f_eps_imputed_best": f_imp,
                     "gap": f_orig - f_imp, "mi_bits": mi_bits})
    return rows


def _mean_stderr(vals) -> tuple:
    v = np.asarray(vals, dtype=np.float64)
    mean = float(np.mean(v))
    stderr = float(np.std(v, ddof=1) / np.sqrt(v.size)) if v.size > 1 else 0.0
    return mean, stderr


def sweep_and_aggregate(raw: list, names=METRIC_NAMES) -> dict:
    """Mean and standard error (sample stddev / sqrt(n)) of each metric in
    ``names``, per grid id of the ``raw`` records in their order there. A
    grid point is averaged over the records that cover it, in that order.
    """
    by_gid = {}
    for rec in raw:
        by_gid.setdefault(rec["grid_id"], []).append(rec)
    return {gid: {m: _mean_stderr([rec[m] for rec in recs]) for m in names}
            for gid, recs in by_gid.items()}


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    validate_config(cfg)
    source = _load_source(cfg)

    if isinstance(source, simulate.MaskedPositives):  # one exact repeat
        eps = cfg.intervention.epsilon if cfg.intervention.name == "eqodds" else (0.0,)
        grid = grid_points(InterventionConfig("eqodds", epsilon=eps))
        raw = [{"grid_id": gp.gid, "params": gp.label, "repeat": 0, **rec}
               for gp, rec in zip(grid, exact_table_analysis(source, eps))]
        result = RunResult("exact-table", grid, raw, sweep_and_aggregate(raw, TABLE_METRICS),
                           [], [], TABLE_METRICS)
        _write_outputs(_output_dir(cfg), result)
        return result

    grid = grid_points(cfg.intervention)
    # every method fits with L-BFGS-B: a scipy without it is one error, not
    # one failure per grid point
    optim.load_lbfgsb()
    ds = source
    # a stratified training split holds every group of the data (each
    # non-empty (group, label) cell gives it a row), so bounds that rule the
    # data's groups out would fail every grid point of every repeat
    if cfg.method.name == "clustering" and ds.n_samples:
        try:
            encode.check_group_bounds(cfg.method.alpha, cfg.method.beta, len(ds.group_set))
        except ValidationError as exc:
            raise ConfigError(f"clustering: {exc}") from None
    seed = cfg.sweep.seed
    if cfg.data.balance:
        ds = data.balance_cells(ds, (seed, BALANCE))

    out = _output_dir(cfg)  # before the sweep, which may run long
    raw, failures = [], []

    def fail(r, gid, exc):
        log.warning("repeat %d grid %s aborted: %s", r, gid, exc)
        failures.append({"repeat": r, "grid_id": gid, "error": str(exc)})

    for r in range(cfg.sweep.repeats):
        try:
            ds_r = ds
            if cfg.missingness is not None and cfg.sweep.inject_before_split:
                ds_r = simulate.inject_missing(ds_r, cfg.missingness, (seed, MASK, r))
            train, test = data.split_train_test(ds_r, cfg.sweep.test_fraction, (seed, SPLIT, r))
            if cfg.missingness is not None and not cfg.sweep.inject_before_split:
                train = simulate.inject_missing(train, cfg.missingness, (seed, MASK, r))
                test = simulate.inject_missing(test, cfg.missingness, (seed, TEST_MASK, r))
            rep = fit_repeat(train, test, cfg, seed, r)
        except FairmissError as exc:
            # every grid point would split, mask and fit this stage alike
            for gp in grid:
                fail(r, gp.gid, exc)
            continue
        for g_idx, gp in enumerate(grid):
            try:
                fitted = fit_pipeline(rep, gp, (seed, TRAIN_PREDICT, r))
                scores = evaluate_pipeline(fitted, rep, (seed, EVALUATE, r, g_idx))
                raw.append({"grid_id": gp.gid, "params": gp.label, "repeat": r, **scores})
            except FairmissError as exc:
                fail(r, gp.gid, exc)

    position = {gp.gid: i for i, gp in enumerate(grid)}
    raw.sort(key=lambda rec: position[rec["grid_id"]])  # stable: repeats stay in order
    aggregated = sweep_and_aggregate(raw)
    pareto_gids = _pareto_gids(grid, aggregated)
    result = RunResult(cfg.method.name, grid, raw, aggregated, pareto_gids, failures)
    _write_outputs(out, result)
    return result


def _pareto_gids(grid, aggregated) -> list:
    points = []
    for gp in grid:
        if gp.gid not in aggregated:
            continue
        agg = aggregated[gp.gid]
        points.append(
            metrics.TradeoffPoint(agg["test_accuracy"][0], agg["meo"][0],
                                  provenance=(("grid_id", gp.gid),))
        )
    frontier = metrics.pareto_frontier(points)
    kept = {dict(p.provenance)["grid_id"] for p in frontier}
    return [gp.gid for gp in grid if gp.gid in kept]


def _write_csv(path: Path, header: tuple, rows) -> None:
    """One header line, then one line per row of already formatted fields."""
    lines = [",".join(header)] + [",".join(row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _output_dir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.output.dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {cfg.output.dir!r}: "
                          f"{exc.strerror}") from None
    return out


def _write_outputs(out: Path, result: RunResult) -> None:
    by_gid = {gp.gid: gp for gp in result.grid}
    _write_csv(out / "raw.csv", ("method", "grid_id", "params", "repeat") + result.metrics, (
        [result.method, rec["grid_id"], rec["params"], str(rec["repeat"])]
        + [_fmt(rec[m]) for m in result.metrics]
        for rec in result.raw
    ))
    _write_csv(out / "summary.csv", SUMMARY_COLUMNS, (
        [result.method, gid, by_gid[gid].label, m, *map(_fmt, agg[m])]
        for gid, agg in result.aggregated.items() for m in result.metrics
    ))
    _write_csv(out / "pareto.csv", PARETO_COLUMNS, (
        [result.method, gid, by_gid[gid].label,
         *map(_fmt, result.aggregated[gid]["test_accuracy"]),
         *map(_fmt, result.aggregated[gid]["meo"])]
        for gid in result.pareto
    ))
