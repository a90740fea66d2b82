"""Linear base classifier, two fairness interventions, and a fair bagging
ensemble for data with missing values.

The in-processing intervention adds a smooth score-disparity penalty to the
logistic loss; the post-processing intervention solves the small randomized
equalized-odds program exactly as two linear programs. The bagging ensemble
resamples within (group, label) cells, imputes and indicator-encodes each bag
separately, and aggregates by a uniformly random pick or by score averaging.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .data import Dataset, fair_resample
from .encode import EncodedDataset, encode_indicators
from .errors import SolverError, ValidationError
from .impute import Imputer, make_imputer
from .optim import OptimizerSettings, descend, logistic, make_objective

# conditioning labels whose group score gaps each penalty constraint penalizes
PENALTY_LABELS = {"mean-equalized-odds": (0, 1), "fnr-difference": (1,)}
ENSEMBLE_MODES = ("random-pick", "score-average")


@dataclass(frozen=True)
class LinearModel:
    """Logistic-score linear classifier over an encoded column set."""

    weights: np.ndarray
    bias: float
    columns: tuple
    threshold: float = 0.5

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (len(self.columns),):
            raise ValidationError("weight length must match the column tags")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "columns", tuple(self.columns))

    def scores(self, matrix: np.ndarray) -> np.ndarray:
        m = np.asarray(matrix, dtype=np.float64)
        if m.ndim == 1:
            m = m[None, :]
        if m.shape[1] != self.weights.shape[0]:
            raise ValidationError("matrix width does not match the model")
        # summed row by row, so a row's score does not depend on the other
        # rows scored with it; a BLAS matrix-vector product rounds each row
        # by the batch's shape
        return logistic((m * self.weights).sum(axis=1) + self.bias)[0]

    def predict(self, matrix: np.ndarray) -> np.ndarray:
        return (self.scores(matrix) >= self.threshold).astype(np.int64)

    def to_text(self) -> str:
        lines = [f"bias {float(self.bias)!r}", f"threshold {float(self.threshold)!r}"]
        lines += [f"{tag} {float(w)!r}" for tag, w in zip(self.columns, self.weights)]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "LinearModel":
        bias, threshold, tags, weights = 0.0, 0.5, [], []
        for ln in text.splitlines():
            if not ln.strip():
                continue
            key, val = ln.rsplit(None, 1)
            if key == "bias":
                bias = float(val)
            elif key == "threshold":
                threshold = float(val)
            else:
                tags.append(key)
                weights.append(float(val))
        return cls(np.array(weights), bias, tuple(tags), threshold)


def _check_training_data(enc: EncodedDataset) -> None:
    if not np.isfinite(enc.matrix).all():
        raise ValidationError("training matrix contains non-finite values")
    if len(np.unique(enc.labels)) < 2:
        raise ValidationError("training data must contain both labels")


def _train(enc: EncodedDataset, tau: float, constraint: str,
           settings: OptimizerSettings) -> LinearModel:
    _check_training_data(enc)
    if tau > 0 and len(enc.group_set) < 2:
        raise ValidationError("disparity penalty requires at least two groups")
    w0 = np.zeros(enc.matrix.shape[1] + 1)
    obj = make_objective(enc.matrix, enc.labels, settings.lam, tau, enc.cells(),
                         PENALTY_LABELS[constraint])
    w, _, _ = descend(obj, w0, settings.tol, settings.max_iters)
    return LinearModel(w[:-1], float(w[-1]), enc.columns)


# ---------------------------------------------------------------------------
# exact randomized equalized-odds post-processing (two groups)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PostprocessRates:
    """Per-(group, base prediction) flip probabilities."""

    groups: tuple
    flip: dict

    def flip_probs(self, sensitive, base_predictions) -> np.ndarray:
        """Flip probability of each row, looked up by (group, base prediction)."""
        sens = np.asarray(sensitive)
        pred = np.asarray(base_predictions)
        groups = np.array(sorted(self.groups))
        at = np.minimum(np.searchsorted(groups, sens), groups.size - 1)
        unknown = groups[at] != sens
        if unknown.any():
            raise ValidationError(f"group {sens[unknown][0]} has no flip rates")
        if not np.isin(pred, (0, 1)).all():
            raise ValidationError("base predictions must be 0 or 1")
        table = np.array([[self.flip[(int(g), 0)], self.flip[(int(g), 1)]] for g in groups])
        return table[at, pred.astype(np.intp)]


def postprocess_eqodds(scores, ds, epsilon: float) -> PostprocessRates:
    """Exact accuracy-optimal randomized equalized-odds repair for two groups.

    The base prediction thresholds the given scores at 0.5; the output mixes
    each (group, base prediction) with probabilities chosen by a linear
    program over the feasible polytope (|FPR gap| <= epsilon, |FNR gap| <=
    epsilon) that maximizes accuracy on the fitting data. A second program
    then takes, among points within 1e-12 of that accuracy, the one flipping
    the least mass, so an already fair base predictor stays untouched.
    """
    from scipy.optimize import linprog  # scipy.optimize is slow to import

    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != ds.labels.shape:
        raise ValidationError("score length must equal dataset size")
    if epsilon < 0:
        raise ValidationError("epsilon must be non-negative")
    groups = ds.group_set
    if len(groups) != 2:
        raise ValidationError("equalized-odds post-processing supports exactly 2 groups")
    if scores.min() < 0.0 or scores.max() > 1.0:
        raise ValidationError("scores must lie in [0, 1]")
    base = metrics.rate_table((scores >= 0.5).astype(np.int64), ds)
    n = ds.labels.shape[0]
    p_sy = {cell: idx.size / n for cell, idx in ds.cells()}

    # variables v = (a_g0, b_g0, a_g1, b_g1): Pr(output 1 | group, base pred 1/0)
    def rate_row(s_i, y):
        r = base[(groups[s_i], y)]
        row = np.zeros(4)
        row[2 * s_i] = r
        row[2 * s_i + 1] = 1.0 - r
        return row

    tpr0, tpr1 = rate_row(0, 1), rate_row(1, 1)
    fpr0, fpr1 = rate_row(0, 0), rate_row(1, 0)
    a_gap = np.array([tpr0 - tpr1, tpr1 - tpr0, fpr0 - fpr1, fpr1 - fpr0])
    b_gap = np.full(4, float(epsilon))
    obj = (
        p_sy[(groups[0], 1)] * tpr0
        + p_sy[(groups[1], 1)] * tpr1
        - p_sy[(groups[0], 0)] * fpr0
        - p_sy[(groups[1], 0)] * fpr1
    )
    bounds = [(0.0, 1.0)] * 4
    best = linprog(-obj, A_ub=a_gap, b_ub=b_gap, bounds=bounds, method="highs")
    if not best.success:
        raise SolverError(f"equalized-odds LP failed: {best.message}")
    # flip mass (1 - a_g0) + b_g0 + (1 - a_g1) + b_g1, up to its constant
    least = linprog(
        np.array([-1.0, 1.0, -1.0, 1.0]),
        A_ub=np.vstack([a_gap, -obj]),
        b_ub=np.append(b_gap, best.fun + 1e-12),
        bounds=bounds,
        method="highs",
    )
    if not least.success:
        raise SolverError(f"equalized-odds least-flip LP failed: {least.message}")
    v = np.clip(least.x, 0.0, 1.0)
    flip = {
        (groups[0], 1): float(1.0 - v[0]),
        (groups[0], 0): float(v[1]),
        (groups[1], 1): float(1.0 - v[2]),
        (groups[1], 0): float(v[3]),
    }
    return PostprocessRates((groups[0], groups[1]), flip)


def apply_postprocess(rates: PostprocessRates, base_predictions, sensitive,
                      seed: int) -> np.ndarray:
    """Randomize base predictions according to the fitted flip rates."""
    pred = np.asarray(base_predictions).astype(np.int64).copy()
    rng = np.random.default_rng(seed)
    u = rng.random(pred.shape[0])
    return np.where(u < rates.flip_probs(sensitive, pred), 1 - pred, pred)


# ---------------------------------------------------------------------------
# fair bagging ensemble
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Intervention:
    """One validated fairness intervention: ``none``, ``penalty`` (weight
    ``tau`` on the ``constraint`` penalty) or ``eqodds`` (post-processing to
    tolerance ``epsilon``). Each kind ignores the other kinds' parameters."""

    kind: str = "none"
    tau: float = 0.0
    constraint: str = "mean-equalized-odds"
    epsilon: float = 0.1
    settings: OptimizerSettings = field(default_factory=OptimizerSettings)

    def __post_init__(self):
        if self.kind not in ("none", "penalty", "eqodds"):
            raise ValidationError(f"unknown intervention {self.kind!r}")
        if self.constraint not in PENALTY_LABELS:
            raise ValidationError(f"unknown penalty constraint {self.constraint!r}")
        if not (np.isfinite(self.tau) and self.tau >= 0):
            raise ValidationError(f"penalty weight tau must be finite and >= 0, got {self.tau}")
        if not (np.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValidationError(f"epsilon must be finite and >= 0, got {self.epsilon}")


def train_intervention(enc: EncodedDataset, interv: Intervention):
    """Fit the intervention's logistic model; returns (LinearModel,
    PostprocessRates or None).

    The penalty is tau times the squared gap of per-group mean sigmoid scores
    within each conditioning label (both labels for mean-equalized-odds, the
    positive label for fnr-difference), so tau = 0 reduces exactly to the
    plain model of ``Intervention("none")``. eqodds fits the plain model and
    then its flip rates.
    """
    if interv.kind == "eqodds":
        return TrainingSet(enc).train(interv)
    tau = interv.tau if interv.kind == "penalty" else 0.0
    return _train(enc, tau, interv.constraint, interv.settings), None


class TrainingSet:
    """An encoded training set that serves a whole intervention grid.

    ``train`` fits none and the penalty anew at each call. eqodds
    post-processes the plain model at every epsilon; that model is fitted at
    the first eqodds call and kept (one per optimizer settings), so a grid of
    epsilons trains it once.
    """

    def __init__(self, enc: EncodedDataset):
        self.enc = enc
        self._plain = {}  # OptimizerSettings -> plain LinearModel

    def train(self, interv: Intervention):
        """(LinearModel, PostprocessRates or None), as ``train_intervention``."""
        if interv.kind != "eqodds":
            return train_intervention(self.enc, interv)
        if interv.settings not in self._plain:
            plain = Intervention(settings=interv.settings)
            self._plain[interv.settings] = train_intervention(self.enc, plain)[0]
        model = self._plain[interv.settings]
        return model, postprocess_eqodds(model.scores(self.enc.matrix), self.enc, interv.epsilon)


@dataclass(frozen=True)
class BagModel:
    imputer: object
    model: LinearModel
    rates: PostprocessRates = None

    def encode(self, ds: Dataset) -> EncodedDataset:
        return encode_indicators(ds, imputer=self.imputer)

    def scores(self, enc: EncodedDataset) -> np.ndarray:
        """Pr(output = 1) of each row of this bag's encoding."""
        s = self.model.scores(enc.matrix)
        if self.rates is None:
            return s
        base = (s >= self.model.threshold).astype(np.int64)
        flip = self.rates.flip_probs(enc.sensitive, base)
        return np.where(base == 1, 1.0 - flip, flip)


@dataclass(frozen=True)
class FairEnsemble:
    bags: tuple
    mode: str = "score-average"

    def __post_init__(self):
        if not self.bags:
            raise ValidationError("ensemble needs at least one model")
        if self.mode not in ENSEMBLE_MODES:
            raise ValidationError(f"unknown ensemble mode {self.mode!r}")
        if len({bag.model.columns for bag in self.bags}) > 1:
            raise ValidationError("ensemble members must share one column set")
        object.__setattr__(self, "bags", tuple(self.bags))

    @property
    def n_bags(self) -> int:
        return len(self.bags)

    def encode(self, ds: Dataset) -> tuple:
        """Every bag's encoding of ``ds``, the input of ``predict_encoded``."""
        return tuple(bag.encode(ds) for bag in self.bags)

    def predict(self, ds: Dataset, seed: int) -> np.ndarray:
        return self.predict_encoded(self.encode(ds), seed)

    def predict_encoded(self, encodings: tuple, seed: int) -> np.ndarray:
        return predict_dataset(self, encodings, seed)

    def to_text(self) -> str:
        """Audit dump: mode, then each bag's imputer name, weights, and any
        post-processing flip rates. Imputer statistics are not serialized, so
        this is for inspection rather than reconstruction."""
        lines = [f"mode {self.mode}", f"bags {self.n_bags}"]
        for i, bag in enumerate(self.bags):
            lines.append(f"bag {i} imputer={bag.imputer.name}")
            lines.append(bag.model.to_text().rstrip("\n"))
            if bag.rates is not None:
                for (s, p), f in sorted(bag.rates.flip.items()):
                    lines.append(f"flip s={s} base={p} {float(f)!r}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Bag:
    """One bag of the ensemble before any intervention is trained on it.

    ``rows`` are its rows of the training split, ``imputer`` is fitted on
    those rows alone, and ``train_encoded`` is that imputer's indicator
    encoding of the whole training split. The bag trains on ``training``,
    those rows of ``train_encoded``: every imputer fills a row from that row
    alone, so they equal the encoding of the resampled rows.
    """

    rows: np.ndarray
    imputer: Imputer
    train_encoded: EncodedDataset
    training: TrainingSet

    def encode(self, ds: Dataset) -> EncodedDataset:
        return encode_indicators(ds, imputer=self.imputer)


def draw_bags(train: Dataset, bags: int, imputer_spec: str = "mean",
              seed: int = 0) -> tuple:
    """The intervention-free half of fair bagging: for each bag b = 1..bags,
    resample within every (s, y) cell with seed + b, fit the imputer on that
    bag alone and indicator-encode the training split with it."""
    if bags < 1:
        raise ValidationError("bag count must be >= 1")
    out = []
    for b in range(1, bags + 1):
        rows = fair_resample(train, seed + b)
        imputer = make_imputer(imputer_spec).fit(train.subset(rows))
        enc = encode_indicators(train, imputer=imputer)
        out.append(Bag(rows, imputer, enc, TrainingSet(enc.subset(rows))))
    return tuple(out)


def train_fair_bagging(bags: tuple, intervention: Intervention,
                       mode: str = "score-average") -> FairEnsemble:
    """Cell-preserving bootstrap ensemble with per-bag imputation: the
    intervention trained on each of ``draw_bags``' bags."""
    return FairEnsemble(
        tuple(BagModel(bag.imputer, *bag.training.train(intervention)) for bag in bags), mode
    )


def ensemble_scores(ens: FairEnsemble, encodings: tuple) -> np.ndarray:
    """Mean of the per-bag scores."""
    return np.mean([bag.scores(enc) for bag, enc in zip(ens.bags, encodings)], axis=0)


def predict_dataset(ens: FairEnsemble, encodings: tuple, seed: int) -> np.ndarray:
    """Predict every row from its per-bag encodings (``FairEnsemble.encode``):
    random-pick draws one bag per row (then that bag's possibly randomized
    label); score-average thresholds the mean score."""
    if len(encodings) != ens.n_bags:
        raise ValidationError(f"{ens.n_bags} bags need as many encodings, got {len(encodings)}")
    if ens.mode == "score-average":
        return (ensemble_scores(ens, encodings) >= 0.5).astype(np.int64)
    n = encodings[0].n_samples
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, ens.n_bags, size=n)
    out = np.empty(n, dtype=np.int64)
    u = rng.random(n)
    for b, (bag, enc) in enumerate(zip(ens.bags, encodings)):
        sel = picks == b
        if not sel.any():
            continue
        scores = bag.scores(enc.subset(np.flatnonzero(sel)))
        if bag.rates is None:
            out[sel] = (scores >= bag.model.threshold).astype(np.int64)
        else:
            out[sel] = (u[sel] < scores).astype(np.int64)
    return out
