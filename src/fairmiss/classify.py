"""Linear base classifier, two fairness interventions, and a fair bagging
ensemble for data with missing values.

The in-processing intervention adds a smooth score-disparity penalty to the
logistic loss; the post-processing intervention tabulates the base
predictions by (group, base prediction, label), enumerates the vertices of
that table's randomized equalized-odds program (``metrics.fair_vertices``,
the exact oracle's program) and takes the least-flip vertex among the most
accurate ones. Every trained model is a ``LinearModel``: logistic weights
and, for eqodds, their flip rates. The bagging ensemble resamples within
(group, label) cells, imputes and indicator-encodes each bag separately,
trains one LinearModel per bag, and aggregates by a uniformly random pick or
by score averaging. Predictors read encoded rows only: a ``Dataset`` with no
missing cell whose feature names are its column tags (``fairmiss.encode``).
The caller encodes.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from . import metrics
from .data import Dataset, _integers, fair_resample, stream, stream_key
from .encode import encode_indicators
from .errors import ValidationError
from .impute import Imputer, make_imputer
from .optim import LAM, descend, logistic, make_objective

# conditioning labels whose group score gaps each penalty constraint penalizes
PENALTY_LABELS = {"mean-equalized-odds": (0, 1), "fnr-difference": (1,)}
ENSEMBLE_MODES = ("random-pick", "score-average")
THRESHOLD = 0.5  # a score at or above it predicts 1

log = logging.getLogger("fairmiss")


@dataclass(frozen=True)
class LinearModel:
    """A trained model: a logistic-score linear classifier over an encoded
    column set and, for eqodds, its flip rates. It reads encoded rows only."""

    weights: np.ndarray
    bias: float
    columns: tuple
    rates: PostprocessRates = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (len(self.columns),):
            raise ValidationError("weight length must match the column tags")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "columns", tuple(self.columns))

    def _base(self, enc: Dataset) -> np.ndarray:
        """The logistic score of each row, before any flip."""
        if enc.dimension != self.weights.shape[0]:
            raise ValidationError("matrix width does not match the model")
        # summed row by row, so a row's score does not depend on the other
        # rows scored with it; a BLAS matrix-vector product rounds each row
        # by the batch's shape
        z = (enc.features * self.weights).sum(axis=1) + self.bias
        undefined = np.isnan(z)  # a missing cell always makes its row's z NaN
        if undefined.any():
            raise ValidationError(f"row {int(np.argmax(undefined))} has a missing or "
                                  "infinite cell, so it has no score")
        return logistic(z)[0]

    def scores(self, enc: Dataset) -> np.ndarray:
        """Pr(output = 1) of each encoded row."""
        s = self._base(enc)
        if self.rates is None:
            return s
        base = (s >= THRESHOLD).astype(np.int64)
        flip = self.rates.flip_probs(enc.sensitive, base)
        return np.where(base == 1, 1.0 - flip, flip)

    def predict(self, enc: Dataset, seed: int) -> np.ndarray:
        """The labels of the encoded rows; eqodds flips draw with ``seed``."""
        preds = (self._base(enc) >= THRESHOLD).astype(np.int64)
        if self.rates is not None:
            preds = apply_postprocess(self.rates, preds, enc.sensitive, seed)
        return preds


def _check_training_data(enc: Dataset) -> None:
    if not np.isfinite(enc.features).all():
        raise ValidationError("training matrix contains non-finite values")
    if len(np.unique(enc.labels)) < 2:
        raise ValidationError("training data must contain both labels")


def _train(enc: Dataset, tau: float, constraint: str) -> LinearModel:
    _check_training_data(enc)
    labels = PENALTY_LABELS[constraint]
    if tau > 0:
        if len(enc.group_set) < 2:
            raise ValidationError("disparity penalty requires at least two groups")
        enc.require_cells(labels, "disparity penalty undefined")
    w0 = np.zeros(enc.dimension + 1)
    obj = make_objective(enc.features, enc.labels, LAM, tau, enc.cells(), labels)
    w, _, _ = descend(obj, w0)
    return LinearModel(w[:-1], float(w[-1]), enc.feature_names)


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


def eqodds_program(scores, ds) -> metrics.JointTable:
    """Validate the scores and tabulate their base predictions (scores at or
    above THRESHOLD predict 1): the joint table over (group, x, label) with
    x = 2 * group index + 1 - base prediction, whose x_values are those
    (group, base prediction) pairs. A classifier h on it is v = (a_g0, b_g0,
    a_g1, b_g1), where a_g and b_g are Pr(output 1 | group g, base
    prediction 1 and 0)."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != ds.labels.shape:
        raise ValidationError("score length must equal dataset size")
    groups = ds.group_set
    if len(groups) != 2:
        raise ValidationError("equalized-odds post-processing supports exactly 2 groups")
    if not ((scores >= 0.0) & (scores <= 1.0)).all():  # NaN fails too
        raise ValidationError("scores must lie in [0, 1]")
    g = np.searchsorted(groups, ds.sensitive)
    x = 2 * g + 1 - (scores >= THRESHOLD)
    ds.require_cells((0, 1), "rates undefined")
    counts = np.bincount(8 * g + 2 * x + ds.labels, minlength=16).reshape(2, 4, 2)
    pairs = tuple((group, b) for group in groups for b in (1, 0))
    return metrics.JointTable(groups, pairs, counts / ds.labels.shape[0])


_FLIP = np.array([-1.0, 1.0, -1.0, 1.0])  # flip mass of v, less its constant 2


def postprocess_eqodds(table: metrics.JointTable, epsilon: float) -> PostprocessRates:
    """Exact accuracy-optimal randomized equalized-odds repair for two groups.

    ``table`` is ``eqodds_program(scores, ds)``: the base prediction
    thresholds the scores at THRESHOLD. The output mixes each (group, base
    prediction) with probabilities v that maximize accuracy on the fitting
    data over the polytope |FPR gap| <= epsilon, |FNR gap| <= epsilon,
    0 <= v <= 1. Among the vertices within 1e-12 of that accuracy, it takes
    the one flipping the least mass, so an already fair base predictor stays
    untouched.

    ``metrics.fair_vertices`` lists the polytope's vertices: it is the exact
    oracle's program on this table. The least flip mass over the optimal
    face is taken at one of its vertices, which are vertices of the
    polytope, so no second program is needed. Ties in flip mass (within
    1e-13) go to the more accurate vertex, then to the first vertex in
    ``metrics._vertices``' order.
    """
    vertices, c, base = metrics.fair_vertices(table, epsilon)
    accuracy = vertices @ c
    face = vertices[accuracy >= accuracy.max() - 1e-12]
    mass = face @ _FLIP
    tied = np.flatnonzero(mass <= mass.min() + 1e-13)
    v = face[tied[np.argmax(face[tied] @ c)]]
    flip = {(g, b): float(1.0 - vx if b else vx) for (g, b), vx in zip(table.x_values, v)}
    log.debug("eqodds solve: epsilon %g, training accuracy %.6f -> %.6f, flip mass "
              "%.6f, %d vertices examined", epsilon, base + c[0] + c[2],
              base + float(v @ c), sum(flip.values()), len(vertices))
    return PostprocessRates(table.groups, flip)


def apply_postprocess(rates: PostprocessRates, base_predictions, sensitive,
                      seed: int) -> np.ndarray:
    """Randomize base predictions according to the fitted flip rates."""
    pred = np.asarray(base_predictions).astype(np.int64).copy()
    u = stream(seed).random(pred.shape[0])
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

    def __post_init__(self):
        if self.kind not in ("none", "penalty", "eqodds"):
            raise ValidationError(f"unknown intervention {self.kind!r}")
        if self.constraint not in PENALTY_LABELS:
            raise ValidationError(f"unknown penalty constraint {self.constraint!r}")
        if not (np.isfinite(self.tau) and self.tau >= 0):
            raise ValidationError(f"penalty weight tau must be finite and >= 0, got {self.tau}")
        metrics.check_epsilon(self.epsilon)


def train_intervention(enc: Dataset, interv: Intervention) -> LinearModel:
    """Fit the intervention's logistic model, with its flip rates for eqodds.

    The penalty is tau times the squared gap of per-group mean sigmoid scores
    within each conditioning label (both labels for mean-equalized-odds, the
    positive label for fnr-difference), so tau = 0 reduces exactly to the
    plain model of ``Intervention("none")``. eqodds fits the plain model and
    then its flip rates.
    """
    if interv.kind == "eqodds":
        return TrainingSet(enc).train(interv)
    tau = interv.tau if interv.kind == "penalty" else 0.0
    return _train(enc, tau, interv.constraint)


class TrainingSet:
    """An encoded training set that serves a whole intervention grid.

    ``train`` fits none and the penalty anew at each call. eqodds
    post-processes the plain model at every epsilon; that model and the
    table of its base predictions are built at the first eqodds call and
    kept, so a grid of epsilons trains the model and tallies the table once.
    """

    def __init__(self, enc: Dataset):
        self.enc = enc
        self._plain = None  # (plain LinearModel, its eqodds_program table)

    def train(self, interv: Intervention) -> LinearModel:
        """The LinearModel of ``train_intervention``."""
        if interv.kind != "eqodds":
            return train_intervention(self.enc, interv)
        if self._plain is None:
            model = train_intervention(self.enc, Intervention())
            self._plain = model, eqodds_program(model.scores(self.enc), self.enc)
        model, table = self._plain
        return replace(model, rates=postprocess_eqodds(table, interv.epsilon))


@dataclass(frozen=True)
class FairEnsemble:
    """One LinearModel per bag and the mode that aggregates them."""

    bags: tuple
    mode: str = "score-average"

    def __post_init__(self):
        if not self.bags:
            raise ValidationError("ensemble needs at least one model")
        if self.mode not in ENSEMBLE_MODES:
            raise ValidationError(f"unknown ensemble mode {self.mode!r}")
        if len({bag.columns for bag in self.bags}) > 1:
            raise ValidationError("ensemble members must share one column set")
        if len({bag.rates is None for bag in self.bags}) > 1:
            raise ValidationError("ensemble members must all carry flip rates, or none")
        object.__setattr__(self, "bags", tuple(self.bags))

    def predict(self, encodings: tuple, seed: int) -> np.ndarray:
        return predict_dataset(self, encodings, seed)


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
    train_encoded: Dataset
    training: TrainingSet

    def encode(self, ds: Dataset) -> Dataset:
        return encode_indicators(ds, imputer=self.imputer)


def draw_bags(train: Dataset, bags: int, imputer_spec: str = "mean",
              seed: int = 0) -> tuple:
    """The intervention-free half of fair bagging: for each bag b = 1..bags,
    resample within every (s, y) cell by ``fair_resample`` with key (seed, b)
    (its cell c draws from ``stream(seed, b, c)``), fit the imputer on that
    bag alone and indicator-encode the training split with it."""
    bags = int(_integers(bags, "bags"))
    if bags < 1:
        raise ValidationError("bag count must be >= 1")
    out = []
    for b in range(1, bags + 1):
        rows = fair_resample(train, stream_key(seed, b))
        imputer = make_imputer(imputer_spec).fit(train.subset(rows))
        enc = encode_indicators(train, imputer=imputer)
        out.append(Bag(rows, imputer, enc, TrainingSet(enc.subset(rows))))
    return tuple(out)


def train_fair_bagging(bags: tuple, intervention: Intervention,
                       mode: str = "score-average") -> FairEnsemble:
    """Cell-preserving bootstrap ensemble with per-bag imputation: the
    intervention trained on each of ``draw_bags``' bags."""
    return FairEnsemble(tuple(bag.training.train(intervention) for bag in bags), mode)


def predict_dataset(ens: FairEnsemble, encodings: tuple, seed: int) -> np.ndarray:
    """Predict every row from its per-bag encodings (bag b's ``Bag.encode``).

    Each row's Pr(output = 1) is one bag's score, a bag drawn uniformly per
    row (random-pick), or the mean of the bags' scores (score-average). Bags
    without flip rates threshold it; bags with eqodds rates draw the label
    from it, so either mode's expected group rates are the mean of its bags'.
    The bag picks are drawn from ``seed`` first, then the uniforms.
    """
    if len(encodings) != len(ens.bags):
        raise ValidationError(f"{len(ens.bags)} bags need as many encodings, got {len(encodings)}")
    if len({enc.n_samples for enc in encodings}) > 1:
        raise ValidationError("every bag's encoding must hold the same rows")
    scores = np.array([bag.scores(enc) for bag, enc in zip(ens.bags, encodings)])
    n = scores.shape[1]
    rng = stream(seed)
    if ens.mode == "random-pick":
        p = scores[rng.integers(0, len(ens.bags), size=n), np.arange(n)]
    else:
        p = scores.mean(axis=0)
    if ens.bags[0].rates is None:
        return (p >= THRESHOLD).astype(np.int64)
    return (rng.random(n) < p).astype(np.int64)
