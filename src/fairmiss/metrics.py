"""Fairness/accuracy metrics, Pareto filtering, and exact joint tables with
their mask-label mutual information (in bits) and constrained-accuracy oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import SolverError, ValidationError

DISPARITY_KINDS = ("fnr-diff", "fpr-diff", "meo")


def accuracy(predictions, ds: Dataset) -> float:
    pred = np.asarray(predictions).astype(np.int64)
    if pred.shape != ds.labels.shape:
        raise ValidationError("prediction length must equal dataset size")
    return float(np.mean(pred == ds.labels))


def group_rates(predictions, ds: Dataset) -> dict:
    """(s, y) -> empirical Pr(prediction = 1 | s, y), in ``ds.cells()``
    order; errors on empty cells."""
    pred = np.asarray(predictions).astype(np.int64)
    if pred.shape != ds.labels.shape:
        raise ValidationError("prediction length must equal dataset size")
    table = {}
    for (s, y), idx in ds.cells():
        if len(idx) == 0:
            raise ValidationError(f"empty cell (s={s}, y={y}): rates undefined")
        table[(s, y)] = float(np.mean(pred[idx] == 1))
    return table


def _max_gap(vals: list) -> float:
    return max(abs(a - b) for a in vals for b in vals)


def disparity(rates: dict, kind: str) -> float:
    """Group disparity of a ``group_rates`` table.

    fnr-diff / fpr-diff: largest pairwise gap of that rate (FNR = 1 - the
    rate of the y = 1 cell, FPR = the rate of the y = 0 cell); meo: their
    mean.
    """
    if kind not in DISPARITY_KINDS:
        raise ValidationError(f"unknown disparity kind {kind!r}")
    if len({s for s, _ in rates}) < 2:
        raise ValidationError("disparity requires at least two groups")
    fnr_gap = _max_gap([1.0 - r for (_, y), r in rates.items() if y == 1])
    fpr_gap = _max_gap([r for (_, y), r in rates.items() if y == 0])
    if kind == "fnr-diff":
        return fnr_gap
    if kind == "fpr-diff":
        return fpr_gap
    return 0.5 * (fnr_gap + fpr_gap)


def check_epsilon(epsilon: float) -> None:
    """The equalized-odds tolerance rule: finite and >= 0."""
    if not (np.isfinite(epsilon) and epsilon >= 0):
        raise ValidationError(f"epsilon must be finite and >= 0, got {epsilon}")


# ---------------------------------------------------------------------------
# exact joint tables over (s, x, y)
# ---------------------------------------------------------------------------

NA = None  # sentinel for a missing feature value inside a JointTable domain


@dataclass(frozen=True)
class JointTable:
    """Exact joint distribution over (group, single feature value, label).

    ``x_values`` is the finite feature domain; ``None`` denotes the missing
    symbol. ``probs[si, xi, y]`` sums to 1.
    """

    groups: tuple
    x_values: tuple
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p.shape != (len(self.groups), len(self.x_values), 2):
            raise ValidationError("probs must have shape (|S|, |X|, 2)")
        # written so that NaN fails each check
        if not (p >= -1e-12).all():
            raise ValidationError("joint table has a negative or NaN cell")
        if not abs(p.sum() - 1.0) <= 1e-9:
            raise ValidationError(f"joint table sums to {p.sum()}, expected 1")
        p = np.clip(p, 0.0, None)
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "groups", tuple(self.groups))
        object.__setattr__(self, "x_values", tuple(self.x_values))

    def mutual_info_my(self) -> float:
        """Exact I(M; Y) in bits, M = indicator that x is the missing symbol."""
        na = np.array([v is None for v in self.x_values])
        joint = np.zeros((2, 2))
        for m in (0, 1):
            sel = na if m else ~na
            joint[m] = self.probs[:, sel, :].sum(axis=(0, 1))
        py = joint.sum(axis=0)
        pm = joint.sum(axis=1)
        mi = 0.0
        for m in (0, 1):
            for y in (0, 1):
                if joint[m, y] > 0:
                    mi += joint[m, y] * np.log2(joint[m, y] / (pm[m] * py[y]))
        return float(mi)

    def impute_na(self, p_one: float) -> "JointTable":
        """Map the missing symbol to 1 with probability ``p_one``, else to 0.

        p_one = 0 and 1 are the deterministic single-point imputations; interior
        values are their randomized mixtures.
        """
        if not 0.0 <= p_one <= 1.0:
            raise ValidationError("p_one must lie in [0, 1]")
        if not any(v is None for v in self.x_values):
            return self
        values = [v for v in self.x_values if v is not None]
        for needed in (0.0, 1.0):
            if needed not in values:
                values.append(needed)
        values = sorted(values)
        probs = np.zeros((len(self.groups), len(values), 2))
        for xi, v in enumerate(self.x_values):
            if v is None:
                probs[:, values.index(1.0), :] += p_one * self.probs[:, xi, :]
                probs[:, values.index(0.0), :] += (1.0 - p_one) * self.probs[:, xi, :]
            else:
                probs[:, values.index(v), :] += self.probs[:, xi, :]
        return JointTable(self.groups, tuple(values), probs)


def best_fair_accuracy(table: JointTable, epsilon: float):
    """Exact optimum of accuracy over randomized classifiers h: x -> Pr(y=1|x)
    subject to equalized odds with tolerance ``epsilon``.

    Solved as a linear program with one variable per feature-domain point and
    a pair of gap constraints per (label, group pair); pairs whose conditioning
    cell has zero probability are skipped. Returns (value, h) with h the
    optimal per-value acceptance probabilities.
    """
    from scipy.optimize import linprog  # scipy.optimize is slow to import

    if len(table.x_values) > 16:
        raise ValidationError("feature domain too large for the exact oracle")
    check_epsilon(epsilon)
    n = len(table.x_values)
    p_xy1 = table.probs[:, :, 1].sum(axis=0)
    p_xy0 = table.probs[:, :, 0].sum(axis=0)
    c = p_xy1 - p_xy0  # coefficient of h_x in the accuracy
    base = float(p_xy0.sum())

    rows, rhs = [], []
    p_sy = table.probs.sum(axis=1)  # (|S|, 2)
    for y in (0, 1):
        for i in range(len(table.groups)):
            for j in range(i + 1, len(table.groups)):
                if p_sy[i, y] <= 0 or p_sy[j, y] <= 0:
                    continue
                a = table.probs[i, :, y] / p_sy[i, y] - table.probs[j, :, y] / p_sy[j, y]
                rows.append(a)
                rhs.append(epsilon)
                rows.append(-a)
                rhs.append(epsilon)
    a_ub = np.array(rows) if rows else None
    b_ub = np.array(rhs) if rows else None
    res = linprog(-c, A_ub=a_ub, b_ub=b_ub, bounds=[(0.0, 1.0)] * n, method="highs")
    if not res.success:
        raise SolverError(f"constrained-accuracy LP failed: {res.message}")
    h = np.clip(res.x, 0.0, 1.0)
    value = base + float(c @ h)
    return value, h


# ---------------------------------------------------------------------------
# Pareto filtering
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TradeoffPoint:
    """A (accuracy, disparity) outcome plus the hyperparameters that made it."""

    accuracy: float
    disparity: float
    provenance: tuple = ()

    def __post_init__(self):
        if not (0.0 <= self.accuracy <= 1.0 and 0.0 <= self.disparity <= 1.0):
            raise ValidationError("accuracy and disparity must lie in [0, 1]")


def pareto_frontier(points) -> list:
    """Points not dominated by any other (higher-or-equal accuracy and
    lower-or-equal disparity, strict in one). Exact duplicates are kept once.
    Result is ordered by accuracy ascending."""
    seen = set()
    unique = []
    for p in points:
        key = (p.accuracy, p.disparity)
        if key not in seen:
            seen.add(key)
            unique.append(p)
    order = sorted(range(len(unique)),
                   key=lambda i: (-unique[i].accuracy, unique[i].disparity))
    kept = []
    best_disp = np.inf
    for i in order:
        p = unique[i]
        if p.disparity < best_disp:
            kept.append(p)
            best_disp = p.disparity
    kept.reverse()
    return kept
