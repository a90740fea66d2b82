"""Fairness/accuracy metrics, Pareto filtering, and exact joint tables with
their mask-label mutual information (in bits) and their equalized-odds
program, which both the constrained-accuracy oracle and eqodds
post-processing solve.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from .data import Dataset
from .errors import ValidationError

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
    ds.require_cells((0, 1), "rates undefined")
    return {cell: float(np.mean(pred[idx] == 1)) for cell, idx in ds.cells()}


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


def fair_vertices(table: JointTable, epsilon: float):
    """The equalized-odds program of ``table``: randomized classifiers h: x ->
    Pr(output 1 | x), with the box 0 <= h <= 1 and a pair of gap rows
    |a . h| <= epsilon per (label, group pair), a the difference of the two
    groups' Pr(x | s, y); pairs whose conditioning cell has zero probability
    are skipped. Returns (vertices, c, base): the program's vertices, in
    ``_vertices``' order, and the accuracy base + c . h. A table needing over
    ``_BASIS_CAP`` bases is a ValidationError.
    """
    check_epsilon(epsilon)
    n = len(table.x_values)
    p_xy1 = table.probs[:, :, 1].sum(axis=0)
    p_xy0 = table.probs[:, :, 0].sum(axis=0)
    c = p_xy1 - p_xy0  # coefficient of h_x in the accuracy
    base = float(p_xy0.sum())

    p_sy = table.probs.sum(axis=1)  # (|S|, 2)
    gaps = [table.probs[i, :, y] / p_sy[i, y] - table.probs[j, :, y] / p_sy[j, y]
            for y in (0, 1) for i, j in itertools.combinations(range(len(table.groups)), 2)
            if p_sy[i, y] > 0 and p_sy[j, y] > 0]
    k = len(gaps)
    if comb(k + n, n) * 2 ** n > _BASIS_CAP:
        raise ValidationError(f"table too large for the exact oracle: over {_BASIS_CAP} bases")
    # every gap lies in [-1, 1], so capping epsilon keeps the arithmetic finite
    return _vertices(np.reshape(gaps, (k, n)), min(float(epsilon), 2.0)), c, base


def best_fair_accuracy(table: JointTable, epsilon: float):
    """Exact optimum of accuracy over randomized classifiers h: x -> Pr(y=1|x)
    subject to equalized odds with tolerance ``epsilon``: the program of
    ``fair_vertices``. Returns (value, h) with h the first optimal vertex.
    """
    vertices, c, base = fair_vertices(table, epsilon)
    h = vertices[np.argmax(vertices @ c)]
    return base + float(c @ h), h


# ---------------------------------------------------------------------------
# small linear programs over the unit box, solved by vertex enumeration
# ---------------------------------------------------------------------------

_TOL = 1e-13  # slack on every row: rounding, not a looser program
_BASIS_CAP = 2 ** 14  # tracemalloc peaks of fair_vertices on random tables under it:
# 11-12 MB at 9 groups and 2 values (72 gap rows, 10804 bases), 2.1 MB at 2 groups
# and 8 values (2 gap rows, 11520 bases), and 2.5 MB at 91 groups and 1 value (8190
# gap rows, 16382 bases), where each Pr(x | s, y) is 1, every gap 0 and every
# basis singular, so only the 2 box corners remain


def _vertices(gaps, eps) -> np.ndarray:
    """The basic solutions of |gaps . h| <= eps, 0 <= h <= 1 within _TOL of
    every row, clipped into the box; eps >= 0, so v = 0 is among them. A basis
    holds g gap rows at +-eps and fixes the other n - g coordinates at exactly
    0 or 1, so only its g x g system is solved, and refined once, for each of
    its 2^n sides (row signs, then fixed values; + and 1 first), by descending
    g, then gap rows, then fixed coordinates. Only bases with an exactly zero
    pivot are skipped (slogdet's sign does not underflow): a nearly singular
    one's vertex counts."""
    k, n = gaps.shape
    sides = np.array(list(itertools.product((1.0, 0.0), repeat=n)))
    # a gap in [-1, 1] is a multiple of 2^-22 plus a rest of at most 2^-22, and
    # eps in [0, 2] one of 2^-47 plus a rest: against solutions rounded to
    # multiples of 2^-26, a residual's leading part is an exact sum of multiples
    # of 2^-48, so one refinement step leaves a nearly singular basis's error
    # (1e-7 at a pivot near 1e-9) times its condition number times 2^-53
    high, eps_high = (2.0 ** 31 + gaps) - 2.0 ** 31, (32.0 + eps) - 32.0
    parts = np.stack([high, gaps - high])
    eps_signs = np.array([eps_high, eps - eps_high])[:, None, None, None] * (2.0 * sides.T - 1.0)
    found = []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for g in range(min(k, n), 0, -1):
            # each basis's gap rows, then its coordinates: the free ones, then the
            # fixed; the i-th fixed set in lexicographic order leaves the i-th last free
            cols = [free + fixed for free, fixed in zip(
                reversed(list(itertools.combinations(range(n), g))),
                itertools.combinations(range(n), n - g))]
            ix = np.array([held + c for held in itertools.combinations(range(k), g)
                           for c in cols], dtype=np.intp)
            a = gaps[ix[:, :g, None], ix[:, None, g:2 * g]]
            solvable = np.linalg.slogdet(a)[0] != 0.0  # log 0 of a singular basis
            inverse, ix = np.linalg.inv(a[solvable]), ix[solvable]
            rows = parts[:, ix[:, :g, None], ix[:, None, g:]]
            rhs = eps_signs[..., :g, :] - rows[..., g:] @ sides[:, g:].T
            x = (2.0 ** 27 + inverse @ (rhs[0] + rhs[1])) - 2.0 ** 27
            residual = rhs - rows[..., :g] @ x
            x += inverse @ (residual[0] + residual[1])
            # each side as a corner of the box, its free coordinates then solved
            v = sides[:, np.argsort(ix[:, g:], axis=1)].swapaxes(0, 1)
            v[np.arange(len(ix))[:, None], :, ix[:, g:2 * g]] = x
            found.append(v.reshape(-1, n))
        v = np.concatenate(found + [sides])  # g = 0: the corners
        # far-off solutions of nearly singular bases fail the row test
        feasible = (np.abs(v @ gaps.T) <= eps + _TOL).all(axis=1)
        return np.clip(v[feasible & ((-_TOL <= v) & (v <= 1.0 + _TOL)).all(axis=1)], 0.0, 1.0)


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
