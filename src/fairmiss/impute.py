"""Imputers mapping masked feature matrices to complete ones.

All imputers share the same contract: fit on a training dataset, then
transform any dataset of the same dimension into one with no missing cells.
Observed cells pass through untouched; transforms are deterministic. A row
is filled from that row and the fitted state alone, so the transform of a
subset of rows equals those rows of the whole transform, bit for bit (fair
bagging relies on this to encode a training split once per bag).
"""

from __future__ import annotations

import warnings

import numpy as np

from .data import Dataset
from .errors import NotFittedError, ValidationError


class Imputer:
    """Base class; subclasses fill ``_fill`` and may extend ``fit``."""

    name = "base"

    def __init__(self):
        self._fitted = False
        self._width = None  # feature count of the fitted data; None before fit

    def fit(self, train: Dataset) -> "Imputer":
        self._fit(train)
        self._width = train.dimension
        self._fitted = True
        return self

    def transform(self, ds: Dataset) -> Dataset:
        if not self._fitted:
            raise NotFittedError(f"{self.name} imputer used before fit")
        if self._width is not None and ds.dimension != self._width:
            raise ValidationError(
                f"{self.name} imputer was fitted on {self._width} features, "
                f"got {ds.dimension}"
            )
        mask = ds.mask
        if not mask.any():
            return ds
        filled = self._fill(ds)
        out = ds.features.copy()
        out[mask] = filled[mask]
        return ds.with_features(out)

    def _fit(self, train: Dataset) -> None:
        pass

    def _fill(self, ds: Dataset) -> np.ndarray:
        raise NotImplementedError


def _require_observed(train: Dataset) -> None:
    counts = (~train.mask).sum(axis=0)
    if (counts == 0).any():
        j = int(np.flatnonzero(counts == 0)[0])
        raise ValidationError(
            f"feature {train.feature_names[j]!r} has no observed training values"
        )


class ZeroImputer(Imputer):
    """Missing cells become 0. Needs no statistics, so it is born fitted."""

    name = "zero"

    def __init__(self):
        super().__init__()
        self._fitted = True

    def _fill(self, ds: Dataset) -> np.ndarray:
        return np.zeros_like(ds.features)


class MeanImputer(Imputer):
    name = "mean"

    def _fit(self, train: Dataset) -> None:
        _require_observed(train)
        self.means_ = np.nanmean(train.features, axis=0)

    def _fill(self, ds: Dataset) -> np.ndarray:
        return np.broadcast_to(self.means_, ds.features.shape)


# Entries in each (block of missing cells x training rows) temporary of
# KNNImputer._fill; the block length is this over the number of training rows.
_KNN_BLOCK_ENTRIES = 1 << 14


class KNNImputer(Imputer):
    """Fill each missing cell with the mean of its k nearest donors.

    Distance between two rows is Euclidean over the coordinates observed in
    both, rescaled by d / (number of used coordinates); rows sharing no
    observed coordinate are infinitely far apart. Donors for feature j are
    training rows with j observed; ties break on training-row index, and a
    cell with no reachable donor falls back to the training mean.

    The search runs over blocks of missing cells, sized so that each
    (block x training rows) temporary holds at most ``_KNN_BLOCK_ENTRIES``
    entries (one cell per block past that many training rows). One matrix product gives every masked squared distance of a
    block, and an explicit floating-point rounding bound widens each into an
    interval that holds the exact distance. A cell's shortlist keeps the
    donors whose lower end does not exceed the k-th smallest upper end, so it
    holds all k nearest donors, ties included. Only shortlisted distances are
    then computed exactly, with the arithmetic of a row-by-row search, which
    makes every fill equal to that search's bit for bit.
    """

    name = "knn"

    def __init__(self, k: int = 5):
        super().__init__()
        if k < 1:
            raise ValidationError("knn imputation requires k >= 1")
        self.k = int(k)

    def _fit(self, train: Dataset) -> None:
        _require_observed(train)
        if self.k > train.n_samples:
            raise ValidationError(
                f"k={self.k} exceeds the {train.n_samples} training rows"
            )
        self.train_ = train.features.copy()
        self.means_ = np.nanmean(train.features, axis=0)

    def _fill(self, ds: Dataset) -> np.ndarray:
        out = np.tile(self.means_, (ds.n_samples, 1))
        train, k = self.train_, self.k
        n, d = train.shape
        t_obs = ~np.isnan(train)
        t_zero = np.where(t_obs, train, 0.0)
        # [q^2, q_obs, -2q] @ right sums q^2 + t^2 - 2qt over shared coordinates
        right = np.vstack([t_obs.T, (t_zero * t_zero).T, t_zero.T])
        # NaN where the training row lacks the feature: never a donor for it
        t_lacks = np.where(t_obs.T, 0.0, np.nan)
        # With u = eps / 2 and P the sum of q^2 + t^2 over the shared
        # coordinates, the product form lies within (6d + 2) u P of the exact
        # squared distance and the row-by-row sum within (2d + 4) u P. The
        # slack is twice that, on |q|^2 + |t|^2 >= P, which also covers
        # rounding s +- slack; tiny covers underflow. Rounding is monotone,
        # so scaling s +- slack as the exact search does bounds its distance.
        rel = 8.0 * (d + 1) * np.finfo(np.float64).eps
        # The product form's partial sums stay below 4 d max|value|^2; where
        # that could overflow, an infinite slack shortlists every donor.
        big = max(np.abs(t_zero).max(initial=0.0),
                  np.abs(np.nan_to_num(ds.features)).max(initial=0.0))
        if big < np.sqrt(np.finfo(np.float64).max / (4 * d)):
            t_slack = rel * right[d:2 * d].sum(axis=0) + np.finfo(np.float64).tiny
        else:
            t_slack = np.full(n, np.inf)

        rows, cols = np.nonzero(ds.mask)
        step = max(1, _KNN_BLOCK_ENTRIES // n)
        for start in range(0, rows.size, step):
            row, col = rows[start:start + step], cols[start:start + step]
            x = ds.features[row]
            # shortlist: donors whose lower end lo does not exceed the k-th
            # smallest upper end hi. lo is NaN exactly where used is 0 (0 / 0)
            # or NaN, so those never pass; hi is +inf there (fmin turns NaN
            # into +inf), so a cell with fewer than k finite upper ends keeps
            # all its donors.
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                q_obs = ~np.isnan(x)
                q_zero = np.where(q_obs, x, 0.0)
                q_sq = q_zero * q_zero
                s = np.hstack([q_sq, q_obs, -2.0 * q_zero]) @ right
                used = q_obs @ right[:d]
                used += t_lacks[col]
                slack = (rel * q_sq.sum(axis=1))[:, None] + t_slack
                lo = s - slack
                lo = _scale(np.fmax(lo, 0.0, out=lo), d, used)
                s += slack
                hi = np.fmin(_scale(s, d, used), np.inf, out=s)
            hi.partition(k - 1, axis=1)
            cell, donor = np.divmod(np.flatnonzero(lo <= hi[:, k - 1, None]), n)

            # exact distances, ordered by (cell, distance, donor index); each
            # cell averages its first k donors, grouped by how many it has
            dist = _masked_distance(x[cell], train[donor])
            keep = np.isfinite(dist)
            cell, donor, dist = cell[keep], donor[keep], dist[keep]
            order = np.lexsort((donor, dist, cell))
            cell, donor = cell[order], donor[order]
            take = np.arange(cell.size) - np.searchsorted(cell, cell) < k
            cell, donor = cell[take], donor[take]
            count = np.bincount(cell, minlength=row.size)
            values = train[donor, col[cell]]
            for c in np.unique(count[count > 0]):
                filled = count == c
                means = np.mean(values[filled[cell]].reshape(-1, c), axis=1)
                out[row[filled], col[filled]] = means
        return out


def _scale(sq: np.ndarray, d: int, used: np.ndarray) -> np.ndarray:
    """sqrt(sq * d / used) in place, rounded step by step as in
    ``_masked_distance``."""
    sq *= d
    sq /= used
    return np.sqrt(sq, out=sq)


def _masked_distance(q: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Row-wise distance between paired rows that share an observed
    coordinate: Euclidean over the shared coordinates, times d / (their count)."""
    d = q.shape[1]
    both = ~np.isnan(q) & ~np.isnan(t)
    diff = np.where(both, t - q, 0.0)
    return np.sqrt((diff * diff).sum(axis=1) * d / both.sum(axis=1))


class IterativeImputer(Imputer):
    """Round-robin ridge regression on mean-initialized data.

    Fitting runs ``rounds`` passes; each pass re-estimates every feature (in
    index order) from the others by ridge regression on the rows where it is
    observed, then refreshes that feature's imputed cells. The final round's
    coefficients are kept and replayed at transform time, so transforming new
    data never refits.
    """

    name = "iterative"

    def __init__(self, rounds: int = 10, lam: float = 1e-3):
        super().__init__()
        if rounds < 1:
            raise ValidationError("iterative imputation requires rounds >= 1")
        if not (np.isfinite(lam) and lam >= 0):
            raise ValidationError(f"ridge penalty must be finite and >= 0, got {lam}")
        self.rounds = int(rounds)
        self.lam = float(lam)

    @staticmethod
    def _ridge(a: np.ndarray, b: np.ndarray, lam: float):
        ones = np.ones((a.shape[0], 1))
        aug = np.hstack([a, ones])
        gram = aug.T @ aug
        gram[np.diag_indices(a.shape[1])] += lam  # bias unpenalized
        coef = np.linalg.solve(gram, aug.T @ b)
        return coef[:-1], float(coef[-1])

    def _fit(self, train: Dataset) -> None:
        _require_observed(train)
        self.means_ = np.nanmean(train.features, axis=0)
        mask = train.mask
        x = train.features.copy()
        x[mask] = np.broadcast_to(self.means_, x.shape)[mask]
        d = train.dimension
        self.coefs_ = [(np.zeros(d - 1), float(self.means_[j])) for j in range(d)]
        if d == 1:
            return
        others = [np.array([k for k in range(d) if k != j]) for j in range(d)]
        last_delta = np.inf
        for r in range(self.rounds):
            delta = 0.0
            for j in range(d):
                obs = ~mask[:, j]
                w, b = self._ridge(x[np.ix_(obs, others[j])], x[obs, j], self.lam)
                self.coefs_[j] = (w, b)
                miss = mask[:, j]
                if miss.any():
                    new = x[np.ix_(miss, others[j])] @ w + b
                    delta = max(delta, float(np.max(np.abs(new - x[miss, j]))))
                    x[miss, j] = new
            if delta > last_delta + 1e-6:
                warnings.warn(
                    "iterative imputation update grew between rounds "
                    f"({last_delta:.3g} -> {delta:.3g})",
                    RuntimeWarning,
                    stacklevel=2,
                )
            last_delta = delta

    def _fill(self, ds: Dataset) -> np.ndarray:
        mask = ds.mask
        x = ds.features.copy()
        x[mask] = np.broadcast_to(self.means_, x.shape)[mask]
        d = ds.dimension
        if d == 1:
            return x
        others = [np.array([k for k in range(d) if k != j]) for j in range(d)]
        for _ in range(self.rounds):
            for j in range(d):
                miss = mask[:, j]
                if miss.any():
                    w, b = self.coefs_[j]
                    # summed row by row, so a fill does not depend on the
                    # other rows transformed with it; a BLAS matrix-vector
                    # product rounds each row by the batch's shape
                    x[miss, j] = (x[np.ix_(miss, others[j])] * w).sum(axis=1) + b
        return x


def make_imputer(spec: str) -> Imputer:
    """Build an imputer from a config token: ``zero``, ``mean``, ``knn:K``, or
    ``iterative:ROUNDS:LAMBDA`` (parameters optional)."""
    parts = [p for p in str(spec).strip().split(":") if p != ""]
    if not parts:
        raise ValidationError("empty imputer spec")
    name, args = parts[0], parts[1:]
    if name == "zero" and not args:
        return ZeroImputer()
    if name == "mean" and not args:
        return MeanImputer()
    try:
        if name == "knn" and len(args) <= 1:
            return KNNImputer(*map(int, args))
        if name == "iterative" and len(args) <= 2:
            return IterativeImputer(*(cast(a) for cast, a in zip((int, float), args)))
    except ValueError:
        pass
    raise ValidationError(f"cannot parse imputer spec {spec!r}")
