"""Imputers mapping masked feature matrices to complete ones.

All imputers share the same contract: fit on a training dataset, then
transform any dataset of the same dimension into one with no missing cells.
Observed cells pass through untouched; transforms are deterministic. A row
is filled from that row and the fitted state alone, so the transform of a
subset of rows equals those rows of the whole transform, bit for bit (fair
bagging relies on this to encode a training split once per bag). Observed
values must be finite: ``fit`` and ``transform`` raise ``ValidationError``
naming the first feature that holds an infinite value.
"""

from __future__ import annotations

import warnings

import numpy as np

from .data import Dataset, _reject_features
from .errors import NotFittedError, ValidationError


class Imputer:
    """Base class; subclasses fill ``_fill`` and may extend ``fit``."""

    name = "base"

    def __init__(self):
        self._fitted = False
        self._width = None  # feature count of the fitted data; None before fit

    def fit(self, train: Dataset) -> "Imputer":
        _reject_infinite(train)
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
        _reject_infinite(ds)
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


def _reject_infinite(ds: Dataset) -> None:
    _reject_features(np.isinf(ds.features).any(axis=0), ds,
                     "has an infinite observed value")


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


# Entries in one block of KNNImputer's screen: a block of query rows counts
# (its rows + its missing cells) x distinct training rows, and the screen
# holds about two float64 arrays of that many entries at once. A block only
# screens, so larger blocks save a fixed number of numpy calls per block but
# leave the cache. The exact stage's distances go in chunks of half as many
# (pair, coordinate) entries.
_KNN_BLOCK_ENTRIES = 1 << 15


class KNNImputer(Imputer):
    """Fill each missing cell with the mean of its k nearest donors.

    Distance between two rows is Euclidean over the coordinates observed in
    both, rescaled by d / (number of used coordinates); rows sharing no
    observed coordinate are infinitely far apart. Donors for feature j are
    training rows with j observed; ties break on training-row index, and a
    cell with no reachable donor falls back to the training mean.

    The search screens blocks of query rows against the byte-distinct
    training rows: a bootstrap bag repeats about a third of its rows, and
    a row with several missing cells is screened once. One matrix product
    per block gives every masked squared distance, and an explicit
    floating-point rounding bound widens each into an interval that holds
    the exact one. A missing cell keeps the distinct rows observing its
    feature whose lower end does not exceed the k-th smallest upper end
    among them. Over distinct rows that threshold is no tighter than over
    all training rows, so the shortlist holds all k nearest donors, ties
    included. Each block holds at most about ``_KNN_BLOCK_ENTRIES`` entries
    of (query rows + missing cells) x distinct rows, or one query row where
    that row alone needs more, and does nothing but screen.

    One exact stage then takes every block's shortlist at once. It computes
    each shortlisted (cell, distinct row) distance once, with the arithmetic
    of a row-by-row search, and hands it to every training row with the
    distinct row's bytes. One integer-key sort orders the training rows by
    (cell, distance, index), and each cell averages its first k. That makes
    every fill equal to the row-by-row search's, bit for bit.
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
        # Rows merge only when their bytes are equal, so 0.0 and -0.0, or two
        # NaN payloads, stay apart; that costs the screen some speed, never a
        # donor. Distinct row i stands for the training rows
        # members_[starts_[i]:starts_[i] + counts_[i]], in index order.
        row_bytes = self.train_.view(np.dtype((np.void, 8 * train.dimension))).ravel()
        _, first, inverse, self.counts_ = np.unique(
            row_bytes, return_index=True, return_inverse=True, return_counts=True)
        self.distinct_ = self.train_[first]
        self.members_ = np.argsort(inverse, kind="stable")
        self.starts_ = np.cumsum(self.counts_) - self.counts_

    def _fill(self, ds: Dataset) -> np.ndarray:
        out = np.tile(self.means_, (ds.n_samples, 1))
        query = np.flatnonzero(ds.mask.any(axis=1))
        if query.size == 0:
            return out
        # the missing cells, row by row
        cell_row, cell_col = np.nonzero(ds.mask[query])
        cell, near = np.divmod(self._shortlist(ds, query, cell_row, cell_col),
                               len(self.distinct_))

        # The exact stage, once per transform. Each shortlisted (cell,
        # distinct row) pair's distance, with the row-by-row search's
        # arithmetic, is that of every training row with the distinct row's
        # bytes. The stage holds all the transform's pairs at once, so each
        # array goes as soon as it is used up.
        dist = _masked_distance(ds.features, self.distinct_, query[cell_row[cell]], near)
        keep = np.isfinite(dist)
        cell, near, dist = cell[keep], near[keep], dist[keep]
        # group numbers the (cell, distance) values in order; its key,
        # cell * pairs + distance rank, is below cells * pairs
        pair_key, group = np.unique(
            cell * cell.size + np.unique(dist, return_inverse=True)[1], return_inverse=True)
        del keep, dist
        # Each pair's training rows get key group * n + donor index, below
        # pairs * n and unique per (cell, donor), so one sort puts them in
        # (cell, distance, donor index) order. Cells, pairs and training rows
        # each stay below 2^31.5 (3e9) in a transform that fits in memory (an
        # int64 array that long takes 24 GB), so both keys stay below 2^63.
        n = len(self.train_)
        reps = self.counts_[near]
        # copy i of pair p is training row members_[starts_[near[p]] + i]
        key = np.repeat(self.starts_[near] - np.cumsum(reps) + reps, reps)
        key += np.arange(key.size)
        key = self.members_[key]
        key += np.repeat(group * n, reps)
        del near, group, reps
        key.sort()
        group, donor = np.divmod(key, n)
        del key
        cell = pair_key[group] // cell.size
        # each cell averages its first k donors, grouped by how many it has
        take = np.arange(cell.size) - np.searchsorted(cell, cell) < self.k
        cell, donor = cell[take], donor[take]
        count = np.bincount(cell, minlength=cell_row.size)
        values = self.train_[donor, cell_col[cell]]
        for c in np.unique(count[count > 0]):
            filled = count == c
            means = np.mean(values[filled[cell]].reshape(-1, c), axis=1)
            out[query[cell_row[filled]], cell_col[filled]] = means
        return out

    def _shortlist(self, ds: Dataset, query: np.ndarray, cell_row: np.ndarray,
                   cell_col: np.ndarray):
        """The screen: the (cell, distinct row) pairs, as cell * distinct rows
        + distinct row in increasing order, that hold every cell's k nearest
        donors."""
        distinct, k = self.distinct_, self.k
        m, d = distinct.shape
        t_obs = ~np.isnan(distinct)
        t_zero = np.where(t_obs, distinct, 0.0)
        # [q^2, q_obs, -2q] @ right sums q^2 + t^2 - 2qt over shared coordinates
        right = np.vstack([t_obs.T, (t_zero * t_zero).T, t_zero.T])
        # where a distinct row lacks a cell's feature, it is no donor for the cell
        observes = t_obs.T.copy()
        lacks = ~observes
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
            t_slack = np.full(m, np.inf)

        q_obs = ~ds.mask[query]
        q_zero = np.where(q_obs, ds.features[query], 0.0)
        with np.errstate(over="ignore"):
            left = np.hstack([q_zero * q_zero, q_obs, -2.0 * q_zero])
            q_slack = rel * left[:, :d].sum(axis=1)
        # query row i owns cells first[i]:first[i + 1]
        n_cells = d - q_obs.sum(axis=1)
        first = np.concatenate([[0], np.cumsum(n_cells)])
        # blocks of whole rows; a row costs (1 + its missing cells) entries
        # per distinct row
        block = (np.cumsum(1 + n_cells) - 1) // max(1, _KNN_BLOCK_ENTRIES // m)
        edges = np.concatenate([[0], np.flatnonzero(np.diff(block)) + 1, [query.size]])
        pairs = []
        for a, b in zip(edges[:-1], edges[1:]):
            # [lo, hi] holds the squared distance of each (query row, distinct
            # row) pair, scaled as the exact search scales it. lo is NaN
            # exactly where used is 0 (0 / 0), so those never pass; hi is
            # +inf there (fmin turns NaN into +inf).
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                s = left[a:b] @ right
                slack = q_slack[a:b, None] + t_slack
                lo = s - slack
                s += slack
                del slack
                used = left[a:b, d:2 * d] @ right[:d]
                lo = _scale(np.fmax(lo, 0.0, out=lo), d, used)
                hi = np.fmin(_scale(s, d, used), np.inf, out=s)
            del used

            # A cell's threshold is the k-th smallest hi over the distinct rows
            # observing its feature (+inf with fewer than k of them). The
            # exact search compares rounded square roots, and a donor whose
            # root ties the threshold's can still win on index, so the cell
            # keeps every donor with lo below the square of the next double
            # after sqrt(threshold), rounded up.
            r, col = cell_row[first[a]:first[b]] - a, cell_col[first[a]:first[b]]
            top = hi[r]
            np.putmask(top, lacks[col], np.inf)
            if k <= m:
                top.partition(k - 1, axis=1)
                top = top[:, k - 1]
            else:
                top = np.full(r.size, np.inf)
            with np.errstate(over="ignore"):
                top = np.nextafter(np.square(np.nextafter(np.sqrt(top), np.inf)), np.inf)
            near = lo[r] <= top[:, None]
            near &= observes[col]
            pairs.append(np.flatnonzero(near) + first[a] * m)
            # the pairs wait for the exact stage; the block's intervals need not
            del lo, hi, near
        return np.concatenate(pairs)


def _scale(sq: np.ndarray, d: int, used: np.ndarray) -> np.ndarray:
    """sq * d / used in place, rounded step by step as in ``_masked_distance``
    before its square root."""
    sq *= d
    sq /= used
    return sq


def _masked_distance(q: np.ndarray, t: np.ndarray, q_rows, t_rows) -> np.ndarray:
    """Distance between the paired rows q[q_rows[i]] and t[t_rows[i]] that
    share an observed coordinate: Euclidean over the shared coordinates,
    times d / (their count). Pairs go in chunks of _KNN_BLOCK_ENTRIES / 2
    coordinates, so a chunk's temporaries take about what a screen block's
    do."""
    d = q.shape[1]
    step = max(1, _KNN_BLOCK_ENTRIES // (2 * d))
    dist = np.empty(len(q_rows))
    for i in range(0, len(q_rows), step):
        a, b = q[q_rows[i:i + step]], t[t_rows[i:i + step]]
        both = ~np.isnan(a) & ~np.isnan(b)
        diff = np.where(both, b - a, 0.0)
        dist[i:i + step] = np.sqrt((diff * diff).sum(axis=1) * d / both.sum(axis=1))
    return dist


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
