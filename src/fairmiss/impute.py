"""Imputers mapping masked feature matrices to complete ones.

All imputers share the same contract: fit on a training dataset, then
transform any dataset of the same dimension into one with no missing cells.
Observed cells pass through untouched; transforms are deterministic. A row
is filled from that row and the fitted state alone, so the transform of a
subset of rows equals those rows of the whole transform, bit for bit (fair
bagging relies on this to encode a training split once per bag). Observed
values must be finite: ``fit`` and ``transform`` raise ``ValidationError``
naming the first feature that holds an infinite value. So must fills: an
overflowing mean or ridge prediction makes ``transform`` raise naming the
first feature it would fill, and a singular ridge system raises in ``fit``.
"""

from __future__ import annotations

import logging
import warnings

import numpy as np

from .data import Dataset, _reject_features
from .errors import NotFittedError, ValidationError

log = logging.getLogger("fairmiss")


class Imputer:
    """Base class. A subclass learns its state in ``_fit`` and decides fill
    values in ``_fill(ds)``, which returns one value per missing cell of
    ``ds``, in the row-major order of ``ds.mask``; ``transform`` writes them
    into a copy of the features. KNN and iterative imputation refine the mean
    fill: each starts from ``MeanImputer``'s values for the same cells.
    """

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
        fill = self._fill(ds)
        if not np.isfinite(fill).all():
            cols = np.nonzero(mask)[1][~np.isfinite(fill)]
            _reject_features(np.bincount(cols, minlength=ds.dimension) > 0, ds,
                             f"gets a non-finite fill from the {self.name} imputer")
        out = ds.features.copy()
        out[mask] = fill
        return ds.with_features(out)

    def _fit(self, train: Dataset) -> None:
        pass

    def _fill(self, ds: Dataset) -> np.ndarray:
        raise NotImplementedError


def _reject_infinite(ds: Dataset) -> None:
    _reject_features(np.isinf(ds.features).any(axis=0), ds,
                     "has an infinite observed value")


class ZeroImputer(Imputer):
    """Missing cells become 0. Needs no statistics, so it is born fitted."""

    name = "zero"

    def __init__(self):
        super().__init__()
        self._fitted = True

    def _fill(self, ds: Dataset) -> np.ndarray:
        return np.zeros(np.count_nonzero(ds.mask))


class MeanImputer(Imputer):
    name = "mean"

    def _fit(self, train: Dataset) -> None:
        _reject_features(train.mask.all(axis=0), train, "has no observed training values")
        self.means_ = np.nanmean(train.features, axis=0)

    def _fill(self, ds: Dataset) -> np.ndarray:
        return self.means_[np.nonzero(ds.mask)[1]]


# Twice the entries of one block of KNNImputer's screen. A block holds cells of
# one feature, one float32 entry per (cell, distinct training row observing the
# feature), or one cell where it alone needs more; the screen holds the values,
# their used counts and one comparison mask at once (128 KB, 128 KB and 32 KB).
# A block only screens, so larger blocks save a fixed number of numpy calls per
# block but leave the cache. The exact stage's float64 distances go in chunks of
# a quarter as many (pair, coordinate) entries.
_KNN_BLOCK_ENTRIES = 1 << 16
# donors in one segment of the screen, whose threshold is the k-th smallest of
# a cell's segment minima
_KNN_SEGMENT = 8


class KNNImputer(MeanImputer):
    """Fill each missing cell with the mean of its k nearest donors.

    Distance between two rows is Euclidean over the coordinates observed in
    both, rescaled by d / (number of used coordinates); rows sharing no
    observed coordinate are infinitely far apart. Donors for feature j are
    training rows with j observed; ties break on training-row index, and a
    cell with no reachable donor falls back to the training mean.

    The search screens the byte-distinct training rows (a bootstrap bag
    repeats about a third of its rows) in float32, one feature at a time:
    blocks of a feature's missing cells against the distinct rows observing
    it. One matrix product per block gives every masked squared distance as
    one float32 value. An explicit rounding bound, which covers the float32
    inputs, the product form and the float64 search's own rounding, puts
    the exact search's value within a relative error plus a radius that
    depends on the query row alone. A cell's threshold is the k-th smallest
    of its segment minima of the values, ``_KNN_SEGMENT`` donors to a
    segment, widened by the bound: it is no smaller than the k-th smallest
    exact value over distinct rows, itself no smaller than over all
    training rows. The cell keeps every donor whose value the bound allows
    below that, so the shortlist holds all k nearest donors, ties included.
    Where the values are too large for float32, the screen keeps every
    distinct row sharing a coordinate with the query row instead.

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
        super()._fit(train)
        if self.k > train.n_samples:
            raise ValidationError(
                f"k={self.k} exceeds the {train.n_samples} training rows"
            )
        self.train_ = train.features.copy()
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
        out = super()._fill(ds)  # the fill of a cell with no reachable donor
        query = np.flatnonzero(ds.mask.any(axis=1))
        if query.size == 0:
            return out
        # the missing cells, row by row: cell c is out[c]
        cell_row, cell_col = np.nonzero(ds.mask[query])
        cell, near = np.divmod(self._shortlist(ds, query, cell_row, cell_col),
                               len(self.distinct_))
        log.debug("knn transform: %d query rows, %d cells, %.2f shortlisted "
                  "pairs per cell", query.size, cell_row.size, cell.size / cell_row.size)

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
            out[filled] = means
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
        q_obs = ~ds.mask[query]
        q_zero = np.where(q_obs, ds.features[query], 0.0)
        # The bound. Take u = eps32 / 2, and eta = the smallest normal float32,
        # which bounds the error of one float32 rounding below the normal
        # range, gradual or flushed to zero. For a pair sharing coordinates S,
        # E = sum over S of (t - q)^2, Q = sum over S of q^2 and P = sum over S
        # of q^2 + t^2 on the float64 inputs; t^2 <= 2q^2 + 2(t - q)^2 gives
        # P <= 3Q + 2E. With d < 2^16, gamma(3d) = 3du / (1 - 3du) <= 3.04du.
        # The screen's s lies within these of E:
        # - 4.01 u P + 3d eta from rounding q and t to float32, subnormal
        #   inputs included;
        # - 1.01 u P + 2d eta from rounding q^2 and t^2 (P32 <= (1 + 2.01u) P);
        # - gamma(3d) (2 + u) P32 + 6.5d eta <= 6.1 d u P + 6.5d eta from
        #   summing the 3d products of [q^2, q_obs, -2q] and [t_obs, t^2, t]
        #   in any order, with or without FMA, where each of the 6d
        #   operations may underflow once.
        # The float64 search's own sum E64 lies within 0.01 u P + d eta of E:
        # it rounds d + 2 times at u64 <= 2^-29 u. So |s - E64| <= b P + 12.5d
        # eta with b = (6.1d + 5.03) u <= 0.024, and P <= (3Q + 2 E64 + 2d eta)
        # (1 + 0.03u). Scaling by c = d / used in [1, d], in float32 for the
        # screen's v and in float64 for the search's D, costs 2.01 u |s| c +
        # 2.01 eta and 2.01 u64 E64 c; and c Q <= d M, with M the largest q^2
        # of the query row. Together, with a = 8 (d + 2) u (rel below),
        #     |v - D| <= (6.2d + 5.1) u 3d M + (12.2d + 12.1) u D
        #                + (12.6 d^2 + 2.01) eta <= 0.92 (2a D + radius),
        # radius = d (3a M + 16 d eta): the donor's own norm drops out, so a
        # far donor widens no cell's threshold. The 8% margin covers the
        # float64 roundings of the radius and the threshold.
        # Overflow: with B the largest |value|, the product form's partial
        # sums stay below 5d B^2, so each value of the screen, v and its
        # threshold included, stays below 6 d^2 B^2, under the float32 maximum
        # where 8 d^2 B^2 is.
        f32 = np.finfo(np.float32)
        big = max(np.abs(t_zero).max(initial=0.0), np.abs(q_zero).max(initial=0.0))
        if d < 1 << 16 and big <= np.sqrt(f32.max / 8) / d:
            rel = 4.0 * (d + 2) * f32.eps
            radius = d * (3.0 * rel * np.square(q_zero).max(axis=1) + 16.0 * d * f32.tiny)
            q_zero, t_zero = q_zero.astype(np.float32), t_zero.astype(np.float32)
        else:
            # no value is cast: v = 0 where used > 0 and an infinite radius,
            # so every distinct row sharing a coordinate passes
            rel, radius = 0.0, np.full(query.size, np.inf)
            q_zero, t_zero = np.zeros_like(q_zero, np.float32), np.zeros_like(t_zero, np.float32)
        grow = 1.0 / (1.0 - 2.0 * rel)  # at least 1 + 2a
        # [q^2, q_obs, -2q] @ right sums q^2 + t^2 - 2qt over shared coordinates
        right = np.vstack([t_obs.T, (t_zero * t_zero).T, t_zero.T])
        left = np.hstack([q_zero * q_zero, q_obs, -2 * q_zero])
        # Each feature's cells are screened against the distinct rows observing
        # it, padded with zero columns to whole segments: a pad shares no
        # coordinate with any row, so its v is NaN and it never passes.
        pairs = [np.empty(0, np.int64)]
        for j in np.unique(cell_col):
            cells, donors = np.flatnonzero(cell_col == j), np.flatnonzero(t_obs[:, j])
            segments = -(-donors.size // _KNN_SEGMENT)
            width = segments * _KNN_SEGMENT
            cols = np.zeros((3 * d, width), np.float32)
            cols[:, :donors.size] = right[:, donors]
            step = max(1, _KNN_BLOCK_ENTRIES // (2 * width))
            for a in range(0, cells.size, step):
                block = cells[a:a + step]
                rows = left[cell_row[block]]
                # v is the squared distance of each (cell, donor) pair, scaled
                # as the exact search scales it; it is NaN exactly where used
                # is 0 (0 / 0), so those never pass
                with np.errstate(divide="ignore", invalid="ignore"):
                    v = _scale(rows @ cols, d, rows[:, d:2 * d] @ cols[:d])
                # A cell's threshold starts at the k-th smallest of its segment
                # minima, donor i in segment i % segments (fmin skips NaN; +inf
                # with fewer than k segments that reach the cell): k donors
                # have v at most that, so (top + radius) * grow is at least the
                # k-th smallest D. The exact search compares rounded square
                # roots, and a donor whose root ties the threshold's can still
                # win on index, so every donor it picks has D below the square
                # of the next double after sqrt(threshold), rounded up, and v
                # at most that times grow plus the radius. Rounding the result
                # up to a float32 then passes exactly the float32 v it passes.
                if k <= segments:
                    top = np.fmin.reduce(v.reshape(block.size, _KNN_SEGMENT, segments), axis=1)
                    top.partition(k - 1, axis=1)
                    top = np.fmin(top[:, k - 1].astype(np.float64), np.inf)
                else:
                    top = np.full(block.size, np.inf)
                r = radius[cell_row[block]]
                top = np.sqrt((top + r) * grow)
                top = np.nextafter(np.square(np.nextafter(top, np.inf)), np.inf) * grow + r
                top32 = top.astype(np.float32)
                top32 = np.where(top32 < top, np.nextafter(top32, np.float32(np.inf)), top32)
                cell, col = np.divmod(np.flatnonzero(v <= top32[:, None]), width)
                pairs.append(block[cell] * m + donors[col])
                del v  # before the next block's values are made
        return np.sort(np.concatenate(pairs))


def _scale(sq: np.ndarray, d: int, used: np.ndarray) -> np.ndarray:
    """sq * d / used in place, rounded step by step as in ``_masked_distance``
    before its square root."""
    sq *= d
    sq /= used
    return sq


def _masked_distance(q: np.ndarray, t: np.ndarray, q_rows, t_rows) -> np.ndarray:
    """Distance between the paired rows q[q_rows[i]] and t[t_rows[i]] that
    share an observed coordinate: Euclidean over the shared coordinates,
    times d / (their count). Pairs go in chunks of _KNN_BLOCK_ENTRIES / 4
    coordinates, so a chunk's float64 temporaries take about what a screen
    block's float32 ones do."""
    d = q.shape[1]
    step = max(1, _KNN_BLOCK_ENTRIES // (4 * d))
    dist = np.empty(len(q_rows))
    for i in range(0, len(q_rows), step):
        a, b = q[q_rows[i:i + step]], t[t_rows[i:i + step]]
        both = ~np.isnan(a) & ~np.isnan(b)
        diff = np.where(both, b - a, 0.0)
        dist[i:i + step] = np.sqrt((diff * diff).sum(axis=1) * d / both.sum(axis=1))
    return dist


class IterativeImputer(MeanImputer):
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
    def _ridge(a: np.ndarray, b: np.ndarray, lam: float, name: str):
        """Ridge coefficients and bias regressing feature ``name`` (b) on
        the others (a)."""
        ones = np.ones((a.shape[0], 1))
        aug = np.hstack([a, ones])
        gram = aug.T @ aug
        gram[np.diag_indices(a.shape[1])] += lam  # bias unpenalized
        try:
            coef = np.linalg.solve(gram, aug.T @ b)
        except np.linalg.LinAlgError:
            raise ValidationError(f"iterative imputation cannot regress feature {name!r} "
                                  f"on the others: its ridge system is singular") from None
        return coef[:-1], float(coef[-1])

    def _fit(self, train: Dataset) -> None:
        super()._fit(train)
        mask = train.mask
        x = train.features.copy()
        x[mask] = super()._fill(train)
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
                w, b = self._ridge(x[np.ix_(obs, others[j])], x[obs, j], self.lam,
                                   train.feature_names[j])
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
        start = super()._fill(ds)
        d = ds.dimension
        if d == 1:
            return start
        mask = ds.mask
        x = ds.features.copy()
        x[mask] = start
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
        return x[mask]


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
