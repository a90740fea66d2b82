import logging
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fairmiss import impute
from fairmiss.data import Dataset
from fairmiss.errors import NotFittedError, ValidationError
from fairmiss.impute import (
    IterativeImputer,
    KNNImputer,
    MeanImputer,
    ZeroImputer,
    _masked_distance,
    _scale as impute_scale,
    make_imputer,
)

from conftest import random_dataset


def ds_from(matrix, names=None):
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    return Dataset(matrix, [i % 2 for i in range(n)], [i % 2 for i in range(n)],
                   tuple(names) if names else ())


class TestZero:
    def test_definition(self):
        ds = ds_from([[np.nan, 1.5], [2.0, 0.5]])
        out = ZeroImputer().transform(ds)
        assert out.features[0].tolist() == [0.0, 1.5]

    def test_needs_no_fit(self):
        ds = ds_from([[np.nan]])
        ZeroImputer().transform(ds)  # no error


class TestMean:
    def test_column_mean(self):
        ds = ds_from([[1.0], [3.0], [np.nan]])
        imp = MeanImputer().fit(ds)
        out = imp.transform(ds)
        assert out.features[2, 0] == pytest.approx(2.0)

    def test_transform_before_fit_errors(self):
        with pytest.raises(NotFittedError):
            MeanImputer().transform(ds_from([[np.nan]]))

    def test_fully_missing_training_feature_errors_by_name(self):
        ds = Dataset(np.array([[1.0, np.nan], [2.0, np.nan]]), [0, 1], [0, 1],
                     ("ok", "gone"))
        with pytest.raises(ValidationError, match="gone"):
            MeanImputer().fit(ds)


class TestKnn:
    def test_matching_neighbor_fills_cell(self, rng):
        # query equals training row 3 except one missing cell: with k=1 the
        # neighbor oracle says that row donates its value
        train_x = rng.normal(size=(12, 4))
        train = ds_from(train_x)
        imp = KNNImputer(k=1).fit(train)
        query = train_x[3].copy()
        query[2] = np.nan
        out = imp.transform(ds_from(query[None, :]))
        assert out.features[0, 2] == pytest.approx(train_x[3, 2])

    def test_against_bruteforce_oracle(self, rng):
        # independent nearest-neighbor oracle over the training matrix
        train = random_dataset(rng, n=30, d=4, missing_rate=0.25)
        queries = random_dataset(rng, n=15, d=4, missing_rate=0.4, ensure_cells=False)
        k = 3
        imp = KNNImputer(k=k).fit(train)
        out = imp.transform(queries)
        tx = train.features
        d = tx.shape[1]
        for i in range(queries.n_samples):
            row = queries.features[i]
            for j in np.flatnonzero(np.isnan(row)):
                dists = []
                for t in range(tx.shape[0]):
                    if np.isnan(tx[t, j]):
                        continue
                    both = ~np.isnan(row) & ~np.isnan(tx[t])
                    if not both.any():
                        continue
                    sq = np.sum((row[both] - tx[t, both]) ** 2) * d / both.sum()
                    dists.append((np.sqrt(sq), t))
                dists.sort()
                expect = np.mean([tx[t, j] for _, t in dists[:k]])
                assert out.features[i, j] == pytest.approx(expect)

    def test_distance_to_self_zero_and_k_bounds(self, rng):
        train = random_dataset(rng, n=5, d=3, missing_rate=0.1)
        imp = KNNImputer(k=5).fit(train)
        assert _masked_distance(train.features, imp.train_, [2], [2])[0] == 0.0
        with pytest.raises(ValidationError):
            KNNImputer(k=6).fit(train)
        with pytest.raises(ValidationError):
            KNNImputer(k=0)


def reference_fill(imp: KNNImputer, ds: Dataset) -> np.ndarray:
    """Row-by-row KNN search: for each query row, one distance pass over the
    training rows, then one (distance, index) sort per missing cell."""
    train, k = imp.train_, imp.k
    d = train.shape[1]
    out = np.tile(imp.means_, (ds.n_samples, 1))
    mask = ds.mask
    for i in np.flatnonzero(mask.any(axis=1)):
        row = ds.features[i]
        both = ~np.isnan(row) & ~np.isnan(train)
        used = both.sum(axis=1)
        diff = np.where(both, train - row, 0.0)
        sq = (diff * diff).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            dist = np.sqrt(sq * d / used)
        dist[used == 0] = np.inf
        for j in np.flatnonzero(mask[i]):
            donors = np.flatnonzero(~np.isnan(train[:, j]) & np.isfinite(dist))
            if donors.size == 0:
                continue  # keep the mean fallback
            order = np.lexsort((donors, dist[donors]))
            chosen = donors[order[:k]]
            out[i, j] = float(np.mean(train[chosen, j]))
    return out


def assert_fill_matches_reference(imp: KNNImputer, ds: Dataset) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = imp._fill(ds)
    want = reference_fill(imp, ds)[ds.mask]
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()  # bit for bit, signed zeros too


def assert_shortlist_holds_the_nearest(imp: KNNImputer, ds: Dataset,
                                       at_most: float | None = None) -> int:
    """The screen's invariant: every cell's shortlist holds the distinct rows
    of its k nearest donors and of every donor tying the k-th, by the exact
    search's distances, and only distinct rows that observe the cell's
    feature and share a coordinate with its row (so no padding column
    leaks). With ``at_most``, the shortlist also holds at most that many
    times the pairs it must hold. Returns the number of cells with such a
    tie."""
    query = np.flatnonzero(ds.mask.any(axis=1))
    cell_row, cell_col = np.nonzero(ds.mask[query])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = imp._shortlist(ds, query, cell_row, cell_col)
    assert (np.diff(got) > 0).all()
    m = len(imp.distinct_)
    cell, row = np.divmod(got, m)
    assert ((0 <= cell) & (cell < cell_row.size)).all()
    observed = ~np.isnan(imp.distinct_[row])
    assert observed[np.arange(row.size), cell_col[cell]].all()
    assert (observed & ~np.isnan(ds.features[query[cell_row[cell]]])).any(axis=1).all()
    shortlisted = set(got.tolist())
    distinct_of = np.empty(len(imp.train_), int)
    distinct_of[imp.members_] = np.repeat(np.arange(m), imp.counts_)
    needed, ties = set(), 0
    for c, (i, j) in enumerate(zip(query[cell_row], cell_col)):
        donors = np.flatnonzero(~np.isnan(imp.train_[:, j]))
        with np.errstate(invalid="ignore"):  # no shared coordinate: 0 / 0
            dist = _masked_distance(ds.features, imp.train_,
                                    np.full(donors.size, i), donors)
        donors, dist = donors[np.isfinite(dist)], dist[np.isfinite(dist)]
        if donors.size == 0:
            continue
        near = dist <= np.sort(dist)[min(imp.k, donors.size) - 1]
        needed |= {c * m + r for r in distinct_of[donors[near]].tolist()}
        ties += np.count_nonzero(near) > imp.k
    assert needed <= shortlisted
    if at_most is not None:
        assert len(shortlisted) <= at_most * len(needed)
    return ties


def tied_cells_interleaving_distinct_rows(imp: KNNImputer, ds: Dataset) -> int:
    """Count the missing cells whose k-th nearest donor ties, in distance,
    training rows of several distinct rows whose indices interleave (copies
    of row a, then of b, then of a again, in index order)."""
    distinct_of = np.empty(len(imp.train_), int)
    distinct_of[imp.members_] = np.repeat(np.arange(len(imp.counts_)), imp.counts_)
    found = 0
    for i, j in zip(*np.nonzero(ds.mask)):
        donors = np.flatnonzero(~np.isnan(imp.train_[:, j]))
        with np.errstate(invalid="ignore"):  # no shared coordinate: 0 / 0
            dist = _masked_distance(ds.features, imp.train_,
                                    np.full(donors.size, i), donors)
        donors, dist = donors[np.isfinite(dist)], dist[np.isfinite(dist)]
        if donors.size <= imp.k:
            continue
        ids = distinct_of[donors[dist == np.sort(dist)[imp.k - 1]]]
        runs = np.count_nonzero(np.r_[True, ids[1:] != ids[:-1]])
        found += runs > np.unique(ids).size
    return found


def one_hole_per_row(rng, m, d):
    x = rng.normal(size=(m, d))
    x[np.arange(m), rng.integers(0, d, size=m)] = np.nan
    return Dataset(x, np.zeros(m, int), np.zeros(m, int))


class TestKnnMatchesRowByRowSearch:
    N_TRAIN, D = 40, 4

    @pytest.mark.parametrize("k", [1, 5, N_TRAIN])
    @pytest.mark.parametrize("rows", ["0", "1", "block", "block+1"])
    def test_block_edges(self, rng, monkeypatch, rows, k):
        # every query row misses feature 0 alone, so each is one cell of that
        # feature, with one entry per distinct row observing it, padded to
        # whole segments; the training rows are all distinct
        train = random_dataset(rng, n=self.N_TRAIN, d=self.D, missing_rate=0.3)
        imp = KNNImputer(k=k).fit(train)
        assert len(imp.distinct_) == self.N_TRAIN
        segments = -(-np.count_nonzero(~train.mask[:, 0]) // impute._KNN_SEGMENT)
        block = impute._KNN_BLOCK_ENTRIES // (2 * segments * impute._KNN_SEGMENT)
        m = {"0": 0, "1": 1, "block": block, "block+1": block + 1}[rows]
        queries = rng.normal(size=(m, self.D))
        queries[:, 0] = np.nan
        scaled = []

        def spy(sq, d, used):
            scaled.append(sq.shape)
            return impute_scale(sq, d, used)

        monkeypatch.setattr(impute, "_scale", spy)
        assert_fill_matches_reference(imp, ds_from(queries))
        # _scale runs once per block, on its (cells, padded donors) values
        assert len(scaled) == -(-m // block)
        assert all(shape[1] == segments * impute._KNN_SEGMENT for shape in scaled)

    @pytest.mark.parametrize("k", [1, 5, N_TRAIN])
    def test_rows_larger_than_a_block(self, rng, monkeypatch, k):
        # a block holds N_TRAIN / 2 entries, fewer than one cell has donor
        # columns, so every cell makes a block of its own
        monkeypatch.setattr(impute, "_KNN_BLOCK_ENTRIES", self.N_TRAIN)
        train = random_dataset(rng, n=self.N_TRAIN, d=self.D, missing_rate=0.3)
        queries = random_dataset(rng, n=50, d=self.D, missing_rate=0.6, ensure_cells=False)
        assert_fill_matches_reference(KNNImputer(k=k).fit(train), queries)

    @staticmethod
    def feature_0_donors(rng, donors, d=3):
        """Distinct training rows of which the first ``donors`` observe
        feature 0, and queries missing feature 0 alone."""
        x = rng.normal(size=(donors + 10, d))
        x[donors:, 0] = np.nan
        queries = rng.normal(size=(30, d))
        queries[:, 0] = np.nan
        queries[rng.random(queries.shape) < 0.2] = np.nan
        return ds_from(x), ds_from(queries)

    @pytest.mark.parametrize("donors, k", [(3, 2), (7, 2), (20, 4), (24, 4)])
    def test_feature_with_fewer_than_k_segments(self, rng, donors, k):
        # ceil(donors / 8) < k segments: the threshold is +inf, so a cell keeps
        # every donor sharing a coordinate with its row
        train, queries = self.feature_0_donors(rng, donors)
        imp = KNNImputer(k=k).fit(train)
        assert -(-donors // impute._KNN_SEGMENT) < k
        assert_fill_matches_reference(imp, queries)
        assert_shortlist_holds_the_nearest(imp, queries)
        query = np.flatnonzero(queries.mask.any(axis=1))
        cell_row, cell_col = np.nonzero(queries.mask[query])
        got = imp._shortlist(queries, query, cell_row, cell_col)
        cells = np.flatnonzero(cell_col == 0)
        shares = (~np.isnan(queries.features[query[cell_row[cells]]])[:, None, :]
                  & ~np.isnan(imp.distinct_)[None]).any(axis=2)
        shares &= ~np.isnan(imp.distinct_[:, 0])
        assert np.isin(got // len(imp.distinct_), cells).sum() == shares.sum()

    @pytest.mark.parametrize("donors", [9, 29, 31, 33])
    @pytest.mark.parametrize("k", [1, 3, 4, 5])
    def test_donor_count_not_a_multiple_of_the_segment(self, rng, donors, k):
        # the donor columns end in 1 to 7 padding columns, which never pass
        train, queries = self.feature_0_donors(rng, donors)
        imp = KNNImputer(k=k).fit(train)
        assert donors % impute._KNN_SEGMENT
        assert_fill_matches_reference(imp, queries)
        assert_shortlist_holds_the_nearest(imp, queries)

    def test_k_nearest_donors_in_one_segment(self):
        # 24 donors of feature 0, so 3 segments, donor i in segment i % 3.
        # The distinct rows sort on feature 0's bytes alone (all different),
        # so the 3 donors nearest the queries can be put at positions 0, 3
        # and 6: segment 0 holds all of them, and the threshold is the third
        # segment's minimum, far beyond them
        x0 = np.arange(24) + 0.5
        order = np.argsort(x0.view(np.dtype((np.void, 8))), kind="stable")
        x1 = np.empty(24)
        x1[order] = 10.0 + np.arange(24)
        x1[order[[0, 3, 6]]] = [0.0, 0.1, 0.2]
        imp = KNNImputer(k=3).fit(ds_from(np.column_stack([x0, x1])))
        assert imp.distinct_[[0, 3, 6], 1].tolist() == [0.0, 0.1, 0.2]
        queries = ds_from([[np.nan, 0.05], [np.nan, -1.0], [np.nan, 12.5]])
        assert_fill_matches_reference(imp, queries)
        assert assert_shortlist_holds_the_nearest(imp, queries) == 0
        filled = imp.transform(queries).features[:, 0]
        assert filled[0] == filled[1] == np.mean(imp.distinct_[[0, 3, 6], 0])

    def test_bootstrap_bag_at_mnar_scale(self):
        # a 3000-row bootstrap bag with 5 of its 8 features masked and 200
        # query rows, at the real block size: many blocks per feature
        rng = np.random.default_rng(20240611)
        x = rng.normal(size=(3000, 8))
        x[:, 3:][rng.random((3000, 5)) < 0.3] = np.nan
        bag = ds_from(x).subset(rng.integers(0, 3000, size=3000))
        imp = KNNImputer(k=5).fit(bag)
        queries = rng.normal(size=(200, 8))
        queries[:, 3:][rng.random((200, 5)) < 0.3] = np.nan
        queries = ds_from(queries)
        segments = -(-(~np.isnan(imp.distinct_)).sum(axis=0) // impute._KNN_SEGMENT)
        block = impute._KNN_BLOCK_ENTRIES // (2 * segments * impute._KNN_SEGMENT)
        assert (queries.mask.sum(axis=0)[3:] > 2 * block[3:]).all()
        assert_fill_matches_reference(imp, queries)
        # the screen is tight: a radius too loose would pass every check above
        assert_shortlist_holds_the_nearest(imp, queries, at_most=1.6)
        assert_shortlist_holds_the_nearest(imp, bag, at_most=1.6)

    @pytest.mark.parametrize("k", [1, 5, 60])
    def test_bootstrap_bag_on_a_coarse_grid_breaks_ties_by_index(self, rng, k):
        # duplicated rows and values in {-1, 0, 1} make many exactly equal
        # distances; both searches must pick the lowest training-row indices
        x = rng.integers(-1, 2, size=(30, 5)).astype(float)
        x[rng.random(x.shape) < 0.3] = np.nan
        x[0] = 0.0
        bag = Dataset(x, np.zeros(30, int), np.zeros(30, int)).subset(
            rng.integers(0, 30, size=60))
        imp = KNNImputer(k=k).fit(bag)
        queries = rng.integers(-1, 2, size=(80, 5)).astype(float)
        queries[rng.random(queries.shape) < 0.4] = np.nan
        queries[:5] = np.where(np.isnan(queries[:5]), np.nan, 0.0)
        assert_fill_matches_reference(
            imp, Dataset(queries, np.zeros(80, int), np.zeros(80, int)))
        assert_fill_matches_reference(imp, bag)

    def test_exact_stage_runs_once_on_the_distinct_shortlisted_pairs(
            self, rng, monkeypatch):
        # every training row twice, so each distinct row stands for two
        # training rows; one hole per query row, so a (query row, distinct
        # row) pair is one shortlisted (cell, distinct row) pair
        monkeypatch.setattr(impute, "_KNN_BLOCK_ENTRIES", 6 * 20)
        train = random_dataset(rng, n=20, d=4, missing_rate=0.3)
        imp = KNNImputer(k=3).fit(train.subset(np.tile(np.arange(20), 2)))
        assert len(imp.distinct_) == 20 and (imp.counts_ == 2).all()
        queries = one_hole_per_row(rng, 50, 4)
        calls = []

        def spy(q, t, q_rows, t_rows):
            calls.append((q, t, q_rows, t_rows))
            return _masked_distance(q, t, q_rows, t_rows)

        monkeypatch.setattr(impute, "_masked_distance", spy)
        assert_fill_matches_reference(imp, queries)
        assert len(calls) == 1
        q, t, q_rows, t_rows = calls[0]
        assert q is queries.features and t is imp.distinct_
        pairs = set(zip(q_rows.tolist(), t_rows.tolist()))
        assert len(pairs) == len(q_rows)  # no pair twice, so none expanded
        assert imp.k * queries.n_samples <= len(pairs) < queries.n_samples * len(t)

    def test_interleaved_ties_across_many_blocks(self, rng, monkeypatch):
        # a bootstrap bag on a coarse grid: copies of one row sit at scattered
        # indices, and different distinct rows tie in distance, so a cell's
        # k-th donor can be decided by the index order of interleaved copies
        x = rng.integers(-1, 2, size=(40, 4)).astype(float)
        x[rng.random(x.shape) < 0.25] = np.nan
        x[0] = 0.0
        bag = Dataset(x, np.zeros(40, int), np.zeros(40, int)).subset(
            np.r_[0, rng.integers(0, 40, size=119)])
        imp = KNNImputer(k=4).fit(bag)
        queries = rng.integers(-1, 2, size=(60, 4)).astype(float)
        queries[rng.random(queries.shape) < 0.4] = np.nan
        queries = Dataset(queries, np.zeros(60, int), np.zeros(60, int))
        assert tied_cells_interleaving_distinct_rows(imp, queries) >= 10

        # blocks of a few cells; _scale runs once per block
        monkeypatch.setattr(impute, "_KNN_BLOCK_ENTRIES", 4 * len(imp.distinct_))
        scaled = []

        def spy(sq, d, used):
            scaled.append(sq.shape)
            return impute_scale(sq, d, used)

        monkeypatch.setattr(impute, "_scale", spy)
        assert_fill_matches_reference(imp, queries)
        assert len(scaled) >= 15
        assert_fill_matches_reference(imp, bag)

    @pytest.mark.parametrize("offset, scale", [(1e8, 1.0), (0.0, 1e-162), (1.2e154, 1e145)])
    def test_cancellation_underflow_and_overflow_in_the_product_form(
            self, rng, offset, scale):
        # a large common offset makes q^2 + t^2 - 2qt lose every digit of the
        # distance; tiny values make it underflow, huge ones overflow; the
        # shortlist must still keep every nearest donor
        def grid(m):
            x = offset + scale * rng.integers(-3, 4, size=(m, 4)).astype(float)
            x[rng.random(x.shape) < 0.3] = np.nan
            return Dataset(x, np.zeros(m, int), np.zeros(m, int))
        for k in (1, 4):
            train = grid(60)
            assert_fill_matches_reference(KNNImputer(k=k).fit(train), grid(60))

    @pytest.mark.parametrize("k", [1, 3, 40])
    def test_every_row_duplicated(self, rng, k):
        train = random_dataset(rng, n=20, d=4, missing_rate=0.3)
        twice = train.subset(np.tile(np.arange(20), 2))
        imp = KNNImputer(k=k).fit(twice)
        assert len(imp.distinct_) == 20 and (imp.counts_ == 2).all()
        queries = random_dataset(rng, n=30, d=4, missing_rate=0.4, ensure_cells=False)
        assert_fill_matches_reference(imp, queries)
        assert_fill_matches_reference(imp, twice)

    def test_fewer_distinct_rows_than_k(self):
        # one distinct row, k = n: every reachable cell averages its n copies
        row = [0.5, -1.25, 3.0]
        imp = KNNImputer(k=6).fit(ds_from([row] * 6))
        assert len(imp.distinct_) == 1
        nan = np.nan
        queries = ds_from([[nan, 0.0, 0.0], [1.0, nan, nan], [nan, nan, nan]])
        assert_fill_matches_reference(imp, queries)
        filled = imp.transform(queries).features
        assert (filled[queries.mask] == np.tile(row, (3, 1))[queries.mask]).all()

    def test_signed_zeros_stay_apart_and_tie_on_index(self):
        # rows 0 and 1 differ only in the sign of a zero, so they are two
        # distinct rows, and row 0 sorts last by its bytes; all three rows
        # are at distance 0 from the query, and k = 2 takes rows 0 and 1
        imp = KNNImputer(k=2).fit(ds_from([[-0.0, 5.0], [0.0, 5.0], [0.0, 7.0]]))
        assert len(imp.distinct_) == 3
        queries = ds_from([[0.0, np.nan], [np.nan, 5.0]])
        assert_fill_matches_reference(imp, queries)
        assert imp.transform(queries).features[0, 1] == 5.0

    def test_distinct_threshold_looser_than_over_all_rows(self):
        # the 3rd smallest upper end is a copy's over all rows, but row 4's
        # over distinct rows; the shortlist grows, the 3 copies still win
        train = ds_from([[1.0, 10.0]] * 3 + [[2.0, 20.0], [3.0, 30.0]])
        imp = KNNImputer(k=3).fit(train)
        assert sorted(imp.counts_) == [1, 1, 3]
        query = ds_from([[0.0, np.nan]])
        assert_fill_matches_reference(imp, query)
        assert imp.transform(query).features[0, 1] == 10.0

    def test_wide_value_range(self, rng):
        train = random_dataset(rng, n=50, d=6, missing_rate=0.3)
        scale = 10.0 ** rng.integers(-150, 150, size=6)
        train = train.with_features(train.features * scale)
        queries = random_dataset(rng, n=40, d=6, missing_rate=0.4, ensure_cells=False)
        queries = queries.with_features(queries.features * scale)
        assert_fill_matches_reference(KNNImputer(k=3).fit(train), queries)

    ULP, UNIT = 2.0 ** -23, 2.0 ** -149  # a float32 ulp at 1; its least subnormal

    @pytest.mark.parametrize("train, query", [
        # squared distances of 1 + 1.2 ulp (row 1) and 1 + 1.3 ulp (row 0) in
        # float64, but row 1's coordinate rounds up to 1 + ulp in float32, so
        # its product form, 1 + 2 ulp, exceeds row 0's
        ([[1.0, np.sqrt(1.3 * ULP), 0.5], [1.0 + 0.6 * ULP, 0.0, 0.25]],
         [0.0, 0.0, np.nan]),
        # squares of 2.49 and 4 x 0.6 float32 subnormal units: each of row 1's
        # rounds up to one unit, and its product form is twice row 0's; the
        # values to fill are tiny too, so only the slack's tiny term keeps row 1
        ([[np.sqrt(2.49 * UNIT), 0.0, 0.0, 0.0, 1e-30]] + [[np.sqrt(0.6 * UNIT)] * 4 + [2e-30]],
         [0.0, 0.0, 0.0, 0.0, np.nan]),
    ])
    def test_float64_nearest_wins_below_one_float32_ulp(self, train, query):
        # k = 1, and the two donors' squared distances differ by less than a
        # float32 ulp: only the bound keeps row 1, the float64 nearest
        imp = KNNImputer(k=1).fit(ds_from(train))
        query = ds_from([query])
        d0, d1 = _masked_distance(query.features, imp.train_, [0, 0], [0, 1])
        assert d1 < d0
        assert_fill_matches_reference(imp, query)
        assert imp.transform(query).features[0, -1] == train[1][-1]

    def test_donor_at_infinite_distance_is_no_donor(self):
        # both squared distances overflow to inf, as in the row-by-row search,
        # so the cell keeps the training mean
        imp = KNNImputer(k=1).fit(ds_from([[-1e200, 5.0], [1.0, 7.0]]))
        query = ds_from([[1e200, np.nan]])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # both searches overflow
            got = imp._fill(query)
            want = reference_fill(imp, query)[query.mask]
        assert got[0] == 6.0
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_shortlist_holds_every_nearest_donor_and_its_ties(self, rng, monkeypatch, k):
        # a bootstrap bag on a coarse grid: duplicated rows, and many donors
        # tying a cell's k-th distance; blocks of a few cells each
        x = rng.integers(-1, 2, size=(40, 5)).astype(float)
        x[rng.random(x.shape) < 0.3] = np.nan
        x[0] = 0.0
        bag = Dataset(x, np.zeros(40, int), np.zeros(40, int)).subset(
            np.r_[0, rng.integers(0, 40, size=79)])
        imp = KNNImputer(k=k).fit(bag)
        monkeypatch.setattr(impute, "_KNN_BLOCK_ENTRIES", 5 * len(imp.distinct_))
        queries = rng.integers(-1, 2, size=(60, 5)).astype(float)
        queries[rng.random(queries.shape) < 0.4] = np.nan
        queries = Dataset(queries, np.zeros(60, int), np.zeros(60, int))
        assert assert_shortlist_holds_the_nearest(imp, queries) >= 10
        assert assert_shortlist_holds_the_nearest(imp, bag) >= 10

    def test_transform_logs_its_shortlist_size(self, rng, caplog):
        train = random_dataset(rng, n=30, d=4, missing_rate=0.25)
        imp = KNNImputer(k=3).fit(train)
        with caplog.at_level(logging.DEBUG, logger="fairmiss"):
            imp.transform(one_hole_per_row(rng, 7, 4))
        [line] = [r.getMessage() for r in caplog.records if r.name == "fairmiss"]
        match = re.fullmatch(r"knn transform: 7 query rows, 7 cells, (\d+\.\d\d) "
                             r"shortlisted pairs per cell", line)
        assert match and 3 <= float(match[1]) <= 30

    def test_degenerate_queries(self):
        nan = np.nan
        train = ds_from([
            [1.0, 2.0, nan],
            [1.0, nan, 5.0],
            [nan, 2.5, 6.0],
            [4.0, nan, nan],
            [1.0, 2.0, 7.0],
        ])
        imp = KNNImputer(k=3).fit(train)
        queries = ds_from([
            [nan, nan, nan],  # no reachable donor: every cell keeps the mean
            [nan, nan, 1.0],  # two rows observe x3, one of them has x1
            [1.0, 2.0, nan],  # equals training row 0 where observed
            [4.0, nan, 7.0],  # x2 donors reachable only through x1 or x3
        ])
        got = imp.transform(queries).features
        assert got[0].tolist() == pytest.approx(imp.means_.tolist())
        assert got[1, 0] == 1.0  # rows 1 and 4 only, both 1.0
        assert got[2, 2] == pytest.approx(np.mean([7.0, 5.0, 6.0]))
        assert_fill_matches_reference(imp, queries)


class TestIterative:
    def test_recovers_linear_structure(self, rng):
        # x2 = 2 x1 + 1 exactly; iterative imputation should land close
        n = 60
        x1 = rng.normal(size=n)
        x2 = 2 * x1 + 1
        x = np.column_stack([x1, x2])
        x[:10, 1] = np.nan
        ds = ds_from(x)
        imp = IterativeImputer(rounds=10, lam=1e-3).fit(ds)
        out = imp.transform(ds)
        assert np.allclose(out.features[:10, 1], 2 * x1[:10] + 1, atol=0.05)

    def test_transform_uses_frozen_coefficients(self, rng):
        train = random_dataset(rng, n=50, d=3, missing_rate=0.2)
        imp = IterativeImputer(rounds=5).fit(train)
        fresh = random_dataset(rng, n=20, d=3, missing_rate=0.5, ensure_cells=False)
        a = imp.transform(fresh)
        b = imp.transform(fresh)
        assert np.array_equal(a.features, b.features)


@pytest.mark.parametrize("spec", ["zero", "mean", "knn:2", "iterative:4:0.01"])
class TestSharedContracts:
    def test_output_complete_and_observed_untouched(self, spec, rng):
        train = random_dataset(rng, n=40, d=3, missing_rate=0.25)
        target = random_dataset(rng, n=25, d=3, missing_rate=0.4, ensure_cells=False)
        imp = make_imputer(spec).fit(train)
        out = imp.transform(target)
        assert not out.mask.any()
        kept = ~target.mask
        assert np.array_equal(out.features[kept], target.features[kept])

    def test_fill_is_one_value_per_missing_cell_in_mask_order(self, spec, rng):
        train = random_dataset(rng, n=40, d=3, missing_rate=0.25)
        target = random_dataset(rng, n=25, d=3, missing_rate=0.4, ensure_cells=False)
        imp = make_imputer(spec).fit(train)
        fill = imp._fill(target)
        assert fill.shape == (np.count_nonzero(target.mask),)
        assert fill.tobytes() == imp.transform(target).features[target.mask].tobytes()

    def test_idempotent_on_complete_data(self, spec, rng):
        train = random_dataset(rng, n=40, d=3, missing_rate=0.25)
        imp = make_imputer(spec).fit(train)
        once = imp.transform(train)
        twice = imp.transform(once)
        assert np.array_equal(once.features, twice.features)

    def test_deterministic(self, spec, rng):
        train = random_dataset(rng, n=40, d=3, missing_rate=0.25)
        target = random_dataset(rng, n=10, d=3, missing_rate=0.3, ensure_cells=False)
        a = make_imputer(spec).fit(train).transform(target)
        b = make_imputer(spec).fit(train).transform(target)
        assert np.array_equal(a.features, b.features)


@pytest.mark.parametrize("spec", ["mean", "knn:2", "iterative:4:0.01"])
def test_width_mismatch_is_a_validation_error(spec, rng):
    imp = make_imputer(spec).fit(random_dataset(rng, n=20, d=3, missing_rate=0.2))
    wider = random_dataset(rng, n=10, d=4, missing_rate=0.3, ensure_cells=False)
    with pytest.raises(ValidationError, match="fitted on 3 features, got 4"):
        imp.transform(wider)


@pytest.mark.parametrize("spec", ["zero", "mean", "knn:2", "iterative:4:0.01"])
def test_infinite_observed_value_is_a_validation_error(spec):
    ds = ds_from([[np.inf, 1], [0, 2], [1, np.nan], [2, 3]], names=("a", "b"))
    with pytest.raises(ValidationError, match="feature 'a' has an infinite"):
        make_imputer(spec).fit(ds)
    imp = make_imputer(spec).fit(ds_from([[0, 1], [1, 2], [2, 3]], names=("a", "b")))
    with pytest.raises(ValidationError, match="feature 'a' has an infinite"):
        imp.transform(ds)


@st.composite
def fit_and_target(draw, bootstrap=False):
    """A training set, a target and k; with ``bootstrap`` the training set is
    a resample with replacement, as a fair-bagging bag is."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, 25))
    m = draw(st.integers(0, 25))
    grid = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.5])
    coarse = draw(st.booleans())
    values = grid if coarse else st.floats(-1e3, 1e3, allow_nan=False)
    train = np.array(draw(st.lists(values, min_size=n * d, max_size=n * d))).reshape(n, d)
    target = np.array(draw(st.lists(values, min_size=m * d, max_size=m * d))).reshape(m, d)
    holes = np.array(draw(st.lists(st.booleans(), min_size=n * d, max_size=n * d))).reshape(n, d)
    full = draw(st.integers(0, n - 1))
    holes[full] = False  # every feature observed somewhere
    train[holes] = np.nan
    if bootstrap:
        rows = draw(st.lists(st.integers(0, n - 1), min_size=n - 1, max_size=n - 1))
        train = train[[full] + rows]
    target_holes = draw(st.lists(st.booleans(), min_size=m * d, max_size=m * d))
    target[np.array(target_holes, dtype=bool).reshape(m, d)] = np.nan
    k = draw(st.integers(1, n))
    as_ds = lambda x: Dataset(x, np.zeros(len(x), int), np.zeros(len(x), int))
    return as_ds(train), as_ds(target), k


@given(fit_and_target())
def test_every_imputer_completes_and_knn_matches_row_by_row(case):
    train, target, k = case
    # a subset drawn with repeats, as a bag draws its rows
    rows = np.arange(target.n_samples)[::-2].repeat(2)
    for spec in ("zero", "mean", f"knn:{k}", "iterative:3:0.01"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # iterative may report a growing update
            imputer = make_imputer(spec).fit(train)
            out = imputer.transform(target)
            sub = imputer.transform(target.subset(rows))
        assert not out.mask.any()
        kept = ~target.mask
        assert np.array_equal(out.features[kept], target.features[kept])
        assert sub.features.tobytes() == out.features[rows].tobytes()
    assert_fill_matches_reference(KNNImputer(k).fit(train), target)


@given(fit_and_target(bootstrap=True))
def test_knn_on_a_bootstrap_bag_matches_row_by_row(case):
    train, target, k = case
    imp = KNNImputer(k).fit(train)
    assert_fill_matches_reference(imp, target)
    assert_fill_matches_reference(imp, train)


@given(fit_and_target(bootstrap=True))
def test_shortlist_holds_every_nearest_donor(case):
    train, target, k = case
    imp = KNNImputer(k).fit(train)
    assert_shortlist_holds_the_nearest(imp, target)
    assert_shortlist_holds_the_nearest(imp, train)


@st.composite
def scaled_fit_and_target(draw):
    """``fit_and_target`` at the float32 screen's edges: each feature scaled
    by 10^-46 to 10^-19 (subnormal float32 inputs, and squares that are
    subnormal or underflow to zero), or all values scaled to 1/2 to 4 times
    the screen's overflow guard."""
    train, target, k = draw(fit_and_target(bootstrap=draw(st.booleans())))
    d = train.dimension
    if draw(st.booleans()):
        powers = draw(st.lists(st.floats(-46.0, -19.0), min_size=d, max_size=d))
        scale = 10.0 ** np.array(powers)
        rescale = lambda x: x * scale
    else:
        guard = np.sqrt(np.finfo(np.float32).max / 8) / d
        big = np.nanmax(np.abs(np.vstack([train.features, target.features])))
        top = draw(st.floats(0.5, 4.0)) * guard
        # divided first: guard / big overflows when big is subnormal
        rescale = (lambda x: x / big * top) if big > 0 else (lambda x: x)
    return (train.with_features(rescale(train.features)),
            target.with_features(rescale(target.features)), k)


@given(scaled_fit_and_target())
def test_knn_at_the_float32_underflow_and_overflow_edges_matches_row_by_row(case):
    train, target, k = case
    imp = KNNImputer(k).fit(train)
    assert_fill_matches_reference(imp, target)
    assert_fill_matches_reference(imp, train)


@pytest.mark.parametrize(
    "spec",
    ["tarot-cards", "knn:1:2:3", "knn:abc", "iterative:2:x", "iterative:x",
     "iterative:3:nan", "iterative:3:inf"],
)
def test_make_imputer_rejects_junk(spec):
    with pytest.raises(ValidationError):
        make_imputer(spec)
