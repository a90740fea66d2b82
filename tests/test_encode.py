import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from fairmiss.data import Dataset
from fairmiss.encode import (
    AffineEncoder,
    cluster_missing_patterns,
    encode_indicators,
    encode_plain,
)
from fairmiss.errors import ValidationError
from fairmiss.impute import make_imputer
from fairmiss.simulate import gen_synthetic

from conftest import random_dataset
from oracles import (
    assign_row,
    conditional_entropy,
    encode_affine,
    entropy,
    partition_from_text,
    partition_to_text,
)


def ds_from(matrix, sens=None, labels=None):
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    sens = sens if sens is not None else [i % 2 for i in range(n)]
    labels = labels if labels is not None else [i % 2 for i in range(n)]
    return Dataset(matrix, sens, labels)


@st.composite
def holes_and_imputer(draw):
    """Rows with NaN holes, each feature observed at least once as every
    imputer's fit needs, and an imputer spec for them."""
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 4))
    x = draw(hnp.arrays(np.float64, (n, d), elements=st.floats(-1e3, 1e3)))
    holes = draw(hnp.arrays(bool, (n, d)))
    holes[draw(st.integers(0, n - 1)), :] = False
    x[holes] = np.nan
    sens = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 2)))
    labels = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 1)))
    spec = draw(st.sampled_from(
        ["zero", "mean", f"knn:{draw(st.integers(1, n))}", "iterative:3"]))
    return Dataset(x, sens, labels), spec


@given(holes_and_imputer())
def test_every_encoding_is_a_complete_dataset_of_the_same_rows(case):
    ds, spec = case
    imputer = make_imputer(spec).fit(ds)
    encodings = (encode_plain(ds, imputer), encode_indicators(ds, imputer),
                 encode_indicators(ds), AffineEncoder().fit(ds).transform(ds))
    for enc in encodings:
        assert isinstance(enc, Dataset)
        assert not np.isnan(enc.features).any()
        assert len(set(enc.feature_names)) == enc.dimension
        assert np.array_equal(enc.sensitive, ds.sensitive)
        assert np.array_equal(enc.labels, ds.labels)


class TestIndicators:
    def test_definition(self):
        ds = ds_from([[np.nan, 2.0]])
        enc = encode_indicators(ds)
        assert enc.features[0].tolist() == [0.0, 2.0, 1.0, 0.0]
        assert enc.feature_names == ("orig:x1", "orig:x2", "ind:x1", "ind:x2")

    def test_complete_row_gets_zero_indicators(self):
        ds = ds_from([[1.0, 2.0]])
        assert encode_indicators(ds).features[0].tolist() == [1.0, 2.0, 0.0, 0.0]

    def test_all_missing_row(self):
        ds = ds_from([[np.nan, np.nan]])
        assert encode_indicators(ds).features[0].tolist() == [0.0, 0.0, 1.0, 1.0]

    def test_column_count(self, rng):
        ds = random_dataset(rng, n=20, d=5)
        assert encode_indicators(ds).features.shape[1] == 10


class TestAffine:
    def test_formula_substitution(self):
        # both features miss somewhere in the data, so both get cross columns
        ds = ds_from([[np.nan, 3.0], [1.0, np.nan]])
        enc = encode_affine(ds)
        assert enc.features[0].tolist() == [0.0, 3.0, 1.0, 0.0, 3.0, 0.0]
        assert enc.feature_names[4:] == ("cross:x2|miss:x1", "cross:x1|miss:x2")

    def test_complete_dataset_equals_indicator_encoding(self, rng):
        ds = random_dataset(rng, n=15, d=3, missing_rate=0.0)
        enc = encode_affine(ds)
        base = encode_indicators(ds)
        assert enc.feature_names == base.feature_names
        assert np.array_equal(enc.features, base.features)

    def test_column_count_formula(self):
        # d = 3 with exactly one missing-capable feature: 2*3 + 1*2 = 8
        ds = ds_from([[np.nan, 1.0, 2.0], [0.5, 1.5, 2.5]])
        assert encode_affine(ds).features.shape[1] == 8

    def test_first_2d_columns_match_indicators(self, rng):
        ds = random_dataset(rng, n=30, d=4, missing_rate=0.3)
        enc = encode_affine(ds)
        base = encode_indicators(ds)
        d2 = 2 * ds.dimension
        assert enc.feature_names[:d2] == base.feature_names
        assert np.array_equal(enc.features[:, :d2], base.features)

    def test_test_time_only_missingness_adds_no_columns(self, rng):
        train = ds_from([[np.nan, 1.0, 2.0], [0.5, 1.5, 2.5]])
        encoder = AffineEncoder().fit(train)
        test = ds_from([[1.0, np.nan, 2.0]])  # feature 2 missing only here
        enc = encoder.transform(test)
        assert enc.features.shape[1] == 8
        # its mask still shows through the indicator column
        assert enc.features[0, 3 + 1] == 1.0


class TestInformationPreservation:
    def test_zero_impute_plus_mask_recovers_discrete_feature(self, rng):
        # plug-in I(Y; (zero-imputed X, M)) == I(Y; X) on 100 random datasets
        for _ in range(100):
            n = int(rng.integers(20, 60))
            d = int(rng.integers(1, 4))
            x = rng.integers(0, 3, size=(n, d)).astype(float)
            x[rng.random((n, d)) < 0.35] = np.nan
            y = rng.integers(0, 2, n)
            ds = Dataset(x, rng.integers(0, 2, n), y)
            enc = encode_indicators(ds)
            orig_cols = [x[:, j] for j in range(d)]  # NaN is its own symbol
            enc_cols = [enc.features[:, j] for j in range(2 * d)]
            h_y = entropy(y)
            mi_orig = h_y - conditional_entropy(y, orig_cols)
            mi_enc = h_y - conditional_entropy(y, enc_cols)
            assert mi_enc == pytest.approx(mi_orig, abs=1e-10)


class TestClustering:
    def test_synthetic_data_splits_on_the_masked_feature(self):
        ds = gen_synthetic(0)
        part = cluster_missing_patterns(ds, k_min=1, alpha=1.0, beta=0.0)
        assert part.n_clusters == 2
        assert part.splits[0].feature == 1
        q_present = assign_row(part, np.array([False, False]))
        q_missing = assign_row(part, np.array([False, True]))
        assert {q_present, q_missing} == {0, 1}

    def test_complete_data_single_cluster(self, rng):
        ds = random_dataset(rng, n=50, d=3, missing_rate=0.0)
        part = cluster_missing_patterns(ds, k_min=1, alpha=1.0, beta=0.0)
        assert part.n_clusters == 1
        assert assign_row(part, np.array([True, False, True])) == 0

    def test_bounded_representation_excludes_lopsided_split(self, rng):
        # feature 0 missing almost exclusively for group 1: the m0-split child
        # would be ~95% group 1, violating alpha = 0.6
        n = 200
        s = np.repeat([0, 1], n // 2)
        y = np.tile([0, 1], n // 2)
        x = rng.normal(size=(n, 2))
        x[(s == 1) & (np.arange(n) % 3 == 0), 0] = np.nan
        x[rng.integers(0, n, 2), 0] = np.nan  # a couple of group-0 holes
        ds = Dataset(x, s, y)
        part = cluster_missing_patterns(ds, k_min=1, alpha=0.6, beta=0.0)
        assert all(rec.feature != 0 for rec in part.splits)

    def test_split_loss_decreases(self, rng):
        for _ in range(10):
            ds = random_dataset(rng, n=80, d=3, missing_rate=0.3)
            part = cluster_missing_patterns(ds, k_min=1, alpha=1.0, beta=0.0)
            for rec in part.splits:
                assert rec.children_loss < rec.parent_loss + 1e-6

    def test_leaf_records_constraints(self):
        ds = gen_synthetic(3)
        part = cluster_missing_patterns(ds, k_min=1, alpha=1.0, beta=0.0)
        for leaf in part.leaves:
            assert leaf.size >= 1
            for frac in leaf.group_fractions.values():
                assert 0.0 <= frac <= 1.0

    def test_invalid_bounds_error(self, rng):
        ds = random_dataset(rng, n=20, d=2)
        with pytest.raises(ValidationError):
            cluster_missing_patterns(ds, k_min=1, alpha=0.3, beta=0.0)  # alpha < 1/|S|
        with pytest.raises(ValidationError):
            cluster_missing_patterns(ds, k_min=0, alpha=1.0, beta=0.0)

    def test_validation_holdout_mode_runs(self):
        ds = gen_synthetic(4)
        part = cluster_missing_patterns(
            ds, k_min=1, alpha=1.0, beta=0.0, val_fraction=0.2, seed=1
        )
        assert part.n_clusters >= 1

    def test_unseen_pattern_reaches_a_leaf(self, rng):
        ds = random_dataset(rng, n=60, d=4, missing_rate=0.25)
        part = cluster_missing_patterns(ds, k_min=1, alpha=1.0, beta=0.0)
        q = assign_row(part, np.ones(4, dtype=bool))
        assert 0 <= q < part.n_clusters

    def test_serialization_roundtrip(self, rng):
        ds = random_dataset(rng, n=80, d=3, missing_rate=0.35)
        part = cluster_missing_patterns(ds, k_min=1, alpha=1.0, beta=0.0)
        back = partition_from_text(partition_to_text(part))
        assert back.n_clusters == part.n_clusters
        for _ in range(30):
            mask = rng.random(3) < 0.5
            assert assign_row(back, mask) == assign_row(part, mask)

    @staticmethod
    def random_mask_dataset(rng, n, d):
        x = rng.normal(size=(n, d))
        x[rng.random((n, d)) < 0.4] = np.nan
        return Dataset(x, rng.integers(0, 2, n), rng.integers(0, 2, n))

    def test_assign_dataset_matches_per_row_assign(self, rng):
        ds = random_dataset(rng, n=120, d=4, missing_rate=0.35)
        searched = cluster_missing_patterns(ds, k_min=1, alpha=1.0, beta=0.0)
        assert searched.n_clusters > 1
        read = partition_from_text(
            "d=4\n0 split 2 2 1\n1 leaf 0\n2 split 0 3 4\n3 leaf 2\n"
            "4 split 3 5 6\n5 leaf 1\n6 leaf 3\n"
        )
        for part in (searched, read):
            for n in (0, 1, 200):
                other = self.random_mask_dataset(rng, n, 4)
                expected = [assign_row(part, row) for row in other.mask]
                got = part.assign_dataset(other)
                assert got.dtype == np.int64
                assert got.tolist() == expected

    def test_assign_dataset_rejects_wrong_width(self, rng):
        ds = random_dataset(rng, n=60, d=3, missing_rate=0.3)
        part = cluster_missing_patterns(ds, k_min=1, alpha=1.0, beta=0.0)
        with pytest.raises(ValidationError):
            part.assign_dataset(self.random_mask_dataset(rng, 10, 4))
