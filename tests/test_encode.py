import numpy as np
import pytest

from fairmiss.data import Dataset
from fairmiss.encode import (
    AffineEncoder,
    cluster_missing_patterns,
    encode_indicators,
)
from fairmiss.errors import ValidationError
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


class TestIndicators:
    def test_definition(self):
        ds = ds_from([[np.nan, 2.0]])
        enc = encode_indicators(ds)
        assert enc.matrix[0].tolist() == [0.0, 2.0, 1.0, 0.0]
        assert enc.columns == ("orig:x1", "orig:x2", "ind:x1", "ind:x2")

    def test_complete_row_gets_zero_indicators(self):
        ds = ds_from([[1.0, 2.0]])
        assert encode_indicators(ds).matrix[0].tolist() == [1.0, 2.0, 0.0, 0.0]

    def test_all_missing_row(self):
        ds = ds_from([[np.nan, np.nan]])
        assert encode_indicators(ds).matrix[0].tolist() == [0.0, 0.0, 1.0, 1.0]

    def test_column_count(self, rng):
        ds = random_dataset(rng, n=20, d=5)
        assert encode_indicators(ds).matrix.shape[1] == 10


class TestAffine:
    def test_formula_substitution(self):
        # both features miss somewhere in the data, so both get cross columns
        ds = ds_from([[np.nan, 3.0], [1.0, np.nan]])
        enc = encode_affine(ds)
        assert enc.matrix[0].tolist() == [0.0, 3.0, 1.0, 0.0, 3.0, 0.0]
        assert enc.columns[4:] == ("cross:x2|miss:x1", "cross:x1|miss:x2")

    def test_complete_dataset_equals_indicator_encoding(self, rng):
        ds = random_dataset(rng, n=15, d=3, missing_rate=0.0)
        enc = encode_affine(ds)
        base = encode_indicators(ds)
        assert enc.columns == base.columns
        assert np.array_equal(enc.matrix, base.matrix)

    def test_column_count_formula(self):
        # d = 3 with exactly one missing-capable feature: 2*3 + 1*2 = 8
        ds = ds_from([[np.nan, 1.0, 2.0], [0.5, 1.5, 2.5]])
        assert encode_affine(ds).matrix.shape[1] == 8

    def test_first_2d_columns_match_indicators(self, rng):
        ds = random_dataset(rng, n=30, d=4, missing_rate=0.3)
        enc = encode_affine(ds)
        base = encode_indicators(ds)
        d2 = 2 * ds.dimension
        assert enc.columns[:d2] == base.columns
        assert np.array_equal(enc.matrix[:, :d2], base.matrix)

    def test_test_time_only_missingness_adds_no_columns(self, rng):
        train = ds_from([[np.nan, 1.0, 2.0], [0.5, 1.5, 2.5]])
        encoder = AffineEncoder().fit(train)
        test = ds_from([[1.0, np.nan, 2.0]])  # feature 2 missing only here
        enc = encoder.transform(test)
        assert enc.matrix.shape[1] == 8
        # its mask still shows through the indicator column
        assert enc.matrix[0, 3 + 1] == 1.0


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
            enc_cols = [enc.matrix[:, j] for j in range(2 * d)]
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
