import numpy as np
import pytest

from fairmiss.data import Dataset
from fairmiss.errors import ValidationError
from fairmiss.simulate import (
    MaskedPositives,
    MissingEntry,
    MissingnessSpec,
    gen_synthetic,
    inject_missing,
    masked_positives_table,
    sample_masked_positives,
)

from oracles import binary_entropy, mutual_info_my


def flat_dataset(rng, n, cols):
    feats = np.column_stack([cols[name] for name in cols])
    y = rng.integers(0, 2, n)
    s = rng.integers(0, 2, n)
    return Dataset(feats, s, y, tuple(cols))


class TestSpecValidation:
    def test_mcar_requires_equal_probs(self):
        with pytest.raises(ValidationError):
            MissingnessSpec("mcar", (MissingEntry("a", None, 0.1, 0.2),))

    def test_mar_cannot_condition_on_label(self):
        with pytest.raises(ValidationError, match="label"):
            MissingnessSpec("mar", (MissingEntry("a", "label", 0.1, 0.4),))

    def test_mar_cannot_condition_on_itself(self):
        with pytest.raises(ValidationError):
            MissingnessSpec("mar", (MissingEntry("a", "a", 0.1, 0.4),))

    def test_probability_bounds(self):
        with pytest.raises(ValidationError):
            MissingnessSpec("mnar", (MissingEntry("a", "label", 0.1, 1.4),))

    def test_mnar_may_condition_on_target_or_label(self):
        MissingnessSpec("mnar", (MissingEntry("a", "label", 0.1, 0.4),))
        MissingnessSpec("mnar", (MissingEntry("a", "a", 0.3, 0.1, threshold=0.5),))


class TestInject:
    def test_mar_on_binary_column_expected_fraction(self, rng):
        # template: mask one feature at 0.1 for one value of a balanced binary
        # column and 0.4 for the other -> overall rate 0.25
        n = 20000
        sex = rng.integers(0, 2, n).astype(float)
        ds = flat_dataset(rng, n, {"priors": rng.normal(size=n), "sex": sex})
        spec = MissingnessSpec("mar", (MissingEntry("priors", "sex", 0.1, 0.4),))
        out = inject_missing(ds, spec, seed=5)
        j = out.feature_names.index("priors")
        rate = out.mask[:, j].mean()
        expected = 0.5 * 0.1 + 0.5 * 0.4
        assert rate == pytest.approx(expected, abs=0.02)
        rate_if_1 = out.mask[sex == 1, j].mean()
        assert rate_if_1 == pytest.approx(0.4, abs=0.03)

    def test_mcar_rate_concentrates(self, rng):
        n = 10000
        ds = flat_dataset(rng, n, {"a": rng.normal(size=n)})
        spec = MissingnessSpec("mcar", (MissingEntry("a", None, 0.2, 0.2),))
        out = inject_missing(ds, spec, seed=1)
        sigma = np.sqrt(0.2 * 0.8 / n)
        assert abs(out.mask[:, 0].mean() - 0.2) <= 3 * sigma

    def test_zero_probability_branch(self, rng):
        n = 500
        ind = rng.integers(0, 2, n).astype(float)
        ds = flat_dataset(rng, n, {"a": rng.normal(size=n), "i": ind})
        spec = MissingnessSpec("mar", (MissingEntry("a", "i", 0.5, 0.0),))
        out = inject_missing(ds, spec, seed=2)
        assert not out.mask[ind == 1, 0].any()

    def test_observed_values_never_modified(self, rng):
        n = 300
        ds = flat_dataset(rng, n, {"a": rng.normal(size=n), "b": rng.normal(size=n)})
        spec = MissingnessSpec("mcar", (MissingEntry("a", None, 0.3, 0.3),))
        out = inject_missing(ds, spec, seed=3)
        kept = ~out.mask[:, 0]
        assert np.array_equal(out.features[kept, 0], ds.features[kept, 0])
        assert np.array_equal(out.features[:, 1], ds.features[:, 1])

    def test_threshold_indicator(self, rng):
        n = 4000
        age = rng.random(n)
        ds = flat_dataset(rng, n, {"work": rng.normal(size=n), "age": age})
        spec = MissingnessSpec(
            "mar", (MissingEntry("work", "age", 0.1, 0.4, threshold=0.2),)
        )
        out = inject_missing(ds, spec, seed=4)
        young = age < 0.2
        assert out.mask[young, 0].mean() == pytest.approx(0.4, abs=0.06)
        assert out.mask[~young, 0].mean() == pytest.approx(0.1, abs=0.03)

    def test_mnar_on_label_is_detectable(self, rng):
        n = 10000
        ds = flat_dataset(rng, n, {"a": rng.normal(size=n)})
        spec = MissingnessSpec("mnar", (MissingEntry("a", "label", 0.1, 0.4),))
        out = inject_missing(ds, spec, seed=6)
        mi = mutual_info_my(out)
        shuffled = Dataset(
            out.features.copy(),
            out.sensitive.copy(),
            np.random.default_rng(0).permutation(out.labels),
            out.feature_names,
        )
        null = mutual_info_my(shuffled)
        assert mi > 0 and mi >= 5 * null

    def test_deterministic(self, rng):
        n = 200
        ds = flat_dataset(rng, n, {"a": rng.normal(size=n)})
        spec = MissingnessSpec("mcar", (MissingEntry("a", None, 0.4, 0.4),))
        a = inject_missing(ds, spec, seed=9)
        b = inject_missing(ds, spec, seed=9)
        assert np.array_equal(a.mask, b.mask)

    def test_unobserved_conditioning_column_rejected(self, rng):
        feats = np.array([[1.0, np.nan], [2.0, 1.0]])
        ds = Dataset(feats, [0, 1], [0, 1], ("a", "i"))
        spec = MissingnessSpec("mar", (MissingEntry("a", "i", 0.1, 0.4),))
        with pytest.raises(ValidationError, match="fully observed"):
            inject_missing(ds, spec, seed=0)

    def test_mnar_self_conditioning_uses_premask_values(self, rng):
        # p0=0, p1=1 on 1[value < 0.5]: exactly the small values disappear,
        # which only works if the indicator is read before masking
        n = 400
        vals = rng.random(n)
        ds = flat_dataset(rng, n, {"a": vals})
        spec = MissingnessSpec(
            "mnar", (MissingEntry("a", "a", 0.0, 1.0, threshold=0.5),)
        )
        out = inject_missing(ds, spec, seed=0)
        assert np.array_equal(out.mask[:, 0], vals < 0.5)


class TestSynthetic:
    def test_counts(self):
        ds = gen_synthetic(0)
        assert ds.n_samples == 2400
        assert int(ds.mask[:, 1].sum()) == 800
        assert not ds.mask[:, 0].any()

    def test_cell_moments(self):
        ds = gen_synthetic(1)
        present = ~ds.mask[:, 1]
        cell = present & (ds.labels == 1) & (ds.sensitive == 1)
        assert int(cell.sum()) == 400
        tol = 3 * np.sqrt(2.0 / 400)
        assert np.mean(ds.features[cell, 0]) == pytest.approx(-3.0, abs=tol)
        assert np.mean(ds.features[cell, 1]) == pytest.approx(-3.0, abs=tol)

    def test_masked_cell_counts_and_flipped_means(self):
        ds = gen_synthetic(2)
        missing = ds.mask[:, 1]
        counts = {
            (y, s): int(np.sum(missing & (ds.labels == y) & (ds.sensitive == s)))
            for y in (0, 1)
            for s in (0, 1)
        }
        assert counts == {(1, 1): 100, (1, 0): 300, (0, 1): 100, (0, 0): 300}
        tol = 3 * np.sqrt(3.0 / 400)
        pos = missing & (ds.labels == 1)
        assert np.mean(ds.features[pos, 0]) == pytest.approx(3.0, abs=tol)

    def test_deterministic(self):
        a, b = gen_synthetic(7), gen_synthetic(7)
        assert np.allclose(a.features, b.features, equal_nan=True)

    def test_seeds_differ(self):
        assert not np.allclose(
            gen_synthetic(1).features, gen_synthetic(2).features, equal_nan=True
        )


class TestMaskedPositives:
    def test_table_cell_value(self):
        table = masked_positives_table(MaskedPositives((0.25, 0.25), (0.5, 0.5)))
        # Pr(y=1, x=missing, s=0) = q0 * alpha0
        assert table.probs[0, 2, 1] == pytest.approx(0.125)
        assert table.probs.sum() == pytest.approx(1.0)

    def test_table_mi_equals_binary_entropy(self):
        for a in (0.05, 0.1, 0.2, 0.3):
            table = masked_positives_table(MaskedPositives((a, a), (0.5, 0.5)))
            assert table.mutual_info_my() == pytest.approx(binary_entropy(a), abs=1e-12)

    def test_zero_rate_boundary(self):
        table = masked_positives_table(MaskedPositives((0.0, 0.0), (0.5, 0.5)))
        na_col = table.x_values.index(None)
        assert table.probs[:, na_col, :].sum() == 0.0
        assert table.probs[:, :, 1].sum() == 0.0  # no positives at all

    def test_mixture_rate_cap(self):
        with pytest.raises(ValidationError, match="1/3"):
            MaskedPositives((0.4, 0.4), (0.5, 0.5))
        # uneven priors can keep the mixture below the cap
        MaskedPositives((0.4, 0.1), (0.1, 0.9))

    def test_sampling_matches_table(self):
        dist = MaskedPositives((0.2, 0.3), (0.5, 0.5))
        ds = sample_masked_positives(dist, 20000, seed=3)
        assert ds.n_samples == 20000
        na_rate = ds.mask[:, 0].mean()
        assert na_rate == pytest.approx(0.25, abs=0.01)
        assert np.array_equal(ds.mask[:, 0], ds.labels == 1)

    def test_sampling_deterministic(self):
        dist = MaskedPositives((0.2, 0.2), (0.5, 0.5))
        a = sample_masked_positives(dist, 500, seed=1)
        b = sample_masked_positives(dist, 500, seed=1)
        assert np.allclose(a.features, b.features, equal_nan=True)
        assert np.array_equal(a.labels, b.labels)
