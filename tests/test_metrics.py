import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from fairmiss import metrics
from fairmiss.data import Dataset
from fairmiss.errors import ValidationError
from fairmiss.metrics import (
    JointTable,
    TradeoffPoint,
    accuracy,
    best_fair_accuracy,
    disparity,
    group_rates,
    pareto_frontier,
)
from fairmiss.simulate import MaskedPositives, masked_positives_table

from oracles import (
    bayes_accuracy,
    binary_entropy,
    conditional_entropy,
    exact_best_fair_gain,
    mutual_info_my,
    reference_best_fair_accuracy,
    table_gap_rows,
    table_to_dataset,
)


@st.composite
def joint_tables(draw, cell):
    """Tables of 1-3 groups and 2-4 feature values, each cell 0 or drawn
    from ``cell``, normalized (one cell is 1 before that if all are 0)."""
    groups, values = draw(st.integers(1, 3)), draw(st.integers(2, 4))
    size = 2 * groups * values
    p = np.array(draw(st.lists(st.just(0.0) | cell, min_size=size, max_size=size)))
    if not p.sum() > 0:
        p[0] = 1.0
    return JointTable(tuple(range(groups)), tuple(float(i) for i in range(values)),
                      p.reshape(groups, values, 2) / p.sum())


def eight_sample_dataset():
    # two groups x two labels, two samples per cell
    sens = [0, 0, 0, 0, 1, 1, 1, 1]
    labels = [0, 0, 1, 1, 0, 0, 1, 1]
    return Dataset(np.zeros((8, 1)), sens, labels)


class TestRates:
    def test_all_correct(self):
        ds = eight_sample_dataset()
        rates = group_rates(ds.labels, ds)
        assert accuracy(ds.labels, ds) == 1.0
        assert rates == {(0, 0): 0.0, (0, 1): 1.0, (1, 0): 0.0, (1, 1): 1.0}

    def test_all_wrong(self):
        ds = eight_sample_dataset()
        preds = 1 - ds.labels
        rates = group_rates(preds, ds)
        assert accuracy(preds, ds) == 0.0
        assert rates == {(0, 0): 1.0, (0, 1): 0.0, (1, 0): 1.0, (1, 1): 0.0}

    def test_one_error_per_cell(self):
        ds = eight_sample_dataset()
        preds = ds.labels.copy()
        preds[[0, 2, 4, 6]] = 1 - preds[[0, 2, 4, 6]]  # first sample of each cell
        rates = group_rates(preds, ds)
        assert list(rates) == [cell for cell, _ in ds.cells()]
        assert all(v == 0.5 for v in rates.values())

    def test_empty_cell_errors(self):
        ds = Dataset(np.zeros((3, 1)), [0, 0, 1], [0, 1, 1])
        with pytest.raises(ValidationError, match=r"s=1, y=0"):
            group_rates(np.zeros(3, dtype=int), ds)


class TestDisparity:
    def make(self, fnr0, fnr1, fpr0, fpr1):
        """The (s, y) -> Pr(prediction = 1) table with these error rates."""
        return {(0, 0): fpr0, (0, 1): 1 - fnr0, (1, 0): fpr1, (1, 1): 1 - fnr1}

    def test_meo_formula(self):
        rates = self.make(0.2, 0.3, 0.1, 0.4)
        assert disparity(rates, "meo") == pytest.approx(0.5 * (0.1 + 0.3))

    def test_identical_rates_zero(self):
        rates = self.make(0.2, 0.2, 0.1, 0.1)
        for kind in ("fnr-diff", "fpr-diff", "meo"):
            assert disparity(rates, kind) == 0.0

    def test_eqodds_max_is_not_a_kind(self):
        # max(fnr-diff, fpr-diff) is not a kind of its own
        with pytest.raises(ValidationError, match="unknown disparity kind"):
            disparity(self.make(0.2, 0.3, 0.1, 0.4), "eqodds-max")

    def test_single_group_errors(self):
        rates = {(0, 0): 0.1, (0, 1): 0.9}
        with pytest.raises(ValidationError):
            disparity(rates, "meo")


class TestEntropy:
    def test_symmetric_maximum(self):
        assert binary_entropy(0.5) == 1.0

    def test_quarter_value(self):
        # direct numerical evaluation of -a log2 a - (1-a) log2 (1-a) at 0.25
        expected = -(0.25 * np.log2(0.25) + 0.75 * np.log2(0.75))
        assert expected == pytest.approx(0.811278, abs=1e-6)
        assert binary_entropy(0.25) == pytest.approx(expected, abs=1e-12)

    def test_endpoints_zero(self):
        assert binary_entropy(0.0) == 0.0 and binary_entropy(1.0) == 0.0

    def test_conditional_entropy_determined(self):
        y = np.array([0, 1, 0, 1])
        t = np.array([0.0, 1.0, 0.0, 1.0])
        assert conditional_entropy(y, [t]) == pytest.approx(0.0)

    def test_conditional_entropy_independent_uniform(self):
        y = np.array([0, 1] * 8)
        t = np.array([0.0, 0.0, 1.0, 1.0] * 4)
        assert conditional_entropy(y, [t]) == pytest.approx(1.0)

    def test_table_mi_matches_binary_entropy(self):
        table = masked_positives_table(MaskedPositives((0.25, 0.25), (0.5, 0.5)))
        assert table.mutual_info_my() == pytest.approx(binary_entropy(0.25), abs=1e-12)

    def test_plugin_mi_on_expanded_table(self):
        # alpha = 0.25 with equal priors expands exactly at denominator 16
        table = masked_positives_table(MaskedPositives((0.25, 0.25), (0.5, 0.5)))
        ds = table_to_dataset(table, 16)
        assert ds.n_samples == 16
        assert mutual_info_my(ds) == pytest.approx(binary_entropy(0.25), abs=1e-12)

    def test_entropy_chain_on_exact_table(self):
        # zero-imputed value column plus mask determines the label exactly;
        # the imputed value alone does not (for masking rates in (0, 1/3))
        table = masked_positives_table(MaskedPositives((0.25, 0.25), (0.5, 0.5)))
        ds = table_to_dataset(table, 16)
        x = ds.features[:, 0]
        m = ds.mask[:, 0].astype(float)
        xh = np.where(np.isnan(x), 1.0, x)  # impute missing to 1
        assert conditional_entropy(ds.labels, [xh, m]) == pytest.approx(0.0, abs=1e-12)
        assert conditional_entropy(ds.labels, [xh]) > 0.1

    def test_mi_nonnegative_and_zero_when_mask_constant(self, rng):
        complete = Dataset(rng.normal(size=(30, 2)), rng.integers(0, 2, 30), rng.integers(0, 2, 30))
        assert mutual_info_my(complete) == pytest.approx(0.0, abs=1e-12)
        for _ in range(20):
            x = rng.normal(size=(40, 2))
            x[rng.random((40, 2)) < 0.3] = np.nan
            ds = Dataset(x, rng.integers(0, 2, 40), rng.integers(0, 2, 40))
            assert mutual_info_my(ds) >= -1e-12


class TestExactOracle:
    def test_worst_case_table_is_perfectly_separable(self):
        table = masked_positives_table(MaskedPositives((0.25, 0.25), (0.5, 0.5)))
        value, h = best_fair_accuracy(table, 0.0)
        assert value == pytest.approx(1.0, abs=1e-9)
        assert h[2] == pytest.approx(1.0, abs=1e-9)  # accept exactly the missing symbol

    def test_imputation_costs_alpha(self):
        table = masked_positives_table(MaskedPositives((0.25, 0.25), (0.5, 0.5)))
        value, _ = best_fair_accuracy(table.impute_na(1.0), 0.0)
        assert value == pytest.approx(0.75, abs=1e-9)

    def test_vacuous_constraint_gives_bayes(self, rng):
        for _ in range(10):
            p = rng.random((2, 3, 2))
            table = JointTable((0, 1), (0.0, 1.0, None), p / p.sum())
            value, _ = best_fair_accuracy(table, 1.0)
            assert value == pytest.approx(bayes_accuracy(table), abs=1e-9)

    def test_monotone_in_epsilon(self, rng):
        for _ in range(10):
            p = rng.random((2, 3, 2))
            table = JointTable((0, 1), (0.0, 1.0, None), p / p.sum())
            values = [best_fair_accuracy(table, e)[0] for e in (0.0, 0.05, 0.2, 1.0)]
            for lo, hi in zip(values, values[1:]):
                assert hi >= lo - 1e-9

    @pytest.mark.parametrize("groups, values", [(1, 17), (5, 6)])
    def test_domain_cap(self, groups, values, monkeypatch):
        # 2**17 bases, and comb(26, 6) * 2**6 with 20 gap pairs: both raise
        # before any vertex is built
        def no_vertices(gaps, eps):
            raise AssertionError("vertices built past the cap")

        monkeypatch.setattr(metrics, "_vertices", no_vertices)
        p = np.full((groups, values, 2), 1.0 / (2 * groups * values))
        table = JointTable(tuple(range(groups)), tuple(float(i) for i in range(values)), p)
        with pytest.raises(ValidationError, match="too large for the exact oracle"):
            best_fair_accuracy(table, 0.1)

    def test_most_gap_rows_under_the_cap_leave_the_box_corners(self):
        # 91 groups give 2 * C(91, 2) = 8190 gap rows and 16382 bases, the
        # most under the cap; with one value each Pr(x | s, y) is exactly 1, so
        # every gap is 0 and every basis singular. Measured peak: 2.5 MB
        p = np.arange(1.0, 183.0).reshape(91, 1, 2)
        table = JointTable(tuple(range(91)), (0.0,), p / p.sum())
        tracemalloc.start()
        try:
            vertices, _, _ = metrics.fair_vertices(table, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert vertices.tolist() == [[1.0], [0.0]]
        assert peak < 10e6

    # small integer weights: HiGHS's feasibility tolerance, 1e-10 at its
    # tightest, is absolute, so on a gap row of norm near it HiGHS's optimum
    # can be off by 0.4 (a table with a 1e-13 cell); the next test covers
    # such tables exactly
    @given(joint_tables(st.integers(1, 20).map(float)), st.floats(0.0, 1.0))
    def test_vertex_solve_matches_lp(self, table, epsilon):
        value, h = best_fair_accuracy(table, epsilon)
        expected, _ = reference_best_fair_accuracy(table, epsilon)
        assert abs(value - expected) <= 1e-9
        assert h.shape == (len(table.x_values),) and ((0.0 <= h) & (h <= 1.0)).all()
        assert (np.abs(table_gap_rows(table) @ h) <= epsilon + 2 * metrics._TOL).all()

    @given(joint_tables(st.floats(0.0, 1.0)), st.floats(0.0, 1.0))
    def test_vertex_solve_is_exact_up_to_its_tolerance(self, table, epsilon):
        # the solver's vertices hold every row within its slack, so its
        # optimum lies between the exact optima at epsilon and epsilon + 2 tol
        value, _ = best_fair_accuracy(table, epsilon)
        gain = value - float(table.probs[:, :, 0].sum())
        low = exact_best_fair_gain(table, epsilon)
        high = exact_best_fair_gain(table, Fraction(epsilon) + Fraction(2 * metrics._TOL))
        assert float(low) - 1e-12 <= gain <= float(high) + 1e-12

    @given(joint_tables(st.floats(0.0, 1.0)), st.floats(0.0, 1.0))
    # one solve of the gap and box rows together left a coordinate held at 0
    # by its box row at 3.5e-19 on this table
    @example(JointTable((0, 1), (0.0, 1.0, 2.0),
                        np.array([[[0, 0], [2, 0], [0, 1]], [[2, 4], [0, 3], [4, 4]]]) / 20), 0.1)
    def test_vertices_are_interior_in_at_most_one_coordinate_per_gap_row(self, table, epsilon):
        # a vertex holds some gap rows and fixes every other coordinate at
        # exactly 0 or 1, which rounding must not move off 0 or 1
        vertices, _, _ = metrics.fair_vertices(table, epsilon)
        interior = ((0.0 < vertices) & (vertices < 1.0)).sum(axis=1)
        assert (interior <= len(table_gap_rows(table))).all()

    @pytest.mark.parametrize("epsilon", [-0.1, np.nan, np.inf])
    def test_epsilon_must_be_finite_and_non_negative(self, epsilon):
        table = masked_positives_table(MaskedPositives((0.25, 0.25), (0.5, 0.5)))
        with pytest.raises(ValidationError, match="epsilon must be finite and >= 0"):
            best_fair_accuracy(table, epsilon)

    def test_nan_cells_are_rejected(self):
        p = np.full((2, 3, 2), 1.0 / 12)
        p[0, 0, 0] = np.nan
        with pytest.raises(ValidationError, match="negative or NaN cell"):
            JointTable((0, 1), (0.0, 1.0, None), p)


class TestPareto:
    def brute_force(self, points):
        out = []
        for p in points:
            dominated = any(
                (q.accuracy >= p.accuracy and q.disparity <= p.disparity)
                and (q.accuracy > p.accuracy or q.disparity < p.disparity)
                for q in points
            )
            if not dominated:
                out.append((p.accuracy, p.disparity))
        return sorted(set(out))

    def test_three_point_example(self):
        pts = [TradeoffPoint(0.8, 0.1), TradeoffPoint(0.7, 0.05), TradeoffPoint(0.75, 0.2)]
        front = pareto_frontier(pts)
        assert [(p.accuracy, p.disparity) for p in front] == [(0.7, 0.05), (0.8, 0.1)]

    def test_single_point(self):
        pts = [TradeoffPoint(0.5, 0.5)]
        assert pareto_frontier(pts) == pts

    def test_duplicates_kept_once(self):
        pts = [TradeoffPoint(0.6, 0.1)] * 3
        assert len(pareto_frontier(pts)) == 1

    def test_matches_quadratic_oracle(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 60))
            pts = [
                TradeoffPoint(float(a), float(d))
                for a, d in zip(
                    rng.integers(0, 12, n) / 11.0, rng.integers(0, 12, n) / 11.0
                )
            ]
            got = [(p.accuracy, p.disparity) for p in pareto_frontier(pts)]
            assert got == self.brute_force(pts)
            # frontier is mutually non-dominating and sorted by accuracy
            assert got == sorted(got)


class TestPostprocessOracleAgreement:
    """The exact post-processor is checked against an independent LP solver."""

    def test_vertex_enumeration_matches_lp(self, rng):
        from fairmiss.classify import eqodds_program, postprocess_eqodds

        from oracles import mixed_rate_table, reference_postprocess_eqodds

        for trial in range(25):
            n = 400
            sens = rng.integers(0, 2, n)
            labels = rng.integers(0, 2, n)
            scores = rng.random(n)
            ds = Dataset(np.zeros((n, 1)), sens, labels)
            if min(len(i) for _, i in ds.cells()) == 0:
                continue
            eps = float(rng.choice([0.0, 0.05, 0.2, 1.0]))
            rates = postprocess_eqodds(eqodds_program(scores, ds), eps)
            base = {}
            p_sy = {}
            pred = (scores >= 0.5).astype(int)
            for s in (0, 1):
                for y in (0, 1):
                    idx = (sens == s) & (labels == y)
                    base[(s, y)] = float(np.mean(pred[idx]))
                    p_sy[(s, y)] = float(np.mean(idx))

            def accuracy_of(rates):
                mixed = mixed_rate_table(rates, base)
                return (p_sy[(0, 1)] * mixed[(0, 1)] + p_sy[(1, 1)] * mixed[(1, 1)]
                        + p_sy[(0, 0)] * (1 - mixed[(0, 0)])
                        + p_sy[(1, 0)] * (1 - mixed[(1, 0)]))

            achieved = accuracy_of(rates)
            expected = accuracy_of(reference_postprocess_eqodds(scores, ds, eps))
            assert achieved == pytest.approx(expected, abs=1e-9)
