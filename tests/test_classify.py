import logging
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra import numpy as hnp

from fairmiss import classify, metrics
from fairmiss.classify import (
    ENSEMBLE_MODES,
    FairEnsemble,
    Intervention,
    LinearModel,
    PostprocessRates,
    PENALTY_LABELS,
    apply_postprocess,
    draw_bags,
    eqodds_program,
    postprocess_eqodds,
    predict_dataset,
    train_fair_bagging,
    train_intervention,
)
from fairmiss.data import Dataset, fair_resample
from fairmiss.encode import encode_indicators
from fairmiss.errors import ValidationError
from fairmiss.impute import make_imputer
from fairmiss.metrics import accuracy, disparity, group_rates
from fairmiss.optim import descend, logistic, make_objective
from fairmiss.simulate import gen_synthetic

from conftest import random_dataset
from oracles import (
    ensemble_to_text,
    exact_best_accuracy,
    exact_face_least_flip,
    exact_least_flip,
    expected_group_rates,
    log1p_exp,
    mixed_rate_table,
    model_from_text,
    model_to_text,
    rates_table,
    reference_objective,
    sigmoid,
    train_logreg,
    uniform_mixture_rates,
)


def encoded(matrix, sens, labels):
    matrix = np.asarray(matrix, dtype=float)
    cols = tuple(f"orig:x{j+1}" for j in range(matrix.shape[1]))
    return Dataset(matrix, np.asarray(sens), np.asarray(labels), cols)


def random_encoded(rng, n=60, d=3):
    return encoded(rng.normal(size=(n, d)), rng.integers(0, 2, n), rng.integers(0, 2, n))


@st.composite
def model_and_rows(draw):
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 24))  # BLAS reblocks a product from 8 columns
    values = st.floats(-3, 3, allow_subnormal=False)
    matrix = draw(hnp.arrays(np.float64, (n, d), elements=values))
    weights = draw(hnp.arrays(np.float64, d, elements=values))
    model = LinearModel(weights, draw(values), tuple(f"orig:x{j + 1}" for j in range(d)))
    # a subset drawn with repeats, as a bag or a cluster leaf draws its rows
    rows = np.array(draw(st.lists(st.integers(0, n - 1), max_size=2 * n)), dtype=np.int64)
    return model, encoded(matrix, np.zeros(n, int), np.zeros(n, int)), rows


@given(model_and_rows())
def test_scores_of_a_subset_are_those_rows_of_the_whole(case):
    model, enc, rows = case
    assert model.scores(enc.subset(rows)).tobytes() == model.scores(enc)[rows].tobytes()


def group_shifted_encoded(rng, n=400):
    """One feature whose scores sit higher in group 1 at either label, so the
    plain model's false positive rates differ between the groups."""
    s = rng.integers(0, 2, n)
    y = rng.integers(0, 2, n)
    return encoded(((2 * y - 1) + s + rng.normal(0, 1, n))[:, None], s, y)


class TestLinearModel:
    def test_eqodds_grid_shares_one_plain_model(self, rng):
        training = classify.TrainingSet(group_shifted_encoded(rng))
        models = [training.train(Intervention("eqodds", epsilon=eps)) for eps in (0.0, 1.0)]
        plain = training.train(Intervention("none"))
        assert plain.rates is None
        for m in models:
            assert m.weights.tobytes() == plain.weights.tobytes() and m.bias == plain.bias
        assert models[0].rates.flip != models[1].rates.flip
        assert all(f == 0.0 for f in models[1].rates.flip.values())

    def test_predict_with_rates_flips_the_plain_labels(self, rng):
        enc = group_shifted_encoded(rng)
        model = train_intervention(enc, Intervention("eqodds", epsilon=0.0))
        plain = replace(model, rates=None)
        assert any(f > 0.0 for f in model.rates.flip.values())
        for seed in (0, 7):
            want = apply_postprocess(model.rates, plain.predict(enc, seed), enc.sensitive, seed)
            assert np.array_equal(model.predict(enc, seed), want)
        base = plain.predict(enc, 0)
        flip = model.rates.flip_probs(enc.sensitive, base)
        assert np.array_equal(model.scores(enc), np.where(base == 1, 1.0 - flip, flip))

    def test_a_row_with_a_missing_cell_has_no_score(self, rng):
        model = LinearModel(np.ones(2), 0.0, ("orig:x1", "orig:x2"))
        enc = encoded([[0.0, 1.0], [np.nan, 1.0]], [0, 1], [0, 1])
        for read in (model.scores, lambda e: model.predict(e, 0)):
            with pytest.raises(ValidationError, match="row 1 has a missing"):
                read(enc)

    def test_width_mismatch_errors(self, rng):
        model = LinearModel(np.zeros(2), 0.0, ("orig:x1", "orig:x2"))
        enc = random_encoded(rng, n=5, d=3)
        for read in (model.scores, lambda e: model.predict(e, 0)):
            with pytest.raises(ValidationError, match="width"):
                read(enc)


class TestTrainLogreg:
    def test_separable_data_fits(self, rng):
        y = rng.integers(0, 2, 200)
        enc = encoded(y[:, None].astype(float), rng.integers(0, 2, 200), y)
        model = train_logreg(enc)
        assert np.mean(model.predict(enc, 0) == y) >= 0.99

    def test_zero_iterations_returns_zero_weights(self, rng):
        enc = random_encoded(rng)
        w, _, iters = descend(make_objective(enc.features, enc.labels, 1e-4), np.zeros(4),
                              max_iters=0)
        assert np.all(w == 0.0) and iters == 0
        model = LinearModel(w[:-1], float(w[-1]), enc.feature_names)
        # constant score 0.5 predicts 1 everywhere at the threshold
        assert model.predict(enc, 0).all()

    def test_single_label_errors(self, rng):
        enc = encoded(rng.normal(size=(10, 2)), rng.integers(0, 2, 10), np.ones(10))
        with pytest.raises(ValidationError):
            train_logreg(enc)

    def test_non_finite_feature_errors(self):
        enc_matrix = np.array([[1.0], [np.inf]])
        with pytest.raises(ValidationError):
            train_logreg(encoded(enc_matrix, [0, 1], [0, 1]))

    def test_deterministic(self, rng):
        enc = random_encoded(rng)
        a = train_logreg(enc)
        b = train_logreg(enc)
        assert np.array_equal(a.weights, b.weights) and a.bias == b.bias

    def test_iteration_cap_logs_one_warning(self, rng, caplog):
        enc = random_encoded(rng)
        objective = make_objective(enc.features, enc.labels, 1e-4)
        with caplog.at_level(logging.WARNING, logger="fairmiss"):
            w, _, _ = descend(objective, np.zeros(4), max_iters=1)
        assert len(caplog.records) == 1
        rec = caplog.records[0]
        assert rec.levelno == logging.WARNING and rec.name == "fairmiss"
        norm = float(np.max(np.abs(objective(w)[1])))
        assert rec.getMessage() == (
            f"L-BFGS-B stopped without converging after 1 iterations (gradient max-norm "
            f"{norm:.3g}, tol 1e-06): STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT")

    def test_converged_fit_logs_nothing(self, rng, caplog):
        enc = random_encoded(rng)
        with caplog.at_level(logging.WARNING, logger="fairmiss"):
            train_logreg(enc)
        assert caplog.records == []

    def test_stop_meets_the_gradient_tolerance(self, rng):
        enc = random_encoded(rng)
        f = make_objective(enc.features, enc.labels, 1e-4)
        w, value, iters = descend(f, np.zeros(4), 1e-8, 500)
        assert 0 < iters < 500
        assert value == f(w)[0]
        assert np.max(np.abs(f(w)[1])) <= 1e-8


class TestGradients:
    def finite_difference(self, f, w, h=1e-6):
        g = np.zeros_like(w)
        for i in range(w.size):
            e = np.zeros_like(w)
            e[i] = h
            g[i] = (f(w + e)[0] - f(w - e)[0]) / (2 * h)
        return g

    @pytest.mark.parametrize("tau,constraint", [
        (0.0, "mean-equalized-odds"),
        (2.5, "mean-equalized-odds"),
        (2.5, "fnr-difference"),
    ])
    def test_analytic_matches_central_differences(self, rng, tau, constraint):
        enc = random_encoded(rng, n=50, d=3)
        f = make_objective(enc.features, enc.labels, 1e-4, tau, enc.cells(),
                           PENALTY_LABELS[constraint])
        for _ in range(20):
            w = rng.normal(scale=0.8, size=4)
            _, grad = f(w)
            fd = self.finite_difference(f, w)
            assert np.linalg.norm(grad - fd) <= 1e-5 * max(np.linalg.norm(fd), 1.0)

    @staticmethod
    def per_cell_objective(x, y, lam, tau, cells, labels, w):
        """The penalized loss written cell by cell: per-group mean scores and
        their gradients, then every group pair within each label."""
        x_aug = np.hstack([x, np.ones((x.shape[0], 1))])
        z = x_aug @ w
        p = sigmoid(z)
        reg = w.copy()
        reg[-1] = 0.0
        value = np.mean(log1p_exp(z) - y * z) + 0.5 * lam * reg @ reg
        grad = x_aug.T @ (p - y) / len(y) + lam * reg
        mu = {cell: np.mean(p[idx]) for cell, idx in cells}
        dmu = {cell: x_aug[idx].T @ (p * (1 - p))[idx] / idx.size for cell, idx in cells}
        groups = sorted({s for (s, _), _ in cells})
        for yy in labels:
            for i, gi in enumerate(groups):
                for gj in groups[i + 1:]:
                    gap = mu[(gi, yy)] - mu[(gj, yy)]
                    value += tau / len(labels) * gap ** 2
                    grad = grad + tau / len(labels) * 2 * gap * (dmu[(gi, yy)] - dmu[(gj, yy)])
        return value, grad

    @pytest.mark.parametrize("constraint", sorted(PENALTY_LABELS))
    def test_fused_penalty_matches_per_cell_reference(self, rng, constraint):
        n, d = 90, 3
        enc = encoded(rng.normal(size=(n, d)), rng.integers(0, 3, n), rng.integers(0, 2, n))
        assert len(enc.group_set) == 3
        labels = PENALTY_LABELS[constraint]
        f = make_objective(enc.features, enc.labels, 1e-3, 4.0, enc.cells(), labels)
        for _ in range(20):
            w = rng.normal(scale=0.8, size=d + 1)
            value, grad = f(w)
            ref_value, ref_grad = self.per_cell_objective(
                enc.features, enc.labels.astype(float), 1e-3, 4.0, enc.cells(), labels, w)
            assert abs(value - ref_value) <= 1e-10 * abs(ref_value)
            assert np.linalg.norm(grad - ref_grad) <= 1e-10 * np.linalg.norm(ref_grad)


# exp(-|z|) underflows past 745.13 and exp(z) overflows past 709.78
EXTREMES = [0.0, -0.0, 709.7, -709.7, 745.2, -745.2, 1e308, -1e308,
            5e-324, -5e-324, 2.2e-308, np.inf, -np.inf]


@given(hnp.arrays(np.float64, st.integers(0, 40),
                  elements=st.floats(allow_nan=False) | st.sampled_from(EXTREMES)))
def test_logistic_has_the_bits_of_the_two_exponential_forms(z):
    p, softplus = logistic(z)
    assert p.tobytes() == sigmoid(z).tobytes()
    assert softplus.tobytes() == log1p_exp(z).tobytes()


@st.composite
def objective_case(draw):
    """Encoded data whose every (group, label) cell is non-empty, a weight
    vector that may put scores far past exp's range, and a penalty."""
    groups = draw(st.integers(2, 3))
    cells = [(s, y) for s in range(groups) for y in (0, 1)]
    cells += draw(st.lists(st.tuples(st.integers(0, groups - 1), st.integers(0, 1)),
                           max_size=40))
    sens, labels = zip(*cells)
    d = draw(st.integers(1, 12))
    matrix = draw(hnp.arrays(np.float64, (len(cells), d), elements=st.floats(-10, 10)))
    weights = draw(hnp.arrays(np.float64, d + 1, elements=st.floats(-200, 200)
                              | st.sampled_from([0.0, -0.0, 70.97, -74.52, 1e-300])))
    tau = draw(st.sampled_from([0.0, 1e-3, 2.5, 1e3]))
    constraint = draw(st.sampled_from(sorted(PENALTY_LABELS)))
    lam = draw(st.sampled_from([0.0, 1e-4, 1.0]))
    return encoded(matrix, sens, labels), weights, lam, tau, constraint


@given(objective_case())
def test_objective_has_the_bits_of_the_two_exponential_objective(case):
    enc, w, lam, tau, constraint = case
    args = (enc.features, enc.labels, lam, tau, enc.cells(), PENALTY_LABELS[constraint])
    value, grad = make_objective(*args)(w)
    ref_value, ref_grad = reference_objective(*args)(w)
    assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
    assert grad.tobytes() == ref_grad.tobytes()


class TestPenalty:
    def test_tau_zero_identical_to_plain(self, rng):
        enc = random_encoded(rng)
        plain = train_logreg(enc)
        pen = train_intervention(enc, Intervention("penalty", tau=0.0))
        assert np.array_equal(plain.weights, pen.weights)
        assert plain.bias == pen.bias

    def test_sweep_trend_when_group_is_a_feature(self, rng):
        from fairmiss.metrics import disparity

        n = 1200
        s = rng.integers(0, 2, n)
        y = (rng.random(n) < np.where(s == 1, 0.7, 0.3)).astype(int)
        z = (2 * y - 1) + rng.normal(0, 1.2, n)
        ds = Dataset(np.column_stack([s.astype(float), z]), s, y)
        enc = encoded(ds.features, s, y)
        taus = [0.01, 0.1, 1.0, 10.0, 100.0]
        meos, accs = [], []
        for tau in taus:
            model = train_intervention(enc, Intervention("penalty", tau=tau))
            preds = model.predict(enc, 0)
            meos.append(disparity(group_rates(preds, ds), "meo"))
            accs.append(accuracy(preds, ds))
        for lo, hi in zip(meos[1:], meos):
            assert lo <= hi + 0.02  # non-increasing to within noise
        assert meos[-1] < meos[0] - 0.2
        for lo, hi in zip(accs[1:], accs):
            assert lo <= hi + 0.01
        assert accs[-1] <= accs[0]

    def test_group_symmetric_data_matches_plain_model(self, rng):
        # mirrored rows: every (x, y) appears once per group, so per-group
        # score means are equal for any weights and the penalty vanishes
        n = 80
        x = rng.normal(size=(n, 2))
        y = rng.integers(0, 2, n)
        xx = np.vstack([x, x])
        yy = np.concatenate([y, y])
        ss = np.concatenate([np.zeros(n, int), np.ones(n, int)])
        enc = encoded(xx, ss, yy)
        plain = train_logreg(enc)
        pen = train_intervention(enc, Intervention("penalty", tau=5.0))
        assert np.linalg.norm(pen.weights - plain.weights) <= 1e-3
        f = make_objective(enc.features, enc.labels, 1e-4, 5.0, enc.cells())
        _, grad = f(np.concatenate([pen.weights, [pen.bias]]))
        assert np.linalg.norm(grad) <= 1e-5

    def test_fnr_ignores_an_empty_negative_cell(self, rng):
        # no (s = 1, y = 0) rows: fnr-difference never penalizes that cell,
        # mean-equalized-odds needs it
        n = 60
        s = np.repeat([0, 1], n // 2)
        y = np.where(s == 1, 1, np.arange(n) % 2)
        enc = encoded(rng.normal(size=(n, 2)), s, y)
        model = train_intervention(enc, Intervention("penalty", 1.0, "fnr-difference"))
        assert np.isfinite(model.weights).all()
        with pytest.raises(ValidationError, match=r"empty cell \(s=1, y=0\)"):
            train_intervention(enc, Intervention("penalty", 1.0, "mean-equalized-odds"))

    def test_missing_group_errors(self, rng):
        enc = encoded(rng.normal(size=(10, 2)), np.zeros(10, int), [0, 1] * 5)
        with pytest.raises(ValidationError):
            train_intervention(enc, Intervention("penalty", tau=1.0))


def predictor_dataset(rng, n=800, signal=1.6, flip_group_noise=0.0):
    """Dataset plus scores from a planted noisy predictor."""
    s = rng.integers(0, 2, n)
    y = rng.integers(0, 2, n)
    scores = 1 / (1 + np.exp(-((2 * y - 1) * signal + rng.normal(0, 1, n)
                               + flip_group_noise * s * (1 - y))))
    return Dataset(np.zeros((n, 1)), s, y), scores


CELLS = ((0, 0), (0, 1), (1, 0), (1, 1))


@st.composite
def eqodds_inputs(draw):
    """Two groups' base rate table, cell probabilities and an epsilon: rates
    counted from a cell, exactly 0 or 1, or any float in [0, 1]; groups that
    are identical, or one whose base TPR equals its FPR or differs by 1e-9."""
    sizes = draw(st.lists(st.integers(1, 500), min_size=4, max_size=4))
    rates = [draw(st.integers(0, n).map(lambda k, n=n: k / n)
                  | st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)) for n in sizes]
    shape = draw(st.sampled_from(["any", "identical", "tpr = fpr", "tpr = fpr + 1e-9"]))
    if shape == "identical":
        rates[2:], sizes[2:] = rates[:2], sizes[:2]
    elif shape != "any":
        g = draw(st.integers(0, 1))
        fpr = rates[2 * g]
        rates[2 * g + 1] = fpr if shape == "tpr = fpr" else (
            fpr + 1e-9 if fpr + 1e-9 <= 1.0 else fpr - 1e-9)
    epsilon = draw(st.sampled_from([0.0, 0.02, 0.1]) | st.floats(1.0, 1e6))
    base = dict(zip(CELLS, rates))
    p_sy = {cell: n / sum(sizes) for cell, n in zip(CELLS, sizes)}
    return base, p_sy, epsilon


def accuracy_and_mass(flip, base, p_sy):
    """Training accuracy and flip mass of flip rates on a base rate table."""
    mixed = mixed_rate_table(PostprocessRates((0, 1), flip), base)
    acc = sum(p_sy[(s, 1)] * mixed[(s, 1)] + p_sy[(s, 0)] * (1.0 - mixed[(s, 0)])
              for s in (0, 1))
    return acc, sum(flip.values())


def flips_of(v):
    """Flip rates of v = (a_g0, b_g0, a_g1, b_g1), as postprocess_eqodds keys them."""
    return {(0, 1): 1.0 - v[0], (0, 0): v[1], (1, 1): 1.0 - v[2], (1, 0): v[3]}


@given(eqodds_inputs())
# a gap row of norm 2e-12: relaxing it by the slack lifts the exact accuracy
# optimum by 4e-6, past any cut the exact program at epsilon can reach
@example(({(0, 0): 0.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): 2.13202917769205e-12},
          {(0, 0): 0.2, (0, 1): 0.2, (1, 0): 0.2, (1, 1): 0.4}, 0.0))
# group 1's base TPR falls 1e-9 short of its FPR: the all-ones vertex misses
# a gap row by 1e-16 and is the solver's answer, while the program relaxed by
# the slack has a vertex flipping 4e-4 less that no basis at epsilon reaches
@example(({(0, 0): 0.0, (0, 1): 0.0, (1, 0): 1.0, (1, 1): 0.999999999},
          {(0, 0): 0.009433962264150943, (0, 1): 0.009433962264150943,
           (1, 0): 0.10377358490566038, (1, 1): 0.8773584905660378}, 0.0))
# cell sizes (m, 9m, m, m) with one positive base prediction in cell (0, 1):
# the exact least flip holds a coordinate at 0.99999994449 through a pivot
# near 1e-9, which a solve mixing the box rows into it missed by 3.5e-8
@example(({(0, 0): 0.25, (0, 1): 1 / 9, (1, 0): 1.0, (1, 1): 0.999999999},
          {(0, 0): 1 / 12, (0, 1): 9 / 12, (1, 0): 1 / 12, (1, 1): 1 / 12}, 0.0))
@example(({(0, 0): 0.25, (0, 1): 1 / 81, (1, 0): 1.0, (1, 1): 0.999999999},
          {(0, 0): 9 / 108, (0, 1): 81 / 108, (1, 0): 9 / 108, (1, 1): 9 / 108}, 0.0))
# the same pivot in group 0 on sizes (1, 1, 1, 45): one rounding of the fixed
# coordinates' terms (near 1, summing to near 1e-9) moved the solution by 1e-7
@example(({(0, 0): 1.0, (0, 1): 0.999999999, (1, 0): 0.0, (1, 1): 1 / 45},
          {(0, 0): 1 / 48, (0, 1): 1 / 48, (1, 0): 1 / 48, (1, 1): 45 / 48}, 0.0))
# at epsilon 0.02 that vertex holds both gap rows, and a solve of the 2 x 2
# system rounds 0.999999999 * 0.98 on the way: 2e-8 off without refinement
@example(({(0, 0): 1.0, (0, 1): 0.999999999, (1, 0): 0.0, (1, 1): 1 / 39},
          {(0, 0): 1 / 42, (0, 1): 1 / 42, (1, 0): 1 / 42, (1, 1): 39 / 42}, 0.02))
def test_vertex_solve_is_the_exact_optimum_up_to_its_tolerance(case):
    base, p_sy, epsilon = case
    table = rates_table((0, 1), base, p_sy)
    flip = postprocess_eqodds(table, epsilon).flip
    acc, mass = accuracy_and_mass(flip, base, p_sy)
    mixed = mixed_rate_table(PostprocessRates((0, 1), flip), base)
    assert all(0.0 <= f <= 1.0 for f in flip.values())
    for y in (0, 1):
        assert abs(mixed[(0, y)] - mixed[(1, y)]) <= epsilon + 1e-12

    # Exact optima, in rational arithmetic. The solver takes the least-flip
    # vertex among those within 1e-12 of its best accuracy; it may take a
    # vertex that misses a row by its slack, and it compares accuracies to
    # within rounding. So its answer must lie in the program with the gap
    # rows and an accuracy cut relaxed by twice the slack, and flip no less
    # than that program's optimum (``loose``, which holds the solver's
    # whole face). Its vertices are the basic solutions of the program at
    # epsilon that pass its row test at the slack: exactly, every one
    # within half the slack of each row and none beyond twice the slack. So
    # it must flip no more than the least-flip of the former whose accuracy
    # is at least 1e-12 below the best of the latter, raised by twice the
    # slack (``tight``): every such vertex is one the solver compares. Held
    # at epsilon, a gap row of tiny norm can leave no exact vertex that
    # accurate, and a vertex of the program relaxed by the slack that holds
    # such a row at its slack is one the solver never sees.
    # Where the two optima agree, the flips must match them.
    slack = Fraction(2 * metrics._TOL)
    best = exact_best_accuracy(table, epsilon)
    best_loose = exact_best_accuracy(table, Fraction(epsilon) + slack)
    loose = exact_least_flip(table, Fraction(epsilon) + slack, best - Fraction(1e-12) - slack)
    top = max(a for _, a, _ in exact_face_least_flip(table, epsilon, 0, slack))
    tight = exact_face_least_flip(table, epsilon, top - Fraction(1e-12) + slack, slack / 4)
    assert float(best - Fraction(1e-12) - slack) <= acc <= float(best_loose) + 1e-15
    least = min(m for m, _, _ in tight)
    assert float(min(m for m, _, _ in loose)) - 1e-15 <= mass <= float(least) + 1e-12
    answer = flips_of([float(x) for x in next(v for m, _, v in tight if m == least)])
    near = [flips_of([float(x) for x in v]) for vertices in (tight, loose)
            for m, _, v in vertices if m <= min(m for m, _, _ in vertices) + 1e-12]
    if all(abs(f[k] - answer[k]) <= 1e-12 for f in near for k in answer):
        assert all(abs(flip[k] - answer[k]) <= 1e-12 for k in answer)


def test_solves_what_the_scipy_programs_called_infeasible():
    # group 1's base TPR exceeds its FPR by 1e-9: scipy 1.17's HiGHS declared
    # the least-flip program infeasible, so the intervention failed
    base = {(0, 0): 0.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): 1e-09}
    p_sy = {(0, 0): 2 / 410, (0, 1): 2 / 410, (1, 0): 204 / 410, (1, 1): 202 / 410}
    table = rates_table((0, 1), base, p_sy)
    flip = postprocess_eqodds(table, 0.0).flip
    best = exact_best_accuracy(table, 0.0)
    least = min(m for m, _, _ in exact_least_flip(table, 0.0, best - Fraction(1e-12)))
    acc, mass = accuracy_and_mass(flip, base, p_sy)
    assert abs(acc - float(best)) <= 1e-12 and abs(mass - float(least)) <= 1e-12


def test_least_flip_is_stable_under_rounding_of_the_cell_probabilities():
    # group 1's base TPR falls 1e-9 short of its FPR, so flipping its base-0
    # rows gains 5e-10 accuracy: an accuracy cut 1e-12 below the optimum let
    # that flip rate slide by 0.002 and move by 1e-7 with the last bit of
    # the cell probabilities
    base = {(0, 0): 0.0, (0, 1): 0.0, (1, 0): 1.0, (1, 1): 1 - 1e-9}
    p_sy = {(0, 0): 1 / 6, (0, 1): 1 / 6, (1, 0): 1 / 6, (1, 1): 1 / 2}
    flip = postprocess_eqodds(rates_table((0, 1), base, p_sy), 0.02).flip
    assert flip[(1, 0)] == 1.0
    rng = np.random.default_rng(0)
    for _ in range(200):
        nudged = {c: p + int(rng.integers(-4, 5)) * np.spacing(p) for c, p in p_sy.items()}
        moved = postprocess_eqodds(rates_table((0, 1), base, nudged), 0.02).flip
        assert all(abs(moved[k] - flip[k]) <= 1e-12 for k in flip)


def test_postprocess_logs_its_solve(caplog):
    sens = [0, 0, 0, 0, 1, 1, 1, 1]
    labels = [0, 0, 1, 1, 0, 0, 1, 1]
    scores = np.array([0.1, 0.9, 0.2, 0.8, 0.1, 0.1, 0.8, 0.8])
    ds = Dataset(np.zeros((8, 1)), sens, labels)
    with caplog.at_level(logging.DEBUG, logger="fairmiss"):
        postprocess_eqodds(eqodds_program(scores, ds), 0.0)
    [line] = [r.getMessage() for r in caplog.records if r.name == "fairmiss"]
    match = re.fullmatch(r"eqodds solve: epsilon 0, training accuracy 0\.750000 -> "
                         r"(\d\.\d{6}), flip mass (\d\.\d{6}), (\d+) vertices examined", line)
    assert match and float(match[1]) < 0.75 and float(match[2]) > 0 and int(match[3]) >= 2


class TestPostprocess:
    def test_already_equalized_gives_identity(self):
        # deterministic 8-point dataset with identical group confusion rates
        sens = [0, 0, 0, 0, 1, 1, 1, 1]
        labels = [0, 0, 1, 1, 0, 0, 1, 1]
        scores = np.array([0.1, 0.9, 0.2, 0.8] * 2)  # FPR=0.5, FNR=0.5 per group
        ds = Dataset(np.zeros((8, 1)), sens, labels)
        rates = postprocess_eqodds(eqodds_program(scores, ds), 0.0)
        assert all(v == pytest.approx(0.0, abs=1e-9) for v in rates.flip.values())

    def test_vacuous_epsilon_keeps_informative_predictor(self, rng):
        ds, scores = predictor_dataset(rng)
        rates = postprocess_eqodds(eqodds_program(scores, ds), 1.0)
        assert all(v == pytest.approx(0.0, abs=1e-9) for v in rates.flip.values())

    def test_equally_accurate_flip_loses_to_no_flip(self):
        # flipping group 1's negatives to 1 (rate 1.0) is exactly as accurate
        # (7/12) as flipping nothing; the least flip mass must win
        sens = [0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1]
        labels = [1, 0, 0, 0, 1, 0, 0, 1, 1, 1, 0, 1]
        base = np.array([1, 1, 0, 0, 1, 1, 1, 1, 0, 1, 0, 0])
        scores = np.where(base == 1, 0.9, 0.1)
        ds = Dataset(np.zeros((12, 1)), sens, labels)
        rates = postprocess_eqodds(eqodds_program(scores, ds), 0.5)
        assert all(v == pytest.approx(0.0, abs=1e-9) for v in rates.flip.values())

    def test_score_length_mismatch_errors(self, rng):
        ds, scores = predictor_dataset(rng, n=40)
        with pytest.raises(ValidationError, match="length"):
            postprocess_eqodds(eqodds_program(scores[:-1], ds), 0.1)

    @pytest.mark.parametrize("epsilon", [-0.1, np.nan, np.inf])
    def test_epsilon_must_be_finite_and_non_negative(self, rng, epsilon):
        ds, scores = predictor_dataset(rng, n=40)
        with pytest.raises(ValidationError, match="epsilon must be finite and >= 0"):
            postprocess_eqodds(eqodds_program(scores, ds), epsilon)

    def test_constructed_gap_is_repaired_exactly(self, rng):
        # plant a 0.4 FPR gap, then require exact equality
        n = 2000
        s = rng.integers(0, 2, n)
        y = rng.integers(0, 2, n)
        pred = y.copy()
        fp_flip = (y == 0) & (s == 1) & (rng.random(n) < 0.4)
        pred[fp_flip] = 1
        scores = pred.astype(float)
        ds = Dataset(np.zeros((n, 1)), s, y)
        base = group_rates(pred, ds)
        assert abs(base[(1, 0)] - base[(0, 0)]) > 0.3
        rates = postprocess_eqodds(eqodds_program(scores, ds), 0.0)
        mixed = mixed_rate_table(rates, base)
        assert abs(mixed[(0, 0)] - mixed[(1, 0)]) <= 1e-9
        assert abs(mixed[(0, 1)] - mixed[(1, 1)]) <= 1e-9

    def test_feasibility_invariant(self, rng):
        for _ in range(20):
            ds, scores = predictor_dataset(rng, n=400, flip_group_noise=1.0)
            if min(len(i) for _, i in ds.cells()) == 0:
                continue
            eps = float(rng.choice([0.0, 0.02, 0.1, 0.3]))
            rates = postprocess_eqodds(eqodds_program(scores, ds), eps)
            base = group_rates((scores >= 0.5).astype(int), ds)
            mixed = mixed_rate_table(rates, base)
            for yy in (0, 1):
                assert abs(mixed[(0, yy)] - mixed[(1, yy)]) <= eps + 1e-9

    def test_apply_postprocess_hits_expected_rates(self, rng):
        ds, scores = predictor_dataset(rng, n=20000, flip_group_noise=1.2)
        rates = postprocess_eqodds(eqodds_program(scores, ds), 0.0)
        preds = apply_postprocess(rates, (scores >= 0.5).astype(int), ds.sensitive, seed=5)
        got = group_rates(preds, ds)
        want = mixed_rate_table(rates, group_rates((scores >= 0.5).astype(int), ds))
        for k in want:
            assert got[k] == pytest.approx(want[k], abs=0.03)

    @pytest.mark.parametrize("cell", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_empty_cell_has_undefined_rates(self, cell):
        sens = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        labels = np.array([0, 0, 1, 1, 0, 0, 1, 1])
        keep = np.flatnonzero((sens != cell[0]) | (labels != cell[1]))
        ds = Dataset(np.zeros((keep.size, 1)), sens[keep], labels[keep])
        with pytest.raises(ValidationError, match=re.escape(
                f"empty cell (s={cell[0]}, y={cell[1]}): rates undefined")):
            eqodds_program(np.full(keep.size, 0.5), ds)

    @pytest.mark.parametrize("bad", [np.nan, -0.1, 1.5])
    def test_scores_outside_the_unit_interval_rejected(self, bad):
        sens = [0, 0, 0, 0, 1, 1, 1, 1]
        labels = [0, 0, 1, 1, 0, 0, 1, 1]
        ds = Dataset(np.zeros((8, 1)), sens, labels)
        with pytest.raises(ValidationError, match=re.escape("scores must lie in [0, 1]")):
            eqodds_program([bad, 0.9, 0.2, 0.8, 0.1, 0.1, 0.8, 0.8], ds)

    def test_more_than_two_groups_rejected(self, rng):
        ds = Dataset(np.zeros((6, 1)), [0, 1, 2, 0, 1, 2], [0, 0, 0, 1, 1, 1])
        with pytest.raises(ValidationError):
            postprocess_eqodds(eqodds_program(np.full(6, 0.5), ds), 0.1)

    def test_flip_probs_match_per_row_lookup(self, rng):
        rates = PostprocessRates((3, 7), {(3, 0): 0.125, (3, 1): 0.25,
                                          (7, 0): 0.5, (7, 1): 0.0625})
        sens = rng.choice([3, 7], size=50)
        base = rng.integers(0, 2, size=50)
        want = [rates.flip[(int(g), int(p))] for g, p in zip(sens, base)]
        assert rates.flip_probs(sens, base).tolist() == want
        assert rates.flip_probs([], []).shape == (0,)
        with pytest.raises(ValidationError, match="group 5"):
            rates.flip_probs([3, 5], [0, 1])
        with pytest.raises(ValidationError, match="0 or 1"):
            rates.flip_probs([3, 7], [0, 2])


class TestUniformMixture:
    def test_law_of_total_probability(self, rng):
        tables = []
        for _ in range(3):
            tables.append({
                (s, y): float(rng.random()) for s in (0, 1) for y in (0, 1)
            })
        mix = uniform_mixture_rates(tables)
        for key in mix:
            assert mix[key] == pytest.approx(np.mean([t[key] for t in tables]))

    def test_mixture_violation_never_exceeds_members(self, rng):
        # the fairness guarantee of random-pick ensembles, exact arithmetic
        for _ in range(100):
            eps = float(rng.random() * 0.3)
            k = int(rng.integers(1, 6))
            tables = []
            for _ in range(k):
                t = {}
                for y in (0, 1):
                    r = rng.random()
                    lo, hi = max(0.0, r - eps / 2), min(1.0, r + eps / 2)
                    t[(0, y)] = float(rng.uniform(lo, hi))
                    t[(1, y)] = float(rng.uniform(lo, hi))
                tables.append(t)
            member_viol = max(
                abs(t[(0, y)] - t[(1, y)]) for t in tables for y in (0, 1)
            )
            mix = uniform_mixture_rates(tables)
            mix_viol = max(abs(mix[(0, y)] - mix[(1, y)]) for y in (0, 1))
            assert mix_viol <= member_viol + 1e-12
            assert mix_viol <= eps + 1e-12


def encode_bags(bags, ds) -> tuple:
    """Every bag's encoding of ``ds``, as the ensemble's predictions read it."""
    return tuple(bag.encode(ds) for bag in bags)


class TestFairBagging:
    def test_single_bag_matches_manual_pipeline(self, rng):
        train = random_dataset(rng, n=60, d=3, missing_rate=0.2)
        test = random_dataset(rng, n=20, d=3, missing_rate=0.2, ensure_cells=False)
        bags = draw_bags(train, 1, "mean", seed=7)
        ens = train_fair_bagging(bags, Intervention("none"))
        bag = train.subset(fair_resample(train, 7 + 1))
        imputer = make_imputer("mean").fit(bag)
        model = train_logreg(encode_indicators(bag, imputer=imputer))
        manual = model.predict(encode_indicators(test, imputer=imputer), 0)
        got = predict_dataset(ens, encode_bags(bags, test), seed=0)
        assert np.array_equal(got, manual)

    def test_bags_differ(self, rng):
        train = random_dataset(rng, n=80, d=3, missing_rate=0.2)
        ens = train_fair_bagging(draw_bags(train, 10, "mean", seed=3), Intervention("none"))
        weight_sets = {tuple(np.round(b.weights, 10)) for b in ens.bags}
        assert len(weight_sets) > 1

    def test_complete_data_keeps_zero_indicator_columns(self, rng):
        train = random_dataset(rng, n=50, d=2, missing_rate=0.0)
        for bag in draw_bags(train, 3, "mean", seed=1):
            enc = encode_indicators(train, imputer=bag.imputer)
            assert (enc.features[:, 2:] == 0).all()

    def test_score_average_arithmetic(self):
        # bag scores (0.3, 0.55, 0.6) average to 0.4833 and predict 0, where a
        # majority vote would predict 1; (0.35, 0.5, 0.7) average to 0.5167
        enc = encode_indicators(Dataset(np.array([[1.0]]), [0], [0]))
        for scores, want in (((0.3, 0.55, 0.6), 0), ((0.35, 0.5, 0.7), 1)):
            models = [LinearModel(np.zeros(2), float(np.log(p / (1 - p))), ("orig:x1", "ind:x1"))
                      for p in scores]
            assert predict_dataset(FairEnsemble(tuple(models)), (enc,) * 3, seed=0).tolist() == [want]

    def test_encodings_of_other_rows_are_rejected(self, rng):
        train = random_dataset(rng, n=60, d=2, missing_rate=0.2)
        bags = draw_bags(train, 2, "mean", seed=1)
        encs = (bags[0].encode(train), bags[1].encode(train.subset(np.arange(10))))
        for mode in ENSEMBLE_MODES:
            ens = train_fair_bagging(bags, Intervention("none"), mode)
            with pytest.raises(ValidationError, match="same rows"):
                predict_dataset(ens, encs, seed=0)
            with pytest.raises(ValidationError, match="as many encodings"):
                predict_dataset(ens, encs[:1], seed=0)

    def test_members_carry_flip_rates_all_or_none(self):
        plain = LinearModel(np.zeros(1), 0.0, ("orig:x1",))
        rated = replace(plain, rates=PostprocessRates((0, 1), dict.fromkeys(
            [(0, 0), (0, 1), (1, 0), (1, 1)], 0.0)))
        FairEnsemble((rated, rated))
        with pytest.raises(ValidationError, match="flip rates"):
            FairEnsemble((plain, rated))

    def test_random_pick_matches_uniform_mixture(self, rng):
        train = random_dataset(rng, n=60, d=2, missing_rate=0.2)
        bags = draw_bags(train, 3, "zero", seed=2)
        ens = train_fair_bagging(bags, Intervention("none"), mode="random-pick")
        test = random_dataset(rng, n=2000, d=2, missing_rate=0.2, ensure_cells=False)
        picks = predict_dataset(ens, encode_bags(bags, test), seed=9)
        per_model = np.array([
            member.predict(encode_indicators(test, imputer=bag.imputer), 0)
            for member, bag in zip(ens.bags, bags)
        ])
        expected_rate = per_model.mean()
        assert picks.mean() == pytest.approx(expected_rate, abs=0.04)

    def test_prediction_determinism(self, rng):
        train = random_dataset(rng, n=60, d=2, missing_rate=0.2)
        test = random_dataset(rng, n=30, d=2, missing_rate=0.2, ensure_cells=False)
        bags_a, bags_b = draw_bags(train, 4, "mean", seed=5), draw_bags(train, 4, "mean", seed=5)
        a = train_fair_bagging(bags_a, Intervention("none"), mode="random-pick")
        b = train_fair_bagging(bags_b, Intervention("none"), mode="random-pick")
        assert np.array_equal(a.predict(encode_bags(bags_a, test), 11),
                              b.predict(encode_bags(bags_b, test), 11))

    def test_bagging_with_postprocess_intervention(self, rng):
        train = random_dataset(rng, n=120, d=2, missing_rate=0.2)
        bags = draw_bags(train, 2, "mean", seed=4)
        for mode in ENSEMBLE_MODES:
            ens = train_fair_bagging(bags, Intervention("eqodds", epsilon=0.1), mode)
            assert all(bag.rates is not None for bag in ens.bags)
            preds = predict_dataset(ens, encode_bags(bags, train), seed=3)
            assert preds.shape == (120,) and np.isin(preds, (0, 1)).all()

    def test_score_average_eqodds_moves_with_epsilon(self):
        # each bag's flips lie below 1/2, so thresholding the mean
        # flip-adjusted score would undo most of them
        train = gen_synthetic(0).subset(np.arange(0, 2400, 8))
        bags = draw_bags(train, 3, "mean", seed=1)
        encs = encode_bags(bags, train)
        fair, loose = (train_fair_bagging(bags, Intervention("eqodds", epsilon=eps))
                       for eps in (0.0, 1.0))
        assert not np.array_equal(fair.predict(encs, 5), loose.predict(encs, 5))
        # expected rates: from each row's Pr(output = 1), the mean bag score
        bag_scores = [bag.scores(enc) for bag, enc in zip(fair.bags, encs)]
        p = np.mean(bag_scores, axis=0)
        assert np.array_equal(fair.predict(encs, 5), np.random.default_rng(5).random(p.size) < p)
        bag_meo = [disparity(expected_group_rates(s, train), "meo") for s in bag_scores]
        assert disparity(expected_group_rates(p, train), "meo") <= np.mean(bag_meo) + 1e-12


@st.composite
def rated_ensembles(draw):
    """A score-average ensemble of 1-5 bags with eqodds flip rates, each bag's
    encoding of the same rows, and a seed. Every (group, label) cell has a row."""
    n = draw(st.integers(4, 30))
    d = draw(st.integers(1, 3))
    values = st.floats(-3, 3, allow_subnormal=False)
    sens = np.array([0, 0, 1, 1] + draw(st.lists(st.integers(0, 1), min_size=n - 4, max_size=n - 4)))
    labels = np.array([0, 1, 0, 1] + draw(st.lists(st.integers(0, 1), min_size=n - 4, max_size=n - 4)))
    cells = [(g, b) for g in (0, 1) for b in (0, 1)]
    bags, encs = [], []
    for _ in range(draw(st.integers(1, 5))):
        enc = encoded(draw(hnp.arrays(np.float64, (n, d), elements=values)), sens, labels)
        rates = PostprocessRates((0, 1), {c: draw(st.floats(0, 1)) for c in cells})
        weights = draw(hnp.arrays(np.float64, d, elements=values))
        bags.append(LinearModel(weights, draw(values), enc.feature_names, rates))
        encs.append(enc)
    return FairEnsemble(tuple(bags), "score-average"), tuple(encs), draw(st.integers(0, 2**32 - 1))


@given(rated_ensembles())
def test_score_average_with_rates_has_its_bags_mean_rates(case):
    ens, encs, seed = case
    bag_scores = [bag.scores(enc) for bag, enc in zip(ens.bags, encs)]
    p = np.mean(bag_scores, axis=0)
    # each label is drawn from the row's mean Pr(output = 1)
    assert np.array_equal(ens.predict(encs, seed), np.random.default_rng(seed).random(p.size) < p)
    rates = expected_group_rates(p, encs[0])
    bag_rates = [expected_group_rates(s, encs[0]) for s in bag_scores]
    assert rates == pytest.approx(uniform_mixture_rates(bag_rates), abs=1e-12)
    for kind in ("fnr-diff", "fpr-diff"):
        assert disparity(rates, kind) <= np.mean([disparity(r, kind) for r in bag_rates]) + 1e-12


class TestModelSerialization:
    def test_roundtrip(self, rng):
        model = LinearModel(rng.normal(size=3), 0.25, ("orig:a", "ind:a", "cross:a|miss:b"))
        back = model_from_text(model_to_text(model))
        assert np.array_equal(back.weights, model.weights)
        assert back.bias == model.bias and back.columns == model.columns

    def test_ensemble_audit_dump(self, rng):
        train = random_dataset(rng, n=60, d=2, missing_rate=0.2)
        bags = draw_bags(train, 2, "mean", seed=1)
        ens = train_fair_bagging(bags, Intervention("eqodds", epsilon=0.2))
        text = ensemble_to_text(ens, bags)
        assert text.startswith("mode score-average\nbags 2\n")
        assert text.count("bag ") == 2 and "flip s=" in text


def test_single_sample_random_pick_ignores_seed_for_one_bag(rng):
    train = random_dataset(rng, n=50, d=2, missing_rate=0.2)
    bags = draw_bags(train, 1, "zero", seed=2)
    ens = train_fair_bagging(bags, Intervention("none"), mode="random-pick")
    first = encode_bags(bags, train.subset([0]))
    preds = {int(predict_dataset(ens, first, seed)[0]) for seed in range(5)}
    assert len(preds) == 1
