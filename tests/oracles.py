"""Test oracles: closed-form rate tables the package itself never needs,
the loop versions of code the package now runs vectorized, the solvers the
package replaced, and the estimators, serializers and shorthands that only
tests call."""

import csv
import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog, minimize

from fairmiss import metrics
from fairmiss.classify import (
    Intervention,
    LinearModel,
    PostprocessRates,
    train_intervention,
)
from fairmiss.data import Dataset, _check_schema, _round_half_up
from fairmiss.encode import AffineEncoder, ClusterPartition, LeafRecord, TreeNode
from fairmiss.errors import CsvParseError, SchemaError, ValidationError
from fairmiss.harness import _fmt
from fairmiss.optim import FTOL, MAXCOR, MAX_ITERS, TOL, _contrast
from fairmiss.simulate import MissingnessSpec


def mixed_rate_table(rates, base_table: dict) -> dict:
    """Exact post-mixing Pr(output = 1 | y, s) from base rates, for the flip
    rates of a ``classify.PostprocessRates``."""
    out = {}
    for (s, y), r in base_table.items():
        a = 1.0 - rates.flip[(s, 1)]
        b = rates.flip[(s, 0)]
        out[(s, y)] = a * r + b * (1.0 - r)
    return out


def expected_group_rates(probs, ds) -> dict:
    """(s, y) -> the mean of the rows' Pr(output = 1) in that cell: the
    expected ``metrics.group_rates`` of labels drawn from ``probs``."""
    return {cell: float(np.mean(probs[idx])) for cell, idx in ds.cells()}


def uniform_mixture_rates(rate_tables) -> dict:
    """Rate table of a uniformly random pick among classifiers: the plain
    average of their Pr(prediction = 1 | y, s) tables."""
    keys = rate_tables[0].keys()
    return {k: float(np.mean([t[k] for t in rate_tables])) for k in keys}


# ---------------------------------------------------------------------------
# equalized-odds post-processing as two scipy linear programs, as
# ``classify.postprocess_eqodds`` solved it before it enumerated vertices, and
# the same two programs on its (group, base prediction) table solved exactly
# in rational arithmetic
# ---------------------------------------------------------------------------

def reference_postprocess_eqodds(scores, ds, epsilon: float) -> PostprocessRates:
    """Exact accuracy-optimal randomized equalized-odds repair for two groups.

    The base prediction thresholds the given scores at 0.5; the output mixes
    each (group, base prediction) with probabilities chosen by a linear
    program over the feasible polytope (|FPR gap| <= epsilon, |FNR gap| <=
    epsilon) that maximizes accuracy on the fitting data. A second program
    then takes, among points within 1e-12 of that accuracy, the one flipping
    the least mass, so an already fair base predictor stays untouched.

    This is the former two-program specification of ``postprocess_eqodds``,
    which now takes the least-flip vertex of the optimal face instead; where
    the second program's cut lets a flip rate slide, the two differ, so only
    their accuracies are compared.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != ds.labels.shape:
        raise ValidationError("score length must equal dataset size")
    if epsilon < 0:
        raise ValidationError("epsilon must be non-negative")
    groups = ds.group_set
    if len(groups) != 2:
        raise ValidationError("equalized-odds post-processing supports exactly 2 groups")
    if scores.min() < 0.0 or scores.max() > 1.0:
        raise ValidationError("scores must lie in [0, 1]")
    base = metrics.group_rates((scores >= 0.5).astype(np.int64), ds)
    n = ds.labels.shape[0]
    p_sy = {cell: idx.size / n for cell, idx in ds.cells()}
    return reference_eqodds_rates(groups, base, p_sy, epsilon)


def reference_eqodds_rates(groups, base: dict, p_sy: dict, epsilon: float) -> PostprocessRates:
    """The two linear programs of ``reference_postprocess_eqodds``, from the
    base rate table and the cell probabilities."""
    # variables v = (a_g0, b_g0, a_g1, b_g1): Pr(output 1 | group, base pred 1/0)
    def rate_row(s_i, y):
        r = base[(groups[s_i], y)]
        row = np.zeros(4)
        row[2 * s_i] = r
        row[2 * s_i + 1] = 1.0 - r
        return row

    tpr0, tpr1 = rate_row(0, 1), rate_row(1, 1)
    fpr0, fpr1 = rate_row(0, 0), rate_row(1, 0)
    a_gap = np.array([tpr0 - tpr1, tpr1 - tpr0, fpr0 - fpr1, fpr1 - fpr0])
    b_gap = np.full(4, float(epsilon))
    obj = (
        p_sy[(groups[0], 1)] * tpr0
        + p_sy[(groups[1], 1)] * tpr1
        - p_sy[(groups[0], 0)] * fpr0
        - p_sy[(groups[1], 0)] * fpr1
    )
    bounds = [(0.0, 1.0)] * 4
    best = linprog(-obj, A_ub=a_gap, b_ub=b_gap, bounds=bounds, method="highs")
    if not best.success:
        raise AssertionError(f"equalized-odds LP failed: {best.message}")
    # flip mass (1 - a_g0) + b_g0 + (1 - a_g1) + b_g1, up to its constant
    least = linprog(
        np.array([-1.0, 1.0, -1.0, 1.0]),
        A_ub=np.vstack([a_gap, -obj]),
        b_ub=np.append(b_gap, best.fun + 1e-12),
        bounds=bounds,
        method="highs",
    )
    if not least.success:
        raise AssertionError(f"equalized-odds least-flip LP failed: {least.message}")
    v = np.clip(least.x, 0.0, 1.0)
    flip = {
        (groups[0], 1): float(1.0 - v[0]),
        (groups[0], 0): float(v[1]),
        (groups[1], 1): float(1.0 - v[2]),
        (groups[1], 0): float(v[3]),
    }
    return PostprocessRates((groups[0], groups[1]), flip)


def rates_table(groups, base: dict, p_sy: dict) -> metrics.JointTable:
    """The ``classify.eqodds_program`` table of two groups' base rate table
    (s, y) -> Pr(base prediction 1 | s, y) and their cell probabilities
    (s, y) -> Pr(s, y)."""
    probs = np.zeros((2, 4, 2))
    for si, s in enumerate(groups):
        for y in (0, 1):
            probs[si, 2 * si, y] = p_sy[(s, y)] * base[(s, y)]
            probs[si, 2 * si + 1, y] = p_sy[(s, y)] * (1.0 - base[(s, y)])
    return metrics.JointTable(groups, tuple((s, b) for s in groups for b in (1, 0)), probs)


def exact_best_accuracy(table, epsilon) -> Fraction:
    """The optimum of the accuracy program of ``postprocess_eqodds`` on an
    ``eqodds_program`` table, in rational arithmetic: the exact optimum of the
    program the solver is given, its float rows read as exact numbers."""
    return _exact_program(table, epsilon)[2] + exact_best_fair_gain(table, epsilon)


def exact_least_flip(table, epsilon, floor) -> list:
    """[(flip mass, accuracy, v) for every vertex of {gaps <= epsilon,
    accuracy >= floor}], the former second program of ``postprocess_eqodds``
    (least flip mass above an accuracy cut) with its cut at ``floor``, all
    exact, with v = (a_g0, b_g0, a_g1, b_g1). Its least flip mass is at most
    that of any point of the program at or above the cut."""
    rows, c, base = _exact_program(table, epsilon)
    cut = ([-x for x in c], base - Fraction(floor))
    return [(2 - v[0] + v[1] - v[2] + v[3], base + _dot(c, v), v)
            for v in _exact_vertices(rows + [cut])]


def exact_face_least_flip(table, epsilon, floor, slack=0) -> list:
    """[(flip mass, accuracy, v) for every basic solution of {gaps <=
    epsilon} that meets each row, the box's too, within ``slack``, clipped
    into the box, whose accuracy is at least ``floor``], all exact: the
    vertices that ``postprocess_eqodds`` picks its least flip from, with its
    face at ``floor`` and its row test at ``slack``."""
    rows, c, base = _exact_program(table, epsilon)
    out = [(2 - v[0] + v[1] - v[2] + v[3], base + _dot(c, v), v)
           for v in _exact_vertices(rows, slack=Fraction(slack))]
    return [entry for entry in out if entry[1] >= floor]


def _exact_vertices(rows, n=4, slack=0) -> list:
    """Every basic solution of {v in [0, 1]^n : a . v <= b for each (a, b)
    in rows}, for rational rows, that meets each row and the box within
    ``slack``, clipped into the box; at slack 0, every vertex. Each is a
    choice of k rows held with equality and n - k coordinates at a bound,
    solved by Cramer's rule over the integers."""
    scaled = []
    for a, b in rows:  # each row times the least common multiple of its denominators
        m = math.lcm(*(x.denominator for x in (*a, b)))
        scaled.append(([int(x * m) for x in a], int(b * m), slack * m))
    out = []
    for k in range(min(len(rows), n) + 1):
        for active in itertools.combinations(scaled, k):
            for free in itertools.combinations(range(n), k):
                system = [[a[j] for j in free] for a, _, _ in active]
                d = _det(system)
                if d == 0:
                    continue
                fixed = [j for j in range(n) if j not in free]
                for values in itertools.product((0, 1), repeat=n - k):
                    rhs = [b - sum(a[j] * x for j, x in zip(fixed, values)) for a, b, _ in active]
                    w = [0] * n  # d times the vertex
                    for j, x in zip(fixed, values):
                        w[j] = x * d
                    for i, j in enumerate(free):
                        w[j] = _det([r[:i] + [c] + r[i + 1:] for r, c in zip(system, rhs)])
                    if d < 0:
                        w = [-x for x in w]
                    if all(-slack * abs(d) <= x <= (1 + slack) * abs(d) for x in w) and all(
                            sum(x * y for x, y in zip(a, w)) <= (b + s) * abs(d)
                            for a, b, s in scaled):
                        out.append([min(max(Fraction(x, abs(d)), Fraction(0)), Fraction(1))
                                    for x in w])
    return out


def _det(m) -> int:
    """Determinant by cofactor expansion along the first row (1 when empty)."""
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _det([r[:j] + r[j + 1:] for r in m[1:]])
               for j in range(len(m)) if m[0][j])


# ---------------------------------------------------------------------------
# the exact theorem-1 oracle as one scipy linear program, as
# ``metrics.best_fair_accuracy`` solved it before it enumerated vertices, and
# the same program solved exactly in rational arithmetic
# ---------------------------------------------------------------------------

def table_gap_rows(table) -> np.ndarray:
    """One row a per (label, group pair) whose two conditioning cells have
    positive probability: the equalized-odds gap a . h of acceptance
    probabilities h over the feature domain."""
    p_sy = table.probs.sum(axis=1)
    rows = [table.probs[i, :, y] / p_sy[i, y] - table.probs[j, :, y] / p_sy[j, y]
            for y in (0, 1)
            for i, j in itertools.combinations(range(len(table.groups)), 2)
            if p_sy[i, y] > 0 and p_sy[j, y] > 0]
    return np.array(rows).reshape(-1, len(table.x_values))


def reference_best_fair_accuracy(table, epsilon: float):
    """(best accuracy, h) of ``metrics.best_fair_accuracy``, solved by
    HiGHS: maximize accuracy over h in [0, 1]^n with |a . h| <= epsilon for
    every row a of ``table_gap_rows``."""
    p_xy1 = table.probs[:, :, 1].sum(axis=0)
    p_xy0 = table.probs[:, :, 0].sum(axis=0)
    c = p_xy1 - p_xy0
    gaps = table_gap_rows(table)  # rows a, -a per gap, in the former order
    a_ub = np.stack([gaps, -gaps], axis=1).reshape(-1, len(c)) if len(gaps) else None
    b_ub = np.full(2 * len(gaps), float(epsilon)) if len(gaps) else None
    # at HiGHS's default feasibility tolerances, 1e-7, a gap row of norm
    # 6e-5 held two h equal that its epsilon of 1e-12 lets differ by 1.6e-8,
    # and the optimum fell 5e-9 short; these are its tightest
    res = linprog(-c, A_ub=a_ub, b_ub=b_ub, bounds=[(0.0, 1.0)] * len(c), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if not res.success:
        raise AssertionError(f"constrained-accuracy LP failed: {res.message}")
    h = np.clip(res.x, 0.0, 1.0)
    return float(p_xy0.sum()) + float(c @ h), h


def exact_best_fair_gain(table, epsilon) -> Fraction:
    """The optimum of ``metrics.fair_vertices``' program less its constant
    Pr(y = 0), in rational arithmetic, by visiting every vertex: the exact
    optimum of the program the solver is given, its float rows read as exact
    numbers."""
    rows, c, _ = _exact_program(table, epsilon)
    return max(_dot(c, v) for v in _exact_vertices(rows, len(c)))


def _exact_program(table, epsilon):
    """``metrics.fair_vertices``' program as exact numbers: the rows (a,
    epsilon) and (-a, epsilon) per row a of ``table_gap_rows``, the accuracy
    gain c per unit of h and the accuracy at h = 0."""
    p_xy0 = table.probs[:, :, 0].sum(axis=0)
    c = [Fraction(x) for x in table.probs[:, :, 1].sum(axis=0) - p_xy0]
    rows = []
    for a in table_gap_rows(table):
        row = [Fraction(x) for x in a]
        rows += [(row, Fraction(epsilon)), ([-x for x in row], Fraction(epsilon))]
    return rows, c, Fraction(float(p_xy0.sum()))


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# the logistic objective with one exponential per function, as it was
# written before ``optim.logistic`` fused them
# ---------------------------------------------------------------------------

def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def log1p_exp(z: np.ndarray) -> np.ndarray:
    """log(1 + exp(z)) without overflow."""
    return np.where(z > 0, z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def reference_objective(x, y, lam: float, tau: float = 0.0, cells=(), labels=(0, 1)):
    """``optim.make_objective`` evaluated through ``sigmoid`` and
    ``log1p_exp``; its values and gradients are the reference bits."""
    x_aug = np.hstack([x, np.ones((x.shape[0], 1))])
    n = x_aug.shape[0]
    y = np.asarray(y).astype(np.float64)
    if tau > 0:
        contrast = _contrast(cells, labels, n)
        weight = tau / len(labels)

    def value_and_grad(w_aug):
        z = x_aug @ w_aug
        p = sigmoid(z)
        loss = float(np.mean(log1p_exp(z) - y * z))
        reg = w_aug.copy()
        reg[-1] = 0.0
        loss += 0.5 * lam * float(reg @ reg)
        residual = (p - y) / n
        if tau > 0:
            gaps = contrast @ p
            loss += weight * float(gaps @ gaps)
            residual += 2.0 * weight * (gaps @ contrast) * p * (1.0 - p)
        return loss, x_aug.T @ residual + lam * reg

    return value_and_grad


# ---------------------------------------------------------------------------
# L-BFGS-B through ``scipy.optimize.minimize``, as ``optim.descend`` ran it
# before it drove scipy's ``setulb`` routine itself
# ---------------------------------------------------------------------------

def reference_descend(value_and_grad, w0: np.ndarray, tol: float = TOL,
                      max_iters: int = MAX_ITERS):
    """(w, f, iterations) of ``minimize(method="L-BFGS-B")`` from ``w0``
    with the package's solver settings; ``max_iters = 0`` returns ``w0``."""
    w = w0.astype(np.float64)
    if max_iters <= 0:
        f, _ = value_and_grad(w)
        return w, f, 0
    res = minimize(
        value_and_grad, w, jac=True, method="L-BFGS-B",
        options={"maxiter": max_iters, "gtol": tol, "ftol": FTOL, "maxcor": MAXCOR},
    )
    return res.x, float(res.fun), int(res.nit)


# ---------------------------------------------------------------------------
# the stratified split's index sets from a Python set, as
# ``data.stratified_split_indices`` built them before it used a mask
# ---------------------------------------------------------------------------

def reference_split_indices(ds: Dataset, test_fraction: float, seed):
    """``data.stratified_split_indices``, its train rows found by testing each
    row index against a set of the test rows. ``seed`` is an integer or a key
    tuple (first, *rest); cell c draws with spawn key (*rest, c)."""
    if not 0.0 < test_fraction < 1.0:
        raise ValidationError("test_fraction must lie strictly between 0 and 1")
    if ds.n_samples == 0:
        raise ValidationError("cannot split an empty dataset")
    cells = [(cell, idx) for cell, idx in ds.cells() if len(idx)]
    for (s, y), idx in cells:
        if len(idx) < 2:
            raise ValidationError(
                f"cell (s={s}, y={y}) has fewer than 2 samples, cannot split"
            )
    target = min(max(_round_half_up(ds.n_samples * test_fraction), 1), ds.n_samples - 1)
    quotas = [len(idx) * test_fraction for _, idx in cells]
    counts = [min(max(int(np.floor(q)), 1), len(idx) - 1) for q, (_, idx) in zip(quotas, cells)]
    order = sorted(range(len(cells)), key=lambda c: (-(quotas[c] - np.floor(quotas[c])), c))
    k = 0
    while sum(counts) < target and k < 2 * len(cells):
        c = order[k % len(cells)]
        if counts[c] < len(cells[c][1]) - 1:
            counts[c] += 1
        k += 1
    k = 0
    while sum(counts) > target and k < 2 * len(cells):
        c = order[-1 - (k % len(cells))]
        if counts[c] > 1:
            counts[c] -= 1
        k += 1

    test_idx = []
    for c, ((_, _), idx) in enumerate(cells):
        first, *rest = seed if isinstance(seed, tuple) else (seed,)
        rng = np.random.default_rng(np.random.SeedSequence(first, spawn_key=(*rest, c)))
        perm = rng.permutation(len(idx))
        test_idx.extend(idx[perm[: counts[c]]].tolist())
    test_set = set(test_idx)
    train_idx = [i for i in range(ds.n_samples) if i not in test_set]
    return np.array(sorted(train_idx), dtype=np.int64), np.array(sorted(test_idx), dtype=np.int64)


# ---------------------------------------------------------------------------
# CSV ingestion one token at a time, as ``data.load_csv`` did before it
# became columnar
# ---------------------------------------------------------------------------

def load_csv_rows(path, schema: dict, sensitive_values=None) -> Dataset:
    """``data.load_csv``, row by row and token by token: the reference for
    its arrays and for the error it raises on the first faulty row."""
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        header = _read_row(reader, path, 1)
        if header is None:
            raise CsvParseError(f"{path}: empty file, header row required")
        header = [h.strip() for h in header]
        _check_schema(header, schema)
        feat_cols = [i for i, c in enumerate(header) if schema[c] == "feature"]
        sens_col = next(i for i, c in enumerate(header) if schema[c] == "sensitive")
        label_col = next(i for i, c in enumerate(header) if schema[c] == "label")
        feat_names = tuple(header[i] for i in feat_cols)

        rows, sens_raw, labels = [], [], []
        for line_no in itertools.count(2):
            row = _read_row(reader, path, line_no)
            if row is None:
                break
            if not row:
                continue
            if len(row) != len(header):
                raise CsvParseError(
                    f"row {line_no}: expected {len(header)} columns, got {len(row)}"
                )
            vals = []
            for i in feat_cols:
                tok = row[i].strip()
                if tok in ("NA", ""):
                    vals.append(math.nan)
                    continue
                try:
                    v = float(tok)
                except ValueError:
                    v = math.nan  # reported below, as are nan and inf
                if not math.isfinite(v):
                    raise CsvParseError(
                        f"row {line_no}, column {header[i]!r}: "
                        f"cannot parse {tok!r} as a finite number"
                    )
                vals.append(v)
            lab = row[label_col].strip()
            if lab not in ("0", "1"):
                raise SchemaError(
                    f"row {line_no}: label must be 0 or 1, got {lab!r}"
                )
            stok = row[sens_col].strip()
            if stok in ("NA", ""):
                raise SchemaError(f"row {line_no}: sensitive value missing")
            rows.append(vals)
            sens_raw.append(stok)
            labels.append(int(lab))

    if sensitive_values is not None:
        mapping = {str(v): i for i, v in enumerate(sensitive_values)}
        try:
            sens = [mapping[v] for v in sens_raw]
        except KeyError as exc:
            raise SchemaError(f"unknown sensitive value {exc.args[0]!r}") from None
    else:
        try:
            sens = [int(v) for v in sens_raw]
        except ValueError:
            mapping = {v: i for i, v in enumerate(sorted(set(sens_raw)))}
            sens = [mapping[v] for v in sens_raw]

    features = np.array(rows, dtype=np.float64).reshape(len(rows), len(feat_cols))
    return Dataset(features, sens, labels, feat_names)


def _read_row(reader, path, line_no):
    """The reader's next row, or None at the end of the file; a row it cannot
    read, or one holding a byte that is not UTF-8, is a CsvParseError."""
    try:
        row = next(reader)
    except StopIteration:
        return None
    except csv.Error as exc:
        raise CsvParseError(f"{path}: row {line_no}: {exc}") from None
    for c in "".join(row):
        if "\udc80" <= c <= "\udcff":
            raise CsvParseError(
                f"{path}: row {line_no}: byte 0x{ord(c) - 0xdc00:02x} is not UTF-8 text")
    return row


# ---------------------------------------------------------------------------
# shorthands that only tests use
# ---------------------------------------------------------------------------

def train_logreg(enc: Dataset) -> LinearModel:
    """Fit the plain L2-regularized logistic model (deterministic L-BFGS-B
    from zero weights)."""
    return train_intervention(enc, Intervention("none"))


def encode_affine(ds: Dataset) -> Dataset:
    """Fit the cross-term column set on ``ds`` itself and transform it."""
    return AffineEncoder().fit(ds).transform(ds)


def missingness_to_config(spec: MissingnessSpec) -> str:
    """Render a MissingnessSpec as its config-file section."""
    lines = ["[missingness]", f"mechanism = {spec.mechanism}"]
    for i, e in enumerate(spec.entries, start=1):
        if e.indicator is None:
            ind = "none"
        elif e.threshold is not None:
            ind = f"{e.indicator}<{_fmt(e.threshold)}"
        else:
            ind = e.indicator
        lines.append(f"entry{i} = {e.target}, {ind}, {_fmt(e.p0)}, {_fmt(e.p1)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# single-row routing and text forms that the package does not need
# ---------------------------------------------------------------------------

def assign_row(part: ClusterPartition, mask) -> int:
    """Cluster of one missing pattern, walked down the tree node by node."""
    bits = np.asarray(mask).astype(bool).reshape(-1)
    if bits.shape[0] != part.dimension:
        raise ValidationError("mask length does not match the partition")
    node = part.nodes[0]
    while node.cluster is None:
        node = part.nodes[node.right if bits[node.feature] else node.left]
    return node.cluster


def partition_to_text(part: ClusterPartition) -> str:
    lines = [f"d={part.dimension}"]
    for i, node in enumerate(part.nodes):
        if node.cluster is None:
            lines.append(f"{i} split {node.feature} {node.left} {node.right}")
        else:
            lines.append(f"{i} leaf {node.cluster}")
    return "\n".join(lines) + "\n"


def partition_from_text(text: str) -> ClusterPartition:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("d="):
        raise ValidationError("partition text must start with 'd=<dimension>'")
    part = ClusterPartition(dimension=int(lines[0][2:]))
    clusters = set()
    for ln in lines[1:]:
        toks = ln.split()
        if toks[1] == "split":
            part.nodes.append(
                TreeNode(feature=int(toks[2]), left=int(toks[3]), right=int(toks[4]))
            )
        elif toks[1] == "leaf":
            part.nodes.append(TreeNode(cluster=int(toks[2])))
            clusters.add(int(toks[2]))
        else:
            raise ValidationError(f"bad partition line: {ln!r}")
    part.leaves = [LeafRecord(cluster=q, rows=np.empty(0, dtype=np.int64), group_fractions={})
                   for q in sorted(clusters)]
    return part


def model_to_text(model: LinearModel) -> str:
    lines = [f"bias {float(model.bias)!r}"]
    lines += [f"{tag} {float(w)!r}" for tag, w in zip(model.columns, model.weights)]
    return "\n".join(lines) + "\n"


def model_from_text(text: str) -> LinearModel:
    bias, tags, weights = 0.0, [], []
    for ln in text.splitlines():
        if not ln.strip():
            continue
        key, val = ln.rsplit(None, 1)
        if key == "bias":
            bias = float(val)
        else:
            tags.append(key)
            weights.append(float(val))
    return LinearModel(np.array(weights), bias, tuple(tags))


def ensemble_to_text(ens, bags) -> str:
    """Audit dump: mode, then each bag's imputer name (from ``bags``, the
    ``classify.draw_bags`` bags it was trained on), weights, and any
    post-processing flip rates. Imputer statistics are not serialized, so
    this is for inspection rather than reconstruction."""
    lines = [f"mode {ens.mode}", f"bags {len(ens.bags)}"]
    for i, (bag, drawn) in enumerate(zip(ens.bags, bags)):
        lines.append(f"bag {i} imputer={drawn.imputer.name}")
        lines.append(model_to_text(bag).rstrip("\n"))
        if bag.rates is not None:
            for (s, p), f in sorted(bag.rates.flip.items()):
                lines.append(f"flip s={s} base={p} {float(f)!r}")
    return "\n".join(lines) + "\n"


def table_to_dataset(table, denominator: int) -> Dataset:
    """Expand a ``metrics.JointTable`` to an integer-count dataset when every
    cell probability is a multiple of 1/denominator (for exercising plug-in
    estimators)."""
    counts = table.probs * denominator
    rounded = np.rint(counts)
    if not np.allclose(counts, rounded, atol=1e-9):
        raise ValidationError("probabilities are not multiples of 1/denominator")
    feats, sens, labels = [], [], []
    for si, s in enumerate(table.groups):
        for xi, v in enumerate(table.x_values):
            for y in (0, 1):
                c = int(rounded[si, xi, y])
                feats.extend([np.nan if v is None else float(v)] * c)
                sens.extend([s] * c)
                labels.extend([y] * c)
    return Dataset(np.array(feats).reshape(-1, 1), sens, labels, ("x",))


# ---------------------------------------------------------------------------
# plug-in information measures, in bits (log base 2), from empirical
# frequencies; the package computes only a JointTable's exact I(M; Y)
# ---------------------------------------------------------------------------

def binary_entropy(a: float) -> float:
    """-a log2 a - (1-a) log2 (1-a), continuous at the endpoints."""
    if not 0.0 <= a <= 1.0:
        raise ValidationError("binary_entropy argument must lie in [0, 1]")
    if a in (0.0, 1.0):
        return 0.0
    return float(-a * np.log2(a) - (1.0 - a) * np.log2(1.0 - a))


def _entropy_bits(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))


def _column_codes(column) -> np.ndarray:
    """Integer codes for a discrete column; NaN becomes its own category."""
    col = np.asarray(column)
    if col.dtype.kind == "f":
        codes = np.full(col.shape, -1, dtype=np.int64)
        obs = ~np.isnan(col)
        if obs.any():
            _, inv = np.unique(col[obs], return_inverse=True)
            codes[obs] = inv
        return codes
    _, inv = np.unique(col, return_inverse=True)
    return inv.astype(np.int64)


def _tuple_codes(columns) -> np.ndarray:
    cols = [_column_codes(c) for c in columns]
    stacked = np.stack(cols, axis=1)
    _, inv = np.unique(stacked, axis=0, return_inverse=True)
    return inv.astype(np.int64)


def entropy(column) -> float:
    """Plug-in entropy H of one discrete column, in bits."""
    codes = _column_codes(column)
    _, counts = np.unique(codes, return_counts=True)
    return _entropy_bits(counts / codes.shape[0])


def conditional_entropy(y, columns) -> float:
    """Plug-in H(Y | tuple of columns), in bits."""
    y = np.asarray(y)
    t = _tuple_codes(columns)
    n = y.shape[0]
    h = 0.0
    for code in np.unique(t):
        sel = t == code
        w = sel.sum() / n
        _, counts = np.unique(y[sel], return_counts=True)
        h += w * _entropy_bits(counts / sel.sum())
    return h


def mutual_information(y, columns) -> float:
    """Plug-in I(Y; tuple of columns) = H(Y) - H(Y | tuple), in bits."""
    return entropy(y) - conditional_entropy(y, columns)


def mutual_info_my(ds: Dataset) -> float:
    """Plug-in mutual information between the missing-pattern vector and the
    label, in bits."""
    if ds.n_samples == 0:
        raise ValidationError("mutual_info_my requires a non-empty dataset")
    pattern = _tuple_codes([ds.mask[:, j] for j in range(ds.dimension)])
    return mutual_information(ds.labels, [pattern])


def bayes_accuracy(table: metrics.JointTable) -> float:
    """Unconstrained best accuracy: pick the majority label per feature value."""
    p1 = table.probs[:, :, 1].sum(axis=0)
    p0 = table.probs[:, :, 0].sum(axis=0)
    return float(np.sum(np.maximum(p0, p1)))
