import csv
import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fairmiss import data
from fairmiss.classify import Intervention, eqodds_program, train_intervention
from fairmiss.data import (
    Dataset,
    FeatureScaler,
    balance_cells,
    fair_resample,
    load_csv,
    read_schema,
    split_train_test,
    write_csv,
)
from fairmiss.errors import CsvParseError, SchemaError, ValidationError
from fairmiss.metrics import group_rates

from conftest import random_dataset
from oracles import load_csv_rows, reference_split_indices


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


SCHEMA = {"a": "feature", "b": "feature", "s": "sensitive", "y": "label"}


def scale_features(ds):
    return FeatureScaler().fit(ds).transform(ds)


class TestLoadCsv:
    def test_na_cell_sets_exactly_one_mask_bit(self, tmp_path):
        p = write(tmp_path, "d.csv", "a,b,s,y\n1,2,0,0\nNA,3,0,1\n4,5,1,1\n")
        ds = load_csv(p, SCHEMA)
        assert ds.n_samples == 3 and ds.dimension == 2
        assert ds.mask.sum() == 1 and ds.mask[1, 0]
        assert ds.feature_names == ("a", "b")

    def test_empty_cell_is_missing(self, tmp_path):
        p = write(tmp_path, "d.csv", "a,b,s,y\n1,,0,0\n2,3,1,1\n")
        ds = load_csv(p, SCHEMA)
        assert ds.mask[0, 1] and not ds.mask[1].any()

    def test_row_order_preserved(self, tmp_path):
        p = write(tmp_path, "d.csv", "a,b,s,y\n9,1,0,0\n8,2,0,1\n7,3,1,0\n")
        ds = load_csv(p, SCHEMA)
        assert ds.features[:, 0].tolist() == [9.0, 8.0, 7.0]

    def test_non_binary_label_is_schema_error(self, tmp_path):
        p = write(tmp_path, "d.csv", "a,b,s,y\n1,2,0,2\n")
        with pytest.raises(SchemaError):
            load_csv(p, SCHEMA)

    def test_wrong_column_count_names_row(self, tmp_path):
        p = write(tmp_path, "d.csv", "a,b,s,y\n1,2,0,0\n1,2,0\n")
        with pytest.raises(CsvParseError, match="row 3"):
            load_csv(p, SCHEMA)

    def test_junk_feature_token_is_parse_error(self, tmp_path):
        p = write(tmp_path, "d.csv", "a,b,s,y\n1,huh,0,0\n")
        with pytest.raises(CsvParseError, match="huh"):
            load_csv(p, SCHEMA)

    @pytest.mark.parametrize("tok", ["nan", "inf", "-inf", "Infinity", "NaN"])
    def test_non_finite_token_is_parse_error(self, tmp_path, tok):
        p = write(tmp_path, "d.csv", f"a,b,s,y\n1,2,0,0\n3,{tok},1,1\n")
        with pytest.raises(CsvParseError, match=r"row 3, column 'b'"):
            load_csv(p, SCHEMA)

    def test_unknown_sensitive_value_with_declared_groups(self, tmp_path):
        p = write(tmp_path, "d.csv", "a,b,s,y\n1,2,martian,0\n")
        with pytest.raises(SchemaError, match="martian"):
            load_csv(p, SCHEMA, sensitive_values=("earthling", "venusian"))

    def test_compas_shaped_csv(self, tmp_path):
        cols = "age_cat,race,sex,priors_count,charge_degree,extra,two_year_recid"
        rows = [
            "0,Black,0,3,1,0.5,1",
            "1,White,1,0,0,0.25,0",
            "2,Black,1,NA,1,0.75,0",
            "0,White,0,1,0,0.1,1",
        ]
        p = write(tmp_path, "compas.csv", cols + "\n" + "\n".join(rows) + "\n")
        schema = {
            "age_cat": "feature",
            "race": "sensitive",
            "sex": "feature",
            "priors_count": "feature",
            "charge_degree": "feature",
            "extra": "feature",
            "two_year_recid": "label",
            # no role left over: every column is typed
        }
        schema["extra"] = "ignore"
        ds = load_csv(p, schema)
        assert ds.dimension == 4
        assert ds.group_set == (0, 1)  # Black -> 0, White -> 1 by sorted order
        assert ds.mask[2, ds.feature_names.index("priors_count")]

    def test_schema_roundtrip(self, tmp_path):
        p = write(tmp_path, "schema.txt", "a = feature\nb=feature\ns = sensitive\ny = label\n")
        assert read_schema(p) == SCHEMA

    def test_write_then_load_roundtrip(self, tmp_path, rng):
        ds = random_dataset(rng, n=25, d=3)
        p = tmp_path / "rt.csv"
        write_csv(ds, p)
        schema = {n: "feature" for n in ds.feature_names}
        schema.update(sensitive="sensitive", label="label")
        back = load_csv(p, schema)
        assert np.array_equal(back.mask, ds.mask)
        assert np.allclose(back.features, ds.features, equal_nan=True)
        assert np.array_equal(back.labels, ds.labels)


# tokens float reads as finite numbers, as written by hand or by programs
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e6, 1e6).map(lambda v: f"{v:.4e}"),
    st.integers(-10**6, 10**6).map(str),
    st.tuples(st.integers(1, 99), st.integers(0, 999)).map(lambda t: f"{t[0]}_{t[1]}"),
    st.sampled_from([".5", "5.", "+3", "-0", "1E5", "-1e-320", "1e308", "0.0"]),
)
FEATURES = NUMBERS | st.sampled_from(["NA", ""])
GROUPS = st.sampled_from([("0", "1", "2"), ("7", "-1"), ("a", "b", "c"), ("x", "10", " y ")])
# one token per fault, keyed by the column role it breaks
FAULTS = {
    "feature": st.sampled_from(["nan", "NaN", "inf", "-Infinity", "1e999", "huh", "0x10",
                                "1__0", "1,5", "N A"]),
    "label": st.sampled_from(["2", "", "NA", "-1", "01", "1.0", "yes"]),
    "sensitive": st.sampled_from(["NA", "", "  "]),
}


PADS = [("", ""), (" ", ""), ("", " "), ("  ", "\t"), ("\t", " ")]


def _pad(tok):
    return st.sampled_from(PADS).map(lambda p: p[0] + tok + p[1])


def _cell(tok):
    """A padded token, bare or in quotes."""
    quoted = '"' + tok.replace('"', '""') + '"'
    if any(c in tok for c in ',"\n\r'):
        return st.just(quoted)
    return st.sampled_from([tok, quoted])


@st.composite
def csv_case(draw, faults=0):
    """(CSV text, schema, sensitive_values or None, chunk size) with at least
    ``faults`` faulty rows. Rows may be blank, and an ignored column holds
    anything."""
    k = draw(st.integers(1, 4))
    roles = ["feature"] * k + ["sensitive", "label"] + draw(st.sampled_from([[], ["ignore"]]))
    order = draw(st.permutations(range(len(roles))))
    names = [f"c{i}" for i in range(len(roles))]
    schema = {names[i]: roles[j] for i, j in enumerate(order)}
    groups = draw(GROUPS)
    n = draw(st.integers(faults, 12))
    rows = []
    for _ in range(n):
        row = []
        for name in names:
            role = schema[name]
            if role == "feature":
                tok = draw(FEATURES)
            elif role == "sensitive":
                tok = draw(st.sampled_from(groups))
            elif role == "label":
                tok = draw(st.sampled_from(["0", "1"]))
            else:
                # no NUL: the csv module rejects it before Python 3.11
                tok = draw(st.text(max_size=3).filter(lambda t: "\x00" not in t))
            row.append(draw(_pad(tok)) if role != "ignore" else tok)
        rows.append(row)
    for r in draw(st.lists(st.integers(0, max(n - 1, 0)), min_size=faults,
                           max_size=faults, unique=True)) if n else []:
        kind = draw(st.sampled_from(["feature", "label", "sensitive", "width"]))
        if kind == "width":
            if draw(st.booleans()) and len(rows[r]) > 1:
                rows[r].pop()
            else:
                rows[r].append("1")
        else:
            col = draw(st.sampled_from([c for c, name in enumerate(names) if schema[name] == kind]))
            rows[r][col] = draw(_pad(draw(FAULTS[kind])))
    lines = [",".join(draw(_cell(t)) for t in row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    text = ",".join(names) + "\n" + "\n".join(lines) + draw(st.sampled_from(["", "\n"]))
    declared = draw(st.sampled_from([None, [g.strip() for g in groups]]))
    return text, schema, declared, draw(st.sampled_from([1, 2, 3, 7, 512]))


def _load_both(case):
    """Each loader's Dataset, or its exception as (type, message)."""
    text, schema, declared, chunk = case
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        path.write_text(text)
        for load in (load_csv, load_csv_rows):
            try:
                with mock.patch.object(data, "_CHUNK_ROWS", chunk):
                    out.append(load(path, schema, declared))
            except Exception as exc:  # compared below, type and message
                out.append((type(exc), str(exc)))
    return out


@given(csv_case())
def test_columnar_load_has_the_bits_of_the_row_by_row_load(case):
    new, old = _load_both(case)
    assert new.features.tobytes() == old.features.tobytes()
    assert new.features.shape == old.features.shape
    assert new.sensitive.tobytes() == old.sensitive.tobytes()
    assert new.labels.tobytes() == old.labels.tobytes()
    assert new.feature_names == old.feature_names


@given(csv_case(faults=3))
def test_first_faulty_row_raises_as_in_the_row_by_row_load(case):
    new, old = _load_both(case)
    assert isinstance(old, tuple) and new == old


@pytest.mark.parametrize("chunk", [1, 2, 512])
@pytest.mark.parametrize("before", ["1,2,0,0", "1,2,0,5"])
def test_reader_error_raises_after_the_rows_before_it(tmp_path, chunk, before, monkeypatch):
    huge = "9" * (csv.field_size_limit() + 1)
    p = write(tmp_path, "d.csv", f"a,b,s,y\n1,2,0,1\n{before}\n{huge},2,0,0\n")
    monkeypatch.setattr(data, "_CHUNK_ROWS", chunk)
    errors = []
    for load in (load_csv, load_csv_rows):
        with pytest.raises((CsvParseError, SchemaError)) as info:
            load(p, SCHEMA)
        errors.append((info.type, str(info.value)))
    assert errors[0] == errors[1]
    if before == "1,2,0,0":
        assert errors[0] == (CsvParseError, f"{p}: row 4: field larger than field limit "
                                            f"({csv.field_size_limit()})")


@pytest.mark.parametrize("chunk", [1, 2, 512])
@pytest.mark.parametrize("text, error", [
    (b"a,b,s,y,caf\xe9\n1,2,0,1\n", "row 1: byte 0xe9 is not UTF-8 text"),
    (b"a,b,s,y\n1,2,0,1\n1,2,0,0\n\n1,2,caf\xe9,0\n1,2,0,0\n",
     "row 5: byte 0xe9 is not UTF-8 text"),
    (b"a,b,s,y\n1,2,0,1\n1,2,0,5\n1,2,caf\xe9,0\n", "row 3: label must be 0 or 1"),
])
def test_byte_that_is_not_utf8_raises_after_the_rows_before_it(
        tmp_path, chunk, text, error, monkeypatch):
    p = tmp_path / "d.csv"
    p.write_bytes(text)
    monkeypatch.setattr(data, "_CHUNK_ROWS", chunk)
    errors = []
    for load in (load_csv, load_csv_rows):
        with pytest.raises((CsvParseError, SchemaError), match=error) as info:
            load(p, SCHEMA)
        errors.append((info.type, str(info.value)))
    assert errors[0] == errors[1]


def test_text_that_is_utf8_loads(tmp_path):
    p = write(tmp_path, "d.csv", "a,b,s,y,note\n1,2,Zürich,1,café\n3,4,Genève,0,\u00e9t\u00e9\n")
    ds = load_csv(p, {**SCHEMA, "note": "ignore"})
    assert ds.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert ds.sensitive.tolist() == [1, 0]



@pytest.mark.parametrize("text, line", [
    (b"x1 = feature\ncaf\xe9 = ignore\n", 2),
    (b"# r\xe9sum\xe9\r\nx1 = feature\n", 1),
])
def test_schema_that_is_not_utf8_raises_schema_error(tmp_path, text, line):
    p = tmp_path / "s.txt"
    p.write_bytes(text)
    with pytest.raises(SchemaError) as info:
        read_schema(p)
    assert str(info.value) == f"{p}: line {line}: byte 0xe9 is not UTF-8 text"


def test_schema_in_utf8_with_crlf_lines_reads(tmp_path):
    p = tmp_path / "s.txt"
    p.write_bytes("# résumé\r\na = feature\r\nb=feature\rs = sensitive\ny = label".encode())
    assert read_schema(p) == SCHEMA


def test_schema_that_lists_a_column_twice_is_a_schema_error(tmp_path):
    p = write(tmp_path, "s.txt", "x1 = feature\nx2 = feature\n\n x2 = ignore \n")
    with pytest.raises(SchemaError) as info:
        read_schema(p)
    assert str(info.value) == f"{p}: line 4: column 'x2' already has a role: ' x2 = ignore '"


BOM = b"\xef\xbb\xbf"


def test_schema_and_csv_with_a_byte_order_mark_load_as_without(tmp_path):
    schema = b"a = feature\nb = feature\ns = sensitive\ny = label\n"
    rows = b"a,b,s,y\n1,NA,0,1\n2,3,1,0\n"
    for name, text in (("plain", b""), ("bom", BOM)):
        (tmp_path / f"{name}.txt").write_bytes(text + schema)
        (tmp_path / f"{name}.csv").write_bytes(text + rows)
    assert read_schema(tmp_path / "bom.txt") == read_schema(tmp_path / "plain.txt") == SCHEMA
    plain, bom = (load_csv(tmp_path / f"{name}.csv", SCHEMA) for name in ("plain", "bom"))
    assert bom.feature_names == plain.feature_names
    for got, want in ((bom.features, plain.features), (bom.sensitive, plain.sensitive),
                      (bom.labels, plain.labels)):
        assert np.array_equal(got, want, equal_nan=True)


def test_a_byte_that_is_not_utf8_after_a_byte_order_mark_is_named(tmp_path):
    p = tmp_path / "s.txt"
    p.write_bytes(BOM + b"x1 = feature\ncaf\xe9 = ignore\n")
    with pytest.raises(SchemaError) as info:
        read_schema(p)
    assert str(info.value) == f"{p}: line 2: byte 0xe9 is not UTF-8 text"
    p = tmp_path / "d.csv"
    p.write_bytes(BOM + b"a,b,s,y\n1,2,0,1\n1,2,caf\xe9,0\n")
    with pytest.raises(CsvParseError) as info:
        load_csv(p, SCHEMA)
    assert str(info.value) == f"{p}: row 3: byte 0xe9 is not UTF-8 text"


class TestScaling:
    def test_minmax_example(self):
        ds = Dataset(np.array([[2.0], [4.0], [np.nan], [6.0]]), [0, 0, 1, 1], [0, 1, 0, 1])
        out = scale_features(ds)
        assert np.allclose(out.features[[0, 1, 3], 0], [0.0, 0.5, 1.0])
        assert np.isnan(out.features[2, 0])

    def test_constant_column_maps_to_zero(self):
        ds = Dataset(np.full((3, 1), 5.0), [0, 0, 1], [0, 1, 1])
        assert (scale_features(ds).features == 0).all()

    def test_unit_interval_column_unchanged(self):
        vals = np.array([[0.0], [0.25], [1.0]])
        ds = Dataset(vals, [0, 1, 1], [0, 1, 1])
        assert np.allclose(scale_features(ds).features, vals)

    def test_idempotent(self, rng):
        ds = random_dataset(rng, n=30, d=4)
        once = scale_features(ds)
        twice = scale_features(once)
        assert np.allclose(once.features, twice.features, equal_nan=True)

    def test_all_missing_feature_errors_by_name(self):
        x = np.array([[1.0, np.nan], [2.0, np.nan]])
        ds = Dataset(x, [0, 1], [0, 1], ("good", "bad"))
        with pytest.raises(ValidationError, match="bad"):
            scale_features(ds)

    def test_train_fitted_scaler_applies_to_test(self):
        train = Dataset(np.array([[0.0], [10.0]]), [0, 1], [0, 1])
        test = Dataset(np.array([[5.0], [20.0]]), [0, 1], [0, 1])
        out = FeatureScaler().fit(train).transform(test)
        assert np.allclose(out.features[:, 0], [0.5, 2.0])

    def test_overflowing_range_errors_by_name(self):
        # max - min overflows to inf; scaling would turn 1.5e308 into NaN,
        # a missing cell, and every other value into 0
        x = np.array([[0.5, 1.5e308], [1.0, -1.5e308], [2.0, 0.0], [3.0, 1.0]])
        ds = Dataset(x, [0, 1, 0, 1], [0, 1, 1, 0], ("fine", "huge"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="'huge' has a range that is not finite"):
                FeatureScaler().fit(ds)

    @pytest.mark.parametrize("b, value", [
        ([0.0, 1e-10], 1e300), ([0.0, 1e-10], -1e300), ([0.0, 1e-10], np.inf),
        ([5.0, 5.0], np.inf), ([5.0, 5.0], -np.inf),
    ])
    def test_observed_value_scaling_past_float_range_errors_by_name(self, b, value):
        train = Dataset(np.array([[0.0, b[0]], [1.0, b[1]]]), [0, 1], [0, 1], ("a", "b"))
        scaler = FeatureScaler().fit(train)
        test = Dataset(np.array([[0.5, value], [np.nan, np.nan]]), [0, 1], [0, 1], ("a", "b"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="'b' has an observed value"):
                scaler.transform(test)

    def test_missing_cells_and_constant_features_still_scale(self):
        train = Dataset(np.array([[2.0, 5.0], [np.nan, 5.0], [4.0, 5.0]]), [0, 1, 0], [0, 1, 1])
        out = scale_features(train).features
        assert out[:, 1].tolist() == [0.0, 0.0, 0.0]
        assert out[0, 0] == 0.0 and np.isnan(out[1, 0]) and out[2, 0] == 1.0
        far = Dataset(np.array([[3.0, -1e308], [3.0, 1e308]]), [0, 1], [0, 1])
        assert FeatureScaler().fit(train).transform(far).features[:, 1].tolist() == [0.0, 0.0]


class TestSplit:
    def test_sizes_and_determinism(self, rng):
        ds = random_dataset(rng, n=100, d=2)
        tr1, te1 = split_train_test(ds, 0.3, seed=7)
        tr2, te2 = split_train_test(ds, 0.3, seed=7)
        assert (tr1.n_samples, te1.n_samples) == (70, 30)
        assert np.allclose(tr1.features, tr2.features, equal_nan=True)
        assert np.allclose(te1.features, te2.features, equal_nan=True)

    def test_stratification_arithmetic(self):
        sizes = {(0, 0): 40, (0, 1): 40, (1, 0): 10, (1, 1): 10}
        feats, sens, labels = [], [], []
        for (s, y), n in sizes.items():
            feats.extend([[float(len(feats) + i)] for i in range(n)])
            sens.extend([s] * n)
            labels.extend([y] * n)
        ds = Dataset(np.array(feats), sens, labels)
        _, test = split_train_test(ds, 0.3, seed=0)
        for (s, y), n in sizes.items():
            got = int(np.sum((test.sensitive == s) & (test.labels == y)))
            assert got == int(n * 0.3)

    def test_disjoint_covering(self, rng):
        ds = random_dataset(rng, n=57, d=2)
        train, test = split_train_test(ds, 0.25, seed=3)
        assert train.n_samples + test.n_samples == ds.n_samples
        # row multiset is preserved: sort rows of both unions
        marker = np.concatenate([train.sensitive * 2 + train.labels,
                                 test.sensitive * 2 + test.labels])
        assert sorted(marker.tolist()) == sorted((ds.sensitive * 2 + ds.labels).tolist())

    def test_tiny_cell_errors(self):
        ds = Dataset(np.zeros((3, 1)), [0, 0, 1], [0, 1, 1])
        with pytest.raises(ValidationError, match=r"s=0, y=0"):
            split_train_test(ds, 0.3, seed=0)


@st.composite
def split_case(draw):
    """A dataset of 1-3 groups whose (group, label) cells hold 0-30 rows
    each, in a drawn row order, and a test fraction and seed to split it."""
    groups = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(0, 30), min_size=2 * groups, max_size=2 * groups))
    cell_of_row = [c for c, size in enumerate(sizes) for _ in range(size)]
    cell_of_row = np.array(draw(st.permutations(cell_of_row)), dtype=np.int64)
    ds = Dataset(np.zeros((cell_of_row.size, 1)), cell_of_row // 2, cell_of_row % 2)
    fraction = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    return ds, fraction, draw(st.integers(0, 2**32))


@given(split_case())
def test_split_indices_are_those_of_the_set_loop(case):
    outcomes = []
    for split in (data.stratified_split_indices, reference_split_indices):
        try:
            outcomes.append(split(*case))
        except ValidationError as exc:
            outcomes.append(str(exc))
    new, old = outcomes
    if isinstance(old, str):
        assert new == old
    else:
        for a, b in zip(new, old):
            assert a.dtype == b.dtype and np.array_equal(a, b)


class TestFairResample:
    def test_cell_sizes_preserved_exactly(self):
        sizes = {(0, 0): 3, (0, 1): 5, (1, 0): 2, (1, 1): 4}
        sens, labels = [], []
        for (s, y), n in sizes.items():
            sens.extend([s] * n)
            labels.extend([y] * n)
        ds = Dataset(np.arange(len(sens), dtype=float)[:, None], sens, labels)
        out = ds.subset(fair_resample(ds, seed=11))
        assert out.n_samples == ds.n_samples
        for (s, y), n in sizes.items():
            assert int(np.sum((out.sensitive == s) & (out.labels == y))) == n

    def test_single_sample_cell(self):
        ds = Dataset(np.array([[1.0], [2.0], [3.0], [4.0]]), [0, 0, 1, 1], [0, 1, 0, 1])
        out = ds.subset(fair_resample(ds, seed=0))
        assert out.n_samples == 4
        assert set(out.features[:, 0]) == {1.0, 2.0, 3.0, 4.0}

    def test_different_seeds_differ_but_cells_hold(self, rng):
        ds = random_dataset(rng, n=100, d=2, missing_rate=0.0)
        a = ds.subset(fair_resample(ds, seed=1))
        b = ds.subset(fair_resample(ds, seed=2))
        assert not np.array_equal(a.features, b.features)
        for (_, idx_a), (_, idx_b) in zip(a.cells(), b.cells()):
            assert len(idx_a) == len(idx_b)

    def test_empty_cell_errors(self):
        ds = Dataset(np.zeros((2, 1)), [0, 1], [1, 1])
        with pytest.raises(ValidationError, match=r"s=0, y=0"):
            fair_resample(ds, seed=0)

    def test_mask_consistency_after_transforms(self, rng):
        ds = random_dataset(rng, n=60, d=3, missing_rate=0.3)
        for out in (ds.subset(fair_resample(ds, 5)), scale_features(ds), *split_train_test(ds, 0.4, 1)):
            assert np.array_equal(out.mask, np.isnan(out.features))


def test_balance_equalizes_cells(rng):
    ds = random_dataset(rng, n=120, d=2)
    out = balance_cells(ds, seed=0)
    sizes = {cell: len(idx) for cell, idx in out.cells()}
    assert len(set(sizes.values())) == 1
    assert min(len(idx) for _, idx in ds.cells()) == next(iter(sizes.values()))


def test_mask_is_computed_once_and_read_only(rng):
    ds = random_dataset(rng, n=30, d=3, missing_rate=0.3)
    mask = ds.mask
    assert ds.mask is mask
    assert np.array_equal(mask, np.isnan(ds.features))
    with pytest.raises(ValueError, match="read-only"):
        mask[0, 0] = not mask[0, 0]


def test_cells_are_computed_once_and_read_only(rng):
    ds = random_dataset(rng, n=30, d=3, missing_rate=0.3)
    cells = ds.cells()
    assert ds.cells() is cells
    assert [cell for cell, _ in cells] == [(s, y) for s in ds.group_set for y in (0, 1)]
    for (s, y), idx in cells:
        assert np.array_equal(idx, np.flatnonzero((ds.sensitive == s) & (ds.labels == y)))
        with pytest.raises(ValueError, match="read-only"):
            idx[:1] = 0


# each consumer of the empty-cell rule: the labels whose cells it needs, its
# wording, and a call that reads the cells
_CELL_CONSUMERS = {
    "group_rates": ((0, 1), "rates undefined",
                    lambda ds: group_rates(np.zeros(ds.n_samples, int), ds)),
    "eqodds_program": ((0, 1), "rates undefined",
                       lambda ds: eqodds_program(np.full(ds.n_samples, 0.5), ds)),
    "fair_resample": ((0, 1), "cannot resample", lambda ds: fair_resample(ds, 0)),
    "balance_cells": ((0, 1), "cannot balance", lambda ds: balance_cells(ds, 0)),
    "meo_penalty": ((0, 1), "disparity penalty undefined", lambda ds: train_intervention(
        ds, Intervention("penalty", 1.0, "mean-equalized-odds"))),
    "fnr_penalty": ((1,), "disparity penalty undefined", lambda ds: train_intervention(
        ds, Intervention("penalty", 1.0, "fnr-difference"))),
}


@pytest.mark.parametrize("empty", [[(1, 0)], [(0, 1)], [(1, 1), (0, 0)], [(1, 0), (0, 1)]])
@pytest.mark.parametrize("consumer", sorted(_CELL_CONSUMERS))
def test_every_consumer_names_the_first_empty_cell_it_needs(consumer, empty):
    labels, problem, call = _CELL_CONSUMERS[consumer]
    cells = [(s, y) for s in (0, 1) for y in (0, 1) for _ in range(3)
             if (s, y) not in empty]
    s, y = np.array(cells).T
    ds = Dataset(np.arange(len(cells), dtype=float)[:, None] / 10, s, y)
    needed = sorted(cell for cell in empty if cell[1] in labels)
    if not needed:  # the fnr penalty with only a y = 0 cell empty
        assert np.isfinite(call(ds).weights).all()
        return
    want = f"empty cell (s={needed[0][0]}, y={needed[0][1]}): {problem}"
    with pytest.raises(ValidationError, match=re.escape(want) + "$"):
        call(ds)


@pytest.mark.parametrize("sens, labels, bad", [
    ([0, 1.5, 1], [0, 1, 1], "sensitive must be integers, got 1.5"),
    ([0, 1, 1], [0.5, 1.7, 1], "labels must be integers, got 0.5"),
    ([0, 1, 1], [0, np.nan, 1], "labels must be integers, got nan"),
])
def test_groups_and_labels_that_an_integer_cast_would_change_raise(sens, labels, bad):
    with pytest.raises(ValidationError, match=bad):
        Dataset(np.zeros((3, 1)), sens, labels)


def test_integral_groups_and_labels_are_read_and_int64_input_is_kept():
    ds = Dataset(np.zeros((3, 1)), np.array([0.0, 2.0, 1.0]), [True, False, True])
    assert ds.sensitive.tolist() == [0, 2, 1] and ds.labels.tolist() == [1, 0, 1]
    assert ds.sensitive.dtype == ds.labels.dtype == np.int64
    groups = np.array([0, 2, 1])
    assert Dataset(np.zeros((3, 1)), groups, [0, 1, 1]).sensitive is groups


def test_duplicate_feature_names_raise():
    with pytest.raises(ValidationError, match="'b' appears more than once"):
        Dataset(np.zeros((2, 3)), [0, 1], [0, 1], ("a", "b", "b"))
