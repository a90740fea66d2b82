"""Dataset container, CSV ingestion, scaling, stratified splitting, fair resampling.

A ``Dataset`` holds the rows (x, s, y) at every stage: as loaded, where NaN
marks a missing cell (the mask is ``np.isnan`` of the features), and as
encoded, where the encoders of ``fairmiss.encode`` leave no missing cell and
name each column by its tag. Datasets are immutable after construction
(arrays are marked read-only) so they can be shared freely.
"""

from __future__ import annotations

import codecs
import csv
import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import CsvParseError, SchemaError, ValidationError

ROLES = ("feature", "sensitive", "label", "ignore")


@dataclass(frozen=True)
class Dataset:
    """Immutable collection of samples sharing a feature space.

    features     : (n, d) float64 matrix, NaN marks a missing cell
    sensitive    : (n,) integer group ids
    labels       : (n,) integers in {0, 1}
    feature_names: d distinct names; an encoding's are its column tags

    ``cells()`` is the one (group, label) cell table and ``require_cells``
    the one empty-cell rule; only the fnr penalty needs just the y = 1 cells.
    """

    features: np.ndarray
    sensitive: np.ndarray
    labels: np.ndarray
    feature_names: tuple = ()

    def __post_init__(self):
        fx = np.asarray(self.features, dtype=np.float64)
        if fx.ndim != 2:
            raise ValidationError("features must be a 2-D matrix")
        s = _integers(self.sensitive, "sensitive")
        y = _integers(self.labels, "labels")
        if s.shape != (fx.shape[0],) or y.shape != (fx.shape[0],):
            raise ValidationError("sensitive/labels length must match feature rows")
        if not ((y == 0) | (y == 1)).all():
            raise ValidationError("labels must be binary (0/1)")
        names = tuple(self.feature_names) or tuple(
            f"x{j + 1}" for j in range(fx.shape[1])
        )
        if len(names) != fx.shape[1]:
            raise ValidationError("feature_names length must match dimension")
        if len(set(names)) != len(names):
            dup = next(n for n in names if names.count(n) > 1)
            raise ValidationError(f"feature name {dup!r} appears more than once")
        for arr in (fx, s, y):
            arr.setflags(write=False)
        object.__setattr__(self, "features", fx)
        object.__setattr__(self, "sensitive", s)
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "feature_names", names)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def dimension(self) -> int:
        return self.features.shape[1]

    @cached_property
    def group_set(self) -> tuple:
        """The sorted group ids, computed once: the arrays are read-only."""
        return tuple(np.unique(self.sensitive).tolist())

    @cached_property
    def mask(self) -> np.ndarray:
        """(n, d) read-only boolean matrix, True where the feature is
        missing, computed once as ``group_set`` is."""
        mask = np.isnan(self.features)
        mask.setflags(write=False)
        return mask

    def subset(self, indices) -> "Dataset":
        """The rows at ``indices``, integers in [0, n), repeats allowed."""
        idx = np.asarray(indices)
        if idx.dtype == bool:  # a mask, which _integers would read as 0 and 1
            raise ValidationError("indices must be integers, got a boolean mask")
        idx = _integers(idx, "indices")
        if idx.size and not (idx.min() >= 0 and idx.max() < self.n_samples):
            raise ValidationError(f"indices must lie in [0, {self.n_samples})")
        # fancy indexing returns new arrays
        return Dataset(self.features[idx], self.sensitive[idx], self.labels[idx],
                       self.feature_names)

    def with_features(self, features: np.ndarray) -> "Dataset":
        """Same rows and metadata, new feature matrix; the read-only groups
        and labels are shared."""
        return Dataset(features, self.sensitive, self.labels, self.feature_names)

    def cells(self) -> tuple:
        """((s, y), ascending row indices) per cell, sorted by (s, y), empty cells
        included; computed once, as ``mask`` is, with read-only index arrays."""
        return self._cells

    @cached_property
    def _cells(self) -> tuple:
        cells = tuple(((s, y), np.flatnonzero((self.sensitive == s) & (self.labels == y)))
                      for s in self.group_set for y in (0, 1))
        for _, idx in cells:
            idx.setflags(write=False)
        return cells

    def require_cells(self, labels, problem: str) -> None:
        """The one empty-cell rule: raise naming the first empty cell, in
        ``cells()`` order, whose label is in ``labels``."""
        for (s, y), idx in self.cells():
            if y in labels and idx.size == 0:
                raise ValidationError(f"empty cell (s={s}, y={y}): {problem}")


def _integers(values, name: str) -> np.ndarray:
    """``values`` as an int64 array, not copied when it is one already. A
    value the cast would change (a fraction, NaN, infinite or out of range)
    raises instead of being truncated."""
    arr = np.asarray(values)
    if arr.dtype == np.int64:
        return arr
    what = "an integer" if arr.ndim == 0 else "integers"
    if arr.dtype.kind not in "biuf":
        raise ValidationError(f"{name} must be {what}, got {arr.dtype} values")
    with np.errstate(invalid="ignore"):
        out = arr.astype(np.int64)
    changed = out != arr
    if changed.any():
        raise ValidationError(f"{name} must be {what}, got {arr[changed][0].item()!r}")
    return out


def stream_key(seed, *path) -> tuple:
    """The key (first, *rest, *path) of a seed, an integer >= 0 or a key tuple
    (first, *rest) of them: the one place a seed is checked."""
    key = (*(seed if isinstance(seed, tuple) and seed else (seed,)), *path)
    bad = [part for part in key if not hasattr(type(part), "__index__")]
    if bad:
        raise ValidationError(f"seed must be an integer, got {bad[0]!r}")
    key = tuple(map(operator.index, key))
    if min(key) < 0:
        raise ValidationError("seed must be >= 0")
    return key


def stream(seed, *path) -> np.random.Generator:
    """The generator of key (seed, *path), the one place one is built: the first
    integer seeds it and the rest is its spawn key, so ``stream(seed)`` is numpy's
    default generator at seed, and distinct keys draw apart (for a first integer
    below 2**128 and the rest below 2**32)."""
    first, *rest = stream_key(seed, *path)
    return np.random.default_rng(np.random.SeedSequence(first, spawn_key=rest))


def read_text(path, error) -> str:
    """The text of a UTF-8 file, with universal newlines and without a
    leading byte-order mark. A byte that is not UTF-8 raises ``error``
    naming the file, the line and the byte, as ``load_csv`` names the row."""
    raw = Path(path).read_bytes()
    if raw.startswith(codecs.BOM_UTF8):
        raw = raw[len(codecs.BOM_UTF8):]
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}: line {line}: byte 0x{raw[exc.start]:02x} "
                    "is not UTF-8 text") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_schema(path) -> dict:
    """Parse a plain-text schema file: one ``column = role`` per line, each
    column on one line only."""
    schema = {}
    for no, raw in enumerate(read_text(path, SchemaError).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SchemaError(f"schema line not of the form 'column = role': {raw!r}")
        col, role = (part.strip() for part in line.split("=", 1))
        if col in schema:
            raise SchemaError(f"{path}: line {no}: column {col!r} already has a role: {raw!r}")
        schema[col] = role
    return schema


def read_header(path, schema: dict) -> list:
    """The header row of a CSV file, each name stripped, checked against
    ``schema`` as ``load_csv`` checks it; no data row is read."""
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        try:
            header = next(csv.reader(_utf8_lines(fh)))
        except StopIteration:
            raise CsvParseError(f"{path}: empty file, header row required") from None
        except csv.Error as exc:
            raise CsvParseError(f"{path}: row 1: {exc}") from None
    header = [h.strip() for h in header]
    _check_schema(header, schema)
    return header


def _check_schema(header, schema) -> None:
    if len(set(header)) != len(header):
        raise SchemaError("duplicate column names in CSV header")
    for col, role in schema.items():
        if role not in ROLES:
            raise SchemaError(f"unknown role {role!r} for column {col!r}")
        if col not in header:
            raise SchemaError(f"schema column {col!r} not present in CSV header")
    for col in header:
        if col not in schema:
            raise SchemaError(f"CSV column {col!r} has no role in the schema")
    labels = [c for c, r in schema.items() if r == "label"]
    sens = [c for c, r in schema.items() if r == "sensitive"]
    feats = [c for c, r in schema.items() if r == "feature"]
    if len(labels) != 1:
        raise SchemaError("schema must name exactly one label column")
    if len(sens) != 1:
        raise SchemaError("schema must name exactly one sensitive column")
    if not feats:
        raise SchemaError("schema must name at least one feature column")


# rows converted per columnar pass: bounds the tokens held at once
_CHUNK_ROWS = 512
# the missing-cell tokens, each mapped to a token float reads as NaN
_MISSING = {"NA": "nan", "": "nan"}
_LABELS = {"0": 0, "1": 1}


def load_csv(path, schema: dict, sensitive_values=None) -> Dataset:
    """Load a header-ed CSV into a Dataset.

    ``schema`` maps column name -> role in {feature, sensitive, label, ignore}.
    Missing feature cells are the literal ``NA`` or the empty string; any other
    non-numeric or non-finite (``nan``, ``inf``) feature token is a parse
    error. Tokens are stripped of surrounding whitespace, and a feature token
    is read as Python's ``float`` reads it. Blank lines are skipped, but still
    count in the row numbers of error messages. ``sensitive_values``
    optionally fixes the group-id encoding: value -> its index in the list.
    Without it, integer-valued sensitive columns are used as-is and other
    columns are encoded by sorted distinct value.

    Rows are read in chunks of ``_CHUNK_ROWS`` and each column of a chunk is
    converted and checked in one pass. The error raised is that of the first
    faulty row; within a row the checks go column count, feature columns
    from left to right, label, then sensitive value. A row the reader cannot
    read (a byte that is not UTF-8 text, or a field over ``csv``'s field
    size limit) raises ``CsvParseError`` naming the file and the row. A
    leading UTF-8 byte-order mark is skipped.
    """
    header = read_header(path, schema)
    feat_cols = [i for i, c in enumerate(header) if schema[c] == "feature"]
    sens_col = next(i for i, c in enumerate(header) if schema[c] == "sensitive")
    label_col = next(i for i, c in enumerate(header) if schema[c] == "label")
    feat_names = tuple(header[i] for i in feat_cols)
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        reader = csv.reader(_utf8_lines(fh))
        next(reader)  # the header row, read and checked above
        blocks, sens_raw = [np.empty((0, len(feat_cols)))], []
        labels = [np.empty(0, np.int64)]
        row_no = 2
        while True:
            rows, error = [], None
            try:
                rows.extend(itertools.islice(reader, _CHUNK_ROWS))
            except csv.Error as exc:  # an oversized field or a byte that is
                error = exc           # not UTF-8; raised once the rows before
                                      # it are checked
            if not rows and error is None:
                break
            numbers = range(row_no, row_no + len(rows))
            row_no += len(rows)
            if not all(rows):
                numbers = [no for no, row in zip(numbers, rows) if row]
                rows = [row for row in rows if row]
            block, sens, labs = _parse_rows(
                rows, numbers, header, feat_cols, label_col, sens_col
            )
            blocks.append(block)
            sens_raw.extend(sens)
            labels.append(labs)
            if error is not None:
                raise CsvParseError(f"{path}: row {row_no}: {error}") from None

    if sensitive_values is not None:
        mapping = {str(v): i for i, v in enumerate(sensitive_values)}
        try:
            sens = [mapping[v] for v in sens_raw]
        except KeyError as exc:
            raise SchemaError(f"unknown sensitive value {exc.args[0]!r}") from None
    else:
        try:
            sens = list(map(int, sens_raw))
        except ValueError:
            mapping = {v: i for i, v in enumerate(sorted(set(sens_raw)))}
            sens = [mapping[v] for v in sens_raw]

    return Dataset(np.concatenate(blocks), sens, np.concatenate(labels), feat_names)


def _utf8_lines(fh):
    """The lines of a file read with ``errors="surrogateescape"``; raises
    ``csv.Error`` naming the first byte that is not UTF-8 text."""
    for line in fh:
        if not line.isascii():
            bad = [c for c in line if "\udc80" <= c <= "\udcff"]
            if bad:
                raise csv.Error(f"byte 0x{ord(bad[0]) - 0xdc00:02x} is not UTF-8 text")
        yield line


def _parse_rows(rows, numbers, header, feat_cols, label_col, sens_col):
    """(features, stripped sensitive tokens, labels) of non-blank CSV rows;
    ``numbers[i]`` is row i's number in error messages."""
    lengths = np.fromiter(map(len, rows), np.intp, len(rows))
    wrong = np.flatnonzero(lengths != len(header))
    n = int(wrong[0]) if wrong.size else len(rows)
    columns = list(zip(*rows[:n])) or [()] * len(header)

    # one flag per check, in the order a row is checked
    bad = np.zeros((n, len(feat_cols) + 2), dtype=bool)
    features = np.empty((n, len(feat_cols)))
    for k, i in enumerate(feat_cols):
        col = columns[i]
        # float skips a subset of the whitespace that str.strip removes: a
        # token it reads unstripped has the stripped token's value, and one it
        # rejects goes to _float_or_nan, which strips first
        try:
            vals = np.fromiter(map(float, map(_MISSING.get, col, col)),
                               np.float64, n)
        except ValueError:  # a padded NA, or a token float rejects
            vals = np.fromiter(map(_float_or_nan, col), np.float64, n)
        odd = np.flatnonzero(~np.isfinite(vals))
        bad[odd, k] = [col[r].strip() not in _MISSING for r in odd]
        features[:, k] = vals
    labs = list(map(str.strip, columns[label_col]))
    labels = np.fromiter(map(_LABELS.get, labs, itertools.repeat(-1)), np.int64, n)
    bad[:, -2] = labels < 0
    sens = list(map(str.strip, columns[sens_col]))
    bad[:, -1] = np.fromiter(map(_MISSING.__contains__, sens), bool, n)

    if bad.any():
        # row-major, so the first flag is the first faulty row's first check
        r, c = divmod(int(np.argmax(bad)), bad.shape[1])
        if c < len(feat_cols):
            raise CsvParseError(
                f"row {numbers[r]}, column {header[feat_cols[c]]!r}: "
                f"cannot parse {columns[feat_cols[c]][r].strip()!r} as a finite number"
            )
        if c == len(feat_cols):
            raise SchemaError(f"row {numbers[r]}: label must be 0 or 1, got {labs[r]!r}")
        raise SchemaError(f"row {numbers[r]}: sensitive value missing")
    if n < len(rows):
        raise CsvParseError(
            f"row {numbers[n]}: expected {len(header)} columns, got {lengths[n]}"
        )
    return features, sens, labels


def _float_or_nan(tok: str) -> float:
    """The stripped token as a float; NaN where it is missing or float
    rejects it."""
    try:
        return float(tok.strip())
    except ValueError:
        return math.nan


def write_csv(ds: Dataset, path, sensitive_name="sensitive", label_name="label") -> None:
    """Write a Dataset back to CSV, NaN cells as the literal ``NA``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(ds.feature_names) + [sensitive_name, label_name])
        for i in range(ds.n_samples):
            row = [
                "NA" if np.isnan(v) else format(v, ".12g") for v in ds.features[i]
            ]
            writer.writerow(row + [int(ds.sensitive[i]), int(ds.labels[i])])


@dataclass
class FeatureScaler:
    """Per-feature min-max scaling over observed values.

    Constant features map to 0. Fitted on one dataset (normally the training
    split) and applied to any dataset with the same dimension; fitting requires
    at least one observed value and a finite range per feature. A transform
    raises where an observed value is infinite or would scale to inf or NaN
    (a NaN would read as a missing cell).
    """

    mins: np.ndarray = field(default=None)
    ranges: np.ndarray = field(default=None)

    def fit(self, ds: Dataset) -> "FeatureScaler":
        _reject_features(ds.mask.all(axis=0), ds, "has no observed values to scale")
        mins = np.nanmin(ds.features, axis=0)
        with np.errstate(over="ignore", invalid="ignore"):
            ranges = np.nanmax(ds.features, axis=0) - mins
        _reject_features(~np.isfinite(ranges), ds, "has a range that is not finite")
        self.mins, self.ranges = mins, ranges
        return self

    def transform(self, ds: Dataset) -> Dataset:
        if self.mins is None:
            raise ValidationError("scaler not fitted")
        if ds.dimension != self.mins.shape[0]:
            raise ValidationError("dimension mismatch between scaler and dataset")
        safe = np.where(self.ranges > 0, self.ranges, 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            scaled = (ds.features - self.mins) / safe
        scaled = np.where(self.ranges > 0, scaled, 0.0)
        scaled[ds.mask] = np.nan
        bad = ~np.isfinite(scaled) & ~ds.mask | np.isinf(ds.features)
        _reject_features(bad.any(axis=0), ds,
                         "has an observed value that is infinite or scales to one")
        return ds.with_features(scaled)


def _reject_features(bad: np.ndarray, ds: Dataset, problem: str) -> None:
    """Raise naming the first feature flagged in ``bad``."""
    if bad.any():
        j = int(np.flatnonzero(bad)[0])
        raise ValidationError(f"feature {ds.feature_names[j]!r} {problem}")


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def stratified_split_indices(ds: Dataset, test_fraction: float, seed: int):
    """Index-level stratified split; see split_train_test for the contract.
    The c-th non-empty (s, y) cell draws its test rows from key (seed, c)."""
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

    test = np.zeros(ds.n_samples, dtype=bool)
    for c, (_, idx) in enumerate(cells):
        test[idx[stream(seed, c).permutation(idx.size)[:counts[c]]]] = True
    return np.flatnonzero(~test), np.flatnonzero(test)


def split_train_test(ds: Dataset, test_fraction: float, seed: int):
    """Deterministic stratified split: each (s, y) cell contributes its share.

    Per-cell test counts follow largest-remainder apportionment of the overall
    target ``round(n * test_fraction)`` and are clamped to [1, cell-1] so every
    cell survives into both splits.
    """
    train_idx, test_idx = stratified_split_indices(ds, test_fraction, seed)
    return ds.subset(train_idx), ds.subset(test_idx)


def fair_resample(ds: Dataset, seed: int) -> np.ndarray:
    """Row indices of a uniform-with-replacement resample within each (s, y)
    cell; ``ds.subset`` of them is the resampled dataset.

    Every cell contributes exactly its own size, so all cell counts are
    preserved. Cell c draws from key (seed, c), so its draws do not depend
    on the other cells.
    """
    ds.require_cells((0, 1), "cannot resample")
    return np.concatenate([np.empty(0, np.int64)] + [
        idx[stream(seed, c).integers(0, idx.size, size=idx.size)]
        for c, (_, idx) in enumerate(ds.cells())])


def balance_cells(ds: Dataset, seed: int) -> Dataset:
    """Downsample every (s, y) cell to the smallest cell size (optional
    harness preprocessing; equalizes both label and group counts)."""
    if ds.n_samples == 0:
        raise ValidationError("cannot balance an empty dataset")
    ds.require_cells((0, 1), "cannot balance")
    m = min(idx.size for _, idx in ds.cells())
    keep = [idx[stream(seed, c).permutation(idx.size)[:m]]
            for c, (_, idx) in enumerate(ds.cells())]
    return ds.subset(np.sort(np.concatenate(keep)))
