"""Test oracles: closed-form rate tables the package itself never needs,
the loop versions of code the package now runs vectorized, and shorthands
that only tests call."""

import csv
import itertools
import math

import numpy as np

from fairmiss.classify import Intervention, LinearModel, OptimizerSettings, train_intervention
from fairmiss.data import Dataset, _check_schema
from fairmiss.encode import AffineEncoder, EncodedDataset
from fairmiss.errors import CsvParseError, SchemaError
from fairmiss.harness import _fmt
from fairmiss.optim import _contrast
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


def uniform_mixture_rates(rate_tables) -> dict:
    """Rate table of a uniformly random pick among classifiers: the plain
    average of their Pr(prediction = 1 | y, s) tables."""
    keys = rate_tables[0].keys()
    return {k: float(np.mean([t[k] for t in rate_tables])) for k in keys}


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

def train_logreg(enc: EncodedDataset, settings: OptimizerSettings = None) -> LinearModel:
    """Fit the plain L2-regularized logistic model (deterministic L-BFGS-B
    from zero weights)."""
    interv = Intervention("none", settings=settings or OptimizerSettings())
    return train_intervention(enc, interv)[0]


def encode_affine(ds: Dataset) -> EncodedDataset:
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
