"""Synthetic data generation and MCAR/MAR/MNAR missingness injection.

Also builds the worst-case single-feature distribution in which the label is
fully revealed by the missing pattern (positives are exactly the masked rows),
used to quantify how much accuracy any impute-then-classify pipeline must give
up under an equalized-odds constraint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, stream
from .errors import ValidationError
from .metrics import JointTable

MECHANISMS = ("mcar", "mar", "mnar")
LABEL_INDICATOR = "label"
SYNTHETIC_FEATURES = ("x1", "x2")        # gen_synthetic's columns
MASKED_POSITIVES_FEATURES = ("x",)       # sample_masked_positives' column


@dataclass(frozen=True)
class MissingEntry:
    """One feature to mask: probability p0 when the indicator is 0, p1 when 1.

    ``indicator`` is a column name, the literal ``label``, or None (constant
    rate). A ``threshold`` turns a numeric column into the binary indicator
    1[column < threshold].
    """

    target: str
    indicator: str = None
    p0: float = 0.0
    p1: float = 0.0
    threshold: float = None


@dataclass(frozen=True)
class MissingnessSpec:
    mechanism: str
    entries: tuple

    def __post_init__(self):
        if self.mechanism not in MECHANISMS:
            raise ValidationError(f"unknown mechanism {self.mechanism!r}")
        object.__setattr__(self, "entries", tuple(self.entries))
        for e in self.entries:
            if not (0.0 <= e.p0 <= 1.0 and 0.0 <= e.p1 <= 1.0):
                raise ValidationError(
                    f"entry {e.target!r}: probabilities must lie in [0, 1]"
                )
            if self.mechanism == "mcar":
                if e.p0 != e.p1:
                    raise ValidationError(
                        f"mcar entry {e.target!r} must have p0 = p1"
                    )
                if e.indicator is not None:
                    raise ValidationError(
                        f"mcar entry {e.target!r} cannot condition on a column"
                    )
            else:
                if e.indicator is None:
                    raise ValidationError(
                        f"{self.mechanism} entry {e.target!r} needs an indicator"
                    )
            if self.mechanism == "mar":
                if e.indicator == LABEL_INDICATOR:
                    raise ValidationError(
                        f"mar entry {e.target!r} cannot condition on the label"
                    )
                if e.indicator == e.target:
                    raise ValidationError(
                        f"mar entry {e.target!r} cannot condition on itself"
                    )


def _indicator_values(ds: Dataset, entry: MissingEntry) -> np.ndarray:
    if entry.indicator is None:
        return np.zeros(ds.n_samples, dtype=np.int64)
    if entry.indicator == LABEL_INDICATOR:
        base = ds.labels.astype(np.float64)
    else:
        if entry.indicator not in ds.feature_names:
            raise ValidationError(f"indicator column {entry.indicator!r} not in dataset")
        col = ds.features[:, ds.feature_names.index(entry.indicator)]
        if np.isnan(col).any():
            raise ValidationError(
                f"indicator column {entry.indicator!r} must be fully observed"
            )
        base = col
    if entry.threshold is not None:
        return (base < entry.threshold).astype(np.int64)
    vals = np.unique(base)
    if not np.isin(vals, (0.0, 1.0)).all():
        raise ValidationError(
            f"indicator {entry.indicator!r} is not binary; give a threshold"
        )
    return base.astype(np.int64)


def inject_missing(ds: Dataset, spec: MissingnessSpec, seed: int) -> Dataset:
    """Independently blank each targeted cell with its branch probability.

    Indicators are evaluated on the pre-masking values (so a feature may
    condition on itself), then the draws hide the targets. Entry k draws from
    key (seed, k). Observed values are never altered, only converted to
    missing.
    """
    features = ds.features.copy()
    for k, entry in enumerate(spec.entries):
        p = np.where(_indicator_values(ds, entry) == 1, entry.p1, entry.p0)  # ds: pre-masking
        if entry.target not in ds.feature_names:
            raise ValidationError(f"target column {entry.target!r} not in dataset")
        u = stream(seed, k).random(ds.n_samples)
        features[u < p, ds.feature_names.index(entry.target)] = np.nan
    return ds.with_features(features)


# ---------------------------------------------------------------------------
# synthetic two-feature dataset
# ---------------------------------------------------------------------------

# (label, group, n, mean_x1, mean_x2); None mean_x2 = second feature missing.
# Complete rows share covariance diag(2, 2); masked rows have Var(x1) = 3.
_COMPLETE_CELLS = (
    (1, 1, 400, -3.0, -3.0),
    (1, 0, 400, -3.0, 3.0),
    (0, 1, 400, 3.0, -3.0),
    (0, 0, 400, 3.0, 3.0),
)
_MASKED_CELLS = (
    (1, 1, 100, 3.0),
    (1, 0, 300, 3.0),
    (0, 1, 100, -3.0),
    (0, 0, 300, -3.0),
)


def gen_synthetic(seed: int) -> Dataset:
    """2400-point two-feature dataset with an informative missing pattern.

    The sign of x1 separates the labels, but with the opposite orientation on
    the 800 rows where x2 is missing, so a single linear rule on zero-imputed
    data cannot fit both halves while per-pattern rules are near-perfect.
    """
    rng = stream(seed)
    feats, sens, labels = [], [], []
    for y, s, n, m1, m2 in _COMPLETE_CELLS:
        block = rng.normal(size=(n, 2)) * np.sqrt(2.0) + np.array([m1, m2])
        feats.append(block)
        sens.extend([s] * n)
        labels.extend([y] * n)
    for y, s, n, m1 in _MASKED_CELLS:
        x1 = rng.normal(size=n) * np.sqrt(3.0) + m1
        block = np.column_stack([x1, np.full(n, np.nan)])
        feats.append(block)
        sens.extend([s] * n)
        labels.extend([y] * n)
    return Dataset(np.vstack(feats), sens, labels, SYNTHETIC_FEATURES)


# ---------------------------------------------------------------------------
# worst-case distribution for impute-then-classify
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaskedPositives:
    """Single binary feature; positives are exactly the rows with it missing.

    Per group s: Pr(Y=0, X=0) = Pr(Y=0, X=1) = (1 - alpha_s) / 2 and
    Pr(Y=1, X=NA) = alpha_s. The mixture rate sum_s alpha_s * q_s must stay
    below 1/3 for the imputation accuracy gap to equal the mixture rate.
    """

    alphas: tuple
    priors: tuple

    def __post_init__(self):
        a = tuple(float(v) for v in self.alphas)
        q = tuple(float(v) for v in self.priors)
        if len(a) != len(q) or not a:
            raise ValidationError("alphas and priors must have equal, nonzero length")
        # each check is written so that NaN fails it
        if not all(0.0 <= v < 1.0 for v in a):
            raise ValidationError("each per-group rate must lie in [0, 1)")
        if not (all(v > 0.0 for v in q) and abs(sum(q) - 1.0) <= 1e-9):
            raise ValidationError("priors must be positive and sum to 1")
        if not sum(ai * qi for ai, qi in zip(a, q)) < 1.0 / 3.0:
            raise ValidationError(
                "mixture masking rate must be below 1/3 for the accuracy-gap "
                "construction to apply"
            )
        object.__setattr__(self, "alphas", a)
        object.__setattr__(self, "priors", q)

    @property
    def mixture_alpha(self) -> float:
        return sum(a * q for a, q in zip(self.alphas, self.priors))


def masked_positives_table(dist: MaskedPositives) -> JointTable:
    """Exact joint table over (s, x in {0, 1, NA}, y)."""
    groups = tuple(range(len(dist.alphas)))
    probs = np.zeros((len(groups), 3, 2))
    for si, (a, q) in enumerate(zip(dist.alphas, dist.priors)):
        probs[si, 0, 0] = q * (1.0 - a) / 2.0  # x = 0, y = 0
        probs[si, 1, 0] = q * (1.0 - a) / 2.0  # x = 1, y = 0
        probs[si, 2, 1] = q * a                # x = NA, y = 1
    return JointTable(groups, (0.0, 1.0, None), probs)


def sample_masked_positives(dist: MaskedPositives, n: int, seed: int) -> Dataset:
    """Draw n i.i.d. samples from the exact table."""
    if n <= 0:
        raise ValidationError("sample count must be positive")
    table = masked_positives_table(dist)
    flat = table.probs.reshape(-1)
    draws = stream(seed).choice(flat.size, size=n, p=flat)
    si, xi, y = np.unravel_index(draws, table.probs.shape)
    xcol = np.array([np.nan if table.x_values[i] is None else table.x_values[i]
                     for i in xi])
    sens = np.array([table.groups[i] for i in si])
    return Dataset(xcol.reshape(-1, 1), sens, y.astype(np.int64), MASKED_POSITIVES_FEATURES)
