"""Adaptive encodings that keep the missing pattern available to a classifier.

Three transformations: appending per-feature missing indicators, appending
indicator-by-value cross terms (an affinely adaptive linear model in disguise),
and recursive partitioning of missing patterns into clusters that each get
their own downstream model. An encoding is a ``Dataset`` with the input's
groups and labels and no missing cell; its feature names are the column
tags ``orig:<name>``, ``ind:<name>`` and ``cross:<value name>|miss:<indicator
name>``, each naming where its column comes from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, stratified_split_indices, stream_key
from .errors import NotFittedError, ValidationError
from .impute import Imputer, ZeroImputer
from .optim import LAM, descend, logistic, make_objective


def encode_indicators(ds: Dataset, imputer: Imputer = None) -> Dataset:
    """d imputed originals followed by d missing indicators (2d columns).

    Zero imputation by default; a fitted imputer may fill the value columns
    instead (the indicator columns always reflect the original mask).
    """
    values = (imputer or ZeroImputer()).transform(ds).features
    cols = [f"orig:{n}" for n in ds.feature_names] + [
        f"ind:{n}" for n in ds.feature_names
    ]
    matrix = np.hstack([values, ds.mask.astype(np.float64)])
    return Dataset(matrix, ds.sensitive, ds.labels, tuple(cols))


class AffineEncoder:
    """Indicator encoding plus cross terms m_k * (1 - m_j) * x_j.

    Cross columns exist only for features k that were missing at least once in
    the fitting data; a feature first missing at transform time contributes
    through its indicator column only. Output width is 2d + n_miss * (d - 1).
    """

    def __init__(self):
        self.miss_features_ = None

    def fit(self, train: Dataset) -> "AffineEncoder":
        self.miss_features_ = tuple(
            int(j) for j in np.flatnonzero(train.mask.any(axis=0))
        )
        self.names_ = train.feature_names
        return self

    def transform(self, ds: Dataset) -> Dataset:
        if self.miss_features_ is None:
            raise NotFittedError("affine encoder used before fit")
        if ds.feature_names != self.names_:
            raise ValidationError("dataset features do not match the fitted encoder")
        base = encode_indicators(ds)
        values = base.features[:, :ds.dimension]  # zero-filled
        mask = base.features[:, ds.dimension:]
        cross_cols, cross_tags = [], []
        for k in self.miss_features_:
            for j in range(ds.dimension):
                if j == k:
                    continue
                cross_cols.append(mask[:, k] * (1.0 - mask[:, j]) * values[:, j])
                cross_tags.append(f"cross:{self.names_[j]}|miss:{self.names_[k]}")
        if not cross_cols:
            return base
        return Dataset(np.hstack([base.features, np.column_stack(cross_cols)]),
                       ds.sensitive, ds.labels, base.feature_names + tuple(cross_tags))


def encode_plain(ds: Dataset, imputer: Imputer = None) -> Dataset:
    """Imputed originals only - the impute-then-classify representation."""
    values = (imputer or ZeroImputer()).transform(ds).features
    return Dataset(values, ds.sensitive, ds.labels,
                   tuple(f"orig:{n}" for n in ds.feature_names))


# ---------------------------------------------------------------------------
# missing pattern clustering
# ---------------------------------------------------------------------------

@dataclass
class TreeNode:
    feature: int = None  # split feature for internal nodes
    left: int = None     # child when the feature is observed (m_j = 0)
    right: int = None    # child when the feature is missing (m_j = 1)
    cluster: int = None  # leaf id


@dataclass(frozen=True, eq=False)
class LeafRecord:
    cluster: int
    rows: np.ndarray  # the leaf's training rows, ascending
    group_fractions: dict

    @property
    def size(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class SplitRecord:
    feature: int
    parent_loss: float
    children_loss: float


@dataclass
class ClusterPartition:
    """Binary tree over missing patterns; every pattern routes to one leaf."""

    dimension: int
    nodes: list = field(default_factory=list)
    leaves: list = field(default_factory=list)
    splits: list = field(default_factory=list)

    @property
    def n_clusters(self) -> int:
        return len(self.leaves)

    def assign_dataset(self, ds: Dataset) -> np.ndarray:
        """Cluster of every row, routing all rows down the tree at once."""
        mask = ds.mask
        if mask.shape[1] != self.dimension:
            raise ValidationError("mask length does not match the partition")
        out = np.empty(mask.shape[0], dtype=np.int64)
        stack = [(0, np.arange(mask.shape[0]))]
        while stack:
            node_id, rows = stack.pop()
            node = self.nodes[node_id]
            if node.cluster is not None:
                out[rows] = node.cluster
                continue
            missing = mask[rows, node.feature]
            stack.append((node.left, rows[~missing]))
            stack.append((node.right, rows[missing]))
        return out


def check_group_bounds(alpha: float, beta: float, n_groups: int) -> None:
    """Every group's fraction of a cluster must lie in [beta, alpha]; a
    partition exists only when 0 <= beta <= 1/|S| <= alpha <= 1."""
    if not (0.0 <= beta <= 1.0 / n_groups <= alpha <= 1.0):
        raise ValidationError(
            f"bounded representation needs 0 <= beta <= 1/|S| <= alpha <= 1 "
            f"(got alpha={alpha}, beta={beta}, |S|={n_groups})"
        )


def cluster_missing_patterns(
    train: Dataset,
    k_min: int,
    alpha: float,
    beta: float,
    *,
    val_fraction: float = 0.0,
    seed: int = 0,
) -> ClusterPartition:
    """Recursively split training rows by the missingness of one feature.

    Clusters are processed FIFO from the root. A feature is a split candidate
    only when both children have at least ``k_min`` rows and every group's
    fraction stays within [beta, alpha] in both; among candidates the feature
    with the lowest summed children loss wins (ties to the lowest index), and
    the split is kept only when that sum is strictly below the cluster's own
    minimized loss. The loss is the summed logistic loss plus
    (lam/2)||w||^2 of a linear model on zero-imputed features, minimized as
    the mean objective with ``optim.LAM``/n; with
    ``val_fraction`` > 0 a stratified share of the rows is held out once and
    the unregularized summed loss is evaluated on it instead.
    """
    stream_key(seed)  # the seed rule, also when no holdout draws from it
    if train.n_samples == 0:
        raise ValidationError("cannot cluster an empty training set")
    n_groups = len(train.group_set)
    check_group_bounds(alpha, beta, n_groups)
    if k_min < 1:
        raise ValidationError("minimum cluster size must be >= 1")
    if not 0.0 <= val_fraction < 1.0:
        raise ValidationError("val_fraction must lie in [0, 1)")

    x = ZeroImputer().transform(train).features
    y = train.labels
    mask = train.mask
    all_idx = np.arange(train.n_samples)
    group_idx = np.unique(train.sensitive, return_inverse=True)[1]

    def group_fractions(idx: np.ndarray) -> np.ndarray:
        return np.bincount(group_idx[idx], minlength=n_groups) / idx.size

    if val_fraction > 0.0:
        fit_idx, _ = stratified_split_indices(train, val_fraction, seed)
        fit_flags = np.zeros(train.n_samples, dtype=bool)
        fit_flags[fit_idx] = True
    else:
        fit_flags = np.ones(train.n_samples, dtype=bool)

    def cluster_loss(idx: np.ndarray) -> float:
        fit_rows = idx[fit_flags[idx]]
        n = fit_rows.size
        obj = make_objective(x[fit_rows], y[fit_rows], LAM / n)
        w, mean_loss, _ = descend(obj, np.zeros(x.shape[1] + 1))
        if val_fraction > 0.0:
            val_rows = idx[~fit_flags[idx]]
            if val_rows.size == 0:
                return 0.0
            z = x[val_rows] @ w[:-1] + w[-1]
            return float(np.sum(logistic(z)[1] - y[val_rows] * z))
        return mean_loss * n

    part = ClusterPartition(dimension=train.dimension)
    part.nodes.append(TreeNode())
    queue = [(0, all_idx, cluster_loss(all_idx))]
    while queue:
        node_id, idx, own_loss = queue.pop(0)
        best = None
        for j in range(train.dimension):
            right = idx[mask[idx, j]]
            left = idx[~mask[idx, j]]
            if len(left) < k_min or len(right) < k_min:
                continue
            fractions = np.concatenate([group_fractions(left), group_fractions(right)])
            if not (beta <= fractions.min() and fractions.max() <= alpha
                    and fit_flags[left].any() and fit_flags[right].any()):
                continue
            left_loss, right_loss = cluster_loss(left), cluster_loss(right)
            split_loss = left_loss + right_loss
            if best is None or split_loss < best[1]:
                best = (j, split_loss, left, right, left_loss, right_loss)
        if best is not None and best[1] < own_loss:
            j, split_loss, left, right, left_loss, right_loss = best
            node = part.nodes[node_id]
            node.feature = j
            node.left = len(part.nodes)
            part.nodes.append(TreeNode())
            node.right = len(part.nodes)
            part.nodes.append(TreeNode())
            part.splits.append(SplitRecord(j, own_loss, split_loss))
            queue.append((node.left, left, left_loss))
            queue.append((node.right, right, right_loss))
        else:
            q = len(part.leaves)
            part.nodes[node_id].cluster = q
            part.leaves.append(LeafRecord(
                q, idx, dict(zip(train.group_set, group_fractions(idx).tolist()))))
    return part
