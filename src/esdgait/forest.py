"""From-scratch random forest with Gini trees, cross-validation and metrics.

Trees are grown CART-style on the full training sample (no bootstrap by
default); ensemble diversity comes from per-split feature subsampling.
Everything is deterministic given the seeds, independent of parallelism.

Determinism notes baked into the split search: Gini terms are computed
from integer-valued class counts (exact in float64), so equal-quality
splits compare bit-identically and the documented tie-breaks are
reproducible. A forest's trees grow in lockstep over presorted features,
and one segmented pass scores the candidate features of many nodes at
once; within each candidate column the first maximum (lowest threshold)
wins, then the first column holding the best maximum (lowest feature
index). Prediction ties go to the lowest class id.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass, replace
from typing import NamedTuple

import numpy as np

from . import io
from .errors import ToolkitError, ValidationError

MODEL_FORMAT = "rfj-1"


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # (N, D)
    labels: np.ndarray  # (N,) ints in [0, K)
    feature_names: tuple[str, ...]
    class_names: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "features", np.asarray(self.features, dtype=float))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        n, d = self.features.shape
        k = len(self.class_names)
        if len(self.feature_names) != d:
            raise ValidationError("feature_names length must match feature columns")
        if self.labels.shape != (n,):
            raise ValidationError("labels length must match feature rows")
        if k < 2:
            raise ValidationError("need at least 2 classes")
        if n < k:
            raise ValidationError("need at least one sample per class")
        if not np.all(np.isfinite(self.features)):
            raise ValidationError("features must be finite")
        if self.labels.min() < 0 or self.labels.max() >= k:
            raise ValidationError("labels must lie in [0, number of classes)")
        if np.unique(self.labels).size != k:
            raise ValidationError("every class needs at least one sample")

    @property
    def n_classes(self) -> int:
        return len(self.class_names)


@dataclass(frozen=True)
class ForestParams:
    n_estimators: int = 100
    min_samples_split: int = 5
    min_samples_leaf: int = 4
    max_depth: int = 100
    bootstrap: bool = False
    max_features: int | str = "sqrt"  # "sqrt", "log2", "all", or a count
    seed: int = 0

    def __post_init__(self) -> None:
        counts = [
            ("n_estimators", 1), ("max_depth", 1), ("min_samples_split", 2), ("min_samples_leaf", 1),
            ("seed", 0),
        ]
        if not isinstance(self.max_features, str):
            counts.append(("max_features", 1))
        for name, low in counts:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
                raise ValidationError(f"{name} must be an integer >= {low}, got {value!r}")
        if isinstance(self.max_features, str) and self.max_features not in ("sqrt", "log2", "all"):
            raise ValidationError(f"unknown max_features rule {self.max_features!r}")

    def resolve_max_features(self, n_features: int) -> int:
        if self.max_features == "sqrt":
            return max(1, int(math.isqrt(n_features)))
        if self.max_features == "log2":
            return max(1, int(math.log2(n_features))) if n_features > 1 else 1
        if self.max_features == "all":
            return n_features
        return min(int(self.max_features), n_features)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class DecisionTree:
    """Flat node arrays in preorder; feature == -1 marks a leaf."""

    feature: np.ndarray  # (nodes,) int
    threshold: np.ndarray  # (nodes,) float, nan on leaves
    left: np.ndarray  # (nodes,) int, -1 on leaves
    right: np.ndarray  # (nodes,) int
    histogram: np.ndarray  # (nodes, K) training class counts
    n_samples: np.ndarray  # (nodes,)
    impurity: np.ndarray  # (nodes,)
    weighted_decrease: np.ndarray  # (nodes,) (n/N)*gini decrease, 0 on leaves
    depth: np.ndarray  # (nodes,)


@dataclass
class RandomForestModel:
    trees: list[DecisionTree]
    params: ForestParams
    feature_names: tuple[str, ...]
    class_names: tuple[str, ...]
    per_tree_seeds: tuple[int, ...]


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    cohens_kappa: float
    auroc: float
    confusion_matrix: np.ndarray  # (K, K) counts, rows = truth
    per_fold_accuracies: tuple[float, ...]
    importances: np.ndarray  # (D,)

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "cohens_kappa": self.cohens_kappa,
            "auroc": self.auroc,
            "confusion_matrix": self.confusion_matrix.astype(int).tolist(),
            "per_fold_accuracies": list(self.per_fold_accuracies),
            "importances": [float(v) for v in self.importances],
        }


# Working-set cap of one segmented split-search pass: a pass takes a round's
# nodes while their (candidates x rows) sum stays within it, a node counting
# at least n_rows / 16 rows for its row mask (one byte per dataset row and
# candidate, against some 100 bytes per element of the other pass arrays).
_PASS_ELEMENTS = 1 << 12


class _Presort(NamedTuple):
    """Each feature's rows in stable ascending order, computed once per fit."""

    order: np.ndarray  # (D, N) row ids by ascending value of each feature
    rank: np.ndarray  # (D, N) position of each row in its feature's order
    values: np.ndarray  # (D, N) feature values in that order
    labels: np.ndarray  # (D, N) row labels in that order


def _presort(x: np.ndarray, y: np.ndarray) -> _Presort:
    order = np.argsort(x.T, axis=1, kind="stable").astype(np.int32)
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(x.shape[0], dtype=np.int32), axis=1)
    labels = y[order].astype(np.min_scalar_type(int(y.max())))
    return _Presort(order, rank, np.take_along_axis(x.T, order, axis=1), labels)


def _best_split_for_feature(
    presort: _Presort,
    rows: np.ndarray,
    sizes: np.ndarray,
    weights: np.ndarray | None,
    candidates: np.ndarray,
    n_classes: int,
    min_leaf: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best (gini decrease, column, threshold) of every node of one pass.

    Node i holds the next sizes[i] entries of `rows`: distinct dataset rows,
    row r counting weights[i, r] samples (one if weights is None). It
    searches the m candidate features in candidates[i], in ascending
    order. Each (node, candidate) pair is one segment:
    the feature's presorted order filtered by the node's row mask, so no
    node sorts. Thresholds are midpoints between consecutive distinct
    values; splits leaving a child below min_leaf samples are skipped. Ties
    pick the lowest threshold within a column, then the lowest column.
    Returns three per-node arrays; a node with no allowed split gets
    decrease -inf.
    """
    n_rows = presort.order.shape[1]
    n_nodes, m = candidates.shape
    seg_len = np.repeat(sizes, m)
    seg_end = np.cumsum(seg_len)
    seg_start = seg_end - seg_len
    n_elem = int(seg_end[-1])
    seg = np.repeat(np.arange(n_nodes * m), seg_len)  # segment of each element
    pos = np.arange(n_elem) - np.repeat(seg_start, seg_len)  # place within the segment
    # every segment lists its node's rows, marked at their sorted positions
    rows = rows[pos + np.repeat(np.cumsum(sizes) - sizes, m * sizes)]
    feat_base = np.repeat(candidates.ravel() * n_rows, seg_len)
    seg_base = np.repeat(np.arange(0, n_nodes * m * n_rows, n_rows), seg_len)
    mask = np.zeros(n_nodes * m * n_rows, dtype=bool)
    mask[seg_base + presort.rank.ravel()[feat_base + rows]] = True
    feat_base -= seg_base
    del rows, seg_base
    at = np.flatnonzero(mask)
    del mask
    at += feat_base  # into the (D, N) presort
    del feat_base
    values = presort.values.ravel()[at]
    labels = presort.labels.ravel()[at]
    if weights is None:
        w = None
        n_seg = seg_len
        n_left = pos + 1  # samples at or before each element
    else:
        w = weights[seg // m, presort.order.ravel()[at]]
        cum_w = np.zeros(n_elem + 1, dtype=np.int64)
        np.cumsum(w, out=cum_w[1:])
        n_seg = cum_w[seg_end] - cum_w[seg_start]
        n_left = cum_w[1:] - np.repeat(cum_w[seg_start], seg_len)
    # min_leaf >= 1 also rules out a cut after a segment's last element
    valid = np.zeros(n_elem, dtype=bool)
    valid[:-1] = values[:-1] != values[1:]
    valid &= (n_left >= min_leaf) & (np.repeat(n_seg, seg_len) - n_left >= min_leaf)
    cut = np.flatnonzero(valid)  # split after element cut
    s = seg[cut]
    del valid, seg, pos
    n_left = n_left[cut]
    n_right = n_seg[s] - n_left
    # Class counts are integers, so their sums of squares are exact in any
    # order: one cumsum per class, the last class is what the others leave.
    left_sq, right_sq = np.zeros_like(n_left), np.zeros_like(n_left)
    total_sq = np.zeros_like(n_seg)
    left_rest, right_rest, total_rest = n_left.copy(), n_right.copy(), n_seg.copy()
    cum = np.zeros(n_elem + 1, dtype=np.int64)
    for c in range(n_classes - 1):
        np.cumsum(labels == c if w is None else (labels == c) * w, out=cum[1:])
        start_count = cum[seg_start]
        total = cum[seg_end] - start_count
        left = cum[cut + 1]
        left -= start_count[s]
        right = total[s]
        right -= left
        left_rest -= left
        right_rest -= right
        total_rest -= total
        left *= left
        right *= right
        total *= total
        left_sq += left
        right_sq += right
        total_sq += total
    left_rest *= left_rest
    right_rest *= right_rest
    total_rest *= total_rest
    left_sq += left_rest
    right_sq += right_rest
    total_sq += total_rest
    gini_left = 1.0 - left_sq / (n_left * n_left)
    gini_right = 1.0 - right_sq / (n_right * n_right)
    parent = 1.0 - total_sq / (n_seg * n_seg)
    decrease = parent[s] - (n_left * gini_left + n_right * gini_right) / n_seg[s]

    best = np.full(n_nodes, -np.inf)
    column = np.zeros(n_nodes, dtype=np.int64)
    threshold = np.full(n_nodes, math.nan)
    if cut.size:
        # a node's cuts run column by column, each by threshold, so its first
        # maximum is the lowest threshold of the lowest best column
        node = s // m
        first = np.flatnonzero(np.r_[True, node[1:] != node[:-1]])
        owner = node[first]
        best[owner] = np.maximum.reduceat(decrease, first)
        hit = np.flatnonzero(decrease == best[node])
        win = hit[np.r_[True, node[hit[1:]] != node[hit[:-1]]]]
        lo, hi = values[cut[win]], values[cut[win] + 1]
        mid = (lo + hi) / 2.0
        column[owner] = s[win] % m
        threshold[owner] = np.where(mid == hi, lo, mid)  # adjacent floats: keep lo on the left
    return best, column, threshold


def fit_trees(data: Dataset, params: ForestParams, seeds) -> list[DecisionTree]:
    """Greedy CART growth with per-node feature subsampling, one tree per
    seed, all trees grown in lockstep.

    Each round takes the next node of every unfinished tree (a tree still
    numbers its nodes in depth-first preorder and draws from its own rng in
    that order), scores all of them with one bincount and searches all
    their splits in segmented passes over presorted features. A tree does
    not depend on the other seeds grown with it.
    """
    x, y, k = data.features, data.labels, data.n_classes
    n_rows, n_features = x.shape
    m_features = params.resolve_max_features(n_features)
    presort = _presort(x, y)
    rngs = [np.random.default_rng(s) for s in seeds]
    weights = None  # every row counts once
    if params.bootstrap:  # a bootstrap sample is a count per row
        weights = np.stack(
            [np.bincount(r.integers(0, n_rows, size=n_rows), minlength=n_rows) for r in rngs]
        )
    # pending nodes of each tree, next on top: (rows, depth, parent node, is right child)
    stacks = [
        [(np.arange(n_rows) if weights is None else np.flatnonzero(weights[t]), 0, -1, False)]
        for t in range(len(rngs))
    ]
    grown = np.zeros(len(rngs), dtype=np.int64)
    rounds = []
    while True:
        tree_ids = np.asarray([t for t, stack in enumerate(stacks) if stack], dtype=np.int64)
        if tree_ids.size == 0:
            break
        popped = [stacks[t].pop() for t in tree_ids]
        node_ids = grown[tree_ids]
        grown[tree_ids] += 1
        node_rows = [p[0] for p in popped]
        sizes = np.asarray([r.size for r in node_rows], dtype=np.int64)
        depth = np.asarray([p[1] for p in popped], dtype=np.int64)
        rows = np.concatenate(node_rows)
        owner = np.repeat(np.arange(tree_ids.size), sizes)
        counts = None if weights is None else weights[tree_ids[owner], rows]
        histogram = np.bincount(owner * k + y[rows], counts, tree_ids.size * k)
        histogram = histogram.reshape(-1, k).astype(float)
        n_samples = histogram.sum(axis=1)
        impurity = 1.0 - (histogram * histogram).sum(axis=1) / (n_samples * n_samples)
        feature = np.full(tree_ids.size, -1, dtype=np.int64)
        threshold = np.full(tree_ids.size, math.nan)
        weighted_decrease = np.zeros(tree_ids.size)

        search = np.flatnonzero(
            (impurity != 0.0)
            & (n_samples >= params.min_samples_split)
            & (depth < params.max_depth)
        )
        if search.size:
            candidates = np.stack(
                [np.sort(rngs[t].choice(n_features, size=m_features, replace=False))
                 for t in tree_ids[search]]
            )
            cost = m_features * np.maximum(sizes[search], n_rows // 16 + 1)  # see _PASS_ELEMENTS
            in_pass = (np.cumsum(cost) - cost) // _PASS_ELEMENTS
            found = []
            for part in np.split(np.arange(search.size), np.flatnonzero(np.diff(in_pass)) + 1):
                nodes = search[part]
                found.append(_best_split_for_feature(
                    presort,
                    np.concatenate([node_rows[i] for i in nodes]),
                    sizes[nodes],
                    None if weights is None else weights[tree_ids[nodes]],
                    candidates[part],
                    k,
                    params.min_samples_leaf,
                ))
            dec, col, thr = (np.concatenate(parts) for parts in zip(*found))
            split = dec > 0.0
            nodes = search[split]
            feature[nodes] = candidates[split, col[split]]
            threshold[nodes] = thr[split]
            weighted_decrease[nodes] = n_samples[nodes] / n_rows * dec[split]
            for i in nodes:
                r = node_rows[i]
                goes_left = x[r, feature[i]] <= threshold[i]
                stack = stacks[tree_ids[i]]
                stack.append((r[~goes_left], depth[i] + 1, node_ids[i], True))
                stack.append((r[goes_left], depth[i] + 1, node_ids[i], False))
        rounds.append({
            "tree": tree_ids,
            "node": node_ids,
            "parent": np.asarray([p[2] for p in popped], dtype=np.int64),
            "is_right": np.asarray([p[3] for p in popped], dtype=bool),
            "feature": feature,
            "threshold": threshold,
            "histogram": histogram,
            "n_samples": n_samples.astype(np.int64),
            "impurity": impurity,
            "weighted_decrease": weighted_decrease,
            "depth": depth,
        })
    del presort

    def column(name: str) -> np.ndarray:
        return np.concatenate([r[name] for r in rounds])

    start = np.cumsum(grown) - grown
    tree_ids, node_ids, parent = column("tree"), column("node"), column("parent")
    at = start[tree_ids] + node_ids  # every tree's nodes, one tree after another
    fields = {}
    for name in ("feature", "threshold", "histogram", "n_samples", "impurity",
                 "weighted_decrease", "depth"):
        values = column(name)
        fields[name] = np.empty_like(values)
        fields[name][at] = values
    children = np.full((2, at.size), -1, dtype=np.int64)
    child = parent >= 0
    side = column("is_right")[child].astype(np.int64)
    children[side, start[tree_ids[child]] + parent[child]] = node_ids[child]
    fields["left"], fields["right"] = children
    del rounds
    per_tree = {name: np.split(values, np.cumsum(grown)[:-1]) for name, values in fields.items()}
    return [
        DecisionTree(**{name: parts[t] for name, parts in per_tree.items()})
        for t in range(len(rngs))
    ]


def derive_tree_seeds(seed: int, n: int) -> tuple[int, ...]:
    return tuple(int(s) for s in np.random.SeedSequence(seed).generate_state(n))


def fit_forest(data: Dataset, params: ForestParams) -> RandomForestModel:
    """Train n_estimators trees on the full sample (unless bootstrap is set).

    Each tree gets an independent seed derived from params.seed, so the
    model is the same whichever process grows it.
    """
    seeds = derive_tree_seeds(params.seed, params.n_estimators)
    return RandomForestModel(
        trees=fit_trees(data, params, seeds),
        params=params,
        feature_names=tuple(data.feature_names),
        class_names=tuple(data.class_names),
        per_tree_seeds=seeds,
    )


def predict_proba(model: RandomForestModel, rows: np.ndarray) -> np.ndarray:
    """Mean over trees of the leaf class-frequency distributions.

    Every tree's nodes go into one table, and all (tree, row) pairs walk it
    together, one level per step. The leaf distributions are then added one
    tree at a time, in tree order, as a per-tree sum would add them.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.shape[1] != len(model.feature_names):
        raise ValidationError(
            f"expected {len(model.feature_names)} features, got {rows.shape[1]}"
        )
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise ValidationError(f"row {int(bad[0])} has a non-finite feature value")
    trees = model.trees
    sizes = np.asarray([tree.feature.size for tree in trees])
    start = np.cumsum(sizes) - sizes
    feature = np.concatenate([tree.feature for tree in trees])
    threshold = np.concatenate([tree.threshold for tree in trees])
    histogram = np.concatenate([tree.histogram for tree in trees])
    children = np.concatenate(  # (nodes, 2) table indices; leaves keep -1
        [np.stack([tree.left, tree.right], axis=1) + s for tree, s in zip(trees, start)]
    )
    n = rows.shape[0]
    node = np.repeat(start, n)  # pair (tree t, row i) sits at t * n + i
    row = np.tile(np.arange(n), len(trees))
    walking = np.arange(node.size)
    while walking.size:
        at = node[walking]
        internal = feature[at] >= 0
        walking, at = walking[internal], at[internal]
        goes_left = rows[row[walking], feature[at]] <= threshold[at]
        node[walking] = children[at, (~goes_left).astype(np.intp)]
    acc = np.zeros((n, len(model.class_names)))
    for leaves in node.reshape(len(trees), n):
        hist = histogram[leaves]
        acc += hist / hist.sum(axis=1, keepdims=True)
    return acc / len(trees)


def predict(model: RandomForestModel, rows: np.ndarray) -> np.ndarray:
    return np.argmax(predict_proba(model, rows), axis=1)  # argmax ties -> lowest id


def stratified_kfold(labels, k: int, shuffle_seed: int) -> list[np.ndarray]:
    """Disjoint folds with per-class counts differing by at most one.

    Each class's indices are shuffled, then dealt round-robin; the dealing
    cursor carries over between classes so overall fold sizes also differ
    by at most one.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.size
    if k < 2:
        raise ValidationError("need k >= 2 folds")
    if k > n:
        raise ValidationError(f"cannot make {k} folds from {n} samples")
    rng = np.random.default_rng(shuffle_seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    cursor = 0
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(idx.size)]
        for i in idx:
            folds[cursor % k].append(int(i))
            cursor += 1
    return [np.sort(np.asarray(f, dtype=np.int64)) for f in folds]


def baseline_accuracy(labels) -> float:
    """Accuracy of the modal-class predictor on the same distribution."""
    labels = np.asarray(labels, dtype=np.int64)
    counts = np.bincount(labels)
    return float(counts.max() / labels.size)


def cohens_kappa(pred, truth) -> float:
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if pred.shape != truth.shape or pred.size == 0:
        raise ValidationError("pred and truth must be equal-length and non-empty")
    k = int(max(pred.max(), truth.max())) + 1
    confusion = np.zeros((k, k))
    np.add.at(confusion, (truth, pred), 1.0)
    n = float(pred.size)
    p_o = np.trace(confusion) / n
    p_e = float((confusion.sum(axis=1) * confusion.sum(axis=0)).sum()) / (n * n)
    if p_e == 1.0:
        # both sides constant: chance-only agreement, no skill measurable
        return 0.0
    return float((p_o - p_e) / (1.0 - p_e))


def _rank_average(values: np.ndarray) -> np.ndarray:
    """Ranks starting at 1; tied values share the average rank."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=float)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def _binary_auroc(scores: np.ndarray, is_positive: np.ndarray) -> float | None:
    n_pos = int(is_positive.sum())
    n_neg = is_positive.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    ranks = _rank_average(scores)
    u = ranks[is_positive].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def auroc(scores: np.ndarray, truth) -> float:
    """Binary: Mann-Whitney rank statistic on the class-1 score (ties 1/2).
    Multiclass: unweighted mean of one-vs-rest AUROCs; classes absent from
    truth are skipped with a warning."""
    scores = np.asarray(scores, dtype=float)
    truth = np.asarray(truth, dtype=np.int64)
    if scores.ndim != 2 or scores.shape[0] != truth.size:
        raise ValidationError("scores must be (N, K) aligned with truth")
    k = scores.shape[1]
    if k == 2:
        value = _binary_auroc(scores[:, 1], truth == 1)
        if value is None:
            raise ValidationError("binary AUROC needs both classes in truth")
        return value
    terms = []
    for cls in range(k):
        term = _binary_auroc(scores[:, cls], truth == cls)
        if term is None:
            warnings.warn(f"class {cls} absent from truth; skipping its one-vs-rest term")
            continue
        terms.append(term)
    if not terms:
        raise ValidationError("no class with both positives and negatives")
    return float(np.mean(terms))


def mdi_importance(model: RandomForestModel) -> np.ndarray:
    """Mean decrease in impurity: per-tree normalized split contributions,
    averaged over trees that contain at least one split."""
    d = len(model.feature_names)
    per_tree = []
    for tree in model.trees:
        contrib = np.zeros(d)
        internal = tree.feature >= 0
        np.add.at(contrib, tree.feature[internal], tree.weighted_decrease[internal])
        total = contrib.sum()
        if total > 0:
            per_tree.append(contrib / total)
    if not per_tree:
        raise ToolkitError("forest has no internal nodes; importance undefined")
    return np.mean(per_tree, axis=0)


def _subset(data: Dataset, idx: np.ndarray) -> Dataset:
    sub = Dataset.__new__(Dataset)
    object.__setattr__(sub, "features", data.features[idx])
    object.__setattr__(sub, "labels", data.labels[idx])
    object.__setattr__(sub, "feature_names", data.feature_names)
    object.__setattr__(sub, "class_names", data.class_names)
    return sub


def _fold_tasks(data: Dataset, params: ForestParams, k: int, seed: int):
    """The folds of a stratified k-fold CV, the seed of its full-data fit,
    and the fit task of each fold: arguments of _fit_task."""
    state = np.random.SeedSequence([seed]).generate_state(k + 2)
    folds = stratified_kfold(data.labels, k, int(state[0]))
    tasks = []
    for i, test_idx in enumerate(folds):
        train_mask = np.ones(data.labels.size, dtype=bool)
        train_mask[test_idx] = False
        tasks.append(
            (data, np.flatnonzero(train_mask), replace(params, seed=int(state[2 + i])), test_idx)
        )
    return folds, int(state[1]), tasks


def _fit_task(data: Dataset, train_idx, params: ForestParams, test_idx):
    """One forest fit, a task of a CV map. Without train_idx it fits all of
    data and returns the model; otherwise it fits the train_idx rows and
    returns the class probabilities of the test_idx rows."""
    if train_idx is None:
        return fit_forest(data, params)
    model = fit_forest(_subset(data, train_idx), params)
    return predict_proba(model, data.features[test_idx])


def cross_validate(
    data: Dataset,
    params: ForestParams,
    k: int = 10,
    seed: int = 0,
    with_model: bool = False,
    map_fn=map,
):
    """Stratified k-fold CV; metrics are pooled over all held-out folds.

    Importances come from a forest fit on the full dataset with a seed
    derived from `seed`; pass with_model=True to also get that model. The
    k + 1 fits are tasks of map_fn (the builtin map, or a process pool's),
    the full-data fit first, as it is the largest.
    """
    folds, full_seed, tasks = _fold_tasks(data, params, k, seed)
    full = (data, None, replace(params, seed=full_seed), None)
    full_model, *fold_proba = map_fn(_fit_task, *zip(full, *tasks))
    proba = np.zeros((data.labels.size, data.n_classes))
    for test_idx, part in zip(folds, fold_proba):
        proba[test_idx] = part
    report = eval_report(data.labels, proba, folds, mdi_importance(full_model))
    return (report, full_model) if with_model else report


def eval_report(truth, proba: np.ndarray, folds, importances) -> EvalReport:
    """Metrics of held-out class probabilities, pooled over every row.

    `folds` holds one index into `truth` (an index array or a slice) per
    entry of per_fold_accuracies; a single held-out set passes [slice(None)].
    """
    pred = np.argmax(proba, axis=1)
    confusion = np.zeros((proba.shape[1], proba.shape[1]))
    np.add.at(confusion, (truth, pred), 1.0)
    return EvalReport(
        accuracy=float(np.mean(pred == truth)),
        cohens_kappa=cohens_kappa(pred, truth),
        auroc=auroc(proba, truth),
        confusion_matrix=confusion,
        per_fold_accuracies=tuple(float(np.mean(pred[f] == truth[f])) for f in folds),
        importances=np.asarray(importances, dtype=float),
    )


DEFAULT_SEARCH_SPACE: dict[str, list] = {
    # 10 * 11 * 6 * 6 * 2 * 1 = 7920 combinations
    "n_estimators": [100, 200, 300, 400, 500, 600, 700, 800, 900, 1000],
    "max_depth": [10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110],
    "min_samples_split": [2, 3, 5, 8, 10, 15],
    "min_samples_leaf": [1, 2, 4, 6, 8, 10],
    "max_features": ["sqrt", "log2"],
    "bootstrap": [False],
}


def randomized_search(
    data: Dataset,
    space: dict[str, list],
    n_iter: int,
    k: int = 10,
    seed: int = 0,
    map_fn=map,
) -> tuple[ForestParams, list[dict]]:
    """Sample n_iter distinct combinations uniformly from the grid product,
    score each by mean stratified-k-fold accuracy, return the best (ties go
    to the first sampled) plus the full score table. Every (combination,
    fold) fit is one task of map_fn."""
    if not space or any(len(v) == 0 for v in space.values()):
        raise ValidationError("every search-space axis needs at least one value")
    names = sorted(space)
    sizes = [len(space[name]) for name in names]
    total = math.prod(sizes)
    if n_iter < 1:
        raise ValidationError("n_iter must be >= 1")
    if total < n_iter:
        warnings.warn(f"grid has only {total} combinations; sampling all of them")
        n_iter = total
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    combos = []
    for flat in rng.choice(total, size=n_iter, replace=False):
        combo = {}
        rem = int(flat)
        for name, size in zip(names, sizes):
            combo[name] = space[name][rem % size]
            rem //= size
        combos.append(combo)
    runs = [_fold_tasks(data, io.from_json(ForestParams, c, "space"), k, seed) for c in combos]
    folds = runs[0][0]  # every combination is scored on the same folds (same seed)
    fold_proba = iter(map_fn(_fit_task, *zip(*(task for _, _, tasks in runs for task in tasks))))
    table: list[dict] = []
    best: tuple[float, int] | None = None  # (score, table position)
    for pos, combo in enumerate(combos):
        score = float(np.mean(
            [np.mean(np.argmax(next(fold_proba), axis=1) == data.labels[f]) for f in folds]
        ))
        table.append({"params": combo, "mean_accuracy": score})
        if best is None or score > best[0]:
            best = (score, pos)
    best_combo = table[best[1]]["params"]
    return io.from_json(ForestParams, best_combo, "space"), table


def _tree_to_lists(tree: DecisionTree) -> dict:
    return {
        "feature": tree.feature.tolist(),
        "threshold": [None if math.isnan(v) else v for v in tree.threshold.tolist()],
        "left": tree.left.tolist(),
        "right": tree.right.tolist(),
        "histogram": tree.histogram.astype(int).tolist(),
        "n_samples": tree.n_samples.tolist(),
        "impurity": tree.impurity.tolist(),
        "weighted_decrease": tree.weighted_decrease.tolist(),
        "depth": tree.depth.tolist(),
    }


def _tree_from_lists(d: dict) -> DecisionTree:
    return DecisionTree(
        feature=np.asarray(d["feature"], dtype=np.int64),
        threshold=np.asarray(
            [math.nan if v is None else v for v in d["threshold"]], dtype=float
        ),
        left=np.asarray(d["left"], dtype=np.int64),
        right=np.asarray(d["right"], dtype=np.int64),
        histogram=np.asarray(d["histogram"], dtype=float),
        n_samples=np.asarray(d["n_samples"], dtype=np.int64),
        impurity=np.asarray(d["impurity"], dtype=float),
        weighted_decrease=np.asarray(d["weighted_decrease"], dtype=float),
        depth=np.asarray(d["depth"], dtype=np.int64),
    )


def _check_tree(tree: DecisionTree, n_features: int, n_classes: int, where: str) -> None:
    """Reject a tree that prediction could not walk to a leaf. Every child
    index must exceed its node's, so each step moves forward and no walk loops."""
    n = tree.feature.size
    if n == 0 or any(a.shape != (n,) for k, a in vars(tree).items() if k != "histogram"):
        raise ValidationError(f"{where}: per-node arrays differ in length")
    if tree.histogram.shape != (n, n_classes):
        raise ValidationError(f"{where}: histogram width must equal the {n_classes} classes")
    if np.any(tree.feature < -1) or np.any(tree.feature >= n_features):
        raise ValidationError(f"{where}: split feature outside [0, {n_features})")
    leaf = tree.feature == -1
    node = np.flatnonzero(~leaf)
    children = np.stack([tree.left, tree.right])
    if np.any(children[:, leaf] != -1):
        raise ValidationError(f"{where}: a leaf has children")
    if np.any(children[:, node] <= node) or np.any(children[:, node] >= n):
        raise ValidationError(f"{where}: a child index must lie after its node, inside the tree")
    if np.any(tree.histogram < 0) or np.any(tree.histogram[leaf].sum(axis=1) <= 0):
        raise ValidationError(f"{where}: leaf class counts must be >= 0 with a positive total")


def model_to_document(model: RandomForestModel, mfcc_fingerprint: str | None = None) -> dict:
    return {
        "format": MODEL_FORMAT,
        "params": model.params.to_dict(),
        "feature_names": list(model.feature_names),
        "class_names": list(model.class_names),
        "per_tree_seeds": list(model.per_tree_seeds),
        "mfcc_fingerprint": mfcc_fingerprint,
        "trees": [_tree_to_lists(t) for t in model.trees],
    }


def model_from_document(doc: dict, expected_fingerprint: str | None = None) -> RandomForestModel:
    """Rebuild a saved model, rejecting any document it cannot safely predict with."""
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt != MODEL_FORMAT:
        raise ValidationError(f"unsupported model format {fmt!r}")
    if expected_fingerprint is not None and doc.get("mfcc_fingerprint") != expected_fingerprint:
        raise ValidationError(
            "model was trained with a different feature configuration "
            f"(fingerprint {doc.get('mfcc_fingerprint')!r} != {expected_fingerprint!r})"
        )
    params = io.from_json(ForestParams, doc.get("params"), "params")
    try:
        model = RandomForestModel(
            trees=[_tree_from_lists(t) for t in doc["trees"]],
            params=params,
            feature_names=tuple(doc["feature_names"]),
            class_names=tuple(doc["class_names"]),
            per_tree_seeds=tuple(doc["per_tree_seeds"]),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed model ({type(exc).__name__}: {exc})") from None
    if not model.trees:
        raise ValidationError("model has no trees")
    for i, tree in enumerate(model.trees):
        _check_tree(tree, len(model.feature_names), len(model.class_names), f"trees[{i}]")
    return model


def save_model(model: RandomForestModel, path, mfcc_fingerprint: str | None = None) -> None:
    io.atomic_write_text(
        path, json.dumps(model_to_document(model, mfcc_fingerprint), sort_keys=True) + "\n"
    )


def load_model(path, expected_fingerprint: str | None = None) -> RandomForestModel:
    doc = io.read_json(path)
    try:
        return model_from_document(doc, expected_fingerprint)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
