"""From-scratch random forest with Gini trees, cross-validation and metrics.

Trees are grown CART-style on the full training sample (no bootstrap by
default); ensemble diversity comes from per-split feature subsampling.
Everything is deterministic given the seeds, independent of parallelism.

Determinism notes baked into the split search: Gini terms are computed
from integer-valued class counts (exact in float64), so equal-quality
splits compare bit-identically and the documented tie-breaks are
reproducible. A node scores all its candidate features in one batched
pass; within each candidate column the first maximum (lowest threshold)
wins, then the first column holding the best maximum (lowest feature
index). Prediction ties go to the lowest class id.
"""

from __future__ import annotations

import json
import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

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
            ("n_estimators", 1), ("max_depth", 1), ("min_samples_split", 2), ("min_samples_leaf", 1)
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

    @classmethod
    def from_dict(cls, d: dict) -> "ForestParams":
        bad = set(d) - set(cls.__dataclass_fields__)
        if bad:
            raise ValidationError(f"unknown forest parameter keys: {sorted(bad)}")
        return cls(**d)


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

    def leaf_for(self, row: np.ndarray) -> int:
        node = 0
        while self.feature[node] >= 0:
            if row[self.feature[node]] <= self.threshold[node]:
                node = self.left[node]
            else:
                node = self.right[node]
        return node

    def predict_proba(self, rows: np.ndarray) -> np.ndarray:
        out = np.empty((rows.shape[0], self.histogram.shape[1]))
        for i, row in enumerate(rows):
            hist = self.histogram[self.leaf_for(row)]
            out[i] = hist / hist.sum()
        return out


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


def gini_impurity(class_counts) -> float:
    """1 - sum((n_k/N)^2); 0 for a pure node."""
    counts = np.asarray(class_counts, dtype=float)
    if counts.size == 0:
        raise ValidationError("empty class histogram")
    if np.any(counts < 0):
        raise ValidationError("class counts must be non-negative")
    total = counts.sum()
    if total <= 0:
        raise ValidationError("class histogram must have a positive total")
    return float(1.0 - (counts * counts).sum() / (total * total))


def _best_split_for_feature(
    block: np.ndarray, labels: np.ndarray, n_classes: int, min_leaf: int
) -> tuple[float, int, float] | None:
    """Best (gini decrease, column, threshold) over the columns of an (n, m)
    block of candidate features, or None if no column can be split.

    A single feature is an (n, 1) block. Thresholds are midpoints between
    consecutive distinct sorted values of a column; candidates leaving a
    child below min_leaf are skipped. Ties pick the lowest threshold within
    a column, then the lowest column.
    """
    n, m = block.shape
    order = np.argsort(block, axis=0, kind="stable")
    v = np.take_along_axis(block, order, axis=0)
    n_left = np.arange(1, n)[:, None]  # split after sorted position i-1, i = 1..n-1
    valid = v[:-1] != v[1:]
    valid &= (n_left >= min_leaf) & (n - n_left >= min_leaf)
    if not np.any(valid):
        return None
    onehot = labels[order][:, :, None] == np.arange(n_classes)
    cum = np.cumsum(onehot, axis=0, dtype=float)  # (n, m, K) counts at sorted index <= i
    left_counts = cum[:-1]
    total_counts = cum[-1, 0]
    right_counts = total_counts - left_counts
    n_right = n - n_left
    # integer-valued sums of squares are exact in float64
    left_sq = (left_counts * left_counts).sum(axis=2)
    right_sq = (right_counts * right_counts).sum(axis=2)
    gini_left = 1.0 - left_sq / (n_left * n_left)
    gini_right = 1.0 - right_sq / (n_right * n_right)
    parent = 1.0 - (total_counts * total_counts).sum() / (n * n)
    decrease = parent - (n_left * gini_left + n_right * gini_right) / n
    decrease[~valid] = -np.inf
    rows = np.argmax(decrease, axis=0)  # first max per column = lowest threshold
    col = int(np.argmax(decrease[rows, np.arange(m)]))  # first best column
    best = rows[col]
    lo, hi = v[best, col], v[best + 1, col]
    thr = (lo + hi) / 2.0
    if thr == hi:  # adjacent floats: keep the left value on the left
        thr = lo
    return float(decrease[best, col]), col, float(thr)


def fit_tree(data: Dataset, params: ForestParams, rng_seed: int) -> DecisionTree:
    """Greedy CART growth with per-node feature subsampling."""
    rng = np.random.default_rng(rng_seed)
    x = data.features
    y = data.labels
    if params.bootstrap:
        draw = rng.integers(0, x.shape[0], size=x.shape[0])
        x, y = x[draw], y[draw]
    k = data.n_classes
    m_features = params.resolve_max_features(x.shape[1])
    n_root = x.shape[0]

    feature, threshold, left, right = [], [], [], []
    histogram, n_samples, impurity, weighted_decrease, depths = [], [], [], [], []

    def add_node(idx: np.ndarray, depth: int) -> int:
        node = len(feature)
        hist = np.bincount(y[idx], minlength=k).astype(float)
        imp = gini_impurity(hist)
        feature.append(-1)
        threshold.append(math.nan)
        left.append(-1)
        right.append(-1)
        histogram.append(hist)
        n_samples.append(idx.size)
        impurity.append(imp)
        weighted_decrease.append(0.0)
        depths.append(depth)
        if imp == 0.0 or idx.size < params.min_samples_split or depth >= params.max_depth:
            return node
        candidates = np.sort(rng.choice(x.shape[1], size=m_features, replace=False))
        best = _best_split_for_feature(
            x[np.ix_(idx, candidates)], y[idx], k, params.min_samples_leaf
        )
        if best is None or best[0] <= 0.0:
            return node
        dec, col, thr = best
        f = int(candidates[col])
        goes_left = x[idx, f] <= thr
        feature[node] = f
        threshold[node] = thr
        weighted_decrease[node] = idx.size / n_root * dec
        left[node] = add_node(idx[goes_left], depth + 1)
        right[node] = add_node(idx[~goes_left], depth + 1)
        return node

    add_node(np.arange(n_root), 0)
    return DecisionTree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=float),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        histogram=np.asarray(histogram, dtype=float),
        n_samples=np.asarray(n_samples, dtype=np.int64),
        impurity=np.asarray(impurity, dtype=float),
        weighted_decrease=np.asarray(weighted_decrease, dtype=float),
        depth=np.asarray(depths, dtype=np.int64),
    )


def derive_tree_seeds(seed: int, n: int) -> tuple[int, ...]:
    return tuple(int(s) for s in np.random.SeedSequence(seed).generate_state(n))


_WORKER_ARGS: dict = {}


def _pool_init(data: Dataset, params: ForestParams) -> None:
    _WORKER_ARGS["data"] = data
    _WORKER_ARGS["params"] = params


def _pool_fit(seed: int) -> DecisionTree:
    return fit_tree(_WORKER_ARGS["data"], _WORKER_ARGS["params"], seed)


def fit_forest(data: Dataset, params: ForestParams, jobs: int = 1) -> RandomForestModel:
    """Train n_estimators trees on the full sample (unless bootstrap is set).

    Each tree gets an independent seed derived from params.seed, so the
    model is identical for any jobs value.
    """
    seeds = derive_tree_seeds(params.seed, params.n_estimators)
    if jobs > 1 and params.n_estimators > 1:
        with ProcessPoolExecutor(
            max_workers=min(jobs, params.n_estimators),
            initializer=_pool_init,
            initargs=(data, params),
        ) as pool:
            trees = list(pool.map(_pool_fit, seeds, chunksize=max(1, len(seeds) // (4 * jobs))))
    else:
        trees = [fit_tree(data, params, s) for s in seeds]
    return RandomForestModel(
        trees=trees,
        params=params,
        feature_names=tuple(data.feature_names),
        class_names=tuple(data.class_names),
        per_tree_seeds=seeds,
    )


def predict_proba(model: RandomForestModel, rows: np.ndarray) -> np.ndarray:
    """Mean over trees of the leaf class-frequency distributions."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.shape[1] != len(model.feature_names):
        raise ValidationError(
            f"expected {len(model.feature_names)} features, got {rows.shape[1]}"
        )
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise ValidationError(f"row {int(bad[0])} has a non-finite feature value")
    acc = np.zeros((rows.shape[0], len(model.class_names)))
    for tree in model.trees:
        acc += tree.predict_proba(rows)
    return acc / len(model.trees)


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


def or_baseline(train_labels) -> int:
    """Modal training class; ties go to the lowest class id."""
    labels = np.asarray(train_labels, dtype=np.int64)
    if labels.size == 0:
        raise ValidationError("need at least one training label")
    return int(np.argmax(np.bincount(labels)))


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


def _fold_predictions(
    data: Dataset, params: ForestParams, k: int, seed: int, jobs: int
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray], int]:
    state = np.random.SeedSequence([seed]).generate_state(k + 2)
    folds = stratified_kfold(data.labels, k, int(state[0]))
    n = data.labels.size
    proba = np.zeros((n, data.n_classes))
    for i, test_idx in enumerate(folds):
        train_mask = np.ones(n, dtype=bool)
        train_mask[test_idx] = False
        model = fit_forest(
            _subset(data, np.flatnonzero(train_mask)),
            replace(params, seed=int(state[2 + i])),
            jobs=jobs,
        )
        proba[test_idx] = predict_proba(model, data.features[test_idx])
    return proba, np.argmax(proba, axis=1), folds, int(state[1])


def cross_validate(
    data: Dataset,
    params: ForestParams,
    k: int = 10,
    seed: int = 0,
    jobs: int = 1,
    with_model: bool = False,
):
    """Stratified k-fold CV; metrics are pooled over all held-out folds.

    Importances come from a forest fit on the full dataset with a seed
    derived from `seed`; pass with_model=True to also get that model.
    """
    proba, pred, folds, full_seed = _fold_predictions(data, params, k, seed, jobs)
    truth = data.labels
    confusion = np.zeros((data.n_classes, data.n_classes))
    np.add.at(confusion, (truth, pred), 1.0)
    per_fold = tuple(float(np.mean(pred[f] == truth[f])) for f in folds)
    full_model = fit_forest(data, replace(params, seed=full_seed), jobs=jobs)
    report = EvalReport(
        accuracy=float(np.mean(pred == truth)),
        cohens_kappa=cohens_kappa(pred, truth),
        auroc=auroc(proba, truth),
        confusion_matrix=confusion,
        per_fold_accuracies=per_fold,
        importances=mdi_importance(full_model),
    )
    return (report, full_model) if with_model else report


DEFAULT_SEARCH_SPACE: dict[str, list] = {
    # 10 * 11 * 6 * 6 * 2 * 1 = 7920 combinations
    "n_estimators": [100, 200, 300, 400, 500, 600, 700, 800, 900, 1000],
    "max_depth": [10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110],
    "min_samples_split": [2, 3, 5, 8, 10, 15],
    "min_samples_leaf": [1, 2, 4, 6, 8, 10],
    "max_features": ["sqrt", "log2"],
    "bootstrap": [False],
}


def grid_size(space: dict[str, list]) -> int:
    return math.prod(len(v) for v in space.values())


def randomized_search(
    data: Dataset,
    space: dict[str, list],
    n_iter: int,
    k: int = 10,
    seed: int = 0,
    jobs: int = 1,
) -> tuple[ForestParams, list[dict]]:
    """Sample n_iter distinct combinations uniformly from the grid product,
    score each by mean stratified-k-fold accuracy, return the best (ties go
    to the first sampled) plus the full score table."""
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
    picks = rng.choice(total, size=n_iter, replace=False)
    table: list[dict] = []
    best: tuple[float, int] | None = None  # (score, table position)
    for pos, flat in enumerate(picks):
        combo = {}
        rem = int(flat)
        for name, size in zip(names, sizes):
            combo[name] = space[name][rem % size]
            rem //= size
        params = ForestParams.from_dict(combo)
        # every combination is scored on the same folds (same seed)
        proba, pred, folds, _ = _fold_predictions(data, params, k, seed, jobs)
        score = float(np.mean([np.mean(pred[f] == data.labels[f]) for f in folds]))
        table.append({"params": combo, "mean_accuracy": score})
        if best is None or score > best[0]:
            best = (score, pos)
    best_combo = table[best[1]]["params"]
    return ForestParams.from_dict(best_combo), table


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
    if doc.get("format") != MODEL_FORMAT:
        raise ValidationError(f"unsupported model format {doc.get('format')!r}")
    if expected_fingerprint is not None and doc.get("mfcc_fingerprint") != expected_fingerprint:
        raise ValidationError(
            "model was trained with a different feature configuration "
            f"(fingerprint {doc.get('mfcc_fingerprint')!r} != {expected_fingerprint!r})"
        )
    return RandomForestModel(
        trees=[_tree_from_lists(t) for t in doc["trees"]],
        params=ForestParams.from_dict(doc["params"]),
        feature_names=tuple(doc["feature_names"]),
        class_names=tuple(doc["class_names"]),
        per_tree_seeds=tuple(doc["per_tree_seeds"]),
    )


def save_model(model: RandomForestModel, path, mfcc_fingerprint: str | None = None) -> None:
    from .io import atomic_write_text

    atomic_write_text(
        path, json.dumps(model_to_document(model, mfcc_fingerprint), sort_keys=True) + "\n"
    )


def load_model(path, expected_fingerprint: str | None = None) -> RandomForestModel:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise ValidationError(f"{path}: not a valid model file ({exc})") from None
    return model_from_document(doc, expected_fingerprint)
