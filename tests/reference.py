"""Independent reference implementations used as test oracles.

Everything here is computed from first principles: the DFT as an explicit
matrix of complex exponentials (no FFT), the filterbank and cosine
transform from their defining formulas with plain loops, Gini splits by
trying every threshold with exact fractions. Deliberately kept
separate from the package under test.

`reference_fit_tree` is the one exception: the recursive one-node-at-a-time
tree grower the package used before its trees grew in lockstep, kept as
the oracle that the lockstep grower must match array for array, and so
are `reference_detect`, the per-line `esdgait detect` reader that chunked
parsing must match line for line, `reference_predict_proba`, the
per-tree, per-row walk that flat-forest prediction must match bit for bit,
`reference_mdi_importance`, the per-tree importance loop that the
one-bincount importance must match bit for bit, and
`reference_rank_average`, the per-value tie-ranking loop that the
run-based ranks must match bit for bit, and `reference_stratified_kfold`
and `reference_cv_train_rows`, the folds and training rows as numpy's set
routines gave them, which the package's own class and row picking must
match array for array, and `model_document`, the whole model document
that streamed saves must match byte for byte. `trees` gives the per-tree
views these read; `predict` and `detect_stream` are thin conveniences over
the package's `predict_proba` and `ShakeDetector` that only tests use.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

import esdgait.forest as rf
import esdgait.io as eio
from esdgait import cli, legshake
from esdgait.errors import ToolkitError, ValidationError


def naive_mfcc(
    x: np.ndarray,
    sample_rate: int = 10_000,
    n_mfcc: int = 20,
    window_size: int = 2500,
    hop_length: int = 1250,
    magnitude_exponent: float = 2.0,
    n_mel_filters: int = 40,
    fmin: float = 0.0,
    fmax: float | None = None,
) -> np.ndarray:
    fmax = sample_rate / 2.0 if fmax is None else fmax
    n = window_size
    window = np.array([0.5 - 0.5 * math.cos(2.0 * math.pi * i / (n - 1)) for i in range(n)])
    n_bins = n // 2 + 1
    dft = np.exp(-2j * np.pi * np.outer(np.arange(n_bins), np.arange(n)) / n)
    bank = naive_filterbank(sample_rate, window_size, n_mel_filters, fmin, fmax)

    t_frames = (len(x) - window_size) // hop_length + 1
    out = np.empty((n_mfcc, t_frames))
    for t in range(t_frames):
        seg = np.asarray(x[t * hop_length : t * hop_length + window_size], dtype=float) * window
        power = np.abs(dft @ seg) ** magnitude_exponent
        energies = bank @ power
        log_e = np.log(np.maximum(energies, 1e-10))
        for k in range(n_mfcc):
            acc = 0.0
            for j in range(n_mel_filters):
                acc += log_e[j] * math.cos(math.pi * (2 * j + 1) * k / (2 * n_mel_filters))
            scale = math.sqrt(1.0 / n_mel_filters) if k == 0 else math.sqrt(2.0 / n_mel_filters)
            out[k, t] = acc * scale
    return out


def naive_filterbank(
    sample_rate: int, window_size: int, n_mel_filters: int, fmin: float, fmax: float
) -> np.ndarray:
    def mel(f: float) -> float:
        return 2595.0 * math.log10(1.0 + f / 700.0)

    def inv_mel(m: float) -> float:
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    m0, m1 = mel(fmin), mel(fmax)
    points = [inv_mel(m0 + (m1 - m0) * i / (n_mel_filters + 1)) for i in range(n_mel_filters + 2)]
    n_bins = window_size // 2 + 1
    bank = np.zeros((n_mel_filters, n_bins))
    for m in range(n_mel_filters):
        lo, center, hi = points[m], points[m + 1], points[m + 2]
        for k in range(n_bins):
            f = k * sample_rate / window_size
            if lo < f <= center:
                bank[m, k] = (f - lo) / (center - lo)
            elif center < f < hi:
                bank[m, k] = (hi - f) / (hi - center)
    return bank


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


def or_baseline(train_labels) -> int:
    """Modal training class; ties go to the lowest class id."""
    labels = np.asarray(train_labels, dtype=np.int64)
    if labels.size == 0:
        raise ValidationError("need at least one training label")
    return int(np.argmax(np.bincount(labels)))


def grid_size(space: dict[str, list]) -> int:
    """Number of combinations in a search space's grid product."""
    return math.prod(len(v) for v in space.values())


def kappa_from_confusion(matrix: np.ndarray) -> float:
    """Cohen's kappa straight from its definition on a confusion matrix."""
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.sum()
    p_o = np.trace(matrix) / n
    p_e = float(sum(matrix[k, :].sum() * matrix[:, k].sum() for k in range(matrix.shape[0]))) / n**2
    if p_e == 1.0:
        return 0.0
    return (p_o - p_e) / (1.0 - p_e)


def pair_count_auroc(scores: np.ndarray, positives: np.ndarray) -> float | None:
    """AUROC by exhaustive positive-negative pair counting, ties worth 1/2."""
    scores = np.asarray(scores, dtype=float)
    positives = np.asarray(positives, dtype=bool)
    pos = scores[positives]
    neg = scores[~positives]
    if pos.size == 0 or neg.size == 0:
        return None
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (pos.size * neg.size)


def reference_rank_average(values: np.ndarray) -> np.ndarray:
    """Ranks starting at 1, tied values sharing the average rank, as the
    package ranked them with one Python step per value."""
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


def reference_stratified_kfold(labels, k: int, shuffle_seed: int) -> list[np.ndarray]:
    """The folds as the package dealt them when np.unique gave the classes."""
    labels = np.asarray(labels, dtype=np.int64)
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


def reference_cv_train_rows(n: int, folds) -> list[np.ndarray]:
    """Each fold's training rows as the package took them, with np.setdiff1d."""
    every_row = np.arange(n, dtype=np.int32)
    return [np.setdiff1d(every_row, fold) for fold in folds]


def macro_ovr_auroc(scores: np.ndarray, truth: np.ndarray) -> float:
    """Unweighted one-vs-rest mean over classes present in truth."""
    scores = np.asarray(scores, dtype=float)
    truth = np.asarray(truth)
    terms = []
    for k in range(scores.shape[1]):
        term = pair_count_auroc(scores[:, k], truth == k)
        if term is not None:
            terms.append(term)
    return float(np.mean(terms))


def audit_tree(tree, params) -> None:
    """Structural checks for a trained tree against its growth limits."""
    internal = np.flatnonzero(tree.feature >= 0)
    leaves = np.flatnonzero(tree.feature < 0)
    assert np.all(tree.depth <= params.max_depth)
    for i in internal:
        lo, hi = tree.left[i], tree.right[i]
        assert lo > i and hi > lo, "children must come after the parent in preorder"
        assert tree.n_samples[i] >= params.min_samples_split
        assert tree.n_samples[lo] >= params.min_samples_leaf
        assert tree.n_samples[hi] >= params.min_samples_leaf
        assert tree.n_samples[lo] + tree.n_samples[hi] == tree.n_samples[i]
        assert tree.depth[lo] == tree.depth[i] + 1
        assert tree.depth[hi] == tree.depth[i] + 1
        assert np.isfinite(tree.threshold[i])
        assert tree.weighted_decrease[i] > 0.0
    for i in leaves:
        assert tree.left[i] == -1 and tree.right[i] == -1
    assert np.all(tree.histogram.sum(axis=1) == tree.n_samples)


def brute_force_split(block, labels, n_classes: int, min_leaf: int):
    """Best Gini split of an (n, m) block by trying every column and threshold.

    Thresholds are midpoints of consecutive distinct values of a column (the
    lower value when the midpoint rounds onto the upper one); a split needs
    min_leaf rows on each side. Impurities are exact fractions, so splits
    that are mathematically tied tie here too. Returns (best decrease,
    [(column, threshold), ...] attaining it in column-then-threshold order),
    or None when no split is allowed.
    """
    block = np.asarray(block, dtype=float)
    labels = [int(v) for v in labels]
    n, m = block.shape

    def gini(ys: list[int]) -> Fraction:
        return 1 - sum(Fraction(ys.count(c), len(ys)) ** 2 for c in range(n_classes))

    parent = gini(labels)
    scored = []
    for col in range(m):
        xs = block[:, col].tolist()
        values = sorted(set(xs))
        for lo, hi in zip(values, values[1:]):
            thr = (lo + hi) / 2.0
            if thr == hi:
                thr = lo
            left = [y for x, y in zip(xs, labels) if x <= thr]
            right = [y for x, y in zip(xs, labels) if x > thr]
            if len(left) < min_leaf or len(right) < min_leaf:
                continue
            decrease = parent - Fraction(len(left), n) * gini(left) - Fraction(len(right), n) * gini(right)
            scored.append((decrease, col, thr))
    if not scored:
        return None
    best = max(d for d, _, _ in scored)
    return best, [(col, thr) for d, col, thr in scored if d == best]


def batched_best_split(
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



def reference_fit_tree(data, params, rng_seed: int):
    """Recursive greedy CART growth with per-node feature subsampling, one
    node at a time: the tree grower as it was before trees grew in lockstep."""
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
        best = batched_best_split(
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
    return rf.NodeTable(
        sizes=np.asarray([len(feature)], dtype=np.int64),
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


def trees(forest) -> list:
    """Per-tree views of a model's node table, or of a NodeTable: tree t as
    a table of its own, so its left/right index its own columns."""
    nodes = getattr(forest, "nodes", forest)
    return [nodes.cut(t, t + 1) for t in range(nodes.sizes.size)]


def model_document(model, mfcc_fingerprint: str | None = None) -> dict:
    """A model as the whole document that save_model streams one tree at a
    time: its json.dumps(..., sort_keys=True) and a newline are the file."""
    columns = rf.NodeTable._fields[1:]
    documents = []
    for tree in trees(model):
        doc = {name: getattr(tree, name).tolist() for name in columns}
        doc["threshold"] = [None if math.isnan(v) else v for v in doc["threshold"]]
        doc["histogram"] = tree.histogram.astype(int).tolist()
        documents.append(doc)
    return {
        "format": rf.MODEL_FORMAT,
        "params": model.params.to_dict(),
        "feature_names": list(model.feature_names),
        "class_names": list(model.class_names),
        "per_tree_seeds": list(model.per_tree_seeds),
        "mfcc_fingerprint": mfcc_fingerprint,
        "trees": documents,
    }


def leaf_for(tree, row: np.ndarray) -> int:
    node = 0
    while tree.feature[node] >= 0:
        if row[tree.feature[node]] <= tree.threshold[node]:
            node = tree.left[node]
        else:
            node = tree.right[node]
    return node


def tree_predict_proba(tree, rows: np.ndarray) -> np.ndarray:
    out = np.empty((rows.shape[0], tree.histogram.shape[1]))
    for i, row in enumerate(rows):
        hist = tree.histogram[leaf_for(tree, row)]
        out[i] = hist / hist.sum()
    return out


def reference_predict_proba(model, rows: np.ndarray) -> np.ndarray:
    """Forest prediction as it was before the trees shared one node table:
    each tree walks each row, and the trees' distributions add in tree order."""
    acc = np.zeros((rows.shape[0], len(model.class_names)))
    for tree in trees(model):
        acc += tree_predict_proba(tree, rows)
    return acc / model.nodes.sizes.size


def reference_mdi_importance(model) -> np.ndarray:
    """Mean decrease in impurity as it was before the trees shared one node
    table: each tree's contributions added node by node and normalized,
    averaged over the trees that contain at least one split."""
    d = len(model.feature_names)
    per_tree = []
    for tree in trees(model):
        contrib = np.zeros(d)
        internal = tree.feature >= 0
        np.add.at(contrib, tree.feature[internal], tree.weighted_decrease[internal])
        total = contrib.sum()
        if total > 0:
            per_tree.append(contrib / total)
    if not per_tree:
        raise ToolkitError("forest has no internal nodes; importance undefined")
    return np.mean(per_tree, axis=0)


def predict(model, rows: np.ndarray) -> np.ndarray:
    """Class ids by highest forest probability; a tie falls to the lowest id."""
    return np.argmax(rf.predict_proba(model, rows), axis=1)


def detect_stream(chunks, config: legshake.DetectorConfig | None = None) -> list:
    """The detector's events over an iterable of sample chunks, ordered by
    onset; a shake still in progress when the stream ends keeps offset None."""
    detector = legshake.ShakeDetector(config)
    for chunk in chunks:
        detector.push(chunk)
    return detector.events


def reference_detect(lines, config: legshake.DetectorConfig) -> None:
    """`esdgait detect`'s reading loop before chunked parsing, verbatim:
    prints the event lines and raises ValidationError on a bad sample."""
    _event_line = cli._event_line
    _DETECT_CHUNK_LINES = eio._SAMPLE_CHUNK_LINES
    detector = legshake.ShakeDetector(config)
    closed_reported = 0

    def report_closures() -> None:
        nonlocal closed_reported
        while closed_reported < len(detector.events):
            event = detector.events[closed_reported]
            if event.offset is None:
                break
            print(_event_line("close", event), flush=True)
            closed_reported += 1

    batch: list[float] = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            batch.append(float(line))
        except ValueError:
            raise ValidationError(f"bad sample value: {line!r}") from None
        if len(batch) >= _DETECT_CHUNK_LINES:
            for event in detector.push(np.array(batch)):
                print(_event_line("open", event), flush=True)
            batch.clear()
            report_closures()
    if batch:
        for event in detector.push(np.array(batch)):
            print(_event_line("open", event), flush=True)
        report_closures()
