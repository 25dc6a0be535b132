"""From-scratch random forest with Gini trees, cross-validation and metrics.

Trees are grown CART-style on the full training sample (no bootstrap by
default); ensemble diversity comes from per-split feature subsampling.
Everything is deterministic given the seeds, independent of parallelism.

Determinism notes baked into the split search: Gini terms are computed
from integer-valued class counts (exact in float64), so equal-quality
splits compare bit-identically and the documented tie-breaks are
reproducible. Trees grow in lockstep over presorted features, all of a
task's trees with one table and growth parameters in one batch, and one
segmented pass scores the candidate features of many nodes at once;
within each candidate column the first maximum (lowest threshold) wins,
then the first column holding the best maximum (lowest feature index).
Prediction ties go to the lowest class id.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import logging
import math
from dataclasses import asdict, dataclass, replace
from typing import NamedTuple

import numpy as np

from . import io
from .errors import ToolkitError, ValidationError

log = logging.getLogger("esdgait")

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
        if not np.all(np.bincount(self.labels, minlength=k)):
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


class NodeTable(NamedTuple):
    """Every node of a forest: trees one after another, each in depth-first
    preorder; feature == -1 marks a leaf, and left/right count from the
    root of the node's own tree."""

    sizes: np.ndarray  # (trees,) nodes in each tree
    feature: np.ndarray  # (nodes,) int
    threshold: np.ndarray  # (nodes,) float, nan on leaves
    left: np.ndarray  # (nodes,) int, -1 on leaves
    right: np.ndarray  # (nodes,) int
    histogram: np.ndarray  # (nodes, K) training class counts
    n_samples: np.ndarray  # (nodes,) int
    impurity: np.ndarray  # (nodes,)
    weighted_decrease: np.ndarray  # (nodes,) (n/N)*gini decrease, 0 on leaves
    depth: np.ndarray  # (nodes,) int

    def cut(self, lo: int, hi: int) -> "NodeTable":
        """Trees [lo, hi) as a table of their own."""
        start, end = (int(self.sizes[:i].sum()) for i in (lo, hi))
        return NodeTable(self.sizes[lo:hi], *(column[start:end] for column in self[1:]))

    @classmethod
    def join(cls, tables) -> "NodeTable":
        """The trees of `tables`, table after table."""
        return cls(*(np.concatenate(columns) for columns in zip(*tables)))


@dataclass
class RandomForestModel:
    nodes: NodeTable
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

    @classmethod
    def from_dict(cls, doc) -> "EvalReport":
        """Decode a to_dict document; valid only if it encodes back to the same JSON."""
        try:
            report = cls(
                *(float(doc[key]) for key in ("accuracy", "cohens_kappa", "auroc")),
                np.array(doc["confusion_matrix"], dtype=np.int64),
                tuple(float(v) for v in doc["per_fold_accuracies"]),
                np.array(doc["importances"], dtype=float),
            )
            if io.dump_json(report.to_dict()) == io.dump_json(doc):
                return report
        except (LookupError, TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"malformed evaluation report ({exc})") from None
        raise ValidationError("evaluation report does not encode back to itself")


# Working-set cap of one segmented split-search pass: a pass takes a round's
# nodes while their (candidates x rows) sum stays within it, a node counting
# at least n_rows / 16 rows for its row mask (one byte per dataset row and
# candidate, against some 100 bytes per element of the other pass arrays).
_PASS_ELEMENTS = 1 << 12

# Width of one word of packed class counts in the split search.
_WORD_BITS = 64


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


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal consecutive keys starts (np.r_ costs more)."""
    starts = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    return starts


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
    seg_base = seg * n_rows
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
    cut_n_seg = n_seg[s]
    n_right = cut_n_seg - n_left
    # Class counts are integers, so every sum of their squares is exact. A
    # count within a segment is at most n_rows, so it fits in `bits` bits,
    # and one unsigned word packs the counts of `per_word` classes; words
    # wrap modulo 2**64, which keeps every difference of two counts exact.
    bits = n_rows.bit_length()
    per_word = max(1, _WORD_BITS // bits)
    if n_classes == 2 or per_word == 1:
        # one cumsum per class; the last class is what the others leave
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
    else:
        # one cumsum per word gives each element its class's count up to it
        # (run) and in its segment (tot); moving an element of weight v from
        # the right child to the left adds 2 run v - v^2 to the left sum of
        # squares and 2 run v - v^2 - 2 tot v to the right one
        shift = (np.arange(n_classes) % per_word * bits).astype(np.uint64)[labels]
        mask = np.uint64((1 << bits) - 1)
        run = tot = None
        for lo in range(0, n_classes, per_word):
            hi = min(lo + per_word, n_classes)
            if hi - lo == n_classes:  # one word holds every class
                step = np.uint64(1) << shift
            else:
                lut = np.zeros(n_classes, dtype=np.uint64)
                lut[lo:hi] = np.uint64(1) << np.arange(0, (hi - lo) * bits, bits, dtype=np.uint64)
                step = lut[labels]
            if w is not None:
                step *= w.view(np.uint64)  # weights are non-negative
            word = np.zeros(n_elem + 1, dtype=np.uint64)
            np.cumsum(step, out=word[1:])
            del step
            start = word[seg_start]
            word_tot = (np.repeat(word[seg_end] - start, seg_len) >> shift) & mask
            word_run = ((word[1:] - np.repeat(start, seg_len)) >> shift) & mask
            del word, start
            if run is None:  # the first word; later ones fill in their classes
                run, tot = word_run.view(np.int64), word_tot.view(np.int64)
            else:
                mine = labels >= lo
                run[mine], tot[mine] = word_run[mine], word_tot[mine]
        if w is None:
            gain = 2 * run - 1
            tot *= 2
        else:
            gain = (2 * run - w) * w
            tot *= 2 * w
        del run
        left_cum = np.zeros(n_elem + 1, dtype=np.int64)
        np.cumsum(gain, out=left_cum[1:])
        gain -= tot
        right_cum = np.zeros(n_elem + 1, dtype=np.int64)
        np.cumsum(gain, out=right_cum[1:])
        del gain, tot
        left_start = left_cum[seg_start]
        total_sq = left_cum[seg_end] - left_start
        left_sq = left_cum[cut + 1] - left_start[s]
        right_sq = right_cum[cut + 1] - right_cum[seg_start][s]
        right_sq += total_sq[s]
    gini_left = 1.0 - left_sq / (n_left * n_left)
    gini_right = 1.0 - right_sq / (n_right * n_right)
    parent = 1.0 - total_sq / (n_seg * n_seg)
    decrease = parent[s] - (n_left * gini_left + n_right * gini_right) / cut_n_seg

    best = np.full(n_nodes, -np.inf)
    column = np.zeros(n_nodes, dtype=np.int64)
    threshold = np.full(n_nodes, math.nan)
    if cut.size:
        # a node's cuts run column by column, each by threshold, so its first
        # maximum is the lowest threshold of the lowest best column
        node = s // m
        first = np.flatnonzero(_run_starts(node))
        owner = node[first]
        best[owner] = np.maximum.reduceat(decrease, first)
        hit = np.flatnonzero(decrease == best[node])
        win = hit[_run_starts(node[hit])]
        cut_win = cut[win]
        lo, hi = values[cut_win], values[cut_win + 1]
        with np.errstate(over="ignore"):
            mid = (lo + hi) / 2.0
        big = np.isinf(mid)  # a sum past the largest float: halve first
        mid[big] = lo[big] / 2 + hi[big] / 2
        column[owner] = s[win] % m
        threshold[owner] = np.where(mid == hi, lo, mid)  # adjacent floats: keep lo on the left
    return best, column, threshold


def _halves(x: np.ndarray, parts: list, feature, threshold) -> tuple[list, list]:
    """Each of `parts`, a node's rows, split by its node's test
    x[row, feature] <= threshold: (the parts' rows above it, those at or
    below it), in their order."""
    counts = np.asarray([part.size for part in parts], dtype=np.int64)
    rows = np.concatenate(parts)
    goes_left = x[rows, np.repeat(feature, counts)] <= np.repeat(threshold, counts)
    n_before = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(goes_left, out=n_before[1:])
    ends = np.cumsum(counts)
    n_left = n_before[ends] - n_before[ends - counts]

    def pieces(values: np.ndarray, sizes: np.ndarray) -> list:
        bounds = [0, *np.cumsum(sizes).tolist()]
        return [values[a:b] for a, b in zip(bounds, bounds[1:])]

    return pieces(rows[~goes_left], counts - n_left), pieces(rows[goes_left], n_left)


def fit_trees(data: Dataset, params: ForestParams, seeds, roots=None) -> NodeTable:
    """Greedy CART growth with per-node feature subsampling, one tree per
    seed, all trees grown in lockstep; returns their NodeTable in seed order.

    Tree t grows from the rows roots[t], ascending dataset row ids (every
    row when roots is None): its bootstrap draws and the total behind its
    weighted_decrease are those rows', so it is the tree that data's
    subset of those rows would give. Each round takes the next node of
    every unfinished tree (a tree still numbers its nodes in depth-first
    preorder and draws from its own rng in that order), scores all of them
    with one bincount and searches all their splits in segmented passes
    over presorted features. A tree does not depend on the other seeds and
    roots grown with it.
    """
    x, y, k = data.features, data.labels, data.n_classes
    n_rows, n_features = x.shape
    m_features = params.resolve_max_features(n_features)
    presort = _presort(x, y)
    rngs = [np.random.default_rng(s) for s in seeds]
    if roots is None:
        roots = [np.arange(n_rows, dtype=np.int32)] * len(rngs)
    n_root = np.asarray([root.size for root in roots])
    weights = None  # every row counts once
    if params.bootstrap:  # a bootstrap sample is a count per row
        weights = np.zeros((len(rngs), n_rows), dtype=np.int64)
        for t, (r, root) in enumerate(zip(rngs, roots)):
            draws = r.integers(0, root.size, size=root.size)
            weights[t, root] = np.bincount(draws, minlength=root.size)
        roots = [root[weights[t, root] > 0] for t, root in enumerate(roots)]
    # pending nodes of each tree, next on top: (rows, depth, parent node, is
    # right child); int32 row ids, as a batch can hold the pending rows of
    # every tree of a CV
    stacks = [[(root, 0, -1, False)] for root in roots]
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
        owner *= k  # in place, and gone before the search: a round can hold every tree's rows
        owner += y[rows]
        histogram = np.bincount(owner, counts, tree_ids.size * k)
        del rows, owner, counts
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
                [rngs[t].choice(n_features, size=m_features, replace=False) for t in tree_ids[search]]
            )
            candidates.sort(axis=1)
            # no cut is allowed below two leaves' samples: such a node keeps its
            # draw, which the tree's later draws follow, but no pass searches it
            cuttable = n_samples[search] >= 2 * params.min_samples_leaf
            search, candidates = search[cuttable], candidates[cuttable]
        if search.size:
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
            weighted_decrease[nodes] = n_samples[nodes] / n_root[tree_ids[nodes]] * dec[split]
        nodes = np.flatnonzero(feature >= 0)
        if nodes.size:
            right, left = _halves(x, [node_rows[i] for i in nodes], feature[nodes], threshold[nodes])
            for j, i in enumerate(nodes):
                stack = stacks[tree_ids[i]]
                stack.append((right[j], depth[i] + 1, node_ids[i], True))
                stack.append((left[j], depth[i] + 1, node_ids[i], False))
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
    del presort, stacks

    def column(name: str) -> np.ndarray:  # taken out of the rounds as it joins
        return np.concatenate([r.pop(name) for r in rounds])

    start = np.cumsum(grown) - grown
    tree_ids, node_ids, parent, is_right = map(column, ("tree", "node", "parent", "is_right"))
    children = np.full((2, parent.size), -1, dtype=np.int64)
    child = parent >= 0
    side = is_right[child].astype(np.int64)
    children[side, start[tree_ids[child]] + parent[child]] = node_ids[child]
    order = np.argsort(start[tree_ids] + node_ids)  # the rounds' nodes tree after tree
    del tree_ids, node_ids, parent, is_right, child, side
    columns = {name: column(name)[order] for name in list(rounds[0])}
    columns["left"], columns["right"] = children
    return NodeTable(grown, **columns)


def derive_tree_seeds(seed: int, n: int) -> tuple[int, ...]:
    return tuple(int(s) for s in np.random.SeedSequence(seed).generate_state(n))


class Fit(NamedTuple):
    """One forest a command grows: `params`, its seed included, on the
    `train` rows of `data`. Growing it gives its model when it has no
    `test` rows, else its class probabilities at them, as predict_proba
    gives them."""

    data: Dataset
    params: ForestParams
    train: np.ndarray
    test: np.ndarray | None = None


_TASK_TREES = 128  # the most trees one task of grow grows, at any jobs: bounds a batch's memory
_WALK_PAIRS = 4096  # the most (tree, row) pairs predict_proba walks at once: bounds its temporaries


def _grow_run(run) -> list:
    """One task of grow: a run of trees, given as (fit, lo, hi) for each fit
    it grows the trees [lo, hi) of, grown by fit_trees as one lockstep batch
    per table and growth params. Returns, fit by fit, their NodeTable, or
    for a fit with test rows their leaf distributions there, (trees, rows,
    classes), found by predict_proba's walk."""
    batches: dict = {}  # (table, growth params) -> [(index in run, fit, seeds)]
    for i, (fit, lo, hi) in enumerate(run):
        seeds = derive_tree_seeds(fit.params.seed, fit.params.n_estimators)[lo:hi]
        growth = replace(fit.params, n_estimators=1, seed=0)  # what growing one tree reads
        batches.setdefault((id(fit.data), growth), []).append((i, fit, seeds))
    out: list = [None] * len(run)
    for (_, growth), members in batches.items():
        seeds = [seed for _, _, fit_seeds in members for seed in fit_seeds]
        roots = [fit.train for _, fit, fit_seeds in members for _ in fit_seeds]
        nodes = fit_trees(members[0][1].data, growth, seeds, roots)
        start = 0
        for i, fit, fit_seeds in members:
            trees = nodes.cut(start, start + len(fit_seeds))
            start += len(fit_seeds)
            rows = None if fit.test is None else fit.data.features[fit.test]
            out[i] = trees if rows is None else _leaf_distributions(trees, rows)
    return out


def grow(fits, map_fn=map) -> list:
    """Every fit's forest: fit by fit, its RandomForestModel when it has no
    test rows, else its class probabilities at them.

    The fits' trees, fit after fit, are cut into runs of _TASK_TREES, each
    one task of map_fn (the builtin map, or a process pool's) that carries
    only the fits it grows trees of; a run may end inside one fit and go on
    into the next. A fit with test rows grows ordinary trees, and its task
    walks them there as predict_proba does and sends back only their leaf
    distributions, never their nodes. The runs join in tree order, and
    those distributions add one tree at a time, as predict_proba adds them,
    so the results are the same at any jobs.
    """
    bounds = [0, *itertools.accumulate(fit.params.n_estimators for fit in fits)]
    runs = [  # (fit index, lo, hi) for each fit a run holds the trees [lo, hi) of
        [(i, max(a - lo, 0), min(a + _TASK_TREES, hi) - lo)
         for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])) if lo < a + _TASK_TREES and a < hi]
        for a in range(0, bounds[-1], _TASK_TREES)
    ]
    parts = map_fn(_grow_run, [[(fits[i], lo, hi) for i, lo, hi in run] for run in runs])
    pieces = zip(itertools.chain(*runs), itertools.chain.from_iterable(parts))
    results = []
    for fit, (_, fit_pieces) in zip(fits, itertools.groupby(pieces, lambda piece: piece[0][0])):
        grown = [part for _, part in fit_pieces]  # the fit's trees, run by run
        if fit.test is None:
            names = tuple(fit.data.feature_names), tuple(fit.data.class_names)
            seeds = derive_tree_seeds(fit.params.seed, fit.params.n_estimators)
            results.append(RandomForestModel(NodeTable.join(grown), fit.params, *names, seeds))
        else:
            proba = np.zeros((fit.test.size, fit.data.n_classes))
            for distribution in itertools.chain(*grown):  # one tree at a time, as predict_proba
                proba += distribution
            results.append(proba / fit.params.n_estimators)
    return results


def _leaf_distributions(nodes: NodeTable, rows: np.ndarray) -> np.ndarray:
    """Each tree's leaf class distribution at each row, (trees, rows, classes).

    All (tree, row) pairs walk the node table together, one level per step,
    each pair offsetting its tree's child indices by the tree's first node.
    """
    n, n_trees = rows.shape[0], nodes.sizes.size
    root = np.repeat(np.cumsum(nodes.sizes) - nodes.sizes, n)  # (tree t, row i) sits at t * n + i
    node = root.copy()
    row = np.tile(np.arange(n), n_trees)
    walking = np.arange(node.size)
    while walking.size:
        at = node[walking]
        internal = nodes.feature[at] >= 0
        walking, at = walking[internal], at[internal]
        goes_left = rows[row[walking], nodes.feature[at]] <= nodes.threshold[at]
        node[walking] = root[walking] + np.where(goes_left, nodes.left[at], nodes.right[at])
    hist = nodes.histogram[node].reshape(n_trees, n, nodes.histogram.shape[1])
    return hist / hist.sum(axis=2, keepdims=True)


def predict_proba(model: RandomForestModel, rows: np.ndarray) -> np.ndarray:
    """Mean over trees of the leaf class-frequency distributions, added one
    tree at a time, in tree order, as a per-tree sum would add them."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.shape[1] != len(model.feature_names):
        raise ValidationError(
            f"expected {len(model.feature_names)} features, got {rows.shape[1]}"
        )
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise ValidationError(f"row {int(bad[0])} has a non-finite feature value")
    n_rows, n_trees = rows.shape[0], model.nodes.sizes.size
    step = max(1, min(n_rows, _WALK_PAIRS // n_trees))  # a block's rows; its trees fill the rest
    acc = np.zeros((n_rows, len(model.class_names)))
    for lo in range(0, n_trees, _WALK_PAIRS // step):
        trees = model.nodes.cut(lo, lo + _WALK_PAIRS // step)
        for a in range(0, n_rows, step):
            for distribution in _leaf_distributions(trees, rows[a : a + step]):
                acc[a : a + step] += distribution
    return acc / n_trees


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
    ordered = np.sort(labels)
    for cls in ordered[_run_starts(ordered)]:
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
    first = np.flatnonzero(_run_starts(values[order]))  # each run of equal sorted values
    size = np.diff(first, append=values.size)
    ranks = np.empty(values.size, dtype=float)
    ranks[order] = np.repeat((2 * first + size - 1) / 2.0 + 1.0, size)  # (first + last) / 2 + 1
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
            log.warning("class %d absent from truth; skipping its one-vs-rest term", cls)
            continue
        terms.append(term)
    if not terms:
        raise ValidationError("no class with both positives and negatives")
    return float(np.mean(terms))


def mdi_importance(model: RandomForestModel) -> np.ndarray:
    """Mean decrease in impurity: per-tree normalized split contributions,
    averaged over trees that contain at least one split."""
    d, nodes = len(model.feature_names), model.nodes
    n_trees = nodes.sizes.size
    internal = nodes.feature >= 0
    cell = np.repeat(np.arange(n_trees), nodes.sizes)[internal] * d + nodes.feature[internal]
    contrib = np.bincount(cell, nodes.weighted_decrease[internal], n_trees * d).reshape(n_trees, d)
    total = contrib.sum(axis=1)
    split = total > 0
    if not split.any():
        raise ToolkitError("forest has no internal nodes; importance undefined")
    return np.mean(contrib[split] / total[split, None], axis=0)


def cv_plan(data: Dataset, params: ForestParams, k: int):
    """The folds of a stratified k-fold CV at params.seed and its fits:
    fits[0] grows on all of data, fits[1 + i] on the rows outside fold i and
    predicts fold i, each with a seed derived from params.seed."""
    state = np.random.SeedSequence([params.seed]).generate_state(k + 2)
    folds = stratified_kfold(data.labels, k, int(state[0]))
    every_row = np.arange(data.labels.size, dtype=np.int32)  # as fit_trees keeps row ids
    fits = [Fit(data, replace(params, seed=int(state[1])), every_row)]
    for i, test_idx in enumerate(folds):
        train_idx = np.delete(every_row, test_idx)
        fits.append(Fit(data, replace(params, seed=int(state[2 + i])), train_idx, test_idx))
    return folds, fits


def pooled(data: Dataset, folds, fold_proba) -> np.ndarray:
    """Every row's held-out class probabilities: the next len(folds) parts of fold_proba."""
    proba = np.zeros((data.labels.size, data.n_classes))
    for test_idx, part in zip(folds, fold_proba):
        proba[test_idx] = part
    return proba


def cv_report(data: Dataset, folds, model: RandomForestModel, fold_proba) -> EvalReport:
    """The report of a CV from its grown fits: the full-data model gives the
    importances, the folds' probabilities the pooled metrics."""
    return eval_report(data.labels, pooled(data, folds, fold_proba), folds, mdi_importance(model))


def cross_validate(data: Dataset, params: ForestParams, k: int = 10, map_fn=map):
    """Stratified k-fold CV at params.seed; metrics are pooled over all
    held-out folds. Returns (report, model): model is the full-data fit that
    gives the importances. The k + 1 fits of cv_plan grow together, in the
    runs of trees that grow hands to map_fn."""
    folds, fits = cv_plan(data, params, k)
    model, *fold_proba = grow(fits, map_fn)
    return cv_report(data, folds, model, fold_proba), model


def holdout_validate(data: Dataset, params: ForestParams) -> EvalReport:
    """Fit one forest on about 4/5 of the rows and score the rest: fold 0 of
    cross_validate's stratified 5-fold plan at params.seed, grown from the
    rows outside it with that plan's full-data seed. Every class must keep
    a training row."""
    _, fits = cv_plan(data, params, 5)
    train_idx, test_idx = fits[1].train, fits[1].test
    if not np.all(np.bincount(data.labels[train_idx], minlength=data.n_classes)):
        raise ValidationError("every class needs at least one sample")
    (model,) = grow([fits[0]._replace(train=train_idx)])
    proba = predict_proba(model, data.features[test_idx])
    return eval_report(data.labels[test_idx], proba, [slice(None)], mdi_importance(model))


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
    params: ForestParams,
    space: dict[str, list],
    n_iter: int,
    k: int = 10,
    map_fn=map,
) -> tuple[EvalReport, RandomForestModel, list[dict]]:
    """Sample n_iter distinct combinations uniformly from the grid product
    at params.seed, each the searched axes over params, score each by mean
    stratified-k-fold accuracy, and pick the best (ties go to the first
    sampled). Returns (report, model, table): the winner's CV, as
    cross_validate(data, winner, k) returns it, plus the full score table.
    Every (combination, fold) fit grows in one call of grow, in the runs of
    trees that grow hands to map_fn, and then the winner's full-data fit."""
    if not space or any(len(v) == 0 for v in space.values()):
        raise ValidationError("every search-space axis needs at least one value")
    if "seed" in space:  # every combination is judged on the same folds
        raise ValidationError("seed is not a search axis")
    names = sorted(space)
    sizes = [len(space[name]) for name in names]
    total = math.prod(sizes)
    if n_iter < 1:
        raise ValidationError("n_iter must be >= 1")
    if total < n_iter:
        log.warning("grid has only %d combinations; sampling all of them", total)
        n_iter = total
    rng = np.random.default_rng(np.random.SeedSequence([params.seed, 0]))
    combos = []
    for flat in rng.choice(total, size=n_iter, replace=False):
        combo = {}
        rem = int(flat)
        for name, size in zip(names, sizes):
            combo[name] = space[name][rem % size]
            rem //= size
        combos.append(combo)
    candidates = [io.from_json(ForestParams, {**params.to_dict(), **c}, "space") for c in combos]
    plans = [cv_plan(data, candidate, k) for candidate in candidates]
    folds = plans[0][0]  # every combination is judged on the same folds (same seed)
    grown = grow([fit for _, fits in plans for fit in fits[1:]], map_fn)
    fold_proba = [grown[i : i + len(folds)] for i in range(0, len(grown), len(folds))]
    table: list[dict] = []
    for combo, proba in zip(combos, fold_proba):
        pred = np.argmax(pooled(data, folds, proba), axis=1)
        score = float(np.mean([np.mean(pred[f] == data.labels[f]) for f in folds]))
        table.append({"params": combo, "mean_accuracy": score})
    best = max(range(len(table)), key=lambda pos: table[pos]["mean_accuracy"])  # first of ties
    (model,) = grow(plans[best][1][:1], map_fn)
    return cv_report(data, folds, model, fold_proba[best]), model, table


def _check_nodes(nodes: NodeTable, n_features: int) -> None:
    """Reject a forest that prediction could not walk to a leaf, or whose
    numbers would not give finite probabilities and importances, naming the
    first tree that fails a check and the first check it fails. Every child
    index must exceed its node's, so each step moves forward and no walk loops."""
    n_trees = nodes.sizes.size
    tree = np.repeat(np.arange(n_trees), nodes.sizes)
    local = np.arange(tree.size) - (np.cumsum(nodes.sizes) - nodes.sizes)[tree]
    leaf = nodes.feature == -1
    children = np.stack([nodes.left, nodes.right])
    hist = nodes.histogram
    checks = [
        ((nodes.feature < -1) | (nodes.feature >= n_features),
         f"split feature outside [0, {n_features})"),
        (leaf & (children != -1).any(axis=0), "a leaf has children"),
        (~leaf & ((children <= local) | (children >= nodes.sizes[tree])).any(axis=0),
         "a child index must lie after its node, inside the tree"),
        (~leaf & ~np.isfinite(nodes.threshold) | ~np.isfinite(nodes.weighted_decrease),
         "split thresholds and impurity decreases must be finite"),
        (~(np.isfinite(hist) & (hist >= 0)).all(axis=1) | leaf & (hist.sum(axis=1) <= 0),
         "leaf class counts must be finite, >= 0 and sum above 0"),
    ]
    failed = np.array([np.bincount(tree, bad, n_trees) > 0 for bad, _ in checks])  # (check, tree)
    if failed.any():
        first = int(np.flatnonzero(failed.any(axis=0))[0])
        raise ValidationError(f"trees[{first}]: {checks[int(np.argmax(failed[:, first]))][1]}")


_INT_COLUMNS = ("feature", "left", "right", "n_samples", "depth")
# the JSON types of each column: numpy would decode 1.5, true or "7" as
# an integer, and "0.25" or true as a float; a leaf's threshold is saved as null
_COLUMN_KINDS = {
    key: (int,) if key in (*_INT_COLUMNS, "histogram") else (float, int)
    for key in NodeTable._fields[1:]
}
_COLUMN_KINDS["threshold"] += (type(None),)


def _tree_nodes(tree, where: str) -> NodeTable:
    """One trees[i] object of a model document, named `where` in errors, as
    a table of one tree: every check that needs no other part of the document."""
    names = NodeTable._fields[1:]
    for key, kind in _COLUMN_KINDS.items():
        column = tree.get(key) if isinstance(tree, dict) else None
        if key == "histogram" and isinstance(column, list):
            column = [v for row in column if isinstance(row, list) for v in row]
        bad = [v for v in column if type(v) not in kind] if isinstance(column, list) else []
        if bad:
            raise ValidationError(f"{where}.{key}: expected {kind[0].__name__}, got {bad[0]!r}")
    try:  # a null, as a leaf's threshold is saved, decodes to nan in a float column
        columns = [np.asarray(tree[key], np.int64 if key in _INT_COLUMNS else float) for key in names]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{where}: malformed model ({type(exc).__name__}: {exc})") from None
    n, histogram = columns[0].size, columns[names.index("histogram")]
    if n == 0 or any(c.shape != (n,) for c in columns if c is not histogram):
        raise ValidationError(f"{where}: per-node arrays differ in length")
    return NodeTable(np.array([n]), *columns)


def _from_document(doc, expected_fingerprint: str | None = None) -> RandomForestModel:
    """The model a parsed model.rfj document holds, each trees[i] a plain
    object or the NodeTable that load_model's parse hook made of it; refuses
    any document it cannot safely predict with."""
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt != MODEL_FORMAT:
        raise ValidationError(f"unsupported model format {fmt!r}")
    if expected_fingerprint is not None and doc.get("mfcc_fingerprint") != expected_fingerprint:
        raise ValidationError(
            "model was trained with a different feature configuration "
            f"(fingerprint {doc.get('mfcc_fingerprint')!r} != {expected_fingerprint!r})"
        )
    params = io.from_json(ForestParams, doc.get("params"), "params")
    feature_names, class_names = (
        io.from_json(tuple[str, ...], doc.get(key), key) for key in ("feature_names", "class_names")
    )
    seeds = io.from_json(tuple[int, ...], doc.get("per_tree_seeds"), "per_tree_seeds")
    trees = io.from_json(list, doc.get("trees"), "trees")
    if not trees:
        raise ValidationError("model has no trees")
    if not len(trees) == params.n_estimators == len(seeds):
        raise ValidationError(
            f"model has {len(trees)} trees, but params.n_estimators is {params.n_estimators} "
            f"and per_tree_seeds lists {len(seeds)}"
        )
    parts = []
    for i, tree in enumerate(trees):
        nodes = tree if isinstance(tree, NodeTable) else _tree_nodes(tree, f"trees[{i}]")
        if nodes.histogram.shape != (nodes.sizes[0], len(class_names)):  # before the trees join
            raise ValidationError(
                f"trees[{i}]: histogram width must equal the {len(class_names)} classes"
            )
        parts.append(nodes)
    nodes = NodeTable.join(parts)
    _check_nodes(nodes, len(feature_names))
    return RandomForestModel(nodes, params, feature_names, class_names, seeds)


def save_model(model: RandomForestModel, path, mfcc_fingerprint: str | None = None) -> None:
    """Write `model` as one line of sort_keys JSON and a newline, one tree at
    a time: "trees" sorts last, so the trees go after the other keys' dump."""
    def trees():
        nodes = model.nodes
        for i, (a, b) in enumerate(itertools.pairwise([0, *np.cumsum(nodes.sizes).tolist()])):
            tree = {name: getattr(nodes, name)[a:b].tolist() for name in NodeTable._fields[1:]}
            tree["threshold"] = [None if math.isnan(v) else v for v in tree["threshold"]]
            tree["histogram"] = nodes.histogram[a:b].astype(int).tolist()
            yield (", " if i else "") + json.dumps(tree, sort_keys=True)

    head = json.dumps(dict(
        format=MODEL_FORMAT, params=model.params.to_dict(), feature_names=list(model.feature_names),
        class_names=list(model.class_names), per_tree_seeds=list(model.per_tree_seeds),
        mfcc_fingerprint=mfcc_fingerprint), sort_keys=True)[:-1]  # without its closing brace
    chunks = itertools.chain([head, ', "trees": ['], trees(), ["]}\n"])
    io._atomic_write(path, (chunk.encode("ascii") for chunk in chunks))


def load_model(path, expected_fingerprint: str | None = None) -> RandomForestModel:
    """The model that save_model wrote to `path`, each tree decoded as the
    parser closes it. A tree-shaped object anywhere but in `trees` sends the
    file through a plain parse, to be refused as the plain document is."""
    decoded = 0

    def decode_tree(obj: dict):
        """json's object_hook: an object holding every node column becomes
        its NodeTable as the parser closes it, so one tree's lists are alive
        at a time. Any other object, and one that fails a check, stays as
        parsed, for _from_document to decode and refuse in tree order."""
        nonlocal decoded
        if obj.keys() >= _COLUMN_KINDS.keys():
            with contextlib.suppress(ValidationError):  # its error comes again, in order
                obj = _tree_nodes(obj, "")
                decoded += 1
        return obj

    doc = io.read_json(path, object_hook=decode_tree)
    trees = doc.get("trees") if isinstance(doc, dict) else None
    if decoded != (sum(isinstance(t, NodeTable) for t in trees) if isinstance(trees, list) else 0):
        doc = io.read_json(path)
    try:
        return _from_document(doc, expected_fingerprint)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
