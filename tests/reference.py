"""Independent reference implementations used as test oracles.

Everything here is computed from first principles: the DFT as an explicit
matrix of complex exponentials (no FFT), the filterbank and cosine
transform from their defining formulas with plain loops, Gini splits by
trying every threshold with exact fractions. Deliberately kept
separate from the package under test.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


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
