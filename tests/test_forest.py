"""Forest, cross-validation and metric tests against first-principles oracles."""

from __future__ import annotations

import hashlib
import json
import re
import tempfile
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import esdgait.forest as rf
from esdgait.errors import ToolkitError, ValidationError
from esdgait.io import dump_json

from reference import (
    audit_tree,
    brute_force_split,
    gini_impurity,
    grid_size,
    kappa_from_confusion,
    macro_ovr_auroc,
    model_document,
    or_baseline,
    predict,
    pair_count_auroc,
    reference_fit_tree,
    reference_cv_train_rows,
    reference_mdi_importance,
    reference_predict_proba,
    reference_rank_average,
    reference_stratified_kfold,
    tree_predict_proba,
    trees,
)


def blob_dataset(
    n_per_class: int,
    centers: list[list[float]],
    n_noise: int = 0,
    spread: float = 1.0,
    seed: int = 0,
) -> rf.Dataset:
    """Gaussian blobs, one per class, plus optional pure-noise columns."""
    rng = np.random.default_rng(seed)
    centers_arr = np.asarray(centers, dtype=float)
    k, d_info = centers_arr.shape
    rows, labels = [], []
    for cls in range(k):
        block = rng.normal(centers_arr[cls], spread, size=(n_per_class, d_info))
        rows.append(block)
        labels.extend([cls] * n_per_class)
    features = np.vstack(rows)
    if n_noise:
        features = np.hstack([features, rng.normal(size=(features.shape[0], n_noise))])
    names = tuple(f"f{i}" for i in range(features.shape[1]))
    class_names = tuple(f"c{i}" for i in range(k))
    return rf.Dataset(features, np.asarray(labels), names, class_names)


SMALL = rf.ForestParams(n_estimators=12, min_samples_split=2, min_samples_leaf=1, seed=7)


# ---------------------------------------------------------------- impurity


def test_gini_pure_node_is_zero():
    assert gini_impurity([10, 0]) == 0.0


def test_gini_balanced_binary_maximum():
    assert gini_impurity([5, 5]) == 0.5


def test_gini_hand_computed_three_class():
    assert gini_impurity([1, 2, 3]) == pytest.approx(11.0 / 18.0, abs=1e-12)


def test_gini_rejects_bad_histograms():
    with pytest.raises(ValidationError):
        gini_impurity([])
    with pytest.raises(ValidationError):
        gini_impurity([0, 0])
    with pytest.raises(ValidationError):
        gini_impurity([3, -1])


# ---------------------------------------------------------------- split search


def search_block(block, labels, n_classes: int, min_leaf: int):
    """One-node round of the segmented split search: every row of an (n, m)
    block in the node, every column a candidate. Returns (decrease, column,
    threshold), or None when no split is allowed."""
    block = np.asarray(block, dtype=float)
    n, m = block.shape
    presort = rf._presort(block, np.asarray(labels))
    dec, col, thr = rf._best_split_for_feature(
        presort, np.arange(n), np.array([n]), None, np.arange(m)[None, :], n_classes, min_leaf
    )
    return None if dec[0] == -np.inf else (float(dec[0]), int(col[0]), float(thr[0]))


@pytest.mark.parametrize("n_classes", [2, 6])
def test_split_search_matches_brute_force_oracle(n_classes):
    rng = np.random.default_rng(40 + n_classes)
    outcomes = {"split": 0, "none": 0}
    for trial in range(120):
        n = int(rng.integers(2, 40))
        m = int(rng.integers(1, 6))
        if trial % 2:
            block = rng.integers(0, int(rng.integers(2, 8)), size=(n, m)) / 4.0  # duplicates
        else:
            block = rng.normal(size=(n, m))
        if trial % 3 == 0 and m > 1:
            block[:, -1] = block[:, 0]  # equal-gain columns
        labels = rng.integers(0, n_classes, n)
        min_leaf = int(rng.integers(1, 6))
        got = search_block(block, labels, n_classes, min_leaf)
        want = brute_force_split(block, labels, n_classes, min_leaf)
        if want is None:
            assert got is None
            outcomes["none"] += 1
            continue
        best, optimal = want
        dec, col, thr = got
        assert dec == pytest.approx(float(best), abs=1e-12)
        # mathematically tied splits may differ in the last bit, so any
        # optimal split is accepted; bit-identical copies must go to the lower column
        assert (col, thr) in optimal
        if trial % 3 == 0 and m > 1:
            assert col != m - 1
        outcomes["split"] += 1
    assert outcomes["split"] > 50 and outcomes["none"] > 5


def test_split_search_min_leaf_cuts_every_split():
    rng = np.random.default_rng(3)
    block = rng.normal(size=(9, 4))
    labels = np.array([0, 1] * 4 + [1])
    assert search_block(block, labels, 2, min_leaf=5) is None
    assert brute_force_split(block, labels, 2, min_leaf=5) is None
    assert search_block(block, labels, 2, min_leaf=4) is not None


def test_split_search_ties_pick_lowest_threshold_then_lowest_column():
    # mirror-image splits at 0.5 and 2.5 score bit-identically
    column = np.array([0.0, 1.0, 2.0, 3.0])
    labels = np.array([0, 1, 0, 1])
    dec, col, thr = search_block(column[:, None], labels, 2, 1)
    assert (dec, col, thr) == (pytest.approx(1.0 / 6.0, abs=1e-15), 0, 0.5)
    block = np.column_stack([np.full(4, 7.0), column, column])  # column 0 cannot split
    assert search_block(block, labels, 2, 1)[1:] == (1, 0.5)


def test_saved_model_bytes_are_pinned(tmp_path):
    """Any change to split order, tie-breaks or serialization changes these bytes."""
    data = blob_dataset(20, [[0, 0], [1.5, 1.5], [3, 0]], n_noise=2, spread=1.2, seed=27)
    data = rf.Dataset(np.round(data.features, 1), data.labels, data.feature_names, data.class_names)
    params = rf.ForestParams(n_estimators=6, min_samples_split=2, min_samples_leaf=1, seed=11)
    path = tmp_path / "model.rfj"
    rf.save_model(fit_forest(data, params), path, mfcc_fingerprint="cafe01")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "c1b051cb7943afcb0cbd01c51572a195758b78e86c991fcd41b24619ad7c6a8f"
    )


# ---------------------------------------------------------------- single tree


def test_tree_separable_single_split():
    x = np.concatenate([np.zeros(10), np.ones(10)])[:, None]
    data = rf.Dataset(x, np.repeat([0, 1], 10), ("f0",), ("a", "b"))
    params = rf.ForestParams(n_estimators=1, min_samples_split=2, min_samples_leaf=1, max_features="all")
    tree = rf.fit_trees(data, params, [3])
    assert np.count_nonzero(tree.feature >= 0) == 1
    assert tree.feature[0] == 0
    assert 0.0 < tree.threshold[0] < 1.0
    pred = np.argmax(tree_predict_proba(tree, x), axis=1)
    assert np.array_equal(pred, data.labels)


def test_tree_identical_rows_single_leaf_majority():
    x = np.ones((4, 2))
    data = rf.Dataset(x, np.array([0, 0, 1, 1]), ("f0", "f1"), ("a", "b"))
    params = rf.ForestParams(n_estimators=1, min_samples_split=2, min_samples_leaf=1)
    tree = rf.fit_trees(data, params, [0])
    assert tree.feature.shape == (1,)
    assert tree.feature[0] == -1
    proba = tree_predict_proba(tree, x)
    assert np.allclose(proba, 0.5)
    model = rf.RandomForestModel(tree, params, data.feature_names, data.class_names, (0,))
    assert np.all(predict(model, x) == 0)  # tie falls to the lowest class id


def test_tree_deterministic_given_seed():
    data = blob_dataset(20, [[0, 0], [3, 3]], n_noise=2, seed=5)
    a = rf.fit_trees(data, SMALL, [11])
    b = rf.fit_trees(data, SMALL, [11])
    for name in ("feature", "left", "right", "n_samples", "depth"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert np.array_equal(a.threshold, b.threshold, equal_nan=True)


def test_tree_respects_growth_limits():
    data = blob_dataset(40, [[0.0], [1.0]], spread=1.5, seed=2)
    params = rf.ForestParams(
        n_estimators=1, min_samples_split=5, min_samples_leaf=4, max_depth=3, max_features="all"
    )
    tree = rf.fit_trees(data, params, [1])
    audit_tree(tree, params)
    assert tree.depth.max() <= 3


# ---------------------------------------------------------------- forest


def fit_forest(data: rf.Dataset, params: rf.ForestParams) -> rf.RandomForestModel:
    """The forest train grows: every row of data, through grow."""
    return rf.grow([rf.Fit(data, params, np.arange(data.labels.size))])[0]


def test_forest_bit_identical_across_runs_and_jobs():
    data = blob_dataset(15, [[0, 0], [2, 2], [4, 0]], n_noise=3, seed=1)
    m1 = fit_forest(data, SMALL)
    m2 = fit_forest(data, SMALL)
    with ProcessPoolExecutor(max_workers=2) as pool:  # grown in a worker process
        (m3,) = pool.submit(rf.grow, [rf.Fit(data, SMALL, np.arange(data.labels.size))]).result()
    assert m1.per_tree_seeds == m2.per_tree_seeds == m3.per_tree_seeds
    for ta, tb, tc in zip(trees(m1), trees(m2), trees(m3)):
        assert np.array_equal(ta.feature, tb.feature)
        assert np.array_equal(ta.feature, tc.feature)
        assert np.array_equal(ta.threshold, tc.threshold, equal_nan=True)
        assert np.array_equal(ta.histogram, tc.histogram)


def test_forest_singleton_matches_fit_tree():
    data = blob_dataset(12, [[0], [2]], seed=9)
    params = rf.ForestParams(n_estimators=1, min_samples_split=2, min_samples_leaf=1, seed=21)
    model = fit_forest(data, params)
    direct = rf.fit_trees(data, params, rf.derive_tree_seeds(21, 1))
    assert np.array_equal(trees(model)[0].feature, direct.feature)
    assert np.array_equal(trees(model)[0].threshold, direct.threshold, equal_nan=True)


def test_forest_generalizes_on_separable_blobs():
    train = blob_dataset(30, [[0, 0], [6, 6]], seed=3)
    test = blob_dataset(30, [[0, 0], [6, 6]], seed=4)
    model = fit_forest(train, SMALL)
    assert np.mean(predict(model, test.features) == test.labels) == 1.0


def test_predict_proba_rows_sum_to_one():
    data = blob_dataset(10, [[0, 0], [1, 1], [2, 0]], seed=6)
    model = fit_forest(data, SMALL)
    proba = rf.predict_proba(model, data.features)
    assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)
    assert np.array_equal(
        np.argmax(proba, axis=1),
        np.argmax(reference_predict_proba(model, data.features), axis=1),
    )


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_split_thresholds_near_the_largest_float_stay_finite(sign):
    """(lo + hi) / 2 of two values near 1.7e308 is inf, which sends every
    row left: each threshold is instead the midpoint taken halves first."""
    x = sign * np.linspace(1.5e308, 1.75e308, 20)[:, None]
    data = rf.Dataset(x, np.repeat([0, 1], 10), ("f0",), ("low", "high"))
    model = fit_forest(data, replace(SMALL, n_estimators=3))
    split = model.nodes.feature >= 0
    assert split.any()
    assert (model.nodes.threshold[split] == x[9, 0] / 2 + x[10, 0] / 2).all()
    assert np.array_equal(rf.predict_proba(model, x), np.eye(2)[data.labels])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(-1100, 1100), bootstrap=st.booleans())
@example(seed=0, k=-1100, bootstrap=False)
@example(seed=0, k=1100, bootstrap=True)
def test_a_power_of_two_scale_scales_every_threshold(seed, k, bootstrap):
    """Trees grown on ldexp(features, k) have the same nodes, with every
    threshold ldexp(t, k): a power of two keeps each comparison and each
    midpoint's rounding while no value, halved or doubled, leaves the
    normal range. k is clamped to that range, so its edges are drawn too."""
    data = blob_dataset(12, [[0, 0], [2, 1], [1, 3]], n_noise=2, seed=seed)
    top = np.frexp(np.abs(data.features).max())[1]  # every |value| < 2**top
    bottom = np.frexp(np.abs(data.features[data.features != 0]).min())[1]  # >= 2**(bottom - 1)
    k = min(max(k, -1020 - bottom), 1023 - top)
    scaled = rf.Dataset(np.ldexp(data.features, k), data.labels, data.feature_names,
                        data.class_names)
    params = replace(SMALL, bootstrap=bootstrap)
    plain, grown = (fit_forest(d, params).nodes for d in (data, scaled))
    for name in plain._fields:
        if name != "threshold":
            assert np.array_equal(getattr(grown, name), getattr(plain, name)), name
    expected = np.ldexp(plain.threshold, k)
    assert expected.view(np.uint64).tolist() == grown.threshold.view(np.uint64).tolist()


def test_predict_rejects_wrong_width():
    data = blob_dataset(10, [[0], [2]], seed=0)
    model = fit_forest(data, SMALL)
    with pytest.raises(ValidationError):
        rf.predict_proba(model, np.zeros((3, 5)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_predict_rejects_non_finite_rows(bad):
    data = blob_dataset(10, [[0, 0], [3, 3]], seed=6)
    model = fit_forest(data, SMALL)
    rows = data.features[:3].copy()
    rows[2, 1] = bad
    with pytest.raises(ValidationError, match="row 2"):
        rf.predict_proba(model, rows)


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_estimators", 2.5),
        ("n_estimators", True),
        ("max_depth", 3.0),
        ("min_samples_split", "5"),
        ("min_samples_leaf", 1.5),
        ("max_features", 2.5),
        ("max_features", False),
    ],
)
def test_params_reject_non_integer_counts(field, value):
    with pytest.raises(ValidationError, match=field):
        rf.ForestParams(**{field: value})


def test_params_accept_numpy_integers():
    params = rf.ForestParams(n_estimators=np.int64(3), max_features=np.int64(2))
    assert params.resolve_max_features(5) == 2


def test_label_permutation_permutes_predictions():
    data = blob_dataset(25, [[0, 0], [4, 0], [0, 4]], n_noise=2, seed=13)
    perm = np.array([2, 0, 1])
    data_perm = rf.Dataset(
        data.features, perm[data.labels], data.feature_names, data.class_names
    )
    params = rf.ForestParams(n_estimators=10, min_samples_split=2, min_samples_leaf=1, seed=3)
    m1 = fit_forest(data, params)
    m2 = fit_forest(data_perm, params)
    p1 = rf.predict_proba(m1, data.features)
    p2 = rf.predict_proba(m2, data.features)
    for cls in range(3):
        assert np.array_equal(p2[:, perm[cls]], p1[:, cls])
    margins = np.sort(p1, axis=1)
    assert np.all(margins[:, -1] > margins[:, -2])  # no argmax ties to muddy the check
    pred1 = predict(m1, data.features)
    pred2 = predict(m2, data.features)
    assert np.array_equal(pred2, perm[pred1])
    assert np.mean(pred1 == data.labels) == np.mean(pred2 == data_perm.labels)
    assert rf.cohens_kappa(pred1, data.labels) == pytest.approx(
        rf.cohens_kappa(pred2, data_perm.labels), rel=1e-12
    )


def test_feature_scaling_leaves_structure_and_predictions():
    data = blob_dataset(20, [[0, 0], [3, 1]], n_noise=1, seed=17)
    scaled = data.features.copy()
    scaled[:, 1] *= 4.0  # power of two keeps midpoint arithmetic exact
    data_scaled = rf.Dataset(scaled, data.labels, data.feature_names, data.class_names)
    params = rf.ForestParams(n_estimators=8, min_samples_split=2, min_samples_leaf=1, seed=5)
    m1 = fit_forest(data, params)
    m2 = fit_forest(data_scaled, params)
    for ta, tb in zip(trees(m1), trees(m2)):
        assert np.array_equal(ta.feature, tb.feature)
        on_scaled = ta.feature == 1
        expect = ta.threshold.copy()
        expect[on_scaled] *= 4.0
        assert np.array_equal(expect, tb.threshold, equal_nan=True)
    assert np.array_equal(predict(m1, data.features), predict(m2, scaled))


# ---------------------------------------------------------------- folds


def test_stratified_folds_divisible_case():
    labels = np.repeat([0, 1], 50)
    folds = rf.stratified_kfold(labels, 10, shuffle_seed=0)
    for fold in folds:
        assert fold.size == 10
        assert np.count_nonzero(labels[fold] == 0) == 5
        assert np.count_nonzero(labels[fold] == 1) == 5


def test_stratified_folds_139_sample_sizes():
    rng = np.random.default_rng(1)
    labels = rng.integers(0, 2, size=139)
    folds = rf.stratified_kfold(labels, 10, shuffle_seed=4)
    sizes = sorted(f.size for f in folds)
    assert set(sizes) == {13, 14}
    assert sum(sizes) == 139


def test_stratified_folds_property_random_labels():
    rng = np.random.default_rng(99)
    for trial in range(40):
        n_classes = int(rng.integers(2, 5))
        n = int(rng.integers(20, 90))
        labels = rng.integers(0, n_classes, size=n)
        while np.unique(labels).size < n_classes:
            labels = rng.integers(0, n_classes, size=n)
        k = int(rng.integers(2, 8))
        folds = rf.stratified_kfold(labels, k, shuffle_seed=trial)
        joined = np.concatenate(folds)
        assert np.array_equal(np.sort(joined), np.arange(n))  # disjoint partition
        for cls in range(n_classes):
            per_fold = [np.count_nonzero(labels[f] == cls) for f in folds]
            assert max(per_fold) - min(per_fold) <= 1
        overall = [f.size for f in folds]
        assert max(overall) - min(overall) <= 1


@pytest.mark.parametrize("labels", [
    [3, 0, 3, 1, 0, 1, 3, 3, 1, 0],  # unsorted
    [7, 2, 7, 11, 2, 2, 11, 7, 7, 40, 40],  # gapped
    [-4, 2, -4, 0, -1, 2, -1, -4, 0, 0, -9],  # negative, one class of one row
])
def test_stratified_folds_equal_the_np_unique_folds(labels):
    for k in (2, 3, 5):
        for seed in (0, 1, 20250801):
            folds = rf.stratified_kfold(labels, k, shuffle_seed=seed)
            expected = reference_stratified_kfold(labels, k, seed)
            assert [f.dtype for f in folds] == [f.dtype for f in expected]
            assert [f.tolist() for f in folds] == [f.tolist() for f in expected]


@pytest.mark.parametrize("k, n", [(2, 10), (3, 37), (25, 60)])
def test_cv_plan_training_rows_equal_np_setdiff1d(k, n):
    data = many_class_dataset(k, n, seed=n)
    folds, fits = rf.cv_plan(data, replace(SMALL, seed=k), 5)
    assert fits[0].train.dtype == np.int32
    for fit, expected in zip(fits[1:], reference_cv_train_rows(n, folds), strict=True):
        assert fit.train.dtype == expected.dtype == np.int32
        assert fit.train.tolist() == expected.tolist()


def test_stratified_folds_reject_too_many():
    with pytest.raises(ValidationError):
        rf.stratified_kfold([0, 1, 0, 1], 5, shuffle_seed=0)


# ---------------------------------------------------------------- baseline & metrics


def test_or_baseline_modal_and_tie_rule():
    assert or_baseline([0, 1, 1, 2]) == 1
    assert or_baseline([0, 1, 1, 2, 2]) == 1  # tie between 1 and 2 -> lowest
    assert rf.baseline_accuracy([0, 0, 0, 1]) == 0.75


def test_kappa_perfect_agreement():
    assert rf.cohens_kappa([0, 1, 0, 1], [0, 1, 0, 1]) == 1.0


def test_kappa_matches_published_balanced_identity():
    # balanced 2-class, accuracy 0.855, symmetric confusion
    truth = np.repeat([0, 1], 1000)
    pred = truth.copy()
    pred[:145] = 1
    pred[1000 : 1000 + 145] = 0
    kappa = rf.cohens_kappa(pred, truth)
    assert kappa == pytest.approx(2 * 0.855 - 1, abs=1e-12)
    # exact arithmetic puts kappa at 0.71, i.e. at distance exactly 0.001
    # from the published 0.711; allow representation noise at the boundary
    assert abs(kappa - 0.711) <= 1e-3 + 1e-12


def test_kappa_constant_prediction_is_zero():
    assert rf.cohens_kappa([0, 0, 0, 0], [0, 0, 1, 1]) == 0.0


def test_kappa_degenerate_everything_identical():
    assert rf.cohens_kappa([1, 1, 1], [1, 1, 1]) == 0.0


def test_kappa_matches_confusion_oracle_randomized():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(2, 30))
        k = int(rng.integers(2, 4))
        truth = rng.integers(0, k, size=n)
        pred = rng.integers(0, k, size=n)
        confusion = np.zeros((k, k))
        np.add.at(confusion, (truth, pred), 1)
        assert rf.cohens_kappa(pred, truth) == pytest.approx(
            kappa_from_confusion(confusion), abs=1e-12
        )


def test_auroc_perfectly_separated():
    scores = np.array([[0.9, 0.1], [0.8, 0.2], [0.2, 0.8], [0.1, 0.9]])
    assert rf.auroc(scores, [0, 0, 1, 1]) == 1.0


def test_auroc_all_tied_scores():
    scores = np.full((6, 2), 0.5)
    assert rf.auroc(scores, [0, 1, 0, 1, 0, 1]) == 0.5


def test_auroc_matches_pair_counting_oracle():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(3, 10))
        raw = rng.integers(0, 4, size=n) / 4.0  # coarse grid forces ties
        scores = np.column_stack([1.0 - raw, raw])
        truth = rng.integers(0, 2, size=n)
        if truth.min() == truth.max():
            continue
        assert rf.auroc(scores, truth) == pytest.approx(
            pair_count_auroc(raw, truth == 1), abs=1e-12
        )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from([0.0, -0.0, 0.125, 1 / 3, 0.5, 1.0]), max_size=40))
def test_rank_average_equals_per_value_loop_on_tie_heavy_scores(scores):
    values = np.asarray(scores, dtype=float)
    assert rf._rank_average(values).tobytes() == reference_rank_average(values).tobytes()


def test_auroc_multiclass_matches_macro_oracle():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(6, 12))
        scores = rng.dirichlet(np.ones(3), size=n)
        truth = rng.integers(0, 3, size=n)
        if np.unique(truth).size < 3:
            continue
        assert rf.auroc(scores, truth) == pytest.approx(macro_ovr_auroc(scores, truth), abs=1e-12)


def test_auroc_warns_and_skips_absent_class(caplog):
    scores = np.random.default_rng(5).dirichlet(np.ones(3), size=8)
    truth = np.array([0, 1, 0, 1, 0, 1, 0, 1])  # class 2 never appears
    value = rf.auroc(scores, truth)
    assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
        ("esdgait", "WARNING", "class 2 absent from truth; skipping its one-vs-rest term")
    ]
    assert 0.0 <= value <= 1.0


def test_auroc_shape_validation():
    with pytest.raises(ValidationError):
        rf.auroc(np.zeros(4), [0, 1, 0, 1])


# ---------------------------------------------------------------- importance


def test_mdi_single_split_concentrates_on_one_feature():
    x = np.zeros((20, 3))
    x[10:, 1] = 1.0
    data = rf.Dataset(x, np.repeat([0, 1], 10), ("f0", "f1", "f2"), ("a", "b"))
    params = rf.ForestParams(n_estimators=1, min_samples_split=2, min_samples_leaf=1, max_features="all")
    model = fit_forest(data, params)
    importance = rf.mdi_importance(model)
    assert np.array_equal(importance, [0.0, 1.0, 0.0])


def test_mdi_sums_to_one_and_unused_is_zero():
    data = blob_dataset(25, [[0.0, 0.0], [3.0, 3.0]], n_noise=2, seed=8)
    copies = data.features.copy()
    copies[:, 3] = 7.5  # constant column can never be split on
    data = rf.Dataset(copies, data.labels, data.feature_names, data.class_names)
    model = fit_forest(data, rf.ForestParams(n_estimators=20, seed=2, min_samples_split=2, min_samples_leaf=1))
    importance = rf.mdi_importance(model)
    assert importance.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(importance >= 0.0)
    assert importance[3] == 0.0


def test_mdi_noise_ranks_below_informative():
    data = blob_dataset(40, [[0.0, 0.0], [2.5, 2.5]], n_noise=6, seed=12)
    model = fit_forest(data, rf.ForestParams(n_estimators=40, seed=9, min_samples_split=4, min_samples_leaf=2))
    importance = rf.mdi_importance(model)
    informative = importance[:2]
    noise = importance[2:]
    assert informative.min() > noise.max()


def test_mdi_undefined_without_any_split():
    x = np.ones((6, 2))
    data = rf.Dataset(x, np.array([0, 0, 0, 1, 1, 1]), ("f0", "f1"), ("a", "b"))
    model = fit_forest(data, rf.ForestParams(n_estimators=3, min_samples_split=2, min_samples_leaf=1))
    with pytest.raises(ToolkitError):
        rf.mdi_importance(model)


# ---------------------------------------------------------------- cross-validation


def test_cross_validate_separable_is_perfect():
    data = blob_dataset(30, [[0, 0], [8, 8]], seed=14)
    report, _ = rf.cross_validate(data, replace(SMALL, seed=1), k=5)
    assert report.accuracy == 1.0
    assert report.cohens_kappa == 1.0
    assert report.auroc == 1.0
    assert np.trace(report.confusion_matrix) == 60
    assert len(report.per_fold_accuracies) == 5


def test_cross_validate_pooled_accuracy_consistent_with_folds():
    data = blob_dataset(21, [[0.0], [1.2]], spread=1.0, seed=15)
    report, _ = rf.cross_validate(data, replace(SMALL, seed=2), k=4)
    folds = rf.stratified_kfold(
        data.labels, 4, int(np.random.SeedSequence([2]).generate_state(6)[0])
    )
    weighted = sum(acc * f.size for acc, f in zip(report.per_fold_accuracies, folds))
    assert report.accuracy == pytest.approx(weighted / data.labels.size, abs=1e-12)
    assert report.confusion_matrix.sum() == data.labels.size


def test_cross_validate_no_signal_stays_near_baseline():
    rng = np.random.default_rng(16)
    features = rng.normal(size=(60, 5))
    labels = np.repeat([0, 1], 30)
    data = rf.Dataset(features, labels, tuple(f"f{i}" for i in range(5)), ("a", "b"))
    report, _ = rf.cross_validate(data, rf.ForestParams(n_estimators=20, seed=3), k=5)
    sigma = np.sqrt(0.25 / 60)
    assert abs(report.accuracy - 0.5) <= 3 * sigma


def test_cross_validate_deterministic_and_jobs_invariant(monkeypatch):
    data = blob_dataset(12, [[0, 0], [2, 2], [4, 4]], n_noise=1, seed=18)
    params = rf.ForestParams(n_estimators=8, min_samples_split=2, min_samples_leaf=1, seed=5)
    r1, _ = rf.cross_validate(data, params, k=3)
    r2, _ = rf.cross_validate(data, params, k=3)
    monkeypatch.setattr(rf, "_TASK_TREES", 5)  # 32 trees: seven tasks for the two workers
    with ProcessPoolExecutor(max_workers=2) as pool:
        r3, _ = rf.cross_validate(data, params, k=3, map_fn=pool.map)
    assert dump_json(r1.to_dict()) == dump_json(r2.to_dict()) == dump_json(r3.to_dict())


# ---------------------------------------------------------------- search


def tiny_search_space() -> dict:
    return {
        "n_estimators": [1, 3],
        "max_depth": [2, 5],
        "min_samples_split": [2],
        "min_samples_leaf": [1, 2],
        "max_features": ["all"],
        "bootstrap": [False],
    }


def test_search_exhaustive_degenerate_case():
    data = blob_dataset(10, [[0.0], [2.0]], spread=0.8, seed=19)
    space = tiny_search_space()
    base = rf.ForestParams(seed=6)
    _, model, table = rf.randomized_search(data, base, space, n_iter=grid_size(space), k=3)
    assert len(table) == grid_size(space)
    scores = [row["mean_accuracy"] for row in table]
    best = replace(model.params, seed=base.seed)  # the model grows at the full-data seed
    best_pos = next(
        i for i, r in enumerate(table) if replace(base, **r["params"]) == best
    )
    assert scores[best_pos] == max(scores)
    assert best_pos == scores.index(max(scores))  # first sampled among the argmax set
    combos = [tuple(sorted(r["params"].items())) for r in table]
    assert len(set(combos)) == len(combos)  # sampled without replacement


def test_search_tie_break_is_first_sampled():
    data = blob_dataset(10, [[0.0], [5.0]], spread=0.2, seed=20)  # everything scores 1.0
    space = tiny_search_space()
    base = rf.ForestParams(seed=7)
    _, model, table = rf.randomized_search(data, base, space, n_iter=4, k=2)
    assert all(row["mean_accuracy"] == 1.0 for row in table)
    assert replace(base, **table[0]["params"]) == replace(model.params, seed=base.seed)


def test_search_deterministic_sequence():
    data = blob_dataset(8, [[0.0], [2.0]], seed=21)
    space = tiny_search_space()
    *_, t1 = rf.randomized_search(data, rf.ForestParams(seed=8), space, n_iter=5, k=2)
    *_, t2 = rf.randomized_search(data, rf.ForestParams(seed=8), space, n_iter=5, k=2)
    assert t1 == t2


@pytest.mark.parametrize("n_iter", [1, 4])
def test_search_returns_the_winners_cross_validation(n_iter):
    """The winner's report and model are cross_validate's, byte for byte:
    its folds come from the search's one grow, then its full-data fit."""
    data = blob_dataset(9, [[0.0, 0.0], [1.5, 1.0], [3.0, 0.5]], spread=0.9, n_noise=2, seed=26)
    space = {"n_estimators": [3, 5, 8], "max_depth": [2, 4], "max_features": ["all", "sqrt"]}
    base = rf.ForestParams(seed=11)
    report, model, table = rf.randomized_search(data, base, space, n_iter=n_iter, k=3)
    scores = [row["mean_accuracy"] for row in table]
    winner = replace(base, **table[scores.index(max(scores))]["params"])
    direct_report, direct_model = rf.cross_validate(data, winner, k=3)
    assert dump_json(report.to_dict()) == dump_json(direct_report.to_dict())
    assert dump_json(model_document(model)) == dump_json(model_document(direct_model))


def test_search_warns_when_grid_smaller_than_iterations(caplog):
    data = blob_dataset(8, [[0.0], [2.0]], seed=22)
    space = {"n_estimators": [1, 2], "max_features": ["all"]}
    *_, table = rf.randomized_search(data, rf.ForestParams(seed=9), space, n_iter=10, k=2)
    assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
        ("esdgait", "WARNING", "grid has only 2 combinations; sampling all of them")
    ]
    assert len(table) == 2


def test_search_rejects_empty_axis():
    data = blob_dataset(8, [[0.0], [2.0]], seed=23)
    with pytest.raises(ValidationError):
        rf.randomized_search(data, rf.ForestParams(), {"n_estimators": []}, n_iter=1, k=2)


def test_search_refuses_a_seed_axis():
    # every combination is judged on the folds of params.seed
    data = blob_dataset(8, [[0.0], [2.0]], seed=23)
    with pytest.raises(ValidationError, match="^seed is not a search axis$"):
        rf.randomized_search(data, rf.ForestParams(), {"seed": [1, 2]}, n_iter=2, k=2)


def test_default_search_space_product():
    sizes = sorted(len(v) for v in rf.DEFAULT_SEARCH_SPACE.values())
    assert grid_size(rf.DEFAULT_SEARCH_SPACE) == 7920
    assert sizes == [1, 2, 6, 6, 10, 11]
    for combo_values in rf.DEFAULT_SEARCH_SPACE.values():
        assert len(set(map(str, combo_values))) == len(combo_values)


# ---------------------------------------------------------------- serialization


def test_model_round_trip_preserves_predictions(tmp_path):
    data = blob_dataset(15, [[0, 0], [3, 3]], n_noise=2, seed=24)
    model = fit_forest(data, SMALL)
    path = tmp_path / "model.rfj"
    rf.save_model(model, path, mfcc_fingerprint="cafe01")
    loaded = rf.load_model(path, expected_fingerprint="cafe01")
    assert loaded.params == model.params
    assert loaded.class_names == model.class_names
    assert loaded.per_tree_seeds == model.per_tree_seeds
    assert np.array_equal(
        rf.predict_proba(loaded, data.features), rf.predict_proba(model, data.features)
    )


def refusal(doc, tmp_path: Path, expected_fingerprint: str | None = None) -> str:
    """The message load_model refuses `doc` with, after the file's path."""
    path = tmp_path / "refused.rfj"
    path.write_text(dump_json(doc))
    with pytest.raises(ValidationError) as refused:
        rf.load_model(path, expected_fingerprint)
    message = str(refused.value)
    assert message.startswith(f"{path}: ")
    return message.removeprefix(f"{path}: ")


def test_model_load_rejects_fingerprint_mismatch(tmp_path):
    data = blob_dataset(10, [[0], [2]], seed=25)
    model = fit_forest(data, SMALL)
    path = tmp_path / "model.rfj"
    rf.save_model(model, path, mfcc_fingerprint="cafe01")
    assert "fingerprint" in refusal(json.loads(path.read_text()), tmp_path, "beef02")
    rf.load_model(path)  # no expectation supplied -> no check


def test_model_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "model.rfj"
    path.write_text('{"format": "rfj-1", "trees": [')
    with pytest.raises(ValidationError, match="model.rfj"):
        rf.load_model(path)


def test_model_load_rejects_unknown_format(tmp_path):
    assert "format" in refusal({"format": "rfj-99", "trees": []}, tmp_path)


def _root_internal(tree: dict) -> int:
    return next(i for i, f in enumerate(tree["feature"]) if f >= 0)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda t, i: t["feature"].__setitem__(i, 2), "split feature"),
        (lambda t, i: t["feature"].__setitem__(i, -2), "split feature"),
        (lambda t, i: t["left"].__setitem__(i, i), "child index"),
        (lambda t, i: t["right"].__setitem__(i, 0), "child index"),
        (lambda t, i: t["right"].__setitem__(i, len(t["feature"])), "child index"),
        (lambda t, i: t["left"].__setitem__(t["left"][i], 0), "leaf has children"),
        (lambda t, i: t["depth"].pop(), "differ in length"),
        (lambda t, i: [row.pop() for row in t["histogram"]], "histogram width"),
        (lambda t, i: t["histogram"].__setitem__(t["left"][i], [0, 0]), "leaf class counts"),
        (lambda t, i: t["histogram"][t["left"][i]].__setitem__(0, -1), "counts must be finite"),
        (lambda t, i: t["threshold"].__setitem__(i, None), "thresholds"),
        (lambda t, i: t["weighted_decrease"].__setitem__(i, float("inf")), "impurity decreases"),
        (lambda t, i: t.pop("impurity"), "impurity"),
        (lambda t, i: t["threshold"].__setitem__(i, "x"), "threshold: expected float, got 'x'"),
    ],
)
def test_model_load_rejects_broken_trees(tmp_path, corrupt, message):
    data = blob_dataset(10, [[0, 0], [3, 3]], seed=27)
    model = fit_forest(data, rf.ForestParams(n_estimators=2, max_features="all", seed=3))
    doc = model_document(model)
    tree = doc["trees"][1]
    corrupt(tree, _root_internal(tree))
    refused = refusal(doc, tmp_path)
    assert re.search(message, refused)
    assert refused.startswith("trees[1]")  # then ":" or ".<column>:"


@pytest.mark.parametrize(
    "column, value",
    [("feature", 1.5), ("left", True), ("right", "7"), ("n_samples", None), ("depth", "x"),
     ("histogram", 2.0), ("histogram", None)],
)
def test_model_load_refuses_an_integer_column_value_that_is_no_json_integer(
    tmp_path, column, value
):
    data = blob_dataset(10, [[0, 0], [3, 3]], seed=27)
    model = fit_forest(data, rf.ForestParams(n_estimators=2, max_features="all", seed=3))
    doc = model_document(model)
    tree = doc["trees"][1]
    cells = tree[column][_root_internal(tree)] if column == "histogram" else tree[column]
    cells[-1] = value
    assert refusal(doc, tmp_path) == f"trees[1].{column}: expected int, got {value!r}"


@pytest.mark.parametrize(
    "column, value",
    [("threshold", "0.25"), ("threshold", True), ("impurity", True), ("impurity", None),
     ("weighted_decrease", "1e-3"), ("weighted_decrease", [0.5])],
)
def test_model_load_refuses_a_float_column_value_that_is_no_json_number(tmp_path, column, value):
    data = blob_dataset(10, [[0, 0], [3, 3]], seed=27)
    model = fit_forest(data, rf.ForestParams(n_estimators=2, max_features="all", seed=3))
    doc = model_document(model)
    tree = doc["trees"][1]
    assert None in tree["threshold"]  # a leaf's null threshold loads
    tree[column][_root_internal(tree)] = value
    assert refusal(doc, tmp_path) == f"trees[1].{column}: expected float, got {value!r}"


def test_model_load_names_the_first_broken_tree_and_its_first_failed_check(tmp_path):
    """Trees 2 and 3 fail the first check and tree 1 only a later one: the
    error names tree 1, then, once tree 1 is whole, tree 2's first check."""
    data = blob_dataset(10, [[0, 0], [3, 3]], seed=27)
    model = fit_forest(data, rf.ForestParams(n_estimators=4, max_features="all", seed=3))
    doc = model_document(model)
    for t, field, value in ((1, "threshold", None), (2, "threshold", None), (2, "feature", 9),
                            (3, "feature", -2)):
        tree = doc["trees"][t]
        tree[field][_root_internal(tree)] = value
    assert refusal(doc, tmp_path).startswith("trees[1]: split thresholds")
    doc["trees"][1] = model_document(model)["trees"][1]
    assert refusal(doc, tmp_path).startswith("trees[2]: split feature")


@pytest.mark.parametrize("n_trees, n_seeds", [(3, 7), (3, 12), (12, 7)])
def test_model_load_rejects_a_tree_count_its_params_and_seeds_disagree_with(
    tmp_path, n_trees, n_seeds
):
    data = blob_dataset(10, [[0], [2]], seed=28)
    doc = model_document(fit_forest(data, SMALL))  # 12 trees
    doc["trees"] = doc["trees"][:n_trees]
    doc["per_tree_seeds"] = doc["per_tree_seeds"][:n_seeds]
    assert refusal(doc, tmp_path) == (
        f"model has {n_trees} trees, but params.n_estimators is 12 "
        f"and per_tree_seeds lists {n_seeds}"
    )


@pytest.mark.parametrize(
    "params, key",
    [
        ({"bootstrap": "no"}, "params.bootstrap"),
        ({"n_estimators": 2.0}, "params.n_estimators"),
        ({"n_trees": 2}, "params.n_trees"),
    ],
)
def test_model_load_decodes_params_strictly(tmp_path, params, key):
    data = blob_dataset(10, [[0], [2]], seed=28)
    doc = model_document(fit_forest(data, SMALL))
    doc["params"].update(params)
    assert key in refusal(doc, tmp_path)


@pytest.mark.parametrize(
    "key, value, where",
    [
        ("class_names", [["c0"], "c1"], "class_names[0]"),
        ("feature_names", "f0", "feature_names"),
        ("per_tree_seeds", [1.5] * 12, "per_tree_seeds[0]"),
    ],
)
def test_model_load_decodes_names_and_seeds_strictly(tmp_path, key, value, where):
    data = blob_dataset(10, [[0], [2]], seed=28)
    doc = model_document(fit_forest(data, SMALL))
    doc[key] = value
    assert where in refusal(doc, tmp_path)


def test_model_load_rejects_empty_forest(tmp_path):
    data = blob_dataset(10, [[0], [2]], seed=29)
    doc = model_document(fit_forest(data, SMALL))
    doc["trees"] = []
    assert "no trees" in refusal(doc, tmp_path)


@pytest.mark.parametrize("where", ["params", "document", "trees"])
def test_model_load_refuses_a_tree_shaped_object_outside_trees_as_before(tmp_path, where):
    """load_model decodes a tree as the parser closes it, wherever it sits;
    one that is not some trees[i] is refused as the plain document is."""
    data = blob_dataset(10, [[0], [2]], seed=28)
    doc = model_document(fit_forest(data, SMALL))
    tree = json.loads(dump_json(doc["trees"][0]))  # its keys in the file's order
    expected = {
        "params": "params.depth: unknown key",  # the first of its keys, as dump_json sorts them
        "document": "unsupported model format None",
        "trees": f"trees: expected list, got {tree!r}",
    }[where]
    if where == "document":
        doc = tree
    else:
        doc[where] = tree
    assert refusal(doc, tmp_path) == expected


@pytest.fixture(scope="module")
def shaped_models(tmp_path_factory) -> dict[str, Path]:
    """Default 100-tree forests saved from tables shaped as configs/mood.json's
    (144 rows, 280 columns, 2 classes) and configs/persons.json's (216, 262, 6)."""
    root = tmp_path_factory.mktemp("shaped")
    paths = {}
    for name, (k, rows, columns) in {"mood": (2, 144, 280), "persons": (6, 216, 262)}.items():
        centers = (np.eye(k, 4) * 2.0).tolist()
        data = blob_dataset(rows // k, centers, n_noise=columns - 4, spread=1.5, seed=k)
        paths[name] = root / f"{name}.rfj"
        rf.save_model(fit_forest(data, rf.ForestParams(seed=k)), paths[name], "cafe01")
    return paths


def test_load_model_holds_one_tree_of_parsed_lists_at_a_time(shaped_models):
    path = shaped_models["persons"]

    def peak(load) -> int:
        load()  # imports and caches out of the measurement
        tracemalloc.start()
        try:
            load()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    whole = peak(lambda: rf._from_document(json.loads(path.read_text())))
    assert peak(lambda: rf.load_model(path)) < 0.6 * whole


def test_params_reject_negative_seed():
    with pytest.raises(ValidationError, match="seed"):
        rf.ForestParams(seed=-3)


def test_eval_report_single_holdout_fold():
    truth = np.array([0, 1, 1, 0])
    proba = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4], [0.7, 0.3]])
    report = rf.eval_report(truth, proba, [slice(None)], [0.25, 0.75])
    assert report.accuracy == 0.75
    assert report.per_fold_accuracies == (0.75,)
    assert report.confusion_matrix.tolist() == [[2, 0], [1, 1]]
    assert report.importances.tolist() == [0.25, 0.75]


# ---------------------------------------------------------------- audits


def test_every_tree_passes_structural_audit():
    data = blob_dataset(35, [[0, 0], [1.5, 1.5], [3, 0]], n_noise=3, spread=1.2, seed=26)
    params = rf.ForestParams(n_estimators=15, min_samples_split=5, min_samples_leaf=4, max_depth=6, seed=10)
    model = fit_forest(data, params)
    for tree in trees(model):
        audit_tree(tree, params)


# ---------------------------------------------------------------- lockstep growth properties

TREE_FIELDS = (
    "feature", "threshold", "left", "right", "histogram",
    "n_samples", "impurity", "weighted_decrease", "depth",
)


def assert_same_tree(got: rf.NodeTable, want: rf.NodeTable) -> None:
    for name in TREE_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name  # bit for bit, nan thresholds included


@st.composite
def growth_cases(draw):
    """Small datasets full of duplicate and tied values, with random growth limits."""
    k = draw(st.integers(2, 6))
    n = draw(st.integers(k, 40))
    d = draw(st.integers(1, 7))
    pool = draw(st.sampled_from(["ties", "normal"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if pool == "ties":
        x = rng.integers(0, draw(st.integers(1, 5)), size=(n, d)) / 4.0
    else:
        x = rng.normal(size=(n, d))
    if d > 1 and draw(st.booleans()):
        x[:, -1] = x[:, 0]  # a duplicated column scores exactly like the original
    y = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
    rng.shuffle(y)
    data = rf.Dataset(x, y, tuple(f"f{i}" for i in range(d)), tuple(f"c{i}" for i in range(k)))
    params = rf.ForestParams(
        n_estimators=draw(st.integers(1, 4)),
        min_samples_split=draw(st.integers(2, 8)),
        min_samples_leaf=draw(st.integers(1, 5)),
        max_depth=draw(st.integers(1, 12)),
        bootstrap=draw(st.booleans()),
        max_features=draw(st.one_of(st.sampled_from(["sqrt", "log2", "all"]), st.integers(1, 8))),
        seed=draw(st.integers(0, 2**31)),
    )
    return data, params


@settings(max_examples=120, deadline=None, derandomize=True)
@given(growth_cases())
def test_lockstep_growth_equals_recursive_reference(case):
    data, params = case
    seeds = rf.derive_tree_seeds(params.seed, params.n_estimators)
    for seed, tree in zip(seeds, trees(rf.fit_trees(data, params, seeds))):
        assert_same_tree(tree, reference_fit_tree(data, params, seed))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(growth_cases(), st.lists(st.booleans(), min_size=1, max_size=8))
def test_mdi_importance_equals_per_tree_loop(case, leaf_only):
    """Trees marked leaf_only cannot split their root, so their
    contributions sum to 0 and the average leaves them out."""
    data, params = case
    seeds = rf.derive_tree_seeds(params.seed, len(leaf_only))
    no_split = rf.ForestParams(**{**params.to_dict(), "min_samples_split": data.labels.size + 1})
    nodes = rf.NodeTable.join([
        rf.fit_trees(data, no_split if leaf else params, [seed])
        for leaf, seed in zip(leaf_only, seeds)
    ])
    assert np.all(nodes.sizes[list(leaf_only)] == 1)
    model = rf.RandomForestModel(nodes, params, data.feature_names, data.class_names, seeds)
    try:
        want = reference_mdi_importance(model)
    except ToolkitError:
        with pytest.raises(ToolkitError, match="no internal nodes"):
            rf.mdi_importance(model)
        return
    assert rf.mdi_importance(model).tobytes() == want.tobytes()


@settings(max_examples=6, deadline=None, derandomize=True)
@given(growth_cases(), st.integers(2, 9))
def test_forest_identical_at_any_jobs(case, n_estimators):
    """A tree does not depend on the other seeds grown with it: a forest's
    seeds grown in 1, 2 or 3 contiguous runs give the same trees."""
    data, params = case
    params = rf.ForestParams(**{**params.to_dict(), "n_estimators": n_estimators})
    model = fit_forest(data, params)
    seeds = model.per_tree_seeds
    for runs in (1, 2, 3):
        bounds = [len(seeds) * i // runs for i in range(runs + 1)]
        grown = [
            tree
            for lo, hi in zip(bounds, bounds[1:]) if hi > lo
            for tree in trees(rf.fit_trees(data, params, seeds[lo:hi]))
        ]
        assert len(grown) == len(trees(model))
        for tree, whole in zip(grown, trees(model)):
            assert_same_tree(tree, whole)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(growth_cases(), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_flat_prediction_equals_per_tree_walk(case, n_estimators, row_seed):
    """Rows include training rows and rows sitting exactly on split thresholds."""
    data, params = case
    seeds = rf.derive_tree_seeds(params.seed, n_estimators)
    model = rf.RandomForestModel(
        rf.fit_trees(data, params, seeds), params, data.feature_names, data.class_names, seeds
    )
    rng = np.random.default_rng(row_seed)
    on_split = data.features[rng.integers(0, data.labels.size, 12)].copy()
    thresholds = np.concatenate([t.threshold[t.feature >= 0] for t in trees(model)])
    features = np.concatenate([t.feature[t.feature >= 0] for t in trees(model)])
    if thresholds.size:
        pick = rng.integers(0, thresholds.size, on_split.shape[0])
        on_split[np.arange(on_split.shape[0]), features[pick]] = thresholds[pick]
    rows = np.vstack([data.features, on_split, rng.normal(size=(5, data.features.shape[1]))])
    assert rf.predict_proba(model, rows).tobytes() == reference_predict_proba(model, rows).tobytes()


@pytest.mark.parametrize("bootstrap", [False, True])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(growth_cases())
def test_model_save_load_save_is_byte_stable(bootstrap, case):
    """Every leaf's threshold is NaN and stored as null; the loaded trees
    equal the grown ones bit for bit, and saving them again gives the same
    bytes."""
    data, params = case
    params = rf.ForestParams(**{**params.to_dict(), "bootstrap": bootstrap})
    model = fit_forest(data, params)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.rfj", Path(tmp) / "second.rfj"
        rf.save_model(model, first, mfcc_fingerprint="cafe01")
        loaded = rf.load_model(first, expected_fingerprint="cafe01")
        rf.save_model(loaded, second, mfcc_fingerprint="cafe01")
        assert second.read_bytes() == first.read_bytes()
    assert loaded.params == model.params
    assert loaded.per_tree_seeds == model.per_tree_seeds
    assert len(trees(loaded)) == len(trees(model))
    for got, want in zip(trees(loaded), trees(model)):
        assert np.isnan(want.threshold[want.feature == -1]).all()
        assert_same_tree(got, want)


def test_split_search_passes_do_not_change_trees(monkeypatch):
    """A pass cap of one node per pass grows the same forest as one pass per round."""
    data = blob_dataset(25, [[0, 0], [1, 1], [2, 0]], n_noise=4, spread=1.3, seed=8)
    params = rf.ForestParams(n_estimators=8, min_samples_split=2, min_samples_leaf=1, seed=4)
    wide = fit_forest(data, params)
    monkeypatch.setattr(rf, "_PASS_ELEMENTS", 1)
    narrow = fit_forest(data, params)
    for a, b in zip(trees(wide), trees(narrow)):
        assert_same_tree(a, b)


def test_split_search_never_gets_a_node_below_two_leaves(monkeypatch):
    """A node of fewer than 2 * min_samples_leaf samples, bootstrap counts
    included, has no allowed cut, so no pass searches it."""
    data = blob_dataset(25, [[0, 0], [1, 1], [2, 0]], n_noise=4, spread=1.3, seed=8)
    kernel, searched = rf._best_split_for_feature, []

    def checked(presort, rows, sizes, weights, candidates, k, min_leaf):
        node = np.repeat(np.arange(sizes.size), sizes)
        counts = sizes if weights is None else np.bincount(node, weights[node, rows], sizes.size)
        searched.append(counts.min() >= 2 * min_leaf)
        return kernel(presort, rows, sizes, weights, candidates, k, min_leaf)

    monkeypatch.setattr(rf, "_best_split_for_feature", checked)
    for bootstrap in (False, True):
        fit_forest(data, rf.ForestParams(
            n_estimators=8, min_samples_split=2, min_samples_leaf=6, bootstrap=bootstrap, seed=4
        ))
    assert searched and all(searched)


@pytest.mark.parametrize("pairs", [1, 5, 12, 30])
def test_batched_prediction_equals_the_whole_table_walk(monkeypatch, pairs):
    """predict_proba walks blocks of at most _WALK_PAIRS (tree, row) pairs,
    fewer than the 12 trees for some, and gives the bits of one walk of
    every pair with the trees' distributions added in tree order, for many
    rows and for one."""
    data = blob_dataset(15, [[0, 0], [2, 2], [0, 2]], n_noise=2, seed=31)
    model = fit_forest(data, SMALL)
    walk, walked = rf._leaf_distributions, []

    def counted(nodes, rows):
        walked.append(nodes.sizes.size * rows.shape[0])
        return walk(nodes, rows)

    for rows in (data.features, data.features[:1]):
        whole = np.zeros((rows.shape[0], 3))
        for distribution in walk(model.nodes, rows):
            whole += distribution
        monkeypatch.setattr(rf, "_WALK_PAIRS", pairs)
        monkeypatch.setattr(rf, "_leaf_distributions", counted)
        assert rf.predict_proba(model, rows).tobytes() == (whole / 12).tobytes()
        monkeypatch.undo()
    assert max(walked) <= pairs and len(walked) > 2


def nan_split_model() -> rf.RandomForestModel:
    """A two-tree model whose second tree's root splits at a NaN threshold."""
    model = fit_forest(blob_dataset(6, [[0], [3]], seed=32), replace(SMALL, n_estimators=2))
    nodes = model.nodes
    threshold = nodes.threshold.copy()
    threshold[nodes.sizes[0]] = np.nan
    return replace(model, nodes=nodes._replace(threshold=threshold))


@pytest.mark.parametrize(
    "model, fingerprint",
    [
        (lambda: fit_forest(blob_dataset(8, [[0, 0], [2, 2]], seed=33), SMALL), None),
        (lambda: fit_forest(
            rf.Dataset(np.arange(24.0).reshape(8, 3), np.array([0, 1] * 4),
                       ("föhn", "日本", 'a "b", c\nd'), ("é", "\u2603")),
            SMALL,
        ), "cafe01"),
        (lambda: fit_forest(  # every tree is one leaf
            rf.Dataset(np.ones((6, 2)), np.array([0, 0, 0, 1, 1, 1]), ("f0", "f1"), ("a", "b")),
            replace(SMALL, n_estimators=3),
        ), "cafe01"),
        (nan_split_model, None),
    ],
    ids=["no-fingerprint", "non-ascii-names", "leaf-only", "nan-thresholds"],
)
def test_saved_model_is_the_document_dump(tmp_path, model, fingerprint):
    """save_model writes one tree at a time the bytes of the whole document's dump."""
    model = model()
    rf.save_model(model, tmp_path / "model.rfj", fingerprint)
    dump = json.dumps(model_document(model, fingerprint), sort_keys=True) + "\n"
    assert (tmp_path / "model.rfj").read_bytes() == dump.encode("utf-8")


def test_eval_report_from_dict_inverts_to_dict():
    data = blob_dataset(12, [[0, 0], [3, 3], [0, 3]], seed=30)
    report, _ = rf.cross_validate(data, replace(SMALL, seed=4), k=3)
    decoded = rf.EvalReport.from_dict(report.to_dict())
    assert dump_json(decoded.to_dict()) == dump_json(report.to_dict())
    assert decoded.confusion_matrix.dtype == np.int64


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d.pop("auroc"),
        lambda d: d.update(accuracy=str(d["accuracy"])),  # a number as text
        lambda d: d["confusion_matrix"][0].__setitem__(0, 1.5),  # fractional count
        lambda d: d.update(importances=[[1.0]]),  # nested: no value per feature
        lambda d: d.update(per_fold_accuracies=None),
        lambda d: d.update(extra=1),
    ],
)
def test_eval_report_from_dict_refuses_what_does_not_encode_back(edit):
    report = rf.eval_report(np.array([0, 1, 1]), np.eye(2)[[0, 1, 0]], [slice(None)], [0.5, 0.5])
    doc = report.to_dict()
    edit(doc)
    with pytest.raises(ValidationError):
        rf.EvalReport.from_dict(doc)


@pytest.mark.parametrize("seed", [0, 7, 20250801])
def test_holdout_is_fold_0_of_the_cv_fit_with_its_full_data_seed(seed):
    # the rule holdout had before it moved here: the first two words of the
    # seed's state pick the folds and the forest seed
    data = blob_dataset(9, [[0, 0], [3, 3], [0, 3]], seed=31)
    state = np.random.SeedSequence([seed]).generate_state(2)
    test_idx = rf.stratified_kfold(data.labels, 5, int(state[0]))[0]
    train = np.setdiff1d(np.arange(data.labels.size), test_idx)
    model = fit_forest(
        rf.Dataset(data.features[train], data.labels[train], data.feature_names, data.class_names),
        rf.ForestParams(**{**SMALL.to_dict(), "seed": int(state[1])}),
    )
    proba = rf.predict_proba(model, data.features[test_idx])
    expected = rf.eval_report(data.labels[test_idx], proba, [slice(None)], rf.mdi_importance(model))
    report = rf.holdout_validate(data, replace(SMALL, seed=seed))
    assert dump_json(report.to_dict()) == dump_json(expected.to_dict())


# ---------------------------------------------------------------- packed counts and root rows


def many_class_dataset(k: int, n: int, seed: int) -> rf.Dataset:
    """k classes over n rows with tied values: at n rows a count takes
    n.bit_length() bits, so 24 classes need three 64-bit words."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 6, size=(n, 5)) / 2.0
    y = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
    rng.shuffle(y)
    return rf.Dataset(x, y, tuple(f"f{i}" for i in range(5)), tuple(f"c{i}" for i in range(k)))


@pytest.mark.parametrize("k", [3, 25])
@pytest.mark.parametrize("bootstrap", [False, True])
def test_packed_class_counts_grow_the_per_class_trees(monkeypatch, k, bootstrap):
    data = many_class_dataset(k, 60, seed=k)
    params = rf.ForestParams(
        n_estimators=6, min_samples_split=2, min_samples_leaf=1, bootstrap=bootstrap, seed=3
    )
    seeds = rf.derive_tree_seeds(params.seed, params.n_estimators)
    packed = trees(rf.fit_trees(data, params, seeds))
    monkeypatch.setattr(rf, "_WORD_BITS", 0)  # one class per word: a cumsum per class
    for got, want in zip(packed, trees(rf.fit_trees(data, params, seeds))):
        assert_same_tree(got, want)
    for got, seed in zip(packed, seeds):
        assert_same_tree(got, reference_fit_tree(data, params, seed))


def test_packed_words_that_wrap_give_the_per_class_split(monkeypatch):
    # 60 rows: 6-bit counts, ten classes per word, class 9 at bit 54. Its
    # 30 rows in each of 40 columns run the root pass's cumsum past 2**64.
    rng = np.random.default_rng(12)
    y = np.concatenate([np.arange(11), np.full(30, 9), rng.integers(0, 11, 19)])
    x = rng.normal(size=(60, 40))
    assert int((y == 9).sum()) * 40 << 54 >= 1 << 64
    presort = rf._presort(x, y)
    args = (presort, np.arange(60), np.array([60]), None, np.arange(40)[None, :], 11, 1)
    packed = rf._best_split_for_feature(*args)
    monkeypatch.setattr(rf, "_WORD_BITS", 0)
    assert [a.tobytes() for a in packed] == [a.tobytes() for a in rf._best_split_for_feature(*args)]


@pytest.mark.parametrize("k", [3, 25])
@pytest.mark.parametrize("bootstrap", [False, True])
def test_fold_trees_grow_from_root_rows_as_on_the_subset(k, bootstrap):
    """A tree grown from a fold's training rows of the whole table is the
    tree of that subset, and a task growing the fold's fit returns exactly
    the leaf distributions those trees give its test rows."""
    data = many_class_dataset(k, 60, seed=k + 1)
    params = rf.ForestParams(
        n_estimators=4, min_samples_split=3, min_samples_leaf=2, bootstrap=bootstrap, seed=8
    )
    folds, fits = rf.cv_plan(data, replace(params, seed=2), 3)
    test, train = fits[1].test, fits[1].train
    # the reference grower reads these three; a fold may miss a class, so no Dataset
    subset = SimpleNamespace(
        features=data.features[train], labels=data.labels[train], n_classes=k
    )
    seeds = rf.derive_tree_seeds(fits[1].params.seed, params.n_estimators)
    grown = trees(rf.fit_trees(data, params, seeds, [train] * len(seeds)))
    (distributions,) = rf._grow_run([(fits[1], 0, params.n_estimators)])
    assert distributions.shape == (len(seeds), test.size, k)
    for tree, distribution, seed in zip(grown, distributions, seeds):
        assert_same_tree(tree, reference_fit_tree(subset, params, seed))
        assert distribution.tobytes() == tree_predict_proba(tree, data.features[test]).tobytes()


def test_grow_gives_the_same_results_at_any_task_size(monkeypatch):
    """Fold probabilities and models from tasks of 1, 5, 128 or 10,000
    trees equal a forest fit on each fold's subset, predicted as a whole."""
    data = many_class_dataset(4, 40, seed=5)
    mixed = rf.ForestParams(n_estimators=12, min_samples_leaf=4, seed=7)  # leaves hold several classes
    _, fits = rf.cv_plan(data, replace(mixed, seed=1), 3)
    fits += rf.cv_plan(data, replace(mixed, max_features="all", seed=4), 3)[1][1:]
    # two trees: a task of five may split them, or hold them with another fit's
    fits += rf.cv_plan(data, replace(mixed, n_estimators=2, seed=5), 3)[1]
    expected = []
    for fit in fits:
        sub = rf.Dataset(data.features[fit.train], data.labels[fit.train],
                         data.feature_names, data.class_names)
        model = fit_forest(sub, fit.params)
        expected.append(model if fit.test is None else rf.predict_proba(model, data.features[fit.test]))

    def as_bytes(result) -> bytes:
        if isinstance(result, rf.RandomForestModel):
            return dump_json(model_document(result)).encode()
        return result.tobytes()

    for task_trees in (1, 5, 128, 10_000):
        monkeypatch.setattr(rf, "_TASK_TREES", task_trees)
        assert [as_bytes(r) for r in rf.grow(fits)] == [as_bytes(r) for r in expected]
        assert rf.grow([]) == []
