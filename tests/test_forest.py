"""Forest, cross-validation and metric tests against first-principles oracles."""

from __future__ import annotations

import hashlib
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
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
    or_baseline,
    pair_count_auroc,
    reference_fit_tree,
    reference_predict_proba,
    tree_predict_proba,
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
    rf.save_model(rf.fit_forest(data, params), path, mfcc_fingerprint="cafe01")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "c1b051cb7943afcb0cbd01c51572a195758b78e86c991fcd41b24619ad7c6a8f"
    )


# ---------------------------------------------------------------- single tree


def test_tree_separable_single_split():
    x = np.concatenate([np.zeros(10), np.ones(10)])[:, None]
    data = rf.Dataset(x, np.repeat([0, 1], 10), ("f0",), ("a", "b"))
    params = rf.ForestParams(n_estimators=1, min_samples_split=2, min_samples_leaf=1, max_features="all")
    tree = rf.fit_trees(data, params, [3])[0]
    assert np.count_nonzero(tree.feature >= 0) == 1
    assert tree.feature[0] == 0
    assert 0.0 < tree.threshold[0] < 1.0
    pred = np.argmax(tree_predict_proba(tree, x), axis=1)
    assert np.array_equal(pred, data.labels)


def test_tree_identical_rows_single_leaf_majority():
    x = np.ones((4, 2))
    data = rf.Dataset(x, np.array([0, 0, 1, 1]), ("f0", "f1"), ("a", "b"))
    params = rf.ForestParams(n_estimators=1, min_samples_split=2, min_samples_leaf=1)
    tree = rf.fit_trees(data, params, [0])[0]
    assert tree.feature.shape == (1,)
    assert tree.feature[0] == -1
    proba = tree_predict_proba(tree, x)
    assert np.allclose(proba, 0.5)
    model = rf.RandomForestModel([tree], params, data.feature_names, data.class_names, (0,))
    assert np.all(rf.predict(model, x) == 0)  # tie falls to the lowest class id


def test_tree_deterministic_given_seed():
    data = blob_dataset(20, [[0, 0], [3, 3]], n_noise=2, seed=5)
    a = rf.fit_trees(data, SMALL, [11])[0]
    b = rf.fit_trees(data, SMALL, [11])[0]
    for name in ("feature", "left", "right", "n_samples", "depth"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert np.array_equal(a.threshold, b.threshold, equal_nan=True)


def test_tree_respects_growth_limits():
    data = blob_dataset(40, [[0.0], [1.0]], spread=1.5, seed=2)
    params = rf.ForestParams(
        n_estimators=1, min_samples_split=5, min_samples_leaf=4, max_depth=3, max_features="all"
    )
    tree = rf.fit_trees(data, params, [1])[0]
    audit_tree(tree, params)
    assert tree.depth.max() <= 3


# ---------------------------------------------------------------- forest


def test_forest_bit_identical_across_runs_and_jobs():
    data = blob_dataset(15, [[0, 0], [2, 2], [4, 0]], n_noise=3, seed=1)
    m1 = rf.fit_forest(data, SMALL)
    m2 = rf.fit_forest(data, SMALL)
    with ProcessPoolExecutor(max_workers=2) as pool:  # grown in a worker process
        (m3,) = pool.map(rf.fit_forest, [data], [SMALL])
    assert m1.per_tree_seeds == m2.per_tree_seeds == m3.per_tree_seeds
    for ta, tb, tc in zip(m1.trees, m2.trees, m3.trees):
        assert np.array_equal(ta.feature, tb.feature)
        assert np.array_equal(ta.feature, tc.feature)
        assert np.array_equal(ta.threshold, tc.threshold, equal_nan=True)
        assert np.array_equal(ta.histogram, tc.histogram)


def test_forest_singleton_matches_fit_tree():
    data = blob_dataset(12, [[0], [2]], seed=9)
    params = rf.ForestParams(n_estimators=1, min_samples_split=2, min_samples_leaf=1, seed=21)
    model = rf.fit_forest(data, params)
    direct = rf.fit_trees(data, params, rf.derive_tree_seeds(21, 1))[0]
    assert np.array_equal(model.trees[0].feature, direct.feature)
    assert np.array_equal(model.trees[0].threshold, direct.threshold, equal_nan=True)


def test_forest_generalizes_on_separable_blobs():
    train = blob_dataset(30, [[0, 0], [6, 6]], seed=3)
    test = blob_dataset(30, [[0, 0], [6, 6]], seed=4)
    model = rf.fit_forest(train, SMALL)
    assert np.mean(rf.predict(model, test.features) == test.labels) == 1.0


def test_predict_proba_rows_sum_to_one():
    data = blob_dataset(10, [[0, 0], [1, 1], [2, 0]], seed=6)
    model = rf.fit_forest(data, SMALL)
    proba = rf.predict_proba(model, data.features)
    assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)
    assert np.array_equal(np.argmax(proba, axis=1), rf.predict(model, data.features))


def test_predict_rejects_wrong_width():
    data = blob_dataset(10, [[0], [2]], seed=0)
    model = rf.fit_forest(data, SMALL)
    with pytest.raises(ValidationError):
        rf.predict(model, np.zeros((3, 5)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_predict_rejects_non_finite_rows(bad):
    data = blob_dataset(10, [[0, 0], [3, 3]], seed=6)
    model = rf.fit_forest(data, SMALL)
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
    m1 = rf.fit_forest(data, params)
    m2 = rf.fit_forest(data_perm, params)
    p1 = rf.predict_proba(m1, data.features)
    p2 = rf.predict_proba(m2, data.features)
    for cls in range(3):
        assert np.array_equal(p2[:, perm[cls]], p1[:, cls])
    margins = np.sort(p1, axis=1)
    assert np.all(margins[:, -1] > margins[:, -2])  # no argmax ties to muddy the check
    pred1 = rf.predict(m1, data.features)
    pred2 = rf.predict(m2, data.features)
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
    m1 = rf.fit_forest(data, params)
    m2 = rf.fit_forest(data_scaled, params)
    for ta, tb in zip(m1.trees, m2.trees):
        assert np.array_equal(ta.feature, tb.feature)
        on_scaled = ta.feature == 1
        expect = ta.threshold.copy()
        expect[on_scaled] *= 4.0
        assert np.array_equal(expect, tb.threshold, equal_nan=True)
    assert np.array_equal(rf.predict(m1, data.features), rf.predict(m2, scaled))


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


def test_auroc_multiclass_matches_macro_oracle():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(6, 12))
        scores = rng.dirichlet(np.ones(3), size=n)
        truth = rng.integers(0, 3, size=n)
        if np.unique(truth).size < 3:
            continue
        assert rf.auroc(scores, truth) == pytest.approx(macro_ovr_auroc(scores, truth), abs=1e-12)


def test_auroc_warns_and_skips_absent_class():
    scores = np.random.default_rng(5).dirichlet(np.ones(3), size=8)
    truth = np.array([0, 1, 0, 1, 0, 1, 0, 1])  # class 2 never appears
    with pytest.warns(UserWarning, match="class 2"):
        value = rf.auroc(scores, truth)
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
    model = rf.fit_forest(data, params)
    importance = rf.mdi_importance(model)
    assert np.array_equal(importance, [0.0, 1.0, 0.0])


def test_mdi_sums_to_one_and_unused_is_zero():
    data = blob_dataset(25, [[0.0, 0.0], [3.0, 3.0]], n_noise=2, seed=8)
    copies = data.features.copy()
    copies[:, 3] = 7.5  # constant column can never be split on
    data = rf.Dataset(copies, data.labels, data.feature_names, data.class_names)
    model = rf.fit_forest(data, rf.ForestParams(n_estimators=20, seed=2, min_samples_split=2, min_samples_leaf=1))
    importance = rf.mdi_importance(model)
    assert importance.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(importance >= 0.0)
    assert importance[3] == 0.0


def test_mdi_noise_ranks_below_informative():
    data = blob_dataset(40, [[0.0, 0.0], [2.5, 2.5]], n_noise=6, seed=12)
    model = rf.fit_forest(data, rf.ForestParams(n_estimators=40, seed=9, min_samples_split=4, min_samples_leaf=2))
    importance = rf.mdi_importance(model)
    informative = importance[:2]
    noise = importance[2:]
    assert informative.min() > noise.max()


def test_mdi_undefined_without_any_split():
    x = np.ones((6, 2))
    data = rf.Dataset(x, np.array([0, 0, 0, 1, 1, 1]), ("f0", "f1"), ("a", "b"))
    model = rf.fit_forest(data, rf.ForestParams(n_estimators=3, min_samples_split=2, min_samples_leaf=1))
    with pytest.raises(ToolkitError):
        rf.mdi_importance(model)


# ---------------------------------------------------------------- cross-validation


def test_cross_validate_separable_is_perfect():
    data = blob_dataset(30, [[0, 0], [8, 8]], seed=14)
    report = rf.cross_validate(data, SMALL, k=5, seed=1)
    assert report.accuracy == 1.0
    assert report.cohens_kappa == 1.0
    assert report.auroc == 1.0
    assert np.trace(report.confusion_matrix) == 60
    assert len(report.per_fold_accuracies) == 5


def test_cross_validate_pooled_accuracy_consistent_with_folds():
    data = blob_dataset(21, [[0.0], [1.2]], spread=1.0, seed=15)
    report = rf.cross_validate(data, SMALL, k=4, seed=2)
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
    report = rf.cross_validate(data, rf.ForestParams(n_estimators=20, seed=3), k=5, seed=3)
    sigma = np.sqrt(0.25 / 60)
    assert abs(report.accuracy - 0.5) <= 3 * sigma


def test_cross_validate_deterministic_and_jobs_invariant():
    data = blob_dataset(12, [[0, 0], [2, 2], [4, 4]], n_noise=1, seed=18)
    params = rf.ForestParams(n_estimators=8, min_samples_split=2, min_samples_leaf=1, seed=4)
    r1 = rf.cross_validate(data, params, k=3, seed=5)
    r2 = rf.cross_validate(data, params, k=3, seed=5)
    with ProcessPoolExecutor(max_workers=2) as pool:
        r3 = rf.cross_validate(data, params, k=3, seed=5, map_fn=pool.map)
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
    best, table = rf.randomized_search(data, space, n_iter=grid_size(space), k=3, seed=6)
    assert len(table) == grid_size(space)
    scores = [row["mean_accuracy"] for row in table]
    best_pos = next(
        i for i, r in enumerate(table) if rf.ForestParams(**r["params"]) == best
    )
    assert scores[best_pos] == max(scores)
    assert best_pos == scores.index(max(scores))  # first sampled among the argmax set
    combos = [tuple(sorted(r["params"].items())) for r in table]
    assert len(set(combos)) == len(combos)  # sampled without replacement


def test_search_tie_break_is_first_sampled():
    data = blob_dataset(10, [[0.0], [5.0]], spread=0.2, seed=20)  # everything scores 1.0
    space = tiny_search_space()
    best, table = rf.randomized_search(data, space, n_iter=4, k=2, seed=7)
    assert all(row["mean_accuracy"] == 1.0 for row in table)
    assert rf.ForestParams(**table[0]["params"]) == best


def test_search_deterministic_sequence():
    data = blob_dataset(8, [[0.0], [2.0]], seed=21)
    space = tiny_search_space()
    _, t1 = rf.randomized_search(data, space, n_iter=5, k=2, seed=8)
    _, t2 = rf.randomized_search(data, space, n_iter=5, k=2, seed=8)
    assert t1 == t2


def test_search_warns_when_grid_smaller_than_iterations():
    data = blob_dataset(8, [[0.0], [2.0]], seed=22)
    space = {"n_estimators": [1, 2], "max_features": ["all"]}
    with pytest.warns(UserWarning, match="combinations"):
        _, table = rf.randomized_search(data, space, n_iter=10, k=2, seed=9)
    assert len(table) == 2


def test_search_rejects_empty_axis():
    data = blob_dataset(8, [[0.0], [2.0]], seed=23)
    with pytest.raises(ValidationError):
        rf.randomized_search(data, {"n_estimators": []}, n_iter=1, k=2, seed=0)


def test_default_search_space_product():
    sizes = sorted(len(v) for v in rf.DEFAULT_SEARCH_SPACE.values())
    assert grid_size(rf.DEFAULT_SEARCH_SPACE) == 7920
    assert sizes == [1, 2, 6, 6, 10, 11]
    for combo_values in rf.DEFAULT_SEARCH_SPACE.values():
        assert len(set(map(str, combo_values))) == len(combo_values)


# ---------------------------------------------------------------- serialization


def test_model_round_trip_preserves_predictions(tmp_path):
    data = blob_dataset(15, [[0, 0], [3, 3]], n_noise=2, seed=24)
    model = rf.fit_forest(data, SMALL)
    path = tmp_path / "model.rfj"
    rf.save_model(model, path, mfcc_fingerprint="cafe01")
    loaded = rf.load_model(path, expected_fingerprint="cafe01")
    assert loaded.params == model.params
    assert loaded.class_names == model.class_names
    assert loaded.per_tree_seeds == model.per_tree_seeds
    assert np.array_equal(
        rf.predict_proba(loaded, data.features), rf.predict_proba(model, data.features)
    )


def test_model_load_rejects_fingerprint_mismatch(tmp_path):
    data = blob_dataset(10, [[0], [2]], seed=25)
    model = rf.fit_forest(data, SMALL)
    path = tmp_path / "model.rfj"
    rf.save_model(model, path, mfcc_fingerprint="cafe01")
    with pytest.raises(ValidationError, match="fingerprint"):
        rf.load_model(path, expected_fingerprint="beef02")
    rf.load_model(path)  # no expectation supplied -> no check


def test_model_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "model.rfj"
    path.write_text('{"format": "rfj-1", "trees": [')
    with pytest.raises(ValidationError, match="model.rfj"):
        rf.load_model(path)


def test_model_load_rejects_unknown_format(tmp_path):
    path = tmp_path / "model.rfj"
    path.write_text('{"format": "rfj-99", "trees": []}')
    with pytest.raises(ValidationError, match="format"):
        rf.load_model(path)


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
        (lambda t, i: t.pop("impurity"), "impurity"),
        (lambda t, i: t["left"].__setitem__(i, "x"), "malformed model"),
    ],
)
def test_model_load_rejects_broken_trees(tmp_path, corrupt, message):
    data = blob_dataset(10, [[0, 0], [3, 3]], seed=27)
    model = rf.fit_forest(data, rf.ForestParams(n_estimators=2, max_features="all", seed=3))
    doc = rf.model_to_document(model)
    tree = doc["trees"][1]
    corrupt(tree, _root_internal(tree))
    path = tmp_path / "model.rfj"
    path.write_text(dump_json(doc))
    with pytest.raises(ValidationError, match=message):
        rf.load_model(path)


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
    doc = rf.model_to_document(rf.fit_forest(data, SMALL))
    doc["params"].update(params)
    path = tmp_path / "model.rfj"
    path.write_text(dump_json(doc))
    with pytest.raises(ValidationError, match=key):
        rf.load_model(path)


def test_model_load_rejects_empty_forest(tmp_path):
    data = blob_dataset(10, [[0], [2]], seed=29)
    doc = rf.model_to_document(rf.fit_forest(data, SMALL))
    doc["trees"] = []
    path = tmp_path / "model.rfj"
    path.write_text(dump_json(doc))
    with pytest.raises(ValidationError, match="no trees"):
        rf.load_model(path)


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
    model = rf.fit_forest(data, params)
    for tree in model.trees:
        audit_tree(tree, params)


# ---------------------------------------------------------------- lockstep growth properties

TREE_FIELDS = (
    "feature", "threshold", "left", "right", "histogram",
    "n_samples", "impurity", "weighted_decrease", "depth",
)


def assert_same_tree(got: rf.DecisionTree, want: rf.DecisionTree) -> None:
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
    for seed, tree in zip(seeds, rf.fit_trees(data, params, seeds)):
        assert_same_tree(tree, reference_fit_tree(data, params, seed))


@settings(max_examples=6, deadline=None, derandomize=True)
@given(growth_cases(), st.integers(2, 9))
def test_forest_identical_at_any_jobs(case, n_estimators):
    """A tree does not depend on the other seeds grown with it: a forest's
    seeds grown in 1, 2 or 3 contiguous runs give the same trees."""
    data, params = case
    params = rf.ForestParams(**{**params.to_dict(), "n_estimators": n_estimators})
    model = rf.fit_forest(data, params)
    seeds = model.per_tree_seeds
    for runs in (1, 2, 3):
        bounds = [len(seeds) * i // runs for i in range(runs + 1)]
        trees = [
            tree
            for lo, hi in zip(bounds, bounds[1:]) if hi > lo
            for tree in rf.fit_trees(data, params, seeds[lo:hi])
        ]
        assert len(trees) == len(model.trees)
        for tree, whole in zip(trees, model.trees):
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
    thresholds = np.concatenate([t.threshold[t.feature >= 0] for t in model.trees])
    features = np.concatenate([t.feature[t.feature >= 0] for t in model.trees])
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
    model = rf.fit_forest(data, params)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.rfj", Path(tmp) / "second.rfj"
        rf.save_model(model, first, mfcc_fingerprint="cafe01")
        loaded = rf.load_model(first, expected_fingerprint="cafe01")
        rf.save_model(loaded, second, mfcc_fingerprint="cafe01")
        assert second.read_bytes() == first.read_bytes()
    assert loaded.params == model.params
    assert loaded.per_tree_seeds == model.per_tree_seeds
    assert len(loaded.trees) == len(model.trees)
    for got, want in zip(loaded.trees, model.trees):
        assert np.isnan(want.threshold[want.feature == -1]).all()
        assert_same_tree(got, want)


def test_split_search_passes_do_not_change_trees(monkeypatch):
    """A pass cap of one node per pass grows the same forest as one pass per round."""
    data = blob_dataset(25, [[0, 0], [1, 1], [2, 0]], n_noise=4, spread=1.3, seed=8)
    params = rf.ForestParams(n_estimators=8, min_samples_split=2, min_samples_leaf=1, seed=4)
    wide = rf.fit_forest(data, params)
    monkeypatch.setattr(rf, "_PASS_ELEMENTS", 1)
    narrow = rf.fit_forest(data, params)
    for a, b in zip(wide.trees, narrow.trees):
        assert_same_tree(a, b)
