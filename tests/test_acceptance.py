"""Acceptance checklist: twelve end-to-end criteria, one verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the checklist. The
heavy criteria drive the shipped configs through the full simulate /
featurize / train pipeline; budgets assume a single-core machine.
"""

from __future__ import annotations

import itertools
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import reference
from esdgait import dsp, experiments, forest, io, legshake
from esdgait.simkit import (
    SAMPLE_RATE,
    CapacitanceModel,
    ElectrodeModel,
    synth_legshake,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CAP = CapacitanceModel()
ELECTRODE = ElectrodeModel()


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number}: {detail}"


@dataclass
class PipelineRun:
    config: experiments.ExperimentConfig
    features_path: Path
    model_path: Path
    report_path: Path
    report: forest.EvalReport
    feature_names: tuple[str, ...]
    labels: tuple[str, ...]
    seconds: float


def run_pipeline(config_name: str, out: Path, jobs: int) -> PipelineRun:
    config = experiments.load_config(CONFIG_DIR / config_name)
    start = time.perf_counter()
    manifest = experiments.run_simulate(config, out, jobs=jobs, quiet=True)
    features_path, rejects = experiments.run_featurize(manifest, config, out, jobs=jobs, quiet=True)
    report, model_path, report_path = experiments.run_train(
        features_path, config, out, jobs=jobs, quiet=True
    )
    seconds = time.perf_counter() - start
    assert rejects == []
    _, names, labels = io.read_features(features_path)
    return PipelineRun(
        config=config,
        features_path=features_path,
        model_path=model_path,
        report_path=report_path,
        report=report,
        feature_names=tuple(names),
        labels=tuple(labels),
        seconds=seconds,
    )


@pytest.fixture(scope="session")
def mood_run(tmp_path_factory) -> PipelineRun:
    return run_pipeline("mood.json", tmp_path_factory.mktemp("accept_mood"), jobs=2)


@pytest.fixture(scope="session")
def person_run(tmp_path_factory) -> PipelineRun:
    return run_pipeline("persons.json", tmp_path_factory.mktemp("accept_persons"), jobs=2)


def test_criterion_01_mfcc_matches_naive_reference():
    start = time.perf_counter()
    scales = (1.0, 1e-10, 1e-5, 3.7, 245.0, 1e-12, 0.02, 7e3, 1e-8, 0.5)
    worst = 0.0
    for i, scale in enumerate(scales):
        rng = np.random.default_rng(np.random.SeedSequence([101, i]))
        signal = rng.normal(0.0, scale, 25_000)
        want = reference.naive_mfcc(signal)
        got = dsp.mfcc(signal).coefficients
        worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 10.0
    verdict(1, ok, f"max |diff| {worst:.2e} over 10 signals in {elapsed:.1f} s")


def test_criterion_02_feature_matrix_shape():
    rng = np.random.default_rng(2)
    matrix = dsp.mfcc(rng.normal(size=25_000))
    ok = matrix.coefficients.shape == (20, 19) and matrix.frame_times.shape == (19,)
    verdict(2, ok, f"25000 samples -> {matrix.coefficients.shape}")


def test_criterion_03_kappa_on_balanced_confusion():
    truth = np.repeat([0, 1], 1000)
    pred = truth.copy()
    pred[:145] = 1
    pred[1000:1145] = 0
    accuracy = float(np.mean(pred == truth))
    kappa = forest.cohens_kappa(pred, truth)
    matrix_kappa = reference.kappa_from_confusion(np.array([[855, 145], [145, 855]]))
    ok = (
        accuracy == 0.855
        and abs(kappa - 0.711) <= 1e-3 + 1e-12
        and kappa == pytest.approx(matrix_kappa, abs=1e-12)
    )
    verdict(3, ok, f"accuracy {accuracy:.3f} -> kappa {kappa:.4f}, within 0.001 of 0.711")


def _confusion(pred: np.ndarray, truth: np.ndarray, k: int) -> np.ndarray:
    matrix = np.zeros((k, k), dtype=np.int64)
    np.add.at(matrix, (truth, pred), 1)
    return matrix


def _compositions(total: int, parts: int):
    for bars in itertools.combinations(range(total + parts - 1), parts - 1):
        prev = -1
        cells = []
        for bar in bars + (total + parts - 1,):
            cells.append(bar - prev - 1)
            prev = bar
        yield cells


def _dense_ranks(levels: tuple[int, ...]) -> tuple[int, ...]:
    ordered = sorted(set(levels))
    return tuple(ordered.index(v) for v in levels)


def test_criterion_04_metric_oracles():
    start = time.perf_counter()

    # Kappa, direct: every (prediction, truth) pair over 3 labels up to length 4.
    pairs = 0
    for n in range(1, 5):
        vectors = [np.asarray(v, dtype=np.int64) for v in itertools.product(range(3), repeat=n)]
        for truth in vectors:
            for pred in vectors:
                want = reference.kappa_from_confusion(_confusion(pred, truth, 3))
                assert forest.cohens_kappa(pred, truth) == pytest.approx(want, abs=1e-12)
                pairs += 1

    # Kappa, by equivalence class: every 3x3 confusion matrix with up to 8
    # samples, each realized as concrete vectors. Any (pred, truth) pair of
    # length <= 8 over <= 3 labels maps to exactly one of these matrices.
    classes = 0
    for total in range(1, 9):
        for cells in _compositions(total, 9):
            matrix = np.asarray(cells, dtype=np.int64).reshape(3, 3)
            truth = np.repeat(np.arange(3), matrix.sum(axis=1))
            pred = np.concatenate([np.repeat(np.arange(3), matrix[i]) for i in range(3)])
            want = reference.kappa_from_confusion(matrix)
            assert forest.cohens_kappa(pred, truth) == pytest.approx(want, abs=1e-12)
            classes += 1

    # AUROC, binary: every weak ordering of up to 5 scores crossed with every
    # truth split that contains both classes.
    rankings = 0
    for n in range(2, 6):
        orderings = sorted({_dense_ranks(v) for v in itertools.product(range(n), repeat=n)})
        for ranks in orderings:
            scores = np.asarray(ranks, dtype=float) / n
            proba = np.column_stack([1.0 - scores, scores])
            for bits in itertools.product((0, 1), repeat=n):
                truth = np.asarray(bits, dtype=np.int64)
                if truth.min() == truth.max():
                    continue
                want = reference.macro_ovr_auroc(proba, truth)
                assert forest.auroc(proba, truth) == pytest.approx(want, abs=1e-12)
                rankings += 1

    # AUROC, 3-class battery for lengths 6..8, with heavy ties and classes
    # that can be absent from truth (the absent-class warning is the point).
    rng = np.random.default_rng(np.random.SeedSequence(404))
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="class .* absent from truth")
        for _ in range(1200):
            n = int(rng.integers(6, 9))
            truth = rng.integers(0, 3, n)
            truth[:2] = (0, 1)
            scores = rng.integers(0, 4, (n, 3)).astype(float) / 3.0
            want = reference.macro_ovr_auroc(scores, truth)
            assert forest.auroc(scores, truth) == pytest.approx(want, abs=1e-12)
            rankings += 1

    elapsed = time.perf_counter() - start
    ok = elapsed < 30.0
    verdict(
        4,
        ok,
        f"{pairs} kappa pairs, {classes} confusion classes, "
        f"{rankings} rankings agree in {elapsed:.1f} s",
    )


def test_criterion_05_mood_accuracy(mood_run):
    params = mood_run.config.forest_params
    params_ok = (
        params.n_estimators,
        params.min_samples_split,
        params.min_samples_leaf,
        params.max_depth,
        params.bootstrap,
        params.max_features,
    ) == (100, 5, 4, 100, False, "sqrt")
    n = len(mood_run.labels)
    ok = (
        params_ok
        and mood_run.config.cv_folds == 10
        and 120 <= n <= 160
        and mood_run.report.accuracy >= 0.85
        and mood_run.seconds < 180.0
    )
    verdict(
        5,
        ok,
        f"pooled accuracy {mood_run.report.accuracy:.4f} on {n} records "
        f"in {mood_run.seconds:.0f} s",
    )


def test_criterion_06_person_accuracy_beats_baseline(person_run):
    class_names = sorted(set(person_run.labels))
    codes = [class_names.index(label) for label in person_run.labels]
    baseline = forest.baseline_accuracy(codes)
    n = len(person_run.labels)
    accuracy = person_run.report.accuracy
    ok = (
        len(class_names) == 6
        and person_run.config.cv_folds == 10
        and 190 <= n <= 240
        and accuracy >= 0.66
        and accuracy > baseline
        and person_run.seconds < 300.0
    )
    verdict(
        6,
        ok,
        f"pooled accuracy {accuracy:.4f} vs baseline {baseline:.4f} on {n} records "
        f"in {person_run.seconds:.0f} s",
    )


def test_criterion_07_accuracy_vs_person_count(person_run, tmp_path_factory):
    out = tmp_path_factory.mktemp("accept_sweep")
    start = time.perf_counter()
    bundle = experiments.run_report(person_run.features_path, person_run.config, out, jobs=2, quiet=True)
    elapsed = time.perf_counter() - start
    rows = bundle.accuracy_vs_k
    ks = [row[0] for row in rows]
    accuracy = {k: acc for k, acc, _ in rows}
    baselines = [row[2] for row in rows]
    ok = ks == [2, 3, 4, 5, 6]
    for k, acc, baseline in rows:
        ok = ok and baseline == 1.0 / k and acc >= baseline
    ok = ok and all(a > b for a, b in zip(baselines, baselines[1:]))
    spread = abs(accuracy[6] - accuracy[4])
    ok = ok and spread <= 0.15 + 1e-12 and elapsed < 900.0
    sweep = ", ".join(f"k={k}:{accuracy[k]:.3f}" for k in ks)
    verdict(7, ok, f"{sweep}; |acc(6)-acc(4)| {spread:.3f}; {elapsed:.0f} s")


def test_criterion_08_categoricals_not_essential(person_run):
    importances = dict(zip(person_run.feature_names, person_run.report.importances))
    categorical = {name: importances[name] for name in dsp.CATEGORICAL_FIELDS}
    mfcc_values = [v for name, v in importances.items() if name not in dsp.CATEGORICAL_FIELDS]
    median = float(np.median(mfcc_values))
    order = np.argsort(-person_run.report.importances, kind="stable")
    top10 = [person_run.feature_names[i] for i in order[:10]]
    ok = all(v < median for v in categorical.values()) and all(
        name.startswith("mfcc") for name in top10
    )
    verdict(
        8,
        ok,
        f"plant_type {categorical['plant_type']:.1e}, location {categorical['location']:.1e} "
        f"vs median mfcc {median:.1e}; top-10 all mfcc",
    )


def test_criterion_09_stratification_balance():
    start = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence(909))
    for _ in range(200):
        n = int(rng.integers(10, 240))
        n_classes = int(rng.integers(1, 7))
        labels = rng.integers(0, n_classes, n)
        folds = forest.stratified_kfold(labels, 10, shuffle_seed=int(rng.integers(2**32)))
        assert sorted(np.concatenate(folds).tolist()) == list(range(n))
        for cls in np.unique(labels):
            counts = [int(np.sum(labels[fold] == cls)) for fold in folds]
            assert max(counts) - min(counts) <= 1
    elapsed = time.perf_counter() - start
    verdict(9, elapsed < 5.0, f"200 label vectors balanced within 1 in {elapsed:.1f} s")


def test_criterion_10_determinism_across_jobs(mood_run, person_run, tmp_path_factory):
    start = time.perf_counter()
    ok = True
    details = []
    for run, name in ((mood_run, "mood"), (person_run, "persons")):
        repeat = run_pipeline(
            f"{name}.json", tmp_path_factory.mktemp(f"accept_{name}_repeat"), jobs=1
        )
        same = (
            run.features_path.read_bytes() == repeat.features_path.read_bytes()
            and run.model_path.read_bytes() == repeat.model_path.read_bytes()
            and run.report_path.read_bytes() == repeat.report_path.read_bytes()
        )
        ok = ok and same
        details.append(f"{name} {'identical' if same else 'DIFFERS'}")
    elapsed = time.perf_counter() - start
    verdict(10, ok, f"jobs=2 vs jobs=1 reruns: {', '.join(details)}; {elapsed:.0f} s")


def test_criterion_11_legshake_detection():
    start = time.perf_counter()
    config = legshake.DetectorConfig()
    true_positives = false_positives = false_negatives = 0
    worst = 0.0
    for i in range(50):
        rng = np.random.default_rng(np.random.SeedSequence([777, i]))
        freq = float(rng.uniform(5.0, 6.0))
        onset = float(rng.uniform(1.0, 5.0))
        noise_seed = int(rng.integers(2**32))
        clean = synth_legshake(freq, 8.0, onset, CAP, ELECTRODE)
        post = clean.samples[int(onset * SAMPLE_RATE):]
        noise_std = float(np.sqrt(np.mean(post**2))) / 10.0 ** (10.0 / 20.0)
        record = synth_legshake(
            freq, 8.0, onset, CAP, ELECTRODE, noise_std=noise_std, seed=noise_seed
        )
        events = legshake.detect_stream([record.samples], config)
        matched = [e for e in events if abs(e.onset - onset) <= 0.25]
        if matched:
            true_positives += 1
            false_positives += len(events) - 1
            worst = max(worst, abs(matched[0].onset - onset))
        else:
            false_negatives += 1
            false_positives += len(events)
    f1 = 2.0 * true_positives / (2.0 * true_positives + false_positives + false_negatives)

    noise_events = 0
    for i in range(50):
        rng = np.random.default_rng(np.random.SeedSequence([888, i]))
        noise = rng.normal(0.0, 1.0, 80_000)
        noise_events += len(legshake.detect_stream([noise], config))

    elapsed = time.perf_counter() - start
    ok = f1 >= 0.9 and noise_events == 0 and elapsed < 60.0
    verdict(
        11,
        ok,
        f"F1 {f1:.3f}, worst onset error {worst:.3f} s, "
        f"{noise_events} noise-only events, in {elapsed:.0f} s",
    )


def test_criterion_12_tree_growth_limits(mood_run, person_run):
    audited = 0
    ok = True
    for run in (mood_run, person_run):
        model = forest.load_model(run.model_path)
        params = model.params
        ok = (
            ok
            and params.min_samples_leaf == 4
            and params.min_samples_split == 5
            and params.max_depth <= 100
        )
        for tree in model.trees:
            reference.audit_tree(tree, params)
            audited += 1
    verdict(12, ok, f"{audited} trees satisfy leaf >= 4, split >= 5, depth <= 100")
