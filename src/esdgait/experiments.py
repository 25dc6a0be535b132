"""Config-driven experiment pipeline.

One JSON config file describes a synthetic cohort and modelling choices;
the functions here turn it into reproducible artifacts: a dataset manifest
of signal records, an MFCC feature table, a trained forest with its
cross-validation report, and plot-ready report CSVs. Every artifact is a
pure function of (config, seed), so reruns are byte-identical.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import logging
import os
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__, dsp, forest, io, legshake, simkit
from .errors import DegenerateSignalError, ValidationError

log = logging.getLogger("esdgait")

TASKS = ("identify_person", "classify_mood", "legshake")

# which meta label becomes the class column for each task
TASK_LABEL_KEY = {
    "identify_person": "person_id",
    "classify_mood": "mood",
    "legshake": "activity",
}

# room terms (none) and plant capacitance of every synthesized record
WALK_CAPACITANCE = simkit.CapacitanceModel()
ELECTRODE = simkit.ElectrodeModel()


@dataclass(frozen=True)
class MoodFactors:
    """A mood as a config writes it: gait factors relative to a neutral walk."""

    speed_factor: float = 1.0
    amplitude_factor: float = 1.0
    step_frequency_factor: float = 1.0


@dataclass(frozen=True)
class WalkCohort:
    """Cohort grid for the walking tasks: persons x moods x repetitions."""

    persons: dict[str, simkit.GaitProfile]
    samples_per_cell: int
    # decoded as MoodFactors; __post_init__ stores each as a simkit
    # MoodProfile labelled by its name, or None for identity factors
    moods: dict[str, MoodFactors] = field(default_factory=lambda: {"neutral": MoodFactors()})
    plant_types: tuple[str, ...] = ("pothos",)
    locations: tuple[str, ...] = ("lab",)
    noise_std: float = 0.0
    start_distance: float = 3.0
    end_distance: float = 0.6
    frequency_jitter: float = 0.02

    def __post_init__(self) -> None:
        for name in ("persons", "moods", "plant_types", "locations"):
            if not getattr(self, name):
                raise ValidationError(f"{name} must not be empty")
        if self.samples_per_cell < 1:
            raise ValidationError("samples_per_cell must be >= 1")
        if self.noise_std < 0:
            raise ValidationError("noise_std must be >= 0")
        if self.start_distance <= 0 or self.end_distance <= 0:
            raise ValidationError("walk distances must be positive")
        if self.start_distance == self.end_distance:
            raise ValidationError("start_distance and end_distance must differ")
        if not 0 <= self.frequency_jitter < 0.5:
            raise ValidationError("frequency_jitter must lie in [0, 0.5)")
        moods = {
            # identity factors leave the gait untouched; any label is fine
            name: None if f == MoodFactors() else simkit.MoodProfile(name, *astuple(f))
            for name, f in self.moods.items()
        }
        object.__setattr__(self, "moods", moods)


@dataclass(frozen=True)
class ShakeCohort:
    """Record grid for the leg-shake task plus optional noise-only records."""

    shake_frequencies: tuple[float, ...]
    onsets: tuple[float, ...]
    samples_per_cell: int
    duration: float = 8.0
    snr_db: float | None = None
    noise_only: int = 0

    def __post_init__(self) -> None:
        if not self.shake_frequencies or not self.onsets:
            raise ValidationError("legshake dataset needs shake_frequencies and onsets")
        if self.duration <= max(self.onsets):
            raise ValidationError("duration must exceed every onset")
        if self.samples_per_cell < 1:
            raise ValidationError("samples_per_cell must be >= 1")
        if self.noise_only < 0:
            raise ValidationError("noise_only must be >= 0")
        if self.noise_only > 0 and self.snr_db is None:
            raise ValidationError("noise_only records need snr_db to set the noise level")


def _check_search_space(space: dict[str, list], where: str) -> None:
    """Every axis names a ForestParams field other than seed and lists values
    that field accepts; each error names the key path of the bad value."""
    if not space:
        raise ValidationError(f"{where}: must not be empty")
    hints = typing.get_type_hints(forest.ForestParams)
    for name, values in space.items():
        path = f"{where}.{name}"
        if name not in hints or name == "seed":
            raise ValidationError(f"{path}: unknown search axis")
        if not values:
            raise ValidationError(f"{path}: needs a non-empty list")
        for i, value in enumerate(values):
            try:
                forest.ForestParams(**{name: io.from_json(hints[name], value, "")})
            except ValidationError as exc:
                raise ValidationError(f"{path}[{i}]: {exc}") from None


@dataclass(frozen=True)
class SearchSpec:
    n_iter: int
    space: dict[str, list] = field(
        default_factory=lambda: {k: list(v) for k, v in forest.DEFAULT_SEARCH_SPACE.items()},
        metadata={"check": _check_search_space},
    )

    def __post_init__(self) -> None:
        if self.n_iter < 1:
            raise ValidationError("n_iter must be >= 1")


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    task: str
    dataset: WalkCohort | ShakeCohort | None = None
    mfcc: dsp.MfccConfig = field(default_factory=dsp.MfccConfig)
    include_categoricals: bool = False
    forest_params: forest.ForestParams = field(
        default_factory=forest.ForestParams, metadata={"key": "forest"}
    )
    search: SearchSpec | None = None
    cv_folds: int = 10
    detector: legshake.DetectorConfig = field(default_factory=legshake.DetectorConfig)

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValidationError("seed must be a non-negative integer")
        if self.task not in TASKS:
            raise ValidationError(f"task must be one of {TASKS}, got {self.task!r}")
        if self.cv_folds < 2:
            raise ValidationError("cv_folds must be an integer >= 2")

    @classmethod
    def from_dict(cls, raw) -> "ExperimentConfig":
        """Decode a config document with io.from_json, plus three rules that
        no field annotation states: the task picks the cohort class, the
        "forest" key fills forest_params, and the forest seed defaults to
        the experiment seed."""
        if not isinstance(raw, dict):
            raise ValidationError("experiment config must be a JSON object")
        config = io.from_json(
            cls, {k: v for k, v in raw.items() if k not in ("dataset", "forest")}, ""
        )
        forest_section = raw.get("forest", {})
        if isinstance(forest_section, dict):
            forest_section = {"seed": config.seed, **forest_section}
        cohort = ShakeCohort if config.task == "legshake" else WalkCohort
        return replace(
            config,
            forest_params=io.from_json(forest.ForestParams, forest_section, "forest"),
            dataset=io.from_json(cohort, raw["dataset"], "dataset") if "dataset" in raw else None,
        )


def load_config(path, seed_override: int | None = None) -> ExperimentConfig:
    try:
        raw = io.read_json(path)
    except FileNotFoundError:
        raise ValidationError(f"config file not found: {path}") from None
    if seed_override is not None and isinstance(raw, dict):
        raw["seed"] = seed_override
    return ExperimentConfig.from_dict(raw)


@contextlib.contextmanager
def _task_map(jobs: int, n_tasks: int):
    """The map a command runs its tasks through: one process pool's map,
    or the builtin map where the pool would have fewer than two workers.

    A command opens it once and hands it to every step. The pool has
    min(jobs, n_tasks, usable CPUs) workers; results come back in task
    order, so they are the same at any jobs value. Each map splits its
    tasks into about eight chunks per worker, one task per chunk when there
    are fewer: few messages for quick tasks such as one record, and one
    forest per message for a CV.
    """
    workers = min(jobs, n_tasks, len(os.sched_getaffinity(0)))
    if workers < 2:
        yield map
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:

        def pool_map(fn, *iterables):
            tasks = list(zip(*iterables))
            chunksize = max(1, -(-len(tasks) // (8 * workers)))
            return pool.map(fn, *zip(*tasks), chunksize=chunksize)

        yield pool_map


# ---------------------------------------------------------------------------
# record planning and synthesis


@dataclass(frozen=True)
class WalkPlan:
    index: int
    person_id: str
    mood: str
    gait: simkit.GaitProfile
    mood_profile: simkit.MoodProfile | None
    plant_type: str
    location: str
    start_distance: float
    end_distance: float
    schedule_phase: float
    noise_std: float
    noise_seed: int


@dataclass(frozen=True)
class ShakePlan:
    index: int
    shake_frequency: float
    onset: float
    duration: float
    snr_db: float | None
    noise_seed: int
    noise_std: float = 0.0  # the level snr_db sets, shared by the cell's records


@dataclass(frozen=True)
class NoisePlan:
    index: int
    duration: float
    noise_std: float
    noise_seed: int


def build_plans(config: ExperimentConfig) -> list:
    if config.dataset is None:
        raise ValidationError("config has no dataset section")
    if isinstance(config.dataset, WalkCohort):
        return _walk_plans(config.seed, config.dataset)
    return _shake_plans(config.seed, config.dataset)


def _walk_plans(seed: int, cohort: WalkCohort) -> list[WalkPlan]:
    plans: list[WalkPlan] = []
    cells = list(itertools.product(sorted(cohort.persons), sorted(cohort.moods)))
    index = 0
    for cell_index, (person, mood) in enumerate(cells):
        base = cohort.persons[person]
        for rep in range(cohort.samples_per_cell):
            rng = np.random.default_rng(np.random.SeedSequence([seed, cell_index, rep]))
            freq_scale = 1.0 + cohort.frequency_jitter * float(rng.uniform(-1.0, 1.0))
            speed_scale = 1.0 + cohort.frequency_jitter * float(rng.uniform(-1.0, 1.0))
            gait = replace(
                base,
                step_frequency=base.step_frequency * freq_scale,
                walking_speed=base.walking_speed * speed_scale,
            )
            phase = float(rng.uniform(0.0, 1.0 / gait.step_frequency))
            plant = cohort.plant_types[int(rng.integers(len(cohort.plant_types)))]
            location = cohort.locations[int(rng.integers(len(cohort.locations)))]
            if rep % 2 == 0:
                start, end = cohort.start_distance, cohort.end_distance
            else:
                start, end = cohort.end_distance, cohort.start_distance
            plans.append(
                WalkPlan(
                    index=index,
                    person_id=person,
                    mood=mood,
                    gait=gait,
                    mood_profile=cohort.moods[mood],
                    plant_type=plant,
                    location=location,
                    start_distance=start,
                    end_distance=end,
                    schedule_phase=phase,
                    noise_std=cohort.noise_std,
                    noise_seed=int(rng.integers(2**32)),
                )
            )
            index += 1
    return plans


def _shake_plans(seed: int, cohort: ShakeCohort) -> list:
    plans: list = []
    cells = list(itertools.product(cohort.shake_frequencies, cohort.onsets))
    index = 0
    for cell_index, (freq, onset) in enumerate(cells):
        noise_std = 0.0
        if cohort.snr_db is not None:
            noise_std = _snr_noise_std(freq, onset, cohort.duration, cohort.snr_db)
        for rep in range(cohort.samples_per_cell):
            rng = np.random.default_rng(np.random.SeedSequence([seed, cell_index, rep]))
            plans.append(
                ShakePlan(
                    index=index,
                    shake_frequency=freq,
                    onset=onset,
                    duration=cohort.duration,
                    snr_db=cohort.snr_db,
                    noise_seed=int(rng.integers(2**32)),
                    noise_std=noise_std,
                )
            )
            index += 1
    reference_std = 0.0
    if cohort.noise_only:  # noise level of a mid-band shake at the earliest onset
        reference_std = _snr_noise_std(
            float(np.mean(cohort.shake_frequencies)), float(min(cohort.onsets)),
            cohort.duration, cohort.snr_db,
        )
    for extra in range(cohort.noise_only):
        rng = np.random.default_rng(np.random.SeedSequence([seed, len(cells) + extra, 0]))
        plans.append(
            NoisePlan(
                index=index,
                duration=cohort.duration,
                noise_std=reference_std,
                noise_seed=int(rng.integers(2**32)),
            )
        )
        index += 1
    return plans


def _snr_noise_std(freq: float, onset: float, duration: float, snr_db: float) -> float:
    """Noise std putting a clean shake's post-onset RMS at snr_db above it."""
    clean = simkit.synth_legshake(
        freq, duration, onset, WALK_CAPACITANCE, ELECTRODE, noise_std=0.0, seed=0
    )
    post = clean.samples[int(onset * clean.sample_rate):]
    return float(np.sqrt(np.mean(post**2))) / (10.0 ** (snr_db / 20.0))


def synthesize_record(plan) -> simkit.SignalRecord:
    if isinstance(plan, WalkPlan):
        return _synthesize_walk(plan)
    if isinstance(plan, ShakePlan):
        return _synthesize_shake(plan)
    if isinstance(plan, NoisePlan):
        return _synthesize_noise(plan)
    raise ValidationError(f"unknown plan type: {type(plan).__name__}")


def _synthesize_walk(plan: WalkPlan) -> simkit.SignalRecord:
    mood = plan.mood_profile
    traj, duration = simkit.straight_walk(
        plan.gait, mood, plan.start_distance, plan.end_distance
    )
    labels = {
        "person_id": plan.person_id,
        "mood": plan.mood,
        "plant_type": plan.plant_type,
        "location": plan.location,
        "activity": "walk",
        "seed": plan.noise_seed,
        "generator_params": {
            "step_frequency": plan.gait.step_frequency,
            "walking_speed": plan.gait.walking_speed,
            "duty_cycle": plan.gait.duty_cycle,
            "vertical_amplitude": plan.gait.vertical_amplitude,
            "speed_factor": mood.speed_factor if mood else 1.0,
            "amplitude_factor": mood.amplitude_factor if mood else 1.0,
            "step_frequency_factor": mood.step_frequency_factor if mood else 1.0,
            "start_distance": plan.start_distance,
            "end_distance": plan.end_distance,
            "schedule_phase": plan.schedule_phase,
            "duration": duration,
            "noise_std": plan.noise_std,
        },
    }
    return simkit.synth_walk(
        plan.gait,
        mood,
        traj,
        WALK_CAPACITANCE,
        ELECTRODE,
        duration,
        noise_std=plan.noise_std,
        seed=plan.noise_seed,
        schedule_phase=plan.schedule_phase,
        labels=labels,
    )


def _synthesize_shake(plan: ShakePlan) -> simkit.SignalRecord:
    labels = {
        "activity": "legshake",
        "seed": plan.noise_seed,
        "generator_params": {
            "shake_frequency": plan.shake_frequency,
            "onset": plan.onset,
            "duration": plan.duration,
            "snr_db": plan.snr_db,
            "noise_std": plan.noise_std,
        },
    }
    return simkit.synth_legshake(
        plan.shake_frequency, plan.duration, plan.onset,
        WALK_CAPACITANCE, ELECTRODE,
        noise_std=plan.noise_std, seed=plan.noise_seed, labels=labels,
    )


def _synthesize_noise(plan: NoisePlan) -> simkit.SignalRecord:
    rng = np.random.default_rng(plan.noise_seed)
    n = int(round(plan.duration * simkit.SAMPLE_RATE)) - 2
    samples = rng.normal(0.0, plan.noise_std, n)
    labels = {
        "activity": "noise",
        "seed": plan.noise_seed,
        "generator_params": {"duration": plan.duration, "noise_std": plan.noise_std},
    }
    return simkit.SignalRecord(
        samples=samples, sample_rate=simkit.SAMPLE_RATE, labels=labels
    )


def _simulate_task(plan, out: Path) -> dict:
    """Synthesize and write one record; returns its manifest entry."""
    stem = f"rec_{plan.index:04d}"
    entry = {"signal_path": f"records/{stem}.sig.csv", "meta_path": f"records/{stem}.meta.json"}
    io.write_record(synthesize_record(plan), out / entry["signal_path"], out / entry["meta_path"])
    return entry


def run_simulate(config: ExperimentConfig, out_dir, jobs: int = 1, quiet: bool = False) -> Path:
    """Synthesize the cohort and write records plus dataset.json manifest."""
    plans = build_plans(config)
    out = Path(out_dir)
    (out / "records").mkdir(parents=True, exist_ok=True)
    with _task_map(jobs, len(plans)) as map_fn:
        entries = list(map_fn(_simulate_task, plans, itertools.repeat(out)))
    manifest_path = out / "dataset.json"
    io.write_manifest(manifest_path, entries)
    if not quiet:
        log.info("wrote %d records and %s", len(entries), manifest_path)
    return manifest_path


# ---------------------------------------------------------------------------
# featurization


def _featurize_task(record, mfcc: dsp.MfccConfig, include_categoricals: bool, maps):
    """One record's feature vector, or the DegenerateSignalError rejecting it."""
    try:
        return dsp.featurize(record, mfcc, include_categoricals, maps)
    except DegenerateSignalError as exc:
        return exc


def run_featurize(
    manifest_path, config: ExperimentConfig, out_dir, jobs: int = 1, quiet: bool = False
) -> tuple[Path, list[dict]]:
    """Extract one feature row per record; returns (features path, rejects)."""
    entries = io.read_manifest(manifest_path)
    if not entries:
        raise ValidationError("manifest lists no records")
    with _task_map(jobs, len(entries)) as map_fn:
        records = list(map_fn(
            io.read_record, [e["signal_path"] for e in entries], [e["meta_path"] for e in entries]
        ))
        rates = {record.sample_rate for record in records}
        if len(rates) != 1:
            raise ValidationError(f"records mix sample rates: {sorted(rates)}")
        records = dsp.trim_to_common_length(records)
        label_key = TASK_LABEL_KEY[config.task]
        maps = dsp.build_category_maps(records) if config.include_categoricals else None
        rows: list[np.ndarray] = []
        labels: list[str] = []
        names: tuple[str, ...] | None = None
        rejects: list[dict] = []
        vectors = map_fn(
            _featurize_task,
            records,
            itertools.repeat(config.mfcc),
            itertools.repeat(config.include_categoricals),
            itertools.repeat(maps),
        )
        for entry, record, vector in zip(entries, records, vectors):
            if isinstance(vector, DegenerateSignalError):
                rejects.append({"signal_path": str(entry["signal_path"]), "reason": str(vector)})
                continue
            label = record.labels.get(label_key)
            if label is None:
                raise ValidationError(
                    f"record {entry['signal_path']} has no {label_key} label for task {config.task}"
                )
            rows.append(vector.values)
            labels.append(str(label))
            if names is None:
                names = vector.feature_names
    if not rows:
        raise ValidationError("every record was rejected as degenerate")
    if rejects and not quiet:
        log.warning("excluded %d degenerate record(s)", len(rejects))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    features_path = out / "features.csv"
    io.write_features(features_path, np.asarray(rows), names, labels)
    sidecar = {
        "task": config.task,
        "label_key": label_key,
        "include_categoricals": config.include_categoricals,
        "mfcc": config.mfcc.to_dict(),
        "mfcc_fingerprint": io.mfcc_fingerprint(config.mfcc),
        "n_records": len(labels),
        "rejects": rejects,
    }
    io.atomic_write_json(_sidecar_path(features_path), sidecar)
    return features_path, rejects


def _sidecar_path(features_path) -> Path:
    features_path = Path(features_path)
    return features_path.parent / (features_path.stem + ".meta.json")


def dataset_from_features(matrix, feature_names, labels) -> forest.Dataset:
    class_names = tuple(sorted(set(labels)))
    index = {name: i for i, name in enumerate(class_names)}
    y = np.array([index[label] for label in labels], dtype=np.int64)
    return forest.Dataset(
        features=np.asarray(matrix, dtype=float),
        labels=y,
        feature_names=tuple(feature_names),
        class_names=class_names,
    )


def _stored_fingerprint(features_path, config: ExperimentConfig) -> str:
    """Fingerprint of the MFCC settings that produced a features file.

    The featurize sidecar is authoritative when present; otherwise the
    config's own mfcc section is assumed to match.
    """
    sidecar = _sidecar_path(features_path)
    if sidecar.exists():
        stored = io.read_json(sidecar)
        if isinstance(stored, dict) and isinstance(stored.get("mfcc_fingerprint"), str):
            return stored["mfcc_fingerprint"]
    return io.mfcc_fingerprint(config.mfcc)


# ---------------------------------------------------------------------------
# training, evaluation, reporting

# train's cross-validation, kept for report and CV-mode eval in the same
# out dir: {"key": _cv_key(...), "report": EvalReport.to_dict()}
CV_RECORD = "cv.json"


def _cv_key(features_path, params: forest.ForestParams, config: ExperimentConfig) -> dict:
    """Everything a cross-validation of a whole feature table depends on."""
    return {
        "features_sha256": hashlib.sha256(Path(features_path).read_bytes()).hexdigest(),
        "forest": params.to_dict(),
        "cv_folds": config.cv_folds,
        "seed": config.seed,
        "esdgait_version": __version__,
    }


def _reused_cv(
    features_path, config: ExperimentConfig, out: Path, n_classes: int, n_features: int
) -> forest.EvalReport | None:
    """train's report on the whole feature table, read from out/cv.json when
    the record's key equals the key of these inputs with the config's forest
    and it decodes to exactly the stored document; None otherwise, so the
    caller cross-validates."""
    try:
        record = io.read_json(out / CV_RECORD)
    except (OSError, ValidationError):
        return None
    key = _cv_key(features_path, config.forest_params, config)
    if not isinstance(record, dict) or record.get("key") != key:
        return None
    doc = record.get("report")
    try:
        report = forest.EvalReport(
            accuracy=float(doc["accuracy"]),
            cohens_kappa=float(doc["cohens_kappa"]),
            auroc=float(doc["auroc"]),
            confusion_matrix=np.array(doc["confusion_matrix"], dtype=np.int64),
            per_fold_accuracies=tuple(float(v) for v in doc["per_fold_accuracies"]),
            importances=np.array(doc["importances"], dtype=float),
        )
    except (LookupError, TypeError, ValueError, OverflowError):
        return None
    if (
        report.confusion_matrix.shape != (n_classes, n_classes)
        or report.importances.shape != (n_features,)
        or io.dump_json(report.to_dict()) != io.dump_json(doc)
    ):
        return None
    return report


def run_train(
    features_path, config: ExperimentConfig, out_dir, jobs: int = 1, quiet: bool = False
) -> tuple[forest.EvalReport, Path, Path]:
    """Cross-validate, fit on all rows, persist model.rfj + eval_report.json,
    and record the CV with its inputs' key in cv.json."""
    matrix, names, labels = io.read_features(features_path)
    data = dataset_from_features(matrix, names, labels)
    params = config.forest_params
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n_tasks = config.cv_folds * (1 if config.search is None else config.search.n_iter) + 1
    with _task_map(jobs, n_tasks) as map_fn:
        if config.search is not None:
            params, trials = forest.randomized_search(
                data,
                config.search.space,
                config.search.n_iter,
                k=config.cv_folds,
                seed=config.seed,
                map_fn=map_fn,
            )
            io.atomic_write_json(out / "search_trials.json", trials)
            if not quiet:
                log.info("search picked %s", params)
        report, model = forest.cross_validate(
            data, params, k=config.cv_folds, seed=config.seed, with_model=True, map_fn=map_fn
        )
    model_path = out / "model.rfj"
    forest.save_model(model, model_path, mfcc_fingerprint=_stored_fingerprint(features_path, config))
    report_path = out / "eval_report.json"
    io.atomic_write_json(report_path, report.to_dict())
    record = {"key": _cv_key(features_path, params, config), "report": report.to_dict()}
    io.atomic_write_json(out / CV_RECORD, record)
    if not quiet:
        log.info(
            "pooled accuracy %.4f, kappa %.4f over %d folds",
            report.accuracy, report.cohens_kappa, config.cv_folds,
        )
    return report, model_path, report_path


def run_eval(
    features_path,
    config: ExperimentConfig,
    out_dir,
    model_path=None,
    holdout: bool = False,
    jobs: int = 1,
    quiet: bool = False,
) -> tuple[forest.EvalReport, Path]:
    """Evaluate on a feature table.

    holdout=True: stratified 80/20 split, fit one forest on the large part
    (in this process, at any jobs), score the small part. model_path: score
    an existing model on these rows. Neither: full cross-validation (same
    numbers as run_train, nothing persisted but the report), reused from
    train's cv.json in out_dir when its key matches.
    """
    matrix, names, labels = io.read_features(features_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if holdout and model_path is not None:
        raise ValidationError("holdout retrains from scratch; drop the model path")
    if holdout:
        data = dataset_from_features(matrix, names, labels)
        state = np.random.SeedSequence([config.seed]).generate_state(2)
        folds = forest.stratified_kfold(data.labels, 5, int(state[0]))
        test_idx = folds[0]
        train_mask = np.ones(data.labels.size, dtype=bool)
        train_mask[test_idx] = False
        params = replace(config.forest_params, seed=int(state[1]))
        model = forest.fit_forest(
            forest.Dataset(
                data.features[train_mask],
                data.labels[train_mask],
                data.feature_names,
                data.class_names,
            ),
            params,
        )
        proba = forest.predict_proba(model, data.features[test_idx])
        report = forest.eval_report(
            data.labels[test_idx], proba, [slice(None)], forest.mdi_importance(model)
        )
    elif model_path is not None:
        model = forest.load_model(
            model_path, expected_fingerprint=_stored_fingerprint(features_path, config)
        )
        if tuple(names) != tuple(model.feature_names):
            raise ValidationError("feature columns do not match the saved model")
        unknown = sorted(set(labels) - set(model.class_names))
        if unknown:
            raise ValidationError(f"labels absent from the saved model: {unknown}")
        index = {name: i for i, name in enumerate(model.class_names)}
        y = np.array([index[label] for label in labels], dtype=np.int64)
        proba = forest.predict_proba(model, np.asarray(matrix, dtype=float))
        report = forest.eval_report(y, proba, [slice(None)], forest.mdi_importance(model))
    else:
        data = dataset_from_features(matrix, names, labels)
        report = _reused_cv(features_path, config, out, data.n_classes, len(names))
        if report is None:
            with _task_map(jobs, config.cv_folds + 1) as map_fn:
                report = forest.cross_validate(
                    data, config.forest_params, k=config.cv_folds, seed=config.seed, map_fn=map_fn
                )
    report_path = out / "eval_report.json"
    io.atomic_write_json(report_path, report.to_dict())
    if not quiet:
        log.info("accuracy %.4f, kappa %.4f", report.accuracy, report.cohens_kappa)
    return report, report_path


@dataclass(frozen=True)
class ReportBundle:
    eval: forest.EvalReport
    accuracy_vs_k: tuple[tuple[int, float, float], ...]
    importance_chart_data: tuple[tuple[str, float], ...]


def run_report(
    features_path, config: ExperimentConfig, out_dir, jobs: int = 1, quiet: bool = False
) -> ReportBundle:
    """Sweep class-count subsets and rank features; write plot-ready CSVs.

    The k-subset sweep takes the first k class names in sorted order, so
    adding classes only extends the sweep instead of reshuffling it. The
    last step, every class, reuses train's cv.json in out_dir when its key
    matches.
    """
    matrix, names, labels = io.read_features(features_path)
    matrix = np.asarray(matrix, dtype=float)
    class_names = sorted(set(labels))
    if len(class_names) < 2:
        raise ValidationError("reporting needs at least 2 classes")
    labels_arr = np.asarray(labels, dtype=object)
    out = Path(out_dir)
    reused = _reused_cv(features_path, config, out, len(class_names), len(names))
    fitted_steps = len(class_names) - 1 - (reused is not None)
    rows: list[tuple[int, float, float]] = []
    full_report: forest.EvalReport | None = None
    with _task_map(jobs, config.cv_folds + 1 if fitted_steps else 0) as map_fn:
        for k in range(2, len(class_names) + 1):
            subset = class_names[:k]
            mask = np.isin(labels_arr, subset)
            sub_labels = [label for label, keep in zip(labels, mask) if keep]
            data = dataset_from_features(matrix[mask], names, sub_labels)
            if k == len(class_names) and reused is not None:
                report = reused
            else:
                report = forest.cross_validate(
                    data, config.forest_params, k=config.cv_folds, seed=config.seed, map_fn=map_fn
                )
            baseline = forest.baseline_accuracy(data.labels)
            rows.append((k, float(report.accuracy), float(baseline)))
            full_report = report
            if not quiet:
                log.info("k=%d forest %.4f baseline %.4f", k, report.accuracy, baseline)
    ranked_idx = np.argsort(-full_report.importances, kind="stable")
    importance = tuple(
        (names[i], float(full_report.importances[i])) for i in ranked_idx
    )
    out.mkdir(parents=True, exist_ok=True)
    acc_lines = ["k,forest_accuracy,baseline_accuracy"]
    acc_lines += [f"{k},{repr(acc)},{repr(base)}" for k, acc, base in rows]
    io.atomic_write_text(out / "accuracy_vs_k.csv", "\n".join(acc_lines) + "\n")
    imp_lines = ["feature,importance"]
    imp_lines += [f"{name},{repr(value)}" for name, value in importance]
    io.atomic_write_text(out / "importance.csv", "\n".join(imp_lines) + "\n")
    io.atomic_write_json(out / "eval_report.json", full_report.to_dict())
    return ReportBundle(
        eval=full_report,
        accuracy_vs_k=tuple(rows),
        importance_chart_data=importance,
    )
