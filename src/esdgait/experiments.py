"""Config-driven experiment pipeline.

One JSON config file describes a synthetic cohort and modelling choices;
the functions here turn it into reproducible artifacts: a dataset manifest
of signal records, an MFCC feature table, a trained forest with its
cross-validation report, and plot-ready report CSVs. Every artifact is a
pure function of (config, seed), so reruns are byte-identical.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import hashlib
import itertools
import logging
import os
import pickle
import typing
from dataclasses import asdict, astuple, dataclass, field, replace
from io import BytesIO
from pathlib import Path

import numpy as np

from . import __version__, dsp, forest, io, legshake, simkit
from .errors import DegenerateSignalError, ValidationError, shown

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
        # the fastest step a plan can draw: the jittered frequency times the
        # largest mood factor; a plan draws its jitter below 1 + frequency_jitter
        jitter = 1.0 + self.frequency_jitter
        mood_factor = max(m.step_frequency_factor if m else 1.0 for m in moods.values())
        rise_time = simkit.FootstepShape().rise_time
        for pid, gait in self.persons.items():
            if gait.step_frequency * jitter > 10:
                raise ValidationError(
                    f"persons.{pid}.step_frequency: {gait.step_frequency} Hz with "
                    f"frequency_jitter {self.frequency_jitter} can reach "
                    f"{gait.step_frequency * jitter} Hz, above 10 Hz"
                )
            fastest = gait.step_frequency * jitter * mood_factor
            contact_len = gait.duty_cycle * 2.0 / fastest
            shortest = min(contact_len, 2.0 / fastest - contact_len)
            if rise_time >= shortest:
                raise ValidationError(
                    f"persons.{pid}.duty_cycle: {gait.duty_cycle} leaves a {shortest:.4g} s "
                    f"contact or airborne phase at the cohort's fastest step, {fastest:.4g} Hz, "
                    f"not longer than the {rise_time} s rise time"
                )


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
        if not all(3.0 <= f <= 10.0 for f in self.shake_frequencies):
            raise ValidationError("shake_frequencies must lie in [3, 10] Hz")
        if min(self.onsets) < 0:
            raise ValidationError("onsets must be >= 0")
        if round(self.duration * simkit.SAMPLE_RATE) < 3:
            raise ValidationError("duration must span at least 3 samples")
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
            raise ValidationError(f"task must be one of {TASKS}, got {shown(self.task)}")
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
    """The config in the file at `path`, with `seed_override` for its seed
    when given; every error starts with the path."""
    raw = io.read_json(path)
    if seed_override is not None and isinstance(raw, dict):
        raw["seed"] = seed_override
    try:
        return ExperimentConfig.from_dict(raw)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


_SHARED: tuple = ()  # in a pool worker: the tables its command shares, set by _share


def _share(tables: tuple) -> None:
    """A pool worker's initializer: keep the tables the command shares."""
    global _SHARED
    _SHARED = tables


def _unpickled_call(fn, blob: bytes):
    """A pooled task whose arguments _task_map pickled: each shared table in
    them is this worker's copy, so tasks that name one table still share it."""
    unpickler = pickle.Unpickler(BytesIO(blob))
    unpickler.persistent_load = _SHARED.__getitem__
    return fn(*unpickler.load())


@contextlib.contextmanager
def _task_map(jobs: int, shared: tuple = ()):
    """The map a command opens once and hands to every step. The first map
    whose pool would have min(jobs, its tasks, usable CPUs) >= 2 workers
    opens that process pool, and every later map uses it; until then the
    tasks run here. Results come back in task order, so they are the same
    at any jobs value. A pooled map splits its tasks into about eight chunks
    per worker, one task per chunk when there are fewer: few messages for
    quick tasks such as one record, and a forest's runs of trees in turn.

    `shared` holds the tables that the command's tasks name, such as a
    feature table. Each pool worker gets them once, from the pool's
    initializer, and a pooled task that names one carries only its index.
    """
    with contextlib.ExitStack() as stack:
        pool, workers = None, 0
        index = {id(table): i for i, table in enumerate(shared)}

        def task_map(fn, *iterables):
            nonlocal pool, workers
            tasks = list(zip(*iterables))
            if pool is None:
                # only Linux says which CPUs this process may use
                affinity = getattr(os, "sched_getaffinity", None)
                cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
                workers = min(jobs, len(tasks), cpus)
                if workers < 2:
                    return itertools.starmap(fn, tasks)
                pool = concurrent.futures.ProcessPoolExecutor(
                    max_workers=workers, initializer=_share, initargs=(shared,)
                )
                stack.callback(pool.shutdown, cancel_futures=True)  # queued tasks never start
            if shared:  # pickle each task here, with each shared table as its index
                blobs = []
                for task in tasks:
                    buffer = BytesIO()
                    pickler = pickle.Pickler(buffer, pickle.HIGHEST_PROTOCOL)
                    pickler.persistent_id = lambda obj: index.get(id(obj))
                    pickler.dump(task)
                    blobs.append((fn, buffer.getvalue()))
                fn, tasks = _unpickled_call, blobs
            import signal  # as the pool code does: a command that opens no pool loads neither
            chunksize = max(1, -(-len(tasks) // (8 * workers)))
            # workers (forked or spawned) and pool threads started in a map keep this mask:
            # SIGINT reaches this thread alone
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                return pool.map(fn, *zip(*tasks), chunksize=chunksize)
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)

        yield task_map


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
                )
            )
            index += 1
    reference_std = 0.0
    if cohort.noise_only:  # noise level of a mid-band shake at the earliest onset
        onset = float(min(cohort.onsets))
        clean = _clean_shake(float(np.mean(cohort.shake_frequencies)), onset, cohort.duration)
        reference_std = _snr_noise_std(clean, onset, cohort.snr_db)
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


def _clean_shake(freq: float, onset: float, duration: float) -> simkit.SignalRecord:
    """The noise-free record of a shake at `freq` from `onset`: the
    waveform that every record of its cell shares."""
    return simkit.synth_legshake(freq, duration, onset, WALK_CAPACITANCE, ELECTRODE)


def _snr_noise_std(clean: simkit.SignalRecord, onset: float, snr_db: float) -> float:
    """Noise std putting a clean shake's post-onset RMS at snr_db above it."""
    post = clean.samples[int(onset * clean.sample_rate):]
    return float(np.sqrt(np.mean(post**2))) / (10.0 ** (snr_db / 20.0))


def _walk_path(plan: WalkPlan) -> tuple[simkit.Trajectory, float]:
    """The trajectory and duration of `plan`'s straight walk."""
    return simkit.straight_walk(
        plan.gait, plan.mood_profile, plan.start_distance, plan.end_distance
    )


def _clean_record(plan) -> simkit.SignalRecord:
    """The noise-free record of `plan`, labelled with what its physics knows."""
    if isinstance(plan, WalkPlan):
        traj, duration = _walk_path(plan)
        return simkit.synth_walk(
            plan.gait, plan.mood_profile, traj, WALK_CAPACITANCE, ELECTRODE, duration,
            schedule_phase=plan.schedule_phase,
        )
    if isinstance(plan, ShakePlan):
        return _clean_shake(plan.shake_frequency, plan.onset, plan.duration)
    if isinstance(plan, NoisePlan):
        n = int(round(plan.duration * simkit.SAMPLE_RATE)) - 2
        labels = {**simkit.DEFAULT_LABELS, "activity": "noise"}
        return simkit.SignalRecord(np.zeros(n), simkit.SAMPLE_RATE, labels)
    raise ValidationError(f"unknown plan type: {type(plan).__name__}")


def _plan_labels(plan, noise_std: float) -> dict:
    """The labels the cohort gives `plan`'s record beyond its physics: who
    walked where, and the parameters it was generated from."""
    if isinstance(plan, WalkPlan):
        gait, mood = plan.gait, plan.mood_profile or MoodFactors()
        return {
            "person_id": plan.person_id,
            "mood": plan.mood,
            "plant_type": plan.plant_type,
            "location": plan.location,
            "generator_params": {
                "step_frequency": gait.step_frequency,
                "walking_speed": gait.walking_speed,
                "duty_cycle": gait.duty_cycle,
                "vertical_amplitude": gait.vertical_amplitude,
                "speed_factor": mood.speed_factor,
                "amplitude_factor": mood.amplitude_factor,
                "step_frequency_factor": mood.step_frequency_factor,
                "start_distance": plan.start_distance,
                "end_distance": plan.end_distance,
                "schedule_phase": plan.schedule_phase,
                "duration": _walk_path(plan)[1],  # straight_walk's, not the sample count's
                "noise_std": noise_std,
            },
        }
    params = {"duration": plan.duration, "noise_std": noise_std}
    if isinstance(plan, ShakePlan):
        params.update(shake_frequency=plan.shake_frequency, onset=plan.onset, snr_db=plan.snr_db)
    return {"generator_params": params}


def _record(plan, clean: simkit.SignalRecord) -> simkit.SignalRecord:
    """`plan`'s record from its noise-free record `clean`, by one rule for
    every plan: noise of the plan's std (a shake's from its SNR) under its
    seed, and the plan's labels over the physics' ones."""
    if isinstance(plan, ShakePlan):
        std = 0.0 if plan.snr_db is None else _snr_noise_std(clean, plan.onset, plan.snr_db)
    else:
        std = plan.noise_std
    return simkit.SignalRecord(
        samples=simkit.add_noise(clean.samples, std, plan.noise_seed),
        sample_rate=clean.sample_rate,
        labels={**clean.labels, **_plan_labels(plan, std), "seed": plan.noise_seed},
    )


def synthesize_record(plan) -> simkit.SignalRecord:
    """`plan`'s whole record, its noise-free waveform synthesized for it alone."""
    return _record(plan, _clean_record(plan))


def _cell(plan):
    """The key run_simulate groups consecutive plans by into one task: what
    a shake cell's records share (waveform and noise level), or the plan's
    own index for any other plan, which is then a task alone."""
    if isinstance(plan, ShakePlan):
        return (plan.shake_frequency, plan.onset, plan.duration, plan.snr_db)
    return plan.index


def _simulate_task(plans: tuple, out: Path) -> list[dict]:
    """Synthesize and write the records of one task, a walk or noise plan
    alone or the plans of one shake cell; returns their manifest entries.
    A cell's records share one clean waveform, dropped when the task ends."""
    first = plans[0]
    clean = _clean_record(first) if isinstance(first, ShakePlan) else None
    entries = []
    for plan in plans:
        stem = f"rec_{plan.index:04d}"
        entry = {"signal_path": f"records/{stem}.sig.csv", "meta_path": f"records/{stem}.meta.json"}
        record = synthesize_record(plan) if clean is None else _record(plan, clean)
        io.write_record(record, out / entry["signal_path"], out / entry["meta_path"])
        entries.append(entry)
    return entries


def run_simulate(config: ExperimentConfig, out_dir, jobs: int = 1) -> Path:
    """Synthesize the cohort and write records plus dataset.json manifest."""
    tasks = [tuple(cell) for _, cell in itertools.groupby(build_plans(config), _cell)]
    out = Path(out_dir)
    (out / "records").mkdir(parents=True, exist_ok=True)
    with _task_map(jobs) as map_fn:
        entries = list(itertools.chain.from_iterable(
            map_fn(_simulate_task, tasks, itertools.repeat(out))
        ))
    manifest_path = out / "dataset.json"
    io.write_manifest(manifest_path, entries)
    log.info("wrote %d records and %s", len(entries), manifest_path)
    return manifest_path


# ---------------------------------------------------------------------------
# featurization


class _Scan(typing.NamedTuple):
    """What featurize keeps of a record between its two reads. The samples
    stay in the scan's task."""

    size: int
    rate: float
    labels: dict
    stamp: io.Stamp | None  # lets the second read skip hashing an unchanged sidecar


def _scan_task(signal_path, meta_path) -> _Scan:
    samples, stamp = io.read_signal(signal_path)
    return _Scan(samples.size, *io.read_meta(meta_path), stamp)


def _featurize_task(
    signal_path, meta_path, scan: _Scan, length: int, mfcc: dsp.MfccConfig, codes: np.ndarray
):
    """Read one record again, trim it to `length` and return its feature
    values with its categorical `codes` appended, or the
    DegenerateSignalError rejecting it."""
    record = io.read_record(signal_path, meta_path, scan.stamp)
    # repr, so that a NaN in the labels equals itself
    if repr((record.samples.size, record.sample_rate, record.labels)) != repr(scan[:3]):
        raise ValidationError(f"{signal_path}: changed while featurize read it")
    try:
        values = dsp.featurize(dsp.trim_to_length(record.samples, length), mfcc)
    except DegenerateSignalError as exc:
        return exc.with_traceback(None)  # its frames would keep the samples alive
    return np.concatenate([values, codes])


def run_featurize(
    manifest_path, config: ExperimentConfig, out_dir, jobs: int = 1
) -> tuple[Path, list[dict]]:
    """Extract one feature row per record; returns (features path, rejects).

    Two passes of per-record tasks, so no process holds more than one
    record's samples and no samples cross the pool: a scan gives each
    record's length, rate and labels, then each record is read again,
    trimmed to the shortest length and featurized. The second read hashes
    no sidecar the scan verified and that has not changed since
    (`io.open_signal`). The categorical codes
    are computed here, from every scanned record's labels, and each task
    appends its own record's row.
    """
    entries = io.read_manifest(manifest_path)
    if not entries:
        raise ValidationError("manifest lists no records")
    signal_paths = [e["signal_path"] for e in entries]
    meta_paths = [e["meta_path"] for e in entries]
    try:  # the MFCC plan the records share lives only as long as this command
        with _task_map(jobs) as map_fn:
            scans = list(map_fn(_scan_task, signal_paths, meta_paths))
            rates = {scan.rate for scan in scans}
            if len(rates) != 1:
                raise ValidationError(f"records mix sample rates: {sorted(rates)}")
            if rates != {config.mfcc.sample_rate}:
                raise ValidationError(
                    f"records are sampled at {rates.pop()} Hz but mfcc.sample_rate is "
                    f"{config.mfcc.sample_rate} Hz"
                )
            sizes = [scan.size for scan in scans]
            length = min(sizes)
            if length < config.mfcc.window_size:
                raise ValidationError(
                    f"{signal_paths[sizes.index(length)]}: {length} samples, "
                    f"shorter than one mfcc window ({config.mfcc.window_size})"
                )
            label_key = TASK_LABEL_KEY[config.task]
            codes = np.empty((len(scans), 0))
            if config.include_categoricals:
                codes = dsp.category_codes([scan.labels for scan in scans])
            rows: list[np.ndarray] = []
            labels: list[str] = []
            rejects: list[dict] = []
            vectors = map_fn(
                _featurize_task,
                signal_paths,
                meta_paths,
                scans,
                itertools.repeat(length),
                itertools.repeat(config.mfcc),
                codes,
            )
            for entry, scan, vector in zip(entries, scans, vectors):
                if isinstance(vector, DegenerateSignalError):
                    rejects.append({"signal_path": str(entry["signal_path"]), "reason": str(vector)})
                    continue
                label = scan.labels.get(label_key)
                if label is None:
                    raise ValidationError(
                        f"record {entry['signal_path']} has no {label_key} label for task {config.task}"
                    )
                rows.append(vector)
                labels.append(str(label))
    finally:
        dsp._mfcc_plan.cache_clear()
    if not rows:
        raise ValidationError("every record was rejected as degenerate")
    if rejects:
        log.info("excluded %d degenerate record(s)", len(rejects))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    features_path = out / "features.csv"
    frames = dsp.frame_count(length, config.mfcc)
    names = dsp.feature_names_for(config.mfcc, frames)
    if config.include_categoricals:
        names += dsp.CATEGORICAL_FIELDS
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


def _cv_key(features_path, config: ExperimentConfig) -> dict:
    """Everything a cross-validation of a whole feature table depends on."""
    digest = hashlib.sha256()
    with open(features_path, "rb") as fh:
        for block in io.file_blocks(fh):  # not the whole table at once
            digest.update(block)
    key = {
        "features_sha256": digest.hexdigest(),
        "forest": config.forest_params.to_dict(),
        "cv_folds": config.cv_folds,
        "seed": config.seed,
        "esdgait_version": __version__,
    }
    if config.search is not None:
        key["search"] = asdict(config.search)
    return key


def _cv(features_path, data: forest.Dataset, config: ExperimentConfig, record, map_fn):
    """The config's CV of the whole table as (report, model, trials).

    The report is the one in `record` (a cv.json, or None to skip it), with
    model and trials None, when the record's key equals _cv_key of these
    inputs and its report decodes, at this table's shape, to exactly the
    stored document. Otherwise it is forest.cross_validate on the forest
    section, or for a config with a search, the search winner's CV and the
    search's trials."""
    with contextlib.suppress(OSError, ValidationError):
        stored = None if record is None else io.read_json(record)
        if isinstance(stored, dict) and stored.get("key") == _cv_key(features_path, config):
            report = forest.EvalReport.from_dict(stored.get("report"))
            n, d = data.n_classes, len(data.feature_names)
            if (report.confusion_matrix.shape, report.importances.shape) == ((n, n), (d,)):
                return report, None, None
    params, k = config.forest_params, config.cv_folds
    if config.search is None:
        return *forest.cross_validate(data, params, k, map_fn), None
    report, model, trials = forest.randomized_search(
        data, params, config.search.space, config.search.n_iter, k, map_fn
    )
    log.info("search picked %s", replace(model.params, seed=params.seed))
    return report, model, trials


def run_train(
    features_path, config: ExperimentConfig, out_dir, jobs: int = 1
) -> tuple[forest.EvalReport, Path, Path]:
    """Cross-validate, fit on all rows, persist model.rfj + eval_report.json,
    and record the CV with its inputs' key in cv.json."""
    matrix, names, labels = io.read_features(features_path)
    data = dataset_from_features(matrix, names, labels)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with _task_map(jobs, (data,)) as map_fn:
        report, model, trials = _cv(features_path, data, config, None, map_fn)
    if trials is not None:
        io.atomic_write_json(out / "search_trials.json", trials)
    model_path = out / "model.rfj"
    forest.save_model(model, model_path, mfcc_fingerprint=_stored_fingerprint(features_path, config))
    report_path = out / "eval_report.json"
    io.atomic_write_json(report_path, report.to_dict())
    record = {"key": _cv_key(features_path, config), "report": report.to_dict()}
    io.atomic_write_json(out / CV_RECORD, record)
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
) -> tuple[forest.EvalReport, Path]:
    """Evaluate on a feature table.

    holdout=True: stratified 80/20 split, fit one forest of the forest
    section, never a search winner, on the large part (in this process, at
    any jobs), score the small part. model_path: score an existing model on
    these rows. Neither: the config's cross-validation (run_train's report,
    nothing persisted but the report), reused from train's cv.json in
    out_dir when its key matches.
    """
    matrix, names, labels = io.read_features(features_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if holdout and model_path is not None:
        raise ValidationError("holdout retrains from scratch; drop the model path")
    if holdout:
        data = dataset_from_features(matrix, names, labels)
        report = forest.holdout_validate(data, config.forest_params)
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
        with _task_map(jobs, (data,)) as map_fn:
            report, _, _ = _cv(features_path, data, config, out / CV_RECORD, map_fn)
    report_path = out / "eval_report.json"
    io.atomic_write_json(report_path, report.to_dict())
    log.info("accuracy %.4f, kappa %.4f", report.accuracy, report.cohens_kappa)
    return report, report_path


def run_report(features_path, config: ExperimentConfig, out_dir, jobs: int = 1) -> None:
    """Sweep class-count subsets and rank features; write plot-ready CSVs.

    The k-subset sweep takes the first k class names in sorted order, so
    adding classes only extends the sweep instead of reshuffling it. The
    steps below every class cross-validate the forest section, never a
    search winner, and need only their pooled accuracy, so no full-data
    forest grows for them. The last step, every class, is the config's
    cross-validation, run_train's report, reused from train's cv.json in
    out_dir when its key matches.
    """
    matrix, names, labels = io.read_features(features_path)
    matrix = np.asarray(matrix, dtype=float)
    class_names = sorted(set(labels))
    if len(class_names) < 2:
        raise ValidationError("reporting needs at least 2 classes")
    labels_arr = np.asarray(labels, dtype=object)
    out = Path(out_dir)
    masks = [np.isin(labels_arr, class_names[:k]) for k in range(2, len(class_names) + 1)]
    *sweep, data = [dataset_from_features(matrix[m], names, list(labels_arr[m])) for m in masks]
    plans = [forest.cv_plan(s, config.forest_params, config.cv_folds) for s in sweep]
    with _task_map(jobs, (*sweep, data)) as map_fn:
        full_report, _, _ = _cv(features_path, data, config, out / CV_RECORD, map_fn)
        grown = iter(forest.grow([fit for _, fits in plans for fit in fits[1:]], map_fn))
    accuracies = [
        float(np.mean(np.argmax(forest.pooled(step, folds, grown), axis=1) == step.labels))
        for step, (folds, _) in zip(sweep, plans)
    ]
    acc_lines = ["k,forest_accuracy,baseline_accuracy"]
    for step, accuracy in zip([*sweep, data], [*accuracies, full_report.accuracy]):
        baseline = forest.baseline_accuracy(step.labels)
        acc_lines.append(f"{step.n_classes},{accuracy!r},{baseline!r}")
        log.info("k=%d forest %.4f baseline %.4f", step.n_classes, accuracy, baseline)
    ranked = np.argsort(-full_report.importances, kind="stable")
    out.mkdir(parents=True, exist_ok=True)
    io.atomic_write_text(out / "accuracy_vs_k.csv", "\n".join(acc_lines) + "\n")
    imp_lines = ["feature,importance"]
    imp_lines += [f"{names[i]},{float(full_report.importances[i])!r}" for i in ranked]
    io.atomic_write_text(out / "importance.csv", "\n".join(imp_lines) + "\n")
    io.atomic_write_json(out / "eval_report.json", full_report.to_dict())
