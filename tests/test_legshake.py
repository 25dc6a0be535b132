"""Leg-shake detector tests: window scoring, hysteresis, streaming."""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from esdgait import experiments, legshake
from esdgait.errors import StreamError, ValidationError
from esdgait.io import from_json, read_manifest, read_record
from esdgait.legshake import (
    DetectorConfig,
    ShakeDetector,
    ShakeEvent,
    band_ratio,
)
from esdgait.simkit import (
    SAMPLE_RATE,
    CapacitanceModel,
    ElectrodeModel,
    add_noise,
    synth_legshake,
)
from reference import detect_stream

SR = int(SAMPLE_RATE)
CAP = CapacitanceModel()
ELECTRODE = ElectrodeModel()


def tone_window(freq: float, config: DetectorConfig, amplitude: float = 1.0) -> np.ndarray:
    n = config.window_samples
    t = np.arange(n) / config.sample_rate
    return amplitude * np.sin(2.0 * math.pi * freq * t)


def shake_record(freq: float, onset: float, duration: float = 8.0,
                 snr_db: float | None = None, seed: int = 0) -> np.ndarray:
    """Synthesized shake; snr_db=None means noiseless."""
    clean = synth_legshake(freq, duration, onset, CAP, ELECTRODE)
    if snr_db is None:
        return clean.samples
    post = clean.samples[int(onset * SR):]
    rms = float(np.sqrt(np.mean(post**2)))
    return add_noise(clean.samples, rms / (10.0 ** (snr_db / 20.0)), seed)


class TestDetectorConfig:
    def test_defaults_valid(self):
        cfg = DetectorConfig()
        assert cfg.window_samples == 10_000
        assert cfg.hop_samples == 2_500

    @pytest.mark.parametrize(
        "overrides",
        [
            {"sample_rate": 0.0},
            {"sample_rate": -100.0},
            {"hop_seconds": 0.0},
            {"hop_seconds": 1.5},  # hop beyond the window
            {"band_low": 6.0},  # band_low above peak_target_low
            {"peak_target_low": 6.5},  # crosses peak_target_high
            {"peak_target_high": 9.0},  # above band_high
            {"band_high": 5_000.0},  # at Nyquist
            {"ratio_threshold": 0.0},
            {"ratio_threshold": 1.0},
            {"min_consecutive_windows": 0},
            {"release_windows": 0},
            {"window_seconds": 0.0001},  # too few samples
        ],
    )
    def test_invalid_fields_rejected(self, overrides):
        with pytest.raises(ValidationError):
            DetectorConfig(**overrides)

    def test_dict_roundtrip(self):
        cfg = DetectorConfig(ratio_threshold=0.4, release_windows=3)
        assert from_json(DetectorConfig, dataclasses.asdict(cfg), "detector") == cfg

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValidationError, match="detector.window_length: unknown key"):
            from_json(DetectorConfig, {"window_length": 1.0}, "detector")


class TestBandRatio:
    def test_in_band_tone_scores_high(self):
        cfg = DetectorConfig()
        ratio, peak = band_ratio(tone_window(5.5, cfg), cfg)
        assert ratio > 0.99
        assert peak == pytest.approx(5.5, abs=0.1)

    def test_out_of_band_tone_scores_low(self):
        cfg = DetectorConfig()
        ratio, _ = band_ratio(tone_window(50.0, cfg), cfg)
        assert ratio < 0.05

    def test_band_edges_included(self):
        cfg = DetectorConfig()
        for freq in (4.0, 8.0):
            ratio, _ = band_ratio(tone_window(freq, cfg), cfg)
            assert ratio > 0.5

    def test_zero_variance_window(self):
        cfg = DetectorConfig()
        ratio, peak = band_ratio(np.full(cfg.window_samples, 3.7), cfg)
        assert ratio == 0.0
        assert math.isnan(peak)

    @pytest.mark.parametrize("constant, odd, position, expected", [
        (1.0, np.nextafter(1.0, 2.0), 1, (0.001, 5.0)),
        (1.0, np.nextafter(1.0, 2.0), 5000, (0.001, 4.0)),
        (-3.5, np.nextafter(-3.5, -4.0), 5000, (0.001, 4.0)),
        (1.0, np.nextafter(1.0, 2.0), 0, (0.0, math.nan)),  # under the taper's zero
        # windows whose power would underflow are scored scaled by a power of
        # two: the impulse in bins 4-8, and the Hann window's leakage of the
        # removed mean, which the unit-scale windows above rounded away
        (0.0, 5e-324, 5000, (pytest.approx(1.0000865e-3, rel=1e-6), pytest.approx(5.106668))),
        (0.0, -(2.0**-1050), 1, (pytest.approx(2.807686e-10, rel=1e-6), 4.5)),
        (2.0**-1060, np.nextafter(2.0**-1060, 1.0), 5000,
         (pytest.approx(1.0000865e-3, rel=1e-6), pytest.approx(5.106668))),
    ])
    def test_a_constant_with_one_nearest_sample(self, constant, odd, position, expected):
        """The smallest non-constant windows: the mean-removed window is
        never all zero."""
        cfg = DetectorConfig()
        window = np.full(cfg.window_samples, constant)
        window[position] = odd
        ratio, peak = band_ratio(window, cfg)
        assert ratio == expected[0]
        assert peak == expected[1] or math.isnan(peak) and math.isnan(expected[1])

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(-900, 1000))
    def test_a_power_of_two_scale_keeps_the_score(self, seed, k):
        """The ratio is the same bit for bit at any scale, and the peak to a
        few ulps, also where the power of the unscaled window would overflow
        or underflow."""
        cfg = DetectorConfig()
        window = tone_window(5.5, cfg) + np.random.default_rng(seed).normal(size=cfg.window_samples)
        ratio, peak = band_ratio(window, cfg)
        scaled_ratio, scaled_peak = band_ratio(np.ldexp(window, k), cfg)
        assert scaled_ratio == ratio
        assert scaled_peak == pytest.approx(peak, rel=1e-14)

    def test_dc_offset_ignored(self):
        cfg = DetectorConfig()
        window = tone_window(5.5, cfg)
        ratio_a, peak_a = band_ratio(window, cfg)
        ratio_b, peak_b = band_ratio(window + 250.0, cfg)
        assert ratio_b == pytest.approx(ratio_a, rel=1e-9)
        assert peak_b == pytest.approx(peak_a, abs=1e-6)

    def test_wrong_length_rejected(self):
        cfg = DetectorConfig()
        with pytest.raises(ValidationError):
            band_ratio(np.zeros(cfg.window_samples - 1), cfg)

    def test_nonfinite_rejected(self):
        cfg = DetectorConfig()
        window = tone_window(5.5, cfg)
        window[100] = np.nan
        with pytest.raises(ValidationError):
            band_ratio(window, cfg)

    def test_peak_tracks_frequency_across_band(self):
        cfg = DetectorConfig()
        for freq in np.arange(4.5, 7.51, 0.5):
            _, peak = band_ratio(tone_window(float(freq), cfg), cfg)
            assert peak == pytest.approx(freq, abs=0.1)

    def test_noisy_tone_usually_clears_threshold(self):
        # 10 dB SNR: in-band power is ten times the noise power, so the
        # in-band fraction concentrates well above one half
        cfg = DetectorConfig()
        window = tone_window(5.5, cfg)
        rms = float(np.sqrt(np.mean(window**2)))
        noise_std = rms / math.sqrt(10.0)
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            noisy = window + rng.normal(0.0, noise_std, window.size)
            ratio, _ = band_ratio(noisy, cfg)
            if ratio >= cfg.ratio_threshold:
                hits += 1
        assert hits >= 95

    def test_noise_only_scores_low(self):
        cfg = DetectorConfig()
        for seed in range(20):
            rng = np.random.default_rng(seed)
            ratio, _ = band_ratio(rng.normal(size=cfg.window_samples), cfg)
            assert ratio < cfg.ratio_threshold


class TestDetection:
    def test_onset_noiseless(self):
        events = detect_stream([shake_record(5.5, onset=2.0)], DetectorConfig())
        assert len(events) == 1
        event = events[0]
        assert abs(event.onset - 2.0) <= 0.25
        assert event.offset is None  # shake runs to the end of the record
        assert 5.0 <= event.peak_frequency <= 6.0
        assert event.mean_band_ratio >= 0.5

    @pytest.mark.parametrize("freq", [5.0, 5.3, 5.7, 6.0])
    def test_onset_noiseless_across_band(self, freq):
        events = detect_stream([shake_record(freq, onset=2.0)], DetectorConfig())
        assert len(events) == 1
        assert abs(events[0].onset - 2.0) <= 0.25

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_onset_at_ten_db(self, seed):
        samples = shake_record(5.4, onset=2.0, snr_db=10.0, seed=seed)
        events = detect_stream([samples], DetectorConfig())
        assert len(events) == 1
        assert abs(events[0].onset - 2.0) <= 0.25

    def test_noise_only_never_fires(self):
        cfg = DetectorConfig()
        total = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            total += len(detect_stream([rng.normal(size=8 * SR)], cfg))
        assert total == 0

    def test_out_of_target_tone_never_fires(self):
        # strong 4.5 Hz tone passes the power gate but sits outside the
        # 5-6 Hz peak target, so no event may open
        cfg = DetectorConfig()
        t = np.arange(8 * SR) / SR
        tone = np.sin(2.0 * math.pi * 4.5 * t)
        assert detect_stream([tone], cfg) == []

    def test_burst_produces_single_bounded_event(self):
        cfg = DetectorConfig()
        base = shake_record(5.5, onset=2.0)
        rms = float(np.sqrt(np.mean(base[2 * SR:] ** 2)))
        for seed in range(3):
            rng = np.random.default_rng(seed)
            sig = base + rng.normal(0.0, rms / math.sqrt(10.0), base.size)
            sig[5 * SR:] = rng.normal(0.0, rms / math.sqrt(10.0), sig.size - 5 * SR)
            events = detect_stream([sig], cfg)
            assert len(events) == 1
            event = events[0]
            assert abs(event.onset - 2.0) <= 0.25
            assert event.offset is not None
            assert 5.0 <= event.offset <= 5.6
            assert event.offset - event.onset >= 3 * cfg.hop_seconds

    def test_two_bursts_two_events(self):
        cfg = DetectorConfig()
        rng = np.random.default_rng(11)
        t = np.arange(16 * SR) / SR
        tone = np.sin(2.0 * math.pi * 5.5 * t)
        gate = ((t >= 2.0) & (t < 5.0)) | ((t >= 10.0) & (t < 13.0))
        sig = tone * gate + rng.normal(0.0, 0.1, t.size)
        events = detect_stream([sig], cfg)
        assert len(events) == 2
        assert abs(events[0].onset - 2.0) <= 0.25
        assert abs(events[1].onset - 10.0) <= 0.25
        assert events[0].offset is not None and events[1].offset is not None
        assert events[0].offset < events[1].onset


class TestStreaming:
    def test_chunking_invariance(self):
        cfg = DetectorConfig()
        samples = shake_record(5.6, onset=2.0, snr_db=10.0, seed=5)

        def run(chunks) -> list[tuple]:
            return [
                (e.onset, e.offset, e.peak_frequency, e.mean_band_ratio)
                for e in detect_stream(chunks, cfg)
            ]

        whole = run([samples])
        assert whole == run(np.array_split(samples, 80))
        rng = np.random.default_rng(0)
        cuts = np.sort(rng.choice(samples.size - 1, size=37, replace=False) + 1)
        assert whole == run(np.split(samples, cuts))
        assert whole == run(list(samples.reshape(6, -1)))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        st.sampled_from([(5.6, 2.0, 10.0), (5.2, 1.0, 3.0), (5.8, 3.5, None)]),
        st.lists(st.integers(1, 8 * SR - 1), max_size=40, unique=True),
    )
    def test_events_do_not_depend_on_chunking(self, shake, cuts):
        freq, onset, snr_db = shake
        samples = shake_record(freq, onset=onset, snr_db=snr_db, seed=3)
        samples[6 * SR :] = samples[: samples.size - 6 * SR]  # quiet tail: the event closes

        def run(chunks) -> tuple[list, list]:
            detector = ShakeDetector(DetectorConfig())
            opened = [e.onset for chunk in chunks for e in detector.push(chunk)]
            fields = [(e.onset, e.offset, e.peak_frequency, e.mean_band_ratio) for e in detector.events]
            return opened, fields

        assert run(np.split(samples, sorted(cuts))) == run([samples])

    def test_open_events_reported_immediately(self):
        cfg = DetectorConfig()
        samples = shake_record(5.5, onset=2.0)
        detector = ShakeDetector(cfg)
        hop = cfg.hop_samples
        opened_at = None
        for k in range(0, samples.size - hop + 1, hop):
            opened = detector.push(samples[k : k + hop])
            if opened:
                opened_at = (k + hop) / SR
                assert opened[0].offset is None
                break
        assert opened_at is not None
        latency = opened_at - detector.events[0].onset
        assert latency <= cfg.window_seconds + cfg.min_consecutive_windows * cfg.hop_seconds + 1e-9

    def test_latency_bound_with_leading_low_tone(self):
        # a long 4.6 Hz lead-in keeps the power gate satisfied while the
        # peak gate fails; the reported onset must still stay within the
        # latency bound of the moment the event opens
        cfg = DetectorConfig()
        rng = np.random.default_rng(3)
        freq = np.where(np.arange(20 * SR) < 12 * SR, 4.6, 5.5)
        phase = np.cumsum(2.0 * math.pi * freq / SR)
        sig = np.sin(phase) + rng.normal(0.0, 0.05, freq.size)
        detector = ShakeDetector(cfg)
        hop = cfg.hop_samples
        bound = cfg.window_seconds + cfg.min_consecutive_windows * cfg.hop_seconds
        fired = False
        for k in range(0, sig.size - hop + 1, hop):
            opened = detector.push(sig[k : k + hop])
            if opened:
                fired = True
                assert (k + hop) / SR - opened[0].onset <= bound + 1e-9
                break
        assert fired

    def test_events_never_overlap_and_never_short(self):
        cfg = DetectorConfig()
        t = np.arange(30 * SR) / SR
        tone = np.sin(2.0 * math.pi * 5.5 * t)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            gate = np.zeros(t.size, dtype=bool)
            cursor = 1.0
            while cursor < 27.0:
                burst = float(rng.uniform(0.3, 4.0))
                gap = float(rng.uniform(1.5, 4.0))
                gate |= (t >= cursor) & (t < cursor + burst)
                cursor += burst + gap
            sig = tone * gate + rng.normal(0.0, 0.15, t.size)
            events = detect_stream([sig], cfg)
            previous_offset = -math.inf
            for event in events:
                assert event.onset > previous_offset
                if event.offset is None:
                    continue
                assert event.offset - event.onset >= 3 * cfg.hop_seconds - 1e-9
                previous_offset = event.offset

    def test_start_time_gap_rejected(self):
        detector = ShakeDetector(DetectorConfig())
        detector.push(np.zeros(1000), start_time=0.0)
        with pytest.raises(StreamError):
            detector.push(np.zeros(1000), start_time=0.2)

    def test_start_time_overlap_rejected(self):
        detector = ShakeDetector(DetectorConfig())
        detector.push(np.zeros(1000), start_time=0.0)
        with pytest.raises(StreamError):
            detector.push(np.zeros(1000), start_time=0.05)

    def test_contiguous_start_times_accepted(self):
        cfg = DetectorConfig()
        samples = shake_record(5.5, onset=2.0)
        detector = ShakeDetector(cfg)
        hop = cfg.hop_samples
        for k in range(0, samples.size - hop + 1, hop):
            detector.push(samples[k : k + hop], start_time=k / SR)
        assert len(detector.events) == 1

    def test_nonfinite_chunk_rejected(self):
        detector = ShakeDetector(DetectorConfig())
        with pytest.raises(ValidationError):
            detector.push(np.array([1.0, np.inf, 0.0]))

    def test_event_to_dict_fields(self):
        event = ShakeEvent(onset=1.0, offset=None, peak_frequency=5.5, mean_band_ratio=0.9)
        assert event.to_dict() == {
            "onset": 1.0,
            "offset": None,
            "peak_frequency": 5.5,
            "mean_band_ratio": 0.9,
        }

    def test_stamp_back_constant_is_sane(self):
        # the stamp must land inside its window for hysteresis bookkeeping
        assert 1.0 <= legshake._STAMP_BACK_HOPS <= DetectorConfig().window_seconds / DetectorConfig().hop_seconds


# ------------------------------------------------- hysteresis, window by window

# scripted window scores, (ratio, peak): the default gates pass a ratio of at
# least 0.5 with a peak in 5-6 Hz; every sum and mean below is exact in binary
OFF_PEAK = (0.875, 4.5)  # passes the ratio gate only
MISS = (0.25, 5.5)  # fails the ratio gate, its peak on target


def stamp(window_index: int) -> float:
    """The time of a window of the scripted detector: 100 Hz, so windows of
    100 samples every 25, each stamped 1.6 hops before its end."""
    return (window_index * 25 + 100 - 40) / 100


def scripted_events(monkeypatch, scores, **overrides) -> list[tuple]:
    """The events, as (onset, offset, peak_frequency, mean_band_ratio), of a
    detector whose k-th window band_ratio scores as scores[k]."""
    config = DetectorConfig(sample_rate=100.0, **overrides)
    script = iter(scores)
    monkeypatch.setattr(legshake, "band_ratio", lambda window, cfg: next(script))
    detector = ShakeDetector(config)
    detector.push(np.zeros(config.window_samples + (len(scores) - 1) * config.hop_samples))
    assert next(script, None) is None  # every scripted window was scored
    return [dataclasses.astuple(event) for event in detector.events]


class TestHysteresis:
    """The state machine alone, on scripted window scores."""

    def test_an_event_opens_on_its_third_passing_window_with_the_run_means(self, monkeypatch):
        scores = [(0.5, 5.0), (0.75, 5.5), (1.0, 6.0)]
        assert scripted_events(monkeypatch, scores[:2]) == []
        assert scripted_events(monkeypatch, scores) == [(stamp(0), None, 5.5, 0.75)]

    def test_an_open_event_averages_in_band_windows_from_the_run_length_on(self, monkeypatch):
        # the fourth window counts as the fourth in the means, whatever its peak
        scores = [(0.5, 5.0), (0.75, 5.5), (1.0, 6.0), (0.5, 4.5)]
        assert scripted_events(monkeypatch, scores) == [(stamp(0), None, 5.25, 0.6875)]

    def test_an_in_band_window_clears_the_failures_of_an_open_event(self, monkeypatch):
        # a release needs two failures in a row: the in-band window 4 parts windows 3 and 5
        scores = [(0.5, 5.0), (0.75, 5.5), (1.0, 6.0), MISS, (0.5, 4.5), MISS]
        assert scripted_events(monkeypatch, scores) == [(stamp(0), None, 5.25, 0.6875)]
        closed = scripted_events(monkeypatch, [*scores, MISS])
        assert closed == [(stamp(0), stamp(5), 5.25, 0.6875)]

    @pytest.mark.parametrize("gap, onset", [(OFF_PEAK, 0), (MISS, 3)])
    def test_a_window_that_misses_a_gate_ends_the_run(self, monkeypatch, gap, onset):
        """Three passing windows must follow the gap. The onset goes back to
        the ratio-passing streak's start: an off-peak window keeps the streak."""
        scores = [(0.5, 5.0), (0.75, 5.5), gap, (0.5, 5.25), (0.75, 5.5), (1.0, 5.75)]
        assert scripted_events(monkeypatch, scores[:5]) == []
        assert scripted_events(monkeypatch, scores) == [(stamp(onset), None, 5.5, 0.75)]

    def test_the_onset_goes_back_at_most_five_windows(self, monkeypatch):
        # window + min_consecutive hops - 1.6 hops: int(4 + 3 - 1.6) windows
        scores = [OFF_PEAK] * 6 + [(0.5, 5.0), (0.75, 5.5), (1.0, 6.0)]
        assert scripted_events(monkeypatch, scores) == [(stamp(3), None, 5.5, 0.75)]

    def test_a_close_starts_the_next_streak_and_run_afresh(self, monkeypatch):
        """After the release, the next event needs a run of its own, its
        onset goes back no further than its own streak, and one failure
        does not close it."""
        first = [(0.5, 5.0), (0.75, 5.5), (1.0, 6.0), MISS, MISS]
        closed = (stamp(0), stamp(3), 5.5, 0.75)
        second = [(0.5, 5.25), (0.75, 5.5), (1.0, 5.75), MISS]
        assert scripted_events(monkeypatch, first + second[:2]) == [closed]
        events = scripted_events(monkeypatch, first + second)
        assert events == [closed, (stamp(5), None, 5.5, 0.75)]

    def test_release_windows_sets_the_failures_a_close_needs(self, monkeypatch):
        scores = [(0.5, 5.0), (0.75, 5.5), (1.0, 6.0), MISS, MISS]
        assert scripted_events(monkeypatch, scores, release_windows=3) == [
            (stamp(0), None, 5.5, 0.75)
        ]
        assert scripted_events(monkeypatch, scores + [MISS], release_windows=3) == [
            (stamp(0), stamp(3), 5.5, 0.75)
        ]


# ------------------------------------------------- the shipped records, scaled


@pytest.fixture(scope="module")
def shipped_events(tmp_path_factory):
    """Each record `simulate` writes for configs/legshake.json, with the
    events its 2,500-sample pushes give: the chunks `esdgait detect` pushes."""
    out = tmp_path_factory.mktemp("legshake")
    config = experiments.load_config(Path(__file__).resolve().parent.parent / "configs/legshake.json")
    experiments.run_simulate(config, out)
    records = [read_record(e["signal_path"], e["meta_path"]).samples
               for e in read_manifest(out / "dataset.json")]
    return config.detector, [(samples, pushed_events(samples, config.detector)) for samples in records]


def pushed_events(samples: np.ndarray, config: DetectorConfig) -> list[ShakeEvent]:
    detector = ShakeDetector(config)
    for begin in range(0, samples.size, 2500):
        detector.push(samples[begin : begin + 2500])
    return detector.events


@settings(max_examples=12, deadline=None, derandomize=True)
@given(k=st.integers(-1100, 1100))
@example(k=-1100)
@example(k=1100)
@example(k=-369)  # the largest sample (about 2**-31) near 2**-400, where band_ratio's own
@example(k=431)  # scaling starts, and near 2**400
def test_a_power_of_two_scale_keeps_every_shipped_event(shipped_events, k):
    """On ldexp(record, k), every event opens and closes at the same window,
    with the same mean band ratio and its peak within 1e-12, for every k
    that keeps each sample clear of overflow and subnormals; k is clamped
    to that range, so its edges are drawn too."""
    config, records = shipped_events
    samples = np.concatenate([record for record, _ in records])
    top = np.frexp(np.abs(samples).max())[1]  # every |sample| < 2**top
    bottom = np.frexp(np.abs(samples[samples != 0]).min())[1]  # >= 2**(bottom - 1)
    k = min(max(k, -1021 - bottom), 1023 - top)
    assert any(events for _, events in records)
    for record, events in records:
        scaled = pushed_events(np.ldexp(record, k), config)
        assert [(e.onset, e.offset, e.mean_band_ratio) for e in scaled] == [
            (e.onset, e.offset, e.mean_band_ratio) for e in events
        ]
        assert [e.peak_frequency for e in scaled] == pytest.approx(
            [e.peak_frequency for e in events], rel=1e-12
        )
