"""Leg-shake detector tests: window scoring, hysteresis, streaming."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esdgait import legshake
from esdgait.errors import StreamError, ValidationError
from esdgait.io import from_json
from esdgait.legshake import (
    DetectorConfig,
    ShakeDetector,
    ShakeEvent,
    band_ratio,
    detect_stream,
)
from esdgait.simkit import (
    SAMPLE_RATE,
    CapacitanceModel,
    ElectrodeModel,
    synth_legshake,
)

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
    clean = synth_legshake(freq, duration, onset, CAP, ELECTRODE, noise_std=0.0, seed=0)
    if snr_db is None:
        return clean.samples
    post = clean.samples[int(onset * SR):]
    rms = float(np.sqrt(np.mean(post**2)))
    noise_std = rms / (10.0 ** (snr_db / 20.0))
    noisy = synth_legshake(freq, duration, onset, CAP, ELECTRODE,
                           noise_std=noise_std, seed=seed)
    return noisy.samples


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
        assert from_json(DetectorConfig, cfg.to_dict(), "detector") == cfg

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
