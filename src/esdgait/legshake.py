"""Streaming detector for 5-6 Hz leg-shake episodes.

A sliding window advances by a fixed hop over the sample stream. Each
window is scored by the fraction of its (DC-excluded) spectral power that
falls in a low-frequency analysis band, plus the interpolated in-band peak
frequency. A hysteresis state machine opens an event after enough
consecutive windows pass both gates and closes it after enough consecutive
sub-threshold windows, so isolated noise windows neither open nor close
events.

Timestamp convention: a window covering samples [k*hop, k*hop + window) is
stamped at `k*hop + window - 1.6*hop` (in seconds), a little over half a
hop before its newest hop of data begins. Calibrated against synthesized
ground truth, this places reported onsets within a quarter second of the
true shake start from noiseless conditions down to 10 dB SNR: the power
gate starts passing once the shake fills roughly the last quarter of a
window, and this stamp centers the residual onset error around zero.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import StreamError, ValidationError

# where a window's timestamp sits, in hops back from the window end;
# calibrated on synthesized shakes so onset errors center around zero
_STAMP_BACK_HOPS = 1.6

# the peak gate tolerates this much estimator jitter, in spectral bins;
# a true frequency exactly on a gate edge otherwise flickers in and out
_PEAK_GATE_TOLERANCE_BINS = 0.02


@dataclass(frozen=True)
class DetectorConfig:
    sample_rate: float = 10_000.0
    window_seconds: float = 1.0
    hop_seconds: float = 0.25
    band_low: float = 4.0
    band_high: float = 8.0
    peak_target_low: float = 5.0
    peak_target_high: float = 6.0
    ratio_threshold: float = 0.5
    min_consecutive_windows: int = 3
    release_windows: int = 2

    def __post_init__(self) -> None:
        if self.sample_rate <= 0:
            raise ValidationError("sample_rate must be positive")
        if not 0 < self.hop_seconds <= self.window_seconds:
            raise ValidationError("need 0 < hop_seconds <= window_seconds")
        if not 0 < self.band_low < self.peak_target_low < self.peak_target_high < self.band_high:
            raise ValidationError(
                "need band_low < peak_target_low < peak_target_high < band_high"
            )
        if self.band_high >= self.sample_rate / 2:
            raise ValidationError("band_high must sit below the Nyquist frequency")
        if not 0 < self.ratio_threshold < 1:
            raise ValidationError("ratio_threshold must lie in (0, 1)")
        if self.min_consecutive_windows < 1:
            raise ValidationError("min_consecutive_windows must be >= 1")
        if self.release_windows < 1:
            raise ValidationError("release_windows must be >= 1")
        if self.window_samples < 4:
            raise ValidationError("window too short at this sample rate")

    @property
    def window_samples(self) -> int:
        return int(round(self.window_seconds * self.sample_rate))

    @property
    def hop_samples(self) -> int:
        return max(1, int(round(self.hop_seconds * self.sample_rate)))


@dataclass
class ShakeEvent:
    onset: float
    offset: float | None  # None while the episode is still open
    peak_frequency: float
    mean_band_ratio: float

    def to_dict(self) -> dict:
        return asdict(self)


def band_ratio(window_samples, config: DetectorConfig) -> tuple[float, float]:
    """Score one window: (in-band power fraction, interpolated peak Hz).

    The fraction excludes the DC bin. A zero-variance window scores 0 by
    definition (silence is not shaking) with peak frequency nan. The peak
    is the in-band argmax bin refined by a parabola through the log-power
    of the three bins around it.
    """
    x = np.asarray(window_samples, dtype=float)
    n = config.window_samples
    if x.shape != (n,):
        raise ValidationError(f"expected a window of {n} samples, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValidationError("window samples must be finite")
    # peak-to-peak is exact, unlike the residue left by subtracting a
    # rounded mean from a constant window
    top, bottom = x.max(), x.min()
    if top == bottom:
        return 0.0, math.nan
    # scale only where the power would overflow or underflow: a power of two keeps
    # the ratio exact but moves the peak by ulps, and in range no event changes a byte
    size = max(top, -bottom)
    if not 2.0**-400 <= size <= 2.0**400:
        x = np.ldexp(x, -np.frexp(size)[1])
    x = x - x.mean()  # not all zero: x holds two unequal samples, and a - m == 0 only when a == m
    taper, in_band, band_bins = _window_plan(n, config.sample_rate, config.band_low, config.band_high)
    # taper and square in place: one window copy and one spectrum, the same ufuncs' bits
    power = np.abs(np.fft.rfft(np.multiply(x, taper, out=x)))
    np.square(power, out=power)
    total = power[1:].sum()
    if total <= 0.0:
        return 0.0, math.nan
    ratio = float(power[in_band].sum() / total)
    peak_bin = int(band_bins[np.argmax(power[band_bins])])
    delta = 0.0
    if 1 <= peak_bin < power.size - 1:
        y0, y1, y2 = np.log(np.maximum(power[peak_bin - 1 : peak_bin + 2], 1e-300))
        denom = y0 - 2.0 * y1 + y2
        if denom != 0.0:
            delta = float(np.clip(0.5 * (y0 - y2) / denom, -0.5, 0.5))
    peak_hz = (peak_bin + delta) * config.sample_rate / n
    return ratio, float(peak_hz)


@functools.lru_cache(maxsize=8)
def _window_plan(n: int, sample_rate: float, band_low: float, band_high: float):
    """The Hann taper, the in-band mask of the rfft bins and their indices
    for one window shape; read-only, since every caller shares them."""
    freqs = np.fft.rfftfreq(n, 1.0 / sample_rate)
    in_band = (freqs >= band_low) & (freqs <= band_high)
    plan = (np.hanning(n), in_band, np.flatnonzero(in_band))
    for array in plan:
        array.setflags(write=False)
    return plan


class ShakeDetector:
    """Incremental detector; feed chunks with push(), read .events anytime.

    Events are appended to .events the moment they open (offset None) and
    their offset is filled in later when they close, so a consumer holding
    the list sees closure updates without re-polling.
    """

    def __init__(self, config: DetectorConfig | None = None) -> None:
        self.config = config if config is not None else DetectorConfig()
        self.events: list[ShakeEvent] = []
        self._buffer = np.empty(0, dtype=float)  # from the next window's first sample on
        self._next_window = 0
        self._streak_start: int | None = None  # first window of the ratio-passing streak
        self._run: list[tuple[float, float]] = []  # (ratio, peak) of windows passing both gates
        self._open_event: ShakeEvent | None = None
        self._open_window_count = 0  # the windows in the open event's means
        self._fail_count = 0  # the open event's consecutive ratio failures

    def _window_time(self, window_index: int) -> float:
        cfg = self.config
        position = window_index * cfg.hop_samples + cfg.window_samples
        return (position - _STAMP_BACK_HOPS * cfg.hop_samples) / cfg.sample_rate

    def push(self, chunk, start_time: float | None = None) -> list[ShakeEvent]:
        """Append samples; returns events newly opened by this chunk.

        start_time (seconds) is optional; when given it must equal the end
        of the samples received so far, otherwise the stream has a gap or
        an overlap and a StreamError is raised.
        """
        cfg = self.config
        w, h = cfg.window_samples, cfg.hop_samples
        if start_time is not None:
            expected = (self._next_window * h + self._buffer.size) / cfg.sample_rate
            if abs(start_time - expected) * cfg.sample_rate > 0.5:
                raise StreamError(
                    f"chunk starts at {start_time:.6f} s but the stream is at {expected:.6f} s"
                )
        chunk = np.asarray(chunk, dtype=float).ravel()
        if not np.all(np.isfinite(chunk)):
            raise ValidationError("stream samples must be finite")
        self._buffer = np.concatenate([self._buffer, chunk])
        opened: list[ShakeEvent] = []
        while self._buffer.size >= w:
            event = self._evaluate(self._next_window, self._buffer[:w])
            if event is not None:
                opened.append(event)
            self._next_window += 1
            self._buffer = self._buffer[h:]
        return opened

    def _evaluate(self, window_index: int, window: np.ndarray) -> ShakeEvent | None:
        cfg = self.config
        ratio, peak = band_ratio(window, cfg)
        event = self._open_event
        if event is not None:
            if ratio >= cfg.ratio_threshold:
                self._fail_count = 0
                self._open_window_count += 1
                count = self._open_window_count
                event.mean_band_ratio += (ratio - event.mean_band_ratio) / count
                if math.isfinite(peak):
                    event.peak_frequency += (peak - event.peak_frequency) / count
                return None
            self._fail_count += 1
            if self._fail_count >= cfg.release_windows:
                event.offset = self._window_time(window_index - self._fail_count + 1)
                self._open_event = None
                self._fail_count = 0
                self._streak_start = None
            return None
        in_band = ratio >= cfg.ratio_threshold
        if not in_band:
            self._streak_start = None
        elif self._streak_start is None:
            self._streak_start = window_index
        tol = _PEAK_GATE_TOLERANCE_BINS * cfg.sample_rate / cfg.window_samples
        # a nan peak fails the comparisons
        if not (in_band and cfg.peak_target_low - tol <= peak <= cfg.peak_target_high + tol):
            self._run = []
            return None
        self._run.append((ratio, peak))
        if len(self._run) < cfg.min_consecutive_windows:
            return None
        # the onset backdates to the start of the ratio-passing streak
        # around the opening windows: early shake windows can clear the
        # power gate while the peak estimate still settles; the cap
        # keeps the open report within window + min_consecutive hops
        # of the reported onset
        max_back = int(cfg.window_samples / cfg.hop_samples + cfg.min_consecutive_windows
                       - _STAMP_BACK_HOPS + 1e-9)
        ratio_sum = peak_sum = 0.0
        for run_ratio, run_peak in self._run:  # in window order: sum() compensates since Python 3.12
            ratio_sum += run_ratio
            peak_sum += run_peak
        event = ShakeEvent(
            onset=self._window_time(max(self._streak_start, window_index - max_back)),
            offset=None,
            peak_frequency=peak_sum / len(self._run),
            mean_band_ratio=ratio_sum / len(self._run),
        )
        self.events.append(event)
        self._open_event = event
        self._open_window_count = len(self._run)
        self._run = []
        return event
