"""Preprocessing and MFCC feature extraction.

Pipeline per record: standardize (Z-transformation), frame with a sliding
window, window function, power spectrum, triangular mel filterbank, log,
orthonormal type-II DCT, keep the first n_mfcc coefficients. The functions
take sample arrays, not records: a record's samples are first trimmed to
the dataset's shortest length (`trim_to_length`) so every feature vector
has the same dimension. `category_codes` numbers plant types and locations
from the records' label dicts, for the optional categorical columns.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateSignalError, DomainError, ValidationError, shown

LOG_FLOOR = 1e-10  # filter energies are clamped here before the log

CATEGORICAL_FIELDS = ("plant_type", "location")


@dataclass(frozen=True)
class MfccConfig:
    sample_rate: int = 10_000
    n_mfcc: int = 20
    window_size: int = 2500
    hop_length: int = 1250
    magnitude_exponent: float = 2.0
    n_mel_filters: int = 40
    fmin: float = 0.0
    fmax: float | None = None  # None means sample_rate / 2
    window_function: str = "hann"

    def __post_init__(self) -> None:
        if not (self.window_size >= self.hop_length > 0):
            raise ConfigurationError("need window_size >= hop_length > 0")
        if not (0 < self.n_mfcc <= self.n_mel_filters):
            raise ConfigurationError("need 0 < n_mfcc <= n_mel_filters")
        if self.sample_rate <= 0:
            raise ConfigurationError("sample_rate must be positive")
        fmax = self.resolved_fmax
        if not (0 <= self.fmin < fmax <= self.sample_rate / 2):
            raise ConfigurationError("need 0 <= fmin < fmax <= sample_rate/2")
        if self.window_function != "hann":
            raise ConfigurationError(f"unsupported window function {shown(self.window_function)}")

    @property
    def resolved_fmax(self) -> float:
        return self.sample_rate / 2 if self.fmax is None else self.fmax

    def to_dict(self) -> dict:
        return {**asdict(self), "fmax": self.resolved_fmax}


@dataclass(frozen=True)
class MelFilterbank:
    filters: np.ndarray  # (n_mel_filters, window_size//2 + 1)
    center_frequencies: np.ndarray  # Hz


@dataclass(frozen=True)
class FeatureMatrix:
    coefficients: np.ndarray  # (n_mfcc, T)
    frame_times: np.ndarray  # seconds, frame centers


def trim_to_length(samples: np.ndarray, length: int) -> np.ndarray:
    """Cut the samples to `length` around their centre; an odd excess
    loses the extra sample from the end."""
    if not 0 < length <= samples.size:
        raise ValidationError(f"cannot trim {samples.size} samples to {length}")
    start = (samples.size - length) // 2
    return samples[start : start + length]


def z_transform(samples) -> np.ndarray:
    """Standardize to mean 0, population variance 1. An exact scaling by a power
    of two first keeps any finite record's variance from overflow and underflow."""
    x = np.asarray(samples, dtype=float)
    if x.size < 2:
        raise ValidationError("need at least 2 samples to standardize")
    x = np.ldexp(x, -np.frexp(np.abs(x).max())[1])
    std = x.std()  # population convention
    if std == 0.0:
        raise DegenerateSignalError("zero-variance signal cannot be standardized")
    return (x - x.mean()) / std


def hz_to_mel(f) -> np.ndarray | float:
    f_arr = np.asarray(f, dtype=float)
    if np.any(f_arr < 0):
        raise DomainError("frequency must be non-negative")
    out = 2595.0 * np.log10(1.0 + f_arr / 700.0)
    return out if f_arr.ndim else float(out)


def mel_to_hz(m) -> np.ndarray | float:
    m_arr = np.asarray(m, dtype=float)
    out = 700.0 * (10.0 ** (m_arr / 2595.0) - 1.0)
    return out if m_arr.ndim else float(out)


def build_mel_filterbank(config: MfccConfig) -> MelFilterbank:
    """Triangular filters with apexes equally spaced on the mel scale.

    Triangles are evaluated in continuous frequency at the DFT bin
    frequencies, so adjacent filters overlap and low-frequency filters are
    narrower in Hz.
    """
    n_bins = config.window_size // 2 + 1
    bin_freqs = np.arange(n_bins) * config.sample_rate / config.window_size
    mel_points = np.linspace(
        hz_to_mel(config.fmin), hz_to_mel(config.resolved_fmax), config.n_mel_filters + 2
    )
    hz_points = np.asarray(mel_to_hz(mel_points))
    filters = np.zeros((config.n_mel_filters, n_bins))
    for m in range(config.n_mel_filters):
        lo, center, hi = hz_points[m], hz_points[m + 1], hz_points[m + 2]
        rising = (bin_freqs - lo) / (center - lo)
        falling = (hi - bin_freqs) / (hi - center)
        filters[m] = np.maximum(0.0, np.minimum(rising, falling))
        if filters[m].sum() == 0.0:
            raise ConfigurationError(
                f"mel filter {m} has empty support; reduce n_mel_filters or widen the band"
            )
    return MelFilterbank(filters=filters, center_frequencies=hz_points[1:-1])


def _hann(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / (n - 1))


def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal type-II DCT matrix, rows are basis vectors."""
    k = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    mat = np.sqrt(2.0 / n) * np.cos(np.pi * (2 * j + 1) * k / (2 * n))
    mat[0] /= np.sqrt(2.0)
    return mat


def frame_count(n_samples: int, config: MfccConfig) -> int:
    return (n_samples - config.window_size) // config.hop_length + 1


@functools.lru_cache(maxsize=8)
def _mfcc_plan(config: MfccConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Hann window, the mel filters and the kept DCT rows of one
    config; read-only, since every record's mfcc call shares them."""
    plan = (
        _hann(config.window_size),
        build_mel_filterbank(config).filters,
        dct_matrix(config.n_mel_filters)[: config.n_mfcc],
    )
    for array in plan:
        array.setflags(write=False)
    return plan


def mfcc(samples, config: MfccConfig = MfccConfig()) -> FeatureMatrix:
    """MFCC matrix of shape (n_mfcc, T); frames start at sample 0, no padding."""
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1:
        raise ValidationError("mfcc expects a 1-D sample sequence")
    if not np.all(np.isfinite(x)):
        raise ValidationError("samples must be finite")
    if x.size < config.window_size:
        raise ValidationError(
            f"signal of {x.size} samples is shorter than one window ({config.window_size})"
        )
    t_frames = frame_count(x.size, config)
    starts = np.arange(t_frames) * config.hop_length
    window, filters, dct = _mfcc_plan(config)
    frames = x[starts[:, None] + np.arange(config.window_size)[None, :]]
    windowed = frames * window
    spectrum = np.abs(np.fft.rfft(windowed, axis=1)) ** config.magnitude_exponent
    energies = spectrum @ filters.T  # (T, n_mel_filters)
    log_e = np.log(np.maximum(energies, LOG_FLOOR))
    coeffs = dct @ log_e.T
    frame_times = (starts + config.window_size / 2.0) / config.sample_rate
    return FeatureMatrix(coefficients=coeffs, frame_times=frame_times)


def feature_names_for(config: MfccConfig, t_frames: int) -> tuple[str, ...]:
    return tuple(f"mfcc{c}_t{f}" for c in range(config.n_mfcc) for f in range(t_frames))


def featurize(samples, config: MfccConfig = MfccConfig()) -> np.ndarray:
    """Z-transform, MFCC, then flatten coefficient-major. The columns are
    named by feature_names_for."""
    return mfcc(z_transform(samples), config).coefficients.reshape(-1)


def category_codes(labels: list[dict]) -> np.ndarray:
    """Each record's plant_type and location code as a (records, 2) float
    array. A label codes as `str(label)`, "unknown" when absent, numbered
    in sorted order of the field's values across the records."""
    columns = []
    for fieldname in CATEGORICAL_FIELDS:
        values = [str(record.get(fieldname, "unknown")) for record in labels]
        index = {value: i for i, value in enumerate(sorted(set(values)))}
        columns.append([index[value] for value in values])
    return np.array(columns, dtype=float).T
