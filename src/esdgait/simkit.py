"""Synthetic electrostatic gait signals from a capacitive-coupling model.

The body couples to ground through per-foot capacitances C_f1/C_f2 and to
nearby objects through C_r terms; the sensed electrode current is
proportional to C_plant times the time derivative of the total reciprocal
body capacitance, scaled by eps*S over the radial distance to the
electrode. The synthesizers set the foot terms themselves, from a gait or
leg-shake schedule on the sample grid, and take the room terms and C_plant
from a CapacitanceModel. Footfalls modulate the foot capacitances, so each
ground contact produces a negative current spike and each detach a
positive one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .errors import (
    ConfigurationError,
    DomainError,
    SingularityError,
    ValidationError,
)

SAMPLE_RATE = 10_000  # Hz, fixed for the whole feature pipeline

# order-of-magnitude defaults; absolute scale is arbitrary because records
# are standardized before feature extraction
DEFAULT_C_PLANT = 100e-12  # farads
EPSILON_AIR = 8.854e-12  # farads/meter

# labels of every synthesized record that its synthesizer or cohort does
# not set: shake and noise records are by nobody, in no mood, at no site
DEFAULT_LABELS = {
    "person_id": "unknown",
    "mood": "neutral",
    "plant_type": "unknown",
    "location": "unknown",
}

# a capacitance trajectory is a constant or a vectorized function of time
CapFn = Union[float, Callable[[np.ndarray], np.ndarray]]


def _eval_fn(fn: CapFn, t: np.ndarray) -> np.ndarray:
    if callable(fn):
        return np.asarray(fn(t), dtype=float)
    return np.full_like(np.asarray(t, dtype=float), float(fn))


@dataclass(frozen=True)
class CapacitanceModel:
    """Capacitive couplings of the body besides the feet: room objects and
    the plant electrode.

    c_room entries are farads, either constants or vectorized functions of
    time. The foot capacitances are not settable here: each synthesizer
    derives them from its own schedule.
    """

    c_room: tuple[CapFn, ...] = ()
    c_plant: float = DEFAULT_C_PLANT

    def __post_init__(self) -> None:
        if self.c_plant <= 0:
            raise DomainError(f"c_plant must be positive, got {self.c_plant}")


@dataclass(frozen=True)
class ElectrodeModel:
    epsilon: float = EPSILON_AIR  # permittivity of air, F/m
    area_s: float = 1.0  # equivalent body-electrode area, m^2

    def __post_init__(self) -> None:
        if self.epsilon <= 0 or self.area_s <= 0:
            raise ValidationError("epsilon and area_s must be positive")


@dataclass(frozen=True)
class Trajectory:
    """Horizontal and vertical distance to the plant electrode, meters as functions of time."""

    x_of_t: CapFn
    y_of_t: CapFn

    def radial_distance(self, t: np.ndarray) -> np.ndarray:
        x = _eval_fn(self.x_of_t, t)
        y = _eval_fn(self.y_of_t, t)
        return np.hypot(x, y)


@dataclass(frozen=True)
class GaitProfile:
    """Walking-style parameters of one person."""

    step_frequency: float  # Hz, steps of either foot
    walking_speed: float  # m/s
    vertical_amplitude: float = 1.0  # dimensionless body-motion modulation scale
    duty_cycle: float = 0.6  # fraction of a foot's cycle spent on the ground

    def __post_init__(self) -> None:
        if not 0 < self.step_frequency <= 10:
            raise ValidationError(
                f"step_frequency must be in (0, 10] Hz, got {self.step_frequency}"
            )
        if not 0 < self.duty_cycle < 1:
            raise ValidationError(f"duty_cycle must be in (0, 1), got {self.duty_cycle}")
        if self.walking_speed <= 0:
            raise ValidationError("walking_speed must be positive")
        if self.vertical_amplitude < 0:
            raise ValidationError("vertical_amplitude must be non-negative")


@dataclass(frozen=True)
class MoodProfile:
    label: str  # "happy" | "sad"
    speed_factor: float
    amplitude_factor: float
    step_frequency_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.label not in ("happy", "sad"):
            raise ValidationError(f"mood label must be happy or sad, got {self.label!r}")
        if self.label == "sad" and not (self.speed_factor < 1 and self.amplitude_factor < 1):
            raise ValidationError("sad mood requires speed_factor < 1 and amplitude_factor < 1")
        if self.label == "happy" and not (self.speed_factor >= 1 and self.amplitude_factor >= 1):
            raise ValidationError("happy mood requires speed_factor >= 1 and amplitude_factor >= 1")
        if self.step_frequency_factor <= 0:
            raise ValidationError("step_frequency_factor must be positive")


@dataclass(frozen=True)
class FootstepShape:
    """Plateau capacitances of one foot and the edge rise time of a step.

    The magnitudes are not asserted anywhere; they only set the (arbitrary)
    output scale. c_contact == c_air gives a degenerate, modulation-free model.
    """

    c_contact: float = 200e-12  # foot on ground, farads
    c_air: float = 50e-12  # foot in swing, farads
    rise_time: float = 0.05  # raised-cosine edge width, seconds

    def __post_init__(self) -> None:
        if self.c_contact <= 0 or self.c_air <= 0:
            raise DomainError("plateau capacitances must be positive")
        if self.rise_time <= 0:
            raise ValidationError("rise_time must be positive")


@dataclass
class SignalRecord:
    samples: np.ndarray  # amperes, arbitrary linear scale
    sample_rate: int
    labels: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.size == 0:
            raise ValidationError("record has no samples")
        if not np.all(np.isfinite(self.samples)):
            raise ValidationError("record contains non-finite samples")
        if self.sample_rate <= 0:
            raise ValidationError("sample_rate must be positive")


def _foot_pulse(t: np.ndarray, period: float, contact_len: float, rise: float, offset: float) -> np.ndarray:
    """Airborne fraction of one foot: 1 in swing, 0 in ground contact.

    Raised-cosine edges of width `rise` centered on the contact instant
    (phase 0) and the detach instant (phase contact_len).
    """
    phase = np.mod(t - offset, period)
    g = np.ones_like(phase)
    half = rise / 2.0
    plateau = (phase >= half) & (phase <= contact_len - half)
    g[plateau] = 0.0
    # contact edge straddles phase 0: 1 -> 0
    tail = phase >= period - half
    u = (phase[tail] - (period - half)) / rise
    g[tail] = 0.5 * (1.0 + np.cos(np.pi * u))
    head = phase < half
    u = 0.5 + phase[head] / rise
    g[head] = 0.5 * (1.0 + np.cos(np.pi * u))
    # detach edge: 0 -> 1
    up = (phase >= contact_len - half) & (phase < contact_len + half)
    u = (phase[up] - (contact_len - half)) / rise
    g[up] = 0.5 * (1.0 - np.cos(np.pi * u))
    return g


def _grid(duration: float) -> np.ndarray:
    n = int(round(duration * SAMPLE_RATE))
    if n < 3:
        raise ValidationError(f"duration {duration} s is too short at {SAMPLE_RATE} Hz")
    return np.arange(n) / SAMPLE_RATE


def _synth_record(
    t: np.ndarray,
    inv1: np.ndarray,
    inv2: np.ndarray,
    traj: Trajectory,
    capmodel: CapacitanceModel,
    electrode: ElectrodeModel,
    labels: dict,
) -> SignalRecord:
    """The synthesizers' shared tail, from the feet's 1/C_f on the grid `t`:
    add the room terms, take the central difference on the grid (dropping
    the two boundary samples), project it at the distance of `traj` and
    label the noise-free record (`labels` over DEFAULT_LABELS)."""
    if np.any(inv1 <= 0) or np.any(inv2 <= 0):
        raise DomainError("foot capacitance schedule left the positive range")
    inv_cb = inv1 + inv2
    for i, c in enumerate(capmodel.c_room):
        cv = _eval_fn(c, t)
        if np.any(cv <= 0):
            raise DomainError(f"c_room[{i}] is non-positive on the grid")
        inv_cb = inv_cb + 1.0 / cv
    r = traj.radial_distance(t)
    h = 1.0 / SAMPLE_RATE
    d_inv = (inv_cb[2:] - inv_cb[:-2]) / (2.0 * h)
    foot_cur = capmodel.c_plant * d_inv
    if np.any(r <= 0):
        raise SingularityError("radial distance to the electrode reached zero")
    samples = electrode.epsilon * electrode.area_s / r[1:-1] * foot_cur
    return SignalRecord(samples, SAMPLE_RATE, {**DEFAULT_LABELS, **labels})


def add_noise(samples: np.ndarray, noise_std: float, seed: int) -> np.ndarray:
    """`samples` plus zero-mean Gaussian noise of std `noise_std`, drawn
    from a generator seeded with `seed`; `samples` itself when noise_std
    is 0. The synthesizers' records are noise-free: this is the one place
    measurement noise enters a record."""
    if noise_std < 0:
        raise ValidationError(f"noise_std must be non-negative, got {noise_std}")
    if noise_std > 0:
        rng = np.random.default_rng(seed)
        samples = samples + rng.normal(0.0, noise_std, samples.shape)
    return samples


def synth_walk(
    gait: GaitProfile,
    mood: MoodProfile | None,
    traj: Trajectory,
    capmodel: CapacitanceModel,
    electrode: ElectrodeModel,
    duration: float,
    *,
    footstep: FootstepShape = FootstepShape(),
    schedule_phase: float = 0.0,
) -> SignalRecord:
    """Simulate the electrode current of one walk at 10 kHz.

    The feet alternate: each foot runs a cycle of 2/step_frequency shifted
    by half a cycle, its 1/C_f swinging between the contact and airborne
    plateaus of `footstep`, so ground contacts arrive at the mood-adjusted
    step frequency. The synthesizer sets both foot terms from this
    schedule and takes c_room and c_plant from `capmodel`. The record is
    two samples shorter than duration*rate because the boundary samples of
    the central difference are dropped. The record is noise-free, labelled
    with its activity and mood.
    """
    if duration <= 0:
        raise ValidationError("duration must be positive")
    f_step = gait.step_frequency * (mood.step_frequency_factor if mood else 1.0)
    depth = gait.vertical_amplitude * (mood.amplitude_factor if mood else 1.0)
    period = 2.0 / f_step  # one full cycle of a single foot
    contact_len = gait.duty_cycle * period
    if footstep.rise_time >= contact_len or footstep.rise_time >= period - contact_len:
        raise ConfigurationError(
            "rise_time must be shorter than both the contact and airborne phases"
        )
    t = _grid(duration)
    inv_contact = 1.0 / footstep.c_contact
    inv_air = 1.0 / footstep.c_air
    swing = inv_air - inv_contact
    g1 = _foot_pulse(t, period, contact_len, footstep.rise_time, schedule_phase)
    g2 = _foot_pulse(t, period, contact_len, footstep.rise_time, schedule_phase + period / 2.0)
    inv1 = inv_contact + depth * swing * g1
    inv2 = inv_contact + depth * swing * g2
    return _synth_record(
        t, inv1, inv2, traj, capmodel, electrode,
        {"mood": mood.label if mood else "neutral", "activity": "walk"},
    )


def synth_legshake(
    shake_frequency: float,
    duration: float,
    onset: float,
    capmodel: CapacitanceModel,
    electrode: ElectrodeModel,
    *,
    footstep: FootstepShape = FootstepShape(),
    distance_m: float = 1.0,
) -> SignalRecord:
    """Simulate a seated subject shaking one leg from `onset` onward.

    The subject is stationary, so the distance term is the constant
    eps*S/distance_m; only 1/C_B is modulated. The shaking foot's 1/C_f
    swings sinusoidally between the plateaus of `footstep` at
    shake_frequency, starting smoothly (zero slope) at onset. A footstep
    shape with c_contact == c_air gives zero modulation: a zero record.
    The record is noise-free, labelled with its activity.
    """
    if not 0 <= onset < duration:
        raise ValidationError(f"onset must satisfy 0 <= onset < duration, got {onset}")
    if not 3.0 <= shake_frequency <= 10.0:
        raise ValidationError(f"shake_frequency must be in [3, 10] Hz, got {shake_frequency}")
    if distance_m <= 0:
        raise SingularityError("distance_m must be positive")
    t = _grid(duration)
    inv_contact = 1.0 / footstep.c_contact
    inv_air = 1.0 / footstep.c_air
    swing = inv_air - inv_contact
    shaking = t >= onset
    mod = np.zeros_like(t)
    mod[shaking] = 0.5 * (1.0 - np.cos(2.0 * np.pi * shake_frequency * (t[shaking] - onset)))
    inv1 = inv_contact + swing * mod
    inv2 = np.full_like(t, inv_contact)
    return _synth_record(
        t, inv1, inv2, Trajectory(distance_m, 0.0), capmodel, electrode,
        {"activity": "legshake"},
    )


def straight_walk(
    gait: GaitProfile,
    mood: MoodProfile | None,
    start_distance: float,
    end_distance: float,
    lateral: float = 0.5,
) -> tuple[Trajectory, float]:
    """Constant-speed straight-line walk between two electrode distances.

    Returns the trajectory and the walk duration path/(speed*speed_factor):
    a faster (happier) walker covers the same path in less time, yielding a
    shorter record.
    """
    if start_distance <= 0 or end_distance <= 0:
        raise ValidationError("distances must be positive")
    if start_distance == end_distance:
        raise ValidationError("start and end distance must differ")
    speed = gait.walking_speed * (mood.speed_factor if mood else 1.0)
    duration = abs(end_distance - start_distance) / speed
    direction = 1.0 if end_distance > start_distance else -1.0

    def x_of_t(t: np.ndarray) -> np.ndarray:
        return start_distance + direction * speed * np.asarray(t, dtype=float)

    return Trajectory(x_of_t=x_of_t, y_of_t=lateral), duration
