"""Physics-model and synthesis tests.

Every check runs through the two synthesizers, the package's one physics
path. Derived expected values are computed by independent means: exact
rational arithmetic for sums of room-term slopes, analytic derivatives for
the central difference, exact power-of-two scaling for the distance and
eps*S projection, and FFT peak-picking on the raw synthesized samples (the
synthesizer itself never computes a spectrum).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from esdgait import simkit as sk
from esdgait.errors import DomainError, SingularityError, ValidationError

# feet that never move: each foot's 1/C_f stays at 1/farad
FLAT_FEET = sk.FootstepShape(c_contact=1.0, c_air=1.0)


def unit_electrode() -> sk.ElectrodeModel:
    return sk.ElectrodeModel(epsilon=1.0, area_s=1.0)


def unit_shake(capmodel: sk.CapacitanceModel, duration: float = 2.0, **kw) -> sk.SignalRecord:
    """A flat-footed subject at 1 m from a unit electrode: the record is
    C_plant * d(1/C_B)/dt of the room terms alone."""
    return sk.synth_legshake(
        5.0, duration, 0.0, capmodel, unit_electrode(), footstep=FLAT_FEET, **kw
    )


def grid_times(rec: sk.SignalRecord) -> np.ndarray:
    """samples[k] is the current at t = (k + 1) / fs."""
    return np.arange(1, rec.samples.size + 1) / sk.SAMPLE_RATE


class TestReciprocalBodyCapacitance:
    def test_hand_sum_with_room_term(self):
        # three room terms whose 1/C_r rise at 1/2, 1/4 and 1/8 per second;
        # in exact rationals the slopes sum to 7/8
        slopes = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))
        expected = sum(slopes)
        assert expected == Fraction(7, 8)
        rooms = tuple(lambda t, b=float(b): 1.0 / (2.0 + b * t) for b in slopes)
        rec = unit_shake(sk.CapacitanceModel(c_room=rooms, c_plant=1.0))
        np.testing.assert_allclose(rec.samples, float(expected), rtol=1e-9)

    def test_constant_room_term_leaves_signal_unchanged(self):
        gait = default_gait()
        traj, duration = sk.straight_walk(gait, None, 4.0, 1.5)
        args = (gait, None, traj)
        base = sk.synth_walk(*args, default_capmodel(), sk.ElectrodeModel(), duration)
        room = sk.CapacitanceModel(c_room=(8.0,))
        with_room = sk.synth_walk(*args, room, sk.ElectrodeModel(), duration)
        scale = np.abs(base.samples).max()
        assert scale > 0
        np.testing.assert_allclose(with_room.samples, base.samples, rtol=0, atol=1e-9 * scale)

    def test_huge_capacitance_limit(self):
        # a 1e12 F room coupling adds ~1e-12 to 1/C_B, however it varies
        gait = default_gait()
        traj, duration = sk.straight_walk(gait, None, 4.0, 1.5)
        args = (gait, None, traj)
        base = sk.synth_walk(*args, default_capmodel(), sk.ElectrodeModel(), duration)
        huge = sk.CapacitanceModel(c_room=(lambda t: 1e12 * (2.0 + np.sin(t)),))
        with_huge = sk.synth_walk(*args, huge, sk.ElectrodeModel(), duration)
        scale = np.abs(base.samples).max()
        np.testing.assert_allclose(with_huge.samples, base.samples, rtol=0, atol=1e-9 * scale)

    def test_room_term_additivity_pointwise(self):
        rooms = (lambda tt: 3.0 + np.sin(tt) ** 2, 5.0, lambda tt: 2.0 + 0.5 * np.cos(tt))
        with_all = unit_shake(sk.CapacitanceModel(c_room=rooms, c_plant=1.0), duration=5.0)
        without_last = unit_shake(sk.CapacitanceModel(c_room=rooms[:2], c_plant=1.0), duration=5.0)
        t = grid_times(with_all)
        # d/dt 1/(2 + 0.5 cos t) = 0.5 sin t / (2 + 0.5 cos t)^2
        analytic = 0.5 * np.sin(t) / (2.0 + 0.5 * np.cos(t)) ** 2
        np.testing.assert_allclose(
            with_all.samples - without_last.samples, analytic, rtol=1e-6, atol=1e-9
        )

    def test_non_positive_capacitance_names_term(self):
        m = sk.CapacitanceModel(c_room=(lambda t: t - 1.0,))
        with pytest.raises(DomainError, match=r"c_room\[0\]"):
            sk.synth_legshake(5.0, 2.0, 0.0, m, sk.ElectrodeModel())
        with pytest.raises(DomainError, match=r"c_room\[0\]"):
            sk.synth_walk(
                default_gait(), None, sk.Trajectory(3.0, 4.0), m, sk.ElectrodeModel(), 2.0
            )


class TestFootMotionCurrent:
    def test_constant_capacitances_give_zero(self):
        m = sk.CapacitanceModel(c_room=(9.0,), c_plant=2.0)
        shake = unit_shake(m)
        walk = sk.synth_walk(
            default_gait(), None, sk.Trajectory(3.0, 4.0), m, unit_electrode(), 2.0,
            footstep=FLAT_FEET,
        )
        assert np.all(shake.samples == 0.0)
        assert np.all(walk.samples == 0.0)

    def test_linear_ramp_unit_slope(self):
        # 1/C_B(t) = 1 + 1 + (t + 2), slope exactly 1
        rec = unit_shake(sk.CapacitanceModel(c_room=(lambda t: 1.0 / (t + 2.0),), c_plant=1.0))
        np.testing.assert_allclose(rec.samples, 1.0, rtol=1e-9)

    def test_sinusoid_matches_analytic_derivative(self):
        # the shaking foot's 1/C_f = 1/c_contact + swing * (1 - cos(w (t - onset))) / 2,
        # whose derivative is swing * (w / 2) * sin(w (t - onset))
        freq, onset, distance = 5.5, 1.0, 1.5
        shape = sk.FootstepShape()
        electrode = sk.ElectrodeModel()
        capmodel = default_capmodel()
        rec = sk.synth_legshake(
            freq, 3.0, onset, capmodel, electrode, footstep=shape, distance_m=distance
        )
        t = grid_times(rec)
        w = 2.0 * math.pi * freq
        swing = 1.0 / shape.c_air - 1.0 / shape.c_contact
        analytic = swing * (w / 2.0) * np.sin(w * (t - onset))
        analytic *= capmodel.c_plant * electrode.epsilon * electrode.area_s / distance
        after = t - 1.0 / sk.SAMPLE_RATE >= onset  # whole stencil past the onset
        peak = np.abs(analytic).max()
        np.testing.assert_allclose(
            rec.samples[after], analytic[after], rtol=1e-5, atol=1e-9 * peak
        )

    def test_scales_with_c_plant(self):
        base = sk.synth_legshake(
            5.5, 2.0, 0.5, sk.CapacitanceModel(c_plant=1.0), sk.ElectrodeModel()
        )
        scaled = sk.synth_legshake(
            5.5, 2.0, 0.5, sk.CapacitanceModel(c_plant=2.0), sk.ElectrodeModel()
        )
        assert np.abs(base.samples).max() > 0
        np.testing.assert_array_equal(scaled.samples, 2.0 * base.samples)


class TestInducedCurrent:
    def test_zero_source(self):
        gait = default_gait()
        traj, duration = sk.straight_walk(gait, None, 4.0, 1.5)
        rec = sk.synth_walk(
            gait, None, traj, default_capmodel(), unit_electrode(), duration, footstep=FLAT_FEET
        )
        assert np.all(rec.samples == 0.0)

    def test_three_four_five_triangle(self):
        def walk(traj: sk.Trajectory) -> np.ndarray:
            return sk.synth_walk(
                default_gait(), None, traj, default_capmodel(), sk.ElectrodeModel(), 3.0
            ).samples

        slanted = walk(sk.Trajectory(3.0, 4.0))
        assert np.abs(slanted).max() > 0
        np.testing.assert_array_equal(slanted, walk(sk.Trajectory(5.0, 0.0)))

    def test_doubling_eps_s_doubles_output(self):
        gait = default_gait()
        traj = sk.Trajectory(x_of_t=lambda t: 5.0 - t, y_of_t=0.7)
        args = (gait, None, traj, default_capmodel())
        base = sk.synth_walk(*args, sk.ElectrodeModel(epsilon=1.0, area_s=1.0), 3.0)
        doubled = sk.synth_walk(*args, sk.ElectrodeModel(epsilon=2.0, area_s=1.0), 3.0)
        assert np.abs(base.samples).max() > 0
        np.testing.assert_array_equal(doubled.samples, 2.0 * base.samples)

    def test_doubling_distance_halves_output(self):
        def shake(distance: float) -> np.ndarray:
            return sk.synth_legshake(
                5.5, 2.0, 0.5, default_capmodel(), sk.ElectrodeModel(), distance_m=distance
            ).samples

        near = shake(1.0)
        assert np.abs(near).max() > 0
        np.testing.assert_array_equal(shake(2.0), near / 2.0)

    def test_fixed_amplitude_source_envelope_rises_on_approach(self):
        # a room term ramping at a constant rate is a fixed-amplitude source
        ramp = sk.CapacitanceModel(c_room=(lambda t: 1.0 / (t + 2.0),), c_plant=1.0)
        traj = sk.Trajectory(x_of_t=lambda t: 5.0 - t, y_of_t=0.0)
        rec = sk.synth_walk(
            default_gait(), None, traj, ramp, unit_electrode(), 3.9, footstep=FLAT_FEET
        )
        assert np.all(np.diff(rec.samples) > 0)

    def test_zero_distance_singularity(self):
        with pytest.raises(SingularityError):
            sk.synth_walk(
                default_gait(), None, sk.Trajectory(0.0, 0.0), default_capmodel(),
                sk.ElectrodeModel(), 2.0,
            )
        with pytest.raises(SingularityError):
            sk.synth_legshake(5.0, 2.0, 0.0, default_capmodel(), sk.ElectrodeModel(), distance_m=0.0)


def default_gait(**kw) -> sk.GaitProfile:
    base = dict(step_frequency=1.4, walking_speed=1.3, vertical_amplitude=1.0, duty_cycle=0.6)
    base.update(kw)
    return sk.GaitProfile(**base)


def default_capmodel() -> sk.CapacitanceModel:
    return sk.CapacitanceModel()


HAPPY = sk.MoodProfile("happy", speed_factor=1.25, amplitude_factor=1.2, step_frequency_factor=1.1)
SAD = sk.MoodProfile("sad", speed_factor=0.8, amplitude_factor=0.8, step_frequency_factor=0.9)


def step_rate_hz(samples: np.ndarray, lo_s: float = 0.4, hi_s: float = 1.2) -> float:
    """Step frequency from the autocorrelation peak; robust to which
    harmonic of the spike train dominates the raw spectrum."""
    x = samples - samples.mean()
    n = 1 << (2 * x.size - 1).bit_length()
    s = np.fft.rfft(x, n)
    ac = np.fft.irfft(s * np.conj(s), n)[: x.size]
    lags = np.arange(x.size) / sk.SAMPLE_RATE
    m = (lags >= lo_s) & (lags <= hi_s)
    return 1.0 / float(lags[m][np.argmax(ac[m])])


class TestSynthWalk:
    def test_record_shape_and_metadata(self):
        traj, duration = sk.straight_walk(default_gait(), None, 4.0, 1.5)
        rec = sk.synth_walk(
            default_gait(), None, traj, default_capmodel(), sk.ElectrodeModel(), duration
        )
        assert rec.sample_rate == sk.SAMPLE_RATE
        assert rec.samples.size == int(round(duration * sk.SAMPLE_RATE)) - 2
        assert rec.labels["activity"] == "walk"
        assert rec.labels["mood"] == "neutral"

    def test_determinism(self):
        # the synthesizer draws nothing at random: its record is noise-free
        gait = default_gait()
        traj, duration = sk.straight_walk(gait, HAPPY, 4.0, 1.5)
        args = (gait, HAPPY, traj, default_capmodel(), sk.ElectrodeModel(), duration)
        a = sk.synth_walk(*args)
        b = sk.synth_walk(*args)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert a.labels == b.labels == {**sk.DEFAULT_LABELS, "mood": "happy", "activity": "walk"}

    def test_contact_spike_negative_detach_positive(self):
        # noiseless far-field walk: the biggest negative excursion is the
        # contact spike, the biggest positive one the detach spike
        gait = default_gait(step_frequency=1.0)
        traj = sk.Trajectory(x_of_t=50.0, y_of_t=0.0)  # effectively constant envelope
        rec = sk.synth_walk(gait, None, traj, default_capmodel(), sk.ElectrodeModel(), 4.0)
        t = np.arange(1, rec.samples.size + 1) / sk.SAMPLE_RATE
        # contact edges of foot 1 happen at multiples of its 2 s cycle
        near_contact = np.abs((t + 0.5) % 1.0 - 0.5) < 0.05
        assert rec.samples[near_contact].min() < 0
        assert rec.samples[near_contact].max() < -rec.samples[near_contact].min() * 1e-3
        assert rec.samples.min() < 0 < rec.samples.max()

    def test_envelope_monotone_on_approach(self):
        gait = default_gait(step_frequency=1.25)
        traj, duration = sk.straight_walk(gait, None, 5.0, 1.0, lateral=0.4)
        rec = sk.synth_walk(gait, None, traj, default_capmodel(), sk.ElectrodeModel(), duration)
        step = int(round(sk.SAMPLE_RATE / gait.step_frequency))
        n_steps = rec.samples.size // step
        peaks = [np.abs(rec.samples[i * step : (i + 1) * step]).max() for i in range(n_steps)]
        assert all(b >= a * (1 - 1e-9) for a, b in zip(peaks, peaks[1:]))

    def test_happy_faster_shorter_than_sad(self):
        gait = default_gait()
        traj_h, dur_h = sk.straight_walk(gait, HAPPY, 1.5, 5.0)
        traj_s, dur_s = sk.straight_walk(gait, SAD, 5.0, 1.5)
        assert dur_h < dur_s
        rec_h = sk.synth_walk(gait, HAPPY, traj_h, default_capmodel(), sk.ElectrodeModel(), dur_h)
        rec_s = sk.synth_walk(gait, SAD, traj_s, default_capmodel(), sk.ElectrodeModel(), dur_s)
        assert rec_h.samples.size < rec_s.samples.size
        f_h = step_rate_hz(rec_h.samples)
        f_s = step_rate_hz(rec_s.samples)
        assert f_h == pytest.approx(gait.step_frequency * HAPPY.step_frequency_factor, abs=0.05)
        assert f_s == pytest.approx(gait.step_frequency * SAD.step_frequency_factor, abs=0.05)
        assert f_h > f_s

    def test_sad_toward_plant_rising_envelope_lower_frequency(self):
        gait = default_gait()
        traj, duration = sk.straight_walk(gait, SAD, 5.0, 1.2, lateral=0.4)
        rec = sk.synth_walk(gait, SAD, traj, default_capmodel(), sk.ElectrodeModel(), duration)
        half = rec.samples.size // 2
        assert np.abs(rec.samples[half:]).max() > np.abs(rec.samples[:half]).max()
        assert step_rate_hz(rec.samples) < gait.step_frequency

    def test_invalid_profile_rejected(self):
        with pytest.raises(ValidationError):
            sk.GaitProfile(step_frequency=0.0, walking_speed=1.0)
        with pytest.raises(ValidationError):
            sk.GaitProfile(step_frequency=1.0, walking_speed=1.0, duty_cycle=1.0)
        with pytest.raises(ValidationError):
            sk.MoodProfile("sad", speed_factor=1.1, amplitude_factor=0.8)
        with pytest.raises(ValidationError):
            sk.MoodProfile("blue", speed_factor=0.8, amplitude_factor=0.8)


class TestSynthLegshake:
    def test_spectral_peak_at_shake_frequency(self):
        rec = sk.synth_legshake(5.5, 10.0, 2.0, default_capmodel(), sk.ElectrodeModel())
        assert rec.labels == {**sk.DEFAULT_LABELS, "activity": "legshake"}
        # samples[k] is the current at t=(k+1)/fs; keep t >= 2 s
        post = rec.samples[2 * sk.SAMPLE_RATE - 1 :]
        spec = np.abs(np.fft.rfft(post))
        freqs = np.fft.rfftfreq(post.size, d=1.0 / sk.SAMPLE_RATE)
        peak = freqs[1:][np.argmax(spec[1:])]
        assert abs(peak - 5.5) <= 0.25

    def test_six_hz_peak_near_six(self):
        rec = sk.synth_legshake(6.0, 8.0, 0.0, default_capmodel(), sk.ElectrodeModel())
        spec = np.abs(np.fft.rfft(rec.samples))
        freqs = np.fft.rfftfreq(rec.samples.size, d=1.0 / sk.SAMPLE_RATE)
        peak = freqs[1:][np.argmax(spec[1:])]
        assert abs(peak - 6.0) <= 0.25

    def test_pre_onset_segment_is_silent_without_noise(self):
        rec = sk.synth_legshake(5.0, 6.0, 3.0, default_capmodel(), sk.ElectrodeModel())
        pre = rec.samples[: 3 * sk.SAMPLE_RATE - sk.SAMPLE_RATE // 2]
        assert np.all(pre == 0.0)
        assert np.abs(rec.samples).max() > 0

    def test_degenerate_footstep_gives_noise_only(self):
        flat = sk.FootstepShape(c_contact=100e-12, c_air=100e-12)
        silent = sk.synth_legshake(
            5.5, 4.0, 0.0, default_capmodel(), sk.ElectrodeModel(), footstep=flat
        )
        assert np.all(silent.samples == 0.0)
        noisy = sk.add_noise(silent.samples, 1.0, 9)
        rng = np.random.default_rng(9)
        np.testing.assert_array_equal(noisy, rng.normal(0.0, 1.0, silent.samples.size))

    def test_validation(self):
        with pytest.raises(ValidationError):
            sk.synth_legshake(5.5, 4.0, 4.0, default_capmodel(), sk.ElectrodeModel())
        with pytest.raises(ValidationError):
            sk.synth_legshake(2.0, 4.0, 0.0, default_capmodel(), sk.ElectrodeModel())


class TestAddNoise:
    def test_same_seed_same_samples_other_seed_other_samples(self):
        clean = np.linspace(-1.0, 1.0, 1000)
        a = sk.add_noise(clean, 1e-3, 42)
        np.testing.assert_array_equal(a, sk.add_noise(clean, 1e-3, 42))
        assert not np.array_equal(a, sk.add_noise(clean, 1e-3, 43))
        assert not np.array_equal(a, clean)

    def test_zero_std_returns_the_input(self):
        clean = np.linspace(-1.0, 1.0, 1000)
        assert sk.add_noise(clean, 0.0, 42) is clean

    def test_negative_std_rejected(self):
        with pytest.raises(ValidationError, match="noise_std"):
            sk.add_noise(np.zeros(10), -1e-12, 0)


class TestSignalRecord:
    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(ValidationError):
            sk.SignalRecord(samples=np.array([]), sample_rate=10_000)
        with pytest.raises(ValidationError):
            sk.SignalRecord(samples=np.array([1.0, np.nan]), sample_rate=10_000)
