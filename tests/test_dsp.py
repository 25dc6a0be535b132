"""Preprocessing and MFCC tests, checked against the naive references."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import naive_mfcc

from esdgait import dsp
from esdgait.dsp import MfccConfig
from esdgait.errors import ConfigurationError, DegenerateSignalError, DomainError, ValidationError


class TestTrim:
    def test_equal_lengths_unchanged(self):
        out = dsp.trim_to_length(np.arange(10), 10)
        np.testing.assert_array_equal(out, np.arange(10))

    def test_even_excess_split_symmetrically(self):
        out = dsp.trim_to_length(np.arange(12), 10)
        np.testing.assert_array_equal(out, np.arange(1, 11))
        out = dsp.trim_to_length(np.arange(100, 110), 10)
        np.testing.assert_array_equal(out, np.arange(100, 110))

    def test_odd_excess_extra_sample_from_end(self):
        out = dsp.trim_to_length(np.arange(13), 10)
        # excess 3: one from the start, two from the end
        np.testing.assert_array_equal(out, np.arange(1, 11))

    def test_bad_length_rejected(self):
        for length in (0, 11):
            with pytest.raises(ValidationError, match=f"cannot trim 10 samples to {length}"):
                dsp.trim_to_length(np.arange(10), length)


class TestZTransform:
    def test_three_point_analytic(self):
        out = dsp.z_transform([1.0, 2.0, 3.0])
        root = math.sqrt(1.5)
        np.testing.assert_allclose(out, [-root, 0.0, root], atol=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateSignalError):
            dsp.z_transform([5.0, 5.0, 5.0])

    def test_affine_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=400)
        np.testing.assert_allclose(dsp.z_transform(3.7 * x + 11.0), dsp.z_transform(x), atol=1e-9)

    def test_postconditions_and_idempotence(self):
        rng = np.random.default_rng(4)
        for trial in range(10):
            x = rng.normal(loc=rng.uniform(-5, 5), scale=rng.uniform(0.1, 9), size=257)
            z = dsp.z_transform(x)
            assert abs(z.mean()) < 1e-9
            assert abs(z.var() - 1.0) < 1e-9
            np.testing.assert_allclose(dsp.z_transform(z), z, atol=1e-9)


class TestMelScale:
    def test_anchor_points(self):
        assert dsp.hz_to_mel(0.0) == 0.0
        assert dsp.hz_to_mel(700.0) == pytest.approx(2595.0 * math.log10(2.0), rel=1e-12)
        assert dsp.hz_to_mel(700.0) == pytest.approx(781.17, abs=0.005)
        assert dsp.hz_to_mel(1000.0) == pytest.approx(999.99, abs=0.01)

    def test_strictly_increasing_and_inverse(self):
        f = np.linspace(0.0, 5000.0, 500)
        m = dsp.hz_to_mel(f)
        assert np.all(np.diff(m) > 0)
        np.testing.assert_allclose(dsp.mel_to_hz(m), f, atol=1e-8)

    def test_negative_frequency_rejected(self):
        with pytest.raises(DomainError):
            dsp.hz_to_mel(-1.0)


class TestFilterbank:
    def test_geometry(self):
        bank = dsp.build_mel_filterbank(MfccConfig())
        assert bank.filters.shape == (40, 1251)
        assert np.all(bank.filters >= 0)
        assert np.all(np.diff(bank.center_frequencies) > 0)
        sums = bank.filters.sum(axis=1)
        assert np.all(sums > 0)
        # mel convexity: low-frequency centers packed tighter in Hz
        gaps = np.diff(bank.center_frequencies)
        assert gaps[0] < gaps[-1]

    def test_support_contiguous(self):
        bank = dsp.build_mel_filterbank(MfccConfig())
        for row in bank.filters:
            nz = np.nonzero(row)[0]
            assert nz.size > 0
            assert np.array_equal(nz, np.arange(nz[0], nz[-1] + 1))

    def test_adjacent_filters_overlap(self):
        bank = dsp.build_mel_filterbank(MfccConfig())
        for a, b in zip(bank.filters, bank.filters[1:]):
            assert np.any((a > 0) & (b > 0))

    def test_sine_at_center_maximizes_that_filter(self):
        cfg = MfccConfig()
        bank = dsp.build_mel_filterbank(cfg)
        for m in (5, 12, 20, 33):
            f_c = bank.center_frequencies[m]
            t = np.arange(cfg.window_size) / cfg.sample_rate
            x = np.sin(2.0 * np.pi * f_c * t)
            # direct DFT of the windowed sine, filter responses by definition
            win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(cfg.window_size) / (cfg.window_size - 1))
            dft = np.exp(
                -2j
                * np.pi
                * np.outer(np.arange(cfg.window_size // 2 + 1), np.arange(cfg.window_size))
                / cfg.window_size
            )
            power = np.abs(dft @ (x * win)) ** 2
            responses = bank.filters @ power
            assert int(np.argmax(responses)) == m

    def test_empty_support_rejected(self):
        with pytest.raises(ConfigurationError):
            dsp.build_mel_filterbank(MfccConfig(n_mfcc=20, n_mel_filters=2000))

    def test_config_invariants(self):
        with pytest.raises(ConfigurationError):
            MfccConfig(window_size=100, hop_length=200)
        with pytest.raises(ConfigurationError):
            MfccConfig(n_mfcc=50, n_mel_filters=40)
        with pytest.raises(ConfigurationError):
            MfccConfig(fmax=6000.0)
        with pytest.raises(ConfigurationError):
            MfccConfig(fmin=-1.0)


class TestMfcc:
    def test_default_shape_25000(self):
        rng = np.random.default_rng(0)
        out = dsp.mfcc(rng.normal(size=25_000))
        assert out.coefficients.shape == (20, 19)
        assert out.frame_times[0] == pytest.approx(0.125)
        assert out.frame_times[1] - out.frame_times[0] == pytest.approx(0.125)
        assert np.all(np.isfinite(out.coefficients))

    def test_frame_count_formula_property(self):
        cfg = MfccConfig(sample_rate=1000, n_mfcc=8, window_size=100, hop_length=37,
                         n_mel_filters=16)
        rng = np.random.default_rng(1)
        for n in rng.integers(100, 3000, size=25):
            out = dsp.mfcc(rng.normal(size=int(n)), cfg)
            assert out.coefficients.shape[1] == (int(n) - 100) // 37 + 1

    def test_gain_moves_only_row_zero(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=10_000)
        a = dsp.mfcc(x).coefficients
        b = dsp.mfcc(10.0 * x).coefficients
        np.testing.assert_allclose(a[1:], b[1:], atol=1e-9)
        shifts = b[0] - a[0]
        np.testing.assert_allclose(shifts, shifts[0], atol=1e-9)
        assert abs(shifts[0]) > 1.0

    def test_too_short_rejected(self):
        with pytest.raises(ValidationError):
            dsp.mfcc(np.zeros(2499))

    def test_non_finite_rejected(self):
        x = np.zeros(3000)
        x[7] = np.inf
        with pytest.raises(ValidationError):
            dsp.mfcc(x)

    def test_dct_orthonormal(self):
        mat = dsp.dct_matrix(40)
        np.testing.assert_allclose(mat @ mat.T, np.eye(40), atol=1e-10)

    def test_plan_shared_read_only_and_bit_equal_to_a_fresh_build(self):
        cfg = MfccConfig(sample_rate=1000, n_mfcc=8, window_size=100, hop_length=37,
                         n_mel_filters=16)
        plan = dsp._mfcc_plan(cfg)
        assert dsp._mfcc_plan(replace(cfg)) is plan  # an equal config shares it
        assert not any(array.flags.writeable for array in plan)
        x = np.random.default_rng(4).normal(size=1234)
        starts = np.arange(dsp.frame_count(x.size, cfg)) * cfg.hop_length
        frames = x[starts[:, None] + np.arange(cfg.window_size)[None, :]]
        spectrum = np.abs(np.fft.rfft(frames * dsp._hann(cfg.window_size), axis=1)) ** 2.0
        energies = spectrum @ dsp.build_mel_filterbank(cfg).filters.T
        log_e = np.log(np.maximum(energies, dsp.LOG_FLOOR))
        expected = dsp.dct_matrix(cfg.n_mel_filters)[: cfg.n_mfcc] @ log_e.T
        np.testing.assert_array_equal(dsp.mfcc(x, cfg).coefficients, expected)

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(5)
        for trial in range(3):
            x = rng.normal(size=6000)
            ours = dsp.mfcc(x).coefficients
            theirs = naive_mfcc(x)
            assert ours.shape == theirs.shape == (20, 3)
            np.testing.assert_allclose(ours, theirs, atol=1e-6)


class TestFeaturize:
    def make_samples(self, n=25_000):
        return np.random.default_rng(11).normal(size=n)

    def test_plain_vector_length(self):
        values = dsp.featurize(self.make_samples())
        assert values.shape == (380,)
        names = dsp.feature_names_for(MfccConfig(), dsp.frame_count(25_000, MfccConfig()))
        assert len(names) == 380
        assert names[0] == "mfcc0_t0"
        assert names[19] == "mfcc1_t0"
        assert names[-1] == "mfcc19_t18"

    def test_coefficient_major_flatten(self):
        samples = self.make_samples()
        values = dsp.featurize(samples)
        matrix = dsp.mfcc(dsp.z_transform(samples)).coefficients
        np.testing.assert_array_equal(values, matrix.reshape(-1))
        names = dsp.feature_names_for(MfccConfig(), matrix.shape[1])
        assert names[:19] == tuple(f"mfcc0_t{i}" for i in range(19))

    def test_categoricals_appended(self):
        # featurize gives the MFCC values only; a row of category_codes
        # follows them, under the CATEGORICAL_FIELDS names
        assert dsp.featurize(self.make_samples()).shape == (380,)
        names = dsp.feature_names_for(MfccConfig(), dsp.frame_count(25_000, MfccConfig()))
        names += dsp.CATEGORICAL_FIELDS
        assert len(names) == 382
        assert names[-2:] == ("plant_type", "location")
        labels = [{"plant_type": "basil", "location": "north_bench"}, {"plant_type": "fern"}]
        np.testing.assert_array_equal(dsp.category_codes(labels), [[0.0, 0.0], [1.0, 1.0]])

    def test_purity(self):
        a = dsp.featurize(self.make_samples())
        b = dsp.featurize(self.make_samples())
        np.testing.assert_array_equal(a, b)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(-1000, 900))
    def test_a_power_of_two_scale_keeps_every_feature_bit(self, seed, k):
        samples = np.random.default_rng(seed).normal(size=6000)
        assert dsp.featurize(np.ldexp(samples, k)).tobytes() == dsp.featurize(samples).tobytes()

    @pytest.mark.parametrize("scale", [1e160, 1e-200])
    def test_a_record_whose_variance_is_no_float_featurizes_as_at_unit_scale(self, scale):
        """Its variance would overflow to inf, or underflow to a zero that
        refuses the record: only the rounding of `samples * scale` differs."""
        samples = np.random.default_rng(5).normal(size=6000)
        np.testing.assert_allclose(dsp.featurize(samples * scale), dsp.featurize(samples), rtol=0, atol=1e-11)

    def test_degenerate_record_propagates(self):
        with pytest.raises(DegenerateSignalError):
            dsp.featurize(np.ones(5000))


class TestCategoryCodes:
    def test_sorted_and_stable(self):
        labels = [{"plant_type": "fern", "location": "b"}, {"plant_type": "basil", "location": "a"}]
        codes = dsp.category_codes(labels)
        assert codes.dtype == np.float64
        np.testing.assert_array_equal(codes, [[1.0, 1.0], [0.0, 0.0]])
        np.testing.assert_array_equal(dsp.category_codes(labels[::-1]), codes[::-1])

    def test_str_of_the_label_with_unknown_when_absent(self):
        labels = [{"plant_type": None}, {"plant_type": 3}, {"plant_type": "3"}, {}, {"plant_type": "fern"}]
        # "3" < "None" < "fern" < "unknown"; a missing location is "unknown" too
        np.testing.assert_array_equal(
            dsp.category_codes(labels), [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [3.0, 0.0], [2.0, 0.0]]
        )

    def test_labels_differing_in_trailing_nuls_get_their_own_codes(self):
        # numpy's fixed-width strings would strip the NUL and merge the two
        labels = [{"plant_type": "fern\x00", "location": "a"}, {"plant_type": "fern", "location": "a"}]
        np.testing.assert_array_equal(dsp.category_codes(labels), [[1.0, 0.0], [0.0, 0.0]])

