import math
import warnings

import numpy as np
import pytest

from starkcomb import (
    CellArrayPlan,
    ChannelRow,
    ConfigError,
    DomainError,
    PlannerError,
    PlanRow,
    beat_power,
    beat_signal_power,
    build_channels,
    calibrate_noise_floor,
    channel_table,
    far_field_strength,
    load_config,
    min_detectable_field,
    rolloff,
    sensitivity,
    stitched_response,
)

REFERENCE_FIELD = 5.4772255750516614e-05  # V/cm, the -30 dBm far-field stimulus

CHANNEL_ARGS = dict(
    peak_power=-36.5,
    reference_field=REFERENCE_FIELD,
    half_width_3db=5e6,
    rolloff_order=2,
    noise_floor=-73.23,
)
CHANNEL = channel_table(**CHANNEL_ARGS)


def replace(**changes):
    """CHANNEL with some parameters changed."""
    return channel_table(**{**CHANNEL_ARGS, **changes})


class TestBeatPower:
    def test_reference_peak(self):
        # At the reference field on line center the beat sits at the
        # calibrated peak (the distant noise floor adds < 0.01 dB).
        assert math.isclose(
            beat_power(CHANNEL, REFERENCE_FIELD, 0.0), -36.5, abs_tol=0.01
        )
        assert beat_signal_power(CHANNEL, REFERENCE_FIELD, 0.0) == -36.5

    def test_half_power_at_half_width(self):
        strong = 100 * REFERENCE_FIELD
        on_line = beat_power(CHANNEL, strong, 0.0)
        at_edge = beat_power(CHANNEL, strong, CHANNEL.half_width_3db)
        assert math.isclose(on_line - at_edge, 10 * math.log10(2.0), abs_tol=0.01)
        assert rolloff(CHANNEL, CHANNEL.half_width_3db) == 0.5

    def test_zero_field_floors_exactly(self):
        assert beat_power(CHANNEL, 0.0, 0.0) == CHANNEL.noise_floor
        assert beat_power(CHANNEL, 0.0, 12e6) == CHANNEL.noise_floor

    def test_vanishing_field_approaches_floor(self):
        assert math.isclose(
            beat_power(CHANNEL, 1e-12, 0.0), CHANNEL.noise_floor, abs_tol=1e-6
        )

    def test_field_ratio_underflow_floors_without_warning(self):
        # 5e-324 V/cm over a 10 V/cm reference field underflows to 0: the
        # signal is -inf dBm and the power the floor, without a warning.
        coarse = replace(reference_field=10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert beat_signal_power(coarse, 5e-324, 0.0) == -math.inf
            assert beat_power(coarse, 5e-324, 0.0) == coarse.noise_floor

    def test_negative_field_rejected(self):
        with pytest.raises(DomainError):
            beat_power(CHANNEL, -1.0, 0.0)

    def test_power_sum_beyond_float_range_is_exact(self):
        # The direct sum overflows here; the larger term dominates exactly.
        huge = 1e300
        assert beat_power(CHANNEL, huge, 0.0) == beat_signal_power(CHANNEL, huge, 0.0)
        # Both terms underflow here; the sum is 3 dB above the equal terms.
        faint = replace(noise_floor=-6000.0, peak_power=-5000.0)
        field = min_detectable_field(faint, 0.0)
        s = beat_signal_power(faint, field, 0.0)
        assert beat_power(faint, field, 0.0) == s + 10.0 * math.log10(
            1.0 + 10.0 ** ((-6000.0 - s) / 10.0)
        )
        assert math.isclose(beat_power(faint, field, 0.0), -6000.0 + 10 * math.log10(2.0))

    def test_in_range_power_sum_is_the_direct_sum(self):
        fields = np.logspace(-9, -2, 50)
        s = beat_signal_power(CHANNEL, fields, 1e6)
        direct = 10.0 * np.log10(10.0 ** (s / 10.0) + 10.0 ** (CHANNEL.noise_floor / 10.0))
        assert np.array_equal(beat_power(CHANNEL, fields, 1e6), direct)

    def test_infinite_signal_power_rejected(self):
        tiny = replace(reference_field=1e-300)
        with pytest.raises(DomainError, match="beat signal power must be below"):
            beat_power(tiny, np.array([1e-5, 1e300]), 0.0)

    def test_pre_floor_slope_exact(self):
        for field in (1e-6, 1e-5, 1e-4):
            low = beat_signal_power(CHANNEL, field, 0.0)
            high = beat_signal_power(CHANNEL, 10 * field, 0.0)
            assert math.isclose(high - low, 20.0, abs_tol=1e-9)

    def test_monotone_in_field_and_detuning(self):
        fields = np.logspace(-8, -3, 40)
        powers = [beat_power(CHANNEL, e, 1e6) for e in fields]
        assert all(a <= b for a, b in zip(powers, powers[1:]))
        detunings = np.linspace(0.0, 20e6, 50)
        powers = [beat_power(CHANNEL, 1e-4, d) for d in detunings]
        assert all(a >= b for a, b in zip(powers, powers[1:]))
        for d in detunings:
            assert beat_power(CHANNEL, 1e-4, -d) == beat_power(CHANNEL, 1e-4, d)

    def test_gain_scale_enters_signal_chain(self):
        scaled = replace(gain_scale=0.5)
        delta_db = beat_signal_power(CHANNEL, 1e-4, 0.0) - beat_signal_power(
            scaled, 1e-4, 0.0
        )
        assert math.isclose(delta_db, 20 * math.log10(2.0), abs_tol=1e-9)


class TestMinDetectableField:
    def test_signal_meets_floor(self):
        e_det = min_detectable_field(CHANNEL, 0.0)
        assert math.isclose(
            beat_signal_power(CHANNEL, e_det, 0.0), CHANNEL.noise_floor, abs_tol=1e-9
        )

    def test_reference_field_scale_covariance(self):
        doubled = replace(reference_field=2 * CHANNEL.reference_field)
        assert math.isclose(
            min_detectable_field(doubled, 0.0),
            2 * min_detectable_field(CHANNEL, 0.0),
            rel_tol=1e-12,
        )

    def test_noise_floor_twenty_db_per_decade(self):
        raised = replace(noise_floor=CHANNEL.noise_floor + 20.0)
        assert math.isclose(
            min_detectable_field(raised, 0.0),
            10 * min_detectable_field(CHANNEL, 0.0),
            rel_tol=1e-12,
        )

    def test_calibration_round_trip(self):
        target = 798.2e-9
        calibrated = calibrate_noise_floor(CHANNEL, target, 500e3)
        assert math.isclose(
            min_detectable_field(calibrated, 500e3), target, rel_tol=1e-6
        )

    def test_calibration_target_scale(self):
        lo = calibrate_noise_floor(CHANNEL, 798.2e-9, 0.0)
        hi = calibrate_noise_floor(CHANNEL, 7982e-9, 0.0)
        assert math.isclose(hi.noise_floor - lo.noise_floor, 20.0, abs_tol=1e-9)

    def test_margin_beyond_float_range_is_undetectable(self):
        # A gain of 5e-324 puts the reference signal about 6420 dB below the
        # floor: the field power overflows to inf, without a warning.
        weak = channel_table(-36.5, 5.4e-5, gain_scale=[5e-324, 1.0], noise_floor=-80.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fields = min_detectable_field(weak, 0.0)
            scalar = min_detectable_field(weak[0], 0.0)
        assert fields[0] == scalar == math.inf
        assert fields[1] == min_detectable_field(weak[1], 0.0) < math.inf


class TestBroadcastBeats:
    # Three channels of rolloff orders 1 to 3, one of whose floor power
    # overflows (the factored power sum), and stimulus k: field k (zero
    # among them) at detuning k, the last two so far off line that the
    # rolloff underflows to 0.
    CHANNELS = replace(
        peak_power=[-36.5, -36.5, 4000.0],
        noise_floor=[-80.0, -60.0, 3500.0],
        gain_scale=[1.0, 0.5, 2.0],
        rolloff_order=[1, 2, 3],
    )
    DETUNINGS = np.append(np.random.default_rng(0).uniform(-3e7, 3e7, 100), [1e80, -math.inf])
    FIELDS = np.resize(np.append(0.0, np.geomspace(1e-9, 3e-2, 10)), DETUNINGS.size)

    @staticmethod
    def assert_bits_equal(got, want):
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def calls(self):
        # Each public beat function as a call of (channel, field, delta_f),
        # and the stimuli it takes: beat_signal_power needs a field > 0, and
        # rolloff, which warns where its square overflows, is read on line.
        def detuned(function):
            return lambda channel, _, delta_f: function(channel, delta_f)

        every = np.ones_like(self.FIELDS, dtype=bool)
        return [
            (beat_signal_power, self.FIELDS > 0),
            (beat_power, every),
            (detuned(min_detectable_field), every),
            (detuned(rolloff), np.abs(self.DETUNINGS) < 1e80),
        ]

    def test_scalar_calls_are_scalars(self):
        # Shape (): a 0-d table gives what its record gives.
        for record in self.CHANNELS:
            channel = channel_table(**{name: record[name] for name in ChannelRow.names})
            for function, use in self.calls():
                for field, delta_f in zip(self.FIELDS[use], self.DETUNINGS[use]):
                    got = function(channel, field, delta_f)
                    assert np.ndim(got) == 0
                    self.assert_bits_equal(got, function(record, field, delta_f))

    def test_1d_calls_equal_scalar_calls(self):
        # Shape (n,): stimulus k on channel k % 3.
        channels = self.CHANNELS[np.arange(self.FIELDS.size) % len(self.CHANNELS)]
        for function, use in self.calls():
            args = channels[use], self.FIELDS[use], self.DETUNINGS[use]
            self.assert_bits_equal(function(*args), [function(*arg) for arg in zip(*args)])

    def test_2d_broadcast_equals_scalar_calls(self):
        # Shape (n, 1) x (m,): every stimulus on every channel.
        for function, use in self.calls():
            fields, detunings = self.FIELDS[use], self.DETUNINGS[use]
            want = [[function(c, *arg) for arg in zip(fields, detunings)] for c in self.CHANNELS]
            self.assert_bits_equal(function(self.CHANNELS[:, None], fields, detunings), want)


class TestSensitivity:
    def test_center_channel_value(self):
        # Direct arithmetic: 798.2 nV/cm * sqrt(0.1 s) = 252.4 nV/cm/sqrt(Hz);
        # the measured report rounds to 253.4, accepted within 1%.
        s = sensitivity(798.2e-9, 0.1)
        assert math.isclose(s, 798.2e-9 * math.sqrt(0.1), rel_tol=1e-12)
        assert math.isclose(s, 253.4e-9, rel_tol=0.01)

    def test_unit_time_identity(self):
        assert sensitivity(3.3e-7, 1.0) == 3.3e-7

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            sensitivity(0.0, 0.1)
        with pytest.raises(DomainError):
            sensitivity(1e-7, 0.0)
        with pytest.raises(DomainError):
            sensitivity(math.nan, 0.1)
        with pytest.raises(DomainError):
            sensitivity(1e-7, math.nan)

    @pytest.mark.parametrize(
        "args, text",
        [
            ((math.inf, 1.0), "e_det must be finite and > 0, got inf"),
            ((1e-7, math.inf), "measurement_time must be finite and > 0, got inf"),
            (([1e-7, -1e-7], 1.0), "e_det must be finite and > 0, got -1e-07"),
        ],
    )
    def test_non_finite_inputs_rejected(self, args, text):
        with pytest.raises(DomainError, match=text):
            sensitivity(*args)

    def test_array_equals_scalar_calls(self):
        e_det = np.array([798.2e-9, 1.1e-6, 3.3e-7])
        expected = [sensitivity(e, 0.1) for e in e_det]
        assert sensitivity(e_det, 0.1).tolist() == expected


class TestFarField:
    def test_zero_power(self):
        assert far_field_strength(0.0, 1.0, 1.0) == 0.0

    def test_unit_substitution(self):
        assert math.isclose(
            far_field_strength(1.0, 1.0, 1.0), math.sqrt(30.0), rel_tol=1e-12
        )
        assert math.isclose(far_field_strength(1.0, 1.0, 1.0), 5.4772, rel_tol=1e-4)

    def test_quadrupling_power_doubles_field(self):
        base = far_field_strength(1e-6, 2.5, 0.7, 1.1)
        assert math.isclose(
            far_field_strength(4e-6, 2.5, 0.7, 1.1), 2 * base, rel_tol=1e-12
        )

    def test_zero_distance_rejected(self):
        with pytest.raises(DomainError):
            far_field_strength(1.0, 1.0, 0.0)

    def test_nan_inputs_rejected(self):
        for args in [
            (math.nan, 1.0, 1.0),
            (1.0, math.nan, 1.0),
            (1.0, 1.0, math.nan),
            (1.0, 1.0, 1.0, math.nan),
        ]:
            with pytest.raises(DomainError):
                far_field_strength(*args)


class TestScenarioValidation:
    def test_sweep_bounds(self, tmp_path):
        # 1e300 GHz is a finite number, but inf Hz: the config names the key.
        path = tmp_path / "sweep.yaml"
        path.write_text("scenarios:\n  response:\n    stop_ghz: 1.0e+300\n")
        message = "^scenarios.response.stop_ghz must be a finite number, got inf$"
        with pytest.raises(ConfigError, match=message):
            load_config(path)

    def test_tone_list_required(self, plan21, channels21):
        with pytest.raises(DomainError, match="non-empty 1-D array of frequencies"):
            stitched_response(plan21, channels21, [], 1e-5)

    def test_negative_field(self, plan21, channels21):
        with pytest.raises(DomainError, match="field must be finite and >= 0, got -1.0"):
            stitched_response(plan21, channels21, [8.13e9, 8.14e9], [1e-5, -1.0])


class TestStitchedResponse:
    def test_empty_plan_rejected(self, config):
        empty = CellArrayPlan(
            entries=np.recarray(0, dtype=PlanRow), min_spacing=math.inf, feasible=True
        )
        with pytest.raises(PlannerError, match="plan has no entries"):
            stitched_response(empty, (), 8.13e9, 1e-5)

    def test_channel_count_mismatch(self, plan21, channels21):
        with pytest.raises(PlannerError, match="got 20 channel responses for 21 plan entries"):
            stitched_response(plan21, channels21[:-1], 8.13e9, 1e-5)
        with pytest.raises(PlannerError, match="got 1 channel responses for 21 plan entries"):
            stitched_response(plan21, CHANNEL, 8.13e9, 1e-5)

    def test_rows_floored_and_ordered(self, plan21, channels21):
        sweep = np.linspace(8.02e9, 8.24e9, 201)
        spectrum = stitched_response(plan21, channels21, sweep, 1e-6)
        assert len(spectrum) == 201
        freqs = [row.signal_frequency for row in spectrum]
        assert freqs == sorted(freqs)
        for row in spectrum:
            channel = channels21[row.channel_index]
            assert row.beat_power >= channel.noise_floor

    def test_routed_row_is_max_over_channels(self, plan21, config, channels21):
        # Well above the floor the nearest channel is also the strongest, so
        # routed rows trace the per-frequency maximum. At exact channel
        # midpoints the neighbors differ only through their unequal noise
        # floors, a sub-0.01 dB flooring effect.
        sweep = np.linspace(8.025e9, 8.235e9, 85)
        field = config.channel_defaults.reference_field
        spectrum = stitched_response(plan21, channels21, sweep, field)
        lines = plan21.entries.line_frequency
        for row in spectrum:
            per_channel = beat_power(channels21, field, row.signal_frequency - lines)
            assert math.isclose(row.beat_power, per_channel.max(), abs_tol=0.01)

    def test_out_of_band_rows_flagged(self, plan21, channels21):
        tones = [8.022e9, 8.03e9, 8.238e9]
        spectrum = stitched_response(plan21, channels21, tones, 1e-5)
        assert [row.in_band for row in spectrum] == [False, True, False]

    def test_single_tone_isolated_when_small(self, plan21, channels21):
        # A tone just above its own channel's threshold but below every
        # neighbor's stays confined to one channel.
        lines = plan21.entries.line_frequency
        field = 2.0 * min_detectable_field(channels21[10], 0.0)
        above = field >= min_detectable_field(channels21, lines[10] - lines)
        assert np.flatnonzero(above).tolist() == [10]

    def test_tiny_tone_nowhere_above_noise(self, plan21, channels21):
        lines = plan21.entries.line_frequency
        neighbor_threshold = min(
            min_detectable_field(channels21[9], -10e6),
            min_detectable_field(channels21[11], 10e6),
        )
        field = neighbor_threshold / 10.0
        above = np.flatnonzero(field >= min_detectable_field(channels21, lines[10] - lines))
        assert above.tolist() == [] or above.tolist() == [10]
        assert 9 not in above and 11 not in above

    def test_stitching_ripple_is_exactly_three_db(self, plan21, config, channels21):
        # Channels meet at their half-power points, so the stitched band
        # minimum sits 10*log10(2) below the peak.
        field = config.channel_defaults.reference_field
        sweep = np.linspace(8.025e9, 8.235e9, 421)
        spectrum = stitched_response(plan21, channels21, sweep, field)
        beats = [row.beat_power for row in spectrum]
        ripple = max(beats) - min(beats)
        assert math.isclose(ripple, 10 * math.log10(2.0), abs_tol=0.01)

    def test_two_cell_sweep_peak_separation(self, profile, transition, config):
        from starkcomb import FrequencyComb, place_cells

        comb = FrequencyComb(8.13e9, 200e6, 2, total_power=11.0)
        plan = place_cells(profile, transition, comb)
        channels = build_channels(config.channel_defaults, plan.entries)
        field = config.channel_defaults.reference_field
        sweep = np.linspace(8.02e9, 8.24e9, 221)
        spectrum = stitched_response(plan, channels, sweep, field)
        peaks = {}
        for row in spectrum:
            if (
                row.channel_index not in peaks
                or row.beat_power > peaks[row.channel_index][1]
            ):
                peaks[row.channel_index] = (row.signal_frequency, row.beat_power)
        separation = abs(peaks[1][0] - peaks[0][0])
        assert math.isclose(separation, 200e6, abs_tol=1e6)


class TestChannelValidation:
    def test_floor_above_peak_rejected(self):
        with pytest.raises(DomainError):
            channel_table(peak_power=-36.5, reference_field=1e-4, noise_floor=-30.0)

    def test_bad_rolloff_order(self):
        for order in (0, 1.5, math.nan, math.inf):
            with pytest.raises(DomainError):
                channel_table(
                    peak_power=-36.5, reference_field=1e-4, rolloff_order=order
                )

    def test_float_range_rejected(self):
        with pytest.raises(DomainError, match="reference_field must be > 0, got inf"):
            channel_table(peak_power=-36.5, reference_field=math.inf)
        with pytest.raises(DomainError, match="gain_scale must be > 0, got 0"):
            channel_table(peak_power=-36.5, reference_field=1e-4, gain_scale=0)

    @pytest.mark.parametrize(
        "changes, text",
        [
            ({"reference_field": [1e-4, math.nan]}, "reference_field must be > 0, got nan"),
            ({"half_width_3db": [5e6, -1.0, 0.0]}, "half_width_3db must be > 0, got -1.0"),
            ({"rolloff_order": [2, 0, 3]}, "rolloff_order must be a positive integer, got 0"),
            ({"gain_scale": [1.0, 1.0, math.inf]}, "gain_scale must be > 0, got inf"),
            (
                {"noise_floor": [-80.0, -30.0, -20.0]},
                r"noise_floor \(-30.0 dBm\) must be below peak_power \(-36.5 dBm\), both finite",
            ),
        ],
    )
    def test_first_failing_element_named(self, changes, text):
        with pytest.raises(DomainError, match=f"^{text}$"):
            replace(**changes)


class TestChannelTable:
    def test_scalars_give_one_channel(self):
        assert CHANNEL.shape == ()
        assert CHANNEL.dtype == ChannelRow
        assert CHANNEL.noise_floor == -73.23
        assert CHANNEL.rolloff_order.dtype == np.float64

    def test_columns_broadcast(self):
        table = replace(gain_scale=[0.5, 1.0, 2.0])
        assert table.shape == (3,)
        assert table.gain_scale.tolist() == [0.5, 1.0, 2.0]
        assert table.peak_power.tolist() == [-36.5] * 3
        assert table[2].gain_scale == 2.0

    def test_read_only(self):
        table = replace(gain_scale=[0.5, 1.0])
        with pytest.raises(ValueError, match="read-only"):
            table.noise_floor[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            CHANNEL.noise_floor[()] = 0.0

    def test_array_calls_equal_per_channel_calls(self, config, channels21):
        delta = config.channel_defaults.reference_detuning
        assert min_detectable_field(channels21, delta).tolist() == [
            min_detectable_field(channel, delta) for channel in channels21
        ]
        field = config.channel_defaults.reference_field
        assert beat_power(channels21, field, delta).tolist() == [
            beat_power(channel, field, delta) for channel in channels21
        ]

    def test_calibration_takes_and_returns_a_table(self, channels21):
        targets = np.linspace(7e-7, 9e-7, len(channels21))
        calibrated = calibrate_noise_floor(channels21, targets, 500e3)
        assert calibrated.dtype == ChannelRow and not calibrated.flags.writeable
        assert calibrated.noise_floor.tolist() == [
            calibrate_noise_floor(channel, target, 500e3).noise_floor
            for channel, target in zip(channels21, targets)
        ]
        assert np.allclose(min_detectable_field(calibrated, 500e3), targets, rtol=1e-9)
        for name in ChannelRow.names:
            if name != "noise_floor":
                assert np.array_equal(calibrated[name], channels21[name])

    def test_default_channels_are_a_table(self, config, channels21):
        assert channels21.dtype == ChannelRow
        assert channels21.shape == (config.comb.line_count,)
        assert not channels21.flags.writeable
