import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import starkcomb.comb
from starkcomb import (
    CoverageError,
    DomainError,
    FrequencyComb,
    PlannerError,
    PlanRow,
    channel_table,
    comb_lines,
    coverage_union,
    place_cells,
    stitched_response,
    transition_frequency_at,
)
from starkcomb.comb import nearest_line_index


def test_default_comb_lines(comb21):
    lines = comb_lines(comb21)
    assert len(lines) == 21
    assert math.isclose(lines[0], 8.03e9, rel_tol=1e-15)
    assert math.isclose(lines[-1], 8.23e9, rel_tol=1e-15)
    spacings = np.diff(lines)
    np.testing.assert_allclose(spacings, 10e6, rtol=1e-12)


def test_single_line_comb():
    c = FrequencyComb(8.13e9, 10e6, 1, total_power=11.0)
    assert comb_lines(c).tolist() == [8.13e9]


def test_comb_lines_are_a_read_only_array(comb21, plan21):
    lines = comb_lines(comb21)
    assert lines.dtype == float
    with pytest.raises(ValueError, match="read-only"):
        lines[0] = 0.0
    assert plan21.entries.line_frequency.tobytes() == lines.tobytes()


def test_numpy_integer_line_count_accepted():
    c = FrequencyComb(8.13e9, 10e6, np.int64(3), total_power=11.0)
    assert comb_lines(c).tolist() == comb_lines(FrequencyComb(8.13e9, 10e6, 3)).tolist()


def test_two_line_comb_symmetric_pair():
    c = FrequencyComb(8.13e9, 10e6, 2, total_power=11.0)
    lo, hi = comb_lines(c)
    # Symmetric-pair oracle: mean is the center, gap is the spacing.
    assert math.isclose((lo + hi) / 2.0, 8.13e9, rel_tol=1e-15)
    assert math.isclose(hi - lo, 10e6, rel_tol=1e-12)
    assert math.isclose(lo, 8.125e9, rel_tol=1e-15)
    assert math.isclose(hi, 8.135e9, rel_tol=1e-15)


def test_equal_power_split(comb21):
    expected = 11.0 - 10.0 * math.log10(21)
    assert all(math.isclose(p, expected) for p in comb21.per_line_power)


def test_per_line_override_and_total():
    powers = tuple(float(-3 + 0.1 * k) for k in range(5))
    c = FrequencyComb(8.13e9, 10e6, 5, per_line_power=powers)
    assert c.per_line_power == powers
    total = 10.0 * math.log10(sum(10 ** (p / 10) for p in powers))
    assert math.isclose(c.total_power, total)


def test_per_line_count_mismatch():
    with pytest.raises(DomainError, match="20 entries.*21"):
        FrequencyComb(8.13e9, 10e6, 21, per_line_power=(0.0,) * 20)


def test_invalid_comb():
    for args, kwargs in [
        ((8.13e9, 0.0, 21), {"total_power": 11.0}),
        ((8.13e9, 10e6, 0), {"total_power": 11.0}),
        ((math.nan, 10e6, 21), {}),
        ((0.0, 10e6, 21), {}),
        ((math.inf, 10e6, 21), {}),
        ((8.13e9, math.nan, 21), {}),
        ((8.13e9, math.inf, 21), {}),
        ((8.13e9, 10e6, 21), {"total_power": math.nan}),
        ((8.13e9, 10e6, 2), {"per_line_power": (0.0, math.nan)}),
        ((8.13e9, 10e6, 2), {"per_line_power": (0.0, math.inf)}),
        ((8.13e9, 10e6, 2), {"per_line_power": (4000.0, 0.0)}),
        ((8.13e9, 10e6, 2), {"per_line_power": (-4000.0, -4000.0)}),
        ((8.13e9, 10e6, 2), {"per_line_power": (3082.0, 3082.0)}),
        ((8.13e9, 10e6, 21), {"total_power": 4000.0}),
    ]:
        with pytest.raises(DomainError):
            FrequencyComb(*args, **kwargs)


def test_valid_levels_build_no_error_text():
    # The error text lists every level, so it is built only when a level
    # fails: a valid comb's construction grows the traced peak by its level
    # arrays alone, about 16 B per level. Building the text on every
    # construction measured about 95 B per level.
    peaks = {}
    for count in (50_000, 200_000):
        levels = tuple(np.linspace(-10.0, 10.0, count).tolist())
        tracemalloc.start()
        try:
            FrequencyComb(8.13e9, 1e3, count, per_line_power=levels)
            peaks[count] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[200_000] - peaks[50_000] < 32 * 150_000


class TestPlaceCells:
    def test_default_plan(self, comb21, plan21, profile, transition):
        unequal = FrequencyComb(
            8.13e9, 10e6, 21, per_line_power=tuple(-3.0 + 0.25 * k for k in range(21))
        )
        assert len(set(unequal.per_line_power)) == 21
        for comb, plan in [
            (comb21, plan21),
            (unequal, place_cells(profile, transition, unequal)),
        ]:
            entries = plan.entries
            assert len(entries) == 21
            assert entries.dtype == PlanRow
            assert entries.line_index.tolist() == list(range(21))
            assert entries.line_frequency.tolist() == comb_lines(comb).tolist()
            assert entries.lo_power.tolist() == list(comb.per_line_power)
            assert all(entries[k].position == entries.position[k] for k in range(21))
            positions = [e.position for e in entries]
            assert positions[0] == 7.98  # lowest line at the low-field end
            assert positions[-1] == 2.0  # highest line at the high-field end
            assert all(a > b for a, b in zip(positions, positions[1:]))
            assert plan.feasible
            for entry in entries:
                residual = abs(
                    transition_frequency_at(profile, transition, entry.position)
                    - entry.line_frequency
                )
                assert residual <= 1e3

    def test_entries_are_read_only(self, plan21):
        entries = plan21.entries
        before = entries.position.tolist()
        with pytest.raises(ValueError, match="read-only"):
            entries.position[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            entries[::-1].lo_power[0] = 0.0
        assert entries.position.tolist() == before

    def test_positions_match_closed_form(self, plan21, profile):
        # Analytic inversion oracle for the zero-offset power law:
        # x_k = x_ref * (offset_ref / offset_k) ** (1 / (2*gamma)).
        gamma = profile.decay_exponent
        for entry in plan21.entries:
            offset_k = entry.line_frequency - 7.97e9
            expected = 2.0 * (260e6 / offset_k) ** (1.0 / (2.0 * gamma))
            assert math.isclose(entry.position, expected, rel_tol=0.0, abs_tol=1e-12)

    def test_min_spacing_at_high_frequency_end(self, plan21, profile):
        gamma = profile.decay_exponent
        xs = [2.0 * (260e6 / (f - 7.97e9)) ** (1.0 / (2.0 * gamma))
              for f in [e.line_frequency for e in plan21.entries]]
        gaps = [a - b for a, b in zip(xs, xs[1:])]
        assert math.isclose(plan21.min_spacing, min(gaps), abs_tol=1e-6)
        # Smallest gap sits between the two highest-frequency lines.
        assert min(gaps) == gaps[-1]

    def test_min_gap_flags_feasibility(self, profile, transition, comb21):
        plan = place_cells(profile, transition, comb21, min_gap=0.5)
        assert not plan.feasible
        assert plan.min_spacing < 0.5

    def test_single_line_fixed_point(self, profile, transition):
        target = transition_frequency_at(profile, transition, 5.0)
        c = FrequencyComb(target, 10e6, 1, total_power=0.0)
        plan = place_cells(profile, transition, c)
        assert math.isclose(plan.entries[0].position, 5.0, abs_tol=1e-6)
        assert plan.min_spacing == math.inf
        assert plan.feasible

    def test_line_outside_band(self, profile, transition):
        c = FrequencyComb(8.3e9, 10e6, 3, total_power=0.0)
        with pytest.raises(CoverageError, match="line 0.*outside reachable band"):
            place_cells(profile, transition, c)

    def test_residual_guard(self, profile, transition, comb21, monkeypatch):
        # Every interior position is checked against its line; a NaN
        # residual fails the check too. The stand-ins take scalars and arrays.
        exact = starkcomb.comb.transition_frequency_at
        for evaluate in (
            lambda p, t, x: exact(p, t, x) + np.where(np.isin(x, p.valid_range), 0.0, 2e3),
            lambda p, t, x: np.where(np.isin(x, p.valid_range), exact(p, t, x), math.nan),
        ):
            monkeypatch.setattr(starkcomb.comb, "transition_frequency_at", evaluate)
            with pytest.raises(PlannerError, match="misses line"):
                place_cells(profile, transition, comb21)


class TestRouting:
    # The router the scenarios run: nearest_line_index, as stitched_response
    # applies it to the plan's lines and reports in its rows.
    def route(self, plan21, channels21, frequencies):
        lines = plan21.entries.line_frequency
        rows = stitched_response(plan21, channels21, frequencies, 1e-5)
        assert rows.channel_index.tolist() == nearest_line_index(lines, frequencies).tolist()
        return rows

    def test_half_megahertz_detuning(self, plan21, channels21):
        (row,) = self.route(plan21, channels21, [8.1305e9])
        assert row.channel_index == 10
        assert math.isclose(row.delta_f, 500e3, rel_tol=1e-9)

    def test_on_line_zero_detuning(self, comb21, plan21, channels21):
        rows = self.route(plan21, channels21, comb_lines(comb21))
        assert rows.channel_index.tolist() == list(range(21))
        assert rows.delta_f.tolist() == [0.0] * 21

    def test_band_edge(self, plan21, channels21):
        (row,) = self.route(plan21, channels21, [8.025e9])
        assert row.channel_index == 0
        assert math.isclose(row.delta_f, -5e6, rel_tol=1e-12)
        assert row.in_band

    def test_out_of_band(self, plan21, channels21):
        rows = self.route(plan21, channels21, [8.0249e9, 8.2351e9, 9e9])
        assert rows.channel_index.tolist() == [0, 20, 20]
        assert rows.in_band.tolist() == [False, False, False]

    def test_midpoint_resolves_to_lower_index(self, plan21, channels21):
        (row,) = self.route(plan21, channels21, [8.035e9])
        assert row.channel_index == 0
        assert math.isclose(row.delta_f, 5e6, rel_tol=1e-12)

    @pytest.mark.parametrize("half_width", [0.0, -1.0, math.nan, math.inf])
    def test_bad_half_width_rejected(self, half_width):
        with pytest.raises(DomainError, match="half_width_3db must be > 0"):
            channel_table(-36.5, 1e-5, half_width_3db=half_width)

    @pytest.mark.parametrize("frequency", [math.nan, math.inf, -math.inf])
    def test_non_finite_signal_rejected(self, plan21, channels21, frequency):
        # An invalid input, not a coverage failure.
        with pytest.raises(DomainError, match="signal frequency must be finite"):
            stitched_response(plan21, channels21, frequency, 1e-5)

    def test_exhaustive_search_equivalence(self, comb21, plan21, channels21):
        lines = comb_lines(comb21)
        rng = np.random.default_rng(42)
        freqs = rng.uniform(lines[0] - 5e6, lines[-1] + 5e6, 10_000)
        rows = self.route(plan21, channels21, freqs)
        brute = np.argmin(np.abs(freqs[:, None] - lines), axis=1)  # first minimum = lower index
        assert rows.channel_index.tolist() == brute.tolist()
        assert rows.delta_f.tolist() == (freqs - lines[brute]).tolist()


def _merged_by_loop(lines, half_width):
    # The interval merge that coverage_union replaced, one interval at a time.
    intervals = sorted((f - half_width, f + half_width) for f in lines)
    merged = [intervals[0]]
    for lo, hi in intervals[1:]:
        last_lo, last_hi = merged[-1]
        if lo <= last_hi:
            merged[-1] = (last_lo, max(last_hi, hi))
        else:
            merged.append((lo, hi))
    return merged


@st.composite
def lines_and_half_widths(draw):
    """Lines on a grid of half-widths, where lines two steps apart touch
    exactly (integers are exact in floating point), mixed with free lines."""
    half_width = float(draw(st.integers(1, 10**6)))
    grid = st.integers(-40, 40).map(lambda k: k * half_width)
    lines = draw(st.lists(st.one_of(grid, st.floats(-1e8, 1e8)), min_size=1, max_size=30))
    return lines, half_width


class TestCoverage:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(lines_and_half_widths())
    def test_union_equals_merge_loop(self, case):
        lines, half_width = case
        expected = _merged_by_loop(lines, half_width)
        assert coverage_union(lines, half_width) == expected
        assert coverage_union(np.array(lines), half_width) == expected

    def test_full_plan_coverage_210_mhz(self, comb21):
        intervals = coverage_union(comb_lines(comb21), half_width=5e6)
        assert len(intervals) == 1
        lo, hi = intervals[0]
        assert math.isclose(hi - lo, 210e6, rel_tol=1e-12)
        assert math.isclose(lo, 8.025e9, rel_tol=1e-15)
        assert math.isclose(hi, 8.235e9, rel_tol=1e-15)

    def test_two_cell_composition(self):
        # Two lines spaced 2*half_width compose a contiguous 4*half_width band.
        half_width = 5e6
        c = FrequencyComb(8.13e9, 2 * half_width, 2, total_power=0.0)
        intervals = coverage_union(comb_lines(c), half_width=half_width)
        assert len(intervals) == 1
        lo, hi = intervals[0]
        assert hi - lo == 4 * half_width

    def test_gapped_comb_not_contiguous(self):
        c = FrequencyComb(8.13e9, 15e6, 2, total_power=0.0)
        intervals = coverage_union(comb_lines(c), half_width=5e6)
        assert len(intervals) == 2

    def test_no_lines_rejected(self):
        with pytest.raises(DomainError):
            coverage_union([], half_width=5e6)

    def test_plan_line_array_accepted(self, plan21, comb21):
        lines = plan21.entries.line_frequency
        assert coverage_union(lines, half_width=5e6) == coverage_union(
            comb_lines(comb21), half_width=5e6
        )
        with pytest.raises(DomainError, match="at least one line"):
            coverage_union(lines[:0], half_width=5e6)

    @pytest.mark.parametrize("half_width", [0.0, -1.0, math.nan, math.inf])
    def test_bad_half_width_rejected(self, comb21, half_width):
        with pytest.raises(DomainError, match="half_width must be finite and > 0"):
            coverage_union(comb_lines(comb21), half_width=half_width)
