import math

import numpy as np
import pytest

import starkcomb.comb
from starkcomb import (
    CoverageError,
    DomainError,
    FrequencyComb,
    PlannerError,
    assign_channel,
    comb_lines,
    coverage_union,
    place_cells,
    transition_frequency_at,
)


def test_default_comb_lines(comb21):
    lines = comb_lines(comb21)
    assert len(lines) == 21
    assert math.isclose(lines[0], 8.03e9, rel_tol=1e-15)
    assert math.isclose(lines[-1], 8.23e9, rel_tol=1e-15)
    spacings = np.diff(lines)
    np.testing.assert_allclose(spacings, 10e6, rtol=1e-12)


def test_single_line_comb():
    c = FrequencyComb(8.13e9, 10e6, 1, total_power=11.0)
    assert comb_lines(c) == [8.13e9]


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


class TestPlaceCells:
    def test_default_plan(self, plan21, profile, transition):
        assert len(plan21.entries) == 21
        positions = [e.position for e in plan21.entries]
        assert positions[0] == 7.98  # lowest line at the low-field end
        assert positions[-1] == 2.0  # highest line at the high-field end
        assert all(a > b for a, b in zip(positions, positions[1:]))
        assert plan21.feasible
        for entry in plan21.entries:
            residual = abs(
                transition_frequency_at(profile, transition, entry.position)
                - entry.line_frequency
            )
            assert residual <= 1e3

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


class TestAssignChannel:
    def test_half_megahertz_detuning(self, comb21):
        index, delta = assign_channel(comb21, 8.1305e9, half_width=5e6)
        assert index == 10
        assert math.isclose(delta, 500e3, rel_tol=1e-9)

    def test_on_line_zero_detuning(self, comb21):
        for k, line in enumerate(comb_lines(comb21)):
            index, delta = assign_channel(comb21, line, half_width=5e6)
            assert index == k
            assert delta == 0.0

    def test_band_edge(self, comb21):
        index, delta = assign_channel(comb21, 8.025e9, half_width=5e6)
        assert index == 0
        assert math.isclose(delta, -5e6, rel_tol=1e-12)

    def test_out_of_band(self, comb21):
        with pytest.raises(CoverageError):
            assign_channel(comb21, 8.0249e9, half_width=5e6)
        with pytest.raises(CoverageError):
            assign_channel(comb21, 8.2351e9, half_width=5e6)

    def test_midpoint_resolves_to_lower_index(self, comb21):
        index, delta = assign_channel(comb21, 8.035e9, half_width=5e6)
        assert index == 0
        assert math.isclose(delta, 5e6, rel_tol=1e-12)

    def test_exhaustive_search_equivalence(self, comb21):
        lines = np.array(comb_lines(comb21))
        rng = np.random.default_rng(42)
        freqs = rng.uniform(lines[0] - 5e6, lines[-1] + 5e6, 10_000)
        for f in freqs:
            index, delta = assign_channel(comb21, float(f), half_width=5e6)
            brute = int(np.argmin(np.abs(f - lines)))  # first minimum = lower index
            assert index == brute
            assert delta == f - lines[brute]


class TestCoverage:
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
