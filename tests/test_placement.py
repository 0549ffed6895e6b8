"""Closed-form cell placement against the plain-bisection oracle."""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starkcomb import (
    CoverageError,
    FrequencyComb,
    RydbergTransition,
    comb_lines,
    fit_profile,
    place_cells,
    transition_frequency_at,
)

from conftest import DPOL_HZ_PER_V2, FIELD_FREE_HZ, _bisect_position

TRANSITION = RydbergTransition(FIELD_FREE_HZ, DPOL_HZ_PER_V2)


@st.composite
def profiles(draw):
    """Power-law profiles with offset 0-1 cm, exponent fitted or fixed."""
    offset = draw(st.floats(0.0, 1.0))
    x_lo = draw(st.floats(0.5, 3.0))
    x_hi = x_lo + draw(st.floats(0.5, 8.0))
    f_top = FIELD_FREE_HZ + draw(st.floats(50e6, 500e6))
    if draw(st.booleans()):
        f_bottom = FIELD_FREE_HZ + (f_top - FIELD_FREE_HZ) * draw(st.floats(0.05, 0.8))
        return fit_profile([(x_lo, f_top), (x_hi, f_bottom)], TRANSITION, offset=offset)
    profile = fit_profile(
        [(x_lo, f_top)], TRANSITION, offset=offset, decay_exponent=draw(st.floats(0.1, 3.0))
    )
    return replace(profile, valid_range=(x_lo, x_hi))


def _inset(draw, endpoint, tol, band):
    # How far inside the band a comb's outer line sits: a few ulps (snaps to
    # the endpoint), just past the snap zone, or anywhere in the band.
    ulps = draw(st.integers(0, 8)) * math.ulp(endpoint)
    kind = draw(st.sampled_from(["snap", "past snap", "inside"]))
    if kind == "snap":
        return ulps
    if kind == "past snap":
        return tol + 16 * math.ulp(endpoint) + ulps
    return band * draw(st.floats(0.0, 0.3))


@st.composite
def placements(draw):
    profile = draw(profiles())
    tol = draw(st.floats(50.0, 1e3))
    lo, hi = profile.valid_range
    f_lo = transition_frequency_at(profile, TRANSITION, lo)
    f_hi = transition_frequency_at(profile, TRANSITION, hi)
    band = f_lo - f_hi
    first = f_hi + _inset(draw, f_hi, tol, band)
    last = f_lo - _inset(draw, f_lo, tol, band)
    # Optionally push one outer line out of the band, just or far past the snap zone.
    beyond = tol + draw(st.sampled_from([16 * math.ulp(f_lo), 0.5 * tol, 5 * tol, 1e6]))
    side = draw(st.sampled_from(["in band", "below", "above"]))
    if side == "below":
        first = f_hi - beyond
    elif side == "above":
        last = f_lo + beyond
    # No more lines than keep them 3 tol apart, so no two snap together.
    count = draw(st.integers(1, max(1, min(161, int((last - first) / (3 * tol)) + 1))))
    if count == 1:
        comb = FrequencyComb(draw(st.sampled_from([first, last])), 10e6, 1)
    else:
        comb = FrequencyComb(0.5 * (first + last), (last - first) / (count - 1), count)
    return profile, tol, comb, f_lo, f_hi


@settings(derandomize=True, max_examples=150, deadline=None)
@given(placements())
def test_closed_form_placement_matches_bisection_oracle(case):
    profile, tol, comb, f_lo, f_hi = case
    lo, hi = profile.valid_range
    lines = comb_lines(comb)
    for k, line in enumerate(lines):
        snapped = abs(f_lo - line) <= tol or abs(f_hi - line) <= tol
        if not (snapped or f_hi < line < f_lo):
            with pytest.raises(CoverageError) as info:
                place_cells(profile, TRANSITION, comb, tol=tol)
            assert str(info.value) == (
                f"line {k}: line at {line} Hz outside reachable band [{f_hi}, {f_lo}] Hz"
            )
            return

    plan = place_cells(profile, TRANSITION, comb, tol=tol)
    positions = [e.position for e in plan.entries]
    assert all(a > b for a, b in zip(positions, positions[1:]))
    oracle = _bisect_position(profile, TRANSITION, lines, lo, hi)
    for line, x, bisected in zip(lines, positions, oracle.tolist()):
        assert abs(transition_frequency_at(profile, TRANSITION, x) - line) <= tol
        if abs(f_lo - line) <= tol:
            assert x == lo
        elif abs(f_hi - line) <= tol:
            assert x == hi
        else:
            assert abs(x - bisected) <= 1e-9
