import math

import numpy as np
import pytest

from starkcomb import (
    DomainError,
    FieldProfile,
    InfeasibleProfileError,
    ProfileRangeError,
    UnderdeterminedError,
    field_at,
    fit_profile,
    position_at,
    transition_frequency_at,
)

from conftest import ANCHORS, FIELD_FREE_HZ, _bisect_position


def test_anchor_identity_at_reference(profile):
    assert field_at(profile, 2.0) == profile.reference_field


def test_fitted_exponent_matches_closed_form(profile):
    # Two-anchor closed form: 2*gamma = ln(260/60) / ln(7.98/2).
    expected = math.log(260.0 / 60.0) / math.log(7.98 / 2.0)
    assert math.isclose(2.0 * profile.decay_exponent, expected, rel_tol=1e-12)
    assert math.isclose(2.0 * profile.decay_exponent, 1.0596519446346415, rel_tol=1e-12)


def test_endpoint_frequencies(profile, transition):
    assert math.isclose(
        transition_frequency_at(profile, transition, 2.0), 8.23e9, abs_tol=1e-3
    )
    assert math.isclose(
        transition_frequency_at(profile, transition, 7.98), 8.03e9, abs_tol=1e-3
    )


def test_center_line_position(profile, transition):
    # Closed-form inversion: x = x_ref * (offset_ref / offset)**(1 / (2*gamma)).
    closed_form = 2.0 * (260e6 / 160e6) ** (1.0 / (2.0 * profile.decay_exponent))
    bisected = _bisect_position(profile, transition, 8.13e9, 2.0, 7.98)
    assert math.isclose(bisected, closed_form, abs_tol=1e-9)
    assert math.isclose(closed_form, 3.162, abs_tol=1e-3)
    assert math.isclose(
        transition_frequency_at(profile, transition, closed_form), 8.13e9, abs_tol=1.0
    )


def test_position_at_inverts_field_at():
    for offset in (0.0, 0.37):
        p = FieldProfile(2.0, 16.0, 0.53, offset, valid_range=(2.0, 7.98))
        for x in np.linspace(2.0, 7.98, 301).tolist():
            assert math.isclose(position_at(p, field_at(p, x)), x, rel_tol=1e-15)
        assert position_at(p, 16.0) == 2.0


def test_position_at_rejects_unreachable_fields(profile):
    for field in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            position_at(profile, field)
    for x in (1.999, 7.981):
        # Fields just beyond either end of the profile.
        e = profile.reference_field * (2.0 / x) ** profile.decay_exponent
        with pytest.raises(ProfileRangeError):
            position_at(profile, e)


def test_strictly_decreasing(profile, transition):
    xs = np.linspace(2.0, 7.98, 300)
    freqs = [transition_frequency_at(profile, transition, x) for x in xs]
    assert all(a > b for a, b in zip(freqs, freqs[1:]))
    fields = [field_at(profile, x) for x in xs]
    assert all(a > b for a, b in zip(fields, fields[1:]))
    assert all(f > 0 for f in fields)


def test_fit_reproduces_anchors_within_tolerance(profile, transition):
    for x, f in ANCHORS:
        assert abs(transition_frequency_at(profile, transition, x) - f) <= 1e3


def test_fit_three_consistent_anchors(transition, profile):
    # A third anchor generated on the fitted curve keeps the fit exact.
    x_mid = 4.3
    f_mid = transition_frequency_at(profile, transition, x_mid)
    refit = fit_profile([*ANCHORS, (x_mid, f_mid)], transition)
    for x, f in (*ANCHORS, (x_mid, f_mid)):
        assert abs(transition_frequency_at(refit, transition, x) - f) <= 1e3


def test_fit_inconsistent_anchors_rejected(transition, profile):
    x_mid = 4.3
    f_mid = transition_frequency_at(profile, transition, x_mid) + 50e6
    with pytest.raises(InfeasibleProfileError):
        fit_profile([*ANCHORS, (x_mid, f_mid)], transition)


def test_equal_anchor_positions_rejected(transition, recwarn):
    with pytest.raises(UnderdeterminedError):
        fit_profile([(2.0, 8.23e9), (2.0, 8.03e9)], transition)
    # Distinct positions that coincide once a huge offset is added: rejected
    # before np.polyfit warns about a rank-deficient fit.
    with pytest.raises(UnderdeterminedError, match="share position"):
        fit_profile(ANCHORS, transition, offset=1e300)
    assert not recwarn.list


def test_single_anchor_without_exponent_rejected(transition):
    with pytest.raises(UnderdeterminedError):
        fit_profile([(2.0, 8.23e9)], transition)


def test_non_monotone_anchors_rejected(transition):
    with pytest.raises(InfeasibleProfileError):
        fit_profile([(2.0, 8.03e9), (7.98, 8.23e9)], transition)


def test_single_anchor_with_explicit_exponent(transition):
    p = fit_profile([(2.0, 8.23e9)], transition, decay_exponent=0.53)
    assert p.decay_exponent == 0.53
    assert math.isclose(
        transition_frequency_at(p, transition, 2.0), 8.23e9, abs_tol=1e-3
    )


def test_fitted_exponent_positive(transition):
    for anchors in (ANCHORS, ((1.0, 8.5e9), (3.0, 8.1e9)), ((2.0, 8.2e9), (9.0, 8.0e9))):
        p = fit_profile(anchors, transition)
        assert p.decay_exponent > 0


def test_out_of_range_rejected(profile):
    with pytest.raises(ProfileRangeError):
        field_at(profile, 1.999)
    with pytest.raises(ProfileRangeError):
        field_at(profile, 7.981)


def test_invalid_profile_construction():
    for reference_field, decay_exponent, offset, valid_range in [
        (10.0, -1.0, 0.0, (2.0, 8.0)),
        (10.0, 0.5, 0.0, (8.0, 2.0)),
        (-1.0, 0.5, 0.0, (2.0, 8.0)),
        (math.nan, 0.5, 0.0, (2.0, 8.0)),
        (10.0, math.nan, 0.0, (2.0, 8.0)),
        (10.0, 0.5, math.nan, (2.0, 8.0)),
        (10.0, 0.5, 0.0, (math.nan, 8.0)),
    ]:
        with pytest.raises(InfeasibleProfileError):
            FieldProfile(2.0, reference_field, decay_exponent, offset, valid_range)
