import math

import numpy as np
import pytest

from starkcomb import (
    DegenerateTransitionError,
    DomainError,
    RydbergTransition,
    UnreachableFrequencyError,
    field_for_frequency,
    stark_shifted_frequency,
)

from conftest import DPOL_HZ_PER_V2, FIELD_FREE_HZ


def test_zero_field_gives_field_free_frequency(transition):
    assert stark_shifted_frequency(transition, 0.0) == FIELD_FREE_HZ


def test_zero_polarizability_identity():
    t = RydbergTransition(FIELD_FREE_HZ, 0.0)
    for field in (0.0, 3.7, 120.0):
        assert stark_shifted_frequency(t, field) == FIELD_FREE_HZ


def test_center_line_field(transition):
    # Oracle: E = sqrt(offset / dpol); 160 MHz is the offset from the
    # field-free line to the comb center (8.13 - 7.97 GHz).
    field = math.sqrt(160e6 / DPOL_HZ_PER_V2)
    assert math.isclose(field, 12.649110640673518, rel_tol=1e-15)
    assert math.isclose(
        stark_shifted_frequency(transition, field), 8.13e9, rel_tol=1e-12
    )


def test_negative_field_rejected(transition):
    with pytest.raises(DomainError):
        stark_shifted_frequency(transition, -1e-9)
    with pytest.raises(DomainError):
        stark_shifted_frequency(transition, math.nan)


def test_inverse_at_band_top(transition):
    # 260 MHz above the field-free line requires sqrt(260) V/cm.
    field = field_for_frequency(transition, 8.23e9)
    assert math.isclose(field, math.sqrt(260.0), rel_tol=1e-12)
    assert math.isclose(field, 16.124515496597098, rel_tol=1e-12)


def test_inverse_of_field_free_frequency_is_zero(transition):
    assert field_for_frequency(transition, FIELD_FREE_HZ) == 0.0


def test_unreachable_target_rejected(transition):
    with pytest.raises(UnreachableFrequencyError):
        field_for_frequency(transition, FIELD_FREE_HZ - 1.0)
    with pytest.raises(UnreachableFrequencyError):
        field_for_frequency(transition, math.nan)


def test_degenerate_transition_rejected():
    t = RydbergTransition(FIELD_FREE_HZ, 0.0)
    with pytest.raises(DegenerateTransitionError):
        field_for_frequency(t, FIELD_FREE_HZ + 1e6)


def test_round_trip(transition):
    for field in np.linspace(1e-3, 100.0, 97):
        f = stark_shifted_frequency(transition, field)
        back = field_for_frequency(transition, f)
        assert math.isclose(back, field, rel_tol=1e-9)


def test_strictly_increasing(transition):
    fields = np.linspace(0.0, 100.0, 501)
    freqs = [stark_shifted_frequency(transition, e) for e in fields]
    assert all(a < b for a, b in zip(freqs, freqs[1:]))


def test_quadratic_scaling(transition):
    def shift(field):
        return stark_shifted_frequency(transition, field) - FIELD_FREE_HZ

    for k in (2.0, 3.0, 10.0):
        for field in (0.3, 1.7, 9.0):
            assert math.isclose(shift(k * field), k * k * shift(field), rel_tol=1e-12)


def test_invalid_construction():
    with pytest.raises(DomainError):
        RydbergTransition(0.0, 1.0)
    with pytest.raises(DomainError):
        RydbergTransition(FIELD_FREE_HZ, -1.0)
    with pytest.raises(DomainError):
        RydbergTransition(math.nan, DPOL_HZ_PER_V2)
    with pytest.raises(DomainError):
        RydbergTransition(FIELD_FREE_HZ, math.nan)
