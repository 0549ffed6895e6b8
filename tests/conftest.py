from importlib import resources

import pytest
import yaml

from starkcomb import (
    FrequencyComb,
    RydbergTransition,
    default_config,
    fit_profile,
    place_cells,
    transition_frequency_at,
)

FIELD_FREE_HZ = 7.97e9
DPOL_HZ_PER_V2 = 1e6  # 1 MHz/(V/cm)^2, the default calibration constant
ANCHORS = ((2.0, 8.23e9), (7.98, 8.03e9))


def bundled_defaults() -> dict:
    """A fresh parse of the bundled default configuration file."""
    text = resources.files("starkcomb").joinpath("data/default_config.yaml").read_text()
    return yaml.safe_load(text)


def _bisect_position(profile, transition, target, lo, hi):
    # Independent inversion oracle: plain sign-change bisection.
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if transition_frequency_at(profile, transition, mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.fixture(scope="session")
def transition():
    return RydbergTransition(
        field_free_frequency=FIELD_FREE_HZ,
        differential_polarizability=DPOL_HZ_PER_V2,
        label="test pair",
    )


@pytest.fixture(scope="session")
def profile(transition):
    return fit_profile(ANCHORS, transition)


@pytest.fixture(scope="session")
def comb21():
    return FrequencyComb(
        center_frequency=8.13e9, line_spacing=10e6, line_count=21, total_power=11.0
    )


@pytest.fixture(scope="session")
def plan21(profile, transition, comb21):
    return place_cells(profile, transition, comb21)


@pytest.fixture(scope="session")
def config():
    return default_config()
