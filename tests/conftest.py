import contextlib
import math
import warnings
from importlib import resources

import numpy as np
import pytest
import yaml
from hypothesis import strategies as st

import starkcomb.config
from starkcomb import (
    FrequencyComb,
    RydbergTransition,
    StarkCombError,
    build_channels,
    default_config,
    fit_profile,
    place_cells,
    transition_frequency_at,
)

FIELD_FREE_HZ = 7.97e9
DPOL_HZ_PER_V2 = 1e6  # 1 MHz/(V/cm)^2, the default calibration constant
ANCHORS = ((2.0, 8.23e9), (7.98, 8.03e9))


@contextlib.contextmanager
def yaml_loader(name: str):
    """``starkcomb.config`` parses with PyYAML's loader ``name`` inside the block,
    the bundled defaults included; skips when PyYAML lacks it (no libyaml)."""
    if not hasattr(yaml, name):
        pytest.skip(f"PyYAML has no {name}")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(starkcomb.config, "_LOADER", getattr(yaml, name))
        starkcomb.config._default_data.cache_clear()
        try:
            yield
        finally:
            starkcomb.config._default_data.cache_clear()


def bundled_defaults() -> dict:
    """A fresh parse of the bundled default configuration file."""
    text = resources.files("starkcomb").joinpath("data/default_config.yaml").read_text()
    return yaml.safe_load(text)


def _bisect_position(profile, transition, target, lo, hi):
    # Independent inversion oracle: plain sign-change bisection, elementwise
    # over a scalar or an array of targets.
    target = np.asarray(target, dtype=float)
    lo, hi = np.full(target.shape, float(lo)), np.full(target.shape, float(hi))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        above = transition_frequency_at(profile, transition, mid) > target
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    return 0.5 * (lo + hi)


# Domain-edge values mixed into drawn arrays: each is out of domain for some
# function, or pushes its arithmetic to overflow or underflow.
EXTREME_VALUES = (
    math.nan, math.inf, -math.inf, -1.0, -5e-324, 0.0, 5e-324, 1e-300, 1e300, -1e300,
)
TRANSITIONS = st.builds(
    RydbergTransition,
    st.floats(1e9, 2e10),
    st.one_of(st.sampled_from([0.0, 5e-324, DPOL_HZ_PER_V2, 1e300]), st.floats(0.0, 1e8)),
)


def mixed(in_domain):
    """Lists of ``in_domain`` draws mixed with domain-edge values."""
    return st.lists(
        st.one_of(in_domain, in_domain, st.sampled_from(EXTREME_VALUES)),
        min_size=1,
        max_size=12,
    )


def assert_array_parity(function, values):
    """``function`` on an array behaves as its scalar calls, element by element.

    If a scalar call raises, the array call raises the same type and text as
    the first failing element. Otherwise the array call returns an array of
    the same length whose elements are within 4 ulp of the scalar results
    (numpy's vectorised ``**`` may round differently from its scalar path),
    and every scalar call returns a Python float. No warning may be emitted.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            expected = [function(v) for v in values]
        except StarkCombError as exc:
            with pytest.raises(type(exc)) as info:
                function(np.array(values))
            assert str(info.value) == str(exc)
            return
        result = function(np.array(values))
    assert isinstance(result, np.ndarray) and result.shape == (len(values),)
    for got, want in zip(result.tolist(), expected):
        assert type(want) is float
        assert got == want or (math.isnan(got) and math.isnan(want)) or (
            abs(got - want) <= 4 * math.ulp(want)
        ), (got, want)


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


@pytest.fixture(scope="session")
def channels21(config, plan21):
    return build_channels(config.channel_defaults, plan21.entries)
