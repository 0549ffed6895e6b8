"""The one-pass config walk against the two-pass pipeline it replaced.

The reference below is the earlier loader: ``_ref_merge`` laid a file over
the bundled defaults and rejected unknown keys, then ``_ref_validated``
checked and converted each leaf of the merged tree, with anchor items
checked by their own loop. It runs over the current leaf checks, so it
differs from the walk only in how the tree is walked.

For drawn overrides the walk must merge to the same tree and convert to the
same model arguments, or fail when the reference fails; with a single fault
it must fail with the reference's exact text. With several faults the walk
reports the first in schema order (a mapping's unknown keys before its
entries), where the reference reported unknown keys anywhere first.
"""

import copy
import hashlib
import json

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import starkcomb.config as config
from starkcomb import ConfigError, load_config

from conftest import bundled_defaults

DEFAULTS = bundled_defaults()


def _ref_merge(base: dict, override: dict, path: str = "") -> dict:
    merged = {}
    for key, value in override.items():
        where = f"{path}.{key}" if path else str(key)
        if key not in base:
            raise ConfigError(f"unknown configuration key {where!r}")
        if isinstance(base[key], dict) and isinstance(value, dict):
            merged[key] = _ref_merge(base[key], value, where)
        else:
            merged[key] = copy.deepcopy(value)
    return {
        key: merged[key] if key in merged else copy.deepcopy(value)
        for key, value in base.items()
    }


def _ref_anchors(value, path: str) -> list:
    if value is None:
        raise ConfigError(f"{path} is required")
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path} must be a non-empty list")
    anchors = []
    for i, item in enumerate(value):
        if not isinstance(item, dict):
            raise ConfigError(f"{path}[{i}] must be a mapping")
        for key in item:
            if key not in config._ANCHOR:
                raise ConfigError(f"unknown configuration key {f'{path}[{i}].{key}'!r}")
        anchors.append(tuple(_ref_validated(item, config._ANCHOR, f"{path}[{i}]").values()))
    return anchors


def _ref_validated(node: dict, table: dict = config._SCHEMA, path: str = "") -> dict:
    out = {}
    for key, spec in table.items():
        where = f"{path}.{key}" if path else key
        value = node.get(key)
        if isinstance(spec, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"section {key!r} must be a mapping")
            out[key] = _ref_validated(value, spec, where)
        else:
            arg, check, *convert = spec
            check = _ref_anchors if check is config._anchors else check
            value = check(value, where)
            out[arg] = check(convert[0](value), where) if convert else value
    return out


def _reference(override: dict):
    """(merged, arguments) of the two-pass pipeline, or its error text."""
    try:
        merged = _ref_merge(DEFAULTS, override)
        return merged, _ref_validated(merged)
    except ConfigError as exc:
        return str(exc)


def _walked(override: dict):
    try:
        return config._walk(override, config._default_data())
    except ConfigError as exc:
        return str(exc)


def _paths(table, path=()):
    for key, spec in table.items():
        yield path + (key,), isinstance(spec, dict)
        if isinstance(spec, dict):
            yield from _paths(spec, path + (key,))


SECTIONS = [path for path, section in _paths(config._SCHEMA) if section]
LEAVES = [path for path, section in _paths(config._SCHEMA) if not section]

_NUMBERS = st.one_of(
    st.sampled_from([float("nan"), float("inf"), -1e300, 10**400, 5e-324, 4000.0, 0, -1]),
    st.integers(-5, 50),
    st.floats(-1e3, 1e3),
)
_KEYS = st.sampled_from(["bogus", "a", "position_mm", 1, True, None])
_ANCHOR_ITEMS = st.one_of(
    st.fixed_dictionaries(
        {},
        optional={
            "position_cm": _NUMBERS,
            "transition_frequency_ghz": st.one_of(st.just(8.23), st.just(8.03), _NUMBERS),
        },
    ),
    st.fixed_dictionaries(
        {"position_cm": st.just(2.0), "transition_frequency_ghz": st.just(8.23)},
        optional={"position_mm": _NUMBERS},
    ),
    st.builds(
        lambda item, key, value: {**item, key: value},
        st.sampled_from(DEFAULTS["profile"]["anchors"]),
        _KEYS,
        _NUMBERS,
    ),
    st.sampled_from([None, 2.0, "x", []]),
)
_VALUES = st.one_of(
    _NUMBERS,
    st.sampled_from([None, True, False, "", "x", "label", {}, {"a": 1}]),
    st.lists(_NUMBERS, max_size=3),
    st.lists(_ANCHOR_ITEMS, max_size=3),
)


def _default_at(path):
    node = DEFAULTS
    for key in path:
        node = node[key]
    return copy.deepcopy(node)


# One mutation: a leaf given a drawn value or its default, the anchors given
# drawn items, a section given a non-mapping, or an unknown key at a drawn
# depth (anchor items draw theirs).
_MUTATIONS = st.one_of(
    st.tuples(st.sampled_from(LEAVES), _VALUES),
    st.tuples(st.just(("profile", "anchors")), st.lists(_ANCHOR_ITEMS, min_size=1, max_size=3)),
    st.sampled_from(LEAVES).map(lambda path: (path, _default_at(path))),
    st.tuples(st.sampled_from(SECTIONS), st.sampled_from([None, 4000, "x", [], {}])),
    st.tuples(st.sampled_from([(), *SECTIONS]), _KEYS, _NUMBERS).map(
        lambda drawn: (drawn[0] + (drawn[1],), drawn[2])
    ),
)


def _override(mutations) -> dict:
    override = {}
    for path, value in mutations:
        node = override
        for key in path[:-1]:
            if not isinstance(node.get(key), dict):
                node[key] = {}
            node = node[key]
        node[path[-1]] = copy.deepcopy(value)
    return override


def _as_read(mutations) -> dict:
    """The override of ``mutations`` as a YAML file gives it back."""
    return yaml.safe_load(yaml.safe_dump(_override(mutations)))


def _independent(mutations) -> bool:
    # No path equals or lies under another, so no mutation hides another.
    paths = [path for path, _ in mutations]
    return not any(
        a[: len(b)] == b for i, a in enumerate(paths) for j, b in enumerate(paths) if i != j
    )


def _sha256(data: dict) -> str:
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(_MUTATIONS, min_size=1, max_size=4))
def test_walk_matches_two_pass_reference(tmp_path_factory, mutations):
    path = tmp_path_factory.mktemp("walk") / "override.yaml"
    override = _as_read(mutations)
    path.write_text(yaml.safe_dump(override))
    expected, walked = _reference(override), _walked(override)
    if isinstance(expected, str):
        assert isinstance(walked, str), (mutations, expected)
        faults = [m for m in mutations if isinstance(_reference(_as_read([m])), str)]
        if len(faults) == 1 and _independent(mutations):
            assert walked == expected, mutations
    else:
        assert walked == expected, mutations
    try:
        loaded = load_config(path)
    except ConfigError as exc:
        if isinstance(walked, str):
            assert str(exc) == walked
        return
    assert not isinstance(expected, str), mutations
    assert loaded.data == expected[0]
    assert loaded.sha256 == _sha256(expected[0])
    assert config._default_data() == DEFAULTS  # the shared defaults never change


def test_defaults_walk_as_an_empty_file(tmp_path):
    path = tmp_path / "defaults.yaml"
    path.write_text(yaml.safe_dump(DEFAULTS))
    assert config._walk({}, config._default_data()) == _reference(DEFAULTS)
    assert config.default_config().data == load_config(path).data == DEFAULTS


@pytest.mark.parametrize(
    "yaml_text, error",
    [
        (
            "scenarios:\n  sensitivity:\n    a: 1\nladder:\n  decay_r2_khz: -1\n",
            "ladder.decay_r2_khz must be >= 0, got -1.0",
        ),
        (
            "bogus: 1\ncomb:\n  line_count: 0\n",
            "unknown configuration key 'bogus'",
        ),
        (
            "comb:\n  lines: 1\ntransition:\n  field_free_frequency_ghz: 0\n",
            "transition.field_free_frequency_ghz must be > 0, got 0.0",
        ),
        (
            "planner: null\nprofile:\n  anchors:\n    - {position_cm: 2.0, x: 1}\n",
            "unknown configuration key 'profile.anchors[0].x'",
        ),
    ],
    ids=[
        "leaf-before-later-key", "top-level-key-first", "earlier-section-first", "anchor-before-section"
    ],
)
def test_first_fault_in_schema_order_reported(tmp_path, yaml_text, error):
    path = tmp_path / "faults.yaml"
    path.write_text(yaml_text)
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value) == error
