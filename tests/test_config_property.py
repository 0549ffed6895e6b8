"""Any one- or two-leaf mutation of the default configuration either builds or
raises ConfigError, and each scenario that reads a mutated leaf exits 0, 2, 3
or 4, with no warning, and with finite data in every CSV it writes on exit 0.

Every leaf is tried at every extreme value once, then hypothesis draws
mutations of one or two leaves from a wider set of values. The schema table
must mirror the bundled defaults key for key, and every leaf given a string
must name itself in the error."""

import contextlib
import copy
import functools
import io
import itertools
import math
import operator
import tempfile
import warnings
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from starkcomb import ConfigError, load_config
from starkcomb.cli import main
from starkcomb.config import _SCHEMA, MAX_ROWS

from conftest import bundled_defaults


def _leaves(node, path=()):
    # Every scalar, list, list element and empty mapping, by key path.
    if isinstance(node, dict) and node:
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
        return
    yield path
    if isinstance(node, list):
        for i, item in enumerate(node):
            yield from _leaves(item, path + (i,))


DEFAULTS = bundled_defaults()
LEAVES = list(_leaves(DEFAULTS))

# Non-finite values, ints beyond the float range, huge dB levels and a row
# count above MAX_ROWS.
EXTREMES = [
    math.nan, math.inf, -math.inf, 10**400, -(10**400), 4000.0, -4000.0, 1e300, -1e300, 5e-324,
    MAX_ROWS + 1,
]
_EXTREMES = st.sampled_from(EXTREMES)
_NUMBERS = st.one_of(_EXTREMES, st.integers(-5, 200), st.floats(-1e3, 1e3))
_VALUES = st.one_of(
    _EXTREMES,
    st.sampled_from([None, True, False, "", "x"]),
    _NUMBERS,
    st.lists(_NUMBERS, max_size=4),  # mostly the wrong length
)


def _override(mutations) -> dict:
    """The mutated defaults as the smallest override that the loader merges
    back into them: mappings down to each mutated key, lists replaced whole."""
    data = copy.deepcopy(DEFAULTS)
    # Deepest paths first, so a mutated ancestor replaces its mutated child.
    for path, value in sorted(mutations, key=lambda m: -len(m[0])):
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    override = {}
    for path, _ in mutations:
        keys = list(itertools.takewhile(lambda key: not isinstance(key, int), path))
        node, source = override, data
        for key in keys[:-1]:
            node, source = node.setdefault(key, {}), source[key]
        node[keys[-1]] = source[keys[-1]]
    return override


# The scenarios that read the channel section; a scenarios.<name> leaf runs
# <name>, and every other leaf runs plan.
CHANNEL_SCENARIOS = ("response", "linearity", "sensitivity", "sweep2cell")


def _scenarios(mutations) -> list[str]:
    names = set()
    for path, _ in mutations:
        if path[0] == "scenarios":
            names.add(path[1])
        elif path[0] == "channel":
            names.update(CHANNEL_SCENARIOS)
        else:
            names.add("plan")
    return sorted(names)


def _non_finite_cells(path: Path) -> list[str]:
    # Data cells only: metadata lines may hold an infinite spacing.
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return [
        cell
        for line in lines[1:]
        for cell in line.split(",")
        if cell in ("inf", "-inf", "nan")
    ]


def _check(mutations, tmp: str) -> None:
    cfg = Path(tmp) / "mutated.yaml"
    cfg.write_text(yaml.safe_dump(_override(mutations)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no stray numpy warnings either
        try:
            load_config(cfg)
        except ConfigError:
            return  # cli.main reports it as exit 2 (tests/test_scenarios.py)
        for scenario in _scenarios(mutations):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([scenario, "--config", str(cfg), "--out", tmp])
            assert code in (0, 2, 3, 4), (scenario, mutations, err.getvalue())
            assert "Traceback" not in err.getvalue()
            for path in out.getvalue().split() if code == 0 else ():
                if path.endswith(".csv"):
                    bad = _non_finite_cells(Path(path))
                    assert not bad, (scenario, mutations, Path(path).name, len(bad), bad[0])


def test_each_leaf_at_each_extreme(tmp_path):
    for leaf in LEAVES:
        for value in EXTREMES:
            _check([(leaf, value)], str(tmp_path))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(LEAVES), _VALUES), min_size=1, max_size=2))
@example([(("comb", "line_count"), 2), (("comb", "per_line_power_dbm"), [4000, 0])])
@example([(("comb", "line_count"), 2), (("comb", "per_line_power_dbm"), [-4000, -4000])])
def test_mutated_config_builds_or_fails_cleanly(mutations):
    with tempfile.TemporaryDirectory() as tmp:
        _check(mutations, tmp)


def _key_paths(node, path=()):
    # Every mapping key, sections included, in order.
    for key, value in node.items():
        yield path + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, path + (key,))


def test_schema_mirrors_bundled_defaults():
    assert list(_key_paths(_SCHEMA)) == list(_key_paths(DEFAULTS))


def test_each_leaf_rejects_a_string_by_its_path(tmp_path):
    for leaf in LEAVES:
        if leaf == ("transition", "label"):
            continue  # a string is a label
        keys = list(itertools.takewhile(lambda key: not isinstance(key, int), leaf))
        section = functools.reduce(operator.getitem, leaf, DEFAULTS) == {}
        expected = f"section {keys[-1]!r} must be a mapping" if section else ".".join(keys)
        cfg = tmp_path / "string.yaml"
        cfg.write_text(yaml.safe_dump(_override([(leaf, "x")])))
        with pytest.raises(ConfigError) as excinfo:
            load_config(cfg)
        assert str(excinfo.value).startswith(expected), leaf
