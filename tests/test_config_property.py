"""Any one- or two-leaf mutation of the default configuration either builds or
raises ConfigError, and ``starkcomb plan`` on it exits 0, 2, 3 or 4.

Every leaf is tried at every extreme value once, then hypothesis draws
mutations of one or two leaves from a wider set of values."""

import contextlib
import copy
import io
import itertools
import math
import tempfile
import warnings
from pathlib import Path

import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from starkcomb import ConfigError, load_config
from starkcomb.cli import main

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

# Non-finite values, ints beyond the float range and huge dB levels.
EXTREMES = [math.nan, math.inf, -math.inf, 10**400, -(10**400), 4000.0, -4000.0, 1e300, -1e300, 5e-324]
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


def _check(mutations, tmp: str) -> None:
    cfg = Path(tmp) / "mutated.yaml"
    cfg.write_text(yaml.safe_dump(_override(mutations)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no stray numpy warnings either
        try:
            load_config(cfg)
        except ConfigError:
            return  # cli.main reports it as exit 2 (tests/test_scenarios.py)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["plan", "--config", str(cfg), "--out", tmp])
    assert code in (0, 2, 3, 4), (mutations, err.getvalue())
    assert "Traceback" not in err.getvalue()


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
