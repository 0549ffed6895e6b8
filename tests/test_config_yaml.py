"""One YAML front door: any text, however malformed, deep or aliased, is parsed
into data or ends in a ConfigError of one short line, and libyaml and PyYAML's
Python loader agree on it.

The files of three earlier defects (an impossible date, a 5000-deep list,
and a few hundred bytes of aliases in a numeric leaf), a merge-key bomb, the
tagged scalars on which PyYAML raises a KeyError, IndexError or
AttributeError, and a few more exit 2 through the CLI under both loaders.
Then hypothesis draws YAML texts: dumped trees with anchors and aliases,
dates, binary, non-string keys and deep nesting, spliced with raw fragments
(impossible dates, bad tagged scalars, merge keys, complex keys, huge ints,
undefined aliases) and cut at any point. Each must exit the CLI with 0,
2, 3 or 4 in under a second, with at most 2 KB on stderr, and both loaders
must give the same data or both raise ConfigError."""

import contextlib
import datetime
import io
import math
import tempfile
import time
from importlib import resources
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from starkcomb import ConfigError
from starkcomb.cli import main
from starkcomb.config import _MAX_DEPTH, _parse
from starkcomb.errors import _SHOWN, _shown

from conftest import bundled_defaults, yaml_loader

LOADERS = ("CSafeLoader", "SafeLoader")
AVAILABLE = [name for name in LOADERS if hasattr(yaml, name)]
STDERR_LIMIT = 2048


def _aliases(leaf: str) -> str:
    # Seven levels of nine aliases: over 9**7 numbers if expanded, in 348 bytes.
    section, key = leaf.split(".")
    lines = [f"{section}:", f"  {key}:", "    - &a0 [1,1,1,1,1,1,1,1,1]"]
    for level in range(1, 7):
        lines.append(f"    - &a{level} [" + ",".join([f"*a{level - 1}"] * 9) + "]")
    return "\n".join(lines) + "\n"


def _merges(lines: int) -> str:
    # Each line merges the mapping above it twice, doubling its flattened keys.
    text = "m0: &m0 {a: 1, b: 2}\n"
    for i in range(1, lines):
        text += f"m{i}: &m{i} {{<<: [*m{i - 1}, *m{i - 1}]}}\n"
    return text


def _run(text: str) -> tuple[int, str, float]:
    """Exit code, stderr and seconds of ``starkcomb plan`` on ``text``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "drawn.yaml"
        path.write_text(text, encoding="utf-8")
        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["plan", "--config", str(path), "--out", tmp])
        return code, err.getvalue(), time.perf_counter() - start


def _assert_clean(code: int, err: str, seconds: float) -> None:
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err
    assert len(err.encode()) <= STDERR_LIMIT, err[:200]
    assert seconds < 1.0


@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize(
    "text, error",
    [
        ("comb:\n  line_count: 2024-13-01\n", "is not valid YAML: month must be in 1..12"),
        (
            "comb:\n  line_count: " + "[" * 5000 + "]" * 5000 + "\n",
            f"nests deeper than {_MAX_DEPTH} levels",
        ),
        # libyaml would nest this by C recursion until the process crashed.
        ("comb:\n  line_count:\n  " + "- " * 60000 + "1\n", f"nests deeper than {_MAX_DEPTH}"),
        (_aliases("comb.center_frequency_ghz"), "must be a finite number, got <list too large"),
        (_aliases("comb.line_count"), "line_count must be an integer, got <list too large to show>"),
        ("comb:\n  line_count: &a [*a]\n", "line_count must be an integer, got <list too large"),
        ("comb:\n  line_count: 0x" + "f" * 5000 + "\n", "got <int of 20000 bits>"),
        ("comb:\n  ? " + "1:" * 3000 + "0\n  : 1\n", "unknown configuration key 'comb.<int of"),
        ("comb:\n  line_count: !" + "t" * 100000 + " 1\n", "could not determine a constructor"),
        ("comb: [unclosed\n", "is not valid YAML: while parsing a flow sequence at line 1"),
        ("{[1, 2]: 3}\n", "found unhashable key"),
        ("comb: {}\n---\ncomb: {}\n", "expected a single document"),
        ("comb:\n  line_count: *nowhere\n", "found undefined alias"),
        ("comb:\n  line_count: !!bool x\n", "is not valid YAML: KeyError: 'x'"),
        ("comb:\n  line_count: !!int\n", "is not valid YAML: IndexError: string index"),
        ("comb:\n  line_count: !!timestamp x\n", "is not valid YAML: AttributeError: "),
        # 18 lines that PyYAML would flatten into 2**18 keys, for seconds.
        (_merges(18), "has a YAML merge key (<<), which is not supported"),
        ("comb: {!!merge x: {line_count: 3}}\n", "has a YAML merge key"),
    ],
    ids=[
        "month-13", "5000-deep", "60000-deep-block", "aliased-number", "aliased-integer",
        "self-alias", "huge-int", "huge-int-key", "long-tag", "unclosed", "complex-key",
        "two-documents", "undefined-alias", "bad-bool", "empty-int", "bad-timestamp",
        "merge-bomb", "merge-tag",
    ],
)
def test_bad_file_exits_2_with_one_short_line(loader, text, error):
    with yaml_loader(loader):
        code, err, seconds = _run(text)
    _assert_clean(code, err, seconds)
    assert code == 2
    assert err.startswith("configuration error: ") and err.count("\n") == 1, err[:200]
    assert error in err


def _nested(depth: int) -> list:
    value = []
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize("loader", LOADERS)
def test_depth_bound_is_exact(loader):
    with yaml_loader(loader):
        assert _parse("[" * _MAX_DEPTH + "]" * _MAX_DEPTH, "text") == _nested(_MAX_DEPTH - 1)
        with pytest.raises(ConfigError, match=f"^text nests deeper than {_MAX_DEPTH} levels$"):
            _parse("[" * (_MAX_DEPTH + 1) + "]" * (_MAX_DEPTH + 1), "text")


@pytest.mark.parametrize("loader", LOADERS)
def test_bundled_defaults_parse_alike(loader):
    text = resources.files("starkcomb").joinpath("data/default_config.yaml").read_text()
    with yaml_loader(loader):
        assert _same(_parse(text, "defaults"), bundled_defaults())


@pytest.mark.parametrize(
    "value",
    [
        10**400, -7, 3.25, math.nan, None, True, "x" * 400, b"\x00\x01",
        datetime.date(2024, 1, 2), [1, [2.5, None]], (1,), (), set(), {1},
        {"z": 1, "a": [1.5, "b"]}, list(range(120)),
    ],
)
def test_short_value_shown_as_its_repr(value):
    assert _shown(value) == repr(value)


def test_long_value_named_without_expanding_it():
    bomb = [1] * 9
    for _ in range(12):  # 9**13 numbers if expanded
        bomb = [bomb] * 9
    start = time.perf_counter()
    assert _shown(bomb) == "<list too large to show>"
    assert time.perf_counter() - start < 0.1
    assert _shown({"k": ["x" * 300] * 2}) == "<dict too large to show>"
    assert _shown([2**5000]) == "<list too large to show>"
    assert _shown(2**5000) == "<int of 5001 bits>"
    assert _shown("y" * 10**6) == "'" + "y" * (_SHOWN - 1) + "..."
    assert _shown(list(range(140))) == repr(list(range(140)))[:_SHOWN] + "..."


def _same(a, b) -> bool:
    """Equal, type for type and in order, with NaN equal to NaN."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return repr(a) == repr(b)
    if isinstance(a, dict):
        return len(a) == len(b) and all(map(_same, a.items(), b.items()))
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


# Raw text spliced into a dumped tree in place of a token scalar: values that
# no dump writes, or writes only quoted.
_FRAGMENTS = st.one_of(
    st.sampled_from(
        [
            "2024-13-01", "2024-02-30", "2001-12-14 25:00:00", "1:0:0", "0x" + "f" * 600,
            "!!binary AAE=", "!!binary '%%%'", "!!float x", "!!int 1.5", "{[1, 2]: 3}",
            "{{a: 1}: 2}", "*undefined", "&x [1, 2]", "!!set {a, b}", "!!omap [{a: 1}]",
            "[unclosed", "'unterminated", "a: b: c", "\t", "!custom 1", ".nan", "-.inf",
            "~", "0o17", "1e400", "10_000", "!!timestamp 2024-01-01", "!!timestamp x",
            "!!bool x", "!!int", "!!float", "{<<: {a: 1}}", "!!merge x",
        ]
    ),
    st.integers(1, 3 * _MAX_DEPTH).map(lambda depth: "[" * depth + "1" + "]" * depth),
    st.integers(1, 3 * _MAX_DEPTH).map(lambda depth: "{a: " * depth + "1" + "}" * depth),
)
_TOKENS = [f"ZQTOKEN{i}ZQ" for i in range(3)]
_KEYS = st.one_of(
    st.text(max_size=8), st.integers(-3, 3), st.floats(), st.booleans(), st.none(),
    st.dates(), st.binary(max_size=3),
)
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 300), st.integers(), st.floats(),
    st.text(max_size=12), st.dates(), st.datetimes(), st.binary(max_size=6),
    st.sampled_from([10**400, -(10**400), 5e-324]), st.sampled_from(_TOKENS),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4), st.dictionaries(_KEYS, children, max_size=4)
    )


_TREES = st.recursive(_SCALARS, _containers, max_leaves=10)
# Where the drawn tree goes: the whole document, a section or a leaf.
_PLACES = [()] + [
    (section,) + ((key,) if key else ())
    for section, keys in bundled_defaults().items()
    for key in [None, *(keys or {})]
]


@st.composite
def _texts(draw) -> str:
    # Subtrees drawn once and placed several times: the dump writes each once
    # with an anchor and aliases it at every other place.
    shared = draw(st.lists(_TREES, min_size=1, max_size=3))
    tree = draw(st.recursive(st.one_of(_SCALARS, st.sampled_from(shared)), _containers, max_leaves=10))
    document = tree
    for key in reversed(draw(st.sampled_from(_PLACES))):
        document = {key: document}
    text = yaml.safe_dump(document, default_flow_style=draw(st.booleans()))
    for token in _TOKENS:
        text = text.replace(token, draw(_FRAGMENTS))
    cut = draw(st.one_of(st.none(), st.integers(0, len(text))))
    return text[:cut]


def _parsed(text: str):
    try:
        return _parse(text, "text")
    except ConfigError:
        return ConfigError


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_texts())
def test_any_text_parses_alike_and_fails_cleanly(text):
    results = []
    for loader in AVAILABLE:
        with yaml_loader(loader):
            results.append(_parsed(text))
            _assert_clean(*_run(text))
    first = results[0]
    for other in results[1:]:
        assert other is first if first is ConfigError else _same(other, first)
