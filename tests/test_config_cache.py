"""The bundled defaults and the CLI parser are built once per process; no
configuration or CLI call may see state left behind by an earlier one."""

import hashlib
import json
import subprocess
import sys

import starkcomb.config
from starkcomb import default_config, load_config
from starkcomb.cli import main

from conftest import bundled_defaults


def _sha256(data: dict) -> str:
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _mutate(data: dict) -> None:
    # Nested nodes of every kind: a list, a dict inside it, sub-sections.
    data["profile"]["anchors"][0]["position_cm"] = 99.0
    data["profile"]["anchors"].append({"position_cm": 5.0})
    data["comb"]["line_count"] = 3
    data["channel"]["stimulus"]["power_dbm"] = 0.0
    data["scenarios"]["sensitivity"]["extra"] = 1
    data["planner"] = None


def test_mutated_data_never_reaches_later_loads(tmp_path):
    # Overriding one key of `profile` merges that section key by key, so the
    # untouched anchors list is copied from the defaults inside the recursion.
    override = tmp_path / "override.yaml"
    override.write_text("profile:\n  offset_cm: 0.0\n")
    _mutate(default_config().data)
    _mutate(load_config(override).data)

    fresh = bundled_defaults()
    for config in (default_config(), load_config(override)):
        assert config.data == fresh
        assert config.sha256 == _sha256(fresh)


def test_defaults_parsed_at_most_once_per_process(tmp_path, monkeypatch):
    parses = []
    parse = starkcomb.config._parse

    def counted(text, source):
        parses.append(source)
        return parse(text, source)

    monkeypatch.setattr(starkcomb.config, "_parse", counted)
    override = tmp_path / "override.yaml"
    override.write_text("comb:\n  line_count: 11\n")
    n = 6
    for _ in range(n):
        assert load_config(override).comb.line_count == 11
    assert len(parses) <= n + 1


def test_cli_calls_share_no_parsed_options(tmp_path):
    # The second call reuses the parser but must not inherit --timestamp.
    assert main(["plan", "--timestamp", "--out", str(tmp_path / "stamped")]) == 0
    assert main(["plan", "--out", str(tmp_path / "plain")]) == 0
    result = subprocess.run(
        [sys.executable, "-m", "starkcomb.cli", "plan", "--out", str(tmp_path / "first")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert "# generated_at: " in (tmp_path / "stamped/plan.csv").read_text()
    plain = (tmp_path / "plain/plan.csv").read_bytes()
    assert b"generated_at" not in plain
    assert plain == (tmp_path / "first/plan.csv").read_bytes()
