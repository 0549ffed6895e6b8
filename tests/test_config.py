import math
import re
import time

import pytest
import yaml

from starkcomb import (
    ConfigError,
    build_channels,
    comb_lines,
    load_config,
    min_detectable_field,
    place_cells,
)
from starkcomb.cli import main

TWO_PI = 2 * math.pi


class TestDefaults:
    def test_comb(self, config):
        assert config.comb.line_count == 21
        assert config.comb.line_spacing == 10e6
        assert config.comb.center_frequency == 8.13e9
        lines = comb_lines(config.comb)
        assert lines[0] == 8.03e9 and lines[-1] == 8.23e9

    def test_transition(self, config):
        assert config.transition.field_free_frequency == 7.97e9
        assert config.transition.differential_polarizability == 1e6

    def test_profile_anchored_at_endpoints(self, config):
        assert config.profile.reference_position == 2.0
        assert config.profile.valid_range == (2.0, 7.98)

    def test_channel_calibration(self, config, channels21):
        assert len(channels21) == 21
        delta = config.channel_defaults.reference_detuning
        assert delta == 500e3
        center = min_detectable_field(channels21[10], delta)
        assert math.isclose(center, 798.2e-9, rel_tol=1e-9)
        for channel in channels21:
            assert channel.peak_power == -36.5
            assert channel.gain_scale == 1.0

    def test_ladder(self, config):
        assert math.isclose(config.ladder.probe_rabi, TWO_PI * 6.9e6)
        assert math.isclose(config.ladder.coupling_rabi, TWO_PI * 16.1e6)
        assert math.isclose(config.ladder.decay_e, TWO_PI * 5.2e6)

    def test_hash_stable(self, config):
        assert config.sha256 == config.sha256
        assert len(config.sha256) == 64


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            load_config(tmp_path / "nope.yaml")

    def test_unreadable_file_names_path(self, tmp_path):
        binary = tmp_path / "binary.yaml"
        binary.write_bytes(b"comb:\n  line_count: \xff\n")
        for path in (tmp_path, binary):
            text = f"^config file {re.escape(str(path))} cannot be read: "
            with pytest.raises(ConfigError, match=text):
                load_config(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        with pytest.raises(ConfigError, match="empty"):
            load_config(path)

    def test_malformed_yaml(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("comb: [unclosed\n")
        with pytest.raises(ConfigError, match="not valid YAML"):
            load_config(path)

    def test_partial_override_merges_defaults(self, tmp_path, config):
        path = tmp_path / "partial.yaml"
        path.write_text("comb:\n  line_count: 5\n")
        cfg = load_config(path)
        assert cfg.comb.line_count == 5
        assert cfg.comb.center_frequency == 8.13e9  # default retained
        plan = place_cells(cfg.profile, cfg.transition, cfg.comb)
        assert len(build_channels(cfg.channel_defaults, plan.entries)) == 5
        assert cfg.sha256 != config.sha256

    def test_per_line_count_mismatch_names_both_counts(self, tmp_path):
        path = tmp_path / "mismatch.yaml"
        for count in (20, 0):
            powers = ", ".join(["-2.0"] * count)
            path.write_text(f"comb:\n  per_line_power_dbm: [{powers}]\n")
            with pytest.raises(ConfigError, match=f"has {count} entries.*line_count is 21"):
                load_config(path)

    @pytest.mark.parametrize(
        "yaml_text, field",
        [
            ("comb:\n  line_count: 2\n  per_line_power_dbm: [4000, 0]\n", "comb.per_line_power_dbm"),
            ("comb:\n  line_count: 2\n  per_line_power_dbm: [-4000, -4000]\n", "comb.per_line_power_dbm"),
            ("comb:\n  total_power_dbm: 4000\n", "comb.total_power_dbm"),
            ("channel:\n  stimulus:\n    power_dbm: 4000\n", "channel.stimulus.power_dbm"),
            ("channel:\n  rolloff_order: %d\n" % 10**400, "channel.rolloff_order"),
            ("comb:\n  line_count: 1000001\n", "comb.line_count"),
            ("scenarios:\n  eit:\n    points: 1000001\n", "scenarios.eit.points"),
        ],
    )
    def test_out_of_range_power_or_count_names_field(self, tmp_path, yaml_text, field):
        # Each of these overflowed a float conversion before it was validated,
        # or asks for more rows than MAX_ROWS.
        path = tmp_path / "huge.yaml"
        path.write_text(yaml_text)
        with pytest.raises(ConfigError, match=f"^{field} must be"):
            load_config(path)

    @pytest.mark.parametrize("value", ["4000", ".nan", "x", "null", "[]"])
    def test_non_mapping_section_rejected(self, tmp_path, value):
        path = tmp_path / "sensitivity.yaml"
        path.write_text(f"scenarios:\n  sensitivity: {value}\n")
        with pytest.raises(ConfigError, match="^section 'sensitivity' must be a mapping$"):
            load_config(path)

    @pytest.mark.parametrize(
        "yaml_text, key",
        [
            ("comb:\n  lines: 21\n", "comb.lines"),
            (
                "profile:\n  anchors:\n"
                "    - {position_cm: 2.0, transition_frequency_ghz: 8.23, position_mm: 99}\n"
                "    - {position_cm: 7.98, transition_frequency_ghz: 8.03}\n",
                "profile.anchors[0].position_mm",
            ),
        ],
        ids=["mapping", "anchor-item"],
    )
    def test_unknown_key_named(self, tmp_path, yaml_text, key):
        path = tmp_path / "unknown.yaml"
        path.write_text(yaml_text)
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == f"unknown configuration key {key!r}"

    @pytest.mark.parametrize(
        "value, type_name", [("7", "int"), ("[a, b]", "list"), ("true", "bool"), ("{a: 1}", "dict")]
    )
    def test_label_must_be_a_string(self, tmp_path, value, type_name):
        path = tmp_path / "label.yaml"
        path.write_text(f"transition:\n  label: {value}\n")
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == f"transition.label must be a string, got {type_name}"

    @pytest.mark.parametrize("value, label", [("null", ""), ("''", ""), ("'45D'", "45D")])
    def test_label_string_or_null(self, tmp_path, value, label):
        path = tmp_path / "label.yaml"
        path.write_text(f"transition:\n  label: {value}\n")
        assert load_config(path).transition.label == label

    def test_aliased_label_rejected_without_expanding_it(self, tmp_path, capsys):
        # Seven levels of nine aliases each: over 9**7 leaves (tens of MB)
        # if it were ever printed or hashed, from a file of 300-odd bytes.
        lines = ["transition:", "  label:", "    - &a0 [x,x,x,x,x,x,x,x,x]"]
        for level in range(1, 7):
            items = ",".join([f"*a{level - 1}"] * 9)
            lines.append(f"    - &a{level} [{items}]")
        path = tmp_path / "aliases.yaml"
        path.write_text("\n".join(lines) + "\n")
        assert path.stat().st_size < 500
        start = time.perf_counter()
        assert main(["plan", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert time.perf_counter() - start < 0.5
        assert capsys.readouterr().err == (
            "configuration error: transition.label must be a string, got list\n"
        )

    def test_invalid_value_names_field(self, tmp_path):
        path = tmp_path / "invalid.yaml"
        path.write_text("comb:\n  line_spacing_mhz: -1.0\n")
        with pytest.raises(ConfigError, match="comb.line_spacing_mhz"):
            load_config(path)

    def test_non_monotone_anchors_rejected(self, tmp_path):
        path = tmp_path / "anchors.yaml"
        path.write_text(
            "profile:\n"
            "  anchors:\n"
            "    - {position_cm: 2.0, transition_frequency_ghz: 8.03}\n"
            "    - {position_cm: 7.98, transition_frequency_ghz: 8.23}\n"
        )
        with pytest.raises(ConfigError, match="profile"):
            load_config(path)

    def test_probe_rabi_required_positive(self, tmp_path):
        path = tmp_path / "ladder.yaml"
        path.write_text("ladder:\n  probe_rabi_mhz: 0.0\n")
        with pytest.raises(ConfigError, match="ladder.probe_rabi_mhz"):
            load_config(path)

    @pytest.mark.parametrize("value", [1e300, 5e-324])
    @pytest.mark.parametrize(
        "scenario, key",
        [
            ("response", "start_ghz"),
            ("response", "stop_ghz"),
            ("sweep2cell", "low_line_ghz"),
            ("sweep2cell", "high_line_ghz"),
            ("sweep2cell", "start_ghz"),
            ("sweep2cell", "stop_ghz"),
        ],
    )
    def test_conversion_overflow_names_field(self, tmp_path, scenario, key, value):
        # Finite and > 0 in GHz, but inf or 0 Hz after the unit conversion.
        path = tmp_path / "ghz.yaml"
        path.write_text(yaml.safe_dump({"scenarios": {scenario: {key: value}}}))
        with pytest.raises(ConfigError, match=rf"^scenarios\.{scenario}\.{key} must be"):
            load_config(path)

    def test_zero_allowed_leaf_may_round_to_zero(self, tmp_path):
        path = tmp_path / "detuning.yaml"
        path.write_text("channel:\n  reference_detuning_khz: 5.0e-324\n")
        assert load_config(path).channel_defaults.reference_detuning == 0.0
