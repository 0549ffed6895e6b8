import json
import math
import re

import pytest

import starkcomb.receiver
from starkcomb import ConfigError, InfeasiblePlanError, load_config, run_scenario
from starkcomb.cli import main
from starkcomb.scenarios import SCENARIO_NAMES, SCENARIOS


def read_csv(path):
    meta, rows = {}, []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    return meta, header, rows


class TestRunScenario:
    def test_unknown_name(self, config, tmp_path):
        with pytest.raises(ConfigError, match="unknown scenario"):
            run_scenario(config, "mystery", tmp_path)

    def test_plan_outputs(self, config, tmp_path):
        paths = run_scenario(config, "plan", tmp_path)
        names = {p.name for p in paths}
        assert names == {"plan.csv", "field_profile.csv", "plan_manifest.json"}
        meta, header, rows = read_csv(tmp_path / "plan.csv")
        assert meta["config_sha256"] == config.sha256
        assert header == [
            "line_index", "line_GHz", "position_cm", "lo_power_dBm",
            "spacing_to_next_cm",
        ]
        assert len(rows) == 21
        assert float(rows[0]["position_cm"]) == 7.98
        assert float(rows[-1]["position_cm"]) == 2.0
        assert rows[-1]["spacing_to_next_cm"] == ""

        _, profile_header, profile_rows = read_csv(tmp_path / "field_profile.csv")
        assert profile_header == ["x_cm", "field_V_per_cm", "transition_GHz"]
        ghz = [float(r["transition_GHz"]) for r in profile_rows]
        assert all(a > b for a, b in zip(ghz, ghz[1:]))

    def test_manifest_content(self, config, tmp_path):
        run_scenario(config, "sensitivity", tmp_path)
        manifest = json.loads((tmp_path / "sensitivity_manifest.json").read_text())
        assert manifest["scenario"] == "sensitivity"
        assert manifest["config_sha256"] == config.sha256
        assert set(manifest["outputs"]) == {"sensitivity.csv"}
        assert set(manifest) == {"scenario", "version", "config_sha256", "outputs"}

    def test_sensitivity_rows(self, config, tmp_path):
        run_scenario(config, "sensitivity", tmp_path)
        _, header, rows = read_csv(tmp_path / "sensitivity.csv")
        assert header == [
            "channel_index", "line_GHz", "E_det_nV_per_cm", "sensitivity_nV_cm_Hz",
        ]
        by_index = {int(r["channel_index"]): r for r in rows}
        assert math.isclose(float(by_index[10]["E_det_nV_per_cm"]), 798.2, rel_tol=1e-9)
        worst = max(float(r["sensitivity_nV_cm_Hz"]) for r in rows)
        assert math.isclose(worst, 326.6, rel_tol=1e-9)

    def test_single_line_response_has_3db_points_at_5_mhz(self, config, tmp_path):
        override = tmp_path / "one_line.yaml"
        override.write_text("comb:\n  line_count: 1\n")
        cfg = load_config(override)
        run_scenario(cfg, "response", tmp_path)
        _, _, rows = read_csv(tmp_path / "response.csv")
        beats = {float(r["signal_GHz"]): float(r["beat_dBm"]) for r in rows}
        peak = beats[8.13]
        # Filter-definition oracle: half power at +/- half_width.
        for edge in (8.125, 8.135):
            assert math.isclose(peak - beats[edge], 10 * math.log10(2.0), abs_tol=0.02)

    def test_eit_metadata_lists_system_parameters(self, config, tmp_path):
        run_scenario(config, "eit", tmp_path)
        meta, header, rows = read_csv(tmp_path / "eit.csv")
        assert header == ["probe_detuning_MHz", "absorption"]
        for key in (
            "probe_rabi_MHz", "coupling_rabi_MHz", "mw_rabi_MHz",
            "decay_e_MHz", "decay_r1_MHz", "decay_r2_MHz", "dephasing_MHz",
        ):
            assert key in meta
        values = [float(r["absorption"]) for r in rows]
        assert all(0.0 <= v <= 1.0 + 1e-6 for v in values)

    def test_infeasible_min_gap(self, tmp_path):
        override = tmp_path / "gap.yaml"
        override.write_text("planner:\n  min_gap_cm: 2.0\n")
        cfg = load_config(override)
        with pytest.raises(InfeasiblePlanError):
            run_scenario(cfg, "plan", tmp_path)

    def test_determinism_byte_identical(self, config, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        for name in SCENARIO_NAMES:
            paths_a = run_scenario(config, name, first / name)
            paths_b = run_scenario(config, name, second / name)
            for pa, pb in zip(paths_a, paths_b):
                assert pa.read_bytes() == pb.read_bytes()

    def test_outputs_revalidate_against_model_invariants(self, config, tmp_path):
        run_scenario(config, "plan", tmp_path)
        _, _, rows = read_csv(tmp_path / "plan.csv")
        positions = [float(r["position_cm"]) for r in rows]
        assert all(a > b for a, b in zip(positions, positions[1:]))
        for row, nxt in zip(rows, rows[1:]):
            gap = float(row["position_cm"]) - float(nxt["position_cm"])
            # CSV carries 10 significant figures.
            assert math.isclose(float(row["spacing_to_next_cm"]), gap, abs_tol=1e-8)

        run_scenario(config, "linearity", tmp_path)
        _, _, rows = read_csv(tmp_path / "linearity.csv")
        by_channel = {}
        for r in rows:
            by_channel.setdefault(int(r["channel_index"]), []).append(
                (float(r["field_V_per_cm"]), float(r["beat_dBm"]))
            )
        assert set(by_channel) == set(range(21))
        for points in by_channel.values():
            beats = [b for _, b in points]
            assert all(a <= b for a, b in zip(beats, beats[1:]))

    def test_timestamp_flag_changes_header_only(self, config, tmp_path):
        run_scenario(config, "sensitivity", tmp_path / "plain")
        run_scenario(config, "sensitivity", tmp_path / "stamped", timestamp=True)
        plain = (tmp_path / "plain/sensitivity.csv").read_text()
        stamped = (tmp_path / "stamped/sensitivity.csv").read_text()
        assert plain != stamped
        strip = lambda text: [
            line for line in text.splitlines() if not line.startswith("#")
        ]
        assert strip(plain) == strip(stamped)


class TestCli:
    def test_plan_success(self, tmp_path, capsys):
        assert main(["plan", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "plan.csv" in out
        assert (tmp_path / "plan.csv").exists()

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_main_writes_the_run_scenario_bytes(self, tmp_path, capsys, name):
        cfg = tmp_path / "design.yaml"
        cfg.write_text("comb:\n  line_count: 11\nscenarios:\n  eit:\n    points: 101\n")
        out = tmp_path / "cli"
        assert main([name, "--config", str(cfg), "--out", str(out)]) == 0
        paths = run_scenario(load_config(cfg), name, tmp_path / "library")
        assert capsys.readouterr().out == "".join(f"{out / p.name}\n" for p in paths)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == {
            p.name: p.read_bytes() for p in paths
        }

    def test_help_lists_every_scenario(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["--help"])
        assert exit_.value.code == 0
        out = capsys.readouterr().out
        for option in ("--config", "--out", "--timestamp"):
            assert out.count(option) == 2  # the usage line and its own help line
        for name, (_, text) in SCENARIOS.items():
            assert re.search(rf"^  {name} +{re.escape(text)}$", out, re.MULTILINE), name

    @pytest.mark.parametrize(
        "argv, error",
        [
            ([], "the following arguments are required: scenario"),
            (["nope"], "argument scenario: invalid choice: 'nope'"),
            (["plan", "--bogus"], "unrecognized arguments: --bogus"),
        ],
    )
    def test_usage_errors_exit_2(self, capsys, argv, error):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: starkcomb [-h] [--config CONFIG] [--out OUT]")
        assert f"starkcomb: error: {error}" in err

    @pytest.mark.parametrize("out", ["new", "afile/sub"])
    def test_failed_check_makes_no_output_directory(self, tmp_path, capsys, out):
        # Every check runs before the output directory is made, so an
        # out-of-band line leaves no new directory, and is reported ahead of
        # an --out path that could not be made.
        cfg = tmp_path / "oob.yaml"
        cfg.write_text("comb:\n  center_frequency_ghz: 9.0\n")
        (tmp_path / "afile").write_bytes(b"")
        assert main(["plan", "--config", str(cfg), "--out", str(tmp_path / out)]) == 3
        assert capsys.readouterr().err.startswith("infeasible plan: line 0: ")
        assert not (tmp_path / out).exists()

    def test_bad_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("comb:\n  line_count: -3\n")
        assert main(["plan", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["plan", "--config", str(tmp_path / "none.yaml")]) == 2

    @pytest.mark.parametrize(
        "case, text",
        [
            ("config-directory", "configuration error: config file {path} cannot be read: "),
            ("config-not-utf8", "configuration error: config file {path} cannot be read: "),
            ("out-is-file", "error: [Errno 17] File exists: {path!r}"),
            ("out-under-file", "error: [Errno 20] Not a directory: {path!r}"),
        ],
    )
    def test_unusable_path_exits_2(self, tmp_path, capsys, case, text):
        # One named error line for a config that cannot be read or an output
        # path that cannot be created; never a traceback.
        afile = tmp_path / "afile"
        afile.write_bytes(b"\xff\xfe not utf-8\n")
        path, args = {
            "config-directory": (tmp_path, ["--config", str(tmp_path)]),
            "config-not-utf8": (afile, ["--config", str(afile)]),
            "out-is-file": (afile, ["--out", str(afile)]),
            "out-under-file": (afile / "sub", ["--out", str(afile / "sub")]),
        }[case]
        assert main(["plan", *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith(text.format(path=str(path))), err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_sweep2cell_huge_lines_reach_the_band_check(self, tmp_path, capsys):
        # The midpoint of two lines near the float limit is finite; the
        # upper line then fails as any unreachable line does.
        cfg = tmp_path / "huge_lines.yaml"
        cfg.write_text(
            "scenarios:\n  sweep2cell:\n    low_line_ghz: 1.0e+299\n    high_line_ghz: 1.7e+299\n"
        )
        assert main(["sweep2cell", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith(
            "infeasible plan: line 0: line at 1e+308 Hz outside reachable band ["
        )

    @pytest.mark.parametrize("block", [None, 4096])
    def test_late_overflow_exits_2_and_leaves_no_file(self, monkeypatch, tmp_path, capsys, block):
        # The field sweep's beat signal overflows at row 7860 of 10 000; with
        # blocks of 4096 rows that is after a block of the CSV is written. The
        # run still exits 2 with the error alone and leaves no file; over an
        # earlier, successful run it leaves that run's CSV and manifest whole.
        if block is not None:
            monkeypatch.setattr(starkcomb.receiver, "_BLOCK", block)
        cfg = tmp_path / "overflow.yaml"
        cfg.write_text(
            "channel:\n"
            "  stimulus:\n"
            "    power_dbm: -3000.0\n"
            "  center_min_detectable_field_nv_cm: 1.0e-151\n"
            "  edge_sensitivity_nv_cm_sqrt_hz: 1.0e-151\n"
            "scenarios:\n"
            "  linearity: {min_field_v_cm: 1.0e-8, max_field_v_cm: 1.0e+200, points: 10000}\n"
        )
        out = tmp_path / "out"
        assert main(["linearity", "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: beat signal power must be below +inf dBm, got inf\n"
        assert captured.out == ""
        assert not out.exists()
        assert main(["linearity", "--out", str(out)]) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        assert sorted(before) == ["linearity.csv", "linearity_manifest.json"]
        assert main(["linearity", "--config", str(cfg), "--out", str(out)]) == 2
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_infeasible_plan_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "gap.yaml"
        cfg.write_text("planner:\n  min_gap_cm: 2.0\n")
        assert main(["plan", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert "infeasible" in capsys.readouterr().err

    def test_uncovered_line_exits_3(self, tmp_path):
        cfg = tmp_path / "wide.yaml"
        cfg.write_text("comb:\n  line_count: 41\n")  # lines outside the band
        assert main(["plan", "--config", str(cfg), "--out", str(tmp_path)]) == 3

    def test_degenerate_ladder_exits_4(self, tmp_path, capsys):
        # eit streams its solver blocks, so the solver fails after the output
        # directories are made; the run removes them again.
        cfg = tmp_path / "degenerate.yaml"
        cfg.write_text(
            "ladder:\n"
            "  coupling_rabi_mhz: 0.0\n"
            "  mw_rabi_mhz: 0.0\n"
            "  decay_r1_khz: 0.0\n"
            "  decay_r2_khz: 0.0\n"
            "  dephasing_khz: 0.0\n"
        )
        out = tmp_path / "out" / "eit"
        assert main(["eit", "--config", str(cfg), "--out", str(out)]) == 4
        assert "steady state is not unique" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert main(["eit", "--config", str(cfg), "--out", str(tmp_path)]) == 4
        assert sorted(path.name for path in tmp_path.iterdir()) == ["degenerate.yaml"]

    def test_overflow_in_the_first_block_leaves_no_directory(self, tmp_path, capsys):
        cfg = tmp_path / "huge_field.yaml"
        cfg.write_text("scenarios:\n  response:\n    field_v_cm: 1.0e+306\n")
        out = tmp_path / "out"
        assert main(["response", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: beat signal power must be below +inf dBm, got inf\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "yaml_text, codes",
        [
            ("ladder:\n  dephasing_khz: .nan\n", {2}),
            ("ladder:\n  decay_e_mhz: .inf\n", {2}),
            ("scenarios:\n  eit:\n    probe_span_mhz: .inf\n", {2, 4}),
        ],
    )
    def test_non_finite_ladder_input_is_named_error(self, tmp_path, capsys, yaml_text, codes):
        cfg = tmp_path / "non_finite.yaml"
        cfg.write_text(yaml_text)
        assert main(["eit", "--config", str(cfg), "--out", str(tmp_path)]) in codes
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "eit.csv").exists()

    @pytest.mark.parametrize(
        "scenario, yaml_text, output",
        [
            ("response", "scenarios:\n  response:\n    field_v_cm: .nan\n", "response.csv"),
            ("sweep2cell", "scenarios:\n  sweep2cell:\n    field_v_cm: .inf\n", "sweep2cell.csv"),
            ("eit", "scenarios:\n  eit:\n    probe_span_mhz: .inf\n", "eit.csv"),
            ("response", "scenarios:\n  response:\n    stop_ghz: .inf\n", "response.csv"),
            (
                "plan",
                "profile:\n  anchors:\n"
                "    - {position_cm: .nan, transition_frequency_ghz: 8.23}\n"
                "    - {position_cm: 7.98, transition_frequency_ghz: 8.03}\n",
                "plan.csv",
            ),
            (
                "plan",
                "profile:\n  anchors:\n"
                "    - {position_cm: 0.0, transition_frequency_ghz: 8.23}\n"
                "    - {position_cm: 7.98, transition_frequency_ghz: 8.03}\n",
                "plan.csv",
            ),
            ("plan", "comb:\n  center_frequency_ghz: .inf\n", "plan.csv"),
            ("eit", "ladder:\n  probe_rabi_mhz: .nan\n", "eit.csv"),
            ("plan", "channel:\n  stimulus:\n    antenna_gain: .nan\n", "plan.csv"),
            ("plan", "comb:\n  line_count: 2\n  per_line_power_dbm: [4000, 0]\n", "plan.csv"),
            ("plan", "channel:\n  stimulus:\n    power_dbm: 4000\n", "plan.csv"),
        ],
    )
    def test_non_finite_stimulus_exits_2_cleanly(
        self, tmp_path, capsys, recwarn, scenario, yaml_text, output
    ):
        # Rejected at config time: exit 2, a named error, no numpy warnings,
        # and the section named once ("comb: comb.center..." repeats it).
        cfg = tmp_path / "non_finite.yaml"
        cfg.write_text(yaml_text)
        assert main([scenario, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert not re.search(r"\b([\w.]+): \1\.", err), err
        assert not recwarn.list
        assert not (tmp_path / output).exists()

    @pytest.mark.parametrize(
        "scenario, code",
        [("plan", 0), ("response", 2), ("linearity", 2), ("sensitivity", 2), ("sweep2cell", 0)],
    )
    def test_channel_calibration_checked_on_first_use(self, tmp_path, capsys, scenario, code):
        # The channels are built by the scenarios that use them, not at load.
        # sweep2cell's two edge channels never read the center target.
        cfg = tmp_path / "calibration.yaml"
        cfg.write_text("channel:\n  center_min_detectable_field_nv_cm: 1.0e+300\n")
        assert main([scenario, "--config", str(cfg), "--out", str(tmp_path)]) == code
        if code:
            assert capsys.readouterr().err == (
                "configuration error: channel: noise_floor (5848.728353180034 dBm) must be "
                "below peak_power (-36.5 dBm), both finite\n"
            )

    def test_linearity_rows_capped(self, tmp_path, capsys):
        # 21 lines x 50000 points: only the scenario that writes them fails.
        cfg = tmp_path / "long.yaml"
        cfg.write_text("scenarios:\n  linearity:\n    points: 50000\n")
        assert main(["plan", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert main(["linearity", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.endswith(
            "configuration error: comb.line_count x scenarios.linearity.points "
            "must be <= 1000000, got 1050000\n"
        )
        assert not (tmp_path / "linearity.csv").exists()

    # Two faults in one file: the plan, and linearity's row cap, are checked
    # before the channels calibrate. sweep2cell places its own two lines.
    @pytest.mark.parametrize(
        "scenario, code, text",
        [
            (name, 3, "infeasible plan: line 0: line at 8900000000.0 Hz outside reachable "
                      "band [8030000000.0, 8230000000.0] Hz")
            for name in ("response", "linearity", "sensitivity")
        ] + [("sweep2cell", 2, "configuration error: channel: noise_floor (5878.728353180034 "
                               "dBm) must be below peak_power (-36.5 dBm), both finite")],
        ids=["response", "linearity", "sensitivity", "sweep2cell"],
    )
    def test_plan_fault_reported_before_calibration_fault(
        self, tmp_path, capsys, scenario, code, text
    ):
        cfg = tmp_path / "two_faults.yaml"
        cfg.write_text(
            "comb:\n  center_frequency_ghz: 9.0\n"
            "channel:\n  edge_sensitivity_nv_cm_sqrt_hz: 1.0e+300\n"
        )
        assert main([scenario, "--config", str(cfg), "--out", str(tmp_path)]) == code
        assert capsys.readouterr().err == text + "\n"

    def test_linearity_row_cap_reported_before_calibration_fault(self, tmp_path, capsys):
        cfg = tmp_path / "two_faults.yaml"
        cfg.write_text(
            "scenarios:\n  linearity:\n    points: 50000\n"
            "channel:\n  center_min_detectable_field_nv_cm: 1.0e+300\n"
        )
        assert main(["linearity", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "configuration error: comb.line_count x scenarios.linearity.points "
            "must be <= 1000000, got 1050000\n"
        )

    def test_console_script_entry_point(self, tmp_path):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "starkcomb.cli", "sensitivity", "--out", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "sensitivity.csv").exists()
