import json

import numpy as np
import pytest

from modscatter.cli import main


def read_csv(path):
    meta = {}
    rows = []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    table = {
        name: np.array([row[i] for row in rows], dtype=float)
        for i, name in enumerate(header)
    }
    return meta, header, table


class TestPresetsCommand:
    def test_lists_every_preset(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        for name in ("fig2_static", "fig2_trivial_amp", "fig3a", "fig3b",
                     "fig4a", "fig4b"):
            assert name in out


class TestSpectrumCommand:
    def test_small_custom_sweep_matches_closed_form(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = main([
            "spectrum", "--axis", "detuning", "--range", "-2:2:5",
            "--mod-amp-energy", "0", "--mod-freq", "0",
            "--out", str(out),
        ])
        assert code == 0
        meta, header, table = read_csv(out)
        assert meta["axis"] == "detuning"
        assert header[0] == "detuning"
        expected = table["detuning"] ** 2 / (table["detuning"] ** 2 + 1.0)
        np.testing.assert_allclose(table["T"], expected, rtol=0, atol=1e-10)
        np.testing.assert_allclose(
            table["T"] + table["R"], 1.0, rtol=0, atol=1e-10
        )

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        argv = [
            "spectrum", "--axis", "mod_freq", "--range", "0.5:4:7",
            "--mod-amp-energy", "5",
        ]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_thread_env_does_not_change_bytes(self, tmp_path, monkeypatch):
        argv = [
            "spectrum", "--axis", "detuning", "--range", "-3:3:9",
            "--mod-amp-energy", "5", "--mod-freq", "2",
        ]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        monkeypatch.setenv("SCATTER_THREADS", "1")
        assert main(argv + ["--out", str(a)]) == 0
        monkeypatch.setenv("SCATTER_THREADS", "4")
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, tmp_path):
        out = tmp_path / "run.json"
        code = main([
            "spectrum", "--axis", "detuning", "--range", "-1:1:3",
            "--mod-amp-energy", "0", "--mod-freq", "0",
            "--format", "json", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["meta"]["axis"] == "detuning"
        assert len(payload["rows"]) == 3
        assert "T" in payload["rows"][0]

    def test_stamp_adds_a_timestamp_line(self, tmp_path):
        base = ["spectrum", "--axis", "detuning", "--range", "-1:1:3",
                "--mod-amp-energy", "0", "--mod-freq", "0"]
        plain = tmp_path / "plain.csv"
        stamped = tmp_path / "stamped.csv"
        assert main(base + ["--out", str(plain)]) == 0
        assert main(base + ["--stamp", "--out", str(stamped)]) == 0
        assert "# timestamp=" not in plain.read_text()
        assert "# timestamp=" in stamped.read_text()

    def test_stdout_when_no_out_file(self, capsys):
        code = main([
            "spectrum", "--axis", "detuning", "--range", "-1:1:3",
            "--mod-amp-energy", "0", "--mod-freq", "0",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "detuning,T,R" in captured.out
        assert "points" in captured.err

    def test_preset_runs_with_overridden_point_count_rejected(self):
        code = main(["spectrum", "--preset", "nope"])
        assert code == 64

    def test_raw_units_rescale_the_axis(self, tmp_path):
        norm = tmp_path / "norm.csv"
        raw = tmp_path / "raw.csv"
        assert main([
            "spectrum", "--axis", "detuning", "--range", "-2:2:5",
            "--mod-amp-energy", "0", "--mod-freq", "0", "--out", str(norm),
        ]) == 0
        assert main([
            "spectrum", "--axis", "detuning", "--range", "-4:4:5",
            "--mod-amp-energy", "0", "--mod-freq", "0",
            "--raw-units", "--coupling", "2", "--group-velocity", "2",
            "--out", str(raw),
        ]) == 0
        _, _, t_norm = read_csv(norm)
        _, _, t_raw = read_csv(raw)
        np.testing.assert_allclose(t_raw["T"], t_norm["T"], rtol=0, atol=1e-12)

    def test_raw_units_require_coupling(self):
        code = main([
            "spectrum", "--axis", "detuning", "--range", "-1:1:3",
            "--raw-units",
        ])
        assert code == 64


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self):
        assert main(["spectrum", "--bogus"]) == 64

    def test_malformed_range_is_usage_error(self):
        assert main(["spectrum", "--axis", "detuning", "--range", "1:2"]) == 64

    def test_missing_axis_is_usage_error(self):
        assert main(["spectrum", "--range", "1:2:3"]) == 64

    def test_unconverged_rows_exit_with_quality_code(self, tmp_path, capsys):
        out = tmp_path / "bad.csv"
        with pytest.warns(UserWarning):
            code = main([
                "spectrum", "--axis", "detuning", "--range", "0:1:2",
                "--mod-amp-energy", "1200", "--mod-freq", "2",
                "--out", str(out),
            ])
        assert code == 2
        _, _, table = read_csv(out)
        assert np.all(table["flagged"] == 1.0)
        assert np.all(np.isnan(table["T"]))


class TestConfigFile:
    def test_dump_config_round_trips(self, tmp_path, capsys):
        argv = ["spectrum", "--axis", "detuning", "--range", "-1:1:3",
                "--mod-amp-energy", "5", "--mod-freq", "2"]
        assert main(argv + ["--dump-config"]) == 0
        text = capsys.readouterr().out
        cfg = tmp_path / "run.ini"
        cfg.write_text(text)
        assert main(["spectrum", "--config", str(cfg), "--dump-config"]) == 0
        again = capsys.readouterr().out
        assert again == text

    def test_config_drives_a_run_and_flags_override(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[sweep]\naxis = detuning\nrange = -2:2:5\n"
            "[params]\nmod_amp_energy = 0\nmod_freq = 0\n"
            "[output]\nprecision = 6\n"
        )
        out = tmp_path / "out.csv"
        assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
        meta, _, table = read_csv(out)
        assert meta["points"] == "5"
        assert len(table["T"]) == 5
        out2 = tmp_path / "out2.csv"
        assert main(["spectrum", "--config", str(cfg),
                     "--mod-amp-energy", "5", "--out", str(out2)]) == 0
        _, _, table2 = read_csv(out2)
        # the config pins precision=6, so compare at that resolution
        assert table2["T"][2] == pytest.approx(25.0 / 26.0, abs=1e-6)


class TestSidebandsCommand:
    def test_default_orders_present(self, tmp_path):
        out = tmp_path / "side.csv"
        code = main([
            "sidebands", "--axis", "mod_freq", "--range", "1:4:4",
            "--mod-amp-energy", "5", "--out", str(out),
        ])
        assert code == 0
        _, header, table = read_csv(out)
        for name in ("T_0", "T_1", "T_2"):
            assert name in header
        assert np.all(table["T_0"] + table["T_1"] + table["T_2"]
                      <= table["T"] + 1e-9)

    def test_explicit_orders_override(self, tmp_path):
        out = tmp_path / "side.csv"
        code = main([
            "sidebands", "--preset", "fig4a", "--orders", "0,3",
            "--out", str(out),
        ])
        assert code == 0
        _, header, _ = read_csv(out)
        assert "T_3" in header
        assert "T_1" not in header

    def test_preset_keeps_its_orders_without_flag(self, tmp_path):
        out = tmp_path / "side.csv"
        assert main(["sidebands", "--preset", "fig4b",
                     "--out", str(out)]) == 0
        _, header, _ = read_csv(out)
        for name in ("T_0", "T_1", "T_2"):
            assert name in header


class TestOracleCommand:
    def test_single_case_passes(self, tmp_path):
        out = tmp_path / "oracle.csv"
        code = main([
            "oracle", "--cases", "5:8", "--delta-range", "-2:2:3",
            "--out", str(out),
        ])
        assert code == 0
        _, header, table = read_csv(out)
        assert "max_dev_series_hb" in header
        assert "max_dev_series_td" in header
        assert np.all(table["passed"] == 1.0)


class TestTrapCommand:
    def test_quick_trap_run_writes_report_and_series(self, tmp_path):
        report = tmp_path / "trap.csv"
        series = tmp_path / "series.csv"
        code = main([
            "trap", "--bandwidth", "0.1", "--cells", "3000",
            "--series-out", str(series), "--series-stride", "50",
            "--out", str(report),
        ])
        assert code == 0
        _, header, table = read_csv(report)
        assert 0.5 < table["eta"][0] < 0.9
        assert table["norm_drift"][0] < 1e-8
        _, s_header, s_table = read_csv(series)
        assert s_header == ["time", "p_cav"]
        assert len(s_table["time"]) > 100

    def test_dump_config_skips_the_run(self, capsys):
        code = main(["trap", "--bandwidth", "0.1", "--cells", "3000",
                     "--dump-config"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[trap]" in out
        assert "bandwidth = 0.1" in out

    @pytest.mark.parametrize("flag, value", [
        ("--cells", "0"),
        ("--cells", "-5"),
        ("--cells", "1000001"),
        ("--cells", "50000000"),
        ("--bandwidth", "0"),
        ("--bandwidth", "-0.05"),
        ("--bandwidth", "nan"),
        ("--bandwidth", "inf"),
    ])
    def test_out_of_range_inputs_refused_before_running(
        self, flag, value, capsys, monkeypatch
    ):
        # oversized grids are checked by refusal only, never by running them
        def never_run(protocol):
            raise AssertionError("refused input reached the grid")

        monkeypatch.setattr("modscatter.cli.run_protocol", never_run)
        assert main(["trap", flag, value]) == 64
        err = capsys.readouterr().err
        assert "error[out-of-range]" in err
        assert ("[1, 1000000]" if flag == "--cells" else "> 0") in err


class TestVersionFlag:
    def test_version_exits_cleanly(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.strip()
