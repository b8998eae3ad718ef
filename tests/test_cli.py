import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import modscatter
from modscatter import cavity, cli
from modscatter.cli import main


# Omega = 40 gamma puts sidebands of a 40-gamma modulation at negative
# frequency, which warns; the default Omega = 1000 gamma does not
OMEGA_A_RUN = ["spectrum", "--axis", "detuning", "--range", "-4:4:5",
               "--mod-amp-energy", "2", "--mod-freq", "40", "--raw-units",
               "--coupling", "1", "--group-velocity", "1", "--omega-a", "40"]


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

    def test_omega_a_applies_at_unit_gamma(self, tmp_path):
        # V = v_g = 1 gives gamma = 1 exactly; --omega-a must still set Omega
        out = tmp_path / "raw.csv"
        with pytest.warns(UserWarning, match="non-positive frequency"):
            assert main(OMEGA_A_RUN + ["--out", str(out)]) == 0

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


class TestPrecisionLimit:
    """--precision and [output] precision are refused outside [0, 16]."""

    @pytest.fixture(autouse=True)
    def no_sweep(self, monkeypatch):
        def never_run(spec):
            raise AssertionError("refused precision reached the sweep")

        monkeypatch.setattr("modscatter.cli.run_sweep", never_run)

    SWEEP = ["spectrum", "--axis", "detuning", "--range", "-1:1:3"]

    @pytest.mark.parametrize("value", ["17", "-1", "200000"])
    def test_flag_refused(self, value, capsys):
        assert main(self.SWEEP + ["--precision", value]) == 64
        err = capsys.readouterr().err
        assert "error[out-of-range]" in err
        assert "[0, 16]" in err

    def test_config_refused(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[output]\nprecision = 100000\n")
        assert main(self.SWEEP + ["--config", str(cfg)]) == 64
        err = capsys.readouterr().err
        assert "error[out-of-range]" in err
        assert "[0, 16]" in err


class TestPointLimit:
    """Every range holds at most 100000 points, refused before it is built."""

    @pytest.fixture(autouse=True)
    def no_grid(self, monkeypatch):
        def never_build(*args, **kwargs):
            raise AssertionError("a refused range was built")

        monkeypatch.setattr(np, "linspace", never_build)

    @pytest.mark.parametrize("command", ["spectrum", "sidebands"])
    def test_flag_refused(self, command, capsys):
        argv = [command, "--axis", "detuning", "--range", "-1:1:100001"]
        assert main(argv) == 64
        err = capsys.readouterr().err
        assert "error[out-of-range]" in err
        assert "100000" in err

    def test_config_refused(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[sweep]\naxis = detuning\nrange = -1:1:10000000\n")
        assert main(["spectrum", "--config", str(cfg)]) == 64
        err = capsys.readouterr().err
        assert "error[out-of-range]" in err
        assert "100000" in err


@pytest.fixture
def no_engine(monkeypatch):
    def never_run(*args, **kwargs):
        raise AssertionError("a refused input reached the engine")

    monkeypatch.setattr(cli, "run_sweep", never_run)
    monkeypatch.setattr(cli, "cross_validate", never_run)


@pytest.mark.parametrize("argv, ini, value", [
    pytest.param(["spectrum", "--axis", "mod_freq", "--range", "0.5:2:3",
                  "--mod-amp-energy", "2", "--detuning", "nan"], None, "nan",
                 id="detuning"),
    pytest.param(["spectrum", "--axis", "mod_freq", "--range", "0.5:2:3",
                  "--mod-amp-energy", "inf"], None, "inf", id="mod-amp-energy"),
    pytest.param(["spectrum", "--axis", "detuning", "--range=-1:1:3",
                  "--mod-amp-energy", "2", "--mod-freq", "inf"], None, "inf",
                 id="mod-freq"),
    pytest.param(["sidebands", "--preset", "fig4b", "--detuning=-inf"], None,
                 "-inf", id="preset-detuning"),
    pytest.param(["spectrum", "--axis", "detuning", "--range", "nan:1:3"], None,
                 "nan", id="range"),
    pytest.param(["oracle", "--cases", "5:2", "--delta-range", "nan:1:3"], None,
                 "nan", id="delta-range-start"),
    pytest.param(["oracle", "--cases", "5:2", "--delta-range", "0:inf:3"], None,
                 "inf", id="delta-range-stop"),
    pytest.param(["spectrum"], "[sweep]\naxis = detuning\nrange = -inf:1:3\n",
                 "-inf", id="config-range"),
    pytest.param(["spectrum", "--axis", "detuning", "--range", "0:1:3"],
                 "[params]\nmod_freq = nan\n", "nan", id="config-mod-freq"),
    pytest.param(["oracle"], "[oracle]\ndelta_range = 0:nan:3\n", "nan",
                 id="config-delta-range"),
])
def test_non_finite_inputs_refused_before_running(
    argv, ini, value, tmp_path, capsys, no_engine
):
    if ini is not None:
        cfg = tmp_path / "run.ini"
        cfg.write_text(ini)
        argv = argv + ["--config", str(cfg)]
    assert main(argv) == 64
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert value in err


class TestRawUnitOnlyInputs:
    SWEEP = ["spectrum", "--axis", "detuning", "--range=-4:4:3",
             "--mod-amp-energy", "2", "--mod-freq", "40"]
    PRESET_RAW = ["spectrum", "--preset", "fig3a", "--raw-units",
                  "--coupling", "1", "--group-velocity", "1", "--omega-a", "40"]

    @pytest.mark.parametrize("flag, key", [("--coupling", "coupling"),
                                           ("--group-velocity", "group_velocity"),
                                           ("--omega-a", "omega_a")])
    def test_refused_without_raw_units(self, flag, key, tmp_path, capsys,
                                       no_engine):
        assert main(self.SWEEP + [flag, "40"]) == 64
        assert main(self.SWEEP + [flag, "40", "--dump-config"]) == 64
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[params]\n{key} = 40\n")
        assert main(self.SWEEP + ["--config", str(cfg)]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count(f"{flag} ([params] {key})") == 3
        assert "--raw-units" in captured.err

    @pytest.mark.parametrize("coupling, velocity", [("inf", "1"), ("1", "inf"),
                                                    ("nan", "1"), ("1e-200", "1")])
    def test_unusable_gamma_refused(self, coupling, velocity, capsys, no_engine):
        argv = self.SWEEP + ["--raw-units", "--coupling", coupling,
                             "--group-velocity", velocity]
        assert main(argv) == 64
        assert "--coupling" in capsys.readouterr().err

    def test_preset_applies_omega_a_and_replays_it(self, tmp_path, capsys):
        # the dump writes Omega/gamma from the spec the run would use
        assert main(self.PRESET_RAW + ["--dump-config"]) == 0
        text = capsys.readouterr().out
        assert "preset = fig3a" in text
        assert "omega_a = 40.0" in text
        cfg = tmp_path / "run.ini"
        cfg.write_text(text)
        assert main(["spectrum", "--config", str(cfg), "--dump-config"]) == 0
        assert capsys.readouterr().out == text


def test_preset_override_survives_dump_and_replay(tmp_path, capsys):
    assert main(["spectrum", "--preset", "fig3a", "--detuning", "1",
                 "--dump-config"]) == 0
    text = capsys.readouterr().out
    assert "detuning = 1.0" in text
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    assert main(["spectrum", "--config", str(cfg), "--dump-config"]) == 0
    assert capsys.readouterr().out == text


def test_error_codes_map_one_to_one_onto_exit_classes():
    """Each error type carries its own exit class: a quality failure (2) or
    a usage error (64), with only the base class an internal error (70);
    main returns it."""
    exits = {
        modscatter.ScatterError: 70,
        modscatter.TruncationError: 2,
        modscatter.SingularSystemError: 2,
        modscatter.InvariantError: 2,
        modscatter.ResolutionError: 64,
        modscatter.NotStaticError: 64,
        modscatter.StaticLimitError: 64,
        modscatter.OutOfRangeError: 64,
    }

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    assert set(subclasses(modscatter.ScatterError)) | {
        modscatter.ScatterError} == set(exits)
    assert len({cls.code for cls in exits}) == len(exits)
    for cls, code in exits.items():
        assert cls.exit_code == code, cls


@pytest.mark.parametrize("cls", [modscatter.ScatterError,
                                 modscatter.TruncationError,
                                 modscatter.OutOfRangeError])
def test_main_returns_the_error_exit_code(cls, monkeypatch, capsys):
    def fail(args):
        raise cls("boom")

    monkeypatch.setattr(cli, "cmd_presets", fail)
    assert main(["presets"]) == cls.exit_code
    assert f"error[{cls.code}]: boom" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["trap", "--variant", "control", "--amp-energy", "nan"],
    ["trap", "--bandwidth", "1e-300"],
    ["trap", "--cells", "0"],
    ["trap", "--mod-freq", "1e308"],
    ["oracle", "--delta-range", "0:1:1000000000"],
    ["oracle", "--delta-range", "0:1:1"],
])
def test_dump_config_refuses_what_a_run_refuses(argv, capsys):
    assert main(argv + ["--dump-config"]) == 64
    assert capsys.readouterr().out == ""


class TestConfigFile:
    def test_dump_config_keeps_omega_a(self, tmp_path, capsys):
        first, replay = tmp_path / "first.csv", tmp_path / "replay.csv"
        with pytest.warns(UserWarning, match="non-positive frequency"):
            assert main(OMEGA_A_RUN + ["--out", str(first)]) == 0
        capsys.readouterr()
        assert main(OMEGA_A_RUN + ["--dump-config"]) == 0
        cfg = tmp_path / "run.ini"
        cfg.write_text(capsys.readouterr().out)
        with pytest.warns(UserWarning, match="non-positive frequency"):
            assert main(["spectrum", "--config", str(cfg),
                         "--out", str(replay)]) == 0
        assert replay.read_bytes() == first.read_bytes()

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

    @pytest.mark.parametrize("argv, limit", [
        (["--cases", "5:0.001", "--delta-range", "-1:1:3"], "600"),
        (["--cases", "5:2", "--delta-range", "-50:50:300"], "2097152"),
    ])
    def test_unbounded_inputs_refused_before_running(
        self, argv, limit, capsys, monkeypatch
    ):
        def never_run(*args, **kwargs):
            raise AssertionError("refused input reached the scan")

        monkeypatch.setattr(np, "cumprod", never_run)
        assert main(["oracle", *argv]) == 64
        err = capsys.readouterr().err
        assert "error[out-of-range]" in err
        assert limit in err

    def test_oversized_grid_refused_before_it_is_built(
        self, capsys, monkeypatch
    ):
        def never_build(*args, **kwargs):
            raise AssertionError("an 8 GB detuning grid was allocated")

        monkeypatch.setattr(np, "linspace", never_build)
        assert main(["oracle", "--delta-range", "-1:1:1000000000"]) == 64
        assert "100000" in capsys.readouterr().err

    @pytest.fixture
    def no_solve(self, monkeypatch):
        def never_run(*args, **kwargs):
            raise AssertionError("refused input reached a solver")

        monkeypatch.setattr("modscatter.cli.cross_validate", never_run)

    @pytest.mark.parametrize("flag, key", [("--tol-hb", "tol_hb"),
                                           ("--tol-td", "tol_td")])
    @pytest.mark.parametrize("value", ["nan", "0", "-0.001", "inf"])
    def test_bad_tolerance_refused(self, flag, key, value, tmp_path, capsys,
                                   no_solve):
        argv = ["oracle", "--cases", "5:2", "--delta-range", "0:1:2"]
        assert main(argv + [flag, value]) == 64
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[oracle]\n{key} = {value}\n")
        assert main(argv + ["--config", str(cfg)]) == 64
        err = capsys.readouterr().err
        assert err.count("error[out-of-range]") == 2
        assert err.count(flag) == 2

    @pytest.mark.parametrize("cases", ["5", "5:2:1", "5:2,x:y", "5;2",
                                       "5:inf", "nan:2"])
    def test_malformed_cases_name_the_flag(self, cases, capsys, no_solve):
        assert main(["oracle", "--cases", cases]) == 64
        err = capsys.readouterr().err
        assert "--cases" in err
        assert "AMP:FREQ" in err


def test_cli_import_leaves_scipy_unloaded():
    # numpy is the only runtime dependency: with scipy made unimportable the
    # harmonic-balance routes (oracle, spectrum --method both) still run
    src = str(Path(modscatter.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    probe = "import sys, modscatter.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
    runs = (
        ["oracle", "--cases", "5:2", "--delta-range", "-1:1:3"],
        ["spectrum", "--axis", "detuning", "--range", "-5:5:21",
         "--mod-amp-energy", "5", "--mod-freq", "2", "--method", "both"],
    )
    for argv in runs:
        blocked = ("import sys; sys.modules['scipy'] = None; "
                   f"from modscatter.cli import main; sys.exit(main({argv!r}))")
        out = subprocess.run([sys.executable, "-c", blocked], env=env,
                             capture_output=True, text=True)
        assert out.returncode == 0, (argv, out.stderr)


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
        ("--bandwidth", "1e-300"),
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


    @pytest.mark.parametrize("stride", ["0", "-3"])
    def test_series_stride_below_one_refused(self, stride, tmp_path, capsys,
                                             monkeypatch):
        def never_run(protocol):
            raise AssertionError("refused stride reached the grid")

        monkeypatch.setattr("modscatter.cli.run_protocol", never_run)
        series = str(tmp_path / "series.csv")
        assert main(["trap", "--series-out", series,
                     "--series-stride", stride]) == 64
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[trap]\nseries_stride = {stride}\n")
        assert main(["trap", "--series-out", series,
                     "--config", str(cfg)]) == 64
        err = capsys.readouterr().err
        assert err.count("error[out-of-range]") == 2
        assert ">= 1" in err

    @pytest.mark.parametrize("flag, field", [("--amp-energy", "amp_energy"),
                                             ("--mod-freq", "freq")])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_modulation_refused(self, flag, field, value, capsys,
                                           monkeypatch):
        def never_run(protocol):
            raise AssertionError("refused modulation reached the grid")

        monkeypatch.setattr("modscatter.cli.run_protocol", never_run)
        assert main(["trap", "--cells", "1500", "--bandwidth", "0.1",
                     flag, value]) == 64
        err = capsys.readouterr().err
        assert "error[out-of-range]" in err
        assert field in err

    @pytest.mark.parametrize("variant", ["control", "always-on"])
    @pytest.mark.parametrize("flag", ["--amp-energy", "--mod-freq"])
    def test_every_variant_refuses_a_non_finite_modulation(
        self, variant, flag, capsys, monkeypatch
    ):
        def never_run(protocol):
            raise AssertionError("refused modulation reached the grid")

        monkeypatch.setattr("modscatter.cli.run_protocol", never_run)
        assert main(["trap", "--cells", "1500", "--bandwidth", "0.1",
                     "--variant", variant, flag, "nan"]) == 64
        err = capsys.readouterr().err
        assert "error[out-of-range]" in err
        assert "must be finite" in err

    @pytest.mark.parametrize("flag", ["--amp-energy", "--mod-freq"])
    def test_unresolvable_modulation_refused(self, flag, capsys, monkeypatch):
        def never_run(protocol):
            raise AssertionError("refused modulation reached the grid")

        monkeypatch.setattr("modscatter.cli.run_protocol", never_run)
        assert main(["trap", "--cells", "1500", "--bandwidth", "0.1",
                     flag, "1e308"]) == 64
        err = capsys.readouterr().err
        assert "error[out-of-range]" in err
        assert "Nyquist" in err and "dt=0.1" in err

    def test_nan_field_exits_with_quality_code(self, tmp_path, capsys,
                                               monkeypatch):
        real_advance = cavity._advance

        def nan_advance(state, protocol, n):
            series = real_advance(state, protocol, n)
            state.phi_R[int(state.positions[0]) + 5] = float("nan")
            return series

        monkeypatch.setattr("modscatter.cavity._advance", nan_advance)
        out = tmp_path / "trap.csv"
        assert main(["trap", "--cells", "1500", "--bandwidth", "0.1",
                     "--out", str(out)]) == 2
        assert "error[invariant-violation]" in capsys.readouterr().err
        assert not out.exists()


class TestVersionFlag:
    def test_version_exits_cleanly(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.strip()
