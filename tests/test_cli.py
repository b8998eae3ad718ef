import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import modscatter
from modscatter import bessel, cavity, cli, scattering
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

    def test_discrepancy_column_does_not_hang_on_the_first_row(self, tmp_path):
        """--method both has a discrepancy column when any row is modulated,
        in either axis direction; the static row (omega = 0) has no harmonic
        balance and writes nan there. A sweep with no modulated row has no
        such column."""
        base = ["spectrum", "--axis", "mod_freq", "--mod-amp-energy", "5",
                "--method", "both", "--precision", "16"]
        tables = {}
        for rng in ("2:0:5", "0:2:5"):
            out = tmp_path / f"{rng.replace(':', '_')}.csv"
            assert main(base + ["--range", rng, "--out", str(out)]) == 0
            tables[rng] = read_csv(out)
        (_, down, t_down), (_, up, t_up) = tables.values()
        assert down == up == ["mod_freq", "T", "R", "unitarity_defect",
                              "discrepancy", "sideband_max", "flagged"]
        for name in up:
            np.testing.assert_array_equal(t_down[name][::-1], t_up[name])
        assert np.isnan(t_up["discrepancy"][0])
        assert np.all(t_up["discrepancy"][1:] < 1e-8)
        static = tmp_path / "static.csv"
        assert main(["spectrum", "--axis", "detuning", "--range=-1:1:3",
                     "--mod-amp-energy", "5", "--mod-freq", "0", "--method",
                     "both", "--out", str(static)]) == 0
        assert "discrepancy" not in read_csv(static)[1]

    @pytest.mark.parametrize("argv, cells", [
        (["trap", "--cells", "1500", "--bandwidth", "0.1"],
         ["release_fidelity", "released_probability"]),
        (["spectrum", "--axis", "mod_freq", "--range", "0:2:3",
          "--mod-amp-energy", "5", "--method", "both"], ["discrepancy"]),
    ], ids=["trap", "static-row"])
    def test_json_writes_nan_cells_as_null(self, argv, cells, tmp_path):
        """JSON has no NaN token: a cell that is nan in the CSV is null in
        the JSON, which a strict parser reads."""
        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        assert main(argv + ["--format", "json", "--out",
                            str(tmp_path / "run.json")]) == 0
        assert main(argv + ["--out", str(tmp_path / "run.csv")]) == 0
        text = (tmp_path / "run.json").read_text()
        row = json.loads(text, parse_constant=refuse)["rows"][0]
        table = read_csv(tmp_path / "run.csv")[2]
        for name in cells:
            assert row[name] is None
            assert np.isnan(table[name][0])

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


class TestModulationIndexEdges:
    """u = f*Omega/omega at the Bessel domain limit and past the window cap."""

    SWEEP = ["spectrum", "--axis", "detuning", "--range=-1:1:3",
             "--mod-freq", "1"]

    def test_bessel_domain_limit_refused(self, capsys, monkeypatch):
        def never_run(*args, **kwargs):
            raise AssertionError("a refused argument reached the recurrence")

        monkeypatch.setattr(bessel, "_miller_sequence", never_run)
        monkeypatch.setattr(bessel, "_series_single", never_run)
        with pytest.warns(UserWarning, match="not small"):
            code = main(self.SWEEP + ["--mod-amp-energy", "1000"])
        assert code == 64
        err = capsys.readouterr().err
        assert "error[out-of-range]" in err
        assert "outside validated domain" in err

    @pytest.mark.parametrize("argv", [
        SWEEP[:4] + ["--mod-amp-energy", "0.5", "--mod-freq", "5e-324"],
        SWEEP[:4] + ["--mod-amp-energy", "0.5", "--mod-freq", "5e-324",
                     "--method", "harmonic_balance"],
        ["spectrum", "--axis", "mod_freq", "--range=0:1e-320:3",
         "--mod-amp-energy", "1"],
    ], ids=["series", "harmonic-balance", "mod-freq-axis"])
    def test_overflowing_index_refused(self, argv, capsys):
        # f*Omega/omega overflows to inf, short of any window to try
        assert main(argv) == 64
        err = capsys.readouterr().err
        assert "error[out-of-range]: modulation index u = f*Omega/omega = " \
            "inf outside validated domain |u| < 1000" in err

    def test_past_the_cap_every_row_is_flagged(self, tmp_path, monkeypatch):
        # u = 999 > SIDEBAND_CAP: the first window is the cap itself, and
        # only its defect shows that no window converges
        windows = []
        series_block = scattering._series_block

        def record(params, detunings, n, **kwargs):
            windows.append(n)
            return series_block(params, detunings, n, **kwargs)

        monkeypatch.setattr(scattering, "_series_block", record)
        out = tmp_path / "capped.csv"
        with pytest.warns(UserWarning, match="not small"):
            code = main(self.SWEEP + ["--mod-amp-energy", "999",
                                      "--out", str(out)])
        assert code == 2
        assert windows == [scattering.SIDEBAND_CAP]
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
    monkeypatch.setattr(cli, "run_protocol", never_run)


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
    # finite ends whose span overflows would make linspace yield nan and inf
    pytest.param(["spectrum", "--axis", "detuning", "--range=-1e308:1e308:3",
                  "--mod-amp-energy", "1", "--mod-freq", "1"], None, "1e308",
                 id="range-span"),
    pytest.param(["oracle", "--cases", "5:2", "--delta-range=-1e308:1e308:3"],
                 None, "1e308", id="delta-range-span"),
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


@pytest.mark.parametrize("form", ["flag", "config"])
@pytest.mark.parametrize("argv, flag, value, section", [
    pytest.param(["sidebands", "--preset", "fig4a"], "--orders", "x", "sweep",
                 id="orders"),
    pytest.param(["spectrum", "--axis", "detuning", "--mod-amp-energy", "1",
                  "--mod-freq", "1"], "--range", "a:1:3", "sweep", id="range"),
    pytest.param(["oracle"], "--delta-range", "1:2:x", "oracle",
                 id="delta-range-points"),
    pytest.param(["oracle"], "--delta-range", "1:2", "oracle",
                 id="delta-range-parts"),
    pytest.param(["trap"], "--series-stride", "0", "trap", id="series-stride"),
])
def test_usage_errors_name_their_flag_and_key(argv, flag, value, section,
                                              form, tmp_path, capsys,
                                              no_engine):
    """A 64 names the flag and its config key, given either way."""
    key = flag[2:].replace("-", "_")
    if form == "flag":
        argv = argv + [f"{flag}={value}"]
    else:
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[{section}]\n{key} = {value}\n")
        argv = argv + ["--config", str(cfg)]
    assert main(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{flag} ([{section}] {key})" in captured.err
    assert "invalid literal" not in captured.err
    assert "could not convert" not in captured.err


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

    RAW = ["--raw-units", "--coupling", "1", "--group-velocity", "1"]

    @pytest.mark.parametrize("argv, ini", [
        pytest.param(SWEEP + RAW + ["--omega-a", "0"], None, id="zero"),
        pytest.param(SWEEP + RAW + ["--omega-a=-0"], None, id="minus-zero"),
        pytest.param(SWEEP + RAW, "[params]\nomega_a = 0\n", id="config"),
        # Omega/gamma = 5e-324/360 rounds to 0.0
        pytest.param(SWEEP + ["--raw-units", "--coupling", "600",
                              "--group-velocity", "1e3", "--omega-a=5e-324"],
                     None, id="underflow"),
        pytest.param(["spectrum", "--preset", "fig3a", *RAW,
                      "--omega-a", "0"], None, id="preset"),
        pytest.param(SWEEP + RAW + ["--omega-a=inf"], None, id="inf"),
    ])
    def test_nonpositive_carrier_refused(self, argv, ini, tmp_path, capsys,
                                         no_engine):
        if ini is not None:
            cfg = tmp_path / "run.ini"
            cfg.write_text(ini)
            argv = argv + ["--config", str(cfg)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 64
            assert main(argv + ["--dump-config"]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 2 and lines[0] == lines[1]
        # the refusal names the flag and config key that was given, not the
        # derived Omega/gamma
        assert lines[0].startswith("error: --omega-a ([params] omega_a) ")
        assert "omega_ratio" not in lines[0]

    def test_preset_applies_omega_a_and_replays_it(self, tmp_path, capsys):
        # the dump writes the raw values as given; the replay rescales them
        assert main(self.PRESET_RAW + ["--dump-config"]) == 0
        text = capsys.readouterr().out
        assert "preset = fig3a" in text
        assert "omega_a = 40.0" in text
        cfg = tmp_path / "run.ini"
        cfg.write_text(text)
        assert main(["spectrum", "--config", str(cfg), "--dump-config"]) == 0
        assert capsys.readouterr().out == text


@pytest.mark.parametrize("argv, ini", [
    pytest.param(["spectrum", "--preset", "fig3a", "--axis", "detuning",
                  "--range=-1:1:3"], None, id="flags"),
    pytest.param(["spectrum", "--preset", "fig3a"],
                 "[sweep]\naxis = detuning\nrange = -1:1:3\n", id="config"),
])
def test_preset_refuses_axis_and_range(argv, ini, tmp_path, capsys, no_engine):
    """A preset brings its own axis and range; --axis/--range are refused
    rather than silently ignored."""
    if ini is not None:
        (tmp_path / "run.ini").write_text(ini)
        argv = argv + ["--config", str(tmp_path / "run.ini")]
    assert main(argv) == 64
    assert main(argv + ["--dump-config"]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("--axis and --range") == 2


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


SWEEP3 = ["spectrum", "--axis", "detuning", "--range=-1:1:3"]


@pytest.mark.parametrize("argv, ini", [
    pytest.param(SWEEP3, "[output]\nformat = xml\n", id="format-choice"),
    pytest.param(["trap"], "[trap]\nvariant = bogus\n", id="variant-choice"),
    pytest.param(SWEEP3, "[params]\ndetunning = 5\n", id="unknown-key"),
    pytest.param(SWEEP3, "[output]\nstamp = maybe\n", id="not-a-boolean"),
    pytest.param(["sidebands", "--out", "side.csv"],
                 "[sweep]\npreset = fig4b\norders = 0,1\n", id="preset-orders"),
    pytest.param(SWEEP3, "[output]\nconfig = other.ini\n", id="config-key"),
    pytest.param(SWEEP3, "[output]\ndump_config = true\n", id="dump-config-key"),
    pytest.param(["oracle"], "[oracle]\ntol_hb = small\n", id="bad-type"),
    pytest.param(["spectrum", "--preset", "fig4b"], "[sweep]\norders = 0,1\n",
                 id="spectrum-orders"),
])
def test_config_keys_go_through_the_flag_parser(argv, ini, tmp_path, capsys,
                                                monkeypatch, request):
    """A key is its flag: what the flag refuses exits 64 before running."""
    monkeypatch.chdir(tmp_path)
    Path("run.ini").write_text(ini)
    if "preset = fig4b" in ini and argv[0] == "sidebands":
        # the file's orders are explicit and replace the preset's 0,1,2
        assert main(argv + ["--config", "run.ini"]) == 0
        _, header, _ = read_csv(tmp_path / "side.csv")
        assert "T_1" in header and "T_2" not in header
        return
    request.getfixturevalue("no_engine")
    assert main(argv + ["--config", "run.ini"]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


@pytest.mark.parametrize("argv, ini, home", [
    pytest.param(["spectrum"], "[output]\npreset = fig3a\n", "[sweep]",
                 id="preset-in-output"),
    pytest.param(SWEEP3, "[sweep]\nprecision = 6\n", "[output]",
                 id="precision-in-sweep"),
    pytest.param(["trap"], "[trap]\nout = x.csv\n", "[output]",
                 id="out-in-trap"),
])
def test_key_outside_its_section_refused(argv, ini, home, tmp_path, capsys,
                                         no_engine):
    """Each key belongs to one section, the argument group of its flag."""
    cfg = tmp_path / "run.ini"
    cfg.write_text(ini)
    assert main(argv + ["--config", str(cfg)]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"belongs in {home}" in captured.err


@pytest.mark.parametrize("argv", [SWEEP3, ["oracle"], ["trap"]],
                         ids=["spectrum", "oracle", "trap"])
def test_unknown_section_refused(argv, tmp_path, capsys, no_engine):
    """A section no subcommand reads is a typo ([parms] for [params]), not
    a section to skip."""
    cfg = tmp_path / "typo.ini"
    cfg.write_text("[parms]\nmod_amp_energy = 5\n")
    assert main(argv + ["--config", str(cfg)]) == 64
    assert main(argv + ["--config", str(cfg), "--dump-config"]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("[parms] is not a config section") == 2


def test_other_subcommands_sections_are_skipped(tmp_path, capsys):
    """One file serves several subcommands: each reads its own sections."""
    cfg = tmp_path / "shared.ini"
    cfg.write_text("[params]\nmod_amp_energy = 5\n"
                   "[sweep]\naxis = detuning\nrange = -1:1:3\n"
                   "[trap]\ncells = 1500\n[oracle]\ncases = 5:2\n")
    assert main(["spectrum", "--config", str(cfg), "--dump-config"]) == 0
    assert main(["trap", "--config", str(cfg), "--dump-config"]) == 0
    spectrum, trap = capsys.readouterr().out.split("[trap]")
    assert "mod_amp_energy = 5.0" in spectrum and "[oracle]" not in spectrum
    assert "cells = 1500" in trap and "[params]" not in trap


@pytest.mark.parametrize("argv, ini, flag", [
    pytest.param(SWEEP3 + ["--detuning", "5"], None, "--detuning",
                 id="flag"),
    pytest.param(SWEEP3 + ["--detuning", "0"], None, "--detuning",
                 id="flag-at-the-default"),
    pytest.param(SWEEP3, "[params]\ndetuning = 5\n", "--detuning",
                 id="config-key"),
    pytest.param(["spectrum", "--preset", "fig3a", "--mod-amp-energy", "5"],
                 None, "--mod-amp-energy", id="preset"),
    pytest.param(["sidebands", "--preset", "fig4a"], "[params]\nmod_freq = 2\n",
                 "--mod-freq", id="preset-config-key"),
])
def test_fixed_value_on_the_swept_axis_refused(argv, ini, flag, tmp_path,
                                               capsys, no_engine):
    """A value given for the swept axis would be ignored but echoed in the
    metadata; given by flag or by key, it is refused."""
    if ini is not None:
        (tmp_path / "run.ini").write_text(ini)
        argv = argv + ["--config", str(tmp_path / "run.ini")]
    assert main(argv) == 64
    assert main(argv + ["--dump-config"]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count(f"{flag} ([params] ") == 2
    assert "fixes the swept axis" in captured.err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("argv", [
    pytest.param(["spectrum", "--preset", "fig3b"], id="preset"),
    pytest.param(["spectrum", "--axis", "mod_freq", "--range", "0.1:1:3"],
                 id="custom"),
])
def test_non_finite_value_on_the_swept_axis_refused_as_fixing_it(
    argv, value, capsys, no_engine
):
    """A preset and a custom axis take the user's values on one path, so a
    non-finite value on the swept axis gets the one refusal either way."""
    assert main(argv + [f"--mod-freq={value}"]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("--mod-freq ([params] mod_freq) fixes the swept axis"
            in captured.err)


@pytest.mark.parametrize("name", sorted(modscatter.figure_presets()))
def test_custom_axis_spelled_like_a_preset_gives_its_spec(name):
    preset = modscatter.figure_presets()[name]
    argv = ["sidebands" if preset.sideband_orders else "spectrum",
            "--axis", preset.axis,
            f"--range={preset.start!r}:{preset.stop!r}:{preset.points}"]
    argv += [f"--{attr.replace('_', '-')}={getattr(preset, attr)!r}"
             for attr in cli.AXES if attr != preset.axis]
    args = cli.build_parser().parse_args(argv)
    spec = cli._sweep_spec_from(args)
    assert spec.name == "custom"
    assert dataclasses.replace(spec, name=name) == preset


def test_preset_with_empty_orders_gets_the_default_orders():
    args = cli.build_parser().parse_args(
        ["sidebands", "--preset", "fig3a", "--orders="])
    assert cli._sweep_spec_from(args).sideband_orders == (0, 1, 2)


class Reached(BaseException):
    """Raised in place of the engine: the input was accepted."""


def _table(points, n_orders, method="series"):
    """A detuning sweep of `points` rows and 6 + n_orders columns (one more
    under --method both), its orders centred on 0."""
    low = -(n_orders // 2)
    orders = ",".join(map(str, range(low, low + n_orders)))
    return ["sidebands", "--axis", "detuning", f"--range=-1:1:{points}",
            "--mod-amp-energy", "5", "--mod-freq", "2", f"--orders={orders}",
            "--method", method]


class TestWorkBounds:
    """Each sweep and oracle input has a stated bound, refused with exit 64
    before the engine runs; the bound itself is accepted."""

    SIDEBANDS = ["sidebands", "--axis", "detuning", "--range=-1:1:3",
                 "--mod-amp-energy", "5", "--mod-freq", "2"]

    @pytest.fixture
    def engine(self, monkeypatch):
        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(cli, "run_sweep", reached)
        monkeypatch.setattr(cli, "cross_validate", reached)

    @staticmethod
    def refused(argv, flag, capsys):
        assert main(argv) == 64
        assert main(argv + ["--dump-config"]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count(flag) == 2

    @pytest.mark.parametrize("orders", ["600,-513,0", "-513", "513",
                                        "1,1", "0,2,-1,2"])
    @pytest.mark.parametrize("form", ["flag", "config"])
    def test_order_past_the_cap_or_repeated_refused(
        self, orders, form, tmp_path, capsys, engine
    ):
        argv = self.SIDEBANDS + [f"--orders={orders}"]
        if form == "config":
            (tmp_path / "run.ini").write_text(f"[sweep]\norders = {orders}\n")
            argv = self.SIDEBANDS + ["--config", str(tmp_path / "run.ini")]
        self.refused(argv, "--orders ([sweep] orders)", capsys)

    def test_orders_at_the_cap_run(self, tmp_path):
        out = tmp_path / "side.csv"
        cap = scattering.SIDEBAND_CAP
        assert main(self.SIDEBANDS + [f"--orders={cap},-{cap},0",
                                      "--out", str(out)]) == 0
        _, header, table = read_csv(out)
        assert header[1:7] == ["T", "R", "unitarity_defect", f"T_{cap}",
                               f"T_-{cap}", "T_0"]
        assert np.all(table[f"T_{cap}"] == 0.0)

    def test_table_past_the_cell_cap_refused(self, capsys, engine):
        cells = modscatter.dataio.MAX_TABLE_CELLS
        assert cells % 1000 == 0
        self.refused(_table(cells // 1000 + 1, 994), "--range ([sweep] range)",
                     capsys)
        self.refused(_table(cells // 1000, 994, "both"),
                     "--range ([sweep] range)", capsys)

    @pytest.mark.parametrize("argv", [
        pytest.param(_table(modscatter.dataio.MAX_TABLE_CELLS // 1000, 994),
                     id="at-the-cap"),
        pytest.param(["sidebands", "--axis", "detuning",
                      f"--range=-1:1:{modscatter.dataio.MAX_POINTS}",
                      "--mod-amp-energy", "5", "--mod-freq", "2",
                      "--method", "both"],
                     id="max-points-default-orders-both"),
        pytest.param(_table(modscatter.dataio.MAX_TABLE_CELLS // 1031, 1025),
                     id="every-order"),
    ])
    def test_tables_within_the_cell_cap_accepted(self, argv, engine):
        with pytest.raises(Reached):
            main(argv)

    def test_cases_past_the_cap_refused(self, tmp_path, capsys, engine):
        cases = ",".join(["5:2"] * (modscatter.oracles.MAX_CASES + 1))
        self.refused(["oracle", "--cases", cases], "--cases ([oracle] cases)",
                     capsys)
        (tmp_path / "run.ini").write_text(f"[oracle]\ncases = {cases}\n")
        self.refused(["oracle", "--config", str(tmp_path / "run.ini")],
                     "--cases ([oracle] cases)", capsys)

    def test_cases_at_the_cap_accepted(self, engine):
        cases = ",".join(["5:2"] * modscatter.oracles.MAX_CASES)
        with pytest.raises(Reached):
            main(["oracle", "--cases", cases])


@pytest.mark.parametrize("ini, names", [
    pytest.param("mod_amp_energy = 2\n", "bad.ini", id="no-section-header"),
    pytest.param("[params]\nmod_freq = 2\nmod_freq = 3\n", "bad.ini",
                 id="duplicate-key"),
    # '%' is literal, so the value reaches --mod-freq as the string '2%'
    pytest.param("[params]\nmod_freq = 2%\n", "'2%'", id="lone-percent"),
])
def test_malformed_config_is_a_usage_error(ini, names, tmp_path, capsys,
                                           no_engine):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(ini)
    assert main(["spectrum", "--preset", "fig3a", "--config", str(cfg)]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and names in captured.err
    assert "internal error" not in captured.err


@pytest.mark.parametrize("argv, ini", [
    pytest.param(SWEEP3 + ["--mod-amp", "2"], None, id="flag"),
    pytest.param(SWEEP3, "[params]\nmod_amp = 2\n", id="config-key"),
])
def test_abbreviated_names_refused(argv, ini, tmp_path, capsys, no_engine):
    """No prefix of --mod-amp-energy stands for it, on the command line or
    as a config key."""
    if ini is not None:
        (tmp_path / "run.ini").write_text(ini)
        argv = argv + ["--config", str(tmp_path / "run.ini")]
    assert main(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --mod-amp" in captured.err


def test_percent_in_out_path_dumps_and_replays(tmp_path, capsys, monkeypatch):
    """'%' is literal in a dumped config, so the replay writes the same file."""
    monkeypatch.chdir(tmp_path)
    argv = SWEEP3 + ["--mod-amp-energy", "5", "--mod-freq", "2",
                     "--precision", "16"]
    assert main(argv + ["--out", "s%1.csv", "--dump-config"]) == 0
    text = capsys.readouterr().out
    assert "out = s%1.csv" in text
    Path("run.ini").write_text(text)
    assert main(["spectrum", "--config", "run.ini"]) == 0
    assert main(argv + ["--out", "s2.csv"]) == 0
    assert Path("s%1.csv").read_bytes() == Path("s2.csv").read_bytes()


@pytest.mark.parametrize("argv", [
    ["spectrum", "--axis", "mod_freq", "--range", "0.5:2:3",
     "--mod-amp-energy", "2", "--detuning", "-0.0", "--method", "both",
     "--precision", "16"],
    ["sidebands", "--preset", "fig4a", "--orders", "0,3", "--format", "json"],
    ["oracle", "--cases", "5:2", "--delta-range", "-1:1:3"],
    ["trap", "--release", "--cells", "1500", "--bandwidth", "0.1",
     "--series-out", "series.csv"],
], ids=lambda argv: argv[0])
def test_dump_replays_the_run(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = argv + ["--out", "data.out"]
    assert main(argv + ["--dump-config"]) == 0
    text = capsys.readouterr().out
    Path("run.ini").write_text(text)
    assert main([argv[0], "--config", "run.ini", "--dump-config"]) == 0
    assert capsys.readouterr().out == text
    assert main(argv) == 0
    written = [path for path in sorted(tmp_path.iterdir())
               if path.name != "run.ini"]
    first = [path.read_bytes() for path in written]
    for path in written:
        path.unlink()
    assert main([argv[0], "--config", "run.ini"]) == 0
    assert [path.read_bytes() for path in written] == first
    assert len(written) == (2 if "--series-out" in argv else 1)


def _dump(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv + ["--dump-config"]) == 0
    return buf.getvalue()


def _maybe(strategy):
    return st.none() | strategy


@st.composite
def sweep_argvs(draw):
    """A 3-point spectrum or sidebands run over any axis, with any mix of
    fixed values, method, orders, raw units, precision and format; now and
    then the swept axis is given a fixed value too, or an order repeats,
    which must be refused."""
    command = draw(st.sampled_from(["spectrum", "sidebands"]))
    axis = draw(st.sampled_from(["detuning", "mod_amp_energy", "mod_freq"]))
    low = -5.0 if axis == "detuning" else 0.5
    start, stop = (draw(st.floats(low, 5.0)) for _ in range(2))
    drawn = {
        "detuning": draw(_maybe(st.floats(-5.0, 5.0))),
        "mod-amp-energy": draw(_maybe(st.floats(0.0, 5.0))),
        "mod-freq": draw(_maybe(st.floats(0.5, 5.0))),
        "method": draw(_maybe(st.sampled_from(
            ["series", "harmonic_balance", "both"]))),
        "precision": draw(_maybe(st.integers(0, 16))),
        "format": draw(_maybe(st.sampled_from(["csv", "json"]))),
    }
    if command == "sidebands":
        drawn["orders"] = draw(_maybe(st.lists(
            st.integers(-3, 3), min_size=1, max_size=3).map(
                lambda ns: ",".join(map(str, ns)))))
    if draw(st.integers(0, 3)) != 3:  # rarely, the swept axis is fixed too
        drawn[axis.replace("_", "-")] = None
    if draw(st.booleans()):
        drawn["coupling"] = draw(st.floats(0.5, 2.0))
        drawn["group-velocity"] = draw(st.floats(0.5, 2.0))
        drawn["omega-a"] = draw(_maybe(st.floats(50.0, 2000.0)))
    argv = [command, "--axis", axis, f"--range={start!r}:{stop!r}:3"]
    argv += [f"--{flag}={value!r}" if isinstance(value, float)
             else f"--{flag}={value}"
             for flag, value in drawn.items() if value is not None]
    return argv + (["--raw-units"] if "coupling" in drawn else [])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(argv=sweep_argvs())
def test_dump_is_a_fixed_point_and_replays_the_run(argv):
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out, cfg = Path(tmp, "data.out"), Path(tmp, "run.ini")
        argv = argv + ["--out", str(out)]
        swept = argv[argv.index("--axis") + 1].replace("_", "-")
        orders = [arg.split("=")[1].split(",") for arg in argv
                  if arg.startswith("--orders=")]
        if (any(arg.startswith(f"--{swept}=") for arg in argv)
                or any(len(set(ns)) < len(ns) for ns in orders)):
            with contextlib.redirect_stderr(io.StringIO()):
                assert main(argv + ["--dump-config"]) == 64
                assert main(argv) == 64
            assert not out.exists()
            return
        text = _dump(argv)
        cfg.write_text(text)
        assert _dump([argv[0], "--config", str(cfg)]) == text
        code = main(argv)
        assert code in (0, 2)
        first = out.read_bytes()
        out.unlink()
        assert main([argv[0], "--config", str(cfg)]) == code
        assert out.read_bytes() == first


MOD_FREQ_AXIS = ["spectrum", "--axis", "mod_freq", "--range", "0.5:2:3",
                 "--mod-amp-energy", "2"]


@pytest.mark.parametrize("argv, flag, value", [
    (MOD_FREQ_AXIS, "--detuning", "-1e-3"),
    (MOD_FREQ_AXIS, "--detuning", "-.5"),
    (MOD_FREQ_AXIS, "--detuning", "-inf"),
    (["spectrum", "--axis", "mod_freq", "--mod-amp-energy", "2"],
     "--range", "-1E+0:2:3"),
    (["spectrum", "--axis", "detuning", "--range", "-1:1:3",
      "--mod-amp-energy", "2"], "--mod-freq", "-2e0"),
    (["sidebands", "--axis", "detuning", "--range", "-1:1:3",
      "--mod-amp-energy", "2", "--mod-freq", "2"], "--orders", "-1,0,1"),
    (["spectrum", "--axis", "detuning", "--range", "-1:1:3", "--raw-units",
      "--group-velocity", "1"], "--coupling", "-1e-3"),
    (["oracle", "--cases", "5:2", "--delta-range", "-1:1:3"],
     "--tol-hb", "-1e-8"),
    (["oracle", "--delta-range", "-1:1:3"], "--cases", "-5e0:2"),
    (["trap"], "--bandwidth", "-1e-1"),
    (["trap"], "--amp-energy", "-inf"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_dash_led_values_read_as_with_equals(argv, flag, value, capsys):
    """'--flag -value' means '--flag=-value' for every flag taking a value."""
    expected = main(argv + [f"{flag}={value}"]), capsys.readouterr()
    assert (main(argv + [flag, value]), capsys.readouterr()) == expected
    assert "expected one argument" not in expected[1].err


@pytest.mark.parametrize("argv", [
    ["--stamp", "-1"], ["--raw-units", "-1e-3"], ["--release", "-h"],
    ["--detuning", "-h"], ["--out", "--stamp"], ["-h", "-1"],
])
def test_flags_without_a_value_glue_nothing(argv):
    """The parser's valueless flags, of every subcommand, take no value."""
    assert cli._join_dash_values(cli.build_parser(), argv) == argv


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
        # few detunings, but far detuning shortens the step
        (["--cases", "5:2", "--delta-range=-300:300:101"], "2097152"),
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

    @pytest.mark.parametrize("argv", [
        ["--cases", "1e307:2", "--delta-range=-1:1:3"],
        ["--cases", "2:1e307"],
        ["--cases", "0:1e307"],
        ["--cases", "2:2", "--delta-range=1e307:1:3"],
    ])
    def test_step_rounding_to_zero_exits_64(self, argv, capsys, monkeypatch):
        def never_run(*args, **kwargs):
            raise AssertionError("refused input reached the scan")

        monkeypatch.setattr(np, "cumprod", never_run)
        assert main(["oracle", *argv]) == 64
        err = capsys.readouterr().err
        assert "error[out-of-range]" in err
        assert "inf steps per period" in err

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
