import json
import math

import numpy as np
import pytest

from conftest import csv_reference
from modscatter import OutOfRangeError
from modscatter.cli import MAX_PRECISION
from modscatter.dataio import (
    MAX_POINTS,
    dump_config,
    format_float,
    load_config,
    parse_range,
    render_csv,
    render_json,
)


class TestFormatting:
    def test_fixed_exponent_format(self):
        assert format_float(1.0) == "1.000000000000e+00"
        assert format_float(-0.5, precision=3) == "-5.000e-01"

    def test_csv_layout(self):
        text = render_csv(
            {"axis": "detuning", "points": 2},
            ["x", "T"],
            [(0.0, 1.0), (0.5, 0.25)],
            precision=3,
        )
        lines = text.splitlines()
        assert lines[0] == "# axis=detuning"
        assert lines[1] == "# points=2"
        assert lines[2] == "x,T"
        assert lines[3] == "0.000e+00,1.000e+00"
        assert lines[4] == "5.000e-01,2.500e-01"

    def test_csv_booleans_render_as_bits(self):
        text = render_csv({}, ["flag"], [(True,), (False,)])
        assert text.splitlines()[1:] == ["1", "0"]

    def test_json_is_valid_and_sorted(self):
        text = render_json({"b": 1, "a": 2.0}, ["x"], [(0.1,)])
        payload = json.loads(text)
        assert payload["meta"]["a"] == 2.0
        assert payload["rows"] == [{"x": 0.1}]
        assert text.index('"a"') < text.index('"b"')

    def test_json_writes_non_finite_floats_as_null(self):
        row = (float("nan"), float("inf"), -float("inf"), 1.5)
        text = render_json({}, ["a", "b", "c", "d"], [row])
        assert "NaN" not in text and "Infinity" not in text
        assert json.loads(text)["rows"] == [
            {"a": None, "b": None, "c": None, "d": 1.5}]
        assert render_csv({}, ["a"], [(float("nan"),)]).splitlines() == [
            "a", "nan"]

    def test_csv_and_json_round_identically(self):
        value = 0.1234567890123456789
        csv_text = render_csv({}, ["v"], [(value,)], precision=6)
        json_text = render_json({}, ["v"], [(value,)], precision=6)
        csv_value = float(csv_text.splitlines()[1])
        json_value = json.loads(json_text)["rows"][0]["v"]
        assert csv_value == json_value

    def test_deterministic_output(self):
        args = ({"k": 1}, ["a", "b"], [(1.0, 2.0)])
        assert render_csv(*args) == render_csv(*args)
        assert render_json(*args) == render_json(*args)


FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
          -2.2250738585072014e-308, 1e300, -1e300, 1e-300, -1e-300,
          math.inf, -math.inf, math.nan, 0.1, 1 / 3)
OTHERS = (True, False, 0, -7, 10**30, np.float64(-2.5), np.float64(math.nan),
          np.float64(-0.0), np.bool_(True), np.bool_(False), np.int64(-3),
          "x", None)


class TestCsvMatchesTheCellFormatter:
    """render_csv writes the bytes of the one-cell-at-a-time formatter
    (conftest.csv_reference), whatever the precision, value types and row
    container."""

    META = {"axis": "detuning", "points": 2}

    def same(self, rows, precision=12, header=None):
        """Rows given as tuples, as lists and as a generator."""
        header = header or [f"c{i}" for i in range(len(rows[0]))]
        expected = csv_reference(self.META, header, rows, precision)
        for shaped in ([tuple(r) for r in rows], [list(r) for r in rows],
                       (tuple(r) for r in rows)):
            assert render_csv(self.META, header, shaped, precision) == expected

    @pytest.mark.parametrize("precision", range(MAX_PRECISION + 1))
    def test_every_precision(self, precision):
        self.same([FLOATS, OTHERS, FLOATS[::-1], OTHERS[::-1]], precision)

    @pytest.mark.parametrize("value", FLOATS + OTHERS, ids=repr)
    def test_each_value_alone(self, value):
        self.same([(value,), (value, value)], precision=16, header=["v"])

    @pytest.mark.parametrize("first, then", [
        (None, 1.5), (3, 2.5), (True, np.bool_(True)), (1.5, None),
        (2.5, 3), (np.bool_(False), False), (1.0, True), (True, 1.0),
    ], ids=repr)
    def test_column_types_change_from_row_to_row(self, first, then):
        self.same([(first, 0.25), (then, 0.25), (first, then)], precision=6)


class TestParseRange:
    def test_parses_triplet(self):
        assert parse_range("-1.5:2.5:11") == (-1.5, 2.5, 11)

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_range("1:2")
        with pytest.raises(ValueError):
            parse_range("1:2:3:4")
        with pytest.raises(ValueError):
            parse_range("a:2:3")

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            parse_range("0:1:1")

    def test_point_cap(self):
        assert parse_range(f"0:1:{MAX_POINTS}")[2] == 100_000
        with pytest.raises(OutOfRangeError, match="100000"):
            parse_range(f"0:1:{MAX_POINTS + 1}")


class TestConfigRoundTrip:
    def test_round_trip(self, tmp_path):
        sections = {
            "sweep": {"axis": "mod_freq", "points": 101},
            "output": {"format": "csv", "precision": 12},
        }
        path = tmp_path / "run.ini"
        path.write_text(dump_config(sections))
        loaded = load_config(str(path))
        assert loaded["sweep"]["axis"] == "mod_freq"
        assert loaded["sweep"]["points"] == "101"
        assert loaded["output"]["format"] == "csv"
        assert dump_config(loaded) == dump_config(sections)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(str(tmp_path / "absent.ini"))
