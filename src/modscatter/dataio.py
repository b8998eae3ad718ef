"""Deterministic dataset serialization and config handling.

CSV layout: a `# key=value` metadata block, one header row, then data rows.
Floats are written in fixed scientific notation at a configurable precision
so identical runs produce identical bytes; complex-valued columns are split
into re_/im_ pairs by the callers. JSON mirrors the same content as a
`meta` object plus a `rows` array.
"""

from __future__ import annotations

import configparser
import io
import json
import math
from typing import Iterable, Mapping

from .errors import OutOfRangeError

# points in one range: 250x the 401-point figure presets
MAX_POINTS = 100_000


def format_float(x: float, precision: int = 12) -> str:
    return f"{x:.{precision}e}"


def _format_value(v, precision: int) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return format_float(v, precision)
    return str(v)


def render_csv(
    meta: Mapping[str, object],
    header: list[str],
    rows: Iterable[tuple],
    precision: int = 12,
) -> str:
    buf = io.StringIO()
    for key, value in meta.items():
        buf.write(f"# {key}={value}\n")
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(_format_value(v, precision) for v in row) + "\n")
    return buf.getvalue()


def render_json(
    meta: Mapping[str, object],
    header: list[str],
    rows: Iterable[tuple],
    precision: int = 12,
) -> str:
    def jsonable(v):
        if isinstance(v, bool):
            return v
        if isinstance(v, float):
            # round through the fixed formatter so CSV and JSON agree
            return float(format_float(v, precision))
        return v

    payload = {
        "meta": {k: jsonable(v) for k, v in meta.items()},
        "rows": [
            {name: jsonable(v) for name, v in zip(header, row)} for row in rows
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def parse_range(text: str) -> tuple[float, float, int]:
    """Parse 'start:stop:points' into its typed parts."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"range {text!r} is not start:stop:points")
    start, stop = float(parts[0]), float(parts[1])
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"range {text!r} needs a finite start and stop")
    points = int(parts[2])
    if points < 2:
        raise ValueError("range needs at least 2 points")
    if points > MAX_POINTS:
        raise OutOfRangeError(
            f"range of {points} points exceeds the limit of {MAX_POINTS}"
        )
    return start, stop, points


def load_config(path: str) -> dict[str, dict[str, str]]:
    """Read an INI config into nested plain dicts."""
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise FileNotFoundError(f"config file {path!r} not found")
    return {section: dict(cp.items(section)) for section in cp.sections()}


def dump_config(sections: Mapping[str, Mapping[str, object]]) -> str:
    """Render nested dicts back to INI text (round-trips load_config)."""
    cp = configparser.ConfigParser()
    for section, values in sections.items():
        cp[section] = {k: str(v) for k, v in values.items()}
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()
