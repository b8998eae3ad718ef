"""Deterministic dataset serialization and config handling.

CSV layout: a `# key=value` metadata block, one header row, then data rows.
Floats are written in fixed scientific notation at a configurable precision
so identical runs produce identical bytes; complex-valued columns are split
into re_/im_ pairs by the callers. JSON mirrors the same content as a
`meta` object plus a `rows` array, with null for a NaN or infinite cell.
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
# points x output columns of one sweep: a MAX_POINTS sweep with the default
# orders and --method both; at the cap CSV peaks near 120 MB, JSON 340 MB
MAX_TABLE_CELLS = 1_000_000


def format_float(x: float, precision: int = 12) -> str:
    return f"{x:.{precision}e}"


def render_csv(
    meta: Mapping[str, object],
    header: list[str],
    rows: Iterable[tuple],
    precision: int = 12,
) -> str:
    """Each data row is one %-format whose fields follow its value types:
    %d for a bool, format_float's %e for any float, %s for the rest."""
    buf = io.StringIO()
    for key, value in meta.items():
        buf.write(f"# {key}={value}\n")
    buf.write(",".join(header) + "\n")
    real = f"%.{precision}e"
    for row in map(tuple, rows):
        buf.write(",".join(["%d" if isinstance(v, bool) else
                            real if isinstance(v, float) else "%s"
                            for v in row]) % row + "\n")
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
            # round through the fixed formatter so CSV and JSON agree; JSON
            # has no NaN or infinity, so such a cell is null
            if not math.isfinite(v):
                return None
            return float(format_float(v, precision))
        return v

    payload = {
        "meta": {k: jsonable(v) for k, v in meta.items()},
        "rows": [
            {name: jsonable(v) for name, v in zip(header, row)} for row in rows
        ],
    }
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    return text + "\n"


def parse_range(text: str, name: str = "range") -> tuple[float, float, int]:
    """Parse 'start:stop:points'; each refusal starts with `name`."""
    try:
        start, stop, points = text.split(":")
        start, stop, points = float(start), float(stop), int(points)
    except ValueError:
        raise ValueError(f"{name} {text!r} is not START:STOP:POINTS") from None
    if not math.isfinite(stop - start):  # else linspace makes nan and inf
        raise ValueError(f"{name} {text!r} needs a finite stop - start")
    if points < 2:
        raise ValueError(f"{name} {text!r} needs at least 2 points")
    if points > MAX_POINTS:
        raise OutOfRangeError(
            f"{name} of {points} points exceeds the limit of {MAX_POINTS}"
        )
    return start, stop, points


def load_config(path: str) -> dict[str, dict[str, str]]:
    """Read an INI config into nested plain dicts; '%' is literal."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise ValueError(f"config file {path!r}: {exc}") from None
    if not read:
        raise FileNotFoundError(f"config file {path!r} not found")
    return {section: dict(cp.items(section)) for section in cp.sections()}


def dump_config(sections: Mapping[str, Mapping[str, object]]) -> str:
    """Render nested dicts back to INI text (round-trips load_config)."""
    cp = configparser.ConfigParser(interpolation=None)
    for section, values in sections.items():
        cp[section] = {k: str(v) for k, v in values.items()}
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()
