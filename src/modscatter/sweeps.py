"""Parameter sweeps and the bundled figure presets.

A sweep varies exactly one of {detuning, mod_amp_energy, mod_freq} in
gamma-normalized units, evaluates T, R, the unitarity defect and the
requested sideband orders per point with per-point adaptive truncation, and
returns a deterministic dataset in axis order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import MAX_POINTS
from .errors import OutOfRangeError, SingularSystemError
from .params import OMEGA_RATIO, EmitterParams, normalized_params
from .oracles import _harmonic_balance_block
from .scattering import (
    TRUNCATION_TOL,
    _series_block,
    _truncation_orders,
    _warn_nonpositive,
    evaluate_sidebands,
)
# Not called here; kept in this namespace because perfbench/tracing.py wraps
# these names.
from .oracles import amplitudes_from_excitation, harmonic_balance_solve  # noqa: F401

AXES = ("detuning", "mod_amp_energy", "mod_freq")
METHODS = ("series", "harmonic_balance", "both")
UNITARITY_FLAG_TOL = 1e-9
# rows of a detuning axis evaluated together; bounds the (rows, 2N+1)
# arrays of a block
BLOCK_ROWS = 64


@dataclass(frozen=True)
class SweepSpec:
    """One-axis sweep description, all values in units of gamma."""

    axis: str
    start: float
    stop: float
    points: int
    detuning: float = 0.0
    mod_amp_energy: float = 0.0
    mod_freq: float = 0.0
    sideband_orders: tuple[int, ...] = ()
    method: str = "series"
    name: str = ""
    omega_ratio: float = OMEGA_RATIO

    def __post_init__(self):
        if self.axis not in AXES:
            raise ValueError(f"axis must be one of {AXES}")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if self.points < 2:
            raise ValueError("points must be >= 2")
        if self.points > MAX_POINTS:
            raise OutOfRangeError(
                f"sweep of {self.points} points exceeds the limit of {MAX_POINTS}"
            )
        for name in ("start", "stop", "detuning", "mod_amp_energy", "mod_freq",
                     "omega_ratio"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")

    def axis_values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)

    def params_at(self, value: float) -> tuple[EmitterParams, float]:
        """(EmitterParams, detuning) for one axis value."""
        amp = self.mod_amp_energy
        freq = self.mod_freq
        delta = self.detuning
        if self.axis == "detuning":
            delta = value
        elif self.axis == "mod_amp_energy":
            amp = value
        else:
            freq = value
        return normalized_params(amp, freq, self.omega_ratio), delta


@dataclass(frozen=True)
class SpectrumDataset:
    """Sweep output: axis values plus one column per observable."""

    spec: SweepSpec
    axis_values: np.ndarray
    columns: dict[str, np.ndarray]
    truncation_orders: np.ndarray   # sideband_max actually used per row
    flags: np.ndarray               # True where a row failed convergence


def _store(out: dict, rows, sset, orders) -> None:
    """Write the totals and each T_n = |t_n|^2 of a SidebandSet or a
    SidebandBlock into `rows` of the columns; T_n is zero outside the
    window."""
    out["T"][rows] = sset.total_T
    out["R"][rows] = sset.total_R
    out["unitarity_defect"][rows] = sset.unitarity_defect
    t = sset.t.reshape(-1, len(sset.ns))
    for n in orders:
        i = int(n) - int(sset.ns[0])
        out[f"T_{n}"][rows] = (
            [float(abs(z) ** 2) for z in t[:, i]] if 0 <= i < len(sset.ns)
            else 0.0
        )


def _eval_block(
    spec: SweepSpec, values: np.ndarray, tables: dict
) -> tuple[dict[str, np.ndarray], np.ndarray, np.ndarray]:
    """Columns, truncation orders and flags of consecutive rows that share
    one EmitterParams.

    The rows go through the series at the first window N together; only
    the rows whose unitarity defect fails go on at 2N, and rows still
    failing at the cap carry NaNs and are flagged. Harmonic balance runs on
    the converged rows of each window. The warnings come out in row order,
    as a row-by-row evaluation gives them, and a harmonic-balance failure
    raises for the first failing row.
    """
    pairs = [spec.params_at(v) for v in values]
    params = pairs[0][0]
    static = params.mod_freq == 0
    names = ["T", "R", "unitarity_defect"]
    names += [f"T_{n}" for n in spec.sideband_orders]
    if spec.method == "both" and not static:
        names.append("discrepancy")
    out = dict(zip(names, np.full((len(names), len(pairs)), np.nan)))
    orders = np.full(len(pairs), -1)
    flags = np.ones(len(pairs), bool)
    if static:
        # row by row, on the detuning as given: Python's complex division
        # and numpy's differ in the last bits
        for k, (_, delta) in enumerate(pairs):
            sset = evaluate_sidebands(params, delta)
            _store(out, [k], sset, spec.sideband_orders)
            orders[k] = sset.ns[-1]
            flags[k] = sset.unitarity_defect > UNITARITY_FLAG_TOL
        return out, orders, flags

    deltas = np.array([delta for _, delta in pairs])
    nonpositive = [[] for _ in pairs]   # per row, a count per evaluation
    windows = []                        # (rows, the block they converged in)
    pending = np.arange(len(pairs))
    for n in _truncation_orders(params):
        blk = _series_block(params, deltas[pending], n, tables=tables)
        for k, count in zip(pending.tolist(), blk.nonpositive.tolist()):
            nonpositive[k].append(count)
        ok = blk.unitarity_defect < TRUNCATION_TOL
        if ok.all():
            windows.append((pending, blk))
            break
        if ok.any():
            windows.append((pending[ok], blk.take(ok)))
        pending = pending[~ok]

    failure = None  # (row, error) of the first failing harmonic balance
    for rows, used in windows:
        n = int(used.ns[-1])
        orders[rows] = n
        if spec.method != "series":
            try:
                hb = _harmonic_balance_block(params, deltas[rows], n)
            except SingularSystemError as err:
                if failure is None or rows[err.row] < failure[0]:
                    failure = (rows[err.row], err)
                continue
            if spec.method == "both":
                out["discrepancy"][rows] = np.abs(used.total_T - hb.total_T)
            else:
                used = hb
        _store(out, rows, used, spec.sideband_orders)
        flags[rows] = used.unitarity_defect > UNITARITY_FLAG_TOL

    stop = len(pairs) if failure is None else failure[0]
    for k in range(min(stop + 1, len(pairs))):
        counts = nonpositive[k]
        if spec.method != "series" and orders[k] >= 0 and k < stop:
            counts = counts + counts[-1:]  # the HB set, on the same window
        for count in counts:
            if count:
                _warn_nonpositive(count)
    if failure is not None:
        raise failure[1]
    return out, orders, flags


def run_sweep(spec: SweepSpec) -> SpectrumDataset:
    """Evaluate the sweep in blocks of rows, rows in axis order.

    Along a detuning axis every row has the same EmitterParams, so blocks
    of up to BLOCK_ROWS rows share the series, its retries and harmonic
    balance (_eval_block); along the other axes each row is a block. The
    blocks share one dict of series tables for the length of the call, so
    along a detuning axis the Bessel tables are built once, not per row.
    """
    values = spec.axis_values()
    size = BLOCK_ROWS if spec.axis == "detuning" else 1
    tables: dict = {}
    blocks = [_eval_block(spec, values[i:i + size], tables)
              for i in range(0, len(values), size)]
    return SpectrumDataset(
        spec=spec,
        axis_values=values,
        columns={name: np.concatenate([cols[name] for cols, _, _ in blocks])
                 for name in blocks[0][0]},
        truncation_orders=np.concatenate([order for _, order, _ in blocks]),
        flags=np.concatenate([flag for _, _, flag in blocks]),
    )


def figure_presets() -> dict[str, SweepSpec]:
    """The bundled reference sweeps.

    Half-open axis ranges (0, stop] are realized as stop/points .. stop so the
    singular origin is excluded with uniform spacing.
    """
    n = 401
    presets = {
        "fig2_static": SweepSpec(
            axis="detuning", start=-10.0, stop=10.0, points=n,
            mod_amp_energy=5.0, mod_freq=0.0,
            name="fig2_static",
        ),
        "fig2_trivial_amp": SweepSpec(
            axis="detuning", start=-10.0, stop=10.0, points=n,
            mod_amp_energy=0.0, mod_freq=0.0,
            name="fig2_trivial_amp",
        ),
        "fig3a": SweepSpec(
            axis="mod_amp_energy", start=10.0 / n, stop=10.0, points=n,
            detuning=0.0, mod_freq=2.0,
            name="fig3a",
        ),
        "fig3b": SweepSpec(
            axis="mod_freq", start=12.0 / n, stop=12.0, points=n,
            detuning=0.0, mod_amp_energy=5.0,
            name="fig3b",
        ),
        "fig4a": SweepSpec(
            axis="mod_freq", start=12.0 / n, stop=12.0, points=n,
            detuning=0.0, mod_amp_energy=5.0,
            sideband_orders=(0, 1, 2),
            name="fig4a",
        ),
        "fig4b": SweepSpec(
            axis="mod_amp_energy", start=10.0 / n, stop=10.0, points=n,
            detuning=0.0, mod_freq=2.0,
            sideband_orders=(0, 1, 2),
            name="fig4b",
        ),
    }
    return presets
