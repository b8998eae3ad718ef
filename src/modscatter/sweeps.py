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
from .errors import OutOfRangeError
from .params import OMEGA_RATIO, EmitterParams, normalized_params
from .oracles import _harmonic_balance_block
from .scattering import (
    TRUNCATION_TOL,
    _converge_block,
    _replay,
    evaluate_sidebands,
)
# Not called here; kept in this namespace because perfbench/tracing.py wraps
# these names.
from .oracles import amplitudes_from_excitation, harmonic_balance_solve  # noqa: F401

AXES = ("detuning", "mod_amp_energy", "mod_freq")
METHODS = ("series", "harmonic_balance", "both")
UNITARITY_FLAG_TOL = 1e-9


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
        if not (self.omega_ratio > 0):
            raise ValueError(
                f"omega_ratio must be positive, got {self.omega_ratio!r}")

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


def _store(ds: SpectrumDataset, rows, sset) -> None:
    """Write the totals, each T_n = |t_n|^2 (zero outside the window), the
    truncation and the flag of a SidebandSet or a SidebandBlock into `rows`
    of the dataset."""
    out = ds.columns
    out["T"][rows] = sset.total_T
    out["R"][rows] = sset.total_R
    out["unitarity_defect"][rows] = sset.unitarity_defect
    t = sset.t.reshape(-1, len(sset.ns))
    for n in ds.spec.sideband_orders:
        i = int(n) - int(sset.ns[0])
        out[f"T_{n}"][rows] = (
            [float(abs(z) ** 2) for z in t[:, i]] if 0 <= i < len(sset.ns)
            else 0.0
        )
    ds.truncation_orders[rows] = sset.ns[-1]
    ds.flags[rows] = sset.unitarity_defect > UNITARITY_FLAG_TOL


def _eval_block(ds: SpectrumDataset, lo: int, values: np.ndarray) -> None:
    """Evaluate the rows from `lo` on, at the axis `values`, which share one
    EmitterParams, into the dataset.

    The rows are auto-truncated together (_converge_block); rows still
    failing at the cap keep their NaNs and flags. Harmonic balance runs on
    each converged chunk. The rows' warnings and harmonic-balance errors
    are replayed in row order (_replay).
    """
    spec, method = ds.spec, ds.spec.method
    params = spec.params_at(values[0])[0]
    deltas = values if spec.axis == "detuning" else [spec.detuning]
    if params.mod_freq == 0:
        # row by row, on the detuning as given: Python's complex division
        # and numpy's differ in the last bits
        for k, delta in enumerate(deltas):
            _store(ds, [lo + k], evaluate_sidebands(params, delta))
        return
    deltas = np.array(deltas)
    counts = [[] for _ in deltas]
    capped, errors = [None] * len(deltas), [None] * len(deltas)
    for rows, used in _converge_block(
        params, deltas, TRUNCATION_TOL, counts, capped
    ):
        at = lo + rows
        if method != "series":
            hb, hb_errors = _harmonic_balance_block(
                params, deltas[rows], int(used.ns[-1])
            )
            for k, err, count in zip(rows.tolist(), hb_errors,
                                     hb.nonpositive.tolist()):
                errors[k] = err
                if err is None:
                    counts[k].append(count)
            if method == "both":
                ds.columns["discrepancy"][at] = np.abs(used.total_T - hb.total_T)
            else:
                used = hb
        _store(ds, at, used)
    _replay(counts, errors)


def run_sweep(spec: SweepSpec) -> SpectrumDataset:
    """Evaluate the sweep, rows in axis order.

    Along a detuning axis every row has the same EmitterParams, so the
    whole axis is one block that shares the series tables, its retries and
    harmonic balance (_eval_block); along the other axes each row is a
    block. Method "both" adds a discrepancy column if any row has
    omega > 0; it is NaN on the static rows.
    """
    values = spec.axis_values()
    names = ["T", "R", "unitarity_defect"]
    names += [f"T_{n}" for n in spec.sideband_orders]
    freqs = values if spec.axis == "mod_freq" else [spec.mod_freq]
    if spec.method == "both" and any(f != 0 for f in freqs):
        names.append("discrepancy")
    ds = SpectrumDataset(
        spec=spec,
        axis_values=values,
        columns=dict(zip(names, np.full((len(names), len(values)), np.nan))),
        truncation_orders=np.full(len(values), -1),
        flags=np.ones(len(values), bool),
    )
    size = len(values) if spec.axis == "detuning" else 1
    for lo in range(0, len(values), size):
        _eval_block(ds, lo, values[lo:lo + size])
    return ds


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
