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
from .errors import OutOfRangeError, TruncationError
from .params import OMEGA_RATIO, EmitterParams, normalized_params
from .oracles import amplitudes_from_excitation, harmonic_balance_solve
from .scattering import SidebandSet, evaluate_sidebands

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


def _transmitted(sset: SidebandSet, orders) -> dict[str, float]:
    """T_n = |t_n|^2 per requested order, zero outside the truncation window."""
    out: dict[str, float] = {}
    for n in orders:
        i = int(n) - int(sset.ns[0])
        out[f"T_{n}"] = float(abs(sset.t[i]) ** 2) if 0 <= i < len(sset.ns) else 0.0
    return out


def _observables_for_row(
    sset: SidebandSet, spec: SweepSpec, hb_total: float | None
) -> dict[str, float]:
    row = {
        "T": sset.total_T,
        "R": sset.total_R,
        "unitarity_defect": sset.unitarity_defect,
    }
    row.update(_transmitted(sset, spec.sideband_orders))
    if hb_total is not None:
        row["discrepancy"] = abs(sset.total_T - hb_total)
    return row


def _eval_point(
    spec: SweepSpec, value: float, tables: dict
) -> tuple[dict[str, float], int, bool]:
    params, delta = spec.params_at(value)
    flagged = False
    try:
        sset = evaluate_sidebands(params, delta, tables=tables)
    except TruncationError:
        # keep sweeping; the row is flagged and carries NaNs
        nan_row = dict.fromkeys(("T", "R", "unitarity_defect"), float("nan"))
        for n in spec.sideband_orders:
            nan_row[f"T_{n}"] = float("nan")
        if spec.method == "both":
            nan_row["discrepancy"] = float("nan")
        return nan_row, -1, True
    hb_total = None
    if spec.method in ("harmonic_balance", "both") and params.mod_freq > 0:
        order = int(sset.ns[-1])
        hb_set = amplitudes_from_excitation(
            harmonic_balance_solve(params, delta, order), params, delta
        )
        if spec.method == "harmonic_balance":
            sset = hb_set
        else:
            hb_total = hb_set.total_T
    if sset.unitarity_defect > UNITARITY_FLAG_TOL:
        flagged = True
    return (
        _observables_for_row(sset, spec, hb_total),
        int(sset.ns[-1]),
        flagged,
    )


def run_sweep(spec: SweepSpec) -> SpectrumDataset:
    """Evaluate the sweep point by point, rows in axis order.

    The rows share one dict of series tables for the length of the call, so
    along a detuning axis the Bessel tables are built once, not per row.
    """
    values = spec.axis_values()
    tables: dict = {}
    results = [_eval_point(spec, v, tables) for v in values]
    names = list(results[0][0].keys())
    columns = {
        name: np.array([row[name] for row, _, _ in results]) for name in names
    }
    return SpectrumDataset(
        spec=spec,
        axis_values=values,
        columns=columns,
        truncation_orders=np.array([order for _, order, _ in results]),
        flags=np.array([flag for _, _, flag in results]),
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
