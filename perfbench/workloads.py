"""The benchmark's workloads: CLI argument lists plus what each output must echo.

Standard library only, so a setup probe can build the inputs without paying
for numpy before it imports the package under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("spectrum-presets", "spectrum-detuning", "oracle-grid", "trap-release")

# The paper's figure sweeps, as the program's presets define them:
# name -> (command, axis, start, stop, points, fixed values).
N_PRESET = 401
PRESETS = {
    "fig2_static": ("spectrum", "detuning", -10.0, 10.0, N_PRESET,
                    {"detuning": 0.0, "mod_amp_energy": 5.0, "mod_freq": 0.0}),
    "fig2_trivial_amp": ("spectrum", "detuning", -10.0, 10.0, N_PRESET,
                         {"detuning": 0.0, "mod_amp_energy": 0.0, "mod_freq": 0.0}),
    "fig3a": ("spectrum", "mod_amp_energy", 10.0 / N_PRESET, 10.0, N_PRESET,
              {"detuning": 0.0, "mod_amp_energy": 0.0, "mod_freq": 2.0}),
    "fig3b": ("spectrum", "mod_freq", 12.0 / N_PRESET, 12.0, N_PRESET,
              {"detuning": 0.0, "mod_amp_energy": 5.0, "mod_freq": 0.0}),
    "fig4a": ("sidebands", "mod_freq", 12.0 / N_PRESET, 12.0, N_PRESET,
              {"detuning": 0.0, "mod_amp_energy": 5.0, "mod_freq": 0.0}),
    "fig4b": ("sidebands", "mod_amp_energy", 10.0 / N_PRESET, 10.0, N_PRESET,
              {"detuning": 0.0, "mod_amp_energy": 0.0, "mod_freq": 2.0}),
}

# spectrum-detuning holds the modulation index u = f*Omega/omega on fixed
# values, one on each Bessel branch (power series for u <= 6, Miller above),
# so the work of a pass does not depend on the seed; the seed draws omega.
U_SERIES, OMEGA_SERIES = 2.5, (1.5, 4.0)
U_MILLER, OMEGA_MILLER = 12.0, (0.6, 1.6)

ORACLE_CASES = ((5.0, 2.0), (5.0, 8.0), (2.0, 2.0), (8.0, 2.0))
ORACLE_RANGE = "-10:10:21"

TRAP_BANDWIDTH, TRAP_CELLS = 0.05, 8000
QUICK_TRAP_BANDWIDTH, QUICK_TRAP_CELLS = 0.1, 1500


@dataclass(frozen=True)
class Command:
    """One CLI invocation; `out` is the file name handed to --out."""

    kind: str                  # "sweep", "oracle" or "trap"
    argv: tuple[str, ...]
    out: str
    expect: dict               # request parameters the output must echo


def _sweep(command: str, axis: str, start: float, stop: float, points: int,
           fixed: dict, out: str, method: str = "series",
           preset: str | None = None) -> Command:
    if preset is not None:
        argv = [command, "--preset", preset]
    else:
        argv = [command, "--axis", axis, f"--range={start!r}:{stop!r}:{points}"]
        for name, flag in (("detuning", "--detuning"),
                           ("mod_amp_energy", "--mod-amp-energy"),
                           ("mod_freq", "--mod-freq")):
            if name != axis:
                argv += [flag, repr(float(fixed[name]))]
    if method != "series":
        argv += ["--method", method]
    expect = {"axis": axis, "start": start, "stop": stop,
              "points": points, "method": method, **fixed}
    return Command("sweep", tuple(argv), out, expect)


def _presets(quick: bool) -> list[Command]:
    cmds = []
    for name, (command, axis, start, stop, points, fixed) in PRESETS.items():
        if quick:  # the same sweep on 21 points, as an explicit axis
            points = 21
            if start > 0:
                start = stop / points
            cmds.append(_sweep(command, axis, start, stop, points, fixed,
                               f"{name}.csv"))
        else:
            cmds.append(_sweep(command, axis, start, stop, points, fixed,
                               f"{name}.csv", preset=name))
    return cmds


def detuning_pairs(seed: int) -> tuple[tuple[float, float], tuple[float, float]]:
    """(f*Omega, omega) for the series-branch and the Miller-branch sweeps."""
    rng = random.Random(seed)
    w_s = rng.uniform(*OMEGA_SERIES)
    w_m = rng.uniform(*OMEGA_MILLER)
    return (U_SERIES * w_s, w_s), (U_MILLER * w_m, w_m)


def _detuning(seed: int, quick: bool) -> list[Command]:
    (amp_s, w_s), (amp_m, w_m) = detuning_pairs(seed)
    points = 21 if quick else 401
    series = {"detuning": 0.0, "mod_amp_energy": amp_s, "mod_freq": w_s}
    miller = {"detuning": 0.0, "mod_amp_energy": amp_m, "mod_freq": w_m}
    return [
        _sweep("spectrum", "detuning", -10.0, 10.0, points, series,
               "spectrum-series.csv"),
        _sweep("sidebands", "detuning", -10.0, 10.0, points, miller,
               "sidebands-miller.csv"),
        _sweep("spectrum", "detuning", -10.0, 10.0, points, miller,
               "spectrum-miller-both.csv", method="both"),
    ]


def _oracle(quick: bool) -> list[Command]:
    if quick:
        cases, rng = ((5.0, 8.0),), "-2:2:3"
        argv = ("oracle", "--cases", "5:8", f"--delta-range={rng}")
    else:
        cases, rng = ORACLE_CASES, ORACLE_RANGE
        argv = ("oracle",)  # the default grid
    return [Command("oracle", argv, "oracle.csv",
                    {"cases": cases, "delta_range": rng})]


def _trap(quick: bool) -> list[Command]:
    bandwidth, cells = ((QUICK_TRAP_BANDWIDTH, QUICK_TRAP_CELLS) if quick
                        else (TRAP_BANDWIDTH, TRAP_CELLS))
    argv = ["trap", "--release", "--cells", str(cells)]
    if bandwidth != TRAP_BANDWIDTH:
        argv += ["--bandwidth", repr(bandwidth)]
    return [Command("trap", tuple(argv), "trap.csv",
                    {"bandwidth": bandwidth, "cells": cells})]


def build(workload: str, seed: int, quick: bool = False) -> list[Command]:
    """The commands of one pass over `workload`."""
    if workload == "spectrum-presets":
        return _presets(quick)
    if workload == "spectrum-detuning":
        return _detuning(seed, quick)
    if workload == "oracle-grid":
        return _oracle(quick)
    if workload == "trap-release":
        return _trap(quick)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
