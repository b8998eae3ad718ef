"""Output checks made apart from the program, with numpy only.

Sweeps are checked against closed forms (static lines) and against a dense
harmonic-balance solve written here,

    (Delta + n*omega + i) e_n - (f*Omega/2) (e_{n-1} + e_{n+1}) = delta_{n0},
    r_n = -i e_n,  t_n = r_n + delta_{n0}   (gamma = V = v_g = 1),

on a seeded sample of rows. The oracle and the trap are checked against the
properties their methods must have.
"""

from __future__ import annotations

import math

import numpy as np

from workloads import Command

CLOSED_FORM_TOL = 1e-12
REFERENCE_TOL = 1e-8
UNITARITY_TOL = 1e-9
SAMPLED_ROWS = 6
# trap --release eta at 20000 cells, frozen in tests/test_acceptance.py
# (FROZEN_ETA_G20 for bandwidth 0.05, FROZEN_ETA_G10 for 0.1)
FROZEN_ETA = {0.05: 0.734850, 0.1: 0.687938}
ETA_GRID_TOL = 2e-3


def read_csv(path) -> tuple[dict[str, str], list[str], np.ndarray]:
    """(metadata, header, rows as a float array) of one CLI output file."""
    meta, lines = {}, []
    with open(path) as fh:
        for line in fh:
            if line.startswith("# "):
                key, _, value = line[2:].rstrip("\n").partition("=")
                meta[key] = value
            else:
                lines.append(line.rstrip("\n").split(","))
    header, body = lines[0], lines[1:]
    return meta, header, np.array(body, dtype=float).reshape(len(body), len(header))


def reference_sidebands(amp: float, freq: float, delta: float,
                        orders: list[int]) -> tuple[float, float, list[float]]:
    """(T, R, [T_n]) from a dense harmonic-balance solve."""
    if freq == 0.0:  # static line at the shifted frequency
        d = delta - amp
        t0 = d * d / (d * d + 1.0)
        return t0, 1.0 - t0, [t0 if n == 0 else 0.0 for n in orders]
    u = amp / freq
    m = int(math.ceil(1.5 * (u + 8.0 * u ** (1.0 / 3.0)) + 24))
    ns = np.arange(-m, m + 1)
    a = np.diag(delta + ns * freq + 1j)
    off = np.full(2 * m, -0.5 * amp)
    a += np.diag(off, 1) + np.diag(off, -1)
    rhs = np.zeros(2 * m + 1, complex)
    rhs[m] = 1.0
    r = -1j * np.linalg.solve(a, rhs)
    t = r.copy()
    t[m] += 1.0
    tn = [float(abs(t[m + n]) ** 2) if abs(n) <= m else 0.0 for n in orders]
    return float(np.sum(abs(t) ** 2)), float(np.sum(abs(r) ** 2)), tn


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


def check_sweep(cmd: Command, path, rng: np.random.Generator) -> list[str]:
    meta, header, rows = read_csv(path)
    ex = cmd.expect
    errs = []
    for key in ("start", "stop", "detuning", "mod_amp_energy", "mod_freq"):
        if not _close(float(meta[key]), ex[key]):
            errs.append(f"metadata {key}={meta[key]}, asked for {ex[key]!r}")
    if (meta["axis"], int(meta["points"]), meta["method"]) != (
            ex["axis"], ex["points"], ex["method"]):
        errs.append("metadata axis/points/method differ from the request")
    if rows.shape[0] != ex["points"]:
        errs.append(f"{rows.shape[0]} rows for {ex['points']} points")
        return errs
    col = {name: rows[:, i] for i, name in enumerate(header)}
    axis = np.linspace(ex["start"], ex["stop"], ex["points"])
    if np.max(np.abs(col[ex["axis"]] - axis)) > 1e-12 * np.max(np.abs(axis)):
        errs.append("axis column is not the requested grid")
    T, R = col["T"], col["R"]
    if np.any(col["flagged"] != 0):
        errs.append(f"{int(np.sum(col['flagged'] != 0))} flagged rows")
    defect = np.max(np.abs(1.0 - (T + R)))
    if not defect < UNITARITY_TOL:
        errs.append(f"|1-(T+R)| reaches {defect:.3e}")
    orders = [int(name[2:]) for name in header if name.startswith("T_")]
    for n in orders:
        if np.any(col[f"T_{n}"] > T):
            errs.append(f"T_{n} exceeds T on some row")
    if ex["method"] == "both":
        worst = np.max(col["discrepancy"])
        if not worst < REFERENCE_TOL:
            errs.append(f"series vs harmonic-balance discrepancy {worst:.3e}")

    def params(i):
        p = {k: ex[k] for k in ("detuning", "mod_amp_energy", "mod_freq")}
        p[ex["axis"]] = axis[i]
        return p["mod_amp_energy"], p["mod_freq"], p["detuning"]

    static = ex["axis"] != "mod_freq" and ex["mod_freq"] == 0.0
    if static:  # closed-form Lorentzian on every row
        amp = ex["mod_amp_energy"]
        d = axis - amp
        worst = np.max(np.abs(T - d * d / (d * d + 1.0)))
        worst = max(worst, float(np.max(np.abs(R - 1.0 / (d * d + 1.0)))))
        if not worst <= CLOSED_FORM_TOL:
            errs.append(f"static line off the closed form by {worst:.3e}")
        return errs
    for i in sorted(rng.choice(len(axis), size=SAMPLED_ROWS, replace=False)):
        amp, freq, delta = params(i)
        t_ref, r_ref, tn_ref = reference_sidebands(amp, freq, delta, orders)
        got = [T[i], R[i]] + [col[f"T_{n}"][i] for n in orders]
        worst = max(abs(g - w) for g, w in zip(got, [t_ref, r_ref] + tn_ref))
        if not worst < REFERENCE_TOL:
            errs.append(f"row {i}: off the dense reference by {worst:.3e}")
    return errs


def check_oracle(cmd: Command, path) -> list[str]:
    meta, header, rows = read_csv(path)
    ex = cmd.expect
    errs = []
    if meta["delta_range"] != ex["delta_range"]:
        errs.append(f"delta_range {meta['delta_range']} != {ex['delta_range']}")
    col = {name: rows[:, i] for i, name in enumerate(header)}
    cases = tuple(zip(col["mod_amp_energy"], col["mod_freq"]))
    if cases != tuple(ex["cases"]):
        errs.append(f"cases {cases} != {ex['cases']}")
    limits = (("passed", 1.0, "=="), ("max_dev_series_hb", 1e-8, "<"),
              ("max_dev_series_td", 1e-3, "<"), ("max_defect_series", 1e-9, "<"),
              ("max_defect_hb", 1e-9, "<"), ("max_defect_td", 1e-3, "<"))
    for name, limit, op in limits:
        vals = col[name]
        ok = np.all(vals == limit) if op == "==" else np.all(vals < limit)
        if not ok:
            errs.append(f"{name} {vals.tolist()} not {op} {limit:g}")
    return errs


def check_trap(cmd: Command, path) -> list[str]:
    meta, header, rows = read_csv(path)
    ex = cmd.expect
    errs = []
    if int(meta["cells"]) != ex["cells"] or meta["release"] != "True":
        errs.append("trap metadata differs from the request")
    v = dict(zip(header, rows[0]))
    conds = {
        "norm_drift < 1e-8": v["norm_drift"] < 1e-8,
        "0 < eta <= 1": 0.0 < v["eta"] <= 1.0,
        "reflected_out + transmitted_out <= 1":
            v["reflected_out"] + v["transmitted_out"] <= 1.0,
        "0 < release_fidelity <= 1": 0.0 < v["release_fidelity"] <= 1.0,
        "leak_rate > 0": v["leak_rate"] > 0.0,
        f"|eta - frozen| < {ETA_GRID_TOL:g}":
            abs(v["eta"] - FROZEN_ETA[ex["bandwidth"]]) < ETA_GRID_TOL,
    }
    errs += [f"trap: {name} fails ({v})" for name, ok in conds.items() if not ok]
    return errs


def check(cmd: Command, path, rng: np.random.Generator) -> list[str]:
    """Error messages for one output file; empty when it is correct."""
    if cmd.kind == "sweep":
        return check_sweep(cmd, path, rng)
    if cmd.kind == "oracle":
        return check_oracle(cmd, path)
    return check_trap(cmd, path)
