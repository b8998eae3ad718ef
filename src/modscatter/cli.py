"""Command-line front end.

Subcommands: spectrum, sidebands, oracle, trap, presets. All values default
to gamma-normalized units; identical invocations produce byte-identical data
files (timestamps appear only with --stamp).

Exit codes: 0 success, 2 numerical-quality failure, 64 usage error,
70 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import time

import numpy as np

from . import __version__
from .cavity import default_trap_protocol, run_protocol
from .dataio import (
    dump_config,
    format_float,
    load_config,
    parse_range,
    render_csv,
    render_json,
)
from .errors import (
    EXIT_INTERNAL,
    EXIT_QUALITY,
    EXIT_USAGE,
    OutOfRangeError,
    ScatterError,
)
from .oracles import cross_validate
from .params import OMEGA_RATIO, normalized_params
from .sweeps import SweepSpec, figure_presets, run_sweep

EXIT_OK = 0
MAX_PRECISION = 16  # %.16e gives 17 significant digits: every double round-trips


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 64, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


_RANGE_FLAGS = ("--range", "--delta-range")


def _join_range_values(argv: list[str]) -> list[str]:
    """Glue '--range -10:10:401' into '--range=-10:10:401'.

    argparse refuses option values that start with a dash unless they look
    like plain negative numbers, and range triplets with colons do not.
    """
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if tok in _RANGE_FLAGS and nxt and nxt.startswith("-") and ":" in nxt:
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="output file (default: dataset to stdout)")
    p.add_argument("--format", choices=("csv", "json"), default=None)
    p.add_argument("--precision", type=int, default=None,
                   help=f"digits after the point, 0 to {MAX_PRECISION} (default 12)")
    p.add_argument("--stamp", action="store_true", default=None,
                   help="include a timestamp line in the metadata")
    p.add_argument("--config", help="INI config file; explicit flags override it")
    p.add_argument("--dump-config", action="store_true",
                   help="print the effective config and exit without running")


def _add_sweep_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", help="named preset (see the presets command)")
    p.add_argument("--axis", choices=("detuning", "mod_amp_energy", "mod_freq"))
    p.add_argument("--range", dest="axis_range", metavar="START:STOP:POINTS")
    p.add_argument("--detuning", type=float, default=None)
    p.add_argument("--mod-amp-energy", type=float, default=None,
                   help="modulation amplitude in energy units (f*Omega)")
    p.add_argument("--mod-freq", type=float, default=None)
    p.add_argument("--method", choices=("series", "harmonic_balance", "both"),
                   default=None)
    p.add_argument("--raw-units", action="store_true", default=None,
                   help="interpret frequency-valued inputs in raw rad/time")
    p.add_argument("--coupling", type=float, default=None,
                   help="bare coupling V (raw units only)")
    p.add_argument("--group-velocity", type=float, default=None,
                   help="waveguide group velocity (raw units only)")
    p.add_argument("--omega-a", type=float, default=None,
                   help="static transition frequency (raw units only)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="modscatter", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_spec = sub.add_parser("spectrum", help="total T/R over one swept axis")
    _add_sweep_flags(p_spec)
    _add_output_flags(p_spec)
    p_spec.set_defaults(func=cmd_spectrum)

    p_side = sub.add_parser("sidebands", help="per-sideband T_n over one axis")
    _add_sweep_flags(p_side)
    p_side.add_argument("--orders", default=None,
                        help="comma-separated sideband orders (default 0,1,2)")
    _add_output_flags(p_side)
    p_side.set_defaults(func=cmd_sidebands)

    p_or = sub.add_parser("oracle", help="three-way solver cross-validation")
    p_or.add_argument("--cases", default=None,
                      help="comma list of ampEnergy:freq pairs, gamma units")
    p_or.add_argument("--delta-range", default=None, metavar="START:STOP:POINTS")
    p_or.add_argument("--tol-hb", type=float, default=None)
    p_or.add_argument("--tol-td", type=float, default=None)
    _add_output_flags(p_or)
    p_or.set_defaults(func=cmd_oracle)

    p_trap = sub.add_parser("trap", help="two-emitter photon trap protocol")
    p_trap.add_argument("--bandwidth", type=float, default=None,
                        help="packet bandwidth in gamma units (default 0.05)")
    p_trap.add_argument("--amp-energy", type=float, default=None)
    p_trap.add_argument("--mod-freq", type=float, default=None)
    p_trap.add_argument("--cells", type=int, default=None)
    p_trap.add_argument("--variant",
                        choices=("trap", "control", "always-on"), default=None)
    p_trap.add_argument("--release", action="store_true", default=None,
                        help="re-modulate the right mirror at measure time")
    p_trap.add_argument("--series-out", default=None,
                        help="write the intra-cavity probability time series")
    p_trap.add_argument("--series-stride", type=int, default=None)
    _add_output_flags(p_trap)
    p_trap.set_defaults(func=cmd_trap)

    p_pre = sub.add_parser("presets", help="list bundled sweep presets")
    p_pre.set_defaults(func=cmd_presets)

    return parser


def _pick(flag_value, cfg: dict, key: str, default, cast):
    if flag_value is not None:
        return flag_value
    if key in cfg:
        raw = cfg[key]
        if cast is bool:
            return str(raw).strip().lower() in ("1", "true", "yes", "on")
        return cast(raw)
    return default


def _load_cfg(args) -> dict[str, dict[str, str]]:
    if getattr(args, "config", None):
        return load_config(args.config)
    return {}


def _output_options(args, cfg) -> dict:
    out_cfg = cfg.get("output", {})
    precision = _pick(args.precision, out_cfg, "precision", 12, int)
    if not 0 <= precision <= MAX_PRECISION:
        raise OutOfRangeError(
            f"precision {precision} outside [0, {MAX_PRECISION}]"
        )
    return {
        "out": _pick(args.out, out_cfg, "out", None, str),
        "format": _pick(args.format, out_cfg, "format", "csv", str),
        "precision": precision,
        "stamp": _pick(args.stamp, out_cfg, "stamp", False, bool),
    }


def _emit(args, meta, header, rows, opts, summary: str) -> None:
    if opts["stamp"]:
        meta = {**meta, "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S")}
    render = render_csv if opts["format"] == "csv" else render_json
    text = render(meta, header, rows, precision=opts["precision"])
    if opts["out"]:
        with open(opts["out"], "w") as fh:
            fh.write(text)
        print(summary)
    else:
        sys.stdout.write(text)
        print(summary, file=sys.stderr)


def _raw_gamma(args, cfg) -> float | None:
    """gamma = V^2/v_g under --raw-units, None in gamma-normalized units,
    where the raw-unit-only flags and [params] keys are refused."""
    p_cfg = cfg.get("params", {})
    raw = _pick(args.raw_units, p_cfg, "raw_units", False, bool)
    if not raw:
        for key in ("coupling", "group_velocity", "omega_a"):
            if getattr(args, key) is not None or key in p_cfg:
                raise ValueError(f"--{key.replace('_', '-')} ([params] {key}) "
                                 "applies only with --raw-units")
        return None
    v = _pick(args.coupling, p_cfg, "coupling", math.nan, float)
    vg = _pick(args.group_velocity, p_cfg, "group_velocity", math.nan, float)
    gamma = v * v / vg if v > 0 and vg > 0 else math.nan
    if not 0 < gamma < math.inf:
        raise ValueError(f"--raw-units requires positive --coupling and "
                         f"--group-velocity with gamma = V^2/v_g finite and "
                         f"> 0, got {v!r} and {vg!r}")
    return gamma


def _sweep_spec_from(args, cfg) -> SweepSpec:
    p_cfg = cfg.get("params", {})
    s_cfg = cfg.get("sweep", {})
    raw_gamma = _raw_gamma(args, cfg)
    gamma = 1.0 if raw_gamma is None else raw_gamma
    omega_ratio = OMEGA_RATIO
    if raw_gamma is not None:
        omega_a = _pick(args.omega_a, p_cfg, "omega_a", None, float)
        if omega_a is not None:
            omega_ratio = omega_a / gamma
    preset = _pick(args.preset, s_cfg, "preset", None, str)
    orders = ()
    orders_explicit = getattr(args, "orders", None) is not None
    if hasattr(args, "orders"):
        text = _pick(args.orders, s_cfg, "orders", "0,1,2", str)
        orders = tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    if preset is not None:
        presets = figure_presets()
        if preset not in presets:
            raise ValueError(
                f"unknown preset {preset!r}; available: {', '.join(sorted(presets))}"
            )
        spec = presets[preset]
        if hasattr(args, "orders") and (orders_explicit or not spec.sideband_orders):
            spec = dataclasses.replace(spec, sideband_orders=orders)
    else:
        axis = _pick(args.axis, s_cfg, "axis", None, str)
        rng = _pick(args.axis_range, s_cfg, "range", None, str)
        if axis is None or rng is None:
            raise ValueError("need --preset, or both --axis and --range")
        start, stop, points = parse_range(rng)
        spec = SweepSpec(
            axis=axis,
            start=start / gamma,
            stop=stop / gamma,
            points=points,
            detuning=_pick(args.detuning, p_cfg, "detuning", 0.0, float) / gamma,
            mod_amp_energy=_pick(args.mod_amp_energy, p_cfg, "mod_amp_energy",
                                 0.0, float) / gamma,
            mod_freq=_pick(args.mod_freq, p_cfg, "mod_freq", 0.0, float) / gamma,
            sideband_orders=orders,
            name="custom",
            omega_ratio=omega_ratio,
        )
    # explicit fixed values (flags, then [params] keys) and the raw-units
    # carrier override even a preset
    overrides = {}
    if preset is not None:
        for attr, flag in (("detuning", args.detuning),
                           ("mod_amp_energy", args.mod_amp_energy),
                           ("mod_freq", args.mod_freq)):
            value = _pick(flag, p_cfg, attr, None, float)
            if value is not None and attr != spec.axis:
                overrides[attr] = value / gamma
        if omega_ratio != spec.omega_ratio:
            overrides["omega_ratio"] = omega_ratio
    method = _pick(args.method, s_cfg, "method", None, str)
    if method is not None:
        overrides["method"] = method
    if overrides:
        spec = dataclasses.replace(spec, **overrides)
    return spec


def _sweep_meta(spec: SweepSpec, opts, extra=()) -> dict:
    meta = {
        "generator": f"modscatter {__version__}",
        "dataset": spec.name or "custom",
        "axis": spec.axis,
        "start": format_float(spec.start, opts["precision"]),
        "stop": format_float(spec.stop, opts["precision"]),
        "points": spec.points,
        "detuning": format_float(spec.detuning, opts["precision"]),
        "mod_amp_energy": format_float(spec.mod_amp_energy, opts["precision"]),
        "mod_freq": format_float(spec.mod_freq, opts["precision"]),
        "method": spec.method,
        "units": "gamma-normalized",
    }
    meta.update(extra)
    return meta


def _run_sweep_command(args, want_orders: bool) -> int:
    cfg = _load_cfg(args)
    opts = _output_options(args, cfg)
    spec = _sweep_spec_from(args, cfg)
    if want_orders and not spec.sideband_orders:
        spec = dataclasses.replace(spec, sideband_orders=(0, 1, 2))
    if args.dump_config:
        sys.stdout.write(_dump_sweep_config(spec, opts))
        return EXIT_OK
    ds = run_sweep(spec)
    header = [spec.axis]
    header += list(ds.columns.keys())
    header += ["sideband_max", "flagged"]
    rows = [
        (ds.axis_values[i],
         *(float(ds.columns[c][i]) for c in ds.columns),
         int(ds.truncation_orders[i]),
         bool(ds.flags[i]))
        for i in range(spec.points)
    ]
    defects = ds.columns.get("unitarity_defect")
    max_defect = float(np.max(defects)) if defects is not None else float("nan")
    n_flagged = int(np.sum(ds.flags))
    summary = (
        f"{spec.points} points, max unitarity defect "
        f"{format_float(max_defect, 3)}, flagged rows {n_flagged}"
    )
    _emit(args, _sweep_meta(spec, opts), header, rows, opts, summary)
    return EXIT_QUALITY if n_flagged else EXIT_OK


def cmd_spectrum(args) -> int:
    return _run_sweep_command(args, want_orders=False)


def cmd_sidebands(args) -> int:
    return _run_sweep_command(args, want_orders=True)


def cmd_oracle(args) -> int:
    cfg = _load_cfg(args)
    opts = _output_options(args, cfg)
    o_cfg = cfg.get("oracle", {})
    cases_text = _pick(args.cases, o_cfg, "cases", "5:2,5:8,2:2,8:2", str)
    rng = _pick(args.delta_range, o_cfg, "delta_range", "-10:10:21", str)
    tol_hb = _pick(args.tol_hb, o_cfg, "tol_hb", 1e-8, float)
    tol_td = _pick(args.tol_td, o_cfg, "tol_td", 1e-3, float)
    for flag, key, tol in (("--tol-hb", "tol_hb", tol_hb),
                           ("--tol-td", "tol_td", tol_td)):
        if not 0.0 < tol < math.inf:
            raise OutOfRangeError(
                f"{flag} ([oracle] {key}) must be finite and > 0, got {tol!r}"
            )
    cases = []
    for tok in cases_text.split(","):
        try:
            amp, freq = (float(v) for v in tok.split(":"))
            if not (math.isfinite(amp) and math.isfinite(freq)):
                raise ValueError
        except ValueError:
            raise OutOfRangeError(
                f"--cases entry {tok!r} is not of the form AMP:FREQ with "
                f"finite numbers (e.g. 5:2,5:8)"
            ) from None
        cases.append((amp, freq))
    start, stop, points = parse_range(rng)
    if args.dump_config:
        sys.stdout.write(dump_config({
            "oracle": {"cases": cases_text, "delta_range": rng,
                       "tol_hb": tol_hb, "tol_td": tol_td},
            "output": _printable_output(opts),
        }))
        return EXIT_OK
    deltas = np.linspace(start, stop, points)
    header = ["mod_amp_energy", "mod_freq", "max_dev_series_hb",
              "max_dev_series_td", "max_defect_series", "max_defect_hb",
              "max_defect_td", "passed"]
    rows = []
    all_pass = True
    for amp, freq in cases:
        params = normalized_params(amp, freq)
        report = cross_validate(params, deltas, tol_series_hb=tol_hb,
                                tol_td=tol_td)
        all_pass &= report.passed
        rows.append((
            amp, freq,
            report.max_dev_series_hb,
            report.max_dev_series_td,
            float(np.max(report.defect_series)),
            float(np.max(report.defect_hb)),
            float(np.max(report.defect_td)),
            report.passed,
        ))
    meta = {
        "generator": f"modscatter {__version__}",
        "dataset": "oracle-cross-validation",
        "delta_range": rng,
        "tol_series_hb": format_float(tol_hb, 3),
        "tol_series_td": format_float(tol_td, 3),
        "units": "gamma-normalized",
    }
    summary = (
        f"{len(cases)} cases x {points} detunings: "
        + ("all solvers agree" if all_pass else "DISAGREEMENT")
    )
    _emit(args, meta, header, rows, opts, summary)
    return EXIT_OK if all_pass else EXIT_QUALITY


def cmd_trap(args) -> int:
    cfg = _load_cfg(args)
    opts = _output_options(args, cfg)
    t_cfg = cfg.get("trap", {})
    bandwidth = _pick(args.bandwidth, t_cfg, "bandwidth", 0.05, float)
    amp = _pick(args.amp_energy, t_cfg, "amp_energy", 4.81, float)
    freq = _pick(args.mod_freq, t_cfg, "mod_freq", 2.0, float)
    cells = _pick(args.cells, t_cfg, "cells", 20000, int)
    variant = _pick(args.variant, t_cfg, "variant", "trap", str)
    release = _pick(args.release, t_cfg, "release", False, bool)
    stride = _pick(args.series_stride, t_cfg, "series_stride", 10, int)
    if stride < 1:
        raise OutOfRangeError(f"series stride {stride} must be >= 1")
    protocol = default_trap_protocol(
        bandwidth=bandwidth,
        amp_energy=amp,
        mod_freq=freq,
        n_cells=cells,
        modulated=(variant != "control"),
        switch_off=(variant != "always-on"),
        release=release,
    )
    if args.dump_config:
        sys.stdout.write(dump_config({
            "trap": {"bandwidth": bandwidth, "amp_energy": amp,
                     "mod_freq": freq, "cells": cells, "variant": variant,
                     "release": release, "series_stride": stride},
            "output": _printable_output(opts),
        }))
        return EXIT_OK
    report = run_protocol(protocol)
    meta = {
        "generator": f"modscatter {__version__}",
        "dataset": f"trap-{variant}",
        "bandwidth": format_float(bandwidth, opts["precision"]),
        "mod_amp_energy": format_float(amp, opts["precision"]),
        "mod_freq": format_float(freq, opts["precision"]),
        "cells": cells,
        "release": release,
        "units": "gamma-normalized",
    }
    if args.series_out:
        series_rows = [
            (float(report.times[i]), float(report.p_cav[i]))
            for i in range(0, len(report.times), stride)
        ]
        text = render_csv(meta, ["time", "p_cav"], series_rows,
                          precision=opts["precision"])
        with open(args.series_out, "w") as fh:
            fh.write(text)
    header = ["eta", "measure_time", "leak_rate", "norm_drift",
              "reflected_out", "transmitted_out", "released_probability",
              "release_fidelity"]
    row = (report.eta, report.measure_time, report.leak_rate,
           report.norm_drift, report.reflected_out, report.transmitted_out,
           float("nan") if report.released_probability is None
           else report.released_probability,
           float("nan") if report.release_fidelity is None
           else report.release_fidelity)
    summary = (
        f"eta={format_float(report.eta, 6)} at t={report.measure_time:g}, "
        f"leak={format_float(report.leak_rate, 3)}, "
        f"norm drift {format_float(report.norm_drift, 3)}"
    )
    _emit(args, meta, header, [row], opts, summary)
    return EXIT_QUALITY if report.norm_drift > 1e-8 else EXIT_OK


def cmd_presets(args) -> int:
    for name, spec in figure_presets().items():
        fixed = []
        if spec.axis != "detuning":
            fixed.append(f"detuning={spec.detuning:g}")
        if spec.axis != "mod_amp_energy":
            fixed.append(f"mod_amp_energy={spec.mod_amp_energy:g}")
        if spec.axis != "mod_freq":
            fixed.append(f"mod_freq={spec.mod_freq:g}")
        orders = (f", orders={list(spec.sideband_orders)}"
                  if spec.sideband_orders else "")
        print(f"{name}: {spec.axis} in [{spec.start:g}, {spec.stop:g}] "
              f"({spec.points} points), {', '.join(fixed)}{orders}")
    return EXIT_OK


def _printable_output(opts) -> dict:
    out = {k: v for k, v in opts.items() if v is not None}
    return out


def _dump_sweep_config(spec: SweepSpec, opts) -> str:
    params: dict = {
        "detuning": spec.detuning,
        "mod_amp_energy": spec.mod_amp_energy,
        "mod_freq": spec.mod_freq,
    }
    if spec.omega_ratio != OMEGA_RATIO:
        # Omega/gamma is set only in raw units; at V = v_g = 1 (gamma = 1)
        # the normalized values above replay unchanged
        params.update(raw_units=True, coupling=1.0, group_velocity=1.0,
                      omega_a=spec.omega_ratio)
    sweep: dict = {}
    if spec.name in figure_presets():
        sweep["preset"] = spec.name
    sweep.update({
        "axis": spec.axis,
        "range": f"{spec.start}:{spec.stop}:{spec.points}",
        "method": spec.method,
        "orders": ",".join(str(n) for n in spec.sideband_orders),
    })
    return dump_config({
        "params": params,
        "sweep": sweep,
        "output": _printable_output(opts),
    })


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_join_range_values(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ScatterError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return exc.exit_code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - safety net
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
