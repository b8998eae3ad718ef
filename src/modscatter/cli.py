"""Command-line front end.

Subcommands: spectrum, sidebands, oracle, trap, presets. All values default
to gamma-normalized units; identical invocations produce byte-identical data
files (timestamps appear only with --stamp).

Exit codes: 0 success, 2 numerical-quality failure, 64 usage error,
70 internal error.
"""

from __future__ import annotations

import argparse
import configparser
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
from .sweeps import AXES, METHODS, SweepSpec, figure_presets, run_sweep

EXIT_OK = 0
MAX_PRECISION = 16  # %.16e gives 17 significant digits: every double round-trips


class _Parser(argparse.ArgumentParser):
    # flags and config keys are spelt in full: no prefix stands for a flag
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):  # usage errors exit 64, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _commands(parser: argparse.ArgumentParser) -> dict:
    """Subcommand name -> its parser."""
    return parser._subparsers._group_actions[0].choices


def _join_dash_values(parser: argparse.ArgumentParser,
                      argv: list[str]) -> list[str]:
    """Glue '--detuning -1e-3' into '--detuning=-1e-3'.

    argparse refuses option values that start with a dash unless they look
    like plain negative numbers, and exponents, -inf and range triplets do
    not. A single-dash token other than -h after a flag that takes a value
    is that flag's value; the parser says which flags take none.
    """
    bare = {opt for p in (parser, *_commands(parser).values())
            for action in p._actions if action.nargs == 0
            for opt in action.option_strings}
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else ""
        if (tok.startswith("--") and "=" not in tok and tok not in bare
                and nxt.startswith("-") and not nxt.startswith("--")
                and nxt != "-h"):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


# An option a config file may set sits in the argument group titled by its
# INI section; --config and --dump-config sit in none.
def _add_output_flags(p: argparse.ArgumentParser) -> None:
    output = p.add_argument_group("output")
    output.add_argument("--out",
                        help="output file (default: dataset to stdout)")
    output.add_argument("--format", choices=("csv", "json"), default="csv")
    output.add_argument("--precision", type=int, default=12,
                        help=f"digits after the point, 0 to {MAX_PRECISION} "
                             "(default 12)")
    output.add_argument("--stamp", action="store_true",
                        help="include a timestamp line in the metadata")
    p.add_argument("--config",
                   help="INI config file; explicit flags override it")
    p.add_argument("--dump-config", action="store_true",
                   help="print the config as given and exit without running")


def _add_sweep_flags(p: argparse.ArgumentParser, orders: bool) -> None:
    sweep = p.add_argument_group("sweep")
    sweep.add_argument("--preset",
                       help="named preset (see the presets command)")
    sweep.add_argument("--axis", choices=AXES,
                       help="the swept parameter")
    sweep.add_argument("--range", dest="axis_range",
                       metavar="START:STOP:POINTS")
    sweep.add_argument("--method", choices=METHODS,
                       help="amplitude route (default series)")
    if orders:
        sweep.add_argument("--orders", help="comma-separated sideband "
                                            "orders (default 0,1,2)")
    params = p.add_argument_group("params")
    params.add_argument("--detuning", type=float)
    params.add_argument("--mod-amp-energy", type=float,
                        help="modulation amplitude in energy units (f*Omega)")
    params.add_argument("--mod-freq", type=float)
    params.add_argument(
        "--raw-units", action="store_true", default=None,
        help="interpret frequency-valued inputs in raw rad/time")
    params.add_argument("--coupling", type=float,
                        help="bare coupling V (raw units only)")
    params.add_argument("--group-velocity", type=float,
                        help="waveguide group velocity (raw units only)")
    params.add_argument("--omega-a", type=float,
                        help="static transition frequency (raw units only)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="modscatter", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    for name, orders, about in (
            ("spectrum", False, "total T/R over one swept axis"),
            ("sidebands", True, "per-sideband T_n over one axis")):
        p_sweep = sub.add_parser(name, help=about)
        _add_sweep_flags(p_sweep, orders)
        _add_output_flags(p_sweep)
        p_sweep.set_defaults(func=cmd_sweep)

    p_or = sub.add_parser("oracle", help="three-way solver cross-validation")
    oracle = p_or.add_argument_group("oracle")
    oracle.add_argument("--cases", default="5:2,5:8,2:2,8:2",
                        help="comma list of ampEnergy:freq pairs, gamma units")
    oracle.add_argument("--delta-range", default="-10:10:21",
                        metavar="START:STOP:POINTS")
    oracle.add_argument("--tol-hb", type=float, default=1e-8)
    oracle.add_argument("--tol-td", type=float, default=1e-3)
    _add_output_flags(p_or)
    p_or.set_defaults(func=cmd_oracle)

    p_trap = sub.add_parser("trap", help="two-emitter photon trap protocol")
    trap = p_trap.add_argument_group("trap")
    trap.add_argument("--bandwidth", type=float, default=0.05,
                      help="packet bandwidth in gamma units (default 0.05)")
    trap.add_argument("--amp-energy", type=float, default=4.81)
    trap.add_argument("--mod-freq", type=float, default=2.0)
    trap.add_argument("--cells", type=int, default=20000)
    trap.add_argument("--variant",
                      choices=("trap", "control", "always-on"), default="trap")
    trap.add_argument("--release", action="store_true",
                      help="re-modulate the right mirror at measure time")
    trap.add_argument("--series-out",
                      help="write the intra-cavity probability time series")
    trap.add_argument("--series-stride", type=int, default=10)
    _add_output_flags(p_trap)
    p_trap.set_defaults(func=cmd_trap)

    p_pre = sub.add_parser("presets", help="list bundled sweep presets")
    p_pre.set_defaults(func=cmd_presets)

    return parser


def _config_sections(command: argparse.ArgumentParser) -> dict:
    """Section -> key -> option, read from the subcommand's argument groups:
    the one table of which INI section holds which option."""
    return {group.title: {a.option_strings[0][2:].replace("-", "_"): a
                          for a in group._group_actions}
            for group in command._action_groups
            if group not in (command._positionals, command._optionals)}


def _config_flags(parser: argparse.ArgumentParser, name: str,
                  cfg: dict[str, dict[str, str]]) -> list[str]:
    """The keys of the sections subcommand `name` reads, as its flags:
    'key = value' becomes '--key=value', a switch set true the bare flag.
    A section no subcommand reads, or an option of this one given in a
    section not its own, exits 64; a section of another subcommand is
    skipped, and an unknown key goes on as a flag, for argparse to refuse."""
    command = _commands(parser)[name]
    known = {section for p in _commands(parser).values()
             for section in _config_sections(p)}
    for section in cfg:
        if section not in known:
            command.error(f"[{section}] is not a config section; known: "
                          + ", ".join(f"[{k}]" for k in sorted(known)))
    sections = _config_sections(command)
    flags = []
    for section, actions in sections.items():
        for key, value in cfg.get(section, {}).items():
            flag = "--" + key.replace("_", "-")
            action = actions.get(key)
            if action is None and flag in command._option_string_actions:
                home = [name for name, keys in sections.items() if key in keys]
                command.error(f"[{section}] {key} " + (
                    f"belongs in [{home[0]}]" if home
                    else "is not a config key"))
            if action is None or action.nargs != 0:
                flags.append(f"{flag}={value}")
                continue
            state = configparser.ConfigParser.BOOLEAN_STATES.get(value.lower())
            if state is None:
                command.error(
                    f"[{section}] {key} = {value!r} is not a boolean")
            if state:
                flags.append(flag)
    return flags


def _write_config(args) -> int:
    """Print the options a config file may set, as given, each under its
    own section; options left unset are not written."""
    command = _commands(build_parser())[args.command]
    sections = {
        section: {key: getattr(args, action.dest)
                  for key, action in actions.items()
                  if getattr(args, action.dest) is not None}
        for section, actions in _config_sections(command).items()
    }
    sys.stdout.write(dump_config({k: v for k, v in sections.items() if v}))
    return EXIT_OK


def _emit(args, meta, header, rows, summary: str) -> None:
    if args.stamp:
        meta = {**meta, "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S")}
    render = render_csv if args.format == "csv" else render_json
    text = render(meta, header, rows, precision=args.precision)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(summary)
    else:
        sys.stdout.write(text)
        print(summary, file=sys.stderr)


def _raw_gamma(args) -> float | None:
    """gamma = V^2/v_g under --raw-units, None in gamma-normalized units,
    where the raw-unit-only flags are refused."""
    if not args.raw_units:
        for key in ("coupling", "group_velocity", "omega_a"):
            if getattr(args, key) is not None:
                raise ValueError(f"--{key.replace('_', '-')} ([params] {key}) "
                                 "applies only with --raw-units")
        return None
    v, vg = (math.nan if x is None else x
             for x in (args.coupling, args.group_velocity))
    gamma = v * v / vg if v > 0 and vg > 0 else math.nan
    if not 0 < gamma < math.inf:
        raise ValueError(f"--raw-units requires positive --coupling and "
                         f"--group-velocity with gamma = V^2/v_g finite and "
                         f"> 0, got {v!r} and {vg!r}")
    return gamma


def _sweep_spec_from(args) -> SweepSpec:
    raw_gamma = _raw_gamma(args)
    gamma = 1.0 if raw_gamma is None else raw_gamma
    omega_ratio = OMEGA_RATIO
    if raw_gamma is not None and args.omega_a is not None:
        omega_ratio = args.omega_a / gamma
        if not 0 < omega_ratio < math.inf:
            raise ValueError(f"--omega-a ([params] omega_a) must give a "
                             f"finite Omega/gamma > 0, got {args.omega_a!r} "
                             f"(Omega/gamma = {omega_ratio!r})")
    text = getattr(args, "orders", None)
    try:
        orders = () if text is None else tuple(
            int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise ValueError(f"--orders ([sweep] orders) must be comma-separated "
                         f"integers, got {text!r}") from None
    fixed = {attr: getattr(args, attr)
             for attr in ("detuning", "mod_amp_energy", "mod_freq")}
    overrides = {}
    if args.preset is not None:
        if args.axis is not None or args.axis_range is not None:
            raise ValueError("--preset sets its own axis and range: drop "
                             "--axis and --range ([sweep] axis, range)")
        presets = figure_presets()
        if args.preset not in presets:
            raise ValueError(f"unknown preset {args.preset!r}; "
                             f"available: {', '.join(sorted(presets))}")
        spec = presets[args.preset]
        # explicit fixed values, orders and the raw-units carrier override
        # even a preset
        overrides = {attr: value / gamma for attr, value in fixed.items()
                     if value is not None}
        if omega_ratio != spec.omega_ratio:
            overrides["omega_ratio"] = omega_ratio
        if text is not None:
            overrides["sideband_orders"] = orders
    else:
        if args.axis is None or args.axis_range is None:
            raise ValueError("need --preset, or both --axis and --range")
        start, stop, points = parse_range(args.axis_range,
                                          "--range ([sweep] range)")
        spec = SweepSpec(
            axis=args.axis,
            start=start / gamma,
            stop=stop / gamma,
            points=points,
            **{attr: (0.0 if value is None else value) / gamma
               for attr, value in fixed.items()},
            sideband_orders=orders,
            name="custom",
            omega_ratio=omega_ratio,
        )
    if fixed[spec.axis] is not None:
        raise ValueError(f"--{spec.axis.replace('_', '-')} ([params] "
                         f"{spec.axis}) fixes the swept axis: drop it")
    if args.method is not None:
        overrides["method"] = args.method
    if overrides:
        spec = dataclasses.replace(spec, **overrides)
    return spec


def _sweep_meta(spec: SweepSpec, precision: int) -> dict:
    return {
        "generator": f"modscatter {__version__}",
        "dataset": spec.name or "custom",
        "axis": spec.axis,
        "start": format_float(spec.start, precision),
        "stop": format_float(spec.stop, precision),
        "points": spec.points,
        "detuning": format_float(spec.detuning, precision),
        "mod_amp_energy": format_float(spec.mod_amp_energy, precision),
        "mod_freq": format_float(spec.mod_freq, precision),
        "method": spec.method,
        "units": "gamma-normalized",
    }


def cmd_sweep(args) -> int:
    """spectrum and sidebands; sidebands reports orders 0-2 unless the
    preset or --orders names others."""
    spec = _sweep_spec_from(args)
    if args.dump_config:
        return _write_config(args)
    if "orders" in args and not spec.sideband_orders:
        spec = dataclasses.replace(spec, sideband_orders=(0, 1, 2))
    ds = run_sweep(spec)
    header = [spec.axis]
    header += list(ds.columns.keys())
    header += ["sideband_max", "flagged"]
    rows = list(zip(ds.axis_values.tolist(),
                    *(col.tolist() for col in ds.columns.values()),
                    ds.truncation_orders.tolist(), ds.flags.tolist()))
    max_defect = float(np.max(ds.columns["unitarity_defect"]))
    n_flagged = int(np.sum(ds.flags))
    summary = (
        f"{spec.points} points, max unitarity defect "
        f"{format_float(max_defect, 3)}, flagged rows {n_flagged}"
    )
    _emit(args, _sweep_meta(spec, args.precision), header, rows, summary)
    return EXIT_QUALITY if n_flagged else EXIT_OK


def cmd_oracle(args) -> int:
    rng, tol_hb, tol_td = args.delta_range, args.tol_hb, args.tol_td
    for flag, key, tol in (("--tol-hb", "tol_hb", tol_hb),
                           ("--tol-td", "tol_td", tol_td)):
        if not 0.0 < tol < math.inf:
            raise OutOfRangeError(
                f"{flag} ([oracle] {key}) must be finite and > 0, got {tol!r}"
            )
    cases = []
    for tok in args.cases.split(","):
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
    start, stop, points = parse_range(
        rng, "--delta-range ([oracle] delta_range)")
    if args.dump_config:
        return _write_config(args)
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
    _emit(args, meta, header, rows, summary)
    return EXIT_OK if all_pass else EXIT_QUALITY


def cmd_trap(args) -> int:
    stride = args.series_stride
    if stride < 1:
        raise OutOfRangeError(f"--series-stride ([trap] series_stride) must "
                              f"be >= 1, got {stride}")
    protocol = default_trap_protocol(
        bandwidth=args.bandwidth,
        amp_energy=args.amp_energy,
        mod_freq=args.mod_freq,
        n_cells=args.cells,
        modulated=(args.variant != "control"),
        switch_off=(args.variant != "always-on"),
        release=args.release,
    )
    if args.dump_config:
        return _write_config(args)
    report = run_protocol(protocol)
    meta = {
        "generator": f"modscatter {__version__}",
        "dataset": f"trap-{args.variant}",
        "bandwidth": format_float(args.bandwidth, args.precision),
        "mod_amp_energy": format_float(args.amp_energy, args.precision),
        "mod_freq": format_float(args.mod_freq, args.precision),
        "cells": args.cells,
        "release": args.release,
        "units": "gamma-normalized",
    }
    if args.series_out:
        series_rows = [
            (float(report.times[i]), float(report.p_cav[i]))
            for i in range(0, len(report.times), stride)
        ]
        text = render_csv(meta, ["time", "p_cav"], series_rows,
                          precision=args.precision)
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
    _emit(args, meta, header, [row], summary)
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


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_join_dash_values(parser, argv))
        if getattr(args, "config", None):
            # the file's keys go first, so flags on the command line win
            flags = _config_flags(parser, args.command,
                                  load_config(args.config))
            args = parser.parse_args(
                _join_dash_values(parser, [args.command, *flags, *argv[1:]]))
        if not 0 <= getattr(args, "precision", 0) <= MAX_PRECISION:
            raise OutOfRangeError(
                f"precision {args.precision} outside [0, {MAX_PRECISION}]")
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
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
