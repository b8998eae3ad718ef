"""Per-layer spans recorded from outside the package.

A `Tracer` replaces module attributes where callers look them up (for
example `modscatter.sweeps.evaluate_sidebands`, which `_eval_point` reads at
call time), so no file of the package changes. Each span records its name,
start, end and parent; stacks are kept per thread, and a span opened
on a sweep worker thread with an empty stack takes the innermost open span of
the main thread as its parent. Spans stay in memory until `dump`.
"""

from __future__ import annotations

import importlib
import itertools
import json
import statistics
import threading
import time

SERIES_CUTOFF = 6.0  # |x| at or below it takes the Bessel power series


def _points(args, kwargs, result):
    return args[0].points


def _bytes(args, kwargs, result):
    return len(result.encode())


def _sideband_max(args, kwargs, result):
    return int(result.ns[-1]) if args[0].mod_freq != 0 else None


def _bessel(args, kwargs, result):
    n_max, x = args
    return int(n_max) + 1, bool(abs(x) <= SERIES_CUTOFF)


def _td_trace(args, kwargs, result):
    return result.samples.shape[0] - 1, result.samples.nbytes


# (module, attribute, span name, note taken from args and result, process CPU).
# Spans with no metric of their own, such as amplitudes_from_excitation, still
# count toward sweeps.worker_busy_s as children of run_sweep.
PATCHES = (
    ("modscatter.cli", "run_sweep", "sweeps.run_sweep", _points, False),
    ("modscatter.cli", "render_csv", "dataio.render", _bytes, False),
    ("modscatter.cli", "render_json", "dataio.render", _bytes, False),
    ("modscatter.cli", "cross_validate", "oracles.cross_validate", None, False),
    ("modscatter.cli", "run_protocol", "cavity.run_protocol", None, False),
    ("modscatter.sweeps", "evaluate_sidebands", "scattering.evaluate_sidebands",
     _sideband_max, False),
    ("modscatter.sweeps", "harmonic_balance_solve", "oracles.hb_solve", None, False),
    ("modscatter.sweeps", "amplitudes_from_excitation",
     "oracles.amplitudes_from_excitation", None, False),
    ("modscatter.oracles", "evaluate_sidebands", "scattering.evaluate_sidebands",
     _sideband_max, False),
    ("modscatter.oracles", "harmonic_balance_solve", "oracles.hb_solve", None, False),
    ("modscatter.oracles", "time_domain_excitation", "oracles.time_domain",
     _td_trace, False),
    ("modscatter.oracles", "fourier_extract", "oracles.fourier_extract", None, False),
    ("modscatter.scattering", "auto_truncation", "scattering.auto_truncation",
     None, False),
    ("modscatter.scattering", "reflection_amplitudes",
     "scattering.reflection_amplitudes", None, True),
    ("modscatter.scattering", "bessel_j_sequence", "bessel.bessel_j_sequence",
     _bessel, False),
    ("modscatter.cavity", "init_grid", "cavity.init_grid", None, False),
    ("modscatter.cavity", "step", "cavity.step", None, False),
    ("modscatter.cavity", "norm", "cavity.norm", None, False),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, parent, t0, t1, cpu, note)
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._saved: list[tuple] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, note=None, cpu=False):
        clock, cpu_clock = time.perf_counter, time.process_time

        def traced(*args, **kwargs):
            stack = self._stack()
            outer = stack or self._main_stack
            parent = outer[-1] if outer else -1
            sid = next(self._ids)
            stack.append(sid)
            c0 = cpu_clock() if cpu else 0.0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                c1 = cpu_clock() if cpu else 0.0
                stack.pop()
            self.spans.append((sid, name, parent, t0, t1, c1 - c0,
                               note(args, kwargs, result) if note else None))
            return result

        return traced

    def install(self) -> None:
        for mod_name, attr, name, note, cpu in PATCHES:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self.wrap(name, orig, note, cpu))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "parent", "start", "end",
                                  "process_cpu", "note"],
                       "spans": self.spans}, fh)


def _covered(intervals, lo, hi) -> float:
    """Length of [lo, hi] covered by the union of intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    by_name: dict[str, list] = {}
    children: dict[int, list] = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span)
        children.setdefault(span[2], []).append(span)

    def calls(name):
        return len(by_name.get(name, ()))

    def secs(name):
        return sum(s[4] - s[3] for s in by_name.get(name, ()))

    def self_s(name):
        return sum(s[4] - s[3] - _covered([(c[3], c[4]) for c in children.get(s[0], ())],
                                          s[3], s[4])
                   for s in by_name.get(name, ()))

    def notes(name):
        return [s[6] for s in by_name.get(name, ()) if s[6] is not None]

    def ratio(a, b):
        return a / b if b else 0.0

    sweeps = by_name.get("sweeps.run_sweep", ())
    busy = sum(c[4] - c[3] for s in sweeps for c in children.get(s[0], ()))
    sideband_max = notes("scattering.evaluate_sidebands")
    bessel = notes("bessel.bessel_j_sequence")
    td = notes("oracles.time_domain")
    protocol_s = secs("cavity.run_protocol")
    return {
        "cli.main.s": secs("cli.main"),
        "cli.self_s": self_s("cli.main"),
        "dataio.render.calls": calls("dataio.render"),
        "dataio.render.s": secs("dataio.render"),
        "dataio.bytes_out": sum(notes("dataio.render")),
        "sweeps.run_sweep.s": secs("sweeps.run_sweep"),
        "sweeps.points": sum(notes("sweeps.run_sweep")),
        "sweeps.self_s": self_s("sweeps.run_sweep"),
        "sweeps.worker_busy_s": busy,
        "sweeps.parallel_ratio": ratio(busy, secs("sweeps.run_sweep")),
        "scattering.evaluate_sidebands.calls": calls("scattering.evaluate_sidebands"),
        "scattering.evaluate_sidebands.s": secs("scattering.evaluate_sidebands"),
        "scattering.auto_truncation.calls": calls("scattering.auto_truncation"),
        "scattering.auto_truncation.s": secs("scattering.auto_truncation"),
        "scattering.series_evals": calls("scattering.reflection_amplitudes"),
        "scattering.series_evals_per_point":
            ratio(calls("scattering.reflection_amplitudes"), len(sideband_max)),
        "scattering.reflection_amplitudes.s": secs("scattering.reflection_amplitudes"),
        "scattering.reflection_amplitudes.cpu_s":
            sum(s[5] for s in by_name.get("scattering.reflection_amplitudes", ())),
        "scattering.sideband_max_mean":
            statistics.fmean(sideband_max) if sideband_max else 0.0,
        "bessel.calls": calls("bessel.bessel_j_sequence"),
        "bessel.s": secs("bessel.bessel_j_sequence"),
        "bessel.series_branch_calls": sum(1 for _, series in bessel if series),
        "bessel.orders": sum(orders for orders, _ in bessel),
        "oracles.cross_validate.s": secs("oracles.cross_validate"),
        "oracles.time_domain.calls": calls("oracles.time_domain"),
        "oracles.time_domain.s": secs("oracles.time_domain"),
        "oracles.rk4_steps": sum(steps for steps, _ in td),
        "oracles.td_samples_mb": max((nbytes for _, nbytes in td), default=0) / 1e6,
        "oracles.fourier_extract.s": secs("oracles.fourier_extract"),
        "oracles.hb_solve.calls": calls("oracles.hb_solve"),
        "oracles.hb_solve.s": secs("oracles.hb_solve"),
        "cavity.run_protocol.s": protocol_s,
        "cavity.run_protocol.self_s": self_s("cavity.run_protocol"),
        "cavity.step.calls": calls("cavity.step"),
        "cavity.step.s": secs("cavity.step"),
        "cavity.norm.calls": calls("cavity.norm"),
        "cavity.norm.s": secs("cavity.norm"),
        "cavity.init_grid.s": secs("cavity.init_grid"),
        "cavity.steps_per_s": ratio(calls("cavity.step"), protocol_s),
    }
