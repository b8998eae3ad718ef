"""Closed-form sideband scattering amplitudes.

A photon of frequency omega_0 = Omega + Delta scatters off the modulated
emitter into sidebands omega_n = omega_0 + n*omega. With u = f*Omega/omega
the reflection amplitudes are a double Bessel series

    r_n = sum_l  -i*gamma * J_l(u) * J_{n+l}(u) / (Delta - l*omega + i*gamma)

and transmission follows structurally as t_n = r_n + delta_{n,0}. Totals are
T = sum |t_n|^2, R = sum |r_n|^2 with T + R = 1 for a converged truncation;
the unitarity defect |1 - (T+R)| doubles as the convergence certificate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import chain

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bessel import DOMAIN_LIMIT, bessel_j_sequence
from .errors import (
    NotStaticError,
    OutOfRangeError,
    StaticLimitError,
    TruncationError,
    caller_stacklevel,
)
from .params import EmitterParams

# The Bessel sum of every r_n with |n| <= N runs over l in [-(N + SUM_MARGIN),
# N + SUM_MARGIN], so it always covers the computed orders.
SUM_MARGIN = 8
# the largest sideband window N that auto-truncation tries
SIDEBAND_CAP = 512
# the unitarity defect below which auto-truncation accepts a window
TRUNCATION_TOL = 1e-10
# detunings evaluated together; bounds the (rows, 2N+1) arrays of a block
BLOCK_ROWS = 64


@dataclass(frozen=True)
class SidebandSet:
    """Per-sideband amplitudes plus totals for one scattering evaluation.

    The truncation window is n in [-N, N] with N = ns[-1].
    """

    ns: np.ndarray          # sideband orders, ascending
    omega: np.ndarray       # omega_n = omega_0 + n*omega
    r: np.ndarray           # reflection amplitudes
    t: np.ndarray           # transmission amplitudes, t_n = r_n + delta_{n0}
    total_T: float
    total_R: float
    unitarity_defect: float


@dataclass(frozen=True)
class SidebandBlock:
    """The sideband amplitudes and totals of several detunings at one
    modulation on the orders ns, as a rule the window n in [-N, N] with
    N = ns[-1]; row k of every array belongs to the k-th detuning."""

    ns: np.ndarray
    omega: np.ndarray             # (rows, len(ns)), omega_n of each row
    r: np.ndarray                 # (rows, len(ns))
    t: np.ndarray                 # (rows, len(ns)), t_n = r_n + delta_{n0}
    total_T: np.ndarray
    total_R: np.ndarray
    unitarity_defect: np.ndarray
    nonpositive: np.ndarray       # sidebands at omega_n <= 0, per row

    def take(self, rows) -> SidebandBlock:
        """The block of the selected rows."""
        return SidebandBlock(
            self.ns, self.omega[rows], self.r[rows], self.t[rows],
            self.total_T[rows], self.total_R[rows],
            self.unitarity_defect[rows], self.nonpositive[rows],
        )

    def row(self, k: int) -> SidebandSet:
        """Row k as a SidebandSet."""
        return SidebandSet(
            ns=self.ns, omega=self.omega[k], r=self.r[k], t=self.t[k],
            total_T=float(self.total_T[k]), total_R=float(self.total_R[k]),
            unitarity_defect=float(self.unitarity_defect[k]),
        )


def modulation_index(params: EmitterParams) -> float:
    """u = f * Omega / omega, the Bessel argument of the closed forms.

    Refuses with OutOfRangeError when u overflows to infinity.
    """
    if params.mod_freq == 0:
        raise StaticLimitError(
            "modulation index undefined at mod_freq=0; "
            "use static_limit_amplitudes"
        )
    u = float(params.mod_amp * params.omega_a) / float(params.mod_freq)
    if not np.isfinite(u):
        raise OutOfRangeError(
            f"modulation index u = f*Omega/omega = {u!r} outside validated "
            f"domain |u| < {DOMAIN_LIMIT:g}"
        )
    return u


def _bessel_window(u: float, k_max: int) -> np.ndarray:
    """J_k(u) for k in [-k_max, k_max], negative orders by parity."""
    pos = bessel_j_sequence(k_max, u)
    neg = pos[1:][::-1].copy()
    neg[(k_max - 1) % 2 :: 2] *= -1.0  # J_{-k} = (-1)^k J_k
    return np.concatenate([neg, pos])


def _series_tables(u: float, mod_freq: float, N: int) -> tuple:
    """The detuning-independent parts of the series at one (u, omega, N):
    J_l(u) for l in [-L, L], the (2N+1, 2L+1) lookup J_{n+l}(u) and
    l*omega, with L = N + SUM_MARGIN."""
    L = N + SUM_MARGIN
    jw = _bessel_window(u, N + L)  # indices k+N+L
    ls = np.arange(-L, L + 1)
    # row n of J_{n+l} is the slice of the window from k = n - L: a
    # contiguous (2N+1, 2L+1) copy, complex so that the product with the
    # complex weights runs on one dtype
    jnl = sliding_window_view(jw.astype(complex), 2 * L + 1).copy()
    return jw[ls + N + L], jnl, ls * mod_freq


def _tables(params: EmitterParams, N: int) -> tuple | None:
    """The series tables of params at window N (_series_tables), or None at
    zero coupling, where the series vanishes."""
    if params.coupling == 0:
        return None
    return _series_tables(modulation_index(params), params.mod_freq, N)


def _series_block(
    params: EmitterParams, detunings: np.ndarray, N: int, *, tables
) -> SidebandBlock:
    """The series amplitudes r_n, n in [-N, N], of each of `detunings` as
    one block, with the tables that _tables(params, N) returns.

    The weights of all rows are one broadcast division, and the product
    with J_{n+l} is one stacked matmul whose items are each row's lone
    matrix-vector product, summed as alone (one GEMM would not be).
    """
    if tables is None:
        r = np.zeros((len(detunings), 2 * N + 1), complex)
    else:
        gamma = params.gamma
        jl, jnl, lw = tables
        weights = jl / (detunings[:, None] - lw + 1j * gamma)
        r = -1j * gamma * np.matmul(jnl, weights[:, :, None])[:, :, 0]
    return _assemble_block(params, detunings, np.arange(-N, N + 1), r)


def _replay(log) -> None:
    """Replay a block's per-row outcomes in row order: log[k] holds row k's
    count of sidebands at non-positive frequency of each evaluation, then
    at most one error, as they happened. Each nonzero count warns; the
    first error is raised, and nothing after it is replayed."""
    for outcome in filter(None, chain.from_iterable(log)):
        if isinstance(outcome, Exception):
            raise outcome
        warnings.warn(
            f"{outcome} sideband(s) fall at non-positive frequency; they "
            "are kept in the totals but the linear-dispersion model is not "
            "physical there",
            stacklevel=caller_stacklevel(),
        )


def _assemble_block(
    params: EmitterParams, detunings: np.ndarray, ns: np.ndarray, r: np.ndarray
) -> SidebandBlock:
    """The transmission amplitudes, totals and unitarity defects of the
    rows r[k] at detunings[k] on the orders ns; t_n = r_n + 1 at the first
    n = 0, if any.

    The rows' sidebands at non-positive frequency are counted, not warned
    about: the caller warns (_replay) in its own row order.
    """
    t = r.copy()
    zero = (ns == 0).nonzero()[0]
    if len(zero):
        t[:, zero[0]] += 1.0
    omega_n = (params.omega_a + detunings)[:, None] + ns * params.mod_freq
    total_T = (np.abs(t) ** 2).sum(axis=1)
    total_R = (np.abs(r) ** 2).sum(axis=1)
    return SidebandBlock(
        ns=ns,
        omega=omega_n,
        r=r,
        t=t,
        total_T=total_T,
        total_R=total_R,
        unitarity_defect=np.abs(1.0 - (total_T + total_R)),
        nonpositive=(omega_n <= 0).sum(axis=1),
    )


def _finite(detunings: np.ndarray) -> np.ndarray:
    """detunings, or OutOfRangeError naming the first that is not finite."""
    bad = detunings[~np.isfinite(detunings)]
    if len(bad):
        raise OutOfRangeError(f"detuning {float(bad[0])!r} is not finite")
    return detunings


def _one_row(blk: SidebandBlock) -> SidebandSet:
    """The set of a one-row block, after its non-positive-frequency
    warning."""
    _replay([blk.nonpositive.tolist()])
    return blk.row(0)


def reflection_amplitudes(
    params: EmitterParams, detuning: float, sideband_max: int
) -> SidebandSet:
    """Evaluate the sideband amplitudes at one detuning for n in
    [-sideband_max, sideband_max].

    The returned set carries both r_n and t_n (one series evaluation; the
    transmission side is the structural identity, never a second sum).
    """
    if params.mod_freq == 0:
        raise StaticLimitError(
            "mod_freq=0 has no sideband structure; use static_limit_amplitudes"
        )
    if sideband_max < 0:
        raise ValueError("sideband_max must be >= 0")
    return _one_row(_series_block(
        params, _finite(np.array([detuning], float)), sideband_max,
        tables=_tables(params, sideband_max),
    ))


def _static_block(params: EmitterParams, detunings: np.ndarray) -> SidebandBlock:
    """The static line of each of `detunings` as one block on n = 0.

    With omega = 0 the emitter sits at the shifted frequency Omega*(1+f), so
    the effective detuning is Delta_eff = Delta - f*Omega; with f = 0 it is
    Delta itself. r_0 = -i*gamma/(Delta_eff + i*gamma), t_0 = 1 + r_0, and
    r_0 = 0 at zero coupling.
    """
    _finite(detunings)
    gamma, fo = params.gamma, params.mod_amp * params.omega_a
    r0 = (-1j * gamma / (detunings - fo + 1j * gamma) if gamma != 0
          else np.zeros(len(detunings), complex))
    return _assemble_block(params, detunings, np.arange(0, 1), r0[:, None])


def static_limit_amplitudes(params: EmitterParams, detuning: float) -> SidebandSet:
    """Unmodulated (or frozen-modulation) scatterer: a single Lorentzian
    line, the one-row _static_block."""
    if params.mod_freq != 0 and params.mod_amp != 0:
        raise NotStaticError(
            "static limit requires mod_freq == 0 or mod_amp == 0"
        )
    return _one_row(_static_block(params, np.array([detuning], float)))


def _truncation_orders(params: EmitterParams):
    """The windows N that auto-truncation tries, in order: N =
    ceil(u + 8 u^(1/3) + 12) (the Bessel turnover plus an Airy-width
    margin), doubled up to SIDEBAND_CAP."""
    u = modulation_index(params)
    n = int(np.ceil(u + 8.0 * u ** (1.0 / 3.0) + 12)) if u > 0 else 12
    n = min(n, SIDEBAND_CAP)
    yield n
    while n < SIDEBAND_CAP:
        n = min(2 * n, SIDEBAND_CAP)
        yield n


def _converge_block(
    params: EmitterParams, detunings: np.ndarray, tol: float, log: list
):
    """Auto-truncation of detunings at one modulation, as a generator: at
    each window N of _truncation_orders it builds the series tables once,
    runs the rows still pending in chunks of at most BLOCK_ROWS and yields
    the converged (rows, block) of each chunk; the rows whose unitarity
    defect is not below tol go on to the next window, regrouped.

    Per row k it appends to log[k] the number of sidebands at non-positive
    frequency of each window it goes through; once exhausted, it appends to
    the log of each row still failing at SIDEBAND_CAP a TruncationError
    with the row's own least defect.
    """
    if not (tol > 0):
        raise ValueError("tol must be positive")
    _finite(detunings)
    pending = np.arange(len(detunings))
    best = np.full(len(detunings), np.inf)
    for n in _truncation_orders(params):
        tables, retry = _tables(params, n), []
        for lo in range(0, len(pending), BLOCK_ROWS):
            rows = pending[lo:lo + BLOCK_ROWS]
            blk = _series_block(params, detunings[rows], n, tables=tables)
            for k, count in zip(rows.tolist(), blk.nonpositive.tolist()):
                log[k].append(count)
            ok = blk.unitarity_defect < tol
            if ok.any():
                yield (rows, blk) if ok.all() else (rows[ok], blk.take(ok))
            failed = rows[~ok]
            best[failed] = np.fmin(best[failed], blk.unitarity_defect[~ok])
            retry.append(failed)
        pending = np.concatenate(retry)
        if not len(pending):
            return
    for k in pending.tolist():
        least = float(best[k])
        log[k].append(TruncationError(
            f"unitarity defect {least:.3e} still above tol={tol:g} "
            f"at sideband_max={n}",
            achieved_defect=least,
        ))


def auto_truncation(
    params: EmitterParams, detuning: float, tol: float = TRUNCATION_TOL
) -> SidebandSet:
    """The first sideband set whose unitarity defect is below tol, over the
    windows of _truncation_orders; past SIDEBAND_CAP it raises
    TruncationError. The converged set is returned as evaluated; its
    truncation is N = ns[-1]. This is _converge_block on one detuning.
    """
    log = [[]]
    blocks = list(_converge_block(params, np.array([detuning], float), tol, log))
    _replay(log)
    return blocks[0][1].row(0)


def evaluate_sidebands(
    params: EmitterParams, detuning: float, tol: float = TRUNCATION_TOL
) -> SidebandSet:
    """Main entry point: route to the static limit or the modulated series,
    auto-truncated against tol."""
    if params.mod_freq == 0:
        return static_limit_amplitudes(params, detuning)
    return auto_truncation(params, detuning, tol)
