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

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bessel import bessel_j_sequence
from .errors import (
    NotStaticError,
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
    modulation and one window n in [-N, N], N = ns[-1]; row k of every
    array belongs to the k-th detuning."""

    ns: np.ndarray
    r: np.ndarray                 # (rows, 2N+1)
    t: np.ndarray                 # (rows, 2N+1), t_n = r_n + delta_{n0}
    total_T: np.ndarray
    total_R: np.ndarray
    unitarity_defect: np.ndarray
    nonpositive: np.ndarray       # sidebands at omega_n <= 0, per row

    def take(self, rows) -> SidebandBlock:
        """The block of the selected rows."""
        return SidebandBlock(
            self.ns, self.r[rows], self.t[rows], self.total_T[rows],
            self.total_R[rows], self.unitarity_defect[rows],
            self.nonpositive[rows],
        )


def modulation_index(params: EmitterParams) -> float:
    """u = f * Omega / omega, the Bessel argument of the closed forms."""
    if params.mod_freq == 0:
        raise StaticLimitError(
            "modulation index undefined at mod_freq=0; "
            "use static_limit_amplitudes"
        )
    return params.mod_amp * params.omega_a / params.mod_freq


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


def _cached_tables(tables: dict, params: EmitterParams, N: int) -> tuple:
    """The series tables at (u, omega, N), looked up in `tables` and stored
    there on a miss; the dict holds one u at a time, so a new u clears it."""
    key = (modulation_index(params), params.mod_freq, N)
    if key not in tables:
        if any(k[0] != key[0] for k in tables):
            tables.clear()
        tables[key] = _series_tables(*key)
    return tables[key]


def _series_r(
    params: EmitterParams,
    detuning: float,
    N: int,
    tables: dict | None = None,
) -> np.ndarray:
    """Reflection amplitudes r_n for n in [-N, N] by direct series summation,
    with the tables of an optional per-sweep dict (see _cached_tables)."""
    gamma = params.gamma
    if params.coupling == 0:
        return np.zeros(2 * N + 1, complex)
    jl, jnl, lw = _cached_tables({} if tables is None else tables, params, N)
    weights = jl / (detuning - lw + 1j * gamma)
    return -1j * gamma * (jnl @ weights)


def _series_block(
    params: EmitterParams, detunings: np.ndarray, N: int, *, tables: dict
) -> SidebandBlock:
    """reflection_amplitudes at N for each of `detunings`, as one block.

    The weights of all rows are one broadcast division, and each row keeps
    its own matrix-vector product with J_{n+l}: one matrix-matrix product
    would sum in another order and move the last bits.
    """
    rows = len(detunings)
    r = np.zeros((rows, 2 * N + 1), complex)
    if params.coupling != 0:
        gamma = params.gamma
        jl, jnl, lw = _cached_tables(tables, params, N)
        weights = jl / (detunings[:, None] - lw + 1j * gamma)
        for k in range(rows):
            r[k] = -1j * gamma * (jnl @ weights[k])
    return _assemble_block(params, detunings, r)


def _warn_nonpositive(count: int) -> None:
    """The warning for `count` sidebands at non-positive frequency."""
    warnings.warn(
        f"{count} sideband(s) fall at non-positive "
        "frequency; they are kept in the totals but the linear-dispersion "
        "model is not physical there",
        stacklevel=caller_stacklevel(),
    )


def _assemble(
    params: EmitterParams,
    detuning: float,
    ns: np.ndarray,
    r: np.ndarray,
) -> SidebandSet:
    t = r.copy()
    i0 = np.nonzero(ns == 0)[0]
    if len(i0):
        t[i0[0]] += 1.0
    omega_0 = params.omega_a + detuning
    omega_n = omega_0 + ns * params.mod_freq
    if np.any(omega_n <= 0):
        _warn_nonpositive(int(np.sum(omega_n <= 0)))
    total_T = float(np.sum(np.abs(t) ** 2))
    total_R = float(np.sum(np.abs(r) ** 2))
    return SidebandSet(
        ns=ns,
        omega=omega_n,
        r=r,
        t=t,
        total_T=total_T,
        total_R=total_R,
        unitarity_defect=abs(1.0 - (total_T + total_R)),
    )


def _assemble_block(
    params: EmitterParams, detunings: np.ndarray, r: np.ndarray
) -> SidebandBlock:
    """_assemble for the rows r[k] at detunings[k], on the window [-N, N].

    The rows' sidebands at non-positive frequency are counted, not warned
    about: the caller warns (_warn_nonpositive) in its own row order.
    """
    N = r.shape[1] // 2
    ns = np.arange(-N, N + 1)
    t = r.copy()
    t[:, N] += 1.0
    omega_n = (params.omega_a + detunings)[:, None] + ns * params.mod_freq
    total_T = (np.abs(t) ** 2).sum(axis=1)
    total_R = (np.abs(r) ** 2).sum(axis=1)
    return SidebandBlock(
        ns=ns,
        r=r,
        t=t,
        total_T=total_T,
        total_R=total_R,
        unitarity_defect=np.abs(1.0 - (total_T + total_R)),
        nonpositive=(omega_n <= 0).sum(axis=1),
    )


def reflection_amplitudes(
    params: EmitterParams,
    detuning: float,
    sideband_max: int,
    *,
    tables: dict | None = None,
) -> SidebandSet:
    """Evaluate the sideband amplitudes at one detuning for n in
    [-sideband_max, sideband_max].

    The returned set carries both r_n and t_n (one series evaluation; the
    transmission side is the structural identity, never a second sum).
    `tables` is an optional per-sweep dict of series tables (see _series_r).
    """
    if params.mod_freq == 0:
        raise StaticLimitError(
            "mod_freq=0 has no sideband structure; use static_limit_amplitudes"
        )
    if sideband_max < 0:
        raise ValueError("sideband_max must be >= 0")
    r = _series_r(params, detuning, sideband_max, tables)
    ns = np.arange(-sideband_max, sideband_max + 1)
    return _assemble(params, detuning, ns, r)


def static_limit_amplitudes(params: EmitterParams, detuning: float) -> SidebandSet:
    """Unmodulated (or frozen-modulation) scatterer: a single Lorentzian line.

    With omega = 0 the emitter sits at the shifted frequency Omega*(1+f), so
    the effective detuning is Delta_eff = Delta - f*Omega; with f = 0 it is
    Delta itself. r_0 = -i*gamma/(Delta_eff + i*gamma), t_0 = 1 + r_0.
    """
    if params.mod_freq != 0 and params.mod_amp != 0:
        raise NotStaticError(
            "static limit requires mod_freq == 0 or mod_amp == 0"
        )
    gamma = params.gamma
    if params.mod_freq == 0 and params.mod_amp != 0:
        delta_eff = detuning - params.mod_amp * params.omega_a
    else:
        delta_eff = detuning
    if gamma == 0:
        r0 = 0.0 + 0.0j
    else:
        r0 = -1j * gamma / (delta_eff + 1j * gamma)
    return _assemble(params, detuning, np.arange(0, 1), np.array([r0]))


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


def auto_truncation(
    params: EmitterParams,
    detuning: float,
    tol: float = TRUNCATION_TOL,
    *,
    tables: dict | None = None,
) -> SidebandSet:
    """The first sideband set whose unitarity defect is below tol, over the
    windows of _truncation_orders; past SIDEBAND_CAP it raises
    TruncationError. The converged set is returned as evaluated; its
    truncation is N = ns[-1].
    """
    if not (tol > 0):
        raise ValueError("tol must be positive")
    best_defect = np.inf
    for n in _truncation_orders(params):
        sset = reflection_amplitudes(params, detuning, n, tables=tables)
        best_defect = min(best_defect, sset.unitarity_defect)
        if sset.unitarity_defect < tol:
            return sset
    raise TruncationError(
        f"unitarity defect {best_defect:.3e} still above tol={tol:g} "
        f"at sideband_max={n}",
        achieved_defect=best_defect,
    )


def evaluate_sidebands(
    params: EmitterParams,
    detuning: float,
    tol: float = TRUNCATION_TOL,
    *,
    tables: dict | None = None,
) -> SidebandSet:
    """Main entry point: route to the static limit or the modulated series,
    auto-truncated against tol.

    A caller that evaluates many detunings at one modulation passes the same
    `tables` dict to each call, so the Bessel tables are built once per u.
    """
    if params.mod_freq == 0:
        return static_limit_amplitudes(params, detuning)
    return auto_truncation(params, detuning, tol, tables=tables)
