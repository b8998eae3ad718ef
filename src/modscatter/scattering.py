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
    ns = np.arange(-N, N + 1)
    ls = np.arange(-L, L + 1)
    # J_{n+l} as a (2N+1, 2L+1) lookup into the same window
    jnl = jw[(ns[:, None] + ls[None, :]) + N + L]
    return jw[ls + N + L], jnl, ls * mod_freq


def _series_r(
    params: EmitterParams,
    detuning: float,
    N: int,
    tables: dict | None = None,
) -> np.ndarray:
    """Reflection amplitudes r_n for n in [-N, N] by direct series summation.

    With a `tables` dict the u-dependent tables are looked up there and
    stored on a miss; the dict holds one u at a time, so a new u clears it.
    """
    gamma = params.gamma
    if params.coupling == 0:
        return np.zeros(2 * N + 1, complex)
    u = modulation_index(params)
    tables = {} if tables is None else tables
    key = (u, params.mod_freq, N)
    if key not in tables:
        if any(k[0] != u for k in tables):
            tables.clear()
        tables[key] = _series_tables(*key)
    jl, jnl, lw = tables[key]
    weights = jl / (detuning - lw + 1j * gamma)
    return -1j * gamma * (jnl @ weights)


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
        warnings.warn(
            f"{int(np.sum(omega_n <= 0))} sideband(s) fall at non-positive "
            "frequency; they are kept in the totals but the linear-dispersion "
            "model is not physical there",
            stacklevel=caller_stacklevel(),
        )
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


def auto_truncation(
    params: EmitterParams,
    detuning: float,
    tol: float = 1e-10,
    *,
    tables: dict | None = None,
) -> SidebandSet:
    """The first sideband set whose unitarity defect is below tol.

    Starts at N = ceil(u + 8 u^(1/3) + 12) (the Bessel turnover plus an
    Airy-width margin) and doubles N until the defect passes or the hard
    cap N = 512 is exceeded. The converged set is returned as evaluated;
    its truncation is N = ns[-1].
    """
    if not (tol > 0):
        raise ValueError("tol must be positive")
    u = modulation_index(params)
    n = int(np.ceil(u + 8.0 * u ** (1.0 / 3.0) + 12)) if u > 0 else 12
    n = min(n, 512)
    best_defect = np.inf
    while True:
        sset = reflection_amplitudes(params, detuning, n, tables=tables)
        best_defect = min(best_defect, sset.unitarity_defect)
        if sset.unitarity_defect < tol:
            return sset
        if n >= 512:
            raise TruncationError(
                f"unitarity defect {best_defect:.3e} still above tol={tol:g} "
                f"at sideband_max={n}",
                achieved_defect=best_defect,
            )
        n = min(2 * n, 512)


def evaluate_sidebands(
    params: EmitterParams,
    detuning: float,
    tol: float = 1e-10,
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
