"""Two independent routes to the same sideband amplitudes.

Both start from the reduced emitter equation of motion (the waveguide field
eliminated, leaving the linewidth gamma and the plane-wave drive):

    i de/dt = [Omega(1 + f cos(omega t)) - i gamma] e + V e^{-i omega_0 t}

* harmonic balance: expand e(t) = sum_n e_n exp(-i omega_n t); the harmonics
  couple into a tridiagonal linear system, solved by two continued
  fractions from its edges inward;
* time domain: step the equation with classical 4th-order Runge-Kutta over
  one modulation period in the frame rotating at omega_0, started on its
  periodic orbit (Floquet shooting), then take the Fourier coefficients of
  that period as its DFT.

Amplitudes follow from either excitation spectrum through the exact relation
r_n = V e_n / (i v_g), giving an end-to-end cross-check of the closed-form
series that shares no code with it beyond parameter handling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfRangeError, SingularSystemError
from .params import EmitterParams
from .scattering import (
    SidebandBlock,
    SidebandSet,
    _assemble_block,
    _converge_block,
    _one_row,
    _replay,
    evaluate_sidebands,  # noqa: F401 (unused; perfbench/tracing.py wraps it)
)

RESIDUAL_TOL = 1e-12
PERIODICITY_TOL = 1e-9
# gamma*T_mod above which 1/P ~ exp(gamma*t) of the one-period scan nears
# the float64 overflow at exp(709)
MAX_DECAY_PER_PERIOD = 600.0
# (steps per period + 1) x detunings: at the cap each complex array of the
# scan is 32 MB and an oracle run peaks near 330 MB
MAX_TD_SAMPLES = 2**21


@dataclass(frozen=True)
class ExcitationSpectrum:
    """Fourier coefficients e_n of the emitter excitation amplitude on the
    sideband frequencies omega_n = omega_0 + n*omega."""

    ns: np.ndarray
    coeffs: np.ndarray


@dataclass(frozen=True)
class HarmonicBalanceSystem:
    """Tridiagonal system for the excitation harmonics e_n, n in [-N, N];
    for an array of detunings, one system per row of `diagonal`."""

    order: int
    diagonal: np.ndarray      # Delta + n*omega + i*gamma
    off_diagonal: float       # -f*Omega/2 couples e_{n-1}, e_{n+1}
    rhs: np.ndarray           # +V at n = 0

    def matvec(self, e: np.ndarray) -> np.ndarray:
        y = self.diagonal * e
        y[..., 1:] += self.off_diagonal * e[..., :-1]
        y[..., :-1] += self.off_diagonal * e[..., 1:]
        return y


def build_harmonic_balance(
    params: EmitterParams, detuning, order: int
) -> HarmonicBalanceSystem:
    """Assemble the Fourier-space system.

    Substituting the harmonic expansion into the reduced equation couples
    neighbouring harmonics through cos(omega t) = (e^{i omega t} +
    e^{-i omega t})/2 and yields

        (Delta + n*omega + i*gamma) e_n - (f*Omega/2)(e_{n-1} + e_{n+1}) = V delta_{n0}

    The drive sign is pinned by the f -> 0 limit: e_0 = V/(Delta + i*gamma)
    must reproduce r_0 = -i*gamma/(Delta + i*gamma) through r_n = V e_n/(i v_g).
    An array of detunings gives one diagonal per detuning, as rows.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    ns = np.arange(-order, order + 1)
    diag = np.asarray(detuning, float)[..., None] + ns * params.mod_freq
    diag = diag + 1j * params.gamma
    rhs = np.zeros(2 * order + 1, complex)
    rhs[order] = params.coupling
    return HarmonicBalanceSystem(
        order=order,
        diagonal=diag,
        off_diagonal=-0.5 * params.mod_amp * params.omega_a,
        rhs=rhs,
    )


def _ladder_excitations(diagonal: np.ndarray, off: float,
                        coupling: float) -> np.ndarray:
    """The solution e_n, n in [-N, N], of the harmonic-balance ladder of each
    row of `diagonal` (d_n on it, c = `off` beside it, V = `coupling` at
    n = 0), by two continued fractions, each step run over all rows at once.

    From the edges inward, rho_n = e_n/e_{n-1} = -c/(d_n + c rho_{n+1}) for
    n = N..1 with rho_{N+1} = 0, and its mirror image sigma_{-n}; then e_0 =
    V/(d_0 + c(rho_1 + sigma_{-1})), and e_{+-n} is e_0 times the ratios out
    to +-n: the scalar matrix continued fraction (Risken, The Fokker-Planck
    Equation, ch. 9). No pivot is needed: by induction from n = N,
    Im(d_n + c rho_{n+1}) >= gamma, so no denominator is below gamma.
    """
    N = diagonal.shape[-1] // 2
    # both edges as one array: edges[..., n - 1] holds d_n and d_{-n}
    edges = np.stack([diagonal[..., N + 1:], diagonal[..., N - 1::-1]])
    ratios = np.empty(edges.shape, complex)
    ratio = np.zeros(edges.shape[:-1], complex)
    for k in range(N - 1, -1, -1):
        ratio = ratios[..., k] = -off / (edges[..., k] + off * ratio)
    e0 = coupling / (diagonal[..., N] + off * (ratio[0] + ratio[1]))
    up, down = e0[..., None] * np.cumprod(ratios, axis=-1)
    return np.concatenate([down[..., ::-1], e0[..., None], up], axis=-1)


def _hb_excitations(
    params: EmitterParams, detunings: np.ndarray, order: int
) -> tuple[np.ndarray, list]:
    """The excitation harmonics e_n of each detuning, as rows, and per row
    its SingularSystemError (zero coupling or a residual above
    RESIDUAL_TOL) or None; a failed row is not usable.

    One _ladder_excitations call solves the block; the residual check runs
    on the block.
    """
    if params.gamma == 0:
        e = np.full((len(detunings), 2 * order + 1), np.nan, complex)
        return e, [SingularSystemError("zero coupling makes the system "
                                       "singular") for _ in detunings]
    sys_ = build_harmonic_balance(params, detunings, order)
    e = _ladder_excitations(sys_.diagonal, sys_.off_diagonal, params.coupling)
    resid = (np.max(np.abs(sys_.matvec(e) - sys_.rhs), axis=1)
             / np.max(np.abs(sys_.rhs)))
    errors = [None] * len(detunings)
    for k in np.flatnonzero(~(resid < RESIDUAL_TOL)).tolist():
        errors[k] = SingularSystemError(
            f"tridiagonal solve residual {resid[k]:.3e} exceeds "
            f"{RESIDUAL_TOL:g}"
        )
    return e, errors


def harmonic_balance_solve(
    params: EmitterParams, detuning: float, order: int
) -> ExcitationSpectrum:
    """Solve the tridiagonal system by its two continued fractions
    (_ladder_excitations) and verify the residual."""
    e, errors = _hb_excitations(params, np.array([detuning], float), order)
    _replay([[]], errors)
    return ExcitationSpectrum(ns=np.arange(-order, order + 1), coeffs=e[0])


def _harmonic_balance_block(
    params: EmitterParams, detunings: np.ndarray, order: int
) -> tuple[SidebandBlock, list]:
    """The harmonic-balance amplitudes r_n = V e_n/(i v_g) and totals of
    each detuning at one order, as a block, and the rows' errors (see
    _hb_excitations)."""
    e, errors = _hb_excitations(params, detunings, order)
    ns = np.arange(-order, order + 1)
    return _assemble_block(params, detunings, ns, _amplitudes(params, e)), errors


@dataclass(frozen=True)
class TimeDomainTrace:
    """One modulation period of the periodic orbit in the frame rotating at
    omega_0 = omega_a + Delta: samples[k] = e(k dt) exp(+i omega_0 k dt),
    k = 0..n_per, with n_per dt = T_mod and samples[n_per] == samples[0]."""

    dt: float
    samples: np.ndarray       # shape (n_per+1,) or (n_per+1, n_detunings)
    detuning: np.ndarray


def _step_bound(params: EmitterParams, detunings: np.ndarray) -> float:
    scale = max(
        params.gamma,
        float(np.max(np.abs(detunings))),
        params.mod_freq,
        params.mod_amp * params.omega_a,
    )
    return 1.0 / (50.0 * scale)


def _rk4_step(params: EmitterParams, deltas: np.ndarray, t, y, dt: float):
    """One classical RK4 step of the rotating-frame equation
    y' = [i(Delta - f*Omega cos(omega t)) - gamma] y - iV, vectorised over
    step start times t (a column) and detunings (a row)."""
    fo, om = params.mod_amp * params.omega_a, params.mod_freq
    gamma, v = params.gamma, params.coupling

    def rhs(s, z):
        return (1j * (deltas - fo * np.cos(om * s)) - gamma) * z - 1j * v

    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * dt, y + 0.5 * dt * k1)
    k3 = rhs(t + 0.5 * dt, y + 0.5 * dt * k2)
    k4 = rhs(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def time_domain_excitation(params: EmitterParams, detuning) -> TimeDomainTrace:
    """RK4 orbit of the reduced equation over one period of its periodic
    steady state, in the frame rotating at omega_0.

    The equation is linear, so each RK4 step is exactly an affine map
    y -> A_k y + B_k. With P = cumprod(A) and S = cumsum(B/P) the orbit is
    y_{k+1} = P_k (y0 + S_k), and the one-period map y -> M y + M S[-1]
    (M = P[-1]) fixes the periodic start y0 = M S[-1] / (1 - M): Floquet
    shooting (Shirley, Phys. Rev. 138, B979 (1965)), with no transient to
    burn in. The iterates equal those of stepping the same RK4 from y0 up
    to round-off.

    detuning may be a scalar or an array; an array runs every column in the
    same vectorised scan. The step dt = T_mod / n_per is the largest whole
    fraction of T_mod not above 1/(50 max(gamma, |Delta|, omega, f*Omega));
    the carrier omega_0 never enters it.

    Refuses with OutOfRangeError, before allocating anything, when
    gamma*T_mod exceeds MAX_DECAY_PER_PERIOD (1/P would overflow) or when
    the orbit would hold more than MAX_TD_SAMPLES samples.
    """
    deltas = np.atleast_1d(np.asarray(detuning, float))
    om = params.mod_freq
    if om <= 0:
        raise ValueError("time-domain oracle requires mod_freq > 0")
    t_mod = 2.0 * np.pi / om
    if not params.gamma * t_mod <= MAX_DECAY_PER_PERIOD:
        raise OutOfRangeError(
            f"gamma*T_mod = {params.gamma * t_mod:.4g} exceeds the limit "
            f"{MAX_DECAY_PER_PERIOD:g} of the one-period scan; mod_freq must "
            f"be >= {2.0 * np.pi * params.gamma / MAX_DECAY_PER_PERIOD:.4g}"
        )
    steps = np.ceil(t_mod / _step_bound(params, deltas))
    if not (steps + 1) * len(deltas) <= MAX_TD_SAMPLES:
        raise OutOfRangeError(
            f"{steps:.4g} steps per period x {len(deltas)} detunings exceeds "
            f"the limit of {MAX_TD_SAMPLES} time-domain orbit samples"
        )
    n_per = int(steps)
    dt = t_mod / n_per

    t = (np.arange(n_per) * dt)[:, None]
    b = _rk4_step(params, deltas, t, 0.0, dt)
    a = _rk4_step(params, deltas, t, 1.0, dt) - b
    p = np.cumprod(a, axis=0)
    s = np.cumsum(b / p, axis=0)
    m = p[-1]
    y0 = m * s[-1] / (1.0 - m)
    orbit = np.empty((n_per + 1, len(deltas)), complex)
    orbit[0] = y0
    orbit[1:] = p * (y0 + s)
    orbit[-1] = y0  # close the period exactly; periodicity_defect checks it
    if np.ndim(detuning) == 0:
        orbit = orbit[:, 0]
    return TimeDomainTrace(dt=dt, samples=orbit, detuning=deltas)


def periodicity_defect(trace: TimeDomainTrace, params: EmitterParams) -> float:
    """Largest one-step RK4 residual of the stored orbit, relative to its
    largest sample.

    Every step k -> k+1 of the period is recomputed directly from the RK4
    stages and compared with the stored sample k+1, and the closing sample
    must equal the first. This checks the scan algebra (cumulative
    products, sums and the Floquet start) without sharing it.
    """
    z = np.atleast_2d(trace.samples.T).T
    t = (np.arange(z.shape[0] - 1) * trace.dt)[:, None]
    resid = _rk4_step(params, trace.detuning, t, z[:-1], trace.dt) - z[1:]
    closure = z[-1] - z[0]
    den = np.max(np.abs(z))
    if den == 0:
        return 0.0
    return float(max(np.max(np.abs(resid)), np.max(np.abs(closure))) / den)


def fourier_extract(trace: TimeDomainTrace, n_max: int) -> ExcitationSpectrum:
    """e_n = (1/T_mod) int_0^T_mod y(t) exp(+i n omega t) dt for |n| <= n_max.

    In the rotating frame y(t) = sum_n e_n exp(-i n omega t), and on one
    closed period of a periodic integrand the trapezoid rule is exactly the
    DFT (Trefethen & Weideman, SIAM Rev. 56, 385 (2014)), so all harmonics
    come from one inverse FFT of the period. Refuses with ValueError when
    the period holds fewer than 2*n_max + 1 samples, where harmonics alias.
    """
    n_per = trace.samples.shape[0] - 1
    if 2 * n_max + 1 > n_per:
        raise ValueError(
            f"{2 * n_max + 1} harmonics alias on {n_per} samples per period"
        )
    ns = np.arange(-n_max, n_max + 1)
    coeffs = np.fft.ifft(trace.samples[:-1], axis=0)[ns % n_per]
    return ExcitationSpectrum(ns=ns, coeffs=coeffs)


def _amplitudes(params: EmitterParams, e: np.ndarray) -> np.ndarray:
    """r_n = V e_n/(i v_g), elementwise."""
    return np.asarray(params.coupling * e / (1j * params.group_velocity),
                      complex)


def amplitudes_from_excitation(
    spec: ExcitationSpectrum, params: EmitterParams, detuning: float
) -> SidebandSet:
    """Convert an excitation spectrum to amplitudes via r_n = V e_n/(i v_g)."""
    return _one_row(_assemble_block(
        params, np.array([detuning], float), spec.ns,
        _amplitudes(params, spec.coeffs)[None],
    ))


@dataclass(frozen=True)
class ValidationReport:
    """Elementwise agreement of the three amplitude routes on one grid."""

    detunings: np.ndarray
    dev_series_hb: np.ndarray     # max_n |r_n series - r_n harmonic balance|
    dev_series_td: np.ndarray     # max_n |r_n series - r_n time domain|
    defect_series: np.ndarray
    defect_hb: np.ndarray
    defect_td: np.ndarray
    periodicity_defect: float     # one-step RK4 residual of the TD orbit
    tol_series_hb: float
    tol_td: float

    @property
    def max_dev_series_hb(self) -> float:
        return float(np.max(self.dev_series_hb))

    @property
    def max_dev_series_td(self) -> float:
        return float(np.max(self.dev_series_td))

    @property
    def passed(self) -> bool:
        return (
            self.max_dev_series_hb < self.tol_series_hb
            and self.max_dev_series_td < self.tol_td
            and self.periodicity_defect < PERIODICITY_TOL
        )


def cross_validate(
    params: EmitterParams,
    detuning,
    tol_series_hb: float = 1e-8,
    tol_td: float = 1e-3,
) -> ValidationReport:
    """Run all three routes on one or many detunings and compare amplitudes.

    The comparison window is the time-domain sideband range (the narrowest);
    outside it the other two routes have only exponentially small content.
    The series runs on all detunings at once (_converge_block) and harmonic
    balance on each converged chunk; the rows' warnings and errors are
    replayed in detuning order (_replay).
    """
    deltas = np.atleast_1d(np.asarray(detuning, float))
    n_td = 12 if params.mod_amp > 0 else 4
    trace = time_domain_excitation(params, deltas)
    td_spec = fourier_extract(trace, n_td)
    # one C-contiguous row per detuning, so that each row sums as one set
    r_td = _amplitudes(params, np.ascontiguousarray(td_spec.coeffs.T))
    td = _assemble_block(params, deltas, td_spec.ns, r_td)
    dev_hb, dev_td, d_series, d_hb = np.empty((4, len(deltas)))
    counts, errors = [[] for _ in deltas], [None] * len(deltas)
    for rows, series in _converge_block(params, deltas, 1e-11, counts, errors):
        N = int(series.ns[-1])
        hb, hb_errors = _harmonic_balance_block(params, deltas[rows], N)
        for k, err in zip(rows.tolist(), hb_errors):
            errors[k] = err
            if err is None:
                # each series window, then the harmonic-balance set on the
                # last of them, then the time-domain set
                counts[k] += [counts[k][-1], td.nonpositive[k]]
        # the series window [-N, N] holds the time-domain one
        window = series.r[:, N - n_td:N + n_td + 1]
        dev_hb[rows] = np.max(np.abs(series.r - hb.r), axis=1)
        dev_td[rows] = np.max(np.abs(window - td.r[rows]), axis=1)
        d_series[rows] = series.unitarity_defect
        d_hb[rows] = hb.unitarity_defect
    _replay(counts, errors)
    return ValidationReport(
        detunings=deltas,
        dev_series_hb=dev_hb,
        dev_series_td=dev_td,
        defect_series=d_series,
        defect_hb=d_hb,
        defect_td=td.unitarity_defect,
        periodicity_defect=periodicity_defect(trace, params),
        tol_series_hb=tol_series_hb,
        tol_td=tol_td,
    )
