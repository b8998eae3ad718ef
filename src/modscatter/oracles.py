"""Two independent routes to the same sideband amplitudes.

Both start from the reduced emitter equation of motion (the waveguide field
eliminated, leaving the linewidth gamma and the plane-wave drive):

    i de/dt = [Omega(1 + f cos(omega t)) - i gamma] e + V e^{-i omega_0 t}

* harmonic balance: expand e(t) = sum_n e_n exp(-i omega_n t); the harmonics
  couple into a tridiagonal linear system solved directly;
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
    _assemble,
    _assemble_block,
    evaluate_sidebands,
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


def _solve_tridiagonal(dl, d, du, b) -> list[complex]:
    """Solve the tridiagonal system (subdiagonal dl, diagonal d and
    superdiagonal du, sequences of Python complex) for the right side b.

    Gaussian elimination with partial pivoting, the LAPACK zgtsv algorithm
    (Golub & Van Loan, Matrix Computations, sec. 4.3): the row with the
    larger |re| + |im| in the pivot column becomes the pivot row. A swap
    fills a second superdiagonal, so each row of U is (pivot, first and
    second superdiagonal, right side), zero past the end, and no row is a
    special case. Raises SingularSystemError on a zero pivot.
    """
    rows = []
    dk, uk, bk = d[0], du[0] if du else 0j, b[0]
    for lo, d1, du1, b1 in zip(dl, d[1:], [*du[1:], 0j], b[1:]):
        if abs(lo.real) + abs(lo.imag) > abs(dk.real) + abs(dk.imag):
            m = dk / lo  # swap: row k+1 pivots, row k is eliminated
            rows.append((lo, d1, du1, b1))
            dk, uk, bk = uk - m * d1, -m * du1, bk - m * b1
        else:
            rows.append((dk, uk, 0j, bk))
            if lo:
                m = lo / dk
                d1, b1 = d1 - m * uk, b1 - m * bk
            dk, uk, bk = d1, du1, b1
    rows.append((dk, 0j, 0j, bk))
    if any(row[0] == 0 for row in rows):
        raise SingularSystemError("tridiagonal solve met a zero pivot")
    x, x1, x2 = [], 0j, 0j
    for piv, u1, u2, y in reversed(rows):
        x1, x2 = (y - u1 * x1 - u2 * x2) / piv, x1
        x.append(x1)
    return x[::-1]


def _hb_excitations(
    params: EmitterParams, detunings: np.ndarray, order: int
) -> np.ndarray:
    """The excitation harmonics e_n of each detuning, as rows.

    Each row is solved alone by _solve_tridiagonal; the residual check runs
    on the block. Raises SingularSystemError for the first failing row, in
    row order, with that row as its `row`.
    """
    if params.gamma == 0:
        raise SingularSystemError("zero coupling makes the system singular")
    sys_ = build_harmonic_balance(params, detunings, order)
    off = [complex(sys_.off_diagonal)] * (2 * order)
    rhs = sys_.rhs.tolist()
    e = np.full(sys_.diagonal.shape, np.nan, complex)
    solved, failure = 0, None
    for diag in sys_.diagonal.tolist():
        try:
            e[solved] = _solve_tridiagonal(off, diag, off, rhs)
        except SingularSystemError as err:
            failure = err
            break
        solved += 1
    resid = (np.max(np.abs(sys_.matvec(e) - sys_.rhs), axis=1)
             / np.max(np.abs(sys_.rhs)))
    bad = np.flatnonzero(~(resid[:solved] < RESIDUAL_TOL))
    if len(bad):
        failure = SingularSystemError(
            f"tridiagonal solve residual {resid[bad[0]]:.3e} exceeds "
            f"{RESIDUAL_TOL:g}",
            row=int(bad[0]),
        )
    elif failure is not None:
        failure.row = solved
    if failure is not None:
        raise failure
    return e


def harmonic_balance_solve(
    params: EmitterParams, detuning: float, order: int
) -> ExcitationSpectrum:
    """Solve the tridiagonal system with partial pivoting and verify the
    residual."""
    e = _hb_excitations(params, np.array([detuning], float), order)[0]
    return ExcitationSpectrum(ns=np.arange(-order, order + 1), coeffs=e)


def _harmonic_balance_block(
    params: EmitterParams, detunings: np.ndarray, order: int
) -> SidebandBlock:
    """The harmonic-balance amplitudes r_n = V e_n/(i v_g) and totals of
    each detuning at one order, as a block (see _hb_excitations)."""
    e = _hb_excitations(params, detunings, order)
    r = params.coupling * e / (1j * params.group_velocity)
    return _assemble_block(params, detunings, r)


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


def amplitudes_from_excitation(
    spec: ExcitationSpectrum, params: EmitterParams, detuning: float
) -> SidebandSet:
    """Convert an excitation spectrum to amplitudes via r_n = V e_n/(i v_g)."""
    r = params.coupling * spec.coeffs / (1j * params.group_velocity)
    return _assemble(params, detuning, spec.ns, np.asarray(r, complex))


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
    The series tables are built once per call and shared by every detuning.
    """
    deltas = np.atleast_1d(np.asarray(detuning, float))
    tables: dict = {}
    n_td = 12 if params.mod_amp > 0 else 4
    trace = time_domain_excitation(params, deltas)
    td_spec = fourier_extract(trace, n_td)
    dev_hb = np.empty(len(deltas))
    dev_td = np.empty(len(deltas))
    d_series = np.empty(len(deltas))
    d_hb = np.empty(len(deltas))
    d_td = np.empty(len(deltas))
    for j, d in enumerate(deltas):
        sset = evaluate_sidebands(params, d, tol=1e-11, tables=tables)
        hb = harmonic_balance_solve(params, d, order=int(sset.ns[-1]))
        hb_set = amplitudes_from_excitation(hb, params, d)
        td_coeffs = td_spec.coeffs[:, j]
        td_set = amplitudes_from_excitation(
            ExcitationSpectrum(ns=td_spec.ns, coeffs=td_coeffs), params, d
        )
        # align on the sideband window of each pair
        dev_hb[j] = _max_amplitude_dev(sset, hb_set)
        dev_td[j] = _max_amplitude_dev(sset, td_set)
        d_series[j] = sset.unitarity_defect
        d_hb[j] = hb_set.unitarity_defect
        d_td[j] = td_set.unitarity_defect
    return ValidationReport(
        detunings=deltas,
        dev_series_hb=dev_hb,
        dev_series_td=dev_td,
        defect_series=d_series,
        defect_hb=d_hb,
        defect_td=d_td,
        periodicity_defect=periodicity_defect(trace, params),
        tol_series_hb=tol_series_hb,
        tol_td=tol_td,
    )


def _max_amplitude_dev(a: SidebandSet, b: SidebandSet) -> float:
    ns = np.intersect1d(a.ns, b.ns)
    ia = ns - a.ns[0]
    ib = ns - b.ns[0]
    return float(np.max(np.abs(a.r[ia] - b.r[ib])))
