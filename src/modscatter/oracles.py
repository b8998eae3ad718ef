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
    _finite,
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
# scan is 32 MB and an oracle run peaks near 100 MB (6636 detunings) to
# 130 MB (two detunings over 1.05M steps)
MAX_TD_SAMPLES = 2**21
# orbit samples (steps x detunings) per block of the RK4 maps, of their
# check and of the Fourier phases: bounds the temporaries, whatever the period
BLOCK_SAMPLES = 2**14


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
    diag = _finite(np.asarray(detuning, float))[..., None] + ns * params.mod_freq
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
    if params.gamma == 0:  # build_harmonic_balance refuses a nan otherwise
        e = np.full((len(_finite(detunings)), 2 * order + 1), np.nan, complex)
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
    if errors[0] is not None:
        raise errors[0]
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


def _converge_with_hb(params: EmitterParams, detunings: np.ndarray,
                      tol: float, log: list):
    """_converge_block with harmonic balance at each converged chunk's
    window, yielding (rows, series, hb). After a row's series counts it logs
    the row's HB error or, if none, the HB set's own non-positive count."""
    for rows, series in _converge_block(params, detunings, tol, log):
        hb, errors = _harmonic_balance_block(
            params, detunings[rows], int(series.ns[-1]))
        for k, err, count in zip(rows.tolist(), errors,
                                 hb.nonpositive.tolist()):
            log[k].append(count if err is None else err)
        yield rows, series, hb


@dataclass(frozen=True)
class TimeDomainTrace:
    """One modulation period of the periodic orbit in the frame rotating at
    omega_0 = omega_a + Delta: samples[k] = e(k dt) exp(+i omega_0 k dt),
    k = 0..n_per, with n_per dt = T_mod and samples[n_per] == samples[0]."""

    dt: float
    samples: np.ndarray       # shape (n_per+1,) or (n_per+1, n_detunings)
    detuning: np.ndarray


def _rk4_step(params: EmitterParams, deltas: np.ndarray, t, y, dt: float):
    """One classical RK4 step of the rotating-frame equation
    y' = [i(Delta - f*Omega cos(omega t)) - gamma] y - iV, vectorised over
    step start times t (a column) and detunings (a row), stage by stage.

    The scan builds its maps from _affine_maps instead; this is the
    independent reference that periodicity_defect recomputes the orbit with.
    """
    fo, om = params.mod_amp * params.omega_a, params.mod_freq
    gamma, v = params.gamma, params.coupling

    def rhs(s, z):
        return (1j * (deltas - fo * np.cos(om * s)) - gamma) * z - 1j * v

    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * dt, y + 0.5 * dt * k1)
    k3 = rhs(t + 0.5 * dt, y + 0.5 * dt * k2)
    k4 = rhs(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _td_grid(params: EmitterParams, deltas: np.ndarray) -> tuple[int, float]:
    """The steps per period n_per and the step dt of the time-domain scan
    over deltas, or its refusal (see time_domain_excitation); allocates
    nothing."""
    _finite(deltas)
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
    bound = 1.0 / (50.0 * max(params.gamma, float(np.max(np.abs(deltas))),
                              om, params.mod_amp * params.omega_a))
    steps = np.ceil(t_mod / bound) if bound > 0 else np.inf
    if not (steps + 1) * len(deltas) <= MAX_TD_SAMPLES:
        raise OutOfRangeError(
            f"{steps:.4g} steps per period x {len(deltas)} detunings exceeds "
            f"the limit of {MAX_TD_SAMPLES} time-domain orbit samples"
        )
    n_per = int(steps)
    return n_per, t_mod / n_per


def _block_steps(columns: int) -> int:
    """Steps per block over `columns` detunings: BLOCK_SAMPLES complex
    entries, counting 16 more per step for the step's own map coefficients
    and real temporaries."""
    return max(1, BLOCK_SAMPLES // (columns + 16))


def _affine_maps(params: EmitterParams, deltas: np.ndarray, dt: float,
                 am1: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Fill row k of am1 and b with step k of the period, from t_k = k dt,
    as the affine map y -> (1 + am1[k]) y + b[k] for every detuning (a
    column each), and return log M = sum_k log(1 + am1[k]) of the
    one-period map.

    Over a step the coefficient of the equation is c = u + w(t), with
    u = i Delta - gamma and w = -i f*Omega cos(omega t). With U = u dt and
    W_j = i v_j = w dt at the step's start, midpoint and end (j = 0, 1, 2),
    RK4's four stages make 6(a - 1) the quartic

        C0 + 4C1 + C2 + C0C1 + C1^2 + C1C2 + (C0C1^2 + C1^2C2)/2 + C0C1^2C2/4

    and b/(-iV dt/6) the cubic 6 + 2C1 + C2 + (C1^2 + C1C2)/2 + C1^2C2/4
    in C_j = U + W_j. Their coefficients in powers of U, written out below
    in the real v_j, depend on the step alone, so each map is one product
    of the steps' coefficient rows with the powers of U, and a - 1 comes
    with no cancellation. The steps go in blocks of _block_steps, so that
    the temporaries stay bounded whatever the period. log M is summed in
    real parts from a - 1 = x + iy, as 1/2 log1p(2x + x^2 + y^2) +
    i atan2(y, 1 + x), which keeps its digits where M rounds to 1.
    """
    fo, om = params.mod_amp * params.omega_a, params.mod_freq
    powers = (dt * (1j * deltas - params.gamma)) ** np.arange(5)[:, None]
    to_a, to_b = powers / 6.0, powers[:4] * (-1j * params.coupling * dt / 6.0)
    log_m = np.zeros(len(deltas), complex)
    steps = _block_steps(len(deltas))
    for lo in range(0, len(am1), steps):
        hi = min(lo + steps, len(am1))
        t = np.arange(lo, hi) * dt
        v0, v1, v2 = (-dt * fo * np.cos(om * s)
                      for s in (t, t + 0.5 * dt, t + dt))
        s02, p02 = v0 + v2, v0 * v2
        r = v1 * (v1 + s02)
        ca = np.empty((hi - lo, 5), complex)
        ca.real[:, 0] = 0.25 * p02 * v1 * v1 - r
        ca.imag[:, 0] = s02 + 4.0 * v1 - 0.5 * v1 * v1 * s02
        ca.real[:, 1] = 6.0 - r
        ca.imag[:, 1] = s02 + 4.0 * v1 - 0.25 * v1 * (v1 * s02 + 2.0 * p02)
        ca.real[:, 2] = 3.0 - 0.25 * (r + v1 * s02 + p02)
        ca.imag[:, 2] = 0.5 * s02 + 2.0 * v1
        ca[:, 3] = 1.0 + 0.25j * (s02 + 2.0 * v1)
        ca[:, 4] = 0.25
        cb = np.empty((hi - lo, 4), complex)
        cb.real[:, 0] = 6.0 - 0.5 * v1 * (v1 + v2)
        cb.imag[:, 0] = 2.0 * v1 + v2 - 0.25 * v1 * v1 * v2
        cb.real[:, 1] = 3.0 - 0.25 * v1 * (v1 + 2.0 * v2)
        cb.imag[:, 1] = 1.5 * v1 + 0.5 * v2
        cb[:, 2] = 1.0 + 0.25j * (2.0 * v1 + v2)
        cb[:, 3] = 0.25
        np.matmul(ca, to_a, out=am1[lo:hi])
        np.matmul(cb, to_b, out=b[lo:hi])
        # one C-ordered row per detuning, so that the sums over the steps
        # are numpy's pairwise ones
        x, y = am1[lo:hi].real.T.copy(), am1[lo:hi].imag.T.copy()
        log_m.real += 0.5 * np.sum(np.log1p(x * (2.0 + x) + y * y), axis=1)
        log_m.imag += np.sum(np.arctan2(y, 1.0 + x), axis=1)
    return log_m


def time_domain_excitation(params: EmitterParams, detuning) -> TimeDomainTrace:
    """RK4 orbit of the reduced equation over one period of its periodic
    steady state, in the frame rotating at omega_0.

    The equation is linear, so each RK4 step is exactly an affine map
    y -> A_k y + B_k (_affine_maps). With P = cumprod(A) and S =
    cumsum(B/P) the orbit is y_{k+1} = P_k (y0 + S_k), and the one-period
    map y -> M y + M S[-1] (M = P[-1]) fixes the periodic start y0 =
    M S[-1] / (1 - M): Floquet shooting (Shirley, Phys. Rev. 138, B979
    (1965)), with no transient to burn in. 1 - M = -expm1(log M) is taken
    from the exact A_k - 1, in real parts, so y0 keeps its digits as
    gamma*T_mod -> 0, where M rounds to 1. The iterates equal those of
    stepping the same RK4 from y0 up to round-off.

    detuning may be a scalar or an array; an array runs every column in the
    same vectorised scan. The step dt = T_mod / n_per is the largest whole
    fraction of T_mod not above 1/(50 max(gamma, |Delta|, omega, f*Omega));
    the carrier omega_0 never enters it.

    Refuses with OutOfRangeError, before allocating anything, when
    gamma*T_mod exceeds MAX_DECAY_PER_PERIOD (1/P would overflow) or when
    the orbit would hold more than MAX_TD_SAMPLES samples; a rate above
    about 3.6e306, which rounds the step to 0, would need infinitely many.
    """
    deltas = np.atleast_1d(np.asarray(detuning, float))
    n_per, dt = _td_grid(params, deltas)
    orbit = np.empty((n_per + 1, len(deltas)), complex)
    a, s = np.empty((n_per, len(deltas)), complex), orbit[1:]
    log_m = _affine_maps(params, deltas, dt, a, s)  # a - 1 and B, in place
    a += 1.0
    p = np.cumprod(a, axis=0, out=a)
    np.divide(s, p, out=s)
    np.cumsum(s, axis=0, out=s)
    # 1 - M = -(exp(log M) - 1), its real part without cancellation
    one_minus_m = (2.0 * np.sin(0.5 * log_m.imag) ** 2
                   - np.expm1(log_m.real) * np.cos(log_m.imag)
                   - 1j * np.exp(log_m.real) * np.sin(log_m.imag))
    y0 = p[-1] * s[-1] / one_minus_m
    orbit[0] = y0
    np.multiply(p, np.add(s, y0, out=s), out=s)
    orbit[-1] = y0  # close the period exactly; periodicity_defect checks it
    if np.ndim(detuning) == 0:
        orbit = orbit[:, 0]
    return TimeDomainTrace(dt=dt, samples=orbit, detuning=deltas)


def periodicity_defect(trace: TimeDomainTrace, params: EmitterParams) -> float:
    """Largest one-step RK4 residual of the stored orbit, relative to its
    largest sample.

    Every step k -> k+1 of the period is recomputed directly from the RK4
    stages (_rk4_step), a block of steps at a time (_block_steps), and
    compared with the stored sample k+1, and the closing sample must equal
    the first. This checks the scan algebra (the polynomial maps, the
    cumulative products and sums, and the Floquet start) without sharing
    it.
    """
    z = np.atleast_2d(trace.samples.T).T
    den = np.max(np.abs(z))
    if den == 0:
        return 0.0
    worst = np.max(np.abs(z[-1] - z[0]))
    steps = _block_steps(z.shape[1])
    for lo in range(0, z.shape[0] - 1, steps):
        hi = min(lo + steps, z.shape[0] - 1)
        t = (np.arange(lo, hi) * trace.dt)[:, None]
        step = _rk4_step(params, trace.detuning, t, z[lo:hi], trace.dt)
        worst = max(worst, np.max(np.abs(step - z[lo + 1:hi + 1])))
    return float(worst / den)


def fourier_extract(trace: TimeDomainTrace, n_max: int) -> ExcitationSpectrum:
    """e_n = (1/T_mod) int_0^T_mod y(t) exp(+i n omega t) dt for |n| <= n_max.

    In the rotating frame y(t) = sum_n e_n exp(-i n omega t), and on one
    closed period of a periodic integrand the trapezoid rule is exactly the
    DFT (Trefethen & Weideman, SIAM Rev. 56, 385 (2014)). Only the
    2*n_max + 1 compared harmonics are taken, as a DFT whose phases come
    from one table of the n_per roots of unity, indexed by (n k) mod n_per,
    so its cost grows with the window, not with a transform of the whole
    period. The harmonics go in chunks, so that no phase block holds more
    than max(BLOCK_SAMPLES, n_per) entries. Refuses with ValueError when
    the period holds fewer than 2*n_max + 1 samples, where harmonics alias.
    """
    n_per = trace.samples.shape[0] - 1
    if 2 * n_max + 1 > n_per:
        raise ValueError(
            f"{2 * n_max + 1} harmonics alias on {n_per} samples per period"
        )
    ns = np.arange(-n_max, n_max + 1)
    y = trace.samples[:-1]
    # exp(2 pi i k/n_per), its upper half the conjugate of the lower
    half = np.exp((2j * np.pi / n_per) * np.arange(n_per // 2 + 1))
    roots = np.concatenate([half, half[(n_per + 1) // 2 - 1:0:-1].conj()])
    chunk = max(1, BLOCK_SAMPLES // n_per)
    coeffs = np.empty((len(ns),) + y.shape[1:], complex)
    for lo in range(0, len(ns), chunk):
        index = np.multiply.outer(ns[lo:lo + chunk] % n_per, np.arange(n_per))
        np.remainder(index, n_per, out=index)
        coeffs[lo:lo + chunk] = (roots[index] @ y) / n_per
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
        params, _finite(np.array([detuning], float)), spec.ns,
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
    The routes run cheapest first: the time-domain refusals (_td_grid),
    which allocate nothing; the series on all detunings at once
    with harmonic balance on each converged chunk (_converge_with_hb); the
    rows' warnings and first error, replayed in detuning order (_replay);
    and only then the time-domain scan.
    """
    deltas = np.atleast_1d(np.asarray(detuning, float))
    _td_grid(params, deltas)
    n_td = 12 if params.mod_amp > 0 else 4
    window = np.empty((len(deltas), 2 * n_td + 1), complex)
    dev_hb, d_series, d_hb = np.empty((3, len(deltas)))
    log = [[] for _ in deltas]
    for rows, series, hb in _converge_with_hb(params, deltas, 1e-11, log):
        # the series window [-N, N] holds the time-domain orders, and the
        # series on them counts the time-domain set's sidebands at
        # omega_n <= 0; a row's count after its error is not replayed
        N = int(series.ns[-1])
        on_td = slice(N - n_td, N + n_td + 1)
        shared = _assemble_block(params, deltas[rows], series.ns[on_td],
                                 series.r[:, on_td])
        for k, count in zip(rows.tolist(), shared.nonpositive.tolist()):
            log[k].append(count)
        window[rows] = shared.r
        dev_hb[rows] = np.max(np.abs(series.r - hb.r), axis=1)
        d_series[rows] = series.unitarity_defect
        d_hb[rows] = hb.unitarity_defect
    _replay(log)
    trace = time_domain_excitation(params, deltas)
    td_spec = fourier_extract(trace, n_td)
    # one C-contiguous row per detuning, so that each row sums as one set
    r_td = _amplitudes(params, np.ascontiguousarray(td_spec.coeffs.T))
    td = _assemble_block(params, deltas, td_spec.ns, r_td)
    return ValidationReport(
        detunings=deltas,
        dev_series_hb=dev_hb,
        dev_series_td=np.max(np.abs(window - td.r), axis=1),
        defect_series=d_series,
        defect_hb=d_hb,
        defect_td=td.unitarity_defect,
        periodicity_defect=periodicity_defect(trace, params),
        tol_series_hb=tol_series_hb,
        tol_td=tol_td,
    )
