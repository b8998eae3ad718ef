import dataclasses
import gc
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modscatter import (
    EmitterParams,
    ExcitationSpectrum,
    OutOfRangeError,
    SingularSystemError,
    TimeDomainTrace,
    TruncationError,
    amplitudes_from_excitation,
    build_harmonic_balance,
    cross_validate,
    evaluate_sidebands,
    fourier_extract,
    harmonic_balance_solve,
    normalized_params,
    periodicity_defect,
    time_domain_excitation,
)
from conftest import (
    assemble_row, count_bessel_calls, record_block_shapes, rows_alone,
    same_bits, table_refs,
)
from modscatter import oracles, scattering
from modscatter.cli import main


class TestHarmonicBalanceStructure:
    def test_matrix_layout(self, params_reference):
        sys_ = build_harmonic_balance(params_reference, 0.7, order=4)
        ns = np.arange(-4, 5)
        np.testing.assert_allclose(
            sys_.diagonal, 0.7 + 2.0 * ns + 1j, rtol=0, atol=1e-15
        )
        assert sys_.off_diagonal == pytest.approx(-2.5)
        assert sys_.rhs[4] == 1.0
        assert np.count_nonzero(sys_.rhs) == 1

    def test_matvec_applies_tridiagonal(self, params_reference):
        sys_ = build_harmonic_balance(params_reference, 0.3, order=3)
        e = np.arange(7, dtype=complex)
        full = np.diag(sys_.diagonal) + sys_.off_diagonal * (
            np.diag(np.ones(6), 1) + np.diag(np.ones(6), -1)
        )
        np.testing.assert_allclose(sys_.matvec(e), full @ e, rtol=0, atol=1e-13)

    def test_rejects_zero_order(self, params_reference):
        with pytest.raises(ValueError):
            build_harmonic_balance(params_reference, 0.0, order=0)


class TestHarmonicBalanceSolve:
    def test_undriven_limit_fixes_the_drive_sign(self, params_unmodulated):
        """With the modulation off the only harmonic is the carrier, and the
        excitation must reproduce the Lorentzian reflection through
        r_0 = V e_0 / (i v_g)."""
        for delta in (-4.0, -0.5, 0.0, 2.0, 9.0):
            spec = harmonic_balance_solve(params_unmodulated, delta, order=3)
            center = np.where(spec.ns == 0)[0][0]
            assert spec.coeffs[center] == pytest.approx(
                1.0 / (delta + 1j), abs=1e-14
            )
            off = np.delete(spec.coeffs, center)
            assert np.max(np.abs(off)) < 1e-14

    def test_weak_drive_sidebands_scale_linearly(self):
        mags = []
        for amp in (1e-1, 1e-2, 1e-3):
            p = normalized_params(amp, 2.0)
            spec = harmonic_balance_solve(p, 0.7, order=6)
            center = np.where(spec.ns == 0)[0][0]
            mags.append(abs(spec.coeffs[center + 1]))
        assert mags[0] / mags[1] == pytest.approx(10.0, rel=1e-2)
        assert mags[1] / mags[2] == pytest.approx(10.0, rel=1e-3)

    def test_residual_is_certified(self, params_reference):
        sys_ = build_harmonic_balance(params_reference, 1.3, order=20)
        spec = harmonic_balance_solve(params_reference, 1.3, order=20)
        resid = np.max(np.abs(sys_.matvec(spec.coeffs) - sys_.rhs))
        assert resid < 1e-12

    def test_spectral_convergence_under_doubling(self, params_reference):
        a = harmonic_balance_solve(params_reference, 0.7, order=16)
        b = harmonic_balance_solve(params_reference, 0.7, order=32)
        ia = np.isin(b.ns, a.ns)
        assert np.max(np.abs(b.coeffs[ia] - a.coeffs)) < 1e-10

    def test_matches_series_route(self, params_reference):
        for delta in (-3.0, 0.0, 1.2):
            sset = evaluate_sidebands(params_reference, delta, tol=1e-12)
            order = int(sset.ns[-1])
            spec = harmonic_balance_solve(params_reference, delta, order=order)
            hb_set = amplitudes_from_excitation(spec, params_reference, delta)
            assert np.max(np.abs(hb_set.r - sset.r)) < 1e-12

    def test_dark_emitter_is_singular(self):
        dark = EmitterParams(
            omega_a=1000.0, mod_amp=0.005, mod_freq=2.0,
            coupling=0.0, group_velocity=1.0,
        )
        with pytest.raises(SingularSystemError):
            harmonic_balance_solve(dark, 0.0, order=4)

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(
        amp=st.floats(min_value=0.0, max_value=10.0),
        freq=st.floats(min_value=0.1, max_value=20.0),
        delta=st.floats(min_value=-10.0, max_value=10.0),
    )
    def test_hypothesis_matches_series_route(self, amp, freq, delta):
        # the ladder runs to twice the series window: cut at the window
        # itself it is too short where |delta|/omega nears u (5.7e-7 off
        # at f*Omega = 10, omega = 0.3, delta = -10)
        p = normalized_params(amp, freq)
        sset = evaluate_sidebands(p, delta)
        n = int(sset.ns[-1])
        hb_set = amplitudes_from_excitation(
            harmonic_balance_solve(p, delta, order=2 * n), p, delta
        )
        assert np.max(np.abs(hb_set.r[n : 3 * n + 1] - sset.r)) < 1e-8


def assert_solves(params, deltas, order):
    """The continued-fraction solve of every row against numpy's dense LU
    of that row's system: a scaled residual below 1e-13, and agreement
    with the dense solution to within the condition number times 1e-13."""
    sys_ = build_harmonic_balance(params, deltas, order)
    e = oracles._ladder_excitations(sys_.diagonal, sys_.off_diagonal,
                                    params.coupling)
    off = np.full(2 * order, sys_.off_diagonal)
    for d, x in zip(sys_.diagonal, e):
        a = np.diag(d) + np.diag(off, -1) + np.diag(off, 1)
        ref = np.linalg.solve(a, sys_.rhs)
        scale = (np.linalg.norm(a, np.inf) * np.max(np.abs(x))
                 + np.max(np.abs(sys_.rhs)))
        assert np.max(np.abs(a @ x - sys_.rhs)) < 1e-13 * scale
        bound = 1e-13 * np.linalg.cond(a, np.inf) * np.max(np.abs(ref))
        assert np.max(np.abs(x - ref)) < bound


class TestTridiagonalSolve:
    """_ladder_excitations, the two continued fractions, on harmonic-balance
    ladders of order N: seeded random (f*Omega, omega) with random
    detunings and the near-resonant rows Delta = -n*omega, where d_n is
    i*gamma alone."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 43, 50, 512])
    def test_matches_dense_solve_on_random_systems(self, n):
        rng = np.random.default_rng(n)
        for _ in range(1 if n > 100 else 4):
            amp, freq = rng.uniform(0.0, 30.0), rng.uniform(0.1, 20.0)
            resonant = -np.arange(-min(n, 5), min(n, 5) + 1) * freq
            deltas = np.concatenate([rng.uniform(-10.0, 10.0, 3), resonant])
            if n > 100:
                deltas = deltas[[0, 1, 3, 8]]
            assert_solves(normalized_params(amp, freq), deltas, n)

    def test_small_linewidth_in_raw_units(self):
        # gamma = V^2/v_g = 2.5e-3 against f*Omega = 4 and omega = 0.5
        params = EmitterParams(omega_a=40.0, mod_amp=0.1, mod_freq=0.5,
                               coupling=0.05, group_velocity=1.0)
        assert params.gamma < 3e-3
        deltas = np.concatenate([np.linspace(-6.0, 6.0, 7),
                                 -np.arange(-5, 6) * params.mod_freq])
        assert_solves(params, deltas, 40)


class TestTimeDomain:
    def test_dark_emitter_stays_dark(self):
        dark = EmitterParams(
            omega_a=1000.0, mod_amp=0.0, mod_freq=2.0,
            coupling=0.0, group_velocity=1.0,
        )
        trace = time_domain_excitation(dark, 0.5)
        assert np.all(trace.samples == 0.0)

    def test_undriven_relaxes_to_the_lorentzian_fixed_point(self):
        p = normalized_params(0.0, 2.0)
        delta = 1.3
        trace = time_domain_excitation(p, delta)
        target = 1.0 / (delta + 1j)
        assert np.max(np.abs(trace.samples - target)) < 1e-12

    def test_batched_detunings_match_scalar_runs(self, params_reference):
        batch = time_domain_excitation(params_reference, np.array([-1.0, 2.0]))
        solo = time_domain_excitation(params_reference, 2.0)
        np.testing.assert_allclose(
            batch.samples[:, 1], solo.samples, rtol=0, atol=1e-14
        )

    def test_reaches_periodic_steady_state(self, params_reference):
        trace = time_domain_excitation(params_reference, 0.7)
        n_per = trace.samples.shape[0] - 1
        assert n_per * trace.dt == pytest.approx(np.pi, rel=1e-15)
        assert periodicity_defect(trace, params_reference) < 1e-12

    @pytest.mark.parametrize("where", [0, 400, -1])
    def test_defect_sees_a_perturbed_sample(self, params_reference, where):
        trace = time_domain_excitation(params_reference, np.array([-1.0, 0.7]))
        samples = trace.samples.copy()
        samples[where, 1] += 1e-8
        bad = dataclasses.replace(trace, samples=samples)
        assert periodicity_defect(bad, params_reference) > 1e-9

    def test_requires_running_modulation(self, params_static_amp):
        with pytest.raises(ValueError):
            time_domain_excitation(params_static_amp, 0.0)


def rk4_loop(params, delta, dt, n_steps, y):
    """Plain RK4 stepping of the rotating-frame equation, one step at a
    time, from y at t = 0; returns all n_steps + 1 iterates."""
    fo = params.mod_amp * params.omega_a
    om, gamma, v = params.mod_freq, params.gamma, params.coupling

    def rhs(t, z):
        return (1j * (delta - fo * math.cos(om * t)) - gamma) * z - 1j * v

    ys = [y]
    for k in range(n_steps):
        t = k * dt
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * dt, y + 0.5 * dt * k1)
        k3 = rhs(t + 0.5 * dt, y + 0.5 * dt * k2)
        k4 = rhs(t + dt, y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        ys.append(y)
    return np.array(ys)


def burn_in_reference(params, delta, dt):
    """The transient route: RK4 from e(0) = 0 through a burn-in of 20 decay
    times (whole periods), then e_n = (1/T_w) int y(t) exp(+i n omega t) dt
    by the trapezoid rule over the next 20 periods."""
    t_mod = 2.0 * np.pi / params.mod_freq
    t_a = np.ceil((20.0 / params.gamma) / t_mod) * t_mod
    t_b = t_a + 20 * t_mod
    i_a, i_b = int(round(t_a / dt)), int(round(t_b / dt))
    y = rk4_loop(params, delta, dt, i_b, 0j)[i_a:]
    times = np.arange(i_a, i_b + 1) * dt
    ns = np.arange(-12, 13)
    phase = np.exp(1j * params.mod_freq * np.outer(times, ns))
    return np.trapezoid(y[:, None] * phase, dx=dt, axis=0) / (t_b - t_a)


class TestFloquetShooting:
    @pytest.mark.parametrize("amp, freq", [(5.0, 2.0), (5.0, 8.0)])
    def test_matches_the_burn_in_transient(self, amp, freq):
        p = normalized_params(amp, freq)
        deltas = np.array([-6.0, 0.7, 3.0])
        trace = time_domain_excitation(p, deltas)
        scan = fourier_extract(trace, 12).coeffs
        for j, d in enumerate(deltas):
            ref = burn_in_reference(p, d, trace.dt)
            assert np.max(np.abs(scan[:, j] - ref)) < 1e-9, d

    @settings(max_examples=25, deadline=None, derandomize=True,
              database=None)
    @given(
        amp=st.floats(min_value=0.0, max_value=10.0),
        freq=st.floats(min_value=0.1, max_value=20.0),
        delta=st.floats(min_value=-10.0, max_value=10.0),
    )
    def test_scan_equals_stepping_from_its_start(self, amp, freq, delta):
        p = normalized_params(amp, freq)
        trace = time_domain_excitation(p, delta)
        scan = trace.samples
        loop = rk4_loop(p, delta, trace.dt, len(scan) - 1, scan[0])
        assert np.max(np.abs(loop - scan)) <= 1e-12 * np.max(np.abs(scan))

    def test_report_carries_the_defect(self, params_reference, monkeypatch):
        deltas = np.array([0.0, 1.0])
        report = cross_validate(params_reference, deltas)
        assert report.periodicity_defect < 1e-12
        assert report.passed
        monkeypatch.setattr(oracles, "periodicity_defect",
                            lambda trace, params: 1e-8)
        assert not cross_validate(params_reference, deltas).passed


@pytest.fixture
def no_scan(monkeypatch):
    # refused inputs must stop before the scan allocates anything
    def fail(*args, **kwargs):
        raise AssertionError("refused input reached the scan")

    monkeypatch.setattr(np, "cumprod", fail)


class TestTimeDomainLimits:
    @pytest.mark.usefixtures("no_scan")
    def test_slow_modulation_is_refused(self):
        with pytest.raises(OutOfRangeError, match="600"):
            time_domain_excitation(normalized_params(5.0, 0.001), 0.0)

    @pytest.mark.usefixtures("no_scan")
    def test_oversized_orbit_is_refused(self, params_reference):
        deltas = np.linspace(-50.0, 50.0, 300)
        with pytest.raises(OutOfRangeError, match=str(2**21)):
            time_domain_excitation(params_reference, deltas)

    @pytest.mark.parametrize("deltas, samples", [
        (np.linspace(-10.0, 10.0, 21), 33_012),
        (np.linspace(-50.0, 50.0, 21), 164_955),
    ])
    def test_standard_grids_stay_accepted(self, deltas, samples):
        trace = time_domain_excitation(normalized_params(5.0, 2.0), deltas)
        assert trace.samples.size == samples

    def test_slowest_accepted_modulation_keeps_the_scan_exact(self):
        # gamma*T_mod = 599: 1/P reaches about exp(599) within the period
        p = normalized_params(2.0, 2.0 * np.pi / 599.0)
        trace = time_domain_excitation(p, 0.5)
        scan = trace.samples
        loop = rk4_loop(p, 0.5, trace.dt, len(scan) - 1, scan[0])
        assert np.max(np.abs(loop - scan)) <= 1e-12 * np.max(np.abs(scan))
        assert periodicity_defect(trace, p) < 1e-12

    @pytest.mark.usefixtures("no_scan")
    def test_series_domain_is_refused_before_the_scan(self):
        # u = f*Omega/omega = 1e3 is past the Bessel domain of the series
        with pytest.raises(OutOfRangeError,
                           match="argument 1000.0 outside validated domain"):
            cross_validate(normalized_params(1000.0, 1.0),
                           np.array([0.0, 1.0]))

    @pytest.mark.usefixtures("no_scan")
    @pytest.mark.parametrize("amp, freq, n, error, message", [
        (1000.0, 0.001, 2, OutOfRangeError, "600"),
        (1000.0, 1.0, 300, OutOfRangeError, str(2**21)),
        (5e5, 1.0, 2, OutOfRangeError, str(2**21)),
        (5.0, 0.0, 2, ValueError, "mod_freq > 0"),
        # f*Omega or omega near the float64 maximum rounds the step to 0
        (1e307, 2.0, 3, OutOfRangeError, "inf steps per period"),
        (2.0, 1e307, 3, OutOfRangeError, "inf steps per period"),
        (0.0, 1e307, 3, OutOfRangeError, "inf steps per period"),
    ])
    def test_time_domain_refusals_still_come_first(self, amp, freq, n, error,
                                                   message):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # f = amp/Omega is not small
            params = normalized_params(amp, freq)
        with pytest.raises(error, match=message):
            cross_validate(params, np.linspace(-1.0, 1.0, n))

    @pytest.mark.usefixtures("no_scan")
    @pytest.mark.parametrize("amp, freq, deltas", [
        (1e307, 2.0, [-1.0, 0.0, 1.0]),
        (2.0, 1e307, [0.0]),
        (2.0, 2.0, [1e307, 0.5, 1.0]),
        (2.0, 2.0, [-1.7e308]),
    ])
    def test_step_rounding_to_zero_is_refused(self, amp, freq, deltas):
        # 50 max(gamma, |Delta|, omega, f*Omega) overflows, so the step
        # bound is 0: refused up front, with no numpy warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # f = amp/Omega is not small
            params = normalized_params(amp, freq)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for route in (time_domain_excitation, cross_validate):
                with pytest.raises(OutOfRangeError,
                                   match="inf steps per period"):
                    route(params, np.array(deltas))

    def test_series_failure_is_raised_before_the_scan(self, monkeypatch):
        # u = 999 is inside the Bessel domain, but the series converges only
        # to u of about 484; its TruncationError comes before any orbit
        def fail(*args, **kwargs):
            raise AssertionError("a failing series reached the scan")

        monkeypatch.setattr(oracles, "time_domain_excitation", fail)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # f = amp/Omega is not small
            params = normalized_params(999.0, 1.0)
        with pytest.raises(TruncationError) as info:
            cross_validate(params, np.array([0.0, 1.0]))
        assert str(info.value) == ("unitarity defect 6.715e-04 still above "
                                   "tol=1e-11 at sideband_max=512")


def rk4_maps_reference(params, deltas, n_per, dt):
    """Each step's affine map y -> a y + b from two stage-by-stage RK4
    steps, of y = 1 and of y = 0."""
    t = (np.arange(n_per) * dt)[:, None]
    b = oracles._rk4_step(params, deltas, t, 0.0, dt)
    return oracles._rk4_step(params, deltas, t, 1.0, dt) - b, b


def assert_maps_match_rk4(params, deltas):
    n_per, dt = oracles._td_grid(params, deltas)
    am1, b = np.empty((2, n_per, len(deltas)), complex)
    log_m = oracles._affine_maps(params, deltas, dt, am1, b)
    a_ref, b_ref = rk4_maps_reference(params, deltas, n_per, dt)
    assert np.max(np.abs(1.0 + am1 - a_ref)) <= 1e-15
    assert np.max(np.abs(b - b_ref)) <= 2e-15 * np.max(np.abs(b_ref))
    # log M against the exactly rounded sums of the reference's logs
    logs = np.log(a_ref)
    for j in range(len(deltas)):
        ref = complex(math.fsum(logs[:, j].real), math.fsum(logs[:, j].imag))
        assert abs(log_m[j] - ref) <= 1e-15 * n_per
    return n_per, b


class TestAffineMaps:
    """_affine_maps writes each RK4 step as y -> (1 + am1) y + b from
    polynomials in U = (i Delta - gamma) dt; a stage-by-stage RK4 step
    (_rk4_step) of y = 1 and y = 0 is the reference."""

    @settings(max_examples=30, deadline=None, derandomize=True,
              database=None)
    @given(
        amp=st.floats(min_value=0.0, max_value=30.0),
        freq=st.floats(min_value=0.2, max_value=20.0),
        deltas=st.lists(st.floats(min_value=-40.0, max_value=40.0),
                        min_size=1, max_size=5),
    )
    def test_maps_equal_the_stage_by_stage_step(self, amp, freq, deltas):
        assert_maps_match_rk4(normalized_params(amp, freq), np.array(deltas))

    @pytest.mark.parametrize("amp, freq, deltas", [
        (0.0, 2.0, [-3.0, 0.0, 1.5]),          # f*Omega = 0
        (5.0, 2.0, [0.7]),                      # one detuning
        (2.0, 2.0 * np.pi / 599.0, [0.5]),      # gamma*T_mod = 599
    ], ids=["unmodulated", "one-detuning", "gamma-T-599"])
    def test_edges(self, amp, freq, deltas):
        assert_maps_match_rk4(normalized_params(amp, freq), np.array(deltas))

    def test_maps_stitch_across_blocks(self):
        deltas = np.array([-2.0, 0.3])
        n_per, _ = assert_maps_match_rk4(normalized_params(10.0, 0.3), deltas)
        assert n_per == 10472 > 10 * oracles._block_steps(len(deltas))

    def test_dark_emitter_has_no_drive(self):
        dark = EmitterParams(omega_a=1000.0, mod_amp=0.005, mod_freq=2.0,
                             coupling=0.0, group_velocity=1.0)
        _, b = assert_maps_match_rk4(dark, np.array([-1.0, 0.5]))
        assert np.all(b == 0.0)


@pytest.mark.filterwarnings("ignore:.*non-positive frequency")
class TestFastModulation:
    """At gamma*T_mod -> 0 the one-period map M rounds to 1; the Floquet
    start takes 1 - M from the exact a - 1 instead."""

    @pytest.mark.parametrize("freq", [1e6, 1e10, 1e20, 1e300])
    def test_report_passes_with_the_time_domain_at_round_off(self, freq):
        report = cross_validate(normalized_params(5.0, freq),
                                np.linspace(-2.0, 2.0, 3))
        assert report.passed
        assert report.max_dev_series_td < 1e-12
        assert report.periodicity_defect < 1e-12


class TestTimeDomainMemory:
    # tracemalloc peaks of the scan that evaluated RK4 twice over the whole
    # (steps x detunings) array and projected by a whole-period inverse FFT,
    # measured on this case (n_per 31416) with numpy 2.4.6
    @pytest.mark.parametrize("deltas, bound_mb", [
        ([0.5], 3.905), ([-1.0, 0.5], 7.290)])
    def test_long_period_peak_stays_below_the_measured_bound(self, deltas,
                                                              bound_mb):
        params, deltas = normalized_params(5.0, 0.05), np.array(deltas)
        tracemalloc.start()
        try:
            trace = time_domain_excitation(params, deltas)
            fourier_extract(trace, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.samples.shape[0] - 1 == 31416
        assert peak <= bound_mb * 1e6


def synthetic_trace(coeff_map, omega=2.0, per=256):
    """One closed period in the rotating frame: y(t) = sum c_n e^{-i n omega t}."""
    dt = 2.0 * np.pi / omega / per
    times = np.arange(per + 1) * dt
    samples = np.zeros(per + 1, complex)
    for n, c in coeff_map.items():
        samples += c * np.exp(-1j * n * omega * times)
    samples[-1] = samples[0]
    return TimeDomainTrace(dt=dt, samples=samples, detuning=np.array([0.0]))


class TestFourierExtract:
    def test_recovers_planted_harmonics(self):
        planted = {0: 0.8, 1: 0.3j, -2: -0.1 + 0.05j}
        trace = synthetic_trace(planted)
        spec = fourier_extract(trace, n_max=3)
        for n, c in planted.items():
            idx = np.where(spec.ns == n)[0][0]
            assert spec.coeffs[idx] == pytest.approx(c, abs=1e-12)
        others = [i for i, n in enumerate(spec.ns) if n not in planted]
        assert np.max(np.abs(spec.coeffs[others])) < 1e-12

    def test_linearity(self):
        a = synthetic_trace({0: 0.5})
        b = synthetic_trace({1: 0.25})
        both = synthetic_trace({0: 0.5, 1: 0.25})
        sa = fourier_extract(a, 2).coeffs
        sb = fourier_extract(b, 2).coeffs
        sboth = fourier_extract(both, 2).coeffs
        np.testing.assert_allclose(sboth, sa + sb, rtol=0, atol=1e-12)

    def test_aliasing_harmonics_are_refused(self):
        trace = synthetic_trace({0: 1.0}, per=8)
        assert fourier_extract(trace, 3).coeffs[3] == pytest.approx(1.0)
        with pytest.raises(ValueError, match="alias"):
            fourier_extract(trace, 4)

    def test_equals_the_trapezoid_rule_on_a_batch(self, params_reference):
        """The DFT of the closed period is the trapezoid rule over it, column
        by column."""
        trace = time_domain_excitation(params_reference, np.array([-1.0, 2.0]))
        n_per = trace.samples.shape[0] - 1
        times = np.arange(n_per + 1) * trace.dt
        ns = np.arange(-12, 13)
        phase = np.exp(1j * params_reference.mod_freq * np.outer(times, ns))
        for j in range(2):
            trap = np.trapezoid(trace.samples[:, j, None] * phase, dx=trace.dt,
                                axis=0) / (n_per * trace.dt)
            dft = fourier_extract(trace, 12).coeffs[:, j]
            assert np.max(np.abs(dft - trap)) < 1e-14


def ifft_reference(trace, n_max):
    """The harmonics of the whole period's inverse FFT."""
    n_per = trace.samples.shape[0] - 1
    ns = np.arange(-n_max, n_max + 1)
    return np.fft.ifft(trace.samples[:-1], axis=0)[ns % n_per]


def assert_matches_ifft(trace, n_max):
    spec = fourier_extract(trace, n_max)
    np.testing.assert_array_equal(spec.ns, np.arange(-n_max, n_max + 1))
    err = np.max(np.abs(spec.coeffs - ifft_reference(trace, n_max)))
    assert err <= 1e-15 * np.max(np.abs(trace.samples))


class TestFourierExtractMatchesTheInverseFFT:
    """fourier_extract takes only the compared harmonics, as a DFT from a
    table of roots of unity; the inverse FFT of the whole period is the
    reference."""

    @pytest.mark.parametrize("per, n_max", [
        (8, 3), (7, 3), (9, 4), (256, 12), (1571, 12), (1571, 785),
        (20000, 40)])
    def test_one_dimensional_traces(self, per, n_max):
        rng = np.random.default_rng(per)
        samples = rng.normal(size=per + 1) + 1j * rng.normal(size=per + 1)
        samples[-1] = samples[0]
        trace = TimeDomainTrace(dt=0.1, samples=samples,
                                detuning=np.array([0.0]))
        assert_matches_ifft(trace, n_max)

    @pytest.mark.parametrize("amp, freq, deltas", [
        (5.0, 2.0, np.linspace(-10.0, 10.0, 21)),
        (5.0, 8.0, np.array([-1.0, 2.0])),
        (2.0, 2.0, np.array([0.0])),
        (10.0, 0.3, np.array([-2.0, 0.3])),
        (5.0, 0.05, np.array([-1.0, 0.5])),  # one harmonic per phase block
    ])
    def test_batched_orbits(self, amp, freq, deltas):
        trace = time_domain_excitation(normalized_params(amp, freq), deltas)
        for n_max in (4, 12, 40):
            assert_matches_ifft(trace, n_max)

    @pytest.mark.parametrize("per", [8, 315, 1571, 20000])
    def test_constant_orbit(self, per):
        """Every term of e_0 adds with one sign here, and the DFT sums in
        sequence, so its error grows like n_per eps (the FFT's like
        log n_per eps): about 2e-13 relative at n_per = 20000."""
        c = np.array([0.48 - 0.37j, -1.5 + 0.25j])
        trace = TimeDomainTrace(dt=0.1, samples=np.tile(c, (per + 1, 1)),
                                detuning=np.zeros(2))
        expected = np.zeros((7, 2), complex)
        expected[3] = c
        err = np.max(np.abs(fourier_extract(trace, 3).coeffs - expected))
        assert err <= per * 2.2e-16 * np.max(np.abs(c))

    def test_scalar_orbit(self, params_reference):
        assert_matches_ifft(time_domain_excitation(params_reference, 0.7), 12)

    def test_aliasing_edge(self):
        trace = synthetic_trace({0: 1.0, 3: 0.5j, -3: -0.25}, per=8)
        assert_matches_ifft(trace, 3)
        with pytest.raises(ValueError, match="alias"):
            fourier_extract(trace, 4)


class TestCrossValidation:
    def test_undriven_grid_three_routes_agree(self, params_unmodulated):
        report = cross_validate(params_unmodulated, np.array([-2.0, 0.0, 1.5]))
        assert report.passed
        assert report.max_dev_series_hb < 1e-12
        assert report.max_dev_series_td < 1e-7

    def test_reference_point_three_routes_agree(self, params_reference):
        report = cross_validate(params_reference, np.array([-2.0, 0.7, 3.0]))
        assert report.passed
        assert report.max_dev_series_hb < 1e-10
        assert report.max_dev_series_td < 1e-6
        assert np.all(report.defect_series < 1e-10)

    def test_report_records_the_grid(self, params_reference):
        deltas = np.array([0.0, 1.0])
        report = cross_validate(params_reference, deltas)
        np.testing.assert_array_equal(report.detunings, deltas)
        assert report.dev_series_hb.shape == deltas.shape
        assert report.dev_series_td.shape == deltas.shape


class TestSeriesTablesPerCall:
    """cross_validate builds the series tables once per call, not per detuning."""

    def test_default_grid_csv_is_byte_identical(self, monkeypatch, tmp_path):
        """The default oracle in blocks with shared tables writes the bytes
        of one-row blocks with fresh tables."""
        shared, per_row = tmp_path / "shared.csv", tmp_path / "per_row.csv"
        assert main(["oracle", "--precision", "16", "--out", str(shared)]) == 0
        rows_alone(monkeypatch)
        assert main(["oracle", "--precision", "16", "--out", str(per_row)]) == 0
        assert per_row.read_bytes() == shared.read_bytes()

    # u = 2.5 takes the Bessel power series, u = 12 Miller
    @pytest.mark.parametrize("amp, freq", [(5.0, 2.0), (12.0, 1.0)])
    def test_one_bessel_call_per_distinct_window(self, monkeypatch, amp, freq):
        params, deltas = normalized_params(amp, freq), np.linspace(-10, 10, 21)
        calls = count_bessel_calls(monkeypatch)
        cross_validate(params, deltas)
        shared = list(calls)
        calls.clear()
        rows_alone(monkeypatch)
        cross_validate(params, deltas)
        assert len(calls) >= len(deltas)
        assert sorted(shared) == sorted(set(calls))

    def test_no_table_outlives_the_call(self, monkeypatch, params_reference):
        refs = table_refs(monkeypatch)
        cross_validate(params_reference, np.linspace(-10, 10, 21))
        gc.collect()
        assert refs
        assert all(ref() is None for ref in refs)


def raw_params(omega_a, amp, freq):
    """gamma = 1 with Omega = omega_a, f*Omega = amp and omega = freq; at
    small Omega the low sidebands fall at omega_n <= 0."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # f = amp/Omega is not small
        return EmitterParams(omega_a=omega_a, mod_amp=amp / omega_a,
                             mod_freq=freq, coupling=1.0, group_velocity=1.0)


NONPOSITIVE = ("{} sideband(s) fall at non-positive frequency; they are kept "
               "in the totals but the linear-dispersion model is not physical "
               "there")
# f*Omega = 5, omega = 2 at Omega = 20, and f*Omega = 30, omega = 1 at
# Omega = 40, where the resonance at Delta = -30 doubles N
OMEGA20 = (raw_params(20.0, 5.0, 2.0), np.linspace(-10.0, 10.0, 7))
OMEGA40 = (raw_params(40.0, 30.0, 1.0), np.array([-30.0, -25.0, 0.0, 10.0]))
# u = 400 at Omega = 600: rows 0, 1 converge at N = 471, row 2 not at all
CAPPED = (raw_params(600.0, 400.0, 1.0), np.linspace(-500.0, 500.0, 21))


def flat_time_domain(params, detuning):
    """A zero orbit of 32 steps per period: the time-domain route at no
    cost, for grids whose scan would be large."""
    deltas = np.atleast_1d(np.asarray(detuning, float))
    return TimeDomainTrace(dt=0.1, samples=np.zeros((33, len(deltas)), complex),
                           detuning=deltas)


def per_detuning_reference(params, deltas):
    """cross_validate detuning by detuning through the public per-row
    functions: the series auto-truncated at 1e-11, harmonic balance at its
    window, the time domain of each column, compared on shared orders."""
    trace = oracles.time_domain_excitation(params, deltas)
    td = fourier_extract(trace, 12 if params.mod_amp > 0 else 4)
    cols = {name: [] for name in ("dev_series_hb", "dev_series_td",
                                  "defect_series", "defect_hb", "defect_td")}
    for j, d in enumerate(deltas):
        sset = evaluate_sidebands(params, d, tol=1e-11)
        hb = amplitudes_from_excitation(
            harmonic_balance_solve(params, d, int(sset.ns[-1])), params, d)
        tdset = amplitudes_from_excitation(
            ExcitationSpectrum(ns=td.ns, coeffs=td.coeffs[:, j]), params, d)
        for name, other in (("hb", hb), ("td", tdset)):
            shared = np.isin(sset.ns, other.ns)
            cols[f"dev_series_{name}"].append(
                float(np.max(np.abs(sset.r[shared] - other.r))))
        cols["defect_series"].append(sset.unitarity_defect)
        cols["defect_hb"].append(hb.unitarity_defect)
        cols["defect_td"].append(tdset.unitarity_defect)
    return cols


def outcome(fn, *args):
    """What fn(*args) returns or raises, and every warning it gives, in
    order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn(*args)
        except (SingularSystemError, TruncationError) as err:
            out = err
    return out, [str(w.message) for w in caught]


def fail_at(monkeypatch, deltas, faults):
    """Make the harmonic-balance solve fail at the rows `faults` names: it
    scales the solution of each by 1 + its fault."""
    by_delta = {deltas[k]: fault for k, fault in faults.items()}
    solve = oracles._ladder_excitations

    def faulty(diagonal, off, coupling):
        e = solve(diagonal, off, coupling)
        for row, d in zip(e, diagonal):
            fault = by_delta.get(d[len(d) // 2].real)  # Delta at n = 0
            if fault:
                row *= 1.0 + fault
        return e

    monkeypatch.setattr(oracles, "_ladder_excitations", faulty)


class TestCrossValidateBlocks:
    """cross_validate runs the series and harmonic balance in blocks; the
    report, the warnings and the first failure are those of a
    detuning-by-detuning run. The pinned lists and messages were taken
    from that run."""

    @pytest.mark.parametrize("block_rows", [64, 3, 2])
    @pytest.mark.parametrize("amp, freq", [
        (5.0, 2.0), (10.0, 0.3), (0.0, 2.0), (30.0, 1.0)])
    def test_report_equals_the_per_detuning_routes(
        self, monkeypatch, amp, freq, block_rows
    ):
        params, deltas = normalized_params(amp, freq), np.linspace(-30, 30, 9)
        expected = per_detuning_reference(params, deltas)
        monkeypatch.setattr(scattering, "BLOCK_ROWS", block_rows)
        report = cross_validate(params, deltas)
        for name, col in expected.items():
            assert getattr(report, name).tobytes() == np.array(col).tobytes()

    @pytest.mark.parametrize("block_rows", [64, 3, 2])
    @pytest.mark.parametrize("case, counts", [
        # per detuning: each series window, harmonic balance, time domain
        (OMEGA20, [22, 22, 8, 20, 20, 6, 18, 18, 4, 17, 17, 3, 15, 15, 1,
                   13, 13, 12, 12]),
        (OMEGA40, [58, 125, 125, 3, 53, 53, 28, 28, 18, 18]),
    ], ids=["omega20", "omega40"])
    def test_warnings_come_in_detuning_order(
        self, monkeypatch, case, counts, block_rows
    ):
        params, deltas = case
        expected = [NONPOSITIVE.format(c) for c in counts]
        assert outcome(per_detuning_reference, params, deltas)[1] == expected
        monkeypatch.setattr(scattering, "BLOCK_ROWS", block_rows)
        report, caught = outcome(cross_validate, params, deltas)
        assert isinstance(report, oracles.ValidationReport)
        assert caught == expected

    @pytest.mark.parametrize("block_rows", [64, 2])
    @pytest.mark.parametrize("case, faults, message, counts", [
        (OMEGA20, {3: 2e-6, 5: 1e-6},
         "tridiagonal solve residual 2.000e-06 exceeds 1e-12",
         [22, 22, 8, 20, 20, 6, 18, 18, 4, 17]),
        (OMEGA20, {4: 1e-6, 2: 3e-6},
         "tridiagonal solve residual 3.000e-06 exceeds 1e-12",
         [22, 22, 8, 20, 20, 6, 18]),
        # row 0 converges at 2N, after row 1 at N fails
        (OMEGA40, {1: 2e-6, 0: 1e-6},
         "tridiagonal solve residual 1.000e-06 exceeds 1e-12", [58, 125]),
        (CAPPED, {}, "unitarity defect 5.733e-04 still above tol=1e-11 at "
         "sideband_max=512", [372, 372, 322, 322, 272, 313]),
        (CAPPED, {10: 1e-6}, "unitarity defect 5.733e-04 still above "
         "tol=1e-11 at sideband_max=512", [372, 372, 322, 322, 272, 313]),
        (CAPPED, {1: 1e-6}, "tridiagonal solve residual 1.000e-06 exceeds "
         "1e-12", [372, 372, 322]),
    ], ids=["residual-pair", "residual", "across-windows", "truncation",
            "truncation-first", "residual-before-truncation"])
    def test_first_failing_detuning_raises(
        self, monkeypatch, case, faults, message, counts, block_rows
    ):
        params, deltas = case
        monkeypatch.setattr(oracles, "time_domain_excitation",
                            flat_time_domain)
        monkeypatch.setattr(oracles, "_td_grid", lambda params, deltas: None)
        fail_at(monkeypatch, deltas, faults)
        expected = [NONPOSITIVE.format(c) for c in counts]
        err, caught = outcome(per_detuning_reference, params, deltas)
        assert (str(err), caught) == (message, expected)
        monkeypatch.setattr(scattering, "BLOCK_ROWS", block_rows)
        err, caught = outcome(cross_validate, params, deltas)
        assert isinstance(err, SingularSystemError | TruncationError)
        assert (str(err), caught) == (message, expected)
        if isinstance(err, TruncationError):
            assert err.achieved_defect == 0.0005732856780152895

    def test_blocks_stay_within_block_rows(self, monkeypatch):
        shapes = record_block_shapes(monkeypatch)
        monkeypatch.setattr(oracles, "time_domain_excitation",
                            flat_time_domain)
        monkeypatch.setattr(oracles, "_td_grid", lambda params, deltas: None)
        report = cross_validate(normalized_params(30.0, 1.0),
                                np.linspace(-30.0, 30.0, 1000))
        assert max(rows for _, rows, _ in shapes) == scattering.BLOCK_ROWS
        first = [rows for name, rows, n in shapes
                 if name == "_series_block" and n == 67]
        assert sum(first) == 1000 and len(first) == 16  # ceil(1000 / 64)
        # the 152 rows that fail at N = 67 come from three chunks and run
        # at 2N as ceil(152 / 64) chunks
        retried = [rows for name, rows, n in shapes
                   if name == "_series_block" and n == 134]
        assert retried == [64, 64, 24]
        assert {n for _, _, n in shapes} == {67, 134}
        assert report.max_dev_series_hb < 1e-6


class TestPerRowOutcomes:
    """The block functions return one outcome per row; _replay warns and
    raises them in row order."""

    def test_harmonic_balance_block_returns_every_rows_error(
        self, monkeypatch
    ):
        params, deltas = normalized_params(5.0, 2.0), np.linspace(-10, 10, 9)
        clean, errors = oracles._harmonic_balance_block(params, deltas, 16)
        assert errors == [None] * len(deltas)
        fail_at(monkeypatch, deltas, {2: 2e-6, 6: 1e-6})
        blk, errors = oracles._harmonic_balance_block(params, deltas, 16)
        assert [k for k, err in enumerate(errors) if err is not None] == [2, 6]
        assert all(isinstance(errors[k], SingularSystemError) for k in (2, 6))
        assert str(errors[2]) == (
            "tridiagonal solve residual 2.000e-06 exceeds 1e-12")
        assert str(errors[6]) == (
            "tridiagonal solve residual 1.000e-06 exceeds 1e-12")
        for k in set(range(len(deltas))) - {2, 6}:
            same_bits(blk.row(k), clean.row(k))

    def test_replay_warns_each_row_then_raises_its_error(self):
        log = [[0, 3], [5, 0, 7, TruncationError("row 1")],
               [9, SingularSystemError("row 2")]]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(TruncationError, match="row 1"):
                scattering._replay(log)
        assert [str(w.message).split()[0] for w in caught] == ["3", "5", "7"]

    def test_replay_stops_at_a_rows_error(self):
        """An entry after a row's error, such as the time-domain count that
        cross_validate logs after a harmonic-balance error, is not
        replayed."""
        log = [[2], [4, SingularSystemError("row 1"), 6, ValueError("late")],
               [8]]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(SingularSystemError, match="row 1"):
                scattering._replay(log)
        assert [str(w.message).split()[0] for w in caught] == ["2", "4"]


class TestExcitationAssembly:
    """amplitudes_from_excitation assembles any orders ns, including an
    asymmetric window and one without n = 0, as one row assembled alone."""

    @pytest.mark.parametrize("ns", [
        [-1, 0, 1, 2], [1, 2, 3], [-3, -2], [0], [2, 0, -1], [0, 0, 1]])
    def test_any_orders(self, ns):
        params = raw_params(3.0, 1.5, 2.0)
        rng = np.random.default_rng(len(ns))
        coeffs = rng.normal(size=len(ns)) + 1j * rng.normal(size=len(ns))
        ns = np.array(ns)
        for delta in (0.3, -4.0, np.float64(1.7), 2):
            out, caught = outcome(amplitudes_from_excitation,
                                  ExcitationSpectrum(ns=ns, coeffs=coeffs),
                                  params, delta)
            r = params.coupling * coeffs / (1j * params.group_velocity)
            ref = assemble_row(params, delta, ns, r)
            same_bits(out, ref)
            count = int(np.sum(ref.omega <= 0))
            assert caught == ([NONPOSITIVE.format(count)] if count else [])
