import dataclasses
import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modscatter import (
    EmitterParams,
    ExcitationSpectrum,
    OutOfRangeError,
    SingularSystemError,
    TimeDomainTrace,
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
from conftest import count_bessel_calls, table_refs, without_tables
from modscatter import oracles
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


def dense(dl, d, du):
    return np.diag(d) + np.diag(dl, -1) + np.diag(du, 1)


def assert_solves(dl, d, du, b):
    """The pivoted solve against numpy's dense LU: a scaled residual below
    1e-13, and agreement with the dense solution to within the condition
    number times 1e-13."""
    a = dense(dl, d, du)
    x = np.array(oracles._solve_tridiagonal(dl.tolist(), d.tolist(),
                                            du.tolist(), b.tolist()))
    ref = np.linalg.solve(a, b)
    scale = np.linalg.norm(a, np.inf) * np.max(np.abs(x)) + np.max(np.abs(b))
    assert np.max(np.abs(a @ x - b)) < 1e-13 * scale
    bound = 1e-13 * np.linalg.cond(a, np.inf) * np.max(np.abs(ref))
    assert np.max(np.abs(x - ref)) < bound


def random_complex(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


class TestTridiagonalSolve:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 50])
    def test_matches_dense_solve_on_random_systems(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            dl, du = random_complex(rng, n - 1), random_complex(rng, n - 1)
            d, b = random_complex(rng, n), random_complex(rng, n)
            assert np.all(dl != 0) and np.all(du != 0) and b[-1] != 0
            assert_solves(dl, d, du, b)

    def test_zero_diagonal_needs_pivoting(self):
        # nonsingular through its off-diagonals; elimination without row
        # swaps divides by the zero at d[0]
        d = np.array([0.0, 2.0 - 1.0j, 0.0, 1.0j, 1.5])
        dl = np.array([1.0 + 0.5j, -2.0, 0.5j, 3.0])
        du = np.array([2.0j, 1.0 - 1.0j, -1.5, 0.25 + 1.0j])
        b = np.array([1.0, -1.0j, 2.0, 0.5 + 0.5j, -3.0])
        assert abs(np.linalg.det(dense(dl, d, du))) > 1e-3
        assert_solves(dl, d, du, b)

    def test_zero_pivot_is_singular(self):
        with pytest.raises(SingularSystemError):
            oracles._solve_tridiagonal([1 + 0j], [1 + 0j, 1 + 0j],
                                       [1 + 0j], [1 + 0j, 2 + 0j])


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
        shared, per_row = tmp_path / "shared.csv", tmp_path / "per_row.csv"
        assert main(["oracle", "--precision", "16", "--out", str(shared)]) == 0
        without_tables(monkeypatch, oracles)
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
        without_tables(monkeypatch, oracles)
        cross_validate(params, deltas)
        assert len(calls) >= len(deltas)
        assert sorted(shared) == sorted(set(calls))

    def test_no_table_outlives_the_call(self, monkeypatch, params_reference):
        refs = table_refs(monkeypatch)
        cross_validate(params_reference, np.linspace(-10, 10, 21))
        gc.collect()
        assert refs
        assert all(ref() is None for ref in refs)
