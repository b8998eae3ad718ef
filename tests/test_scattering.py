import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import jv

from modscatter import (
    EmitterParams,
    ExcitationSpectrum,
    NotStaticError,
    OutOfRangeError,
    StaticLimitError,
    TruncationError,
    auto_truncation,
    amplitudes_from_excitation,
    build_harmonic_balance,
    cross_validate,
    evaluate_sidebands,
    figure_presets,
    harmonic_balance_solve,
    modulation_index,
    normalized_params,
    reflection_amplitudes,
    static_limit_amplitudes,
    time_domain_excitation,
)
from modscatter import scattering
from conftest import same_bits, series_row


def lorentzian_r(delta, gamma=1.0):
    return -1j * gamma / (delta + 1j * gamma)




class TestModulationIndex:
    def test_no_modulation(self):
        assert modulation_index(normalized_params(0.0, 2.0)) == 0.0

    def test_workhorse_point(self, params_reference):
        assert modulation_index(params_reference) == pytest.approx(2.5)

    def test_another_ratio(self):
        assert modulation_index(normalized_params(5.0, 8.0)) == pytest.approx(0.625)

    def test_static_drive_has_no_index(self, params_static_amp):
        with pytest.raises(StaticLimitError):
            modulation_index(params_static_amp)


class TestStaticLimit:
    def test_unmodulated_on_resonance_reflects_fully(self):
        p = normalized_params(0.0, 0.0)
        out = static_limit_amplitudes(p, 0.0)
        assert out.r[0] == pytest.approx(-1.0 + 0.0j, abs=1e-15)
        assert out.t[0] == pytest.approx(0.0 + 0.0j, abs=1e-15)
        assert out.total_T == pytest.approx(0.0, abs=1e-15)
        assert out.total_R == pytest.approx(1.0, abs=1e-15)

    def test_unmodulated_at_one_linewidth(self):
        p = normalized_params(0.0, 0.0)
        out = static_limit_amplitudes(p, 1.0)
        assert out.r[0] == pytest.approx(-(1 + 1j) / 2, abs=1e-15)
        assert out.total_T == pytest.approx(0.5, abs=1e-15)
        assert out.total_R == pytest.approx(0.5, abs=1e-15)

    def test_frozen_offset_shifts_resonance(self, params_static_amp):
        out_peak = static_limit_amplitudes(params_static_amp, 5.0)
        assert out_peak.total_T == pytest.approx(0.0, abs=1e-15)
        out_bare = static_limit_amplitudes(params_static_amp, 0.0)
        assert out_bare.total_T == pytest.approx(25.0 / 26.0, abs=1e-12)

    def test_rejects_running_modulation(self, params_reference):
        with pytest.raises(NotStaticError):
            static_limit_amplitudes(params_reference, 0.0)

    def test_single_entry_only(self):
        out = static_limit_amplitudes(normalized_params(0.0, 0.0), 0.3)
        assert list(out.ns) == [0]


def fig2_grids():
    """(params, detunings) of the two static presets."""
    for name in ("fig2_static", "fig2_trivial_amp"):
        spec = figure_presets()[name]
        yield spec.params_at(0.0)[0], spec.axis_values()


def raw_static(coupling, omega_a, mod_amp_energy):
    """Static parameters in raw units, gamma = coupling**2."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # gamma is not small at 2500
        return EmitterParams(omega_a=omega_a, mod_amp=mod_amp_energy / omega_a,
                             mod_freq=0.0, coupling=coupling,
                             group_velocity=1.0)


EDGE_DETUNINGS = np.array([-0.0, 0.0, 5e-324, -1e-300, 1e-300, 3.0, -1e150,
                           1e150, -1e300, 1e300])


class TestStaticBlock:
    """The static line is one numpy expression, so its bits do not depend
    on the detuning's Python type or on the rows evaluated with it."""

    @pytest.mark.parametrize("grid", list(fig2_grids()),
                             ids=["fig2_static", "fig2_trivial_amp"])
    def test_python_and_numpy_floats_give_the_same_bits(self, grid):
        params, detunings = grid
        for delta in detunings.tolist():
            same_bits(evaluate_sidebands(params, delta),
                      evaluate_sidebands(params, np.float64(delta)))

    @pytest.mark.parametrize("params, detunings", [
        *fig2_grids(),
        (normalized_params(5.0, 0.0), EDGE_DETUNINGS),
        (raw_static(0.6082762530298219, 40.0, 3.0), EDGE_DETUNINGS),  # 0.37
        (raw_static(50.0, 1e5, 100.0),
         np.concatenate([EDGE_DETUNINGS, np.linspace(-1e4, 1e4, 401)])),
        (normalized_params(0.0, 2.0), EDGE_DETUNINGS),  # mod_amp = 0 only
    ], ids=["fig2_static", "fig2_trivial_amp", "edges", "raw_gamma_0.37",
            "raw_gamma_2500", "running_frequency_no_amplitude"])
    def test_block_equals_the_rows_as_numpy_scalars(self, params, detunings):
        g, fo = params.gamma, params.mod_amp * params.omega_a
        ref = np.array([-1j * g / (np.float64(d) - fo + 1j * g)
                        for d in detunings])
        blk = scattering._static_block(params, detunings)
        assert blk.r[:, 0].tobytes() == ref.tobytes()
        assert blk.t[:, 0].tobytes() == (ref + 1.0).tobytes()
        assert list(blk.ns) == [0]
        assert blk.omega[:, 0].tobytes() == (params.omega_a
                                             + detunings).tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # Omega + Delta <= 0 at -1e150
            for k, delta in enumerate(detunings.tolist()):
                same_bits(blk.row(k), static_limit_amplitudes(params, delta))

    def test_zero_coupling_reflects_nothing(self):
        params = raw_static(0.0, 1000.0, 5.0)
        blk = scattering._static_block(params, EDGE_DETUNINGS)
        assert not np.any(blk.r)
        assert np.all(blk.total_T == 1.0)
        assert np.all(blk.unitarity_defect == 0.0)

    def test_rows_at_non_positive_frequency_are_counted(self):
        params = raw_static(2.0, 40.0, 3.0)
        blk = scattering._static_block(params, np.array([-60.0, -40.0, 0.0]))
        assert blk.nonpositive.tolist() == [1, 1, 0]


def _modulated():
    return normalized_params(5.0, 2.0)


# every public entry that takes a detuning, with the block entry that
# refuses it: _converge_block, _series_block's caller, _static_block,
# _hb_excitations and _td_grid; the last two entries refuse it themselves
NON_FINITE_ENTRIES = {
    "reflection_amplitudes": lambda d: reflection_amplitudes(_modulated(), d,
                                                             20),
    "auto_truncation": lambda d: auto_truncation(_modulated(), d),
    "evaluate_sidebands": lambda d: evaluate_sidebands(_modulated(), d),
    "evaluate_sidebands_static": lambda d: evaluate_sidebands(
        normalized_params(5.0, 0.0), d),
    "static_limit_amplitudes": lambda d: static_limit_amplitudes(
        normalized_params(5.0, 0.0), d),
    "harmonic_balance_solve": lambda d: harmonic_balance_solve(_modulated(),
                                                               d, 20),
    "time_domain_excitation": lambda d: time_domain_excitation(_modulated(),
                                                               d),
    "cross_validate": lambda d: cross_validate(_modulated(), [d, 0.0]),
    "amplitudes_from_excitation": lambda d: amplitudes_from_excitation(
        harmonic_balance_solve(_modulated(), 0.0, 20), _modulated(), d),
    "build_harmonic_balance": lambda d: build_harmonic_balance(_modulated(),
                                                               d, 3),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("delta", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", list(NON_FINITE_ENTRIES))
def test_non_finite_detuning_is_refused_before_any_warning(entry, delta):
    with pytest.raises(OutOfRangeError,
                       match=f"^detuning {float(delta)!r} is not finite$"):
        NON_FINITE_ENTRIES[entry](delta)


class TestSeriesAmplitudes:
    def test_transmission_is_reflection_plus_identity(self, params_reference):
        out = evaluate_sidebands(params_reference, 0.7)
        center = np.where(out.ns == 0)[0][0]
        expected = out.r.copy()
        expected[center] += 1.0
        np.testing.assert_array_equal(out.t, expected)

    def test_zero_amplitude_collapses_to_lorentzian(self, params_unmodulated):
        out = evaluate_sidebands(params_unmodulated, 0.9)
        center = np.where(out.ns == 0)[0][0]
        assert out.r[center] == pytest.approx(lorentzian_r(0.9), abs=1e-14)
        off = np.delete(out.r, center)
        assert np.max(np.abs(off)) < 1e-14

    def test_optical_theorem(self, params_reference):
        for delta in (-3.0, 0.0, 1.2, 6.0):
            out = evaluate_sidebands(params_reference, delta)
            center = np.where(out.ns == 0)[0][0]
            assert out.total_R == pytest.approx(-out.r[center].real, abs=1e-12)

    def test_sideband_frequencies_and_momenta(self, params_reference):
        out = evaluate_sidebands(params_reference, 0.4)
        p = params_reference
        omega_in = p.omega_a + 0.4
        np.testing.assert_allclose(
            out.omega, omega_in + out.ns * p.mod_freq, rtol=0, atol=1e-12
        )
        # one frequency and one amplitude pair per order of the window [-N, N];
        # the momenta q_n = omega_n / v_g follow from omega alone
        n_max = int(out.ns[-1])
        np.testing.assert_array_equal(out.ns, np.arange(-n_max, n_max + 1))
        assert out.omega.shape == out.r.shape == out.t.shape == out.ns.shape

    def test_nonphysical_sideband_warning(self):
        p = normalized_params(5.0, 2.0, omega_ratio=10.0)
        with pytest.warns(UserWarning, match="non-positive frequency"):
            evaluate_sidebands(p, 0.0)

    def test_high_frequency_modulation_becomes_transparent(self):
        leakage = []
        r0_err = []
        for omega in (4.0, 16.0, 64.0, 256.0):
            p = normalized_params(5.0, omega)
            out = evaluate_sidebands(p, 2.0)
            center = np.where(out.ns == 0)[0][0]
            leakage.append(np.sum(np.abs(np.delete(out.r, center)) ** 2))
            r0_err.append(abs(out.r[center] - lorentzian_r(2.0)))
        assert all(a > b for a, b in zip(leakage, leakage[1:]))
        assert leakage[-1] < 1e-4
        assert r0_err[-1] < 1e-3

    def test_carrier_scale_invariance(self):
        ref = evaluate_sidebands(normalized_params(5.0, 2.0, omega_ratio=500.0), 1.0)
        alt = evaluate_sidebands(normalized_params(5.0, 2.0, omega_ratio=2000.0), 1.0)
        assert ref.total_T == pytest.approx(alt.total_T, abs=1e-12)
        assert ref.total_R == pytest.approx(alt.total_R, abs=1e-12)


class TestExcitationCoefficients:
    """e_n = i v_g r_n / V, read back through amplitudes_from_excitation."""

    def test_proportional_to_reflection(self, params_reference):
        p = params_reference
        out = evaluate_sidebands(p, 0.7)
        spec = ExcitationSpectrum(
            ns=out.ns, coeffs=1j * p.group_velocity * out.r / p.coupling
        )
        back = amplitudes_from_excitation(spec, p, 0.7)
        np.testing.assert_array_equal(back.ns, out.ns)
        np.testing.assert_allclose(back.r, out.r, rtol=0, atol=1e-14)

    def test_decoupled_emitter_is_dark(self):
        dark = EmitterParams(
            omega_a=1000.0, mod_amp=0.005, mod_freq=2.0,
            coupling=0.0, group_velocity=1.0,
        )
        out = reflection_amplitudes(dark, 0.7, 8)
        assert len(out.r) == 17
        assert np.all(out.r == 0.0)


class TestTotals:
    def test_probabilities_sum_to_one(self, params_reference):
        out = evaluate_sidebands(params_reference, 1.3)
        assert out.total_T + out.total_R == pytest.approx(1.0, abs=1e-10)

    def test_unmodulated_half_half(self, params_unmodulated):
        out = evaluate_sidebands(params_unmodulated, 1.0)
        assert out.total_T == pytest.approx(0.5, abs=1e-12)
        assert out.total_R == pytest.approx(0.5, abs=1e-12)


class TestTruncationControl:
    def test_auto_truncation_meets_tolerance(self, params_reference):
        out = auto_truncation(params_reference, 0.0, tol=1e-10)
        assert out.unitarity_defect < 1e-10

    def test_auto_truncation_small_index_is_lean(self, params_unmodulated):
        out = auto_truncation(params_unmodulated, 0.0, tol=1e-10)
        assert out.ns[-1] <= 16

    def test_auto_truncation_strong_drive(self):
        p = normalized_params(50.0, 2.0)
        out = auto_truncation(p, 0.0, tol=1e-9)
        assert out.unitarity_defect < 1e-9
        assert out.ns[-1] >= 25

    def test_undersized_window_reports_defect(self, params_reference):
        out = reflection_amplitudes(params_reference, 0.0, 2)
        assert out.unitarity_defect > 1e-3

    def test_negative_window_refused(self, params_reference):
        with pytest.raises(ValueError, match="sideband_max"):
            reflection_amplitudes(params_reference, 0.0, -1)

    def test_carrier_only_window(self, params_reference):
        out = reflection_amplitudes(params_reference, 0.0, 0)
        assert list(out.ns) == [0]

    def test_sum_runs_past_the_window(self):
        """At N = 2 the Bessel sum still runs over l in [-(N+8), N+8]."""
        p, delta, n_max = normalized_params(5.0, 2.0), 0.3, 2
        u, ls = modulation_index(p), np.arange(-10, 11)
        expected = [
            np.sum(-1j * jv(ls, u) * jv(n + ls, u)
                   / (delta - ls * p.mod_freq + 1j))
            for n in range(-n_max, n_max + 1)
        ]
        out = reflection_amplitudes(p, delta, n_max)
        np.testing.assert_allclose(out.r, expected, rtol=0, atol=1e-12)

    def test_overdriven_index_hits_cap_and_raises(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p = normalized_params(1200.0, 2.0)
            with pytest.raises(TruncationError) as info:
                auto_truncation(p, 0.0, tol=1e-10)
        assert info.value.achieved_defect > 0.0

    def test_evaluate_routes_static_automatically(self, params_static_amp):
        out = evaluate_sidebands(params_static_amp, 5.0)
        assert list(out.ns) == [0]
        assert out.total_T == pytest.approx(0.0, abs=1e-15)

    def test_truncation_recorded_on_result(self, params_reference):
        out = evaluate_sidebands(params_reference, 0.0)
        assert out.ns[-1] >= 1
        assert len(out.ns) == 2 * out.ns[-1] + 1


class TestOneSeriesEvaluationPerPoint:
    """evaluate_sidebands returns the set auto_truncation converged on, one
    series evaluation per window."""

    @staticmethod
    def count_series_calls(monkeypatch, unconverged=0):
        calls = []
        block = scattering._series_block

        def counted(params, detunings, N, **kwargs):
            blk = block(params, detunings, N, **kwargs)
            calls.append(N)
            if len(calls) <= unconverged:
                # a defect above any tolerance makes the truncation double
                blk = dataclasses.replace(
                    blk, unitarity_defect=np.ones(len(detunings)))
            return blk

        monkeypatch.setattr(scattering, "_series_block", counted)
        return calls

    @pytest.mark.parametrize("amp, delta", [(5.0, 0.0), (5.0, 1.3), (50.0, 0.0)])
    def test_first_truncation_converges_in_one_call(self, monkeypatch, amp, delta):
        params = normalized_params(amp, 2.0)
        calls = self.count_series_calls(monkeypatch)
        sset = evaluate_sidebands(params, delta)
        assert len(calls) == 1
        same_bits(sset, series_row(params, delta, int(sset.ns[-1])))

    @pytest.mark.parametrize("amp, freq, delta, forced, sizes", [
        # the resonant term l = Delta/omega = -30 shifts the comb by 30
        # orders, past the first N = 67, so N doubles once
        (30.0, 1.0, -30.0, 0, [67, 134]),
        # N starts at ceil(u + 8 u^(1/3) + 12) = 61 for u = 25
        (50.0, 2.0, 0.0, 2, [61, 122, 244]),
    ])
    def test_each_doubling_costs_one_call(
        self, monkeypatch, amp, freq, delta, forced, sizes
    ):
        params = normalized_params(amp, freq)
        calls = self.count_series_calls(monkeypatch, unconverged=forced)
        sset = evaluate_sidebands(params, delta)
        assert calls == sizes  # doublings + 1 evaluations
        assert sset.ns[-1] == sizes[-1]
        same_bits(sset, series_row(params, delta, int(sset.ns[-1])))


def rows_alone_product(params, detunings, tables):
    """r_n of each detuning from its own matrix-vector product with
    J_{n+l}, one row at a time."""
    gamma = params.gamma
    jl, jnl, lw = tables
    weights = jl / (detunings[:, None] - lw + 1j * gamma)
    return np.array([-1j * gamma * (jnl @ w) for w in weights])


class TestStackedSeriesProduct:
    """A block's one stacked product gives every row the bits of that row's
    lone matrix-vector product."""

    @pytest.mark.parametrize("amp, freq", [(0.5, 2.0), (5.0, 2.0), (12.0, 1.0),
                                           (30.0, 1.0), (400.0, 1.0),
                                           (5.0, 0.3)])
    def test_block_equals_the_rows_alone(self, amp, freq):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # f*Omega = 400 is not small
            params = normalized_params(amp, freq)
        rng = np.random.default_rng(int(amp * 10 + freq * 100))
        windows = list(scattering._truncation_orders(params))[:4]
        for N in windows:
            tables = scattering._tables(params, N)
            for rows in (1, 2, 7, 63, 64):
                detunings = rng.uniform(-40.0, 40.0, rows)
                r = scattering._series_block(params, detunings, N,
                                             tables=tables).r
                ref = rows_alone_product(params, detunings, tables)
                assert np.array_equal(r.view(float), ref.view(float)), (N, rows)


@settings(max_examples=40, deadline=None)
@given(
    amp=st.floats(min_value=0.0, max_value=8.0),
    freq=st.floats(min_value=0.3, max_value=10.0),
    delta=st.floats(min_value=-10.0, max_value=10.0),
)
def test_hypothesis_unitarity(amp, freq, delta):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = evaluate_sidebands(normalized_params(amp, freq), delta)
    assert out.total_T + out.total_R == pytest.approx(1.0, abs=1e-9)
    assert out.unitarity_defect < 1e-9


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    amp=st.floats(min_value=0.0, max_value=10.0),
    freq=st.floats(min_value=0.1, max_value=20.0),
    delta=st.floats(min_value=-10.0, max_value=10.0),
)
def test_hypothesis_optical_theorem(amp, freq, delta):
    """sum_n |r_n|^2 = -Re r_0 holds to round-off, u = f*Omega/omega up to
    100."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = evaluate_sidebands(normalized_params(amp, freq), delta)
    center = np.where(out.ns == 0)[0][0]
    assert abs(out.total_R + out.r[center].real) <= 1e-12
