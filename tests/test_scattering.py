import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modscatter import (
    EmitterParams,
    ExcitationSpectrum,
    NotStaticError,
    StaticLimitError,
    TruncationError,
    TruncationSpec,
    auto_truncation,
    amplitudes_from_excitation,
    evaluate_sidebands,
    modulation_index,
    normalized_params,
    reflection_amplitudes,
    static_limit_amplitudes,
)
from modscatter import scattering


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
        assert out.amplitude(0, "r") == pytest.approx(-1.0 + 0.0j, abs=1e-15)
        assert out.amplitude(0, "t") == pytest.approx(0.0 + 0.0j, abs=1e-15)
        assert out.total_T == pytest.approx(0.0, abs=1e-15)
        assert out.total_R == pytest.approx(1.0, abs=1e-15)

    def test_unmodulated_at_one_linewidth(self):
        p = normalized_params(0.0, 0.0)
        out = static_limit_amplitudes(p, 1.0)
        assert out.amplitude(0, "r") == pytest.approx(-(1 + 1j) / 2, abs=1e-15)
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
        np.testing.assert_allclose(
            out.q, out.omega / p.group_velocity, rtol=0, atol=1e-12
        )

    def test_entries_iterator_consistent(self, params_reference):
        out = evaluate_sidebands(params_reference, 0.0)
        entries = list(out.entries)
        assert len(entries) == len(out.ns)
        e = entries[len(entries) // 2]
        assert e.n == 0
        assert e.r_n == out.amplitude(0, "r")
        assert e.t_n == out.amplitude(0, "t")
        assert e.propagating

    def test_amplitude_refuses_unknown_side(self, params_reference):
        out = evaluate_sidebands(params_reference, 0.0)
        with pytest.raises(ValueError, match="'r' or 't'"):
            out.amplitude(0, "T")

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
        trunc = TruncationSpec(sideband_max=8, sum_max=12)
        out = reflection_amplitudes(dark, 0.7, trunc)
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
        assert out.truncation_used.sideband_max <= 16

    def test_auto_truncation_strong_drive(self):
        p = normalized_params(50.0, 2.0)
        out = auto_truncation(p, 0.0, tol=1e-9)
        assert out.unitarity_defect < 1e-9
        assert out.truncation_used.sideband_max >= 25

    def test_undersized_window_reports_defect(self, params_reference):
        tight = TruncationSpec(sideband_max=2, sum_max=2)
        out = reflection_amplitudes(params_reference, 0.0, tight)
        assert out.unitarity_defect > 1e-3

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
        assert out.truncation_used.sideband_max >= 1
        assert len(out.ns) == 2 * out.truncation_used.sideband_max + 1


def same_bits(a, b):
    """a and b hold bitwise identical amplitudes, totals and truncation."""
    assert a.truncation_used == b.truncation_used
    for name in ("ns", "omega", "q", "r", "t"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    for name in ("total_T", "total_R", "unitarity_defect"):
        bits = [np.float64(getattr(s, name)).tobytes() for s in (a, b)]
        assert bits[0] == bits[1], name


class TestOneSeriesEvaluationPerPoint:
    """evaluate_sidebands returns the set auto_truncation converged on."""

    @staticmethod
    def count_series_calls(monkeypatch, unconverged=0):
        calls = []
        series = scattering.reflection_amplitudes

        def counted(params, detuning, truncation, **kwargs):
            sset = series(params, detuning, truncation, **kwargs)
            calls.append(truncation.sideband_max)
            if len(calls) <= unconverged:
                # a defect above any tolerance makes the truncation double
                sset = dataclasses.replace(sset, unitarity_defect=1.0)
            return sset

        monkeypatch.setattr(scattering, "reflection_amplitudes", counted)
        return calls, series

    @pytest.mark.parametrize("amp, delta", [(5.0, 0.0), (5.0, 1.3), (50.0, 0.0)])
    def test_first_truncation_converges_in_one_call(self, monkeypatch, amp, delta):
        params = normalized_params(amp, 2.0)
        calls, series = self.count_series_calls(monkeypatch)
        sset = evaluate_sidebands(params, delta)
        assert len(calls) == 1
        same_bits(sset, series(params, delta, sset.truncation_used))

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
        calls, series = self.count_series_calls(monkeypatch, unconverged=forced)
        sset = evaluate_sidebands(params, delta)
        assert calls == sizes  # doublings + 1 evaluations
        assert sset.truncation_used.sideband_max == sizes[-1]
        same_bits(sset, series(params, delta, sset.truncation_used))


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


@settings(max_examples=40, deadline=None)
@given(
    amp=st.floats(min_value=0.0, max_value=8.0),
    freq=st.floats(min_value=0.3, max_value=10.0),
    delta=st.floats(min_value=-10.0, max_value=10.0),
)
def test_hypothesis_optical_theorem(amp, freq, delta):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = evaluate_sidebands(normalized_params(amp, freq), delta)
    center = np.where(out.ns == 0)[0][0]
    assert out.total_R == pytest.approx(-out.r[center].real, abs=1e-9)
