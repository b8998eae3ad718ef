import gc

import numpy as np
import pytest

from conftest import count_bessel_calls, table_refs, without_tables
from modscatter import scattering, sweeps
from modscatter.cli import main
from modscatter import (
    OutOfRangeError,
    SweepSpec,
    evaluate_sidebands,
    figure_presets,
    normalized_params,
    run_sweep,
)


def lorentzian_T(delta, gamma=1.0):
    return delta**2 / (delta**2 + gamma**2)


class TestSweepSpec:
    def test_axis_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(axis="bogus", start=0.0, stop=1.0, points=5)

    def test_method_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(axis="detuning", start=0.0, stop=1.0, points=5, method="x")

    def test_points_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(axis="detuning", start=0.0, stop=1.0, points=1)

    def test_point_cap(self):
        with pytest.raises(OutOfRangeError, match="100000"):
            SweepSpec(axis="detuning", start=0.0, stop=1.0, points=100_001)

    def test_axis_values_are_uniform(self):
        spec = SweepSpec(axis="detuning", start=-1.0, stop=1.0, points=5)
        np.testing.assert_allclose(
            spec.axis_values(), [-1.0, -0.5, 0.0, 0.5, 1.0], atol=1e-15
        )

    def test_params_at_swaps_the_right_knob(self):
        spec = SweepSpec(
            axis="mod_freq", start=0.1, stop=2.0, points=3,
            detuning=0.5, mod_amp_energy=3.0,
        )
        p, delta = spec.params_at(1.7)
        assert p.mod_freq == 1.7
        assert p.mod_amp_energy == pytest.approx(3.0)
        assert delta == 0.5


class TestFigurePresets:
    def test_all_presets_present(self):
        presets = figure_presets()
        for name in ("fig2_static", "fig2_trivial_amp", "fig3a", "fig3b",
                     "fig4a", "fig4b"):
            assert name in presets

    def test_preset_axes_and_fixed_values(self):
        presets = figure_presets()
        assert presets["fig3a"].axis == "mod_amp_energy"
        assert presets["fig3a"].mod_freq == 2.0
        assert presets["fig3a"].points == 401
        assert presets["fig3b"].axis == "mod_freq"
        assert presets["fig3b"].mod_amp_energy == 5.0
        assert presets["fig4a"].sideband_orders == (0, 1, 2)
        assert presets["fig4b"].axis == "mod_amp_energy"
        assert presets["fig4b"].sideband_orders == (0, 1, 2)

    def test_half_open_ranges_exclude_the_origin(self):
        presets = figure_presets()
        assert presets["fig3a"].start > 0.0
        assert presets["fig3b"].start > 0.0
        vals = presets["fig3b"].axis_values()
        assert vals[0] == pytest.approx(12.0 / 401)
        assert vals[-1] == 12.0


class TestRunSweep:
    def test_static_preset_matches_closed_form(self):
        spec = SweepSpec(
            axis="detuning", start=-10.0, stop=10.0, points=41,
            mod_amp_energy=5.0, mod_freq=0.0,
        )
        ds = run_sweep(spec)
        expected = lorentzian_T(ds.axis_values - 5.0)
        np.testing.assert_allclose(ds.columns["T"], expected,
                                   rtol=0, atol=1e-12)
        assert not np.any(ds.flags)

    def test_unmodulated_detuning_sweep(self):
        spec = SweepSpec(
            axis="detuning", start=-10.0, stop=10.0, points=41,
            mod_amp_energy=0.0, mod_freq=0.0,
        )
        ds = run_sweep(spec)
        np.testing.assert_allclose(
            ds.columns["T"], lorentzian_T(ds.axis_values), rtol=0, atol=1e-12
        )

    def test_rows_align_with_pointwise_evaluation(self):
        spec = SweepSpec(
            axis="mod_freq", start=0.5, stop=4.0, points=8,
            detuning=0.0, mod_amp_energy=5.0,
        )
        ds = run_sweep(spec)
        for i, v in enumerate(ds.axis_values):
            p, delta = spec.params_at(v)
            sset = evaluate_sidebands(p, delta)
            assert ds.columns["T"][i] == pytest.approx(sset.total_T, abs=1e-14)

    def test_dual_method_discrepancy_is_tiny(self):
        spec = SweepSpec(
            axis="detuning", start=-3.0, stop=3.0, points=7,
            mod_amp_energy=5.0, mod_freq=2.0, method="both",
        )
        ds = run_sweep(spec)
        assert np.max(ds.columns["discrepancy"]) < 1e-8

    def test_sideband_columns_and_residual(self):
        spec = SweepSpec(
            axis="detuning", start=-2.0, stop=2.0, points=5,
            mod_amp_energy=5.0, mod_freq=2.0, sideband_orders=(0, 1, 2),
        )
        ds = run_sweep(spec)
        for name in ("T_0", "T_1", "T_2"):
            assert name in ds.columns
        assert np.all(ds.columns["T_0"] <= ds.columns["T"] + 1e-12)

    def test_truncation_orders_recorded(self):
        spec = SweepSpec(
            axis="detuning", start=-1.0, stop=1.0, points=3,
            mod_amp_energy=5.0, mod_freq=2.0,
        )
        ds = run_sweep(spec)
        assert np.all(ds.truncation_orders >= 1)


class TestSidebandResolved:
    """T_n columns of a sweep: what the sidebands command writes."""

    @staticmethod
    def detuning_sweep(amp, freq, orders):
        return run_sweep(SweepSpec(
            axis="detuning", start=-1.0, stop=1.0, points=5,
            mod_amp_energy=amp, mod_freq=freq, sideband_orders=orders,
        ))

    def test_unmodulated_concentrates_on_the_carrier(self):
        ds = self.detuning_sweep(0.0, 2.0, (0, 1, 2))
        np.testing.assert_allclose(
            ds.columns["T_0"], lorentzian_T(ds.axis_values), rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(ds.columns["T_1"], 0.0, rtol=0, atol=1e-14)
        np.testing.assert_allclose(
            ds.columns["T_0"], ds.columns["T"], rtol=0, atol=1e-12
        )

    def test_orders_sum_to_total(self):
        window = tuple(range(-60, 61))
        ds = self.detuning_sweep(5.0, 2.0, window)
        assert np.all(ds.truncation_orders <= 60)  # the orders span the window
        partial = sum(ds.columns[f"T_{n}"] for n in window)
        np.testing.assert_allclose(partial, ds.columns["T"],
                                   rtol=0, atol=1e-12)

    def test_out_of_window_order_reports_zero(self):
        ds = self.detuning_sweep(0.0, 2.0, (250,))
        assert np.all(ds.columns["T_250"] == 0.0)


# u = f*Omega/omega = 2.5 takes the Bessel power series, u = 12 Miller
SERIES_SWEEP = ["spectrum", "--axis", "detuning", "--range=-10:10:401",
                "--mod-amp-energy", "5", "--mod-freq", "2"]
MILLER_SWEEP = ["sidebands", "--axis", "detuning", "--range=-10:10:401",
                "--mod-amp-energy", "12", "--mod-freq", "1"]
# the resonance at Delta = -30 omega doubles N on part of the axis
DOUBLING_SWEEP = ["spectrum", "--axis", "detuning", "--range=-30:30:201",
                  "--mod-amp-energy", "30", "--mod-freq", "1"]
AMP_SWEEP = SweepSpec(axis="mod_amp_energy", start=0.1, stop=30.0, points=101,
                      detuning=2.0, mod_freq=1.3)
AMP_SWEEP_ARGV = ["spectrum", "--axis", "mod_amp_energy", "--range", "0.1:30:101",
                  "--detuning", "2", "--mod-freq", "1.3", "--method", "both"]


class TestSeriesTablesPerSweep:
    """run_sweep builds the u-dependent series tables once per sweep call."""

    @staticmethod
    def csv_bytes(tmp_path, argv, name):
        out = tmp_path / name
        assert main(argv + ["--precision", "16", "--out", str(out)]) == 0
        return out.read_bytes()

    @pytest.mark.parametrize("argv", [
        SERIES_SWEEP,
        MILLER_SWEEP,
        ["spectrum", *MILLER_SWEEP[1:], "--method", "both"],
        DOUBLING_SWEEP,
        AMP_SWEEP_ARGV,
    ], ids=["series", "miller", "miller-both", "doubling", "mod_amp_energy"])
    def test_output_is_byte_identical_to_per_row_tables(
        self, monkeypatch, tmp_path, argv
    ):
        shared = self.csv_bytes(tmp_path, argv, "shared.csv")
        without_tables(monkeypatch, sweeps)
        assert self.csv_bytes(tmp_path, argv, "per_row.csv") == shared

    @pytest.mark.parametrize("argv, points, keys", [
        (SERIES_SWEEP, 401, 1), (MILLER_SWEEP, 401, 1), (DOUBLING_SWEEP, 201, 2),
    ], ids=["series", "miller", "doubling"])
    def test_one_bessel_call_per_distinct_window(
        self, monkeypatch, tmp_path, argv, points, keys
    ):
        calls = count_bessel_calls(monkeypatch)
        self.csv_bytes(tmp_path, argv, "shared.csv")
        shared = list(calls)
        calls.clear()
        without_tables(monkeypatch, sweeps)
        self.csv_bytes(tmp_path, argv, "per_row.csv")
        assert len(calls) >= points  # at least one per row
        assert len(set(calls)) == keys
        assert sorted(shared) == sorted(set(calls))

    def test_amplitude_axis_builds_no_more_tables(self, monkeypatch):
        calls = count_bessel_calls(monkeypatch)
        run_sweep(AMP_SWEEP)
        shared = len(calls)
        calls.clear()
        without_tables(monkeypatch, sweeps)
        run_sweep(AMP_SWEEP)
        assert shared <= len(calls)

    @pytest.mark.parametrize("spec", [
        SweepSpec(axis="detuning", start=-10.0, stop=10.0, points=41,
                  mod_amp_energy=12.0, mod_freq=1.0, method="both"),
        AMP_SWEEP,
    ], ids=["detuning", "mod_amp_energy"])
    def test_no_table_outlives_the_call(self, monkeypatch, spec):
        refs = table_refs(monkeypatch)
        run_sweep(spec)
        gc.collect()
        assert refs
        assert all(ref() is None for ref in refs)

    def test_tables_hold_one_u_at_a_time(self, monkeypatch):
        seen = []
        plain = scattering.evaluate_sidebands

        def watched(*args, tables, **kwargs):
            out = plain(*args, tables=tables, **kwargs)
            seen.append(({key[0] for key in tables}, len(tables)))
            return out

        monkeypatch.setattr(sweeps, "evaluate_sidebands", watched)
        run_sweep(AMP_SWEEP)
        assert len(seen) == AMP_SWEEP.points
        assert all(len(us) == 1 and n <= 6 for us, n in seen)
