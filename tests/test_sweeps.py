import gc
import warnings

import numpy as np
import pytest

from conftest import (
    assemble_row, count_bessel_calls, record_block_shapes, rows_alone,
    same_bits, series_row, table_refs,
)
from modscatter import oracles, scattering, sweeps
from modscatter.cli import main
from modscatter import (
    OutOfRangeError,
    SingularSystemError,
    SweepSpec,
    TruncationError,
    amplitudes_from_excitation,
    evaluate_sidebands,
    figure_presets,
    harmonic_balance_solve,
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
        rows_alone(monkeypatch)
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
        rows_alone(monkeypatch)
        self.csv_bytes(tmp_path, argv, "per_row.csv")
        assert len(calls) >= points  # at least one per row
        assert len(set(calls)) == keys
        assert sorted(shared) == sorted(set(calls))

    def test_amplitude_axis_builds_no_more_tables(self, monkeypatch):
        calls = count_bessel_calls(monkeypatch)
        run_sweep(AMP_SWEEP)
        shared = len(calls)
        calls.clear()
        rows_alone(monkeypatch)
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


def per_row_reference(spec):
    """(columns, truncation orders, flags) of the sweep, row by row through
    the per-row functions: evaluate_sidebands, harmonic_balance_solve and
    amplitudes_from_excitation, each with tables of its own. A `both` sweep
    has a discrepancy column if any row is modulated, NaN where a row has no
    harmonic balance."""
    rows, orders, flags = [], [], []
    modulated = False
    for value in spec.axis_values():
        params, delta = spec.params_at(value)
        modulated |= params.mod_freq != 0
        try:
            sset = evaluate_sidebands(params, delta)
        except TruncationError:
            row = dict.fromkeys(["T", "R", "unitarity_defect"]
                                + [f"T_{n}" for n in spec.sideband_orders],
                                float("nan"))
            if spec.method == "both":
                row["discrepancy"] = float("nan")
            rows.append(row)
            orders.append(-1)
            flags.append(True)
            continue
        hb_total = None
        if spec.method != "series" and params.mod_freq > 0:
            order = int(sset.ns[-1])
            hb = amplitudes_from_excitation(
                harmonic_balance_solve(params, delta, order), params, delta
            )
            if spec.method == "harmonic_balance":
                sset = hb
            else:
                hb_total = hb.total_T
        row = {"T": sset.total_T, "R": sset.total_R,
               "unitarity_defect": sset.unitarity_defect}
        for n in spec.sideband_orders:
            i = n - int(sset.ns[0])
            row[f"T_{n}"] = (float(abs(sset.t[i]) ** 2)
                             if 0 <= i < len(sset.ns) else 0.0)
        if spec.method == "both":
            row["discrepancy"] = (float("nan") if hb_total is None
                                  else abs(sset.total_T - hb_total))
        rows.append(row)
        orders.append(int(sset.ns[-1]))
        flags.append(bool(sset.unitarity_defect > sweeps.UNITARITY_FLAG_TOL))
    columns = {name: np.array([row[name] for row in rows]) for name in rows[0]
               if name != "discrepancy" or modulated}
    return columns, orders, flags


def assert_same_bits(ds, reference):
    columns, orders, flags = reference
    assert list(ds.columns) == list(columns)
    for name, col in columns.items():
        assert ds.columns[name].tobytes() == col.tobytes(), name
    assert ds.truncation_orders.tolist() == orders
    assert ds.flags.tolist() == flags


def sideband_warnings(fn, spec):
    """What fn(spec) returns or raises, and its non-positive sideband
    warnings in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn(spec)
        except SingularSystemError as err:
            out = err
    return out, [str(w.message) for w in caught
                 if "non-positive" in str(w.message)]


def detuning_spec(points, amp=30.0, freq=1.0, start=-30.0, stop=30.0, **kw):
    return SweepSpec(axis="detuning", start=start, stop=stop, points=points,
                     mod_amp_energy=amp, mod_freq=freq, **kw)


class TestBlockRows:
    """Rows evaluated in blocks are bit for bit the rows of the per-row
    functions, with the same warnings in the same order."""

    @pytest.mark.parametrize("spec", [
        # the resonance at Delta = -30 omega doubles N on rows 0-11 only
        detuning_spec(201, method="both", sideband_orders=(-1, 0, 1)),
        detuning_spec(201, method="harmonic_balance", sideband_orders=(0, 2)),
        # u = 400 starts at N = 471: rows converge there, at the cap N = 512,
        # or not at all (NaN, flagged)
        detuning_spec(21, amp=400.0, start=-500.0, stop=500.0, method="both",
                      sideband_orders=(0, 600)),
        *[detuning_spec(n, start=-40.0, stop=40.0, method="both",
                        sideband_orders=(0, 1)) for n in (63, 64, 65, 129)],
        detuning_spec(101, amp=5.0, freq=0.0, sideband_orders=(0, 1)),
        SweepSpec(axis="mod_freq", start=0.0, stop=4.0, points=9,
                  detuning=0.5, mod_amp_energy=5.0, method="both"),
        AMP_SWEEP,
    ], ids=["doubling-both", "doubling-hb", "cap", "rows63", "rows64",
            "rows65", "rows129", "static", "mod_freq", "mod_amp_energy"])
    def test_rows_equal_the_per_row_functions(self, spec):
        assert_same_bits(run_sweep(spec), per_row_reference(spec))

    def test_a_retry_splits_a_block_and_the_cap_flags_rows(self):
        doubling = run_sweep(detuning_spec(201)).truncation_orders
        assert len(set(doubling[:scattering.BLOCK_ROWS].tolist())) == 2
        capped = run_sweep(detuning_spec(21, amp=400.0, start=-500.0,
                                         stop=500.0))
        assert set(capped.truncation_orders.tolist()) == {-1, 471, 512}
        assert np.all(capped.flags == (capped.truncation_orders == -1))
        assert np.all(np.isnan(capped.columns["T"][capped.flags]))

    def test_each_capped_row_carries_its_own_truncation_error(self):
        """_converge_block sets the error of every row still failing at the
        cap to its own TruncationError, with the least defect that row
        reached, and leaves None to every converged row."""
        spec = detuning_spec(21, amp=400.0, start=-500.0, stop=500.0)
        params, deltas = spec.params_at(0.0)[0], spec.axis_values()
        counts, errors = [[] for _ in deltas], [None] * len(deltas)
        chunks = scattering._converge_block(
            params, deltas, scattering.TRUNCATION_TOL, counts, errors)
        converged = [k for rows, _ in chunks for k in rows.tolist()]
        capped = [k for k, err in enumerate(errors) if err is not None]
        assert len(capped) >= 2
        assert sorted(converged + capped) == list(range(len(deltas)))
        orders = list(scattering._truncation_orders(params))
        for k in capped:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                least = min(scattering.reflection_amplitudes(
                    params, deltas[k], n).unitarity_defect for n in orders)
            assert isinstance(errors[k], TruncationError)
            assert errors[k].achieved_defect == least
            assert str(errors[k]) == (
                f"unitarity defect {least:.3e} still above tol=1e-10 at "
                f"sideband_max={scattering.SIDEBAND_CAP}")
            assert len(counts[k]) == len(orders)
        assert len({errors[k].achieved_defect for k in capped}) > 1

    @pytest.mark.parametrize("method", ["series", "both"])
    def test_warnings_come_in_row_order(self, method):
        # Omega = 40 gamma: the low sidebands of most rows fall at or below
        # zero frequency, a different number on each row
        spec = SweepSpec(axis="detuning", start=-120.0, stop=40.0, points=401,
                         mod_amp_energy=30.0, mod_freq=10.0, method=method,
                         omega_ratio=40.0)
        ds, caught = sideband_warnings(run_sweep, spec)
        ref, expected = sideband_warnings(per_row_reference, spec)
        assert_same_bits(ds, ref)
        assert len(set(expected)) > 10
        assert caught == expected

    @pytest.mark.parametrize("spec, faults, first", [
        # rows 0-11 converge at 2N, rows 12-63 at N
        (detuning_spec(201, method="both"), {5: 2e-6, 40: 1e-6}, "residual"),
        (detuning_spec(201, method="both"), {40: 1e-6, 50: 2e-6},
         "residual 1.000e-06"),
        (detuning_spec(201, method="both"), {3: 2e-6, 8: 3e-6, 30: 1e-6},
         "residual 2.000e-06"),
        # rows 9 and 11 converge at N = 512, rows 0, 1, 10 at N = 471
        (detuning_spec(21, amp=400.0, start=-500.0, stop=500.0,
                       method="both"), {10: 1e-6, 11: 2e-6}, "residual"),
    ], ids=["residual-across-windows", "two-residuals",
            "three-residuals", "interleaved-windows"])
    def test_harmonic_balance_failure_names_the_first_failing_row(
        self, monkeypatch, spec, faults, first
    ):
        by_delta = {spec.axis_values()[k]: fault for k, fault in faults.items()}
        solve = oracles._ladder_excitations

        def faulty(diagonal, off, coupling):
            e = solve(diagonal, off, coupling)
            for row, d in zip(e, diagonal):
                fault = by_delta.get(d[len(d) // 2].real)  # Delta at n = 0
                if fault:
                    row *= 1.0 + fault
            return e

        monkeypatch.setattr(oracles, "_ladder_excitations", faulty)
        err, _ = sideband_warnings(run_sweep, spec)
        expected, _ = sideband_warnings(per_row_reference, spec)
        assert isinstance(err, SingularSystemError)
        assert str(err) == str(expected)
        assert first in str(err)

    def test_failure_keeps_the_warnings_before_it(self, monkeypatch):
        spec = SweepSpec(axis="detuning", start=-120.0, stop=40.0, points=401,
                         mod_amp_energy=30.0, mod_freq=10.0, method="both",
                         omega_ratio=40.0)
        failing = spec.axis_values()[100]
        solve = oracles._ladder_excitations

        def faulty(diagonal, off, coupling):
            e = solve(diagonal, off, coupling)
            e[diagonal[:, diagonal.shape[1] // 2].real == failing] *= 2.0
            return e

        monkeypatch.setattr(oracles, "_ladder_excitations", faulty)
        err, caught = sideband_warnings(run_sweep, spec)
        expected, before = sideband_warnings(per_row_reference, spec)
        assert isinstance(err, SingularSystemError)
        assert str(err) == str(expected)
        assert caught == before

    @pytest.mark.parametrize("coupling", [0.0, 1.3])
    def test_block_functions_equal_the_per_row_functions(self, coupling):
        """Each row of a block is bit for bit that row evaluated alone, with
        its own weights, product and sums (conftest.series_row and
        assemble_row), and the block counts its sidebands at omega_n <= 0."""
        params = scattering.EmitterParams(
            omega_a=20.0, mod_amp=0.5, mod_freq=2.0, coupling=coupling,
            group_velocity=1.0,
        )
        deltas = np.linspace(-30.0, 10.0, 7)
        blk = scattering._series_block(
            params, deltas, 16, tables=scattering._tables(params, 16))
        for k, delta in enumerate(deltas):
            ref = series_row(params, delta, 16)
            same_bits(blk.row(k), ref)
            assert blk.nonpositive[k] == np.sum(ref.omega <= 0)
        assert len(set(blk.nonpositive.tolist())) > 2
        hb, errors = oracles._harmonic_balance_block(params, deltas, 16)
        if coupling == 0:
            assert all(isinstance(err, SingularSystemError) for err in errors)
            assert [str(err) for err in errors] == (
                ["zero coupling makes the system singular"] * len(deltas))
            return
        assert errors == [None] * len(deltas)
        for k, delta in enumerate(deltas):
            e = harmonic_balance_solve(params, delta, 16).coeffs
            r = params.coupling * e / (1j * params.group_velocity)
            same_bits(hb.row(k),
                      assemble_row(params, delta, np.arange(-16, 17), r))

    def test_blocks_stay_within_block_rows(self, monkeypatch):
        shapes = record_block_shapes(monkeypatch)
        ds = run_sweep(detuning_spec(1000, method="both"))
        assert max(rows for _, rows, _ in shapes) == scattering.BLOCK_ROWS
        first = [rows for name, rows, n in shapes
                 if name == "_series_block" and n == 67]
        assert sum(first) == 1000 and len(first) == 16  # ceil(1000 / 64)
        # the 118 rows that fail at N = 67 come from three chunks and run
        # at 2N as ceil(118 / 64) chunks
        retried = [rows for name, rows, n in shapes
                   if name == "_series_block" and n == 134]
        assert retried == [64, 54]
        assert {n for _, _, n in shapes} == {67, 134}
        assert not np.any(ds.flags)

    def test_retried_rows_regroup_across_chunks(self, monkeypatch):
        """The rows that fail the first window, from several chunks of
        it, run at 2N in ceil(retried / BLOCK_ROWS) chunks, bit for bit the
        per-row functions."""
        spec = detuning_spec(401, start=-60.0, stop=60.0, method="both",
                             sideband_orders=(0, 1))
        shapes = record_block_shapes(monkeypatch)
        ds = run_sweep(spec)
        series = [(rows, n) for name, rows, n in shapes
                  if name == "_series_block"]
        N, size = series[0][1], scattering.BLOCK_ROWS
        retried = np.flatnonzero(ds.truncation_orders != N)
        assert set(ds.truncation_orders.tolist()) == {N, 2 * N}
        assert len(set((retried // size).tolist())) >= 2
        again = [rows for rows, n in series if n == 2 * N]
        assert sum(again) == len(retried)
        assert len(again) == -(-len(retried) // size)
        assert max(rows for _, rows, _ in shapes) <= size
        assert_same_bits(ds, per_row_reference(spec))
