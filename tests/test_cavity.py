import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modscatter import (
    EmitterSite,
    InvariantError,
    ModulationSchedule,
    OutOfRangeError,
    PacketSpec,
    ResolutionError,
    TrapProtocol,
    default_trap_protocol,
    evaluate_sidebands,
    init_grid,
    norm,
    normalized_params,
    run_packet_scattering,
    run_protocol,
    step,
)
from modscatter import cavity
from modscatter.cli import main
from conftest import convolution_oracle


def ballistic_protocol(bandwidth=0.05, domain_factor=24.0):
    """Two transparent sites: pure advection, nothing couples."""
    sx = 1.0 / (2.0 * bandwidth)
    return TrapProtocol(
        packet=PacketSpec(bandwidth=bandwidth, launch_center=6.0 * sx),
        left_site=EmitterSite(position=10.0 * sx, coupling=0.0),
        right_site=EmitterSite(position=16.0 * sx, coupling=0.0),
        left_schedule=None,
        right_schedule=None,
        domain_length=domain_factor * sx,
        n_cells=2000,
        horizon=domain_factor * sx,
    )


class TestPacketAndSchedule:
    def test_sigma_x_bandwidth_relation(self):
        assert PacketSpec(bandwidth=0.05, launch_center=0.0).sigma_x() == 10.0

    def test_schedule_window(self):
        sched = ModulationSchedule(amp_energy=4.0, freq=2.0, switch_off=10.0)
        assert sched.envelope(-1.0) == 0.0
        assert sched.envelope(5.0) == 1.0
        assert sched.envelope(10.0) == 0.0
        assert sched.value(5.0) == pytest.approx(4.0 * math.cos(10.0))
        assert sched.value(12.0) == 0.0

    def test_always_on_schedule(self):
        sched = ModulationSchedule(amp_energy=4.0, freq=2.0)
        assert sched.envelope(1e6) == 1.0

    @pytest.mark.parametrize("field", ["amp_energy", "freq"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_schedule_refused(self, field, value):
        kwargs = dict(amp_energy=4.0, freq=2.0)
        kwargs[field] = value
        with pytest.raises(OutOfRangeError, match=field):
            ModulationSchedule(**kwargs)


class TestProtocolGeometry:
    def test_sites_must_be_ordered(self):
        with pytest.raises(ValueError):
            TrapProtocol(
                packet=PacketSpec(bandwidth=0.05, launch_center=60.0),
                left_site=EmitterSite(position=260.0),
                right_site=EmitterSite(position=140.0),
                left_schedule=None,
                right_schedule=None,
                domain_length=300.0,
            )

    def test_switch_off_kinematics_enforced(self):
        sx = 10.0
        packet = PacketSpec(bandwidth=0.05, launch_center=6.0 * sx)
        for bad_t in (1.0, 500.0):
            with pytest.raises(ValueError):
                TrapProtocol(
                    packet=packet,
                    left_site=EmitterSite(position=14.0 * sx),
                    right_site=EmitterSite(position=26.0 * sx),
                    left_schedule=ModulationSchedule(
                        amp_energy=4.81, freq=2.0, switch_off=bad_t
                    ),
                    right_schedule=None,
                    domain_length=30.0 * sx,
                )

    def test_default_protocol_is_self_consistent(self):
        proto = default_trap_protocol()
        assert proto.cavity_length == pytest.approx(120.0)
        assert proto.round_trip == pytest.approx(240.0)
        t_off = proto.left_schedule.switch_off
        assert proto.measure_time == pytest.approx(t_off + 5.0 * proto.round_trip)

    def test_site_frequency_offsets(self):
        proto = default_trap_protocol()
        t_off = proto.left_schedule.switch_off
        w_l, w_r = proto.site_frequency_offsets(0.0)
        assert w_l == pytest.approx(4.81)
        assert w_r == 0.0
        w_l_after, _ = proto.site_frequency_offsets(t_off + 1.0)
        assert w_l_after == 0.0

    def test_control_protocol_is_static(self):
        proto = default_trap_protocol(modulated=False)
        assert proto.left_schedule is None
        assert proto.site_frequency_offsets(3.0) == (0.0, 0.0)


class TestGridBasics:
    def test_initial_norm_is_one(self):
        proto = ballistic_protocol()
        state = init_grid(proto)
        assert norm(state) == pytest.approx(1.0, abs=1e-12)

    def test_packet_tails_clear_the_edges(self):
        proto = ballistic_protocol()
        dx = proto.domain_length / proto.n_cells
        state = init_grid(proto)
        assert abs(state.phi_R[0]) ** 2 * dx < 1e-9
        assert abs(state.phi_R[-1]) ** 2 * dx < 1e-9

    def test_underresolved_packet_refused(self):
        proto = dataclasses.replace(ballistic_protocol(), n_cells=40)
        with pytest.raises(ResolutionError):
            init_grid(proto)

    def test_off_grid_site_refused(self):
        sx = 10.0
        proto = TrapProtocol(
            packet=PacketSpec(bandwidth=0.05, launch_center=6.0 * sx),
            left_site=EmitterSite(position=14.0 * sx, coupling=0.0),
            right_site=EmitterSite(position=9000.0, coupling=0.0),
            left_schedule=None,
            right_schedule=None,
            domain_length=30.0 * sx,
        )
        with pytest.raises(ResolutionError):
            init_grid(proto)


class TestBallisticTransport:
    def test_advection_is_an_exact_shift(self):
        proto = ballistic_protocol()
        state = init_grid(proto)
        original = state.phi_R.copy()
        m = 137
        for _ in range(m):
            step(state, proto)
        np.testing.assert_array_equal(state.phi_R[m:], original[:-m])
        assert np.all(state.phi_R[:m] == 0.0)
        assert np.all(state.phi_L == 0.0)
        assert np.all(state.e_site == 0.0)

    def test_moving_frame_matches_roll_reference_across_wraps(self):
        proto = ballistic_protocol()
        dx = proto.domain_length / proto.n_cells
        state = init_grid(proto)
        n = state.n_cells
        m_lo, m_hi = state.positions
        cav = slice(m_lo, m_hi + 1)
        rng = np.random.default_rng(11)
        ref_R = state.phi_R.copy()
        ref_L = np.zeros(n, complex)
        trans = refl = 0.0
        for k in range(2 * n + 500):
            if k % 997 == 0:
                # fresh content in both movers, so every wrap carries some
                kick_R = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                kick_L = rng.standard_normal(n) - 1j * rng.standard_normal(n)
                ref_R = ref_R + 0.01 * kick_R
                ref_L = ref_L + 0.01 * kick_L
                state.phi_R = state.phi_R + 0.01 * kick_R
                state.phi_L = state.phi_L + 0.01 * kick_L
            trans += abs(ref_R[-1]) ** 2 * dx
            refl += abs(ref_L[0]) ** 2 * dx
            ref_R = np.roll(ref_R, 1)
            ref_R[0] = 0.0
            ref_L = np.roll(ref_L, -1)
            ref_L[-1] = 0.0
            step(state, proto)
            np.testing.assert_array_equal(state.phi_R, ref_R)
            np.testing.assert_array_equal(state.phi_L, ref_L)
            # both movers cross both cavity edges: all four fluxes count
            direct = (np.sum(np.abs(ref_R[cav]) ** 2)
                      + np.sum(np.abs(ref_L[cav]) ** 2)) * dx
            assert abs(state.p_cav - direct) <= 1e-12
        assert state.transmitted_out == trans
        assert state.reflected_out == refl

    def test_full_transit_exits_with_unit_tally(self):
        proto = ballistic_protocol()
        state = init_grid(proto)
        for _ in range(proto.n_cells):
            step(state, proto)
        assert state.transmitted_out == pytest.approx(1.0, abs=1e-10)
        assert state.reflected_out == 0.0
        assert norm(state) == pytest.approx(1.0, abs=1e-12)


class TestLocalUnitarity:
    def test_coupled_step_preserves_norm(self):
        sx = 10.0
        proto = TrapProtocol(
            packet=PacketSpec(bandwidth=0.05, launch_center=6.0 * sx),
            left_site=EmitterSite(position=10.0 * sx),
            right_site=EmitterSite(position=16.0 * sx, detuning=1.2),
            left_schedule=ModulationSchedule(amp_energy=4.81, freq=2.0),
            right_schedule=None,
            domain_length=24.0 * sx,
            n_cells=2000,
        )
        state = init_grid(proto)
        rng = np.random.default_rng(7)
        noise = rng.standard_normal(state.n_cells) * 0.05
        state.phi_L = (noise + 1j * noise[::-1]).astype(complex)
        state.e_site = np.array([0.3 - 0.2j, 0.1j])
        before = norm(state)
        for _ in range(50):
            step(state, proto)
        assert norm(state) == pytest.approx(before, abs=1e-13)


class TestStaticScattering:
    def test_resonant_packet_is_almost_fully_reflected(self):
        out = run_packet_scattering(bandwidth=0.05, n_cells=4000)
        _, refl_pred = convolution_oracle(0.0, 0.05)
        assert out["R"] >= 0.99
        assert out["R"] == pytest.approx(refl_pred, abs=1e-3)
        assert out["T"] + out["R"] == pytest.approx(1.0, abs=1e-6)
        assert out["norm_drift"] < 1e-12

    def test_detuned_packet_mostly_transmits(self):
        out = run_packet_scattering(bandwidth=0.05, site_detuning=5.0,
                                    n_cells=4000)
        trans_pred, _ = convolution_oracle(5.0, 0.05)
        assert out["T"] == pytest.approx(trans_pred, abs=1e-3)
        assert out["T"] > 0.9

    def test_halving_the_cell_size_converges(self):
        _, refl_pred = convolution_oracle(0.0, 0.05)
        errs = []
        for cells in (2000, 4000):
            out = run_packet_scattering(bandwidth=0.05, n_cells=cells)
            errs.append(abs(out["R"] - refl_pred))
        assert errs[1] < errs[0]
        assert errs[1] < 1e-3


class TestModulatedScattering:
    def test_grid_total_matches_sideband_series(self):
        out = run_packet_scattering(
            bandwidth=0.05, amp_energy=5.0, mod_freq=2.0, n_cells=10000
        )
        sset = evaluate_sidebands(normalized_params(5.0, 2.0), 0.0)
        assert out["T"] == pytest.approx(sset.total_T, abs=1e-2)
        assert out["T"] + out["R"] == pytest.approx(1.0, abs=1e-6)


class TestTrapProtocolRuns:
    def test_quick_trap_stores_most_of_the_packet(self):
        proto = default_trap_protocol(bandwidth=0.1, n_cells=3000)
        report = run_protocol(proto)
        assert 0.5 < report.eta < 0.9
        assert report.norm_drift < 1e-10
        assert report.leak_rate > 0.0
        t_off = proto.left_schedule.switch_off
        rt = proto.round_trip
        sel = report.times >= t_off + rt
        stored = report.p_cav[sel]
        assert np.all(np.diff(stored) <= 1e-12)

    def test_quick_control_stores_nothing(self):
        proto = default_trap_protocol(bandwidth=0.1, n_cells=3000,
                                      modulated=False)
        report = run_protocol(proto)
        assert report.eta < 0.05

    def test_release_drains_the_cavity_forward(self):
        proto = default_trap_protocol(bandwidth=0.1, n_cells=3000,
                                      release=True)
        report = run_protocol(proto)
        assert report.released_probability is not None
        assert 0.0 < report.released_probability <= report.eta + 1e-9
        assert report.released_probability > 0.3
        assert 0.0 < report.release_fidelity <= 1.0


@pytest.fixture(scope="module")
def short_release():
    proto = default_trap_protocol(bandwidth=0.1, n_cells=1500, release=True)
    return proto, run_protocol(proto)


class TestCavityTally:
    def test_flux_tally_matches_direct_sum_every_step(self, short_release):
        proto, report = short_release
        dx = proto.domain_length / proto.n_cells
        state = init_grid(proto)
        m_lo, m_hi = state.positions
        cav = slice(m_lo, m_hi + 1)
        direct = np.empty(len(report.times))
        for k in range(len(direct)):
            step(state, proto)
            direct[k] = (
                np.sum(np.abs(state.phi_R[cav]) ** 2)
                + np.sum(np.abs(state.phi_L[cav]) ** 2)
            ) * dx + np.sum(np.abs(state.e_site) ** 2)
        assert np.max(np.abs(report.p_cav - direct)) <= 1e-12

    def test_short_release_metrics_are_frozen(self, short_release):
        _, report = short_release
        assert report.eta == pytest.approx(0.6880567503080638, abs=1e-12)
        assert report.reflected_out == pytest.approx(
            0.2500601440348175, abs=1e-12
        )
        assert report.transmitted_out == pytest.approx(
            0.7499057276456687, abs=1e-12
        )
        assert report.released_probability == pytest.approx(
            0.6166561408695957, abs=1e-12
        )

    def test_tally_drift_raises(self, monkeypatch):
        # a leak the flux tally cannot see: the recount must catch it
        real_advance = cavity._advance

        def leaky_advance(state, protocol, n):
            series = real_advance(state, protocol, n)
            m = int(state.positions[0]) + 5
            state.phi_R[m] *= 0.5
            return series

        monkeypatch.setattr("modscatter.cavity._advance", leaky_advance)
        proto = default_trap_protocol(bandwidth=0.1, n_cells=1500)
        with pytest.raises(InvariantError):
            run_protocol(proto)

    # the left mirror cell, a cavity cell, a cell past the right mirror
    @pytest.mark.parametrize("site, offset", [(0, 0), (0, 5), (1, 5)])
    def test_nan_field_raises(self, monkeypatch, site, offset):
        # a NaN compares false with every bound: the checks must still fail
        real_advance = cavity._advance

        def nan_advance(state, protocol, n):
            series = real_advance(state, protocol, n)
            if state.time > 300.0:
                state.phi_R[int(state.positions[site]) + offset] = math.nan
            return series

        monkeypatch.setattr("modscatter.cavity._advance", nan_advance)
        proto = default_trap_protocol(bandwidth=0.1, n_cells=1500)
        with pytest.raises(InvariantError):
            run_protocol(proto)


def block_protocol():
    """Both mirrors coupled, the right one detuned; both modulations switch
    on and off inside blocks of D = 240."""
    sx = 5.0
    return TrapProtocol(
        packet=PacketSpec(bandwidth=0.1, launch_center=6.0 * sx),
        left_site=EmitterSite(position=14.0 * sx),
        right_site=EmitterSite(position=26.0 * sx, detuning=1.2),
        left_schedule=ModulationSchedule(amp_energy=4.81, freq=2.0,
                                         switch_on=3.1, switch_off=70.1),
        right_schedule=ModulationSchedule(amp_energy=3.0, freq=1.5,
                                          switch_on=37.3, switch_off=151.1),
        domain_length=30.0 * sx,
        n_cells=600,
    )


def block_variant(name):
    """block_protocol with another schedule layout. In blocks of D from
    t = 0 (60 time units each), "right-only" has whole blocks before its
    switch-on and after its switch-off, and both switch times fall exactly
    on a step midpoint; "minus-zero" has detuning -0.0 on a modulated and
    on a static site; "transparent-right" has the zero-coupling second site
    of run_packet_scattering."""
    base = block_protocol()
    left, right = base.left_site, base.right_site
    return {
        "both-modulated": base,
        "right-only": dataclasses.replace(
            base, left_schedule=None,
            right_schedule=ModulationSchedule(amp_energy=3.0, freq=1.5,
                                              switch_on=100.125,
                                              switch_off=170.625)),
        "minus-zero": dataclasses.replace(
            base, left_site=dataclasses.replace(left, detuning=-0.0),
            right_site=dataclasses.replace(right, detuning=-0.0),
            right_schedule=None),
        "transparent-right": dataclasses.replace(
            base, right_site=EmitterSite(position=right.position,
                                         coupling=0.0),
            right_schedule=None),
    }[name]


BLOCK_VARIANTS = ("both-modulated", "right-only", "minus-zero",
                  "transparent-right")


def in_blocks(protocol, state, n_steps, D=240):
    """Advance in blocks of D and return the per-step series."""
    series = []
    for k in range(0, n_steps, D):
        series += zip(*cavity._advance(state, protocol, min(D, n_steps - k)))
    return series


def loaded_grid(protocol):
    """The initial packet plus content in the left mover and the emitters."""
    state = init_grid(protocol)
    rng = np.random.default_rng(5)
    noise = rng.standard_normal((2, state.n_cells)) * 0.02
    state.phi_L = noise[0] + 1j * noise[1]
    state.e_site = np.array([0.2 - 0.1j, -0.05j])
    return state


def stepped(protocol, n_steps):
    """Reference: n_steps single steps, with the per-step series."""
    state = loaded_grid(protocol)
    series = []
    for _ in range(n_steps):
        step(state, protocol)
        series.append((state.time, state.p_cav, state.transmitted_out))
    return state, series


def lab_frame_reference(protocol, state, n_steps):
    """Independent reference: rolled lab-frame arrays and the coupling in
    numpy-scalar arithmetic, one step at a time. Returns the final fields,
    emitters and tallies, and the per-step (time, p_cav, transmitted)."""
    dx, sqdx, sq2 = state.dx, math.sqrt(state.dx), math.sqrt(2.0)
    lo, hi = (int(m) for m in state.positions)
    R, L, e = state.phi_R.copy(), state.phi_L.copy(), state.e_site.copy()
    t, p_cav, trans, refl = state.time, state.p_cav, 0.0, 0.0
    series = []
    for _ in range(n_steps):
        trans += abs(R[-1]) ** 2 * dx
        refl += abs(L[0]) ** 2 * dx
        flux = -(abs(R[hi]) ** 2) - abs(L[lo]) ** 2
        R = np.roll(R, 1)
        R[0] = 0.0
        L = np.roll(L, -1)
        L[-1] = 0.0
        flux += abs(R[lo]) ** 2 + abs(L[hi]) ** 2
        p_cav += flux * dx
        offsets = protocol.site_frequency_offsets(t + 0.5 * dx)
        for i, (m, site) in enumerate(zip((lo, hi), protocol.sites())):
            if site.coupling == 0.0:  # transparent, its emitter idle
                continue
            w, lam = offsets[i], sq2 * site.coupling / sqdx
            a_r, a_l = R[m] * sqdx, L[m] * sqdx
            p, d = (a_r + a_l) / sq2, (a_r - a_l) / sq2
            e0 = e[i]
            rho = math.hypot(0.5 * w, lam)
            ph = complex(math.cos(0.5 * w * dx), -math.sin(0.5 * w * dx))
            co, sn = math.cos(rho * dx), math.sin(rho * dx) / rho
            e[i] = ph * (co * e0 - 1j * sn * (0.5 * w * e0 + lam * p))
            p2 = ph * (co * p - 1j * sn * (lam * e0 - 0.5 * w * p))
            R[m] = (p2 + d) / (sq2 * sqdx)
            L[m] = (p2 - d) / (sq2 * sqdx)
        t += dx
        series.append((t, p_cav, trans))
    return R, L, e, refl, series


def assert_same_state(a, b):
    np.testing.assert_array_equal(a.phi_R, b.phi_R)
    np.testing.assert_array_equal(a.phi_L, b.phi_L)
    np.testing.assert_array_equal(a.e_site, b.e_site)
    assert (a.time, a.p_cav) == (b.time, b.p_cav)
    assert (a.reflected_out, a.transmitted_out) == (
        b.reflected_out, b.transmitted_out)


class TestBlockAdvance:
    """The delay-line blocks against single steps, with no tolerance."""

    def test_block_limit_is_the_mirror_separation(self):
        proto = block_protocol()
        state = init_grid(proto)
        m_lo, m_hi = state.positions
        assert state._max_block == m_hi - m_lo == 240

    def test_blocks_of_D_equal_single_steps_across_wraps(self):
        proto = block_protocol()
        D = 240
        n_steps = 3 * proto.n_cells + 17  # three buffer wraps
        ref, ref_series = stepped(proto, n_steps)
        state = loaded_grid(proto)
        assert in_blocks(proto, state, n_steps, D) == ref_series
        assert_same_state(state, ref)
        # the test exercised what it claims: both movers and both mirrors
        # were loaded, and the modulations switched mid-block
        assert np.any(state.phi_L != 0.0) and np.all(state.e_site != 0.0)
        for t in (3.1, 70.1, 37.3, 151.1):
            assert round(t / state.dx) % D not in (0, D - 1)

    def test_single_steps_equal_the_numpy_lab_frame_reference(self):
        proto = block_protocol()
        n_steps = 2 * proto.n_cells + 17  # two buffer wraps
        state = loaded_grid(proto)
        R, L, e, refl, ref_series = lab_frame_reference(proto, state,
                                                        n_steps)
        series = []
        for _ in range(n_steps):
            step(state, proto)
            series.append((state.time, state.p_cav, state.transmitted_out))
        assert series == ref_series
        np.testing.assert_array_equal(state.phi_R, R)
        np.testing.assert_array_equal(state.phi_L, L)
        np.testing.assert_array_equal(state.e_site, e)
        assert state.reflected_out == refl

    @settings(max_examples=15, deadline=None, derandomize=True,
              database=None)
    @given(sizes=st.lists(st.integers(min_value=1, max_value=240),
                          min_size=1, max_size=10))
    def test_any_block_partition_equals_single_steps(self, sizes):
        proto = block_protocol()
        ref, ref_series = stepped(proto, sum(sizes))
        state = loaded_grid(proto)
        series = []
        for n in sizes:
            series += zip(*cavity._advance(state, proto, n))
        assert series == ref_series
        assert_same_state(state, ref)

    # both-modulated is block_protocol, which the two tests above check
    @pytest.mark.parametrize("name", BLOCK_VARIANTS[1:])
    def test_schedule_layouts_equal_single_steps_and_the_lab_frame(
            self, name):
        proto = block_variant(name)
        n_steps = 3 * proto.n_cells + 17  # three buffer wraps
        ref, ref_series = stepped(proto, n_steps)
        state = loaded_grid(proto)
        assert in_blocks(proto, state, n_steps) == ref_series
        assert_same_state(state, ref)
        R, L, e, refl, lab_series = lab_frame_reference(
            proto, loaded_grid(proto), n_steps)
        assert ref_series == lab_series
        np.testing.assert_array_equal(state.phi_R, R)
        np.testing.assert_array_equal(state.phi_L, L)
        np.testing.assert_array_equal(state.e_site, e)
        assert state.reflected_out == refl

    def test_right_only_layout_has_whole_blocks_outside_the_window(self):
        proto = block_variant("right-only")
        sched, dx = proto.right_schedule, proto.domain_length / proto.n_cells
        starts = np.arange(0, 3 * proto.n_cells + 17, 240) * dx
        assert np.any(starts + 240 * dx <= sched.switch_on)
        assert np.any(starts >= sched.switch_off)

    @pytest.mark.parametrize("name", BLOCK_VARIANTS)
    def test_site_offsets_match_the_protocol_with_signed_zeros(self, name):
        proto = block_variant(name)
        scheds = (proto.left_schedule, proto.right_schedule)
        t = np.arange(1817) * 0.25
        mids = t + 0.125
        for i, site in enumerate(proto.sites()):
            ws = cavity._site_offsets(site, scheds[i], mids).tolist()
            ref = [proto.site_frequency_offsets(m)[i] for m in mids.tolist()]
            assert ws == ref
            assert [math.copysign(1.0, w) for w in ws] == [
                math.copysign(1.0, w) for w in ref]
        if name == "minus-zero":
            # a static site keeps -0.0; a modulated one outside its window
            # reads -0.0 + 0.0 = +0.0
            left, right = (cavity._site_offsets(site, sched, mids)
                           for site, sched in zip(proto.sites(), scheds))
            assert math.copysign(1.0, right[0]) == -1.0
            assert math.copysign(1.0, left[-1]) == 1.0

    @pytest.mark.parametrize("name", BLOCK_VARIANTS)
    def test_schedules_are_sampled_only_inside_their_windows(
            self, monkeypatch, name):
        proto = block_variant(name)
        sampled, one_set = [], []
        real_waveform = ModulationSchedule.waveform
        real_coefficients = cavity._coefficients

        def counting_waveform(sched, t):
            sampled.extend((sched, v) for v in t.tolist())
            return real_waveform(sched, t)

        def noting_coefficients(ws, lam, tau):
            sets, per_step = real_coefficients(ws, lam, tau)
            one_set.append(np.ndim(sets[0]) == 0)
            return sets, per_step

        monkeypatch.setattr(ModulationSchedule, "waveform", counting_waveform)
        monkeypatch.setattr(cavity, "_coefficients", noting_coefficients)
        n_steps = 3 * proto.n_cells + 17
        in_blocks(proto, loaded_grid(proto), n_steps)
        times = itertools.accumulate([0.25] * n_steps, initial=0.0)
        mids = [t + 0.125 for t in list(times)[:-1]]
        for sched in (proto.left_schedule, proto.right_schedule):
            if sched is None:
                continue
            inside = [t for t in mids if sched.envelope(t)]
            assert [t for s, t in sampled if s is sched] == inside
            assert 0 < len(inside) < n_steps
        # blocks with one coefficient set and with one set per step both ran
        assert set(one_set) == {True, False}

    @pytest.mark.parametrize("n", [0, -1, 241])
    def test_block_outside_one_to_D_refused(self, n):
        proto = block_protocol()
        state = init_grid(proto)
        with pytest.raises(OutOfRangeError, match="D=240"):
            cavity._advance(state, proto, n)
        assert state.time == 0.0


def edge_floats():
    """Signed zeros, subnormals, the smallest normal, 1e+-300, infinities,
    NaN and seeded random values over many decades."""
    edges = [0.0, 5e-324, 5e-310, 2.2250738585072014e-308, 1e-300, 1e300,
             math.inf, 0.7]
    rng = np.random.default_rng(23)
    rand = (rng.standard_normal(12)
            * 10.0 ** rng.integers(-160, 150, 12)).tolist()
    return [s * v for v in edges for s in (1.0, -1.0)] + [math.nan] + rand


def edge_complexes():
    values = edge_floats()
    return [complex(re, im) for re in values for im in values]


def same_float(x, y):
    """Bitwise-equal floats: NaN matches NaN, and a zero's sign counts."""
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


def same_complex(z, w):
    return same_float(z.real, w.real) and same_float(z.imag, w.imag)


class TestBitwiseKernels:
    """The numpy kernels of the trap block against Python's scalar
    arithmetic, on the edges of the float range, with no tolerance."""

    def test_real_expansion_product_equals_python_complex_product(self):
        zs = edge_complexes()
        a = np.repeat(np.array(zs), len(zs))
        b = np.tile(np.array(zs), len(zs))
        with np.errstate(all="ignore"):
            got = cavity._c_prod(a, b).tolist()
        assert all(map(same_complex, got, [x * y for x in zs for y in zs]))
        # a Python complex scalar on the left, as for a block of one set
        for x in zs[::29]:
            with np.errstate(all="ignore"):
                got = cavity._c_prod(x, np.array(zs)).tolist()
            assert all(map(same_complex, got, [x * y for y in zs]))

    def test_real_expansion_product_with_a_float_factor(self):
        zs, xs = edge_complexes(), edge_floats()
        a = np.repeat(np.array(zs), len(xs))
        b = np.tile(np.array(xs), len(zs))
        with np.errstate(all="ignore"):
            got = cavity._c_prod(a, b).tolist()
            got_1j = cavity._c_prod(1j, np.array(xs)).tolist()
        assert all(map(same_complex, got, [z * x for z in zs for x in xs]))
        assert all(map(same_complex, got_1j, [1j * x for x in xs]))

    def test_abs2_equals_python_abs_squared(self):
        # every abs first: CPython's abs of a complex with a NaN part keeps
        # errno as it was, so after an overflowing pow it would raise too
        fits, overflows = [], []
        for z, h in [(z, abs(z)) for z in edge_complexes()]:
            try:
                fits.append((z, h ** 2))
            except OverflowError:
                overflows.append(z)
        with np.errstate(all="ignore"):
            got = cavity._abs2(np.array([z for z, _ in fits])).tolist()
        assert all(map(same_float, got, [r for _, r in fits]))
        # exact zeros skip the pow and must still come out +0.0
        zeros = [g for (z, _), g in zip(fits, got) if z == 0]
        assert zeros and all(same_float(g, 0.0) for g in zeros)
        assert overflows
        for z in overflows:
            with pytest.raises(OverflowError):
                cavity._abs2(np.array([z]))

    @pytest.mark.filterwarnings("error")
    def test_abs2_on_many_magnitudes_and_near_midpoint_squares(self):
        rng = np.random.default_rng(31)
        mags = 10.0 ** rng.uniform(-160.0, 150.0, 10**6)
        # h = 1 + k 2**-52 with k*k within 2k of (2j + 1) 2**51: h**2 lies
        # within 1e-3 of a gap from the midpoint between two doubles
        ks = [math.isqrt((2 * j + 1) << 51) + up
              for j in rng.integers(0, 10**9, 2000).tolist() for up in (0, 1)]
        assert all(abs((k * k) % 2**52 / 2**52 - 0.5) < 1e-3 for k in ks)
        near = np.array([1.0 + k * 2.0**-52 for k in ks])
        scales = 2.0 ** np.arange(-500, 500, 7.0)
        pow2 = 2.0 ** np.arange(-1074, 512.0)
        hs = np.concatenate((mags, np.outer(scales, near).ravel(), pow2))
        angle = rng.uniform(-math.pi, math.pi, len(hs))
        z = hs * np.cos(angle) + 1j * (hs * np.sin(angle))
        z[-len(pow2):] = pow2 * 1j  # |z| exactly a power of two
        want = np.array([abs(v) ** 2 for v in z.tolist()])
        got = cavity._abs2(z)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        for h in (2.0**512, 1e160, 1e300):  # squares past the largest double
            for n in (0, 300):  # pow on each entry, and after the split
                with pytest.raises(OverflowError):
                    cavity._abs2(np.append(z[:n], h * 1j))

    @pytest.mark.parametrize("w", [0.0, -0.0])
    def test_resonant_static_step_is_one_multiply_add(self, w):
        # _advance's step of a static resonant mirror, against the general one
        sets, _ = cavity._coefficients(np.array([w]), 2.0 * math.sqrt(2.0),
                                       0.25)
        hw, ph, co, isn = sets
        assert np.ndim(hw) == 0 and hw == 0.0
        zs = [z for z in edge_complexes()
              if math.isfinite(z.real) and math.isfinite(z.imag)]
        es, lps = np.repeat(zs, len(zs)), np.tile(zs, len(zs))
        fast = np.array([co * e - b
                         for e, b in zip(es.tolist(), (isn * lps).tolist())])
        full = np.array([ph * (co * e - isn * (hw * e + lp))
                         for e, lp in zip(es.tolist(), lps.tolist())])
        f, g = fast.view(float), full.view(float)  # real and imaginary parts
        nonzero = g != 0.0
        assert nonzero.any() and not nonzero.all()
        assert np.array_equal(f[nonzero].view(np.int64),
                              g[nonzero].view(np.int64))
        assert np.all(f[~nonzero] == 0.0)


class TestGridInputRefusals:
    @pytest.mark.parametrize("kwargs", [
        dict(bandwidth=0.0),
        dict(bandwidth=-0.05),
        dict(bandwidth=float("nan")),
        dict(bandwidth=float("inf")),
        dict(n_cells=0),
        dict(n_cells=1_000_001),
        dict(bandwidth=1e-300),
        dict(bandwidth=5e-155),
    ])
    def test_default_protocol_refuses(self, kwargs):
        with pytest.raises(OutOfRangeError):
            default_trap_protocol(**kwargs)

    # the far tails' squared distance overflows to inf and exp(-inf) = 0,
    # which is the value the tail has anyway
    @pytest.mark.filterwarnings("ignore:overflow encountered in square")
    def test_smallest_bandwidth_keeps_a_finite_packet(self):
        # the last bandwidth accepted: 4*sigma_x^2 = 1e308 is still finite
        proto = default_trap_protocol(bandwidth=1e-154, n_cells=1500,
                                      modulated=False)
        state = init_grid(proto)
        assert np.all(np.isfinite(state.phi_R))
        assert norm(state) == pytest.approx(1.0, abs=1e-12)

    # the last bandwidth accepted at the other end: 4*sigma_x^2 =
    # 1/bandwidth^2 is still a normal double
    LARGEST_BANDWIDTH = 6.703903964971299e153

    @pytest.mark.filterwarnings("error")
    def test_largest_bandwidth_keeps_a_finite_packet(self):
        proto = default_trap_protocol(bandwidth=self.LARGEST_BANDWIDTH,
                                      n_cells=1500, modulated=False)
        state = init_grid(proto)
        assert np.all(np.isfinite(state.phi_R))
        assert norm(state) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bandwidth", [
        math.nextafter(LARGEST_BANDWIDTH, math.inf), 1e200])
    def test_bandwidth_past_the_largest_refused(self, bandwidth, capsys):
        with pytest.raises(OutOfRangeError, match="normal double"):
            default_trap_protocol(bandwidth=bandwidth, n_cells=1500)
        with pytest.raises(OutOfRangeError, match="normal double"):
            run_packet_scattering(bandwidth=bandwidth, n_cells=1500)
        argv = ["trap", "--bandwidth", repr(bandwidth), "--cells", "1500"]
        assert main(argv) == 64
        assert "normal double" in capsys.readouterr().err

    # dt = dx = 0.1 at bandwidth 0.1 on 1500 cells: the limit is pi/dt = 31.4
    @pytest.mark.parametrize("kwargs", [
        dict(amp_energy=31.5),
        dict(amp_energy=-31.5),
        dict(mod_freq=31.5),
        dict(mod_freq=-31.5),
        dict(amp_energy=1e308),
        dict(mod_freq=1e308),
    ])
    def test_modulation_beyond_nyquist_refused(self, kwargs):
        with pytest.raises(OutOfRangeError, match="Nyquist"):
            default_trap_protocol(bandwidth=0.1, n_cells=1500, **kwargs)

    def test_nyquist_limit_holds_on_both_mirrors(self):
        proto = default_trap_protocol(bandwidth=0.1, n_cells=1500,
                                      amp_energy=31.4, mod_freq=-31.4,
                                      release=True)
        fast = dataclasses.replace(proto.right_schedule, freq=31.5)
        with pytest.raises(OutOfRangeError, match="Nyquist"):
            dataclasses.replace(proto, right_schedule=fast)

    @pytest.mark.parametrize("modulated, switch_off", [(False, True),
                                                       (True, False)])
    @pytest.mark.parametrize("field", ["amp_energy", "mod_freq"])
    def test_every_variant_refuses_a_non_finite_modulation(
        self, modulated, switch_off, field
    ):
        with pytest.raises(OutOfRangeError, match="must be finite"):
            default_trap_protocol(modulated=modulated, switch_off=switch_off,
                                  **{field: math.nan})

    def test_packet_scattering_refuses_zero_bandwidth(self):
        with pytest.raises(OutOfRangeError):
            run_packet_scattering(bandwidth=0.0)
