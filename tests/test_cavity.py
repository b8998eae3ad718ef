import math

import numpy as np
import pytest

from modscatter import (
    CflViolationError,
    EmitterSite,
    InvariantError,
    ModulationSchedule,
    OutOfRangeError,
    PacketSpec,
    ResolutionError,
    TrapProtocol,
    convolution_oracle,
    default_trap_protocol,
    evaluate_sidebands,
    init_grid,
    norm,
    normalized_params,
    run_packet_scattering,
    run_protocol,
    step,
)


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
        assert PacketSpec(bandwidth=0.1, launch_center=0.0).sigma_x(2.0) == 10.0

    def test_schedule_window(self):
        sched = ModulationSchedule(amp_energy=4.0, freq=2.0, switch_off=10.0)
        assert sched.envelope(-1.0) == 0.0
        assert sched.envelope(5.0) == 1.0
        assert sched.envelope(10.0) == 0.0
        assert sched.value(5.0) == pytest.approx(4.0 * math.cos(10.0))
        assert sched.value(12.0) == 0.0

    def test_schedule_ramp(self):
        sched = ModulationSchedule(
            amp_energy=4.0, freq=2.0, switch_off=10.0, ramp_duration=2.0
        )
        assert sched.envelope(7.9) == 1.0
        assert sched.envelope(9.0) == pytest.approx(0.5)
        assert sched.envelope(10.0) == 0.0

    def test_always_on_schedule(self):
        sched = ModulationSchedule(amp_energy=4.0, freq=2.0)
        assert sched.envelope(1e6) == 1.0


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
        dx = proto.domain_length / proto.n_cells
        state = init_grid(proto.domain_length, dx, proto.packet, proto)
        assert norm(state) == pytest.approx(1.0, abs=1e-12)

    def test_packet_tails_clear_the_edges(self):
        proto = ballistic_protocol()
        dx = proto.domain_length / proto.n_cells
        state = init_grid(proto.domain_length, dx, proto.packet, proto)
        assert abs(state.phi_R[0]) ** 2 * dx < 1e-9
        assert abs(state.phi_R[-1]) ** 2 * dx < 1e-9

    def test_underresolved_packet_refused(self):
        proto = ballistic_protocol()
        with pytest.raises(ResolutionError):
            init_grid(proto.domain_length, proto.domain_length / 40,
                      proto.packet, proto)

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
        dx = proto.domain_length / proto.n_cells
        with pytest.raises(ResolutionError):
            init_grid(proto.domain_length, dx, proto.packet, proto)

    def test_wrong_step_size_refused(self):
        proto = ballistic_protocol()
        dx = proto.domain_length / proto.n_cells
        state = init_grid(proto.domain_length, dx, proto.packet, proto)
        with pytest.raises(CflViolationError):
            step(state, proto, 1.7 * dx)


class TestBallisticTransport:
    def test_advection_is_an_exact_shift(self):
        proto = ballistic_protocol()
        dx = proto.domain_length / proto.n_cells
        state = init_grid(proto.domain_length, dx, proto.packet, proto)
        original = state.phi_R.copy()
        m = 137
        for _ in range(m):
            step(state, proto, dx)
        np.testing.assert_array_equal(state.phi_R[m:], original[:-m])
        assert np.all(state.phi_R[:m] == 0.0)
        assert np.all(state.phi_L == 0.0)
        assert np.all(state.e_site == 0.0)

    def test_moving_frame_matches_roll_reference_across_wraps(self):
        proto = ballistic_protocol()
        dx = proto.domain_length / proto.n_cells
        state = init_grid(proto.domain_length, dx, proto.packet, proto)
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
            step(state, proto, dx)
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
        dx = proto.domain_length / proto.n_cells
        state = init_grid(proto.domain_length, dx, proto.packet, proto)
        for _ in range(proto.n_cells):
            step(state, proto, dx)
        assert state.transmitted_out == pytest.approx(1.0, abs=1e-10)
        assert state.reflected_out == 0.0
        assert norm(state) == pytest.approx(1.0, abs=1e-12)


class TestLocalUnitarity:
    def test_coupled_step_preserves_norm(self):
        sx = 10.0
        proto = TrapProtocol(
            packet=PacketSpec(bandwidth=0.05, launch_center=6.0 * sx),
            left_site=EmitterSite(position=10.0 * sx, phase=0.3),
            right_site=EmitterSite(position=16.0 * sx, detuning=1.2),
            left_schedule=ModulationSchedule(amp_energy=4.81, freq=2.0),
            right_schedule=None,
            domain_length=24.0 * sx,
            n_cells=2000,
        )
        dx = proto.domain_length / proto.n_cells
        state = init_grid(proto.domain_length, dx, proto.packet, proto)
        rng = np.random.default_rng(7)
        noise = rng.standard_normal(state.n_cells) * 0.05
        state.phi_L = (noise + 1j * noise[::-1]).astype(complex)
        state.e_site = np.array([0.3 - 0.2j, 0.1j])
        before = norm(state)
        for _ in range(50):
            step(state, proto, dx)
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
        state = init_grid(proto.domain_length, dx, proto.packet, proto)
        m_lo, m_hi = state.positions
        cav = slice(m_lo, m_hi + 1)
        direct = np.empty(len(report.times))
        for k in range(len(direct)):
            step(state, proto, dx)
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
        real_step = step

        def leaky_step(state, protocol, dt):
            real_step(state, protocol, dt)
            m = int(state.positions[0]) + 5
            state.phi_R[m] *= 0.5
            return state

        monkeypatch.setattr("modscatter.cavity.step", leaky_step)
        proto = default_trap_protocol(bandwidth=0.1, n_cells=1500)
        with pytest.raises(InvariantError):
            run_protocol(proto)


class TestGridInputRefusals:
    @pytest.mark.parametrize("kwargs", [
        dict(bandwidth=0.0),
        dict(bandwidth=-0.05),
        dict(bandwidth=float("nan")),
        dict(bandwidth=float("inf")),
        dict(n_cells=0),
        dict(n_cells=1_000_001),
    ])
    def test_default_protocol_refuses(self, kwargs):
        with pytest.raises(OutOfRangeError):
            default_trap_protocol(**kwargs)

    def test_packet_scattering_refuses_zero_bandwidth(self):
        with pytest.raises(OutOfRangeError):
            run_packet_scattering(bandwidth=0.0)
