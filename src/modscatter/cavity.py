"""Space-time simulation of a packet scattering on one or two emitters.

The waveguide is a uniform grid of right- and left-moving envelope amplitudes
(carrier frequency removed; it enters only through per-site phases). One time
step is a split-step update with no stability limit and no numerical
dispersion:

* advection: with dt = dx/v_g each mover shifts exactly one cell, so the
  field between the emitters is a pure delay line. The shift is a moving
  frame: each mover sits in a fixed buffer of 2*n_cells cells, a step moves
  the live window's start index by one and zeroes the one cell that enters,
  and the window is copied back once every n_cells steps, so a step costs
  O(emitters) rather than O(cells). Amplitudes crossing the domain edges
  accumulate into reflected/transmitted tallies. The cavity probability
  (cells between the emitters plus the emitters) changes only through the
  four fluxes across the cavity edges, since the coupling below is unitary
  on each emitter cell with its emitter; it is updated from those fluxes and
  recounted from scratch every 2000 steps as a checked invariant;
* local coupling: at each emitter cell the triple (phi_R, phi_L, e) evolves
  by the exact exponential of its 3x3 generator. In the rotated basis the
  bright combination (e^{i theta} phi_R + e^{-i theta} phi_L)/sqrt(2) couples
  to the emitter with strength sqrt(2)*V/sqrt(dx) while the dark combination
  is frozen, so the exponential is a closed-form 2x2 block.

Every substep is unitary, which is why the norm holds to ~1e-14 per step
rather than drifting at some integrator order.

The trap protocol: both emitters resonant with the carrier; the left one is
frequency-modulated at a transmission maximum while the packet flies in, then
switched static, closing a two-mirror cavity around the photon. The distance
between the mirrors realizes the standing-wave condition (round-trip carrier
phase a multiple of 2*pi), so the stored mode is dark to both mirrors and the
remaining leakage comes from the packet's finite bandwidth alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CflViolationError,
    InvariantError,
    OutOfRangeError,
    ResolutionError,
)

SQ2 = math.sqrt(2.0)
# largest grid a protocol may ask for: 50x the default. At the cap a release
# run steps 7.7e6 times and holds about 0.2 GB of field buffers and series.
MAX_CELLS = 1_000_000
# steps between norm samples and p_cav recounts, and the largest disagreement
# allowed between the flux-updated p_cav and its recount
P_CAV_CHECK_EVERY = 2000
P_CAV_TOLERANCE = 1e-12


def _check_grid_inputs(bandwidth: float, n_cells: int) -> None:
    """Refuse a packet bandwidth or cell count outside the runnable domain
    before any geometry is derived or any array allocated."""
    if not (math.isfinite(bandwidth) and bandwidth > 0.0):
        raise OutOfRangeError(
            f"bandwidth must be finite and > 0, got {bandwidth!r}"
        )
    if not 1 <= n_cells <= MAX_CELLS:
        raise OutOfRangeError(
            f"cells must lie in [1, {MAX_CELLS}] (MAX_CELLS), got {n_cells}"
        )


@dataclass(frozen=True)
class PacketSpec:
    """Gaussian input packet, right-moving, envelope units.

    bandwidth is the spectral standard deviation sigma_omega; the spatial
    envelope has sigma_x = v_g / (2 sigma_omega). center_freq records the
    carrier offset from the emitters' reference (0 = resonant carrier).
    """

    bandwidth: float
    launch_center: float
    center_freq: float = 0.0
    direction: str = "right"

    def sigma_x(self, group_velocity: float = 1.0) -> float:
        return group_velocity / (2.0 * self.bandwidth)


@dataclass(frozen=True)
class ModulationSchedule:
    """Sinusoidal frequency modulation with a switching window.

    The instantaneous frequency offset contributed to the site is
    amp_energy * cos(freq * t) while t is inside [switch_on, switch_off),
    scaled down linearly over the final ramp_duration (0 = hard cut).
    """

    amp_energy: float
    freq: float
    switch_on: float = 0.0
    switch_off: float | None = None
    ramp_duration: float = 0.0

    def envelope(self, t: float) -> float:
        if t < self.switch_on:
            return 0.0
        if self.switch_off is None:
            return 1.0
        if t >= self.switch_off:
            return 0.0
        if self.ramp_duration > 0 and t > self.switch_off - self.ramp_duration:
            return (self.switch_off - t) / self.ramp_duration
        return 1.0

    def value(self, t: float) -> float:
        env = self.envelope(t)
        if env == 0.0:
            return 0.0
        return self.amp_energy * math.cos(self.freq * t) * env


@dataclass(frozen=True)
class EmitterSite:
    """One emitter: position, waveguide coupling, static detuning from the
    carrier, and the carrier phase at its (sub-cell) position."""

    position: float
    coupling: float = 1.0
    detuning: float = 0.0
    phase: float = 0.0


@dataclass(frozen=True)
class TrapProtocol:
    """Two-site trap/release run description (left site modulated)."""

    packet: PacketSpec
    left_site: EmitterSite
    right_site: EmitterSite
    left_schedule: ModulationSchedule | None
    right_schedule: ModulationSchedule | None
    domain_length: float
    n_cells: int = 20000
    horizon: float = 0.0
    measure_time: float = 0.0
    group_velocity: float = 1.0

    def __post_init__(self):
        _check_grid_inputs(self.packet.bandwidth, self.n_cells)
        if self.right_site.position <= self.left_site.position:
            raise ValueError("sites must satisfy x_left < x_right")
        sched = self.left_schedule
        if sched is not None and sched.switch_off is not None:
            sx = self.packet.sigma_x(self.group_velocity)
            lead = self.packet.launch_center + 4.0 * sx
            t_lead_left = (self.left_site.position - lead) / self.group_velocity
            t_lead_right = (self.right_site.position - lead) / self.group_velocity
            if not (t_lead_left < sched.switch_off < t_lead_right):
                raise ValueError(
                    "switch_off must fall after the leading edge passes the "
                    "left site and before it reaches the right site"
                )

    @property
    def cavity_length(self) -> float:
        return self.right_site.position - self.left_site.position

    @property
    def round_trip(self) -> float:
        return 2.0 * self.cavity_length / self.group_velocity

    def sites(self) -> tuple[EmitterSite, EmitterSite]:
        return (self.left_site, self.right_site)

    def site_frequency_offsets(self, t: float) -> tuple[float, float]:
        """Instantaneous site frequency offsets from the carrier."""
        out = []
        for site, sched in (
            (self.left_site, self.left_schedule),
            (self.right_site, self.right_schedule),
        ):
            w = site.detuning
            if sched is not None:
                w += sched.value(t)
            out.append(w)
        return tuple(out)


class GridState:
    """Mutable simulation state in the moving frame.

    phi_R/phi_L are the lab-frame envelope amplitudes, normalized so that
    sum (|phi_R|^2+|phi_L|^2) dx + sum |e|^2 plus the boundary tallies equals
    1. Each mover lives in a fixed buffer of 2*n_cells cells and phi_R/phi_L
    are views of its live window: a step moves the window's start by one cell
    instead of shifting the array, and the window is copied back to the far
    end of its buffer once every n_cells steps. Assigning phi_R, phi_L or
    e_site writes into the state and recounts p_cav.

    p_cav is the probability in the cells from the first to the last site
    (inclusive) plus the emitters. step keeps it up to date from the four
    fluxes across the cavity edges; writing single cells through the views
    bypasses it until the next assignment or recount.
    """

    def __init__(
        self,
        dx: float,
        n_cells: int,
        time: float,
        phi_R: np.ndarray,
        phi_L: np.ndarray,
        e_site: np.ndarray,
        positions: np.ndarray,          # cell index per site
        reflected_out: float = 0.0,
        transmitted_out: float = 0.0,
    ):
        self.dx = dx
        self.n_cells = n_cells
        self.time = time
        self.positions = np.asarray(positions)
        self.reflected_out = reflected_out
        self.transmitted_out = transmitted_out
        self._m_lo = int(self.positions[0])
        self._m_hi = int(self.positions[-1])
        # buffer index of lab cell 0: the right mover's start walks down,
        # the left mover's walks up
        self._buf_R = np.zeros(2 * n_cells, complex)
        self._buf_L = np.zeros(2 * n_cells, complex)
        self._r0 = n_cells
        self._l0 = 0
        self.phi_R[:] = phi_R
        self.phi_L[:] = phi_L
        self.e_site = e_site

    @property
    def phi_R(self) -> np.ndarray:
        return self._buf_R[self._r0 : self._r0 + self.n_cells]

    @phi_R.setter
    def phi_R(self, values) -> None:
        self.phi_R[:] = values
        self.p_cav = _cavity_sum(self)

    @property
    def phi_L(self) -> np.ndarray:
        return self._buf_L[self._l0 : self._l0 + self.n_cells]

    @phi_L.setter
    def phi_L(self, values) -> None:
        self.phi_L[:] = values
        self.p_cav = _cavity_sum(self)

    @property
    def e_site(self) -> np.ndarray:
        return self._e

    @e_site.setter
    def e_site(self, values) -> None:
        self._e = np.array(values, complex)
        self.p_cav = _cavity_sum(self)

    def _advect(self) -> None:
        """Move both movers one cell: tally the cells that leave the domain,
        zero the ones that enter it, and carry p_cav across the cavity edges
        (R in at m_lo and out past m_hi, L in at m_hi and out past m_lo)."""
        n, dx = self.n_cells, self.dx
        R, L = self._buf_R, self._buf_L
        r0, l0 = self._r0, self._l0
        lo, hi = self._m_lo, self._m_hi
        self.transmitted_out += abs(R[r0 + n - 1]) ** 2 * dx
        self.reflected_out += abs(L[l0]) ** 2 * dx
        flux = -(abs(R[r0 + hi]) ** 2) - abs(L[l0 + lo]) ** 2
        if r0 == 0:
            R[n:] = R[:n]
            r0 = n
        if l0 == n:
            L[:n] = L[n:]
            l0 = 0
        r0 -= 1
        l0 += 1
        R[r0] = 0.0
        L[l0 + n - 1] = 0.0
        self._r0, self._l0 = r0, l0
        flux += abs(R[r0 + lo]) ** 2 + abs(L[l0 + hi]) ** 2
        self.p_cav += flux * dx


def _cavity_sum(state: GridState) -> float:
    """p_cav re-summed from the fields (cells m_lo..m_hi plus emitters)."""
    cav = slice(state._m_lo, state._m_hi + 1)
    f = (
        np.sum(np.abs(state.phi_R[cav]) ** 2)
        + np.sum(np.abs(state.phi_L[cav]) ** 2)
    ) * state.dx
    return float(f + np.sum(np.abs(state.e_site) ** 2))


def norm(state: GridState) -> float:
    """Total probability, boundary tallies included."""
    field_part = (
        np.sum(np.abs(state.phi_R) ** 2) + np.sum(np.abs(state.phi_L) ** 2)
    ) * state.dx
    return float(
        field_part
        + np.sum(np.abs(state.e_site) ** 2)
        + state.reflected_out
        + state.transmitted_out
    )


def init_grid(
    domain_length: float,
    dx: float,
    packet: PacketSpec,
    protocol: TrapProtocol,
) -> GridState:
    """Build the initial state: normalized Gaussian packet in the right mover.

    Refuses when the grid cannot resolve the envelope (< 20 cells per
    sigma_x) or a site falls off the grid.
    """
    n_cells = int(round(domain_length / dx))
    sx = packet.sigma_x(protocol.group_velocity)
    if sx / dx < 20.0:
        raise ResolutionError(
            f"sigma_x={sx:g} spans fewer than 20 cells at dx={dx:g}"
        )
    x = (np.arange(n_cells) + 0.5) * dx
    psi = np.exp(-((x - packet.launch_center) ** 2) / (4.0 * sx**2)).astype(complex)
    if packet.center_freq != 0.0:
        psi *= np.exp(1j * packet.center_freq * x / protocol.group_velocity)
    psi /= math.sqrt(float(np.sum(np.abs(psi) ** 2) * dx))
    positions = []
    for site in protocol.sites():
        m = int(round(site.position / dx - 0.5))
        if not (0 <= m < n_cells):
            raise ResolutionError(f"site at x={site.position:g} is off-grid")
        positions.append(m)
    return GridState(
        dx=dx,
        n_cells=n_cells,
        time=0.0,
        phi_R=psi,
        phi_L=np.zeros(n_cells, complex),
        e_site=np.zeros(len(positions), complex),
        positions=np.array(positions),
    )


def _couple_site(
    state: GridState, i: int, lam: float, theta: float, w: float, tau: float
) -> None:
    # exact exponential of the local generator over tau; lam folds in the
    # cell-amplitude conversion sqrt(dx)
    m = int(state.positions[i])
    R, L = state._buf_R, state._buf_L
    jr, jl = state._r0 + m, state._l0 + m
    sqdx = math.sqrt(state.dx)
    ep = complex(math.cos(theta), math.sin(theta))
    a_r = R[jr] * sqdx
    a_l = L[jl] * sqdx
    p = (a_r * ep + a_l / ep) / SQ2
    d = (a_r * ep - a_l / ep) / SQ2
    e = state._e[i]
    rho = math.hypot(0.5 * w, lam)
    ph = complex(math.cos(0.5 * w * tau), -math.sin(0.5 * w * tau))
    if rho > 0.0:
        co = math.cos(rho * tau)
        sn = math.sin(rho * tau) / rho
    else:
        co, sn = 1.0, tau
    e2 = ph * (co * e - 1j * sn * (0.5 * w * e + lam * p))
    p2 = ph * (co * p - 1j * sn * (lam * e - 0.5 * w * p))
    state._e[i] = e2
    R[jr] = (p2 + d) / (SQ2 * ep * sqdx)
    L[jl] = (p2 - d) * ep / (SQ2 * sqdx)


def step(state: GridState, protocol: TrapProtocol, dt: float) -> GridState:
    """Advance one step in place (and return the state for chaining).

    dt must equal dx / v_g: the advection is then an exact one-cell shift,
    done by moving each mover's window start (see GridState).
    """
    dx_over_vg = state.dx / protocol.group_velocity
    if abs(dt - dx_over_vg) > 1e-12 * dx_over_vg:
        raise CflViolationError(
            f"dt={dt!r} but exact advection requires dx/v_g={dx_over_vg!r}"
        )
    state._advect()
    # local coupling, modulation sampled at the step midpoint
    offsets = protocol.site_frequency_offsets(state.time + 0.5 * dt)
    for i, site in enumerate(protocol.sites()):
        if site.coupling == 0.0:
            continue
        lam = SQ2 * site.coupling / math.sqrt(state.dx)
        _couple_site(state, i, lam, site.phase, offsets[i], dt)
    state.time += dt
    return state


@dataclass(frozen=True)
class TrapReport:
    """Protocol run summary plus the intra-cavity probability time series."""

    times: np.ndarray
    p_cav: np.ndarray
    eta: float
    measure_time: float
    leak_rate: float
    norm_drift: float
    reflected_out: float
    transmitted_out: float
    released_probability: float | None = None
    release_fidelity: float | None = None


def _run_grid(protocol: TrapProtocol):
    """The grid run loop: step from the initial packet to the horizon.

    Records the time and p_cav after every step. Every P_CAV_CHECK_EVERY
    steps (and after the last) it samples the norm drift and recounts p_cav
    from the fields; the flux-updated tally must agree with the recount to
    P_CAV_TOLERANCE or the run stops with InvariantError. Returns the final
    state, the time and p_cav series, the largest norm drift, and the
    transmitted tally at the right mirror's switch-on (None without one).
    """
    dx = protocol.domain_length / protocol.n_cells
    dt = dx / protocol.group_velocity
    state = init_grid(protocol.domain_length, dx, protocol.packet, protocol)
    n_steps = int(round(protocol.horizon / dt))
    times = np.empty(n_steps)
    p_cav = np.empty(n_steps)
    norm_drift = 0.0
    t_rel = None
    trans_at_release = None
    if protocol.right_schedule is not None:
        t_rel = protocol.right_schedule.switch_on
        trans_at_release = 0.0
    for k in range(n_steps):
        step(state, protocol, dt)
        times[k] = state.time
        p_cav[k] = state.p_cav
        if t_rel is not None and state.time <= t_rel:
            trans_at_release = state.transmitted_out
        if k % P_CAV_CHECK_EVERY == 0 or k == n_steps - 1:
            norm_drift = max(norm_drift, abs(1.0 - norm(state)))
            recount = _cavity_sum(state)
            if abs(recount - state.p_cav) > P_CAV_TOLERANCE:
                raise InvariantError(
                    f"p_cav tally {state.p_cav!r} disagrees with its recount "
                    f"{recount!r} by more than {P_CAV_TOLERANCE:g} at "
                    f"t={state.time:g}"
                )
            state.p_cav = recount
    return state, times, p_cav, norm_drift, trans_at_release


def run_protocol(protocol: TrapProtocol) -> TrapReport:
    """Run the trap protocol and measure storage metrics.

    eta is the intra-cavity probability at measure_time (switch-off plus five
    round trips for the default protocol); the leakage rate is a straight-line
    fit of log P_cav between one and five round trips after switch-off.
    """
    state, times, p_cav, norm_drift, trans_at_release = _run_grid(protocol)
    measured = np.flatnonzero(times >= protocol.measure_time)
    if measured.size == 0:
        raise ValueError("horizon ends before measure_time")
    eta = p_cav[measured[0]]
    sched = protocol.left_schedule
    has_off = sched is not None and sched.switch_off is not None
    t_off = sched.switch_off if has_off else 0.0
    rt = protocol.round_trip
    sel = (times >= t_off + rt) & (times <= t_off + 5.0 * rt)
    if np.count_nonzero(sel) >= 2 and np.all(p_cav[sel] > 0):
        slope = np.polyfit(times[sel], np.log(p_cav[sel]), 1)[0]
        leak = float(-slope)
    else:
        leak = float("nan")
    released = None
    fidelity = None
    if trans_at_release is not None:
        released = float(state.transmitted_out - trans_at_release)
        fidelity = released / eta if eta > 0 else 0.0
    return TrapReport(
        times=times,
        p_cav=p_cav,
        eta=float(eta),
        measure_time=float(protocol.measure_time),
        leak_rate=leak,
        norm_drift=float(norm_drift),
        reflected_out=state.reflected_out,
        transmitted_out=state.transmitted_out,
        released_probability=released,
        release_fidelity=fidelity,
    )


def default_trap_protocol(
    bandwidth: float = 0.05,
    amp_energy: float = 4.81,
    mod_freq: float = 2.0,
    n_cells: int = 20000,
    modulated: bool = True,
    switch_off: bool = True,
    release: bool = False,
) -> TrapProtocol:
    """Geometry family for the trap, parameterized by packet bandwidth.

    All lengths scale with sigma_x = 1/(2*bandwidth): launch 6 sigma_x from
    the left edge, left mirror 8 sigma_x beyond the launch point (edge and
    mirror overlaps around 1e-9), cavity 12 sigma_x long, 4 sigma_x of right
    margin. Switch-off
    happens once the trailing 6-sigma tail has cleared the left mirror while
    the leading edge is still 2 sigma_x short of the right one. The horizon
    150 sigma_x gives exactly 1e5 steps at the default cell count, with the
    measurement point at switch-off plus five round trips.

    modulated=False gives the control run (left mirror static throughout);
    switch_off=False leaves the modulation on forever (no trap closes);
    release=True re-modulates the right mirror at the measurement time.
    """
    _check_grid_inputs(bandwidth, n_cells)
    sx = 1.0 / (2.0 * bandwidth)
    x_launch = 6.0 * sx
    x_left = 14.0 * sx
    x_right = 26.0 * sx
    domain = 30.0 * sx
    t_off = 14.0 * sx if switch_off else None
    rt = 2.0 * (x_right - x_left)
    measure = (14.0 * sx if t_off is None else t_off) + 5.0 * rt
    # 150 sigma_x = 1e5 steps at 2e4 cells; a release needs room to drain
    horizon = measure + 4.0 * rt if release else 150.0 * sx
    left_sched = None
    if modulated:
        left_sched = ModulationSchedule(
            amp_energy=amp_energy, freq=mod_freq, switch_off=t_off
        )
    right_sched = None
    if release:
        right_sched = ModulationSchedule(
            amp_energy=amp_energy, freq=mod_freq, switch_on=measure
        )
    return TrapProtocol(
        packet=PacketSpec(bandwidth=bandwidth, launch_center=x_launch),
        left_site=EmitterSite(position=x_left),
        right_site=EmitterSite(position=x_right),
        left_schedule=left_sched,
        right_schedule=right_sched,
        domain_length=domain,
        n_cells=n_cells,
        horizon=horizon,
        measure_time=measure,
    )


def run_packet_scattering(
    bandwidth: float = 0.05,
    site_detuning: float = 0.0,
    amp_energy: float = 0.0,
    mod_freq: float = 0.0,
    n_cells: int = 20000,
) -> dict:
    """Single-emitter packet scattering on the grid.

    Returns the transmitted/reflected probabilities after the run flushes,
    plus the residual probability left in the domain and the norm drift.
    Implemented as a two-site protocol whose second site has zero coupling
    (exactly transparent), so it runs the same loop as the trap.
    """
    _check_grid_inputs(bandwidth, n_cells)
    sx = 1.0 / (2.0 * bandwidth)
    domain = 24.0 * sx
    sched = None
    if amp_energy != 0.0:
        sched = ModulationSchedule(amp_energy=amp_energy, freq=mod_freq)
    protocol = TrapProtocol(
        packet=PacketSpec(bandwidth=bandwidth, launch_center=6.0 * sx),
        left_site=EmitterSite(position=12.0 * sx, detuning=site_detuning),
        right_site=EmitterSite(position=18.0 * sx, coupling=0.0),
        left_schedule=sched,
        right_schedule=None,
        domain_length=domain,
        n_cells=n_cells,
        horizon=30.0 * sx,
    )
    state, times, _, norm_drift, _ = _run_grid(protocol)
    residual = norm(state) - state.reflected_out - state.transmitted_out
    return {
        "T": state.transmitted_out,
        "R": state.reflected_out,
        "residual": float(residual),
        "norm_drift": float(norm_drift),
        "steps": len(times),
    }


def convolution_oracle(
    detuning: float, bandwidth: float, gamma: float = 1.0
) -> tuple[float, float]:
    """Frequency-domain prediction for a static emitter and a Gaussian packet.

    Convolves the Lorentzian reflection probability with the packet spectrum
    by quadrature: R = int |r(detuning+d)|^2 g(d) dd with g the normalized
    Gaussian of width `bandwidth`.
    """
    d = np.linspace(-8.0 * bandwidth, 8.0 * bandwidth, 4001)
    g = np.exp(-(d**2) / (2.0 * bandwidth**2))
    g /= np.trapezoid(g, d)
    r2 = gamma**2 / ((detuning + d) ** 2 + gamma**2)
    refl = float(np.trapezoid(g * r2, d))
    return 1.0 - refl, refl
