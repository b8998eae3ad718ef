"""Space-time simulation of a packet scattering on one or two emitters.

The waveguide is a uniform grid of right- and left-moving envelope amplitudes
in the frame of the carrier, which is resonant with the static emitters.
Units are gamma-normalized with group velocity v_g = 1, so lengths and times
share one unit. One time step is a split-step update with no stability
limit. Its advection has no numerical dispersion; the step as a whole is
first order in dx (eta of the default trap moves by about 3e-4, 1.5e-4 and
7e-5 per doubling from 10k to 80k cells):

* advection: with dt = dx each mover shifts exactly one cell, so the
  field between the emitters is a pure delay line. The shift is a moving
  frame: each mover sits in a fixed buffer of 2*n_cells cells, a step moves
  the live window's start index by one and zeroes the one cell that enters,
  and the window is copied back when the next block of steps would run off
  the buffer. Amplitudes crossing the domain edges accumulate into
  reflected/transmitted tallies. The cavity probability (cells between the
  emitters plus the emitters) changes only through the four fluxes across
  the cavity edges, since the coupling below is unitary on each emitter cell
  with its emitter; it is updated from those fluxes and recounted from
  scratch every 2000 steps as a checked invariant;
* local coupling: at each emitter cell the triple (phi_R, phi_L, e) evolves
  by the exact exponential of its 3x3 generator. The bright combination
  (phi_R + phi_L)/sqrt(2) couples to the emitter with strength
  sqrt(2)*V/sqrt(dx) while the dark combination is frozen, so the
  exponential is a closed-form 2x2 block. The coupled sites, their cells and
  their strengths are fixed per grid and derived once, when it is built.

The delay line holds every emitter input of the next D steps, D the emitter
separation in cells (Pichler & Zoller, PRL 116, 093601 (2016)), so the run
advances a block of up to D steps at a time, bitwise as if step by step.
Within a block only each emitter's amplitude e, whose step needs the one
before, is a Python loop on scalars. Everything else is numpy over the
block: the maps into and out of the bright/dark pair, the bright output of
every step once the loop has recorded e, the site frequency offsets, the
exponential's coefficients (at the steps where the offset changes) and the
tallies. It is built only from operations that round as Python's scalar ones
do, with each complex * complex product written out in real parts (see
_advance). A modulation schedule is sampled only at the step midpoints inside
its switching window.

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

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvariantError, OutOfRangeError, ResolutionError

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
    # 4*sigma_x^2 = 1/bandwidth^2; 0 refuses a non-finite or non-positive one
    four_var = (4.0 / (2.0 * bandwidth) / (2.0 * bandwidth)
                if math.isfinite(bandwidth) and bandwidth > 0.0 else 0.0)
    if not sys.float_info.min <= four_var <= sys.float_info.max:
        raise OutOfRangeError(
            f"bandwidth must be finite and > 0 with the packet's 4*sigma_x^2 "
            f"a normal double (so its 30*sigma_x domain is finite and its "
            f"profile keeps its digits), got {bandwidth!r}"
        )
    if not 1 <= n_cells <= MAX_CELLS:
        raise OutOfRangeError(
            f"cells must lie in [1, {MAX_CELLS}] (MAX_CELLS), got {n_cells}"
        )


@dataclass(frozen=True)
class PacketSpec:
    """Gaussian input packet, right-moving, envelope units.

    bandwidth is the spectral standard deviation sigma_omega; the spatial
    envelope has sigma_x = 1 / (2 sigma_omega) (v_g = 1). The carrier is
    resonant with the static emitters.
    """

    bandwidth: float
    launch_center: float

    def sigma_x(self) -> float:
        return 1.0 / (2.0 * self.bandwidth)


@dataclass(frozen=True)
class ModulationSchedule:
    """Sinusoidal frequency modulation with a switching window.

    The instantaneous frequency offset contributed to the site is
    amp_energy * cos(freq * t) while t is inside [switch_on, switch_off)
    and 0 outside it (a hard cut).
    """

    amp_energy: float
    freq: float
    switch_on: float = 0.0
    switch_off: float | None = None

    def __post_init__(self):
        for name in ("amp_energy", "freq"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise OutOfRangeError(
                    f"modulation {name} must be finite, got {value!r}"
                )

    def envelope(self, t: float) -> float:
        off = self.switch_off
        return 1.0 if self.switch_on <= t and (off is None or t < off) else 0.0

    def value(self, t: float) -> float:
        if not self.envelope(t):
            return 0.0
        return self.amp_energy * math.cos(self.freq * t)

    def waveform(self, t: np.ndarray) -> np.ndarray:
        """amp_energy * cos(freq * t) at each time of the array t, the window
        aside: bitwise value(t) inside it. The cosine is libm's, element by
        element (numpy's rounds differently); the products are numpy's."""
        phases = (self.freq * t).tolist()
        return self.amp_energy * np.fromiter(map(math.cos, phases), float,
                                             len(phases))


@dataclass(frozen=True)
class EmitterSite:
    """One emitter: position, waveguide coupling (0 = transparent) and static
    detuning from the carrier."""

    position: float
    coupling: float = 1.0
    detuning: float = 0.0


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

    def __post_init__(self):
        _check_grid_inputs(self.packet.bandwidth, self.n_cells)
        dt = self.domain_length / self.n_cells  # one modulation sample a step
        for sched in filter(None, (self.left_schedule, self.right_schedule)):
            if not max(abs(sched.amp_energy), abs(sched.freq)) * dt < math.pi:
                raise OutOfRangeError(
                    f"|amp_energy|*dt and |freq|*dt must be < pi (the Nyquist "
                    f"limit at dt={dt:g}), got {sched}"
                )
        if self.right_site.position <= self.left_site.position:
            raise ValueError("sites must satisfy x_left < x_right")
        sched = self.left_schedule
        if sched is not None and sched.switch_off is not None:
            lead = self.packet.launch_center + 4.0 * self.packet.sigma_x()
            # v_g = 1: the leading edge reaches x at time x - lead
            t_lead_left = self.left_site.position - lead
            t_lead_right = self.right_site.position - lead
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
        return 2.0 * self.cavity_length

    def sites(self) -> tuple[EmitterSite, EmitterSite]:
        return (self.left_site, self.right_site)

    def site_frequency_offsets(self, t: float) -> tuple[float, float]:
        """Instantaneous site frequency offsets from the carrier."""
        w_l, w_r = self.left_site.detuning, self.right_site.detuning
        if self.left_schedule is not None:
            w_l += self.left_schedule.value(t)
        if self.right_schedule is not None:
            w_r += self.right_schedule.value(t)
        return w_l, w_r


class GridState:
    """Mutable simulation state in the moving frame.

    phi_R/phi_L are the lab-frame envelope amplitudes, normalized so that
    sum (|phi_R|^2+|phi_L|^2) dx + sum |e|^2 plus the boundary tallies equals
    1. Each mover lives in a fixed buffer of 2*n_cells cells and phi_R/phi_L
    are views of its live window: n steps move the window's start by n cells
    instead of shifting the array, and the window is copied back to the far
    end of its buffer when it has no room left for the next block. Assigning
    phi_R, phi_L or e_site writes into the state and recounts p_cav.

    p_cav is the probability in the cells from the first to the last site
    (inclusive) plus the emitters. The steps keep it up to date from the four
    fluxes across the cavity edges; writing single cells through the views
    bypasses it until the next assignment or recount.

    The per-grid constants are derived here once: _coupled lists
    (site index, cell, lam) for every site with nonzero coupling, where
    lam = sqrt(2)*coupling/sqrt(dx) is the bright-mode coupling in cell
    amplitudes, _sqdx = sqrt(dx) converts between the two; _max_block = D is
    the site separation in cells (at least 1), the longest block of steps.
    """

    def __init__(
        self,
        dx: float,
        n_cells: int,
        phi_R: np.ndarray,
        phi_L: np.ndarray,
        e_site: np.ndarray,
        positions: np.ndarray,          # cell index per site
        couplings: tuple[float, ...],   # waveguide coupling per site
    ):
        self.dx = dx
        self.n_cells = n_cells
        self.time = 0.0
        self.positions = np.asarray(positions)
        self._sqdx = math.sqrt(dx)
        self._coupled = tuple(
            (i, int(m), SQ2 * g / self._sqdx)
            for i, (m, g) in enumerate(zip(self.positions, couplings))
            if g != 0.0
        )
        self.reflected_out = 0.0
        self.transmitted_out = 0.0
        self._m_lo = int(self.positions[0])
        self._m_hi = int(self.positions[-1])
        self._max_block = max(1, self._m_hi - self._m_lo)
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


def _cavity_sum(state: GridState, cells: slice | None = None) -> float:
    """p_cav re-summed: the fields on m_lo..m_hi (or `cells`) and emitters."""
    cav = slice(state._m_lo, state._m_hi + 1) if cells is None else cells
    f = (
        np.sum(np.abs(state.phi_R[cav]) ** 2)
        + np.sum(np.abs(state.phi_L[cav]) ** 2)
    ) * state.dx
    return float(f + np.sum(np.abs(state.e_site) ** 2))


def norm(state: GridState) -> float:
    """Total probability: all cells and emitters, then the two tallies."""
    return (_cavity_sum(state, slice(None)) + state.reflected_out
            + state.transmitted_out)


def init_grid(protocol: TrapProtocol) -> GridState:
    """Build the initial state: normalized Gaussian packet in the right mover,
    on protocol.n_cells cells of dx = domain_length / n_cells.

    Refuses when the grid cannot resolve the envelope (< 20 cells per
    sigma_x) or a site falls off the grid.
    """
    packet, n_cells = protocol.packet, protocol.n_cells
    dx = protocol.domain_length / n_cells
    sx = packet.sigma_x()
    if sx / dx < 20.0:
        raise ResolutionError(
            f"sigma_x={sx:g} spans fewer than 20 cells at dx={dx:g}"
        )
    x = (np.arange(n_cells) + 0.5) * dx
    psi = np.exp(-((x - packet.launch_center) ** 2) / (4.0 * sx**2)).astype(complex)
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
        phi_R=psi,
        phi_L=np.zeros(n_cells, complex),
        e_site=np.zeros(len(positions), complex),
        positions=np.array(positions),
        couplings=tuple(site.coupling for site in protocol.sites()),
    )


def _abs2(z: np.ndarray) -> np.ndarray:
    """|z|**2 per element, bitwise as Python's abs(z) ** 2: numpy's hypot
    gives h = abs(z) and libm's pow(h, 2.0) the square. pow errs by under
    0.55 ulp (glibc states 0.54), so it gives the rounded h*h wherever h**2
    lies within 0.45 of the smaller gap of h*h; there the square is numpy's
    h*h. The exact residual h**2 - h*h comes from Dekker's split, which
    needs no fused multiply-add and is exact for 2**-450 <= h <= 2**500; h
    outside that range is masked to 0 first, so nothing warns. pow runs on
    the rest, so an overflow still raises OverflowError, and on every
    nonzero h of an array too short to pay back the split's fixed cost
    (250 to 450 entries on x86-64)."""
    h = np.hypot(z.real, z.imag)
    if len(h) < 256:
        sq, redo = h, np.flatnonzero(h)
    else:
        x = np.where((h >= 2.0**-450) & (h <= 2.0**500), h, 0.0)
        sq = x * x
        c = 134217729.0 * x  # 2**27 + 1: x = hi + lo, each of 26 bits or less
        hi = c - (c - x)
        lo = x - hi
        err = ((hi * hi - sq) + 2.0 * hi * lo) + lo * lo  # exactly x**2 - sq
        gap = sq - np.nextafter(sq, 0.0)  # the smaller of its gaps
        redo = np.flatnonzero((x != h) | (np.abs(err) > 0.45 * gap))
    sq[redo] = np.fromiter(map(math.pow, h[redo].tolist(),
                               itertools.repeat(2.0)), float, len(redo))
    return sq


def _c_prod(a, b) -> np.ndarray:
    """a * b per element, bitwise as Python multiplies complex numbers:
    (ar*br - ai*bi) + i(ar*bi + ai*br), CPython's order, in float64 numpy
    operations. numpy's own complex multiply may fuse these into
    multiply-adds. a and b are complex or float, arrays or scalars."""
    ar, ai, br, bi = np.real(a), np.imag(a), np.real(b), np.imag(b)
    out = np.empty(np.broadcast(ar, br).shape, complex)
    out.real = ar * br - ai * bi
    out.imag = ar * bi + ai * br
    return out


def _running(start: float, steps: np.ndarray) -> np.ndarray:
    """start, start + steps[0], ...: a running tally added left to right,
    as a Python loop adds it (a sum from 0 would round differently)."""
    return np.add.accumulate(np.concatenate(([start], steps)))


def _site_offsets(site: EmitterSite, sched: ModulationSchedule | None,
                  mids: np.ndarray) -> np.ndarray:
    """The site's frequency offset at each step midpoint, bitwise as
    TrapProtocol.site_frequency_offsets gives it; the schedule is sampled
    only at the midpoints inside its window. Outside it the offset is
    detuning + 0.0, which turns a -0.0 detuning into +0.0."""
    if sched is None:
        return np.full(len(mids), site.detuning, float)
    ws = np.full(len(mids), site.detuning + 0.0)
    off = math.inf if sched.switch_off is None else sched.switch_off
    inside = (sched.switch_on <= mids) & (mids < off)
    ws[inside] = site.detuning + sched.waveform(mids[inside])
    return ws


def _coefficients(ws: np.ndarray, lam: float, tau: float):
    """The bright-mode/emitter exponential over one step at each frequency
    offset of ws: hw = w/2, ph = exp(-i hw tau), co = cos(rho tau) and
    isn = i sin(rho tau)/rho with rho = hypot(hw, lam).

    They are computed only at the steps where w changes (so a -0.0 after a
    0.0 keeps the old set), as a step-by-step loop recomputes them, with
    math.hypot, math.cos and math.sin (numpy's round differently). Returns
    (hw, ph, co, isn) for the block and an iterable of the per-step tuple
    for the loop: when the block has one set, scalars and that tuple
    repeated; else arrays of one entry per step and their lists zipped.
    """
    new = np.concatenate(([True], ws[1:] != ws[:-1]))
    hw = 0.5 * ws[new]
    k = len(hw)
    rho = np.fromiter(map(math.hypot, hw.tolist(), itertools.repeat(lam)),
                      float, k)  # >= |lam| > 0
    ht, rt = (hw * tau).tolist(), (rho * tau).tolist()
    ph = np.empty(k, complex)
    ph.real = np.fromiter(map(math.cos, ht), float, k)
    ph.imag = -np.fromiter(map(math.sin, ht), float, k)
    co = np.fromiter(map(math.cos, rt), float, k)
    isn = _c_prod(1j, np.fromiter(map(math.sin, rt), float, k) / rho)
    if k == 1:
        sets = tuple(v[0].item() for v in (hw, ph, co, isn))
        return sets, itertools.repeat(sets)
    at = np.cumsum(new) - 1  # the set of each step
    sets = tuple(v[at] for v in (hw, ph, co, isn))
    return sets, zip(*(v.tolist() for v in sets))


def _advance(state: GridState, protocol: TrapProtocol, n: int):
    """Advance n steps of dt = dx in place, 1 <= n <= D (state._max_block),
    and return the time, p_cav and transmitted tally after each step.

    Within D steps no site needs an output that a site after it makes, so
    the sites run in order, each over its n inputs. The exact
    bright-mode/emitter exponential takes (e, p) to
        e' = ph*(co*e - isn*(hw*e + lam*p)),
        p2 = ph*(co*p - isn*(lam*e - hw*p)),
    with coefficients set by the frequency offset at each step's midpoint
    (_coefficients). Only e', which needs the step before, is a Python loop
    on scalars; it records e before each step, and p2 follows for the whole
    block in numpy. So do the maps into and out of the bright/dark pair, the
    edge tallies and the cavity-edge fluxes, on operations that round as
    Python's do: complex +/- complex, complex * float, hypot for abs, the
    square of _abs2 and running sums seeded with the current tally. Each
    complex * complex product is written out in real parts (_c_prod), since
    numpy's complex multiply may fuse its multiply-adds. So a block is
    bitwise n single steps, where Python's complex multiply does not fuse
    either (as on x86-64).

    A static resonant mirror (one set, hw = +-0) steps by e' = co*e - b,
    b = isn*lp from numpy over the block. There ph = 1 -+ 0i and isn =
    (+-0, s), so on finite values that do not overflow, Python's hw*e + lp
    is lp and ph* changes nothing: the full step is co*e - isn*lp bit for
    bit, up to the sign of a zero part, which no |z|**2 and no sum with a
    nonzero sees. numpy's isn*lp is Python's too, fused or not, since one
    product in each of its parts is an exact zero.
    """
    if not 1 <= n <= state._max_block:
        raise OutOfRangeError(
            f"a block is 1 to D={state._max_block} steps, got {n}"
        )
    N, tau, sqdx = state.n_cells, state.dx, state._sqdx
    R, L, e_site = state._buf_R, state._buf_L, state._e
    lo, hi = state._m_lo, state._m_hi
    r0, l0 = state._r0, state._l0
    if r0 < n:  # a window that cannot move n cells is copied back
        R[N:], r0 = R[r0 : r0 + N], N
    if l0 + n > N:
        L[:N], l0 = L[l0 : l0 + N], 0
    # step j = 1..n sees lab cell m at R[r0 - j + m] and L[l0 + j + m]
    R[r0 - n : r0] = 0.0
    L[l0 + N : l0 + N + n] = 0.0
    # what enters the cavity, copied before the mirrors overwrite it
    entering = np.concatenate((R[r0 + lo - n : r0 + lo][::-1],
                               L[l0 + hi + 1 : l0 + hi + 1 + n]))
    times = _running(state.time, np.full(n, tau))
    mids = times[:-1] + 0.5 * tau
    scheds = (protocol.left_schedule, protocol.right_schedule)
    # Python's complex / float divides, numpy's multiplies by the reciprocal
    c, s = 1.0 / SQ2, 1.0 / (SQ2 * sqdx)
    for i, m, lam in state._coupled:
        jr, jl = r0 + m, l0 + m
        a_r = R[jr - n : jr][::-1] * sqdx
        a_l = L[jl + 1 : jl + 1 + n] * sqdx
        p, d = (a_r + a_l) * c, (a_r - a_l) * c
        sets, per_step = _coefficients(
            _site_offsets(protocol.sites()[i], scheds[i], mids), lam, tau)
        e, es, lp = complex(e_site[i]), [], lam * p
        hw, ph, co, isn = sets
        if np.ndim(hw) == 0 and hw == 0.0:  # one set, resonant: e' = co*e - b
            for b in (isn * lp).tolist():
                es.append(e)
                e = co * e - b
        else:
            for lpj, (hwj, phj, coj, isnj) in zip(lp.tolist(), per_step):
                es.append(e)
                e = phj * (coj * e - isnj * (hwj * e + lpj))
        e_site[i] = e
        p2 = _c_prod(ph, co * p - _c_prod(isn, lam * np.array(es) - hw * p))
        R[jr - n : jr] = ((p2 + d) * s)[::-1]
        L[jl + 1 : jl + 1 + n] = (p2 - d) * s
    # per step, R then L: into the cavity, out of the domain, out of the cavity
    in_R, in_L, gone_R, gone_L, out_R, out_L = _abs2(np.concatenate((
        entering, R[r0 + N - n : r0 + N][::-1], L[l0 : l0 + n],
        R[r0 + hi + 1 - n : r0 + hi + 1][::-1], L[l0 + lo : l0 + lo + n],
    ))).reshape(6, n)
    flux = (-out_R - out_L) + (in_R + in_L)
    transmitted = _running(state.transmitted_out, gone_R * tau)
    p_cavs = _running(state.p_cav, flux * tau)
    state.transmitted_out = float(transmitted[-1])
    state.reflected_out = float(_running(state.reflected_out,
                                         gone_L * tau)[-1])
    state.p_cav = float(p_cavs[-1])
    state._r0, state._l0, state.time = r0 - n, l0 + n, float(times[-1])
    return times[1:], p_cavs[1:], transmitted[1:]


def step(state: GridState, protocol: TrapProtocol) -> GridState:
    """Advance one step of dt = dx in place and return the state."""
    _advance(state, protocol, 1)
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
    """The grid run loop: advance from the initial packet to the horizon.

    Records the time and p_cav after every step. Every P_CAV_CHECK_EVERY
    steps (and after the last) it samples the norm drift, which must be
    finite, and recounts p_cav from the fields; the flux-updated tally must
    agree with the recount to P_CAV_TOLERANCE, or the run stops with
    InvariantError; blocks of at most D steps end on those steps. Returns
    the final state, the time and p_cav series, the largest norm drift, and
    the transmitted tally at the right mirror's switch-on (None without one).
    """
    state = init_grid(protocol)
    n_steps = int(round(protocol.horizon / state.dx))
    times = np.empty(n_steps)
    p_cav = np.empty(n_steps)
    norm_drift = 0.0
    t_rel = None
    trans_at_release = None
    if protocol.right_schedule is not None:
        t_rel = protocol.right_schedule.switch_on
        trans_at_release = 0.0
    k = 0
    while k < n_steps:
        check = min(k + -k % P_CAV_CHECK_EVERY, n_steps - 1)  # next check
        stop = min(k + state._max_block, check + 1)
        times[k:stop], p_cav[k:stop], trans = _advance(state, protocol,
                                                       stop - k)
        if t_rel is not None and times[k] <= t_rel:
            last = np.searchsorted(times[k:stop], t_rel, side="right") - 1
            trans_at_release = trans[last]
        k = stop
        if k - 1 == check:
            # written so that a NaN fails both checks
            drift = abs(1.0 - norm(state))
            if not drift < math.inf:
                raise InvariantError(
                    f"norm drift is {drift!r} at t={state.time:g}"
                )
            norm_drift = max(norm_drift, drift)
            recount = _cavity_sum(state)
            if not abs(recount - state.p_cav) <= P_CAV_TOLERANCE:
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
    # built for every variant, so that each refuses a non-finite modulation
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
        left_schedule=left_sched if modulated else None,
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
