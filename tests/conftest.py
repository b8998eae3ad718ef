import io
import math
import weakref

import numpy as np
import pytest
from hypothesis import settings

from modscatter import (
    SidebandSet, normalized_params, oracles, scattering,
)

# Every property test draws the same examples on every run: tier-1 is
# deterministic. A test's own @settings still sets its max_examples.
settings.register_profile(
    "deterministic", derandomize=True, deadline=None, database=None
)
settings.load_profile("deterministic")


def bessel_series_oracle(n: int, x: float, terms: int = 20) -> float:
    """Independent J_n by direct power-series summation.

    Deliberately naive (factorials, fixed term count): this is the reference
    the shipped implementation is measured against, so it shares no code
    with it.
    """
    sign = 1.0
    if n < 0:
        n = -n
        sign = (-1.0) ** n
    total = 0.0
    for m in range(terms):
        term = (-1.0) ** m * (0.5 * x) ** (n + 2 * m) / (
            math.factorial(m) * math.factorial(n + m)
        )
        total += term
    return sign * total


def convolution_oracle(
    detuning: float, bandwidth: float, gamma: float = 1.0
) -> tuple[float, float]:
    """Frequency-domain (T, R) for a static emitter and a Gaussian packet.

    Convolves the Lorentzian reflection probability with the packet spectrum
    by quadrature: R = int |r(detuning+d)|^2 g(d) dd with g the normalized
    Gaussian of width `bandwidth`. It shares no code with the grid simulator
    it is the reference for.
    """
    d = np.linspace(-8.0 * bandwidth, 8.0 * bandwidth, 4001)
    g = np.exp(-(d**2) / (2.0 * bandwidth**2))
    g /= np.trapezoid(g, d)
    r2 = gamma**2 / ((detuning + d) ** 2 + gamma**2)
    refl = float(np.trapezoid(g * r2, d))
    return 1.0 - refl, refl


@pytest.fixture
def params_reference():
    """The workhorse operating point: f*Omega = 5 gamma, omega = 2 gamma."""
    return normalized_params(5.0, 2.0)


@pytest.fixture
def params_static_amp():
    """Frozen modulation (omega = 0) at f*Omega = 5 gamma."""
    return normalized_params(5.0, 0.0)


@pytest.fixture
def params_unmodulated():
    return normalized_params(0.0, 2.0)


def csv_reference(meta, header, rows, precision=12) -> str:
    """The CSV text of render_csv built one cell at a time: a bool as 1 or
    0, a float (numpy's included) as f"{v:.{precision}e}", any other value
    as str(v)."""
    def cell(v):
        if isinstance(v, bool):
            return "1" if v else "0"
        if isinstance(v, float):
            return f"{v:.{precision}e}"
        return str(v)

    buf = io.StringIO()
    for key, value in meta.items():
        buf.write(f"# {key}={value}\n")
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(cell(v) for v in row) + "\n")
    return buf.getvalue()


def rows_alone(monkeypatch):
    """Make the series evaluate each row as a block of its own and build
    the series tables afresh on every block, as a row-by-row evaluation
    does."""
    monkeypatch.setattr(scattering, "BLOCK_ROWS", 1)
    block = scattering._series_block

    def fresh(params, detunings, N, *, tables):
        return block(params, detunings, N,
                     tables=scattering._tables(params, N))

    monkeypatch.setattr(scattering, "_series_block", fresh)


def count_bessel_calls(monkeypatch):
    """(x, n_max) of every scattering.bessel_j_sequence call, in order."""
    calls = []
    sequence = scattering.bessel_j_sequence

    def counted(n_max, x):
        calls.append((x, n_max))
        return sequence(n_max, x)

    monkeypatch.setattr(scattering, "bessel_j_sequence", counted)
    return calls


def table_refs(monkeypatch):
    """Weak references to every series table built while the patch holds."""
    refs = []
    build = scattering._series_tables

    def recorded(*key):
        out = build(*key)
        refs.extend(weakref.ref(a) for a in out)
        return out

    monkeypatch.setattr(scattering, "_series_tables", recorded)
    return refs


def record_block_shapes(monkeypatch):
    """(name, rows, N) of every _series_block and _harmonic_balance_block
    call, in order."""
    shapes = []
    for module, name in ((scattering, "_series_block"),
                         (oracles, "_harmonic_balance_block")):
        def recorded(params, deltas, n, *args, _plain=getattr(module, name),
                     _name=name, **kwargs):
            shapes.append((_name, len(deltas), n))
            return _plain(params, deltas, n, *args, **kwargs)

        monkeypatch.setattr(module, name, recorded)
    return shapes


def assemble_row(params, delta, ns, r) -> SidebandSet:
    """One row of amplitudes r on the orders ns, assembled alone with
    scalar sums: t_n = r_n + 1 at the first n = 0, omega_n, the totals and
    the unitarity defect."""
    t = r.copy()
    i0 = np.nonzero(ns == 0)[0]
    if len(i0):
        t[i0[0]] += 1.0
    total_T = float(np.sum(np.abs(t) ** 2))
    total_R = float(np.sum(np.abs(r) ** 2))
    return SidebandSet(
        ns=ns, omega=params.omega_a + delta + ns * params.mod_freq, r=r, t=t,
        total_T=total_T, total_R=total_R,
        unitarity_defect=abs(1.0 - (total_T + total_R)),
    )


def series_row(params, delta, N) -> SidebandSet:
    """The series amplitudes of one detuning for |n| <= N, evaluated alone:
    one weight vector J_l/(Delta - l*omega + i*gamma) and one product with
    J_{n+l}."""
    r = np.zeros(2 * N + 1, complex)
    if params.coupling != 0:
        gamma = params.gamma
        jl, jnl, lw = scattering._series_tables(
            scattering.modulation_index(params), params.mod_freq, N)
        r = -1j * gamma * (jnl @ (jl / (delta - lw + 1j * gamma)))
    return assemble_row(params, delta, np.arange(-N, N + 1), r)


def same_bits(a, b):
    """a and b hold bitwise identical amplitudes, totals and truncation."""
    for name in ("ns", "omega", "r", "t"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    for name in ("total_T", "total_R", "unitarity_defect"):
        bits = [np.float64(getattr(s, name)).tobytes() for s in (a, b)]
        assert bits[0] == bits[1], name
