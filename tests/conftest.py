import math
import weakref

import numpy as np
import pytest
from hypothesis import settings

from modscatter import normalized_params, scattering

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


def without_tables(monkeypatch, module):
    """Route module.evaluate_sidebands to the per-call tables of a plain call."""
    plain = scattering.evaluate_sidebands

    def per_call(*args, tables=None, **kwargs):
        return plain(*args, **kwargs)

    monkeypatch.setattr(module, "evaluate_sidebands", per_call)


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
