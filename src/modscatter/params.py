"""Physical parameter model.

The emitter is a two-level system whose transition frequency is modulated
periodically, Omega(t) = Omega * (1 + f cos(omega t)), coupled to a linear
waveguide with group velocity v_g. The induced linewidth gamma = V^2 / v_g is
the natural frequency unit; every spectrum in this package is usually quoted
in gamma-normalized units.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .errors import caller_stacklevel


@dataclass(frozen=True)
class EmitterParams:
    """Static parameters of the modulated emitter and its waveguide.

    omega_a: static transition frequency Omega (rad/time)
    mod_amp: dimensionless modulation amplitude f
    mod_freq: modulation frequency omega (rad/time)
    coupling: bare coupling V, with gamma = V**2 / group_velocity
    group_velocity: waveguide group velocity v_g
    """

    omega_a: float
    mod_amp: float
    mod_freq: float
    coupling: float
    group_velocity: float

    def __post_init__(self):
        if not (self.omega_a > 0):
            raise ValueError("omega_a must be positive")
        if not (self.group_velocity > 0):
            raise ValueError("group_velocity must be positive")
        if self.coupling < 0:
            raise ValueError("coupling must be non-negative")
        if self.mod_amp < 0:
            raise ValueError("mod_amp must be non-negative")
        if self.mod_freq < 0:
            raise ValueError("mod_freq must be non-negative")
        # Soft validity conditions of the underlying weak-modulation,
        # weak-coupling model: warn, do not refuse.
        if self.mod_amp > 0.1:
            warnings.warn(
                f"mod_amp={self.mod_amp:g} is not small; the linearized "
                "modulation model assumes f << 1",
                stacklevel=caller_stacklevel(),
            )
        if self.coupling > 0 and self.gamma > 0.1 * self.omega_a:
            warnings.warn(
                f"gamma={self.gamma:g} is not small against omega_a="
                f"{self.omega_a:g}; the model assumes gamma << omega_a",
                stacklevel=caller_stacklevel(),
            )

    @property
    def gamma(self) -> float:
        """Effective coupling (linewidth) gamma = V^2 / v_g."""
        return self.coupling**2 / self.group_velocity

    @property
    def mod_amp_energy(self) -> float:
        """Modulation amplitude in energy units, f * Omega."""
        return self.mod_amp * self.omega_a


# Default ratio Omega / gamma used when building gamma-normalized parameter
# sets. Large enough that f = (f*Omega/gamma)/1000 stays << 1 for every value
# on the standard sweep axes, small enough to keep frequencies O(1e3).
OMEGA_RATIO = 1000.0


def normalized_params(
    mod_amp_energy: float,
    mod_freq: float,
    omega_ratio: float = OMEGA_RATIO,
) -> EmitterParams:
    """Build parameters in gamma-normalized units (gamma = 1, v_g = 1).

    mod_amp_energy is f*Omega in units of gamma; mod_freq is omega in units
    of gamma. Observables expressed in gamma units do not depend on
    omega_ratio (checked by tests); it only sets how deep in the validity
    regime the raw parameters sit.
    """
    if mod_amp_energy < 0 or mod_freq < 0:
        raise ValueError("normalized parameters must be non-negative")
    if not (omega_ratio > 0):
        raise ValueError("omega_ratio must be positive")
    return EmitterParams(
        omega_a=omega_ratio,
        mod_amp=mod_amp_energy / omega_ratio,
        mod_freq=mod_freq,
        coupling=1.0,
        group_velocity=1.0,
    )

