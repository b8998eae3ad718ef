"""Single-photon scattering on a periodically frequency-modulated waveguide
emitter: closed-form sideband amplitudes, two independent cross-check
solvers, parameter sweeps, and a space-time photon-trap simulator."""

import os
import sys

# numpy's bundled OpenBLAS runs every complex matvec of 4096 or more elements
# on all cores, and the series route's `jnl @ w` products (N = 30 to about
# 170) are slower that way: 6.7 µs against 4.1 µs at N = 43 on a 2-core x86
# machine, after which the worker thread spin-waits and doubles the CPU time.
# So load OpenBLAS with one thread, unless the caller chose a count or numpy
# is already loaded (its thread count is fixed by then).
if "numpy" not in sys.modules and not any(
    name in os.environ
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"

from .errors import (
    InvariantError,
    NotStaticError,
    OutOfRangeError,
    ResolutionError,
    ScatterError,
    SingularSystemError,
    StaticLimitError,
    TruncationError,
)
from .params import (
    EmitterParams,
    normalized_params,
)
from .bessel import bessel_j_sequence
from .scattering import (
    SidebandSet,
    auto_truncation,
    evaluate_sidebands,
    modulation_index,
    reflection_amplitudes,
    static_limit_amplitudes,
)
from .oracles import (
    ExcitationSpectrum,
    HarmonicBalanceSystem,
    TimeDomainTrace,
    ValidationReport,
    amplitudes_from_excitation,
    build_harmonic_balance,
    cross_validate,
    fourier_extract,
    harmonic_balance_solve,
    periodicity_defect,
    time_domain_excitation,
)
from .sweeps import SpectrumDataset, SweepSpec, figure_presets, run_sweep
from .cavity import (
    EmitterSite,
    GridState,
    ModulationSchedule,
    PacketSpec,
    TrapProtocol,
    TrapReport,
    default_trap_protocol,
    init_grid,
    norm,
    run_packet_scattering,
    run_protocol,
    step,
)

__all__ = [
    "InvariantError",
    "NotStaticError",
    "OutOfRangeError",
    "ResolutionError",
    "ScatterError",
    "SingularSystemError",
    "StaticLimitError",
    "TruncationError",
    "EmitterParams",
    "normalized_params",
    "bessel_j_sequence",
    "SidebandSet",
    "auto_truncation",
    "evaluate_sidebands",
    "modulation_index",
    "reflection_amplitudes",
    "static_limit_amplitudes",
    "ExcitationSpectrum",
    "HarmonicBalanceSystem",
    "TimeDomainTrace",
    "ValidationReport",
    "amplitudes_from_excitation",
    "build_harmonic_balance",
    "cross_validate",
    "fourier_extract",
    "harmonic_balance_solve",
    "periodicity_defect",
    "time_domain_excitation",
    "SpectrumDataset",
    "SweepSpec",
    "figure_presets",
    "run_sweep",
    "EmitterSite",
    "GridState",
    "ModulationSchedule",
    "PacketSpec",
    "TrapProtocol",
    "TrapReport",
    "default_trap_protocol",
    "init_grid",
    "norm",
    "run_packet_scattering",
    "run_protocol",
    "step",
]
