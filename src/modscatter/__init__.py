"""Single-photon scattering on a periodically frequency-modulated waveguide
emitter: closed-form sideband amplitudes, two independent cross-check
solvers, parameter sweeps, and a space-time photon-trap simulator."""

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
    TruncationSpec,
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
    "TruncationSpec",
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
