"""Error types shared across the engine.

Every failure mode carries a stable ``code`` string so callers (and the CLI)
can react without string-matching messages.
"""

from __future__ import annotations


class ScatterError(Exception):
    """Base class for all engine errors."""

    code = "internal"


class StaticLimitError(ScatterError):
    """Raised when a modulation-dependent quantity is requested at zero
    modulation frequency; callers must use the static-limit routines."""

    code = "static-limit"


class OutOfRangeError(ScatterError):
    """Argument outside the validated accuracy domain."""

    code = "out-of-range"


class TruncationError(ScatterError):
    """Series truncation failed to converge below the requested tolerance."""

    code = "truncation-failure"

    def __init__(self, message: str, achieved_defect: float | None = None):
        super().__init__(message)
        self.achieved_defect = achieved_defect


class NotStaticError(ScatterError):
    """Static-limit routine called with active modulation."""

    code = "not-static"


class SingularSystemError(ScatterError):
    """Linear system has a singular pivot (only possible at zero coupling)."""

    code = "singular-system"


class ResolutionError(ScatterError):
    """Grid too coarse to resolve the packet envelope."""

    code = "resolution-error"


class InvariantError(ScatterError):
    """An incrementally updated quantity disagrees with its recount."""

    code = "invariant-violation"
