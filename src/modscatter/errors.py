"""Error types shared across the engine.

Every failure mode carries a stable ``code`` string so callers can react
without string-matching messages, and the ``exit_code`` the CLI returns for
it: a numerical-quality failure, a usage error or an internal error.
Warnings of the engine point at the caller's code (`caller_stacklevel`).
"""

from __future__ import annotations

import sys

EXIT_QUALITY = 2
EXIT_USAGE = 64
EXIT_INTERNAL = 70


class ScatterError(Exception):
    """Base class for all engine errors."""

    code = "internal"
    exit_code = EXIT_INTERNAL


class StaticLimitError(ScatterError):
    """Raised when a modulation-dependent quantity is requested at zero
    modulation frequency; callers must use the static-limit routines."""

    code = "static-limit"
    exit_code = EXIT_USAGE


class OutOfRangeError(ScatterError):
    """Argument outside the validated accuracy domain."""

    code = "out-of-range"
    exit_code = EXIT_USAGE


class TruncationError(ScatterError):
    """Series truncation failed to converge below the requested tolerance."""

    code = "truncation-failure"
    exit_code = EXIT_QUALITY

    def __init__(self, message: str, achieved_defect: float | None = None):
        super().__init__(message)
        self.achieved_defect = achieved_defect


class NotStaticError(ScatterError):
    """Static-limit routine called with active modulation."""

    code = "not-static"
    exit_code = EXIT_USAGE


class SingularSystemError(ScatterError):
    """Harmonic-balance system unusable: zero coupling makes it singular, or
    its solution fails the residual check."""

    code = "singular-system"
    exit_code = EXIT_QUALITY


class ResolutionError(ScatterError):
    """Grid too coarse to resolve the packet envelope."""

    code = "resolution-error"
    exit_code = EXIT_USAGE


class InvariantError(ScatterError):
    """An incrementally updated quantity disagrees with its recount."""

    code = "invariant-violation"
    exit_code = EXIT_QUALITY


def caller_stacklevel() -> int:
    """The `warnings.warn` stacklevel, for the function that warns, of the
    first frame outside this package.

    A frame is inside when its module is, so the `__init__` that dataclasses
    generate for a package class (file "<string>") counts as inside too.
    """
    package = __name__.partition(".")[0]
    level, frame = 1, sys._getframe(1)
    while (frame.f_back is not None
           and frame.f_globals.get("__name__", "").partition(".")[0] == package):
        level, frame = level + 1, frame.f_back
    return level
