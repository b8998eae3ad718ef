"""Self-contained Bessel functions of the first kind, integer order.

The sideband closed forms below rest entirely on J_n, so the evaluation is
kept in-house and testable in isolation rather than delegated:

* power series for |x| <= SERIES_CUTOFF (alternating series, term recurrence,
  first term through lgamma to dodge overflow at large order),
* Miller backward recurrence for larger arguments, normalized with the
  even-order sum rule J_0(x) + 2*sum_k J_{2k}(x) = 1.

Accuracy budget: absolute error <= 1e-12 on |x| < 1e3, any integer order.
Outside that domain the functions refuse rather than degrade silently.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import OutOfRangeError

SERIES_CUTOFF = 6.0
DOMAIN_LIMIT = 1.0e3
_RESCALE = 1.0e250


def _series_single(n: int, x: float) -> float:
    # J_n(x) = sum_m (-1)^m (x/2)^(n+2m) / (m! (n+m)!), n >= 0, |x| small.
    h = 0.5 * x
    if h == 0.0:  # includes subnormal x whose half rounds to zero
        return 1.0 if n == 0 else 0.0
    # first term via logs so J_500(1e-3) underflows to 0.0 instead of raising
    lt = n * math.log(abs(h)) - math.lgamma(n + 1)
    if lt < -745.0:  # below double underflow, series is 0 to >1e-300
        return 0.0
    term = math.exp(lt)
    total = term
    h2 = h * h
    for m in range(1, 400):
        term *= -h2 / (m * (n + m))
        total += term
        if abs(term) <= 1e-17 * max(abs(total), 1e-280):
            break
    return total


def _miller_sequence(n_max: int, x: float) -> np.ndarray:
    # Backward recurrence J_{k-1} = (2k/x) J_k - J_{k+1}, started far above
    # both n_max and the turnover k ~ x, then normalized by the sum rule.
    start = max(n_max, int(math.ceil(x))) + 16 + int(2.5 * math.sqrt(max(n_max, x, 1.0)))
    fk1 = 0.0  # f_{start+1}
    fk = 1e-30  # f_{start}
    out = np.zeros(n_max + 1)
    ssum = 0.0  # running J_0 + 2*sum_{even k>=2} J_k, unnormalized
    for k in range(start, 0, -1):
        fk0 = (2.0 * k / x) * fk - fk1
        fk1 = fk
        fk = fk0
        if k - 1 <= n_max:
            out[k - 1] = fk
        if (k - 1) % 2 == 0 and (k - 1) > 0:
            ssum += 2.0 * fk
        if abs(fk) > _RESCALE:
            fk /= _RESCALE
            fk1 /= _RESCALE
            ssum /= _RESCALE
            out /= _RESCALE
    ssum += fk  # the k=0 term
    return out / ssum


def bessel_j_sequence(n_max: int, x: float) -> np.ndarray:
    """J_0(x) .. J_{n_max}(x) as a float array.

    Raises OutOfRangeError outside the validated domain |x| < 1e3.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if not math.isfinite(x) or abs(x) >= DOMAIN_LIMIT:
        raise OutOfRangeError(
            f"argument {x!r} outside validated domain |x| < {DOMAIN_LIMIT:g}"
        )
    ax = abs(x)
    if ax <= SERIES_CUTOFF:
        seq = np.array([_series_single(n, ax) for n in range(n_max + 1)])
    else:
        seq = _miller_sequence(n_max, ax)
    if x < 0:
        # J_n(-x) = (-1)^n J_n(x), exact
        seq[1::2] = -seq[1::2]
    return seq
