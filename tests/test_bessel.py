import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from modscatter import OutOfRangeError, bessel_j_sequence
from modscatter.scattering import _bessel_window
from conftest import bessel_series_oracle


def window_at(n, x):
    """J_n(x) as the series route reads it: entry n of the Bessel window,
    negative orders by parity."""
    return float(_bessel_window(x, abs(n))[n + abs(n)])


class TestAgainstSeriesOracle:
    """First line of defence: a from-scratch power series, no shared code."""

    def test_order_zero_at_2p5(self):
        assert bessel_j_sequence(0, 2.5)[0] == pytest.approx(
            bessel_series_oracle(0, 2.5), abs=1e-14
        )

    @pytest.mark.parametrize("n", range(0, 9))
    @pytest.mark.parametrize("x", [0.1, 0.7, 1.3, 2.5, 4.0, 5.5])
    def test_small_argument_grid(self, n, x):
        assert bessel_j_sequence(n, x)[n] == pytest.approx(
            bessel_series_oracle(n, x, terms=30), abs=1e-13
        )


def phase_tol(x):
    """Agreement bound between independent implementations.

    Both sides evaluate an oscillatory function whose argument carries a
    rounding error of order x*eps, so the achievable absolute agreement
    degrades linearly with |x|. Measured headroom is about 4x.
    """
    return 40.0 * np.finfo(float).eps * max(1.0, abs(x))


class TestAgainstScipy:
    """Second line: an independent mature implementation."""

    @pytest.mark.parametrize("x", [0.5, 2.405, 5.0, 8.7, 12.0, 25.0, 60.0, 150.0])
    def test_sequence_matches_jv(self, x):
        n_max = 40
        ours = bessel_j_sequence(n_max, x)
        theirs = scipy.special.jv(np.arange(n_max + 1), x)
        np.testing.assert_allclose(ours, theirs, rtol=0, atol=phase_tol(x))

    @pytest.mark.parametrize("n", [-7, -1, 0, 3, 55])
    @pytest.mark.parametrize("x", [-20.0, -1.5, 0.0, 3.3, 90.0])
    def test_scalar_matches_jv(self, n, x):
        assert window_at(n, x) == pytest.approx(
            float(scipy.special.jv(n, x)), abs=phase_tol(x)
        )


BUDGET_ARGS = (1e-300, 1e-12, 1e-6, 0.37, 2.5, 5.999, 6.0, 6.001, 60.0, 333.3, 998.9)
BUDGET_SPOT_ORDERS = (0, 1, 2, 7, 55, 999, 1500)


def mpmath_sequence(mpmath, n_max, x):
    """J_0(x) .. J_{n_max}(x) as floats from a 40-digit backward recurrence.

    Started far above both n_max and x and scaled to mpmath's own J_0(x);
    40 digits and unbounded exponents leave no rounding or underflow issue.
    """
    with mpmath.workdps(40):
        xm = mpmath.mpf(x)
        f_above, f = mpmath.mpf(0), mpmath.mpf(1)
        seq = [f] * (n_max + 1)
        for k in range(int(max(n_max, x)) + 100, 0, -1):
            f_above, f = f, 2 * k / xm * f - f_above  # f is now f_{k-1}
            if k - 1 <= n_max:
                seq[k - 1] = f
        scale = mpmath.besselj(0, xm) / f
        return np.array([float(v * scale) for v in seq])


class TestAccuracyBudget:
    """The stated budget, 1e-12 absolute on |x| < 1e3, against mpmath."""

    @pytest.mark.parametrize("x", BUDGET_ARGS)
    def test_orders_0_to_1500_within_budget(self, x):
        mpmath = pytest.importorskip("mpmath")
        ref = mpmath_sequence(mpmath, 1500, x)
        for n in BUDGET_SPOT_ORDERS:
            # the reference itself, order by order
            assert ref[n] == pytest.approx(
                float(mpmath.besselj(n, x)), rel=1e-14, abs=1e-300
            )
            # a sequence that ends at order n, as short windows do
            assert abs(bessel_j_sequence(n, x)[n] - ref[n]) <= 1e-12, f"order {n}"
        err = np.abs(bessel_j_sequence(1500, x) - ref)
        worst = int(np.argmax(err))
        assert err[worst] <= 1e-12, f"|error| {err[worst]:.3e} at order {worst}"


class TestExactStructure:
    def test_at_zero(self):
        seq = bessel_j_sequence(6, 0.0)
        assert seq[0] == 1.0
        assert np.all(seq[1:] == 0.0)

    def test_negative_order_reflection_is_exact(self):
        window = _bessel_window(3.7, 11)  # J_k at index k + 11
        assert window[11:].tobytes() == bessel_j_sequence(11, 3.7).tobytes()
        for n in range(1, 12):
            assert window[11 - n] == (-1.0) ** n * window[11 + n]

    def test_negative_argument_parity_is_exact(self):
        for n in range(0, 12):
            assert bessel_j_sequence(n, -4.1)[n] == (
                (-1.0) ** n * bessel_j_sequence(n, 4.1)[n]
            )

    @pytest.mark.parametrize("x", [0.3, 2.405, 7.7, 31.0, 200.0])
    def test_sum_rule(self, x):
        n_max = int(x) + 40
        seq = bessel_j_sequence(n_max, x)
        total = seq[0] ** 2 + 2.0 * np.sum(seq[1:] ** 2)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_high_order_underflow_is_zero_not_garbage(self):
        val = bessel_j_sequence(300, 1.0)[300]
        assert val == 0.0 or abs(val) < 1e-300

    def test_domain_limit_raises(self):
        with pytest.raises(OutOfRangeError):
            bessel_j_sequence(0, 1e3)
        with pytest.raises(OutOfRangeError):
            bessel_j_sequence(4, -1e4)

    def test_sequence_rejects_negative_length(self):
        with pytest.raises(ValueError):
            bessel_j_sequence(-1, 1.0)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=30),
    x=st.floats(min_value=-80.0, max_value=80.0, allow_nan=False),
)
def test_hypothesis_matches_scipy(n, x):
    ours = bessel_j_sequence(n, x)[n]
    ref = float(scipy.special.jv(n, x))
    assert math.isclose(ours, ref, rel_tol=0.0, abs_tol=phase_tol(x))


@settings(max_examples=40, deadline=None)
@given(x=st.floats(min_value=0.0, max_value=60.0, allow_nan=False))
def test_hypothesis_sum_rule(x):
    seq = bessel_j_sequence(int(x) + 35, x)
    assert seq[0] ** 2 + 2.0 * float(np.sum(seq[1:] ** 2)) == pytest.approx(
        1.0, abs=1e-11
    )
