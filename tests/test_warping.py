"""Tests for the coefficient warping function and its degenerate limits."""

import math

import numpy as np
import pytest
import scipy.stats

from warpmix import DomainError, RngStream, UsageError, warp_pairwise

from _support import ks_statistic
from reference_incbeta import ref_incbeta


def test_identity_at_tau_one():
    lams = np.linspace(0.0, 1.0, 101)
    assert np.allclose(warp_pairwise(lams, np.ones(101)), lams, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize(
    "lam,tau,expected",
    [
        (0.3, 1.0, 0.3),
        (0.5, 7.0, 0.5),
        (0.3, 2.0, 0.216),
        (0.25, 2.0, 0.15625),
    ],
)
def test_finite_warp_values(lam, tau, expected):
    assert warp_pairwise([lam], [tau])[0] == pytest.approx(expected, abs=1e-12)


def test_infinite_warp_is_a_step():
    # documented tie-break: the midpoint 0.5 goes to the first pair member
    out = warp_pairwise([0.3, 0.7, 0.0, 1.0, 0.5], [math.inf] * 5)
    assert out.tolist() == [0.0, 1.0, 0.0, 1.0, 1.0]


def test_plain_floats_accepted_for_tau():
    # plain Python lists of floats, an integer among them, stand for the arrays
    out = warp_pairwise([0.3, 0.3, 0.3], [2.0, math.inf, 2])
    assert out[0] == pytest.approx(0.216, abs=1e-12)
    assert out[1] == 0.0 and out[2] == out[0]


def test_warp_rejects_out_of_range_coefficients():
    for bad in (-0.01, 1.01, math.nan):
        with pytest.raises(DomainError):
            warp_pairwise([bad], [1.0])
        with pytest.raises(DomainError):
            warp_pairwise([0.3, bad], [2.0, 2.0])


def test_warp_strength_validation():
    for bad_tau in (0.0, -3.0, math.nan):
        with pytest.raises(DomainError):
            warp_pairwise([0.3], [bad_tau])
        with pytest.raises(DomainError):
            warp_pairwise([0.3, 0.6], [2.0, bad_tau])
    # inf is the step limit, not an error
    assert list(warp_pairwise([0.3, 0.7], [math.inf, math.inf])) == [0.0, 1.0]
    assert 0.7 < warp_pairwise([0.7], [2.0])[0] < 1.0


def test_point_symmetry():
    lams = np.linspace(0.0, 1.0, 81)
    for tau in (0.2, 0.5, 1.0, 2.0, 7.0, 50.0):
        taus = np.full(lams.shape, tau)
        lhs = warp_pairwise(1.0 - lams, taus)
        rhs = 1.0 - warp_pairwise(lams, taus)
        assert np.all(np.abs(lhs - rhs) <= 1e-12), tau


def test_direction_of_warping():
    # tau > 1 pushes coefficients toward the endpoints, tau < 1 pulls
    # them toward 0.5
    upper, lower = np.linspace(0.51, 0.99, 25), np.linspace(0.01, 0.49, 25)
    push, pull = np.full(25, 4.0), np.full(25, 0.3)
    assert np.all(warp_pairwise(upper, push) >= upper) and np.all(warp_pairwise(upper, pull) <= upper)
    assert np.all(warp_pairwise(lower, push) <= lower) and np.all(warp_pairwise(lower, pull) >= lower)


@pytest.mark.parametrize("tau", [0.1, 0.7, 1.0, 3.0, 20.0])
def test_strictly_increasing_for_finite_tau(tau):
    # strict where float64 can still represent the difference; in the
    # far tails of large tau the CDF saturates to exactly 0.0/1.0 (so
    # does scipy), so only require non-decreasing overall
    xs = np.linspace(0.0, 1.0, 201)
    vals = warp_pairwise(xs, np.full(xs.shape, tau))
    assert np.all(np.diff(vals) >= 0.0)
    interior = (vals > 1e-9) & (vals < 1.0 - 1e-9)
    assert interior.sum() > 50
    assert np.all(np.diff(vals[interior]) > 0.0)


def test_pairwise_matches_scalar_calls():
    rng = RngStream(17)
    lams = rng.uniform(size=64)
    taus = 10.0 ** (rng.uniform(size=64) * 4 - 2)
    # identity and step entries, with the step's tie at 0.5
    lams = np.concatenate([lams, [0.0, 0.2, 0.5, 1.0, 0.0, 0.2, 0.5, 1.0]])
    taus = np.concatenate([taus, [1.0] * 4, [math.inf] * 4])
    out = warp_pairwise(lams, taus)
    for i in range(lams.shape[0]):
        lam, tau = float(lams[i]), float(taus[i])
        assert out[i] == warp_pairwise([lam], [tau])[0]  # each lane as if warped alone
        if tau == math.inf:
            assert out[i] == (1.0 if lam >= 0.5 else 0.0)
        else:
            assert out[i] == ref_incbeta(lam, tau, tau)


@pytest.mark.parametrize(
    "lams,taus,expected",
    [
        ([0.5, 0.5], [0.5, 7.0], [0.5, 0.5]),
        ([0.3], [1.0], [0.3]),
        ([0.25, 0.75], [2.0, 2.0], [0.15625, 0.84375]),
    ],
)
def test_pairwise_values(lams, taus, expected):
    out = warp_pairwise(lams, taus)
    assert np.allclose(out, expected, atol=1e-12)


def test_pairwise_mixed_kinds():
    out = warp_pairwise([0.3, 0.7, 0.5], [math.inf, math.inf, 1.0])
    assert list(out) == [0.0, 1.0, 0.5]


def test_pairwise_of_no_lanes_is_an_empty_float_array():
    out = warp_pairwise([], [])
    assert out.shape == (0,) and out.dtype == np.float64


def test_pairwise_length_mismatch():
    with pytest.raises(UsageError):
        warp_pairwise([0.1, 0.2], [1.0])


def test_pairwise_clamps_finite_strengths_and_keeps_the_step():
    # finite strengths outside the shape range are clamped; an infinite one stays the step
    out = warp_pairwise([0.3, 0.4, 0.6, 0.7], [1e7, 2.0, 1e-9, math.inf])
    assert np.array_equal(out, warp_pairwise([0.3, 0.4, 0.6, 0.7], [1e6, 2.0, 1e-4, math.inf]))
    assert out[3] == 1.0


def test_pairwise_rejects_matrix_input():
    with pytest.raises(UsageError):
        warp_pairwise(np.zeros((2, 2)), [1.0] * 2)
    with pytest.raises(UsageError):
        warp_pairwise([0.1, 0.2], np.ones((2, 1)))


def test_warped_uniform_matches_fitted_betas():
    """Pushing Uniform(0,1) through the warp reproduces the fitted shapes:
    tau=0.5 concentrates like Beta(2.1, 2.1), tau=7 spreads to the
    endpoints like Beta(0.2, 0.2)."""
    stream = RngStream(424242)
    lams = stream.uniform(size=100_000)
    for tau, fitted in ((0.5, 2.1), (7.0, 0.2)):
        warped = warp_pairwise(lams, np.full(lams.shape[0], tau))
        stat = ks_statistic(warped, lambda x: scipy.stats.beta.cdf(x, fitted, fitted))
        assert stat < 0.03, (tau, fitted, stat)
