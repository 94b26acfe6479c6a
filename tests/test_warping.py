"""Tests for the coefficient warping function and its degenerate limits."""

import logging
import math

import numpy as np
import pytest
import scipy.stats

from warpmix import DomainError, RngStream, UsageError, incomplete_beta_reg, warp, warp_pairwise

from _support import ks_statistic


def test_identity_at_tau_one():
    for lam in np.linspace(0.0, 1.0, 101):
        assert warp(float(lam), 1.0) == pytest.approx(float(lam), abs=1e-12)


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
    assert warp(lam, tau) == pytest.approx(expected, abs=1e-12)


def test_infinite_warp_is_a_step():
    inf_tau = math.inf
    assert warp(0.3, inf_tau) == 0.0
    assert warp(0.7, inf_tau) == 1.0
    assert warp(0.0, inf_tau) == 0.0
    assert warp(1.0, inf_tau) == 1.0
    # documented tie-break: the midpoint goes to the first pair member
    assert warp(0.5, inf_tau) == 1.0


def test_plain_floats_accepted_for_tau():
    assert warp(0.3, 2.0) == pytest.approx(0.216, abs=1e-12)
    assert warp(0.3, math.inf) == 0.0


def test_warp_rejects_out_of_range_coefficients():
    for bad in (-0.01, 1.01, math.nan):
        with pytest.raises(DomainError):
            warp(bad, 1.0)
        with pytest.raises(DomainError):
            warp_pairwise([0.3, bad], [2.0, 2.0])


def test_warp_strength_validation():
    for bad_tau in (0.0, -3.0, math.nan):
        with pytest.raises(DomainError):
            warp(0.3, bad_tau)
        with pytest.raises(DomainError):
            warp_pairwise([0.3, 0.6], [2.0, bad_tau])
    # inf is the step limit, not an error
    assert warp(0.7, math.inf) == 1.0
    assert list(warp_pairwise([0.3, 0.7], [math.inf, math.inf])) == [0.0, 1.0]
    assert 0.7 < warp(0.7, 2.0) < 1.0


def test_point_symmetry():
    for tau in (0.2, 0.5, 1.0, 2.0, 7.0, 50.0):
        for lam in np.linspace(0.0, 1.0, 81):
            lhs = warp(float(1.0 - lam), tau)
            rhs = 1.0 - warp(float(lam), tau)
            assert abs(lhs - rhs) <= 1e-12


def test_direction_of_warping():
    # tau > 1 pushes coefficients toward the endpoints, tau < 1 pulls
    # them toward 0.5
    for lam in np.linspace(0.51, 0.99, 25):
        assert warp(float(lam), 4.0) >= float(lam)
        assert warp(float(lam), 0.3) <= float(lam)
    for lam in np.linspace(0.01, 0.49, 25):
        assert warp(float(lam), 4.0) <= float(lam)
        assert warp(float(lam), 0.3) >= float(lam)


@pytest.mark.parametrize("tau", [0.1, 0.7, 1.0, 3.0, 20.0])
def test_strictly_increasing_for_finite_tau(tau):
    # strict where float64 can still represent the difference; in the
    # far tails of large tau the CDF saturates to exactly 0.0/1.0 (so
    # does scipy), so only require non-decreasing overall
    xs = np.linspace(0.0, 1.0, 201)
    vals = np.array([warp(float(x), tau) for x in xs])
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
        assert out[i] == warp(lam, tau)
        if tau == math.inf:
            assert out[i] == (1.0 if lam >= 0.5 else 0.0)
        else:
            assert out[i] == incomplete_beta_reg(lam, tau, tau)


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


def test_pairwise_length_mismatch():
    with pytest.raises(UsageError):
        warp_pairwise([0.1, 0.2], [1.0])


def test_pairwise_counts_each_clamped_strength_once(caplog):
    # a strength is both shapes of its Beta(tau, tau), but one value to clamp
    with caplog.at_level(logging.DEBUG, logger="warpmix.numerics"):
        out = warp_pairwise([0.3, 0.4, 0.6], [1e7, 2.0, 1e-9])
        incomplete_beta_reg(0.3, 1e7, 1e7)
    assert np.array_equal(out, warp_pairwise([0.3, 0.4, 0.6], [1e6, 2.0, 1e-4]))
    clamps = [rec.getMessage() for rec in caplog.records if "clamp" in rec.getMessage()]
    assert [message.split(" shape")[0] for message in clamps] == ["clamping 2", "clamping 2"]


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
