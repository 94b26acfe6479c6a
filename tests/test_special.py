"""Tests for the symmetric incomplete beta kernel, through its one checked
entry ``warp_pairwise``, and for Beta sampling."""

import math
import re

import mpmath
import numpy as np
import pytest
import scipy.special
import scipy.stats

from warpmix import (
    DomainError,
    NonConvergenceError,
    RngStream,
    UsageError,
    beta_sample,
    warp_pairwise,
)
from warpmix import special

from _support import ks_statistic
from reference_incbeta import ref_beta_cont_frac, ref_incbeta, ref_log_front

mpmath.mp.dps = 50


def warp_at(xs, tau):
    """I_x(tau, tau) for each x of a 1-d array, all at one finite strength."""
    xs = np.asarray(xs, dtype=np.float64)
    return warp_pairwise(xs, np.full(xs.shape, tau))


# ------------------------------------------------- I_x(tau, tau) by warp_pairwise


@pytest.mark.parametrize(
    "x,tau,expected",
    [
        (0.3, 1.0, 0.3),
        (0.25, 2.0, 0.15625),
        (0.75, 2.0, 0.84375),
    ],
)
def test_incbeta_known_values(x, tau, expected):
    assert warp_pairwise([x], [tau])[0] == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("tau", [0.3, 1.0, 2.0, 7.0, 1e3, 1e6])
def test_incbeta_half_at_symmetric_shapes(tau):
    assert warp_pairwise([0.5], [tau])[0] == 0.5


@pytest.mark.parametrize("tau", [1e-3, 0.2, 1.0, 2.0, 7.0, 1e3])
def test_incbeta_exact_endpoints(tau):
    assert warp_at([0.0, 1.0], tau).tolist() == [0.0, 1.0]


def test_incbeta_cubic_closed_form():
    # I_x(2,2) integrates the density 6t(1-t) to 3x^2 - 2x^3
    xs = np.linspace(0.0, 1.0, 101)
    want = 3.0 * xs**2 - 2.0 * xs**3
    assert np.all(np.abs(warp_at(xs, 2.0) - want) <= 1e-13)


def test_incbeta_against_scipy_wide_grid():
    shapes = [1e-3, 0.05, 0.2, 1.0, 2.0, 7.0, 40.0, 1e3, 1e5]
    xs = np.linspace(0.0, 1.0, 41)
    for a in shapes:
        got = warp_at(xs, a)
        want = scipy.special.betainc(a, a, xs)
        assert np.all(np.abs(got - want) <= 1e-10), (a, got, want)


def test_incbeta_against_scipy_sharp_transition():
    # large symmetric shapes concentrate all mass near 0.5
    for tau in (1e3, 1e4, 1e5):
        sigma = math.sqrt(1.0 / (8.0 * tau))
        xs = np.linspace(0.5 - 6 * sigma, 0.5 + 6 * sigma, 81)
        got = warp_at(xs, tau)
        want = scipy.special.betainc(tau, tau, xs)
        assert np.all(np.abs(got - want) <= 1e-10), (tau, got, want)


def test_incbeta_symmetry_relation():
    shapes = [0.02, 0.5, 1.0, 2.5, 40.0, 1e3]
    xs = np.linspace(0.0, 1.0, 201)
    for a in shapes:
        lhs = warp_at(xs, a)
        rhs = 1.0 - warp_at(1.0 - xs, a)
        assert np.all(np.abs(lhs - rhs) <= 1e-12), a


@pytest.mark.parametrize("tau", [0.2, 7.0])
def test_incbeta_monotone_in_x(tau):
    vals = warp_at(np.linspace(0.0, 1.0, 401), tau)
    assert np.all(np.diff(vals) >= -1e-15)
    assert vals[0] == 0.0 and vals[-1] == 1.0


def test_incbeta_rejects_bad_inputs():
    for bad_x in (-0.1, 1.1, math.nan):
        with pytest.raises(DomainError):
            warp_pairwise([bad_x], [1.0])
    # math.inf is the step limit, not a bad strength
    for bad_shape in (0.0, -2.0, -math.inf, math.nan):
        with pytest.raises(DomainError):
            warp_pairwise([0.5], [bad_shape])


def test_incbeta_reports_nonconvergence(monkeypatch):
    # the continued fraction needs 52 iterations next to 1/2 just below the
    # switch-over, so under a cap of 40 it stalls there; the error carries the
    # arguments
    monkeypatch.setattr(special, "_CF_MAX_ITER", 40)
    with pytest.raises(NonConvergenceError) as info:
        warp_pairwise([0.4999], [999.0])
    assert info.value.x == 0.4999
    assert info.value.a == 999.0 and info.value.b == 999.0


def test_incbeta_symmetric_scan_converges_within_a_quarter_of_the_cap(monkeypatch):
    # the scan that sets _CF_MAX_ITER: 121 shapes below the switch-over, each on
    # the interior of a grid, +-8 standard deviations around 1/2 and the float
    # neighbours of 1/2 and of the endpoints
    shapes = np.geomspace(1e-4, 999.999, 120).tolist() + [float(np.nextafter(1000.0, 0.0))]
    monkeypatch.setattr(special, "_CF_MAX_ITER", special._CF_MAX_ITER // 4)
    for a in shapes:
        sigma = math.sqrt(1.0 / (8.0 * a))
        xs = np.concatenate([
            np.linspace(0.0, 1.0, 201)[1:-1],
            np.clip(np.linspace(0.5 - 8.0 * sigma, 0.5 + 8.0 * sigma, 161), 0.0, 1.0),
            [0.5 - 2.0**-54, 0.5 - 2.0**-53, 0.5 + 2.0**-53, 1e-300, 1.0 - 2.0**-53],
        ])
        got = warp_at(xs, a)
        assert np.all((got >= 0.0) & (got <= 1.0)), a
    # the scan's worst point needs exactly 52 iterations
    monkeypatch.setattr(special, "_CF_MAX_ITER", 51)
    with pytest.raises(NonConvergenceError):
        warp_pairwise([0.5 - 2.0**-54], [999.999])
    monkeypatch.setattr(special, "_CF_MAX_ITER", 52)
    warp_pairwise([0.5 - 2.0**-54], [999.999])


def test_incbeta_output_clamped_to_unit_interval():
    rng = np.random.default_rng(7)
    pairs = [(float(rng.uniform()), float(10.0 ** rng.uniform(-3, 4))) for _ in range(500)]
    v = warp_pairwise(*zip(*pairs))
    assert np.all((v >= 0.0) & (v <= 1.0))


def cf_incbeta(x, a, b):
    """I_x(a, b) for 0 < x < 1 by the reference continued fraction alone."""
    if x < (a + 1.0) / (a + b + 2.0):
        value = math.exp(ref_log_front(x, a, b)) * ref_beta_cont_frac(a, b, x) / a
    else:
        value = 1.0 - math.exp(ref_log_front(1.0 - x, b, a)) * ref_beta_cont_frac(b, a, 1.0 - x) / b
    return min(1.0, max(0.0, value))


def ungated_incbeta(x, a, b):
    """I_x(a, b) with every interior point through the closed form (a == b >=
    _ASYMPTOTIC_MIN) or the continued fraction, as before the symmetric cut;
    shapes must already lie in the accepted range."""
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    if a == 1.0 and b == 1.0:
        return x
    if a == b and x == 0.5:
        return 0.5
    if a == b and a >= special._ASYMPTOTIC_MIN:
        return special._incbeta_symmetric(x, a)
    return cf_incbeta(x, a, b)


def cut_points(tau):
    """x < 0.5 where tau ln(4x(1-x)) + ln(tau)/2 reaches the -800 cut, where exp
    starts to underflow (-745) and in between, each with float neighbours on
    both sides, and their mirrors (0 and 1 when a level is out of reach)."""
    near = []
    for level in (-800.0, -770.0, -745.0, -740.0):
        q = math.exp((level - 0.5 * math.log(tau)) / tau)
        lo = 0.5 * (1.0 - math.sqrt(1.0 - q))
        near += [lo * (1.0 - 1e-9), np.nextafter(lo, 0.0), lo, np.nextafter(lo, 1.0), lo * (1.0 + 1e-9)]
    return np.clip(near + [1.0 - v for v in near], 0.0, 1.0)


@pytest.mark.parametrize("tau", [1e-4, 1e-3, 0.01, 0.2, 1.0, 2.0, 7.0, 20.0, 150.0, 1e3, 1e4, 1e5, 1e6])
def test_incbeta_symmetric_cut_is_bit_identical(tau):
    rng = np.random.default_rng(int(tau * 1e4) % 2**32)
    sigma = math.sqrt(1.0 / (8.0 * tau))
    xs = np.concatenate([
        np.linspace(0.0, 1.0, 201),
        np.sin(0.5 * math.pi * rng.uniform(size=500)) ** 2,  # arcsine draws
        np.clip(np.linspace(0.5 - 6 * sigma, 0.5 + 6 * sigma, 81), 0.0, 1.0),
        cut_points(tau),
    ])
    got = warp_at(xs, tau)
    want = np.array([ungated_incbeta(x, tau, tau) for x in xs.tolist()])
    assert np.array_equal(got, want)


def test_incbeta_bit_equal_to_the_general_reference(monkeypatch):
    # the symmetric kernel against the general I_x(a, b) engine it replaced, on
    # 311 shapes from SHAPE_MIN to SHAPE_MAX (300 log-uniform draws, the ends,
    # and 1, 20 and 1000 with their float neighbours) with 1014 lanes each: the
    # ends and 1/2, a grid, both tails down to 1e-300, +-6 standard deviations
    # around 1/2, uniform draws and the cut points
    paths = {"_beta_cont_frac": 0, "_incbeta_symmetric": 0}
    for name in paths:
        def counted(*args, name=name, original=getattr(special, name)):
            paths[name] += 1
            return original(*args)
        monkeypatch.setattr(special, name, counted)
    rng = np.random.default_rng(2024)
    edges = [1.0, 20.0, 1000.0]  # where the lane's path changes
    taus = np.concatenate([
        10.0 ** rng.uniform(-4.0, 6.0, size=300),
        [1e-4, 1e6], np.nextafter(edges, 0.0), np.nextafter(edges, math.inf), edges,
    ])
    lanes, cut = 0, 0
    for tau in taus.tolist():
        sigma = math.sqrt(1.0 / (8.0 * tau))
        xs = np.concatenate([
            [0.0, 1.0, 0.5],
            np.linspace(0.0, 1.0, 101),
            10.0 ** -rng.uniform(1.0, 300.0, size=300),
            1.0 - 10.0 ** -rng.uniform(1.0, 16.0, size=150),
            np.clip(0.5 + sigma * rng.uniform(-6.0, 6.0, size=300), 0.0, 1.0),
            rng.uniform(size=120),
            cut_points(tau),
        ])
        got = warp_at(xs, tau)
        want = np.array([ref_incbeta(x, tau, tau) for x in xs.tolist()])
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), tau
        lanes += xs.size
        if tau > 1.0:
            cut += np.count_nonzero((xs > 0.0) & (xs < 1.0) & ((got == 0.0) | (got == 1.0)))
    assert lanes == 311 * 1014
    # each regime carries a good share of the lanes (counted: 150900 through the
    # continued fraction, 30645 through the closed form, 96835 interior lanes
    # of a > 1 at exactly 0 or 1, nearly all of them cut)
    assert paths["_beta_cont_frac"] > 100_000 and paths["_incbeta_symmetric"] > 20_000 and cut > 50_000, (paths, cut)


def test_incbeta_cut_skips_the_continued_fraction(monkeypatch):
    calls = []

    def count(name):
        original = getattr(special, name)

        def counted(*args):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(special, name, counted)

    count("_beta_cont_frac")
    count("_incbeta_symmetric")
    assert warp_at([0.2, 0.8], 1e4).tolist() == [0.0, 1.0]
    assert calls == []
    # inside the cut, symmetric shapes from the switch-over up take the closed form
    amin = special._ASYMPTOTIC_MIN
    assert 0.0 < warp_pairwise([0.499], [1e4])[0] < 0.5
    assert 0.0 < warp_pairwise([0.499], [amin])[0] < 0.5
    assert calls == ["_incbeta_symmetric"] * 2
    below = np.nextafter(amin, 0.0)
    assert 0.0 < warp_pairwise([0.499], [below])[0] < 0.5
    assert calls[2:] == ["_beta_cont_frac"]


def symmetric_oracle(x, a):
    """I_x(a, a) = 1/2 - I_{(1-2x)^2}(1/2, a) / 2 for x <= 1/2, mirrored above.

    mpmath's betainc(a, a, ...) does not converge at large a, but this half
    identity does. The subtraction cancels about a z / ln 10 digits, z =
    -ln(4x(1-x)), so the working precision grows with them. Where the tail
    lies below 1e-310 it is returned as exactly 0 (or 1), which is exact to
    far better than any absolute error measured here.
    """
    d = abs(1.0 - 2.0 * x)
    digits = a * -math.log1p(-d * d) / math.log(10.0) if d < 1.0 else math.inf
    if digits > 310.0:
        return 0.0 if x < 0.5 else 1.0
    with mpmath.workdps(30 + int(digits)):
        half = mpmath.betainc(0.5, a, 0, (1 - 2 * mpmath.mpf(x)) ** 2, regularized=True) / 2
        return 0.5 - half if x <= 0.5 else 0.5 + half


def oracle_grid(a):
    """+-12 standard deviations around 0.5, the float neighbours of 0.5, both
    tails from e^-30 down to e^-690, and the float neighbours of the cut."""
    sigma = math.sqrt(1.0 / (8.0 * a))
    xs = list(np.linspace(0.5 - 12.0 * sigma, 0.5 + 12.0 * sigma, 49))
    xs += [0.5 - 2.0**-54, 0.5 - 2.0**-52, 0.5 + 2.0**-53, 0.5 + 2.0**-51]
    for w in (30.0, 100.0, 300.0, 500.0, 650.0, 690.0):  # the value is about e^-w
        d = math.sqrt(-math.expm1(-w / (a - 0.25)))
        xs += [0.5 * (1.0 - d), 0.5 * (1.0 + d)]
    xs += cut_points(a).tolist()
    return [x for x in xs if 0.0 < x < 1.0]


def test_incbeta_symmetric_closed_form_matches_oracle():
    # both sides of the switch-over, the paper's regression strengths (tau >=
    # 8007), and the saturated clamp at 1e6
    amin = special._ASYMPTOTIC_MIN
    worst = {path: [0.0, 0.0] for path in ("public", "closed", "cf")}  # max absolute, relative error
    points = 0
    for a in (float(np.nextafter(amin, 0.0)), amin, 2000.0, 8007.0, 3e4, 1e5, 7e5, 1e6):
        for x in oracle_grid(a):
            want = symmetric_oracle(x, a)
            got = {"public": float(warp_pairwise([x], [a])[0])}
            if a >= amin:
                got["closed"] = got["public"]
            try:
                got["cf"] = cf_incbeta(x, a, a)
            except NonConvergenceError:
                pass  # near 0.5 above a ~ 7e5
            for path, value in got.items():
                err = abs(value - want)
                worst[path][0] = max(worst[path][0], float(err))
                if want >= 1e-300:
                    worst[path][1] = max(worst[path][1], float(err / want))
            points += 1
    assert points < 3000  # the oracle takes up to a few ms a point in the far tails
    assert worst["public"][0] <= worst["cf"][0], worst
    assert worst["public"][1] <= worst["cf"][1], worst
    # measured: 1.2e-16 and 1.8e-13
    assert worst["closed"][0] < 1e-15 and worst["closed"][1] < 1e-12, worst


def test_incbeta_largest_symmetric_shape_is_finite_everywhere():
    # the continued fraction stalled within about 2e-5 of 0.5 at this shape
    xs = np.concatenate([np.linspace(0.0, 1.0, 1001), np.linspace(0.5 - 1e-4, 0.5 + 1e-4, 1001)])
    got = warp_at(xs, 1e6)
    assert np.all(np.isfinite(got)) and np.all((got >= 0.0) & (got <= 1.0))


@pytest.mark.parametrize("a", [1000.0, 8007.0, 1e6])
def test_incbeta_closed_form_monotone_and_mirrored(a):
    sigma = math.sqrt(1.0 / (8.0 * a))
    half = np.array([0.5 - 2.0**-53, 0.5 - 2.0**-54, 0.5, 0.5 + 2.0**-53, 0.5 + 2.0**-52])
    xs = np.sort(np.concatenate([np.linspace(0.5 - 12.0 * sigma, 0.5 + 12.0 * sigma, 4001), half]))
    got = warp_at(xs, a)
    assert np.all(np.diff(got) >= 0.0)
    assert got[xs == 0.5][0] == 0.5
    # 1 - x is exact for x >= 1/2, so the mirror holds to the bit
    upper = xs[xs >= 0.5]
    assert np.array_equal(warp_at(upper, a), 1.0 - warp_at(1.0 - upper, a))


def test_incbeta_array_still_reports_nonconvergence(monkeypatch):
    monkeypatch.setattr(special, "_CF_MAX_ITER", 40)
    with pytest.raises(NonConvergenceError) as info:
        warp_at([0.2, 0.4999], 999.0)
    assert info.value.x == 0.4999
    assert info.value.a == 999.0 and info.value.b == 999.0


def test_incbeta_array_validation():
    with pytest.raises(UsageError):
        warp_pairwise([0.1, 0.2, 0.3], [1.0, 2.0])
    with pytest.raises(DomainError):
        warp_pairwise([0.1, 1.2], [2.0, 2.0])
    with pytest.raises(DomainError):
        warp_pairwise([0.1, 0.2], [2.0, math.nan])
    with pytest.raises(DomainError):
        warp_pairwise([0.1, 0.2], [-math.inf, 2.0])


def test_incbeta_clamps_shapes_on_both_sides_of_the_range():
    xs = np.linspace(0.1, 0.9, 9)
    shapes = np.where(xs < 0.5, 1e9, 1e-7)
    clamped = np.where(xs < 0.5, 1e6, 1e-4)
    assert np.array_equal(warp_pairwise(xs, shapes), warp_pairwise(xs, clamped))


# ------------------------------------------------------------ beta_sample


def test_beta_sample_deterministic_per_seed():
    a = [beta_sample(0.5, RngStream(123)) for _ in range(1)]
    b = [beta_sample(0.5, RngStream(123)) for _ in range(1)]
    assert a == b
    stream = RngStream(123)
    seq1 = [beta_sample(0.5, stream) for _ in range(50)]
    stream = RngStream(123)
    seq2 = [beta_sample(0.5, stream) for _ in range(50)]
    assert seq1 == seq2


@pytest.mark.parametrize("alpha", [1e-4, 0.2, 0.5, 1.0, 7.0])
def test_beta_sample_sized_draw_equals_single_draws(alpha):
    for seed, k in ((0, 1), (4, 16), (9, 257)):
        sized = beta_sample(alpha, RngStream(seed), size=k)
        stream = RngStream(seed)
        singles = [beta_sample(alpha, stream) for _ in range(k)]
        assert isinstance(sized, np.ndarray) and sized.dtype == np.float64
        assert sized.tolist() == singles
    assert type(beta_sample(alpha, RngStream(0))) is float
    assert beta_sample(alpha, RngStream(0), size=0).shape == (0,)
    assert beta_sample(alpha, RngStream(0), size=np.int64(3)).shape == (3,)


@pytest.mark.parametrize("size", [-1, np.nan, 2.5, "3", True, (2, 2)])
def test_beta_sample_rejects_bad_size(size):
    with pytest.raises(UsageError):
        beta_sample(0.5, RngStream(0), size=size)


@pytest.mark.parametrize("size, shown", [(2**62, "4.61e+18"), (2**63, "9.22e+18"), (10**400, "over 1e+308")],
                         ids=["2**62", "2**63", "10**400"])
def test_beta_sample_count_too_large_to_hold_is_memory_error(size, shown):
    # integers by the integer rule; numpy refuses the shape with a ValueError
    with pytest.raises(MemoryError, match=rf"^cannot hold {re.escape(shown)} Beta draws$"):
        beta_sample(1.0, RngStream(0), size=size)


def test_beta_sample_advances_state():
    stream = RngStream(5)
    draws = [beta_sample(2.0, stream) for _ in range(100)]
    assert len(set(draws)) > 90  # repeats would mean a frozen state


@pytest.mark.parametrize("alpha", [-1.0, 0.0])
def test_beta_sample_rejects_nonpositive_alpha(alpha):
    with pytest.raises(UsageError, match="alpha must be a finite number > 0"):
        beta_sample(alpha, RngStream(0))


def test_beta_sample_uniform_at_alpha_one():
    stream = RngStream(2024)
    draws = np.array([beta_sample(1.0, stream) for _ in range(100_000)])
    assert ks_statistic(draws, lambda x: x) < 0.01


@pytest.mark.parametrize("alpha", [0.2, 0.5, 1.0, 2.0, 7.0])
def test_beta_sample_matches_analytic_cdf(alpha):
    stream = RngStream(31_337)
    draws = np.array([beta_sample(alpha, stream) for _ in range(100_000)])
    assert np.all(draws >= 0.0) and np.all(draws <= 1.0)
    stat = ks_statistic(draws, lambda x: scipy.stats.beta.cdf(x, alpha, alpha))
    assert stat < 0.01, (alpha, stat)


def test_beta_sample_cdf_self_consistency():
    # the sampler and our own CDF describe the same distribution
    stream = RngStream(99)
    draws = np.array([beta_sample(0.2, stream) for _ in range(100_000)])
    stat = ks_statistic(draws, lambda xs: warp_at(xs, 0.2))
    assert stat < 0.01


def test_beta_sample_mean_near_half():
    for alpha in (0.2, 1.0, 5.0):
        stream = RngStream(7 + int(alpha * 10))
        mean = np.mean([beta_sample(alpha, stream) for _ in range(100_000)])
        assert abs(mean - 0.5) < 0.01


def test_beta_sample_tiny_alpha_saturates_cleanly():
    # at alpha = 1e-4 nearly all mass sits at the endpoints; draws must
    # stay inside [0, 1] and split roughly evenly
    stream = RngStream(11)
    draws = np.array([beta_sample(1e-4, stream) for _ in range(2_000)])
    assert np.all(np.isfinite(draws))
    assert np.all((draws >= 0.0) & (draws <= 1.0))
    near_one = np.mean(draws > 0.5)
    assert 0.4 < near_one < 0.6
