"""The symmetric Beta CDF kernel and Beta(alpha, alpha) sampling.

Everything here is pure and deterministic given its inputs (the sampler is
deterministic given its stream). The regularized incomplete beta function
is the warping engine of the whole package, so it is implemented from
first principles. The warp only ever needs the CDF of a symmetric
Beta(a, a), so the private kernel ``_incomplete_beta`` computes I_x(a, a)
and checks nothing; ``warping.warp_pairwise`` is its one checked public
entry, which validates coefficients and strengths once per call and clamps
finite strengths into the shape range. Each lane then runs on Python
floats, in one of three regimes:

1. The exact cut. For a > 1, a point far enough from 0.5 that the result is
   exactly 0 or 1 in double precision returns it without further work.
2. The closed form at large shapes. For a >= _ASYMPTOTIC_MIN = 1000,
   I_x(a, a) = I_{4x(1-x)}(a, 1/2) / 2 is summed from the asymptotic
   expansion of DiDonato & Morris (ACM TOMS 708, 1992, BGRAT) at b = 1/2:
   a leading erfc term plus at most nine corrections in 1/(a - 1/4), a few
   ``math.erfc``/``math.exp``/``math.log`` calls per point. Against mpmath,
   over +-12 standard deviations around 0.5 and both tails down to 1e-300,
   its worst relative error is 1.3e-13 at a = 1000 and 1.2e-13 at a = 1e6,
   where the continued fraction's is 2.6e-13 and 1.1e-10. At a = 500 nine
   terms no longer reach double precision in the far tail and the closed
   form is the worse of the two (2.3e-13 against 1.1e-13), so the
   switch-over sits at 1000. Every warp strength of the paper's regression
   setting (tau >= 8007) takes this path.
3. The continued fraction below the switch-over: Numerical Recipes'
   modified Lentz ``betacf`` at b = a, run on x < 1/2 and mirrored above
   (for a = b the usual switch point (a + 1)/(a + b + 2) is exactly 1/2 in
   floating point), times a cancellation-free log prefactor. It needs at
   most 52 iterations (see _CF_MAX_ITER). A masked, vectorized Lentz
   iteration was slower at training batch sizes, because every point
   waits for the slowest one.

The training step's warp calls ``_incomplete_beta`` through the unchecked
``warping._warp``: its strengths come clamped from the similarity kernel.

Beta draws come from numpy's ``Generator.beta``: Johnk's method for
shapes up to 1, falling back to logs where its powers underflow, and a
ratio of gamma draws above. It replaced a hand-written log-space
Marsaglia-Tsang sampler because it passes the same distribution tests,
handles tiny alpha without 0/0 as the old one did, and draws a whole
batch in one call instead of running a Python rejection loop per draw.

The kernel's shapes lie on [SHAPE_MIN, SHAPE_MAX] = [1e-4, 1e6]. Positive
finite strengths outside are clamped into it silently rather than
rejected, because upstream similarity kernels can legitimately produce
extreme values that saturate: ``warping.warp_pairwise`` clamps its finite
strengths, and the similarity kernel clips its strengths, into this range.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonConvergenceError, _count, check_int, check_real

__all__ = [
    "SHAPE_MIN",
    "SHAPE_MAX",
    "beta_sample",
]

SHAPE_MIN = 1e-4
SHAPE_MAX = 1e6

_CF_EPS = 1e-14
_CF_TINY = 1e-30
# The iteration count peaks next to x = 1/2 at the largest shape below the
# switch-over. A scan of 121 shapes (120 log-spaced from SHAPE_MIN to 999.999,
# and the float below 1000), each on 199 interior grid points of x, 161 points
# within +-8 standard deviations of 1/2 and the float neighbours of 1/2 and of
# the endpoints, needed at most 52 iterations (a = 999.999 at the float below
# 1/2), and 6 in the median; the cap leaves a margin of more than four times.
_CF_MAX_ITER = 240
# (m, 2m) for each iteration m of the continued fraction: exact small floats,
# so reading them costs the loop less than computing them. The loop slices
# them to the cap, which is the whole tuple (no copy) unless the cap is lowered
_CF_STEPS = tuple((float(m), float(2 * m)) for m in range(1, _CF_MAX_ITER + 1))

# exp of anything below -745.2 is exactly 0.0 in double precision; the margin
# covers the rounding of the cut test in _incbeta.
_ZERO_FRONT_LOG = -800.0

# Stirling's expansion is used once both arguments exceed this; below it,
# direct lgamma is accurate because nothing large cancels.
_STIRLING_MIN = 20.0

# Coefficients of the Stirling correction series B_{2n} / (2n (2n-1) z^{2n-1});
# six terms give full double precision for z >= 20.
_STIRLING_COEFFS = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
)

# Symmetric shapes from here up take the closed form of _incbeta_symmetric.
_ASYMPTOTIC_MIN = 1000.0

# p_1 .. p_9, the coefficients of u^(2n) in (sinh(u/2) / (u/2))^(-1/2). Term n
# of the expansion is about p_n z^(2n) relative to the leading one, and z stays
# below 0.75 wherever a >= 1000 leaves the result nonzero, so nine terms reach
# double precision.
_SYMMETRIC_COEFFS = (
    -1.0 / 48.0,
    1.0 / 2560.0,
    -61.0 / 7741440.0,
    1261.0 / 7431782400.0,
    -79.0 / 20761804800.0,
    66643.0 / 761775532277760.0,
    -16820653.0 / 8227175748599808000.0,
    3745813.0 / 77499283242221568000.0,
    -1975649524361.0 / 1714327544916556728238080000.0,
)

_RSQRT_PI = 1.0 / math.sqrt(math.pi)


def _stirling_delta(z: float) -> float:
    """Correction term of Stirling's series: lgamma(z) - (z-1/2)ln z + z - ln(2 pi)/2."""
    r = 1.0 / z
    r2 = r * r
    acc = 0.0
    for c in reversed(_STIRLING_COEFFS):
        acc = acc * r2 + c
    return acc * r


def _beta_cont_frac(a: float, x: float) -> float:
    """Continued fraction of I_x(a, a) by modified Lentz (Numerical Recipes'
    ``betacf`` at b = a), for 0 < x < 1/2, the side where it converges; the
    caller mirrors the upper half."""
    # the loop reads its bounds from locals: a global load and a negation in
    # each of its five tests cost about a tenth of a blobs_embed-sized call
    neg_tiny, tiny, eps = -_CF_TINY, _CF_TINY, _CF_EPS
    qab = a + a
    qap = a + 1.0
    qam = a - 1.0

    c = 1.0
    # qab x / qap < a / (a + 1) for x < 1/2, so this d needs no guard against 0
    d = 1.0 / (1.0 - qab * x / qap)
    h = d

    for m, m2 in _CF_STEPS[:_CF_MAX_ITER]:
        am2 = a + m2
        # even step
        aa = m * (a - m) * x / ((qam + m2) * am2)
        d = 1.0 + aa * d
        if neg_tiny < d < tiny:
            d = tiny
        c = 1.0 + aa / c
        if neg_tiny < c < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        # odd step
        aa = -(a + m) * (qab + m) * x / (am2 * (qap + m2))
        d = 1.0 + aa * d
        if neg_tiny < d < tiny:
            d = tiny
        c = 1.0 + aa / c
        if neg_tiny < c < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if -eps < delta - 1.0 < eps:
            return h

    raise NonConvergenceError(
        f"incomplete beta continued fraction did not converge within "
        f"{_CF_MAX_ITER} iterations at x={x!r}, a=b={a!r}",
        x=x,
        a=a,
        b=a,
    )


def _incbeta_symmetric(x: float, a: float) -> float:
    """I_x(a, a) for a >= _ASYMPTOTIC_MIN and 0 < x < 1, x != 1/2.

    For x < 1/2, I_x(a, a) = I_y(a, 1/2) / 2 with y = 4x(1-x) = exp(-z).
    Writing the integration variable as exp(-u) and expanding
    (sinh(u/2) / (u/2))^(-1/2) = sum p_n u^(2n) gives, with t = a - 1/4 and
    w = t z,

        I_y(a, 1/2) = R(a) sum_n p_n Gamma(2n + 1/2, w) / (sqrt(pi) t^(2n)),

    where R(a) = Gamma(a + 1/2) / (Gamma(a) sqrt(t)) = 1 + 1/(64 a^2) + ...
    The n = 0 term is erfc(sqrt(w)); the others follow by the upward
    recurrence Gamma(s + 1, w) = s Gamma(s, w) + w^s exp(-w), whose terms are
    all positive. x > 1/2 is mirrored, and the lower half is capped at 1/2 so
    that rounding cannot cross the exact value at x = 1/2.
    """
    upper = x > 0.5
    if upper:
        x = 1.0 - x  # exact for x in [1/2, 1]
    if x < 0.25:
        z = -math.log(4.0 * x * (1.0 - x))
    else:  # 1 - 2x is exact here, and log1p keeps z's relative accuracy near 1/2
        d = 1.0 - 2.0 * x
        z = -math.log1p(-d * d)
    t = a - 0.25
    w = t * z
    q = math.sqrt(w)
    # g is Gamma(s, w) / (sqrt(pi) t^(s - 1/2)) and k is z^s exp(-w) / (sqrt(pi t)),
    # both at s = 1/2 here; each half-step below raises s by one
    g = math.erfc(q)
    k = q * math.exp(-w) * _RSQRT_PI / t
    total = g
    s = 0.5
    for p in _SYMMETRIC_COEFFS:
        g = s * g / t + k
        k *= z
        s += 1.0
        g = s * g / t + k
        k *= z
        s += 1.0
        term = p * g
        total += term
        if abs(term) <= 1e-17 * total:
            break
    r = 1.0 / a
    value = min(0.5, 0.5 * total * (1.0 + r * r * (1.0 / 64.0 + r * (1.0 / 128.0 + r * (5.0 / 8192.0)))))
    return 1.0 - value if upper else value


def _incbeta(x: float, a: float) -> float:
    """I_x(a, a) for one lane with x in [0, 1] and a clamped."""
    if x == 0.0:
        return 0.0
    if x == 1.0 or x == 0.5 or a == 1.0:
        return x
    # ln[x^a (1-x)^a / B(a, a)] <= a ln(4x(1-x)) + ln(a)/2 - 1.26 by Legendre's
    # duplication formula and Wendel's bound Gamma(a + 1/2) / Gamma(a) <= sqrt(a);
    # below the cut the prefactor's exp is exactly 0.0, so the result is exact
    # without running the continued fraction. For a <= 1 the left side is at
    # least -742.4 - 4.6 (x = 5e-324, a = SHAPE_MIN), so the cut cannot fire.
    if a > 1.0 and a * math.log(4.0 * x * (1.0 - x)) + 0.5 * math.log(a) < _ZERO_FRONT_LOG:
        return 0.0 if x < 0.5 else 1.0
    if a >= _ASYMPTOTIC_MIN:
        return _incbeta_symmetric(x, a)
    # the continued fraction runs on the lower half and is mirrored; 1 - x is
    # exact for x >= 1/2
    y = x if x < 0.5 else 1.0 - x
    if a < _STIRLING_MIN:
        lg = math.lgamma(a)
        front = a * math.log(y) + a * math.log1p(-y) - (lg + lg - math.lgamma(a + a))
    else:
        # ln[y^a (1-y)^a / B(a, a)]: its three naive terms are each O(a ln a) and
        # cancel to O(1), so they are combined through Stirling's expansion first
        s = a + a
        front = (
            a * math.log(y * s / a)
            + a * math.log((1.0 - y) * s / a)
            + 0.5 * math.log(a * a / (2.0 * math.pi * s))
            - _stirling_delta(a)
            - _stirling_delta(a)
            + _stirling_delta(s)
        )
    value = math.exp(front) * _beta_cont_frac(a, y) / a
    # Guard against last-ulp excursions outside [0, 1].
    return min(1.0, max(0.0, value if x < 0.5 else 1.0 - value))


def _incomplete_beta(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """I_x(a, a) lane by lane, for 1-d float64 arrays of one length with x in
    [0, 1] and shapes already in [SHAPE_MIN, SHAPE_MAX]; nothing is checked."""
    return np.array(list(map(_incbeta, x.tolist(), a.tolist())), dtype=np.float64)


def beta_sample(alpha, rng, size=None):
    """Draws from Beta(alpha, alpha) out of the given :class:`RngStream`.

    One float when ``size`` is None, else an array of ``size`` draws that is
    bit-equal to ``size`` single draws in a row. ``alpha`` is a number > 0
    by the package's real-number rule (a finite Python or numpy int or float,
    never a bool or a string), and ``size`` an integer >= 0 by its integer
    rule (an integral float or a numpy integer counts as its integer);
    anything else raises UsageError naming it, and a count too large to
    hold raises MemoryError.
    """
    alpha = check_real(alpha, "alpha", "> 0", lambda v: v > 0.0)
    if size is None:
        return float(rng.beta(alpha, alpha))
    size = check_int(size, "size", 0)
    try:
        return rng.beta(alpha, alpha, size)
    except ValueError:  # numpy's "array is too big" or "Maximum allowed dimension exceeded"
        raise MemoryError(f"cannot hold {_count(size)} Beta draws") from None
