"""The general I_x(a, b) engine that the symmetric kernel replaced, kept as
the bit-equality reference for it.

``ref_incbeta`` is the lane function as it ran for any shapes a and b: the
exact cut and the closed form for symmetric shapes (both unchanged in the
package, so they are imported), otherwise a modified Lentz continued
fraction (Numerical Recipes' ``betacf``) on the convergent side of the
switch x < (a + 1)/(a + b + 2), times a cancellation-free log prefactor.
Its iteration cap is the general engine's 1000, which the largest
asymmetric shapes needed.
"""

import math

from warpmix.errors import NonConvergenceError
from warpmix.special import _incbeta_symmetric, _stirling_delta

CF_EPS = 1e-14
CF_TINY = 1e-30
CF_MAX_ITER = 1000
ZERO_FRONT_LOG = -800.0
STIRLING_MIN = 20.0
ASYMPTOTIC_MIN = 1000.0


def ref_log_beta(a, b):
    lo, hi = (a, b) if a <= b else (b, a)
    if hi < STIRLING_MIN:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    return (
        math.lgamma(lo)
        - lo * math.log(hi)
        - (lo + hi - 0.5) * math.log1p(lo / hi)
        + lo
        + _stirling_delta(hi)
        - _stirling_delta(lo + hi)
    )


def ref_log_front(x, a, b):
    """ln[x^a (1-x)^b / B(a, b)], through Stirling's expansion once both
    shapes reach STIRLING_MIN."""
    if a >= STIRLING_MIN and b >= STIRLING_MIN:
        s = a + b
        return (
            a * math.log(x * s / a)
            + b * math.log((1.0 - x) * s / b)
            + 0.5 * math.log(a * b / (2.0 * math.pi * s))
            - _stirling_delta(a)
            - _stirling_delta(b)
            + _stirling_delta(s)
        )
    return a * math.log(x) + b * math.log1p(-x) - ref_log_beta(a, b)


def ref_beta_cont_frac(a, b, x):
    """Continued fraction for I_x(a, b), valid below the switch point."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0

    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < CF_TINY:
        d = CF_TINY
    d = 1.0 / d
    h = d

    for m in range(1, CF_MAX_ITER + 1):
        m2 = 2 * m
        # even step
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < CF_TINY:
            d = CF_TINY
        c = 1.0 + aa / c
        if abs(c) < CF_TINY:
            c = CF_TINY
        d = 1.0 / d
        h *= d * c
        # odd step
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < CF_TINY:
            d = CF_TINY
        c = 1.0 + aa / c
        if abs(c) < CF_TINY:
            c = CF_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < CF_EPS:
            return h

    raise NonConvergenceError(
        f"reference continued fraction did not converge at x={x!r}, a={a!r}, b={b!r}",
        x=x,
        a=a,
        b=b,
    )


def ref_incbeta(x, a, b):
    """I_x(a, b) for one point with x in [0, 1] and shapes in [1e-4, 1e6]."""
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    if a == 1.0 and b == 1.0:
        return x
    if a == b:
        if x == 0.5:
            return 0.5
        if a * math.log(4.0 * x * (1.0 - x)) + 0.5 * math.log(a) < ZERO_FRONT_LOG:
            return 0.0 if x < 0.5 else 1.0
        if a >= ASYMPTOTIC_MIN:
            return _incbeta_symmetric(x, a)
    if x < (a + 1.0) / (a + b + 2.0):
        value = math.exp(ref_log_front(x, a, b)) * ref_beta_cont_frac(a, b, x) / a
    else:
        value = 1.0 - math.exp(ref_log_front(1.0 - x, b, a)) * ref_beta_cont_frac(b, a, 1.0 - x) / b
    return min(1.0, max(0.0, value))
