"""Warping of interpolation coefficients.

A warp strength tau reshapes a coefficient in [0, 1] through the CDF of a
symmetric Beta(tau, tau): tau = 1 leaves the coefficient untouched, tau < 1
pulls it toward 0.5 (blending the pair more evenly), tau > 1 pushes it
toward the nearest endpoint (keeping each sample close to itself), and the
tau -> infinity limit (``math.inf``) is a hard step at 0.5, i.e. no
blending at all. Inputs and targets can be warped with different strengths,
which is what lets mixing strength differ per sample and per role.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, UsageError, check_array
# The training step's strengths are clamped by the similarity kernel, so the
# warp calls the unchecked kernel, under the name per-layer traces time it by.
from .special import SHAPE_MAX, SHAPE_MIN, _incomplete_beta as incomplete_beta_reg

__all__ = ["warp_pairwise"]


def warp_pairwise(coeffs, taus) -> np.ndarray:
    """Warp coefficient i by strength taus[i]; lengths must agree.

    A finite strength gives I_coeff(tau, tau), the regularized incomplete
    beta function of a symmetric Beta(tau, tau); this is the package's one
    checked entry to it. Each strength is a positive number or ``math.inf``.
    The infinite limit is the step function 1{coeff >= 0.5}; the tie at 0.5
    resolves to 1 so that the first element of a pair dominates. Finite
    strengths outside [SHAPE_MIN, SHAPE_MAX] are clamped into it silently,
    and their warp is exact at coefficients 0, 0.5 and 1 and at strength 1.
    Both arguments are 1-d by the package's array rule
    (``errors.check_array``), less its finite part, so a bool or a string
    raises UsageError naming it; a coefficient outside [0, 1] or a NaN or
    non-positive strength raises DomainError.
    """
    coeffs = check_array(coeffs, "coeffs", 1, finite=False)
    taus = check_array(taus, "taus", 1, finite=False)
    if taus.shape != coeffs.shape:
        raise UsageError(
            f"length mismatch: {coeffs.shape[0]} coefficients vs {taus.shape[0]} warp strengths"
        )
    ok = (coeffs >= 0.0) & (coeffs <= 1.0)
    if not ok.all():
        raise DomainError(f"coefficient must lie in [0, 1], got {coeffs[~ok][0]}")
    ok = taus > 0.0
    if not ok.all():
        raise DomainError(f"warp strength must be positive or inf, got {taus[~ok][0]}")
    return _warp(coeffs, np.where(np.isinf(taus), taus, np.clip(taus, SHAPE_MIN, SHAPE_MAX)))


def _warp(coeffs: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """warp_pairwise for float64 coefficients in [0, 1] and strengths that are
    inf or in [SHAPE_MIN, SHAPE_MAX], in one incomplete beta call."""
    finite = np.isfinite(taus)
    if finite.all():
        return incomplete_beta_reg(coeffs, taus)
    out = np.where(coeffs >= 0.5, 1.0, 0.0)
    if finite.any():
        out[finite] = incomplete_beta_reg(coeffs[finite], taus[finite])
    return out
