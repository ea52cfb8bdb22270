"""Closed-form geometry of the Gaussian ambient space.

The ambient space is Euclidean space of dimension ``m + p`` carrying the
conformal metric ``exp(-|x|^2 / m) * (flat metric)``.  Given ``m``, a point
fixes the space by its own length ``m + p``, so nothing else stores it.
This module gives the sectional curvature along a coordinate 2-plane in
closed form.  The Gaussian mean curvature vector is FLOW0's velocity,
``engine.velocity``.
"""

from __future__ import annotations

import numpy as np

from .errors import AxisError, UnsupportedParam, guard_exponent


def sectional_curvature(m: int, x, A: int, B: int) -> float:
    """Sectional curvature of the Gaussian metric along the (e_A, e_B) plane
    at the point x of R^(m+p), p >= 1.

    Evaluates (1/m) * exp(|x|^2/m) * (2 - (1/m) * sum_{C != A,B} x_C^2).
    The sign equals the sign of the bracket; the value is unbounded below
    as the transverse coordinates grow.

    Raises
    ------
    UnsupportedParam
        If m < 1, or x is not a finite 1-d vector of at least m + 1 components.
    AxisError
        If A == B or either axis index is out of range.
    OverflowGuard
        If |x|^2/m exceeds the binary64 exponent guard.
    """
    if m < 1:
        raise UnsupportedParam(f"m must be >= 1, got {m}")
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise UnsupportedParam(f"ambient vector must be 1-d, got shape {v.shape}")
    n = len(v)
    if n < m + 1:
        raise UnsupportedParam(f"ambient vector has {n} components, needs >= m+1 = {m + 1}")
    if not np.all(np.isfinite(v)):
        raise UnsupportedParam("ambient vector has non-finite components")
    if A == B or not (0 <= A < n) or not (0 <= B < n):
        raise AxisError(f"axes must be distinct and in [0, {n}), got A={A}, B={B}")
    m = float(m)
    norm_sq = float(v @ v)
    exponent = guard_exponent(norm_sq / m)
    # sum the transverse squares themselves in index order: subtracting
    # x_A^2 and x_B^2 from norm_sq rounds differently when A and B swap
    t = np.delete(v, (A, B))
    transverse = float(t @ t)
    return (1.0 / m) * np.exp(exponent) * (2.0 - transverse / m)
