"""Closed-form geometry of the Gaussian ambient space.

The ambient space is Euclidean space of dimension ``m + p`` carrying the
conformal metric ``exp(-|x|^2 / m) * (flat metric)``.  This module gives
its sectional curvature along a coordinate 2-plane in closed form.  The
Gaussian mean curvature vector is FLOW0's velocity, ``engine.velocity``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AxisError, UnsupportedParam, guard_exponent


@dataclass(frozen=True)
class GaussianAmbient:
    """Ambient space parameters.

    Parameters
    ----------
    dim_total : int
        Dimension of the surrounding Euclidean space (>= m + 1).
    m : int
        Intrinsic dimension entering the conformal factor exp(-|x|^2/m).
    """

    dim_total: int
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise UnsupportedParam(f"m must be >= 1, got {self.m}")
        if self.dim_total < self.m + 1:
            raise UnsupportedParam(
                f"dim_total must be >= m+1 = {self.m + 1}, got {self.dim_total}"
            )


def as_ambient_vector(x, dim_total: int) -> np.ndarray:
    """Validate and return a finite float64 vector of dim_total components."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise UnsupportedParam(f"ambient vector must be 1-d, got shape {v.shape}")
    if v.shape[0] != dim_total:
        raise UnsupportedParam(
            f"ambient vector has {v.shape[0]} components, expected {dim_total}"
        )
    if not np.all(np.isfinite(v)):
        raise UnsupportedParam("ambient vector has non-finite components")
    return v


def sectional_curvature(ambient: GaussianAmbient, x, A: int, B: int) -> float:
    """Sectional curvature of the Gaussian metric along the (e_A, e_B) plane.

    Evaluates (1/m) * exp(|x|^2/m) * (2 - (1/m) * sum_{C != A,B} x_C^2).
    The sign equals the sign of the bracket; the value is unbounded below
    as the transverse coordinates grow.

    Raises
    ------
    AxisError
        If A == B or either axis index is out of range.
    OverflowGuard
        If |x|^2/m exceeds the binary64 exponent guard.
    """
    v = as_ambient_vector(x, ambient.dim_total)
    n = ambient.dim_total
    if A == B or not (0 <= A < n) or not (0 <= B < n):
        raise AxisError(f"axes must be distinct and in [0, {n}), got A={A}, B={B}")
    m = float(ambient.m)
    norm_sq = float(v @ v)
    exponent = guard_exponent(norm_sq / m)
    # sum the transverse squares themselves in index order: subtracting
    # x_A^2 and x_B^2 from norm_sq rounds differently when A and B swap
    t = np.delete(v, (A, B))
    transverse = float(t @ t)
    return (1.0 / m) * np.exp(exponent) * (2.0 - transverse / m)
