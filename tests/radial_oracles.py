"""Test oracles for the sphere radius ODE r' = 2 exp(a r/m) (b r - m c).

Independent references the library is checked against, kept out of the
package because only tests call them: the log-envelope curves that bound
R^2(t) on [0, T1) and [0, T2), the collapse and escape times from
quadrature of the separable ODE, and R^2 at given times from a DOP853
integration (scipy, a test-only dependency).
"""

from __future__ import annotations

import math

from gaussflow.errors import DomainError
from gaussflow.radial import RadialParams, bound_time_expand, bound_time_shrink


def envelope_shrink(p: RadialParams, t: float) -> float:
    """Upper envelope for R^2(t) in the shrink case, valid on [0, T1)."""
    t1 = bound_time_shrink(p)
    if not 0.0 <= t < t1:
        raise DomainError(f"t = {t:.6g} outside [0, T1 = {t1:.6g})")
    slope = 2.0 * p.a * p.b * (p.balance_sq - p.R0_sq) / p.m
    return -(p.m / p.a) * math.log(slope * t + math.exp(-p.a * p.R0_sq / p.m))


def envelope_expand(p: RadialParams, t: float) -> float:
    """Lower envelope for R^2(t) in the expand case, valid on [0, T2)."""
    t2 = bound_time_expand(p)
    if not 0.0 <= t < t2:
        raise DomainError(f"t = {t:.6g} outside [0, T2 = {t2:.6g})")
    slope = 2.0 * p.a * p.b * (p.R0_sq - p.balance_sq) / p.m
    return -(p.m / p.a) * math.log(math.exp(-p.a * p.R0_sq / p.m) - slope * t)


# ---------------------------------------------------------------------------
# quadrature oracles (independent route: separable form + Gauss-Kronrod); quad
# is imported when an oracle is called, so test modules that import this one
# still collect where scipy is missing


def collapse_time_quadrature(p: RadialParams) -> float:
    """Collapse time from direct quadrature of the separable ODE.

    Valid for constant c in the shrink regime; this is the reference the
    Runge-Kutta integrator is accepted against.
    """
    if p.c_slope != 0.0:
        raise DomainError("quadrature oracle requires constant c")
    if p.regime() != "shrink":
        raise DomainError("collapse oracle requires the shrink regime")
    from scipy.integrate import quad

    def integrand(s: float) -> float:
        return 1.0 / (2.0 * math.exp(p.a * s / p.m) * (p.m * p.c0 - p.b * s))

    val, err = quad(integrand, 0.0, p.R0_sq, epsabs=1e-14, epsrel=1e-13, limit=200)
    return val


def escape_time_quadrature(p: RadialParams) -> float:
    """Escape time from quadrature of the separable ODE on [R0_sq, inf).

    The improper upper limit is split at X with an analytic tail bound
    m*exp(-a*X/m) / (2*a*(b*X - m*c0)) kept below 1e-13 so the truncation
    cannot affect comparisons at the 1e-8 level.
    """
    if p.c_slope != 0.0:
        raise DomainError("quadrature oracle requires constant c")
    if p.regime() != "expand":
        raise DomainError("escape oracle requires the expand regime")
    from scipy.integrate import quad

    def integrand(s: float) -> float:
        return 1.0 / (2.0 * math.exp(p.a * s / p.m) * (p.b * s - p.m * p.c0))

    cut = p.R0_sq + 40.0 * p.m / p.a
    tail_bound = (p.m * math.exp(-p.a * cut / p.m)
                  / (2.0 * p.a * (p.b * cut - p.m * p.c0)))
    while tail_bound > 1e-13:
        cut += 10.0 * p.m / p.a
        tail_bound = (p.m * math.exp(-p.a * cut / p.m)
                      / (2.0 * p.a * (p.b * cut - p.m * p.c0)))
    val, err = quad(integrand, p.R0_sq, cut, epsabs=1e-14, epsrel=1e-13, limit=200)
    return val


def radius_dop853(p: RadialParams, times) -> list[float]:
    """R^2 at the given increasing times from scipy's DOP853 at rtol 1e-13,
    for affine c(t) too, where the quadratures do not apply; the right-hand
    side is evaluated in the original variable, so the reference shares
    none of the integrator's u substitution."""
    from scipy.integrate import solve_ivp

    def rhs(t, y):
        return [2.0 * math.exp(p.a * y[0] / p.m) * (p.b * y[0] - p.m * p.c(t))]

    sol = solve_ivp(rhs, (0.0, times[-1]), [p.R0_sq], method="DOP853", rtol=1e-13,
                    atol=1e-14, t_eval=times)
    return sol.y[0].tolist()
