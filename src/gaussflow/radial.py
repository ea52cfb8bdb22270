"""Exact treatment of origin-centered spheres under the flow.

A sphere of squared radius r(t) moves by the scalar ODE

    r' = 2 * exp(a*r/m) * (b*r - m*c(t)),

so spheres give closed-form blow-up bounds, envelope curves, and an
independent quadrature oracle for event times.  The ODE is integrated
adaptively with an embedded Runge-Kutta 5(4) pair; away from escape the
state variable is r itself, while near escape the integrator switches to
u = exp(-a*r/m), whose equation

    u' = -(2*a*b/m) * (-(m/a)*ln(u) - c(t)*m/b)

is free of the exponential stiffness and carries only a logarithmic
singularity into the finite-time escape.  Events are bracketed on the
accepted steps and localized by bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from .errors import EXP_GUARD, DomainError, InvalidConfig, OverflowGuard

COLLAPSE_FLOOR = 1e-12
EVENT_TIME_TOL = 1e-10

COLLAPSE = "COLLAPSE"
ESCAPE = "ESCAPE"
HORIZON = "HORIZON"


@dataclass(frozen=True)
class RadialParams:
    """Constants of the radial ODE: intrinsic dimension, exponent, the two
    velocity coefficients (c affine in time), and the initial squared radius."""

    m: int
    a: float
    b: float
    c0: float
    R0_sq: float
    c_slope: float = 0.0

    def __post_init__(self):
        if self.m < 1:
            raise InvalidConfig(f"m must be >= 1, got {self.m}")
        if not (self.a > 0 and self.b > 0 and self.c0 > 0):
            raise InvalidConfig("a, b, c0 must all be positive")
        if not self.R0_sq > 0:
            raise InvalidConfig(f"R0_sq must be positive, got {self.R0_sq}")

    def c(self, t: float) -> float:
        return self.c0 + self.c_slope * t

    @property
    def balance_sq(self) -> float:
        """Squared radius of the stationary sphere, (c0/b)*m."""
        return (self.c0 / self.b) * self.m

    def regime(self) -> str:
        if self.R0_sq < self.balance_sq:
            return "shrink"
        if self.R0_sq > self.balance_sq:
            return "expand"
        return "stationary"


@dataclass(frozen=True)
class RadialEvent:
    kind: str          # COLLAPSE | ESCAPE | HORIZON
    t: float


@dataclass
class RadialTrajectory:
    params: RadialParams
    times: np.ndarray
    R_sq: np.ndarray
    event: RadialEvent
    bound_time: float | None
    eval_times: np.ndarray = field(default=None)
    eval_R_sq: np.ndarray = field(default=None)


def radial_rhs(R_sq: float, p: RadialParams, t: float = 0.0) -> float:
    """Right-hand side 2*exp(a*R_sq/m)*(b*R_sq - m*c(t)) of the radius ODE."""
    if R_sq < 0:
        raise DomainError(f"R_sq must be >= 0, got {R_sq}")
    exponent = p.a * R_sq / p.m
    if exponent >= EXP_GUARD:
        raise OverflowGuard(exponent)
    return 2.0 * math.exp(exponent) * (p.b * R_sq - p.m * p.c(t))


def _u_rhs(u: float, p: RadialParams, t: float) -> float:
    # substituted variable u = exp(-a R^2 / m); valid for u in (0, 1].
    # Trial stages may overshoot past zero, so clamp to the float floor.
    u = max(u, 5e-324)
    return -(2.0 * p.a * p.b / p.m) * (-(p.m / p.a) * math.log(u) - p.c(t) * p.m / p.b)


def _r_rhs_clamped(R_sq: float, p: RadialParams, t: float) -> float:
    # trial stages near collapse may dip below zero; the ODE extends
    # continuously with rhs(0) = -2*m*c(t)
    return radial_rhs(max(R_sq, 0.0), p, t)


# ---------------------------------------------------------------------------
# closed-form bound times and envelopes (constant a, b; c evaluated at 0)


def bound_time_shrink(p: RadialParams) -> float:
    """Upper bound T1 on the collapse time of an initially inside sphere."""
    if not p.R0_sq < p.balance_sq:
        raise DomainError(
            f"shrink bound needs R0_sq < (c0/b)m = {p.balance_sq:.6g}, got {p.R0_sq:.6g}"
        )
    if p.c_slope < 0:
        raise DomainError("shrink bound requires nondecreasing c")
    return (p.m * (1.0 - math.exp(-p.a * p.R0_sq / p.m))
            / (2.0 * p.a * p.b * (p.balance_sq - p.R0_sq)))


def bound_time_expand(p: RadialParams) -> float:
    """Upper bound T2 on the escape time of an initially outside sphere."""
    if not p.R0_sq > p.balance_sq:
        raise DomainError(
            f"expand bound needs R0_sq > (c0/b)m = {p.balance_sq:.6g}, got {p.R0_sq:.6g}"
        )
    if p.c_slope > 0:
        raise DomainError("expand bound requires nonincreasing c")
    return (p.m * math.exp(-p.a * p.R0_sq / p.m)
            / (2.0 * p.a * p.b * (p.R0_sq - p.balance_sq)))


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


def applicable_bound(p: RadialParams) -> float | None:
    reg = p.regime()
    if reg == "shrink" and p.c_slope >= 0:
        return bound_time_shrink(p)
    if reg == "expand" and p.c_slope <= 0:
        return bound_time_expand(p)
    return None


# ---------------------------------------------------------------------------
# quadrature oracle (independent route: separable form + Gauss-Kronrod)


def collapse_time_quadrature(p: RadialParams) -> float:
    """Collapse time from direct quadrature of the separable ODE.

    Valid for constant c in the shrink regime; this is the reference the
    Runge-Kutta integrator is accepted against.
    """
    if p.c_slope != 0.0:
        raise DomainError("quadrature oracle requires constant c")
    if p.regime() != "shrink":
        raise DomainError("collapse oracle requires the shrink regime")

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


# ---------------------------------------------------------------------------
# adaptive Runge-Kutta 5(4), Dormand-Prince coefficients

_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
          187 / 2100, 1 / 40)


def _dp_step(f, t, y, h, p):
    """One Dormand-Prince step: returns (y5, error_estimate)."""
    k = [f(y, p, t)]
    for ci, row in zip(_DP_C[1:], _DP_A[1:]):
        yi = y + h * sum(aij * kj for aij, kj in zip(row, k))
        k.append(f(yi, p, t + ci * h))
    y5 = y + h * sum(bi * ki for bi, ki in zip(_DP_B5, k))
    k.append(f(y5, p, t + h))          # FSAL stage used by the 4th-order weights
    y4 = y + h * sum(bi * ki for bi, ki in zip(_DP_B4, k))
    return y5, abs(y5 - y4)


def _bisect_event(f, t0, y0, h, p, crossed) -> float:
    """Bisection on the step [t0, t0+h] for the first time crossed() holds,
    stepping to each trial time with the integrator's own step."""
    lo, hi = 0.0, h
    for _ in range(200):
        if hi - lo < EVENT_TIME_TOL:
            break
        mid = 0.5 * (lo + hi)
        if crossed(_dp_step(f, t0, y0, mid, p)[0]):
            hi = mid
        else:
            lo = mid
    return t0 + hi


# ---------------------------------------------------------------------------
# integrator


def integrate_radial(p: RadialParams, horizon: float, t_eval=None,
                     collapse_floor: float = COLLAPSE_FLOOR,
                     escape_ceiling: float | None = None,
                     rtol: float = 1e-10) -> RadialTrajectory:
    """Integrate the radius ODE up to the horizon or the first event.

    Parameters
    ----------
    t_eval : array_like, optional
        Sorted times the integrator must land on exactly; the values there
        are returned in ``eval_times`` / ``eval_R_sq`` (truncated at the
        event when one fires first).
    collapse_floor : float
        COLLAPSE fires when R^2 crosses this from above.
    escape_ceiling : float, optional
        ESCAPE fires when R^2 crosses this from below.  The default
        690*m/a corresponds to u = exp(-a R^2/m) reaching the 1e-300
        floor, i.e. numerically indistinguishable from escape to infinity.
    """
    if horizon < 0:
        raise InvalidConfig(f"horizon must be >= 0, got {horizon}")
    if escape_ceiling is None:
        escape_ceiling = 690.0 * p.m / p.a
    if not collapse_floor < p.R0_sq < escape_ceiling:
        raise InvalidConfig("R0_sq must sit between collapse floor and escape ceiling")
    if p.c(0.0) <= 0 or p.c(horizon) <= 0:
        raise InvalidConfig("c(t) must stay positive over the horizon")

    switch_up = 3.0 * p.m / p.a      # beyond this, integrate u = exp(-a r / m)
    switch_down = 2.0 * p.m / p.a

    eval_list = [] if t_eval is None else [float(t) for t in t_eval]
    if any(t < 0 or t > horizon for t in eval_list):
        raise InvalidConfig("t_eval times must lie in [0, horizon]")
    eval_list.sort()

    t = 0.0
    r = float(p.R0_sq)
    use_u = r > switch_up
    y = math.exp(-p.a * r / p.m) if use_u else r

    times = [t]
    values = [r]
    eval_t, eval_r = [], []
    next_eval = 0

    def record_evals_at(tc, rc):
        nonlocal next_eval
        while next_eval < len(eval_list) and abs(eval_list[next_eval] - tc) <= 1e-13 * max(1.0, tc):
            eval_t.append(eval_list[next_eval])
            eval_r.append(rc)
            next_eval += 1

    record_evals_at(t, r)
    if horizon == 0.0:
        return _finish(p, times, values, RadialEvent(HORIZON, 0.0), eval_t, eval_r)

    atol = rtol * 1e-4
    h = min(1e-4, horizon) if horizon > 0 else 1e-4
    event = None
    max_steps = 2_000_000

    for _ in range(max_steps):
        f = _u_rhs if use_u else _r_rhs_clamped

        # forced landings: horizon and requested sample times
        cap = horizon - t
        if next_eval < len(eval_list):
            cap = min(cap, eval_list[next_eval] - t)
        if cap <= 1e-15 * max(1.0, t):
            # landed on a forced point by construction
            if next_eval < len(eval_list) and abs(eval_list[next_eval] - t) <= 1e-13 * max(1.0, t):
                record_evals_at(t, _to_r(p, y, use_u))
                continue
            break  # at the horizon

        h_step = min(h, cap)
        y_new, err = _dp_step(f, t, y, h_step, p)
        scale = atol + rtol * max(abs(y), abs(y_new))
        if err > scale:
            h = max(h_step * max(0.2, 0.9 * (scale / err) ** 0.2), 1e-16)
            continue

        r_new = _to_r(p, y_new, use_u)
        if r_new <= collapse_floor:
            t_ev = _bisect_event(f, t, y, h_step, p,
                                 lambda yy: _to_r(p, yy, use_u) <= collapse_floor)
            t = t_ev
            y = math.exp(-p.a * collapse_floor / p.m) if use_u else collapse_floor
            event = RadialEvent(COLLAPSE, t_ev)
        elif r_new >= escape_ceiling:
            t_ev = _bisect_event(f, t, y, h_step, p,
                                 lambda yy: _to_r(p, yy, use_u) >= escape_ceiling)
            t = t_ev
            y = math.exp(-p.a * escape_ceiling / p.m) if use_u else escape_ceiling
            event = RadialEvent(ESCAPE, t_ev)
        else:
            t, y = t + h_step, y_new
            grow = 5.0 if err == 0.0 else min(5.0, 0.9 * (scale / err) ** 0.2)
            h = h_step * max(grow, 1.0) if h_step < h else h_step * grow

        r_cur = _to_r(p, y, use_u)
        times.append(t)
        values.append(r_cur)
        record_evals_at(t, r_cur)
        if event is not None:
            break
        if t >= horizon * (1.0 - 1e-15) and next_eval >= len(eval_list):
            break

        # phase switching with hysteresis
        if not use_u and r_cur > switch_up:
            use_u, y = True, math.exp(-p.a * r_cur / p.m)
        elif use_u and r_cur < switch_down:
            use_u, y = False, r_cur
    else:
        raise InvalidConfig("integrator exceeded the step budget")

    if event is None:
        event = RadialEvent(HORIZON, t)
    return _finish(p, times, values, event, eval_t, eval_r)


def _to_r(p: RadialParams, y: float, use_u: bool) -> float:
    if not use_u:
        return y
    if y <= 0.0:
        return math.inf
    return -(p.m / p.a) * math.log(y)


def _finish(p, times, values, event, eval_t, eval_r) -> RadialTrajectory:
    return RadialTrajectory(
        params=p,
        times=np.asarray(times),
        R_sq=np.asarray(values),
        event=event,
        bound_time=applicable_bound(p),
        eval_times=np.asarray(eval_t),
        eval_R_sq=np.asarray(eval_r),
    )
