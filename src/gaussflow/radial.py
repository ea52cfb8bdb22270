"""Exact treatment of origin-centered spheres under the flow.

A sphere of squared radius r(t) moves by the scalar ODE

    r' = 2 * exp(a*r/m) * (b*r - m*c(t)),

so spheres give closed-form blow-up bounds.  The ODE is integrated
adaptively with an embedded Runge-Kutta 5(4) pair; away from escape the
state variable is r itself, while near escape the integrator switches to
u = exp(-a*r/m), whose equation

    u' = -(2*a*b/m) * (-(m/a)*ln(u) - c(t)*m/b)

is free of the exponential stiffness and carries only a logarithmic
singularity into the finite-time escape.  Steps land exactly on the
requested sample times and on the horizon; events are bracketed on the
accepted steps and localized by bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import FLOWP, FlowParams
from .errors import DomainError, InvalidConfig, guard_exponent

COLLAPSE_FLOOR = 1e-12   # COLLAPSE fires when R^2 crosses this from above
EVENT_TIME_TOL = 1e-10
RTOL = 1e-10             # relative step tolerance; the absolute one is RTOL * 1e-4

COLLAPSE = "COLLAPSE"
ESCAPE = "ESCAPE"
HORIZON = "HORIZON"


@dataclass(frozen=True)
class RadialParams:
    """Constants of the radial ODE: intrinsic dimension, exponent, the two
    velocity coefficients (c affine in time), and the initial squared radius.

    The constants are those of the general law FLOWP, held in ``law``; the
    balance sphere and c(t) are read from it.  ``sphere_params`` builds the
    ODE of any configured law."""

    m: int
    a: float
    b: float
    c0: float
    R0_sq: float
    c_slope: float = 0.0
    law: FlowParams = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.m < 1:
            raise InvalidConfig(f"m must be >= 1, got {self.m}")
        law = FlowParams(FLOWP, self.a, self.b, self.c0, self.c_slope)
        if not law.in_paper_regime:
            raise InvalidConfig(f"a and b must be positive, got a = {self.a}, b = {self.b}")
        if not 0 < self.R0_sq < math.inf:
            raise InvalidConfig(f"R0_sq must be positive and finite, got {self.R0_sq}")
        object.__setattr__(self, "law", law)

    def c(self, t: float) -> float:
        return self.law.c_at(t)

    @property
    def balance_sq(self) -> float:
        """Squared radius of the stationary sphere, (c0/b)*m."""
        return self.law.balance_sq(0.0, self.m)

    def regime(self) -> str:
        if self.R0_sq < self.balance_sq:
            return "shrink"
        if self.R0_sq > self.balance_sq:
            return "expand"
        return "stationary"


def sphere_params(law: FlowParams, m: int, R0_sq: float) -> RadialParams:
    """The radius ODE of an origin-centered sphere of dimension m and
    initial squared radius R0_sq under the flow law ``law``.  FLOW0 and
    FLOW move spheres alike, by the ODE with a = b = c = 1."""
    if not law.in_paper_regime:
        raise InvalidConfig(f"the sphere ODE needs params.a > 0 and params.b > 0, "
                            f"got params.a = {law.a}, params.b = {law.b}")
    return RadialParams(m, law.a, law.b, law.c, R0_sq, law.c_slope)


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
    eval_times: np.ndarray = field(default=None)
    eval_R_sq: np.ndarray = field(default=None)


def radial_rhs(R_sq: float, p: RadialParams, t: float = 0.0) -> float:
    """Right-hand side 2*exp(a*R_sq/m)*(b*R_sq - m*c(t)) of the radius ODE."""
    if R_sq < 0:
        raise DomainError(f"R_sq must be >= 0, got {R_sq}")
    exponent = guard_exponent(p.a * R_sq / p.m)
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
# closed-form bound times (constant a, b; c evaluated at 0)


def bound_time_shrink(p: RadialParams) -> float:
    """Upper bound T1 on the collapse time of an initially inside sphere."""
    if not p.R0_sq < p.balance_sq:
        raise DomainError(
            f"shrink bound needs R0_sq < (c0/b)m = {p.balance_sq:.6g}, got {p.R0_sq:.6g}"
        )
    if p.c_slope < 0:
        raise DomainError("shrink bound requires nondecreasing c")
    # -expm1, not 1 - exp: the difference cancels as a R0^2 / m goes to 0
    return (p.m * -math.expm1(-p.a * p.R0_sq / p.m)
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


def applicable_bound(p: RadialParams) -> float | None:
    reg = p.regime()
    if reg == "shrink" and p.c_slope >= 0:
        return bound_time_shrink(p)
    if reg == "expand" and p.c_slope <= 0:
        return bound_time_expand(p)
    return None


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


def _bisect_event(f, t0, y0, h, p, use_u, ceiling) -> float:
    """Bisection on the step [t0, t0+h] for the first time R^2 reaches
    COLLAPSE_FLOOR or ``ceiling``, stepping with the integrator's own step."""
    lo, hi = 0.0, h
    for _ in range(200):
        if hi - lo < EVENT_TIME_TOL:
            break
        mid = 0.5 * (lo + hi)
        r = _to_r(p, _dp_step(f, t0, y0, mid, p)[0], use_u)
        if r <= COLLAPSE_FLOOR or r >= ceiling:
            hi = mid
        else:
            lo = mid
    return t0 + hi


# ---------------------------------------------------------------------------
# integrator


def integrate_radial(p: RadialParams, horizon: float, t_eval=None) -> RadialTrajectory:
    """Integrate the radius ODE up to the horizon or the first event.

    COLLAPSE fires when R^2 falls to COLLAPSE_FLOOR, and ESCAPE when it
    reaches 690*m/a, where u = exp(-a R^2/m) meets the 1e-300 floor, i.e.
    numerically indistinguishable from escape to infinity.  ``horizon``
    must be >= 0: NaN is rejected, infinity is allowed except on the
    stationary sphere with constant c, where no event comes.

    Parameters
    ----------
    t_eval : array_like, optional
        Times in [0, horizon] to sample.  Each step is capped at the next
        one and ends exactly on it, so every sample time up to the event is
        in ``times``; a sample within 1e-13 * max(1, t) of the current time
        t is recorded there.  The values are returned in ``eval_times`` /
        ``eval_R_sq`` (truncated at the event when one fires first).
    """
    if not horizon >= 0:
        raise InvalidConfig(f"horizon must be >= 0, got {horizon}")
    escape_ceiling = 690.0 * p.m / p.a
    if not COLLAPSE_FLOOR < p.R0_sq < escape_ceiling:
        raise InvalidConfig("R0_sq must sit between collapse floor and escape ceiling")
    if p.c(horizon) <= 0:             # c(0) = c0 > 0 holds since p.law was built
        raise InvalidConfig("c(t) must stay positive over the horizon")
    pending = [] if t_eval is None else sorted(float(t) for t in t_eval)
    if any(not 0 <= t <= horizon for t in pending):
        raise InvalidConfig("t_eval times must lie in [0, horizon]")

    switch_up = 3.0 * p.m / p.a      # beyond this, integrate u = exp(-a r / m)
    switch_down = 2.0 * p.m / p.a
    atol = RTOL * 1e-4
    t, r = 0.0, float(p.R0_sq)
    y, use_u = r, False
    times, values, eval_t, eval_r = [t], [r], [], []
    h = min(1e-4, horizon)
    event = None
    for _ in range(2_000_000):
        while pending and pending[0] - t <= 1e-13 * max(1.0, t):
            eval_t.append(pending.pop(0))
            eval_r.append(r)
        if event is not None or t >= horizon:
            break
        # phase switching with hysteresis; the first pass picks the initial phase
        if not use_u and r > switch_up:
            use_u, y = True, math.exp(-p.a * r / p.m)
        elif use_u and r < switch_down:
            use_u, y = False, r
        f = _u_rhs if use_u else _r_rhs_clamped

        end = min(horizon, pending[0]) if pending else horizon
        h_step = min(h, end - t)
        if not math.isfinite(t + h_step):
            # only a stationary R^2 lets the step grow without bound
            raise InvalidConfig("infinite horizon, but R^2 stays on the stationary "
                                "sphere: no event ends the integration")
        y_new, err = _dp_step(f, t, y, h_step, p)
        scale = atol + RTOL * max(abs(y), abs(y_new))
        if err > scale:
            h = max(h_step * max(0.2, 0.9 * (scale / err) ** 0.2), 1e-16)
            continue

        r_new = _to_r(p, y_new, use_u)
        if r_new <= COLLAPSE_FLOOR or r_new >= escape_ceiling:
            # an event: bisect for the time R^2 leaves the band, and end on its edge
            kind, limit = ((COLLAPSE, COLLAPSE_FLOOR) if r_new <= COLLAPSE_FLOOR
                           else (ESCAPE, escape_ceiling))
            t = _bisect_event(f, t, y, h_step, p, use_u, escape_ceiling)
            y = math.exp(-p.a * limit / p.m) if use_u else limit
            event = RadialEvent(kind, t)
        else:
            grow = 5.0 if err == 0.0 else min(5.0, 0.9 * (scale / err) ** 0.2)
            t = end if h_step == end - t else t + h_step
            y = y_new
            h = h_step * max(grow, 1.0) if h_step < h else h_step * grow
        r = _to_r(p, y, use_u)
        times.append(t)
        values.append(r)
    else:
        raise InvalidConfig("integrator exceeded the step budget")

    return RadialTrajectory(
        params=p, times=np.asarray(times), R_sq=np.asarray(values),
        event=event or RadialEvent(HORIZON, t),
        eval_times=np.asarray(eval_t), eval_R_sq=np.asarray(eval_r),
    )


def _to_r(p: RadialParams, y: float, use_u: bool) -> float:
    if not use_u:
        return y
    if y <= 0.0:
        return math.inf
    return -(p.m / p.a) * math.log(y)
