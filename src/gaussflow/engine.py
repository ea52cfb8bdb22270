"""Time-stepping of the Gaussian-weighted curvature flows.

Three velocity laws are supported, all of the form
exp(conformal exponent) * (curvature term + position term):

* ``FLOW0``: exp(|F|^2/m) * (H + F_perp), the normal-velocity law;
* ``FLOW``:  exp(|F|^2/m) * (H + F), its tangentially augmented twin;
* ``FLOWP``: exp(a|F|^2/m) * (c(t) H + b F) with constants a, b and
  affine c(t), the generalized law the closed-form sphere results apply to.

Each step takes whichever of two explicit integrators costs fewer velocity
evaluations per unit of model time:

* classical four-stage Runge-Kutta at the stability step
  dt_stab = cfl * h_min^2 / (c(t) * exp(a * max|F|^2 / m)), which prices
  the state-dependent diffusivity of the exponential factor into the step;
  it costs 4 / dt_stab;
* s-stage second-order Runge-Kutta-Chebyshev (RKC2; Sommeijer, Shampine &
  Verwer 1997) at the step dt_acc its error estimate allows, with
  s = 1 + floor(sqrt(1 + 1.54 dt_acc rho)) stages for a Gershgorin bound
  rho on the spectral radius of the diffusion part c(t) exp(peak) L; it
  costs s / dt_acc.

Shrinking curves, whose h_min^2 falls with the curve while the flow stays
smooth, go to RKC2; expanding surfaces, where accuracy is the tighter
limit, stay on RK4.  After every accepted step of either kind the RKC
estimate est = 0.8 (y0 - y1) + 0.4 dt (f0 + f1) updates dt_acc (after an
RK4 step, scaled to what a two-stage RKC2 step would report), and
f1 = f(y1) is the next step's first stage, so an RK4 step still costs four
evaluations.

One function, ``_advance``, sets every step's length.  The limits it
applies, in order: the stability step dt_stab, whose ``cfl`` it checks
and which stops the run below DT_MIN; the accuracy step dt_acc, at most
DT_MAX, shortened to what S_MAX stages keep stable; a landing on the end
it is given, by one rule (``run`` passes the next sample time, or the
horizon when no sample is pending, so a sample time is a nearer horizon);
a retry of an RKC2 trial at a shorter step when its estimate exceeds the
tolerance (at the step the estimate allows) or it trips the overflow guard
or degenerates the mesh (at a quarter); and, when given thresholds, a
bisection of a threshold crossed inside an accepted RKC2 step, down to
BISECT_FRACTION of it.  A flow's state is one frozen record,
``FlowState``: the time, the immersion, the length of the step that
reached it, the bracket on the time it was first reached, and the
controller state (the next step's first stage, the accuracy step and the
summed error estimate).  ``_advance`` takes one and returns the next, so
``run`` and repeated ``step`` take the same steps.  The state's
diagnostics are read from its immersion's cached geometry pass, not
stored.  There is one stepping path for curves and surfaces: every stage
is an immersion evaluated through the mesh operators.  Runs terminate
with a classified stop reason (``STOP_KINDS``): curvature blow-up,
position blow-up, collapse to the origin, mesh degeneration, or horizon.
The checks of recorded runs live in ``comparison``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import mesh as meshops
from .errors import (DegenerateMesh, InvalidConfig, OverflowGuard,
                     TimestepUnderflow, guard_exponent)
from .mesh import DiscreteImmersion

FLOW0 = "FLOW0"
FLOW = "FLOW"
FLOWP = "FLOWP"

CURVATURE_BLOWUP = "CURVATURE_BLOWUP"
POSITION_BLOWUP = "POSITION_BLOWUP"
POSITION_COLLAPSE = "POSITION_COLLAPSE"
MESH_DEGENERATE = "MESH_DEGENERATE"
HORIZON_REACHED = "HORIZON_REACHED"
STOP_KINDS = (CURVATURE_BLOWUP, POSITION_BLOWUP, POSITION_COLLAPSE, MESH_DEGENERATE,
              HORIZON_REACHED)

DT_MIN = 1e-12           # shortest stable step; below it the run stops
DT_MAX = 1e-2            # longest step of either integrator
RTOL = 1e-8              # RKC2 error tolerance, relative to |position|
ATOL = 1e-10             # and absolute, in position units
S_MAX = 400              # RKC2 stage cap: stable up to dt * rho ~ 0.65 * S_MAX^2
BISECT_FRACTION = 1e-3   # threshold crossings inside an RKC2 step, located to this share of it
CFL_MAX = 0.69           # RK4's real-axis limit 2.785 over the curve Laplacian bound 4 / h_min^2

# The diagnostics series, in column order: CSV column name -> FlowTrajectory
# field.  run's rows and the artifact's diagnostics.csv are both built from it.
COLUMNS = {"t": "times", "dt": "dts", "min_F2": "min_F2", "max_F2": "max_F2",
           "max_h2": "max_h2", "weighted_area": "weighted_area",
           "mesh_quality": "mesh_quality"}


@dataclass(frozen=True)
class FlowParams:
    """Velocity-law constants.  FLOW0/FLOW pin a = b = c = 1; FLOWP takes
    the general constants with affine c(t) = c + c_slope * t.  a = 0 or
    b = 0 select the pure-MCF extension outside the paper regime."""

    variant: str = FLOW
    a: float = 1.0
    b: float = 1.0
    c: float = 1.0
    c_slope: float = 0.0

    def __post_init__(self):
        if self.variant not in (FLOW0, FLOW, FLOWP):
            raise InvalidConfig(f"unknown flow variant {self.variant!r}")
        if self.variant in (FLOW0, FLOW):
            if (self.a, self.b, self.c, self.c_slope) != (1.0, 1.0, 1.0, 0.0):
                raise InvalidConfig(
                    f"{self.variant} is the fixed specialization a = b = c = 1"
                )
        else:
            for name in ("a", "b", "c", "c_slope"):
                if not math.isfinite(getattr(self, name)):
                    raise InvalidConfig(f"FLOWP needs finite {name}, got {getattr(self, name)}")
            if self.a < 0 or self.b < 0 or self.c <= 0:
                raise InvalidConfig("FLOWP needs a >= 0, b >= 0, c > 0")

    def c_at(self, t: float) -> float:
        return self.c + self.c_slope * t

    def balance_sq(self, t, m: int):
        """(c(t)/b) m, the squared radius of the balance sphere; t may be an array, b > 0."""
        return self.c_at(t) / self.b * m

    def m_eff(self, s: DiscreteImmersion) -> int:
        """The dimension m of exp(a|F|^2/m) and of the balance sphere: the
        intrinsic dimension of s, as in the curvature term."""
        return s.m

    @property
    def in_paper_regime(self) -> bool:
        return self.variant != FLOWP or (self.a > 0 and self.b > 0)


@dataclass(frozen=True)
class Thresholds:
    h2_max: float = 1e6
    F2_max: float = 1e6
    F2_min: float = 1e-6
    quality_min: float = 0.05

    def __post_init__(self):
        for name in ("h2_max", "F2_max", "F2_min", "quality_min"):
            if not getattr(self, name) > 0:
                raise InvalidConfig(f"threshold {name} must be positive")
        # refuse windows no state can satisfy; quality is at most 1 by construction
        if not self.F2_min < self.F2_max:
            raise InvalidConfig(f"threshold F2_min = {self.F2_min!r} must be below "
                                f"F2_max = {self.F2_max!r}")
        if self.quality_min > 1:
            raise InvalidConfig(f"threshold quality_min = {self.quality_min!r} must be at most 1")


@dataclass(frozen=True)
class Diagnostics:
    min_F2: float
    max_F2: float
    max_h2: float
    weighted_area: float
    mesh_quality: float


@dataclass(frozen=True)
class FlowState:
    """One state of a flow: the immersion at time ``t``, the length ``dt``
    of the step that reached it (0 for an initial state), and the
    controller state the next step starts from.

    ``f0`` is the velocity at this state, the next step's first stage
    (None when no step computed it); ``dt_acc`` the step the error
    estimate allows an RKC2 step (None before the first step); ``err_sum``
    the sum over RKC2 steps of their estimated local error in |F|^2,
    max_v |2 F_v . est_v|.  ``bracket`` bounds the time at which the
    step's end was first reached: it is ``dt`` unless a threshold crossing
    inside the step was bisected, and then the bisection's final bracket.
    """

    t: float
    immersion: DiscreteImmersion
    dt: float = 0.0
    f0: np.ndarray | None = field(default=None, repr=False, compare=False)
    dt_acc: float | None = field(default=None, compare=False)
    err_sum: float = field(default=0.0, compare=False)
    bracket: float = field(default=0.0, compare=False)

    @property
    def diagnostics(self) -> Diagnostics:
        """The diagnostics of this state, from the immersion's cached monitor
        geometry; each access computes min_F2 and weighted_area."""
        s = self.immersion
        geom = s._geometry(meshops._MONITOR)
        return Diagnostics(float(geom["F2"].min()), geom["F2_max"], geom["h2_max"],
                           meshops.weighted_area(s), geom["quality"])


@dataclass(frozen=True)
class StopReason:
    kind: str
    t_stop: float
    detail: str = ""


@dataclass
class FlowTrajectory:
    """Snapshot record of one run: diagnostics series plus mesh snapshots.

    ``integration_error`` is the run's summed RKC2 error estimate of |F|^2
    (``FlowState.err_sum``); it is zero on runs of RK4 steps only.
    """

    params: FlowParams
    m: int
    times: np.ndarray
    dts: np.ndarray
    min_F2: np.ndarray
    max_F2: np.ndarray
    max_h2: np.ndarray
    weighted_area: np.ndarray
    mesh_quality: np.ndarray
    stop: StopReason
    t_stop_error: float
    initial_h_max: float
    integration_error: float
    events: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)    # DiscreteImmersion per row

    @property
    def n_snapshots(self) -> int:
        return len(self.times)

    def discretization_tolerance(self) -> float:
        """Slack added to strict continuum inequalities on |F|^2:
        10 * (h0^2 + integration_error), spatial plus time-integration error.
        It does not grow with the step length; RK4's own error is far
        below h0^2 and counts as zero."""
        return 10.0 * (self.initial_h_max ** 2 + self.integration_error)


# ---------------------------------------------------------------------------
# velocity and the two integrators


def _conformal_exponent(geom: dict, p: FlowParams, m: int) -> tuple[float, float]:
    """Rate a/m of the conformal factor exp(a|F|^2/m) and its peak exponent
    a max|F|^2 / m, from an immersion's geometry; raises OverflowGuard once
    the peak reaches EXP_GUARD.  FLOW0 and FLOW pin a = 1."""
    return p.a / m, guard_exponent(p.a * geom["F2_max"] / m)


def velocity(s: DiscreteImmersion, p: FlowParams, t: float = 0.0) -> np.ndarray:
    """Per-vertex velocity of the configured flow variant, a fresh array on
    every call; ``_rkc_advance`` reuses it as scratch."""
    geom = s._geometry(meshops._NORMAL if p.variant == FLOW0 else meshops._BASE)
    rate, _ = _conformal_exponent(geom, p, s.m)
    w = rate * geom["F2"]
    np.exp(w, out=w)
    H = geom["H"]
    v = s.vertices
    if p.variant == FLOW0:
        drive = H + meshops.normal_projection(s, v)
    elif p.variant == FLOW:
        drive = H + v
    else:
        drive = p.c_at(t) * H + p.b * v
    drive *= w[:, None]
    return drive


def check_cfl(cfl: float) -> None:
    """Reject a step factor outside (0, CFL_MAX], NaN included: a NaN step
    never reaches the horizon, and above CFL_MAX RK4 is unstable."""
    if not 0.0 < cfl <= CFL_MAX:
        raise InvalidConfig(f"cfl must lie in (0, {CFL_MAX}], got {cfl}")


def stability_dt(s: DiscreteImmersion, p: FlowParams, t: float = 0.0, cfl: float = 0.25) -> float:
    """Stable explicit step cfl * h_min^2 / (c(t) * exp(a max|F|^2 / m)), at most DT_MAX.

    Raises InvalidConfig for a cfl that check_cfl refuses, and
    TimestepUnderflow when the unclamped step falls below DT_MIN; ``run``
    then terminates with the currently indicated blow-up kind.
    """
    check_cfl(cfl)
    geom = s._geometry(meshops._MONITOR)
    _, peak = _conformal_exponent(geom, p, s.m)
    h_min = geom["min_edge"]
    dt = cfl * h_min * h_min / (p.c_at(t) * math.exp(peak))
    if dt < DT_MIN:
        raise TimestepUnderflow(dt, DT_MIN)
    return min(dt, DT_MAX)


def _spectral_radius(s: DiscreteImmersion, p: FlowParams, t: float) -> float:
    """Gershgorin bound on the spectral radius of the velocity's diffusion
    part, c(t) exp(a max|F|^2 / m) times the bound on the Laplacian."""
    _, peak = _conformal_exponent(s._geometry(), p, s.m)
    return p.c_at(t) * math.exp(peak) * meshops.laplacian_spectral_bound(s)


def _rk4_advance(s: DiscreteImmersion, p: FlowParams, t: float, dt: float,
                 k1: np.ndarray) -> DiscreteImmersion:
    v0 = s.vertices
    k2 = velocity(s.replace_vertices(v0 + (0.5 * dt) * k1), p, t + 0.5 * dt)
    k3 = velocity(s.replace_vertices(v0 + (0.5 * dt) * k2), p, t + 0.5 * dt)
    k4 = velocity(s.replace_vertices(v0 + dt * k3), p, t + dt)
    return s.replace_vertices(v0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))


def _rkc_stages(dt: float, rho: float) -> tuple[float, int]:
    """Stage count s = 1 + floor(sqrt(1 + 1.54 dt rho)) that keeps an RKC2
    step of length dt stable, with dt shortened to what S_MAX stages allow."""
    stages = 1 + int(math.sqrt(1.0 + 1.54 * dt * rho))
    if stages > S_MAX:
        return (S_MAX * S_MAX - 1) / (1.54 * rho), S_MAX
    return dt, stages


def _rkc_advance(s: DiscreteImmersion, p: FlowParams, t: float, dt: float,
                 stages: int, f0: np.ndarray) -> DiscreteImmersion:
    """One damped (eps = 2/13) RKC2 step of ``stages`` stages, from the
    three-term Chebyshev recursion of Sommeijer, Shampine & Verwer (1997);
    f0 is the velocity at s, so the step makes stages - 1 evaluations.

    Each stage's recursion is computed in place, with the operations of
    mu y1 + nu y2 + (1 - mu - nu) y0 + (dt mus) (f - a1 f0) in that order:
    into the new stage's array, one scratch buffer, and the stage's
    velocity array f, which it consumes.  f0 is only read."""
    w0 = 1.0 + 2.0 / (13.0 * stages * stages)
    q = w0 * w0 - 1.0
    arg = stages * math.log(w0 + math.sqrt(q))
    w1 = math.sinh(arg) * q / (math.cosh(arg) * stages * math.sqrt(q) - w0 * math.sinh(arg))
    # Chebyshev T_j(w0) and its first two derivatives, b_j = T_j'' / T_j'^2
    z2, z1, dz2, dz1, d2z2, d2z1 = 1.0, w0, 0.0, 1.0, 0.0, 0.0
    b2 = b1 = 1.0 / (4.0 * w0 * w0)
    y0 = s.vertices
    y2, y1 = y0, y0 + (dt * w1 * b1) * f0
    th2, th1 = 0.0, w1 * b1                  # stage times, in units of dt
    tmp = np.empty_like(y0)
    for _ in range(2, stages + 1):
        z = 2.0 * w0 * z1 - z2
        dz = 2.0 * w0 * dz1 - dz2 + 2.0 * z1
        d2z = 2.0 * w0 * d2z1 - d2z2 + 4.0 * dz1
        b = d2z / (dz * dz)
        a1 = 1.0 - z1 * b1
        mu = 2.0 * w0 * b / b1
        nu = -b / b2
        mus = mu * w1 / w0
        f = velocity(s.replace_vertices(y1), p, t + th1 * dt)
        y = np.multiply(mu, y1)
        y += np.multiply(nu, y2, out=tmp)
        y += np.multiply(1.0 - mu - nu, y0, out=tmp)
        f -= np.multiply(a1, f0, out=tmp)
        f *= dt * mus
        y += f
        th = mu * th1 + nu * th2 + mus * (1.0 - a1)
        y2, y1, th2, th1 = y1, y, th1, th
        z2, z1, dz2, dz1, d2z2, d2z1, b2, b1 = z1, z, dz1, dz, d2z1, d2z, b1, b
    return s.replace_vertices(y1)


def _error_norm(y0: np.ndarray, y1: np.ndarray, f0: np.ndarray, f1: np.ndarray,
                dt: float) -> tuple[float, np.ndarray]:
    """The RKC error estimate of a step from y0 to y1 and its RMS norm
    weighted by ATOL + RTOL * |y|; a norm above 1 fails the tolerance."""
    # in place, the same operations in the same order as the expression form
    # est = 0.8 (y0 - y1) + 0.4 dt (f0 + f1), r = |est| / (ATOL + RTOL max(|y0|, |y1|))
    est = np.subtract(y0, y1)
    est *= 0.8
    tmp = np.add(f0, f1)
    tmp *= 0.4 * dt
    est += tmp
    r = np.abs(est)
    scale = np.abs(y0)
    np.maximum(scale, np.abs(y1, out=tmp), out=scale)
    scale *= RTOL
    scale += ATOL
    r /= scale
    peak = float(r.max())
    if not math.isfinite(peak):
        return math.inf, est
    if peak == 0.0:
        return 0.0, est
    # scaled by the peak, so the squares of a trial far off tolerance cannot
    # overflow; the mean is np.mean's own sum over its count
    r /= peak
    np.square(r, out=r)
    return peak * math.sqrt(float(np.add.reduce(r, axis=None)) / r.size), est


def _step_factor(err: float) -> float:
    """Growth of the accuracy step after an error norm of err: the usual
    0.8 err^(-1/3) of a second-order method, within [0.1, 10]."""
    return 10.0 if err == 0.0 else min(10.0, max(0.1, 0.8 / math.cbrt(err)))


def _land(t: float, dt: float, end: float) -> tuple[float, float]:
    """Fit a step of length dt from t to ``end``: a step within 1e-12 of
    its length of the end stretches to it, so no sliver step follows, and
    ends exactly there.  Returns the step length and its end time.  A step
    that does not land ends at t + dt, which rounding can put on ``end``
    but never past it, so a caller asks whether a state is at its end by
    its time alone."""
    if end - t <= dt * (1.0 + 1e-12):
        return end - t, end
    return dt, t + dt


def _advance(state: FlowState, p: FlowParams, cfl: float, end: float = math.inf,
             th: Thresholds | None = None) -> FlowState:
    """One accepted step from ``state``: RK4 at the stability step or RKC2
    at the accuracy step, whichever costs fewer velocity evaluations per
    unit time.  This is the one place a step's length is set.

    The limits, in order: ``stability_dt`` at ``cfl`` (which checks cfl and
    raises TimestepUnderflow below DT_MIN); the accuracy step, at most
    DT_MAX and shortened to what S_MAX stages keep stable; ``_land`` on
    ``end``; an RKC2 trial over the tolerance retried at the step its
    estimate allows, and one that raises OverflowGuard or DegenerateMesh
    retried at a quarter of its length.  With thresholds ``th``, an
    accepted RKC2 step whose end crosses one is bisected from the same f0
    and spectral bound, down to a bracket of BISECT_FRACTION of it, and the
    shortest crossing step found is returned in its place.

    Returns the new state, whose ``bracket`` is the step or the
    bisection's final bracket.  Its controller fields are the whole
    step's, also after a bisection, except that a bisected state has
    f0 = None, as no velocity was computed there.  OverflowGuard or
    DegenerateMesh out of the stability step, an RK4 step or the end
    state's monitor geometry or f1 propagates.  The monitor geometry is
    computed before f1, so the end state's one geometry pass computes the
    monitor group, and a vanishing normal raises DegenerateMesh before the
    overflow guard.
    """
    s, t = state.immersion, state.t
    dt_stab = stability_dt(s, p, t, cfl)
    f0 = state.f0 if state.f0 is not None else velocity(s, p, t)
    dt_acc, rho = state.dt_acc, None
    retry = math.inf        # the accuracy step after the latest rejected trial
    while True:
        dt, rkc = dt_stab, False
        # RKC2 takes at least two stages, so below dt_stab / 2 RK4 is cheaper
        if dt_acc is not None and min(dt_acc, DT_MAX) > 0.5 * dt_stab:
            if rho is None:
                rho = _spectral_radius(s, p, t)
            dt_rkc, stages = _rkc_stages(min(dt_acc, DT_MAX), rho)
            if stages / dt_rkc < 4.0 / dt_stab:
                dt, rkc = dt_rkc, True
        dt, t1 = _land(t, dt, end)
        if not rkc:
            y1 = _rk4_advance(s, p, t, dt, f0)
            y1._geometry(meshops._MONITOR)
            f1 = velocity(y1, p, t1)
            err, est = _error_norm(s.vertices, y1.vertices, f0, f1, dt)
            # on y' = lambda y the estimate is z^3 / 15 for an exact step and
            # z^3 / 5 for a two-stage RKC2 step, whose stability polynomial
            # has no z^3 term; an RK4 step is near exact, so scale it by 3
            # before it proposes an RKC2 step
            err *= 3.0
            break
        try:
            y1 = _rkc_advance(s, p, t, dt, _rkc_stages(dt, rho)[1], f0)
            y1._geometry(meshops._MONITOR)
            f1 = velocity(y1, p, t1)
        except (OverflowGuard, DegenerateMesh):
            dt_acc = retry = 0.25 * dt
            continue
        err, est = _error_norm(s.vertices, y1.vertices, f0, f1, dt)
        if err <= 1.0:
            break
        dt_acc = retry = dt * _step_factor(err)

    # no growth right after a rejection; this also keeps an RK4 fallback
    # from proposing the RKC2 step that just failed
    dt_next = min(dt * _step_factor(err), retry)
    err_sum = state.err_sum
    if rkc:
        err_sum += float(np.abs(2.0 * np.einsum("ij,ij->i", y1.vertices, est)).max())
    lo, hi = 0.0, dt
    if rkc and th is not None and _classify(y1, th) is not None:
        while hi - lo > BISECT_FRACTION * dt:
            mid = 0.5 * (lo + hi)
            try:
                y = _rkc_advance(s, p, t, mid, _rkc_stages(mid, rho)[1], f0)
                crossed = _classify(y, th) is not None
            except (OverflowGuard, DegenerateMesh):
                break
            if crossed:
                hi, y1 = mid, y
            else:
                lo = mid
        if hi < dt:         # a shorter step crosses: it ends the run instead
            return FlowState(t + hi, y1, hi, None, dt_next, err_sum, hi - lo)
    return FlowState(t1, y1, dt, f1, dt_next, err_sum, hi - lo)


def step(state: FlowState, p: FlowParams, cfl: float = 0.25) -> FlowState:
    """The state one step after ``state``, RK4 or RKC2 as its controller
    fields pick; repeated calls take the steps ``run`` takes."""
    return _advance(state, p, cfl)


def initial_state(s: DiscreteImmersion) -> FlowState:
    return FlowState(0.0, s)


# ---------------------------------------------------------------------------
# full runs


def _classify(s: DiscreteImmersion, th: Thresholds) -> tuple[str, str] | None:
    geom = s._geometry(meshops._MONITOR)
    F2_max = geom["F2_max"]
    # collapse takes precedence: near the origin |h|^2 diverges as well and
    # the two signals are indistinguishable in floating point
    if F2_max < th.F2_min:
        return POSITION_COLLAPSE, f"max|F|^2 = {F2_max:.3e} < {th.F2_min:.3e}"
    if F2_max >= th.F2_max:
        return POSITION_BLOWUP, f"max|F|^2 = {F2_max:.3e} >= {th.F2_max:.3e}"
    h2_max = geom["h2_max"]
    if h2_max >= th.h2_max:
        return CURVATURE_BLOWUP, f"max|h|^2 = {h2_max:.3e} >= {th.h2_max:.3e}"
    if geom["quality"] < th.quality_min:
        return MESH_DEGENERATE, f"quality = {geom['quality']:.3e} < {th.quality_min:.3e}"
    return None


def _underflow_kind(p: FlowParams, s: DiscreteImmersion, th: Thresholds) -> tuple[str, str]:
    F2_max = s._geometry(meshops._MONITOR)["F2_max"]
    if p.a * F2_max / s.m >= 20.0:
        return POSITION_BLOWUP, "dt underflow driven by the conformal exponent"
    if F2_max <= 10.0 * th.F2_min:
        return POSITION_COLLAPSE, "dt underflow with the mesh at the origin"
    return CURVATURE_BLOWUP, "dt underflow driven by edge collapse"


def run(initial: DiscreteImmersion, p: FlowParams, horizon: float,
        thresholds: Thresholds | None = None, stride: int = 16,
        snapshot_times=None, cfl: float = 0.25, keep_snapshots: bool = True) -> FlowTrajectory:
    """Run the flow until the horizon or the first terminal event.

    ``horizon`` must be >= 0: NaN is rejected, infinity is allowed.  Every
    step is at most DT_MAX long, and a stable step below DT_MIN stops the
    run with the blow-up kind the monitor indicates.

    Snapshots (CSV rows) are recorded every ``stride`` steps, or exactly at
    ``snapshot_times`` when given; the initial and terminal states are
    always recorded.  ``keep_snapshots=False`` drops the per-row meshes and
    keeps only the diagnostics series.  Full diagnostics are computed for
    recorded rows only; the other steps compute just the max|F|^2,
    max|h|^2 and mesh quality the stop classification reads.

    Each step is fitted to the next sample time as to a nearer horizon,
    and a state at that time is its row.

    ``t_stop_error`` is zero for a horizon stop, whose time is landed on,
    and otherwise 4 * bracket + 4 * DT_MIN + E / |d max|F|^2 / dt|: the
    bracket is the last state's ``FlowState.bracket`` (its step, or the
    bisection bracket of a crossing inside an RKC2 step), the rate is
    taken over the last step, and E is the summed RKC2 error estimate of
    |F|^2.
    """
    if not horizon >= 0:
        raise InvalidConfig(f"horizon must be >= 0, got {horizon}")
    if stride < 1:
        raise InvalidConfig("stride must be >= 1")
    check_cfl(cfl)
    th = thresholds if thresholds is not None else Thresholds()
    if p.c_at(horizon) <= 0:          # c(0) = c > 0 holds since FlowParams was built
        raise InvalidConfig("c(t) must remain positive over the horizon")

    pending = [] if snapshot_times is None else sorted({float(x) for x in snapshot_times})
    if any(not 0 <= x <= horizon for x in pending):
        raise InvalidConfig("snapshot times must lie in [0, horizon]")
    pending = [x for x in pending if x > 1e-15]     # the initial row stands for these

    rows = {k: [] for k in COLUMNS}
    snaps: list[DiscreteImmersion] = []
    events: list[dict] = []

    def record(state):
        row = {"t": state.t, "dt": state.dt, **vars(state.diagnostics)}
        for name, series in rows.items():
            series.append(row[name])
        if keep_snapshots:
            # a fresh immersion on the same positions, without the geometry
            # cache, so the kept snapshots hold positions only
            snaps.append(state.immersion.replace_vertices(state.immersion.vertices))

    try:
        initial._geometry(meshops._MONITOR)
    except DegenerateMesh as exc:
        raise InvalidConfig(f"initial immersion is degenerate: {exc}") from exc

    state = initial_state(initial)
    steps, F2_before = 0, 0.0
    if not p.in_paper_regime:
        events.append({"event": "out_of_paper_params", "t": 0.0})

    record(state)

    while True:
        t = state.t
        hit = _classify(state.immersion, th)
        if hit is not None:
            kind, detail = hit
            events.append({"event": kind.lower() + "_threshold", "t": t})
            stop = StopReason(kind, t, detail)
            break
        if t >= horizon:
            stop = StopReason(HORIZON_REACHED, t, f"reached horizon {horizon:g}")
            break

        try:
            nxt = _advance(state, p, cfl, pending[0] if pending else horizon, th)
        except TimestepUnderflow as exc:
            kind, detail = _underflow_kind(p, state.immersion, th)
            events.append({"event": "timestep_underflow", "t": t})
            stop = StopReason(kind, t, f"{detail} ({exc})")
            break
        except OverflowGuard:
            # one text wherever it fires: before a step's trials it can fire
            # on initial data only, as every accepted state's f1 passed it
            events.append({"event": "overflow_guard", "t": t})
            stop = StopReason(POSITION_BLOWUP, t, "conformal exponent guard fired")
            break
        except DegenerateMesh as exc:
            stop = StopReason(MESH_DEGENERATE, t, str(exc))
            break

        # keep the max|F|^2 the last step started from, not its whole state
        F2_before, state = state.immersion._geometry()["F2_max"], nxt
        steps += 1
        if pending and state.t == pending[0]:
            pending.pop(0)
            record(state)
        elif snapshot_times is None and steps % stride == 0:
            record(state)

    if rows["t"][-1] != state.t:
        record(state)
    events.append({"event": "stop", "kind": stop.kind, "t": stop.t_stop,
                   "detail": stop.detail})

    err_sum = state.err_sum
    t_stop_error = 0.0
    if stop.kind != HORIZON_REACHED:
        t_stop_error = 4.0 * state.bracket + 4.0 * DT_MIN
        if err_sum > 0.0:       # an RKC2 step was taken, so the last step has a length
            f2_rate = abs(state.immersion._geometry()["F2_max"] - F2_before) / state.dt
            t_stop_error += err_sum / f2_rate if f2_rate > 0.0 else 0.0
    return FlowTrajectory(
        params=p, m=initial.m,
        **{COLUMNS[name]: np.asarray(series) for name, series in rows.items()},
        stop=stop, t_stop_error=t_stop_error,
        initial_h_max=initial._geometry(meshops._MONITOR)["max_edge"], integration_error=err_sum,
        events=events, snapshots=snaps,
    )
