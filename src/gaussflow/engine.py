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
evaluations.  An RKC2 trial is retried shorter when its estimate exceeds
the tolerance or it trips the overflow guard or degenerates the mesh; a
threshold crossed inside an RKC2 step is located by bisection.  The
controller state travels in ``FlowState``, so ``run`` and repeated
``step`` take the same steps, and there is one stepping path for curves
and surfaces: every stage is an immersion evaluated through the mesh
operators.  Runs terminate with a classified stop reason: curvature
blow-up, position blow-up, collapse to the origin, mesh degeneration, or
horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import mesh as meshops
from .errors import (EXP_GUARD, DegenerateMesh, InsufficientSnapshots,
                     InvalidConfig, MismatchedTimes, OverflowGuard,
                     TimestepUnderflow)
from .mesh import DiscreteImmersion

FLOW0 = "FLOW0"
FLOW = "FLOW"
FLOWP = "FLOWP"

CURVATURE_BLOWUP = "CURVATURE_BLOWUP"
POSITION_BLOWUP = "POSITION_BLOWUP"
POSITION_COLLAPSE = "POSITION_COLLAPSE"
MESH_DEGENERATE = "MESH_DEGENERATE"
HORIZON_REACHED = "HORIZON_REACHED"

DT_MAX = 1e-2            # longest step of either integrator
RTOL = 1e-8              # RKC2 error tolerance, relative to |position|
ATOL = 1e-10             # and absolute, in position units
S_MAX = 400              # RKC2 stage cap: stable up to dt * rho ~ 0.65 * S_MAX^2
BISECT_FRACTION = 1e-3   # threshold crossings inside an RKC2 step, located to this share of it


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
            if self.a < 0 or self.b < 0 or self.c <= 0:
                raise InvalidConfig("FLOWP needs a >= 0, b >= 0, c > 0")

    def c_at(self, t: float) -> float:
        return self.c + self.c_slope * t

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


@dataclass(frozen=True)
class Diagnostics:
    min_F2: float
    max_F2: float
    max_h2: float
    weighted_area: float
    mesh_quality: float
    dt_used: float


class _Monitor(NamedTuple):
    """The diagnostics the stop classification reads, cheap enough for every step."""

    max_F2: float
    max_h2: float
    mesh_quality: float


@dataclass(frozen=True)
class StepControl:
    """Controller state one step hands the next.

    ``f0`` is the velocity at the current state, the next step's first
    stage; ``dt_acc`` the step the error estimate allows an RKC2 step
    (None before the first step); ``err_sum`` the sum over RKC2 steps of
    their estimated local error in |F|^2, max_v |2 F_v . est_v|; ``rkc``
    whether the step that produced the state was an RKC2 step.
    """

    f0: np.ndarray | None = None
    dt_acc: float | None = None
    err_sum: float = 0.0
    rkc: bool = False


@dataclass(frozen=True)
class FlowState:
    t: float
    immersion: DiscreteImmersion
    diagnostics: Diagnostics
    control: StepControl = field(default_factory=StepControl, repr=False, compare=False)


@dataclass(frozen=True)
class StopReason:
    kind: str
    t_stop: float
    detail: str = ""


@dataclass
class FlowTrajectory:
    """Snapshot record of one run: diagnostics series plus mesh snapshots.

    ``integration_error`` is the run's summed RKC2 error estimate of |F|^2
    (``StepControl.err_sum``); it is zero on runs of RK4 steps only.
    """

    params: FlowParams
    m: int
    thresholds: Thresholds
    horizon: float
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
    peak = p.a * geom["F2_max"] / m
    if peak >= EXP_GUARD:
        raise OverflowGuard(peak)
    return p.a / m, peak


def velocity(s: DiscreteImmersion, p: FlowParams, t: float = 0.0) -> np.ndarray:
    """Per-vertex velocity of the configured flow variant."""
    geom = s._geometry()
    rate, _ = _conformal_exponent(geom, p, s.m)
    w = np.exp(rate * geom["F2"])
    H = geom["H"]
    v = s.vertices
    if p.variant == FLOW0:
        drive = H + meshops.normal_projection(s, v)
    elif p.variant == FLOW:
        drive = H + v
    else:
        drive = p.c_at(t) * H + p.b * v
    return w[:, None] * drive


def stability_dt(s: DiscreteImmersion, p: FlowParams, t: float = 0.0,
                 cfl: float = 0.25, dt_min: float = 1e-12,
                 dt_max: float = DT_MAX) -> float:
    """Stable explicit step: cfl * h_min^2 / (c(t) * exp(a max|F|^2 / m)).

    Raises TimestepUnderflow when the unclamped step falls below dt_min;
    the caller then terminates with the currently indicated blow-up kind.
    """
    geom = s._geometry()
    _, peak = _conformal_exponent(geom, p, s.m)
    h_min = geom["min_edge"]
    dt = cfl * h_min * h_min / (p.c_at(t) * math.exp(peak))
    if dt < dt_min:
        raise TimestepUnderflow(dt, dt_min)
    return min(dt, dt_max)


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
    f0 is the velocity at s, so the step makes stages - 1 evaluations."""
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
        y = mu * y1 + nu * y2 + (1.0 - mu - nu) * y0 + (dt * mus) * (f - a1 * f0)
        th = mu * th1 + nu * th2 + mus * (1.0 - a1)
        y2, y1, th2, th1 = y1, y, th1, th
        z2, z1, dz2, dz1, d2z2, d2z1, b2, b1 = z1, z, dz1, dz, d2z1, d2z, b1, b
    return s.replace_vertices(y1)


def _error_norm(y0: np.ndarray, y1: np.ndarray, f0: np.ndarray, f1: np.ndarray,
                dt: float) -> tuple[float, np.ndarray]:
    """The RKC error estimate of a step from y0 to y1 and its RMS norm
    weighted by ATOL + RTOL * |y|; a norm above 1 fails the tolerance."""
    est = 0.8 * (y0 - y1) + (0.4 * dt) * (f0 + f1)
    r = np.abs(est) / (ATOL + RTOL * np.maximum(np.abs(y0), np.abs(y1)))
    peak = float(r.max())
    if not math.isfinite(peak):
        return math.inf, est
    if peak == 0.0:
        return 0.0, est
    # scaled by the peak, so the squares of a trial far off tolerance cannot overflow
    return peak * math.sqrt(float(np.mean(np.square(r / peak)))), est


def _step_factor(err: float) -> float:
    """Growth of the accuracy step after an error norm of err: the usual
    0.8 err^(-1/3) of a second-order method, within [0.1, 10]."""
    return 10.0 if err == 0.0 else min(10.0, max(0.1, 0.8 / math.cbrt(err)))


def _land(t: float, dt: float, horizon: float, sample: float | None) -> tuple[float, bool]:
    """Shorten a step to end on the horizon, or exactly on the next sample time."""
    dt = min(dt, horizon - t)
    if sample is not None and sample - t <= dt * (1.0 + 1e-12):
        return sample - t, True
    return dt, False


def _advance(s: DiscreteImmersion, t: float, ctl: StepControl, p: FlowParams,
             dt_stab: float, dt_max: float, horizon: float = math.inf,
             sample: float | None = None):
    """One accepted step from (s, t): RK4 at dt_stab or RKC2 at the accuracy
    step, whichever costs fewer velocity evaluations per unit time.

    Returns the new immersion, its time, the step length, whether it landed
    on ``sample``, and the new controller state.  OverflowGuard or
    DegenerateMesh out of an RK4 step, or out of f1 after it, propagates;
    an RKC2 trial that raises them is retried at a quarter of its length.
    """
    f0 = ctl.f0 if ctl.f0 is not None else velocity(s, p, t)
    dt_acc, rho = ctl.dt_acc, None
    retry = math.inf        # the accuracy step after the latest rejected trial
    while True:
        dt, rkc = dt_stab, False
        # RKC2 takes at least two stages, so below dt_stab / 2 RK4 is cheaper
        if dt_acc is not None and min(dt_acc, dt_max) > 0.5 * dt_stab:
            if rho is None:
                rho = _spectral_radius(s, p, t)
            dt_rkc, stages = _rkc_stages(min(dt_acc, dt_max), rho)
            if stages / dt_rkc < 4.0 / dt_stab:
                dt, rkc = dt_rkc, True
        dt, landed = _land(t, dt, horizon, sample)
        t1 = sample if landed else t + dt
        if not rkc:
            y1 = _rk4_advance(s, p, t, dt, f0)
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
    err_sum = ctl.err_sum
    if rkc:
        err_sum += float(np.abs(2.0 * np.einsum("ij,ij->i", y1.vertices, est)).max())
    return y1, t1, dt, landed, StepControl(f1, dt_next, err_sum, rkc)


def _monitor(s: DiscreteImmersion) -> _Monitor:
    geom = s._geometry()
    return _Monitor(geom["F2_max"], float(meshops.second_fundamental_norm(s).max()),
                   geom["quality"])


def compute_diagnostics(s: DiscreteImmersion, dt_used: float = 0.0) -> Diagnostics:
    mon = _monitor(s)
    return Diagnostics(
        min_F2=float(s._geometry()["F2"].min()),
        max_F2=mon.max_F2,
        max_h2=mon.max_h2,
        weighted_area=meshops.weighted_area(s),
        mesh_quality=mon.mesh_quality,
        dt_used=dt_used,
    )


def step(state: FlowState, p: FlowParams, cfl: float = 0.25) -> FlowState:
    """One step of a FlowState, RK4 or RKC2 as its controller state picks;
    repeated calls take the steps ``run`` takes."""
    s, t = state.immersion, state.t
    nxt, t1, dt, _, ctl = _advance(s, t, state.control, p,
                                   stability_dt(s, p, t, cfl=cfl), DT_MAX)
    return FlowState(t1, nxt, compute_diagnostics(nxt, dt), ctl)


def initial_state(s: DiscreteImmersion) -> FlowState:
    return FlowState(0.0, s, compute_diagnostics(s))


# ---------------------------------------------------------------------------
# full runs


def _classify(diag: _Monitor | Diagnostics, th: Thresholds) -> tuple[str, str] | None:
    # collapse takes precedence: near the origin |h|^2 diverges as well and
    # the two signals are indistinguishable in floating point
    if diag.max_F2 < th.F2_min:
        return POSITION_COLLAPSE, f"max|F|^2 = {diag.max_F2:.3e} < {th.F2_min:.3e}"
    if diag.max_F2 >= th.F2_max:
        return POSITION_BLOWUP, f"max|F|^2 = {diag.max_F2:.3e} >= {th.F2_max:.3e}"
    if diag.max_h2 >= th.h2_max:
        return CURVATURE_BLOWUP, f"max|h|^2 = {diag.max_h2:.3e} >= {th.h2_max:.3e}"
    if diag.mesh_quality < th.quality_min:
        return MESH_DEGENERATE, f"quality = {diag.mesh_quality:.3e} < {th.quality_min:.3e}"
    return None


def _underflow_kind(p: FlowParams, m: int, diag: _Monitor,
                    th: Thresholds) -> tuple[str, str]:
    if p.a * diag.max_F2 / m >= 20.0:
        return POSITION_BLOWUP, "dt underflow driven by the conformal exponent"
    if diag.max_F2 <= 10.0 * th.F2_min:
        return POSITION_COLLAPSE, "dt underflow with the mesh at the origin"
    return CURVATURE_BLOWUP, "dt underflow driven by edge collapse"


def _locate_crossing(s: DiscreteImmersion, t: float, f0: np.ndarray, p: FlowParams,
                     dt: float, th: Thresholds):
    """Bisect an RKC2 step of length dt from (s, t) whose end crossed a
    threshold, down to a bracket of BISECT_FRACTION * dt.

    Returns the end state and monitor of the shortest step found that still
    crosses (None if no shorter one does, or a trial raised first), its
    length, and the width of the final bracket.
    """
    rho = _spectral_radius(s, p, t)
    lo, hi, end, end_mon = 0.0, dt, None, None
    while hi - lo > BISECT_FRACTION * dt:
        mid = 0.5 * (lo + hi)
        try:
            y = _rkc_advance(s, p, t, mid, _rkc_stages(mid, rho)[1], f0)
            mon = _monitor(y)
        except (OverflowGuard, DegenerateMesh):
            break
        if _classify(mon, th) is None:
            lo = mid
        else:
            hi, end, end_mon = mid, y, mon
    return end, end_mon, hi, hi - lo


def run(initial: DiscreteImmersion, p: FlowParams, horizon: float,
        thresholds: Thresholds | None = None, stride: int = 16,
        snapshot_times=None, cfl: float = 0.25, dt_min: float = 1e-12,
        dt_max: float = DT_MAX, keep_snapshots: bool = True) -> FlowTrajectory:
    """Run the flow until the horizon or the first terminal event.

    Snapshots (CSV rows) are recorded every ``stride`` steps, or exactly at
    ``snapshot_times`` when given; the initial and terminal states are
    always recorded.  ``keep_snapshots=False`` drops the per-row meshes and
    keeps only the diagnostics series.  Full diagnostics are computed for
    recorded rows only; the other steps compute just the max|F|^2,
    max|h|^2 and mesh quality the stop classification reads.

    ``t_stop_error`` is zero for a horizon stop, whose time is landed on,
    and otherwise 4 * bracket + 4 * dt_min + E / |d max|F|^2 / dt| at the
    stop: the bracket is the last step, or the bisection bracket of a
    crossing inside an RKC2 step, and E the summed RKC2 error estimate of
    |F|^2.
    """
    if horizon < 0:
        raise InvalidConfig(f"horizon must be >= 0, got {horizon}")
    if stride < 1:
        raise InvalidConfig("stride must be >= 1")
    th = thresholds if thresholds is not None else Thresholds()
    if p.c_at(0.0) <= 0 or p.c_at(horizon) <= 0:
        raise InvalidConfig("c(t) must remain positive over the horizon")

    sample_times = None
    if snapshot_times is not None:
        sample_times = sorted({float(x) for x in snapshot_times})
        if any(x < 0 or x > horizon for x in sample_times):
            raise InvalidConfig("snapshot times must lie in [0, horizon]")

    rows = {k: [] for k in ("t", "dt", "min_F2", "max_F2", "max_h2",
                            "weighted_area", "mesh_quality")}
    snaps: list[DiscreteImmersion] = []
    events: list[dict] = []

    def record(t, cur, dt):
        diag = compute_diagnostics(cur, dt)
        rows["t"].append(t)
        rows["dt"].append(diag.dt_used)
        rows["min_F2"].append(diag.min_F2)
        rows["max_F2"].append(diag.max_F2)
        rows["max_h2"].append(diag.max_h2)
        rows["weighted_area"].append(diag.weighted_area)
        rows["mesh_quality"].append(diag.mesh_quality)
        if keep_snapshots:
            # a fresh immersion on the same positions, without the geometry
            # cache, so the kept snapshots hold positions only
            snaps.append(cur.replace_vertices(cur.vertices))

    cur = initial
    try:
        mon = _monitor(cur)
    except DegenerateMesh as exc:
        raise InvalidConfig(f"initial immersion is degenerate: {exc}") from exc

    t = 0.0
    ctl = StepControl()
    steps = 0
    last_dt = bracket = f2_rate = 0.0
    next_sample = 0
    if not p.in_paper_regime:
        events.append({"event": "out_of_paper_params", "t": 0.0})

    record(t, cur, 0.0)
    if sample_times is not None and next_sample < len(sample_times) \
            and sample_times[next_sample] <= 1e-15:
        next_sample += 1

    while True:
        hit = _classify(mon, th)
        if hit is not None:
            kind, detail = hit
            events.append({"event": kind.lower() + "_threshold", "t": t})
            stop = StopReason(kind, t, detail)
            break
        if t >= horizon * (1.0 - 1e-15):
            stop = StopReason(HORIZON_REACHED, t, f"reached horizon {horizon:g}")
            break

        try:
            dt_stab = stability_dt(cur, p, t, cfl=cfl, dt_min=dt_min, dt_max=dt_max)
        except TimestepUnderflow as exc:
            kind, detail = _underflow_kind(p, initial.m, mon, th)
            events.append({"event": "timestep_underflow", "t": t})
            stop = StopReason(kind, t, f"{detail} ({exc})")
            break
        except OverflowGuard:
            events.append({"event": "overflow_guard", "t": t})
            stop = StopReason(POSITION_BLOWUP, t, "conformal exponent guard fired")
            break

        sample = None
        if sample_times is not None and next_sample < len(sample_times):
            sample = sample_times[next_sample]
        try:
            nxt, t1, dt, landed, nctl = _advance(cur, t, ctl, p, dt_stab, dt_max,
                                                 horizon, sample)
        except OverflowGuard:
            events.append({"event": "overflow_guard", "t": t})
            stop = StopReason(POSITION_BLOWUP, t, "conformal exponent guard fired mid-step")
            break
        except DegenerateMesh as exc:
            stop = StopReason(MESH_DEGENERATE, t, str(exc))
            break

        nmon = _monitor(nxt)
        bracket = dt
        if nctl.rkc and _classify(nmon, th) is not None:
            end, end_mon, hi, bracket = _locate_crossing(cur, t, ctl.f0, p, dt, th)
            if end is not None:
                nxt, nmon, dt, t1, landed = end, end_mon, hi, t + hi, False
        f2_rate = abs(nmon.max_F2 - mon.max_F2) / dt
        cur, t, ctl, mon = nxt, t1, nctl, nmon
        steps += 1
        last_dt = dt

        if landed:
            next_sample += 1
            record(t, cur, dt)
        elif sample_times is None and steps % stride == 0:
            record(t, cur, dt)

    if rows["t"][-1] != t:
        record(t, cur, last_dt)
    events.append({"event": "stop", "kind": stop.kind, "t": stop.t_stop,
                   "detail": stop.detail})

    err_sum = ctl.err_sum
    t_stop_error = 0.0
    if stop.kind != HORIZON_REACHED:
        t_stop_error = 4.0 * bracket + 4.0 * dt_min
        if err_sum > 0.0 and f2_rate > 0.0:
            t_stop_error += err_sum / f2_rate
    return FlowTrajectory(
        params=p, m=initial.m, thresholds=th, horizon=horizon,
        times=np.asarray(rows["t"]), dts=np.asarray(rows["dt"]),
        min_F2=np.asarray(rows["min_F2"]), max_F2=np.asarray(rows["max_F2"]),
        max_h2=np.asarray(rows["max_h2"]),
        weighted_area=np.asarray(rows["weighted_area"]),
        mesh_quality=np.asarray(rows["mesh_quality"]),
        stop=stop, t_stop_error=t_stop_error,
        initial_h_max=initial._geometry()["max_edge"], integration_error=err_sum,
        events=events, snapshots=snaps,
    )


# ---------------------------------------------------------------------------
# trajectory verifiers


@dataclass(frozen=True)
class ResidualReport:
    """Normalized residuals of the scalar evolution identities along a run."""

    max_residual: float        # |d/dt |F|^2 - rhs| / max(1, |rhs|), worst vertex
    l2_residual: float
    area_max_residual: float   # d/dt log(vertex area) vs half the metric trace
    area_l2_residual: float
    interior_snapshots: int


def _three_point_derivative(f0, f1, f2, h0, h1):
    return (-(h1 / (h0 * (h0 + h1))) * f0
            + ((h1 - h0) / (h0 * h1)) * f1
            + (h0 / (h1 * (h0 + h1))) * f2)


def verify_scalar_evolution(traj: FlowTrajectory, p: FlowParams) -> ResidualReport:
    """Check d/dt |F|^2 = exp(a|F|^2/m) (c lap|F|^2 + 2(b|F|^2 - m c))
    vertexwise along a recorded trajectory, by central time differences
    against the discrete spatial operators.

    Restricted to FLOW0/FLOWP: under FLOW the tangential part of the
    velocity makes the vertexwise time derivative differ from the
    geometric identity off spherical data.
    """
    if p.variant == FLOW:
        raise InvalidConfig("verify_scalar_evolution accepts FLOW0 or FLOWP runs")
    if len(traj.snapshots) < 3:
        raise InsufficientSnapshots(
            f"need >= 3 snapshots with meshes, have {len(traj.snapshots)}"
        )
    worst = 0.0
    sq_sum = 0.0
    count = 0
    area_worst = 0.0
    area_sq_sum = 0.0
    times = traj.times
    for i in range(1, len(traj.snapshots) - 1):
        s_prev, s_mid, s_next = traj.snapshots[i - 1: i + 2]
        h0 = times[i] - times[i - 1]
        h1 = times[i + 1] - times[i]
        if h0 <= 0 or h1 <= 0:
            raise InsufficientSnapshots("snapshot times must be strictly increasing")
        m = s_mid.m
        f_prev, f_mid, f_next = (s._geometry()["F2"] for s in (s_prev, s_mid, s_next))
        dfdt = _three_point_derivative(f_prev, f_mid, f_next, h0, h1)
        c_mid = p.c_at(times[i])
        w = np.exp((p.a / m) * f_mid)
        rhs = w * (c_mid * meshops.laplace_beltrami(s_mid, f_mid)
                   + 2.0 * (p.b * f_mid - m * c_mid))
        res = np.abs(dfdt - rhs) / np.maximum(1.0, np.abs(rhs))
        worst = max(worst, float(res.max()))
        sq_sum += float((res * res).sum())
        count += res.size

        a_prev, a_mid, a_next = (np.log(meshops.vertex_areas(s))
                                 for s in (s_prev, s_mid, s_next))
        dloga = _three_point_derivative(a_prev, a_mid, a_next, h0, h1)
        H = meshops.mean_curvature_vector(s_mid)
        grad2 = meshops.gradient_norm_sq(s_mid, f_mid)
        trace = w * ((p.a * p.b / m) * grad2
                     - 2.0 * c_mid * (H * H).sum(axis=1) + 2.0 * p.b * m)
        ares = np.abs(dloga - 0.5 * trace) / np.maximum(1.0, np.abs(0.5 * trace))
        area_worst = max(area_worst, float(ares.max()))
        area_sq_sum += float((ares * ares).sum())

    return ResidualReport(
        max_residual=worst,
        l2_residual=math.sqrt(sq_sum / count),
        area_max_residual=area_worst,
        area_l2_residual=math.sqrt(area_sq_sum / count),
        interior_snapshots=len(traj.snapshots) - 2,
    )


@dataclass(frozen=True)
class EquivalenceReport:
    times: np.ndarray
    hausdorff: np.ndarray      # symmetric, normalized by the cloud diameter

    @property
    def max_distance(self) -> float:
        return float(self.hausdorff.max())


def _hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    return math.sqrt(max(d2.min(axis=1).max(), d2.min(axis=0).max()))


def tangential_equivalence(traj_a: FlowTrajectory, traj_b: FlowTrajectory) -> EquivalenceReport:
    """Image distance between a FLOW run and a FLOW0 run from the same data.

    A tangential velocity does not change the flowing image, so the vertex
    clouds should agree up to discretization; reported as the symmetric
    Hausdorff distance normalized by the diameter, per matched snapshot.
    """
    if traj_a.params.variant != FLOW or traj_b.params.variant != FLOW0:
        raise InvalidConfig("pass the tangentially augmented run first, "
                            "the normal-velocity run second")
    if not traj_a.snapshots or not traj_b.snapshots:
        raise InsufficientSnapshots("both trajectories need mesh snapshots")
    n = min(len(traj_a.snapshots), len(traj_b.snapshots))
    ta, tb = traj_a.times[:n], traj_b.times[:n]
    if not np.allclose(ta, tb, rtol=0.0, atol=1e-12):
        raise MismatchedTimes("snapshot times differ; rerun with shared snapshot_times")
    va0 = traj_a.snapshots[0].vertices
    vb0 = traj_b.snapshots[0].vertices
    if va0.shape != vb0.shape or not np.array_equal(va0, vb0):
        raise MismatchedTimes("trajectories must share the initial immersion")
    out = np.empty(n)
    for i in range(n):
        pa = traj_a.snapshots[i].vertices
        pb = traj_b.snapshots[i].vertices
        span = pa.max(axis=0) - pa.min(axis=0)
        diameter = float(np.linalg.norm(span))
        out[i] = _hausdorff(pa, pb) / max(diameter, 1e-300)
    return EquivalenceReport(times=ta.copy(), hausdorff=out)
