"""Time-stepping of the Gaussian-weighted curvature flows.

Three velocity laws are supported, all of the form
exp(conformal exponent) * (curvature term + position term):

* ``FLOW0``: exp(|F|^2/m) * (H + F_perp), the normal-velocity law;
* ``FLOW``:  exp(|F|^2/m) * (H + F), its tangentially augmented twin;
* ``FLOWP``: exp(a|F|^2/m) * (c(t) H + b F) with constants a, b and
  affine c(t), the generalized law the closed-form sphere results apply to.

Positions advance by classical four-stage Runge-Kutta with an explicit
stability step dt = cfl * h_min^2 / (c(t) * exp(a * max|F|^2 / m)), so the
state-dependent diffusivity of the exponential factor is priced into the
step.  There is one stepping path for curves and surfaces alike: every
stage is an immersion evaluated through the mesh operators, and ``run``
calls the same ``stability_dt``, ``_rk4_advance`` and
``compute_diagnostics`` that ``step`` does.  Runs terminate with a
classified stop reason: curvature blow-up, position blow-up, collapse to
the origin, mesh degeneration, or horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    m_override: int | None = None

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
        if self.m_override is not None and self.m_override < 1:
            raise InvalidConfig("m_override must be >= 1")

    def c_at(self, t: float) -> float:
        return self.c + self.c_slope * t

    def m_eff(self, s: DiscreteImmersion) -> int:
        return self.m_override if self.m_override is not None else s.m

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


@dataclass(frozen=True)
class FlowState:
    t: float
    immersion: DiscreteImmersion
    diagnostics: Diagnostics


@dataclass(frozen=True)
class StopReason:
    kind: str
    t_stop: float
    detail: str = ""


@dataclass
class FlowTrajectory:
    """Snapshot record of one run: diagnostics series plus mesh snapshots."""

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
    events: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)    # DiscreteImmersion per row

    @property
    def n_snapshots(self) -> int:
        return len(self.times)

    def dt_mean(self) -> float:
        live = self.dts[self.dts > 0]
        return float(live.mean()) if live.size else 0.0

    def discretization_tolerance(self) -> float:
        """Slack added to strict continuum inequalities: 10 * (h0^2 + mean dt)."""
        return 10.0 * (self.initial_h_max ** 2 + self.dt_mean())


# ---------------------------------------------------------------------------
# velocity and stepping


def _conformal_exponent(geom: dict, p: FlowParams, m_eff: int) -> tuple[float, float]:
    """Rate a/m of the conformal factor exp(a|F|^2/m) and its peak exponent
    a max|F|^2 / m, from an immersion's geometry; raises OverflowGuard once
    the peak reaches EXP_GUARD.  FLOW0 and FLOW pin a = 1."""
    peak = p.a * geom["F2_max"] / m_eff
    if peak >= EXP_GUARD:
        raise OverflowGuard(peak)
    return p.a / m_eff, peak


def velocity(s: DiscreteImmersion, p: FlowParams, t: float = 0.0) -> np.ndarray:
    """Per-vertex velocity of the configured flow variant."""
    geom = s._geometry()
    rate, _ = _conformal_exponent(geom, p, p.m_eff(s))
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
                 dt_max: float = 1e-2) -> float:
    """Stable explicit step: cfl * h_min^2 / (c(t) * exp(a max|F|^2 / m)).

    Raises TimestepUnderflow when the unclamped step falls below dt_min;
    the caller then terminates with the currently indicated blow-up kind.
    """
    geom = s._geometry()
    _, peak = _conformal_exponent(geom, p, p.m_eff(s))
    h_min = geom["min_edge"]
    dt = cfl * h_min * h_min / (p.c_at(t) * math.exp(peak))
    if dt < dt_min:
        raise TimestepUnderflow(dt, dt_min)
    return min(dt, dt_max)


def _rk4_advance(s: DiscreteImmersion, p: FlowParams, t: float, dt: float) -> DiscreteImmersion:
    v0 = s.vertices
    k1 = velocity(s, p, t)
    k2 = velocity(s.replace_vertices(v0 + (0.5 * dt) * k1), p, t + 0.5 * dt)
    k3 = velocity(s.replace_vertices(v0 + (0.5 * dt) * k2), p, t + 0.5 * dt)
    k4 = velocity(s.replace_vertices(v0 + dt * k3), p, t + dt)
    return s.replace_vertices(v0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))


def compute_diagnostics(s: DiscreteImmersion, dt_used: float = 0.0) -> Diagnostics:
    geom = s._geometry()
    return Diagnostics(
        min_F2=float(geom["F2"].min()),
        max_F2=geom["F2_max"],
        max_h2=float(meshops.second_fundamental_norm(s).max()),
        weighted_area=meshops.weighted_area(s),
        mesh_quality=geom["quality"],
        dt_used=dt_used,
    )


def step(state: FlowState, p: FlowParams, dt: float | None = None,
         cfl: float = 0.25) -> FlowState:
    """One RK4 update of a FlowState; dt defaults to the stability step."""
    if dt is None:
        dt = stability_dt(state.immersion, p, state.t, cfl=cfl)
    nxt = _rk4_advance(state.immersion, p, state.t, dt)
    return FlowState(state.t + dt, nxt, compute_diagnostics(nxt, dt))


def initial_state(s: DiscreteImmersion) -> FlowState:
    return FlowState(0.0, s, compute_diagnostics(s))


# ---------------------------------------------------------------------------
# full runs


def _classify(diag: Diagnostics, th: Thresholds) -> tuple[str, str] | None:
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


def _underflow_kind(p: FlowParams, m_eff: int, diag: Diagnostics,
                    th: Thresholds) -> tuple[str, str]:
    if p.a * diag.max_F2 / m_eff >= 20.0:
        return POSITION_BLOWUP, "dt underflow driven by the conformal exponent"
    if diag.max_F2 <= 10.0 * th.F2_min:
        return POSITION_COLLAPSE, "dt underflow with the mesh at the origin"
    return CURVATURE_BLOWUP, "dt underflow driven by edge collapse"


def run(initial: DiscreteImmersion, p: FlowParams, horizon: float,
        thresholds: Thresholds | None = None, stride: int = 16,
        snapshot_times=None, cfl: float = 0.25, dt_min: float = 1e-12,
        dt_max: float = 1e-2, keep_snapshots: bool = True) -> FlowTrajectory:
    """Run the flow until the horizon or the first terminal event.

    Snapshots (CSV rows) are recorded every ``stride`` steps, or exactly at
    ``snapshot_times`` when given; the initial and terminal states are
    always recorded.  ``keep_snapshots=False`` drops the per-row meshes and
    keeps only the diagnostics series.
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

    def record(t, cur, diag):
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
    m_eff = p.m_eff(initial)
    try:
        diag = compute_diagnostics(cur)
    except DegenerateMesh as exc:
        raise InvalidConfig(f"initial immersion is degenerate: {exc}") from exc

    t = 0.0
    steps = 0
    last_dt = 0.0
    next_sample = 0
    stop: StopReason | None = None
    if not p.in_paper_regime:
        events.append({"event": "out_of_paper_params", "t": 0.0})

    record(t, cur, diag)
    if sample_times is not None and next_sample < len(sample_times) \
            and sample_times[next_sample] <= 1e-15:
        next_sample += 1

    while True:
        hit = _classify(diag, th)
        if hit is not None:
            kind, detail = hit
            events.append({"event": kind.lower() + "_threshold", "t": t})
            stop = StopReason(kind, t, detail)
            break
        if t >= horizon * (1.0 - 1e-15):
            stop = StopReason(HORIZON_REACHED, t, f"reached horizon {horizon:g}")
            break

        try:
            dt = stability_dt(cur, p, t, cfl=cfl, dt_min=dt_min, dt_max=dt_max)
        except TimestepUnderflow as exc:
            kind, detail = _underflow_kind(p, m_eff, diag, th)
            events.append({"event": "timestep_underflow", "t": t})
            stop = StopReason(kind, t, f"{detail} ({exc})")
            break
        except OverflowGuard:
            events.append({"event": "overflow_guard", "t": t})
            stop = StopReason(POSITION_BLOWUP, t, "conformal exponent guard fired")
            break

        dt = min(dt, horizon - t)
        landed_sample = False
        if sample_times is not None and next_sample < len(sample_times):
            gap = sample_times[next_sample] - t
            if gap <= dt * (1.0 + 1e-12):
                dt = gap
                landed_sample = True

        try:
            cur = _rk4_advance(cur, p, t, dt)
            t += dt
            steps += 1
            last_dt = dt
            diag = compute_diagnostics(cur, dt)
        except OverflowGuard:
            events.append({"event": "overflow_guard", "t": t})
            stop = StopReason(POSITION_BLOWUP, t, "conformal exponent guard fired mid-step")
            break
        except DegenerateMesh as exc:
            stop = StopReason(MESH_DEGENERATE, t, str(exc))
            break

        if landed_sample:
            t = sample_times[next_sample]      # cancel roundoff drift at landings
            next_sample += 1
            record(t, cur, diag)
        elif sample_times is None and steps % stride == 0:
            record(t, cur, diag)

    if stop is None:                            # loop broke via exception paths only
        stop = StopReason(HORIZON_REACHED, t, "")
    if not rows["t"] or rows["t"][-1] != t:
        record(t, cur, diag)
    events.append({"event": "stop", "kind": stop.kind, "t": stop.t_stop,
                   "detail": stop.detail})

    return FlowTrajectory(
        params=p, m=initial.m, thresholds=th, horizon=horizon,
        times=np.asarray(rows["t"]), dts=np.asarray(rows["dt"]),
        min_F2=np.asarray(rows["min_F2"]), max_F2=np.asarray(rows["max_F2"]),
        max_h2=np.asarray(rows["max_h2"]),
        weighted_area=np.asarray(rows["weighted_area"]),
        mesh_quality=np.asarray(rows["mesh_quality"]),
        stop=stop, t_stop_error=4.0 * last_dt + 4.0 * dt_min,
        initial_h_max=initial._geometry()["max_edge"], events=events, snapshots=snaps,
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
        m_eff = p.m_eff(s_mid)
        f_prev, f_mid, f_next = (s._geometry()["F2"] for s in (s_prev, s_mid, s_next))
        dfdt = _three_point_derivative(f_prev, f_mid, f_next, h0, h1)
        c_mid = p.c_at(times[i])
        w = np.exp((p.a / m_eff) * f_mid)
        rhs = w * (c_mid * meshops.laplace_beltrami(s_mid, f_mid)
                   + 2.0 * (p.b * f_mid - m_eff * c_mid))
        res = np.abs(dfdt - rhs) / np.maximum(1.0, np.abs(rhs))
        worst = max(worst, float(res.max()))
        sq_sum += float((res * res).sum())
        count += res.size

        a_prev, a_mid, a_next = (np.log(meshops.vertex_areas(s))
                                 for s in (s_prev, s_mid, s_next))
        dloga = _three_point_derivative(a_prev, a_mid, a_next, h0, h1)
        H = meshops.mean_curvature_vector(s_mid)
        grad2 = meshops.gradient_norm_sq(s_mid, f_mid)
        trace = w * ((p.a * p.b / m_eff) * grad2
                     - 2.0 * c_mid * (H * H).sum(axis=1) + 2.0 * p.b * m_eff)
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
