"""Post-hoc verifiers of recorded trajectories.

Barrier and comparison claims replay against a run's diagnostics series
and return a BarrierReport rather than raising, so one expensive run can
be audited against many claims; strict continuum inequalities hold up to
the slack tol = 10 * (h0^2 + E) each report carries, E the run's summed
time-integration error estimate of |F|^2.  ``verify_scalar_evolution``
and ``tangential_equivalence`` read the mesh snapshots.  Every check
judges the flow law that ran, ``traj.params``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mesh as meshops
from . import radial
from .engine import FLOW, FLOW0, FLOWP, FlowParams, FlowTrajectory
from .errors import (HypothesisViolated, InsufficientSnapshots, InvalidConfig,
                     MismatchedTimes)

SIGN_PRESERVATION_BELOW = "SIGN_PRESERVATION_BELOW"
SIGN_PRESERVATION_ABOVE = "SIGN_PRESERVATION_ABOVE"
SPHERE_BARRIER_BELOW = "SPHERE_BARRIER_BELOW"
SPHERE_BARRIER_ABOVE = "SPHERE_BARRIER_ABOVE"
SPHERICITY = "SPHERICITY"

SPHERICITY_TOL = 1e-4
SPHERICITY_INITIAL_SPREAD = 1e-8


@dataclass(frozen=True)
class BarrierReport:
    claim: str
    holds: bool
    worst_margin: float
    worst_time: float
    tolerance: float
    detail: str = ""


def _report(claim: str, margins: np.ndarray, times: np.ndarray, tol: float,
            detail: str = "") -> BarrierReport:
    idx = int(np.argmin(margins))
    worst = float(margins[idx])
    return BarrierReport(claim=claim, holds=worst >= -tol, worst_margin=worst,
                         worst_time=float(times[idx]), tolerance=tol, detail=detail)


def _check_sign(traj: FlowTrajectory, p: FlowParams, eps: float,
                below: bool) -> BarrierReport:
    if p != traj.params:
        raise HypothesisViolated(f"claim stated for {p}, but the run used {traj.params}")
    # FLOW pins b = c = 1 and c_slope = 0, so the balance sphere (c(t)/b) m is exact for it too
    if p.variant not in (FLOW, FLOWP):
        raise HypothesisViolated("sign-preservation checks need FLOW or FLOWP runs")
    if (p.c_slope < 0) if below else (p.c_slope > 0):
        raise HypothesisViolated("below-claim needs nondecreasing c/b" if below
                                 else "above-claim needs nonincreasing c/b")
    if p.b == 0.0:
        raise HypothesisViolated("sign-preservation claims need b > 0")
    balance0 = p.balance_sq(0.0, traj.m)
    edge = traj.max_F2 if below else traj.min_F2
    gap = balance0 - edge[0] if below else edge[0] - balance0
    if not gap > 0:
        raise HypothesisViolated(
            f"initial data not {'inside: max' if below else 'outside: min'}|F0|^2 = "
            f"{edge[0]:.6g} vs (c/b)m = {balance0:.6g}"
        )
    if not 0.0 < eps < gap:
        raise HypothesisViolated(f"eps = {eps:.6g} outside the admissible interval (0, {gap:.6g})")
    balance = p.balance_sq(traj.times, traj.m)
    margins = balance - eps - edge if below else edge - balance - eps
    return _report(SIGN_PRESERVATION_BELOW if below else SIGN_PRESERVATION_ABOVE, margins,
                   traj.times, traj.discretization_tolerance(), f"eps={eps:g}")


def check_sign_below(traj: FlowTrajectory, p: FlowParams, eps: float) -> BarrierReport:
    """Once strictly inside the balance sphere, stay at least eps inside.

    Valid for runs of FLOW/FLOWP with nondecreasing c/b and
    max|F0|^2 < (c/b)(0) * m; admissible eps lie strictly between 0 and
    the initial gap.  ``p`` must be the run's own ``traj.params``.
    """
    return _check_sign(traj, p, eps, below=True)


def check_sign_above(traj: FlowTrajectory, p: FlowParams, eps: float) -> BarrierReport:
    """Mirror claim: once strictly outside the balance sphere, stay outside."""
    return _check_sign(traj, p, eps, below=False)


def admissible_barrier_interval(traj: FlowTrajectory) -> tuple[float, float, str]:
    """Open interval the comparison-sphere radius must be drawn from, with
    the case tag ('below' = trajectory inside, 'above' = outside)."""
    balance = traj.params.balance_sq(0.0, traj.m)
    max0, min0 = traj.max_F2[0], traj.min_F2[0]
    if max0 < balance:
        return max0, 0.5 * (balance + max0), "below"
    if min0 > balance:
        return 0.5 * (balance + min0), min0, "above"
    raise HypothesisViolated(f"initial data straddles |F|^2 = (c/b)m = {balance:.6g}; "
                             "no sphere barrier applies")


def check_sphere_barrier(traj: FlowTrajectory, Rp0_sq: float, eps: float) -> BarrierReport:
    """An origin-centered sphere started in the mandated radius window
    stays strictly between the flowing submanifold and the critical
    sphere, with margin at least eps.

    The comparison trajectory is the radius ODE of the run's law and m,
    sampled exactly at the snapshot times of the recorded run; the claim is
    checked over the overlap of the two time domains.
    """
    if traj.params.variant != FLOW:
        raise HypothesisViolated("sphere barrier is stated for the FLOW variant")
    lo, hi, case = admissible_barrier_interval(traj)
    if not lo < Rp0_sq < hi:
        raise HypothesisViolated(
            f"comparison radius^2 {Rp0_sq:.6g} outside the mandated interval ({lo:.6g}, {hi:.6g})"
        )
    edge = traj.max_F2[0] if case == "below" else traj.min_F2[0]
    eps_cap = abs(Rp0_sq - edge)
    if not 0.0 < eps < eps_cap:
        raise HypothesisViolated(f"eps = {eps:.6g} outside (0, {eps_cap:.6g})")

    rp = radial.sphere_params(traj.params, traj.m, Rp0_sq)
    sphere = radial.integrate_radial(rp, float(traj.times[-1]), t_eval=traj.times)
    n = len(sphere.eval_R_sq)
    if n == 0:
        raise MismatchedTimes("no overlap between run and comparison sphere")
    rp_sq = sphere.eval_R_sq
    times = traj.times[:n]
    if case == "below":
        margins = (rp_sq - eps) - traj.max_F2[:n]
        claim = SPHERE_BARRIER_BELOW
    else:
        margins = traj.min_F2[:n] - (rp_sq + eps)
        claim = SPHERE_BARRIER_ABOVE
    return _report(claim, margins, times, traj.discretization_tolerance(),
                   f"Rp0_sq={Rp0_sq:g} eps={eps:g} overlap={n}")


def check_sphericity(traj: FlowTrajectory) -> BarrierReport:
    """Spherical initial data stays spherical: the vertexwise relative
    spread of |F|^2 remains below the drift-scaled tolerance
    tol * (1 + elapsed time) at every snapshot."""
    spread = (traj.max_F2 - traj.min_F2) / np.maximum(1.0, traj.max_F2)
    if spread[0] > SPHERICITY_INITIAL_SPREAD:
        raise HypothesisViolated(
            f"initial spread {spread[0]:.3e} exceeds {SPHERICITY_INITIAL_SPREAD:g}; data not spherical"
        )
    allowed = SPHERICITY_TOL * (1.0 + traj.times)
    margins = allowed - spread
    return _report(SPHERICITY, margins, traj.times, 0.0,
                   f"tol={SPHERICITY_TOL:g} scaled by (1 + t)")


# ---------------------------------------------------------------------------
# checks on the mesh snapshots


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


def verify_scalar_evolution(traj: FlowTrajectory) -> ResidualReport:
    """Check the scalar evolution identities of the law that ran
    (``traj.params``), vertexwise along a recorded trajectory, by central
    time differences against the discrete spatial operators.

    Under the full-position laws FLOW and FLOWP a vertex moves with
    w (c H + b F), w = exp(a|F|^2/m), so
    d/dt |F|^2 = w (c lap|F|^2 + 2(b|F|^2 - m c)) and the log vertex area
    changes at w ((ab/2m) |grad|F|^2|^2 - c|H|^2 + b m).  FLOW0 drops the
    tangential part F_tan of F, and |F_tan|^2 = |grad|F|^2|^2 / 4, so
    d/dt |F|^2 loses w |grad|F|^2|^2 / 2 and the area changes by the normal
    velocity alone, at w (m - |H|^2 - lap|F|^2 / 2).
    """
    if len(traj.snapshots) < 3:
        raise InsufficientSnapshots(
            f"need >= 3 snapshots with meshes, have {len(traj.snapshots)}"
        )
    p = traj.params
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
        lap = meshops.laplace_beltrami(s_mid, f_mid)
        grad2 = meshops.gradient_norm_sq(s_mid, f_mid)
        H2 = (meshops.mean_curvature_vector(s_mid) ** 2).sum(axis=1)
        rhs = w * (c_mid * lap + 2.0 * (p.b * f_mid - m * c_mid))
        if p.variant == FLOW0:
            rhs -= 0.5 * w * grad2
            area_rate = w * (m - H2 - 0.5 * lap)
        else:
            area_rate = 0.5 * (w * ((p.a * p.b / m) * grad2
                                    - 2.0 * c_mid * H2 + 2.0 * p.b * m))
        res = np.abs(dfdt - rhs) / np.maximum(1.0, np.abs(rhs))
        worst = max(worst, float(res.max()))
        sq_sum += float((res * res).sum())
        count += res.size

        a_prev, a_mid, a_next = (np.log(meshops.vertex_areas(s))
                                 for s in (s_prev, s_mid, s_next))
        dloga = _three_point_derivative(a_prev, a_mid, a_next, h0, h1)
        ares = np.abs(dloga - area_rate) / np.maximum(1.0, np.abs(area_rate))
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
    normal_distance: np.ndarray    # largest normal offset of matched vertices, over the diameter

    @property
    def max_distance(self) -> float:
        return float(self.normal_distance.max())


def tangential_equivalence(traj_a: FlowTrajectory, traj_b: FlowTrajectory) -> EquivalenceReport:
    """Image distance between a FLOW run and a FLOW0 run from the same data.

    The laws differ by a tangential velocity, which moves vertices along
    the image but not the image, so the runs should agree as images up to
    discretization.  Both start from the same immersion, so vertices match
    by index.  Per shared snapshot (A, B) the report holds
    max_i max(|P_B(a_i - b_i)|, |P_A(b_i - a_i)|) / diam A, with P the
    normal projection FLOW0's velocity uses: the distance from each vertex
    to its counterpart's tangent plane (line, on curves).  That is the
    image distance to first order in the tangential offset a_i - b_i.
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
    a0, b0 = traj_a.snapshots[0], traj_b.snapshots[0]
    if not np.array_equal(a0.vertices, b0.vertices):
        raise MismatchedTimes("trajectories must share the initial immersion")
    if not np.array_equal(a0.faces, b0.faces):
        raise MismatchedTimes("matching vertices by index needs the same face list")
    out = np.empty(n)
    for i, (sa, sb) in enumerate(zip(traj_a.snapshots[:n], traj_b.snapshots[:n])):
        d = sa.vertices - sb.vertices
        off2 = max(float((meshops.normal_projection(s, d) ** 2).sum(axis=1).max())
                   for s in (sa, sb))
        span = sa.vertices.max(axis=0) - sa.vertices.min(axis=0)
        out[i] = math.sqrt(off2) / max(float(np.linalg.norm(span)), 1e-300)
    return EquivalenceReport(times=ta.copy(), normal_distance=out)
