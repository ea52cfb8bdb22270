"""Post-hoc verifiers of recorded trajectories.

Barrier and comparison claims replay against a run's diagnostics series
and return a BarrierReport rather than raising, so one expensive run can
be audited against many claims; strict continuum inequalities hold up to
the slack tol = 10 * (h0^2 + E) each report carries, E the run's summed
time-integration error estimate of |F|^2.  The checks read the
diagnostics series only, never the mesh snapshots.  Every check judges
the flow law that ran, ``traj.params``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import radial
from .engine import FLOW, FLOWP, FlowParams, FlowTrajectory
from .errors import HypothesisViolated, MismatchedTimes

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

