import dataclasses

import numpy as np
import pytest

from gaussflow import comparison, engine, shapes
from gaussflow.comparison import (SIGN_PRESERVATION_ABOVE, SIGN_PRESERVATION_BELOW,
                                  SPHERE_BARRIER_ABOVE, SPHERE_BARRIER_BELOW,
                                  SPHERICITY, admissible_barrier_interval,
                                  check_sign_above, check_sign_below,
                                  check_sphere_barrier, check_sphericity)
from gaussflow.engine import FLOW, FLOW0, FLOWP, FlowParams, Thresholds
from gaussflow.errors import HypothesisViolated, MismatchedTimes

P_FLOW = FlowParams(variant=FLOW)


@pytest.fixture(scope="module")
def circle_shrink():
    return engine.run(shapes.circle(0.8, 128), P_FLOW, horizon=0.3, stride=16,
                      keep_snapshots=False)


@pytest.fixture(scope="module")
def ellipse_shrink():
    return engine.run(shapes.ellipse(0.9, 0.6, 128), P_FLOW, horizon=0.25,
                      stride=16, keep_snapshots=False)


@pytest.fixture(scope="module")
def icosphere_expand():
    return engine.run(shapes.icosphere(2.0, 2), P_FLOW, horizon=0.08,
                      thresholds=Thresholds(F2_max=20.0), stride=2,
                      keep_snapshots=False)


def test_sign_below_holds_on_circle(circle_shrink):
    report = check_sign_below(circle_shrink, P_FLOW, eps=0.1)
    assert report.claim == SIGN_PRESERVATION_BELOW
    assert report.holds and report.worst_margin > 0.0
    assert report.tolerance == circle_shrink.discretization_tolerance()


def test_sign_below_eps_gates(circle_shrink):
    with pytest.raises(HypothesisViolated):
        check_sign_below(circle_shrink, P_FLOW, eps=0.36)  # = the initial gap
    with pytest.raises(HypothesisViolated):
        check_sign_below(circle_shrink, P_FLOW, eps=0.0)


def test_sign_below_rejects_outside_data(icosphere_expand):
    with pytest.raises(HypothesisViolated):
        check_sign_below(icosphere_expand, P_FLOW, eps=0.1)


def test_stationary_sphere_is_excluded():
    traj = engine.run(shapes.circle(1.0, 64), P_FLOW, horizon=0.01, stride=4,
                      keep_snapshots=False)
    with pytest.raises(HypothesisViolated):
        check_sign_below(traj, P_FLOW, eps=0.01)


def test_sign_above_holds_on_icosphere(icosphere_expand):
    report = check_sign_above(icosphere_expand, P_FLOW, eps=1.0)
    assert report.claim == SIGN_PRESERVATION_ABOVE
    assert report.holds and report.worst_margin > 0.0


def test_sign_above_gates(icosphere_expand, circle_shrink):
    with pytest.raises(HypothesisViolated):
        check_sign_above(icosphere_expand, P_FLOW, eps=2.0)  # = the initial gap
    with pytest.raises(HypothesisViolated):
        check_sign_above(circle_shrink, P_FLOW, eps=0.1)


def test_sign_checks_refuse_another_law():
    # a FLOWP run with c = 2 balances at |F|^2 = 2m; judged with FLOW's
    # constants it would be measured against the sphere |F|^2 = m
    p = FlowParams(variant=FLOWP, c=2.0)
    traj = engine.run(shapes.circle(1.2, 64), p, horizon=0.01, stride=4,
                      keep_snapshots=False)
    for check in (check_sign_below, check_sign_above):
        with pytest.raises(HypothesisViolated, match="but the run used"):
            check(traj, P_FLOW, eps=0.1)
    assert check_sign_below(traj, p, eps=0.1).holds


@pytest.mark.parametrize("p, match", [
    (FlowParams(variant=FLOW0), "FLOW or FLOWP"),
    (FlowParams(variant=FLOWP, c_slope=-0.5), "nondecreasing c/b"),
    (FlowParams(variant=FLOWP, b=0.0), "b > 0"),
], ids=["FLOW0", "decreasing_c", "b0"])
def test_sign_below_refuses_laws_outside_its_hypotheses(p, match):
    traj = engine.run(shapes.circle(0.8, 32), p, horizon=0.005, stride=4,
                      keep_snapshots=False)
    with pytest.raises(HypothesisViolated, match=match):
        check_sign_below(traj, p, eps=0.1)


def test_margin_nesting_in_eps(circle_shrink):
    r_small = check_sign_below(circle_shrink, P_FLOW, eps=0.05)
    r_big = check_sign_below(circle_shrink, P_FLOW, eps=0.2)
    assert r_small.worst_margin > r_big.worst_margin
    if r_big.holds:
        assert r_small.holds


def test_sphere_barrier_below_on_ellipse(ellipse_shrink):
    lo, hi, case = admissible_barrier_interval(ellipse_shrink)
    assert case == "below"
    assert (lo, hi) == pytest.approx((0.81, 0.905), rel=1e-9)
    report = check_sphere_barrier(ellipse_shrink, Rp0_sq=0.85, eps=0.02)
    assert report.claim == SPHERE_BARRIER_BELOW
    assert report.holds


def test_sphere_barrier_above_on_icosphere(icosphere_expand):
    lo, hi, case = admissible_barrier_interval(icosphere_expand)
    assert case == "above"
    assert (lo, hi) == pytest.approx((3.0, 4.0), rel=1e-9)
    report = check_sphere_barrier(icosphere_expand, Rp0_sq=3.5, eps=0.3)
    assert report.claim == SPHERE_BARRIER_ABOVE
    assert report.holds


def test_sphere_barrier_interval_gates(ellipse_shrink):
    with pytest.raises(HypothesisViolated):
        check_sphere_barrier(ellipse_shrink, Rp0_sq=0.7, eps=0.01)
    with pytest.raises(HypothesisViolated):
        check_sphere_barrier(ellipse_shrink, Rp0_sq=0.95, eps=0.01)
    with pytest.raises(HypothesisViolated):
        check_sphere_barrier(ellipse_shrink, Rp0_sq=0.85, eps=0.2)


def test_barrier_interval_refuses_straddling_data():
    # max|F0|^2 = 1.44 and min|F0|^2 = 0.64 lie on both sides of |F|^2 = m = 1
    traj = engine.run(shapes.ellipse(1.2, 0.8, 64), P_FLOW, horizon=0.002, stride=4,
                      keep_snapshots=False)
    with pytest.raises(HypothesisViolated, match="straddles"):
        admissible_barrier_interval(traj)


def _interval_at_m(traj):
    # the interval as it was written for FLOW alone, with |F|^2 = m hard-coded
    m = traj.m
    max0, min0 = traj.max_F2[0], traj.min_F2[0]
    if max0 < m:
        return max0, 0.5 * (m + max0), "below"
    return 0.5 * (m + min0), min0, "above"


@pytest.mark.parametrize("fixture", ["circle_shrink", "ellipse_shrink", "icosphere_expand"])
def test_barrier_interval_reads_the_balance_sphere_of_flow_as_m(fixture, request):
    traj = request.getfixturevalue(fixture)
    assert admissible_barrier_interval(traj) == _interval_at_m(traj)


def test_sphere_barrier_needs_an_overlap_in_time():
    # a hand-built run whose only row comes after the comparison sphere of
    # radius^2 0.7 has collapsed: no time is shared
    traj = engine.run(shapes.circle(0.8, 32), P_FLOW, horizon=0.0, keep_snapshots=False)
    late = dataclasses.replace(traj, times=np.array([5.0]))
    with pytest.raises(MismatchedTimes, match="no overlap"):
        check_sphere_barrier(late, Rp0_sq=0.7, eps=0.01)


def test_sphere_barrier_requires_flow_variant():
    traj = engine.run(shapes.circle(0.8, 64), FlowParams(variant="FLOW0"),
                      horizon=0.01, stride=4, keep_snapshots=False)
    with pytest.raises(HypothesisViolated):
        check_sphere_barrier(traj, Rp0_sq=0.7, eps=0.01)


def test_sphericity_on_circle(circle_shrink):
    report = check_sphericity(circle_shrink)
    assert report.claim == SPHERICITY
    assert report.holds
    spread = (circle_shrink.max_F2 - circle_shrink.min_F2).max()
    assert spread < 1e-6


def test_sphericity_rejects_ellipse(ellipse_shrink):
    with pytest.raises(HypothesisViolated):
        check_sphericity(ellipse_shrink)


def test_reports_are_reproducible(circle_shrink):
    a = check_sign_below(circle_shrink, P_FLOW, eps=0.1)
    b = check_sign_below(circle_shrink, P_FLOW, eps=0.1)
    assert a == b


def test_sphericity_and_barrier_consistent_on_spheres(circle_shrink):
    # spherical initial data admits both claims simultaneously
    spherical = check_sphericity(circle_shrink)
    lo, hi, _ = admissible_barrier_interval(circle_shrink)
    mid = 0.5 * (lo + hi)
    barrier = check_sphere_barrier(circle_shrink, Rp0_sq=mid, eps=0.5 * (mid - lo))
    assert spherical.holds and barrier.holds
