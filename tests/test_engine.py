import math

import numpy as np
import pytest

from gaussflow import engine, mesh, radial, shapes
from gaussflow.engine import (CURVATURE_BLOWUP, FLOW, FLOW0, FLOWP,
                              HORIZON_REACHED, MESH_DEGENERATE,
                              POSITION_BLOWUP, POSITION_COLLAPSE, FlowParams,
                              Thresholds)
from gaussflow.errors import (InsufficientSnapshots, InvalidConfig,
                              MismatchedTimes, TimestepUnderflow)
from gaussflow.radial import RadialParams

P_FLOW = FlowParams(variant=FLOW)
P_FLOW0 = FlowParams(variant=FLOW0)


# ---------------------------------------------------------------------------
# params validation


def test_fixed_specializations_reject_other_constants():
    with pytest.raises(InvalidConfig):
        FlowParams(variant=FLOW, a=2.0)
    with pytest.raises(InvalidConfig):
        FlowParams(variant=FLOW0, c=0.5)
    with pytest.raises(InvalidConfig):
        FlowParams(variant=FLOWP, c=0.0)
    with pytest.raises(InvalidConfig):
        FlowParams(variant="WAVE")


def test_pure_mcf_mode_is_flagged_as_extension():
    assert not FlowParams(variant=FLOWP, a=0.0, b=0.0).in_paper_regime
    assert FlowParams(variant=FLOWP, a=2.0, b=0.5).in_paper_regime
    assert P_FLOW.in_paper_regime


# ---------------------------------------------------------------------------
# velocity


def test_velocity_vanishes_on_critical_circle():
    c = shapes.circle(1.0, 256)
    assert np.abs(engine.velocity(c, P_FLOW)).max() < 1e-10


def test_velocity_sign_on_circles():
    inside = shapes.circle(0.8, 64)
    v = engine.velocity(inside, P_FLOW)
    # strictly inward: velocity anti-parallel to position
    assert np.all((v * inside.vertices).sum(axis=1) < 0)
    outside = shapes.circle(1.5, 64)
    v = engine.velocity(outside, P_FLOW)
    assert np.all((v * outside.vertices).sum(axis=1) > 0)


def test_velocity_closed_form_on_circles():
    # e^{R^2} (1 - 1/R^2) F per vertex, zero exactly at R = 1
    for radius in (0.8, 1.5):
        c = shapes.circle(radius, 128)
        v = engine.velocity(c, P_FLOW)
        factor = math.exp(radius ** 2) * (1.0 - 1.0 / radius ** 2)
        np.testing.assert_allclose(v, factor * c.vertices, rtol=1e-10, atol=1e-12)


def test_velocity_near_stationary_icosphere():
    s = shapes.icosphere(math.sqrt(2.0), 3)
    speeds = np.linalg.norm(engine.velocity(s, P_FLOW), axis=1)
    assert speeds.max() < 5e-2


def test_pure_mcf_velocity_is_mean_curvature():
    c = shapes.ellipse(0.9, 0.6, 64)
    p = FlowParams(variant=FLOWP, a=0.0, b=0.0, c=1.0)
    np.testing.assert_array_equal(engine.velocity(c, p),
                                  mesh.mean_curvature_vector(c))


def test_flow0_velocity_formula():
    # e^{|F|^2/m} (H + F_perp), with the position part exactly normal
    e = shapes.ellipse(0.9, 0.6, 64)
    v = engine.velocity(e, P_FLOW0)
    f2 = (e.vertices ** 2).sum(axis=1)
    w = np.exp(f2)
    expect = w[:, None] * (mesh.mean_curvature_vector(e)
                           + mesh.normal_projection(e, np.asarray(e.vertices)))
    np.testing.assert_allclose(v, expect, rtol=1e-12, atol=1e-15)
    tangents = mesh.tangent_basis(e)[:, 0]
    pos_part = v - w[:, None] * mesh.mean_curvature_vector(e)
    assert np.abs((pos_part * tangents).sum(axis=1)).max() < 1e-10


# ---------------------------------------------------------------------------
# stability step


def test_stability_dt_formula_on_unit_circle():
    c = shapes.circle(1.0, 256)
    h = 2.0 * math.sin(math.pi / 256)
    expect = 0.25 * h * h / math.e
    assert engine.stability_dt(c, P_FLOW) == pytest.approx(expect, rel=1e-12)
    assert expect == pytest.approx(5.54e-5, rel=1e-2)


def test_stability_dt_exponential_dependence():
    # same shape scaled so max|F|^2 goes 1 -> 2 (m = 1): dt picks up
    # a factor 2 from h^2 and 1/e from the conformal exponent
    n = 128
    dt1 = engine.stability_dt(shapes.circle(1.0, n), P_FLOW)
    dt2 = engine.stability_dt(shapes.circle(math.sqrt(2.0), n), P_FLOW)
    assert dt2 / dt1 == pytest.approx(2.0 / math.e, rel=1e-12)


def test_stability_dt_independent_of_radius_in_pure_mcf():
    n = 128
    p = FlowParams(variant=FLOWP, a=0.0, b=0.0, c=1.0)
    dt1 = engine.stability_dt(shapes.circle(1.0, n), p)
    dt2 = engine.stability_dt(shapes.circle(2.0, n), p)
    assert dt2 / dt1 == pytest.approx(4.0, rel=1e-12)  # h^2 scaling only


def test_stability_dt_underflow():
    c = shapes.circle(1.0, 64)
    with pytest.raises(TimestepUnderflow):
        engine.stability_dt(c, P_FLOW, dt_min=1.0)


# ---------------------------------------------------------------------------
# stepping


def test_step_contracts_inside_circle():
    st0 = engine.initial_state(shapes.circle(0.8, 128))
    st1 = engine.step(st0, P_FLOW)
    assert st1.diagnostics.max_F2 < st0.diagnostics.max_F2
    assert st1.t == st1.diagnostics.dt_used > 0


def test_step_expands_outside_circle():
    st0 = engine.initial_state(shapes.circle(1.5, 128))
    st1 = engine.step(st0, P_FLOW)
    assert st1.diagnostics.min_F2 > st0.diagnostics.min_F2


def test_step_deterministic():
    st0 = engine.initial_state(shapes.ellipse(0.9, 0.6, 96))
    a = engine.step(st0, P_FLOW)
    b = engine.step(st0, P_FLOW)
    np.testing.assert_array_equal(a.immersion.vertices, b.immersion.vertices)
    assert a.diagnostics == b.diagnostics


def test_stationary_circle_drift():
    traj = engine.run(shapes.circle(1.0, 128), P_FLOW, horizon=0.05, stride=32)
    radii = np.linalg.norm(traj.snapshots[-1].vertices, axis=1)
    assert np.abs(radii - 1.0).max() / 0.05 < 1e-2
    assert traj.stop.kind == HORIZON_REACHED


# ---------------------------------------------------------------------------
# full runs


def test_run_horizon_zero():
    traj = engine.run(shapes.circle(0.8, 64), P_FLOW, horizon=0.0)
    assert traj.stop.kind == HORIZON_REACHED
    assert traj.n_snapshots == 1 and traj.times[0] == 0.0


def test_run_validation():
    c = shapes.circle(0.8, 64)
    with pytest.raises(InvalidConfig):
        engine.run(c, P_FLOW, horizon=-1.0)
    with pytest.raises(InvalidConfig):
        engine.run(c, P_FLOW, horizon=1.0, stride=0)
    with pytest.raises(InvalidConfig):
        Thresholds(h2_max=0.0)
    with pytest.raises(InvalidConfig):
        engine.run(c, FlowParams(variant=FLOWP, c=1.0, c_slope=-2.0), horizon=1.0)


def test_shrinking_circle_terminates_inside_bound():
    p_rad = RadialParams(m=1, a=1, b=1, c0=1, R0_sq=0.64)
    bound = radial.bound_time_shrink(p_rad)
    traj = engine.run(shapes.circle(0.8, 96), P_FLOW, horizon=1.1 * bound,
                      stride=64, keep_snapshots=False)
    assert traj.stop.kind in (POSITION_COLLAPSE, CURVATURE_BLOWUP)
    assert traj.stop.t_stop <= bound * 1.02
    oracle = radial.collapse_time_quadrature(p_rad)
    assert traj.stop.t_stop == pytest.approx(oracle, abs=2e-3)


def test_expanding_icosphere_is_position_blowup():
    p_rad = RadialParams(m=2, a=1, b=1, c0=1, R0_sq=4.0)
    bound = radial.bound_time_expand(p_rad)
    traj = engine.run(shapes.icosphere(2.0, 2), P_FLOW, horizon=1.1 * bound,
                      stride=8, keep_snapshots=False)
    assert traj.stop.kind == POSITION_BLOWUP
    assert traj.stop.t_stop <= bound * 1.02


def test_quality_threshold_stops_run():
    e = shapes.ellipse(0.9, 0.6, 64)  # edge-length ratio well below 1
    traj = engine.run(e, P_FLOW, horizon=0.1,
                      thresholds=Thresholds(quality_min=0.99))
    assert traj.stop.kind == MESH_DEGENERATE
    assert traj.stop.t_stop == 0.0


def test_curvature_threshold_classification():
    traj = engine.run(shapes.circle(0.8, 96), P_FLOW, horizon=1.0, stride=64,
                      thresholds=Thresholds(h2_max=10.0), keep_snapshots=False)
    assert traj.stop.kind == CURVATURE_BLOWUP  # 1/R^2 crosses 10 well before collapse
    assert any(ev["event"] == "curvature_blowup_threshold" for ev in traj.events)


def test_overflow_guard_classified_as_position_blowup():
    far = shapes.circle(27.0, 64)  # |F|^2 = 729 > 700 guard
    traj = engine.run(far, P_FLOW, horizon=1.0)
    assert traj.stop.kind == POSITION_BLOWUP
    assert traj.stop.t_stop == 0.0


def test_snapshot_times_are_exact():
    times = [0.0, 0.003, 0.006, 0.009]
    traj = engine.run(shapes.circle(0.8, 64), P_FLOW, horizon=0.009,
                      snapshot_times=times)
    np.testing.assert_array_equal(traj.times, times)


def test_monotone_diagnostics_inside_and_outside():
    tr_in = engine.run(shapes.ellipse(0.9, 0.6, 128), P_FLOW, horizon=0.05, stride=8,
                       keep_snapshots=False)
    assert np.all(np.diff(tr_in.max_F2) <= 1e-9)
    tr_out = engine.run(shapes.circle(1.5, 128), P_FLOW, horizon=0.02, stride=8,
                        keep_snapshots=False)
    assert np.all(np.diff(tr_out.min_F2) >= -1e-9)


def test_weighted_area_lyapunov_under_normal_flow():
    traj = engine.run(shapes.ellipse(0.9, 0.6, 128), P_FLOW0, horizon=0.05,
                      stride=8, keep_snapshots=False)
    wa = traj.weighted_area
    assert np.all(np.diff(wa) <= 1e-6 * (1.0 + wa[:-1]))


def test_blowup_time_self_consistency_under_refinement():
    coarse = engine.run(shapes.circle(0.8, 96), P_FLOW, horizon=1.0,
                        stride=256, cfl=0.25, keep_snapshots=False)
    fine = engine.run(shapes.circle(0.8, 192), P_FLOW, horizon=1.0,
                      stride=256, cfl=0.125, keep_snapshots=False)
    assert abs(coarse.stop.t_stop - fine.stop.t_stop) < coarse.t_stop_error


@pytest.mark.parametrize("shape, p, horizon", [
    (shapes.ellipse(1.2, 0.8, 64), P_FLOW, 0.03),
    (shapes.ellipse(1.2, 0.8, 64), P_FLOW0, 0.03),
    (shapes.ellipse(1.2, 0.8, 64),
     FlowParams(variant=FLOWP, a=0.5, b=2.0, c=1.5, c_slope=0.3), 0.03),
    (shapes.icosphere(1.2, 1), P_FLOW, 0.6),
], ids=["FLOW", "FLOW0", "FLOWP", "icosphere1"])
def test_run_matches_repeated_step(shape, p, horizon):
    # run() and step() share stability_dt, _rk4_advance and compute_diagnostics
    traj = engine.run(shape, p, horizon=horizon, stride=1)
    assert traj.n_snapshots > 50
    state = engine.initial_state(shape)
    for k in range(1, 51):
        state = engine.step(state, p)
        assert state.t == traj.times[k]
        np.testing.assert_array_equal(state.immersion.vertices, traj.snapshots[k].vertices)
        for name in ("min_F2", "max_F2", "max_h2", "weighted_area", "mesh_quality"):
            assert getattr(state.diagnostics, name) == getattr(traj, name)[k], name


def test_expanding_surface_steps_by_rk4():
    # accuracy limits an expanding surface before stability does, so every
    # step is RK4 at the stability step of the state it starts from
    traj = engine.run(shapes.icosphere(1.5, 1), P_FLOW, horizon=0.3,
                      thresholds=Thresholds(F2_max=20.0), stride=1)
    assert traj.n_snapshots > 20
    assert traj.integration_error == 0.0    # no RKC2 step was taken
    for k in range(1, traj.n_snapshots):
        t = traj.times[k - 1]
        dt = engine.stability_dt(traj.snapshots[k - 1], P_FLOW, t)
        assert traj.dts[k] == min(dt, traj.horizon - t)


def test_shrinking_circle_steps_by_rkc2(monkeypatch):
    # the 512-gon window run of acceptance criterion 3: RK4 under h^2 needs
    # about 100k velocity evaluations for it
    calls = []
    velocity = engine.velocity

    def counted(*args, **kwargs):
        calls.append(1)
        return velocity(*args, **kwargs)

    monkeypatch.setattr(engine, "velocity", counted)
    traj = engine.run(shapes.circle(0.8, 512), P_FLOW, horizon=1.0,
                      thresholds=Thresholds(F2_min=0.04), stride=32, cfl=0.5,
                      keep_snapshots=False)
    assert len(calls) < 20000
    mask = traj.max_F2 >= 0.05
    ode = radial.integrate_radial(RadialParams(m=1, a=1, b=1, c0=1, R0_sq=0.64),
                                  horizon=float(traj.times[mask][-1]),
                                  t_eval=traj.times[mask])
    rel = np.abs(traj.max_F2[mask] - ode.eval_R_sq) / ode.eval_R_sq
    assert rel.max() <= 1e-4
    # bisection puts the stop on the threshold instead of a long step past it
    assert traj.stop.kind == POSITION_COLLAPSE
    assert 0.04 * (1.0 - 1e-3) <= traj.max_F2[-1] < 0.04


def test_run_deterministic_bitwise():
    a = engine.run(shapes.ellipse(0.9, 0.6, 96), P_FLOW, horizon=0.01, stride=8)
    b = engine.run(shapes.ellipse(0.9, 0.6, 96), P_FLOW, horizon=0.01, stride=8)
    np.testing.assert_array_equal(a.times, b.times)
    np.testing.assert_array_equal(a.max_F2, b.max_F2)
    np.testing.assert_array_equal(a.snapshots[-1].vertices, b.snapshots[-1].vertices)


# ---------------------------------------------------------------------------
# scalar evolution identity


def test_scalar_evolution_on_shrinking_circle():
    traj = engine.run(shapes.circle(0.8, 256), P_FLOW0, horizon=0.01,
                      snapshot_times=np.linspace(0.0, 0.01, 26))
    report = engine.verify_scalar_evolution(traj, P_FLOW0)
    assert report.max_residual < 5e-2
    assert report.l2_residual <= report.max_residual
    assert report.area_max_residual < 5e-2


def test_scalar_evolution_stationary_absolute():
    traj = engine.run(shapes.circle(1.0, 128), P_FLOW0, horizon=0.01,
                      snapshot_times=np.linspace(0.0, 0.01, 13))
    report = engine.verify_scalar_evolution(traj, P_FLOW0)
    assert report.max_residual < 1e-3


def test_scalar_evolution_pure_mcf():
    p = FlowParams(variant=FLOWP, a=0.0, b=0.0, c=1.0)
    traj = engine.run(shapes.circle(1.0, 256), p, horizon=0.01,
                      snapshot_times=np.linspace(0.0, 0.01, 10))
    report = engine.verify_scalar_evolution(traj, p)
    assert report.max_residual < 5e-2


def test_scalar_evolution_gates():
    traj = engine.run(shapes.circle(0.8, 64), P_FLOW, horizon=0.001, stride=1)
    with pytest.raises(InvalidConfig):
        engine.verify_scalar_evolution(traj, P_FLOW)
    short = engine.run(shapes.circle(0.8, 64), P_FLOW0, horizon=0.0)
    with pytest.raises(InsufficientSnapshots):
        engine.verify_scalar_evolution(short, P_FLOW0)


# ---------------------------------------------------------------------------
# tangential equivalence


def test_tangential_equivalence_on_ellipse():
    times = np.linspace(0.0, 0.1, 6)
    e = shapes.ellipse(0.9, 0.6, 512)
    tr_flow = engine.run(e, P_FLOW, horizon=0.1, snapshot_times=times)
    tr_norm = engine.run(e, P_FLOW0, horizon=0.1, snapshot_times=times)
    report = engine.tangential_equivalence(tr_flow, tr_norm)
    assert report.hausdorff[0] == 0.0
    assert report.max_distance < 1e-2


def test_tangential_equivalence_exact_on_circles():
    times = np.linspace(0.0, 0.05, 6)
    c = shapes.circle(0.8, 128)
    tr_flow = engine.run(c, P_FLOW, horizon=0.05, snapshot_times=times)
    tr_norm = engine.run(c, P_FLOW0, horizon=0.05, snapshot_times=times)
    report = engine.tangential_equivalence(tr_flow, tr_norm)
    assert report.max_distance < 1e-6


def test_tangential_equivalence_time_mismatch():
    c = shapes.circle(0.8, 64)
    a = engine.run(c, P_FLOW, horizon=0.01, snapshot_times=[0.0, 0.01])
    b = engine.run(c, P_FLOW0, horizon=0.01, snapshot_times=[0.0, 0.005])
    with pytest.raises(MismatchedTimes):
        engine.tangential_equivalence(a, b)


def test_tangential_equivalence_requires_same_initial():
    times = [0.0, 0.01]
    a = engine.run(shapes.circle(0.8, 64), P_FLOW, horizon=0.01, snapshot_times=times)
    b = engine.run(shapes.circle(0.9, 64), P_FLOW0, horizon=0.01, snapshot_times=times)
    with pytest.raises(MismatchedTimes):
        engine.tangential_equivalence(a, b)


def test_tangential_equivalence_variant_order():
    times = [0.0, 0.01]
    a = engine.run(shapes.circle(0.8, 64), P_FLOW, horizon=0.01, snapshot_times=times)
    b = engine.run(shapes.circle(0.8, 64), P_FLOW0, horizon=0.01, snapshot_times=times)
    with pytest.raises(InvalidConfig):
        engine.tangential_equivalence(b, a)
