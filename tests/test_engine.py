import math

import numpy as np
import pytest

from gaussflow import engine, mesh, radial, shapes
from gaussflow.engine import (CURVATURE_BLOWUP, FLOW, FLOW0, FLOWP,
                              HORIZON_REACHED, MESH_DEGENERATE,
                              POSITION_BLOWUP, POSITION_COLLAPSE, FlowParams,
                              Thresholds)
from gaussflow.errors import (DegenerateMesh, InvalidConfig, MismatchedTimes,
                              OverflowGuard, TimestepUnderflow)
from gaussflow.radial import RadialParams

import mesh_oracles
import radial_oracles
from mesh_oracles import InsufficientSnapshots

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


@pytest.mark.parametrize("name", ["a", "b", "c", "c_slope"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_flowp_rejects_non_finite_constants(name, value):
    # a NaN a would make every step time NaN, so a run would never reach its horizon
    with pytest.raises(InvalidConfig, match="finite"):
        FlowParams(variant=FLOWP, **{name: value})


def test_pure_mcf_mode_is_flagged_as_extension():
    assert not FlowParams(variant=FLOWP, a=0.0, b=0.0).in_paper_regime
    assert FlowParams(variant=FLOWP, a=2.0, b=0.5).in_paper_regime
    assert P_FLOW.in_paper_regime


# ---------------------------------------------------------------------------
# velocity


def test_velocity_vanishes_on_critical_circle():
    c = shapes.circle(1.0, 256)
    assert np.abs(engine.velocity(c, P_FLOW)).max() < 1e-10


def test_velocity_raises_overflow_guard_far_out():
    # a |F|^2 / m = 900 under FLOW0 and FLOW, 800 under FLOWP with a = 2:
    # past the guard at 700
    for p, radius in ((P_FLOW0, 30.0), (P_FLOW, 30.0),
                      (FlowParams(variant=FLOWP, a=2.0), 20.0)):
        with pytest.raises(OverflowGuard):
            engine.velocity(shapes.circle(radius, 16), p)
    # the guard reads a: at a |F|^2 / m = 400 the velocity is finite
    assert np.isfinite(engine.velocity(shapes.circle(20.0, 16), P_FLOW)).all()


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
    chord = np.roll(e.vertices, -1, axis=0) - np.roll(e.vertices, 1, axis=0)
    tangents = chord / np.linalg.norm(chord, axis=1)[:, None]
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


def test_stability_dt_underflow(monkeypatch):
    monkeypatch.setattr(engine, "DT_MIN", 1.0)
    c = shapes.circle(1.0, 64)
    with pytest.raises(TimestepUnderflow):
        engine.stability_dt(c, P_FLOW)


# ---------------------------------------------------------------------------
# stepping


def test_step_contracts_inside_circle():
    st0 = engine.initial_state(shapes.circle(0.8, 128))
    st1 = engine.step(st0, P_FLOW)
    assert st1.diagnostics.max_F2 < st0.diagnostics.max_F2
    assert st1.t == st1.dt > 0


def test_step_expands_outside_circle():
    st0 = engine.initial_state(shapes.circle(1.5, 128))
    st1 = engine.step(st0, P_FLOW)
    assert st1.diagnostics.min_F2 > st0.diagnostics.min_F2


@pytest.mark.parametrize("cfl", [math.nan, 0.0, 5.0])
def test_cfl_outside_the_rk4_bound_is_refused(cfl):
    # a NaN step never reaches the horizon, and above 0.69 RK4 is unstable
    c = shapes.circle(0.8, 32)
    with pytest.raises(InvalidConfig, match="cfl"):
        engine.stability_dt(c, P_FLOW, cfl=cfl)
    with pytest.raises(InvalidConfig, match="cfl"):
        engine.step(engine.initial_state(c), P_FLOW, cfl=cfl)
    with pytest.raises(InvalidConfig, match="cfl"):
        engine.run(c, P_FLOW, horizon=1e-4, cfl=cfl)


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


def test_horizon_stop_lands_on_the_horizon():
    # ten DT_MAX steps sum to 0.09999999999999999; the last one ends on 0.1,
    # with no sliver step after it
    traj = engine.run(shapes.circle(0.8, 16), P_FLOW, horizon=0.1)
    assert traj.stop.kind == HORIZON_REACHED
    assert traj.stop.t_stop == traj.times[-1] == 0.1
    assert traj.dts[-1] == pytest.approx(engine.DT_MAX, rel=1e-12)


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


def test_run_rejects_nan_horizon_and_allows_infinite():
    c = shapes.circle(0.5, 32)
    with pytest.raises(InvalidConfig, match="horizon"):
        engine.run(c, P_FLOW, horizon=math.nan)
    traj = engine.run(c, P_FLOW, horizon=math.inf, stride=64, keep_snapshots=False)
    assert traj.stop.kind in (POSITION_COLLAPSE, CURVATURE_BLOWUP)


def test_run_rejects_nan_snapshot_time():
    # a NaN sample is never landed on, so every sample after it was dropped
    with pytest.raises(InvalidConfig, match="snapshot times"):
        engine.run(shapes.circle(0.8, 32), P_FLOW, horizon=0.05,
                   snapshot_times=[0.0, math.nan, 0.02, 0.04])


def _patch_velocity(monkeypatch, exc, fails):
    """Make engine.velocity raise exc on its n-th call (from 1) where fails(n)."""
    real, count = engine.velocity, [0]

    def velocity(*args, **kwargs):
        count[0] += 1
        if fails(count[0]):
            raise exc
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "velocity", velocity)


@pytest.mark.parametrize("exc", [OverflowGuard(800.0), DegenerateMesh("edge collapsed")])
def test_failed_rkc2_trial_is_retried_at_a_quarter(monkeypatch, exc):
    s = shapes.circle(0.8, 256)
    st = engine.FlowState(0.0, s, f0=engine.velocity(s, P_FLOW), dt_acc=1e-3)
    rkc = _count_calls(monkeypatch, engine, "_rkc_advance")
    dt = engine._advance(st, P_FLOW, 0.25).dt
    assert rkc[0] == 1 and dt == 1e-3
    _patch_velocity(monkeypatch, exc, lambda n: n == 1)
    dt = engine._advance(st, P_FLOW, 0.25).dt
    # the failed trial and its retry, which is an RKC2 step too
    assert rkc[0] == 3 and dt == 0.25e-3


@pytest.mark.parametrize("exc, kind", [(OverflowGuard(800.0), POSITION_BLOWUP),
                                       (DegenerateMesh("edge collapsed"), MESH_DEGENERATE)])
def test_mid_step_guard_or_degeneration_stops_run(monkeypatch, exc, kind):
    _patch_velocity(monkeypatch, exc, lambda n: n > 40)
    traj = engine.run(shapes.circle(0.8, 64), P_FLOW, horizon=1.0)
    assert traj.stop.kind == kind and traj.stop.t_stop > 0.0
    if kind == POSITION_BLOWUP:
        # the text of a guard before the first step, too
        assert traj.stop.detail == "conformal exponent guard fired"
        assert any(ev["event"] == "overflow_guard" for ev in traj.events)
    else:
        assert traj.stop.detail == "edge collapsed"


def _patch_surface_geometry(monkeypatch, pass_):
    """Route every surface pass through ``pass_(real, v, conn, level)``."""
    real = mesh._surface_geometry
    monkeypatch.setattr(mesh, "_surface_geometry",
                        lambda v, conn, level: pass_(real, v, conn, level))


def _patch_monitor_group(monkeypatch, fails):
    """Make the n-th surface pass (from 1) that computes the monitor group
    raise DegenerateMesh where fails(n)."""
    count = [0]

    def pass_(real, v, conn, level):
        if level == mesh._MONITOR:
            count[0] += 1
            if fails(count[0]):
                raise DegenerateMesh("vanishing vertex normal")
        return real(v, conn, level)

    _patch_surface_geometry(monkeypatch, pass_)


def _bits(x) -> np.ndarray:
    """The IEEE bit patterns of a float array, so that comparisons tell -0.0 from 0.0."""
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def _same_run(a, b):
    """Bit for bit: every column, the stop, both error totals, the events and every snapshot."""
    for name in engine.COLUMNS.values():
        np.testing.assert_array_equal(_bits(getattr(a, name)), _bits(getattr(b, name)),
                                      err_msg=name)
    assert a.stop == b.stop and a.stop.t_stop.hex() == b.stop.t_stop.hex()
    assert a.t_stop_error.hex() == b.t_stop_error.hex()
    assert a.integration_error.hex() == b.integration_error.hex()
    assert a.events == b.events
    for x, y in zip(a.snapshots, b.snapshots, strict=True):
        np.testing.assert_array_equal(_bits(x.vertices), _bits(y.vertices))


@pytest.mark.parametrize("shape, p, horizon", [
    (shapes.ellipsoid(1.0, 0.8, 0.6, 2), P_FLOW, 0.1),
    (shapes.icosphere(1.2, 2), P_FLOW0, 1.0),
], ids=["FLOW", "FLOW0"])
def test_deferred_monitor_group_leaves_runs_unchanged(monkeypatch, shape, p, horizon):
    # stages compute only the fields the velocity reads; forcing the whole
    # pass on every stage must not move a bit
    deferred = engine.run(shape, p, horizon, stride=1)
    _patch_surface_geometry(monkeypatch,
                            lambda real, v, conn, level: real(v, conn, mesh._MONITOR))
    forced = engine.run(shape, p, horizon, stride=1)
    assert deferred.n_snapshots > 10
    _same_run(deferred, forced)


def _bowtie_octahedron() -> mesh.DiscreteImmersion:
    """An octahedron whose equator is folded into a planar bowtie of zero
    vector area, so both apex normals vanish while every face keeps its area."""
    faces = [(4, i, (i + 1) % 4) for i in range(4)] + [(5, (i + 1) % 4, i) for i in range(4)]
    octahedron = mesh.DiscreteImmersion(2, np.vstack([np.eye(3), -np.eye(3)])[[0, 1, 3, 4, 2, 5]],
                                        faces)
    return octahedron.replace_vertices([(1.0, 0.0, 0.0), (0.5, 1.0, 0.0), (-1.0, 0.0, 0.0),
                                        (-0.5, 1.0, 0.0), (0.0, 0.5, 1.0), (0.0, 0.5, -1.0)])


def test_degenerate_monitor_group_raises_on_every_read():
    s = _bowtie_octahedron()
    geom = s._geometry()                          # the velocity fields only
    for _ in range(2):
        for read in (mesh.second_fundamental_norm, lambda s: s._geometry(mesh._MONITOR),
                     lambda s: mesh.normal_projection(s, s.vertices)):
            with pytest.raises(DegenerateMesh, match="vanishing vertex normal"):
                read(s)
    assert mesh_oracles.mesh_quality(s) == 0.0
    assert s._geometry() is geom                  # the cache keeps what it held


def test_degenerate_monitor_group_stops_run(monkeypatch):
    _patch_monitor_group(monkeypatch, lambda n: n > 5)
    traj = engine.run(shapes.icosphere(2.0, 1), P_FLOW, horizon=1.0)
    assert traj.stop.kind == MESH_DEGENERATE and traj.stop.t_stop > 0.0
    assert traj.stop.detail == "vanishing vertex normal"


def test_degenerate_monitor_group_rejects_rkc2_trial(monkeypatch):
    # near the balance sphere the accuracy step 3e-3 passes as one RKC2 step
    s = shapes.icosphere(math.sqrt(2.0), 3)
    st = engine.FlowState(0.0, s, f0=engine.velocity(s, P_FLOW), dt_acc=3e-3)
    rkc = _count_calls(monkeypatch, engine, "_rkc_advance")
    dt = engine._advance(st, P_FLOW, 0.25).dt
    assert rkc[0] == 1 and dt == 3e-3
    _patch_monitor_group(monkeypatch, lambda n: n == 1)
    dt = engine._advance(st, P_FLOW, 0.25).dt
    # the retry at 0.75e-3 is below dt_stab / 2, so RK4 takes the step
    assert rkc[0] == 2 and dt == engine.stability_dt(s, P_FLOW)


# ---------------------------------------------------------------------------
# in-place stage arithmetic
#
# The curve geometry, the velocity, the RKC2 recursion and the error norm
# compute in place.  These are their expression forms, the same operations
# in the same order, kept as references that the in-place forms must match
# bit for bit.


def _curve_geometry_reference(v, conn, level=None):
    # the whole pass at every level: extra fields leave a run unchanged
    e = v[conn.nxt] - v
    lengths = np.sqrt(np.einsum("ij,ij->i", e, e))
    l_min, l_max = float(lengths.min()), float(lengths.max())
    if l_min <= mesh.DEGENERACY_TOL:
        raise DegenerateMesh(f"curve edge length below {mesh.DEGENERACY_TOL:g}")
    u = e / lengths[:, None]
    areas = 0.5 * (lengths[conn.prv] + lengths)
    H = (u - u[conn.prv]) / areas[:, None]
    F2 = np.einsum("ij,ij->i", v, v)
    h2 = np.einsum("ij,ij->i", H, H)
    return {"edge_lengths": lengths, "vertex_areas": areas, "H": H, "F2": F2,
            "F2_max": float(F2.max()), "h2": h2, "h2_max": float(h2.max()),
            "quality": l_min / l_max, "min_edge": l_min, "max_edge": l_max}


def _velocity_reference(s, p, t=0.0):
    geom = s._geometry(mesh._NORMAL if p.variant == FLOW0 else mesh._BASE)
    rate, _ = engine._conformal_exponent(geom, p, s.m)
    w = np.exp(rate * geom["F2"])
    H, v = geom["H"], s.vertices
    if p.variant == FLOW0:
        drive = H + mesh.normal_projection(s, v)
    elif p.variant == FLOW:
        drive = H + v
    else:
        drive = p.c_at(t) * H + p.b * v
    return w[:, None] * drive


def _rkc_advance_reference(s, p, t, dt, stages, f0):
    w0 = 1.0 + 2.0 / (13.0 * stages * stages)
    q = w0 * w0 - 1.0
    arg = stages * math.log(w0 + math.sqrt(q))
    w1 = math.sinh(arg) * q / (math.cosh(arg) * stages * math.sqrt(q) - w0 * math.sinh(arg))
    z2, z1, dz2, dz1, d2z2, d2z1 = 1.0, w0, 0.0, 1.0, 0.0, 0.0
    b2 = b1 = 1.0 / (4.0 * w0 * w0)
    y0 = s.vertices
    y2, y1 = y0, y0 + (dt * w1 * b1) * f0
    th2, th1 = 0.0, w1 * b1
    for _ in range(2, stages + 1):
        z = 2.0 * w0 * z1 - z2
        dz = 2.0 * w0 * dz1 - dz2 + 2.0 * z1
        d2z = 2.0 * w0 * d2z1 - d2z2 + 4.0 * dz1
        b = d2z / (dz * dz)
        a1 = 1.0 - z1 * b1
        mu = 2.0 * w0 * b / b1
        nu = -b / b2
        mus = mu * w1 / w0
        f = engine.velocity(s.replace_vertices(y1), p, t + th1 * dt)
        y = mu * y1 + nu * y2 + (1.0 - mu - nu) * y0 + (dt * mus) * (f - a1 * f0)
        th = mu * th1 + nu * th2 + mus * (1.0 - a1)
        y2, y1, th2, th1 = y1, y, th1, th
        z2, z1, dz2, dz1, d2z2, d2z1, b2, b1 = z1, z, dz1, dz, d2z1, d2z, b1, b
    return s.replace_vertices(y1)


def _error_norm_reference(y0, y1, f0, f1, dt):
    est = 0.8 * (y0 - y1) + (0.4 * dt) * (f0 + f1)
    r = np.abs(est) / (engine.ATOL + engine.RTOL * np.maximum(np.abs(y0), np.abs(y1)))
    peak = float(r.max())
    if not math.isfinite(peak):
        return math.inf, est
    if peak == 0.0:
        return 0.0, est
    return peak * math.sqrt(float(np.mean(np.square(r / peak)))), est


def _count_calls(monkeypatch, module, name) -> list:
    """Count the calls of module.name; returns the one-element counter."""
    real, count = getattr(module, name), [0]

    def counted(*args, **kwargs):
        count[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return count


def _watch_bisections(monkeypatch) -> tuple[list, dict]:
    """Watch a run's RKC2 trials.  Returns the one-element count of trials
    and a dict from each start state at which a trial ran after one was
    accepted there, which only a bisection does, to the number of such
    trials.  A trial is accepted when its error norm is at most 1; the start
    states are kept, so their ids stay their own."""
    trials, accepted, bisections, kept = [0], set(), {}, []
    rkc_advance, error_norm = engine._rkc_advance, engine._error_norm

    def rkc(s, *args):
        trials[0] += 1
        kept.append(s.vertices)
        if id(s.vertices) in accepted:
            bisections[id(s.vertices)] = bisections.get(id(s.vertices), 0) + 1
        return rkc_advance(s, *args)

    def norm(y0, *args):
        err, est = error_norm(y0, *args)
        if err <= 1.0:
            accepted.add(id(y0))
        return err, est

    monkeypatch.setattr(engine, "_rkc_advance", rkc)
    monkeypatch.setattr(engine, "_error_norm", norm)
    return trials, bisections


def _space_curve(n):
    """A closed curve in R^3 that leaves every plane through the origin."""
    th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return mesh.DiscreteImmersion(
        1, np.column_stack([0.8 * np.cos(th), 0.6 * np.sin(th), 0.2 * np.sin(2.0 * th)]))


@pytest.mark.parametrize("shape, p, horizon", [
    (shapes.ellipse(1.0, 0.6, 48), P_FLOW, 2.0),
    (shapes.circle(0.8, 32), P_FLOW0, 2.0),
    (_space_curve(32), FlowParams(variant=FLOWP, b=0.0, c_slope=0.5), 1.0),
], ids=["FLOW-ellipse", "FLOW0-circle", "FLOWP-space-curve"])
def test_in_place_stages_leave_runs_unchanged(monkeypatch, shape, p, horizon):
    # each run ends at its singular time inside an RKC2 step, so the
    # bisection reruns the recursion from a reused f0 as well
    with monkeypatch.context() as m:
        rkc, bisections = _watch_bisections(m)
        in_place = engine.run(shape, p, horizon, stride=1)
    assert in_place.stop.kind != HORIZON_REACHED and in_place.n_snapshots > 500
    assert rkc[0] > 40 and list(bisections.values()) == [10]
    monkeypatch.setattr(mesh, "_curve_geometry", _curve_geometry_reference)
    monkeypatch.setattr(engine, "velocity", _velocity_reference)
    monkeypatch.setattr(engine, "_rkc_advance", _rkc_advance_reference)
    monkeypatch.setattr(engine, "_error_norm", _error_norm_reference)
    _same_run(in_place, engine.run(shape, p, horizon, stride=1))


@pytest.mark.parametrize("shape, p, horizon", [
    (shapes.ellipsoid(1.0, 0.8, 0.6, 2), P_FLOW, 0.1),
    (shapes.icosphere(1.2, 2), P_FLOW0, 1.0),
    (_space_curve(32), FlowParams(variant=FLOWP, b=0.0, c_slope=0.5), 1.0),
], ids=["FLOW-ellipsoid", "FLOW0-icosphere", "FLOWP-space-curve"])
def test_no_geometry_pass_runs_twice(monkeypatch, shape, p, horizon):
    # every caller asks for the level it reads first, so no immersion of a
    # run, stage, trial or bisection end alike, computes its geometry twice
    passes = {}
    for name in ("_curve_geometry", "_surface_geometry"):
        def counted(v, conn, level, real=getattr(mesh, name)):
            passes.setdefault(id(v), [v, 0])[1] += 1      # v kept, so its id stays its own
            return real(v, conn, level)
        monkeypatch.setattr(mesh, name, counted)
    rkc, bisections = _watch_bisections(monkeypatch)
    engine.run(shape.replace_vertices(shape.vertices), p, horizon, stride=1)
    assert len(passes) > 100 and max(n for _, n in passes.values()) == 1
    if shape.m == 1:
        assert rkc[0] > 40 and list(bisections.values()) == [10]


@pytest.mark.parametrize("shape", [shapes.ellipse(1.0, 0.6, 24), _space_curve(24),
                                   shapes.ellipsoid(1.0, 0.8, 0.6, 1)],
                         ids=["curve", "space-curve", "surface"])
@pytest.mark.parametrize("p", [P_FLOW, P_FLOW0, FlowParams(variant=FLOWP, a=0.5, b=0.3,
                                                           c=1.2, c_slope=0.4)],
                         ids=["FLOW", "FLOW0", "FLOWP"])
def test_velocity_is_fresh_and_reads_only(shape, p):
    s = shape.replace_vertices(shape.vertices)
    geom = s._geometry(mesh._MONITOR)
    cached = {key: geom[key].copy() for key in ("H", "F2")}
    v = s.vertices.copy()
    first = engine.velocity(s, p, 0.3)
    expected = first.copy()
    second = engine.velocity(s, p, 0.3)
    for held in (first, s.vertices, geom["H"], geom["F2"]):
        assert not np.shares_memory(second, held)
    first *= -2.0                                 # the caller owns what it got
    np.testing.assert_array_equal(_bits(second), _bits(expected))
    np.testing.assert_array_equal(_bits(engine.velocity(s, p, 0.3)), _bits(expected))
    np.testing.assert_array_equal(_bits(expected), _bits(_velocity_reference(s, p, 0.3)))
    np.testing.assert_array_equal(_bits(s.vertices), _bits(v))
    for key, before in cached.items():
        np.testing.assert_array_equal(_bits(geom[key]), _bits(before), err_msg=key)
    if s.m == 1:
        for key, ref in _curve_geometry_reference(s.vertices, s._conn).items():
            np.testing.assert_array_equal(_bits(geom[key]), _bits(ref), err_msg=key)


def _read_only_f0(s, p):
    """The velocity at s, read-only, so any write to it raises, and a copy."""
    f0 = engine.velocity(s, p)
    f0.flags.writeable = False
    return f0, f0.copy()


def test_rejected_rkc2_trial_leaves_f0_unchanged(monkeypatch):
    s = shapes.circle(0.8, 256)
    f0, before = _read_only_f0(s, P_FLOW)
    st = engine.FlowState(0.0, s, f0=f0, dt_acc=1e-2)      # far past the tolerance
    rejected = [0]
    real = engine._error_norm

    def error_norm(*args):
        err, est = real(*args)
        rejected[0] += err > 1.0
        return err, est

    monkeypatch.setattr(engine, "_error_norm", error_norm)
    rkc = _count_calls(monkeypatch, engine, "_rkc_advance")
    dt = engine._advance(st, P_FLOW, 0.25).dt
    # every trial but the last was rejected, and the last took the step
    assert rejected[0] >= 1 and rkc[0] == rejected[0] + 1 and dt < 1e-2
    assert st.f0 is f0
    np.testing.assert_array_equal(_bits(f0), _bits(before))


def test_bisection_reuses_f0_unchanged():
    # F2_min between the start's max|F|^2 and the end's: the step's end
    # crosses it, and the bisection reruns shorter steps from the same f0
    s = shapes.circle(0.8, 256)
    f0, before = _read_only_f0(s, P_FLOW)
    st = engine.FlowState(0.0, s, f0=f0, dt_acc=1e-3)
    nxt = engine._advance(st, P_FLOW, 0.25)
    dt = nxt.dt
    assert dt == 1e-3 and nxt.bracket == dt             # one RKC2 step, no bisection
    th = Thresholds(F2_min=0.5 * (0.64 + nxt.diagnostics.max_F2))
    end = engine._advance(st, P_FLOW, 0.25, th=th)
    hi = end.dt
    assert end.diagnostics.max_F2 < th.F2_min and end.t == hi < dt
    assert end.bracket <= engine.BISECT_FRACTION * dt
    # the end is an RKC2 step of length hi from f0 and the start's spectral bound
    stages = engine._rkc_stages(hi, engine._spectral_radius(s, P_FLOW, 0.0))[1]
    np.testing.assert_array_equal(
        _bits(end.immersion.vertices),
        _bits(engine._rkc_advance(s, P_FLOW, 0.0, hi, stages, f0).vertices))
    # the controller state is the whole step's, with no velocity at the end
    assert end.dt_acc == nxt.dt_acc and end.err_sum == nxt.err_sum
    assert end.f0 is None and nxt.f0 is not None
    np.testing.assert_array_equal(_bits(f0), _bits(before))


@pytest.mark.parametrize("exc", [OverflowGuard(800.0), DegenerateMesh("edge collapsed")])
def test_bisection_stops_at_a_trial_that_raises(monkeypatch, exc):
    # the second bisection trial raises: the bracket stays at half the step
    s = shapes.circle(0.8, 256)
    st = engine.FlowState(0.0, s, f0=engine.velocity(s, P_FLOW), dt_acc=1e-3)
    nxt = engine._advance(st, P_FLOW, 0.25)
    th = Thresholds(F2_min=0.5 * (0.64 + nxt.diagnostics.max_F2))
    real, calls = engine._rkc_advance, [0]

    def rkc_advance(*args):
        calls[0] += 1
        if calls[0] == 3:
            raise exc
        return real(*args)

    monkeypatch.setattr(engine, "_rkc_advance", rkc_advance)
    end = engine._advance(st, P_FLOW, 0.25, th=th)
    assert calls[0] == 3 and end.bracket == 0.5 * nxt.dt
    assert end.t == end.dt in (nxt.dt, 0.5 * nxt.dt)
    assert end.diagnostics.max_F2 < th.F2_min


def test_error_norm_branches_and_inputs():
    s = shapes.ellipse(1.0, 0.6, 32)
    y0 = s.vertices
    f0, _ = _read_only_f0(s, P_FLOW)
    y1 = y0 + 1e-3 * f0
    f1 = engine.velocity(s.replace_vertices(y1), P_FLOW)
    args = [y0, y1, f0, f1]
    copies = [a.copy() for a in args]
    for a in args:
        a.flags.writeable = False
    err, est = engine._error_norm(*args, 1e-3)
    ref_err, ref_est = _error_norm_reference(*args, 1e-3)
    assert 0.0 < err < math.inf and err.hex() == ref_err.hex()
    np.testing.assert_array_equal(_bits(est), _bits(ref_est))
    assert not any(np.shares_memory(est, a) for a in args)
    # a zero estimate: the step lands where it started, with opposite end velocities
    err, est = engine._error_norm(y0, y0, f0, -f0, 1e-3)
    assert err == 0.0 and not est.any()
    # a non-finite estimate fails the tolerance outright
    for bad in (math.inf, math.nan):
        f_bad = f1.copy()
        f_bad[3, 1] = bad
        err, _ = engine._error_norm(y0, y1, f0, f_bad, 1e-3)
        assert err == math.inf
    for a, c in zip(args, copies):
        np.testing.assert_array_equal(_bits(a), _bits(c))


@pytest.mark.parametrize("F2_min, kind", [(1e-6, CURVATURE_BLOWUP), (0.1, POSITION_COLLAPSE)])
def test_timestep_underflow_classification(monkeypatch, F2_min, kind):
    # max|F|^2 = 0.64 is far from the origin under the default F2_min, so the
    # underflow is put down to edge collapse; within 10 * F2_min it is collapse
    monkeypatch.setattr(engine, "DT_MIN", 1.0)
    traj = engine.run(shapes.circle(0.8, 64), P_FLOW, horizon=1.0,
                      thresholds=Thresholds(F2_min=F2_min))
    assert traj.stop.kind == kind and traj.stop.t_stop == 0.0
    assert any(ev["event"] == "timestep_underflow" for ev in traj.events)


def test_shrinking_circle_terminates_inside_bound():
    p_rad = RadialParams(m=1, a=1, b=1, c0=1, R0_sq=0.64)
    bound = radial.bound_time_shrink(p_rad)
    traj = engine.run(shapes.circle(0.8, 96), P_FLOW, horizon=1.1 * bound,
                      stride=64, keep_snapshots=False)
    assert traj.stop.kind in (POSITION_COLLAPSE, CURVATURE_BLOWUP)
    assert traj.stop.t_stop <= bound * 1.02
    oracle = radial_oracles.collapse_time_quadrature(p_rad)
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
    assert traj.stop.detail == "conformal exponent guard fired"
    assert any(ev["event"] == "overflow_guard" for ev in traj.events)


def test_snapshot_times_are_exact():
    times = [0.0, 0.003, 0.006, 0.009]
    traj = engine.run(shapes.circle(0.8, 64), P_FLOW, horizon=0.009,
                      snapshot_times=times)
    np.testing.assert_array_equal(traj.times, times)


def test_sample_that_a_step_rounds_onto_is_recorded():
    # a step whose span to the sample exceeds its length by more than the
    # 1e-12 stretch does not land, yet t + dt can round onto the sample; the
    # sample row is that step's end, and no zero-length step follows
    s, p = shapes.ellipse(0.9, 0.6, 128), FlowParams()
    plain = engine.run(s, p, 0.28, stride=1, keep_snapshots=False)
    over = np.diff(plain.times) > plain.dts[1:] * (1.0 + 1e-12)
    sample = plain.times[1 + np.flatnonzero(over)[0]]
    sampled = engine.run(s, p, 0.28, snapshot_times=[sample], keep_snapshots=False)
    assert sampled.times[1] == sample and np.all(sampled.dts[1:] > 0.0)
    assert sampled.stop == plain.stop
    assert sampled.max_F2[-1] == plain.max_F2[-1]


@pytest.mark.parametrize("shape, horizon, times", [
    (shapes.ellipse(0.9, 0.6, 128), 0.03, [0.01, 0.0137, 0.02]),
    (shapes.ellipsoid(1.2, 1.0, 0.8, 2), 0.1, [0.013, 0.05, 0.0871]),
], ids=["curve", "surface"])
def test_a_sample_time_is_a_nearer_horizon(shape, horizon, times):
    # run's rows are the states _advance reaches with each sample time in
    # turn, then the horizon, as the end it lands on
    traj = engine.run(shape, P_FLOW, horizon, snapshot_times=times)
    th, state = Thresholds(), engine.initial_state(shape)
    states = [state]
    for end in [*times, horizon]:
        while state.t < end:
            state = engine._advance(state, P_FLOW, 0.25, end, th)
        states.append(state)
    assert traj.stop.kind == HORIZON_REACHED and len(states) == traj.n_snapshots
    for k, state in enumerate(states):
        assert state.t == traj.times[k] and state.dt == traj.dts[k]
        np.testing.assert_array_equal(_bits(state.immersion.vertices),
                                      _bits(traj.snapshots[k].vertices))


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
    # run() and step() share _advance and FlowState.diagnostics
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
    horizon = 0.3
    traj = engine.run(shapes.icosphere(1.5, 1), P_FLOW, horizon=horizon,
                      thresholds=Thresholds(F2_max=20.0), stride=1)
    assert traj.n_snapshots > 20
    assert traj.integration_error == 0.0    # no RKC2 step was taken
    for k in range(1, traj.n_snapshots):
        t = traj.times[k - 1]
        dt = engine.stability_dt(traj.snapshots[k - 1], P_FLOW, t)
        assert traj.dts[k] == min(dt, horizon - t)


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
    report = mesh_oracles.verify_scalar_evolution(traj)
    assert report.max_residual < 5e-2
    assert report.l2_residual <= report.max_residual
    assert report.area_max_residual < 5e-2


def test_scalar_evolution_stationary_absolute():
    traj = engine.run(shapes.circle(1.0, 128), P_FLOW0, horizon=0.01,
                      snapshot_times=np.linspace(0.0, 0.01, 13))
    report = mesh_oracles.verify_scalar_evolution(traj)
    assert report.max_residual < 1e-3


def test_scalar_evolution_pure_mcf():
    p = FlowParams(variant=FLOWP, a=0.0, b=0.0, c=1.0)
    traj = engine.run(shapes.circle(1.0, 256), p, horizon=0.01,
                      snapshot_times=np.linspace(0.0, 0.01, 10))
    report = mesh_oracles.verify_scalar_evolution(traj)
    assert report.max_residual < 5e-2


@pytest.mark.parametrize("p", [P_FLOW, P_FLOW0], ids=["FLOW", "FLOW0"])
def test_scalar_evolution_checks_the_law_that_ran(p):
    # off spherical data FLOW0 drops F's tangential part, which the
    # full-position identities of FLOW and FLOWP count
    traj = engine.run(shapes.ellipse(0.9, 0.6, 128), p, horizon=0.01,
                      snapshot_times=np.linspace(0.0, 0.01, 11))
    report = mesh_oracles.verify_scalar_evolution(traj)
    assert report.max_residual < 5e-2
    assert report.area_max_residual < 5e-2


@pytest.mark.parametrize("p", [P_FLOW, P_FLOW0], ids=["FLOW", "FLOW0"])
def test_scalar_evolution_on_ellipsoids(p):
    coarse, fine = (
        mesh_oracles.verify_scalar_evolution(
            engine.run(shapes.ellipsoid(1.0, 0.8, 0.6, subdiv), p, horizon=0.01,
                       snapshot_times=np.linspace(0.0, 0.01, 11)))
        for subdiv in (2, 3))
    assert coarse.max_residual < 0.1 and fine.max_residual < 0.1
    # the vertexwise area maximum is not gated: it stays at 0.2-0.3 on the
    # valence-5 vertices, where the cotan mean curvature is not pointwise
    # consistent; the area residual over all vertices falls with refinement
    assert fine.area_l2_residual <= 0.5 * coarse.area_l2_residual


def test_scalar_evolution_gates():
    rows_only = engine.run(shapes.circle(0.8, 64), P_FLOW, horizon=0.001, stride=1,
                           keep_snapshots=False)
    with pytest.raises(InsufficientSnapshots):
        mesh_oracles.verify_scalar_evolution(rows_only)
    short = engine.run(shapes.circle(0.8, 64), P_FLOW0, horizon=0.0)
    with pytest.raises(InsufficientSnapshots):
        mesh_oracles.verify_scalar_evolution(short)


# ---------------------------------------------------------------------------
# tangential equivalence


def test_tangential_equivalence_on_ellipse():
    times = np.linspace(0.0, 0.1, 6)
    e = shapes.ellipse(0.9, 0.6, 512)
    tr_flow = engine.run(e, P_FLOW, horizon=0.1, snapshot_times=times)
    tr_norm = engine.run(e, P_FLOW0, horizon=0.1, snapshot_times=times)
    report = mesh_oracles.tangential_equivalence(tr_flow, tr_norm)
    assert report.normal_distance[0] == 0.0
    assert report.max_distance < 1e-2


def test_tangential_equivalence_on_ellipsoid():
    times = np.linspace(0.0, 0.1, 6)
    s = shapes.ellipsoid(1.0, 0.8, 0.6, 2)
    tr_flow = engine.run(s, P_FLOW, horizon=0.1, snapshot_times=times)
    tr_norm = engine.run(s, P_FLOW0, horizon=0.1, snapshot_times=times)
    report = mesh_oracles.tangential_equivalence(tr_flow, tr_norm)
    assert report.normal_distance[0] == 0.0
    assert report.max_distance < 1e-2


def test_tangential_equivalence_exact_on_circles():
    times = np.linspace(0.0, 0.05, 6)
    c = shapes.circle(0.8, 128)
    tr_flow = engine.run(c, P_FLOW, horizon=0.05, snapshot_times=times)
    tr_norm = engine.run(c, P_FLOW0, horizon=0.05, snapshot_times=times)
    report = mesh_oracles.tangential_equivalence(tr_flow, tr_norm)
    assert report.max_distance < 1e-6


def test_tangential_equivalence_time_mismatch():
    c = shapes.circle(0.8, 64)
    a = engine.run(c, P_FLOW, horizon=0.01, snapshot_times=[0.0, 0.01])
    b = engine.run(c, P_FLOW0, horizon=0.01, snapshot_times=[0.0, 0.005])
    with pytest.raises(MismatchedTimes):
        mesh_oracles.tangential_equivalence(a, b)


def test_tangential_equivalence_requires_same_initial():
    times = [0.0, 0.01]
    a = engine.run(shapes.circle(0.8, 64), P_FLOW, horizon=0.01, snapshot_times=times)
    b = engine.run(shapes.circle(0.9, 64), P_FLOW0, horizon=0.01, snapshot_times=times)
    with pytest.raises(MismatchedTimes):
        mesh_oracles.tangential_equivalence(a, b)


def test_tangential_equivalence_requires_same_faces():
    # flip the edge (a, b) shared by face 0 and face j: same vertices, new topology
    s = shapes.icosphere(0.9, 1)
    faces = s.faces.copy()
    a, b, c = faces[0]
    j = next(j for j in range(1, len(faces)) if a in faces[j] and b in faces[j])
    d = next(v for v in faces[j] if v not in (a, b))
    faces[0], faces[j] = (a, d, c), (d, b, c)
    times = [0.0, 0.001]
    tr_flow = engine.run(s, P_FLOW, horizon=0.001, snapshot_times=times)
    tr_norm = engine.run(mesh.DiscreteImmersion(2, s.vertices, faces), P_FLOW0,
                         horizon=0.001, snapshot_times=times)
    with pytest.raises(MismatchedTimes, match="same face list"):
        mesh_oracles.tangential_equivalence(tr_flow, tr_norm)


def test_tangential_equivalence_variant_order():
    times = [0.0, 0.01]
    a = engine.run(shapes.circle(0.8, 64), P_FLOW, horizon=0.01, snapshot_times=times)
    b = engine.run(shapes.circle(0.8, 64), P_FLOW0, horizon=0.01, snapshot_times=times)
    with pytest.raises(InvalidConfig):
        mesh_oracles.tangential_equivalence(b, a)


def test_rkc2_stage_count_is_capped_at_s_max():
    rho = 1e9
    assert engine._rkc_stages(1e-6, rho) == (1e-6, 1 + int(math.sqrt(1.0 + 1540.0)))
    dt, stages = engine._rkc_stages(1.0, rho)
    assert stages == engine.S_MAX
    # the step shrinks to what S_MAX stages keep stable, and needs no more
    assert 1.54 * dt * rho == pytest.approx(engine.S_MAX ** 2 - 1, rel=1e-12)
    assert engine._rkc_stages(dt, rho)[1] <= engine.S_MAX


@pytest.mark.parametrize("shape", [shapes.circle(0.8, 32), shapes.icosphere(1.0, 1)],
                         ids=["curve", "surface"])
def test_run_refuses_a_degenerate_initial_immersion(shape):
    # replace_vertices skips the constructor's checks, so run makes its own;
    # two neighbours of one edge (curve) or face (surface) are made to coincide
    a, b = (0, 1) if shape.m == 1 else shape.faces[0, :2]
    v = shape.vertices.copy()
    v[b] = v[a]
    with pytest.raises(InvalidConfig, match="initial immersion is degenerate"):
        engine.run(shape.replace_vertices(v), P_FLOW, horizon=0.01)
