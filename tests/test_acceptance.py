"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines.  Expensive trajectories are module-scoped fixtures shared across
criteria; tolerances are the fixed values stated with each check.
"""

import math
import time

import numpy as np
import pytest

from gaussflow import cli, comparison, engine, fileio, harness, radial, shapes
from gaussflow.ambient import sectional_curvature
from gaussflow.engine import (FLOW, FLOW0, HORIZON_REACHED, FlowParams,
                              Thresholds)
from gaussflow.harness import (EXPAND_OUTSIDE, SHRINK_INSIDE, STATIONARY,
                               RunConfig, run_scenario)
from gaussflow.radial import RadialParams

import mesh_oracles
import radial_oracles

P_FLOW = FlowParams(variant=FLOW)
P_FLOW0 = FlowParams(variant=FLOW0)

ODE_CASES = [(1, 0.64), (2, 1.0), (2, 4.0), (2, 5.0), (3, 1.0)]


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:2d} [{'PASS' if ok else 'FAIL'}]: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def std_radial(m: int, r0_sq: float) -> RadialParams:
    return RadialParams(m=m, a=1.0, b=1.0, c0=1.0, R0_sq=r0_sq)


# ---------------------------------------------------------------------------
# module-scoped trajectories


@pytest.fixture(scope="module")
def circle_window_run():
    """512-gon circle, R = 0.8, tracked down to the comparison window edge."""
    t0 = time.perf_counter()
    traj = engine.run(shapes.circle(0.8, 512), P_FLOW, horizon=1.0,
                      thresholds=Thresholds(F2_min=0.04), stride=32, cfl=0.5,
                      keep_snapshots=False)
    return traj, time.perf_counter() - t0


@pytest.fixture(scope="module")
def icosphere_window_run():
    """Subdiv-3 icosphere, R = 2, tracked up to the window edge."""
    t0 = time.perf_counter()
    traj = engine.run(shapes.icosphere(2.0, 3), P_FLOW, horizon=0.08,
                      thresholds=Thresholds(F2_max=20.0), stride=2,
                      keep_snapshots=False)
    return traj, time.perf_counter() - t0


@pytest.fixture(scope="module")
def shrink_circle_verdict():
    cfg = RunConfig(initial_name="circle", initial_params={"radius": 0.8},
                    initial_n=256, snapshot_stride=32, save_meshes=False)
    return run_scenario(SHRINK_INSIDE, cfg)


@pytest.fixture(scope="module")
def shrink_ellipse_verdict():
    cfg = RunConfig(initial_name="ellipse", initial_params={"rx": 0.9, "ry": 0.6},
                    initial_n=128, snapshot_stride=32, save_meshes=False)
    return run_scenario(SHRINK_INSIDE, cfg)


@pytest.fixture(scope="module")
def expand_icosphere_verdict():
    cfg = RunConfig(initial_name="icosphere",
                    initial_params={"radius": 2.0, "subdiv": 3},
                    snapshot_stride=2, save_meshes=False)
    return run_scenario(EXPAND_OUTSIDE, cfg)


@pytest.fixture(scope="module")
def expand_ellipsoid_verdict():
    s5 = math.sqrt(5.0)
    cfg = RunConfig(initial_name="ellipsoid",
                    initial_params={"rx": 1.06 * s5, "ry": 1.03 * s5, "rz": s5,
                                    "subdiv": 3},
                    snapshot_stride=2, save_meshes=False)
    return run_scenario(EXPAND_OUTSIDE, cfg)


@pytest.fixture(scope="module")
def flow0_circle_runs():
    coarse = engine.run(shapes.circle(0.8, 512), P_FLOW0, horizon=0.02, stride=8)
    fine = engine.run(shapes.circle(0.8, 1024), P_FLOW0, horizon=0.02, stride=4)
    return coarse, fine


@pytest.fixture(scope="module")
def flow0_ellipse_run():
    return engine.run(shapes.ellipse(0.9, 0.6, 128), P_FLOW0, horizon=0.05,
                      stride=8, keep_snapshots=False)


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_sphere_ode_vs_oracle():
    t0 = time.perf_counter()
    lines = []
    ok = True
    for m, r0 in ODE_CASES:
        p = std_radial(m, r0)
        traj = radial.integrate_radial(p, horizon=10.0)
        if p.regime() == "shrink":
            oracle = radial_oracles.collapse_time_quadrature(p)
            bound = radial.bound_time_shrink(p)
            ok &= traj.event.kind == "COLLAPSE"
        else:
            oracle = radial_oracles.escape_time_quadrature(p)
            bound = radial.bound_time_expand(p)
            ok &= traj.event.kind == "ESCAPE"
        diff = abs(traj.event.t - oracle)
        gap = bound - traj.event.t
        ok &= diff < 1e-8 and traj.event.t <= bound
        lines.append(f"(m={m},R0^2={r0}) |t-oracle|={diff:.2e} gap-to-bound={gap:.6f}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report(1, ok, f"{'; '.join(lines)}; runtime={elapsed:.2f}s < 1s")


def test_criterion_02_closed_form_bounds():
    t1 = radial.bound_time_shrink(std_radial(2, 1.0))
    t2 = radial.bound_time_expand(std_radial(2, 5.0))
    err1 = abs(t1 - (1.0 - math.exp(-0.5)))
    err2 = abs(t2 - math.exp(-2.5) / 3.0)
    ok = err1 <= 1e-12 and err2 <= 1e-12
    report(2, ok, f"T1(2,1) err={err1:.2e}, T2(2,5) err={err2:.2e} (tol 1e-12)")


def _ode_match_error(traj, m, r0_sq):
    mask = (traj.max_F2 >= 0.05) & (traj.max_F2 <= 20.0)
    times = traj.times[mask]
    ode = radial.integrate_radial(std_radial(m, r0_sq), horizon=float(times[-1]),
                                  t_eval=times)
    n = len(ode.eval_R_sq)
    rel = np.abs(traj.max_F2[mask][:n] - ode.eval_R_sq) / ode.eval_R_sq
    return float(rel.max()), n


def test_criterion_03_mesh_tracks_radial_ode(circle_window_run, icosphere_window_run):
    circle, t_c = circle_window_run
    ico, t_i = icosphere_window_run
    err_c, n_c = _ode_match_error(circle, 1, 0.64)
    err_i, n_i = _ode_match_error(ico, 2, 4.0)
    elapsed = t_c + t_i
    ok = err_c < 1e-3 and err_i < 1e-3 and elapsed < 60.0
    report(3, ok, f"circle rel err={err_c:.2e} ({n_c} times), "
                  f"icosphere rel err={err_i:.2e} ({n_i} times), "
                  f"runtime={elapsed:.1f}s < 60s")


def test_criterion_04_blowup_dichotomy(shrink_circle_verdict, shrink_ellipse_verdict,
                                       expand_icosphere_verdict,
                                       expand_ellipsoid_verdict):
    lines = []
    ok = True
    for verdict in (shrink_circle_verdict, shrink_ellipse_verdict,
                    expand_icosphere_verdict, expand_ellipsoid_verdict):
        non_horizon = verdict.observed_kind != HORIZON_REACHED
        ok &= non_horizon and verdict.bound_satisfied and verdict.kind_matched
        lines.append(f"{verdict.scenario}[{verdict.trajectory.m}d "
                     f"{verdict.observed_kind} t={verdict.t_stop:.4f} "
                     f"<= {verdict.bound_time:.4f}*1.02]")
    report(4, ok, "; ".join(lines))


def _eps_grid(lo_gap: float):
    return [lo_gap * f for f in (0.25, 0.5, 0.75)]


def test_criterion_05_barrier_suite(shrink_circle_verdict, shrink_ellipse_verdict,
                                    expand_icosphere_verdict,
                                    expand_ellipsoid_verdict):
    checks = 0
    ok = True
    for verdict in (shrink_circle_verdict, shrink_ellipse_verdict):
        traj = verdict.trajectory
        gap = 1.0 * traj.m - traj.max_F2[0]
        for eps in _eps_grid(gap):
            rep = comparison.check_sign_below(traj, traj.params, eps)
            ok &= rep.holds
            checks += 1
    for verdict in (expand_icosphere_verdict, expand_ellipsoid_verdict):
        traj = verdict.trajectory
        gap = traj.min_F2[0] - 1.0 * traj.m
        for eps in _eps_grid(gap):
            rep = comparison.check_sign_above(traj, traj.params, eps)
            ok &= rep.holds
            checks += 1
    worst = math.inf
    for verdict in (shrink_circle_verdict, shrink_ellipse_verdict,
                    expand_icosphere_verdict, expand_ellipsoid_verdict):
        traj = verdict.trajectory
        lo, hi, case = comparison.admissible_barrier_interval(traj)
        edge = traj.max_F2[0] if case == "below" else traj.min_F2[0]
        for frac_r in (0.25, 0.5, 0.75):
            rp0 = lo + (hi - lo) * frac_r
            for eps in _eps_grid(abs(rp0 - edge)):
                rep = comparison.check_sphere_barrier(traj, rp0, eps)
                ok &= rep.holds
                worst = min(worst, rep.worst_margin)
                checks += 1
    report(5, ok, f"{checks} barrier checks hold (3x3 grids per trajectory; "
                  f"worst sphere-barrier margin {worst:.4f})")


def test_criterion_06_sphericity_preserved(shrink_circle_verdict,
                                           expand_icosphere_verdict):
    reps = [comparison.check_sphericity(v.trajectory)
            for v in (shrink_circle_verdict, expand_icosphere_verdict)]
    spreads = [
        float(((v.trajectory.max_F2 - v.trajectory.min_F2)
               / np.maximum(1.0, v.trajectory.max_F2)).max())
        for v in (shrink_circle_verdict, expand_icosphere_verdict)
    ]
    ok = all(r.holds for r in reps)
    report(6, ok, f"relative |F|^2 spreads {spreads[0]:.2e} (circle to collapse), "
                  f"{spreads[1]:.2e} (icosphere to escape) < 1e-4 scaled")


def test_criterion_07_scalar_evolution_identity(flow0_circle_runs):
    coarse, fine = flow0_circle_runs
    rep_c = mesh_oracles.verify_scalar_evolution(coarse)
    rep_f = mesh_oracles.verify_scalar_evolution(fine)
    ok = rep_c.max_residual < 5e-2 and rep_f.max_residual < rep_c.max_residual
    report(7, ok, f"normalized residual {rep_c.max_residual:.2e} < 5e-2 at 512, "
                  f"{rep_f.max_residual:.2e} after doubling vertices and halving stride")


def test_criterion_08_weighted_area_lyapunov(flow0_circle_runs, flow0_ellipse_run):
    trajs = [*flow0_circle_runs, flow0_ellipse_run]
    ok = True
    worst = -math.inf
    for traj in trajs:
        wa = traj.weighted_area
        increase = np.diff(wa) - 1e-6 * (1.0 + wa[:-1])
        worst = max(worst, float(increase.max()))
        ok &= bool(np.all(increase <= 0.0))
    report(8, ok, f"weighted area nonincreasing on {len(trajs)} normal-velocity runs "
                  f"(worst tolerance-adjusted increase {worst:.2e})")


def test_criterion_09_stationary_spheres():
    drifts = []
    for name, params, n in (("circle", {"radius": 1.0}, 512),
                            ("icosphere", {"radius": math.sqrt(2.0), "subdiv": 3}, None)):
        cfg = RunConfig(initial_name=name, initial_params=params, initial_n=n,
                        snapshot_stride=64)
        verdict = run_scenario(STATIONARY, cfg)
        drifts.append(verdict.metrics["drift_per_unit_time"])
    ok = all(d < 1e-2 for d in drifts)
    report(9, ok, f"sphere-distance drift per unit time: circle {drifts[0]:.2e}, "
                  f"icosphere {drifts[1]:.2e} (< 1e-2 over horizon 0.05)")


def test_criterion_10_ambient_curvature():
    origin_err = abs(sectional_curvature(2, np.zeros(3), 0, 1) - 1.0)
    at5 = sectional_curvature(2, np.array([0.0, 0.0, 5.0]), 0, 1)
    at10 = sectional_curvature(2, np.array([0.0, 0.0, 10.0]), 0, 1)
    ok = origin_err <= 1e-12 and at10 < at5 < 0.0
    report(10, ok, f"origin err={origin_err:.1e} (2/m to 1e-12); "
                   f"K(5)={at5:.3e}, K(10)={at10:.3e} strictly decreasing, negative")


def _streams(outdir):
    return ((outdir / "diagnostics.csv").read_bytes(),
            (outdir / "events.jsonl").read_bytes())


def test_criterion_11_deterministic_reruns(tmp_path, monkeypatch):
    text = ("initial.name = perturbed_circle\ninitial.radius = 0.8\n"
            "initial.amp = 0.05\ninitial.mode = 3\ninitial.n = 128\n"
            "horizon = 0.02\nsnapshot_stride = 8\nseed = 7\n")
    # relative output directories, so an artifact's run.cfg replayed from
    # another working directory writes a fresh copy there
    monkeypatch.chdir(tmp_path)
    blobs = []
    for sub in ("first", "second"):
        harness.simulate(harness.parse_config_text(text + f"output_dir = {sub}\n"))
        blobs.append(_streams(tmp_path / sub))
    rerun_ok = blobs[0] == blobs[1]

    # the scenario's run.cfg carries its default horizon and F2_max window
    scenario = RunConfig(initial_name="circle", initial_params={"radius": 1.2},
                         initial_n=64, snapshot_stride=8, save_meshes=False,
                         output_dir="scenario")
    run_scenario(EXPAND_OUTSIDE, scenario)
    # a mesh-file input is copied into its artifact, so the artifact replays
    # once the original mesh is gone
    (tmp_path / "mesh").mkdir()
    fileio.write_pline(tmp_path / "mesh" / "loop.pline",
                       shapes.perturbed_circle(0.8, 0.05, 3, 7, 128))
    (tmp_path / "mesh" / "run.cfg").write_text(
        "initial.path = loop.pline\nhorizon = 0.02\nsnapshot_stride = 8\n"
        "output_dir = from_file\n")
    assert cli.main(["simulate", "--config", "mesh/run.cfg"]) == 0
    (tmp_path / "mesh" / "loop.pline").unlink()
    replays = {}
    (tmp_path / "replay").mkdir()
    monkeypatch.chdir(tmp_path / "replay")
    for sub in ("first", "scenario", "from_file"):
        code = cli.main(["simulate", "--config", f"../{sub}/run.cfg"])
        replays[sub] = code == 0 and _streams(tmp_path / "replay" / sub) == _streams(tmp_path / sub)
    ok = rerun_ok and all(replays.values())
    report(11, ok, "re-running the seeded config reproduces diagnostics.csv "
                   f"and events.jsonl byte for byte ({rerun_ok}), and so does "
                   f"replaying each artifact's run.cfg ({replays})")
