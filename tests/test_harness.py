import json
import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gaussflow import engine, fileio, render, shapes
from gaussflow.engine import (FLOW, FLOWP, HORIZON_REACHED, POSITION_BLOWUP,
                              POSITION_COLLAPSE, CURVATURE_BLOWUP, FlowParams)
from gaussflow.errors import InvalidConfig, IoError
from gaussflow.harness import (EXPAND_OUTSIDE, ODE_WINDOW, SHRINK_INSIDE,
                               SPHERE_ODE_MATCH, STATIONARY, RunConfig,
                               format_config, load_config, load_trajectory,
                               parse_config_text, run_scenario, run_scenarios,
                               simulate)


# ---------------------------------------------------------------------------
# shapes factory


def test_builtin_circle():
    s = shapes.builtin_shape("circle", {"radius": 0.8}, 512)
    f2 = (s.vertices ** 2).sum(axis=1)
    assert s.n_vertices == 512
    np.testing.assert_allclose(f2, 0.64, rtol=1e-12)


def test_builtin_icosphere_vertex_count():
    s = shapes.builtin_shape("icosphere", {"radius": 2.0, "subdiv": 3})
    assert s.n_vertices == 642
    f2 = (s.vertices ** 2).sum(axis=1)
    assert np.abs(f2 - 4.0).max() < 1e-12


def test_perturbed_circle_bounds_and_determinism():
    params = {"radius": 0.8, "amp": 0.05, "mode": 3, "seed": 7}
    a = shapes.builtin_shape("perturbed_circle", params, 256)
    b = shapes.builtin_shape("perturbed_circle", params, 256)
    np.testing.assert_array_equal(a.vertices, b.vertices)
    f2 = (a.vertices ** 2).sum(axis=1)
    assert f2.max() <= 0.85 ** 2 < 1.0
    c = shapes.builtin_shape("perturbed_circle", {**params, "seed": 8}, 256)
    assert not np.array_equal(a.vertices, c.vertices)


def test_perturbation_must_not_straddle_critical_sphere():
    with pytest.raises(InvalidConfig):
        shapes.builtin_shape("perturbed_circle", {"radius": 1.0, "amp": 0.1, "mode": 2}, 64)


def test_shape_validation():
    with pytest.raises(InvalidConfig):
        shapes.builtin_shape("circle", {"radius": 1.0}, 8)
    with pytest.raises(InvalidConfig):
        shapes.builtin_shape("circle", {"radius": -1.0}, 64)
    with pytest.raises(InvalidConfig):
        shapes.builtin_shape("torus", {"radius": 1.0}, 64)
    with pytest.raises(InvalidConfig):
        shapes.builtin_shape("ellipse", {"rx": 1.0}, 64)


def test_perturbed_sphere_deterministic():
    params = {"radius": 2.0, "amp": 0.03, "mode": 3, "seed": 5, "subdiv": 2}
    a = shapes.builtin_shape("perturbed_sphere", params)
    b = shapes.builtin_shape("perturbed_sphere", params)
    np.testing.assert_array_equal(a.vertices, b.vertices)
    f2 = (a.vertices ** 2).sum(axis=1)
    assert f2.min() > 2.0  # stays outside the critical sphere for m = 2


# ---------------------------------------------------------------------------
# config parsing


FULL_CONFIG = """
# full example
initial.kind = builtin
initial.name = perturbed_circle
initial.radius = 0.8
initial.amp = 0.05
initial.mode = 3
initial.n = 128
params.variant = FLOWP
params.a = 1.5
params.b = 1.0
params.c = 2.0
params.c_slope = 0.1
horizon = 0.25
thresholds.F2_max = 20
snapshot_stride = 8
seed = 7
cfl = 0.3
save_meshes = false
"""


def test_parse_full_config():
    cfg = parse_config_text(FULL_CONFIG)
    assert cfg.initial_name == "perturbed_circle"
    assert cfg.initial_params["amp"] == 0.05
    assert cfg.initial_n == 128
    assert cfg.params == FlowParams(variant=FLOWP, a=1.5, b=1.0, c=2.0, c_slope=0.1)
    assert cfg.thresholds.F2_max == 20.0
    assert cfg.horizon == 0.25 and cfg.seed == 7 and cfg.cfl == 0.3
    assert cfg.save_meshes is False
    initial = cfg.build_initial()
    assert initial.n_vertices == 128


def test_parse_rejects_unknown_keys_and_bad_values():
    with pytest.raises(InvalidConfig):
        parse_config_text("gravity = 9.81\n")
    with pytest.raises(InvalidConfig):
        parse_config_text("horizon\n")
    with pytest.raises(InvalidConfig):
        parse_config_text("horizon = fast\n")
    with pytest.raises(InvalidConfig):
        parse_config_text("params.variant = WAVE\n")
    with pytest.raises(InvalidConfig):
        parse_config_text("cfl = 0.9\n")
    with pytest.raises(InvalidConfig):
        parse_config_text("thresholds.bogus = 1\n")
    with pytest.raises(InvalidConfig):
        parse_config_text("params.m_override = 2\n")


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(FULL_CONFIG)
    cfg = load_config(path)
    assert cfg.horizon == 0.25
    with pytest.raises(InvalidConfig):
        load_config(tmp_path / "missing.cfg")


def test_mesh_file_initial(tmp_path):
    from gaussflow import fileio
    path = tmp_path / "loop.pline"
    fileio.write_pline(path, shapes.circle(0.8, 64))
    cfg = parse_config_text(f"initial.kind = file\ninitial.path = {path}\nhorizon = 0\n")
    s = cfg.build_initial()
    assert s.n_vertices == 64
    cfg_bad = parse_config_text("initial.kind = file\ninitial.path = nope.off\nhorizon = 0\n")
    with pytest.raises(InvalidConfig):
        cfg_bad.build_initial()


# ---------------------------------------------------------------------------
# artifacts round trip


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    cfg = RunConfig(initial_name="circle", initial_params={"radius": 0.8},
                    initial_n=64, params=FlowParams(variant=FLOW), horizon=0.02,
                    snapshot_stride=8,
                    output_dir=str(tmp_path_factory.mktemp("artifacts")))
    traj = simulate(cfg)
    return cfg, traj


def test_artifact_layout_and_csv_header(small_run):
    cfg, traj = small_run
    out = Path(cfg.output_dir)
    header = (out / "diagnostics.csv").read_text().splitlines()[0]
    assert header == "t,dt,min_F2,max_F2,max_h2,weighted_area,mesh_quality"
    events = [json.loads(line) for line in (out / "events.jsonl").read_text().splitlines()]
    assert events[-1]["event"] == "stop"
    assert events[-1]["kind"] == HORIZON_REACHED
    snapdir = os.path.join(cfg.output_dir, "snapshots")
    assert sorted(os.listdir(snapdir))[0] == "000000.pline"


def test_trajectory_round_trip(small_run):
    cfg, traj = small_run
    back = load_trajectory(cfg.output_dir)
    np.testing.assert_array_equal(back.times, traj.times)
    np.testing.assert_array_equal(back.max_F2, traj.max_F2)
    np.testing.assert_array_equal(back.weighted_area, traj.weighted_area)
    assert back.stop.kind == traj.stop.kind
    assert back.stop.t_stop == traj.stop.t_stop
    assert back.params == traj.params
    assert back.initial_h_max == traj.initial_h_max
    assert len(back.snapshots) == traj.n_snapshots
    np.testing.assert_array_equal(back.snapshots[-1].vertices,
                                  traj.snapshots[-1].vertices)


def test_horizon_stop_has_no_time_error(small_run):
    # the run lands on its horizon, so the stop time is exact
    _, traj = small_run
    assert traj.stop.kind == HORIZON_REACHED
    assert traj.t_stop_error == 0.0


def _without_key(outdir, key: str, dest) -> None:
    """Copy an artifact's diagnostics.csv and its result.json minus one
    (dotted) key into dest."""
    record = json.loads((Path(outdir) / "result.json").read_text())
    *parents, last = key.split(".")
    section = record
    for part in parents:
        section = section[part]
    del section[last]
    (dest / "diagnostics.csv").write_text((Path(outdir) / "diagnostics.csv").read_text())
    (dest / "result.json").write_text(json.dumps(record))


def test_load_rejects_non_trajectory(tmp_path, small_run):
    with pytest.raises(IoError):
        load_trajectory(tmp_path)
    # a result.json missing any key is rejected, never filled with defaults
    cfg, _ = small_run
    for key in ("m", "params.variant", "thresholds.h2_max", "stop.kind"):
        partial = tmp_path / key
        partial.mkdir()
        _without_key(cfg.output_dir, key, partial)
        with pytest.raises(IoError, match=repr(key)):
            load_trajectory(partial)


def test_tolerance_does_not_grow_with_the_step(tmp_path, small_run):
    # the time term is the integration-error estimate, not the step taken,
    # and result.json keeps it, so a loaded artifact reports the same tolerance
    cfg, traj = small_run
    assert traj.integration_error > 0.0     # RKC2 steps were taken
    stab = np.mean([engine.stability_dt(s, traj.params, t)
                    for s, t in zip(traj.snapshots, traj.times)])
    assert traj.discretization_tolerance() <= 10.0 * (traj.initial_h_max ** 2 + stab)
    back = load_trajectory(cfg.output_dir)
    assert back.discretization_tolerance() == traj.discretization_tolerance()
    _without_key(cfg.output_dir, "integration_error", tmp_path)
    with pytest.raises(IoError, match="integration_error"):
        load_trajectory(tmp_path)


def test_interrupted_rerun_does_not_load(tmp_path, small_run, monkeypatch):
    # result.json is removed first and written last, so a save cut short
    # leaves a directory that refuses to load rather than mixed files
    cfg = replace(small_run[0], output_dir=str(tmp_path))
    simulate(cfg)
    load_trajectory(tmp_path)
    write, written = fileio.write_immersion, []

    def write_some(path, s):
        if written:
            raise OSError("disk full")
        write(path, s)
        written.append(path)

    monkeypatch.setattr(fileio, "write_immersion", write_some)
    with pytest.raises(OSError):
        simulate(cfg)
    with pytest.raises(IoError):
        load_trajectory(tmp_path)


def test_artifact_config_replays_the_run(tmp_path, small_run):
    cfg, _ = small_run
    assert load_config(Path(cfg.output_dir) / "run.cfg") == cfg
    # a scenario writes its default horizon and threshold window in
    scenario = RunConfig(initial_name="circle", initial_params={"radius": 1.2},
                         initial_n=64, snapshot_stride=8, save_meshes=False,
                         output_dir=str(tmp_path / "scenario"))
    verdict = run_scenario(EXPAND_OUTSIDE, scenario)
    effective = replace(scenario, horizon=1.1 * verdict.bound_time,
                        thresholds=replace(scenario.thresholds, F2_max=ODE_WINDOW[1]))
    assert load_config(tmp_path / "scenario" / "run.cfg") == effective
    assert parse_config_text(format_config(effective)) == effective


def test_format_config_round_trips(tmp_path):
    file_cfg = parse_config_text(f"initial.kind = file\ninitial.path = {tmp_path / 'loop.pline'}\n"
                                 "horizon = 0.5\noutput_dir = out\n")
    ellipsoid = RunConfig(initial_name="ellipsoid",
                          initial_params={"rx": 1.06 * math.sqrt(5.0), "ry": 2.3, "rz": 2.2,
                                          "subdiv": 2},
                          horizon=0.01, thresholds=replace(RunConfig().thresholds, F2_max=20.0))
    for cfg in (parse_config_text(FULL_CONFIG), file_cfg, ellipsoid):
        assert parse_config_text(format_config(cfg)) == cfg
    # what would not read back equal is refused, not written
    with pytest.raises(InvalidConfig):
        format_config(RunConfig(initial_params={"gravity": 9.81}))
    with pytest.raises(InvalidConfig):
        format_config(RunConfig(output_dir="runs#1"))


def test_rerun_is_byte_identical(tmp_path):
    text = ("initial.name = perturbed_circle\ninitial.radius = 0.8\n"
            "initial.amp = 0.05\ninitial.mode = 3\ninitial.n = 64\n"
            "horizon = 0.01\nsnapshot_stride = 4\nseed = 7\n")
    outs = []
    for sub in ("one", "two"):
        cfg = parse_config_text(text)
        cfg.output_dir = str(tmp_path / sub)
        simulate(cfg)
        outs.append((tmp_path / sub / "diagnostics.csv").read_bytes())
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# scenarios


def test_shrink_inside_scenario():
    cfg = RunConfig(initial_name="circle", initial_params={"radius": 0.8},
                    initial_n=96, save_meshes=False)
    verdict = run_scenario(SHRINK_INSIDE, cfg)
    assert verdict.observed_kind in (POSITION_COLLAPSE, CURVATURE_BLOWUP)
    assert verdict.bound_satisfied and verdict.kind_matched and verdict.passed
    assert verdict.bound_time == pytest.approx((1 - math.exp(-0.64)) / 0.72, rel=1e-12)
    assert verdict.trajectory is not None


def test_expand_outside_scenario():
    cfg = RunConfig(initial_name="icosphere",
                    initial_params={"radius": 2.0, "subdiv": 2},
                    snapshot_stride=4, save_meshes=False)
    verdict = run_scenario(EXPAND_OUTSIDE, cfg)
    assert verdict.observed_kind == POSITION_BLOWUP
    assert verdict.bound_satisfied and verdict.passed
    assert verdict.bound_time == pytest.approx(math.exp(-2.0) / 2, rel=1e-12)


def test_stationary_scenario():
    cfg = RunConfig(initial_name="circle", initial_params={"radius": 1.0},
                    initial_n=128, snapshot_stride=64)
    verdict = run_scenario(STATIONARY, cfg)
    assert verdict.observed_kind == HORIZON_REACHED
    assert verdict.metrics["drift_ok"] and verdict.passed


def test_sphere_ode_match_scenario():
    cfg = RunConfig(initial_name="circle", initial_params={"radius": 0.8},
                    initial_n=128, snapshot_stride=32, save_meshes=False)
    verdict = run_scenario(SPHERE_ODE_MATCH, cfg)
    assert verdict.metrics["ode_match_ok"]
    assert verdict.metrics["max_rel_radius_error"] < 1e-3
    assert verdict.passed


def test_scenarios_check_the_configured_law():
    # FLOWP with c = 2 puts the balance circle at |F|^2 = (c/b) m = 2, so a
    # circle with |F|^2 = 1.44 lies inside it although 1.44 > m
    cfg = RunConfig(initial_name="circle", initial_params={"radius": 1.2},
                    initial_n=64, params=FlowParams(variant=FLOWP, c=2.0),
                    horizon=0.01, snapshot_stride=8, save_meshes=False)
    with pytest.raises(InvalidConfig):
        run_scenario(EXPAND_OUTSIDE, cfg)
    verdict = run_scenario(SHRINK_INSIDE, cfg)
    assert verdict.bound_time == pytest.approx(
        (1 - math.exp(-1.44)) / (2 * (2.0 - 1.44)), rel=1e-12)
    balanced = RunConfig(initial_name="circle", initial_params={"radius": math.sqrt(2.0)},
                         initial_n=128, params=FlowParams(variant=FLOWP, c=2.0),
                         snapshot_stride=64)
    assert run_scenario(STATIONARY, balanced).passed


def test_scenario_sign_gates():
    big = RunConfig(initial_name="circle", initial_params={"radius": 1.5}, initial_n=64)
    with pytest.raises(InvalidConfig):
        run_scenario(SHRINK_INSIDE, big)
    small = RunConfig(initial_name="circle", initial_params={"radius": 0.5}, initial_n=64)
    with pytest.raises(InvalidConfig):
        run_scenario(EXPAND_OUTSIDE, small)
    with pytest.raises(InvalidConfig):
        run_scenario(STATIONARY, small)
    with pytest.raises(InvalidConfig):
        run_scenario("IMPLODE", small)


def test_scenario_artifacts_and_verdict_json(tmp_path):
    cfg = RunConfig(initial_name="circle", initial_params={"radius": 0.8},
                    initial_n=64, horizon=0.02, snapshot_stride=8,
                    output_dir=str(tmp_path / "scenario"))
    verdict = run_scenario(SHRINK_INSIDE, cfg)
    data = json.loads((tmp_path / "scenario" / "verdict.json").read_text())
    assert data["scenario"] == SHRINK_INSIDE
    assert data["observed_kind"] == HORIZON_REACHED  # horizon shorter than collapse
    assert data["kind_matched"] is False and data["passed"] is False
    assert verdict.passed is False  # failure reported, never thrown
    # the verdict is reproducible from the emitted artifacts alone
    back = load_trajectory(str(tmp_path / "scenario"))
    assert back.stop.kind == data["observed_kind"]
    assert back.stop.t_stop == data["t_stop"]


def test_run_scenarios_keeps_order():
    configs = [
        (STATIONARY, RunConfig(initial_name="circle", initial_params={"radius": 1.0},
                               initial_n=64, snapshot_stride=32)),
        (SHRINK_INSIDE, RunConfig(initial_name="circle", initial_params={"radius": 0.8},
                                  initial_n=64, horizon=0.01, snapshot_stride=8,
                                  save_meshes=False)),
    ]
    verdicts = run_scenarios(configs)
    assert [v.scenario for v in verdicts] == [STATIONARY, SHRINK_INSIDE]


# ---------------------------------------------------------------------------
# rendering


def test_render_curve_svgs(tmp_path):
    from gaussflow import engine
    traj = engine.run(shapes.circle(0.8, 64), FlowParams(variant=FLOW),
                      horizon=0.06, snapshot_times=[0.0, 0.03, 0.06])
    paths = render.render(traj, outdir=str(tmp_path / "r"))
    assert len(paths) == 3 and all(p.endswith(".svg") for p in paths)
    radii = []
    for p in paths:
        text = Path(p).read_text()
        assert text.startswith("<svg")
        # second reference circle tracks the shrinking max radius
        radii.append(float(text.split('stroke-dasharray="2 3"')[0].rsplit('r="', 1)[1].split('"')[0]))
    assert radii[0] > radii[1] > radii[2]
    again = render.render(traj, outdir=str(tmp_path / "r2"))
    assert Path(paths[0]).read_bytes() == Path(again[0]).read_bytes()


def test_render_surface_off_round_trip(tmp_path):
    from gaussflow import engine, fileio
    traj = engine.run(shapes.icosphere(2.0, 1), FlowParams(variant=FLOW),
                      horizon=0.002, snapshot_times=[0.0, 0.002])
    paths = render.render(traj, outdir=str(tmp_path / "r"))
    offs = [p for p in paths if p.endswith(".off")]
    assert len(offs) == 2
    back = fileio.read_off(offs[-1])
    np.testing.assert_array_equal(back.vertices, traj.snapshots[-1].vertices)
    assert any(p.endswith("diagnostics.csv") for p in paths)


def test_render_requires_snapshots():
    from gaussflow import engine
    traj = engine.run(shapes.circle(0.8, 64), FlowParams(variant=FLOW),
                      horizon=0.01, keep_snapshots=False)
    with pytest.raises(IoError):
        render.render(traj)
