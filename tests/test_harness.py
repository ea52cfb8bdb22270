import json
import math
import os
import re
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gaussflow import engine, fileio, render, shapes
from gaussflow.mesh import DiscreteImmersion
from gaussflow.engine import (FLOW, FLOWP, HORIZON_REACHED, POSITION_BLOWUP,
                              POSITION_COLLAPSE, CURVATURE_BLOWUP, FlowParams)
from gaussflow.errors import InvalidConfig, IoError
from gaussflow.harness import (EXPAND_OUTSIDE, ODE_WINDOW, SHRINK_INSIDE,
                               SPHERE_ODE_MATCH, STATIONARY, RunConfig,
                               format_config, load_config, load_trajectory,
                               parse_config_text, run_scenario, save_trajectory,
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


# a radius-1 circle perturbed by 10%: inside FLOWP's balance sphere
# (c/b) m = 2 at c = 2, across FLOW's |F|^2 = m = 1
_WOBBLED_UNIT_CIRCLE = dict(initial_name="perturbed_circle",
                            initial_params={"radius": 1.0, "amp": 0.1, "mode": 2},
                            initial_n=64, save_meshes=False)


def test_perturbed_shape_side_is_checked_with_the_configured_law():
    cfg = RunConfig(**_WOBBLED_UNIT_CIRCLE, params=FlowParams(variant=FLOWP, c=2.0))
    f2 = (cfg.build_initial().vertices ** 2).sum(axis=1)
    assert f2.min() < 1.0 < f2.max() < 2.0
    verdict = run_scenario(SHRINK_INSIDE, cfg)
    assert verdict.passed and verdict.observed_kind == POSITION_COLLAPSE


def test_perturbed_shape_across_the_flow_balance_sphere_is_refused_by_the_scenario():
    with pytest.raises(InvalidConfig, match=re.escape("needs max|F0|^2 < (c/b)m")):
        run_scenario(SHRINK_INSIDE, RunConfig(**_WOBBLED_UNIT_CIRCLE))


@pytest.mark.parametrize("name, params, n", [
    ("perturbed_circle", {"radius": 0.8, "amp": 0.05, "mode": 3}, 64),
    ("perturbed_sphere", {"radius": 2.0, "amp": 0.03, "mode": 3, "subdiv": 1}, None),
])
def test_perturbed_shapes_refuse_a_negative_seed_and_amplitudes_outside_0_1(name, params, n):
    with pytest.raises(InvalidConfig, match="seed must be >= 0"):
        shapes.builtin_shape(name, {**params, "seed": -1}, n)
    # from amp = 1 on, the perturbed radius reaches or passes through the origin
    for amp in (-0.01, 1.0, 3.0, math.nan):
        with pytest.raises(InvalidConfig, match=r"amplitude must lie in \[0, 1\)"):
            shapes.builtin_shape(name, {**params, "amp": amp}, n)
    # the seed is read by the perturbed shapes only
    assert shapes.builtin_shape("circle", {"radius": 0.8, "seed": -1}, 64).n_vertices == 64


def test_shape_validation():
    with pytest.raises(InvalidConfig):
        shapes.builtin_shape("circle", {"radius": 1.0}, 8)
    with pytest.raises(InvalidConfig):
        shapes.builtin_shape("circle", {"radius": -1.0}, 64)
    with pytest.raises(InvalidConfig):
        shapes.builtin_shape("torus", {"radius": 1.0}, 64)
    with pytest.raises(InvalidConfig):
        shapes.builtin_shape("ellipse", {"rx": 1.0}, 64)
    with pytest.raises(InvalidConfig, match="needs a vertex count n"):
        shapes.builtin_shape("circle", {"radius": 1.0}, None)
    with pytest.raises(InvalidConfig, match=r"subdiv 8 outside \[0, 7\]"):
        shapes.builtin_shape("icosphere", {"radius": 1.0, "subdiv": 8}, None)


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
    with pytest.raises(InvalidConfig, match="unknown config key 'initial.kind'"):
        parse_config_text("initial.kind = file\n")


def test_parse_rejects_non_finite_values():
    with pytest.raises(InvalidConfig, match="horizon"):
        parse_config_text("horizon = nan\n")
    with pytest.raises(InvalidConfig, match="finite"):
        parse_config_text("params.variant = FLOWP\nparams.a = nan\n")
    assert parse_config_text("horizon = inf\n").horizon == math.inf


def test_parse_booleans():
    for text, value in [("true", True), ("YES", True), ("1", True),
                        ("False", False), ("no", False), ("0", False)]:
        assert parse_config_text(f"save_meshes = {text}\n").save_meshes is value
    # a misspelling must not read as False
    with pytest.raises(InvalidConfig, match="line 2: bad value for 'save_meshes'"):
        parse_config_text("horizon = 0.1\nsave_meshes = flase\n")


@pytest.mark.parametrize("call, match", [
    (lambda: parse_config_text("snapshot_stride = 0"), "snapshot_stride"),
    (lambda: simulate(RunConfig(initial_params={"radius": 0.8}, initial_n=32)),
     "explicit horizon"),
    (lambda: run_scenario(STATIONARY, RunConfig(
        initial_name="ellipse", initial_params={"rx": 1.1, "ry": 0.9}, initial_n=32)),
     "spherical initial data"),
    (lambda: run_scenario(SPHERE_ODE_MATCH, RunConfig(initial_params={"radius": 1.0},
                                                      initial_n=32)),
     r"needs \|F0\|\^2 != \(c/b\)m"),
], ids=["stride_0", "simulate_without_horizon", "stationary_ellipse",
        "ode_match_on_balance_sphere"])
def test_config_errors(call, match):
    with pytest.raises(InvalidConfig, match=match):
        call()


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
    cfg = parse_config_text(f"initial.path = {path}\nhorizon = 0\n")
    s = cfg.build_initial()
    assert s.n_vertices == 64
    cfg_bad = parse_config_text("initial.path = nope.off\nhorizon = 0\n")
    with pytest.raises(InvalidConfig):
        cfg_bad.build_initial()
    # an empty path is a missing file, not a request for the built-in shape
    with pytest.raises(InvalidConfig, match="mesh file '' does not exist"):
        parse_config_text("initial.path =\nhorizon = 0\n").build_initial()


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


def test_load_rejects_malformed_diagnostics_rows(tmp_path, small_run):
    cfg, _ = small_run
    lines = (Path(cfg.output_dir) / "diagnostics.csv").read_text().splitlines()
    for name, row in (("short", lines[2].rsplit(",", 1)[0]), ("text", "x" + lines[2])):
        bad = tmp_path / name
        bad.mkdir()
        for f in ("result.json", "events.jsonl"):
            (bad / f).write_bytes((Path(cfg.output_dir) / f).read_bytes())
        (bad / "diagnostics.csv").write_text("\n".join([*lines[:2], row, *lines[3:]]) + "\n")
        with pytest.raises(IoError, match="diagnostics.csv"):
            load_trajectory(bad)


@pytest.mark.parametrize("name, damage, match", [
    ("diagnostics.csv", lambda text: "t,dt\n" + text.split("\n", 1)[1], "CSV header"),
    ("diagnostics.csv", lambda text: text.split("\n", 1)[0] + "\n", "empty diagnostics"),
    ("result.json", lambda text: "not json\n", "malformed record"),
    # a threshold window run.cfg refuses is a malformed record here too
    ("result.json", lambda text: text.replace('"F2_min": 1e-06', '"F2_min": Infinity'),
     "malformed record: threshold F2_min = inf must be below F2_max"),
], ids=["wrong_header", "header_only", "non_json_result", "F2_min_inf"])
def test_load_rejects_damaged_files(tmp_path, small_run, name, damage, match):
    src = Path(small_run[0].output_dir)
    for f in ("result.json", "diagnostics.csv", "events.jsonl"):
        text = (src / f).read_text()
        (tmp_path / f).write_text(damage(text) if f == name else text)
    with pytest.raises(IoError, match=match):
        load_trajectory(tmp_path, meshes=False)


def _damaged_copy(src, dest, name, data) -> Path:
    """Copy an artifact directory without its snapshots into dest, with the
    file name holding data instead, or left out when data is None."""
    dest.mkdir()
    for f in ("result.json", "diagnostics.csv", "events.jsonl"):
        (dest / f).write_bytes((Path(src) / f).read_bytes())
    (dest / name).unlink()
    if data is not None:
        (dest / name).write_bytes(data)
    return dest


def test_load_names_a_malformed_event_line(tmp_path, small_run):
    src = Path(small_run[0].output_dir)
    good = (src / "events.jsonl").read_bytes()
    lineno = len(good.splitlines()) + 2      # after the good lines and a blank one
    for label, line in (("text", b"{not json\n"), ("bytes", b'{"t": "\xff"}\n')):
        bad = _damaged_copy(src, tmp_path / label, "events.jsonl", good + b"\n" + line)
        with pytest.raises(IoError, match=rf"events\.jsonl: malformed line {lineno}"):
            load_trajectory(bad)


def test_load_refuses_a_directory_without_events(tmp_path, small_run):
    bad = _damaged_copy(small_run[0].output_dir, tmp_path / "run", "events.jsonl", None)
    with pytest.raises(IoError, match="no events.jsonl"):
        load_trajectory(bad, meshes=False)
    # the result.json key checks come first
    _without_key(small_run[0].output_dir, "stop.kind", tmp_path)
    with pytest.raises(IoError, match="'stop.kind'"):
        load_trajectory(tmp_path)


@pytest.mark.parametrize("where", ["header", "row"])
def test_load_refuses_undecodable_diagnostics(tmp_path, small_run, where):
    src = Path(small_run[0].output_dir)
    header, rest = (src / "diagnostics.csv").read_bytes().split(b"\n", 1)
    data = b"t\xff" + header[1:] + b"\n" + rest if where == "header" else (
        header + b"\n\xfe" + rest)
    bad = _damaged_copy(src, tmp_path / "run", "diagnostics.csv", data)
    with pytest.raises(IoError, match="diagnostics.csv"):
        load_trajectory(bad, meshes=False)


def test_result_json_keys_keep_their_order(small_run):
    record = json.loads((Path(small_run[0].output_dir) / "result.json").read_text())
    assert list(record) == ["m", "horizon", "params", "thresholds", "stop", "t_stop_error",
                            "initial_h_max", "integration_error"]


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


def test_rerun_removes_older_snapshots(tmp_path, small_run):
    # a shorter rerun into the same directory writes fewer snapshots; the
    # older run's extra ones must not load with the new rows
    cfg = replace(small_run[0], output_dir=str(tmp_path), snapshot_stride=4)
    assert simulate(cfg).n_snapshots > 2
    short = simulate(replace(cfg, horizon=0.005))
    back = load_trajectory(tmp_path)
    assert len(back.snapshots) == len(back.times) == short.n_snapshots
    np.testing.assert_array_equal(back.snapshots[-1].vertices, short.snapshots[-1].vertices)
    simulate(replace(cfg, save_meshes=False))
    assert load_trajectory(tmp_path).snapshots == []


def test_load_rejects_snapshot_count_mismatch(tmp_path, small_run):
    cfg = replace(small_run[0], output_dir=str(tmp_path))
    simulate(cfg)
    snaps = sorted((tmp_path / "snapshots").iterdir())
    snaps[-1].unlink()
    with pytest.raises(IoError, match="snapshots for"):
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


def test_scenario_artifact_carries_its_mesh_file(tmp_path, monkeypatch):
    # a relative initial.path is read from the config's directory, and the
    # artifact's run.cfg names a copy of the mesh, not the original
    loop = shapes.circle(1.2, 64)
    (tmp_path / "in").mkdir()
    fileio.write_pline(tmp_path / "in" / "loop.pline", loop)
    (tmp_path / "in" / "run.cfg").write_text(
        "initial.path = loop.pline\nsnapshot_stride = 8\n"
        f"save_meshes = false\noutput_dir = {tmp_path / 'out'}\n")
    monkeypatch.chdir(tmp_path)
    cfg = load_config(Path("in") / "run.cfg")
    assert cfg.mesh_path == os.path.join("in", "loop.pline")
    verdict = run_scenario(EXPAND_OUTSIDE, cfg)
    assert str(tmp_path / "out" / "initial.pline") in verdict.artifacts
    replay = load_config(tmp_path / "out" / "run.cfg")
    assert replay.mesh_path == str(tmp_path / "out" / "initial.pline")
    assert replace(replay, mesh_path=cfg.mesh_path) == replace(
        cfg, horizon=1.1 * verdict.bound_time,
        thresholds=replace(cfg.thresholds, F2_max=ODE_WINDOW[1]))
    copy = replay.build_initial()
    assert np.array_equal(copy.vertices, loop.vertices)


def test_format_config_round_trips(tmp_path):
    ellipsoid = RunConfig(initial_name="ellipsoid",
                          initial_params={"rx": 1.06 * math.sqrt(5.0), "ry": 2.3, "rz": 2.2,
                                          "subdiv": 2},
                          horizon=0.01, thresholds=replace(RunConfig().thresholds, F2_max=20.0))
    for cfg in (parse_config_text(FULL_CONFIG), ellipsoid):
        assert parse_config_text(format_config(cfg)) == cfg
    # a mesh file's config leaves out the keys only a built-in shape reads,
    # so they read back as their defaults
    file_cfg = parse_config_text(f"initial.path = {tmp_path / 'loop.pline'}\n"
                                 "initial.name = ellipse\ninitial.n = 64\ninitial.rx = 0.9\n"
                                 "seed = 7\nhorizon = 0.5\noutput_dir = out\n")
    assert parse_config_text(format_config(file_cfg)) == replace(
        file_cfg, initial_name="circle", initial_n=None, initial_params={}, seed=0)
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


def test_stationary_drift_needs_no_meshes():
    # the drift comes from the diagnostics rows, so save_meshes = false
    # keeps no meshes in memory and measures the same drift
    drifts = []
    for save_meshes in (True, False):
        cfg = RunConfig(initial_name="circle", initial_params={"radius": 1.0},
                        initial_n=64, snapshot_stride=2, save_meshes=save_meshes)
        verdict = run_scenario(STATIONARY, cfg)
        assert len(verdict.trajectory.snapshots) == (
            verdict.trajectory.n_snapshots if save_meshes else 0)
        drifts.append(verdict.metrics["drift_per_unit_time"])
    assert drifts[0] == drifts[1]
    # a zero horizon records the initial row only, which cannot drift
    at_start = run_scenario(STATIONARY, replace(cfg, horizon=0.0))
    assert at_start.metrics["drift_per_unit_time"] == 0.0 and at_start.passed


def test_sphere_ode_match_scenario():
    cfg = RunConfig(initial_name="circle", initial_params={"radius": 0.8},
                    initial_n=128, snapshot_stride=32, save_meshes=False)
    verdict = run_scenario(SPHERE_ODE_MATCH, cfg)
    assert verdict.metrics["ode_match_ok"]
    assert verdict.metrics["max_rel_radius_error"] < 1e-3
    assert verdict.passed


def test_sphere_ode_match_error_falls_second_order_on_shrinking_icospheres():
    # the cotan mean curvature lags at the valence-5 vertices, so the
    # shrinking R = 1.2 icosphere misses the 1e-3 gate below subdiv 4; the
    # error falls ~4x per subdivision (6.8e-3 at subdiv 2, 1.7e-3 at 3)
    errs = []
    for subdiv in (2, 3):
        cfg = RunConfig(initial_name="icosphere",
                        initial_params={"radius": 1.2, "subdiv": subdiv}, save_meshes=False)
        errs.append(run_scenario(SPHERE_ODE_MATCH, cfg).metrics["max_rel_radius_error"])
    assert errs[0] / errs[1] >= 3.0


@pytest.mark.parametrize("radius", [0.1, 5.0])
def test_sphere_ode_match_needs_start_in_window(tmp_path, capsys, radius):
    # |F0|^2 = 0.01 or 25 lies outside ODE_WINDOW: no row would be compared
    from gaussflow.cli import main
    text = (f"initial.name = circle\ninitial.radius = {radius}\ninitial.n = 64\n"
            "save_meshes = false\n")
    assert not ODE_WINDOW[0] <= radius ** 2 <= ODE_WINDOW[1]
    with pytest.raises(InvalidConfig, match="window"):
        run_scenario(SPHERE_ODE_MATCH, parse_config_text(text))
    cfg = tmp_path / "ode.cfg"
    cfg.write_text(text)
    assert main(["scenario", SPHERE_ODE_MATCH, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: SPHERE_ODE_MATCH") and "window" in err


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


def test_run_scenarios_keeps_order(tmp_path, monkeypatch, capsys):
    # `scenario ALL` runs each <NAME>.cfg through run_scenario, in SCENARIOS order
    from gaussflow import harness
    from gaussflow.cli import main
    (tmp_path / "STATIONARY.cfg").write_text(
        "initial.name = circle\ninitial.radius = 1.0\ninitial.n = 64\n"
        "snapshot_stride = 32\n")
    (tmp_path / "SHRINK_INSIDE.cfg").write_text(
        "initial.name = circle\ninitial.radius = 0.8\ninitial.n = 64\n"
        "horizon = 0.01\nsnapshot_stride = 8\nsave_meshes = false\n")
    calls = []

    def recording(name, cfg):
        verdict = run_scenario(name, cfg)
        calls.append((name, cfg.initial_params["radius"], verdict))
        return verdict

    monkeypatch.setattr(harness, "run_scenario", recording)
    assert main(["scenario", "ALL", "--config", str(tmp_path)]) == 0
    assert [(name, r) for name, r, _ in calls] == [(SHRINK_INSIDE, 0.8), (STATIONARY, 1.0)]
    assert [v.scenario for _, _, v in calls] == [SHRINK_INSIDE, STATIONARY]
    printed = capsys.readouterr().out.strip().splitlines()
    assert printed == [v.summary() for _, _, v in calls]


def test_scenario_artifacts_and_verdict_json(tmp_path):
    cfg = RunConfig(initial_name="circle", initial_params={"radius": 0.8},
                    initial_n=64, horizon=0.02, snapshot_stride=8,
                    output_dir=str(tmp_path / "scenario"))
    verdict = run_scenario(SHRINK_INSIDE, cfg)
    data = json.loads((tmp_path / "scenario" / "verdict.json").read_text())
    assert set(data) == {"scenario", "expected_kinds", "bound_time", "observed_kind",
                         "t_stop", "bound_satisfied", "kind_matched", "tolerance",
                         "metrics", "artifacts", "passed"}
    assert data["scenario"] == SHRINK_INSIDE
    assert data["observed_kind"] == HORIZON_REACHED  # horizon shorter than collapse
    assert data["kind_matched"] is False and data["passed"] is False
    assert verdict.passed is False  # failure reported, never thrown
    # the verdict is reproducible from the emitted artifacts alone
    back = load_trajectory(str(tmp_path / "scenario"))
    assert back.stop.kind == data["observed_kind"]
    assert back.stop.t_stop == data["t_stop"]


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


def _svg_circles(path) -> dict:
    """Center x and radius of each reference circle, keyed by its dash pattern."""
    found = re.findall(r'<circle cx="([\d.]+)" cy="[\d.]+" r="([\d.]+)".*dasharray="([^"]+)"',
                       Path(path).read_text())
    return {dash: (float(cx), float(r)) for cx, r, dash in found}


def test_render_draws_the_balance_circle_of_the_law_that_ran(tmp_path):
    # FLOWP with c = 2 balances at |F|^2 = (c/b) m = 2, not at m = 1
    from gaussflow import engine
    traj = engine.run(shapes.circle(1.2, 64), FlowParams(variant=FLOWP, c=2.0),
                      horizon=0.01, snapshot_times=[0.0, 0.01])
    circles = _svg_circles(render.render(traj, outdir=str(tmp_path / "c2"))[0])
    (cx, balance), (_, farthest) = circles["6 4"], circles["2 3"]
    assert balance / farthest == pytest.approx(math.sqrt(2.0) / 1.2, rel=1e-5)
    assert cx + balance <= render.SIZE      # the frame holds the balance circle
    # with b = 0 there is no balance sphere, so no circle is drawn for it
    traj = engine.run(shapes.circle(1.2, 64), FlowParams(variant=FLOWP, b=0.0),
                      horizon=0.01, snapshot_times=[0.0, 0.01])
    for path in render.render(traj, outdir=str(tmp_path / "b0")):
        assert set(_svg_circles(path)) == {"2 3"}


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


@pytest.fixture(scope="module")
def surface_dir(tmp_path_factory):
    traj = engine.run(shapes.icosphere(2.0, 1), FlowParams(variant=FLOW), horizon=0.003,
                      snapshot_times=[0.0, 0.001, 0.002, 0.003])
    out = tmp_path_factory.mktemp("surface")
    save_trajectory(traj, str(out))
    return out


def test_loaded_snapshots_share_one_connectivity(surface_dir):
    snaps = load_trajectory(str(surface_dir)).snapshots
    assert len(snaps) == 4
    assert all(s._conn is snaps[0]._conn and s.faces is snaps[0].faces for s in snaps)
    # the sharing lasts one load: another load builds its own
    assert load_trajectory(str(surface_dir)).snapshots[0]._conn is not snaps[0]._conn


@pytest.mark.parametrize("name, damage, message", [
    ("000002.off", lambda first: DiscreteImmersion(2, first.vertices, first.faces[:, ::-1]),
     "its face list differs from the first snapshot's"),
    ("000003.off", lambda first: first.replace_vertices(
        np.vstack([first.vertices, [[0.0, 0.0, 5.0]]])),
     "positions of shape (43, 3) for an immersion of shape (42, 3)"),
    ("000000.pline", lambda first: shapes.circle(1.0, 16),
     "a snapshot of m = 1 in a run of m = 2"),
], ids=["faces", "vertex-count", "first-snapshot-m"])
def test_loaded_snapshot_of_another_topology_is_refused(tmp_path, surface_dir, name, damage,
                                                        message):
    # the snapshots of a run share its m and the first snapshot's topology
    shutil.copytree(surface_dir, tmp_path, dirs_exist_ok=True)
    snap_dir = tmp_path / "snapshots"
    first = fileio.read_off(snap_dir / "000000.off")
    (snap_dir / f"{name[:6]}.off").unlink()
    fileio.write_immersion(snap_dir / name, damage(first))
    with pytest.raises(IoError, match=re.escape(f"{snap_dir / name}: {message}")):
        load_trajectory(str(tmp_path))


@pytest.mark.parametrize("damage", ["nan", "collapsed"])
def test_loaded_snapshot_on_a_shared_connectivity_is_checked(tmp_path, surface_dir, damage):
    shutil.copytree(surface_dir, tmp_path, dirs_exist_ok=True)
    path = tmp_path / "snapshots" / "000002.off"
    s = fileio.read_off(path)
    v = s.vertices.copy()
    if damage == "nan":
        v[5, 2] = np.nan
    else:                          # the first face's first edge has length 0
        v[s.faces[0, 1]] = v[s.faces[0, 0]]
    fileio.write_off(path, s.replace_vertices(v))
    with pytest.raises(IoError) as alone:
        fileio.read_off(path)
    with pytest.raises(IoError) as loaded:
        load_trajectory(str(tmp_path))
    assert str(loaded.value) == str(alone.value) and str(path) in str(alone.value)


def test_surface_render_of_a_loaded_directory_copies_its_snapshots(tmp_path, surface_dir):
    paths = render.render(load_trajectory(str(surface_dir)), outdir=str(tmp_path / "r"))
    frames = [p for p in paths if p.endswith(".off")]
    snaps = sorted((surface_dir / "snapshots").iterdir())
    assert len(frames) == len(snaps) == 4
    for frame, snap in zip(frames, snaps):
        assert Path(frame).read_bytes() == snap.read_bytes()


@pytest.mark.parametrize("shape, ext", [(shapes.circle(0.8, 32), ".svg"),
                                        (shapes.icosphere(2.0, 1), ".off")],
                         ids=["curve", "surface"])
def test_render_removes_stale_frames(tmp_path, shape, ext):
    # a shorter trajectory rendered over a longer one leaves its own frames only
    out = tmp_path / "r"
    long = engine.run(shape, FlowParams(variant=FLOW), horizon=0.004,
                      snapshot_times=np.linspace(0.0, 0.004, 5))
    short = engine.run(shape, FlowParams(variant=FLOW), horizon=0.002,
                       snapshot_times=[0.0, 0.002])
    render.render(long, outdir=str(out))
    (out / "notes.txt").write_text("kept")
    (out / "frame_000001.obj").write_text("kept")      # not a frame render writes
    other = ".off" if ext == ".svg" else ".svg"
    (out / f"frame_000000{other}").write_text("stale")
    paths = render.render(short, outdir=str(out))
    frames = sorted(name for name in os.listdir(out) if name.startswith("frame_"))
    assert frames == sorted(["frame_000000" + ext, "frame_000001" + ext, "frame_000001.obj"])
    assert (out / "notes.txt").read_text() == "kept"
    assert [os.path.basename(p) for p in paths if p.endswith(ext)] == [
        "frame_000000" + ext, "frame_000001" + ext]
    assert Path(paths[1]).read_bytes() == Path(
        render.render(short, outdir=str(tmp_path / "fresh"))[1]).read_bytes()


def test_curve_render_removes_a_surface_renders_csv(tmp_path):
    # the CSV a surface render wrote does not describe the curve rendered
    # over it; an artifact directory keeps its own diagnostics
    out = tmp_path / "r"
    surface = engine.run(shapes.icosphere(2.0, 1), FlowParams(variant=FLOW), horizon=0.002,
                         snapshot_times=[0.0, 0.002])
    curve = engine.run(shapes.circle(0.8, 16), FlowParams(variant=FLOW), horizon=0.002,
                       snapshot_times=[0.0, 0.002])
    render.render(surface, outdir=str(out))
    paths = render.render(curve, outdir=str(out))
    assert sorted(os.listdir(out)) == sorted(os.path.basename(p) for p in paths) == [
        "frame_000000.svg", "frame_000001.svg"]
    artifact = tmp_path / "artifact"
    save_trajectory(curve, str(artifact))
    csv = (artifact / "diagnostics.csv").read_bytes()
    render.render(curve, outdir=str(artifact))
    assert (artifact / "diagnostics.csv").read_bytes() == csv


def test_render_requires_snapshots():
    from gaussflow import engine
    traj = engine.run(shapes.circle(0.8, 64), FlowParams(variant=FLOW),
                      horizon=0.01, keep_snapshots=False)
    with pytest.raises(IoError):
        render.render(traj)
