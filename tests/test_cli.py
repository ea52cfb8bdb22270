import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gaussflow import fileio, harness, shapes
from gaussflow.cli import _build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_COLD_START = """
import sys
sys.path[:0] = sys.argv[1:3]
import gaussflow.cli
print(sum(name.startswith("scipy") for name in sys.modules))
import radial_oracles
from gaussflow.radial import RadialParams
print(repr(radial_oracles.collapse_time_quadrature(
    RadialParams(m=2, a=1.0, b=1.0, c0=1.0, R0_sq=1.0))))
"""


def test_cli_starts_without_scipy():
    # scipy serves only the quadrature oracles of the tests, which import it
    # when called
    here = Path(__file__).resolve().parent
    done = subprocess.run([sys.executable, "-c", _COLD_START, str(here.parent / "src"),
                           str(here)],
                          capture_output=True, text=True, timeout=120, check=True)
    n_scipy, oracle = done.stdout.split()
    assert n_scipy == "0"

    def ei(x):  # exponential integral, by its power series
        return 0.5772156649015329 + math.log(x) + sum(
            x ** k / (k * math.factorial(k)) for k in range(1, 40))

    # closed form of the collapse time for m = 2 and a = b = c0 = R0_sq = 1
    assert float(oracle) == pytest.approx((ei(1.0) - ei(0.5)) / (2.0 * math.e), rel=1e-12)


@pytest.mark.parametrize("argv, field", [
    (("bounds", "--m", "1", "--r0sq", "inf"), "R0_sq"),
    (("bounds", "--m", "1", "--r0sq", "0.5", "--b", "inf"), "b"),
    (("sphere", "--m", "1", "--r0sq", "0.5", "--c", "inf"), "c"),
], ids=["bounds_r0sq", "bounds_b", "sphere_c"])
def test_radial_commands_refuse_infinite_inputs(capsys, argv, field):
    # these printed T2=0 and bound_time=0 with exit 0
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: ") and re.search(rf"\b{field}\b.*inf", err)


def test_ambient_command(capsys):
    code, out, _ = run_cli(capsys, "ambient", "--m", "2", "--point", "0,0,0",
                           "--axes", "0,1")
    assert code == 0
    assert float(out) == pytest.approx(1.0, abs=1e-12)
    code, out, _ = run_cli(capsys, "ambient", "--m", "2", "--point", "0,0,4",
                           "--axes", "0,1")
    assert float(out) == pytest.approx(-3.0 * math.exp(8.0), rel=1e-12)


def test_ambient_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "ambient", "--m", "2", "--point", "0,0,0",
                           "--axes", "1,1")
    assert code == 1 and "error" in err


@pytest.mark.parametrize("flag, value", [("--point", "1,x,0"), ("--axes", "0,y")])
def test_ambient_rejects_malformed_numbers(capsys, flag, value):
    argv = {"--point": "1,0,0", "--axes": "0,1", flag: value}
    code, out, err = run_cli(capsys, "ambient", "--m", "2",
                             *(tok for pair in argv.items() for tok in pair))
    assert code == 1 and out == ""
    assert err.startswith("error: --point and --axes take comma-separated numbers")


def test_bounds_command(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--m", "2", "--r0sq", "1")
    assert code == 0
    assert float(out.split("=")[1]) == pytest.approx(1 - math.exp(-0.5), rel=1e-12)
    code, out, _ = run_cli(capsys, "bounds", "--m", "2", "--r0sq", "5")
    assert float(out.split("=")[1]) == pytest.approx(math.exp(-2.5) / 3, rel=1e-12)
    code, out, _ = run_cli(capsys, "bounds", "--m", "2", "--r0sq", "2")
    assert "stationary" in out


@pytest.mark.parametrize("a, t1", [("1e-10", 0.4999999999875), ("1e-17", 0.5)])
def test_bounds_command_keeps_t1_digits_at_small_a(capsys, a, t1):
    code, out, _ = run_cli(capsys, "bounds", "--m", "1", "--r0sq", "0.5", "--a", a)
    assert code == 0
    assert float(out.split("=")[1]) == pytest.approx(t1, rel=1e-11)


def test_sphere_command_with_csv(tmp_path, capsys):
    csv = tmp_path / "series.csv"
    code, out, _ = run_cli(capsys, "sphere", "--m", "2", "--r0sq", "1",
                           "--csv", str(csv))
    assert code == 0 and "event=COLLAPSE" in out
    t_event = float(out.split(" t=")[1].split()[0])
    assert t_event == pytest.approx(0.2650383592, abs=1e-7)
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "t,R_sq"
    assert len(lines) > 10
    t0, r0 = (float(tok) for tok in lines[1].split(","))
    assert (t0, r0) == (0.0, 1.0)
    t_last = float(lines[-1].split(",")[0])
    assert t_last == pytest.approx(t_event, abs=1e-9)


@pytest.mark.parametrize("argv, line", [
    ("--m 2 --r0sq 1.0", "event=COLLAPSE t=0.26503835929 bound_time=0.393469340287"),
    ("--m 2 --r0sq 2.0 --horizon 1", "event=HORIZON t=1 bound_time=n/a"),
    ("--m 2 --r0sq 1.0 --c-slope -0.5 --horizon 1",
     "event=COLLAPSE t=0.291077734874 bound_time=n/a"),
    ("--m 1 --r0sq 3.0", "event=ESCAPE t=0.00899474627674 bound_time=0.012446767092"),
], ids=["shrink", "stationary", "falling_c_inside", "expand"])
def test_sphere_command_output(capsys, argv, line):
    # a shrinking sphere under falling c, and the fixed sphere, have no bound
    code, out, err = run_cli(capsys, "sphere", *argv.split())
    assert (code, out, err) == (0, line + "\n", "")


def test_sphere_command_reports_unwritable_csv(tmp_path, capsys):
    path = tmp_path / "missing" / "x.csv"
    code, _, err = run_cli(capsys, "sphere", "--m", "2", "--r0sq", "1", "--csv", str(path))
    assert code == 1
    assert err == f"error: [Errno 2] No such file or directory: '{path}'\n"


def test_sphere_command_refuses_infinite_stationary_run(tmp_path, capsys):
    csv = tmp_path / "x.csv"
    code, out, err = run_cli(capsys, "sphere", "--m", "2", "--r0sq", "2",
                             "--horizon", "inf", "--csv", str(csv))
    assert code == 1 and out == "" and "infinite horizon" in err
    assert not csv.exists()


def test_sphere_command_refuses_a_zero_constant(capsys):
    code, out, err = run_cli(capsys, "sphere", "--m", "1", "--r0sq", "0.5", "--a", "0")
    assert code == 1 and out == ""
    assert err == "error: a and b must be positive, got a = 0.0, b = 1.0\n"


def test_simulate_reports_unwritable_output_dir(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("initial.name = circle\ninitial.radius = 0.8\ninitial.n = 32\n"
                   f"horizon = 0.005\noutput_dir = {blocker / 'run'}\n")
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 1 and out == ""
    assert err.startswith("error: [Errno 20] Not a directory")


@pytest.mark.parametrize("flag", ["--c-slope", "--horizon"])
def test_sphere_command_rejects_nan(capsys, flag):
    # a NaN c_slope would print event=HORIZON t=10 for a sphere that collapses at 0.358
    code, out, err = run_cli(capsys, "sphere", "--m", "1", "--r0sq", "0.64", flag, "nan")
    assert code == 1 and out == "" and flag.lstrip("-").replace("-", "_") in err


def test_simulate_verify_render_pipeline(tmp_path, capsys):
    out_dir = tmp_path / "run"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "initial.name = circle\ninitial.radius = 0.8\ninitial.n = 64\n"
        f"horizon = 0.02\nsnapshot_stride = 8\noutput_dir = {out_dir}\n"
    )
    code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 0 and "stop=HORIZON_REACHED" in out

    code, out, _ = run_cli(capsys, "verify", "--trajectory", str(out_dir),
                           "--claim", "SIGN_PRESERVATION_BELOW", "--eps", "0.1")
    assert code == 0 and "holds" in out
    report = json.loads((out_dir / "claim_sign_preservation_below.json").read_text())
    assert report["holds"] is True

    code, out, _ = run_cli(capsys, "verify", "--trajectory", str(out_dir),
                           "--claim", "SPHERICITY")
    assert code == 0 and "holds" in out

    code, out, _ = run_cli(capsys, "verify", "--trajectory", str(out_dir),
                           "--claim", "SPHERE_BARRIER_BELOW",
                           "--eps", "0.05", "--rp0sq", "0.75")
    assert code == 0 and "holds" in out

    code, out, _ = run_cli(capsys, "render", "--trajectory", str(out_dir))
    assert code == 0
    rendered = os.listdir(out_dir / "render")
    assert any(name.endswith(".svg") for name in rendered)


def test_rerun_renders_only_its_own_frames(tmp_path, capsys):
    # a shorter rerun into the same output_dir, rendered again, prints and
    # leaves one frame per row of its own run
    out_dir = tmp_path / "run"
    cfg = tmp_path / "run.cfg"
    counts = []
    for horizon in (0.1, 0.02):
        cfg.write_text("initial.name = circle\ninitial.radius = 0.8\ninitial.n = 32\n"
                       f"horizon = {horizon}\noutput_dir = {out_dir}\n")
        assert run_cli(capsys, "simulate", "--config", str(cfg))[0] == 0
        code, out, _ = run_cli(capsys, "render", "--trajectory", str(out_dir))
        rows = len((out_dir / "diagnostics.csv").read_text().splitlines()) - 1
        frames = [n for n in os.listdir(out_dir / "render") if n.endswith(".svg")]
        assert code == 0 and f"rendered {rows} files" in out and len(frames) == rows
        counts.append(rows)
    assert counts[0] > counts[1]


def test_verify_argument_validation(tmp_path, capsys):
    out_dir = tmp_path / "run"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "initial.name = circle\ninitial.radius = 0.8\ninitial.n = 64\n"
        f"horizon = 0.01\noutput_dir = {out_dir}\n"
    )
    assert run_cli(capsys, "simulate", "--config", str(cfg))[0] == 0
    code, _, err = run_cli(capsys, "verify", "--trajectory", str(out_dir),
                           "--claim", "SIGN_PRESERVATION_BELOW")
    assert code == 1 and "eps" in err
    code, _, err = run_cli(capsys, "verify", "--trajectory", str(out_dir),
                           "--claim", "SPHERE_BARRIER_ABOVE",
                           "--eps", "0.05", "--rp0sq", "0.75")
    assert code == 1  # shrink trajectory cannot satisfy the above-claim


@pytest.mark.parametrize("argv, message", [
    (("ambient", "--m", "2", "--point", "0,0,0", "--axes", "0"), "--axes needs exactly two"),
    (("scenario", "ALL", "--config", "{cfg}"), "scenario ALL needs --config DIR"),
    (("verify", "--trajectory", "{run}", "--claim", "SPHERE_BARRIER_BELOW", "--eps", "0.05"),
     "--eps and --rp0sq are required"),
], ids=["ambient_one_axis", "scenario_all_file", "barrier_without_rp0sq"])
def test_cli_errors_exit_1(tmp_path, capsys, argv, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("initial.name = circle\ninitial.radius = 0.8\ninitial.n = 32\n"
                   f"horizon = 0.005\noutput_dir = {tmp_path / 'run'}\n")
    if "{run}" in argv:
        assert run_cli(capsys, "simulate", "--config", str(cfg))[0] == 0
    code, out, err = run_cli(capsys, *(a.format(cfg=cfg, run=tmp_path / "run") for a in argv))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {message}")


def test_scenario_command_and_failure_exit_code(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(
        "initial.name = circle\ninitial.radius = 0.8\ninitial.n = 64\n"
        "horizon = 0.01\nsnapshot_stride = 8\nsave_meshes = false\n"
    )
    code, out, _ = run_cli(capsys, "scenario", "SHRINK_INSIDE", "--config", str(cfg))
    assert code == 0          # verdict FAIL (horizon too short) still exits 0
    assert out.startswith("FAIL")
    code, _, err = run_cli(capsys, "scenario", "SHRINK_INSIDE", "--config",
                           str(tmp_path / "missing.cfg"))
    assert code == 1 and "error" in err


@pytest.mark.parametrize("key", ["a", "b"])
def test_scenario_names_the_pure_mcf_key(tmp_path, capsys, key):
    # a = 0 or b = 0 is pure MCF, outside the regime the sphere ODE covers
    cfg = tmp_path / "s.cfg"
    cfg.write_text("initial.name = circle\ninitial.radius = 0.8\ninitial.n = 32\n"
                   f"params.variant = FLOWP\nparams.{key} = 0\n")
    code, out, err = run_cli(capsys, "scenario", "SHRINK_INSIDE", "--config", str(cfg))
    assert code == 1 and out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: the sphere ODE needs params.a > 0 and params.b > 0")
    assert f"params.{key} = 0.0" in err


def test_scenario_all(tmp_path, capsys):
    (tmp_path / "STATIONARY.cfg").write_text(
        "initial.name = circle\ninitial.radius = 1.0\ninitial.n = 64\n"
        "snapshot_stride = 32\n")
    (tmp_path / "SHRINK_INSIDE.cfg").write_text(
        "initial.name = circle\ninitial.radius = 0.8\ninitial.n = 96\n"
        "snapshot_stride = 64\nsave_meshes = false\n")
    code, out, _ = run_cli(capsys, "scenario", "ALL", "--config", str(tmp_path))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2 and all(line.startswith("PASS") for line in lines)
    # one line per scenario, in the order SCENARIOS lists them
    assert [line.split()[1] for line in lines] == ["SHRINK_INSIDE:", "STATIONARY:"]



def _simulate_circle(tmp_path, capsys, name, radius, horizon=0.01):
    out_dir = tmp_path / name
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(
        f"initial.name = circle\ninitial.radius = {radius}\ninitial.n = 32\n"
        f"horizon = {horizon}\nsnapshot_stride = 4\noutput_dir = {out_dir}\n")
    assert run_cli(capsys, "simulate", "--config", str(cfg))[0] == 0
    assert len(os.listdir(out_dir / "snapshots")) > 1
    return out_dir


def test_verify_reads_no_mesh(tmp_path, capsys, monkeypatch):
    # every claim reads the diagnostics rows only
    dirs = {side: _simulate_circle(tmp_path, capsys, side, radius)
            for side, radius in (("inside", 0.8), ("outside", 1.2))}

    def no_mesh(path):
        raise AssertionError(f"verify read the mesh {path}")

    monkeypatch.setattr("gaussflow.fileio.read_immersion", no_mesh)
    claims = [
        ("inside", "SIGN_PRESERVATION_BELOW", "--eps", "0.1"),
        ("outside", "SIGN_PRESERVATION_ABOVE", "--eps", "0.1"),
        ("inside", "SPHERE_BARRIER_BELOW", "--eps", "0.05", "--rp0sq", "0.75"),
        ("outside", "SPHERE_BARRIER_ABOVE", "--eps", "0.05", "--rp0sq", "1.33"),
        ("inside", "SPHERICITY"),
        ("outside", "SPHERICITY"),
    ]
    for side, claim, *extra in claims:
        code, out, err = run_cli(capsys, "verify", "--trajectory", str(dirs[side]),
                                 "--claim", claim, *extra)
        assert (code, err) == (0, "") and out.startswith(f"{claim}: holds")


def test_verify_checks_snapshot_count(tmp_path, capsys):
    # the snapshots are not loaded, but their names still number one per row
    out_dir = _simulate_circle(tmp_path, capsys, "run", 0.8)
    snaps = out_dir / "snapshots"
    rows = len(os.listdir(snaps))
    (snaps / sorted(os.listdir(snaps))[-1]).unlink()
    code, out, err = run_cli(capsys, "verify", "--trajectory", str(out_dir),
                             "--claim", "SPHERICITY")
    assert code == 1 and out == ""
    assert f"holds {rows - 1} snapshots for {rows} diagnostics rows" in err


def test_repeated_main_calls_see_only_their_own_arguments(tmp_path, capsys):
    # one parser serves every call in a process; no argument outlives its call
    assert _build_parser() is _build_parser()
    out_dir = _simulate_circle(tmp_path, capsys, "run", 0.8)
    elsewhere = tmp_path / "elsewhere"
    code, out, _ = run_cli(capsys, "render", "--trajectory", str(out_dir),
                           "--out", str(elsewhere))
    assert code == 0 and out.endswith(f"files to {elsewhere}\n")
    frames = sorted(os.listdir(elsewhere))
    code, out, _ = run_cli(capsys, "render", "--trajectory", str(out_dir))
    assert code == 0 and out.endswith(f"files to {out_dir / 'render'}\n")
    assert sorted(os.listdir(out_dir / "render")) == frames

    code, out, _ = run_cli(capsys, "verify", "--trajectory", str(out_dir),
                           "--claim", "SPHERE_BARRIER_BELOW", "--eps", "0.05",
                           "--rp0sq", "0.75")
    assert code == 0 and out.startswith("SPHERE_BARRIER_BELOW: holds")
    code, out, _ = run_cli(capsys, "verify", "--trajectory", str(out_dir),
                           "--claim", "SPHERICITY")
    assert code == 0 and out.startswith("SPHERICITY: holds")
    code, out, err = run_cli(capsys, "verify", "--trajectory", str(out_dir),
                             "--claim", "SPHERE_BARRIER_BELOW", "--eps", "0.05")
    assert code == 1 and err.startswith("error: --eps and --rp0sq are required")


def test_simulate_reports_a_short_obj_vertex_line(tmp_path, capsys):
    obj = tmp_path / "short.obj"
    obj.write_text("v 0 0 1\nv 1 0\nv -0.5 0.8 -0.5\nv -0.5 -0.8 -0.5\n"
                   "f 1 2 3\nf 1 3 4\nf 1 4 2\nf 2 4 3\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"initial.path = {obj}\nhorizon = 0.01\n")
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and str(obj) in err and err.count("\n") == 1


def test_simulate_refuses_an_off_file_with_no_faces(tmp_path, capsys):
    off = tmp_path / "no_faces.off"
    off.write_text("OFF\n4 0 0\n0 0 1\n1 0 -0.5\n-0.5 0.8 -0.5\n-0.5 -0.8 -0.5\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"initial.path = {off}\nhorizon = 0.01\n")
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 1 and out == ""
    assert err == f"error: {off}: face list is empty\n"


@pytest.mark.parametrize("shape_keys", [
    "initial.name = circle\ninitial.n = 64\ninitial.radius = 0.8\nseed = 7\n", ""],
                         ids=["beside_shape_keys", "alone"])
def test_simulate_flows_the_mesh_that_initial_path_names(tmp_path, capsys, monkeypatch,
                                                         shape_keys):
    # a set initial.path is the initial mesh: the circle's keys beside it are
    # not read, and the artifact carries the mesh and names it in their place
    ico = shapes.icosphere(1.0, 1)
    fileio.write_off(tmp_path / "ico.off", ico)
    (tmp_path / "run.cfg").write_text(
        f"initial.path = ico.off\n{shape_keys}horizon = 0.001\noutput_dir = outd\n")
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "simulate", "--config", "run.cfg")
    assert code == 0 and err == ""
    traj = harness.load_trajectory(tmp_path / "outd")
    assert traj.m == 2 and traj.snapshots[0].n_vertices == 42
    assert np.array_equal(traj.snapshots[0].vertices, ico.vertices)
    copy = fileio.read_immersion(tmp_path / "outd" / "initial.off")
    assert np.array_equal(copy.vertices, ico.vertices)
    written = (tmp_path / "outd" / "run.cfg").read_text()
    assert "initial.path = initial.off\n" in written
    assert not re.search(r"^(initial\.(name|n|radius)|seed) =", written, re.MULTILINE)
    # the replay reads the copy and rewrites the directory to the same bytes
    logs = [(tmp_path / "outd" / name).read_bytes() for name in ("diagnostics.csv", "events.jsonl")]
    assert run_cli(capsys, "simulate", "--config", "outd/run.cfg")[0] == 0
    assert [(tmp_path / "outd" / name).read_bytes()
            for name in ("diagnostics.csv", "events.jsonl")] == logs
    assert (tmp_path / "outd" / "run.cfg").read_text() == written


def test_simulate_refuses_the_removed_initial_kind_key(tmp_path, capsys):
    # the first line of every run.cfg written before the key was removed
    cfg = tmp_path / "run.cfg"
    cfg.write_text("initial.kind = builtin\ninitial.name = circle\ninitial.n = 32\n"
                   "horizon = 0.01\n")
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 1 and out == ""
    assert err == "error: unknown config key 'initial.kind'\n"


def test_module_entry_point(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run([sys.executable, "-m", "gaussflow.cli", "bounds", "--m", "2",
                           "--r0sq", "1.0"], capture_output=True, text=True, timeout=120,
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0 and "T1=" in done.stdout


def test_scenario_all_needs_a_named_config(tmp_path, capsys):
    (tmp_path / "other.cfg").write_text("initial.name = circle\n")
    code, out, err = run_cli(capsys, "scenario", "ALL", "--config", str(tmp_path))
    assert code == 1 and out == ""
    assert err == f"error: no <SCENARIO>.cfg files found in {tmp_path}\n"


def test_simulate_refuses_a_negative_seed_for_a_perturbed_shape(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("initial.name = perturbed_circle\ninitial.radius = 0.8\ninitial.amp = 0.05\n"
                   "initial.mode = 3\ninitial.n = 32\nseed = -1\nhorizon = 0.001\n")
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 1 and out == ""
    assert err == "error: seed must be >= 0, got -1\n"


def _damage_events(run):
    (run / "events.jsonl").write_bytes(b'{"event": "stop"}\n{"t": \n')


def _drop_events(run):
    (run / "events.jsonl").unlink()


def _undecodable_csv(run):
    csv = run / "diagnostics.csv"
    csv.write_bytes(csv.read_bytes().replace(b"\n", b"\n\xff", 1))


def _reorder_csv_rows(*order):
    """Replace rows 1 to max(order) of diagnostics.csv, counted after the
    header, by the rows at the given indices: (2, 1) swaps rows 1 and 2,
    (1, 1) repeats row 1."""
    def damage(run):
        header, *rows = (run / "diagnostics.csv").read_text().splitlines(keepends=True)
        rows[1:max(order) + 1] = [rows[i] for i in order]
        (run / "diagnostics.csv").write_text(header + "".join(rows))
    return damage


@pytest.mark.parametrize("line, message", [
    ("thresholds.F2_min = inf", "threshold F2_min = inf must be below F2_max = 1000000.0"),
    ("thresholds.F2_min = 1e6", "threshold F2_min = 1000000.0 must be below F2_max = 1000000.0"),
    ("thresholds.quality_min = 5", "threshold quality_min = 5.0 must be at most 1"),
], ids=["F2_min_inf", "F2_min_at_F2_max", "quality_min_above_1"])
def test_simulate_refuses_a_threshold_window_no_state_satisfies(tmp_path, capsys, line,
                                                                 message):
    # no state satisfies these windows, so a run would only stop at t = 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"initial.name = circle\ninitial.radius = 0.8\ninitial.n = 32\n"
                   f"horizon = 0.01\n{line}\noutput_dir = {tmp_path / 'out'}\n")
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert not (tmp_path / "out").exists()


def _off_header(run):
    first = sorted((run / "snapshots").iterdir())[0]
    first.write_text(first.read_text().replace(" 0\n", " x\n", 1))


def _undecodable_off(run):
    first = sorted((run / "snapshots").iterdir())[0]
    first.write_bytes(b"\xff" + first.read_bytes())


@pytest.mark.parametrize("command, damage, message", [
    ("verify", _damage_events, r"events\.jsonl: malformed line 2"),
    ("verify", _drop_events, "has no events.jsonl"),
    ("verify", _undecodable_csv, r"diagnostics\.csv: malformed row"),
    ("render", _undecodable_csv, r"diagnostics\.csv: malformed row"),
    ("render", _off_header, "malformed OFF"),
    ("render", _undecodable_off, "cannot read OFF"),
], ids=["verify-events", "verify-no-events", "verify-csv", "render-csv", "render-off-header",
        "render-off-bytes"])
def test_damaged_artifacts_give_one_error_line(tmp_path, capsys, command, damage, message):
    run = tmp_path / "run"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("initial.name = icosphere\ninitial.radius = 1.2\ninitial.subdiv = 1\n"
                   f"horizon = 0.002\nsnapshot_stride = 2\noutput_dir = {run}\n")
    assert run_cli(capsys, "simulate", "--config", str(cfg))[0] == 0
    damage(run)
    argv = ["--trajectory", str(run)]
    if command == "verify":
        argv += ["--claim", "SIGN_PRESERVATION_BELOW", "--eps", "0.01"]
    code, out, err = run_cli(capsys, command, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert re.search(message, err)


def _drop_csv_row(index):
    def damage(run):
        lines = (run / "diagnostics.csv").read_text().splitlines(keepends=True)
        del lines[index]
        (run / "diagnostics.csv").write_text("".join(lines))
    return damage


def _events(*stream):
    """Replace events.jsonl by the given lines, each an object, a JSON text
    or a function of the run's stop event."""
    def damage(run):
        stop = json.loads((run / "events.jsonl").read_text().splitlines()[-1])
        lines = [x if isinstance(x, str) else json.dumps(x(stop) if callable(x) else x)
                 for x in stream]
        (run / "events.jsonl").write_text("".join(line + "\n" for line in lines))
    return damage


def _stop(stop):
    return stop


def _later(t):
    return lambda stop: {"event": "note", "t": t * stop["t"]}


@pytest.mark.parametrize("damage, message", [
    (_events("3", "[1]"), r"events\.jsonl: event 1 is not an object with a string 'event'"),
    (_events(), r"events\.jsonl: the stream does not end on its one stop event"),
    (_events({"t": 0.0}, _stop), r"events\.jsonl: event 1 is not an object"),
    (_events(_later(1.0), _later(0.0), _stop), r"events\.jsonl: event 2 has t = 0\.0, outside"),
    (_events(_later(2.0), _stop), r"events\.jsonl: event 1 has t = 0\.02, outside"),
    (_events({"event": "note", "t": math.nan}, _stop), r"events\.jsonl: event 1 has t = nan"),
    (_events({"event": "note", "t": "0"}, _stop), r"events\.jsonl: event 1 has t = '0'"),
    (_events(_stop, _stop), r"events\.jsonl: the stream does not end on its one stop"),
    (_events(_stop, _later(1.0)), r"events\.jsonl: the stream does not end on its one stop"),
    (_events(lambda stop: {**stop, "kind": "POSITION_BLOWUP"}),
     r"events\.jsonl: the stream does not end on its one stop event, equal to result\.json"),
    (_drop_csv_row(1), r"diagnostics\.csv: rows run from t = 0\.0\d+ to 0\.01, not from 0 "),
    (_drop_csv_row(-1), r"diagnostics\.csv: rows run from t = 0\.0 to 0\.0\d*, not from 0 "),
    (_reorder_csv_rows(1, 1), r"diagnostics\.csv: row times do not strictly increase"),
], ids=["not-objects", "empty", "no-name", "time-order", "past-t-stop", "nan-time",
        "string-time", "two-stops", "stop-not-last", "other-stop", "rows-start", "rows-end",
        "row-repeated"])
def test_verify_refuses_an_inconsistent_event_stream(tmp_path, capsys, damage, message):
    run = _simulate_circle(tmp_path, capsys, "run", 0.8)
    damage(run)
    code, out, err = run_cli(capsys, "verify", "--trajectory", str(run),
                             "--claim", "SIGN_PRESERVATION_BELOW", "--eps", "0.1")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert re.search(message, err), err


@pytest.mark.parametrize("command", ["verify", "render"])
@pytest.mark.parametrize("order", [(2, 1), (1, 1)], ids=["swapped", "repeated"])
def test_rows_out_of_time_order_are_refused(tmp_path, capsys, command, order):
    # both loaded before: the rows were checked at their ends only
    run = _simulate_circle(tmp_path, capsys, "run", 0.8, horizon=0.05)
    assert len((run / "diagnostics.csv").read_text().splitlines()) > 4
    _reorder_csv_rows(*order)(run)
    argv = ["--trajectory", str(run)]
    if command == "verify":
        argv += ["--claim", "SIGN_PRESERVATION_BELOW", "--eps", "0.1"]
    code, out, err = run_cli(capsys, command, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert re.search(r"diagnostics\.csv: row times do not strictly increase", err), err


@pytest.mark.parametrize("key, value", [
    ("m", "1"), ("m", 1.5), ("m", True), ("m", 3),
    ("horizon", -1.0), ("horizon", math.nan), ("horizon", "0.01"), ("horizon", False),
    ("t_stop_error", math.inf), ("t_stop_error", -1e-3),
    ("initial_h_max", "x"), ("initial_h_max", None),
    ("integration_error", "x"), ("integration_error", math.nan), ("integration_error", True),
    ("params.variant", 1), ("params.a", True), ("params.c_slope", "0"),
    ("thresholds.h2_max", True), ("thresholds.F2_min", "x"),
    ("stop.kind", "BOGUS"), ("stop.t_stop", True), ("stop.t_stop", math.nan),
    ("stop.detail", None),
])
def test_verify_refuses_a_result_scalar_of_the_wrong_type(tmp_path, capsys, key, value):
    # each of these loaded before, ended in a TypeError traceback, or was refused
    # without naming its key
    run = _simulate_circle(tmp_path, capsys, "run", 0.8)
    written = json.loads((run / "result.json").read_text())
    head, _, sub = key.partition(".")
    # a law constant of True loaded under FLOW (True == 1.0) and under FLOWP
    variants = ("FLOW", "FLOWP") if head == "params" and sub != "variant" else (None,)
    for variant in variants:
        result = json.loads(json.dumps(written))
        section = result[head] if sub else result
        section[sub or key] = value
        if variant:
            result["params"]["variant"] = variant
        (run / "result.json").write_text(json.dumps(result))
        if head == "stop":
            # the stop event equal to result.json's stop, so only the type is off
            lines = (run / "events.jsonl").read_text().splitlines()
            stop = {**json.loads(lines[-1]), "t" if sub == "t_stop" else sub: value}
            (run / "events.jsonl").write_text("\n".join(lines[:-1] + [json.dumps(stop)]) + "\n")
        for argv in (("verify", "--claim", "SIGN_PRESERVATION_BELOW", "--eps", "0.1"),
                     ("render",)):
            code, out, err = run_cli(capsys, argv[0], "--trajectory", str(run), *argv[1:])
            assert code == 1 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            assert f"result.json: {key} = {value!r} is not " in err, err


def test_verify_refuses_a_directory_whose_save_was_interrupted(tmp_path, capsys, monkeypatch):
    # run B into run A's directory, stopped after it wrote run.cfg: the
    # directory loaded as run A under run B's run.cfg before
    run = _simulate_circle(tmp_path, capsys, "run", 0.8)

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr("gaussflow.harness.save_trajectory", interrupted)
    with pytest.raises(KeyboardInterrupt):
        _simulate_circle(tmp_path, capsys, "run", 1.5)
    assert "initial.radius = 1.5" in (run / "run.cfg").read_text()
    code, out, err = run_cli(capsys, "verify", "--trajectory", str(run),
                             "--claim", "SIGN_PRESERVATION_BELOW", "--eps", "0.1")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "does not look like a complete trajectory directory" in err, err


def _drop_vertex_line(run):
    path = run / "snapshots" / "000001.pline"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[1:]))


def _append_a_coordinate(run):
    path = run / "snapshots" / "000001.pline"
    path.write_text("".join(line + " 0.0\n" for line in path.read_text().splitlines()))


def _surface_first_snapshot(run):
    (run / "snapshots" / "000000.pline").unlink()
    fileio.write_off(run / "snapshots" / "000000.off", shapes.icosphere(1.0, 1))


@pytest.mark.parametrize("damage, message", [
    (_drop_vertex_line, r"000001\.pline: positions of shape \(31, 2\) for an immersion "
                        r"of shape \(32, 2\)"),
    (_append_a_coordinate, r"000001\.pline: positions of shape \(32, 3\) for an immersion "
                           r"of shape \(32, 2\)"),
    (_surface_first_snapshot, r"000000\.off: a snapshot of m = 2 in a run of m = 1"),
], ids=["vertex-deleted", "extra-column", "first-snapshot-m"])
def test_render_refuses_a_snapshot_of_another_topology(tmp_path, capsys, damage, message):
    # a 31-gon frame, or a space-curve frame, of a planar 32-gon run was drawn before
    run = _simulate_circle(tmp_path, capsys, "run", 0.8)
    damage(run)
    code, out, err = run_cli(capsys, "render", "--trajectory", str(run))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert re.search(message, err), err
