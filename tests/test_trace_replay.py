"""The benchmark's traced replay (``perfbench/tracing.py``) calls library
functions that nothing in ``src/`` calls: ``FlowParams.m_eff``, the sign
checks and ``RadialParams`` with positional arguments, ``engine.step``,
``engine.initial_state`` and ``engine.stability_dt``.  These tests run the
replay and the layer probes on small inputs, so those calls keep working."""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def bench(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.chdir(tmp_path)
    import tracing
    import workloads
    return tracing, workloads


def test_replay_scenario_verify_render(bench):
    tracing, workloads = bench
    out = "out/shrink16"
    cfg = Path("cfg/shrink16.cfg")
    cfg.parent.mkdir()
    cfg.write_text("initial.name = circle\ninitial.radius = 0.8\ninitial.n = 16\n"
                   f"snapshot_stride = 8\noutput_dir = {out}\n")
    ops = [
        workloads.Op("shrink16", ("scenario", "SHRINK_INSIDE", "--config", str(cfg)), out),
        workloads.Op("sign16", ("verify", "--trajectory", out, "--claim",
                                "SIGN_PRESERVATION_BELOW", "--eps", "0.1"), out),
        workloads.Op("render16", ("render", "--trajectory", out), out),
    ]
    tr = tracing.Tracer()
    flow, report, paths = tracing.replay(ops, tr)
    assert flow.traj.stop.kind in workloads.SHRINK_KINDS
    assert report.holds
    assert len(paths) == flow.traj.n_snapshots
    assert {"cli.scenario", "engine.run", "comparison.check", "render.render"} <= {
        s.name for s in tr.spans}


@pytest.mark.parametrize("probe_input", [
    ("circle", {"radius": 0.8}, 16),
    ("icosphere", {"radius": 2.0, "subdiv": 1}, None),
], ids=["16-gon", "icosphere1"])
def test_probe(bench, tmp_path, probe_input):
    tracing, _ = bench
    ms, rk_steps = tracing.probe(tracing.Tracer(), probe_input, str(tmp_path))
    assert rk_steps > 0
    assert {"engine.step_call_ms", "radial.integrate_ms", "comparison.check_ms",
            "render.render_ms", "mesh.connectivity_ms"} <= set(ms)
    assert all(v >= 0.0 for v in ms.values())
