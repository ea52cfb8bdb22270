"""The benchmark's workloads: the CLI operations each one runs, in order.

Every operation is one ``gaussflow`` command line.  Scenario and simulate
operations read a generated config file and write an artifact directory;
verify and render operations read one of those directories.  Inputs are the
acceptance-suite inputs with default thresholds, except where a scenario
sets them.  Only the perturbed circle of ``artifact_verify`` depends on the
seed.  WORKLOADS.md gives the reasons for each choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

SHRINK_KINDS = ("CURVATURE_BLOWUP", "POSITION_COLLAPSE")
EXPAND_KINDS = ("POSITION_BLOWUP", "CURVATURE_BLOWUP")
HORIZON_KINDS = ("HORIZON_REACHED",)

FLOW0_DEGENERATE = ("FLOW0 SHRINK_INSIDE on the R = 1.2 subdiv-2 icosphere stops with "
                    "MESH_DEGENERATE at t ~ 0.42, below its bound of 0.92, because mesh "
                    "quality drops under 0.05 near the origin (default thresholds)")


@dataclass(frozen=True)
class Op:
    """One CLI call.  ``dir`` is the artifact directory the call writes
    (scenario, simulate) or reads (verify, render), relative to the work
    directory; ``config`` is the config file text of a flow operation."""

    name: str
    argv: tuple
    dir: str
    config: str = ""
    expect_kinds: tuple = ()
    known_failure: str = ""

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def scenario(self) -> str | None:
        return self.argv[1] if self.command == "scenario" else None


def _config(out: str, **keys) -> str:
    lines = [f"{key.replace('__', '.')} = {val}" for key, val in keys.items()]
    return "\n".join(lines + [f"output_dir = {out}"]) + "\n"


def _scenario(name: str, scenario: str, kinds: tuple, known_failure: str = "",
              **keys) -> Op:
    return Op(name, ("scenario", scenario, "--config", f"cfg/{name}.cfg"), f"out/{name}",
              _config(f"out/{name}", save_meshes="false", **keys), kinds, known_failure)


def _simulate(name: str, **keys) -> Op:
    return Op(name, ("simulate", "--config", f"cfg/{name}.cfg"), f"out/{name}",
              _config(f"out/{name}", save_meshes="true", **keys), HORIZON_KINDS)


def curve_collapse(seed: int, shape_extremes) -> list[Op]:
    return [
        _scenario("ode_circle512", "SPHERE_ODE_MATCH", SHRINK_KINDS,
                  initial__name="circle", initial__radius=0.8, initial__n=512,
                  cfl=0.5, snapshot_stride=32),
        _scenario("shrink_ellipse128", "SHRINK_INSIDE", SHRINK_KINDS,
                  initial__name="ellipse", initial__rx=0.9, initial__ry=0.6,
                  initial__n=128, snapshot_stride=32),
    ]


def surface_flow(seed: int, shape_extremes) -> list[Op]:
    s5 = math.sqrt(5.0)
    return [
        _scenario("expand_ico3", "EXPAND_OUTSIDE", EXPAND_KINDS,
                  initial__name="icosphere", initial__radius=2.0, initial__subdiv=3,
                  snapshot_stride=2),
        _scenario("expand_ellipsoid3", "EXPAND_OUTSIDE", EXPAND_KINDS,
                  initial__name="ellipsoid", initial__rx=repr(1.06 * s5),
                  initial__ry=repr(1.03 * s5), initial__rz=repr(s5), initial__subdiv=3,
                  snapshot_stride=2),
        _scenario("ode_ico4", "SPHERE_ODE_MATCH", EXPAND_KINDS,
                  initial__name="icosphere", initial__radius=2.0, initial__subdiv=4,
                  snapshot_stride=2),
        _scenario("shrink_flow0_ico2", "SHRINK_INSIDE", SHRINK_KINDS, FLOW0_DEGENERATE,
                  initial__name="icosphere", initial__radius=1.2, initial__subdiv=2,
                  params__variant="FLOW0", snapshot_stride=2),
    ]


def _claims(sim: Op, m: int, f2_min: float, f2_max: float) -> list[Op]:
    """One sign-preservation claim and sphere barriers at three admissible
    (radius, eps) points, chosen as criterion 5 of the acceptance suite
    chooses them: the barrier radius at 1/4, 1/2 and 3/4 of the mandated
    interval and eps at half the gap, so every claim must hold."""
    if f2_max < m:
        side, gap, lo, hi, edge = "BELOW", m - f2_max, f2_max, 0.5 * (m + f2_max), f2_max
    else:
        side, gap, lo, hi, edge = "ABOVE", f2_min - m, 0.5 * (m + f2_min), f2_min, f2_min
    d = sim.dir
    base = ("verify", "--trajectory", d, "--claim")
    ops = [Op(f"verify_sign_{sim.name}",
              base + (f"SIGN_PRESERVATION_{side}", "--eps", repr(0.5 * gap)), d)]
    for frac in (0.25, 0.5, 0.75):
        rp0 = lo + (hi - lo) * frac
        ops.append(Op(f"verify_barrier{int(frac * 100)}_{sim.name}",
                      base + (f"SPHERE_BARRIER_{side}", "--eps", repr(0.5 * abs(rp0 - edge)),
                              "--rp0sq", repr(rp0)), d))
    return ops


def artifact_verify(seed: int, shape_extremes) -> list[Op]:
    curve = dict(initial__name="perturbed_circle", initial__radius=0.8,
                 initial__amp=0.05, initial__mode=3, initial__n=256)
    sphere = dict(initial__name="icosphere", initial__radius=2.0, initial__subdiv=3)
    c_min, c_max = shape_extremes("perturbed_circle",
                                  {"radius": 0.8, "amp": 0.05, "mode": 3, "seed": seed}, 256)
    s_min, s_max = shape_extremes("icosphere", {"radius": 2.0, "subdiv": 3}, None)
    sim_curve = _simulate("sim_curve", params__variant="FLOW", horizon=0.1,
                          snapshot_stride=4, seed=seed, **curve)
    sim_sphere = _simulate("sim_sphere", horizon=0.03, snapshot_stride=1, **sphere)
    return [
        sim_curve,
        sim_sphere,
        *_claims(sim_curve, 1, c_min, c_max),
        *_claims(sim_sphere, 2, s_min, s_max),
        Op("verify_sphericity_sim_sphere",
           ("verify", "--trajectory", sim_sphere.dir, "--claim", "SPHERICITY"),
           sim_sphere.dir),
        Op("render_curve", ("render", "--trajectory", sim_curve.dir), sim_curve.dir),
        Op("render_sphere", ("render", "--trajectory", sim_sphere.dir), sim_sphere.dir),
    ]


WORKLOADS = {
    "curve_collapse": curve_collapse,
    "surface_flow": surface_flow,
    "artifact_verify": artifact_verify,
}

# The input each workload's per-layer probes run on: its largest input.
PROBE_INPUTS = {
    "curve_collapse": ("circle", {"radius": 0.8}, 512),
    "surface_flow": ("icosphere", {"radius": 2.0, "subdiv": 4}, None),
    "artifact_verify": ("icosphere", {"radius": 2.0, "subdiv": 3}, None),
}
