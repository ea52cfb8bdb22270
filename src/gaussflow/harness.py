"""Configuration, scenario orchestration, and trajectory artifacts.

Configs are flat ``key = value`` text files (documented keys below) so
shell-driven sweeps stay trivial.  A run writes a self-describing artifact
directory: ``diagnostics.csv`` with the exact header
``t,dt,min_F2,max_F2,max_h2,weighted_area,mesh_quality``, an
``events.jsonl`` stream, a ``run.cfg`` metadata file, numbered snapshot
meshes, and (for scenarios) a ``verdict.json``.  Directories written this
way can be reloaded for post-hoc claim verification and rendering.

Scenario names reproduce the qualitative regimes of the flow: shrink
strictly inside the critical sphere, expand strictly outside, hold on the
stationary sphere, and lockstep agreement with the radius ODE.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import engine, fileio, radial
from .engine import (CURVATURE_BLOWUP, FLOW, FLOWP, FLOW0, HORIZON_REACHED,
                     POSITION_BLOWUP, POSITION_COLLAPSE, FlowParams,
                     FlowTrajectory, StopReason, Thresholds)
from .errors import InvalidConfig, IoError
from .mesh import DiscreteImmersion
from .radial import RadialParams
from .shapes import builtin_shape

CSV_HEADER = "t,dt,min_F2,max_F2,max_h2,weighted_area,mesh_quality"

SHRINK_INSIDE = "SHRINK_INSIDE"
EXPAND_OUTSIDE = "EXPAND_OUTSIDE"
STATIONARY = "STATIONARY"
SPHERE_ODE_MATCH = "SPHERE_ODE_MATCH"
SCENARIOS = (SHRINK_INSIDE, EXPAND_OUTSIDE, STATIONARY, SPHERE_ODE_MATCH)

BOUND_SLACK = 0.02            # scenario time bounds get 2% discretization slack
STATIONARY_DRIFT_LIMIT = 1e-2  # sphere-distance drift per unit time
ODE_MATCH_LIMIT = 1e-3         # relative radius error, window [0.05, 20]
ODE_WINDOW = (0.05, 20.0)


# ---------------------------------------------------------------------------
# configuration


@dataclass
class RunConfig:
    initial_kind: str = "builtin"            # builtin | file
    initial_name: str = "circle"
    initial_params: dict = field(default_factory=dict)
    initial_n: int | None = None
    mesh_path: str | None = None
    params: FlowParams = field(default_factory=FlowParams)
    horizon: float | None = None
    thresholds: Thresholds = field(default_factory=Thresholds)
    output_dir: str | None = None
    snapshot_stride: int = 16
    seed: int = 0
    cfl: float = 0.25
    save_meshes: bool = True

    def build_initial(self) -> DiscreteImmersion:
        if self.initial_kind == "file":
            if not self.mesh_path:
                raise InvalidConfig("initial.kind = file needs initial.path")
            if not os.path.exists(self.mesh_path):
                raise InvalidConfig(f"mesh file {self.mesh_path!r} does not exist")
            return fileio.read_immersion(self.mesh_path)
        if self.initial_kind != "builtin":
            raise InvalidConfig(f"unknown initial.kind {self.initial_kind!r}")
        params = dict(self.initial_params)
        params.setdefault("seed", self.seed)
        return builtin_shape(self.initial_name, params, self.initial_n)


_SHAPE_KEYS = ("radius", "rx", "ry", "rz", "amp", "mode", "subdiv", "seed")


def parse_config_text(text: str) -> RunConfig:
    cfg = RunConfig()
    th: dict[str, float] = {}
    fp: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidConfig(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        try:
            _apply_key(cfg, th, fp, key, val)
        except ValueError as exc:
            raise InvalidConfig(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    if th:
        cfg.thresholds = replace(Thresholds(), **th)
    if fp:
        cfg.params = FlowParams(**fp)
    if cfg.horizon is not None and cfg.horizon < 0:
        raise InvalidConfig("horizon must be >= 0")
    if cfg.snapshot_stride < 1:
        raise InvalidConfig("snapshot_stride must be >= 1")
    return cfg


def _apply_key(cfg: RunConfig, th: dict, fp: dict, key: str, val: str) -> None:
    if key == "initial.kind":
        cfg.initial_kind = val
    elif key == "initial.name":
        cfg.initial_name = val
    elif key == "initial.path":
        cfg.mesh_path = val
    elif key == "initial.n":
        cfg.initial_n = int(val)
    elif key.startswith("initial."):
        sub = key[len("initial."):]
        if sub not in _SHAPE_KEYS:
            raise InvalidConfig(f"unknown config key {key!r}")
        cfg.initial_params[sub] = int(val) if sub in ("mode", "subdiv", "seed") else float(val)
    elif key == "params.variant":
        if val not in (FLOW0, FLOW, FLOWP):
            raise InvalidConfig(f"unknown variant {val!r}")
        fp["variant"] = val
    elif key in ("params.a", "params.b", "params.c", "params.c_slope"):
        fp[key.split(".")[1]] = float(val)
    elif key == "params.m_override":
        fp["m_override"] = int(val)
    elif key == "horizon":
        cfg.horizon = float(val)
    elif key.startswith("thresholds."):
        sub = key[len("thresholds."):]
        if sub not in ("h2_max", "F2_max", "F2_min", "quality_min"):
            raise InvalidConfig(f"unknown config key {key!r}")
        th[sub] = float(val)
    elif key == "output_dir":
        cfg.output_dir = val
    elif key == "snapshot_stride":
        cfg.snapshot_stride = int(val)
    elif key == "seed":
        cfg.seed = int(val)
    elif key == "cfl":
        cfg.cfl = float(val)
        if not 0.0 < cfg.cfl <= 0.69:
            raise InvalidConfig("cfl must lie in (0, 0.69]")
    elif key == "save_meshes":
        cfg.save_meshes = val.lower() in ("1", "true", "yes")
    else:
        raise InvalidConfig(f"unknown config key {key!r}")


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise InvalidConfig(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


# ---------------------------------------------------------------------------
# artifacts


def _fmt(x: float) -> str:
    return repr(float(x))


def write_diagnostics_csv(traj: FlowTrajectory, path) -> None:
    """Write the diagnostics series under CSV_HEADER, floats in repr()."""
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for i in range(traj.n_snapshots):
            fh.write(",".join(_fmt(col[i]) for col in (
                traj.times, traj.dts, traj.min_F2, traj.max_F2,
                traj.max_h2, traj.weighted_area, traj.mesh_quality)) + "\n")


def save_trajectory(traj: FlowTrajectory, outdir, save_meshes: bool = True) -> list[str]:
    os.makedirs(outdir, exist_ok=True)
    paths = []

    csv_path = os.path.join(outdir, "diagnostics.csv")
    write_diagnostics_csv(traj, csv_path)
    paths.append(csv_path)

    ev_path = os.path.join(outdir, "events.jsonl")
    with open(ev_path, "w") as fh:
        for ev in traj.events:
            fh.write(json.dumps(ev, sort_keys=True) + "\n")
    paths.append(ev_path)

    meta = {
        "m": traj.m,
        "variant": traj.params.variant,
        "a": traj.params.a,
        "b": traj.params.b,
        "c": traj.params.c,
        "c_slope": traj.params.c_slope,
        "m_override": traj.params.m_override if traj.params.m_override is not None else "",
        "horizon": traj.horizon,
        "stop.kind": traj.stop.kind,
        "stop.t": traj.stop.t_stop,
        "stop.detail": traj.stop.detail,
        "t_stop_error": traj.t_stop_error,
        "initial_h_max": traj.initial_h_max,
        "thresholds.h2_max": traj.thresholds.h2_max,
        "thresholds.F2_max": traj.thresholds.F2_max,
        "thresholds.F2_min": traj.thresholds.F2_min,
        "thresholds.quality_min": traj.thresholds.quality_min,
    }
    cfg_path = os.path.join(outdir, "run.cfg")
    with open(cfg_path, "w") as fh:
        for key, val in meta.items():
            fh.write(f"{key} = {val}\n")
    paths.append(cfg_path)

    if save_meshes and traj.snapshots:
        snap_dir = os.path.join(outdir, "snapshots")
        os.makedirs(snap_dir, exist_ok=True)
        ext = ".pline" if traj.m == 1 else ".off"
        for i, s in enumerate(traj.snapshots):
            path = os.path.join(snap_dir, f"{i:06d}{ext}")
            fileio.write_immersion(path, s)
            paths.append(path)
    return paths


def load_trajectory(indir) -> FlowTrajectory:
    """Rebuild a trajectory (diagnostics, stop reason, optional meshes)
    from an artifact directory written by save_trajectory."""
    cfg_path = os.path.join(indir, "run.cfg")
    csv_path = os.path.join(indir, "diagnostics.csv")
    if not (os.path.exists(cfg_path) and os.path.exists(csv_path)):
        raise IoError(f"{indir} does not look like a trajectory directory")
    meta: dict[str, str] = {}
    with open(cfg_path) as fh:
        for line in fh:
            if "=" in line:
                key, val = line.split("=", 1)
                meta[key.strip()] = val.strip()

    with open(csv_path) as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise IoError(f"unexpected CSV header {header!r}")
        data = [[float(tok) for tok in line.split(",")] for line in fh if line.strip()]
    if not data:
        raise IoError("empty diagnostics stream")
    cols = np.asarray(data).T

    events = []
    ev_path = os.path.join(indir, "events.jsonl")
    if os.path.exists(ev_path):
        with open(ev_path) as fh:
            events = [json.loads(line) for line in fh if line.strip()]

    def need(key: str) -> str:
        if key not in meta:
            raise IoError(f"{cfg_path} lacks the key {key!r}")
        return meta[key]

    try:
        params = FlowParams(
            variant=need("variant"), a=float(need("a")), b=float(need("b")),
            c=float(need("c")), c_slope=float(need("c_slope")),
            m_override=int(need("m_override")) if need("m_override") else None,
        )
        thresholds = Thresholds(**{k: float(need(f"thresholds.{k}")) for k in
                                   ("h2_max", "F2_max", "F2_min", "quality_min")})
        stop = StopReason(need("stop.kind"), float(need("stop.t")), need("stop.detail"))
        m, horizon = int(need("m")), float(need("horizon"))
        t_stop_error = float(need("t_stop_error"))
        initial_h_max = float(need("initial_h_max"))
    except ValueError as exc:
        raise IoError(f"{cfg_path}: malformed value: {exc}") from exc

    snaps = []
    snap_dir = os.path.join(indir, "snapshots")
    if os.path.isdir(snap_dir):
        for name in sorted(os.listdir(snap_dir)):
            if name.endswith((".pline", ".off", ".obj")):
                snaps.append(fileio.read_immersion(os.path.join(snap_dir, name)))

    return FlowTrajectory(
        params=params, m=m, thresholds=thresholds, horizon=horizon,
        times=cols[0], dts=cols[1], min_F2=cols[2], max_F2=cols[3],
        max_h2=cols[4], weighted_area=cols[5], mesh_quality=cols[6],
        stop=stop, t_stop_error=t_stop_error, initial_h_max=initial_h_max,
        events=events, snapshots=snaps,
    )


def simulate(cfg: RunConfig) -> FlowTrajectory:
    """Run a config end to end and write its artifact directory."""
    initial = cfg.build_initial()
    if cfg.horizon is None:
        raise InvalidConfig("simulate needs an explicit horizon")
    traj = engine.run(initial, cfg.params, cfg.horizon, thresholds=cfg.thresholds,
                      stride=cfg.snapshot_stride, cfl=cfg.cfl,
                      keep_snapshots=cfg.save_meshes)
    if cfg.output_dir:
        save_trajectory(traj, cfg.output_dir, save_meshes=cfg.save_meshes)
    return traj


# ---------------------------------------------------------------------------
# scenarios


@dataclass
class ScenarioVerdict:
    scenario: str
    expected_kinds: tuple
    bound_time: float | None
    observed_kind: str
    t_stop: float
    bound_satisfied: bool
    kind_matched: bool
    tolerance: float
    metrics: dict = field(default_factory=dict)
    artifacts: list = field(default_factory=list)
    trajectory: FlowTrajectory | None = field(default=None, repr=False, compare=False)

    @property
    def passed(self) -> bool:
        gates = [self.bound_satisfied, self.kind_matched]
        gates += [bool(v) for k, v in self.metrics.items() if k.endswith("_ok")]
        return all(gates)

    def to_json(self) -> str:
        payload = {
            "scenario": self.scenario,
            "expected_kinds": list(self.expected_kinds),
            "bound_time": self.bound_time,
            "observed_kind": self.observed_kind,
            "t_stop": self.t_stop,
            "bound_satisfied": self.bound_satisfied,
            "kind_matched": self.kind_matched,
            "tolerance": self.tolerance,
            "metrics": self.metrics,
            "artifacts": self.artifacts,
            "passed": self.passed,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        bound = f" bound={self.bound_time:.6g}" if self.bound_time is not None else ""
        return (f"{status} {self.scenario}: stop={self.observed_kind} "
                f"t_stop={self.t_stop:.6g}{bound}")


def _spherical_radius_sq(initial: DiscreteImmersion) -> float:
    f2 = (initial.vertices ** 2).sum(axis=1)
    spread = (f2.max() - f2.min()) / max(1.0, f2.max())
    if spread > 1e-8:
        raise InvalidConfig("scenario needs spherical initial data")
    return float(f2.max())


def _radial_params(p: FlowParams, m_eff: int, r0_sq: float) -> RadialParams:
    """The radius ODE of the configured law; FLOW0 and FLOW pin a = b = c = 1."""
    return RadialParams(m=m_eff, a=p.a, b=p.b, c0=p.c, R0_sq=r0_sq, c_slope=p.c_slope)


def run_scenario(name: str, cfg: RunConfig) -> ScenarioVerdict:
    """Run one named scenario and classify the outcome.

    Preconditions and bound times come from the radius ODE of the
    configured law: the initial data must lie on the scenario's side of the
    balance sphere |F|^2 = (c/b) m, with m the effective intrinsic
    dimension.  Tolerances (2% on bound times, the drift and ODE-match
    limits) are recorded in the verdict so every claim is auditable from
    the artifacts alone.
    """
    if name not in SCENARIOS:
        raise InvalidConfig(f"unknown scenario {name!r}; choose from {SCENARIOS}")
    initial = cfg.build_initial()
    m_eff = cfg.params.m_eff(initial)
    f2 = (initial.vertices ** 2).sum(axis=1)
    max0, min0 = float(f2.max()), float(f2.min())

    if name == SHRINK_INSIDE:
        rp = _radial_params(cfg.params, m_eff, max0)
        if rp.regime() != "shrink":
            raise InvalidConfig(f"SHRINK_INSIDE needs max|F0|^2 < (c/b)m, "
                                f"got {max0:.6g} vs {rp.balance_sq:.6g}")
        bound = radial.bound_time_shrink(rp)
        horizon = cfg.horizon if cfg.horizon is not None else 1.1 * bound
        traj = engine.run(initial, cfg.params, horizon, thresholds=cfg.thresholds,
                          stride=cfg.snapshot_stride, cfl=cfg.cfl,
                          keep_snapshots=cfg.save_meshes)
        expected = (CURVATURE_BLOWUP, POSITION_COLLAPSE)
        verdict = _timed_verdict(name, traj, expected, bound)

    elif name == EXPAND_OUTSIDE:
        rp = _radial_params(cfg.params, m_eff, min0)
        if rp.regime() != "expand":
            raise InvalidConfig(f"EXPAND_OUTSIDE needs min|F0|^2 > (c/b)m, "
                                f"got {min0:.6g} vs {rp.balance_sq:.6g}")
        bound = radial.bound_time_expand(rp)
        horizon = cfg.horizon if cfg.horizon is not None else 1.1 * bound
        th = cfg.thresholds
        if th.F2_max >= 1e6:
            # the explicit scheme cannot ride the escape to 1e6; detect
            # position blow-up at the resolvable window edge instead
            th = replace(th, F2_max=ODE_WINDOW[1])
        traj = engine.run(initial, cfg.params, horizon, thresholds=th,
                          stride=cfg.snapshot_stride, cfl=cfg.cfl,
                          keep_snapshots=cfg.save_meshes)
        expected = (POSITION_BLOWUP, CURVATURE_BLOWUP)
        verdict = _timed_verdict(name, traj, expected, bound)

    elif name == STATIONARY:
        r0_sq = _spherical_radius_sq(initial)
        balance = _radial_params(cfg.params, m_eff, r0_sq).balance_sq
        if abs(r0_sq - balance) > 1e-6:
            raise InvalidConfig(f"STATIONARY needs |F0|^2 = (c/b)m = {balance:.8g}, "
                                f"got {r0_sq:.8g}")
        horizon = cfg.horizon if cfg.horizon is not None else 0.05
        traj = engine.run(initial, cfg.params, horizon, thresholds=cfg.thresholds,
                          stride=cfg.snapshot_stride, cfl=cfg.cfl, keep_snapshots=True)
        radius = math.sqrt(balance)
        drift = max(
            float(np.abs(np.linalg.norm(s.vertices, axis=1) - radius).max())
            for s in traj.snapshots[1:]
        ) / max(horizon, 1e-300)
        verdict = ScenarioVerdict(
            scenario=name, expected_kinds=(HORIZON_REACHED,), bound_time=None,
            observed_kind=traj.stop.kind, t_stop=traj.stop.t_stop,
            bound_satisfied=True, kind_matched=traj.stop.kind == HORIZON_REACHED,
            tolerance=BOUND_SLACK,
            metrics={"drift_per_unit_time": drift,
                     "drift_ok": drift < STATIONARY_DRIFT_LIMIT},
            trajectory=traj,
        )

    else:  # SPHERE_ODE_MATCH
        rp = _radial_params(cfg.params, m_eff, _spherical_radius_sq(initial))
        if abs(rp.R0_sq - rp.balance_sq) <= 1e-12:
            raise InvalidConfig("SPHERE_ODE_MATCH needs |F0|^2 != (c/b)m")
        shrinking = rp.regime() == "shrink"
        bound = (radial.bound_time_shrink(rp) if shrinking
                 else radial.bound_time_expand(rp))
        horizon = cfg.horizon if cfg.horizon is not None else 1.1 * bound
        th = cfg.thresholds
        if shrinking and th.F2_min <= 1e-6:
            th = replace(th, F2_min=0.8 * ODE_WINDOW[0])
        if not shrinking and th.F2_max >= 1e6:
            th = replace(th, F2_max=ODE_WINDOW[1])
        traj = engine.run(initial, cfg.params, horizon, thresholds=th,
                          stride=cfg.snapshot_stride, cfl=cfg.cfl,
                          keep_snapshots=cfg.save_meshes)
        mask = (traj.max_F2 >= ODE_WINDOW[0]) & (traj.max_F2 <= ODE_WINDOW[1])
        times = traj.times[mask]
        ode = radial.integrate_radial(rp, horizon=float(times[-1]), t_eval=times)
        n = len(ode.eval_R_sq)
        rel = np.abs(traj.max_F2[mask][:n] - ode.eval_R_sq) / ode.eval_R_sq
        err = float(rel.max())
        expected = ((CURVATURE_BLOWUP, POSITION_COLLAPSE) if shrinking
                    else (POSITION_BLOWUP, CURVATURE_BLOWUP))
        verdict = _timed_verdict(name, traj, expected, bound)
        verdict.metrics["max_rel_radius_error"] = err
        verdict.metrics["ode_match_ok"] = err <= ODE_MATCH_LIMIT

    if cfg.output_dir:
        os.makedirs(cfg.output_dir, exist_ok=True)
        verdict.artifacts = save_trajectory(traj, cfg.output_dir,
                                            save_meshes=cfg.save_meshes)
        vpath = os.path.join(cfg.output_dir, "verdict.json")
        with open(vpath, "w") as fh:
            fh.write(verdict.to_json() + "\n")
        verdict.artifacts.append(vpath)
    return verdict


def _timed_verdict(name: str, traj: FlowTrajectory, expected: tuple,
                   bound: float) -> ScenarioVerdict:
    return ScenarioVerdict(
        scenario=name, expected_kinds=expected, bound_time=bound,
        observed_kind=traj.stop.kind, t_stop=traj.stop.t_stop,
        bound_satisfied=traj.stop.t_stop <= bound * (1.0 + BOUND_SLACK),
        kind_matched=traj.stop.kind in expected,
        tolerance=BOUND_SLACK, trajectory=traj,
    )


def run_scenarios(named_configs: list[tuple[str, RunConfig]]) -> list[ScenarioVerdict]:
    """Run several scenarios one after another, in the given order."""
    return [run_scenario(n, c) for n, c in named_configs]
