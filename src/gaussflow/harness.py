"""Configuration, scenario orchestration, and trajectory artifacts.

Configs are flat ``key = value`` text files so shell-driven sweeps stay
trivial; one key table (``_KEYS``) drives both the parser and the writer.
A run writes a self-describing artifact directory:

* ``run.cfg``, the config that ran, in the same dialect, so
  ``gaussflow simulate --config <dir>/run.cfg`` replays the run;
* ``diagnostics.csv`` with the exact header
  ``t,dt,min_F2,max_F2,max_h2,weighted_area,mesh_quality``;
* an ``events.jsonl`` stream and numbered snapshot meshes;
* ``result.json``, the run's law, thresholds, stop reason and error
  estimates, written last and atomically, so its presence marks a complete
  save;
* for scenarios, a ``verdict.json``.

``load_trajectory`` rebuilds a trajectory from ``diagnostics.csv``,
``events.jsonl``, the snapshots and ``result.json`` alone, for post-hoc
claim verification and rendering; this module is the only one that knows
the format.

Scenario names reproduce the qualitative regimes of the flow: shrink
strictly inside the critical sphere, expand strictly outside, hold on the
stationary sphere, and lockstep agreement with the radius ODE.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import engine, fileio, radial
from .engine import (CURVATURE_BLOWUP, HORIZON_REACHED, POSITION_BLOWUP,
                     POSITION_COLLAPSE, FlowParams, FlowTrajectory, StopReason,
                     Thresholds)
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


# Every config key: the RunConfig field it sets and the type of its value.
# A field "section.name" is an entry of initial_params or a field of
# FlowParams or Thresholds.  parse_config_text and format_config both read
# this table, so a key one of them knows the other knows too.
_KEYS: dict[str, tuple[str, type]] = {
    "initial.kind": ("initial_kind", str),
    "initial.name": ("initial_name", str),
    "initial.path": ("mesh_path", str),
    "initial.n": ("initial_n", int),
    **{f"initial.{k}": (f"initial_params.{k}", float)
       for k in ("radius", "rx", "ry", "rz", "amp")},
    **{f"initial.{k}": (f"initial_params.{k}", int) for k in ("mode", "subdiv", "seed")},
    "params.variant": ("params.variant", str),
    **{f"params.{k}": (f"params.{k}", float) for k in ("a", "b", "c", "c_slope")},
    "horizon": ("horizon", float),
    **{f"thresholds.{k}": (f"thresholds.{k}", float)
       for k in ("h2_max", "F2_max", "F2_min", "quality_min")},
    "snapshot_stride": ("snapshot_stride", int),
    "seed": ("seed", int),
    "cfl": ("cfl", float),
    "save_meshes": ("save_meshes", bool),
    "output_dir": ("output_dir", str),
}
_SHAPE_KEYS = {f.split(".")[1] for f, _ in _KEYS.values() if f.startswith("initial_params.")}


def parse_config_text(text: str) -> RunConfig:
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidConfig(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise InvalidConfig(f"unknown config key {key!r}")
        name, kind = _KEYS[key]
        try:
            values[name] = val.lower() in ("1", "true", "yes") if kind is bool else kind(val)
        except ValueError as exc:
            raise InvalidConfig(f"line {lineno}: bad value for {key!r}: {exc}") from exc

    top: dict[str, object] = {}
    sections: dict[str, dict] = {"initial_params": {}, "params": {}, "thresholds": {}}
    for name, value in values.items():
        head, _, sub = name.partition(".")
        if sub:
            sections[head][sub] = value
        else:
            top[head] = value
    cfg = RunConfig(**top, initial_params=sections["initial_params"],
                    params=FlowParams(**sections["params"]),
                    thresholds=Thresholds(**sections["thresholds"]))
    if cfg.horizon is not None and cfg.horizon < 0:
        raise InvalidConfig("horizon must be >= 0")
    if cfg.snapshot_stride < 1:
        raise InvalidConfig("snapshot_stride must be >= 1")
    if not 0.0 < cfg.cfl <= 0.69:
        raise InvalidConfig("cfl must lie in (0, 0.69]")
    return cfg


def format_config(cfg: RunConfig) -> str:
    """The config as ``key = value`` text, every set key written, that
    parse_config_text reads back to an equal RunConfig."""
    unknown = set(cfg.initial_params) - _SHAPE_KEYS
    if unknown:
        raise InvalidConfig(f"initial_params has keys no config key sets: {sorted(unknown)}")
    lines = []
    for key, (name, kind) in _KEYS.items():
        head, _, sub = name.partition(".")
        value = getattr(cfg, head)
        if sub:
            value = value.get(sub) if isinstance(value, dict) else getattr(value, sub)
        if value is None:
            continue
        if kind is bool:
            text = "true" if value else "false"
        else:
            text = repr(float(value)) if kind is float else str(value)
        if "#" in text or "\n" in text or text != text.strip():
            raise InvalidConfig(f"{key} = {text!r} cannot be written as a config line")
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise InvalidConfig(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


def _write_config(cfg: RunConfig, outdir) -> str:
    """Write the config that ran as ``run.cfg``, so the directory replays."""
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, "run.cfg")
    with open(path, "w") as fh:
        fh.write(format_config(cfg))
    return path


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
    """Write a trajectory's artifact files.  ``result.json`` goes last, under
    a temporary name then renamed, and any older one is removed first, so a
    directory holds a result record only once every other file is complete."""
    os.makedirs(outdir, exist_ok=True)
    result_path = os.path.join(outdir, "result.json")
    with contextlib.suppress(FileNotFoundError):
        os.remove(result_path)
    paths = []

    csv_path = os.path.join(outdir, "diagnostics.csv")
    write_diagnostics_csv(traj, csv_path)
    paths.append(csv_path)

    ev_path = os.path.join(outdir, "events.jsonl")
    with open(ev_path, "w") as fh:
        for ev in traj.events:
            fh.write(json.dumps(ev, sort_keys=True) + "\n")
    paths.append(ev_path)

    if save_meshes and traj.snapshots:
        snap_dir = os.path.join(outdir, "snapshots")
        os.makedirs(snap_dir, exist_ok=True)
        ext = ".pline" if traj.m == 1 else ".off"
        for i, s in enumerate(traj.snapshots):
            path = os.path.join(snap_dir, f"{i:06d}{ext}")
            fileio.write_immersion(path, s)
            paths.append(path)

    record = {
        "m": traj.m, "horizon": traj.horizon, "params": asdict(traj.params),
        "thresholds": asdict(traj.thresholds), "stop": asdict(traj.stop),
        "t_stop_error": traj.t_stop_error, "initial_h_max": traj.initial_h_max,
        "integration_error": traj.integration_error,
    }
    tmp_path = result_path + ".tmp"
    with open(tmp_path, "w") as fh:
        fh.write(json.dumps(record, indent=1) + "\n")
    os.replace(tmp_path, result_path)
    paths.append(result_path)
    return paths


def load_trajectory(indir) -> FlowTrajectory:
    """Rebuild a trajectory (diagnostics, stop reason, optional meshes)
    from an artifact directory written by save_trajectory."""
    result_path = os.path.join(indir, "result.json")
    csv_path = os.path.join(indir, "diagnostics.csv")
    if not (os.path.exists(result_path) and os.path.exists(csv_path)):
        raise IoError(f"{indir} does not look like a complete trajectory directory")

    def required(record, keys, prefix: str = "") -> dict:
        # a missing key is named, never filled with a default
        missing = [k for k in keys if k not in record]
        if missing:
            raise IoError(f"{result_path} lacks the key {prefix + missing[0]!r}")
        return {k: record[k] for k in keys}

    sections = {"params": FlowParams, "thresholds": Thresholds, "stop": StopReason}
    try:
        with open(result_path) as fh:
            meta = required(json.load(fh), ("m", "horizon", *sections, "t_stop_error",
                                            "initial_h_max", "integration_error"))
        for name, cls in sections.items():
            meta[name] = cls(**required(meta[name], [f.name for f in fields(cls)],
                                        f"{name}."))
    except (ValueError, TypeError, InvalidConfig) as exc:
        raise IoError(f"{result_path}: malformed record: {exc}") from exc

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

    snaps = []
    snap_dir = os.path.join(indir, "snapshots")
    if os.path.isdir(snap_dir):
        for name in sorted(os.listdir(snap_dir)):
            if name.endswith((".pline", ".off", ".obj")):
                snaps.append(fileio.read_immersion(os.path.join(snap_dir, name)))

    return FlowTrajectory(
        **meta, times=cols[0], dts=cols[1], min_F2=cols[2], max_F2=cols[3],
        max_h2=cols[4], weighted_area=cols[5], mesh_quality=cols[6],
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
        _write_config(cfg, cfg.output_dir)
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


def _radial_params(p: FlowParams, m: int, r0_sq: float) -> RadialParams:
    """The radius ODE of the configured law; FLOW0 and FLOW pin a = b = c = 1."""
    return RadialParams(m=m, a=p.a, b=p.b, c0=p.c, R0_sq=r0_sq, c_slope=p.c_slope)


def run_scenario(name: str, cfg: RunConfig) -> ScenarioVerdict:
    """Run one named scenario and classify the outcome.

    Preconditions and bound times come from the radius ODE of the
    configured law: the initial data must lie on the scenario's side of the
    balance sphere |F|^2 = (c/b) m.  Tolerances (2% on bound times, the
    drift and ODE-match limits) are recorded in the verdict so every claim
    is auditable from the artifacts alone.  The artifact's ``run.cfg`` is
    the config that ran, with the scenario's default horizon and threshold
    windows written in, so ``simulate`` replays it.
    """
    if name not in SCENARIOS:
        raise InvalidConfig(f"unknown scenario {name!r}; choose from {SCENARIOS}")
    initial = cfg.build_initial()
    f2 = (initial.vertices ** 2).sum(axis=1)
    max0, min0 = float(f2.max()), float(f2.min())
    th, keep_snapshots = cfg.thresholds, cfg.save_meshes

    if name == SHRINK_INSIDE:
        rp = _radial_params(cfg.params, initial.m, max0)
        if rp.regime() != "shrink":
            raise InvalidConfig(f"SHRINK_INSIDE needs max|F0|^2 < (c/b)m, "
                                f"got {max0:.6g} vs {rp.balance_sq:.6g}")
        bound = radial.bound_time_shrink(rp)
        expected = (CURVATURE_BLOWUP, POSITION_COLLAPSE)

    elif name == EXPAND_OUTSIDE:
        rp = _radial_params(cfg.params, initial.m, min0)
        if rp.regime() != "expand":
            raise InvalidConfig(f"EXPAND_OUTSIDE needs min|F0|^2 > (c/b)m, "
                                f"got {min0:.6g} vs {rp.balance_sq:.6g}")
        bound = radial.bound_time_expand(rp)
        expected = (POSITION_BLOWUP, CURVATURE_BLOWUP)
        if th.F2_max >= 1e6:
            # the explicit scheme cannot ride the escape to 1e6; detect
            # position blow-up at the resolvable window edge instead
            th = replace(th, F2_max=ODE_WINDOW[1])

    elif name == STATIONARY:
        r0_sq = _spherical_radius_sq(initial)
        balance = _radial_params(cfg.params, initial.m, r0_sq).balance_sq
        if abs(r0_sq - balance) > 1e-6:
            raise InvalidConfig(f"STATIONARY needs |F0|^2 = (c/b)m = {balance:.8g}, "
                                f"got {r0_sq:.8g}")
        bound, expected, keep_snapshots = None, (HORIZON_REACHED,), True

    else:  # SPHERE_ODE_MATCH
        rp = _radial_params(cfg.params, initial.m, _spherical_radius_sq(initial))
        if abs(rp.R0_sq - rp.balance_sq) <= 1e-12:
            raise InvalidConfig("SPHERE_ODE_MATCH needs |F0|^2 != (c/b)m")
        shrinking = rp.regime() == "shrink"
        bound = (radial.bound_time_shrink(rp) if shrinking
                 else radial.bound_time_expand(rp))
        expected = ((CURVATURE_BLOWUP, POSITION_COLLAPSE) if shrinking
                    else (POSITION_BLOWUP, CURVATURE_BLOWUP))
        if shrinking and th.F2_min <= 1e-6:
            th = replace(th, F2_min=0.8 * ODE_WINDOW[0])
        if not shrinking and th.F2_max >= 1e6:
            th = replace(th, F2_max=ODE_WINDOW[1])

    horizon = cfg.horizon
    if horizon is None:
        horizon = 0.05 if bound is None else 1.1 * bound
    traj = engine.run(initial, cfg.params, horizon, thresholds=th,
                      stride=cfg.snapshot_stride, cfl=cfg.cfl,
                      keep_snapshots=keep_snapshots)

    if name == STATIONARY:
        radius = math.sqrt(balance)
        drift = max(
            float(np.abs(np.linalg.norm(s.vertices, axis=1) - radius).max())
            for s in traj.snapshots[1:]
        ) / max(horizon, 1e-300)
        metrics = {"drift_per_unit_time": drift,
                   "drift_ok": drift < STATIONARY_DRIFT_LIMIT}
    elif name == SPHERE_ODE_MATCH:
        mask = (traj.max_F2 >= ODE_WINDOW[0]) & (traj.max_F2 <= ODE_WINDOW[1])
        times = traj.times[mask]
        ode = radial.integrate_radial(rp, horizon=float(times[-1]), t_eval=times)
        n = len(ode.eval_R_sq)
        err = float((np.abs(traj.max_F2[mask][:n] - ode.eval_R_sq) / ode.eval_R_sq).max())
        metrics = {"max_rel_radius_error": err, "ode_match_ok": err <= ODE_MATCH_LIMIT}
    else:
        metrics = {}
    verdict = ScenarioVerdict(
        scenario=name, expected_kinds=expected, bound_time=bound,
        observed_kind=traj.stop.kind, t_stop=traj.stop.t_stop,
        bound_satisfied=bound is None or traj.stop.t_stop <= bound * (1.0 + BOUND_SLACK),
        kind_matched=traj.stop.kind in expected, tolerance=BOUND_SLACK,
        metrics=metrics, trajectory=traj,
    )

    if cfg.output_dir:
        effective = replace(cfg, horizon=horizon, thresholds=th)
        verdict.artifacts = [_write_config(effective, cfg.output_dir),
                             *save_trajectory(traj, cfg.output_dir,
                                              save_meshes=cfg.save_meshes)]
        vpath = os.path.join(cfg.output_dir, "verdict.json")
        with open(vpath, "w") as fh:
            fh.write(verdict.to_json() + "\n")
        verdict.artifacts.append(vpath)
    return verdict


def run_scenarios(named_configs: list[tuple[str, RunConfig]]) -> list[ScenarioVerdict]:
    """Run several scenarios one after another, in the given order."""
    return [run_scenario(n, c) for n, c in named_configs]
