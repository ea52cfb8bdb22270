"""Configuration, scenario orchestration, and trajectory artifacts.

Configs are flat ``key = value`` text files so shell-driven sweeps stay
trivial; one key table (``_KEYS``) drives both the parser and the writer,
and each key sets one field: a built-in shape's vertex count
(``initial.n``) and ``seed`` are ``initial_params`` entries like its other
shape keys.  A run builds its ``run.cfg`` text before it runs, so a config
that text cannot hold fails before any step or file.  A run writes a
self-describing artifact directory:

* ``run.cfg``, the config that ran, in the same dialect, so
  ``gaussflow simulate --config <dir>/run.cfg`` replays the run from any
  working directory; the mesh file that a set ``initial.path`` names is
  the initial immersion, and it is copied in beside ``run.cfg`` as
  ``initial.pline`` or ``initial.off``, which ``run.cfg`` names in place
  of the keys only a built-in shape reads;
* ``diagnostics.csv`` with the exact header
  ``t,dt,min_F2,max_F2,max_h2,weighted_area,mesh_quality``;
* ``events.jsonl``, one line built from ``result.json``'s stop, in the
  form ``{"detail", "event": "stop", "kind", "t"}``, and numbered snapshot
  meshes;
* ``result.json``, the run's m, law, stop reason and error estimates,
  written last and atomically, so its presence marks a complete save; the
  horizon and threshold windows are ``run.cfg``'s alone, the one record a
  replay reads;
* for scenarios, a ``verdict.json``.

``load_trajectory`` rebuilds a trajectory from ``diagnostics.csv``,
``result.json`` and the snapshots alone; with ``meshes=False``, as claims
load it, it reads no snapshot file and only counts their names against the
rows.  ``result.json`` is the stop's one home: a load refuses an
``events.jsonl`` whose bytes differ from the line built from that stop.
It also refuses rows that do not run from t = 0 to the stop, row times
that do not strictly increase, a ``result.json`` scalar of the wrong type
or range (``_SCALARS``, the sections' fields included, checked before
their records are built), and snapshots whose m or face list differ from
the first one's or whose positions the immersion refuses (among them,
positions not of the first snapshot's shape).  It reads no other
``result.json`` key, so the ``horizon`` and ``thresholds`` that older
directories hold are ignored.  A save removes an older ``result.json``
before it writes any file, ``run.cfg`` included.  No other module knows
the format.

Scenario names reproduce the qualitative regimes of the flow: shrink
strictly inside the critical sphere, expand strictly outside, hold on the
stationary sphere, and lockstep agreement with the radius ODE.  One table
(``_REGIMES``) gives each regime's expected stop kinds and bound time.  A
scenario writes its default horizon and threshold windows into the config
and then runs and saves it on the one path ``simulate`` takes, so it keeps
meshes only when ``save_meshes`` is set; STATIONARY measures its drift from
the diagnostics rows.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import engine, fileio, radial
from .engine import (CURVATURE_BLOWUP, HORIZON_REACHED, POSITION_BLOWUP, POSITION_COLLAPSE,
                     STOP_KINDS, FlowParams, FlowTrajectory, StopReason, Thresholds)
from .errors import InvalidConfig, IoError
from .mesh import DiscreteImmersion
from .shapes import builtin_shape

CSV_HEADER = ",".join(engine.COLUMNS)

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
    initial_name: str = "circle"
    initial_params: dict = field(default_factory=dict)
    mesh_path: str | None = None
    params: FlowParams = field(default_factory=FlowParams)
    horizon: float | None = None
    thresholds: Thresholds = field(default_factory=Thresholds)
    output_dir: str | None = None
    snapshot_stride: int = 16
    cfl: float = 0.25
    save_meshes: bool = True

    def build_initial(self) -> DiscreteImmersion:
        """The mesh file at ``mesh_path`` when it is set, even to an empty
        path, and otherwise the built-in shape ``initial_name`` built from
        ``initial_params`` as they are, its vertex count ``n`` and ``seed``
        among them."""
        if self.mesh_path is not None:
            if not os.path.exists(self.mesh_path):
                raise InvalidConfig(f"mesh file {self.mesh_path!r} does not exist")
            return fileio.read_immersion(self.mesh_path)
        return builtin_shape(self.initial_name, self.initial_params,
                             self.initial_params.get("n"))


# Every config key: the RunConfig field it sets and the type of its value.
# A field "section.name" is an entry of initial_params or a field of
# FlowParams or Thresholds.  parse_config_text and format_config both read
# this table, so a key one of them knows the other knows too.
_KEYS: dict[str, tuple[str, type]] = {
    "initial.name": ("initial_name", str),
    "initial.path": ("mesh_path", str),
    "initial.n": ("initial_params.n", int),
    **{f"initial.{k}": (f"initial_params.{k}", float)
       for k in ("radius", "rx", "ry", "rz", "amp")},
    **{f"initial.{k}": (f"initial_params.{k}", int) for k in ("mode", "subdiv")},
    "params.variant": ("params.variant", str),
    **{f"params.{k}": (f"params.{k}", float) for k in ("a", "b", "c", "c_slope")},
    "horizon": ("horizon", float),
    **{f"thresholds.{k}": (f"thresholds.{k}", float)
       for k in ("h2_max", "F2_max", "F2_min", "quality_min")},
    "snapshot_stride": ("snapshot_stride", int),
    "seed": ("initial_params.seed", int),
    "cfl": ("cfl", float),
    "save_meshes": ("save_meshes", bool),
    "output_dir": ("output_dir", str),
}
_SHAPE_KEYS = {f.split(".")[1] for f, _ in _KEYS.values() if f.startswith("initial_params.")}
# the keys only a built-in shape reads, which a run from a mesh file ignores
_BUILTIN_KEYS = {k for k, (f, _) in _KEYS.items() if f.startswith("initial_")}
_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _parse_bool(text: str) -> bool:
    try:
        return _BOOLS[text.lower()]
    except KeyError:
        raise ValueError(f"expected one of true/false/yes/no/1/0, got {text!r}") from None


def _parse_value(key: str, text, where: str = ""):
    """The value of the known config key ``key`` written as ``text``, or
    converted from a value such as a float key's int; a refusal names the
    key and the reason, after ``where`` (a file's line)."""
    kind = _KEYS[key][1]
    try:
        return _parse_bool(text) if kind is bool else kind(text)
    except (TypeError, ValueError) as exc:
        raise InvalidConfig(f"{where}bad value for {key!r}: {exc}") from exc


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
        values[_KEYS[key][0]] = _parse_value(key, val, f"line {lineno}: ")

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
    if cfg.horizon is not None and not cfg.horizon >= 0:
        raise InvalidConfig("horizon must be >= 0")
    if cfg.snapshot_stride < 1:
        raise InvalidConfig("snapshot_stride must be >= 1")
    engine.check_cfl(cfg.cfl)
    return cfg


def format_config(cfg: RunConfig) -> str:
    """The config as ``key = value`` text, every set key the run reads
    written, so a built-in shape's config reads back through
    parse_config_text to an equal RunConfig.  With ``mesh_path`` set the
    file is the initial mesh, and the keys only a built-in shape reads
    (``initial.name`` and the ``initial_params`` keys, ``initial.n`` and
    ``seed`` among them) are left out.  Each value is read back through its
    key's own parser, so one it refuses, such as an int key holding a float
    or a bool or a float key holding "x", raises InvalidConfig naming the
    key (and no line of a text the caller never saw); then the whole text
    is read back."""
    unknown = set(cfg.initial_params) - _SHAPE_KEYS
    if unknown:
        raise InvalidConfig(f"initial_params has keys no config key sets: {sorted(unknown)}")
    lines = []
    for key, (name, kind) in _KEYS.items():
        if cfg.mesh_path is not None and key in _BUILTIN_KEYS:
            continue
        head, _, sub = name.partition(".")
        value = getattr(cfg, head)
        if sub:
            value = value.get(sub) if isinstance(value, dict) else getattr(value, sub)
        if value is None:
            continue
        if kind is bool:
            text = "true" if value else "false"
        else:
            text = repr(_parse_value(key, value)) if kind is float else str(value)
        if "#" in text or "\n" in text or text != text.strip():
            raise InvalidConfig(f"{key} = {text!r} cannot be written as a config line")
        _parse_value(key, text)
        lines.append(f"{key} = {text}")
    text = "\n".join(lines) + "\n"
    parse_config_text(text)
    return text


def load_config(path) -> RunConfig:
    """Read a config file; a relative ``initial.path`` is taken relative to
    the file's directory, not the working directory."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise InvalidConfig(f"cannot read config {path}: {exc}") from exc
    cfg = parse_config_text(text)
    if cfg.mesh_path:
        cfg.mesh_path = os.path.join(os.path.dirname(path), cfg.mesh_path)
    return cfg


# ---------------------------------------------------------------------------
# artifacts


# result.json's keys in written order; the dataclass sections are written as dicts
_SECTIONS = {"params": FlowParams, "stop": StopReason}
_RESULT_KEYS = ("m", *_SECTIONS, "t_stop_error", "initial_h_max", "integration_error")
# a section field of run.cfg's key table has the same type in result.json
_TYPED = {str: (lambda x: type(x) is str, "a string"),
          float: (lambda x: type(x) in (int, float), "a number")}
# result.json's scalars, "section.field" inside a section: what a run can
# write for each, and its description.  type() is exact, so a bool (a
# subclass of int) is never a number here.
_SCALARS = {
    "m": (lambda x: type(x) is int and x in (1, 2), "1 or 2"),
    **dict.fromkeys(("t_stop_error", "initial_h_max", "integration_error", "stop.t_stop"),
                    (lambda x: type(x) in (int, float) and 0 <= x < math.inf,
                     "a finite number >= 0")),
    **{key: _TYPED[kind] for key, (_, kind) in _KEYS.items() if key.startswith("params.")},
    "stop.kind": (lambda x: x in STOP_KINDS, "one of " + ", ".join(STOP_KINDS)),
    "stop.detail": _TYPED[str],
}


def _stop_line(stop: StopReason) -> str:
    """The one line of ``events.jsonl``: result.json's stop as a stop event."""
    return json.dumps({"event": "stop", "kind": stop.kind, "t": stop.t_stop,
                       "detail": stop.detail}, sort_keys=True) + "\n"


def write_diagnostics_csv(traj: FlowTrajectory, path) -> None:
    """Write the diagnostics series under CSV_HEADER, floats in repr()."""
    fileio.write_table(path, CSV_HEADER, [getattr(traj, name) for name in engine.COLUMNS.values()])


def _snapshot_names(snap_dir) -> list[str]:
    """The numbered mesh snapshots in snap_dir, in row order."""
    if not os.path.isdir(snap_dir):
        return []
    return sorted(name for name in os.listdir(snap_dir)
                  if name.endswith((".pline", ".off")) and name.split(".")[0].isdigit())


def _remove_result(outdir) -> str:
    """Make outdir and remove its result.json, if any, whose path it returns:
    until a new one is renamed in, the directory loads as no run."""
    os.makedirs(outdir, exist_ok=True)
    result_path = os.path.join(outdir, "result.json")
    with contextlib.suppress(FileNotFoundError):
        os.remove(result_path)
    return result_path


def save_trajectory(traj: FlowTrajectory, outdir, save_meshes: bool = True) -> list[str]:
    """Write a trajectory's artifact files.  ``result.json`` goes last, under
    a temporary name then renamed, and any older one is removed first, so a
    directory holds a result record only once every other file is complete.
    An older run's numbered snapshots are removed too, so none of them load
    with this run's rows.  ``events.jsonl`` is the one line built from
    ``traj.stop``, which ``result.json`` records too."""
    result_path = _remove_result(outdir)
    snap_dir = os.path.join(outdir, "snapshots")
    for name in _snapshot_names(snap_dir):
        os.remove(os.path.join(snap_dir, name))
    paths = []

    csv_path = os.path.join(outdir, "diagnostics.csv")
    write_diagnostics_csv(traj, csv_path)
    paths.append(csv_path)

    ev_path = os.path.join(outdir, "events.jsonl")
    with open(ev_path, "w") as fh:
        fh.write(_stop_line(traj.stop))
    paths.append(ev_path)

    if save_meshes and traj.snapshots:
        os.makedirs(snap_dir, exist_ok=True)
        ext = ".pline" if traj.m == 1 else ".off"
        for i, s in enumerate(traj.snapshots):
            path = os.path.join(snap_dir, f"{i:06d}{ext}")
            fileio.write_immersion(path, s)
            paths.append(path)

    record = {key: getattr(traj, key) for key in _RESULT_KEYS}
    record.update((name, asdict(record[name])) for name in _SECTIONS)
    tmp_path = result_path + ".tmp"
    with open(tmp_path, "w") as fh:
        fh.write(json.dumps(record, indent=1) + "\n")
    os.replace(tmp_path, result_path)
    paths.append(result_path)
    return paths


def load_trajectory(indir, meshes: bool = True) -> FlowTrajectory:
    """Rebuild a trajectory from an artifact directory written by
    save_trajectory.  ``meshes=False`` reads no snapshot file, but still
    checks that the snapshot names number one per diagnostics row.  A
    missing or malformed file raises IoError naming it; ``events.jsonl`` is
    not parsed but compared, byte for byte, with the line built from
    ``result.json``'s validated stop."""
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

    try:
        with open(result_path) as fh:
            meta = required(json.load(fh), _RESULT_KEYS)
        for name, cls in _SECTIONS.items():
            meta[name] = required(meta[name], [f.name for f in fields(cls)], f"{name}.")
        for key, (valid, what) in _SCALARS.items():
            head, _, sub = key.partition(".")
            value = meta[head][sub] if sub else meta[head]
            if not valid(value):
                raise IoError(f"{result_path}: {key} = {value!r} is not {what}")
        for name, cls in _SECTIONS.items():
            meta[name] = cls(**meta[name])
    except (ValueError, TypeError, InvalidConfig) as exc:
        raise IoError(f"{result_path}: malformed record: {exc}") from exc
    ev_path = os.path.join(indir, "events.jsonl")
    if not os.path.exists(ev_path):
        raise IoError(f"{indir} has no events.jsonl")
    stop, line = meta["stop"], _stop_line(meta["stop"])
    with open(ev_path, "rb") as fh:
        if fh.read() != line.encode():
            raise IoError(f"{ev_path} is not the one line built from result.json's stop, {line!r}")

    try:
        with open(csv_path) as fh:
            header = fh.readline().strip()
            if header != CSV_HEADER:
                raise IoError(f"unexpected CSV header {header!r}")
            data = [[float(tok) for tok in line.split(",")] for line in fh if line.strip()]
    except ValueError as exc:           # undecodable bytes raise UnicodeDecodeError, a ValueError
        raise IoError(f"{csv_path}: malformed row: {exc}") from exc
    if not data:
        raise IoError("empty diagnostics stream")
    if any(len(row) != len(engine.COLUMNS) for row in data):
        raise IoError(f"{csv_path}: a row does not have the {len(engine.COLUMNS)} columns "
                      "of its header")
    cols = np.asarray(data).T
    first, last = float(cols[0, 0]), float(cols[0, -1])
    if first != 0.0 or last != stop.t_stop:
        raise IoError(f"{csv_path}: rows run from t = {first!r} to {last!r}, "
                      f"not from 0 to t_stop = {stop.t_stop!r}")
    if not np.all(np.diff(cols[0]) > 0):
        raise IoError(f"{csv_path}: row times do not strictly increase")

    snap_dir = os.path.join(indir, "snapshots")
    names = _snapshot_names(snap_dir)
    if names and len(names) != len(data):
        raise IoError(f"{snap_dir} holds {len(names)} snapshots for {len(data)} diagnostics rows")
    snaps = []
    for name in names if meshes else ():
        # the snapshots of one run share a face list: its connectivity is
        # built once, and a snapshot that differs from the first is refused
        path = os.path.join(snap_dir, name)
        snaps.append(fileio.read_immersion(path, like=snaps[0] if snaps else None))
        if snaps[-1].m != meta["m"]:
            raise IoError(f"{path}: a snapshot of m = {snaps[-1].m} in a run of m = {meta['m']}")

    return FlowTrajectory(**meta, **dict(zip(engine.COLUMNS.values(), cols)), snapshots=snaps)


def _run(cfg: RunConfig, initial: DiscreteImmersion) -> tuple[FlowTrajectory, list[str]]:
    """Run a config with an explicit horizon from its initial immersion and,
    when it names an output directory, write there ``run.cfg``, the mesh
    file the run read (copied in, as ``run.cfg`` names it, so the replay
    does not need the original) and the trajectory.  Returns the trajectory
    and the paths written.  The ``run.cfg`` text is built first, so a
    config that format_config refuses fails before the run and before any
    file is touched."""
    copy = None
    if cfg.mesh_path is not None:
        copy = "initial.pline" if initial.m == 1 else "initial.off"
    text = format_config(replace(cfg, mesh_path=copy))
    traj = engine.run(initial, cfg.params, cfg.horizon, thresholds=cfg.thresholds,
                      stride=cfg.snapshot_stride, cfl=cfg.cfl,
                      keep_snapshots=cfg.save_meshes)
    if not cfg.output_dir:
        return traj, []
    # an older run's result.json goes first, so no file of this run is
    # written while the directory still loads as that run
    _remove_result(cfg.output_dir)
    paths = [os.path.join(cfg.output_dir, "run.cfg")]
    if copy is not None:
        paths.append(os.path.join(cfg.output_dir, copy))
        fileio.write_immersion(paths[1], initial)
    with open(paths[0], "w") as fh:
        fh.write(text)
    return traj, [*paths, *save_trajectory(traj, cfg.output_dir, save_meshes=cfg.save_meshes)]


def simulate(cfg: RunConfig) -> FlowTrajectory:
    """Run a config end to end and write its artifact directory."""
    initial = cfg.build_initial()
    if cfg.horizon is None:
        raise InvalidConfig("simulate needs an explicit horizon")
    return _run(cfg, initial)[0]


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
        """Every field but the in-memory trajectory, plus ``passed``."""
        payload = {f.name: getattr(self, f.name) for f in fields(self)
                   if f.name != "trajectory"}
        return json.dumps({**payload, "passed": self.passed}, indent=2, sort_keys=True)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        bound = f" bound={self.bound_time:.6g}" if self.bound_time is not None else ""
        return (f"{status} {self.scenario}: stop={self.observed_kind} "
                f"t_stop={self.t_stop:.6g}{bound}")


# What the dichotomy predicts on each side of the balance sphere: the stop
# kinds a run may end with, and the closed-form bound on the stop time.
_REGIMES = {
    "shrink": ((CURVATURE_BLOWUP, POSITION_COLLAPSE), radial.bound_time_shrink),
    "expand": ((POSITION_BLOWUP, CURVATURE_BLOWUP), radial.bound_time_expand),
    "stationary": ((HORIZON_REACHED,), None),
}


def run_scenario(name: str, cfg: RunConfig) -> ScenarioVerdict:
    """Run one named scenario and classify the outcome.

    Preconditions and bound times come from the radius ODE of the
    configured law: the initial data must lie on the scenario's side of the
    balance sphere |F|^2 = (c/b) m.  Tolerances (2% on bound times, the
    drift and ODE-match limits) are recorded in the verdict so every claim
    is auditable from the artifacts alone.  The scenario's default horizon
    and threshold windows are written into the config, which then runs and
    saves as ``simulate`` runs and saves it, so the artifact's ``run.cfg``
    replays the run.
    """
    if name not in SCENARIOS:
        raise InvalidConfig(f"unknown scenario {name!r}; choose from {SCENARIOS}")
    initial = cfg.build_initial()
    f2 = (initial.vertices ** 2).sum(axis=1)
    if name == SHRINK_INSIDE:
        r0_sq = float(f2.max())
    elif name == EXPAND_OUTSIDE:
        r0_sq = float(f2.min())
    elif (f2.max() - f2.min()) / max(1.0, f2.max()) > 1e-8:
        raise InvalidConfig("scenario needs spherical initial data")
    else:
        r0_sq = float(f2.max())
    rp = radial.sphere_params(cfg.params, initial.m, r0_sq)
    regime = rp.regime()

    if name == SHRINK_INSIDE and regime != "shrink":
        raise InvalidConfig(f"SHRINK_INSIDE needs max|F0|^2 < (c/b)m, "
                            f"got {r0_sq:.6g} vs {rp.balance_sq:.6g}")
    if name == EXPAND_OUTSIDE and regime != "expand":
        raise InvalidConfig(f"EXPAND_OUTSIDE needs min|F0|^2 > (c/b)m, "
                            f"got {r0_sq:.6g} vs {rp.balance_sq:.6g}")
    if name == STATIONARY:
        if cfg.params.c_slope != 0:
            raise InvalidConfig(f"STATIONARY needs params.c_slope = 0, as a moving c(t) has "
                                f"no stationary sphere; got {cfg.params.c_slope!r}")
        if abs(r0_sq - rp.balance_sq) > 1e-6:
            raise InvalidConfig(f"STATIONARY needs |F0|^2 = (c/b)m = {rp.balance_sq:.8g}, "
                                f"got {r0_sq:.8g}")
        regime = "stationary"
    if name == SPHERE_ODE_MATCH and abs(r0_sq - rp.balance_sq) <= 1e-12:
        raise InvalidConfig("SPHERE_ODE_MATCH needs |F0|^2 != (c/b)m")
    if name == SPHERE_ODE_MATCH and not ODE_WINDOW[0] <= r0_sq <= ODE_WINDOW[1]:
        raise InvalidConfig(f"SPHERE_ODE_MATCH compares radii in the window "
                            f"{ODE_WINDOW}, so |F0|^2 must lie in it; got {r0_sq:.6g}")
    expected, bound_time = _REGIMES[regime]
    bound = bound_time(rp) if bound_time else None

    th = cfg.thresholds
    if regime == "expand" and th.F2_max >= Thresholds.F2_max:
        # the explicit scheme cannot ride the escape to 1e6; detect
        # position blow-up at the resolvable window edge instead
        th = replace(th, F2_max=ODE_WINDOW[1])
    if name == SPHERE_ODE_MATCH and regime == "shrink" and th.F2_min <= Thresholds.F2_min:
        th = replace(th, F2_min=0.8 * ODE_WINDOW[0])
    horizon = cfg.horizon
    if horizon is None:
        horizon = 0.05 if bound is None else 1.1 * bound
    traj, artifacts = _run(replace(cfg, horizon=horizon, thresholds=th), initial)

    if name == STATIONARY:
        # the farthest vertex from the sphere is the nearest to or the
        # farthest from the origin
        radius = math.sqrt(rp.balance_sq)
        dev = np.maximum(np.abs(np.sqrt(traj.max_F2[1:]) - radius),
                         np.abs(np.sqrt(traj.min_F2[1:]) - radius))
        drift = float(dev.max(initial=0.0)) / max(horizon, 1e-300)
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
        metrics=metrics, artifacts=artifacts, trajectory=traj,
    )
    if cfg.output_dir:
        vpath = os.path.join(cfg.output_dir, "verdict.json")
        with open(vpath, "w") as fh:
            fh.write(verdict.to_json() + "\n")
        verdict.artifacts.append(vpath)
    return verdict
