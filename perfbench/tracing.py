"""Traced run: each CLI operation replayed as its sequence of public layer
calls, with a span around every call, plus probes that time single layer
calls on the workload's largest input.

The replay makes the calls ``harness.run_scenario``, ``harness.simulate``
and the CLI's ``verify`` and ``render`` handlers make, with the same
arguments, so it does the same work as the untraced operation; the caller
checks that by comparing stop kinds, stop times and written bytes.  It
leaves out only the small JSON files the CLI writes beside the artifacts
(``verdict.json``, ``claim_*.json``); their cost lands in
``cli.unaccounted_s``.  Spans never reach inside a layer: work one layer
does inside another (``fileio`` under ``harness``, ``mesh`` under
``engine``, ``radial`` under ``comparison``) is timed by the probes.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import time
from dataclasses import dataclass, replace

import numpy as np

from gaussflow import (comparison, engine, fileio, harness, mesh, radial,
                       render, shapes)
from gaussflow.harness import (EXPAND_OUTSIDE, ODE_WINDOW, SPHERE_ODE_MATCH)
from gaussflow.radial import RadialParams

PROBE_REPEATS = 5
PROBE_STEPS = 4          # stability steps in the probe run behind the IO probes


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None      # index of the enclosing span
    op: str                 # operation id: the op name, or "probe"

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans kept in memory, in start order, until the run writes them out."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, op: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, op))
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx].end = time.perf_counter()

    def children(self, idx: int) -> list[Span]:
        return [s for s in self.spans if s.parent == idx]

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.spans if s.name == name)

    def median_ms(self, name: str, op: str) -> float:
        return 1e3 * statistics.median(
            s.seconds for s in self.spans if s.name == name and s.op == op)

    def self_seconds_by_layer(self) -> dict[str, float]:
        """Span time minus the time of its child spans, summed per layer."""
        out: dict[str, float] = {}
        for idx, s in enumerate(self.spans):
            own = s.seconds - sum(c.seconds for c in self.children(idx))
            layer = s.name.split(".")[0]
            out[layer] = out.get(layer, 0.0) + own
        return out

    def to_json(self) -> list[dict]:
        t0 = self.spans[0].start if self.spans else 0.0
        return [{"name": s.name, "start": s.start - t0, "end": s.end - t0,
                 "parent": s.parent, "op": s.op} for s in self.spans]


class NullTracer:
    """Tracer stand-in for the untimed replay that counts steps."""

    def span(self, name: str, op: str):
        return contextlib.nullcontext()


@dataclass
class FlowRecord:
    initial: object
    traj: object


def _flow(tr, op, stride: int | None = None, keep: bool | None = None) -> FlowRecord:
    """A scenario or simulate operation as its layer calls.  ``stride`` and
    ``keep`` override the config for the step-counting replay."""
    with tr.span("harness.load_config", op.name):
        cfg = harness.load_config(op.argv[-1])
    with tr.span("shapes.build", op.name):
        initial = cfg.build_initial()
    th, horizon = cfg.thresholds, cfg.horizon
    if op.scenario:
        f2 = (initial.vertices ** 2).sum(axis=1)
        m = cfg.params.m_eff(initial)
        r0 = float(f2.min()) if op.scenario == EXPAND_OUTSIDE else float(f2.max())
        rp = RadialParams(m=m, a=1.0, b=1.0, c0=1.0, R0_sq=r0)
        shrinking = r0 < m
        with tr.span("radial.bound", op.name):
            bound = (radial.bound_time_shrink(rp) if shrinking
                     else radial.bound_time_expand(rp))
        if horizon is None:
            horizon = 1.1 * bound
        if not shrinking and th.F2_max >= 1e6:
            th = replace(th, F2_max=ODE_WINDOW[1])
        if op.scenario == SPHERE_ODE_MATCH and shrinking and th.F2_min <= 1e-6:
            th = replace(th, F2_min=0.8 * ODE_WINDOW[0])
    with tr.span("engine.run", op.name):
        traj = engine.run(initial, cfg.params, horizon, thresholds=th,
                          stride=stride or cfg.snapshot_stride, cfl=cfg.cfl,
                          keep_snapshots=cfg.save_meshes if keep is None else keep)
    if op.scenario == SPHERE_ODE_MATCH and stride is None:
        ode_error(traj, rp, tr, op.name)
    if cfg.output_dir and stride is None:
        with tr.span("harness.save", op.name):
            harness.save_trajectory(traj, cfg.output_dir, save_meshes=cfg.save_meshes)
    return FlowRecord(initial, traj)


def ode_error(traj, rp: RadialParams, tr=None, op: str = "") -> float:
    """Worst relative |F|^2 error against the radius ODE over the
    comparison window, as the SPHERE_ODE_MATCH scenario measures it."""
    mask = (traj.max_F2 >= ODE_WINDOW[0]) & (traj.max_F2 <= ODE_WINDOW[1])
    times = traj.times[mask]
    with (tr or NullTracer()).span("radial.integrate", op):
        ode = radial.integrate_radial(rp, horizon=float(times[-1]), t_eval=times)
    n = len(ode.eval_R_sq)
    return float((np.abs(traj.max_F2[mask][:n] - ode.eval_R_sq) / ode.eval_R_sq).max())


def _options(op) -> dict:
    return dict(zip(op.argv[1::2], op.argv[2::2]))


def _check(traj, opts: dict):
    claim = opts["--claim"]
    eps = float(opts["--eps"]) if "--eps" in opts else None
    if claim == comparison.SIGN_PRESERVATION_BELOW:
        return comparison.check_sign_below(traj, traj.params, eps)
    if claim == comparison.SIGN_PRESERVATION_ABOVE:
        return comparison.check_sign_above(traj, traj.params, eps)
    if claim in (comparison.SPHERE_BARRIER_BELOW, comparison.SPHERE_BARRIER_ABOVE):
        return comparison.check_sphere_barrier(traj, float(opts["--rp0sq"]), eps)
    return comparison.check_sphericity(traj)


def replay(ops, tr: Tracer) -> list:
    """Replay every operation under a root span named after its command.
    Returns, per op, a FlowRecord, the verify report, or the rendered paths."""
    out = []
    for op in ops:
        with tr.span(f"cli.{op.command}", op.name):
            if op.command in ("scenario", "simulate"):
                out.append(_flow(tr, op))
                continue
            with tr.span("harness.load", op.name):
                traj = harness.load_trajectory(op.dir)
            if op.command == "verify":
                with tr.span("comparison.check", op.name):
                    out.append(_check(traj, _options(op)))
            else:
                with tr.span("render.render", op.name):
                    out.append(render.render(traj, outdir=os.path.join(op.dir, "render")))
    return out


def count_replay(op) -> FlowRecord:
    """Untimed stride-1 replay of a flow operation: every step is a row."""
    return _flow(NullTracer(), op, stride=1, keep=False)


def comparison_sphere(s) -> tuple[RadialParams, float] | None:
    """The radius ODE of the origin sphere through the vertex nearest the
    balance sphere |F|^2 = m, and its closed-form blow-up time bound, when
    the initial data lies on one side of the balance sphere."""
    f2 = (s.vertices ** 2).sum(axis=1)
    if f2.max() < s.m:
        rp = RadialParams(s.m, 1.0, 1.0, 1.0, float(f2.max()))
        return rp, radial.bound_time_shrink(rp)
    if f2.min() > s.m:
        rp = RadialParams(s.m, 1.0, 1.0, 1.0, float(f2.min()))
        return rp, radial.bound_time_expand(rp)
    return None


def spherical_radius_sq(s) -> float | None:
    f2 = (s.vertices ** 2).sum(axis=1)
    return float(f2.max()) if (f2.max() - f2.min()) / max(1.0, f2.max()) <= 1e-8 else None


def probe(tr: Tracer, probe_input, workdir: str) -> tuple[dict, int]:
    """Time single public layer calls on one input, PROBE_REPEATS times each,
    and return the median milliseconds per call by metric name, with the RK
    step count of the radius ODE.  The IO, comparison and render probes work
    on a short probe run of PROBE_STEPS stability steps that keeps every
    snapshot."""
    name, params, n = probe_input
    s = shapes.builtin_shape(name, params, n)
    p = engine.FlowParams()
    rp, bound = comparison_sphere(s)
    run = engine.run(s, p, PROBE_STEPS * engine.stability_dt(s, p), stride=1)
    shrinking = rp.R0_sq < s.m
    check = comparison.check_sign_below if shrinking else comparison.check_sign_above
    eps = 0.5 * abs(s.m - rp.R0_sq)
    state = engine.initial_state(s)
    rk_steps = 0
    for i in range(PROBE_REPEATS):
        with tr.span("shapes.build", "probe"):
            shapes.builtin_shape(name, params, n)
        with tr.span("mesh.connectivity", "probe"):
            mesh.DiscreteImmersion(s.m, s.vertices, s.faces)
        fresh = s.replace_vertices(s.vertices.copy())
        with tr.span("mesh.geometry", "probe"):
            mesh.mean_curvature_vector(fresh)
        with tr.span("mesh.h2", "probe"):
            mesh.second_fundamental_norm(fresh)
        with tr.span("engine.step_call", "probe"):
            engine.step(state, p)
        with tr.span("radial.integrate", "probe"):
            rk_steps = len(radial.integrate_radial(rp, 1.1 * bound).times) - 1
        d = os.path.join(workdir, f"probe{i}")
        with tr.span("harness.save", "probe"):
            harness.save_trajectory(run, d)
        with tr.span("harness.load", "probe"):
            harness.load_trajectory(d)
        for j, snap in enumerate(run.snapshots):
            path = os.path.join(d, f"copy{j}{'.pline' if s.m == 1 else '.off'}")
            with tr.span("fileio.write", "probe"):
                fileio.write_immersion(path, snap)
            with tr.span("fileio.read", "probe"):
                fileio.read_immersion(path)
        with tr.span("comparison.check", "probe"):
            check(run, p, eps)
        with tr.span("render.render", "probe"):
            render.render(run, outdir=os.path.join(d, "render"))

    names = {sp.name for sp in tr.spans if sp.op == "probe"}
    return {f"{n}_ms": tr.median_ms(n, "probe") for n in sorted(names)}, rk_steps
