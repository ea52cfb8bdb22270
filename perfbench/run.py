#!/usr/bin/env python3
"""Benchmark for gaussflow: one workload run through the CLI, timed from outside.

Run from the root of a checkout:

    python3 perfbench/run.py --workload curve_collapse --seed 1 --seconds 20 --trace 0

``--trace 0`` calls ``gaussflow.cli.main`` in this process for each of the
workload's operations in turn (a closed loop, one operation in flight), in
passes until ``--seconds`` have elapsed, checks every output, and prints the
end-to-end metrics.  ``--trace 1`` runs one untraced pass, then a traced
replay of the same operations, an untimed stride-1 replay that counts
steps, and the layer probes, and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are for people.  Full results, provenance and spans are written under
``.perfbench/`` in the checkout.  WORKLOADS.md says why each workload exists.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import PROBE_INPUTS, WORKLOADS, Op

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1          # one process, one BLAS thread: no more than nproc
SETUP_REPEATS = 5         # traced runs set up once: they do not report setup_s
BOUND_SLACK = 0.02        # t_stop <= 1.02 * bound, as the acceptance suite pins it
ODE_GATE = 1e-3           # relative radius error against the radius ODE

_COLD_IMPORT = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import gaussflow.cli as cli; "
                "print(time.perf_counter() - t, cli.__file__)")


@dataclass
class OpResult:
    op: Op
    seconds: float
    problems: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)   # flow ops: artifact summary


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def provenance(seed: int) -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS, "commit": git_commit(),
        "src_digest": src_digest(), "seed": seed,
    }


def cold_import_seconds() -> float:
    """``import gaussflow.cli`` in a fresh interpreter, timed inside it."""
    done = subprocess.run([sys.executable, "-c", _COLD_IMPORT, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    seconds, path = done.stdout.split()
    if not Path(path).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported gaussflow from {path}, not from {SRC}")
    return float(seconds)


def build_inputs(workload: str, seed: int) -> list[Op]:
    from gaussflow.shapes import builtin_shape

    def extremes(name, params, n):
        f2 = (builtin_shape(name, params, n).vertices ** 2).sum(axis=1)
        return float(f2.min()), float(f2.max())

    ops = WORKLOADS[workload](seed, extremes)
    os.makedirs("cfg", exist_ok=True)
    for op in ops:
        if op.config:
            Path(op.argv[-1]).write_text(op.config)
    return ops


# ---------------------------------------------------------------------------
# operations and their output checks


def artifact_summary(d: str) -> dict:
    """What a flow operation wrote: digests of the byte-stable streams,
    file and byte counts, diagnostics rows and the stop event."""
    root = Path(d)
    files = [p for p in root.rglob("*") if p.is_file()]
    events = (root / "events.jsonl").read_text().splitlines()
    stop = json.loads(events[-1])
    rows = len((root / "diagnostics.csv").read_text().splitlines()) - 1
    return {
        "diagnostics.csv": _sha(root / "diagnostics.csv"),
        "events.jsonl": _sha(root / "events.jsonl"),
        "files": len(files), "bytes": sum(p.stat().st_size for p in files),
        "rows": rows, "stop_kind": stop["kind"], "t_stop": stop["t"],
    }


def check_output(op: Op, stdout: str, problems: list) -> dict:
    if op.command in ("scenario", "simulate"):
        out = artifact_summary(op.dir)
        if out["stop_kind"] not in op.expect_kinds:
            problems.append(f"stop kind {out['stop_kind']} not in {op.expect_kinds}")
        if op.command == "scenario":
            v = json.loads((Path(op.dir) / "verdict.json").read_text())
            if not v["passed"] or not stdout.startswith("PASS"):
                problems.append(f"verdict FAIL: {stdout.strip()}")
            if not v["t_stop"] <= (1.0 + BOUND_SLACK) * v["bound_time"]:
                problems.append(f"t_stop {v['t_stop']!r} > 1.02 * bound {v['bound_time']!r}")
            err = v["metrics"].get("max_rel_radius_error")
            if err is not None and not err <= ODE_GATE:
                problems.append(f"ODE-match error {err:.3g} > {ODE_GATE:g}")
            if (v["observed_kind"], v["t_stop"]) != (out["stop_kind"], out["t_stop"]):
                problems.append("verdict.json and events.jsonl disagree on the stop")
        elif f"stop={out['stop_kind']}" not in stdout:
            problems.append(f"unexpected simulate output: {stdout.strip()}")
        return out
    if op.command == "verify":
        if ": holds " not in stdout:
            problems.append(f"claim not held: {stdout.strip()}")
        return {}
    rendered = re.search(r"rendered (\d+) files", stdout)
    rows = len((Path(op.dir) / "diagnostics.csv").read_text().splitlines()) - 1
    surface = any(Path(op.dir, "snapshots").glob("*.off"))
    want = rows + 1 if surface else rows       # surfaces add a diagnostics CSV
    if not rendered or int(rendered.group(1)) != want:
        problems.append(f"rendered {stdout.strip()!r}, want {want} files")
    return {"rendered": int(rendered.group(1)) if rendered else None}


def run_op(op: Op, cli) -> OpResult:
    stdout, stderr = io.StringIO(), io.StringIO()
    res = OpResult(op, 0.0)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(list(op.argv))
    except Exception as exc:         # a raising operation is a failed one; go on
        rc = None
        res.problems.append(f"raised {type(exc).__name__}: {exc}")
    res.seconds = time.perf_counter() - t0
    if rc not in (0, None):
        res.problems.append(f"exit code {rc}: {stderr.getvalue().strip()}")
    if rc == 0:
        try:
            res.outputs = check_output(op, stdout.getvalue(), res.problems)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            res.problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return res


def run_pass(ops: list[Op], cli) -> list[OpResult]:
    shutil.rmtree("out", ignore_errors=True)
    return [run_op(op, cli) for op in ops]


STABLE_KEYS = ("diagnostics.csv", "events.jsonl", "files", "bytes")


def stable_outputs(results: list[OpResult]) -> dict:
    return {r.op.name: {k: r.outputs[k] for k in STABLE_KEYS}
            for r in results if "files" in r.outputs}


def check_same_outputs(results: list[OpResult], earlier: dict, what: str) -> None:
    """Fail each flow operation whose written bytes differ from ``earlier``."""
    for name, now in stable_outputs(results).items():
        if name in earlier and earlier[name] != now:
            res = next(r for r in results if r.op.name == name)
            res.problems.append(f"output differs from {what}: {earlier[name]} vs {now}")


def check_repeats(key: str, results: list[OpResult], counts: dict | None,
                  problems: list) -> None:
    """Outputs and counts must repeat exactly from run to run of the same
    source and inputs; the first run of a key records them."""
    path = OUT / "repeats.json"
    seen = json.loads(path.read_text()) if path.is_file() else {}
    entry = seen.setdefault(key, {})
    check_same_outputs(results, entry, "an earlier run")
    if counts is not None and entry.setdefault("counts", counts) != counts:
        problems.append(f"counts differ from an earlier run: {entry['counts']} vs {counts}")
    for name, now in stable_outputs(results).items():
        entry.setdefault(name, now)
    path.write_text(json.dumps(seen, indent=1, sort_keys=True) + "\n")


def pass_summary(results: list[OpResult]) -> str:
    by_cmd: dict[str, float] = {}
    for r in results:
        by_cmd[r.op.command] = by_cmd.get(r.op.command, 0.0) + r.seconds
    parts = " ".join(f"{c}_s={s:.4f}" for c, s in by_cmd.items())
    return f"wall_s={sum(r.seconds for r in results):.4f} {parts}"


def report_ops(results: list[OpResult], failed_only: bool = False) -> None:
    for r in results:
        if not r.problems:
            if failed_only:
                continue
            state = "ok"
        elif r.op.known_failure:
            state = "FAILED (known baseline failure): " + "; ".join(r.problems)
        else:
            state = "FAILED: " + "; ".join(r.problems)
        print(f"  {r.op.name:<26} {r.seconds:9.4f} s  {state}")


# ---------------------------------------------------------------------------
# the two kinds of run


def untraced_run(ops, cli, seconds: float, key: str, problems: list):
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(ops, cli))
        check_same_outputs(passes[-1], stable_outputs(passes[0]), "pass 1")
    check_repeats(key, passes[0], None, problems)
    for i, results in enumerate(passes, 1):
        print(f"pass {i}: {pass_summary(results)}")
    report_ops(passes[0])
    for results in passes[1:]:
        report_ops(results, failed_only=True)
    walls = [sum(r.seconds for r in results) for results in passes]
    metrics = {"wall_s": (statistics.median(walls), "s")}
    return passes, metrics


def traced_run(ops, cli, workload: str, key: str, problems: list):
    import tracing
    from gaussflow.radial import RadialParams

    untraced = run_pass(ops, cli)
    print(f"untraced pass: {pass_summary(untraced)}")
    report_ops(untraced)
    shutil.rmtree("out", ignore_errors=True)
    tr = tracing.Tracer()
    replayed = tracing.replay(ops, tr)

    steps, dt_min, errors, ratios = 0, float("inf"), [], []
    for res, rec in zip(untraced, replayed):
        op = res.op
        if op.command == "verify" and not rec.holds:
            problems.append(f"replay of {op.name}: claim not held")
        if op.command == "render" and len(rec) != res.outputs.get("rendered"):
            problems.append(f"replay of {op.name} rendered {len(rec)} files")
        if op.command not in ("scenario", "simulate") or "t_stop" not in res.outputs:
            continue
        want = (res.outputs["stop_kind"], res.outputs["t_stop"])
        now = artifact_summary(op.dir)
        counted = tracing.count_replay(op).traj
        steps += counted.n_snapshots - 1
        dt_min = min(dt_min, float(counted.dts[1:].min()))
        for name, traj in (("traced", rec.traj), ("stride-1", counted)):
            if (traj.stop.kind, traj.stop.t_stop) != want:
                problems.append(f"{name} replay of {op.name} stopped with "
                                f"{traj.stop.kind} at {traj.stop.t_stop!r}, not {want}")
        for k in ("diagnostics.csv", "events.jsonl"):
            if now[k] != res.outputs[k]:
                problems.append(f"traced replay of {op.name} wrote a different {k}")
        if op.known_failure:
            continue
        sphere = tracing.comparison_sphere(rec.initial)
        if sphere is not None:
            ratios.append(rec.traj.stop.t_stop / sphere[1])
        r0 = tracing.spherical_radius_sq(rec.initial)
        if r0 is not None:
            rp = RadialParams(rec.initial.m, 1.0, 1.0, 1.0, r0)
            errors.append(tracing.ode_error(rec.traj, rp))

    roots = [(i, s) for i, s in enumerate(tr.spans) if s.parent is None]
    traced_wall = sum(s.seconds for _, s in roots)
    unaccounted = sum(res.seconds - sum(c.seconds for c in tr.children(i))
                      for res, (i, _) in zip(untraced, roots))
    run_s = tr.total("engine.run")
    flows = stable_outputs(untraced)
    per_call_ms, rk_steps = tracing.probe(tr, PROBE_INPUTS[workload], "probe")
    counts = {
        "engine.steps": steps,
        "radial.rk_steps": rk_steps,
        "harness.files_written": sum(o["files"] for o in flows.values()),
        "harness.bytes_written": sum(o["bytes"] for o in flows.values()),
    }
    check_repeats(key, untraced, counts, problems)

    print("self time by layer in the traced replay and probes:")
    for layer, secs in sorted(tr.self_seconds_by_layer().items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<12} {secs:9.4f} s")
    metrics = {
        "engine.steps": (steps, "count"),
        "engine.run_s": (run_s, "s"),
        "engine.per_step_ms": (1e3 * run_s / steps, "ms"),
        "engine.dt_min": (dt_min, "model_t"),
        **{name: (ms, "ms") for name, ms in per_call_ms.items()},
        "radial.rk_steps": (rk_steps, "count"),
        "harness.files_written": (counts["harness.files_written"], "count"),
        "harness.bytes_written": (counts["harness.bytes_written"], "bytes"),
        "engine.max_rel_radius_error": (max(errors), "ratio"),
        "engine.t_stop_over_bound": (max(ratios), "ratio"),
        "cli.unaccounted_s": (unaccounted, "s"),
        "trace.overhead_s": (traced_wall - sum(r.seconds for r in untraced), "s"),
    }
    return [untraced], metrics, tr


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "gaussflow" / "cli.py").is_file():
        print(f"error: no gaussflow sources at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("GAUSSFLOW_THREADS", None)      # run_scenarios stays serial
    sys.path.insert(0, str(SRC))
    from gaussflow import cli

    work = OUT / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.chdir(work)
    setup = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        imported = cold_import_seconds()
        t0 = time.perf_counter()
        ops = build_inputs(args.workload, args.seed)
        setup.append(imported + time.perf_counter() - t0)

    prov = provenance(args.seed)
    print("provenance: " + " ".join(f"{k}={v}" for k, v in prov.items()))
    print(f"workload={args.workload} ops={len(ops)} setup_s samples={setup}")
    inputs = hashlib.sha256(repr(ops).encode()).hexdigest()[:16]
    key = f"{args.workload} inputs={inputs} src={prov['src_digest']}"
    problems: list[str] = []
    tr = None
    if args.trace:
        passes, metrics, tr = traced_run(ops, cli, args.workload, key, problems)
    else:
        passes, metrics = untraced_run(ops, cli, args.seconds, key, problems)
        metrics["setup_s"] = (statistics.median(setup), "s")
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mb"] = (rss_mb, "MB")

    results = [r for results in passes for r in results]
    failed = [r for r in results if r.problems]
    unexpected = [r for r in failed if not r.op.known_failure]
    for p in problems:
        print(f"CHECK FAILED: {p}")
    correct = not unexpected and not problems
    print(f"passes={len(passes)} attempted={len(results)} failed={len(failed)} "
          f"fail_ratio={len(failed) / len(results):.4f} unexpected_failures={len(unexpected)}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")

    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "provenance": prov, "setup_s_samples": setup, "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "passes": [[{"op": r.op.name, "command": r.op.command, "seconds": r.seconds,
                     "problems": r.problems, "known_failure": r.op.known_failure}
                    for r in results] for results in passes],
    }
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tr is not None:
        (results_dir / f"{stem}-spans.json").write_text(json.dumps(tr.to_json()) + "\n")
    # deleting the artifacts now, not at the next run's start, keeps that
    # deletion's disk traffic out of the next run's set-up time
    os.chdir(ROOT)
    shutil.rmtree(work)

    print(json.dumps({
        "correct": correct, "attempted": len(results), "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
