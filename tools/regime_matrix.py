"""Run the shrink and expand scenarios on every flow law and shape family.

The tests and the benchmark pass on the inputs they chose; this matrix
records which regimes hold off those inputs.  It runs 21 scenarios: the
laws FLOW, FLOW0 and FLOWP (a = 0.5, b = 2, c = 1), each on

* icospheres at subdiv 2 and 3, shrinking from |F|^2 = 0.6 x the law's
  balance value (c/b) m and expanding from 1.5 x;
* a 1 : 0.8 : 0.6 ellipsoid at subdiv 3, shrinking, its largest |F|^2 at
  0.6 x the balance value;
* 128-gon ellipses, 2 : 1 shrinking (largest |F|^2 at 0.6 x) and 1.3 : 1
  expanding (smallest |F|^2 at 1.5 x).

Every scenario keeps its default horizon and threshold windows and writes
no artifact.  One line per run, failing rows included:

    VERDICT SCENARIO LAW SHAPE stop=KIND t/bound=X quality=Q steps=N evals=N

``t/bound`` is the stop time over the scenario's closed-form bound (PASS
needs at most 1.02), ``quality`` the mesh quality of the last recorded row,
``steps`` and ``evals`` the run's calls of ``engine._advance`` and
``engine.velocity``.  The output is deterministic; the whole matrix takes
about 8-15 s on one core.

    python tools/regime_matrix.py [SHAPE/LAW ...]

Naming rows, such as ``icosphere2-expand/FLOW``, runs only those.
"""

from __future__ import annotations

import math
import os
import sys
from pathlib import Path

if __name__ == "__main__":
    # one BLAS thread before numpy is imported, as the benchmark sets it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gaussflow import engine  # noqa: E402
from gaussflow.engine import FLOW, FLOW0, FLOWP, FlowParams  # noqa: E402
from gaussflow.harness import (EXPAND_OUTSIDE, SHRINK_INSIDE, RunConfig,  # noqa: E402
                               run_scenario)

LAWS = {FLOW: FlowParams(variant=FLOW), FLOW0: FlowParams(variant=FLOW0),
        FLOWP: FlowParams(variant=FLOWP, a=0.5, b=2.0, c=1.0)}
SHRINK, EXPAND = 0.6, 1.5     # the initial |F|^2 edge over the balance value


def _shape(label: str, balance: float) -> tuple[str, dict]:
    """The builtin shape and its parameters, a curve's vertex count ``n``
    among them, for a row label, sized from the law's balance value (c/b) m."""
    if label.startswith("icosphere"):
        factor = SHRINK if label.endswith("shrink") else EXPAND
        return "icosphere", {"radius": math.sqrt(factor * balance),
                             "subdiv": int(label[len("icosphere")])}
    if label == "ellipsoid3-shrink":
        rx = math.sqrt(SHRINK * balance)
        return "ellipsoid", {"rx": rx, "ry": 0.8 * rx, "rz": 0.6 * rx, "subdiv": 3}
    if label == "ellipse-2:1-shrink":
        rx = math.sqrt(SHRINK * balance)
        return "ellipse", {"rx": rx, "ry": 0.5 * rx, "n": 128}
    ry = math.sqrt(EXPAND * balance)           # ellipse-1.3:1-expand
    return "ellipse", {"rx": 1.3 * ry, "ry": ry, "n": 128}


SHAPES = ("icosphere2-shrink", "icosphere2-expand", "icosphere3-shrink",
          "icosphere3-expand", "ellipsoid3-shrink", "ellipse-2:1-shrink",
          "ellipse-1.3:1-expand")
ROWS = [(shape, law) for shape in SHAPES for law in LAWS]


def _count_calls(name: str, counts: dict) -> None:
    """Make every call of engine.<name> add one to counts[name]."""
    real = getattr(engine, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return real(*args, **kwargs)

    setattr(engine, name, counted)


def run_row(shape: str, law: str, counts: dict) -> str:
    """Run one scenario of the matrix and format its line; ``counts`` holds
    the calls of engine._advance and engine.velocity, zeroed here first."""
    p = LAWS[law]
    m = 1 if shape.startswith("ellipse-") else 2
    name, params = _shape(shape, p.balance_sq(0.0, m))
    scenario = SHRINK_INSIDE if shape.endswith("shrink") else EXPAND_OUTSIDE
    counts.update(dict.fromkeys(counts, 0))
    verdict = run_scenario(scenario, RunConfig(
        initial_name=name, initial_params=params, params=p, save_meshes=False))
    traj = verdict.trajectory
    return (f"{'PASS' if verdict.passed else 'FAIL'} {scenario} {law} {shape} "
            f"stop={verdict.observed_kind} t/bound={verdict.t_stop / verdict.bound_time:.4f} "
            f"quality={traj.mesh_quality[-1]:.3g} steps={counts['_advance']} "
            f"evals={counts['velocity']}")


def main(argv: list[str]) -> int:
    names = [f"{shape}/{law}" for shape, law in ROWS]
    unknown = sorted(set(argv) - set(names))
    if unknown:
        print(f"error: unknown row {unknown[0]!r}; choose from {', '.join(names)}",
              file=sys.stderr)
        return 2
    counts = {"_advance": 0, "velocity": 0}
    for key in counts:
        _count_calls(key, counts)
    for name, (shape, law) in zip(names, ROWS):
        if not argv or name in argv:
            print(run_row(shape, law, counts), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
