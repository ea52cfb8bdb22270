"""Trajectory rendering: SVG frames for curves, OFF dumps for surfaces.

Byte output is deterministic for identical input (fixed float formatting,
no timestamps), so rendered artifacts can be diffed across reruns.
"""

from __future__ import annotations

import math
import os

import numpy as np

from . import fileio, harness
from .engine import FlowTrajectory
from .errors import IoError

SIZE = 640                  # SVG frame width and height, in pixels
STROKE = "#1f4e8c"          # the curve
STROKE_WIDTH = 1.5
REFERENCE = "#b0b0b0"       # the balance circle and the max-radius circle
BACKGROUND = "#ffffff"


def _f(x: float) -> str:
    return f"{x:.6f}"


def _curve_svg(vertices: np.ndarray, m: int, max_f2: float, bbox) -> str:
    lo, hi = bbox
    span = max(hi[0] - lo[0], hi[1] - lo[1], 1e-12)
    pad = 0.05 * span
    scale = SIZE / (span + 2 * pad)

    def to_px(pt):
        return ((pt[0] - lo[0] + pad) * scale, SIZE - (pt[1] - lo[1] + pad) * scale)

    cx, cy = to_px((0.0, 0.0))
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">',
        f'<rect width="{SIZE}" height="{SIZE}" fill="{BACKGROUND}"/>',
    ]
    for radius, dash in ((math.sqrt(m), "6 4"), (math.sqrt(max(max_f2, 0.0)), "2 3")):
        lines.append(
            f'<circle cx="{_f(cx)}" cy="{_f(cy)}" r="{_f(radius * scale)}" fill="none" '
            f'stroke="{REFERENCE}" stroke-dasharray="{dash}"/>'
        )
    pts = " ".join(f"{_f(px)},{_f(py)}" for px, py in (to_px(v) for v in vertices))
    lines.append(
        f'<polygon points="{pts}" fill="none" stroke="{STROKE}" '
        f'stroke-width="{STROKE_WIDTH}"/>'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render(traj: FlowTrajectory, outdir: str = "render") -> list[str]:
    """Write one SVG per curve snapshot, or OFF files plus a diagnostics CSV
    for surface snapshots.  Returns the written paths."""
    if not traj.snapshots:
        raise IoError("trajectory carries no mesh snapshots to render")
    os.makedirs(outdir, exist_ok=True)
    paths = []
    if traj.m == 1:
        all_pts = np.concatenate([s.vertices[:, :2] for s in traj.snapshots])
        guide = math.sqrt(max(traj.m, float(traj.max_F2.max())))
        lo = np.minimum(all_pts.min(axis=0), [-guide, -guide])
        hi = np.maximum(all_pts.max(axis=0), [guide, guide])
        for i, s in enumerate(traj.snapshots):
            path = os.path.join(outdir, f"frame_{i:06d}.svg")
            with open(path, "w") as fh:
                fh.write(_curve_svg(s.vertices[:, :2], traj.m,
                                    float(traj.max_F2[i]), (lo, hi)))
            paths.append(path)
    else:
        for i, s in enumerate(traj.snapshots):
            path = os.path.join(outdir, f"frame_{i:06d}.off")
            fileio.write_off(path, s)
            paths.append(path)
        csv_path = os.path.join(outdir, "diagnostics.csv")
        harness.write_diagnostics_csv(traj, csv_path)
        paths.append(csv_path)
    return paths
