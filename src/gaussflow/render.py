"""Trajectory rendering: SVG frames for curves, OFF dumps for surfaces.

Byte output is deterministic for identical input (fixed float formatting,
no timestamps), so rendered artifacts can be diffed across reruns.
"""

from __future__ import annotations

import math
import os
import re

import numpy as np

from . import fileio, harness
from .engine import FlowTrajectory
from .errors import IoError

SIZE = 640                  # SVG frame width and height, in pixels
STROKE = "#1f4e8c"          # the curve
STROKE_WIDTH = 1.5
REFERENCE = "#b0b0b0"       # the balance circle and the max-radius circle
BACKGROUND = "#ffffff"
_FRAME = re.compile(r"frame_\d+\.(svg|off)")


def _f(x: float) -> str:
    return f"{x:.6f}"


def _curve_svg(vertices: np.ndarray, balance_sq: float | None, max_f2: float, bbox) -> str:
    """One SVG frame; the balance circle |F|^2 = balance_sq is left out when it is None."""
    lo, hi = bbox
    span = max(hi[0] - lo[0], hi[1] - lo[1], 1e-12)
    pad = 0.05 * span
    scale = SIZE / (span + 2 * pad)

    def to_px(x, y):  # scalars or whole columns, the same operations in the same order
        return (x - lo[0] + pad) * scale, SIZE - (y - lo[1] + pad) * scale

    cx, cy = to_px(0.0, 0.0)
    px, py = to_px(*vertices.T)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">',
        f'<rect width="{SIZE}" height="{SIZE}" fill="{BACKGROUND}"/>',
    ]
    for radius_sq, dash in ((balance_sq, "6 4"), (max(max_f2, 0.0), "2 3")):
        if radius_sq is not None:
            lines.append(
                f'<circle cx="{_f(cx)}" cy="{_f(cy)}" r="{_f(math.sqrt(radius_sq) * scale)}" '
                f'fill="none" stroke="{REFERENCE}" stroke-dasharray="{dash}"/>'
            )
    # one % over the interleaved columns; "%.6f" formats as _f does
    pts = " ".join(["%.6f,%.6f"] * len(px)) % tuple(np.column_stack((px, py)).ravel().tolist())
    lines.append(
        f'<polygon points="{pts}" fill="none" stroke="{STROKE}" '
        f'stroke-width="{STROKE_WIDTH}"/>'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render(traj: FlowTrajectory, outdir: str = "render") -> list[str]:
    """Write one SVG per curve snapshot, or OFF files plus a diagnostics CSV
    for surface snapshots.  Returns the written paths.  Numbered frames of an
    older render that this one does not overwrite are removed, and so is an
    older surface render's diagnostics CSV when a curve is rendered, so
    outdir holds this trajectory's render only.  A CSV beside result.json
    belongs to an artifact directory and is kept."""
    if not traj.snapshots:
        raise IoError("trajectory carries no mesh snapshots to render")
    os.makedirs(outdir, exist_ok=True)
    ext = ".svg" if traj.m == 1 else ".off"
    frames = [f"frame_{i:06d}{ext}" for i in range(len(traj.snapshots))]
    present = set(os.listdir(outdir))
    stale = [name for name in present.difference(frames) if _FRAME.fullmatch(name)]
    if traj.m == 1 and "diagnostics.csv" in present and "result.json" not in present:
        stale.append("diagnostics.csv")
    for name in stale:
        os.remove(os.path.join(outdir, name))
    paths = []
    if traj.m == 1:
        # the balance sphere |F|^2 = (c(t)/b) m of the law that ran; with b = 0 there is none
        balance = traj.params.balance_sq(traj.times, traj.m) if traj.params.b > 0 else None
        all_pts = np.concatenate([s.vertices[:, :2] for s in traj.snapshots])
        guide = math.sqrt(max(traj.max_F2.max(), 0.0 if balance is None else balance.max()))
        lo = np.minimum(all_pts.min(axis=0), [-guide, -guide])
        hi = np.maximum(all_pts.max(axis=0), [guide, guide])
        for i, (s, name) in enumerate(zip(traj.snapshots, frames)):
            path = os.path.join(outdir, name)
            with open(path, "w") as fh:
                fh.write(_curve_svg(s.vertices[:, :2],
                                    None if balance is None else float(balance[i]),
                                    float(traj.max_F2[i]), (lo, hi)))
            paths.append(path)
    else:
        for s, name in zip(traj.snapshots, frames):
            path = os.path.join(outdir, name)
            fileio.write_off(path, s)
            paths.append(path)
        csv_path = os.path.join(outdir, "diagnostics.csv")
        harness.write_diagnostics_csv(traj, csv_path)
        paths.append(csv_path)
    return paths
