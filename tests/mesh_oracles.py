"""Test oracles on mesh snapshots: the scalar evolution identities and the
FLOW/FLOW0 image distance.

Checks of recorded trajectories that read the meshes, kept out of the
package because only tests call them, with the discrete operators only
tests use: the vertex areas and mesh quality of an immersion, and the
Laplace-Beltrami operator and squared gradient norm of a scalar vertex
field, all on the weights of the package's own geometry pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from gaussflow import mesh
from gaussflow.engine import FLOW, FLOW0, FlowTrajectory
from gaussflow.errors import DegenerateMesh, GaussFlowError, InvalidConfig, MismatchedTimes
from gaussflow.mesh import DiscreteImmersion


class InsufficientSnapshots(GaussFlowError):
    """Trajectory does not carry enough snapshots for the requested check."""


# ---------------------------------------------------------------------------
# operators on immersions


def vertex_areas(s: DiscreteImmersion) -> np.ndarray:
    """Vertex area weights: half edge sums (curves), mixed Voronoi (surfaces)."""
    return s._geometry()["vertex_areas"].copy()


def mesh_quality(s: DiscreteImmersion) -> float:
    """Shape-regularity proxy in (0, 1]; 0 flags fully degenerate input.

    Curves: min/max edge length.  Surfaces: worst face inradius over
    circumradius, normalized to 1 for equilateral triangles.
    """
    try:
        return s._geometry(mesh._MONITOR)["quality"]
    except DegenerateMesh:
        return 0.0


# ---------------------------------------------------------------------------
# operators on scalar vertex fields


def laplace_beltrami(s: DiscreteImmersion, f) -> np.ndarray:
    """Discrete Laplace-Beltrami of a scalar vertex field.

    Uses the same weights as :func:`gaussflow.mesh.mean_curvature_vector`,
    so the operator is symmetric with respect to the vertex-area inner
    product.
    """
    vals = np.asarray(f, dtype=np.float64)
    geom = s._geometry()
    if s.m == 1:
        nxt, prv = s._conn.nxt, s._conn.prv
        lengths = geom["edge_lengths"]
        d_next = (vals[nxt] - vals) / lengths
        d_prev = (vals - vals[prv]) / lengths[prv]
        return (d_next - d_prev) / geom["vertex_areas"]
    cots = geom["cots"]
    fc = np.take(vals, s._conn.corners)          # (3, n_faces) corner values
    corner = 0.5 * (cots[mesh._PREV] * (fc[mesh._NEXT] - fc)
                    + cots[mesh._NEXT] * (fc[mesh._PREV] - fc))
    return s._conn.to_vertices(corner) / geom["vertex_areas"]


def gradient_norm_sq(s: DiscreteImmersion, f) -> np.ndarray:
    """Squared norm of the intrinsic gradient of a scalar vertex field.

    Curves: central difference along arclength.  Surfaces: area-weighted
    average of the per-face P1 gradients.
    """
    vals = np.asarray(f, dtype=np.float64)
    if s.m == 1:
        nxt, prv = s._conn.nxt, s._conn.prv
        lengths = s._geometry()["edge_lengths"]
        g = (vals[nxt] - vals[prv]) / (lengths[prv] + lengths)
        return g * g
    # P1 gradient n x g / 2A, g the sum of f at each corner times the opposite
    # edge (corner k+1 to k+2); g lies in the face plane, so |n x g| = |g|
    corners = s._conn.corners
    P = np.take(np.ascontiguousarray(s.vertices.T), corners, axis=1)
    fc = np.take(vals, corners)                  # (3, n_faces)
    g = ((P[:, mesh._NEXT] - P) * fc[mesh._PREV]).sum(axis=1)
    face_area = 0.5 * np.linalg.norm(np.cross(P[:, 1] - P[:, 0], P[:, 2] - P[:, 0], axis=0),
                                     axis=0)
    g2 = (g * g).sum(axis=0) / (2.0 * face_area) ** 2
    fa = np.broadcast_to(face_area, (3, len(g2)))
    return s._conn.to_vertices(g2 * fa) / s._conn.to_vertices(fa)


# ---------------------------------------------------------------------------
# scalar evolution identities


@dataclass(frozen=True)
class ResidualReport:
    """Normalized residuals of the scalar evolution identities along a run."""

    max_residual: float        # |d/dt |F|^2 - rhs| / max(1, |rhs|), worst vertex
    l2_residual: float
    area_max_residual: float   # d/dt log(vertex area) vs half the metric trace
    area_l2_residual: float
    interior_snapshots: int


def _three_point_derivative(f0, f1, f2, h0, h1):
    return (-(h1 / (h0 * (h0 + h1))) * f0
            + ((h1 - h0) / (h0 * h1)) * f1
            + (h0 / (h1 * (h0 + h1))) * f2)


def verify_scalar_evolution(traj: FlowTrajectory) -> ResidualReport:
    """Check the scalar evolution identities of the law that ran
    (``traj.params``), vertexwise along a recorded trajectory, by central
    time differences against the discrete spatial operators.

    Under the full-position laws FLOW and FLOWP a vertex moves with
    w (c H + b F), w = exp(a|F|^2/m), so
    d/dt |F|^2 = w (c lap|F|^2 + 2(b|F|^2 - m c)) and the log vertex area
    changes at w ((ab/2m) |grad|F|^2|^2 - c|H|^2 + b m).  FLOW0 drops the
    tangential part F_tan of F, and |F_tan|^2 = |grad|F|^2|^2 / 4, so
    d/dt |F|^2 loses w |grad|F|^2|^2 / 2 and the area changes by the normal
    velocity alone, at w (m - |H|^2 - lap|F|^2 / 2).
    """
    if len(traj.snapshots) < 3:
        raise InsufficientSnapshots(
            f"need >= 3 snapshots with meshes, have {len(traj.snapshots)}"
        )
    p = traj.params
    worst = 0.0
    sq_sum = 0.0
    count = 0
    area_worst = 0.0
    area_sq_sum = 0.0
    times = traj.times
    for i in range(1, len(traj.snapshots) - 1):
        s_prev, s_mid, s_next = traj.snapshots[i - 1: i + 2]
        h0 = times[i] - times[i - 1]
        h1 = times[i + 1] - times[i]
        if h0 <= 0 or h1 <= 0:
            raise InsufficientSnapshots("snapshot times must be strictly increasing")
        m = s_mid.m
        f_prev, f_mid, f_next = (s._geometry()["F2"] for s in (s_prev, s_mid, s_next))
        dfdt = _three_point_derivative(f_prev, f_mid, f_next, h0, h1)
        c_mid = p.c_at(times[i])
        w = np.exp((p.a / m) * f_mid)
        lap = laplace_beltrami(s_mid, f_mid)
        grad2 = gradient_norm_sq(s_mid, f_mid)
        H2 = (mesh.mean_curvature_vector(s_mid) ** 2).sum(axis=1)
        rhs = w * (c_mid * lap + 2.0 * (p.b * f_mid - m * c_mid))
        if p.variant == FLOW0:
            rhs -= 0.5 * w * grad2
            area_rate = w * (m - H2 - 0.5 * lap)
        else:
            area_rate = 0.5 * (w * ((p.a * p.b / m) * grad2
                                    - 2.0 * c_mid * H2 + 2.0 * p.b * m))
        res = np.abs(dfdt - rhs) / np.maximum(1.0, np.abs(rhs))
        worst = max(worst, float(res.max()))
        sq_sum += float((res * res).sum())
        count += res.size

        a_prev, a_mid, a_next = (np.log(vertex_areas(s))
                                 for s in (s_prev, s_mid, s_next))
        dloga = _three_point_derivative(a_prev, a_mid, a_next, h0, h1)
        ares = np.abs(dloga - area_rate) / np.maximum(1.0, np.abs(area_rate))
        area_worst = max(area_worst, float(ares.max()))
        area_sq_sum += float((ares * ares).sum())

    return ResidualReport(
        max_residual=worst,
        l2_residual=math.sqrt(sq_sum / count),
        area_max_residual=area_worst,
        area_l2_residual=math.sqrt(area_sq_sum / count),
        interior_snapshots=len(traj.snapshots) - 2,
    )


# ---------------------------------------------------------------------------
# FLOW/FLOW0 image distance


@dataclass(frozen=True)
class EquivalenceReport:
    times: np.ndarray
    normal_distance: np.ndarray    # largest normal offset of matched vertices, over the diameter

    @property
    def max_distance(self) -> float:
        return float(self.normal_distance.max())


def tangential_equivalence(traj_a: FlowTrajectory, traj_b: FlowTrajectory) -> EquivalenceReport:
    """Image distance between a FLOW run and a FLOW0 run from the same data.

    The laws differ by a tangential velocity, which moves vertices along
    the image but not the image, so the runs should agree as images up to
    discretization.  Both start from the same immersion, so vertices match
    by index.  Per shared snapshot (A, B) the report holds
    max_i max(|P_B(a_i - b_i)|, |P_A(b_i - a_i)|) / diam A, with P the
    normal projection FLOW0's velocity uses: the distance from each vertex
    to its counterpart's tangent plane (line, on curves).  That is the
    image distance to first order in the tangential offset a_i - b_i.
    """
    if traj_a.params.variant != FLOW or traj_b.params.variant != FLOW0:
        raise InvalidConfig("pass the tangentially augmented run first, "
                            "the normal-velocity run second")
    if not traj_a.snapshots or not traj_b.snapshots:
        raise InsufficientSnapshots("both trajectories need mesh snapshots")
    n = min(len(traj_a.snapshots), len(traj_b.snapshots))
    ta, tb = traj_a.times[:n], traj_b.times[:n]
    if not np.allclose(ta, tb, rtol=0.0, atol=1e-12):
        raise MismatchedTimes("snapshot times differ; rerun with shared snapshot_times")
    a0, b0 = traj_a.snapshots[0], traj_b.snapshots[0]
    if not np.array_equal(a0.vertices, b0.vertices):
        raise MismatchedTimes("trajectories must share the initial immersion")
    if not np.array_equal(a0.faces, b0.faces):
        raise MismatchedTimes("matching vertices by index needs the same face list")
    out = np.empty(n)
    for i, (sa, sb) in enumerate(zip(traj_a.snapshots[:n], traj_b.snapshots[:n])):
        d = sa.vertices - sb.vertices
        off2 = max(float((mesh.normal_projection(s, d) ** 2).sum(axis=1).max())
                   for s in (sa, sb))
        span = sa.vertices.max(axis=0) - sa.vertices.min(axis=0)
        out[i] = math.sqrt(off2) / max(float(np.linalg.norm(span)), 1e-300)
    return EquivalenceReport(times=ta.copy(), normal_distance=out)
