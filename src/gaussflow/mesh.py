"""Discrete closed immersions and their geometric operators.

Two kinds of immersion are supported: closed polygonal curves (intrinsic
dimension 1, any ambient dimension >= 2) and closed triangulated surfaces
(intrinsic dimension 2, ambient dimension 3).  The operators are the ones
the flow engine needs: mean curvature vector, normal projection, squared
second-fundamental-form norm, Laplace-Beltrami of scalar fields, Gaussian
weighted area, and a mesh-quality proxy.

Discretization choices (fixed, see module tests for the convergence
behavior): curves use edge-length-weighted second differences, surfaces use
the cotangent Laplacian with mixed Voronoi vertex areas.  The blow-up
monitor needs the full |h|^2, not |H|^2; on surfaces it comes from
|h|^2 = |H|^2 - 2K with the angle-defect Gauss curvature K over the same
mixed areas, so one pass over the faces yields every surface quantity.
That pass works on per-corner values and sums them onto vertices through
one sparse corner-to-vertex matrix built once per topology.

Each immersion caches the result of its one geometry pass, and every
operator reads from that cache.  The cache also holds |F|^2 per vertex and
its maximum, the edge-length extremes and the quality proxy, so the flow
engine steps curves and surfaces through these operators alone.  The static per-topology data
lives in a connectivity object that an evolving immersion shares with its
successors: the neighbour index arrays of a closed curve, or the face list
and scatter matrix of a surface.  The curve tangent (normalized central
chord) is not cached; the operators that use it compute it.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .errors import DegenerateMesh, InvalidConfig

DEGENERACY_TOL = 1e-12


class _Connectivity:
    """Static per-topology data, shared across an evolving mesh: the face
    list and the sparse matrix that sums per-corner values onto vertices.

    Everything here depends only on the face list, so a flow run computes
    it once and passes it along as vertices move.
    """

    def __init__(self, faces: np.ndarray, n_vertices: int):
        self.faces = faces
        self.n_vertices = n_vertices
        self._validate_closed_oriented()
        # corner k of face j is column k * n_faces + j, so a corner-major
        # (3, n_faces) array flattens straight onto the columns
        n_corners = faces.size
        self.scatter = sparse.csr_array(
            (np.ones(n_corners), (faces.T.ravel(), np.arange(n_corners))),
            shape=(n_vertices, n_corners))

    def _validate_closed_oriented(self):
        f = self.faces
        if f.ndim != 2 or f.shape[1] != 3:
            raise InvalidConfig("face list must have shape (n_faces, 3)")
        if f.min() < 0 or f.max() >= self.n_vertices:
            raise InvalidConfig("face indices out of range")
        if np.any(f[:, 0] == f[:, 1]) or np.any(f[:, 1] == f[:, 2]) or np.any(f[:, 0] == f[:, 2]):
            raise InvalidConfig("face with repeated vertex")
        directed = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]])
        keys = directed[:, 0].astype(np.int64) * self.n_vertices + directed[:, 1]
        if np.unique(keys).size != keys.size:
            raise InvalidConfig("surface is not consistently oriented (repeated directed edge)")
        undirected = np.sort(directed, axis=1)
        ukeys = undirected[:, 0].astype(np.int64) * self.n_vertices + undirected[:, 1]
        ukeys.sort()
        if ukeys.size % 2 != 0 or np.any(ukeys[0::2] != ukeys[1::2]):
            raise InvalidConfig("surface is not closed (edge not shared by exactly 2 faces)")


class _CurveConnectivity:
    """Static per-topology data of a closed curve: the indices of each
    vertex's successor and predecessor, closing the last vertex onto the
    first."""

    def __init__(self, n_vertices: int):
        self.nxt = np.arange(1, n_vertices + 1) % n_vertices
        self.prv = np.arange(-1, n_vertices - 1) % n_vertices


class DiscreteImmersion:
    """Closed polygonal curve (m=1) or closed triangulated surface (m=2).

    Parameters
    ----------
    m : int
        Intrinsic dimension, 1 for curves, 2 for surfaces.
    vertices : (n, d) array
        Vertex positions; d >= 2 for curves, d = 3 for surfaces.
        Consecutive curve vertices are implicitly connected, with closure
        from the last vertex back to the first.
    faces : (nf, 3) int array, optional
        Triangle list (surfaces only), consistently oriented.
    validate : bool
        Skip invariant checks when False (internal fast path for flow
        stepping; degeneracy is then monitored by the caller).
    """

    __slots__ = ("m", "vertices", "faces", "_conn", "_geom")

    def __init__(self, m: int, vertices, faces=None, validate: bool = True,
                 _conn: _Connectivity | _CurveConnectivity | None = None):
        v = np.asarray(vertices, dtype=np.float64)
        if v.ndim != 2:
            raise InvalidConfig("vertices must be a 2-d array")
        self.m = int(m)
        self.vertices = v
        self.vertices.flags.writeable = False
        self._geom = None
        if self.m == 1:
            if faces is not None:
                raise InvalidConfig("curves carry no face list")
            self.faces = None
            self._conn = _conn if _conn is not None else _CurveConnectivity(len(v))
        elif self.m == 2:
            if faces is None:
                raise InvalidConfig("surfaces need a face list")
            f = np.asarray(faces, dtype=np.int64)
            self.faces = f
            self.faces.flags.writeable = False
            self._conn = _conn if _conn is not None else _Connectivity(f, len(v))
        else:
            raise InvalidConfig(f"m must be 1 or 2, got {m}")
        if validate:
            self._validate()

    @property
    def ambient_dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    def _validate(self):
        v = self.vertices
        if not np.all(np.isfinite(v)):
            raise InvalidConfig("vertex positions must be finite")
        if self.m == 1:
            if v.shape[1] < 2:
                raise InvalidConfig("curves need ambient dimension >= 2")
            if len(v) < 4:
                raise InvalidConfig("closed curves need at least 4 vertices")
        elif v.shape[1] != 3:
            raise InvalidConfig("surfaces are restricted to ambient dimension 3")
        # checked, not cached: an immersion that is only stored, such as a
        # loaded snapshot, should not hold its geometry
        try:
            if self.m == 1:
                _curve_geometry(v, self._conn)
                _curve_tangent(self)
            else:
                _surface_geometry(v, self._conn)
        except DegenerateMesh as exc:
            raise InvalidConfig(f"degenerate immersion: {exc}") from exc

    def replace_vertices(self, vertices, validate: bool = False) -> "DiscreteImmersion":
        """New immersion with the same connectivity and new positions."""
        if validate:
            return DiscreteImmersion(self.m, vertices, self.faces, _conn=self._conn)
        # a successor shares m, faces and connectivity already checked, so
        # the flow's per-stage immersions skip the constructor's checks
        new = object.__new__(DiscreteImmersion)
        new.m, new.faces, new._conn, new._geom = self.m, self.faces, self._conn, None
        new.vertices = np.asarray(vertices, dtype=np.float64)
        new.vertices.flags.writeable = False
        return new

    # geometry cache: immersions are immutable, so per-instance results of
    # the edge/cotan pass are computed once and shared between operators
    def _geometry(self) -> dict:
        if self._geom is None:
            if self.m == 1:
                self._geom = _curve_geometry(self.vertices, self._conn)
            else:
                self._geom = _surface_geometry(self.vertices, self._conn)
        return self._geom


# ---------------------------------------------------------------------------
# curve internals


def _curve_geometry(v: np.ndarray, conn: _CurveConnectivity) -> dict:
    e = v[conn.nxt] - v                          # edge i -> i+1
    lengths = np.sqrt(np.einsum("ij,ij->i", e, e))
    l_min, l_max = float(lengths.min()), float(lengths.max())
    if l_min <= DEGENERACY_TOL:
        raise DegenerateMesh(f"curve edge length below {DEGENERACY_TOL:g}")
    u = e / lengths[:, None]
    areas = 0.5 * (lengths[conn.prv] + lengths)
    F2 = np.einsum("ij,ij->i", v, v)
    return {
        "edge_lengths": lengths,
        "vertex_areas": areas,
        "H": (u - u[conn.prv]) / areas[:, None],
        "F2": F2,
        "F2_max": float(F2.max()),
        "quality": l_min / l_max,
        "min_edge": l_min,
        "max_edge": l_max,
    }


def _curve_tangent(s: DiscreteImmersion) -> np.ndarray:
    """Unit central chord v[i+1] - v[i-1] per vertex."""
    v, conn = s.vertices, s._conn
    chord = v[conn.nxt] - v[conn.prv]
    cnorm = np.sqrt(np.einsum("ij,ij->i", chord, chord))
    if cnorm.min() <= DEGENERACY_TOL:
        raise DegenerateMesh("curve folded back on itself (zero central tangent)")
    return chord / cnorm[:, None]


# ---------------------------------------------------------------------------
# surface internals


def _surface_geometry(v: np.ndarray, conn: _Connectivity) -> dict:
    # corner-major layout: row k holds corner k of every face, e1 / e2 are
    # the edges leaving it towards corners k+1 / k+2
    p = v[conn.faces.T]                          # (3, n_faces, 3)
    e1 = np.roll(p, -1, axis=0) - p
    e2 = np.roll(p, 1, axis=0) - p
    cross = np.cross(e1[0], e2[0])
    cross_norm = np.linalg.norm(cross, axis=1)
    face_area = 0.5 * cross_norm
    if face_area.min() <= DEGENERACY_TOL:
        raise DegenerateMesh(f"triangle area below {DEGENERACY_TOL:g}")

    # all three corners span the same triangle, so they share |e1 x e2|:
    # cot = <e1, e2> / |e1 x e2| and angle = atan2(|e1 x e2|, <e1, e2>)
    dots = np.einsum("kfi,kfi->kf", e1, e2)
    cots = dots / cross_norm
    angles = np.arctan2(cross_norm, dots)
    cot_next = np.roll(cots, -1, axis=0)         # cot at corner k+1, opposite e2
    cot_prev = np.roll(cots, 1, axis=0)          # cot at corner k+2, opposite e1
    l1 = np.einsum("kfi,kfi->kf", e1, e1)
    l2 = np.einsum("kfi,kfi->kf", e2, e2)

    # mixed Voronoi area: circumcentric for acute triangles, half/quarter
    # of the face area at/off the obtuse corner otherwise
    obtuse = cots < 0
    w = np.where(obtuse.any(axis=0),
                 np.where(obtuse, face_area / 2, face_area / 4),
                 (l2 * cot_next + l1 * cot_prev) / 8)
    areas = conn.scatter @ w.ravel()
    if areas.min() <= DEGENERACY_TOL:
        raise DegenerateMesh("vertex area underflow")

    # cotan Laplacian of the position map = mean curvature vector
    corner_H = 0.5 * (cot_prev[:, :, None] * e1 + cot_next[:, :, None] * e2)
    H = (conn.scatter @ corner_H.reshape(-1, 3)) / areas[:, None]

    vertex_normal = conn.scatter @ np.tile(0.5 * cross, (3, 1))
    nn = np.linalg.norm(vertex_normal, axis=1)
    if nn.min() <= DEGENERACY_TOL:
        raise DegenerateMesh("vanishing vertex normal")
    vertex_normal /= nn[:, None]

    # |h|^2 = |H|^2 - 2K with K the angle defect over the same mixed area;
    # the clamp absorbs discretization error on nearly flat vertices
    gauss = (2.0 * np.pi - conn.scatter @ angles.ravel()) / areas
    h2 = np.maximum(np.einsum("ij,ij->i", H, H) - 2.0 * gauss, 0.0)

    edge = np.sqrt(l1)                           # edge k runs from corner k to k+1
    semi = 0.5 * edge.sum(axis=0)
    q = 8.0 * face_area ** 2 / (semi * edge.prod(axis=0))
    F2 = np.einsum("ij,ij->i", v, v)

    return {
        "face_area": face_area,
        "vertex_areas": areas,
        "H": H,
        "normal": vertex_normal,
        "h2": h2,
        "F2": F2,
        "F2_max": float(F2.max()),
        "quality": float(q.min()),
        "cots": cots,
        "min_edge": float(edge.min()),
        "max_edge": float(edge.max()),
    }


def _surface_laplacian(s: DiscreteImmersion, geom: dict, f_vals: np.ndarray) -> np.ndarray:
    cots = geom["cots"]
    fc = f_vals[s.faces.T]                       # (3, n_faces) corner values
    corner = 0.5 * (np.roll(cots, 1, axis=0) * (np.roll(fc, -1, axis=0) - fc)
                    + np.roll(cots, -1, axis=0) * (np.roll(fc, 1, axis=0) - fc))
    return (s._conn.scatter @ corner.ravel()) / geom["vertex_areas"]


# ---------------------------------------------------------------------------
# operators


def _check_field(s: DiscreteImmersion, values, vector: bool) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    want = (s.n_vertices, s.ambient_dim) if vector else (s.n_vertices,)
    if arr.shape != want:
        raise InvalidConfig(f"vertex field has shape {arr.shape}, expected {want}")
    if not np.all(np.isfinite(arr)):
        raise InvalidConfig("vertex field has non-finite entries")
    return arr


def mean_curvature_vector(s: DiscreteImmersion) -> np.ndarray:
    """Per-vertex mean curvature vector H (the discrete Laplacian of position).

    Curves: edge-length-weighted second difference, exact on regular
    polygons.  Surfaces: cotangent Laplacian over mixed Voronoi areas.
    Points toward the center of curvature, so a round sphere of radius R
    gives H ~ -(m/R^2) F.
    """
    return s._geometry()["H"].copy()


def vertex_areas(s: DiscreteImmersion) -> np.ndarray:
    """Vertex area weights: half edge sums (curves), mixed Voronoi (surfaces)."""
    return s._geometry()["vertex_areas"].copy()


def normal_projection(s: DiscreteImmersion, v) -> np.ndarray:
    """Component of a per-vertex ambient field normal to the immersion.

    Removes the projection onto the discrete tangent space: the normalized
    central-difference tangent for curves, the plane orthogonal to the
    area-weighted vertex normal for surfaces.
    """
    field = _check_field(s, v, vector=True)
    if s.m == 1:
        t = _curve_tangent(s)
        return field - np.einsum("ij,ij->i", field, t)[:, None] * t
    nrm = s._geometry()["normal"]
    return ((field * nrm).sum(axis=1))[:, None] * nrm


def tangent_basis(s: DiscreteImmersion) -> np.ndarray:
    """Orthonormal tangent basis per vertex, shape (n, m, d)."""
    if s.m == 1:
        return _curve_tangent(s)[:, None, :]
    nrm = s._geometry()["normal"]
    ref = np.zeros_like(nrm)
    ref[np.arange(len(nrm)), np.argmin(np.abs(nrm), axis=1)] = 1.0
    t1 = np.cross(nrm, ref)
    t1 /= np.linalg.norm(t1, axis=1)[:, None]
    t2 = np.cross(nrm, t1)
    return np.stack([t1, t2], axis=1)


def laplace_beltrami(s: DiscreteImmersion, f) -> np.ndarray:
    """Discrete Laplace-Beltrami of a scalar vertex field.

    Uses the same weights as :func:`mean_curvature_vector`, so the operator
    is symmetric with respect to the vertex-area inner product.
    """
    vals = _check_field(s, f, vector=False)
    geom = s._geometry()
    if s.m == 1:
        nxt, prv = s._conn.nxt, s._conn.prv
        lengths = geom["edge_lengths"]
        d_next = (vals[nxt] - vals) / lengths
        d_prev = (vals - vals[prv]) / lengths[prv]
        return (d_next - d_prev) / geom["vertex_areas"]
    return _surface_laplacian(s, geom, vals)


def laplacian_spectral_bound(s: DiscreteImmersion) -> float:
    """Gershgorin bound on the spectral radius of the discrete Laplacian.

    Row i of the operator is (1/A_i) sum_j w_ij (u_j - u_i), so every
    eigenvalue lies within 2 sum_j |w_ij| / A_i of zero.  Curves:
    w = 1/l on both edges and A_i = (l_i + l_{i-1}) / 2, which gives
    4 / (l_i l_{i-1}).  Surfaces: each corner adds half the cotangents of
    the other two corners of its face to its two edges, and the absolute
    values are summed per corner, which bounds sum_j |w_ij| from above.
    """
    geom = s._geometry()
    if s.m == 1:
        lengths = geom["edge_lengths"]
        return float((4.0 / (lengths * lengths[s._conn.prv])).max())
    cots = np.abs(geom["cots"])
    row = s._conn.scatter @ (np.roll(cots, 1, axis=0) + np.roll(cots, -1, axis=0)).ravel()
    return float((row / geom["vertex_areas"]).max())


def gradient_norm_sq(s: DiscreteImmersion, f) -> np.ndarray:
    """Squared norm of the intrinsic gradient of a scalar vertex field.

    Curves: central difference along arclength.  Surfaces: area-weighted
    average of the per-face P1 gradients.
    """
    vals = _check_field(s, f, vector=False)
    geom = s._geometry()
    if s.m == 1:
        nxt, prv = s._conn.nxt, s._conn.prv
        lengths = geom["edge_lengths"]
        g = (vals[nxt] - vals[prv]) / (lengths[prv] + lengths)
        return g * g
    i0, i1, i2 = s.faces.T
    v = s.vertices
    p0, p1, p2 = v[i0], v[i1], v[i2]
    nrm = np.cross(p1 - p0, p2 - p0)
    two_area = np.linalg.norm(nrm, axis=1)
    nrm = nrm / two_area[:, None]
    # P1 gradient: sum of f at each corner times the rotated opposite edge
    grad = (vals[i0][:, None] * np.cross(nrm, p2 - p1)
            + vals[i1][:, None] * np.cross(nrm, p0 - p2)
            + vals[i2][:, None] * np.cross(nrm, p1 - p0)) / two_area[:, None]
    g2 = (grad * grad).sum(axis=1)
    fa = geom["face_area"]
    scatter = s._conn.scatter
    return (scatter @ np.tile(g2 * fa, 3)) / (scatter @ np.tile(fa, 3))


def second_fundamental_norm(s: DiscreteImmersion) -> np.ndarray:
    """Per-vertex estimate of |h|^2, the squared second-fundamental-form norm.

    Curves have a single principal curvature, so |h|^2 = |H|^2 in any
    codimension.  Surfaces use |h|^2 = k1^2 + k2^2 = |H|^2 - 2K, with H the
    cotan mean curvature vector and K the angle defect divided by the mixed
    Voronoi area (Meyer, Desbrun, Schroeder & Barr 2003), clamped at 0.  On
    umbilic meshes this recovers m/R^2 up to discretization error.
    """
    geom = s._geometry()
    if s.m == 1:
        H = geom["H"]
        return np.einsum("ij,ij->i", H, H)
    return geom["h2"].copy()


def weighted_area(s: DiscreteImmersion) -> float:
    """Gaussian-weighted area: sum over vertices of exp(-|F|^2/2) * area.

    The conformal volume element scales as (exp(-|F|^2/m))^{m/2}, so the
    weight is exp(-|F|^2/2) for curves and surfaces alike.  Decays to zero
    as the immersion is pushed to infinity.
    """
    geom = s._geometry()
    with np.errstate(under="ignore"):
        w = np.exp(-0.5 * geom["F2"])
    return float(w @ geom["vertex_areas"])


def area(s: DiscreteImmersion) -> float:
    """Unweighted total length (curves) or area (surfaces)."""
    geom = s._geometry()
    if s.m == 1:
        return float(geom["edge_lengths"].sum())
    return float(geom["face_area"].sum())


def mesh_quality(s: DiscreteImmersion) -> float:
    """Shape-regularity proxy in (0, 1]; 0 flags fully degenerate input.

    Curves: min/max edge length.  Surfaces: worst face inradius over
    circumradius, normalized to 1 for equilateral triangles.
    """
    try:
        return s._geometry()["quality"]
    except DegenerateMesh:
        return 0.0
