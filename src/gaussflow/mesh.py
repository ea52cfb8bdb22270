"""Discrete closed immersions and their geometric operators.

Two kinds of immersion are supported: closed polygonal curves (intrinsic
dimension 1, any ambient dimension >= 2) and closed triangulated surfaces
(intrinsic dimension 2, ambient dimension 3).  The operators are the ones
the package calls: mean curvature vector, normal projection, squared
second-fundamental-form norm, the Laplacian's spectral bound and Gaussian
weighted area.  The engine reads the worst mesh quality from the geometry
pass itself.

Discretization choices (fixed, see module tests for the convergence
behavior): curves use edge-length-weighted second differences, surfaces use
the cotangent Laplacian with mixed Voronoi vertex areas.  The blow-up
monitor needs the full |h|^2, not |H|^2; on surfaces it comes from
|h|^2 = |H|^2 - 2K with the angle-defect Gauss curvature K over the same
mixed areas, so one pass over the faces yields every surface quantity.
That pass reads corners coordinate-major, P[coord, corner, face], and sums
each corner field onto vertices with one bincount over a per-topology index.

Each immersion caches the result of its one geometry pass, and every
operator reads from that cache.  A pass computes as much as its caller
asks for: the fields the velocity reads (cotangents or edge lengths, mixed
areas, H, |F|^2 and its maximum, the shortest curve edge); those plus the
surface vertex normal, which FLOW0 stages read; or everything, the blow-up
monitor group included (surfaces: vertex normal, then angle defect, |h|^2
and its maximum, quality and edge extremes; curves: |h|^2 = |H|^2 and its
maximum, quality and the longest edge).  The flow's stages ask for the
velocity fields, FLOW0 stages for the normal as well, and the engine's
monitor for everything, once per accepted state.  The cache remembers how
much it holds, and a request for more runs the pass again at the larger
level; a vanishing normal raises DegenerateMesh on every request that
includes it.

A surface pass allocates only the fields it returns.  Its temporaries
(corner coordinates, edges, cross products, dot products, squared edge
lengths, corner weights) live in one workspace per thread, kept for the
mesh size last seen and replaced when the size changes, so a flow's passes
do not map and fault in fresh pages each time.  A pass computes every
field it returns before it returns, so no cached geometry reads the
workspace later.  The static per-topology data lives in a connectivity
object that an evolving immersion shares with its successors, and the
snapshots of one loaded trajectory with the first: the neighbour index
arrays of a closed curve, or the face list and corner-to-vertex indices of
a surface.  The curve tangent (normalized central chord) is not cached; the
operators that use it compute it.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import DegenerateMesh, InvalidConfig

DEGENERACY_TOL = 1e-12

# how much of a geometry pass to compute: the fields a stage's velocity
# reads, those and the surface vertex normal, or the whole monitor group too
_BASE, _NORMAL, _MONITOR = range(3)


class _Connectivity:
    """Static per-topology data, shared across an evolving mesh: the face
    list, its corners (row k of the (3, n_faces) array holds corner k of every
    face) and the coordinate-major index that sums corner vectors onto vertices.

    Everything here depends only on the face list, so a flow run computes
    it once and passes it along as vertices move.
    """

    def __init__(self, faces: np.ndarray, n_vertices: int):
        self.faces = faces
        self.n_vertices = n_vertices
        self._validate_closed_oriented()
        self.corners = np.ascontiguousarray(faces.T)
        # coordinate i of corner k of face j sums into i * n_vertices + vertex
        self._corner_coord = (np.arange(3)[:, None] * n_vertices + self.corners.ravel()).ravel()

    def to_vertices(self, values: np.ndarray) -> np.ndarray:
        """Sum (3, n_faces) scalars or coordinate-major (3, 3, n_faces) vectors onto vertices."""
        if values.ndim == 2:
            return np.bincount(self.corners.ravel(), values.ravel(), minlength=self.n_vertices)
        return np.bincount(self._corner_coord, values.ravel(),
                           minlength=3 * self.n_vertices).reshape(3, -1)

    def _validate_closed_oriented(self):
        f = self.faces
        if f.ndim != 2 or f.shape[1] != 3:
            raise InvalidConfig("face list must have shape (n_faces, 3)")
        if len(f) == 0:
            raise InvalidConfig("face list is empty")
        if f.min() < 0 or f.max() >= self.n_vertices:
            raise InvalidConfig("face indices out of range")
        if np.any(f[:, 0] == f[:, 1]) or np.any(f[:, 1] == f[:, 2]) or np.any(f[:, 0] == f[:, 2]):
            raise InvalidConfig("face with repeated vertex")
        directed = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]])
        # sorted keys, compared with their neighbours: np.unique would run
        # numpy's hash path, which maps more code and takes longer
        keys = np.sort(directed[:, 0].astype(np.int64) * self.n_vertices + directed[:, 1])
        if np.any(keys[1:] == keys[:-1]):
            raise InvalidConfig("surface is not consistently oriented (repeated directed edge)")
        undirected = np.sort(directed, axis=1)
        ukeys = np.sort(undirected[:, 0].astype(np.int64) * self.n_vertices + undirected[:, 1])
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
    """

    __slots__ = ("m", "vertices", "faces", "_conn", "_geom", "_level")

    def __init__(self, m: int, vertices, faces=None):
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
            self._conn = _CurveConnectivity(len(v))
        elif self.m == 2:
            if faces is None:
                raise InvalidConfig("surfaces need a face list")
            f = np.asarray(faces, dtype=np.int64)
            self.faces = f
            self.faces.flags.writeable = False
            self._conn = _Connectivity(f, len(v))
        else:
            raise InvalidConfig(f"m must be 1 or 2, got {m}")
        self._validate()

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
                _curve_geometry(v, self._conn, _MONITOR)
                _curve_tangent(self)
            else:
                _surface_geometry(v, self._conn, _MONITOR)
        except DegenerateMesh as exc:
            raise InvalidConfig(f"degenerate immersion: {exc}") from exc

    def replace_vertices(self, vertices) -> "DiscreteImmersion":
        """New immersion with the same connectivity and new positions."""
        # a successor shares m, faces and connectivity already checked, so
        # the flow's per-stage immersions skip the constructor's checks
        new = object.__new__(DiscreteImmersion)
        new.m, new.faces, new._conn, new._geom = self.m, self.faces, self._conn, None
        new.vertices = np.asarray(vertices, dtype=np.float64)
        new.vertices.flags.writeable = False
        return new

    def replace_vertices_checked(self, vertices) -> "DiscreteImmersion":
        """replace_vertices with every check the constructor makes on the
        positions: an array of this immersion's shape, so of its vertex count
        and ambient dimension, finite, with a non-degenerate geometry pass."""
        v = np.asarray(vertices, dtype=np.float64)
        if v.shape != self.vertices.shape:
            raise InvalidConfig(f"positions of shape {v.shape} for an immersion of shape "
                                f"{self.vertices.shape}")
        new = self.replace_vertices(v)
        new._validate()
        return new

    # geometry cache: immersions are immutable, so per-instance results of
    # the edge/cotan pass are computed once and shared between operators;
    # a request for a larger level than the cache holds reruns the pass
    def _geometry(self, level: int = _BASE) -> dict:
        if self._geom is None or self._level < level:
            run = _curve_geometry if self.m == 1 else _surface_geometry
            self._geom = run(self.vertices, self._conn, level)
            self._level = level
        return self._geom


# ---------------------------------------------------------------------------
# curve internals


def _curve_geometry(v: np.ndarray, conn: _CurveConnectivity, level: int) -> dict:
    # in place, the same operations in the same order as the expression form
    # (u - u[prv]) / (0.5 * (l[prv] + l))[:, None] with u = e / l[:, None]
    e = v.take(conn.nxt, axis=0)
    e -= v                                       # edge i -> i+1
    lengths = np.einsum("ij,ij->i", e, e)
    np.sqrt(lengths, out=lengths)
    l_min = float(lengths.min())
    if l_min <= DEGENERACY_TOL:
        raise DegenerateMesh(f"curve edge length below {DEGENERACY_TOL:g}")
    e /= lengths[:, None]                        # the unit edges
    areas = lengths.take(conn.prv)
    areas += lengths
    areas *= 0.5
    H = e.take(conn.prv, axis=0)
    np.subtract(e, H, out=H)
    H /= areas[:, None]
    F2 = np.einsum("ij,ij->i", v, v)
    geom = {"edge_lengths": lengths, "vertex_areas": areas, "H": H, "F2": F2,
            "F2_max": float(F2.max()), "min_edge": l_min}
    if level >= _MONITOR:
        l_max = float(lengths.max())
        h2 = np.einsum("ij,ij->i", H, H)
        geom.update(h2=h2, h2_max=float(h2.max()), quality=l_min / l_max, max_edge=l_max)
    return geom


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


_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])   # corners k+1 and k+2 of corner k


class _Workspace:
    """Buffers for the pure temporaries of a surface pass on meshes of one
    size, reused from pass to pass by one thread; the pass reads them only
    while it runs, so the fields it returns never depend on them."""

    def __init__(self, n_vertices: int, n_faces: int):
        self.size = (n_vertices, n_faces)
        self.vc = np.empty((3, n_vertices))
        self.P, self.E = np.empty((2, 3, 3, n_faces))
        self.cross, self.dots, self.l1, self.l2, self.cot_next, self.cot_prev, self.w = \
            np.empty((7, 3, n_faces))
        self.row, self.cross_norm, self.face_area = np.empty((3, n_faces))
        self.obtuse = np.empty((3, n_faces), dtype=bool)


_slot = threading.local()


def _workspace(n_vertices: int, n_faces: int) -> _Workspace:
    """This thread's workspace, replaced when the mesh size changes."""
    ws = getattr(_slot, "workspace", None)
    if ws is None or ws.size != (n_vertices, n_faces):
        ws = _slot.workspace = _Workspace(n_vertices, n_faces)
    return ws


def _surface_geometry(v: np.ndarray, conn: _Connectivity, level: int) -> dict:
    # P[i, k, j] is coordinate i of corner k of face j; the edges leaving
    # corner k are E[:, k] (to corner k+1) and -Ep[:, k] (to corner k+2).
    # Pure temporaries live in the thread's workspace, so a pass allocates
    # only the fields it returns; Ep and later the normals' corner vectors
    # overwrite P, and the H corner vectors E.  np.take into out= buffers
    # under its default mode "raise"; "clip" writes in place, and every
    # index is in range (corners checked by _Connectivity, _NEXT and _PREV).
    ws = _workspace(conn.n_vertices, len(conn.faces))
    vc, P, E, cross, row = ws.vc, ws.P, ws.E, ws.cross, ws.row
    np.copyto(vc, v.T)
    np.take(vc, conn.corners, axis=1, out=P, mode="clip")     # (3, 3, n_faces)
    np.subtract(P[:, 1:], P[:, :2], out=E[:, :2])
    np.subtract(P[:, 0], P[:, 2], out=E[:, 2])
    Ep = P
    Ep[:, 0], Ep[:, 1:] = E[:, 2], E[:, :2]
    (ax, ay, az), (bx, by, bz) = E[:, 0], Ep[:, 0]
    # Ep x E, one coordinate row f*g - h*k at a time
    for out, (f, g, h, k) in zip(cross, ((by, az, bz, ay), (bz, ax, bx, az),
                                         (bx, ay, by, ax))):
        np.multiply(f, g, out=out)
        out -= np.multiply(h, k, out=row)
    cross_norm = np.einsum("ij,ij->j", cross, cross, out=ws.cross_norm)
    np.sqrt(cross_norm, out=cross_norm)
    face_area = np.multiply(0.5, cross_norm, out=ws.face_area)
    if face_area.min() <= DEGENERACY_TOL:
        raise DegenerateMesh(f"triangle area below {DEGENERACY_TOL:g}")

    # all three corners span the same triangle, so they share |E x Ep|:
    # cot = <E, -Ep> / |E x Ep| and angle = atan2(|E x Ep|, <E, -Ep>)
    dots = np.einsum("ikj,ikj->kj", E, Ep, out=ws.dots)      # (3, n_faces)
    np.negative(dots, out=dots)
    cots = dots / cross_norm
    cot_next = np.take(cots, _NEXT, axis=0, out=ws.cot_next, mode="clip")   # opposite -Ep
    cot_prev = np.take(cots, _PREV, axis=0, out=ws.cot_prev, mode="clip")   # opposite E
    l1 = np.einsum("ikj,ikj->kj", E, E, out=ws.l1)   # |E|^2, edge k runs from corner k to k+1
    l2 = np.take(l1, _PREV, axis=0, out=ws.l2, mode="clip")                 # |Ep|^2

    # mixed Voronoi area: circumcentric for acute triangles, half/quarter
    # of the face area at/off the obtuse corner otherwise
    w = np.multiply(l2, cot_next, out=ws.w)
    w += np.multiply(l1, cot_prev, out=l2)      # l2 is spent
    w /= 8
    obtuse = np.less(cots, 0, out=ws.obtuse)
    blunt = np.flatnonzero(obtuse.any(axis=0))
    w[:, blunt] = np.where(obtuse[:, blunt], face_area[blunt] / 2, face_area[blunt] / 4)
    areas = conn.to_vertices(w)
    if areas.min() <= DEGENERACY_TOL:
        raise DegenerateMesh("vertex area underflow")

    # cotan Laplacian of the position map = mean curvature vector
    E *= cot_prev
    E -= np.multiply(cot_next, Ep, out=Ep)
    H = conn.to_vertices(E)
    H *= 0.5
    H /= areas
    F2 = np.einsum("ij,ij->j", vc, vc)

    geom = {"vertex_areas": areas, "H": np.ascontiguousarray(H.T), "F2": F2,
            "F2_max": float(F2.max()), "cots": cots}
    if level >= _NORMAL:
        # the normal first: a vanishing one raises DegenerateMesh before the
        # rest of the monitor group, at every level that includes it
        np.multiply(0.5, cross[:, None], out=P)
        vertex_normal = conn.to_vertices(P)
        nn = np.sqrt(np.einsum("ij,ij->j", vertex_normal, vertex_normal))
        if nn.min() <= DEGENERACY_TOL:
            raise DegenerateMesh("vanishing vertex normal")
        vertex_normal /= nn
        geom["normal"] = np.ascontiguousarray(vertex_normal.T)
    if level >= _MONITOR:
        # |h|^2 = |H|^2 - 2K with K the angle defect over the same mixed area;
        # the clamp absorbs discretization error on nearly flat vertices.
        # The angles, edge lengths and quality terms go to buffers the pass
        # has spent: q = 8.0 * face_area ** 2 / (semi * edge.prod(axis=0))
        angles = np.arctan2(cross_norm, dots, out=ws.w)
        gauss = (2.0 * np.pi - conn.to_vertices(angles)) / areas
        edge = np.sqrt(l1, out=ws.l2)
        semi = np.einsum("ij->j", edge, out=ws.row)
        semi *= 0.5
        q, prod = ws.cot_next[:2]
        np.square(face_area, out=q)
        q *= 8.0
        q /= np.multiply(semi, edge.prod(axis=0, out=prod), out=prod)
        h2 = np.maximum(np.einsum("ij,ij->j", H, H) - 2.0 * gauss, 0.0)
        geom.update(h2=h2, h2_max=float(h2.max()), quality=float(q.min()),
                    min_edge=float(edge.min()), max_edge=float(edge.max()))
    return geom


# ---------------------------------------------------------------------------
# operators


def _check_field(s: DiscreteImmersion, values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != s.vertices.shape:
        raise InvalidConfig(f"vertex field has shape {arr.shape}, expected {s.vertices.shape}")
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


def normal_projection(s: DiscreteImmersion, v) -> np.ndarray:
    """Component of a per-vertex ambient field normal to the immersion.

    Removes the projection onto the discrete tangent space: the normalized
    central-difference tangent for curves, the plane orthogonal to the
    area-weighted vertex normal for surfaces.
    """
    field = _check_field(s, v)
    if s.m == 1:
        t = _curve_tangent(s)
        return field - np.einsum("ij,ij->i", field, t)[:, None] * t
    nrm = s._geometry(_NORMAL)["normal"]
    return ((field * nrm).sum(axis=1))[:, None] * nrm


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
    row = s._conn.to_vertices(cots[_PREV] + cots[_NEXT])
    return float((row / geom["vertex_areas"]).max())


def second_fundamental_norm(s: DiscreteImmersion) -> np.ndarray:
    """Per-vertex estimate of |h|^2, the squared second-fundamental-form norm.

    Curves have a single principal curvature, so |h|^2 = |H|^2 in any
    codimension.  Surfaces use |h|^2 = k1^2 + k2^2 = |H|^2 - 2K, with H the
    cotan mean curvature vector and K the angle defect divided by the mixed
    Voronoi area (Meyer, Desbrun, Schroeder & Barr 2003), clamped at 0.  On
    umbilic meshes this recovers m/R^2 up to discretization error.
    """
    return s._geometry(_MONITOR)["h2"].copy()


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
