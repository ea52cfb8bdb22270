import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussflow import mesh, shapes
from gaussflow.errors import DegenerateMesh, InvalidConfig
from gaussflow.mesh import DiscreteImmersion

import mesh_oracles


def nonuniform_circle(radius: float, n: int) -> DiscreteImmersion:
    """Round circle sampled with a smooth non-uniform angle map, so the
    discretization error is non-zero and refinement is observable."""
    s = 2.0 * np.pi * np.arange(n) / n
    theta = s + 0.4 * np.sin(s)
    v = radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return DiscreteImmersion(1, v)


def tangent_basis(s: DiscreteImmersion) -> np.ndarray:
    """Orthonormal tangent basis per vertex, shape (n, m, d): the unit
    central chord of a curve, or two unit vectors orthogonal to a surface's
    vertex normal."""
    if s.m == 1:
        chord = np.roll(s.vertices, -1, axis=0) - np.roll(s.vertices, 1, axis=0)
        return (chord / np.linalg.norm(chord, axis=1)[:, None])[:, None, :]
    nrm = s._geometry(mesh._NORMAL)["normal"]
    ref = np.zeros_like(nrm)
    ref[np.arange(len(nrm)), np.argmin(np.abs(nrm), axis=1)] = 1.0
    t1 = np.cross(nrm, ref)
    t1 /= np.linalg.norm(t1, axis=1)[:, None]
    t2 = np.cross(nrm, t1)
    return np.stack([t1, t2], axis=1)


def total_area(s: DiscreteImmersion) -> float:
    """Unweighted total length (curves) or area (surfaces)."""
    v = s.vertices
    if s.m == 1:
        return float(np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1).sum())
    a, b, c = (v[s.faces[:, k]] for k in range(3))
    return 0.5 * float(np.linalg.norm(np.cross(b - a, c - a), axis=1).sum())


# ---------------------------------------------------------------------------
# mean curvature vector


def test_circle_mean_curvature_matches_inward_radial():
    c = shapes.circle(2.0, 256)
    H = mesh.mean_curvature_vector(c)
    exact = -c.vertices / 4.0
    rel = np.linalg.norm(H - exact, axis=1) / np.linalg.norm(exact, axis=1)
    assert rel.max() < 1e-3


def test_icosphere_mean_curvature():
    s = shapes.icosphere(1.0, 3)
    H = mesh.mean_curvature_vector(s)
    exact = -2.0 * s.vertices
    rel = np.linalg.norm(H - exact, axis=1) / 2.0
    assert rel.max() < 2e-2


def test_straight_segment_has_zero_curvature():
    v = np.array([
        [0.0, 0.0], [1.0, 0.0], [2.0, 0.0],   # collinear triple
        [2.0, 1.5], [1.0, 2.0], [0.0, 1.5],
    ])
    s = DiscreteImmersion(1, v)
    H = mesh.mean_curvature_vector(s)
    np.testing.assert_allclose(H[1], 0.0, atol=1e-14)


def test_curve_refinement_convergence():
    errs = {}
    for n in (64, 128, 256):
        c = nonuniform_circle(1.0, n)
        H = mesh.mean_curvature_vector(c)
        errs[n] = np.linalg.norm(H + c.vertices, axis=1).max()
    assert errs[128] < errs[64]
    assert errs[256] < errs[128]


def test_sphere_refinement_convergence():
    errors = []
    for subdiv in (1, 2, 3):
        s = shapes.icosphere(1.0, subdiv)
        h2 = mesh.second_fundamental_norm(s)
        errors.append(np.abs(h2 - 2.0).max())
    assert errors[2] < errors[1] < errors[0]


# ---------------------------------------------------------------------------
# normal projection


def test_projection_of_position_on_circle_is_identity():
    c = shapes.circle(1.5, 200)
    proj = mesh.normal_projection(c, np.asarray(c.vertices))
    assert np.abs(proj - c.vertices).max() < 1e-10


def test_projection_kills_tangent_fields():
    c = shapes.circle(1.0, 128)
    tangents = tangent_basis(c)[:, 0]
    assert np.abs(mesh.normal_projection(c, tangents)).max() < 1e-12


def test_ellipse_axis_endpoint_normal():
    e = shapes.ellipse(2.0, 1.0, 256)
    proj = mesh.normal_projection(e, np.asarray(e.vertices))
    np.testing.assert_allclose(proj[0], [2.0, 0.0], atol=1e-12)


def test_projection_idempotent_and_orthogonal_surface():
    s = shapes.ellipsoid(1.3, 1.0, 0.8, 2)
    rng = np.random.default_rng(11)
    field = rng.normal(size=s.vertices.shape)
    once = mesh.normal_projection(s, field)
    twice = mesh.normal_projection(s, once)
    assert np.abs(twice - once).max() < 1e-12
    basis = tangent_basis(s)
    for k in range(2):
        assert np.abs((once * basis[:, k]).sum(axis=1)).max() < 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 31), amp=st.floats(0.0, 0.3))
def test_projection_idempotent_on_random_curves(seed, amp):
    rng = np.random.default_rng(seed)
    n = 32
    theta = 2.0 * np.pi * np.arange(n) / n
    r = 1.0 + amp * np.cos(3 * theta + rng.uniform(0, 2 * np.pi))
    s = DiscreteImmersion(1, np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1))
    field = rng.normal(size=s.vertices.shape)
    once = mesh.normal_projection(s, field)
    twice = mesh.normal_projection(s, once)
    assert np.abs(twice - once).max() < 1e-12
    tangents = tangent_basis(s)[:, 0]
    assert np.abs((once * tangents).sum(axis=1)).max() < 1e-12


# ---------------------------------------------------------------------------
# second fundamental form norm


def test_circle_h2():
    c = shapes.circle(2.0, 256)
    h2 = mesh.second_fundamental_norm(c)
    np.testing.assert_allclose(h2, 0.25, rtol=1e-3)


def test_curve_h2_equals_h_norm_squared():
    c = nonuniform_circle(1.3, 96)
    H = mesh.mean_curvature_vector(c)
    np.testing.assert_array_equal(mesh.second_fundamental_norm(c), (H * H).sum(axis=1))


def test_icosphere_h2_umbilic():
    s = shapes.icosphere(1.0, 3)
    h2 = mesh.second_fundamental_norm(s)
    assert np.abs(h2 - 2.0).max() < 5e-2


def test_ellipsoid_h2_at_axis_endpoints():
    rx, ry, rz = 2.0, 1.5, 1.0
    s = shapes.ellipsoid(rx, ry, rz, 3)
    h2 = mesh.second_fundamental_norm(s)
    # vertices of the base icosahedron sit on the +-z axis after scaling;
    # principal curvatures there are rz/rx^2 and rz/ry^2
    idx = np.argmax(s.vertices[:, 2])
    expect = (rz / rx ** 2) ** 2 + (rz / ry ** 2) ** 2
    assert h2[idx] == pytest.approx(expect, rel=5e-2)


# ---------------------------------------------------------------------------
# Laplace-Beltrami


def test_laplacian_annihilates_constants():
    for s in (shapes.circle(1.0, 64), shapes.icosphere(1.0, 2)):
        out = mesh_oracles.laplace_beltrami(s, np.full(s.n_vertices, 3.7))
        assert np.abs(out).max() < 1e-12


def test_laplacian_of_position_norm_on_spheres():
    # on a round sphere the intrinsic laplacian of |F|^2 vanishes
    for s in (shapes.circle(1.0, 128), shapes.circle(2.0, 128),
              shapes.icosphere(1.0, 2), shapes.icosphere(2.0, 2)):
        f2 = (s.vertices ** 2).sum(axis=1)
        assert np.abs(mesh_oracles.laplace_beltrami(s, f2)).max() < 5e-2


def test_laplacian_eigenfunction_on_unit_circle():
    c = shapes.circle(1.0, 256)
    f = np.asarray(c.vertices[:, 0])
    out = mesh_oracles.laplace_beltrami(c, f)
    assert np.abs(out + f).max() < 1e-3


def test_laplacian_symmetry_in_area_inner_product():
    rng = np.random.default_rng(5)
    for s in (nonuniform_circle(1.1, 80), shapes.ellipsoid(1.4, 1.1, 0.9, 2)):
        f = rng.normal(size=s.n_vertices)
        g = rng.normal(size=s.n_vertices)
        areas = mesh_oracles.vertex_areas(s)
        lhs = float((areas * f * mesh_oracles.laplace_beltrami(s, g)).sum())
        rhs = float((areas * g * mesh_oracles.laplace_beltrami(s, f)).sum())
        assert abs(lhs - rhs) < 1e-9


def test_laplacian_spectral_bound_covers_the_spectrum():
    # Gershgorin: every eigenvalue of the assembled operator lies within the
    # bound, which on a regular polygon is 4 / h^2
    for s in (nonuniform_circle(1.1, 40), shapes.ellipse(0.9, 0.6, 48),
              shapes.icosphere(1.0, 1), shapes.ellipsoid(1.4, 1.1, 0.9, 1)):
        lap = np.column_stack([mesh_oracles.laplace_beltrami(s, e) for e in np.eye(s.n_vertices)])
        radius = np.abs(np.linalg.eigvals(lap)).max()
        assert radius <= mesh.laplacian_spectral_bound(s) * (1.0 + 1e-12)
    c = shapes.circle(0.8, 64)
    h = 2.0 * 0.8 * math.sin(math.pi / 64)
    assert mesh.laplacian_spectral_bound(c) == pytest.approx(4.0 / h ** 2, rel=1e-12)


@pytest.mark.parametrize("build", [lambda: shapes.perturbed_sphere(0.8, 0.1, 3, 7, 2),
                                   lambda: shapes.ellipsoid(3.0, 1.0, 0.4, 3)])
def test_corner_sums_follow_vertex_labels(build):
    # relabel the vertices and rotate each face's corners: every per-vertex
    # result must follow its vertex, so a corner value that reaches the
    # wrong vertex shows up (the ellipsoid has obtuse and acute faces)
    s = build()
    rng = np.random.default_rng(11)
    perm = rng.permutation(s.n_vertices)
    relabel = np.argsort(perm)
    faces = relabel[s.faces]
    rows = np.arange(len(faces))[:, None]
    faces = faces[rows, (np.arange(3) + rng.integers(0, 3, size=(len(faces), 1))) % 3]
    t = DiscreteImmersion(2, s.vertices[perm], faces)

    def same(got, want, tol=1e-12):
        assert np.abs(got - want[perm]).max() <= tol * np.abs(want).max()

    f2 = (s.vertices ** 2).sum(axis=1)
    same(mesh_oracles.vertex_areas(t), mesh_oracles.vertex_areas(s))
    same(mesh.mean_curvature_vector(t), mesh.mean_curvature_vector(s))
    same(mesh.normal_projection(t, t.vertices), mesh.normal_projection(s, s.vertices))
    same(mesh_oracles.laplace_beltrami(t, f2[perm]), mesh_oracles.laplace_beltrami(s, f2))
    same(mesh_oracles.gradient_norm_sq(t, f2[perm]), mesh_oracles.gradient_norm_sq(s, f2))
    same(mesh.second_fundamental_norm(t), mesh.second_fundamental_norm(s), tol=1e-10)
    assert mesh.laplacian_spectral_bound(t) == pytest.approx(
        mesh.laplacian_spectral_bound(s), rel=1e-12)


def reference_surface_geometry(s: DiscreteImmersion) -> dict:
    """The surface geometry pass as a plain loop over faces and corners."""
    def sub(a, b):
        return [a[0] - b[0], a[1] - b[1], a[2] - b[2]]

    def dot(a, b):
        return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]

    def cross(a, b):
        return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                a[0] * b[1] - a[1] * b[0]]

    v = s.vertices.tolist()
    n = len(v)
    areas, angle_sum = [0.0] * n, [0.0] * n
    H_sum = [[0.0] * 3 for _ in range(n)]
    normal_sum = [[0.0] * 3 for _ in range(n)]
    cots, edges, quality = [], [], []
    for face in s.faces.tolist():
        p = [v[i] for i in face]
        c = cross(sub(p[1], p[0]), sub(p[2], p[0]))
        two_area = math.sqrt(dot(c, c))
        # corner k: edges to the next corner (opposite corner k+2) and to the
        # previous one (opposite corner k+1)
        to_next = [sub(p[(k + 1) % 3], p[k]) for k in range(3)]
        to_prev = [sub(p[(k + 2) % 3], p[k]) for k in range(3)]
        cot = [dot(to_next[k], to_prev[k]) / two_area for k in range(3)]
        cots.append(cot)
        lengths = [math.sqrt(dot(e, e)) for e in to_next]
        edges.extend(lengths)
        semi = 0.5 * sum(lengths)
        quality.append(8.0 * (0.5 * two_area) ** 2 / (semi * lengths[0] * lengths[1] * lengths[2]))
        obtuse = any(x < 0 for x in cot)
        for k, i in enumerate(face):
            cot_next, cot_prev = cot[(k + 1) % 3], cot[(k + 2) % 3]
            if obtuse:
                areas[i] += 0.5 * two_area / (2.0 if cot[k] < 0 else 4.0)
            else:
                areas[i] += (dot(to_prev[k], to_prev[k]) * cot_next
                             + dot(to_next[k], to_next[k]) * cot_prev) / 8.0
            angle_sum[i] += math.atan2(two_area, dot(to_next[k], to_prev[k]))
            for a in range(3):
                H_sum[i][a] += 0.5 * (cot_prev * to_next[k][a] + cot_next * to_prev[k][a])
                normal_sum[i][a] += 0.5 * c[a]
    H = [[x / areas[i] for x in H_sum[i]] for i in range(n)]
    normal = [[x / math.sqrt(dot(row, row)) for x in row] for row in normal_sum]
    h2 = [max(dot(H[i], H[i]) - 2.0 * (2.0 * math.pi - angle_sum[i]) / areas[i], 0.0)
          for i in range(n)]
    F2 = [dot(p, p) for p in v]
    return {
        "vertex_areas": areas, "H": H, "normal": normal,
        "h2": h2, "h2_max": max(h2), "F2": F2, "F2_max": max(F2), "quality": min(quality),
        "cots": np.transpose(cots), "min_edge": min(edges), "max_edge": max(edges),
    }


@pytest.mark.parametrize("build, obtuse", [
    (lambda: shapes.ellipsoid(3.0, 1.0, 0.4, 2), True),
    (lambda: shapes.perturbed_sphere(0.8, 0.1, 3, 7, 2), False)])
def test_surface_geometry_matches_reference_loop(build, obtuse):
    s = build()
    got = mesh._surface_geometry(s.vertices, s._conn, mesh._MONITOR)
    want = reference_surface_geometry(s)
    assert got.keys() == want.keys()
    for key, ref in want.items():
        ref = np.asarray(ref)
        assert np.shape(got[key]) == ref.shape, key
        assert np.abs(got[key] - ref).max() <= 1e-12 * np.abs(ref).max(), key
    for key in ("H", "normal"):
        assert got[key].shape == (s.n_vertices, 3) and got[key].dtype == np.float64
        assert got[key].flags.c_contiguous
    assert (want["cots"] < 0).any() == obtuse    # the ellipsoid runs the obtuse branches


# ---------------------------------------------------------------------------
# the surface pass's reused workspace


def _all_fields(s: DiscreteImmersion) -> dict:
    """Every field of a new surface pass, its monitor group included."""
    return mesh._surface_geometry(s.vertices, s._conn, mesh._MONITOR)


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def _count_passes(monkeypatch) -> list:
    """Count the surface passes run from here on, in a one-element list."""
    passes = [0]
    real = mesh._surface_geometry

    def counted(v, conn, level):
        passes[0] += 1
        return real(v, conn, level)

    monkeypatch.setattr(mesh, "_surface_geometry", counted)
    return passes


@pytest.mark.parametrize("other", [
    lambda s: s.replace_vertices(1.1 * s.vertices),
    lambda s: shapes.icosphere(1.0, 1)], ids=["same-size", "other-size"])
@pytest.mark.parametrize("level", [mesh._BASE, mesh._NORMAL, mesh._MONITOR],
                         ids=["deferred", "FLOW0-normal", "monitor"])
def test_later_passes_leave_earlier_geometry_intact(monkeypatch, other, level):
    # a pass returns complete, so a later pass on a mesh of the same size,
    # which overwrites the workspace, or of another size, which replaces it,
    # leaves the earlier geometry's fields as they were; a stage's geometry
    # (its monitor group deferred to the accepted state) gets the group from
    # a rerun of its pass, bit for bit the same
    s = shapes.ellipsoid(3.0, 1.0, 0.4, 2)       # obtuse faces: every branch of the pass
    want = _all_fields(s)
    t = s.replace_vertices(s.vertices)
    geom = t._geometry(level)
    _all_fields(other(s))
    passes = _count_passes(monkeypatch)
    assert set(geom) <= set(want) and ("h2" in geom) == (level == mesh._MONITOR)
    for key, field in geom.items():
        np.testing.assert_array_equal(_bits(field), _bits(want[key]), err_msg=key)
    assert passes[0] == 0
    full = t._geometry(mesh._MONITOR)
    assert passes[0] == (level < mesh._MONITOR)
    for key, ref in want.items():
        np.testing.assert_array_equal(_bits(full[key]), _bits(ref), err_msg=key)


def test_geometry_read_in_another_thread_costs_no_pass(monkeypatch):
    # a pass leaves nothing in the workspace that its geometry reads later,
    # so another thread reads the cached fields as they are
    s = shapes.ellipsoid(3.0, 1.0, 0.4, 2)
    want = _all_fields(s)
    t = s.replace_vertices(s.vertices)
    t._geometry(mesh._MONITOR)
    passes = _count_passes(monkeypatch)
    got = {}
    reader = threading.Thread(target=lambda: got.update(t._geometry(mesh._MONITOR)))
    reader.start()
    reader.join(timeout=60)
    assert not reader.is_alive()
    assert passes[0] == 0 and got.keys() == want.keys()
    for key, ref in want.items():
        np.testing.assert_array_equal(_bits(got[key]), _bits(ref), err_msg=key)


def test_concurrent_passes_keep_to_their_own_workspaces():
    # more threads than cores, switching often, each flowing meshes of one
    # size through full passes: a workspace shared between them would mix
    # one thread's buffers into another's fields
    base = shapes.ellipsoid(3.0, 1.0, 0.4, 2)
    meshes = [base.replace_vertices((1.0 + 0.01 * i) * base.vertices) for i in range(6)]
    want = [_all_fields(s) for s in meshes]
    wrong = []

    def work(i):
        for _ in range(20):
            try:
                got = _all_fields(meshes[i])
            except DegenerateMesh as exc:        # garbled buffers can read as degenerate
                wrong.append(str(exc))
                continue
            wrong.extend(key for key, ref in want[i].items()
                         if not np.array_equal(_bits(got[key]), _bits(ref)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(meshes))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_returned_fields_share_no_memory_with_the_workspace():
    s = shapes.ellipsoid(3.0, 1.0, 0.4, 2)
    first, second = _all_fields(s), _all_fields(s.replace_vertices(1.1 * s.vertices))
    buffers = [x for x in vars(mesh._slot.workspace).values() if isinstance(x, np.ndarray)]
    fields = [[x for x in g.values() if isinstance(x, np.ndarray)] for g in (first, second)]
    assert len(buffers) == 14 and len(fields[0]) == len(fields[1]) == 6
    for x in fields[0] + fields[1]:
        assert not any(np.shares_memory(x, b) for b in buffers)
    for x in fields[0]:
        assert not any(np.shares_memory(x, y) for y in fields[1])


def test_warm_surface_pass_allocates_only_its_fields():
    # the fields a subdiv-4 pass returns take ~285 KiB; its temporaries live
    # in the workspace, which the build's validation pass already made
    s = shapes.icosphere(2.0, 4)
    tracemalloc.start()
    try:
        mesh._surface_geometry(s.vertices, s._conn, mesh._BASE)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 400 * 1024


def test_curve_pass_defers_quality_and_longest_edge():
    s = shapes.ellipse(1.0, 0.6, 32)
    geom = s._geometry()
    assert "quality" not in geom and "max_edge" not in geom
    geom = s._geometry(mesh._MONITOR)
    lengths = geom["edge_lengths"]
    assert geom["max_edge"] == lengths.max()
    assert geom["quality"] == lengths.min() / lengths.max()


def _subdivide_reference(v: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Icosphere subdivision as a loop over faces, numbering each edge's
    midpoint when a face first reaches it."""
    verts = list(v)
    midpoint: dict[tuple[int, int], int] = {}

    def mid(i: int, j: int) -> int:
        key = (i, j) if i < j else (j, i)
        if key not in midpoint:
            p = verts[i] + verts[j]
            verts.append(p / np.linalg.norm(p))
            midpoint[key] = len(verts) - 1
        return midpoint[key]

    out = []
    for a, b, c in f:
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        out += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
    return np.array(verts), np.array(out, dtype=np.int64)


def test_subdivision_matches_reference_loop():
    v, f = shapes.unit_sphere_mesh(0)
    for subdiv in range(1, 6):
        want = _subdivide_reference(v, f)
        v, f = shapes.unit_sphere_mesh(subdiv)
        np.testing.assert_array_equal(_bits(v), _bits(want[0]), err_msg=f"subdiv {subdiv}")
        np.testing.assert_array_equal(f, want[1], err_msg=f"subdiv {subdiv}")
        assert f.dtype == np.int64


def test_collapsed_vertex_is_degenerate():
    # move one vertex onto the midpoint of the opposite edge of a face it
    # belongs to, so that face has zero area
    s = shapes.icosphere(1.0, 1)
    i, a, b = s.faces[0]
    v = s.vertices.copy()
    v[i] = 0.5 * (v[a] + v[b])
    with pytest.raises(InvalidConfig, match="degenerate immersion: triangle area"):
        DiscreteImmersion(2, v, s.faces)
    flat = s.replace_vertices(v)
    with pytest.raises(DegenerateMesh, match="triangle area"):
        mesh.mean_curvature_vector(flat)
    assert mesh_oracles.mesh_quality(flat) == 0.0


def test_area_first_variation_matches_mean_curvature():
    rng = np.random.default_rng(123)
    for s in (shapes.ellipse(0.9, 0.6, 128), shapes.ellipsoid(1.2, 1.0, 0.8, 2)):
        direction = rng.normal(size=s.vertices.shape)
        eps = 1e-6
        plus = total_area(DiscreteImmersion(s.m, s.vertices + eps * direction, s.faces))
        minus = total_area(DiscreteImmersion(s.m, s.vertices - eps * direction, s.faces))
        fd = (plus - minus) / (2 * eps)
        predicted = -float((mesh_oracles.vertex_areas(s)
                            * (mesh.mean_curvature_vector(s) * direction).sum(axis=1)).sum())
        assert fd == pytest.approx(predicted, rel=1e-3)


# ---------------------------------------------------------------------------
# weighted area and quality


def test_weighted_area_circle():
    c = shapes.circle(1.0, 256)
    assert mesh.weighted_area(c) == pytest.approx(2 * np.pi * math.exp(-0.5), rel=1e-3)


def test_weighted_area_icosphere():
    s = shapes.icosphere(1.0, 3)
    assert mesh.weighted_area(s) == pytest.approx(4 * np.pi * math.exp(-0.5), rel=2e-2)


def test_weighted_area_decays_with_scale():
    base = shapes.circle(1.0, 64)
    values = [mesh.weighted_area(DiscreteImmersion(1, s * base.vertices))
              for s in (1.0, 2.0, 4.0, 8.0)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_quality_regular_polygon_and_icosahedron():
    assert mesh_oracles.mesh_quality(shapes.circle(1.0, 17)) == pytest.approx(1.0, abs=1e-12)
    assert mesh_oracles.mesh_quality(shapes.icosphere(1.0, 0)) == pytest.approx(1.0, abs=1e-12)


def test_quality_edge_ratio():
    rect = DiscreteImmersion(1, np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]]))
    assert mesh_oracles.mesh_quality(rect) == pytest.approx(0.5, abs=1e-12)


def test_quality_degenerate_returns_zero():
    square = DiscreteImmersion(1, np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    v = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1e-15], [0.0, 1e-15]])
    s = square.replace_vertices(v)
    assert mesh_oracles.mesh_quality(s) == 0.0


# ---------------------------------------------------------------------------
# invariants and construction errors


def test_curve_needs_four_vertices():
    with pytest.raises(InvalidConfig):
        DiscreteImmersion(1, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))


def test_curve_rejects_coincident_vertices():
    v = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(InvalidConfig):
        DiscreteImmersion(1, v)


def test_surface_must_be_closed():
    s = shapes.icosphere(1.0, 0)
    with pytest.raises(InvalidConfig):
        DiscreteImmersion(2, s.vertices, s.faces[:-1])


def test_surface_orientation_check():
    s = shapes.icosphere(1.0, 0)
    flipped = np.asarray(s.faces).copy()
    flipped[0] = flipped[0][::-1]
    with pytest.raises(InvalidConfig):
        DiscreteImmersion(2, s.vertices, flipped)


@pytest.mark.parametrize("damage, match", [
    (lambda f: f[:, :2], r"shape \(n_faces, 3\)"),
    (lambda f: f.ravel(), r"shape \(n_faces, 3\)"),
    (lambda f: np.where(f == 11, 12, f), "out of range"),
    (lambda f: np.where(f == 0, -1, f), "out of range"),
    (lambda f: np.concatenate([f[:1, [0, 0, 1]], f[1:]]), "repeated vertex"),
], ids=["two_columns", "flat", "index_past_end", "negative_index", "repeated_vertex"])
def test_face_list_refusals(damage, match):
    s = shapes.icosphere(1.0, 0)
    with pytest.raises(InvalidConfig, match=match):
        DiscreteImmersion(2, s.vertices, damage(np.asarray(s.faces)))


_SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
_ICO0 = shapes.icosphere(1.0, 0)


@pytest.mark.parametrize("m, vertices, faces, match", [
    (1, np.zeros(8), None, "must be a 2-d array"),
    (1, _SQUARE, [[0, 1, 2]], "curves carry no face list"),
    (2, _ICO0.vertices, None, "surfaces need a face list"),
    (3, _ICO0.vertices, _ICO0.faces, "m must be 1 or 2"),
    (1, [[0.0], [1.0], [2.0], [3.0]], None, r"ambient dimension >= 2"),
    (2, _ICO0.vertices, np.zeros((0, 3), dtype=int), "face list is empty"),
    # vertices 0 and 2 coincide, so the central chord at vertex 1 vanishes
    (1, [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 1.0]], None, "curve folded back"),
    # a vertex that no face uses gathers no area
    (2, np.vstack([_ICO0.vertices, [[0.0, 0.0, 2.0]]]), _ICO0.faces, "vertex area underflow"),
], ids=["flat_vertices", "curve_with_faces", "surface_without_faces", "m3", "curve_in_R1",
        "no_faces", "folded_curve", "unused_vertex"])
def test_constructor_refusals(m, vertices, faces, match):
    with pytest.raises(InvalidConfig, match=match):
        DiscreteImmersion(m, vertices, faces)


@pytest.mark.parametrize("op, values, match", [
    (mesh.normal_projection, np.zeros((4, 3)), r"field has shape \(4, 3\), expected \(4, 2\)"),
    (mesh.normal_projection, np.full((4, 2), math.inf), "vertex field has non-finite entries"),
], ids=["vector_shape", "vector_inf"])
def test_vertex_field_refusals(op, values, match):
    with pytest.raises(InvalidConfig, match=match):
        op(DiscreteImmersion(1, _SQUARE), values)


def test_surface_ambient_dim_restriction():
    s = shapes.icosphere(1.0, 0)
    v4 = np.hstack([s.vertices, np.zeros((s.n_vertices, 1))])
    with pytest.raises(InvalidConfig):
        DiscreteImmersion(2, v4, s.faces)


def test_curve_allows_higher_codimension():
    theta = 2 * np.pi * np.arange(64) / 64
    v = np.stack([np.cos(theta), np.sin(theta), 0.3 * np.sin(2 * theta),
                  0.1 * np.cos(3 * theta)], axis=1)
    s = DiscreteImmersion(1, v)
    h2 = mesh.second_fundamental_norm(s)
    assert np.all(np.isfinite(h2))
    proj = mesh.normal_projection(s, np.asarray(s.vertices))
    tangents = tangent_basis(s)[:, 0]
    assert np.abs((proj * tangents).sum(axis=1)).max() < 1e-12


def test_vertices_are_immutable():
    c = shapes.circle(1.0, 32)
    with pytest.raises(ValueError):
        c.vertices[0, 0] = 5.0
