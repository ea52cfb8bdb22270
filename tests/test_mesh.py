import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussflow import mesh, shapes
from gaussflow.errors import InvalidConfig
from gaussflow.mesh import DiscreteImmersion


def nonuniform_circle(radius: float, n: int) -> DiscreteImmersion:
    """Round circle sampled with a smooth non-uniform angle map, so the
    discretization error is non-zero and refinement is observable."""
    s = 2.0 * np.pi * np.arange(n) / n
    theta = s + 0.4 * np.sin(s)
    v = radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return DiscreteImmersion(1, v)


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
    tangents = mesh.tangent_basis(c)[:, 0]
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
    basis = mesh.tangent_basis(s)
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
    tangents = mesh.tangent_basis(s)[:, 0]
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
        out = mesh.laplace_beltrami(s, np.full(s.n_vertices, 3.7))
        assert np.abs(out).max() < 1e-12


def test_laplacian_of_position_norm_on_spheres():
    # on a round sphere the intrinsic laplacian of |F|^2 vanishes
    for s in (shapes.circle(1.0, 128), shapes.circle(2.0, 128),
              shapes.icosphere(1.0, 2), shapes.icosphere(2.0, 2)):
        f2 = (s.vertices ** 2).sum(axis=1)
        assert np.abs(mesh.laplace_beltrami(s, f2)).max() < 5e-2


def test_laplacian_eigenfunction_on_unit_circle():
    c = shapes.circle(1.0, 256)
    f = np.asarray(c.vertices[:, 0])
    out = mesh.laplace_beltrami(c, f)
    assert np.abs(out + f).max() < 1e-3


def test_laplacian_symmetry_in_area_inner_product():
    rng = np.random.default_rng(5)
    for s in (nonuniform_circle(1.1, 80), shapes.ellipsoid(1.4, 1.1, 0.9, 2)):
        f = rng.normal(size=s.n_vertices)
        g = rng.normal(size=s.n_vertices)
        areas = mesh.vertex_areas(s)
        lhs = float((areas * f * mesh.laplace_beltrami(s, g)).sum())
        rhs = float((areas * g * mesh.laplace_beltrami(s, f)).sum())
        assert abs(lhs - rhs) < 1e-9


def test_laplacian_spectral_bound_covers_the_spectrum():
    # Gershgorin: every eigenvalue of the assembled operator lies within the
    # bound, which on a regular polygon is 4 / h^2
    for s in (nonuniform_circle(1.1, 40), shapes.ellipse(0.9, 0.6, 48),
              shapes.icosphere(1.0, 1), shapes.ellipsoid(1.4, 1.1, 0.9, 1)):
        lap = np.column_stack([mesh.laplace_beltrami(s, e) for e in np.eye(s.n_vertices)])
        radius = np.abs(np.linalg.eigvals(lap)).max()
        assert radius <= mesh.laplacian_spectral_bound(s) * (1.0 + 1e-12)
    c = shapes.circle(0.8, 64)
    h = 2.0 * 0.8 * math.sin(math.pi / 64)
    assert mesh.laplacian_spectral_bound(c) == pytest.approx(4.0 / h ** 2, rel=1e-12)


def test_area_first_variation_matches_mean_curvature():
    rng = np.random.default_rng(123)
    for s in (shapes.ellipse(0.9, 0.6, 128), shapes.ellipsoid(1.2, 1.0, 0.8, 2)):
        direction = rng.normal(size=s.vertices.shape)
        eps = 1e-6
        plus = mesh.area(s.replace_vertices(s.vertices + eps * direction, validate=True))
        minus = mesh.area(s.replace_vertices(s.vertices - eps * direction, validate=True))
        fd = (plus - minus) / (2 * eps)
        predicted = -float((mesh.vertex_areas(s)
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
    values = [mesh.weighted_area(base.replace_vertices(s * base.vertices, validate=True))
              for s in (1.0, 2.0, 4.0, 8.0)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_quality_regular_polygon_and_icosahedron():
    assert mesh.mesh_quality(shapes.circle(1.0, 17)) == pytest.approx(1.0, abs=1e-12)
    assert mesh.mesh_quality(shapes.icosphere(1.0, 0)) == pytest.approx(1.0, abs=1e-12)


def test_quality_edge_ratio():
    rect = DiscreteImmersion(1, np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]]))
    assert mesh.mesh_quality(rect) == pytest.approx(0.5, abs=1e-12)


def test_quality_degenerate_returns_zero():
    v = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1e-15], [0.0, 1e-15]])
    s = DiscreteImmersion(1, v, validate=False)
    assert mesh.mesh_quality(s) == 0.0


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
    tangents = mesh.tangent_basis(s)[:, 0]
    assert np.abs((proj * tangents).sum(axis=1)).max() < 1e-12


def test_vertices_are_immutable():
    c = shapes.circle(1.0, 32)
    with pytest.raises(ValueError):
        c.vertices[0, 0] = 5.0
