import numpy as np
import pytest

from gaussflow import fileio, render, shapes
from gaussflow.errors import IoError
from gaussflow.mesh import DiscreteImmersion


@pytest.fixture
def wobbled_curve():
    rng = np.random.default_rng(42)
    theta = 2 * np.pi * np.arange(40) / 40
    r = 1.0 + 0.1 * rng.standard_normal(40).cumsum() / 40
    return DiscreteImmersion(1, np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1))


def test_pline_round_trip_bit_exact(tmp_path, wobbled_curve):
    path = tmp_path / "loop.pline"
    fileio.write_pline(path, wobbled_curve)
    back = fileio.read_pline(path)
    np.testing.assert_array_equal(back.vertices, wobbled_curve.vertices)
    second = tmp_path / "loop2.pline"
    fileio.write_pline(second, back)
    assert path.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("ext", [".off", ".obj"])
def test_surface_round_trip_bit_exact(tmp_path, ext):
    rng = np.random.default_rng(7)
    s = shapes.icosphere(1.0, 1)
    jittered = DiscreteImmersion(
        2, s.vertices * (1.0 + 0.01 * rng.standard_normal((s.n_vertices, 1))), s.faces)
    path = tmp_path / f"mesh{ext}"
    fileio.write_immersion(path, jittered)
    back = fileio.read_immersion(path)
    np.testing.assert_array_equal(back.vertices, jittered.vertices)
    np.testing.assert_array_equal(back.faces, jittered.faces)
    second = tmp_path / f"mesh2{ext}"
    fileio.write_immersion(second, back)
    assert path.read_bytes() == second.read_bytes()


def test_pline_rejects_surfaces_and_vice_versa(tmp_path, wobbled_curve):
    s = shapes.icosphere(1.0, 0)
    with pytest.raises(IoError):
        fileio.write_pline(tmp_path / "x.pline", s)
    with pytest.raises(IoError):
        fileio.write_off(tmp_path / "x.off", wobbled_curve)


def test_read_errors(tmp_path):
    empty = tmp_path / "empty.pline"
    empty.write_text("")
    with pytest.raises(IoError):
        fileio.read_pline(empty)

    ragged = tmp_path / "ragged.pline"
    ragged.write_text("0 0\n1 0 3\n1 1\n0 1\n")
    with pytest.raises(IoError):
        fileio.read_pline(ragged)

    words = tmp_path / "words.pline"
    words.write_text("0 0\n1 zero\n1 1\n0 1\n")
    with pytest.raises(IoError):
        fileio.read_pline(words)

    not_off = tmp_path / "bad.off"
    not_off.write_text("PLY\n3 1 0\n")
    with pytest.raises(IoError):
        fileio.read_off(not_off)

    negative = tmp_path / "negative.off"
    negative.write_text("OFF\n3 -1 0\n0 0 0\n1 0 0\n0 1 0\n")
    with pytest.raises(IoError):
        fileio.read_off(negative)

    verts = "0 0 0\n1 0 0\n1 1 0\n0 1 0\n"
    for faces in ("4 0 1 2 3\n3 0 2 3\n", "3 0 1 2\n4 0 1 2 3\n", "3 0 1 2\n3 0 2 x\n"):
        bad = tmp_path / "faces.off"
        bad.write_text("OFF\n4 2 0\n" + verts + faces)
        with pytest.raises(IoError):
            fileio.read_off(bad)

    with pytest.raises(IoError):
        fileio.read_immersion(tmp_path / "mesh.stl")


def test_off_comments_and_obj_texture_indices(tmp_path):
    off = tmp_path / "c.off"
    off.write_text(
        "OFF # header comment\n4 4 0\n"
        "0.0 0.0 1.0\n0.9428090415820634 0.0 -0.3333333333333333\n"
        "-0.4714045207910317 0.816496580927726 -0.3333333333333333\n"
        "-0.4714045207910317 -0.816496580927726 -0.3333333333333333\n"
        "3 0 1 2\n3 0 2 3\n3 0 3 1\n3 1 3 2\n")
    tetra = fileio.read_off(off)
    assert tetra.n_vertices == 4 and len(tetra.faces) == 4

    obj = tmp_path / "c.obj"
    fileio.write_obj(obj, tetra)
    text = obj.read_text().replace("f 1 2 3", "f 1/1 2/2 3/3")
    obj.write_text(text)
    again = fileio.read_obj(obj)
    np.testing.assert_array_equal(again.faces, tetra.faces)


def test_writers_golden_bytes(tmp_path):
    # exact bytes, so a change of float or index formatting shows; a round
    # trip alone would pass with any format the reader accepts
    s = 1 / 3
    tetra = DiscreteImmersion(
        2, [[0.0, 0.0, 1.0], [0.9428090415820634, 0.0, -s],
            [-0.4714045207910317, 0.816496580927726, -s],
            [-0.4714045207910317, -0.816496580927726, -s]],
        [[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]])
    coords = [[0.1, 1 / 3, -2.5e-17], [1e300, -1.5, 0.0],
              [2 / 3, -0.1, 1e-05], [-0.0, 12345678.9, 0.25]]
    surface = tetra.replace_vertices(coords)
    square = DiscreteImmersion(1, [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    curve = square.replace_vertices([row[:2] for row in coords])
    fileio.write_pline(tmp_path / "c.pline", curve)
    fileio.write_off(tmp_path / "s.off", surface)
    fileio.write_obj(tmp_path / "s.obj", surface)
    assert (tmp_path / "c.pline").read_bytes() == (
        b"0.1 0.3333333333333333\n1e+300 -1.5\n0.6666666666666666 -0.1\n"
        b"-0.0 12345678.9\n")
    assert (tmp_path / "s.off").read_bytes() == (
        b"OFF\n4 4 0\n0.1 0.3333333333333333 -2.5e-17\n1e+300 -1.5 0.0\n"
        b"0.6666666666666666 -0.1 1e-05\n-0.0 12345678.9 0.25\n"
        b"3 0 1 2\n3 0 2 3\n3 0 3 1\n3 1 3 2\n")
    assert (tmp_path / "s.obj").read_bytes() == (
        b"v 0.1 0.3333333333333333 -2.5e-17\nv 1e+300 -1.5 0.0\n"
        b"v 0.6666666666666666 -0.1 1e-05\nv -0.0 12345678.9 0.25\n"
        b"f 1 2 3\nf 1 3 4\nf 1 4 2\nf 2 4 3\n")


def test_curve_svg_golden_bytes():
    pts = np.array([[0.1, 1 / 3], [-0.7, 0.2], [-1 / 3, -0.45], [0.6, -2 / 7]])
    lo = np.minimum(pts.min(axis=0), [-1.0, -1.0])
    hi = np.maximum(pts.max(axis=0), [1.0, 1.0])
    assert render._curve_svg(pts, 1, 0.49, (lo, hi)) == (
        '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="640" '
        'viewBox="0 0 640 640">\n'
        '<rect width="640" height="640" fill="#ffffff"/>\n'
        '<circle cx="320.000000" cy="320.000000" r="290.909091" fill="none" '
        'stroke="#b0b0b0" stroke-dasharray="6 4"/>\n'
        '<circle cx="320.000000" cy="320.000000" r="203.636364" fill="none" '
        'stroke="#b0b0b0" stroke-dasharray="2 3"/>\n'
        '<polygon points="349.090909,223.030303 116.363636,261.818182 '
        '223.030303,450.909091 494.545455,403.116883" fill="none" '
        'stroke="#1f4e8c" stroke-width="1.5"/>\n'
        '</svg>\n')
