import numpy as np
import pytest

from gaussflow import fileio, render, shapes
from gaussflow.errors import InvalidConfig, IoError
from gaussflow.mesh import DiscreteImmersion


def _obj_text(v, f):
    """OBJ text of a surface, one row per line, floats in repr(): the package
    reads OBJ but writes none."""
    lines = ["v " + " ".join(map(repr, row)) for row in v.tolist()]
    lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in f.tolist()]
    return "\n".join(lines) + "\n"


def _write(path, s):
    """Write s in the format its extension names, OBJ as _obj_text."""
    if path.suffix == ".obj":
        path.write_text(_obj_text(s.vertices, s.faces))
    else:
        fileio.write_immersion(path, s)


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
    _write(path, jittered)
    back = fileio.read_immersion(path)
    np.testing.assert_array_equal(back.vertices, jittered.vertices)
    np.testing.assert_array_equal(back.faces, jittered.faces)
    second = tmp_path / f"mesh2{ext}"
    _write(second, back)
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
    # a four-vertex row as long as a triangle row reaches the face-size check
    bad.write_text("OFF\n4 2 0\n" + verts + "3 0 1 2\n4 0 2 1\n")
    with pytest.raises(IoError, match="only triangle faces supported"):
        fileio.read_off(bad)

    # tokens past the header's counts: an extra face line, a trailing token
    tetra_faces = "3 0 1 2\n3 0 2 3\n3 0 3 1\n3 1 3 2\n"
    tetra = "OFF\n4 4 0\n0 0 1\n1 0 -0.5\n-0.5 0.8 -0.5\n-0.5 -0.8 -0.5\n" + tetra_faces
    for extra in ("3 0 1 2\n", "7\n", "0"):
        bad = tmp_path / "extra.off"
        bad.write_text(tetra + extra)
        with pytest.raises(IoError, match="after the 4 faces"):
            fileio.read_off(bad)
    (tmp_path / "tetra.off").write_text(tetra + "# trailing comment\n")
    assert fileio.read_off(tmp_path / "tetra.off").n_vertices == 4
    # the header's third count, the edges, is an integer >= 0 too
    for edges in ("x", "-1", "1.5"):
        bad = tmp_path / "edges.off"
        bad.write_text(tetra.replace("4 4 0", f"4 4 {edges}"))
        with pytest.raises(IoError, match="malformed OFF"):
            fileio.read_off(bad)

    with pytest.raises(IoError):
        fileio.read_immersion(tmp_path / "mesh.stl")


@pytest.mark.parametrize("ext", [".off", ".obj", ".pline"])
def test_readers_refuse_undecodable_bytes(tmp_path, ext):
    bad = tmp_path / f"bad{ext}"
    bad.write_bytes(b"OFF\n4 4 0\n\xff\xfe 0 1\n")
    with pytest.raises(IoError, match="bad"):
        fileio.read_immersion(bad)


@pytest.mark.parametrize("text, match", [
    ("v 0 0 1\nv 1 0 0\nv 0 1 0\nv 1 1 0\nf 1 2 3 4\n", "only triangle faces"),
    ("v 0 0 1\nv 1 0 0\nv 0 1 0\n", "no usable geometry"),
    ("f 1 2 3\n", "no usable geometry"),
    ("# nothing\n", "no usable geometry"),
])
def test_obj_refusals(tmp_path, text, match):
    bad = tmp_path / "bad.obj"
    bad.write_text(text)
    with pytest.raises(IoError, match=match):
        fileio.read_obj(bad)


def test_obj_short_vertex_line(tmp_path):
    obj = tmp_path / "short.obj"
    obj.write_text("v 0 0 1\nv 1 0\nv -0.5 0.8 -0.5\nv -0.5 -0.8 -0.5\n"
                   "f 1 2 3\nf 1 3 4\nf 1 4 2\nf 2 4 3\n")
    with pytest.raises(IoError, match=r"short\.obj: vertex line 'v 1 0' has fewer than 3"):
        fileio.read_obj(obj)


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
    obj.write_text(_obj_text(tetra.vertices, tetra.faces).replace("f 1 2 3", "f 1/1 2/2 3/3"))
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
    assert (tmp_path / "c.pline").read_bytes() == (
        b"0.1 0.3333333333333333\n1e+300 -1.5\n0.6666666666666666 -0.1\n"
        b"-0.0 12345678.9\n")
    assert (tmp_path / "s.off").read_bytes() == (
        b"OFF\n4 4 0\n0.1 0.3333333333333333 -2.5e-17\n1e+300 -1.5 0.0\n"
        b"0.6666666666666666 -0.1 1e-05\n-0.0 12345678.9 0.25\n"
        b"3 0 1 2\n3 0 2 3\n3 0 3 1\n3 1 3 2\n")


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


# the per-row forms the writers used before they formatted whole arrays,
# kept as the references their bytes must equal
def _reference_pline(v):
    return "\n".join(" ".join(map(repr, row)) for row in v.tolist()) + "\n"


def _reference_off(v, f):
    lines = [f"OFF\n{len(v)} {len(f)} 0"]
    lines += [" ".join(map(repr, row)) for row in v.tolist()]
    lines += [f"3 {a} {b} {c}" for a, b, c in f.tolist()]
    return "\n".join(lines) + "\n"


def _reference_table(header, v):
    # the per-row form the diagnostics and sphere CSV writers had
    return header + "\n" + "".join(",".join(repr(float(x)) for x in row) + "\n" for row in v)


_SPECIAL = [-0.0, 5e-324, -5e-324, 1e300, -1e300, 1e16, -1e16, 3.0, -7.0, 0.0,
            float(2 ** 52), 1e22, 0.1, 1 / 3]


@pytest.mark.parametrize("columns", [2, 3, 4])
def test_writers_match_per_row_forms(tmp_path, columns):
    rng = np.random.default_rng(columns)
    ico = shapes.icosphere(1.0, 0)
    faces = ico.faces
    random = rng.standard_normal((ico.n_vertices, columns)) * 10.0 ** rng.integers(
        -20, 20, (ico.n_vertices, columns))
    special = np.resize(np.array(_SPECIAL), (ico.n_vertices, columns))
    header = ",".join("xyzw"[:columns])
    for v in (random, special, special[::-1]):
        # the writers format what they are given: unchecked immersions carry
        # any column count and values no flow would produce
        surface = ico.replace_vertices(v)
        curve = shapes.circle(1.0, ico.n_vertices).replace_vertices(v)
        fileio.write_pline(tmp_path / "c.pline", curve)
        fileio.write_off(tmp_path / "s.off", surface)
        assert (tmp_path / "c.pline").read_text() == _reference_pline(v)
        assert (tmp_path / "s.off").read_text() == _reference_off(v, faces)
        fileio.write_table(tmp_path / "t.csv", header, list(v.T))
        assert (tmp_path / "t.csv").read_text() == _reference_table(header, v)
    fileio.write_table(tmp_path / "t.csv", header, [[]] * columns)
    assert (tmp_path / "t.csv").read_text() == header + "\n"


@pytest.mark.parametrize("columns", [2, 3, 4])
def test_curve_svg_points_match_per_point_form(columns):
    rng = np.random.default_rng(10 + columns)
    for v in (rng.standard_normal((37, columns)),
              np.resize(np.array(_SPECIAL[:10]), (20, columns))):
        pts = v[:, :2]
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        # the frame transform of _curve_svg, same operations in the same order
        span = max(hi[0] - lo[0], hi[1] - lo[1], 1e-12)
        pad = 0.05 * span
        scale = render.SIZE / (span + 2 * pad)
        px = (pts[:, 0] - lo[0] + pad) * scale
        py = render.SIZE - (pts[:, 1] - lo[1] + pad) * scale
        reference = " ".join(f"{render._f(x)},{render._f(y)}"
                             for x, y in zip(px.tolist(), py.tolist()))
        svg = render._curve_svg(pts, None, 1.0, (lo, hi))
        assert f'<polygon points="{reference}" ' in svg
    for x in _SPECIAL + [float("inf"), float("nan")]:
        assert "%.6f,%.6f" % (x, -x) == f"{render._f(x)},{render._f(-x)}"


def test_reader_shares_connectivity_with_like(tmp_path):
    s = shapes.icosphere(1.0, 1)
    moved = s.replace_vertices(s.vertices * 1.5)
    for ext in (".off", ".obj"):
        _write(tmp_path / f"a{ext}", s)
        _write(tmp_path / f"b{ext}", moved)
        first = fileio.read_immersion(tmp_path / f"a{ext}")
        second = fileio.read_immersion(tmp_path / f"b{ext}", like=first)
        assert second._conn is first._conn and second.faces is first.faces
        np.testing.assert_array_equal(second.vertices, moved.vertices)
        # another face list, or another vertex count on the same one, is
        # refused, naming the file
        _write(tmp_path / f"c{ext}", shapes.icosphere(1.0, 2))
        _write(tmp_path / f"d{ext}", DiscreteImmersion(2, s.vertices, s.faces[:, ::-1]))
        for name in ("c", "d"):
            with pytest.raises(IoError, match=f"{name}{ext}: its face list differs from the "
                               r"first snapshot's \(m = 2 with 42 vertices\)"):
                fileio.read_immersion(tmp_path / f"{name}{ext}", like=first)
        _write(tmp_path / f"e{ext}",
               s.replace_vertices(np.vstack([s.vertices, [[0.0, 0.0, 5.0]]])))
        with pytest.raises(IoError, match=rf"e{ext}: positions of shape \(43, 3\) for an "
                           r"immersion of shape \(42, 3\)"):
            fileio.read_immersion(tmp_path / f"e{ext}", like=first)
    curve = shapes.circle(1.0, 16)
    fileio.write_pline(tmp_path / "a.pline", curve)
    first = fileio.read_pline(tmp_path / "a.pline")
    assert fileio.read_pline(tmp_path / "a.pline", like=first)._conn is first._conn
    # so is another intrinsic dimension
    with pytest.raises(IoError, match=r"a\.off: its m = 2 differs from the first "
                       r"snapshot's \(m = 1 with 16 vertices\)"):
        fileio.read_immersion(tmp_path / "a.off", like=first)
    with pytest.raises(IoError, match=r"a\.pline: its m = 1 differs"):
        fileio.read_immersion(tmp_path / "a.pline", like=fileio.read_immersion(tmp_path / "a.off"))


@pytest.mark.parametrize("ext", [".off", ".obj", ".pline"])
@pytest.mark.parametrize("damage", ["nan", "inf", "collapsed"])
def test_shared_connectivity_keeps_the_constructors_checks(tmp_path, ext, damage):
    s = shapes.circle(1.0, 16) if ext == ".pline" else shapes.icosphere(1.0, 1)
    _write(tmp_path / f"a{ext}", s)
    first = fileio.read_immersion(tmp_path / f"a{ext}")
    v = s.vertices.copy()
    if damage == "collapsed":      # the first edge has length 0
        a, b = (0, 1) if s.m == 1 else s.faces[0, :2]
        v[b] = v[a]
    else:
        v[3, 1] = float(damage)
    _write(tmp_path / f"b{ext}", s.replace_vertices(v))
    # refused as the file's contents, so the error names it
    with pytest.raises(IoError) as alone:
        fileio.read_immersion(tmp_path / f"b{ext}")
    with pytest.raises(IoError) as shared:
        fileio.read_immersion(tmp_path / f"b{ext}", like=first)
    assert str(shared.value) == str(alone.value)
    assert str(alone.value).startswith(f"{tmp_path / f'b{ext}'}: ")
    assert isinstance(alone.value.__cause__, InvalidConfig)


def test_replace_vertices_checked_refuses_another_shape():
    # one shape comparison covers the 2-d check, the vertex count and the
    # ambient dimension
    s = shapes.icosphere(1.0, 0)
    for v, shape in ((s.vertices.ravel(), r"\(36,\)"), (s.vertices[:-1], r"\(11, 3\)"),
                     (np.hstack([s.vertices, s.vertices[:, :1]]), r"\(12, 4\)")):
        with pytest.raises(InvalidConfig, match=rf"positions of shape {shape} for an "
                           r"immersion of shape \(12, 3\)"):
            s.replace_vertices_checked(v)
    c = shapes.circle(1.0, 16)
    with pytest.raises(InvalidConfig, match=r"shape \(16, 3\) for an immersion of shape "
                       r"\(16, 2\)"):
        c.replace_vertices_checked(np.hstack([c.vertices, np.zeros((16, 1))]))


def test_constructor_builds_its_own_connectivity():
    # no cache behind the constructor: equal faces still build a new one, so
    # timing the constructor times a connectivity build
    s = shapes.icosphere(1.0, 1)
    a = DiscreteImmersion(2, s.vertices, s.faces)
    b = DiscreteImmersion(2, s.vertices, s.faces)
    assert a._conn is not b._conn and a._conn is not s._conn
