"""Mesh readers and writers: OFF for surfaces, PLINE for curves, a reader
of OBJ surfaces (an input format only; no artifact is written as OBJ), and
the writer of CSV float tables.

PLINE is a plain-text closed polyline: one vertex per line, whitespace
separated coordinates, closure implicit.  Floats are written with repr(),
which round-trips binary64 exactly, so write -> read is bit-exact.

The writers format a whole array with one ``%`` over its flattened values,
not one join per row; ``%r`` is repr() and ``%d`` is str(), so the bytes are
those of the per-row forms.  A reader given ``like``, an immersion already
read, puts a file with the same m and face list on ``like``'s connectivity,
so the snapshots of one loaded run build it once, and refuses a file whose m
or face list differ from ``like``'s.  Positions the immersion's checks
refuse (not ``like``'s shape, that is its vertex count and ambient
dimension; not finite; a collapsed edge) raise IoError naming the file, as
malformed syntax does.
"""

from __future__ import annotations

import os
import re
import warnings

import numpy as np

from .errors import InvalidConfig, IoError
from .mesh import DiscreteImmersion


def _rows(row: str, a: np.ndarray) -> str:
    """Every row of a 2-d array formatted by the one-row format ``row``."""
    return (row * len(a)) % tuple(a.ravel().tolist())


def _float_rows(a: np.ndarray, sep: str = " ") -> str:
    # rows of Python floats: numpy 2 reprs a numpy scalar as 'np.float64(...)'
    return _rows(sep.join(["%r"] * a.shape[1]) + "\n", a)


def write_table(path, header: str, columns) -> None:
    """Write equal-length float columns as CSV under a header line, in repr()."""
    with open(path, "w") as fh:
        fh.write(header + "\n" + _float_rows(np.asarray(columns, dtype=np.float64).T, sep=","))


def _immersion(path, m: int, verts: np.ndarray, faces, like) -> DiscreteImmersion:
    """An immersion from a file's parsed arrays, on like's connectivity when
    like is given; a file that does not fit like, or holds positions the
    immersion refuses, raises IoError naming it."""
    if like is not None and (m != like.m or faces is not None
                             and not np.array_equal(faces, like.faces)):
        what = "face list" if m == like.m else f"m = {m}"
        raise IoError(f"{path}: its {what} differs from the first snapshot's "
                      f"(m = {like.m} with {like.n_vertices} vertices)")
    try:
        if like is None:
            return DiscreteImmersion(m, verts, faces)
        return like.replace_vertices_checked(verts)
    except InvalidConfig as exc:
        raise IoError(f"{path}: {exc}") from exc


def write_pline(path, s: DiscreteImmersion) -> None:
    if s.m != 1:
        raise IoError("PLINE stores curves only")
    with open(path, "w") as fh:
        fh.write(_float_rows(s.vertices))


def read_pline(path, like: DiscreteImmersion | None = None) -> DiscreteImmersion:
    try:
        with warnings.catch_warnings():
            # an empty file is reported below as IoError, not as a warning
            warnings.simplefilter("ignore", UserWarning)
            # the copy is allocated after loadtxt's temporaries are freed, so
            # hundreds of loaded snapshots do not pin them in the heap
            with open(path) as fh:
                rows = np.loadtxt(fh, dtype=np.float64, comments="#", ndmin=2).copy()
    except (OSError, ValueError) as exc:
        raise IoError(f"cannot read PLINE {path}: {exc}") from exc
    if rows.size == 0:
        raise IoError(f"empty PLINE file {path}")
    return _immersion(path, 1, rows, None, like)


def write_off(path, s: DiscreteImmersion) -> None:
    if s.m != 2:
        raise IoError("OFF stores surfaces only")
    with open(path, "w") as fh:
        fh.write(f"OFF\n{s.n_vertices} {len(s.faces)} 0\n" + _float_rows(s.vertices)
                 + _rows("3 %d %d %d\n", s.faces))


def read_off(path, like: DiscreteImmersion | None = None) -> DiscreteImmersion:
    try:
        with open(path) as fh:
            tokens = re.sub(r"#[^\n]*", "", fh.read()).split()
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read OFF {path}: {exc}") from exc
    if not tokens or tokens[0] != "OFF":
        raise IoError(f"{path} is not an OFF file")
    try:
        nv, nf, ne = (int(tok) for tok in tokens[1:4])
        if min(nv, nf, ne) < 0:
            raise ValueError(f"negative counts {nv} {nf} {ne}")
        pos = 4 + 3 * nv
        verts = np.array(tokens[4:pos], dtype=np.float64).reshape(nv, 3)
        # a non-triangle face shifts every later row, so checking the
        # leading count column catches the first one
        faces = np.array(tokens[pos:pos + 4 * nf], dtype=np.int64).reshape(nf, 4)
    except (IndexError, ValueError) as exc:
        raise IoError(f"malformed OFF {path}: {exc}") from exc
    if len(tokens) > pos + 4 * nf:
        raise IoError(f"malformed OFF {path}: {len(tokens) - pos - 4 * nf} tokens "
                      f"after the {nf} faces its header counts")
    if np.any(faces[:, 0] != 3):
        raise IoError(f"{path}: only triangle faces supported")
    return _immersion(path, 2, verts, faces[:, 1:], like)


def read_obj(path, like: DiscreteImmersion | None = None) -> DiscreteImmersion:
    verts, faces = [], []
    try:
        with open(path) as fh:
            for line in fh:
                parts = line.split("#", 1)[0].split()
                if not parts:
                    continue
                if parts[0] == "v":
                    if len(parts) < 4:
                        raise IoError(f"{path}: vertex line {line.strip()!r} has fewer "
                                      "than 3 coordinates")
                    verts.append([float(x) for x in parts[1:4]])
                elif parts[0] == "f":
                    idx = [int(tok.split("/", 1)[0]) - 1 for tok in parts[1:]]
                    if len(idx) != 3:
                        raise IoError(f"{path}: only triangle faces supported")
                    faces.append(idx)
    except (OSError, ValueError) as exc:
        raise IoError(f"cannot read OBJ {path}: {exc}") from exc
    if not verts or not faces:
        raise IoError(f"{path} has no usable geometry")
    return _immersion(path, 2, np.array(verts, dtype=np.float64),
                      np.array(faces, dtype=np.int64), like)


_READERS = {".off": read_off, ".obj": read_obj, ".pline": read_pline}
_WRITERS = {".off": write_off, ".pline": write_pline}


def _format(path, table: dict):
    ext = os.path.splitext(str(path))[1].lower()
    if ext not in table:
        raise IoError(f"unsupported mesh extension {ext!r}")
    return table[ext]


def read_immersion(path, like: DiscreteImmersion | None = None) -> DiscreteImmersion:
    """Dispatch on file extension (.off, .obj, .pline)."""
    return _format(path, _READERS)(path, like)


def write_immersion(path, s: DiscreteImmersion) -> None:
    """Dispatch on file extension (.off, .pline)."""
    _format(path, _WRITERS)(path, s)
