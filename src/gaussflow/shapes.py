"""Built-in initial immersions for runs and tests."""

from __future__ import annotations

import operator
import random

import numpy as np

from .errors import InvalidConfig
from .mesh import DiscreteImmersion


def ellipse(rx: float, ry: float, n: int) -> DiscreteImmersion:
    theta = 2.0 * np.pi * np.arange(n) / n
    v = np.stack([rx * np.cos(theta), ry * np.sin(theta)], axis=1)
    return DiscreteImmersion(1, v)


def circle(radius: float, n: int) -> DiscreteImmersion:
    return ellipse(radius, radius, n)


def perturbed_circle(radius: float, amp: float, mode: int, seed: int, n: int) -> DiscreteImmersion:
    """Circle with a seeded radial cosine perturbation, r = R(1 + amp*cos(mode*t + phase)).

    The seed selects only the phase, drawn as
    ``random.Random(seed).uniform(0, 2*pi)`` from the standard library."""
    phase = random.Random(seed).uniform(0.0, 2.0 * np.pi)
    theta = 2.0 * np.pi * np.arange(n) / n
    r = radius * (1.0 + amp * np.cos(mode * theta + phase))
    v = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
    return DiscreteImmersion(1, v)


def _icosahedron() -> tuple[np.ndarray, np.ndarray]:
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    v = np.array([
        [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
        [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
        [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
    ], dtype=np.float64)
    v /= np.linalg.norm(v, axis=1)[:, None]
    f = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ], dtype=np.int64)
    return v, f


def _subdivide_on_sphere(v: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split each face into four at its edge midpoints, pushed onto the unit
    sphere.  Midpoints are numbered after the old vertices in the order the
    faces first reach their edges, taking each face's edges ab, bc, ca."""
    n = len(v)
    ends = f[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)        # edges ab, bc, ca of each face
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    _, first, inverse = np.unique(lo * n + hi, return_index=True, return_inverse=True)
    order = np.argsort(first)                    # the edges by first appearance
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    ab, bc, ca = (n + rank[inverse]).reshape(-1, 3).T
    first = first[order]
    p = v[lo[first]] + v[hi[first]]
    # the batched matmul is the same dot product as np.linalg.norm of one row
    p /= np.sqrt((p[:, None, :] @ p[:, :, None])[:, 0, 0])[:, None]
    a, b, c = f.T
    faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1).reshape(-1, 3)
    return np.concatenate([v, p]), faces


def unit_sphere_mesh(subdiv: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit icosphere vertex/face arrays at the given subdivision level."""
    v, f = _icosahedron()
    for _ in range(subdiv):
        v, f = _subdivide_on_sphere(v, f)
    return v, f


def ellipsoid(rx: float, ry: float, rz: float, subdiv: int) -> DiscreteImmersion:
    v, f = unit_sphere_mesh(subdiv)
    return DiscreteImmersion(2, v * np.array([rx, ry, rz]), f)


def icosphere(radius: float, subdiv: int) -> DiscreteImmersion:
    return ellipsoid(radius, radius, radius, subdiv)


def perturbed_sphere(radius: float, amp: float, mode: int, seed: int, subdiv: int) -> DiscreteImmersion:
    """Sphere with a seeded smooth radial modulation of amplitude ``amp``.

    The seed selects only the two phases of the modulation, the azimuthal
    one first, drawn in turn from ``random.Random(seed).uniform(0, 2*pi)``
    of the standard library."""
    rng = random.Random(seed)
    v, f = unit_sphere_mesh(subdiv)
    azimuth = np.arctan2(v[:, 1], v[:, 0])
    polar = np.arccos(np.clip(v[:, 2], -1.0, 1.0))
    bump = np.cos(mode * azimuth + rng.uniform(0.0, 2.0 * np.pi)) * np.sin(polar) ** mode
    bump += 0.5 * np.cos(mode * polar + rng.uniform(0.0, 2.0 * np.pi))
    bump /= np.max(np.abs(bump))
    r = radius * (1.0 + amp * bump)
    return DiscreteImmersion(2, v * r[:, None], f)


_CURVE_SHAPES = ("circle", "ellipse", "perturbed_circle")


def builtin_shape(name: str, params: dict, n: int | None = None) -> DiscreteImmersion:
    """Initial-data factory used by configs and the CLI.

    ``n`` is the vertex count for curves (16 <= n <= 1e6); surfaces take a
    ``subdiv`` entry in ``params`` instead.  Perturbed shapes are
    deterministic in their ``seed``, which must be >= 0, and take an
    amplitude in [0, 1).  ``mode``, ``seed`` and ``subdiv`` must be integers:
    a value ``operator.index`` refuses, such as 2.5, is refused, not
    truncated, as is a radius, semi-axis or amplitude that ``float``
    refuses.  Which side of the balance sphere the data lies on is
    checked where the flow law is known: by the scenarios and the claims.
    """
    p = dict(params)
    if name in _CURVE_SHAPES:
        if n is None:
            raise InvalidConfig(f"shape {name!r} needs a vertex count n")
        if not 16 <= n <= 10 ** 6:
            raise InvalidConfig(f"vertex count {n} outside [16, 1e6]")
    try:
        if name == "circle":
            return circle(_positive(p, "radius"), n)
        if name == "ellipse":
            return ellipse(_positive(p, "rx"), _positive(p, "ry"), n)
        if name == "perturbed_circle":
            return perturbed_circle(_positive(p, "radius"), _amp(p), _index("mode", p["mode"]),
                                    _seed(p), n)
        if name == "icosphere":
            return icosphere(_positive(p, "radius"), _subdiv(p))
        if name == "ellipsoid":
            return ellipsoid(_positive(p, "rx"), _positive(p, "ry"), _positive(p, "rz"),
                             _subdiv(p))
        if name == "perturbed_sphere":
            return perturbed_sphere(_positive(p, "radius"), _amp(p), _index("mode", p["mode"]),
                                    _seed(p), _subdiv(p))
    except KeyError as exc:
        raise InvalidConfig(f"shape {name!r} missing parameter {exc}") from exc
    raise InvalidConfig(f"unknown builtin shape {name!r}")


def _positive(p: dict, key: str) -> float:
    val = _number(key, p[key])
    if val <= 0:
        raise InvalidConfig(f"shape parameter {key!r} must be positive, got {val}")
    return val


def _number(key: str, val) -> float:
    try:
        return float(val)
    except (TypeError, ValueError):
        raise InvalidConfig(f"shape parameter {key!r} must be a number, got {val!r}") from None


def _index(key: str, val) -> int:
    try:
        return operator.index(val)
    except TypeError:
        raise InvalidConfig(f"shape parameter {key!r} must be an integer, got {val!r}") from None


def _subdiv(p: dict) -> int:
    sd = _index("subdiv", p.get("subdiv", 3))
    if not 0 <= sd <= 7:
        raise InvalidConfig(f"subdiv {sd} outside [0, 7]")
    return sd


def _amp(p: dict) -> float:
    # below 1 the perturbed radius R(1 + amp * bump), |bump| <= 1, stays positive
    amp = _number("amp", p["amp"])
    if not 0 <= amp < 1:
        raise InvalidConfig(f"perturbation amplitude must lie in [0, 1), got {amp}")
    return amp


def _seed(p: dict) -> int:
    seed = _index("seed", p.get("seed", 0))
    if seed < 0:
        raise InvalidConfig(f"seed must be >= 0, got {seed}")
    return seed
