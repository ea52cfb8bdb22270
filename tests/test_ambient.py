import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaussflow import engine, shapes
from gaussflow.ambient import sectional_curvature
from gaussflow.engine import FLOW0, FlowParams
from gaussflow.errors import AxisError, OverflowGuard, UnsupportedParam


def test_flat_sections_at_origin_give_two_over_m():
    for m, dim in ((1, 2), (2, 3), (3, 5)):
        val = sectional_curvature(m, np.zeros(dim), 0, 1)
        assert val == pytest.approx(2.0 / m, abs=1e-12)


def test_bracket_zero_at_transverse_norm_2m():
    s = math.sqrt(4.0)  # transverse norm^2 = 2m = 4
    assert sectional_curvature(2, np.array([0.0, 0.0, s]), 0, 1) == pytest.approx(0.0, abs=1e-12)


def test_transverse_axis_value():
    # direct substitution: (1/2) e^{16/2} (2 - 16/2) = -3 e^8
    val = sectional_curvature(2, np.array([0.0, 0.0, 4.0]), 0, 1)
    assert val == pytest.approx(-3.0 * math.exp(8.0), rel=1e-12)


def test_unbounded_below_along_transverse_axis():
    at5 = sectional_curvature(2, np.array([0.0, 0.0, 5.0]), 0, 1)
    at10 = sectional_curvature(2, np.array([0.0, 0.0, 10.0]), 0, 1)
    assert at10 < at5 < 0.0


def test_axis_validation():
    x = np.zeros(3)
    with pytest.raises(AxisError):
        sectional_curvature(2, x, 1, 1)
    with pytest.raises(AxisError):
        sectional_curvature(2, x, 0, 3)
    with pytest.raises(AxisError):
        sectional_curvature(2, x, -1, 0)


@pytest.mark.parametrize("x, match", [
    (np.zeros((1, 3)), "must be 1-d"),
    (np.zeros(2), "2 components, needs >= m\\+1 = 3"),
    ([0.0, math.nan, 0.0], "non-finite"),
    ([0.0, 0.0, math.inf], "non-finite"),
], ids=["2d", "short", "nan", "inf"])
def test_ambient_vector_refusals(x, match):
    with pytest.raises(UnsupportedParam, match=match):
        sectional_curvature(2, x, 0, 1)
    # a list is taken as a vector of floats: (1/2) e^{14/2} (2 - 9/2)
    assert sectional_curvature(2, [1, 2, 3], 0, 1) == pytest.approx(-1.25 * math.exp(7.0),
                                                                    rel=1e-12)


def test_overflow_guard_on_far_points():
    far = np.array([0.0, 0.0, 30.0])  # |x|^2/m = 900 > 700
    with pytest.raises(OverflowGuard):
        sectional_curvature(1, far, 0, 1)
    # the point and axes are checked before the guard
    with pytest.raises(AxisError):
        sectional_curvature(1, far, 0, 0)


def test_ambient_invariants():
    # the point fixes the ambient dimension, which must exceed m
    with pytest.raises(UnsupportedParam, match="needs >= m\\+1 = 4"):
        sectional_curvature(3, np.zeros(3), 0, 1)
    assert sectional_curvature(3, np.zeros(4), 0, 1) == pytest.approx(2.0 / 3.0, abs=1e-12)
    # m is checked first, before the point
    for m in (0, -1):
        with pytest.raises(UnsupportedParam, match=f"m must be >= 1, got {m}"):
            sectional_curvature(m, np.zeros((1, 3)), 0, 0)


@settings(max_examples=40, deadline=None)
@given(
    coords=st.lists(st.floats(-5, 5), min_size=4, max_size=4),
    axes=st.permutations(range(4)),
    flips=st.lists(st.sampled_from([-1.0, 1.0]), min_size=4, max_size=4),
)
# a zero coordinate with transverse |x|^2 = 2m puts the bracket at exactly 0
@example(coords=[1.1, 2.3, 2.0, 0.0], axes=[0, 1, 2, 3], flips=[1.0, 1.0, 1.0, 1.0])
def test_symmetry_under_axis_swap_and_sign_flips(coords, axes, flips):
    x = np.array(coords)
    a, b = axes[0], axes[1]
    base = sectional_curvature(2, x, a, b)
    assert sectional_curvature(2, x, b, a) == pytest.approx(base, rel=1e-12, abs=1e-300)
    flipped = x * np.array(flips)
    assert sectional_curvature(2, flipped, a, b) == pytest.approx(base, rel=1e-12, abs=1e-300)


def test_conformal_mean_curvature_self_shrinker_is_stationary():
    # on the critical sphere |F|^2 = m the flat H cancels the position, which
    # is all normal, so the Gaussian mean curvature (FLOW0's velocity) vanishes
    c = shapes.circle(1.0, 256)
    out = engine.velocity(c, FlowParams(variant=FLOW0))
    assert np.abs(out).max() < 1e-10
