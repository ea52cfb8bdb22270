import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussflow import radial
from gaussflow.engine import FLOW, FLOW0, FLOWP, FlowParams
from gaussflow.errors import DomainError, InvalidConfig, OverflowGuard
from gaussflow.radial import (COLLAPSE, ESCAPE, HORIZON, RadialParams,
                              bound_time_expand, bound_time_shrink,
                              integrate_radial, radial_rhs, sphere_params)
from radial_oracles import (collapse_time_quadrature, envelope_expand, envelope_shrink,
                            escape_time_quadrature, radius_dop853)


def std_params(m, r0_sq, **kw):
    return RadialParams(m=m, a=1.0, b=1.0, c0=1.0, R0_sq=r0_sq, **kw)


# ---------------------------------------------------------------------------
# right-hand side


def test_rhs_fixed_point():
    assert radial_rhs(2.0, std_params(2, 1.0)) == 0.0
    assert radial_rhs(1.0, std_params(1, 0.5)) == 0.0


def test_rhs_substitution_value():
    assert radial_rhs(4.0, std_params(2, 1.0)) == pytest.approx(4.0 * math.e ** 2, rel=1e-14)


def test_rhs_near_origin_limit():
    for m in (1, 2, 3):
        assert radial_rhs(1e-14, std_params(m, 1.0)) == pytest.approx(-2.0 * m, rel=1e-10)


def test_rhs_guard_and_domain():
    with pytest.raises(OverflowGuard):
        radial_rhs(1500.0, std_params(2, 1.0))
    with pytest.raises(DomainError):
        radial_rhs(-0.5, std_params(2, 1.0))


# ---------------------------------------------------------------------------
# closed-form bounds and envelopes


def test_bound_time_values():
    assert bound_time_shrink(std_params(2, 1.0)) == pytest.approx(1 - math.exp(-0.5), abs=1e-15)
    assert bound_time_shrink(std_params(1, 0.64)) == pytest.approx(
        (1 - math.exp(-0.64)) / 0.72, abs=1e-15)
    assert bound_time_expand(std_params(2, 5.0)) == pytest.approx(math.exp(-2.5) / 3, abs=1e-15)
    assert bound_time_expand(std_params(2, 4.0)) == pytest.approx(math.exp(-2.0) / 2, abs=1e-15)


@pytest.mark.parametrize("a", [1e-10, 1e-17])
def test_bound_time_shrink_keeps_its_digits_as_a_vanishes(a):
    # T1 = (1 - exp(-a/2)) / a for m = 1, R0^2 = 1/2; its series
    # 1/2 - a/8 + a^2/48 is exact to rounding at these a
    t1 = bound_time_shrink(RadialParams(m=1, a=a, b=1.0, c0=1.0, R0_sq=0.5))
    assert t1 == pytest.approx(0.5 - a / 8 + a * a / 48, rel=4e-16)


def test_bound_time_limits():
    assert bound_time_shrink(std_params(2, 1e-9)) < 1e-9
    assert bound_time_expand(std_params(2, 200.0)) < 1e-40


def test_bound_time_domain_errors():
    with pytest.raises(DomainError):
        bound_time_shrink(std_params(2, 3.0))
    with pytest.raises(DomainError):
        bound_time_expand(std_params(2, 1.0))
    with pytest.raises(DomainError):
        bound_time_shrink(std_params(2, 1.0, c_slope=-0.1))
    with pytest.raises(DomainError):
        bound_time_expand(std_params(2, 5.0, c_slope=0.1))


def test_envelope_endpoints():
    p = std_params(2, 1.0)
    t1 = bound_time_shrink(p)
    assert envelope_shrink(p, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert envelope_shrink(p, t1 * (1 - 1e-12)) < 1e-9
    q = std_params(2, 5.0)
    t2 = bound_time_expand(q)
    assert envelope_expand(q, 0.0) == pytest.approx(5.0, abs=1e-12)
    assert envelope_expand(q, t2 * (1 - 1e-12)) > 50.0


def test_envelope_values():
    p = std_params(2, 1.0)
    assert envelope_shrink(p, 0.2) == pytest.approx(
        -2.0 * math.log(0.2 + math.exp(-0.5)), rel=1e-12)
    q = std_params(2, 5.0)
    assert envelope_expand(q, 0.02) == pytest.approx(
        -2.0 * math.log(math.exp(-2.5) - 3 * 0.02), rel=1e-12)


def test_envelope_domain():
    p = std_params(2, 1.0)
    with pytest.raises(DomainError):
        envelope_shrink(p, bound_time_shrink(p) + 1e-6)
    with pytest.raises(DomainError):
        envelope_shrink(p, -0.1)
    with pytest.raises(DomainError):
        envelope_shrink(std_params(2, 5.0), 0.0)


# ---------------------------------------------------------------------------
# quadrature oracle and integrator agreement


CASES = [(1, 0.64), (2, 1.0), (2, 4.0), (2, 5.0), (3, 1.0)]


@pytest.mark.parametrize("m,r0", CASES)
def test_integrator_matches_quadrature_oracle(m, r0):
    p = std_params(m, r0)
    traj = integrate_radial(p, horizon=10.0)
    if p.regime() == "shrink":
        oracle = collapse_time_quadrature(p)
        assert traj.event.kind == COLLAPSE
        assert traj.event.t <= bound_time_shrink(p)
    else:
        oracle = escape_time_quadrature(p)
        assert traj.event.kind == ESCAPE
        assert traj.event.t <= bound_time_expand(p)
    assert traj.event.t == pytest.approx(oracle, abs=1e-8)


def test_stationary_sphere_never_moves():
    p = std_params(2, 2.0)
    traj = integrate_radial(p, horizon=0.7)
    assert traj.event.kind == HORIZON
    np.testing.assert_allclose(traj.R_sq, 2.0, atol=1e-12)
    assert radial.applicable_bound(p) is None


def test_trajectory_ordering_against_envelopes():
    p = std_params(2, 1.0)
    traj = integrate_radial(p, horizon=1.0)
    t1 = bound_time_shrink(p)
    for t, r in zip(traj.times, traj.R_sq):
        if t < t1:
            assert r <= envelope_shrink(p, t) + 1e-9
    q = std_params(2, 5.0)
    traj = integrate_radial(q, horizon=1.0)
    t2 = bound_time_expand(q)
    for t, r in zip(traj.times, traj.R_sq):
        if t < t2 and math.isfinite(r):
            assert r >= envelope_expand(q, t) - 1e-9


def test_substitution_identity_along_trajectory():
    # d/dt exp(-a r/m) computed through the rhs must cancel the linear form
    p = RadialParams(m=3, a=1.7, b=0.8, c0=1.1, R0_sq=1.5)
    traj = integrate_radial(p, horizon=2.0)
    for t, r in zip(traj.times, traj.R_sq):
        if not math.isfinite(r):
            continue
        u = math.exp(-p.a * r / p.m)
        lhs = -(p.a / p.m) * u * radial_rhs(r, p, t)
        rhs = -(2 * p.a * p.b / p.m) * (r - p.c(t) * p.m / p.b)
        assert abs(lhs - rhs) < 1e-8


def test_comparison_monotonicity_in_initial_data():
    # both shrink; (m=2, 0.8) collapses near t = 0.207, so stay inside that
    grid = np.linspace(0.0, 0.15, 16)
    a = integrate_radial(std_params(2, 0.8), 0.15, t_eval=grid)
    b = integrate_radial(std_params(2, 1.0), 0.15, t_eval=grid)
    assert a.eval_times.shape == b.eval_times.shape
    assert np.all(a.eval_R_sq < b.eval_R_sq + 1e-10)


def test_monotone_trajectories():
    shrink = integrate_radial(std_params(2, 1.0), 1.0)
    assert np.all(np.diff(shrink.R_sq) <= 0)
    grow = integrate_radial(std_params(2, 4.0), 1.0)
    finite = grow.R_sq[np.isfinite(grow.R_sq)]
    assert np.all(np.diff(finite) >= 0)


def test_forced_sample_times_are_exact():
    grid = [0.0, 0.05, 0.1, 0.15]
    traj = integrate_radial(std_params(1, 0.64), 0.15, t_eval=grid)
    np.testing.assert_array_equal(traj.eval_times, grid)
    assert traj.eval_R_sq[0] == 0.64


def test_steps_land_exactly_on_sample_times():
    # each capped step ends on its sample, not one rounding error short of it
    # (t + (s - t) != s for s = 0.003061224489795918 on this grid)
    grid = np.linspace(0.0, 0.15, 50)
    traj = integrate_radial(std_params(1, 0.64), 0.15, t_eval=grid)
    assert set(grid.tolist()) <= set(traj.times.tolist())
    np.testing.assert_array_equal(traj.eval_times, grid)
    landed = np.searchsorted(traj.times, grid)
    np.testing.assert_array_equal(traj.eval_R_sq, traj.R_sq[landed])
    assert traj.event.kind == HORIZON and traj.event.t == 0.15


def test_eval_times_truncate_at_event():
    p = std_params(2, 5.0)
    esc = integrate_radial(p, 1.0)
    grid = np.linspace(0, 0.05, 11)  # escape happens near 0.0184
    traj = integrate_radial(p, 1.0, t_eval=grid)
    assert traj.eval_times.max() < esc.event.t
    assert traj.event.kind == ESCAPE


def test_affine_c_shifts_the_balance():
    # growing c(t) accelerates the shrink of an inside sphere
    base = integrate_radial(std_params(2, 1.0), 0.2, t_eval=[0.2])
    faster = integrate_radial(std_params(2, 1.0, c_slope=2.0), 0.2, t_eval=[0.2])
    assert faster.eval_R_sq[0] < base.eval_R_sq[0]


def test_oracle_preconditions():
    with pytest.raises(DomainError):
        collapse_time_quadrature(std_params(2, 5.0))
    with pytest.raises(DomainError):
        escape_time_quadrature(std_params(2, 1.0))
    with pytest.raises(DomainError):
        collapse_time_quadrature(std_params(2, 1.0, c_slope=0.5))


def test_config_validation():
    with pytest.raises(InvalidConfig):
        RadialParams(m=0, a=1, b=1, c0=1, R0_sq=1.0)
    with pytest.raises(InvalidConfig):
        RadialParams(m=2, a=-1, b=1, c0=1, R0_sq=1.0)
    with pytest.raises(InvalidConfig):
        RadialParams(m=2, a=1, b=1, c0=1, R0_sq=-1.0)
    with pytest.raises(InvalidConfig):
        integrate_radial(std_params(2, 1.0), horizon=-1.0)
    with pytest.raises(InvalidConfig):
        integrate_radial(std_params(2, 1.0, c_slope=-10.0), horizon=1.0)
    with pytest.raises(InvalidConfig, match="between collapse floor and escape ceiling"):
        integrate_radial(std_params(2, 1e-13), horizon=1.0)


def test_non_finite_inputs_rejected():
    # a NaN c_slope would report a HORIZON event for a sphere that collapses
    with pytest.raises(InvalidConfig, match="c_slope"):
        std_params(1, 0.64, c_slope=math.nan)
    # an infinite constant or R0_sq gave T2 = 0 or a bound time of 0
    for name, field in (("a", "a"), ("b", "b"), ("c0", "c"), ("R0_sq", "R0_sq")):
        for value in (math.inf, math.nan):
            kw = {**dict(m=1, a=1.0, b=1.0, c0=1.0, R0_sq=0.5), name: value}
            with pytest.raises(InvalidConfig, match=rf"\b{field}\b"):
                RadialParams(**kw)
    with pytest.raises(InvalidConfig, match="horizon"):
        integrate_radial(std_params(1, 0.64), horizon=math.nan)
    assert integrate_radial(std_params(1, 0.64), horizon=math.inf).event.kind == COLLAPSE
    # on the stationary sphere no event comes, and no time may become inf
    with pytest.raises(InvalidConfig, match="infinite horizon"):
        integrate_radial(RadialParams(2, 1.0, 1.0, 1.0, 2.0), horizon=math.inf)


@pytest.mark.parametrize("law", [FlowParams(variant=FLOW), FlowParams(variant=FLOW0),
                                 FlowParams(variant=FLOWP, a=1.3, b=0.7, c=1.9, c_slope=0.25)],
                         ids=["FLOW", "FLOW0", "FLOWP"])
@pytest.mark.parametrize("m, r0_sq", [(1, 0.64), (2, 5.0), (1, 4.0)])
def test_sphere_params_is_the_field_by_field_construction(law, m, r0_sq):
    rp = sphere_params(law, m, r0_sq)
    assert rp == RadialParams(m=m, a=law.a, b=law.b, c0=law.c, R0_sq=r0_sq,
                              c_slope=law.c_slope)
    # bit for bit what RadialParams wrote out before it read the law
    balance = (law.c / law.b) * m
    assert rp.balance_sq == law.balance_sq(0.0, m) == balance
    assert rp.regime() == ("shrink" if r0_sq < balance else "expand")
    assert rp.c(0.3) == law.c + law.c_slope * 0.3


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (1.0, 0.0), (0.0, 0.0)])
def test_sphere_params_refuses_pure_mcf(a, b):
    law = FlowParams(variant=FLOWP, a=a, b=b)
    with pytest.raises(InvalidConfig, match=r"params\.a > 0 and params\.b > 0"):
        sphere_params(law, 1, 0.64)


def test_nan_sample_time_rejected():
    # a NaN sample is never recorded, so every sample after it was dropped
    with pytest.raises(InvalidConfig, match="t_eval"):
        integrate_radial(std_params(1, 0.64), 0.15, t_eval=[0.0, math.nan, 0.05, 0.1])


def test_horizon_zero():
    traj = integrate_radial(std_params(2, 1.0), horizon=0.0)
    assert traj.event.kind == HORIZON and traj.event.t == 0.0
    assert traj.times.shape == (1,)


@settings(max_examples=12, deadline=None)
@given(
    m=st.integers(1, 4),
    frac=st.floats(0.05, 0.95),
    a=st.floats(0.5, 2.0),
    b=st.floats(0.5, 2.0),
    c0=st.floats(0.5, 2.0),
)
def test_collapse_before_closed_form_bound(m, frac, a, b, c0):
    r0 = frac * (c0 / b) * m
    p = RadialParams(m=m, a=a, b=b, c0=c0, R0_sq=r0)
    t_star = collapse_time_quadrature(p)
    t1 = bound_time_shrink(p)
    assert 0.0 < t_star <= t1
    traj = integrate_radial(p, horizon=2.0 * t1)
    assert traj.event.kind == COLLAPSE
    assert traj.event.t == pytest.approx(t_star, abs=1e-8)


def test_integrator_switches_back_from_u_when_rising_c_turns_an_escape(monkeypatch):
    # R0^2 = 3.5 starts outside the balance sphere and above 3m/a, so the
    # integrator starts on u = exp(-a R^2/m); c(t) = 1 + 3000 t overtakes R^2
    # within 1e-3, and the sphere turns round, falls below 2m/a, where the
    # integrator goes back to R^2, and collapses
    p = RadialParams(m=1, a=1.0, b=1.0, c0=1.0, R0_sq=3.5, c_slope=3000.0)
    phases = []
    for name in ("_u_rhs", "_r_rhs_clamped"):
        real = getattr(radial, name)

        def logged(*args, real=real, name=name):
            if not phases or phases[-1] != name:
                phases.append(name)
            return real(*args)

        monkeypatch.setattr(radial, name, logged)
    traj = integrate_radial(p, horizon=1.0)
    assert phases == ["_u_rhs", "_r_rhs_clamped"]
    assert traj.event.kind == COLLAPSE and traj.R_sq.max() > p.R0_sq
    assert radial.applicable_bound(p) is None   # no closed-form bound for rising c outside
    grid = [0.5 * traj.event.t, 0.9 * traj.event.t]
    sampled = integrate_radial(p, horizon=1.0, t_eval=grid)
    assert sampled.eval_R_sq[0] < 2.0
    np.testing.assert_allclose(sampled.eval_R_sq, radius_dop853(p, grid), rtol=1e-8)
