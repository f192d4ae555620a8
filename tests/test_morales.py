import math

import pytest

from mcgehee.critical import find_critical_points
from mcgehee.errors import (
    BetaTwoScaleDegenerateError,
    DomainViolationError,
    NotCriticalPointError,
    ZeroBetaError,
    ZeroPotentialValueError,
)
from mcgehee.morales import (
    check_integrability_necessary,
    darboux_from_critical,
    hessian_coefficients,
    mr_beta_minus1_member,
    mr_beta_minus1_values,
    yoshida_lambda,
)
from mcgehee.potentials import compile_potential, spec_from_dict


def builtin(name, **params):
    return compile_potential(spec_from_dict({"builtin": name, "params": params}))


def expr_pot(source, beta, **kw):
    return compile_potential(spec_from_dict({"expr": source, "beta": beta, **kw}))


# ---------------------------------------------------------------- lambda


def test_isosceles_coefficients():
    # V(0) = -5, V''(0) = 7, beta = -1: lambda = 7/5 + 1 = 2.4
    c = yoshida_lambda(builtin("isosceles", alpha=1.0), 0.0)
    assert c.lam == pytest.approx(2.4, rel=1e-12)
    assert c.trivial == -2.0
    assert c.beta == -1.0
    # beta*V = 5 > 0: s^(beta-2) = 1/5 gives s = 5^(1/3)
    assert c.darboux_scale == pytest.approx(5.0 ** (1.0 / 3.0), rel=1e-12)


def test_yoshida_lambda_equals_epsilon():
    # V(0) = -1/4, V''(0) = 1 - eps, beta = 4: lambda = (1-eps)/(-1) + 1 = eps
    for eps in (-0.5, 0.0, 1.0, 2.5, 4.0):
        c = yoshida_lambda(builtin("yoshida_g", epsilon=eps), 0.0)
        assert c.lam == pytest.approx(eps, abs=1e-12)
        assert c.trivial == 3.0
        assert c.darboux_scale is None  # beta*V(0) = -1 < 0


def test_flat_critical_point_gives_lambda_one():
    # V'' = 0 at the critical angle collapses the formula to lambda = 1
    c = yoshida_lambda(expr_pot("sin(theta)^4 - 1", beta=-1.0), 0.0)
    assert c.lam == pytest.approx(1.0, abs=1e-15)


def test_lambda_recomputes_from_the_jet():
    pot = expr_pot("cos(2*theta) + 0.3*sin(4*theta) - 2", beta=-1.0)
    for cp in find_critical_points(pot):
        c = yoshida_lambda(pot, cp.theta)
        jet = pot.V(cp.theta)
        want = float(jet.d2) / (pot.beta * float(jet.val)) + 1.0
        assert c.lam == pytest.approx(want, rel=1e-12)
        assert (c.darboux_scale is not None) == (pot.beta * float(jet.val) > 0.0)


def test_yoshida_lambda_evaluates_v_once():
    pot = builtin("isosceles", alpha=1.0)
    calls = []
    V_float = pot.V_float
    pot.V_float = lambda theta: calls.append(theta) or V_float(theta)
    c = yoshida_lambda(pot, 0.0)
    assert c.darboux_scale is not None
    assert calls == [0.0]


def test_lambda_rejects_bad_rays():
    with pytest.raises(NotCriticalPointError):
        yoshida_lambda(builtin("isosceles", alpha=1.0), 0.3)
    with pytest.raises(ZeroPotentialValueError):
        yoshida_lambda(expr_pot("cos(theta)-1", beta=-1.0), 0.0)
    with pytest.raises(ZeroBetaError):
        yoshida_lambda(expr_pot("cos(theta)-2", beta=0.0), 0.0)


# ---------------------------------------------------------------- Darboux scale


def test_darboux_scale_solves_the_ray_equation():
    # beta*V = 1 is the fixed point s = 1 for any degree
    assert darboux_from_critical(expr_pot("cos(theta)-2", beta=-1.0), 0.0) == 1.0
    # beta = 4, V(0) = 3: s = 12^(-1/2)
    s = darboux_from_critical(expr_pot("2+cos(4*theta)", beta=4.0), 0.0)
    assert s == pytest.approx(12.0**-0.5, rel=1e-12)
    # gradient really is the identity there: beta * s^(beta-2) * V = 1
    assert 4.0 * s**2.0 * 3.0 == pytest.approx(1.0, rel=1e-12)


def test_darboux_scale_absent_when_beta_v_negative():
    assert darboux_from_critical(builtin("yoshida_g", epsilon=4.0), 0.0) is None
    assert darboux_from_critical(builtin("yoshida_g", epsilon=4.0), math.pi / 4) is None


def test_darboux_scale_degenerate_at_beta_two():
    with pytest.raises(BetaTwoScaleDegenerateError):
        darboux_from_critical(expr_pot("cos(theta)-2", beta=2.0), 0.0)
    # yoshida_lambda still reports the coefficient, with the scale absent
    c = yoshida_lambda(expr_pot("cos(theta)-2", beta=2.0), 0.0)
    assert c.lam == pytest.approx(1.5, rel=1e-12)  # -1/(2*-2) + 1
    assert c.darboux_scale is None


# ---------------------------------------------------------------- inequality


def test_necessary_inequality_boundary_and_examples():
    at_boundary = check_integrability_necessary(9.0 / 8.0, -1.0)
    assert at_boundary.satisfied and abs(at_boundary.margin) <= 1e-15

    iso = check_integrability_necessary(2.4, -1.0)
    assert not iso.satisfied
    assert iso.margin == pytest.approx(-1.275, rel=1e-12)

    for beta in (-1.0, 0.5, 4.0):
        trivial = check_integrability_necessary(1.0, beta)
        assert trivial.satisfied
        assert trivial.margin == pytest.approx((beta + 2.0) ** 2 / 8.0, rel=1e-12)


def test_necessary_inequality_matches_the_yoshida_threshold():
    # at beta = 4 the margin is 4*eps + 1/2: false exactly when eps < -1/8,
    # the same threshold the certifier's sweep isolates for yoshida_g
    assert check_integrability_necessary(-0.125, 4.0).satisfied
    assert check_integrability_necessary(-0.125 + 1e-9, 4.0).satisfied
    assert not check_integrability_necessary(-0.125 - 1e-9, 4.0).satisfied


# ---------------------------------------------------------------- MR set


def test_mr_set_listing_and_membership():
    vals = mr_beta_minus1_values()
    assert vals[:5] == [1.0, 0.0, -2.0, -5.0, -9.0]
    for v in vals[:5]:
        assert mr_beta_minus1_member(v)
    for v in (0.5, 1.2, -1.0, 2.4, 9.0 / 8.0):
        assert not mr_beta_minus1_member(v)


def test_mr_membership_tolerance():
    assert mr_beta_minus1_member(1.0 + 1e-10)
    assert not mr_beta_minus1_member(1.0 + 1e-8)


def test_mr_set_sits_inside_the_necessary_region():
    # every member generated by p in [-20, 20] keeps the beta = -1 margin
    # non-negative; the region boundary lambda = 9/8 is never attained
    vals = mr_beta_minus1_values()
    assert len(vals) == 22
    for v in vals:
        assert check_integrability_necessary(v, -1.0).satisfied
        assert v <= 9.0 / 8.0


# ---------------------------------------------------------------- Hessian route


def test_hessian_eigenvalues_reproduce_both_coefficients():
    cases = (
        (builtin("isosceles", alpha=1.0), 0.0),
        (expr_pot("cos(theta)-2", beta=-1.0), 0.0),
        (expr_pot("2+cos(4*theta)", beta=4.0), 0.0),
        (expr_pot("sin(theta)^4 - 1", beta=-1.0), 0.0),
    )
    for pot, theta in cases:
        c = yoshida_lambda(pot, theta)
        got = hessian_coefficients(pot, theta)
        want = sorted((c.trivial, c.lam))
        assert got[0] == pytest.approx(want[0], abs=1e-6)
        assert got[1] == pytest.approx(want[1], abs=1e-6)


def test_hessian_route_requires_a_darboux_point():
    with pytest.raises(DomainViolationError):
        hessian_coefficients(builtin("yoshida_g", epsilon=4.0), 0.0)
