import json
import math
from dataclasses import replace

import numpy as np
import pytest

from mcgehee import expr
from mcgehee.critical import find_critical_points
from mcgehee.errors import (
    DegeneratePotentialError,
    DomainError,
    OriginSingularityError,
    SpecError,
    UnboundParameterError,
    UnknownBuiltinError,
)
from mcgehee.potentials import (
    BUILTINS,
    TWO_PI,
    Domain,
    Potential,
    PotentialSpec,
    compile_potential,
    load_spec,
    spec_from_dict,
)

from conftest import fd2


def builtin(name, **params):
    return compile_potential(PotentialSpec(BUILTINS[name].beta, builtin=name, params=params))


@pytest.fixture
def iso1():
    return builtin("isosceles", alpha=1.0)


@pytest.fixture
def yg4():
    return builtin("yoshida_g", epsilon=4.0)


# ----------------------------------------------------------------- builtins
def test_isosceles_at_zero(iso1):
    j = iso1.V(0.0)
    assert j.val == pytest.approx(-5.0, abs=1e-14)
    assert j.d1 == pytest.approx(0.0, abs=1e-14)
    assert j.d2 == pytest.approx(7.0, abs=1e-12)


def test_isosceles_curvature_alpha_independent():
    # V''(0) = 7 for every alpha: -sec''(0) = -1 plus 8 from the mass term
    for a in (0.5, 1.0, 7.0, 13.75, 20.0):
        assert builtin("isosceles", alpha=a).V(0.0).d2 == pytest.approx(7.0, abs=1e-10)


def test_yoshida_g_at_zero(yg4):
    j = yg4.V(0.0)
    assert (j.val, j.d1) == (-0.25, 0.0)
    assert j.d2 == pytest.approx(-3.0, abs=1e-12)


def test_yoshida_closed_form():
    # V(theta) = -1/4 + ((1 - eps)/8) sin^2(2 theta)
    grid = np.linspace(0.0, 2 * math.pi, 1000, endpoint=False)
    for eps in (4.0, -0.5, 2.0):
        pot = builtin("yoshida_g", epsilon=eps)
        want = -0.25 + (1.0 - eps) / 8.0 * np.sin(2 * grid) ** 2
        assert np.allclose(pot.V(grid).val, want, atol=1e-14)


def test_yoshida_h_is_negated_g():
    g = builtin("yoshida_g", epsilon=4.0)
    h = builtin("yoshida_h", epsilon=4.0)
    grid = np.linspace(0.0, 2 * math.pi, 257, endpoint=False)
    assert np.array_equal(g.V(grid).val, -h.V(grid).val)


# the product form of the Yoshida quartic, before its closed form
PRODUCT_FORM = ("(cos(theta)^4 + sin(theta)^4)/4"
                " + (epsilon/2)*(cos(theta)*cos(theta))*(sin(theta)*sin(theta))")
EPSILONS = (-0.9, -0.5, 0.0, 4.0, 10.0)


@pytest.mark.parametrize("eps", EPSILONS)
def test_yoshida_closed_form_matches_the_product_form(eps):
    grid = np.linspace(0.0, TWO_PI, 1029, endpoint=False)
    for name, sign in (("yoshida_h", ""), ("yoshida_g", "-")):
        ref = compile_potential(spec_from_dict(
            {"expr": f"{sign}({PRODUCT_FORM})", "beta": 4.0, "params": {"epsilon": eps}}))
        for got, want in zip(builtin(name, epsilon=eps).V(grid), ref.V(grid)):
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("eps", EPSILONS)
def test_yoshida_g_negates_yoshida_h_bit_for_bit(eps):
    # the grid holds every multiple of pi/4, where V' and V'' may be zeros
    grid = np.linspace(0.0, TWO_PI, 1024, endpoint=False)
    g, h = builtin("yoshida_g", epsilon=eps), builtin("yoshida_h", epsilon=eps)
    for a, b in zip(g.V(grid), h.V(grid)):
        assert np.array_equal(a, -b)
        assert np.array_equal(np.signbit(a), ~np.signbit(b))
    for theta in (0.0, math.pi / 4, math.pi, 1.0, 5.5):
        for a, b in zip(g.V(theta), h.V(theta)):
            assert a == -b and math.copysign(1.0, a) == -math.copysign(1.0, b)


@pytest.mark.parametrize("name", ["yoshida_g", "yoshida_h"])
def test_yoshida_at_epsilon_one_is_degenerate(name):
    with pytest.raises(DegeneratePotentialError):
        find_critical_points(builtin(name, epsilon=1.0))


def test_builtin_jets_match_finite_differences(iso1, yg4):
    for pot, lo, hi in ((iso1, -1.2, 1.2), (yg4, 0.0, 2 * math.pi)):
        for theta in np.linspace(lo, hi, 37):
            f0, f1, f2 = fd2(lambda t: pot.V(t).val, float(theta), 1e-4)
            j = pot.V(float(theta))
            assert j.val == pytest.approx(f0, rel=1e-9, abs=1e-9)
            assert j.d1 == pytest.approx(f1, rel=1e-6, abs=1e-6)
            assert j.d2 == pytest.approx(f2, rel=1e-5, abs=1e-5)


# ----------------------------------------------------------------- domains
def test_isosceles_domain_open(iso1):
    with pytest.raises(DomainError):
        iso1.V(math.pi / 2)
    with pytest.raises(DomainError):
        iso1.V(1.7)
    assert iso1.domain.contains(1.5)
    assert not iso1.domain.contains(-math.pi / 2)


def test_periodicity(yg4):
    grid = np.linspace(0.0, 2 * math.pi, 100, endpoint=False)
    a = yg4.V(grid)
    b = yg4.V(grid + 2 * math.pi)
    assert np.allclose(a.val, b.val, atol=1e-12)
    assert np.allclose(a.d1, b.d1, atol=1e-12)


def test_periodic_accepts_any_angle(yg4):
    assert yg4.V(17.5).val == pytest.approx(yg4.V(17.5 - 4 * math.pi).val, abs=1e-12)


def test_array_matches_scalar(iso1):
    grid = np.linspace(-1.0, 1.0, 11)
    arr = iso1.V(grid)
    for k in (0, 5, 10):
        j = iso1.V(float(grid[k]))
        assert arr.val[k] == j.val and arr.d1[k] == j.d1 and arr.d2[k] == j.d2


def test_one_source_keeps_each_binding():
    # both potentials share one compiled source; each keeps its parameters
    src = "a*cos(theta) + b*sin(2*theta)"
    p1 = compile_potential(PotentialSpec(-1.0, expr=src, params={"a": 1.0, "b": 0.5}))
    p2 = compile_potential(PotentialSpec(-1.0, expr=src, params={"a": -3.0, "b": 2.0}))
    i1, i2 = builtin("isosceles", alpha=1.0), builtin("isosceles", alpha=7.0)
    grid = np.linspace(0.0, 1.0, 7)
    for theta in (0.1, 0.7, 1.3):
        for pot, a, b in ((p1, 1.0, 0.5), (p2, -3.0, 2.0), (p1, 1.0, 0.5)):
            j = pot.V(theta)
            assert j.val == pytest.approx(a * math.cos(theta) + b * math.sin(2 * theta), rel=1e-14)
            assert j.d2 == pytest.approx(-a * math.cos(theta) - 4 * b * math.sin(2 * theta),
                                         rel=1e-13)
            arr = pot.V(grid)
            assert np.allclose(arr.val, a * np.cos(grid) + b * np.sin(2 * grid), rtol=1e-14)
        for pot, alpha in ((i1, 1.0), (i2, 7.0), (i1, 1.0)):
            s = math.sin(theta)
            want = -1.0 / math.cos(theta) - 4 * alpha**1.5 / math.sqrt(alpha + 2 * s * s)
            assert pot.V(theta).val == pytest.approx(want, rel=1e-14)


# ----------------------------------------------------------------- cartesian
def test_eval_U_examples(iso1, yg4):
    assert yg4.U((0.0, 1.0)) == pytest.approx(-0.25, abs=1e-14)
    assert iso1.U((1.0, 0.0)) == pytest.approx(-5.0, abs=1e-14)


def test_homogeneity(iso1, yg4):
    rng = np.random.default_rng(42)
    for pot in (iso1, yg4):
        for _ in range(20):
            theta = rng.uniform(-1.2, 1.2)
            q = np.array([math.cos(theta), math.sin(theta)]) * rng.uniform(0.5, 1.5)
            for lam in (0.5, 2.0, 3.0):
                assert pot.U(lam * q) == pytest.approx(
                    lam**pot.beta * pot.U(q), rel=1e-10
                )


def test_grad_U_matches_finite_differences(yg4):
    q = np.array([0.8, -0.45])
    g = yg4.grad_U(q)
    h = 1e-6
    for k in range(2):
        dq = np.zeros(2)
        dq[k] = h
        fd = (yg4.U(q + dq) - yg4.U(q - dq)) / (2 * h)
        assert g[k] == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_origin_rejected(yg4):
    with pytest.raises(OriginSingularityError):
        yg4.U((0.0, 0.0))


# ----------------------------------------------------------------- compile errors
def test_missing_builtin_param():
    with pytest.raises(UnboundParameterError):
        compile_potential(PotentialSpec(-1.0, builtin="isosceles"))


def test_unknown_builtin():
    with pytest.raises(UnknownBuiltinError):
        spec_from_dict({"builtin": "kepler"})


@pytest.mark.parametrize("spec, what", [
    (PotentialSpec(-1.0, builtin="isosceles", params={"alpha": 1.0, "mass": 2.0}),
     "builtin 'isosceles'"),
    (PotentialSpec(-1.0, expr="cos(2*theta) - alpha", params={"alpha": 2.0, "mass": 2.0}),
     "the expression"),
], ids=["builtin", "expression"])
def test_extra_builtin_param_rejected(spec, what):
    with pytest.raises(SpecError, match=rf"^params\.mass: not a parameter of {what}$"):
        compile_potential(spec)


def test_negative_alpha_rejected():
    for alpha in (-1.0, 0.0):
        with pytest.raises(DomainError, match="isosceles: alpha must be positive"):
            compile_potential(PotentialSpec(-1.0, builtin="isosceles", params={"alpha": alpha}))


def test_expression_missing_param():
    with pytest.raises(UnboundParameterError, match="a"):
        compile_potential(PotentialSpec(2.0, expr="a*cos(theta)"))


def test_sources_parse_once(monkeypatch):
    seen = []
    tokenize = expr._tokenize
    monkeypatch.setattr(expr, "_tokenize", lambda text: seen.append(text) or tokenize(text))
    source = "cos(3*theta) - 2.75*q"
    for _ in range(10):
        builtin("yoshida_h", epsilon=0.5)
        compile_potential(PotentialSpec(-1.0, expr=source, params={"q": 1.0}))
    assert seen.count(BUILTINS["yoshida_h"].source) <= 1
    assert seen.count(source) == 1


# ----------------------------------------------------------------- spec files
def test_spec_roundtrip(tmp_path):
    raw = {"beta": -1, "builtin": "isosceles", "params": {"alpha": 1}}
    path = tmp_path / "pot.json"
    path.write_text(json.dumps(raw))
    spec = load_spec(str(path))
    assert spec.beta == -1.0 and spec.builtin == "isosceles"
    assert spec.params == {"alpha": 1.0}
    pot = compile_potential(spec)
    assert pot.V(0.0).val == pytest.approx(-5.0)


def test_spec_beta_filled_from_builtin():
    spec = spec_from_dict({"builtin": "yoshida_g", "params": {"epsilon": 4}})
    assert spec.beta == 4.0


def test_spec_missing_beta_for_expr():
    with pytest.raises(SpecError, match="beta"):
        spec_from_dict({"expr": "cos(theta)"})


def test_spec_beta_mismatch():
    with pytest.raises(SpecError, match="beta"):
        spec_from_dict({"beta": 3, "builtin": "yoshida_g", "params": {"epsilon": 4}})


def test_a_spec_built_in_code_keeps_the_builtins_degree():
    # the degree rule holds for a spec that never passed spec_from_dict: it
    # raises where the certificate would otherwise echo a degree it did not use
    with pytest.raises(SpecError, match=r"^beta: builtin 'isosceles' has degree -1\.0$"):
        PotentialSpec(3.0, builtin="isosceles", params={"alpha": 1.0})
    spec = PotentialSpec(-1.0, builtin="isosceles", params={"alpha": 1.0})
    with pytest.raises(SpecError, match="degree 4.0"):
        replace(spec, builtin="yoshida_g")
    assert spec.with_params(alpha=2.0).beta == -1.0


def test_spec_both_sources():
    with pytest.raises(SpecError):
        spec_from_dict({"beta": 1, "expr": "1", "builtin": "isosceles"})


def test_spec_unknown_field():
    with pytest.raises(SpecError, match="color"):
        spec_from_dict({"beta": 1, "expr": "1", "color": "red"})


def test_spec_bad_domain():
    with pytest.raises(SpecError, match="domain"):
        spec_from_dict({"beta": 1, "expr": "cos(theta)", "domain": [0.0, 10.0]})


def test_spec_bad_param_value():
    with pytest.raises(SpecError, match="params.alpha"):
        spec_from_dict({"builtin": "isosceles", "params": {"alpha": "one"}})


@pytest.mark.parametrize("raw, field", [
    ([{"beta": 1, "expr": "1"}], "spec"),       # a JSON value that is not an object
    ({"beta": 1, "expr": 1}, "expr"),
    ({"builtin": ["isosceles"]}, "builtin"),
    ({"beta": True, "expr": "cos(theta)"}, "beta"),
    ({"beta": math.inf, "expr": "cos(theta)"}, "beta"),
    ({"builtin": "isosceles", "params": [["alpha", 1.0]]}, "params"),
    ({"beta": 1, "expr": "cos(theta)", "domain": [0.1]}, "domain"),
    ({"beta": 1, "expr": "cos(theta)", "domain": ["a", 1]}, "domain"),
], ids=["not-object", "expr", "builtin", "beta-bool", "beta-inf", "params", "domain-short",
        "domain-string"])
def test_spec_rejects_a_field_of_the_wrong_kind(raw, field):
    with pytest.raises(SpecError, match=rf"^{field}: "):
        spec_from_dict(raw)


def test_expr_spec_matches_builtin():
    spec = spec_from_dict(
        {
            "beta": 4,
            "expr": "-(cos(theta)^4+sin(theta)^4)/4 - (e/2)*cos(theta)^2*sin(theta)^2",
            "params": {"e": 4},
        }
    )
    pot = compile_potential(spec)
    ref = builtin("yoshida_g", epsilon=4.0)
    grid = np.linspace(0.0, 2 * math.pi, 313, endpoint=False)
    a, b = pot.V(grid), ref.V(grid)
    assert np.allclose(a.val, b.val, atol=1e-12)
    assert np.allclose(a.d1, b.d1, atol=1e-12)
    assert np.allclose(a.d2, b.d2, atol=1e-12)


def test_pole_is_domain_error():
    pot = compile_potential(PotentialSpec(1.0, expr="1/(cos(theta) - 1)"))
    with pytest.raises(DomainError):
        pot.V(0.0)


def test_nonfinite_guard():
    pot = compile_potential(PotentialSpec(1.0, expr="exp(exp(exp(theta)))", domain=(0.0, 4.0)))
    with pytest.raises(DomainError):
        pot.V(math.pi)  # triple exponential overflows to inf
