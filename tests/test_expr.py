import math

import pytest

from mcgehee import expr
from mcgehee.errors import ParseError, UnboundParameterError, UnknownFunctionError
from mcgehee.expr import BinOp, Call, Neg, Num, Pow, Theta, parse
from mcgehee.potentials import Domain, PotentialSpec, compile_potential

# an unbounded interval leaves the angle as it is
UNBOUNDED = Domain(-math.inf, math.inf)


def evaluate(text, theta=0.0, params=None):
    scalar, _ = expr.compile_node(parse(text), params or {}, UNBOUNDED)
    return scalar(theta)[0]


# ----------------------------------------------------------------- parsing
def test_literals_and_precedence():
    assert evaluate("2+3*4^2") == 50.0
    assert evaluate("2*3+4") == 10.0
    assert evaluate("-2^2") == -4.0
    assert evaluate("2^3^2") == 512.0
    assert evaluate("(2+3)*4") == 20.0
    assert evaluate("2 - 3 - 4") == -5.0
    assert evaluate("16/4/2") == 2.0


def test_number_formats():
    assert evaluate("1e-3") == 1e-3
    assert evaluate("2.5E+2") == 250.0
    assert evaluate(".5") == 0.5
    assert evaluate("7.") == 7.0


def test_pi_and_theta():
    assert evaluate("2*pi") == 2 * math.pi
    assert evaluate("theta + 1", theta=0.25) == 1.25


def test_ast_shape():
    node = parse("cos(theta)^2")
    assert node == Pow(Call("cos", Theta()), Num(2.0))
    assert parse("-x*y") == BinOp("*", Neg(expr.Param("x")), expr.Param("y"))


def test_unary_minus_chain():
    assert evaluate("--3") == 3.0
    assert evaluate("-(-(-2))") == -2.0


def test_free_parameters():
    node = parse("-1/cos(theta) - 4*a^(3/2)/sqrt(a + 2*sin(theta)^2)")
    assert expr.free_parameters(node) == {"a"}


def test_isosceles_expression_value():
    text = "-1/cos(theta) - 4*a^(3/2)/sqrt(a + 2*sin(theta)^2)"
    assert evaluate(text, 0.0, {"a": 1.0}) == pytest.approx(-5.0, abs=1e-14)


def test_parameter_in_exponent():
    assert evaluate("2^k", params={"k": 3.0}) == 8.0
    assert evaluate("theta^k", 2.0, params={"k": 3.0}) == 8.0
    assert evaluate("theta^k", 4.0, params={"k": 0.5}) == 2.0


def test_parameter_exponent_compiles_once():
    node = parse("cos(theta)^k + m^k")
    for k in (2.0, 0.5, 0.0, -3.0):
        expr.compile_node(node, {"k": k, "m": 1.5}, UNBOUNDED)
    hits = expr._compiled.cache_info().hits
    expr.compile_node(node, {"k": 1.0, "m": 1.5}, UNBOUNDED)
    assert expr._compiled.cache_info().hits == hits + 1


def test_a_repeat_compile_hashes_no_tree(monkeypatch):
    spec = PotentialSpec(-1.0, expr="a*cos(theta) + sin(2*theta)^3 - 0.5", params={"a": 1.0})
    compile_potential(spec)
    root, hashed = parse(spec.expr), []
    for cls in (expr.Num, expr.Pi, expr.Theta, expr.Param, expr.Call, expr.Neg, expr.BinOp,
                expr.Pow):
        monkeypatch.setattr(cls, "__hash__", lambda node, h=cls.__hash__: hashed.append(node)
                            or h(node))
    hits = expr._compiled.cache_info().hits
    compile_potential(spec.with_params(a=2.0))
    assert expr._compiled.cache_info().hits == hits + 1
    # the caches look the root up, whose hash is kept: no child is hashed
    assert hashed and all(node is root for node in hashed)


def test_parameter_names_bind_as_numbers():
    # names of Python builtins, of math functions and of the evaluator's own
    # temporaries are ordinary parameters
    params = {"x": 0.5, "P": 2.0, "sin": 3.0, "t0": -1.25, "__import__": 7.0,
              "t": 0.25, "p": 1.5, "k0": -2.0, "v1": 4.0, "np": 0.125, "math": 8.0}
    text = ("x*theta + P - sin*cos(theta) + t0^2 + __import__"
            " + t*p - k0*v1 + np*math*sin(theta)")
    theta = 0.7
    want = (0.5 * theta + 2.0 - 3.0 * math.cos(theta) + 1.25**2 + 7.0
            + 0.25 * 1.5 + 2.0 * 4.0 + 0.125 * 8.0 * math.sin(theta))
    assert evaluate(text, theta, params) == pytest.approx(want, rel=1e-15)
    assert expr.free_parameters(parse(text)) == set(params)


# ----------------------------------------------------------------- errors
def test_truncated_input():
    with pytest.raises(ParseError) as err:
        parse("2+")
    assert err.value.position == 2


def test_unbalanced_paren():
    with pytest.raises(ParseError):
        parse("(2")


def test_trailing_garbage():
    with pytest.raises(ParseError):
        parse("2 3")


def test_unknown_function():
    with pytest.raises(UnknownFunctionError) as err:
        parse("sinh(theta)")
    assert err.value.position == 0


def test_bad_character():
    with pytest.raises(ParseError):
        parse("2 @ 3")


def test_unbound_parameter_at_compile():
    with pytest.raises(UnboundParameterError):
        expr.compile_node(parse("a*theta"), {}, UNBOUNDED)
    with pytest.raises(UnboundParameterError, match=r"^expression needs parameter\(s\): a, b$"):
        expr.compile_node(parse("b*theta + a*c"), {"c": 1.0}, UNBOUNDED)
