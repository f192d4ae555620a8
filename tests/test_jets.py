"""The derivative rules of the compiled evaluator, one rule at a time.

Every expression compiles to straight-line code returning (V, V', V'');
these tests hold that code to closed forms and to central differences.
Where a rule is applied to an inner function u(theta), u is the quadratic
x0 + 0.7 theta + 0.4 theta^2 (or a + b theta + c theta^2), read at
theta = 0, so the chain rule is exercised up to u''.
"""
import math
import random
import re

import numpy as np
import pytest

from mcgehee.errors import DomainError
from mcgehee.expr import COMPONENTS, _reading_source, compile_node, parse
from mcgehee.potentials import BUILTINS, Domain

from conftest import fd2


# an unbounded interval leaves the angle as it is
UNBOUNDED = Domain(-math.inf, math.inf)


def evaluators(text, **params):
    return compile_node(parse(text), params, UNBOUNDED)


def jet(text, theta, **params):
    scalar, _ = evaluators(text, **params)
    return scalar(theta)


def assert_jet(j, expected, tol=1e-12):
    for got, want in zip(j, expected):
        assert got == pytest.approx(want, rel=tol, abs=tol)


# ----------------------------------------------------------------- lifting
def test_variable_lift():
    assert_jet(jet("theta", 0.3), (0.3, 1.0, 0.0))


def test_constant_lift():
    assert_jet(jet("2.5", 0.3), (2.5, 0.0, 0.0))


# ----------------------------------------------------------------- arithmetic
def test_mul():
    assert_jet(jet("(2 + theta) * (3 + theta)", 0.0), (6.0, 5.0, 2.0))


def test_div():
    assert_jet(jet("1 / (2 + theta)", 0.0), (0.5, -0.25, 0.25))


def test_div_matches_finite_differences():
    want = fd2(lambda s: 1.0 / s, 2.0)
    assert_jet(jet("1 / theta", 2.0), want, tol=1e-6)


def test_pow_three_halves():
    # F(s) = (4 + 2s + s^2)^(3/2):  F'' = 3/4 u^{-1/2} u'^2 + 3/2 u^{1/2} u''
    #                                    = 1.5 + 6 = 7.5 at s = 0
    got = jet("(4 + 2*theta + theta^2)^1.5", 0.0)
    assert_jet(got, (8.0, 6.0, 7.5))
    want = fd2(lambda s: (4 + 2 * s + s * s) ** 1.5, 0.0)
    assert_jet(got, want, tol=1e-5)


def test_pow_integer_negative_base():
    got = jet("(theta - 2)^3", 0.0)
    assert_jet(got, fd2(lambda s: (s - 2.0) ** 3, 0.0), tol=1e-6)


def test_sqrt():
    assert_jet(jet("sqrt(4 + 2*theta + theta^2)", 0.0), (2.0, 0.5, 0.375))


def test_sin_at_zero():
    assert_jet(jet("sin(theta)", 0.0), (0.0, 1.0, 0.0))


def test_cos_at_zero():
    assert_jet(jet("cos(theta)", 0.0), (1.0, 0.0, -1.0))


def test_scalar_coercion():
    assert_jet(jet("2*theta + 1 - theta", 0.5), (1.5, 1.0, 0.0))
    assert_jet(jet("1 / (theta / 0.5)", 0.5), (1.0, -2.0, 8.0))


# ----------------------------------------------------------------- identities
def test_pythagorean_identity():
    for th in np.linspace(-3.0, 3.0, 17):
        assert_jet(jet("sin(theta)*sin(theta) + cos(theta)*cos(theta)", float(th)),
                   (1.0, 0.0, 0.0))


def test_reciprocal_identity():
    assert_jet(jet("(exp(theta) + 2) * (1 / (exp(theta) + 2))", 0.7), (1.0, 0.0, 0.0))


def test_log_exp_roundtrip():
    assert_jet(jet("log(exp(theta))", 0.3), (0.3, 1.0, 0.0))


# ----------------------------------------------------------------- fd property
UNARY_CASES = [
    ("sin", math.sin, (-3.0, 3.0)),
    ("cos", math.cos, (-3.0, 3.0)),
    ("tan", math.tan, (-1.2, 1.2)),
    ("sqrt", math.sqrt, (0.3, 4.0)),
    ("exp", math.exp, (-2.0, 2.0)),
    ("log", math.log, (0.3, 4.0)),
    ("abs", abs, (0.3, 4.0)),
]


@pytest.mark.parametrize("fn,mf,rng", UNARY_CASES, ids=lambda c: getattr(c, "__name__", str(c)))
def test_unary_matches_finite_differences(fn, mf, rng):
    rnd = random.Random(20260814)
    for _ in range(25):
        x = rnd.uniform(*rng)
        # compose with a quadratic reparametrisation so d2 is exercised
        g = lambda s: mf(x + 0.7 * s + 0.4 * s * s)
        got = jet(f"{fn}(x0 + 0.7*theta + 0.4*theta^2)", 0.0, x0=x)
        assert_jet(got, fd2(g, 0.0, 1e-5), tol=2e-5)


def test_binary_matches_finite_differences():
    rnd = random.Random(7)
    ops = [
        ("+", lambda a, b: a + b),
        ("-", lambda a, b: a - b),
        ("*", lambda a, b: a * b),
        ("/", lambda a, b: a / b),
    ]
    for op, mop in ops:
        text = f"(a0 + a1*theta + 0.5*a2*theta^2) {op} (b0 + b1*theta + 0.5*b2*theta^2)"
        for _ in range(25):
            a0, a1, a2 = (rnd.uniform(-2, 2) for _ in range(3))
            b0, b1, b2 = (rnd.uniform(-2, 2) for _ in range(3))
            b0 += math.copysign(2.5, b0)  # keep divisors away from 0
            fa = lambda s: a0 + a1 * s + 0.5 * a2 * s * s
            fb = lambda s: b0 + b1 * s + 0.5 * b2 * s * s
            got = jet(text, 0.0, a0=a0, a1=a1, a2=a2, b0=b0, b1=b1, b2=b2)
            want = fd2(lambda s: mop(fa(s), fb(s)), 0.0, 1e-4)
            assert_jet(got, want, tol=1e-5)


# ----------------------------------------------------------------- arrays
# numpy's sin, cos and sqrt round as math's do, so the two closures agree
# bit for bit on arithmetic with them, and on the rungs of a harmonic
# ladder, which both derive from sin and cos of theta by the same products
# and sums.  numpy's tan, exp, log and power differ from the C library's by
# an ulp at some arguments; the square of cos(theta) happens to agree at
# every point of this grid.
ARRAY_SOURCES = [
    ("cos(theta) + sin(2*theta) - 0.5*cos(2*theta) + cos(3*theta)*sin(theta) + cos(5*theta)", 0.0),
    ("sin(theta)*2 + cos(theta)*cos(theta) - sqrt(2 + sin(theta))/(3 + theta)", 0.0),
    ("sin(theta)*2 + cos(theta)^2", 0.0),
    ("exp(-theta^2)*log(2 + sin(theta)) + abs(2 + cos(theta)) - tan(theta/4)", 1e-15),
    ("sqrt(3 + cos(theta))^1.5 / (2 + theta^2) - (theta - 5)^-3 + a*theta", 1e-15),
]


def test_array_components_match_scalar():
    grid = np.linspace(-1.2, 1.2, 101)
    for source, rel in ARRAY_SOURCES:
        scalar, array = evaluators(source, a=0.3)
        j = array(grid)
        for k in range(len(grid)):
            s = scalar(float(grid[k]))
            if rel == 0.0:
                assert (j[0][k], j[1][k], j[2][k]) == s
            else:
                assert_jet((j[0][k], j[1][k], j[2][k]), s, tol=rel)


def test_theta_free_components_broadcast_over_arrays():
    _, array = evaluators("2*theta + a", a=1.5)
    grid = np.linspace(0.0, 1.0, 5)
    val, d1, d2 = array(grid)
    assert np.array_equal(val, 2.0 * grid + 1.5)
    assert np.array_equal(d1, np.full(5, 2.0)) and np.array_equal(d2, np.zeros(5))


# ----------------------------------------------------------------- errors
def test_division_by_zero():
    # the closure raises DomainError; the prologue's ZeroDivisionError at
    # bind time is turned into DomainError by compile_potential
    with pytest.raises(DomainError, match="potential singular: jet division by zero"):
        jet("1 / (theta - 1)", 1.0)
    with pytest.raises(ZeroDivisionError):
        evaluators("theta / (a - 1)", a=1.0)


def test_sqrt_negative():
    with pytest.raises(DomainError):
        jet("sqrt(theta)", -1.0)
    with pytest.raises(DomainError):
        evaluators("sqrt(a) * theta", a=-1.0)


def test_log_nonpositive():
    with pytest.raises(DomainError):
        jet("log(theta)", 0.0)


def test_abs_at_zero():
    with pytest.raises(DomainError):
        jet("abs(theta)", 0.0)


def test_tan_at_pole():
    with pytest.raises(DomainError):
        jet("tan(theta)", math.pi / 2)


def test_fractional_pow_negative_base():
    with pytest.raises(DomainError):
        jet("(theta - 4)^1.5", 0.0)


def test_theta_dependent_exponent_rejected():
    with pytest.raises(DomainError):
        evaluators("2^theta")


@pytest.mark.parametrize("c", [0.0, 1.0, 2.0, 3.0, 4.0, -1.0, -2.0, 0.5, 1.5, -2.5])
def test_parameter_exponent_matches_literal_exponent(c):
    # an exponent read from a parameter takes the rule a literal exponent
    # selects, with the same bits, signed zeros included; a whole exponent is
    # also read on bases negative on the whole grid, one with the literal
    # derivatives (1, 0) that the emitter folds
    bases = ["(-sin(theta))" if c in (0.0, 1.0, 2.0, 3.0, 4.0) else "(0.5 + sin(theta))"]
    if c == round(c):
        bases += ["(sin(theta) - 2)", "(theta - 2)"]
    grid = np.linspace(-0.4, 1.2, 33)
    for base in bases:
        by_param, by_literal = evaluators(f"{base}^k", k=c), evaluators(f"{base}^{c!r}")
        for t in (0.0, -0.0, 0.3, 1.1):
            assert _bits(by_param[0](t)) == _bits(by_literal[0](t))
        for got, want in zip(by_param[1](grid), by_literal[1](grid)):
            got, want = np.broadcast_to(got, grid.shape), np.broadcast_to(want, grid.shape)
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def _bits(j):
    return [(x, math.copysign(1.0, x)) for x in j]


def _ulps(got, want):
    """|got - want| in units of the last place of ``want``."""
    return np.abs(np.asarray(got) - want) / np.spacing(np.abs(want))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_integer_power_products_match_pow(n):
    # x^2, x^3 and x^4 are products, within 2 ulps of the C library's pow
    rnd = random.Random(n)
    xs = [rnd.uniform(-3.0, 3.0) for _ in range(400)]
    xs += [s * 10.0 ** e for s in (-1.0, 1.0) for e in range(-30, 31, 5)]
    scalar, array = evaluators(f"theta^{n}")
    want = np.array([math.pow(x, n) for x in xs])
    assert max(_ulps(scalar(x)[0], w) for x, w in zip(xs, want)) <= 2.0
    assert _ulps(array(np.array(xs))[0], want).max() <= 2.0


@pytest.mark.parametrize("name, params", [
    ("isosceles", {"alpha": 1.0}), ("isosceles", {"alpha": 13.75}),
    ("yoshida_g", {"epsilon": 4.0}), ("yoshida_g", {"epsilon": -0.5}),
    ("yoshida_h", {"epsilon": 5.0}), ("yoshida_h", {"epsilon": -0.9}),
])
def test_builtin_closures_agree_on_the_circle(name, params):
    # the float and the array code of each builtin agree within 2 ulps on
    # every component, over the whole circle (isosceles past its poles)
    scalar, array = compile_node(parse(BUILTINS[name].source), params, UNBOUNDED)
    grid = np.linspace(0.0, 2.0 * math.pi, 1000, endpoint=False)
    rows = np.array([scalar(float(t)) for t in grid]).T
    for got, want in zip(array(grid), rows):
        assert _ulps(got, want).max() <= 2.0


# ops of each builtin's float body inside its try, assignments and domain checks
BODY_OPS = {"isosceles": 53, "yoshida_g": 15, "yoshida_h": 15}


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_builtin_bodies_stay_lean(name):
    # the op count of each float body is pinned, and none has an integer
    # power written with **, a product with a literal 0.0, or the same
    # product or sum twice with its operands swapped
    source = _reading_source(parse(BUILTINS[name].source), BUILTINS[name].domain.periodic,
                             COMPONENTS)
    scalar = source[source.index("def scalar(t):"):source.index("def array(t):")]
    body = scalar[scalar.index("try:\n") + 5:scalar.index("except (")]
    lines = [line.strip() for line in body.splitlines() if line.strip()]
    assert len(lines) == BODY_OPS[name]
    assert not re.search(r"\*\* \(?-?\d+\.0\)?(?![\d.e])", body)
    assert not re.search(r"(^|[^\w.])0\.0 \*|\* \(?-?0\.0\)?(?![\d.e])", body)
    pairs = [tuple(m.groups()) for m in (re.fullmatch(r"v\d+ = (\S+) ([*+]) (\S+)", line)
                                        for line in lines) if m]
    assert len({(op, frozenset((a, b))) for a, op, b in pairs}) == len(pairs)


def test_array_domain_error_any_entry():
    _, array = evaluators("sqrt(theta)")
    with pytest.raises(DomainError):
        array(np.array([1.0, 2.0, -3.0]))


# ----------------------------------------------------------------- purity
def test_deterministic_bits():
    text = "exp(sin(theta)^3 / 2.5)"
    assert jet(text, 1.234567) == jet(text, 1.234567)
    assert evaluators(text)[0](1.234567) == jet(text, 1.234567)
