"""Readings of V: inside ``potentials.reading``, ``Potential.V`` evaluates
only the components a caller reads.  Each reading returns the bits of the
full jet, keeps every domain check of it, and tests only what it returns for
a non-finite value.  The scan's grid call reads V', its Newton steps V' and
V'', the arcs V and V', the z column and ``validate``'s shifted grids V."""
import math
import random

import numpy as np
import pytest

from conftest import load_workloads
from mcgehee import critical, expr, flow, validate
from mcgehee.certify import _ARC_GRID, certify, sweep_threshold
from mcgehee.errors import DomainError
from mcgehee.expr import TWO_PI, shared_tables
from mcgehee.potentials import (
    BUILTINS,
    Jet2,
    Potential,
    PotentialSpec,
    compile_potential,
    reading,
)

workloads = load_workloads()

# the readings the program makes
READINGS = [("d1",), ("d1", "d2"), ("val", "d1"), ("val",)]

BUILTIN_PARAMS = {"isosceles": ("alpha", (1.0, 5.0, 13.75)),
                  "yoshida_g": ("epsilon", (-0.5, 0.0, 4.0)),
                  "yoshida_h": ("epsilon", (-0.9, 1.0, 5.0))}
# sources with tan, log, abs, sqrt, ^ and parameters, on the circle and on
# an interval; a parameter exponent at 0, 1, a fraction and a negative
# integer; harmonic ladders, whose V-only reading computes the sin rungs a
# cos-only ladder derives from
SOURCES = [
    ("a*tan(0.2*theta) + log(b + cos(theta)) - 3", {"a": 0.5, "b": 2.0}, (-2.0, 6.0)),
    ("abs(sin(theta) - c) - sqrt(2 + cos(theta))", {"c": 2.0}, None),
    ("(2 + cos(theta))^p + q^1.5*sin(3*theta) - 9", {"p": 2.5, "q": 3.0}, None),
    ("cos(theta)^p + 2*sin(theta)", {"p": 0.0}, None),
    ("cos(theta)^p + 2*sin(theta)", {"p": 1.0}, None),
    ("cos(theta)^p/sin(theta) - exp(k*theta)", {"p": -3.0, "k": 0.3}, (0.2, 1.4)),
    ("log(theta)*sqrt(theta)^3 + abs(theta - 2)^1.5", {}, (0.1, 1.9)),
    ("a*theta^2 - tan(theta) - 1/cos(theta)", {"a": 1.0}, (-1.2, 1.2)),
    ("a*cos(theta) + cos(2*theta) + b*cos(3*theta) - 4", {"a": 0.7, "b": -0.3}, None),
    ("sin(theta) + cos(2*theta)^2 + cos(5*theta) + sin(3*theta)*sin(2*theta + 1) - 5", {}, None),
    ("cos(theta) - sin(2*theta) + a*cos(3*theta)", {"a": 0.4}, (0.2, 2.9)),
]
CORPUS = [
    *(PotentialSpec(BUILTINS[name].beta, builtin=name, params={p: v})
      for name, (p, values) in BUILTIN_PARAMS.items() for v in values),
    *(PotentialSpec(float(op.argv[4]), expr=op.argv[2]) for op in workloads.certify_expr_ops(1)),
    *(PotentialSpec(-1.0, expr=s, params=p, domain=d) for s, p, d in SOURCES),
]


def _id(spec):
    if spec.builtin:
        return f"{spec.builtin}{dict(spec.params)}"
    return f"{spec.expr[:28]}{dict(spec.params)}{spec.domain or ''}"


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def grids(pot):
    """The kept scan grid, an 8 x 1029 grid shaped as ``certify._arcs``
    lays its arcs out (on the circle its last row wraps past 2 pi), and a
    plain writeable array."""
    scan = pot.domain.sample_grid(critical._SCAN_GRID, critical._GUARD)
    ends = [scan[i] for i in range(0, 4096, 512)]
    ends.append(ends[0] + TWO_PI if pot.domain.periodic else scan[-1])
    arcs = np.stack([np.linspace(a, b, _ARC_GRID) for a, b in zip(ends, ends[1:])])
    assert arcs.shape == (8, _ARC_GRID)
    return {"scan": scan, "arcs": arcs, "plain": np.linspace(scan[3], scan[-5], 333)}


def assert_reads_the_full_jet(jet, full, reads):
    for name in Jet2._fields:
        got = getattr(jet, name)
        if name in reads:
            assert np.array_equal(bits(got), bits(getattr(full, name))), name
        else:
            assert got is None, name


@pytest.mark.parametrize("spec", CORPUS, ids=map(_id, CORPUS))
def test_each_reading_has_the_bits_of_the_full_jet(spec):
    pot = compile_potential(spec)
    for name, grid in grids(pot).items():
        full = pot.V(grid)
        for reads in READINGS:
            with reading(*reads):
                assert_reads_the_full_jet(pot.V(grid), full, reads)
        # the potentials of a sweep share each reading's table
        with shared_tables():
            for reads in READINGS:
                for _ in range(2):
                    with reading(*reads):
                        assert_reads_the_full_jet(pot.V(grid), full, reads)
    rng = random.Random(3)
    lo, hi = (-TWO_PI, 2 * TWO_PI) if pot.domain.periodic else (pot.domain.lo, pot.domain.hi)
    for theta in [rng.uniform(lo, hi) for _ in range(40)] + ([0.0, -0.0, TWO_PI, 2 * TWO_PI]
                                                            if pot.domain.periodic else []):
        full = pot.V(theta)
        for reads in READINGS:
            with reading(*reads):
                jet = pot.V(theta)
            assert all(isinstance(getattr(jet, n), float) for n in reads)
            assert_reads_the_full_jet(jet, full, reads)


def test_the_masked_reduction_is_the_remainder_bit_for_bit():
    wrap_row = np.linspace(5.9, 0.4 + TWO_PI, _ARC_GRID)
    special = np.array([-0.0, 0.0, TWO_PI, 2 * TWO_PI, np.nextafter(TWO_PI, 0.0), -1.0, -TWO_PI,
                        -7.5, -5e-324, 5e-324, 1e300, -1e300, np.nan, -np.nan, np.inf, -np.inf])
    arcs = np.stack([np.linspace(0.1 * i, 0.1 * i + 0.7, _ARC_GRID) for i in range(7)] + [wrap_row])
    with np.errstate(invalid="ignore"):
        for t in (special, wrap_row, arcs, -special, np.linspace(0.0, TWO_PI, 50)):
            assert np.array_equal(bits(expr._reduce(t)), bits(t % TWO_PI))
    inside = np.linspace(0.0, 6.0, 40)
    assert expr._reduce(inside) is inside   # nothing to reduce, nothing copied
    before = special.copy()
    with np.errstate(invalid="ignore"):
        expr._reduce(special)
    assert np.array_equal(bits(special), bits(before))


# (spec, angle, message, an angle where V is fine): every domain guard of V
GUARDS = [
    (PotentialSpec(-1.0, builtin="isosceles", params={"alpha": 1.0}), 2.0,
     "theta outside the potential domain", 0.5),
    (PotentialSpec(-1.0, expr="sqrt(cos(theta)) - 3"), math.pi,
     "sqrt requires a positive argument", 0.5),
    (PotentialSpec(-1.0, expr="log(cos(theta)) - 3"), math.pi,
     "log requires a positive argument", 0.5),
    (PotentialSpec(-1.0, expr="tan(theta) - 3"), math.pi / 2, "tan evaluated at a pole", 0.5),
    (PotentialSpec(-1.0, expr="abs(sin(theta)) - 3"), 0.0, "|x| is not differentiable at 0", 0.5),
    (PotentialSpec(-1.0, expr="cos(theta)^1.5 - 3"), math.pi, "x^1.5 requires x > 0", 0.5),
    (PotentialSpec(-1.0, expr="cos(theta)^p - 3", params={"p": 2.5}), math.pi,
     "x^2.5 requires x > 0", 0.5),
    (PotentialSpec(-1.0, expr="sin(theta)^(-2) - 3"), 0.0,
     "potential singular: 0 raised to a negative power", 0.5),
    (PotentialSpec(-1.0, expr="sin(theta)^p - 3", params={"p": -1.0}), 0.0,
     "potential singular: 0 raised to a negative power", 0.5),
    (PotentialSpec(-1.0, expr="1/sin(theta) - 3"), 0.0,
     "potential singular: jet division by zero", 0.5),
]
CHARTS = {
    "manifold": lambda charts, th: charts.manifold(0.0, (th, 0.1, 0.2)),
    "full": lambda charts, th: charts.full(0.0, (0.0, th, 0.1, 0.2, 0.0, 0.0)),
    "project": lambda charts, th: charts.project(0.0, (th, 0.1, 0.2)),
}


@pytest.mark.parametrize("spec, theta, message, fine", GUARDS,
                         ids=["interval", "sqrt", "log", "tan", "abs", "pow", "pow-param",
                              "zero-pow", "zero-pow-param", "division"])
def test_every_guard_raises_from_every_reading_and_chart(spec, theta, message, fine):
    pot = compile_potential(spec)
    near = np.array([fine, theta])
    for reads in [*READINGS, Jet2._fields]:
        with reading(*reads):
            for arg in (theta, near):
                with pytest.raises(DomainError) as info:
                    pot.V(arg)
                assert str(info.value) == message, (reads, arg)
            pot.V(fine)   # each guard fails where it should, and only there
    charts = flow._charts(pot)
    for name, call in CHARTS.items():
        with pytest.raises(DomainError) as info:
            call(charts, theta)
        assert str(info.value) == message, name
        call(charts, fine)


# V = -2, V' = 1e-100 and V'' = inf at theta = 0: 1e200*1e200 overflows
OVERFLOW_D2 = PotentialSpec(-1.0, expr="-2 + 1e-300*exp(1e200*sin(theta))")


@pytest.mark.parametrize("reads", [("d1",), ("val", "d1")], ids=["scan", "arcs"])
def test_a_reading_that_returns_no_second_derivative_accepts_its_overflow(reads):
    pot = compile_potential(OVERFLOW_D2)
    for theta in (0.0, np.array([0.0, TWO_PI])):   # 2 pi reduces to 0
        with pytest.raises(DomainError, match="non-finite"):
            pot.V(theta)
        with reading(*reads):
            jet = pot.V(theta)
        assert np.all(jet.d1 == 1e-100)
        if "val" in reads:
            assert np.all(jet.val == -2.0)
        # the scan's Newton steps read V'' and reject the angle
        with reading("d1", "d2"), pytest.raises(DomainError, match="non-finite"):
            pot.V(theta)


def test_outside_a_reading_V_returns_the_full_jet():
    pot = compile_potential(PotentialSpec(4.0, builtin="yoshida_g", params={"epsilon": 4.0}))
    grid = np.linspace(0.0, 1.0, 7)
    with reading("d1"):
        with reading("val"):
            assert pot.V(0.3).d1 is None and pot.V(0.3).val is not None
        assert pot.V(0.3).val is None
    for jet in (pot.V(0.3), pot.V(grid)):
        assert all(x is not None for x in jet)
    with pytest.raises(RuntimeError):
        with reading("d1"):
            raise RuntimeError
    assert pot.V(0.3).val is not None   # the scope ends when it raises


def test_a_component_not_read_fails_at_once():
    pot = compile_potential(PotentialSpec(4.0, builtin="yoshida_g", params={"epsilon": 4.0}))
    with reading("d1"):
        jet, arrays = pot.V(0.3), pot.V(np.linspace(0.0, 1.0, 7))
    for x in (jet.val, jet.d2, arrays.val, arrays.d2):
        with pytest.raises(TypeError):
            float(x) + 1.0
        with pytest.raises(TypeError):
            np.abs(x) + 1.0
    for bad in ((), ("d3",), ("val", "V")):
        with pytest.raises(ValueError):
            with reading(*bad):
                pass


def test_each_caller_reads_what_it_needs(monkeypatch):
    raw_V, seen = Potential.V, []

    def recorded(self, theta):
        jet = raw_V(self, theta)
        kind = "array" if isinstance(theta, np.ndarray) else "float"
        seen.append((kind, tuple(n for n in Jet2._fields if getattr(jet, n) is not None)))
        return jet

    monkeypatch.setattr(Potential, "V", recorded)
    pot = compile_potential(PotentialSpec(4.0, builtin="yoshida_g", params={"epsilon": 4.0}))
    certify(pot)
    full = Jet2._fields
    # the scan's grid, its Newton steps, the roots' full jets, the angles one
    # revolution on, and the arcs
    assert seen[0] == ("array", ("d1",))
    assert {s for s in seen[1:] if s[1] != full} == {("float", ("d1", "d2")),
                                                      ("array", ("val", "d1"))}
    assert seen[-1] == ("array", ("val", "d1"))
    assert seen.count(("float", full)) == 8 + 2
    seen.clear()
    flow.integrate_manifold(flow.ManifoldState(0.3, 0.2, math.sqrt(-2 * pot.V_float(0.3)[0]
                                                                   - 0.04)), pot, (0.0, 1.0))
    assert seen[-1] == ("array", ("val",))
    seen.clear()
    validate.jet_fd_error(pot)
    assert seen == [("array", full)] + [("array", ("val",))] * 4


def test_a_reading_is_compiled_once_and_bound_once_per_potential():
    spec = PotentialSpec(-1.0, expr="c*cos(theta) + sin(3*theta) - 2", params={"c": 0.5})
    pot = compile_potential(spec)
    expr._compiled(pot.node, True, ("val",))
    hits = expr._compiled.cache_info().hits
    with reading("val"):
        pot.V(0.1)
        pot.V(np.array([0.1, 0.2]))
        assert expr._compiled.cache_info().hits == hits + 1
        # another binding finds the full jet's code and the reading's
        compile_potential(spec.with_params(c=2.0)).V(0.1)
        assert expr._compiled.cache_info().hits == hits + 3
    assert list(pot._readings) == [("val",)]


def test_a_sweep_computes_each_readings_table_once_per_grid(monkeypatch):
    calls, shared = [], expr._shared

    def counting(table):
        def counted(t):
            calls.append(t.size)
            return table(t)
        return shared(counted)

    monkeypatch.setattr(expr, "_shared", counting)
    expr._compiled.cache_clear()
    try:
        spec = PotentialSpec(4.0, builtin="yoshida_g", params={"epsilon": 0.0})
        result = sweep_threshold(spec, "epsilon", 1.1, 10.0, grid_m=20)
    finally:
        expr._compiled.cache_clear()
    assert len(result.thresholds) == 1
    # the scan grid's V' once; the arcs of yoshida_g sit at k pi/4 whatever
    # epsilon, so their V and V' once
    assert calls == [critical._SCAN_GRID, 8 * _ARC_GRID]
