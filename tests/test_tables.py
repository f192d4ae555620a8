"""The parameter-free table of V's array code, and the scope in which the
potentials of a sweep share it."""
import sys

import numpy as np
import pytest

from mcgehee import critical, expr
from mcgehee.certify import sweep_threshold
from mcgehee.errors import DomainError
from mcgehee.expr import parse, shared_tables
from mcgehee.potentials import BUILTINS, Domain, PotentialSpec, compile_potential

certify = sys.modules["mcgehee.certify"]   # the package exports the function

# (source, two bindings, domain or None for the circle)
CORPUS = [
    ("a*cos(theta) + b*sin(2*theta)", ({"a": 1.3, "b": -0.7}, {"a": -0.2, "b": 0.45}), None),
    ("cos(theta)^p", ({"p": 3.0}, {"p": 4.0}), None),
    ("cos(theta)^p", ({"p": 2.5}, {"p": 0.5}), (-1.5, 1.5)),
    ("cos(k*theta)", ({"k": 3.0}, {"k": 2.5}), None),
    ("1/(sin(theta) - c)", ({"c": 1.5}, {"c": -2.0}), None),
    ("sqrt(a + cos(theta))", ({"a": 0.5}, {"a": 3.0}), (-2.0, 2.0)),
]
BUILTIN_BINDINGS = {"isosceles": ({"alpha": 2.0}, {"alpha": 13.75}),
                    "yoshida_g": ({"epsilon": 4.0}, {"epsilon": -0.125}),
                    "yoshida_h": ({"epsilon": 0.5}, {"epsilon": 3.0})}


def _specs(case):
    if isinstance(case, str):
        return [PotentialSpec(BUILTINS[case].beta, builtin=case, params=p)
                for p in BUILTIN_BINDINGS[case]]
    source, bindings, domain = case
    return [PotentialSpec(-1.0, expr=source, params=p, domain=domain) for p in bindings]


def _grids(pot):
    """The scan grid, and a grid of two arcs as ``certify._arcs`` lays them out."""
    scan = pot.domain.sample_grid(critical._SCAN_GRID, critical._GUARD)
    arcs = np.stack([np.linspace(a, b, certify._ARC_GRID) for a, b in
                     ((scan[10], scan[900]), (scan[900], scan[3000]))])
    return {"scan": scan, "arcs": arcs}


def _bits(jet):
    return [np.asarray(x).view(np.uint64) for x in jet]


@pytest.fixture
def table_calls(monkeypatch):
    """The size of the angles of every call of a ``table`` compiled while
    the test runs."""
    calls, shared = [], expr._shared

    def counting(table):
        def counted(t):
            calls.append(t.size)
            return table(t)
        return shared(counted)

    monkeypatch.setattr(expr, "_shared", counting)
    expr._compiled.cache_clear()
    yield calls
    expr._compiled.cache_clear()


@pytest.mark.parametrize("case", [*BUILTINS, *CORPUS],
                         ids=lambda c: c if isinstance(c, str) else f"{c[0]} on {c[2]}")
def test_a_jet_in_the_scope_equals_a_standalone_jet_bit_for_bit(case, table_calls):
    first, repeat = (compile_potential(s) for s in _specs(case))
    assert expr.free_parameters(first.node)
    for name, grid in _grids(first).items():
        alone = [_bits(pot.V(grid)) for pot in (first, repeat)]
        calls = len(table_calls)
        with shared_tables():
            shared = [_bits(pot.V(grid)) for pot in (first, repeat, first)]
        assert len(table_calls) == calls + 1, name   # the repeat calls read the table
        for got, want in zip(shared, alone + alone[:1]):
            for g, w in zip(got, want):
                assert np.array_equal(g, w), name


def test_a_sweep_evaluates_the_scan_grids_table_once(table_calls):
    spec = PotentialSpec(4.0, builtin="yoshida_g", params={"epsilon": 0.0})
    result = sweep_threshold(spec, "epsilon", 1.1, 10.0, grid_m=20)
    assert len(result.thresholds) == 1
    assert table_calls.count(critical._SCAN_GRID) == 1


def test_an_isosceles_sweep_keeps_its_scan_grid_past_newton_and_the_arcs(table_calls):
    spec = PotentialSpec(-1.0, builtin="isosceles", params={"alpha": 1.0})
    sweep_threshold(spec, "alpha", 1.0, 20.0, grid_m=6, thresh_tol=1e-3)
    assert table_calls.count(critical._SCAN_GRID) == 1
    # Newton evaluates V on floats: every array that reaches a table is the
    # scan grid or an arc grid
    assert table_calls and min(table_calls) >= certify._ARC_GRID


def test_a_hit_moves_to_the_back_of_the_lru():
    calls = []

    def table(t):
        calls.append(t[0])
        return (t + 1.0,)

    tables = expr._shared(table)
    n = 1024
    kept = np.zeros(n)
    with shared_tables():
        for i in range(1, 2 * expr._SHARED_TABLES):
            tables(kept)
            tables(np.full(n, float(i)))
    assert calls.count(0.0) == 1


def test_grids_that_differ_in_the_sign_of_a_zero_do_not_share_a_table():
    calls = []

    def table(t):
        calls.append(t.copy())
        return (t + 1.0,)

    tables = expr._shared(table)
    plus = np.zeros(1024)
    minus = plus.copy()
    minus[7] = -0.0
    with shared_tables():
        tables(plus)
        tables(minus)
        tables(plus)
    assert len(calls) == 2
    assert np.signbit(calls[1][7]) and not np.signbit(calls[0]).any()


def test_a_copy_of_a_kept_grid_with_the_same_bits_shares_its_table(table_calls):
    pot = compile_potential(PotentialSpec(-1.0, expr="a + cos(theta)", params={"a": -2.0}))
    grid = pot.domain.sample_grid(critical._SCAN_GRID, critical._GUARD)
    written = grid.copy()
    with shared_tables():
        first = pot.V(written)
        written[0] = 1.0   # a write after the call does not change the kept key
        assert pot.V(grid).d1 is first.d1
        assert pot.V(grid.copy()).d1 is first.d1
        assert pot.V(written).d1 is not first.d1
    assert table_calls == [grid.size, grid.size]


def test_sample_grid_hands_out_one_read_only_array_per_domain():
    circle, interval = BUILTINS["yoshida_g"].domain, BUILTINS["isosceles"].domain
    grid = circle.sample_grid(critical._SCAN_GRID, critical._GUARD)
    assert grid is Domain.full_circle().sample_grid(critical._SCAN_GRID, critical._GUARD)
    assert not grid.flags.writeable and grid.flags.owndata
    with pytest.raises(ValueError):
        grid[0] = 1.0
    other = interval.sample_grid(critical._SCAN_GRID, critical._GUARD)
    assert other is not grid and other[0] == interval.lo + critical._GUARD
    assert interval.sample_grid(critical._SCAN_GRID, critical._GUARD) is other


def test_arrays_handed_out_by_the_scope_are_read_only():
    # V' and V'' of a + cos(theta) are the table's own arrays
    pot = compile_potential(PotentialSpec(-1.0, expr="a + cos(theta)", params={"a": -2.0}))
    grid = pot.domain.sample_grid(critical._SCAN_GRID, critical._GUARD)
    with shared_tables():
        jet = pot.V(grid)
        with pytest.raises(ValueError):
            jet.d1[0] = 0.0
        assert np.array_equal(pot.V(grid).d2, jet.d2)
    pot.V(grid).d1[0] = 0.0   # outside the scope nothing is shared


def test_nothing_is_kept_after_a_sweep_returns_or_raises(monkeypatch):
    spec = PotentialSpec(4.0, builtin="yoshida_h", params={"epsilon": 0.0})
    sweep_threshold(spec, "epsilon", -0.9, 0.9, grid_m=4, thresh_tol=1e-3)
    assert expr._SHARED.get() is None

    seen, real = [], certify._certify_at

    def failing(*args):
        seen.append(len(expr._SHARED.get()))
        if len(seen) == 3:
            raise RuntimeError("stop")
        return real(*args)

    monkeypatch.setattr(certify, "_certify_at", failing)
    with pytest.raises(RuntimeError):
        sweep_threshold(spec, "epsilon", -0.9, 0.9, grid_m=4)
    assert seen == [0, 1, 1]
    assert expr._SHARED.get() is None


def test_a_check_of_the_table_raises_before_one_of_the_parameter_part():
    # both rules fail on the grid: sqrt(cos - a) everywhere for a = 2, the
    # division where sin(theta) = 0; the float closure names the first in order
    pot = compile_potential(PotentialSpec(
        -1.0, expr="sqrt(cos(theta) - a) + 1/sin(theta)", params={"a": 2.0}))
    with pytest.raises(DomainError, match="jet division by zero"):
        pot.V(np.linspace(0.0, 1.0, 5))
    with pytest.raises(DomainError, match="sqrt requires a positive argument"):
        pot.V(0.0)


# today's text of a source without parameters: no table
ONE_OVER_SIN = """def bind(p, lo, hi):
    def scalar(t):
        t = t % TWO_PI
        try:
            v0 = math.sin(t)
            v1 = math.cos(t)
            v2 = -v0
            if v0 == 0.0: raise ZeroDivisionError(f'jet division by zero')
            v4 = 1.0 / v0
            v5 = v1 * v4
            v6 = -v5
            v7 = v6 / v0
            v8 = 2.0 * v7
            v9 = v1 * v8
            v10 = -v9
            v11 = v2 * v4
            v12 = v10 - v11
            v13 = v12 / v0
        except (ZeroDivisionError, OverflowError) as err:
            raise DomainError(f'potential singular: {err}') from err
        if (v4 - v4) + (v7 - v7) + (v13 - v13) != 0.0:
            raise DomainError('potential evaluation produced a non-finite value')
        return v4, v7, v13
    def array(t):
        t = t % TWO_PI
        try:
            v0 = np.sin(t)
            v1 = np.cos(t)
            v2 = -v0
            if (v0 == 0.0).any(): raise ZeroDivisionError(f'jet division by zero')
            v4 = 1.0 / v0
            v5 = v1 * v4
            v6 = -v5
            del v5
            v7 = v6 / v0
            del v6
            v8 = 2.0 * v7
            v9 = v1 * v8
            del v1, v8
            v10 = -v9
            del v9
            v11 = v2 * v4
            del v2
            v12 = v10 - v11
            del v10, v11
            v13 = v12 / v0
            del v0, v12
        except (ZeroDivisionError, OverflowError) as err:
            raise DomainError(f'potential singular: {err}') from err
        if not (np.isfinite(v4).all() and np.isfinite(v7).all() and np.isfinite(v13).all()):
            raise DomainError('potential evaluation produced a non-finite value')
        return v4, v7, v13
    return scalar, array
"""


def test_a_source_without_parameters_emits_no_table():
    assert expr._source(parse("1/sin(theta)"), True) == ONE_OVER_SIN


def test_the_table_reads_no_parameter_and_deletes_its_temporaries():
    source = expr._source(parse(BUILTINS["yoshida_g"].source), True)
    table, rest = source.split("tables = _shared(table)\n")
    lines = table.splitlines()
    assert lines[:2] == ["def table(t):", "    t = t % TWO_PI"]
    assert lines[-1] == "    return v1, v5, v7,"
    assert not any(" k" in line for line in lines)
    assigned = {line.split(" = ")[0].strip() for line in lines if " = " in line} - {"t"}
    deleted = {n for line in lines if "del " in line for n in line.split("del ")[1].split(", ")}
    assert assigned - deleted == {"v1", "v5", "v7"}
    array = rest.split("    def array(t):\n")[1]
    assert array.splitlines()[:2] == ["        try:", "            v1, v5, v7, = tables(t)"]
    assert "TWO_PI" not in array
