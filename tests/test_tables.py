"""The parameter-free table of V's array code, the scope in which the
potentials of a sweep share it, and the waves every potential shares on a
kept grid."""
import json
import sys
import threading

import numpy as np
import pytest

from mcgehee import critical, expr, potentials, validate
from mcgehee.certify import sweep_threshold
from mcgehee.errors import DomainError
from mcgehee.expr import COMPONENTS, TWO_PI, parse, shared_tables
from mcgehee.potentials import BUILTINS, Domain, PotentialSpec, compile_potential

certify = sys.modules["mcgehee.certify"]   # the package exports the function

# (source, two bindings, domain or None for the circle)
CORPUS = [
    ("a*cos(theta) + b*sin(2*theta)", ({"a": 1.3, "b": -0.7}, {"a": -0.2, "b": 0.45}), None),
    ("cos(theta)^p", ({"p": 3.0}, {"p": 4.0}), None),
    ("cos(theta)^p", ({"p": 2.5}, {"p": 0.5}), (-1.5, 1.5)),
    ("cos(k*theta)", ({"k": 3.0}, {"k": 5.0}), None),
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
    # from the second certify on, the scope holds the tables of the first:
    # one for the scan grid's reading of V' and one for the arcs' of V, V'
    assert seen == [0, 2, 2]
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


# today's text of a source without parameters: no table, and the angles and
# the waves of theta read through ``_waves``
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
        t, w = _waves(t, True)
        try:
            v0 = np.sin(t) if w is None else w.wave(np.sin, 1.0, t)
            v1 = np.cos(t) if w is None else w.wave(np.cos, 1.0, t)
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
    assert expr._reading_source(parse("1/sin(theta)"), True, COMPONENTS) == ONE_OVER_SIN


def test_the_table_reads_no_parameter_and_deletes_its_temporaries():
    source = expr._reading_source(parse(BUILTINS["yoshida_g"].source), True, COMPONENTS)
    table, rest = source.split("tables = _shared(table)\n")
    lines = table.splitlines()
    assert lines[:2] == ["def table(t):", "    t, w = _waves(t, True)"]
    assert lines[-1] == "    return v1, v5, v7,"
    assert not any(" k" in line for line in lines)
    assigned = {line.split(" = ")[0].strip() for line in lines if " = " in line} - {"t, w"}
    deleted = {n for line in lines if "del " in line for n in line.split("del ")[1].split(", ")}
    assert assigned - deleted == {"v1", "v5", "v7"}
    array = rest.split("    def array(t):\n")[1]
    assert array.splitlines()[:2] == ["        try:", "            v1, v5, v7, = tables(t)"]
    assert "TWO_PI" not in array


# sources whose sin and cos of k*theta a kept grid serves: literal multiples
# in either order, a fraction (on an interval: on the circle it is not
# periodic), a negative k, tan's pole test (on the circle it raises at pi/4
# on both kept grids), harmonic ladders, whose derived rungs the grid keeps
# too (a full one, a cos-only one with a gap below k = 5 and one whose tan
# reads a derived rung), a certify_expr draw, and two builtins, one on its
# interval
EXPR_DRAW = ("-1.818019 - 1.181074*cos(theta) + 0.387934*sin(theta) + 0.009423*cos(2*theta)"
             " + 0.017946*sin(2*theta) - 0.01122*cos(3*theta) - 0.01303*sin(3*theta)"
             " + 0.005218*cos(4*theta) - 0.001045*sin(4*theta)")
WAVE_CORPUS = [
    PotentialSpec(-1.0, expr="cos(theta)"),
    PotentialSpec(-1.0, expr="sin(2*theta)"),
    PotentialSpec(-1.0, expr="-2 + sin(theta*4)"),
    PotentialSpec(-1.0, expr="cos(0.5*theta)", domain=(-3.0, 3.0)),
    PotentialSpec(-1.0, expr="cos(-3*theta)"),
    PotentialSpec(-1.0, expr="tan(2*theta)"),
    PotentialSpec(-1.0, expr="tan(2*theta)", domain=(0.1, 0.7)),
    PotentialSpec(-1.0, expr="-2 + cos(theta) + sin(theta) + sin(2*theta) + cos(3*theta)"),
    PotentialSpec(-1.0, expr="-3 + cos(theta) + cos(2*theta) + cos(3*theta) + cos(5*theta)"),
    PotentialSpec(-1.0, expr="cos(theta) + sin(2*theta) + tan(2*theta)", domain=(0.1, 0.7)),
    PotentialSpec(-2.304055, expr=EXPR_DRAW),
    PotentialSpec(-1.0, builtin="isosceles", params={"alpha": 2.0}),
    PotentialSpec(4.0, builtin="yoshida_g", params={"epsilon": 4.0}),
]


def _kept_grids(pot):
    """The grids of the scan and of ``validate.jet_fd_error``."""
    return [pot.domain.sample_grid(critical._SCAN_GRID, critical._GUARD),
            pot.domain.sample_grid(validate._FD_N, validate._FD_PAD)]


def _outcome(pot, grid):
    """The bits of V, V', V'' on ``grid``, or the message V raises."""
    try:
        return [b.tolist() for b in _bits(pot.V(grid))]
    except DomainError as err:
        return str(err)


@pytest.mark.parametrize("spec", WAVE_CORPUS, ids=lambda s: f"{s.builtin or s.expr} on {s.domain}")
def test_v_on_a_kept_grid_equals_v_on_a_copy_bit_for_bit(spec):
    pot = compile_potential(spec)
    for grid in _kept_grids(pot):
        want = _outcome(pot, grid.copy())   # a writeable copy misses the store
        expr._KEPT[id(grid)].waves.clear()
        cold = _outcome(pot, grid)
        assert expr._KEPT[id(grid)].waves or isinstance(cold, str)
        assert cold == want and _outcome(pot, grid) == want


@pytest.mark.parametrize("spec", WAVE_CORPUS[-3:], ids=lambda s: s.builtin or "expr draw")
def test_certify_gives_one_certificate_cold_and_warm(spec):
    grid = compile_potential(spec).domain.sample_grid(critical._SCAN_GRID, critical._GUARD)
    expr._KEPT[id(grid)].waves.clear()
    cold, warm = (json.dumps(certify.certify(compile_potential(spec)).to_dict(), sort_keys=True)
                  for _ in range(2))
    assert cold == warm


def test_two_sources_that_read_one_wave_share_its_array():
    grid = Domain.full_circle().sample_grid(critical._SCAN_GRID, critical._GUARD)
    kept = expr._KEPT[id(grid)]
    kept.waves.clear()
    compile_potential(PotentialSpec(-1.0, expr="-3 + 0.5*cos(2*theta)")).V(grid)
    wave = kept.waves[(np.cos, 2.0)]
    # with V = cos(k*theta), V itself is the wave
    for source in ("cos(2*theta)", "cos(theta*2)"):
        assert compile_potential(PotentialSpec(-1.0, expr=source)).V(grid).val is wave


def test_every_array_the_store_hands_out_is_read_only():
    for spec in WAVE_CORPUS:
        pot = compile_potential(spec)
        for grid in _kept_grids(pot):
            _outcome(pot, grid)
    jet = compile_potential(PotentialSpec(-1.0, expr="cos(theta)")).V(_kept_grids(pot)[0])
    with pytest.raises(ValueError):
        jet.val[0] = 0.0
    stores = list(expr._KEPT.values())
    arrays = [a for k in stores for a in (k.grid, k.reduced().grid, *k.waves.values())]
    assert sum(len(k.waves) for k in stores) >= 8
    assert not any(a.flags.writeable for a in arrays)


def test_a_grid_keeps_at_most_its_constant_of_waves():
    grid = Domain.full_circle().sample_grid(critical._SCAN_GRID, critical._GUARD)
    kept = expr._KEPT[id(grid)]
    for j in range(expr._KEPT_WAVES):   # two waves each: sin for V'
        compile_potential(PotentialSpec(-1.0, expr=f"cos({j + 2}*theta)")).V(grid)
        assert len(kept.waves) <= expr._KEPT_WAVES
    # the least recently used went first
    assert len(kept.waves) == expr._KEPT_WAVES
    assert (np.cos, expr._KEPT_WAVES + 1.0) in kept.waves and (np.cos, 2.0) not in kept.waves


def test_the_store_keeps_the_grids_sample_grid_keeps():
    try:
        grids = [Domain(0.0, 1.0 + j).sample_grid(64, 1e-6) for j in range(expr._KEPT_GRIDS + 4)]
        assert len(expr._KEPT) == expr._KEPT_GRIDS
        assert all(expr._KEPT[id(g)].grid is g for g in grids[-expr._KEPT_GRIDS:])
    finally:
        potentials._sample_grid.cache_clear()
        expr._KEPT.clear()


def test_the_circles_kept_grids_are_their_own_reduction():
    circle = Domain.full_circle()
    for grid in (circle.sample_grid(critical._SCAN_GRID, critical._GUARD),
                 circle.sample_grid(validate._FD_N, validate._FD_PAD)):
        assert np.array_equal((grid % TWO_PI).view(np.uint64), grid.view(np.uint64))
        assert not np.signbit(grid).any()
        assert expr._KEPT[id(grid)].reduced() is expr._KEPT[id(grid)]


def test_a_kept_grid_that_is_not_its_own_reduction_keeps_the_reduction_once():
    grid = Domain(-1.0, 1.0).sample_grid(64, 1e-6)   # on the circle, its negative half moves
    kept = expr._KEPT[id(grid)]
    pot = compile_potential(PotentialSpec(-1.0, expr="cos(theta)"))
    want = _outcome(pot, grid.copy())
    assert _outcome(pot, grid) == want and _outcome(pot, grid) == want
    reduced = kept.reduced()
    assert reduced is not kept and kept.reduced() is reduced
    assert not reduced.grid.flags.writeable and not kept.waves
    assert set(reduced.waves) == {(np.sin, 1.0), (np.cos, 1.0)}
    # V = cos(theta) is the wave of the reduced angles
    assert pot.V(grid).val is reduced.waves[(np.cos, 1.0)]


def test_threads_that_share_a_kept_grid_read_the_bits_of_one_thread():
    grid = Domain.full_circle().sample_grid(critical._SCAN_GRID, critical._GUARD)
    # more waves than a grid keeps, so threads evict each other's
    pots = [compile_potential(PotentialSpec(-1.0, expr=f"sin({j + 2}*theta)"))
            for j in range(expr._KEPT_WAVES)]
    want = [_outcome(p, grid.copy()) for p in pots]
    wrong = []

    def work(shift):
        for n in range(2 * len(pots)):
            i = (n + shift) % len(pots)
            try:
                if _outcome(pots[i], grid) != want[i]:
                    wrong.append(i)
            except Exception as err:   # a lost update raises in the thread
                wrong.append(repr(err))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(7 * s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not wrong
    assert len(expr._KEPT[id(grid)].waves) <= expr._KEPT_WAVES
