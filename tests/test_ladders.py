"""Harmonic ladders and the periodicity of a source.

Where sin or cos of k*theta appears for every k = 1..K, ``expr`` derives
rungs 2..K from rungs k - 1 and 1 by angle addition; every other wave is a
call of the C library.  A source on the circle is periodic by construction
when every theta sits inside sin, cos or tan of k*theta + c, k an integer;
any other source on the circle must have one jet at 0 and at 2 pi."""
import math
import re

import mpmath
import numpy as np
import pytest

from mcgehee import critical, expr, potentials
from mcgehee.certify import _ARC_GRID
from mcgehee.cli import run
from mcgehee.errors import DomainError
from mcgehee.expr import COMPONENTS, TWO_PI, _harmonics, _reading_source, compile_node, parse
from mcgehee.potentials import Domain, PotentialSpec, compile_potential

def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


# ------------------------------------------------------------------ marker
@pytest.mark.parametrize("source", ["cos(4*theta)", "exp(cos(theta))", "2", "a*tan(3*theta - b)",
                                    "sin(-theta + 1)^2", "cos(2*(theta + 1))"])
def test_a_source_of_integer_harmonics_is_marked_periodic(source):
    assert expr.periodic(parse(source))


@pytest.mark.parametrize("source", ["cos(theta/2)", "theta*cos(theta)", "cos(k*theta)",
                                    "cos(0.5*theta)", "sin(theta + sin(theta))", "theta"])
def test_any_other_source_is_not_marked(source):
    assert not expr.periodic(parse(source))


FOUND = "-2 + 0.3*cos(2*theta) + 0.05*theta"


@pytest.mark.parametrize("command", ["certify", "equilibria"])
def test_a_source_that_jumps_at_the_cut_is_refused_on_the_circle(command, capsys):
    assert run([command, "--expr", FOUND, "--beta", "-1"]) == 2
    assert "--domain" in capsys.readouterr().err
    # on an interval it is a potential like any other
    assert run([command, "--expr", FOUND, "--beta", "-1", "--domain", "0.5:6"]) in (0, 3)


@pytest.mark.parametrize("source, params", [
    ("sin(theta + sin(theta))", {}),                  # periodic, not marked
    ("cos(k*theta)", {"k": 3.0}),
    ("-1.5 + 0.3*cos(2*theta) - 0.02*exp(-((theta-0.8)/2e-4)^2)", {}),   # the bump
])
def test_an_unmarked_source_with_one_jet_at_the_cut_compiles(source, params):
    compile_potential(PotentialSpec(-1.0, expr=source, params=params))


@pytest.mark.parametrize("source, params", [
    ("cos(k*theta)", {"k": 2.5}),
    ("theta^2 - 3", {}),
    ("1/(theta - 2*pi) - 3", {}),   # no jet at 2 pi at all
])
def test_an_unmarked_source_without_one_jet_at_the_cut_is_refused(source, params):
    with pytest.raises(DomainError, match="not 2\\*pi-periodic.*--domain"):
        compile_potential(PotentialSpec(-1.0, expr=source, params=params))
    compile_potential(PotentialSpec(-1.0, expr=source, params=params, domain=(0.5, 6.0)))


def test_the_check_leaves_the_bumps_certificate_as_it_was(monkeypatch, capsys):
    argv = ["certify", "--expr", "-1.5 + 0.3*cos(2*theta) - 0.02*exp(-((theta-0.8)/2e-4)^2)",
            "--beta", "-1", "--allow-sign-flip"]
    checked = run(argv), capsys.readouterr()
    monkeypatch.setattr(potentials, "_check_cut", lambda *args: None)
    assert (run(argv), capsys.readouterr()) == checked and checked[0] == 0


# ------------------------------------------------------------------ the rule
def _rungs(source):
    """The rungs the full jet derives, the k of the waves it takes from the
    C library, and the source of ``bind`` (and of ``table``)."""
    text = _reading_source(parse(source), True, COMPONENTS)
    derived = {int(k) for k in re.findall(r"w\.rung\(np\.cos, (\d+)\)", text)}
    libm = {float(k) for k in re.findall(r"w\.wave\(np\.\w+, \(?([-\d.e]+)\)?, ", text)}
    return derived, libm, text


@pytest.mark.parametrize("source, top, derived, libm", [
    # a full ladder: cos and sin of every rung
    ("cos(theta) + sin(theta) + cos(2*theta) + sin(theta*3) + cos(4*theta)", 4, {2, 3, 4}, {1.0}),
    # a cos-only ladder computes the sin rungs it needs
    ("cos(theta) + cos(2*theta) + cos(3*theta)", 3, {2, 3}, {1.0}),
    # a gap: k = 5 above it is the C library's
    ("cos(theta) + cos(2*theta) + cos(3*theta) + cos(5*theta)", 3, {2, 3}, {1.0, 5.0}),
    # a fraction, a negative k and k*theta + c are not rungs
    ("cos(theta) + cos(2.5*theta) + cos(-2*theta) + cos(2*theta + 1)", 1, set(), {1.0, 2.5, -2.0}),
    # a parameter k is no literal; tan makes no rung, though its pole test
    # reads cos(2 theta)
    ("cos(theta) + cos(k*theta) + tan(2*theta)", 1, set(), {1.0, 2.0}),
    # no rung 1, no ladder: yoshida's lone cos(4 theta)
    ("(3 + cos(4*theta))/16", 0, set(), {4.0}),
])
def test_the_ladder_rule(source, top, derived, libm):
    assert _harmonics(parse(source))[1] == top
    got_derived, got_libm, text = _rungs(source)
    assert got_derived == derived and got_libm == libm
    for k in derived:   # a derived rung reads no k*theta, in either flavour
        assert f"{float(k)!r} * t\n" not in text


def test_tans_pole_test_reads_the_derived_wave():
    source = "cos(theta) + sin(2*theta) + tan(2*theta)"
    _, _, text = _rungs(source)
    for xp in ("math", "np"):
        size = re.search(rf"(v\d+) = {xp}\.fabs\((v\d+)\)", text).group(2)
        assert re.search(rf"{size} = v\d+ \* v\d+ - v\d+ \* v\d+( if w is None else "
                         r"w\.rung\(np\.cos, 2\))?\n", text)
    assert "np.tan(v" in text   # tan itself reads 2*theta
    scalar, array = compile_node(parse(source), {}, Domain.full_circle())
    for f in (scalar, lambda t: array(np.array([0.1, t]))):
        with pytest.raises(DomainError, match="pole"):
            f(math.pi / 4)


# ------------------------------------------------------------------ accuracy
K = 12
LADDER_12 = " + ".join(f"a{k}*cos({k}*theta) + b{k}*sin({k}*theta)" for k in range(1, K + 1))


def test_derived_rungs_match_mpmath_to_k_ulps_of_one():
    node = parse(LADDER_12)
    zero = {f"{c}{k}": 0.0 for c in "ab" for k in range(1, K + 1)}
    t = np.random.default_rng(11).uniform(-2 * TWO_PI, 4 * TWO_PI, 1500)
    t[:6] = [0.0, math.pi / 4, math.pi / 2, math.pi, -2 * TWO_PI, 4 * TWO_PI]
    domain = Domain(-2 * TWO_PI - 1.0, 4 * TWO_PI + 1.0)
    with mpmath.workprec(120):
        angles = [mpmath.mpf(float(x)) for x in t]
        for k in range(1, K + 1):
            for name, f in (("a", mpmath.cos), ("b", mpmath.sin)):
                # with one coefficient 1 and the rest 0, V is the rung itself
                scalar, array = compile_node(node, {**zero, f"{name}{k}": 1.0}, domain)
                got = array(t)[0]
                want = np.array([float(f(k * x)) for x in angles])
                assert np.abs(got - want).max() <= k * 2.0**-52, (name, k)
                assert np.array_equal(bits([scalar(float(x))[0] for x in t[:50]]), bits(got[:50]))


# ------------------------------------------------------------------ bits
LADDERS = [
    "-2 + 0.3*cos(theta) - 0.2*sin(theta) + 0.1*cos(2*theta) + 0.05*sin(3*theta)",
    "-3 + cos(theta) + cos(2*theta)^2 + cos(3*theta) + cos(5*theta)/7",
    "-3 + a*sin(theta) + sin(2*theta) + b*cos(3*theta)*sin(4*theta) + sqrt(2 + cos(4*theta))",
]


def _potential(source):
    params = {"a": 0.7, "b": -1.3}
    names = expr.free_parameters(parse(source))
    return compile_potential(PotentialSpec(-1.0, expr=source,
                                           params={p: params[p] for p in names}))


def _grids(domain):
    """The kept scan grid, an 8 x 1029 arc-shaped grid whose last row wraps
    past 2 pi, and a plain array."""
    scan = domain.sample_grid(critical._SCAN_GRID, critical._GUARD)
    ends = [*scan[::512], scan[0] + TWO_PI]
    arcs = np.stack([np.linspace(a, b, _ARC_GRID) for a, b in zip(ends, ends[1:])])
    return [scan, arcs, np.linspace(-7.0, 13.0, 777)]


@pytest.mark.parametrize("source", LADDERS)
def test_scalar_and_array_agree_bit_for_bit(source):
    pot = _potential(source)
    assert _harmonics(pot.node)[1] >= 2
    for grid in _grids(pot.domain):
        jet = pot.V(grid)
        points = grid.ravel()[::37]
        floats = np.array([pot.V_float(float(x)) for x in points]).T
        for got, want in zip(jet, floats):
            assert np.array_equal(bits(got.ravel()[::37]), bits(want))


def test_a_kept_grid_keeps_the_derived_rungs_under_keys_of_their_own():
    pot = _potential(LADDERS[0])   # rungs 1..3; V on the kept grid equals V on a
    grid = _grids(pot.domain)[0]   # copy in tests/test_tables.py (WAVE_CORPUS)
    kept = expr._KEPT[id(grid)]
    kept.waves.clear()
    pot.V(grid)
    assert set(kept.waves) == {(np.cos, 1.0), (np.sin, 1.0),
                               *((fn, k, "rung") for fn in (np.cos, np.sin) for k in (2, 3))}
