"""The flow's generated charts against the composition they replace: a
right-hand side over ``Potential.V_float`` plus the (v, w) equations, and the
Newton projection onto z = 0 followed by a fresh call of that right-hand side.
Stage derivatives, steps and projected states agree bit for bit; the charts
fail where ``V_float`` fails, with the same errors, except where only V'' is
not finite, which the charts neither compute nor test."""
import math
import random

import numpy as np
import pytest

from conftest import load_workloads
from mcgehee import cli, flow, rk
from mcgehee.errors import DomainError
from mcgehee.potentials import compile_potential, spec_from_dict

workloads = load_workloads()

SPECS = [
    {"builtin": "isosceles", "params": {"alpha": 1.0}},
    {"builtin": "isosceles", "params": {"alpha": 13.75}},
    {"builtin": "yoshida_g", "params": {"epsilon": 4.0}},
    {"builtin": "yoshida_h", "params": {"epsilon": 0.5}},
    {"expr": workloads.BUMP_EXPR, "beta": workloads.BUMP_BETA},
    *({"expr": op.argv[2], "beta": float(op.argv[4])}
      for op in workloads.certify_expr_ops(1) if not op.facts.get("bump")),
]


def potential(spec):
    return compile_potential(spec_from_dict(spec))


def reference(pot):
    """The right-hand sides and the projection as the flow composed them
    from ``V_float`` before its charts were generated."""
    b, V = pot.beta, pot.V_float

    def rates(v, w, val, d1):
        return -(b / 2.0) * v * v + w * w - b * val, -(b / 2.0 + 1.0) * v * w - d1

    def manifold(tau, y):
        th, v, w = y
        val, d1, _ = V(th)
        return (w, *rates(v, w, val, d1))

    def full(tau, y):
        rho, th, v, w, _, _ = y
        val, d1, _ = V(th)
        return (v, w, *rates(v, w, val, d1), math.exp((1.0 - b / 2.0) * rho), -b * v)

    def project(tau, y):
        th, v, w = y
        z = 0.5 * (v * v + w * w) + V(th)[0]
        if z != 0.0:
            if abs(v) >= abs(w):
                if abs(v) >= 1e-8:
                    y = th, v - z / v, w
            else:
                y = th, v, w - z / w
        return y, manifold(tau, y)

    return manifold, full, project


def bits(xs):
    return [x.hex() for x in xs]


def recorded(f):
    """f, and the list of the derivatives it returns."""
    out = []

    def g(t, y):
        k = f(t, y)
        out.append(bits(k))
        return k

    return g, out


def outcome(call):
    try:
        return call()
    except DomainError as err:
        return ("DomainError", str(err))
    except OverflowError as err:
        return ("OverflowError", str(err))


def random_state(rng, pot):
    lo, hi = (0.0, 2.0 * math.pi) if pot.domain.periodic else (pot.domain.lo, pot.domain.hi)
    # a quarter of the angles lie outside a periodic window
    shift = rng.choice((0.0, 0.0, 0.0, rng.choice((-1.0, 1.0)) * 2.0 * math.pi))
    return (rng.uniform(lo, hi) + shift, rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))


@pytest.mark.parametrize("spec", SPECS, ids=[s.get("builtin") or s["expr"][:24] for s in SPECS])
def test_charts_match_the_old_composition_bit_for_bit(spec):
    pot = potential(spec)
    charts = flow._charts(pot)
    manifold, full, project = reference(pot)
    rng = random.Random(1)
    for _ in range(40):
        th, v, w = random_state(rng, pot)
        rho = rng.uniform(-3.0, 3.0)
        h = rng.choice((1e-3, 0.05, 0.3))
        for new, old, y in ((charts.manifold, manifold, (th, v, w)),
                            (charts.full, full, (rho, th, v, w, 1.5, -0.25))):
            assert outcome(lambda: bits(new(0.0, y))) == outcome(lambda: bits(old(0.0, y)))
            step = rk._step(len(y))
            runs = []
            for f in (new, old):
                g, ks = recorded(f)
                result = outcome(lambda: step(g, 0.0, y, f(0.0, y), h, 1e-15, 1e-12))
                if isinstance(result, tuple) and isinstance(result[0], tuple):
                    y_new, k_new, err = result
                    result = bits(y_new), bits(k_new), err.hex()
                runs.append((result, ks))
            assert runs[0] == runs[1]
        got, want = outcome(lambda: project(0.0, (th, v, w))), outcome(
            lambda: charts.project(0.0, (th, v, w)))
        if isinstance(want[0], tuple):
            got, want = [bits(y) + bits(k) for y, k in (got, want)]
        assert got == want


def test_projected_states_lie_on_the_manifold_and_carry_their_derivative():
    pot = potential(SPECS[2])
    charts = flow._charts(pot)
    theta, v = 0.3, 0.2
    w = math.sqrt(-2.0 * pot.V_float(theta)[0] - v * v) * (1.0 + 1e-9)
    y, k = charts.project(0.0, (theta, v, w))
    assert y[0] == theta and y[1] == v and y[2] != w
    assert abs(0.5 * (y[1] ** 2 + y[2] ** 2) + pot.V_float(theta)[0]) < 1e-15
    assert k == charts.manifold(0.0, y)


def test_isosceles_charts_reject_angles_outside_the_interval():
    charts = flow._charts(potential(SPECS[0]))
    for theta in (math.pi / 2, -math.pi / 2, 2.0, -3.0):
        for chart, y in ((charts.manifold, (theta, 0.1, 0.2)), (charts.project, (theta, 0.1, 0.2)),
                         (charts.full, (0.0, theta, 0.1, 0.2, 0.0, 0.0))):
            with pytest.raises(DomainError, match="outside the potential domain"):
                chart(0.0, y)


def test_an_exact_zero_divisor_is_a_domain_error():
    pot = potential({"expr": "1/(theta - 1) - 3", "beta": -1.0, "domain": [-1.0, 4.0]})
    charts = flow._charts(pot)
    for chart, y in ((charts.manifold, (1.0, 0.1, 0.2)), (charts.project, (1.0, 0.1, 0.2)),
                     (charts.full, (0.0, 1.0, 0.1, 0.2, 0.0, 0.0))):
        with pytest.raises(DomainError, match="potential singular") as info:
            chart(0.0, y)
        assert isinstance(info.value.__cause__, ZeroDivisionError)
    assert len(charts.manifold(0.0, (0.5, 0.1, 0.2))) == 3


def test_an_overflowing_exp_in_the_full_chart_rejects_the_step(monkeypatch):
    # exp((1 - beta/2) log r) overflows once log r passes 709.78/1.5 = 473.2,
    # and rk.solve takes the OverflowError as a rejected step
    pot = potential(SPECS[0])
    charts = flow._charts(pot)
    with pytest.raises(OverflowError):
        charts.full(0.0, (480.0, 0.0, 4.0, 0.0, 0.0, 0.0))
    y0 = (400.0, 0.0, 4.0, 0.0, 0.0, 0.0)
    for f in (charts.full, reference(pot)[1]):
        # a step long enough to carry a stage past the bound
        with pytest.raises(OverflowError):
            rk._step(6)(f, 0.0, y0, f(0.0, y0), 30.0, 1e-12, 1e-10)
    # approached by small steps, the stage sums of t overflow first; the run
    # ends on the domain, as the old composition's did, bit for bit, from a
    # first step of 1e-3
    monkeypatch.setattr(rk, "_initial_step", lambda f, t0, y0, f0, t1, rtol, atol: 1e-3)
    y0 = (465.0, 0.0, 4.0, 0.0, 0.0, 0.0)
    sol = rk.solve(charts.full, 0.0, y0, 5.0)
    assert sol.reason == "left_domain" and sol.n_accepted > 0 and sol.n_rejected > 0
    old = rk.solve(reference(pot)[1], 0.0, y0, 5.0)
    assert sol.ys.tobytes() == old.ys.tobytes() and sol.fs.tobytes() == old.fs.tobytes()


def test_the_charts_accept_a_stage_whose_second_derivative_is_not_finite():
    # V = -2, V' = 1e-100 and V'' = inf at theta = 0, where the true V'' is
    # 1e100 but 1e200*1e200 overflows.  The flow reads only V and V', so the
    # charts return the finite field, while Potential.V's full jet still
    # rejects the angle
    pot = potential({"expr": "-2 + 1e-300*exp(1e200*sin(theta))", "beta": -1.0})
    charts = flow._charts(pot)
    with pytest.raises(DomainError, match="non-finite"):
        pot.V_float(0.0)
    rates = (0.1 * 0.1 / 2.0 + 0.2 * 0.2 - 2.0, -0.5 * 0.1 * 0.2 - 1e-100)
    assert charts.manifold(0.0, (0.0, 0.1, 0.2)) == (0.2, *rates)
    assert charts.full(0.0, (0.0, 0.0, 0.1, 0.2, 0.0, 0.0)) == (0.1, 0.2, *rates, 1.0, 0.1)
    y, k = charts.project(0.0, (0.0, 0.1, 0.2))
    assert all(map(math.isfinite, (*y, *k)))


# (spec, angle, message of the float evaluators, message of the array one).
# At pi, math.exp overflows with an error where numpy's exp returns inf; at
# 1.88 V is finite and V' overflows to inf in a product, in both flavours
BAD_INPUTS = [
    ({"builtin": "isosceles", "params": {"alpha": 1.0}}, 2.0,
     "theta outside the potential domain", "theta outside the potential domain"),
    ({"expr": "1/(theta - 1) - 3", "beta": -1.0, "domain": [-1.0, 4.0]}, 1.0,
     "potential singular: jet division by zero", "potential singular: jet division by zero"),
    ({"expr": "exp(exp(exp(theta)))", "beta": -1.0, "domain": [-1.0, 4.0]}, math.pi,
     "potential singular: math range error", "potential evaluation produced a non-finite value"),
    ({"expr": "exp(exp(exp(theta)))", "beta": -1.0, "domain": [-1.0, 4.0]}, 1.88,
     "potential evaluation produced a non-finite value",
     "potential evaluation produced a non-finite value"),
]
EVALUATORS = {
    "V_float": lambda pot, th: pot.V_float(th),
    "V_array": lambda pot, th: pot.V(np.array([0.5, th])),
    "manifold": lambda pot, th: flow._charts(pot).manifold(0.0, (th, 0.1, 0.2)),
    "full": lambda pot, th: flow._charts(pot).full(0.0, (0.0, th, 0.1, 0.2, 0.0, 0.0)),
    "project": lambda pot, th: flow._charts(pot).project(0.0, (th, 0.1, 0.2)),
}


@pytest.mark.parametrize("name", sorted(EVALUATORS))
@pytest.mark.parametrize("spec, theta, float_message, array_message", BAD_INPUTS,
                         ids=["outside", "pole", "exp-overflow", "d1-overflow"])
def test_every_evaluator_of_V_keeps_its_rules(spec, theta, float_message, array_message, name):
    # the scalar closure, the array closure and the three charts run one
    # emitted text of V's rules, so they fail alike
    pot = potential(spec)
    with pytest.raises(DomainError) as info:
        EVALUATORS[name](pot, theta)
    assert str(info.value) == (array_message if name == "V_array" else float_message)


def test_potentials_that_differ_in_parameters_share_one_compiled_chart():
    a = potential({"builtin": "yoshida_g", "params": {"epsilon": 4.0}})
    b = potential({"builtin": "yoshida_g", "params": {"epsilon": 0.5}})
    ca, cb = flow._charts(a), flow._charts(b)
    assert flow._charts(a) is ca and a._charts is ca
    for name in ("manifold", "full", "project"):
        assert getattr(ca, name).__code__ is getattr(cb, name).__code__
    assert ca.manifold(0.0, (0.3, 0.1, 0.2)) != cb.manifold(0.0, (0.3, 0.1, 0.2))
    assert cb.manifold(0.0, (0.3, 0.1, 0.2)) == reference(b)[0](0.0, (0.3, 0.1, 0.2))


def test_certify_and_sweep_never_emit_a_chart(capsys):
    before = flow._chart_bind.cache_info()
    source = "-3 + 0.5*cos(2*theta) + 0.125*sin(5*theta)"
    assert cli.run(["certify", "--expr", source, "--beta", "-1"]) in (0, 3)
    assert cli.run(["sweep", "--builtin", "isosceles", "--param", "alpha",
                    "--range=1:20", "--grid-m", "4"]) in (0, 3)
    capsys.readouterr()
    assert flow._chart_bind.cache_info() == before
