"""The Dormand-Prince solver on problems with closed-form solutions, and the
contract of its right-hand side: FSAL call counts, through a postprocess too,
domain walls, non-finite stages, the per-dimension step cache and the float
path of V."""
import math

import numpy as np
import pytest

from mcgehee import rk
from mcgehee.errors import DomainError, LeftDomainError
from mcgehee.potentials import compile_potential, spec_from_dict

TOLS = [(1e-6, 1e-9), (1e-10, 1e-12)]


def decay(t, y):
    return (-y[0],)


def oscillator(t, y):
    return (y[1], -y[0])


@pytest.mark.parametrize("rtol, atol", TOLS)
def test_exponential_decay_forward_and_backward(rtol, atol):
    for t0, y0, t1 in ((0.0, 1.0, 5.0), (5.0, math.exp(-5.0), 0.0)):
        sol = rk.solve(decay, t0, (y0,), t1, rtol=rtol, atol=atol)
        assert sol.reason == "span_end" and sol.ts[-1] == t1
        exact = np.exp(-sol.ts)
        assert np.all(np.abs(sol.ys[:, 0] - exact) <= atol + rtol * exact)
        assert np.allclose(sol.fs[:, 0], -sol.ys[:, 0], rtol=0.0, atol=0.0)


@pytest.mark.parametrize("rtol, atol", TOLS)
@pytest.mark.parametrize("t1", [10.0, -10.0])
def test_harmonic_oscillator_forward_and_backward(rtol, atol, t1):
    sol = rk.solve(oscillator, 0.0, (1.0, 0.0), t1, rtol=rtol, atol=atol)
    assert sol.reason == "span_end" and sol.ts[-1] == t1
    assert np.all(np.diff(sol.ts) * t1 > 0.0)
    exact = np.stack([np.cos(sol.ts), -np.sin(sol.ts)], axis=1)
    # unit amplitude: the requested tolerance is atol + rtol
    assert np.max(np.abs(sol.ys - exact)) <= atol + rtol
    # cubic Hermite dense output adds at most h^4 max|y''''| / 384 per step
    tq = np.linspace(0.0, t1, 37)
    hermite = np.max(np.abs(np.diff(sol.ts))) ** 4 / 384.0
    assert np.max(np.abs(sol.sample(tq)[:, 0] - np.cos(tq))) <= atol + rtol + hermite


def test_one_generated_step_matches_the_tableau_by_matrix_products():
    a = np.zeros((7, 7))
    a[1, :1] = [1 / 5]
    a[2, :2] = [3 / 40, 9 / 40]
    a[3, :3] = [44 / 45, -56 / 15, 32 / 9]
    a[4, :4] = [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]
    a[5, :5] = [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]
    a[6, :6] = [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]
    e = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
    c = a.sum(axis=1)

    def f(t, y):
        return (y[1] + 0.1 * t, -math.sin(y[0]), y[0] * y[1])

    t, y, h, atol, rtol = 0.3, np.array([0.7, -0.2, 1.1]), 0.05, 1e-12, 1e-9
    k = [np.array(f(t, tuple(y)))]
    for i in range(1, 7):
        k.append(np.array(f(t + c[i] * h, tuple(y + h * (np.stack(k, axis=1) @ a[i, :i])))))
    y_new = y + h * (np.stack(k[:6], axis=1) @ a[6, :6])
    scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
    err = math.sqrt(float(np.mean((h * (np.stack(k, axis=1) @ e) / scale) ** 2)))

    got_y, got_k, got_err = rk._step(3)(f, t, tuple(y), tuple(k[0]), h, atol, rtol)
    assert got_y == pytest.approx(y_new, rel=1e-15, abs=0.0)
    assert got_k == pytest.approx(k[6], rel=1e-14, abs=0.0)
    assert got_err == pytest.approx(err, rel=1e-9)


# a first step of 2 is far too long, so the count covers rejected attempts
@pytest.mark.parametrize("first_step, initial_calls", [(None, 2), (2.0, 1)])
def test_fsal_costs_six_calls_per_attempted_step(first_step, initial_calls):
    calls = []

    def f(t, y):
        calls.append(t)
        return oscillator(t, y)

    sol = rk.solve(f, 0.0, (1.0, 0.0), 10.0, rtol=1e-8, atol=1e-10, first_step=first_step)
    assert sol.n_rejected > 0 or first_step is None
    assert len(calls) == initial_calls + 6 * (sol.n_accepted + sol.n_rejected)


def test_postprocess_keeps_fsal():
    # the postprocess returns the adjusted state and f there, so the next
    # step starts from it and solve calls f only for the six stages
    calls = []

    def f(t, y):
        calls.append(t)
        return oscillator(t, y)

    def renormalize(t, y):
        r = math.hypot(*y)
        y = (y[0] / r, y[1] / r)
        return y, oscillator(t, y)

    sol = rk.solve(f, 0.0, (1.0, 0.0), 5.0, first_step=0.1, postprocess=renormalize)
    assert sol.n_accepted > 0
    assert len(calls) == 1 + 6 * (sol.n_accepted + sol.n_rejected)
    assert np.allclose(np.hypot(sol.ys[:, 0], sol.ys[:, 1]), 1.0, rtol=0.0, atol=1e-15)
    assert np.array_equal(sol.fs, np.array([oscillator(0.0, y) for y in sol.ys]))


def wall(t, y):
    if y[0] > 1.0:
        raise DomainError("past the wall")
    return (1.0,)


def test_domain_wall_ends_the_run_with_left_domain():
    sol = rk.solve(wall, 0.0, (0.0,), 5.0)
    assert sol.reason == "left_domain"
    assert sol.n_accepted > 0 and sol.n_rejected > 0
    assert 1.0 - 1e-12 <= sol.ts[-1] <= 1.0
    assert np.all(sol.ys[:, 0] <= 1.0)


def test_domain_wall_without_an_accepted_step_raises():
    with pytest.raises(LeftDomainError):
        rk.solve(wall, 0.0, (1.0,), 5.0)
    with pytest.raises(LeftDomainError):
        rk.solve(wall, 0.0, (2.0,), 5.0)
    with pytest.raises(LeftDomainError):
        rk.solve(decay, 0.0, (math.inf,), 5.0)


@pytest.mark.parametrize("rate", [
    lambda t: math.inf if t > 1.0 else 1.0,        # an infinite stage derivative
    lambda t: math.nan if t > 1.0 else 1.0,        # a nan one
    lambda t: math.exp(700.0 * t),                 # OverflowError past t = 1.01
])
def test_non_finite_stages_are_rejected_not_recorded(rate):
    sol = rk.solve(lambda t, y: (rate(t),), 0.0, (0.0,), 3.0)
    assert sol.reason == "left_domain"
    assert sol.n_accepted > 0 and sol.n_rejected > 0
    assert np.all(np.isfinite(sol.ys)) and np.all(np.isfinite(sol.fs))
    assert sol.ts[-1] <= 1.02


@pytest.mark.parametrize("n", [3, 6])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_step_rejects_a_non_finite_value_in_any_component(n, bad):
    step = rk._step(n)
    y, k0 = (0.5,) * n, (0.25,) * n

    def poisoned(i, at_call):
        """f that returns ``bad`` in component i on its ``at_call``-th call."""
        calls = []

        def f(t, y):
            calls.append(t)
            return tuple(bad if (j == i and len(calls) == at_call) else 0.25 for j in range(n))

        return f

    for i in range(n):
        spoiled = tuple(bad if j == i else x for j, x in enumerate(y))
        # a stage value, before f sees it
        with pytest.raises(DomainError):
            step(poisoned(i, 0), 0.0, spoiled, k0, 0.1, 1e-12, 1e-10)
        # a derivative: the first one handed in, or that of stage 1 to 5,
        # makes the next stage value non-finite
        with pytest.raises(DomainError):
            step(poisoned(i, 0), 0.0, y, tuple(bad if j == i else x for j, x in enumerate(k0)),
                 0.1, 1e-12, 1e-10)
        for stage in range(1, 6):
            with pytest.raises(DomainError):
                step(poisoned(i, stage), 0.0, y, k0, 0.1, 1e-12, 1e-10)
        # the last one enters no stage value, only the error estimate, which
        # is then not finite and solve rejects the step
        _, _, err = step(poisoned(i, 6), 0.0, y, k0, 0.1, 1e-12, 1e-10)
        assert not math.isfinite(err)


def test_step_is_generated_once_per_dimension():
    rk._step.cache_clear()
    rk.solve(decay, 0.0, (1.0,), 1.0)
    rk.solve(decay, 0.0, (2.0,), 1.0)
    rk.solve(oscillator, 0.0, (1.0, 0.0), 1.0)
    rk.solve(oscillator, 0.0, (0.0, 1.0), -1.0)
    info = rk._step.cache_info()
    assert info.misses == 2
    assert info.hits == 2


@pytest.mark.parametrize("spec", [
    {"builtin": "isosceles", "params": {"alpha": 1.0}},
    {"builtin": "yoshida_g", "params": {"epsilon": 4.0}},
    {"expr": "-2 + 0.25*cos(3*theta) + 0.0625*sin(theta + 0.5)", "beta": -1.0},
])
def test_float_path_returns_the_jet_of_V(spec):
    pot = compile_potential(spec_from_dict(spec))
    for theta in (-1.2, -0.3, 0.0, 0.4, 1.5):
        assert tuple(pot.V(theta)) == pot.V_float(theta)
    if not pot.domain.periodic:
        with pytest.raises(DomainError):
            pot.V_float(math.pi / 2)


@pytest.mark.parametrize("t0, t1, tols", [
    (0.0, math.nan, {}), (math.nan, 5.0, {}), (0.0, math.inf, {}), (-math.inf, 0.0, {}),
    (0.0, 5.0, {"rtol": math.inf}), (0.0, 5.0, {"rtol": math.nan}), (0.0, 5.0, {"rtol": 0.0}),
    (0.0, 5.0, {"atol": math.inf}), (0.0, 5.0, {"atol": -1e-12}),
    (0.0, 5.0, {"first_step": math.nan}),
])
def test_solve_rejects_a_span_or_tolerance_it_cannot_finish(t0, t1, tols):
    with pytest.raises(ValueError):
        rk.solve(decay, t0, (1.0,), t1, **tols)


def test_an_overflowing_first_derivative_starts_from_the_smallest_step():
    # f0 over its tolerance scale overflows the RMS to inf, so the estimate
    # 0.01*d0/d1 is 0; solve starts from its smallest step instead of
    # dividing by it, and grows the step from there
    def steep(t, y):
        return (1e300,)

    assert rk._initial_step(steep, 0.0, (1.0,), (1e300,), 5.0, 1e-10, 1e-12) == rk._h_min(0.0, 5.0)
    sol = rk.solve(steep, 0.0, (1.0,), 5.0)
    assert sol.reason == "span_end" and sol.ts[1] == rk._h_min(0.0, 5.0)
