"""The embedded Runge-Kutta solver on problems with closed-form solutions,
its one pair (DOP853, against scipy's table), its re-stepping dense output,
how a run ends, the pinned text of its generated step, and the contract of
its right-hand side: call counts read from the coefficients, FSAL through a
postprocess, domain walls, non-finite stages, the per-dimension step cache
and the float path of V."""
import dataclasses
import hashlib
import math

import numpy as np
import pytest

from mcgehee import rk
from mcgehee.errors import DomainError, LeftDomainError, StepUnderflowError
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
    # dense output re-steps from the node before each query, so it meets
    # the same tolerance where a step is least accurate, at its midpoint
    tq = 0.5 * (sol.ts[1:] + sol.ts[:-1])
    rows = sol.sample(tq)
    assert rows.shape == (len(tq), 2)
    assert np.max(np.abs(rows - np.stack([np.cos(tq), -np.sin(tq)], axis=1))) <= atol + rtol
    # at a node it returns the recorded state
    assert np.array_equal(sol.sample(sol.ts), sol.ys)


def stiff_ish(t, y):
    return (y[1] + 0.1 * t, -math.sin(y[0]), y[0] * y[1])


def attempt_by_matrix_products(f, t, y, h, c, a, b):
    """One attempt in numpy, summed as the generated step sums: every
    coefficient scaled by h first, ``y + (h*A) @ k``."""
    k = [np.array(f(t, tuple(y)))]
    for i in range(1, len(c)):
        k.append(np.array(f(t + c[i] * h, tuple(y + np.stack(k, axis=1) @ (h * a[i, :i])))))
    k = np.stack(k, axis=1)
    return k, y + k @ (h * b)


def test_one_generated_step_matches_the_tableau_by_matrix_products():
    stages = len(rk._C)
    a = np.zeros((stages, stages))
    for i, row in enumerate(rk._A):
        a[i, :i] = row
    e5, e3 = np.array(rk._E5), np.array(rk._E3)

    t, y, h = 0.3, np.array([0.7, -0.2, 1.1]), 0.5
    k, y_new = attempt_by_matrix_products(stiff_ish, t, y, h, np.array(rk._C), a,
                                          np.array(rk._B))
    for atol, rtol, accepted in ((1e-8, 1e-5, True), (1e-14, 1e-11, False)):
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        n5 = float(np.sum((k @ (h * e5) / scale) ** 2))
        n3 = float(np.sum((k @ (h * e3) / scale) ** 2))
        err = n5 / math.sqrt((n5 + 0.01 * n3) * 3)
        got_y, got_k, got_err = rk._step(3)(stiff_ish, t, tuple(y), tuple(k[:, 0]), h,
                                            atol, rtol)
        assert (err <= 1.0) == accepted
        assert got_err == pytest.approx(err, rel=1e-9)
        if accepted:
            assert got_y == pytest.approx(y_new, rel=2e-15, abs=0.0)
            assert got_k == pytest.approx(stiff_ish(t + h, tuple(y_new)), rel=1e-14, abs=0.0)
        else:
            # a rejected attempt returns no state
            assert got_y is None and got_k is None


def test_one_generated_dop853_step_matches_scipys_tableau_by_matrix_products():
    coef = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
    n = coef.N_STAGES

    def f(t, y):
        # five times faster than stiff_ish, so the error estimate is not
        # a cancellation of nearly equal terms and its last bits stay put
        return tuple(5.0 * x for x in stiff_ish(t, y))

    t, y, h, atol, rtol = 0.3, np.array([0.7, -0.2, 1.1]), 0.2, 1e-8, 1e-5
    k, y_new = attempt_by_matrix_products(f, t, y, h, coef.C[:n], coef.A[:n, :n], coef.B)
    scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
    # scipy's DOP853._estimate_error_norm, |h| n5 / sqrt((n5 + 0.01 n3) n),
    # with h moved into the sums as the step sums them, and f at y_new left
    # out: both error vectors weigh it 0
    n5 = float(np.sum((k @ (h * coef.E5[:n]) / scale) ** 2))
    n3 = float(np.sum((k @ (h * coef.E3[:n]) / scale) ** 2))
    err = n5 / math.sqrt((n5 + 0.01 * n3) * 3)

    got_y, got_k, got_err = rk._step(3)(f, t, tuple(y), tuple(k[:, 0]), h, atol, rtol)
    assert 0.01 < err <= 1.0
    # twelve-term sums with coefficients up to 43: the matrix product and
    # the step's left-to-right order differ by an ulp or two
    assert got_y == pytest.approx(y_new, rel=2e-15, abs=0.0)
    assert got_k == pytest.approx(f(t + h, tuple(y_new)), rel=1e-14, abs=0.0)
    assert got_err == pytest.approx(err, rel=1e-9)


def test_dop853_coefficients_equal_scipys():
    # the package carries the table inline and never imports scipy
    coef = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
    n = coef.N_STAGES
    assert len(rk._C) == len(rk._A) == n
    # the controller's gains are 0.7/q and 0.4/q at the pair's order q = 8
    assert (rk._K_I, rk._K_P) == (0.7 / 8, 0.4 / 8)
    assert rk._C == tuple(coef.C[:n])
    for s in range(n):
        assert rk._A[s] == tuple(coef.A[s, :s])
        assert not coef.A[s, s:].any()
    assert rk._B == tuple(coef.B)
    assert (rk._E5, rk._E3) == (tuple(coef.E5[:n]), tuple(coef.E3[:n]))
    # neither error estimate weighs f at the new state
    assert coef.E5[n] == coef.E3[n] == 0.0
    # the sum rule c = A 1 holds to rounding
    for s in range(n):
        assert math.fsum(rk._A[s]) == pytest.approx(rk._C[s], rel=1e-14, abs=1e-16)


def test_halving_a_fixed_step_divides_the_global_error_by_two_to_the_order():
    # the harmonic oscillator over 16 time units with fixed steps; the
    # generous tolerances accept every attempt
    step = rk._step(2)
    errors = []
    for n in (16, 32, 64):
        h, y, k, t = 16.0 / n, (1.0, 0.0), oscillator(0.0, (1.0, 0.0)), 0.0
        for _ in range(n):
            y, k, err = step(oscillator, t, y, k, h, 1.0, 1.0)
            t += h
        errors.append(math.hypot(y[0] - math.cos(16.0), y[1] + math.sin(16.0)))
    for coarse, fine in zip(errors, errors[1:]):
        assert 0.75 * 2**8 <= coarse / fine <= 1.25 * 2**8


@pytest.mark.parametrize("t1", [10.0, -10.0])
def test_dop853_meets_its_tolerance_on_the_oscillator_in_fewer_steps(t1):
    rtol, atol = 1e-12, 1e-15
    sol = rk.solve(oscillator, 0.0, (1.0, 0.0), t1, rtol=rtol, atol=atol)
    assert sol.reason == "span_end" and sol.ts[-1] == t1
    exact = np.stack([np.cos(sol.ts), -np.sin(sol.ts)], axis=1)
    assert np.max(np.abs(sol.ys - exact)) <= 10.0 * (atol + rtol)
    assert np.array_equal(sol.fs, np.array([oscillator(0.0, y) for y in sol.ys]))
    # a fifth-order pair, Dormand-Prince 5(4), needs 1047 steps for this
    assert 4 * sol.n_accepted < 1047


def start_with(monkeypatch, h):
    """Make ``solve`` start from the step h, without asking f for an estimate."""
    monkeypatch.setattr(rk, "_initial_step", lambda f, t0, y0, f0, t1, rtol, atol: h)


# a first step of 2 is far too long, so the count covers rejected attempts
@pytest.mark.parametrize("first_step, initial_calls", [(None, 2), (2.0, 1)])
def test_dop853_calls_f_at_the_new_state_once_per_accepted_step(first_step, initial_calls,
                                                                monkeypatch):
    calls = []

    def f(t, y):
        calls.append(t)
        return oscillator(t, y)

    if first_step is not None:
        start_with(monkeypatch, first_step)
    sol = rk.solve(f, 0.0, (1.0, 0.0), 10.0, rtol=1e-10, atol=1e-12)
    assert sol.n_rejected > 0 or first_step is None
    # after the first derivative: one call per stage past the first on
    # every attempt, and f at the new state of each accepted step
    assert len(rk._C) - 1 == 11
    assert len(calls) == initial_calls + 11 * (sol.n_accepted + sol.n_rejected) + sol.n_accepted


def run_with_renormalization(monkeypatch):
    calls, projections = [], []

    def f(t, y):
        calls.append((t, tuple(y)))
        return oscillator(t, y)

    def renormalize(t, y):
        projections.append(t)
        r = math.hypot(*y)
        y = (y[0] / r, y[1] / r)
        return y, oscillator(t, y)

    start_with(monkeypatch, 0.1)
    sol = rk.solve(f, 0.0, (1.0, 0.0), 5.0, postprocess=renormalize)
    assert sol.n_accepted > 0
    assert len(projections) == sol.n_accepted
    assert np.allclose(np.hypot(sol.ys[:, 0], sol.ys[:, 1]), 1.0, rtol=0.0, atol=1e-15)
    return sol, calls


def test_postprocess_keeps_fsal(monkeypatch):
    # the postprocess returns the adjusted state and f there, so the next
    # step starts from it: solve records that f and never calls f at a node
    # past the first
    sol, calls = run_with_renormalization(monkeypatch)
    assert np.array_equal(sol.fs, np.array([oscillator(0.0, y) for y in sol.ys]))
    nodes = {(t, tuple(y)) for t, y in zip(sol.ts[1:], sol.ys[1:])}
    assert calls[0] == (0.0, (1.0, 0.0))
    assert nodes.isdisjoint(calls)


def test_postprocess_keeps_fsal_with_dop853(monkeypatch):
    # DOP853's error estimate needs no f at the new state, so with a
    # postprocess solve calls f for the eleven stages alone
    sol, calls = run_with_renormalization(monkeypatch)
    assert len(calls) == 1 + (len(rk._C) - 1) * (sol.n_accepted + sol.n_rejected)


def test_a_domain_error_in_the_postprocess_rejects_the_step():
    def renormalize(t, y):
        if t > 1.0:
            raise DomainError("past the wall")
        return y, oscillator(t, y)

    sol = rk.solve(oscillator, 0.0, (1.0, 0.0), 5.0, postprocess=renormalize)
    assert sol.reason == "left_domain" and sol.n_rejected > 0
    assert 1.0 - 1e-12 <= sol.ts[-1] <= 1.0


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


def poisoned(n, bad, i, at_call):
    """f that returns ``bad`` in component i of n on its ``at_call``-th call."""
    calls = []

    def f(t, y):
        calls.append(t)
        return tuple(bad if (j == i and len(calls) == at_call) else 0.25 for j in range(n))

    return f


@pytest.mark.parametrize("n", [3, 6])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_step_rejects_a_non_finite_value_in_any_component(n, bad):
    # one comparison tests all n components of each value the step checks
    step = rk._step(n)
    y, k0 = (0.5,) * n, (0.25,) * n
    last = len(rk._C) - 1
    for i in range(n):
        spoiled = tuple(bad if j == i else x for j, x in enumerate(y))
        # a stage value, before f sees it
        with pytest.raises(DomainError, match="stage value"):
            step(poisoned(n, bad, i, 0), 0.0, spoiled, k0, 0.1, 1e-12, 1e-10)
        # the first derivative handed in makes the next stage value non-finite
        with pytest.raises(DomainError, match="stage value"):
            step(poisoned(n, bad, i, 0), 0.0, y,
                 tuple(bad if j == i else x for j, x in enumerate(k0)), 0.1, 1e-12, 1e-10)
        # the last stage's derivative enters the new state alone
        with pytest.raises(DomainError, match="new state"):
            step(poisoned(n, bad, i, last), 0.0, y, k0, 0.1, 1e-12, 1e-10)
        # and f at the new state is tested before it is returned
        with pytest.raises(DomainError, match="derivative"):
            step(poisoned(n, bad, i, last + 1), 0.0, y, k0, 0.1, 1e-12, 1e-10)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_dop853_step_rejects_a_non_finite_value_at_every_call(bad):
    # every derivative of the eleven stages enters a later stage value or
    # the new state, and f at the new state is tested too, so each raises,
    # whichever component is spoiled
    for n in (3, 6):
        step = rk._step(n)
        y, k0 = (0.5,) * n, (0.25,) * n
        for i in range(n):
            with pytest.raises(DomainError):
                step(poisoned(n, bad, i, 0), 0.0,
                     tuple(bad if j == i else x for j, x in enumerate(y)), k0, 0.1, 1e-12, 1e-10)
            with pytest.raises(DomainError):
                step(poisoned(n, bad, i, 0), 0.0, y,
                     tuple(bad if j == i else x for j, x in enumerate(k0)), 0.1, 1e-12, 1e-10)
            for call in range(1, len(rk._C) + 1):
                with pytest.raises(DomainError):
                    step(poisoned(n, bad, i, call), 0.0, y, k0, 0.1, 1e-12, 1e-10)
        y_new, k_new, err = step(poisoned(n, bad, 0, 0), 0.0, y, k0, 0.1, 1e-12, 1e-10)
        assert err <= 1.0 and k_new == (0.25,) * n


def test_step_is_generated_once_per_dimension():
    rk._step.cache_clear()
    rk.solve(decay, 0.0, (1.0,), 1.0)
    rk.solve(decay, 0.0, (2.0,), 1.0)
    rk.solve(oscillator, 0.0, (1.0, 0.0), 1.0)
    rk.solve(oscillator, 0.0, (0.0, 1.0), -1.0)
    info = rk._step.cache_info()
    assert info.misses == 2
    assert info.hits == 2
    # dense output re-steps through the same generated step
    sol = rk.solve(oscillator, 0.0, (1.0, 0.0), 1.0)
    sol.sample([0.25, 0.5, 0.75])
    info = rk._step.cache_info()
    assert (info.misses, info.hits) == (2, 6)


def test_a_query_whose_step_leaves_the_domain_raises():
    # dense output checks its step as a run does: here f learns of a wall
    # at y = 0.5 after the run, so a query whose step crosses it raises
    # DomainError and never returns a non-finite row, while a node still
    # returns its recorded row
    sol = rk.solve(lambda t, y: (1.0,), 0.0, (0.0,), 1.0)
    assert sol.n_accepted > 1

    def walled(t, y):
        if y[0] > 0.5:
            raise DomainError("past the wall")
        return (1.0,)

    for f in (walled, lambda t, y: (math.nan if y[0] > 0.5 else 1.0,)):
        raw = dataclasses.replace(sol, f=f)
        assert np.array_equal(raw.sample(raw.ts), raw.ys)
        assert raw.sample([0.25])[0, 0] == pytest.approx(0.25, rel=1e-15)
        with pytest.raises(DomainError):
            raw.sample([0.25, 0.75])
        with pytest.raises(ValueError, match="outside the integrated span"):
            raw.sample([1.5])


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
    (2.0, 2.0, {}),
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


def test_no_accepted_step_raises_step_underflow():
    # f swings by 1e150 within every representable step, so no attempt
    # meets the tolerance before the step falls below its smallest size
    with pytest.raises(StepUnderflowError):
        rk.solve(lambda t, y: (1e150 * math.sin(1e20 * t),), 0.0, (0.0,), 1.0)


def test_a_non_finite_first_derivative_is_not_integrable():
    # the first-step estimate divides by the derivative's norm, so a nan
    # there made the step nan, and a nan step never falls below the smallest
    with pytest.raises(LeftDomainError, match="non-finite derivative"):
        rk.solve(lambda t, y: (math.nan,), 0.0, (1.0,), 1.0)


@pytest.mark.parametrize("t1", [2e-15, 5e-15, -5e-15, 1e6 + 5e-9])
def test_a_span_within_the_end_tolerance_of_t1_takes_no_step(t1):
    # a run has reached t1 once it is within 1e-14*max(|t1|, 1) of it, and
    # that is tested before the first step too, so a span no longer than
    # that ends where it starts, even one longer than the smallest step
    t0 = 0.0 if abs(t1) < 1.0 else 1e6
    assert abs(t1 - t0) <= 1e-14 * max(abs(t1), 1.0)
    sol = rk.solve(oscillator, t0, (1.0, 0.0), t1)
    assert sol.reason == "span_end" and sol.n_accepted == sol.n_rejected == 0
    assert sol.ts.tolist() == [t0] and sol.ys.tolist() == [[1.0, 0.0]]


def test_stop_is_asked_at_t0_and_at_every_accepted_node():
    seen = []

    def stop(t, y, k):
        seen.append(t)
        return "crossed" if y[0] < 0.0 else None

    sol = rk.solve(oscillator, 0.0, (1.0, 0.0), 10.0, stop=stop)
    assert sol.reason == "crossed" and sol.ys[-1, 0] < 0.0 <= sol.ys[-2, 0]
    assert seen == sol.ts.tolist()
    # a reason at t0 ends the run before its first step
    sol = rk.solve(oscillator, 0.0, (1.0, 0.0), 10.0, stop=lambda t, y, k: "at once")
    assert sol.reason == "at once" and sol.n_accepted == sol.n_rejected == 0
    assert sol.ts.tolist() == [0.0]


# SHA-256 of the generated step's text.  Every trajectory's bits follow
# from this text, so an edit of the generator that changes it must change
# these on purpose.
STEP_SOURCE_SHA256 = {
    1: "8ff3b196e9e43a414bcabbf1fca4138e1293541e0875f9a262afdf8da24af11b",
    2: "4c32d235e3fd2f65ce24fc44c6194b1567c5c327b547cd87f70b7571f6cf5cc7",
    3: "5439d9522da1e02f553c980bb961d296ef36ab9d598134cd046c20936bdb7525",
    4: "0fc48eb7dee32956aac8d3b4e0a2874b9387c4a2109db323ee72ce64dac60368",
    6: "48d97faa55d547c6004bf478c0051deeac9265f40ebe8b6dada8fcb79dbf71ec",
}


@pytest.mark.parametrize("n", sorted(STEP_SOURCE_SHA256))
def test_generated_step_text_is_pinned(n):
    assert hashlib.sha256(rk._step_source(n).encode()).hexdigest() == STEP_SOURCE_SHA256[n]
