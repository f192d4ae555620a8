import io
import math

import numpy as np
import pytest

from mcgehee import flow
from mcgehee.errors import (
    DomainViolationError,
    LeftDomainError,
    NotSaddleError,
    OriginSingularityError,
)
from mcgehee.flow import (
    CartesianTrajectory,
    Equilibrium,
    ManifoldState,
    McGeheeState,
    cartesian_vector_field,
    check_beta_minus2_integral,
    energy,
    find_equilibria,
    from_mcgehee,
    integrate,
    integrate_cartesian,
    integrate_manifold,
    linearize,
    sample_at_physical_times,
    to_mcgehee,
    trace_invariant_manifold,
    vector_field,
)
from mcgehee.potentials import compile_potential, spec_from_dict
from mcgehee.rk import ATOL, RTOL


def builtin(name, **params):
    return compile_potential(spec_from_dict({"builtin": name, "params": params}))


def expr_pot(source, beta=-1.0, **kw):
    return compile_potential(spec_from_dict({"expr": source, "beta": beta, **kw}))


def iso():
    return builtin("isosceles", alpha=1.0)


def yoshida():
    return builtin("yoshida_g", epsilon=4.0)


def equilibrium_at(pot, theta, sign):
    for eq in find_equilibria(pot):
        if eq.sign == sign and abs(eq.theta_c - theta) < 1e-9:
            return eq
    raise AssertionError(f"no {sign} equilibrium at theta = {theta}")


def manifold_seed(pot, theta, v):
    """A point of M over theta with the given v (requires v^2 < -2V)."""
    rem = -2.0 * float(pot.V(theta).val) - v * v
    assert rem > 0.0, "seed leaves no room for w on M"
    return ManifoldState(theta, v, math.sqrt(rem))


# ---------------------------------------------------------------------------
# coordinate maps


def test_unit_radius_state_maps_identically():
    st = to_mcgehee((0.0, 1.0), (1.0, 0.0), beta=4.0)
    assert (st.r, st.theta, st.v, st.w) == pytest.approx((1.0, 0.0, 0.0, 1.0))


def test_mcgehee_map_scales_momenta_by_r_to_half_beta():
    st = to_mcgehee((2.0, 0.0), (0.0, 4.0), beta=-1.0)
    assert st.r == pytest.approx(4.0)
    assert st.theta == pytest.approx(math.pi / 2.0)
    # p = r^{-1/2}(v (0,1) + w (-1,0)) => v = 0, w = -4
    assert st.v == pytest.approx(0.0, abs=1e-14)
    assert st.w == pytest.approx(-4.0)


def test_coordinate_roundtrip_on_random_states():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        beta = float(rng.uniform(-3.0, 4.0))
        p = rng.uniform(-2.0, 2.0, size=2)
        q = rng.uniform(-2.0, 2.0, size=2)
        if np.linalg.norm(q) < 1e-3:
            continue
        p2, q2 = from_mcgehee(to_mcgehee(p, q, beta), beta)
        assert np.allclose(p2, p, atol=1e-12)
        assert np.allclose(q2, q, atol=1e-12)


def test_collision_point_has_no_mcgehee_image():
    with pytest.raises(OriginSingularityError):
        to_mcgehee((1.0, 0.0), (0.0, 0.0), beta=-1.0)


# ---------------------------------------------------------------------------
# vector field and energy


def test_rest_points_are_stationary_in_the_subsystem():
    for pot in (iso(), yoshida()):
        for eq in find_equilibria(pot):
            f = vector_field(McGeheeState(2.0, eq.theta_c, eq.v_star, 0.0), pot)
            assert f[0] == pytest.approx(2.0 * eq.v_star, rel=1e-14)
            assert np.max(np.abs(f[1:])) <= 1e-12


def test_vector_field_matches_hand_substitution():
    f = vector_field(McGeheeState(1.0, 0.0, 0.0, 1.0), yoshida())
    # dv = w^2 - beta V(0) = 1 - 4(-1/4) = 2; dw = -V'(0) = 0
    assert f == pytest.approx([0.0, 1.0, 2.0, 0.0], abs=1e-14)


def test_on_manifold_v_equation_collapses_to_the_gradient_identity():
    rng = np.random.default_rng(3)
    for pot in (iso(), yoshida()):
        lim = 1.2 if pot.beta < 0 else math.pi
        for _ in range(50):
            m = manifold_seed(pot, float(rng.uniform(-lim, lim)), float(rng.uniform(-0.8, 0.8)))
            f = vector_field(McGeheeState(1.0, m.theta, m.v, m.w), pot)
            assert f[2] == pytest.approx((pot.beta / 2.0 + 1.0) * m.w**2, abs=1e-12)


def test_energy_on_the_manifold_vanishes_for_any_radius():
    m = manifold_seed(iso(), 0.2, -1.0)
    for r in (0.01, 1.0, 73.0):
        assert energy(McGeheeState(r, m.theta, m.v, m.w), iso()) == pytest.approx(0.0, abs=1e-12)


def test_energy_matches_hand_substitution():
    assert energy(McGeheeState(1.0, 0.0, 0.0, 1.0), yoshida()) == pytest.approx(0.25)
    assert energy(McGeheeState(2.0, 0.0, 1.0, 0.0), iso()) == pytest.approx(-2.25)


# ---------------------------------------------------------------------------
# full-system integration


def test_equilibrium_lift_follows_the_exponential_radius_law():
    pot = iso()
    eq = equilibrium_at(pot, 0.0, "-")
    tr = integrate(McGeheeState(1.0, eq.theta_c, eq.v_star, 0.0), pot, (0.0, 3.0))
    assert tr.reason == "span_end"
    r_exact = np.exp(eq.v_star * tr.taus)
    assert np.max(np.abs(tr.rs / r_exact - 1.0)) <= 1e-8
    # t = (e^{(3/2) v* tau} - 1)/((3/2) v*) for beta = -1
    t_exact = (np.exp(1.5 * eq.v_star * tr.taus) - 1.0) / (1.5 * eq.v_star)
    assert np.max(np.abs(tr.ts - t_exact)) <= 1e-8 * np.max(np.abs(t_exact))
    assert np.max(np.abs(tr.thetas - eq.theta_c)) <= 1e-12
    assert np.max(np.abs(tr.vs - eq.v_star)) <= 1e-12


def test_energy_is_conserved_along_random_yoshida_orbits():
    pot = yoshida()
    rng = np.random.default_rng(999)
    for _ in range(5):
        st = McGeheeState(float(rng.uniform(0.5, 2.0)), float(rng.uniform(-math.pi, math.pi)),
                          float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-1.0, 1.0)))
        tr = integrate(st, pot, (0.0, 20.0))
        assert tr.reason == "span_end"
        assert np.max(np.abs(tr.hs - tr.hs[0])) <= 1e-10 * abs(tr.hs[0])


def test_forward_then_backward_integration_returns_to_the_start():
    pot = yoshida()
    rng = np.random.default_rng(42)
    for _ in range(5):
        st = McGeheeState(float(rng.uniform(0.5, 2.0)), float(rng.uniform(-3.0, 3.0)),
                          float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-1.0, 1.0)))
        fwd = integrate(st, pot, (0.0, 2.0), rtol=1e-12, atol=1e-14)
        back = integrate(fwd.final_state, pot, (2.0, 0.0), rtol=1e-12, atol=1e-14)
        fin = back.final_state
        assert fin.r == pytest.approx(st.r, rel=1e-8)
        assert fin.theta == pytest.approx(st.theta, abs=1e-8)
        assert fin.v == pytest.approx(st.v, abs=1e-8)
        assert fin.w == pytest.approx(st.w, abs=1e-8)


def test_pole_bound_orbit_truncates_gracefully():
    # generic isosceles orbits fall into the theta = pi/2 binary-collision
    # pole; the run must end with a reason, not an exception
    pot = iso()
    tr = integrate(McGeheeState(1.0, 0.4, -0.5, 0.8), pot, (0.0, 50.0))
    assert tr.reason == "step_underflow"
    assert len(tr) > 10
    assert np.all(np.diff(tr.taus) > 0)
    assert np.all(np.diff(tr.ts) > 0)
    # energy stays honest right up to the truncation
    assert np.max(np.abs(tr.hs - tr.hs[0])) <= 1e-10 * abs(tr.hs[0])


def test_integration_from_outside_the_domain_raises_immediately():
    with pytest.raises(LeftDomainError):
        integrate(McGeheeState(1.0, 2.0, 0.0, 0.0), iso(), (0.0, 1.0))


def test_zero_energy_start_is_rejected_by_name():
    pot = builtin("yoshida_g", epsilon=4.0)
    state = McGeheeState(1.0, 0.3, 0.2, math.sqrt(-2.0 * float(pot.V(0.3).val) - 0.04))
    assert state.z(pot) == 0.0
    with pytest.raises(LeftDomainError, match=r"zero energy \(h = 0, z = 0\)"):
        integrate(state, pot, (0.0, 1.0))


def test_nonpositive_radius_is_rejected():
    with pytest.raises(DomainViolationError):
        integrate(McGeheeState(0.0, 0.0, 0.0, 1.0), iso(), (0.0, 1.0))


def test_trajectory_csv_round_trips_every_sample():
    tr = integrate(McGeheeState(1.0, 0.5, 0.1, -0.2), yoshida(), (0.0, 1.0))
    buf = io.StringIO()
    tr.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "tau,t,r,theta,v,w,z,h"
    assert len(lines) == len(tr) + 1
    row = [float(x) for x in lines[3].split(",")]
    k = 2
    assert row == [tr.taus[k], tr.ts[k], tr.rs[k], tr.thetas[k], tr.vs[k],
                   tr.ws[k], tr.zs[k], tr.hs[k]]


def test_trajectory_csv_bytes_are_pinned():
    nan, inf = math.nan, math.inf
    cols = ([0.0, 0.1], [nan, 1.0 / 3.0], [0.0, 1e-300], [-0.0, math.pi], [inf, -inf],
            [1.0, 2.5e17], [-1e-5, 0.5], [5e-324, -1.7976931348623157e308])
    tr = flow.Trajectory(yoshida(), *map(np.array, cols), reason="span_end")
    buf = io.StringIO()
    tr.write_csv(buf)
    assert buf.getvalue() == (
        "tau,t,r,theta,v,w,z,h\n"
        "0,nan,0,-0,inf,1,-1.0000000000000001e-05,4.9406564584124654e-324\n"
        "0.10000000000000001,0.33333333333333331,1e-300,3.1415926535897931,-inf,2.5e+17,0.5,"
        "-1.7976931348623157e+308\n"
    )


def test_subsystem_csv_writes_placeholder_columns_and_exact_samples():
    pot = yoshida()
    tr = integrate_manifold(manifold_seed(pot, 0.3, 0.2), pot, (0.0, 0.5))
    buf = io.StringIO()
    tr.write_csv(buf)
    rows = [line.split(",") for line in buf.getvalue().splitlines()[1:]]
    assert len(rows) == len(tr) > 2
    for k, row in enumerate(rows):
        assert (row[1], row[2], row[7]) == ("nan", "0", "0")
        assert [float(row[i]) for i in (0, 3, 4, 5, 6)] == [
            tr.taus[k], tr.thetas[k], tr.vs[k], tr.ws[k], tr.zs[k]]


def test_physical_time_sampling_inverts_the_clock():
    pot = iso()
    st = to_mcgehee((3.0, 0.4), (1.0, 0.2), pot.beta)
    tr = integrate(st, pot, (0.0, 30.0))
    assert tr.ts[-1] > 4.0
    tgrid = np.linspace(0.1, 4.0, 17)
    rows = sample_at_physical_times(tr, tgrid)
    assert np.max(np.abs(rows[:, 4] - tgrid)) <= 1e-9
    assert np.all(rows[:, 0] > 0.0)
    # sampled radii follow the accepted-step record
    approx_r = np.interp(tgrid, tr.ts, tr.rs)
    assert np.max(np.abs(rows[:, 0] / approx_r - 1.0)) <= 1e-2
    with pytest.raises(ValueError):
        sample_at_physical_times(tr, [tr.ts[-1] + 1.0])


def test_physical_time_sampling_runs_backward_and_checks_its_input():
    pot = iso()
    st = to_mcgehee((3.0, 0.4), (1.0, 0.2), pot.beta)
    tr = integrate(st, pot, (0.0, -2.0))
    assert tr.ts[-1] < -0.1
    tgrid = np.linspace(tr.ts[-1], 0.0, 13)
    rows = sample_at_physical_times(tr, tgrid)
    assert np.max(np.abs(rows[:, 4] - tgrid)) <= 1e-14
    with pytest.raises(ValueError, match="outside the integrated range"):
        sample_at_physical_times(tr, [0.5 * tr.ts[-1], math.nan])
    tr.ts = tr.ts[::-1].copy()
    with pytest.raises(ValueError, match="not monotone"):
        sample_at_physical_times(tr, [0.5 * tr.ts[0]])


# ---------------------------------------------------------------------------
# manifold subsystem


def test_manifold_orbit_stays_on_the_collision_manifold():
    pot = yoshida()
    rng = np.random.default_rng(17)
    for _ in range(5):
        m0 = manifold_seed(pot, float(rng.uniform(0.0, 2.0 * math.pi)),
                           float(rng.uniform(-0.5, 0.5)))
        tr = integrate_manifold(m0, pot, (0.0, 30.0))
        assert tr.subsystem
        assert tr.max_abs_z <= 1e-9


def test_dense_output_between_nodes_is_as_accurate_as_the_nodes():
    # each sample is one step from the node before it, so at the step
    # midpoints it meets scipy's DOP853 at rtol 1e-13 as closely as the
    # nodes do (both 5e-13 here; a cubic between these nodes erred by 2e-6)
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    pot = yoshida()
    m0 = manifold_seed(pot, 0.3, 0.2)
    tr = integrate_manifold(m0, pot, (0.0, 20.0))
    f = flow._charts(pot).manifold
    ref = solve_ivp(lambda t, y: f(t, tuple(y)), (0.0, 20.0), [m0.theta, m0.v, m0.w],
                    method="DOP853", rtol=1e-13, atol=1e-15, dense_output=True).sol
    mid = 0.5 * (tr.taus[1:] + tr.taus[:-1])
    assert np.max(np.abs(ref(tr.taus).T - tr.raw.ys)) <= 2e-12
    assert np.max(np.abs(ref(mid).T - tr.sample(mid))) <= 2e-12


def test_off_manifold_seed_is_rejected_in_on_manifold_mode():
    with pytest.raises(DomainViolationError):
        integrate_manifold(ManifoldState(0.0, 1.0, 1.0), iso(), (0.0, 1.0))


def test_rest_point_with_zero_w_stays_put():
    # the rest-point residual is ~1 ulp and grows like exp(L * tau) with
    # L = max(-beta * v_star, Re lambda_2), so pick spans that keep the
    # amplified budget below 1e-10 (L = 0.79 for isosceles, 4.47 for yoshida)
    for pot, theta, span in ((iso(), 0.0, 5.0), (yoshida(), math.pi / 4.0, 2.0)):
        eq = equilibrium_at(pot, theta, "-")
        tr = integrate_manifold(ManifoldState(eq.theta_c, eq.v_star, 0.0), pot, (0.0, span))
        assert np.max(np.abs(tr.thetas - eq.theta_c)) <= 1e-10
        assert np.max(np.abs(tr.vs - eq.v_star)) <= 1e-10
        assert np.max(np.abs(tr.ws)) <= 1e-10


def test_projection_pins_transversally_unstable_orbits_to_the_manifold():
    # for beta < 0 the z-direction expands wherever v > 0, so an unprojected
    # isosceles M-orbit drifts visibly off the manifold while the projected
    # run stays pinned
    pot = iso()
    m0 = manifold_seed(pot, 0.3, -1.0)
    loose = integrate_manifold(m0, pot, (0.0, 30.0))
    pinned = flow._manifold_run(m0, pot, (0.0, 30.0), RTOL, ATOL, None, True)
    assert loose.max_abs_z > 1e-3
    assert pinned.max_abs_z < 1e-6


def test_flow_is_gradient_like_for_beta_above_minus_two():
    rng = np.random.default_rng(23)
    for pot in (iso(), yoshida()):
        lim = 1.2 if pot.beta < 0 else math.pi
        for _ in range(5):
            m0 = manifold_seed(pot, float(rng.uniform(-lim, lim)),
                               float(rng.uniform(-1.0, 0.5)))
            tr = flow._manifold_run(m0, pot, (0.0, 25.0), RTOL, ATOL, None, True)
            assert float(np.min(np.diff(tr.vs))) >= -1e-10


# ---------------------------------------------------------------------------
# equilibria and linearization


def test_isosceles_equilibria_catalogue():
    eqs = find_equilibria(iso())
    assert len(eqs) == 6
    d0m = equilibrium_at(iso(), 0.0, "-")
    assert d0m.v_star == pytest.approx(-math.sqrt(10.0), rel=1e-12)
    assert d0m.type == "unstable_focus"
    assert equilibrium_at(iso(), 0.0, "+").type == "stable_focus"
    for theta in (-math.pi / 4.0, math.pi / 4.0):
        assert equilibrium_at(iso(), theta, "-").type == "saddle"
        assert equilibrium_at(iso(), theta, "+").type == "saddle"


def test_yoshida_equilibria_catalogue():
    eqs = find_equilibria(yoshida())
    assert len(eqs) == 16
    d = equilibrium_at(yoshida(), math.pi / 4.0, "-")
    assert d.v_star == pytest.approx(-math.sqrt(1.25), rel=1e-12)
    assert d.type == "unstable_focus"
    assert equilibrium_at(yoshida(), math.pi / 4.0, "+").type == "stable_focus"
    assert equilibrium_at(yoshida(), 0.0, "-").type == "saddle"


def test_positive_potentials_have_no_collision_manifold_rest_points():
    assert find_equilibria(builtin("yoshida_h", epsilon=4.0)) == []


def test_linearization_matches_the_displayed_eigenvalues():
    d = equilibrium_at(yoshida(), math.pi / 4.0, "-")
    assert d.lambda1 == pytest.approx(4.0 * math.sqrt(1.25), rel=1e-10)
    assert d.lambda23[0] == pytest.approx(complex(1.67705, 0.43301), abs=1e-5)
    assert d.lambda23[1] == pytest.approx(complex(1.67705, -0.43301), abs=1e-5)

    d0 = equilibrium_at(iso(), 0.0, "-")
    assert d0.lambda1 == pytest.approx(-math.sqrt(10.0), rel=1e-10)
    assert d0.lambda23[0] == pytest.approx(complex(0.79057, 2.52488), abs=1e-5)

    sad = equilibrium_at(yoshida(), 0.0, "-")
    assert sad.lambda1 == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-10)
    assert sad.lambda23[0] == pytest.approx(3.09167, abs=1e-5)
    assert sad.lambda23[1] == pytest.approx(-0.97035, abs=1e-5)


@pytest.mark.parametrize("b, v_star, c, kind", [
    (-2.0, 1.0, 0.0, "node"),         # p = 0 and c = 0: a double zero
    (-2.0, 1.0, -4.0, "saddle"),      # p = 0: roots +-2
    (-2.0, 1.0, 4.0, "center"),       # p = 0: roots +-2i
    (-1.0, 1e-323, 0.0, "node"),      # -(p + sq)/2 underflows to 0
])
def test_degenerate_rest_point_spectra_match_numpy(b, v_star, c, kind):
    lam1, roots, got_kind = flow._eigen_data(b, v_star, c)
    assert lam1 == -b * v_star and got_kind == kind
    p = (b / 2.0 + 1.0) * v_star
    key = lambda z: (-z.real, -z.imag)
    want = sorted(np.roots([1.0, p, c]).astype(complex).tolist(), key=key)
    assert sorted(roots, key=key) == pytest.approx(want, abs=1e-15)


def test_plus_equilibria_mirror_the_minus_spectrum():
    for pot in (iso(), yoshida()):
        eqs = find_equilibria(pot)
        for minus in (e for e in eqs if e.sign == "-"):
            plus = equilibrium_at(pot, minus.theta_c, "+")
            assert plus.lambda1 == pytest.approx(-minus.lambda1, rel=1e-12)
            key = lambda z: (z.real, z.imag)
            got = sorted((plus.lambda23[0], plus.lambda23[1]), key=key)
            want = sorted((-minus.lambda23[0], -minus.lambda23[1]), key=key)
            for g, w in zip(got, want):
                assert g == pytest.approx(w, abs=1e-10)


def test_linearization_residuals_and_symmetric_functions():
    for pot in (iso(), yoshida()):
        for eq in find_equilibria(pot):
            lin = linearize(eq, pot)
            assert lin.eig_residual <= 1e-10
            assert lin.charpoly_residual <= 1e-10
            j = pot.V(eq.theta_c)
            l2, l3 = lin.lambda23
            assert (l2 * l3).real == pytest.approx(float(j.d2), rel=1e-10, abs=1e-10)
            assert (l2 + l3).real == pytest.approx(
                -(pot.beta / 2.0 + 1.0) * eq.v_star, rel=1e-10, abs=1e-10
            )
            # transversality: the lambda1 eigenvector (0,1,0) meets
            # grad z = (V', v*, 0) with inner product v* != 0
            assert abs(eq.v_star) > 1e-6
            assert lin.eigvec1 == (0.0, 1.0, 0.0)


# ---------------------------------------------------------------------------
# separatrix tracing


def test_tracing_requires_a_saddle():
    with pytest.raises(NotSaddleError):
        trace_invariant_manifold(equilibrium_at(iso(), 0.0, "-"), iso(), ("unstable", "+"))


def test_zero_offset_trace_never_leaves_the_rest_point():
    pot = yoshida()
    eq = equilibrium_at(pot, 0.0, "-")
    tr = trace_invariant_manifold(eq, pot, ("unstable", "+"), offset=0.0)
    assert tr.reason == "reached_equilibrium"
    assert len(tr) == 1


def test_isosceles_unstable_branch_spirals_into_the_focus():
    # the separatrix of the saddle over theta* = -pi/4 winds onto the focus
    # over theta = 0, realizing the twisting the certificate's assumption 6
    # predicts
    pot = iso()
    eq = equilibrium_at(pot, -math.pi / 4.0, "+")
    tr = trace_invariant_manifold(eq, pot, ("unstable", "+"))
    sp = tr.spiral
    assert sp is not None
    assert sp.captured
    assert sp.target_theta == pytest.approx(0.0, abs=1e-10)
    assert sp.target_v_star > 0.0
    assert sp.terminal_distance <= 1e-9
    assert sp.min_distance <= 1e-9
    assert sp.swept_angle >= 4.0 * math.pi
    # the absolute-coordinate winding sits near 33.4 pi, far beyond the
    # spiral threshold; the focal continuation only adds to it
    assert 31.0 * math.pi <= sp.absolute_angle <= 35.0 * math.pi
    assert sp.swept_angle >= sp.absolute_angle


def test_yoshida_stable_branch_winds_onto_the_lower_focus():
    pot = yoshida()
    eq = equilibrium_at(pot, 0.0, "-")
    tr = trace_invariant_manifold(eq, pot, ("stable", "+"))
    sp = tr.spiral
    assert sp.captured
    assert sp.target_theta == pytest.approx(math.pi / 4.0, abs=1e-10)
    assert sp.target_v_star < 0.0
    assert sp.terminal_distance <= 1e-9
    # double precision supports ~1.2 asymptotic turns here (the focus ratio
    # |Im/Re| = 0.2582 contracts e^{24.3} per turn); measured 2.37 pi in
    # absolute coordinates, which the focal continuation only adds to
    assert 2.2 * math.pi <= sp.absolute_angle <= 2.55 * math.pi
    assert sp.swept_angle >= sp.absolute_angle


def test_yoshida_unstable_branch_measures_the_deepest_winding():
    pot = yoshida()
    eq = equilibrium_at(pot, 0.0, "-")
    tr = trace_invariant_manifold(eq, pot, ("unstable", "+"))
    sp = tr.spiral
    assert sp.captured
    assert sp.target_v_star > 0.0
    assert 3.2 * math.pi <= sp.absolute_angle <= 3.55 * math.pi
    assert sp.swept_angle >= sp.absolute_angle


@pytest.mark.parametrize("pot_name, theta, sign, branch", [
    ("yoshida_g", 0.0, "-", ("unstable", "+")),
    ("yoshida_g", 0.0, "-", ("stable", "+")),
    ("isosceles", -math.pi / 4.0, "+", ("unstable", "+")),
])
def test_focal_continuation_does_not_depend_on_the_handoff(pot_name, theta, sign, branch,
                                                          monkeypatch):
    # handing off at a rest-point speed of 1e-10 (distance ~3e-11) or 1e-14
    # (~5e-15) moves the split between the absolute and the continued phase
    # by whole turns, but the total winding and the final log-distance must
    # not move
    pot = yoshida() if pot_name == "yoshida_g" else iso()
    eq = equilibrium_at(pot, theta, sign)
    monkeypatch.setattr(flow, "_TRACE_EQ_TOL", 1e-10)
    early = trace_invariant_manifold(eq, pot, branch).spiral
    monkeypatch.setattr(flow, "_TRACE_EQ_TOL", 1e-14)
    late = trace_invariant_manifold(eq, pot, branch).spiral
    for sp in (early, late):
        assert sp.handoff_distance is not None
        assert sp.continued_angle > 0.0
    assert early.absolute_angle < late.absolute_angle - 0.1
    assert abs(early.swept_angle - late.swept_angle) <= 0.05
    assert abs(early.log_terminal_distance - late.log_terminal_distance) <= 0.5


@pytest.mark.parametrize("pot_name, theta, sign, branch", [
    ("isosceles", -math.pi / 4.0, "+", ("unstable", "+")),
    ("yoshida_g", 0.0, "-", ("unstable", "+")),
    ("yoshida_g", 0.0, "-", ("stable", "+")),
])
def test_each_step_of_a_separatrix_turns_less_than_half_a_turn(pot_name, theta, sign, branch):
    # _signed_phase unwraps atan2(w, theta - theta_c) node by node, which
    # counts the winding right only while no step turns by pi or more.
    # Sixteen dense-output samples per step resolve each step's turn
    # (measured at most 1.98 rad, on isosceles, with DOP853's long steps),
    # and the resolved winding must equal the unwrapped one
    pot = yoshida() if pot_name == "yoshida_g" else iso()
    tr = trace_invariant_manifold(equilibrium_at(pot, theta, sign), pot, branch)
    sp = tr.spiral
    target = equilibrium_at(pot, sp.target_theta, "+" if sp.target_v_star > 0.0 else "-")
    center = flow._nearest_center(pot, float(tr.thetas[-1]), target)
    m, taus = 16, tr.taus
    x = np.arange(m) / m
    fine = tr.sample(np.append((taus[:-1, None] + np.diff(taus)[:, None] * x).ravel(), taus[-1]))
    phase = np.unwrap(np.arctan2(fine[:, 2], fine[:, 0] - center))
    assert np.max(np.abs(np.diff(phase))) < 0.5
    assert np.max(np.abs(np.diff(phase[::m]))) < math.pi
    assert phase[-1] - phase[0] == pytest.approx(
        flow._signed_phase(tr.thetas, tr.ws, center), rel=0.0, abs=1e-9)


def test_focal_continuation_engages_only_near_an_attracting_focus(monkeypatch):
    pot = yoshida()
    eq = equilibrium_at(pot, 0.0, "-")
    # a trace that never leaves its saddle, and one handed off too far out
    # for the linear model (distance ~5e-9), keep the absolute result
    still = trace_invariant_manifold(eq, pot, ("unstable", "+"), offset=0.0).spiral
    monkeypatch.setattr(flow, "_TRACE_EQ_TOL", 1e-8)
    far = trace_invariant_manifold(eq, pot, ("unstable", "+")).spiral
    monkeypatch.undo()
    for sp in (still, far):
        assert sp.handoff_distance is None
        assert sp.continued_angle == 0.0
        assert sp.swept_angle == sp.absolute_angle
    sp = trace_invariant_manifold(eq, pot, ("unstable", "+")).spiral
    assert sp.handoff_distance <= flow.LINEAR_HANDOFF
    # the continued phase turns |Im/Re| = 0.2582 rad per e-fold of contraction
    efolds = math.log(sp.handoff_distance) - sp.log_terminal_distance
    assert sp.continued_angle / efolds == pytest.approx(0.4330127 / 1.6770510, rel=1e-2)


def test_spiral_diagnostics_serialize():
    pot = yoshida()
    eq = equilibrium_at(pot, 0.0, "-")
    tr = trace_invariant_manifold(eq, pot, ("stable", "-"))
    d = tr.spiral.to_dict()
    assert set(d) == {"target_theta", "target_v_star", "swept_angle",
                      "min_distance", "terminal_distance", "captured"}


# ---------------------------------------------------------------------------
# Cartesian flow and the beta = -2 witness


def test_cartesian_field_is_hamiltonian_in_form():
    f = cartesian_vector_field((0.3, -0.7), (1.1, 0.4), iso())
    assert f[0] == 0.3 and f[1] == -0.7
    f2 = cartesian_vector_field((0.0, 0.0), (1.0, 0.0), yoshida())
    # -grad U(1, 0) = -(beta V(0), V'(0)) = (1, 0)
    assert f2[2] == pytest.approx(1.0, abs=1e-12)
    assert f2[3] == pytest.approx(0.0, abs=1e-12)


def test_cartesian_hamiltonian_is_conserved():
    pot = iso()
    rng = np.random.default_rng(77)
    checked = 0
    for _ in range(8):
        th = float(rng.uniform(-0.7, 0.7))
        r0 = float(rng.uniform(0.9, 1.4))
        q = np.array([r0 * math.cos(th), r0 * math.sin(th)])
        p = rng.uniform(-1.0, 1.0, size=2) + 3.0 * q / np.linalg.norm(q)
        tr = integrate_cartesian(p, q, pot, (0.0, 10.0))
        if tr.reason != "span_end":
            continue
        H = tr.hamiltonian()
        assert np.max(np.abs(H - H[0])) <= 1e-8 * abs(H[0])
        checked += 1
    assert checked >= 3


def test_beta_minus_two_quadratic_integral_is_conserved():
    pot = expr_pot("cos(2*theta)-2", beta=-2.0)
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(8):
        th = float(rng.uniform(0.0, 2.0 * math.pi))
        r0 = float(rng.uniform(0.9, 1.6))
        q = np.array([r0 * math.cos(th), r0 * math.sin(th)])
        p = rng.uniform(-1.2, 1.2, size=2) + 2.2 * q / np.linalg.norm(q)
        tr = integrate_cartesian(p, q, pot, (0.0, 8.0))
        if tr.reason != "span_end":
            continue
        H0 = 0.5 * float(p @ p) + float(pot.U(q))
        G0 = float(q @ p) ** 2 - 2.0 * float(q @ q) * H0
        assert check_beta_minus2_integral(tr) <= 1e-8 * abs(G0)
        checked += 1
    assert checked >= 3


def test_radial_launch_reduces_g_to_its_angular_free_part():
    pot = expr_pot("cos(2*theta)-2", beta=-2.0)
    q = np.array([1.3, 0.4])
    H0 = float(pot.U(q))
    # with q.p = 0 the integral starts at -2 |q|^2 H
    tr = integrate_cartesian((0.0, 0.0), q, pot, (0.0, 0.1))
    G = (np.sum(tr.qs * tr.ps, axis=1) ** 2
         - 2.0 * np.sum(tr.qs**2, axis=1) * tr.hamiltonian())
    assert G[0] == pytest.approx(-2.0 * float(q @ q) * H0, rel=1e-12)


def test_quadratic_integral_check_discriminates_other_degrees():
    pot = expr_pot("cos(2*theta)-2", beta=-1.0)
    q = np.array([1.2, 0.3])
    p = np.array([1.9, 0.8])
    tr = integrate_cartesian(p, q, pot, (0.0, 8.0))
    assert tr.reason == "span_end"
    H0 = 0.5 * float(p @ p) + float(pot.U(q))
    G0 = float(q @ p) ** 2 - 2.0 * float(q @ q) * H0
    assert check_beta_minus2_integral(tr) > 1e-3 * abs(G0)
