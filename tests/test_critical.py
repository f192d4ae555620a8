import math

import numpy as np
import pytest

from mcgehee.certify import CertifyOptions, certify, check_triple
from mcgehee.critical import bracketed_newton, critical_jet, find_critical_points
from mcgehee.flow import find_equilibria
from mcgehee.errors import DegeneratePotentialError, NotCriticalPointError, PoleEncounteredError
from mcgehee.morales import yoshida_lambda
from mcgehee.potentials import Potential, compile_potential, spec_from_dict


def builtin(name, **params):
    return compile_potential(spec_from_dict({"builtin": name, "params": params}))


def expr_pot(source, beta=-1.0, **kw):
    return compile_potential(spec_from_dict({"expr": source, "beta": beta, **kw}))


def test_yoshida_critical_points_sit_on_eighth_turns():
    pot = builtin("yoshida_g", epsilon=4.0)
    cps = find_critical_points(pot)
    assert len(cps) == 8
    for k, cp in enumerate(cps):
        assert cp.theta == pytest.approx(k * math.pi / 4.0, abs=1e-10)
    # epsilon > 1 flips the sign of the angular term: even eighth-turns are
    # maxima, odd ones minima
    assert [cp.kind for cp in cps] == ["maximum", "minimum"] * 4
    assert cps[0].value == pytest.approx(-0.25, abs=1e-14)
    assert cps[1].value == pytest.approx(-0.625, abs=1e-12)
    assert cps[0].curvature == pytest.approx(-3.0, rel=1e-9)
    assert cps[1].curvature == pytest.approx(3.0, rel=1e-9)


def test_yoshida_kinds_swap_when_epsilon_below_one():
    cps = find_critical_points(builtin("yoshida_g", epsilon=-0.5))
    assert [cp.kind for cp in cps] == ["minimum", "maximum"] * 4


def test_isosceles_has_symmetric_triple():
    cps = find_critical_points(builtin("isosceles", alpha=1.0))
    assert len(cps) == 3
    thetas = [cp.theta for cp in cps]
    assert thetas[0] == pytest.approx(-math.pi / 4.0, abs=1e-11)
    assert thetas[1] == pytest.approx(0.0, abs=1e-11)
    assert thetas[2] == pytest.approx(math.pi / 4.0, abs=1e-11)
    assert [cp.kind for cp in cps] == ["maximum", "minimum", "maximum"]
    assert cps[1].value == pytest.approx(-5.0, abs=1e-12)
    assert cps[1].curvature == pytest.approx(7.0, rel=1e-9)
    assert cps[2].value == pytest.approx(-3.0 * math.sqrt(2.0), rel=1e-12)


def test_isosceles_outer_angle_matches_scalar_bisection_oracle():
    alpha = 2.0
    cps = find_critical_points(builtin("isosceles", alpha=alpha))
    assert len(cps) == 3

    def vprime(t):
        return (
            -math.tan(t) / math.cos(t)
            + 4.0 * alpha**1.5 * math.sin(2.0 * t) / (alpha + 2.0 * math.sin(t) ** 2) ** 1.5
        )

    lo, hi = 0.1, 1.5
    assert vprime(lo) > 0.0 > vprime(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if vprime(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    assert cps[2].theta == pytest.approx(0.5 * (lo + hi), abs=1e-11)
    assert cps[0].theta == pytest.approx(-0.5 * (lo + hi), abs=1e-11)


@pytest.mark.parametrize(
    "pot",
    [
        builtin("yoshida_g", epsilon=2.0),
        builtin("isosceles", alpha=1.7),
        expr_pot("cos(theta) - 2"),
    ],
    ids=["yoshida", "isosceles", "shifted-cosine"],
)
def test_slope_keeps_one_sign_between_neighbours(pot):
    cps = find_critical_points(pot)
    thetas = [cp.theta for cp in cps]
    if pot.domain.periodic:
        thetas.append(thetas[0] + 2.0 * math.pi)
    for a, b in zip(thetas[:-1], thetas[1:]):
        inner = np.linspace(a, b, 66)[1:-1]
        signs = np.sign(pot.V(inner).d1)
        assert np.all(signs == signs[0])
        assert np.all(signs != 0)


def test_flat_angular_profile_is_rejected():
    with pytest.raises(DegeneratePotentialError):
        find_critical_points(builtin("yoshida_g", epsilon=1.0))
    with pytest.raises(DegeneratePotentialError):
        find_critical_points(expr_pot("0*theta - 1"))


def test_pole_on_the_scan_grid_names_the_angle():
    with pytest.raises(PoleEncounteredError) as exc:
        find_critical_points(expr_pot("sqrt(cos(theta))"))
    assert math.pi / 2.0 - 1e-2 < exc.value.theta < 3.0 * math.pi / 2.0 + 1e-2


def test_tangential_zero_is_not_detected():
    # V' = -3 cos^2(theta) sin(theta) touches zero at pi/2 without crossing;
    # the bracketing scan only sees the transversal zeros at 0 and pi.
    cps = find_critical_points(expr_pot("cos(theta)^3"))
    assert len(cps) == 2
    assert cps[0].theta == pytest.approx(0.0, abs=1e-11)
    assert cps[1].theta == pytest.approx(math.pi, abs=1e-11)
    assert [cp.kind for cp in cps] == ["maximum", "minimum"]


def test_scan_is_deterministic():
    a = find_critical_points(builtin("isosceles", alpha=3.0))
    b = find_critical_points(builtin("isosceles", alpha=3.0))
    assert [cp.theta for cp in a] == [cp.theta for cp in b]
    assert [cp.curvature for cp in a] == [cp.curvature for cp in b]


def test_a_potential_is_scanned_once(monkeypatch):
    pot = builtin("yoshida_g", epsilon=4.0)
    first = find_critical_points(pot)
    calls = []
    plain = Potential.V

    def counted(self, theta):
        calls.append(theta)
        return plain(self, theta)

    monkeypatch.setattr(Potential, "V", counted)
    second = find_critical_points(pot)
    assert calls == []
    assert second == first and second is not first


def test_a_failed_scan_is_not_stored():
    pot = expr_pot("0*theta - 2")
    for _ in range(2):
        with pytest.raises(DegeneratePotentialError):
            find_critical_points(pot)


def test_every_reported_angle_has_tiny_residual():
    for pot in (builtin("yoshida_g", epsilon=4.0), builtin("isosceles", alpha=5.0)):
        for cp in find_critical_points(pot):
            assert abs(pot.V(cp.theta).d1) <= 1e-9


def test_scan_keeps_the_jet_critical_jet_gives():
    # certify reads these jets in place of critical_jet's at the same angles
    for pot in (builtin("yoshida_g", epsilon=4.0), builtin("yoshida_h", epsilon=-0.5),
                builtin("isosceles", alpha=5.0), expr_pot("cos(theta) - 2 + 0.3*sin(3*theta)")):
        for cp in find_critical_points(pot):
            theta, jet = critical_jet(pot, cp.theta)
            assert theta == cp.theta
            assert [x.hex() for x in cp.jet] == [float(x).hex() for x in jet]


@pytest.mark.parametrize(
    "pot, count",
    [
        (builtin("yoshida_g", epsilon=0.3), 8),
        (builtin("yoshida_g", epsilon=4.0), 8),
        (builtin("isosceles", alpha=1.0), 3),
    ],
    ids=["yoshida-0.3", "yoshida-4", "isosceles-1"],
)
def test_roots_take_few_array_evaluations_after_the_grid(pot, count, monkeypatch):
    arrays = []
    plain = Potential.V

    def counted(self, theta):
        if isinstance(theta, np.ndarray):
            arrays.append(theta.size)
        return plain(self, theta)

    monkeypatch.setattr(Potential, "V", counted)
    assert len(find_critical_points(pot)) == count
    assert arrays[0] == 4096
    assert len(arrays) - 1 <= 4


def test_sign_change_across_a_pole_is_not_a_critical_point():
    # V' = 2 sin / cos^3 changes sign at the zeros 0, pi and at the poles
    # pi/2, 3 pi/2; only the zeros are critical points
    cps = find_critical_points(expr_pot("1/cos(theta)^2", beta=-2.0))
    assert [cp.theta for cp in cps] == pytest.approx([0.0, math.pi], abs=1e-12)
    assert [cp.kind for cp in cps] == ["minimum", "minimum"]


@pytest.mark.parametrize("scale", [1e-8, 1e-4, 1.0, 1e4, 1e8])
def test_criticality_scales_with_the_potential(scale):
    # Newton's residuals grow with V: at scale 1e8 they reach 6e-8, so an
    # absolute bound took every critical point for a pole.  The margins
    # scale with V too, so the strictness tolerance does
    pot = expr_pot(f"-{scale!r}*(2 + cos(2*theta) + 0.1*sin(3*theta))")
    assert len(find_critical_points(pot)) == 4 and len(find_equilibria(pot)) == 8
    cert = certify(pot, CertifyOptions(strictness_tol=1e-9 * scale))
    assert cert.conclusion == "NonIntegrable"
    assert cert.triple == pytest.approx((math.pi / 2, 3.0681422094548103, 3 * math.pi / 2))


def test_bracketed_newton_stops_clips_and_bisects():
    # bracket 0 starts on its zero; bracket 1 has its zero one ulp past its
    # upper end; bracket 2 is arctan, whose Newton step from 5 lands at -26
    zeros = np.array([0.5, math.nextafter(2.0, 3.0), 0.3])
    seen = [[], [], []]

    def fdf(t, i):
        for k, x in zip(i, t):
            seen[k].append(float(x))
        u = t - zeros[i]
        return np.where(i == 2, np.arctan(u), u), np.where(i == 2, 1.0 / (1.0 + u * u), 1.0)

    out = bracketed_newton(fdf, [0.0, 1.0, -4.0], [1.0, 2.0, 6.0], -1.0, [0.5, 1.5, 5.0])
    assert seen[0] == [0.5] and out[0] == 0.5
    assert seen[1] == [1.5, 2.0] and out[1] == 2.0
    assert seen[2][:2] == [5.0, 0.5]
    assert out[2] == pytest.approx(0.3, abs=4 * np.finfo(float).eps)


def test_certificates_and_yoshida_coefficients_share_the_criticality_rule():
    # |V'| = e at 0, pi and 2 pi: both accept an angle up to the same bound
    def pot(e):
        return expr_pot(f"-2 + 0.5*cos(theta) + {e!r}*sin(theta)")

    check_triple(pot(5e-9), (0.0, math.pi, 2.0 * math.pi))
    yoshida_lambda(pot(5e-9), 0.0)
    with pytest.raises(NotCriticalPointError):
        check_triple(pot(2e-8), (0.0, math.pi, 2.0 * math.pi))
    with pytest.raises(NotCriticalPointError):
        yoshida_lambda(pot(2e-8), 0.0)
