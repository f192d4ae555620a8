import json
import math
import sys

import pytest

from mcgehee.certify import CertifyOptions, certify, check_triple, sweep_threshold
from mcgehee.critical import find_critical_points
from mcgehee.errors import (
    DegeneratePotentialError,
    DomainViolationError,
    NotCriticalPointError,
    UnboundParameterError,
)
from mcgehee.potentials import compile_potential, spec_from_dict


def builtin(name, **params):
    return compile_potential(spec_from_dict({"builtin": name, "params": params}))


def expr_pot(source, beta=-1.0):
    return compile_potential(spec_from_dict({"expr": source, "beta": beta}))


def test_isosceles_certifies_below_the_mass_threshold():
    cert = certify(builtin("isosceles", alpha=13.0))
    assert cert.conclusion == "NonIntegrable"
    assert cert.kind == "direct"
    assert cert.beta == -1.0
    assert cert.triple[1] == pytest.approx(0.0, abs=1e-11)
    assert all(a.satisfied for a in cert.assumptions)
    assert cert.assumptions[5].margin == pytest.approx(0.375, abs=1e-9)
    assert not cert.boundary


def test_isosceles_goes_inconclusive_above_the_mass_threshold():
    cert = certify(builtin("isosceles", alpha=14.0))
    assert cert.conclusion == "Inconclusive"
    assert cert.triple is not None
    assert cert.assumptions[5].satisfied is False
    assert cert.assumptions[5].margin == pytest.approx(-0.125, abs=1e-9)
    assert all(a.satisfied for a in cert.assumptions[:5])
    assert not cert.boundary


def test_exact_threshold_mass_raises_the_boundary_flag():
    # the curvature margin vanishes identically at alpha = 55/4
    cert = certify(builtin("isosceles", alpha=13.75))
    assert cert.conclusion == "Inconclusive"
    assert cert.boundary
    assert abs(cert.assumptions[5].margin) <= 1e-9


@pytest.mark.parametrize(
    "epsilon, margin",
    [(-0.5, 0.375), (4.0, 0.1875)],
)
def test_yoshida_margins(epsilon, margin):
    cert = certify(builtin("yoshida_g", epsilon=epsilon))
    assert cert.conclusion == "NonIntegrable"
    assert cert.assumptions[5].margin == pytest.approx(margin, abs=1e-9)
    # the certifying middle angle is a minimum of V on an odd eighth-turn
    k = round(cert.triple[1] / (math.pi / 4.0))
    assert k % 2 == (1 if epsilon > 1.0 else 0)


def test_yoshida_inside_the_gap_is_inconclusive():
    cert = certify(builtin("yoshida_g", epsilon=2.0))
    assert cert.conclusion == "Inconclusive"
    assert cert.assumptions[5].margin == pytest.approx(-0.6875, abs=1e-9)
    assert sum(a.satisfied for a in cert.assumptions) == 5


def test_two_critical_points_certify_through_the_wrap_triple():
    cert = certify(expr_pot("cos(theta) - 2"))
    assert cert.conclusion == "NonIntegrable"
    tm, t0, tp = cert.triple
    assert tm == pytest.approx(0.0, abs=1e-11)
    assert t0 == pytest.approx(math.pi, abs=1e-11)
    assert tp == pytest.approx(2.0 * math.pi, abs=1e-11)
    assert cert.assumptions[5].margin == pytest.approx(0.625, abs=1e-9)


def test_degree_minus_two_is_excluded_with_its_integral_named():
    cert = certify(expr_pot("cos(theta) - 2", beta=-2.0))
    assert cert.conclusion == "Inconclusive"
    first = cert.assumptions[0]
    assert first.satisfied is False
    assert "quadratic integral" in first.detail
    assert cert.boundary  # margin is exactly zero


def test_positive_potential_certifies_only_through_the_sign_flip():
    pot = builtin("yoshida_h", epsilon=4.0)
    direct = certify(pot)
    assert direct.conclusion == "Inconclusive"

    flipped = certify(pot, CertifyOptions(allow_sign_flip=True))
    assert flipped.conclusion == "NonIntegrable"
    assert flipped.kind == "complexified"
    assert flipped.complex_analyticity_asserted
    assert flipped.assumptions[5].margin == pytest.approx(0.1875, abs=1e-9)
    assert flipped.potential["builtin"] == "yoshida_h"


def test_sign_flip_reuses_the_direct_scan(monkeypatch):
    # the attribute mcgehee.certify is the re-exported function, so reach
    # the module through sys.modules
    module = sys.modules["mcgehee.certify"]
    scans = []

    def counted(*args, **kwargs):
        scans.append(1)
        return find_critical_points(*args, **kwargs)

    monkeypatch.setattr(module, "find_critical_points", counted)
    pot = builtin("yoshida_h", epsilon=-0.5)
    cert = certify(pot, CertifyOptions(allow_sign_flip=True))
    assert len(scans) == 1
    assert cert.conclusion == "NonIntegrable"
    assert cert.to_dict() == certify(pot.sign_flipped()).to_dict()


def test_sign_flip_does_not_touch_negative_potentials():
    plain = certify(builtin("isosceles", alpha=13.0))
    opted = certify(builtin("isosceles", alpha=13.0), CertifyOptions(allow_sign_flip=True))
    assert opted.kind == "direct"
    assert opted.assumptions[5].margin == plain.assumptions[5].margin


def test_degenerate_family_member_raises():
    with pytest.raises(DegeneratePotentialError):
        certify(builtin("yoshida_g", epsilon=1.0))


def test_check_triple_rejects_non_critical_angles():
    pot = builtin("isosceles", alpha=1.0)
    with pytest.raises(NotCriticalPointError):
        check_triple(pot, (-0.3, 0.0, 0.3))
    with pytest.raises(DomainViolationError):
        check_triple(pot, (0.5, 0.0, -0.5))
    with pytest.raises(DomainViolationError):
        check_triple(pot, (-0.25 * math.pi, 0.0, 1.6))


def test_certificate_serializes_to_json():
    cert = certify(builtin("isosceles", alpha=13.0))
    data = json.loads(cert.to_json())
    assert data["conclusion"] == "NonIntegrable"
    assert data["kind"] == "direct"
    assert data["beta"] == -1.0
    assert len(data["assumptions"]) == 6
    assert data["potential"]["builtin"] == "isosceles"
    assert data["potential"]["params"] == {"alpha": 13.0}
    assert len(data["triple"]) == 3


def test_certify_is_deterministic():
    a = certify(builtin("yoshida_g", epsilon=4.0))
    b = certify(builtin("yoshida_g", epsilon=4.0))
    assert a.triple == b.triple
    assert [x.margin for x in a.assumptions] == [x.margin for x in b.assumptions]


def test_sweep_pins_the_isosceles_threshold():
    spec = spec_from_dict({"builtin": "isosceles", "params": {"alpha": 1.0}})
    result = sweep_threshold(spec, "alpha", 12.5, 14.5, grid_m=9, thresh_tol=1e-9)
    assert result.conclusions[0] == "NonIntegrable"
    assert result.conclusions[-1] == "Inconclusive"
    assert len(result.thresholds) == 1
    assert result.thresholds[0] == pytest.approx(13.75, abs=1e-6)
    assert result.threshold_widths[0] <= 1e-9

    data = json.loads(result.to_json())
    assert data["param"] == "alpha"
    assert len(data["grid"]) == 9
    assert data["grid"][0] == [12.5, "NonIntegrable"]


def test_sweep_records_errors_without_bracketing_them():
    spec = spec_from_dict({"builtin": "yoshida_g", "params": {"epsilon": 0.0}})
    result = sweep_threshold(spec, "epsilon", 0.9, 1.1, grid_m=5, thresh_tol=1e-6)
    assert result.conclusions[2] == "error:DegeneratePotentialError"
    assert result.conclusions[0] == result.conclusions[-1] == "Inconclusive"
    # the degenerate sample never enters a bracket
    assert result.thresholds == ()


def test_sweep_validates_its_inputs():
    spec = spec_from_dict({"builtin": "isosceles", "params": {"alpha": 1.0}})
    with pytest.raises(UnboundParameterError):
        sweep_threshold(spec, "mass", 1.0, 2.0)
    with pytest.raises(DomainViolationError):
        sweep_threshold(spec, "alpha", 2.0, 1.0)
