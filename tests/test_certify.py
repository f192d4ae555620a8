import json
import math
import sys

import numpy as np
import pytest

from mcgehee.certify import (
    _ARC_GRID,
    CertifyOptions,
    _arcs,
    _candidate_triples,
    _zeroin,
    certify,
    check_triple,
    sweep_threshold,
)
from mcgehee.critical import CriticalPoint, find_critical_points
from mcgehee.errors import (
    DegeneratePotentialError,
    DomainError,
    DomainViolationError,
    NotCriticalPointError,
    UnboundParameterError,
)
from mcgehee.potentials import BUILTINS, TWO_PI, compile_potential, spec_from_dict
from mcgehee.validate import random_trig_poly


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
    cert = certify(builtin("yoshida_h", epsilon=-0.5), CertifyOptions(allow_sign_flip=True))
    assert len(scans) == 1
    assert cert.conclusion == "NonIntegrable"
    # unary minus negates V, V' and V'' exactly, so -V compiled from source
    # is the reference for the complexified route
    negated = compile_potential(spec_from_dict({
        "expr": f"-({BUILTINS['yoshida_h'].source})", "beta": 4.0,
        "params": {"epsilon": -0.5},
    }))
    reference = certify(negated)
    assert reference.kind == "direct"
    assert (cert.conclusion, cert.triple) == (reference.conclusion, reference.triple)
    assert cert.assumptions == reference.assumptions


def test_sign_flip_evaluates_no_array_of_its_own(monkeypatch):
    potential = sys.modules["mcgehee.potentials"].Potential
    raw_V = potential.V
    arrays = []

    def counted(self, theta):
        if isinstance(theta, np.ndarray):
            arrays.append(theta.size)
        return raw_V(self, theta)

    monkeypatch.setattr(potential, "V", counted)
    assert certify(builtin("yoshida_h", epsilon=-0.5)).conclusion == "Inconclusive"
    direct = len(arrays)
    # a fresh potential, since a second certify of the same one reads the
    # stored scan
    flipped = certify(builtin("yoshida_h", epsilon=-0.5), CertifyOptions(allow_sign_flip=True))
    assert flipped.conclusion == "NonIntegrable"
    assert len(arrays) - direct == direct


def test_certify_samples_each_arc_once(monkeypatch):
    module = sys.modules["mcgehee.certify"]
    potential = sys.modules["mcgehee.potentials"].Potential
    raw_V = potential.V
    raw_jet = module.critical_jet
    scanning, arrays, jets = [False], [], []

    def counted(self, theta):
        if isinstance(theta, np.ndarray) and not scanning[0]:
            arrays.append(theta.size)
        return raw_V(self, theta)

    def counted_jet(*args, **kwargs):
        jets.append(1)
        return raw_jet(*args, **kwargs)

    def scan(*args, **kwargs):
        scanning[0] = True
        try:
            return find_critical_points(*args, **kwargs)
        finally:
            scanning[0] = False

    pot = builtin("yoshida_g", epsilon=4.0)
    angles = len(find_critical_points(pot))
    monkeypatch.setattr(potential, "V", counted)
    monkeypatch.setattr(module, "find_critical_points", scan)
    monkeypatch.setattr(module, "critical_jet", counted_jet)
    certify(pot, CertifyOptions(allow_sign_flip=True))
    # eight triples on the circle read eight arcs, all in one array call;
    # the last one reads (theta_0, theta_1) for the same arc seen one
    # revolution on.  Their 24 angles are 10 distinct ones: the scan has
    # the jets of eight, and theta_0, theta_1 one revolution on remain
    assert angles == 8
    assert arrays == [8 * _ARC_GRID]
    assert len(jets) <= 2


def test_a3_reads_v_at_the_critical_angles():
    # max V over the span is V(pi) = cos(2*pi) - 2 = -1 exactly, at theta_0
    reports = check_triple(expr_pot("cos(2*theta) - 2"),
                           (math.pi / 2, math.pi, 3 * math.pi / 2))
    assert reports[2].margin == 1.0


def test_arc_check_reads_the_256_point_grid():
    pots = (builtin("yoshida_g", epsilon=4.0), builtin("isosceles", alpha=1.0),
            expr_pot(random_trig_poly(np.random.default_rng(7))))
    for pot in pots:
        cps = find_critical_points(pot)
        arcs = {arc for tm, t0, tp in _candidate_triples(pot, cps)
                for arc in ((tm, t0), (t0, tp))}
        if pot.domain.periodic:
            first, second, last = cps[0].theta, cps[1].theta, cps[-1].theta
            assert {(last, first + TWO_PI), (first + TWO_PI, second + TWO_PI)} <= arcs
        for a, b in arcs:
            grid = np.linspace(a, b, 258)
            assert np.array_equal(np.linspace(a, b, _ARC_GRID)[::4], grid)
            d1 = pot.V(np.linspace(a, b, _ARC_GRID)).d1[4:-1:4]
            assert float(np.min(np.abs(d1))) == float(np.min(np.abs(pot.V(grid[1:-1]).d1)))


def test_batched_arcs_match_each_arc_bit_for_bit(monkeypatch):
    potential = sys.modules["mcgehee.potentials"].Potential
    raw_V = potential.V
    grids = []

    def seen(self, theta):
        grids.append(theta)
        return raw_V(self, theta)

    def bits(row):
        return [x.hex() for x in row]

    pots = (builtin("yoshida_g", epsilon=4.0), builtin("isosceles", alpha=1.0),
            expr_pot(random_trig_poly(np.random.default_rng(7))))
    for pot in pots:
        cps = find_critical_points(pot)
        ends = {arc: arc for tm, t0, tp in _candidate_triples(pot, cps)
                for arc in ((tm, t0), (t0, tp))}
        if pot.domain.periodic:
            first, second, last = cps[0].theta, cps[1].theta, cps[-1].theta
            assert {(last, first + TWO_PI), (first + TWO_PI, second + TWO_PI)} <= set(ends)
            # an arc whose 1028 steps from a miss b by rounding
            odd = (0.36414910745086726, 1.614495462956232)
            assert 1028 * ((odd[1] - odd[0]) / 1028) + odd[0] != odd[1]
            ends[odd] = odd
        grids.clear()
        with monkeypatch.context() as m:
            m.setattr(potential, "V", seen)
            rows = _arcs(pot, ends)
        # one C-contiguous grid whose rows are the arcs' own grids
        (grid,) = grids
        assert grid.flags.c_contiguous
        assert list(rows) == list(ends)
        for i, (a, b) in enumerate(ends.values()):
            assert np.array_equal(grid[i], np.linspace(a, b, _ARC_GRID))
            jet = raw_V(pot, np.linspace(a, b, _ARC_GRID))
            alone = (np.max(jet.val), np.min(jet.val), np.min(np.abs(jet.d1[4:-1:4])))
            assert bits(rows[a, b]) == bits(map(float, alone))


def test_a_failing_arc_drops_the_triples_that_read_it(monkeypatch):
    module = sys.modules["mcgehee.certify"]
    potential = sys.modules["mcgehee.potentials"].Potential
    raw_V, raw_measure = potential.V, module._measure
    pot = builtin("yoshida_g", epsilon=4.0)
    cps = find_critical_points(pot)
    a, b = cps[3].theta, cps[4].theta
    measured = []

    def failing(self, theta):
        # only the grid of the arc (a, b) holds both of its ends
        if isinstance(theta, np.ndarray) and (theta == a).any() and (theta == b).any():
            raise DomainError("the arc (a, b) fails")
        return raw_V(self, theta)

    def measure(*args):
        m = raw_measure(*args)
        measured.append(m.triple)
        return m

    monkeypatch.setattr(potential, "V", failing)
    monkeypatch.setattr(module, "_measure", measure)
    cert = certify(pot)
    # the one call of V for all arcs fails, each arc is then sampled on its
    # own, and the two triples around (a, b) are dropped
    triples = _candidate_triples(pot, cps)
    assert measured == [t for t in triples if (a, b) not in ((t[0], t[1]), (t[1], t[2]))]
    assert len(measured) == len(triples) - 2
    assert cert.triple in measured


def test_candidate_triples_enumeration():
    circle, interval = expr_pot("cos(theta) - 2"), builtin("isosceles", alpha=1.0)

    def triples(pot, *thetas):
        return _candidate_triples(pot, [CriticalPoint(t, -1.0, 0.0, "degenerate")
                                        for t in thetas])

    assert triples(circle, 1.0) == []
    assert triples(circle, 1.0, 2.0) == [(1.0, 2.0, 1.0 + TWO_PI),
                                         (2.0, 1.0 + TWO_PI, 2.0 + TWO_PI)]
    assert triples(circle, 1.0, 2.0, 3.0) == [(1.0, 2.0, 3.0), (2.0, 3.0, 1.0 + TWO_PI),
                                              (3.0, 1.0 + TWO_PI, 2.0 + TWO_PI)]
    assert triples(interval, -1.0, 0.0) == []
    assert triples(interval, -1.0, 0.0, 1.0) == [(-1.0, 0.0, 1.0)]
    assert triples(interval, -1.0, -0.5, 0.5, 1.0) == [(-1.0, -0.5, 0.5), (-0.5, 0.5, 1.0)]


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


@pytest.mark.parametrize("name", ["yoshida_g", "yoshida_h"])
def test_yoshida_reports_the_tied_triple_with_the_smallest_first_angle(name):
    # V repeats every quarter turn, so triples a quarter turn apart tie up to
    # rounding in the last bits of their roots; the reported one must not
    # depend on those bits, and starts at 0 or pi/4
    for eps in np.linspace(-0.9, 10.0, 40):
        for flip in (False, True):
            cert = certify(builtin(name, epsilon=float(eps)), CertifyOptions(allow_sign_flip=flip))
            assert cert.triple[0] < math.pi / 2, (eps, flip, cert.conclusion, cert.triple)


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


def test_decision_margin_sign_is_the_conclusion():
    cases = [(builtin(name, epsilon=float(eps)), flip)
             for name in ("yoshida_g", "yoshida_h")
             for eps in np.linspace(-0.9, 10.0, 40)
             for flip in (False, True)]
    cases += [(builtin("isosceles", alpha=float(a)), False) for a in np.linspace(1.0, 20.0, 20)]
    # margins of order 1e-17 to 1e-9 on both sides of the two quartic thresholds
    cases += [(builtin(name, epsilon=eps + d), flip)
              for name in ("yoshida_g", "yoshida_h")
              for eps in (-0.125, 25.0 / 7.0)
              for d in (-1e-9, 1e-9)
              for flip in (False, True)]
    conclusions = set()
    for pot, flip in cases:
        cert = certify(pot, CertifyOptions(allow_sign_flip=flip))
        conclusions.add(cert.conclusion)
        assert (cert.decision_margin > 0.0) == (cert.conclusion == "NonIntegrable"), (
            pot.spec, flip, cert.conclusion, cert.decision_margin)
    assert conclusions == {"NonIntegrable", "Inconclusive"}

    # a monotone V on an interval has no critical point, hence no triple
    empty = certify(compile_potential(spec_from_dict(
        {"expr": "-2 + 0.1*theta", "beta": -1.0, "domain": [0.2, 1.2]})))
    assert empty.triple is None
    assert empty.conclusion == "Inconclusive"
    assert empty.decision_margin == -math.inf
    assert "decision_margin" not in json.loads(empty.to_json())


def test_sweep_takes_few_certify_calls_per_threshold(monkeypatch):
    module = sys.modules["mcgehee.certify"]
    calls = []
    raw_certify = module.certify

    def counted(*args, **kwargs):
        calls.append(1)
        return raw_certify(*args, **kwargs)

    monkeypatch.setattr(module, "certify", counted)
    spec = spec_from_dict({"builtin": "isosceles", "params": {"alpha": 1.0}})
    result = sweep_threshold(spec, "alpha", 12.5, 14.5, grid_m=9, thresh_tol=1e-9)
    assert len(calls) <= 9 + 12
    assert len(result.thresholds) == 1
    assert abs(result.thresholds[0] - 55.0 / 4.0) <= 1e-8
    assert result.threshold_widths[0] <= 1e-9


def _zeroin_bracket(f, a, b, tol=1e-9):
    """Run _zeroin on (a, b); check the returned ends were evaluated and
    straddle the sign change, and return them."""
    seen = {a: f(a), b: f(b)}

    def recorded(x):
        seen[x] = f(x)
        return seen[x]

    lo, hi = _zeroin(recorded, a, seen[a], b, seen[b], tol)
    assert 0.0 < hi - lo <= tol
    assert (seen[lo] > 0.0) != (seen[hi] > 0.0)
    return lo, hi


def test_zeroin_brackets_a_smooth_root():
    lo, hi = _zeroin_bracket(lambda x: math.cos(x) - x, 0.0, 1.0)
    assert lo <= 0.7390851332151607 <= hi


def test_zeroin_brackets_a_kink():
    lo, hi = _zeroin_bracket(lambda x: min(x - 0.3, 0.01), 1.0, 0.0)
    assert lo <= 0.3 <= hi


def test_zeroin_bisects_when_one_side_is_minus_infinity():
    lo, hi = _zeroin_bracket(lambda x: x - 0.3 if x >= 0.4 else -math.inf, 0.0, 1.0)
    assert lo < 0.4 <= hi


def test_zeroin_ends_a_few_ulps_wide_when_tol_is_below_rounding():
    def f(x):
        return x - 13.749999998

    lo, hi = _zeroin(f, 12.5, f(12.5), 14.5, f(14.5), 0.0)
    assert lo <= 13.749999998 <= hi
    assert 0.0 < hi - lo <= 4.0 * sys.float_info.epsilon * hi


def test_zeroin_stops_at_the_bracket_a_failure_leaves():
    def f(x):
        if 0.45 < x < 0.55:
            raise DomainViolationError("no certificate here")
        return x - 0.5

    # the first secant step lands on 0.5 and fails: the bracket stays (0, 1)
    assert _zeroin(f, 0.0, f(0.0), 1.0, f(1.0), 1e-9) == (0.0, 1.0)


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
