"""Non-integrability certificates for planar homogeneous-potential flows.

A certificate is built from a triple of consecutive critical angles of V
(the outer two must be strict local maxima; the middle one carries the
curvature condition).  Six assumptions are checked numerically, each reduced
to a single signed margin; the triple certifies meromorphic
non-integrability exactly when all six margins clear ``strictness_tol``.  Margins inside the tolerance band are
never promoted to a verdict: the certificate comes back ``Inconclusive`` with
the ``boundary`` flag set.

The scan's critical angles are read by position; on a circle the first two
are appended once more, one revolution on.  Triple i is angles i, i+1 and
i+2, and it reads arcs i and i+1, arc k being the stretch from angle k to
angle k+1.  V is sampled once per arc: one grid gives the arc's extremes
of V and min |V'| inside it, and the grids of all arcs are one array call
of V.  On a circle of n angles, arc n is arc 0 one revolution on and reads
arc 0's row.  The jets at the angles are those the scan took, except at
the two angles one revolution on, and the assumptions are judged from
those numbers.  With
``allow_sign_flip``, when no triple certifies V and V > 0 on the sampled
span of some candidate triple, the same measurements are judged for -V:
negation maps them to those of -V exactly, so this route evaluates V no
further.  A certificate obtained that way is tagged ``kind="complexified"``
because it pertains to the analytically continued system and asserts
(rather than verifies) analyticity along the continued orbit.
"""
from __future__ import annotations

import json
import math
import operator
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .critical import critical_jet, find_critical_points
from .errors import DomainViolationError, McGeheeError, UnboundParameterError
from .expr import shared_tables
from .potentials import TWO_PI, Jet2, Potential, PotentialSpec, compile_potential, reading

__all__ = [
    "AssumptionReport",
    "Certificate",
    "CertifyOptions",
    "SweepResult",
    "certify",
    "check_triple",
    "sweep_threshold",
]


# distance of beta from {-2, 0} that assumption 1 must clear
_BETA_TOL = 1e-9
# points of the grid of one arc, ends included: 4 * 257 steps (see _arcs)
_ARC_GRID = 4 * 257 + 1
# assumption-6 margins within this of the best tie: symmetric triples differ
# only by rounding, and the smallest theta_-1 among them is reported
_TIE_TOL = 1e-12
# relative floor of a threshold bracket: a few ulps of its ends
_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class CertifyOptions:
    strictness_tol: float = 1e-9     # margins must clear this to count
    allow_sign_flip: bool = False


@dataclass(frozen=True)
class AssumptionReport:
    index: int        # 1..6
    satisfied: bool
    margin: float     # positive clearance when satisfied
    detail: str

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "satisfied": self.satisfied,
            "margin": self.margin,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class Certificate:
    conclusion: str                  # "NonIntegrable" | "Inconclusive"
    kind: str                        # "direct" | "complexified"
    beta: float
    triple: tuple[float, float, float] | None
    assumptions: tuple[AssumptionReport, ...]
    potential: dict
    boundary: bool = False
    complex_analyticity_asserted: bool = field(default=False)
    # > 0 exactly when the conclusion is NonIntegrable; smooth along a family
    # while the deciding assumption and triple stay the same, so sweeps
    # locate thresholds as its roots
    decision_margin: float = field(default=-math.inf, compare=False)

    def to_dict(self) -> dict:
        return {
            "conclusion": self.conclusion,
            "kind": self.kind,
            "beta": self.beta,
            "triple": list(self.triple) if self.triple is not None else None,
            "assumptions": [a.to_dict() for a in self.assumptions],
            "potential": self.potential,
            "boundary": self.boundary,
            "complex_analyticity_asserted": self.complex_analyticity_asserted,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


class _Measurement(NamedTuple):
    """Everything the six assumptions read off one triple of V."""

    triple: tuple[float, float, float]
    jets: tuple[Jet2, Jet2, Jet2]    # at theta_-1, theta_0, theta_1
    vmax: float                      # extremes of V over the grids of both arcs
    vmin: float
    m4: float                        # min |V'| inside both arcs

    def negated(self) -> "_Measurement":
        """The measurement of -V, exact: negation rounds nothing."""
        jets = tuple(Jet2(-j.val, -j.d1, -j.d2) for j in self.jets)
        return self._replace(jets=jets, vmax=-self.vmin, vmin=-self.vmax)


def _arcs(pot: Potential, ends: dict) -> dict:
    """Max V and min V over the grid of each arc (a, b) in ``ends``, ends
    included, and min |V'| over every 4th interior point, from one call of
    V that reads V and V' alone, under the same keys; a failing call
    raises.  Row i of the grid is ``linspace(a_i, b_i, _ARC_GRID)`` bit for
    bit, and C-contiguous, so each row reduces as fast as one arc.
    1028 = 4 * 257 steps and a step divides by 4 exactly, so the points read
    for |V'| are ``linspace(a, b, 258)[1:-1]`` bit for bit.  An arc is
    shorter than its triple's span, so arc/1028 < span/1023: V is sampled
    at least as densely as on a 1024-point grid of the span, and at the
    critical angles themselves."""
    a, b = (np.array(x) for x in zip(*ends.values()))
    grid = np.arange(_ARC_GRID, dtype=float) * ((b - a) / (_ARC_GRID - 1))[:, None] + a[:, None]
    grid[:, -1] = b
    with reading("val", "d1"):
        jet = pot.V(grid)
    rows = zip(jet.val.max(axis=1).tolist(), jet.val.min(axis=1).tolist(),
               np.abs(jet.d1[:, 4:-1:4]).min(axis=1).tolist())
    return dict(zip(ends, rows))


def _measure(triple: tuple[float, float, float], jets, arcs) -> _Measurement:
    """A triple's measurement from its jets and its two ``_arcs`` rows."""
    vmax, vmin, m4 = zip(*arcs)
    return _Measurement(triple, jets, max(vmax), min(vmin), min(m4))


def _margins(beta: float, m: _Measurement) -> tuple[float, ...]:
    """The six margins of the assumptions, in their order."""
    (tm, t0, tp), (jm, j0, jp) = m.triple, m.jets
    return (
        min(abs(beta + 2.0), abs(beta)),
        min(t0 - tm, tp - t0),
        -m.vmax,
        m.m4,
        min(-float(jm.d2), -float(jp.d2)),
        float(j0.d2) + (beta + 2.0) ** 2 * float(j0.val) / 8.0,
    )


def _bars(opts: CertifyOptions) -> tuple[float, ...]:
    """What each margin must clear: ``_BETA_TOL`` for the degree,
    ``strictness_tol`` for the other five."""
    return (_BETA_TOL,) + (opts.strictness_tol,) * 5


def _judge(beta: float, m: _Measurement, opts: CertifyOptions) -> tuple[AssumptionReport, ...]:
    """The six reports of a measurement: each assumption holds when its
    margin clears its bar."""
    (tm, t0, tp), (jm, _, jp) = m.triple, m.jets
    margins = _margins(beta, m)
    d1 = f"beta = {beta} at distance {margins[0]:.3e} from the excluded degrees -2 and 0"
    if abs(beta + 2.0) <= _BETA_TOL:
        d1 += "; degree -2 carries the global quadratic integral (q.p)^2 - 2|q|^2 H"
    details = (
        d1,
        f"ordering gaps ({t0 - tm:.6g}, {tp - t0:.6g})",
        f"max V on [theta_-1, theta_1] = {m.vmax:.6g}",
        f"min |V'| over open subintervals = {m.m4:.6g}",
        f"V''(theta_-1) = {float(jm.d2):.6g}, V''(theta_1) = {float(jp.d2):.6g}",
        f"V''(theta_0) + (beta+2)^2 V(theta_0)/8 = {margins[5]:.6g}",
    )
    return tuple(AssumptionReport(i, margin > bar, margin, detail)
                 for i, (margin, bar, detail) in enumerate(zip(margins, _bars(opts), details), 1))


def check_triple(
    pot: Potential,
    triple: tuple[float, float, float],
    opts: CertifyOptions = CertifyOptions(),
) -> tuple[AssumptionReport, ...]:
    """Evaluate all six assumptions for an ordered candidate triple.

    Angles must satisfy theta_-1 < theta_0 < theta_1 <= theta_-1 + 2*pi; on a
    periodic domain the outer pair may be the same critical angle seen one
    revolution apart.  Every angle must actually be a critical point of V.
    """
    tm, t0, tp = (float(t) for t in triple)
    if not (tm < t0 < tp):
        raise DomainViolationError(f"triple {triple} is not strictly increasing")
    if tp - tm > TWO_PI + 1e-12:
        raise DomainViolationError(f"triple {triple} spans more than one revolution")
    jets = tuple(critical_jet(pot, t)[1] for t in (tm, t0, tp))
    arcs = _arcs(pot, {0: (tm, t0), 1: (t0, tp)})
    return _judge(pot.beta, _measure((tm, t0, tp), jets, arcs.values()), opts)


class _Scored(NamedTuple):
    """A measurement, its six margins and how many of them clear their bars."""

    m: _Measurement
    margins: tuple[float, ...]
    passed: int


def _score(beta: float, m: _Measurement, bars: tuple[float, ...]) -> _Scored:
    margins = _margins(beta, m)
    return _Scored(m, margins, sum(map(operator.gt, margins, bars)))


def _slack(scored: list[_Scored], bars: tuple[float, ...]) -> float:
    """How far the best triple clears all six bars: the max over triples of
    the min over margins of ``margin - bar``.  A NaN margin, or no triple,
    gives -inf.  ``margin > bar`` iff ``margin - bar > 0`` in doubles, so
    the slack is positive exactly when some triple satisfies all six."""
    def triple_slack(s: _Scored) -> float:
        gaps = list(map(operator.sub, s.margins, bars))
        return -math.inf if any(map(math.isnan, gaps)) else min(gaps)
    return max(map(triple_slack, scored), default=-math.inf)


def _pick(scored: list[_Scored]) -> _Scored:
    """The triple with the largest assumption-6 margin; margins within
    ``_TIE_TOL`` of it tie, and the smallest theta_-1 among them wins."""
    best = max(s.margins[5] for s in scored)
    return min(scored, key=lambda s: (s.margins[5] < best - _TIE_TOL, s.m.triple[0]))


def certify(pot: Potential, opts: CertifyOptions = CertifyOptions()) -> Certificate:
    """Search the critical-point triples of V for a non-integrability witness.

    Returns the certificate with the largest assumption-6 margin among fully
    satisfied triples, else the nearest miss marked ``Inconclusive``: the
    largest assumption-6 margin among the triples that satisfy the most
    assumptions.  Either pick breaks ties as ``_pick`` does.  The
    sign-flip route judges the same measurements negated: negation leaves
    the zeros of V' bit for bit where they are, so one scan and one
    evaluation per arc serve both routes.  Triples are ranked on their
    margins alone; only the returned one gets its reports.

    ``decision_margin`` is the ``_slack`` of the route that certified, else
    the larger slack of the routes tried, so it is positive exactly when
    the conclusion is NonIntegrable.
    """
    echo = pot.spec.to_dict()
    cps = find_critical_points(pot)
    bars = _bars(opts)
    # the critical angles by position, with their jets: the scan's, and on a
    # circle critical_jet's at theta_0 and theta_1 one revolution on.  An
    # angle there that fails it ends the list: the triples that read it drop
    n = len(cps)
    t, jets = [c.theta for c in cps], [c.jet for c in cps]
    if pot.domain.periodic and n >= 2:
        for c in cps[:2]:
            try:
                jets.append(critical_jet(pot, c.theta + TWO_PI)[1])
            except McGeheeError:
                break
            t.append(c.theta + TWO_PI)

    # triple i is t[i:i+3] and reads arcs i and i+1; arc k is t[k:k+2], keyed
    # k % n, so on a circle arc n is arc 0 seen one revolution on and is
    # sampled once.  All arcs are sampled in one call of V; when that fails,
    # each arc is sampled on its own, and a failing arc drops the triples
    # that read it
    triples = range(len(t) - 2)
    ends = {k: (t[k], t[k + 1]) for k in range(min(len(t) - 1, n))}
    try:
        arcs = _arcs(pot, ends) if triples else {}
    except McGeheeError:
        arcs = {}
        for key, arc in ends.items():
            try:
                arcs.update(_arcs(pot, {key: arc}))
            except McGeheeError:
                continue

    measured = [_measure(tuple(t[i:i + 3]), tuple(jets[i:i + 3]),
                         (arcs[i % n], arcs[(i + 1) % n]))
                for i in triples if i % n in arcs and (i + 1) % n in arcs]

    def certificate(flipped: bool, conclusion: str, slack: float, picked=None,
                    boundary=False):
        return Certificate(
            conclusion=conclusion,
            kind="complexified" if flipped else "direct",
            beta=pot.beta,
            triple=None if picked is None else picked.m.triple,
            assumptions=() if picked is None else _judge(pot.beta, picked.m, opts),
            potential=echo,
            boundary=boundary,
            complex_analyticity_asserted=flipped,
            decision_margin=slack,
        )

    def winner(flipped: bool, scored: list[_Scored], slack: float):
        wins = [s for s in scored if s.passed == 6]
        if not wins:
            return None
        return certificate(flipped, "NonIntegrable", slack, _pick(wins))

    scored = [_score(pot.beta, m, bars) for m in measured]
    slack = _slack(scored, bars)
    cert = winner(False, scored, slack)
    if cert is None and opts.allow_sign_flip and any(m.vmin > 0.0 for m in measured):
        flipped = [_score(pot.beta, m.negated(), bars) for m in measured]
        flipped_slack = _slack(flipped, bars)
        cert = winner(True, flipped, flipped_slack)
        slack = max(slack, flipped_slack)
    if cert is not None:
        return cert

    picked = None
    if scored:
        most = max(s.passed for s in scored)
        picked = _pick([s for s in scored if s.passed == most])
    boundary = picked is not None and any(abs(margin) <= opts.strictness_tol
                                          for margin in picked.margins)
    return certificate(False, "Inconclusive", slack, picked, boundary)


@dataclass(frozen=True)
class SweepResult:
    param: str
    values: tuple[float, ...]
    conclusions: tuple[str, ...]     # per-sample conclusion or "error:<Type>"
    thresholds: tuple[float, ...]    # refined conclusion-change locations
    threshold_widths: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "param": self.param,
            "grid": [[v, c] for v, c in zip(self.values, self.conclusions)],
            "thresholds": list(self.thresholds),
            "threshold_widths": list(self.threshold_widths),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _certify_at(spec: PotentialSpec, param: str, value: float, opts: CertifyOptions) -> Certificate:
    return certify(compile_potential(spec.with_params(**{param: value})), opts)


def _zeroin(f, a: float, fa: float, b: float, fb: float, tol: float) -> tuple[float, float]:
    """Brent's zeroin on the sign of ``f`` (positive vs not) from a bracket
    (a, b) whose ends differ in it; returns the ends, both evaluated points,
    of a sign-change bracket at most ``tol`` wide (a few ulps, when ``tol``
    is below that).

    Inverse quadratic or secant steps are taken only while the three values
    kept are finite, else the step bisects, so -inf on one side is fine.  A
    ``McGeheeError`` from ``f`` stops the search at the current bracket.
    Brent, *Algorithms for Minimization without Derivatives* (1973), ch. 4.
    """
    c, fc = a, fa
    d = e = b - a
    while True:
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = max(0.5 * tol, 2.0 * _EPS * abs(b))
        m = 0.5 * (c - b)
        if abs(m) <= tol1:
            return min(b, c), max(b, c)
        bisect = True
        if abs(e) >= tol1 and abs(fa) > abs(fb) and all(map(math.isfinite, (fa, fb, fc))):
            s = fb / fa
            if a == c:   # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:        # inverse quadratic
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            p, q = (p, -q) if p > 0.0 else (-p, q)
            if 2.0 * p < min(3.0 * m * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
                bisect = False
        if bisect:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, m)
        try:
            fb = f(b)
        except McGeheeError:
            return min(a, c), max(a, c)


def sweep_threshold(
    spec: PotentialSpec,
    param: str,
    lo: float,
    hi: float,
    grid_m: int = 200,
    thresh_tol: float = 1e-9,
    opts: CertifyOptions = CertifyOptions(),
) -> SweepResult:
    """Locate conclusion changes of ``certify`` along a one-parameter family.

    The parameter range is sampled on a uniform grid; every change of the
    conclusion between valid neighbouring samples is sharpened by Brent's
    method on ``Certificate.decision_margin``, whose sign is the conclusion,
    to a bracket at most ``thresh_tol`` wide whose ends are both evaluated.
    Samples that fail to certify at all are recorded and excluded from
    bracketing; a failure inside a bracket stops its refinement there.

    The samples and the Brent steps run in one ``expr.shared_tables``
    scope: the members of the family evaluate V on the same scan grid,
    and on the same arc grids where the critical angles do not move with
    the parameter, so the parameter-free part of V is computed once per
    grid.  The scope ends with the sweep, and the results are bit for bit
    those of certifying each member on its own.
    """
    if spec.params is None or param not in spec.params:
        raise UnboundParameterError(f"'{param}' is not a parameter of the potential")
    if not (lo < hi):
        raise DomainViolationError(f"empty sweep range [{lo}, {hi}]")

    values = np.linspace(lo, hi, grid_m)
    with shared_tables():
        conclusions, margins = [], []
        for v in values:
            try:
                cert = _certify_at(spec, param, float(v), opts)
                conclusions.append(cert.conclusion)
                margins.append(cert.decision_margin)
            except McGeheeError as err:
                conclusions.append(f"error:{type(err).__name__}")
                margins.append(math.nan)

        def margin(value: float) -> float:
            return _certify_at(spec, param, value, opts).decision_margin

        thresholds: list[float] = []
        widths: list[float] = []
        for i in range(grid_m - 1):
            ca, cb = conclusions[i], conclusions[i + 1]
            if ca.startswith("error") or cb.startswith("error") or ca == cb:
                continue
            a, b = _zeroin(margin, float(values[i]), margins[i],
                           float(values[i + 1]), margins[i + 1], thresh_tol)
            thresholds.append(0.5 * (a + b))
            widths.append(b - a)
    return SweepResult(
        param=param,
        values=tuple(float(v) for v in values),
        conclusions=tuple(conclusions),
        thresholds=tuple(thresholds),
        threshold_widths=tuple(widths),
    )
