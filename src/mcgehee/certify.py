"""Non-integrability certificates for planar homogeneous-potential flows.

A certificate is built from a triple of consecutive critical angles of V
(the outer two must be strict local maxima; the middle one carries the
curvature condition).  Six assumptions are checked numerically, each reduced
to a single signed margin; the triple certifies meromorphic
non-integrability exactly when all six margins clear ``strictness_tol``.  Margins inside the tolerance band are
never promoted to a verdict: the certificate comes back ``Inconclusive`` with
the ``boundary`` flag set.

For potentials that are positive over a candidate triple, the same test can
be applied to -V; a certificate obtained that way is tagged
``kind="complexified"`` because it pertains to the analytically continued
system and asserts (rather than verifies) analyticity along the continued
orbit.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .critical import CriticalPoint, find_critical_points
from .errors import (
    DomainViolationError,
    McGeheeError,
    NotCriticalPointError,
    UnboundParameterError,
)
from .potentials import TWO_PI, Potential, PotentialSpec, compile_potential

__all__ = [
    "AssumptionReport",
    "Certificate",
    "CertifyOptions",
    "SweepResult",
    "certify",
    "check_triple",
    "sweep_threshold",
]


@dataclass(frozen=True)
class CertifyOptions:
    strictness_tol: float = 1e-9     # margins must clear this to count
    beta_tol: float = 1e-9           # distance of beta from {-2, 0}
    crit_residual_tol: float = 1e-8  # |V'| allowed at a claimed critical angle
    interval_grid: int = 1024        # sign check of V on [theta_-1, theta_1]
    subinterval_grid: int = 256      # V' != 0 check per open subinterval
    grid_n: int = 4096               # critical-point scan resolution
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

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


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
    jets = []
    for t in (tm, t0, tp):
        if not pot.domain.contains(pot.domain.reduce(t) if pot.domain.periodic else t):
            raise DomainViolationError(f"angle {t} lies outside the domain")
        jets.append(pot.V(t))
        resid = abs(float(jets[-1].d1))
        if resid > opts.crit_residual_tol:
            raise NotCriticalPointError(f"|V'({t})| = {resid:.3e}")
    jm, j0, jp = jets

    beta = pot.beta
    tol = opts.strictness_tol
    reports = []

    m1 = min(abs(beta + 2.0), abs(beta))
    d1 = f"beta = {beta} at distance {m1:.3e} from the excluded degrees -2 and 0"
    if abs(beta + 2.0) <= opts.beta_tol:
        d1 += "; degree -2 carries the global quadratic integral (q.p)^2 - 2|q|^2 H"
    reports.append(AssumptionReport(1, m1 > opts.beta_tol, m1, d1))

    m2 = min(t0 - tm, tp - t0)
    reports.append(
        AssumptionReport(
            2, m2 > tol, m2, f"ordering gaps ({t0 - tm:.6g}, {tp - t0:.6g})"
        )
    )

    span = np.linspace(tm, tp, opts.interval_grid)
    vmax = float(np.max(pot.V(span).val))
    reports.append(
        AssumptionReport(
            3, -vmax > tol, -vmax, f"max V on [theta_-1, theta_1] = {vmax:.6g}"
        )
    )

    m4 = math.inf
    for a, b in ((tm, t0), (t0, tp)):
        inner = np.linspace(a, b, opts.subinterval_grid + 2)[1:-1]
        m4 = min(m4, float(np.min(np.abs(pot.V(inner).d1))))
    reports.append(
        AssumptionReport(4, m4 > tol, m4, f"min |V'| over open subintervals = {m4:.6g}")
    )

    m5 = min(-float(jm.d2), -float(jp.d2))
    reports.append(
        AssumptionReport(
            5,
            m5 > tol,
            m5,
            f"V''(theta_-1) = {float(jm.d2):.6g}, V''(theta_1) = {float(jp.d2):.6g}",
        )
    )

    m6 = float(j0.d2) + (beta + 2.0) ** 2 * float(j0.val) / 8.0
    reports.append(
        AssumptionReport(
            6,
            m6 > tol,
            m6,
            f"V''(theta_0) + (beta+2)^2 V(theta_0)/8 = {m6:.6g}",
        )
    )
    return tuple(reports)


def _candidate_triples(
    pot: Potential, cps: list[CriticalPoint]
) -> list[tuple[float, float, float]]:
    n = len(cps)
    thetas = [c.theta for c in cps]
    if pot.domain.periodic:
        if n < 2:
            return []
        out = []
        for i in range(n):
            a = thetas[i]
            b = thetas[(i + 1) % n] + (TWO_PI if i + 1 >= n else 0.0)
            c = thetas[(i + 2) % n] + (TWO_PI if i + 2 >= n else 0.0)
            out.append((a, b, c))
        return out
    return [tuple(thetas[i : i + 3]) for i in range(n - 2)]


def certify(pot: Potential, opts: CertifyOptions = CertifyOptions()) -> Certificate:
    """Search the critical-point triples of V for a non-integrability witness.

    Returns the certificate with the largest assumption-6 margin among fully
    satisfied triples, else the nearest miss marked ``Inconclusive``.  The
    sign-flip route checks the same triples on -V: negation leaves the
    zeros of V' bit for bit where they are, so one scan serves both routes.
    """
    echo = pot.spec.to_dict() if pot.spec is not None else {"beta": pot.beta}
    triples = _candidate_triples(pot, find_critical_points(pot, grid_n=opts.grid_n))

    def checked(p: Potential):
        results = []
        for triple in triples:
            try:
                results.append((triple, check_triple(p, triple, opts)))
            except McGeheeError:
                continue
        return results

    def certificate(p: Potential, conclusion: str, triple, reports, boundary=False):
        return Certificate(
            conclusion=conclusion,
            kind="complexified" if p.flipped else "direct",
            beta=p.beta,
            triple=triple,
            assumptions=reports,
            potential=echo,
            boundary=boundary,
            complex_analyticity_asserted=p.flipped,
        )

    def winner(p: Potential, results):
        wins = [r for r in results if all(a.satisfied for a in r[1])]
        if not wins:
            return None
        triple, reports = max(wins, key=lambda r: (r[1][5].margin, -r[0][0]))
        return certificate(p, "NonIntegrable", triple, reports)

    results = checked(pot)
    cert = winner(pot, results)
    if cert is None and opts.allow_sign_flip and not pot.flipped and any(
        float(np.min(pot.V(np.linspace(tm, tp, opts.interval_grid)).val)) > 0.0
        for tm, _, tp in triples
    ):
        flipped = pot.sign_flipped()
        cert = winner(flipped, checked(flipped))
    if cert is not None:
        return cert

    triple, reports = max(
        results,
        key=lambda r: (sum(a.satisfied for a in r[1]), r[1][5].margin),
        default=(None, ()),
    )
    boundary = any(abs(a.margin) <= opts.strictness_tol for a in reports)
    return certificate(pot, "Inconclusive", triple, reports, boundary)


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

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def _conclusion_at(spec: PotentialSpec, param: str, value: float, opts: CertifyOptions) -> str:
    try:
        cert = certify(compile_potential(spec.with_params(**{param: value})), opts)
        return cert.conclusion
    except McGeheeError as err:
        return f"error:{type(err).__name__}"


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

    The parameter range is sampled on a uniform grid; every sign change of
    the conclusion between valid neighbouring samples is sharpened by
    bisection on the conclusion itself.  Samples that fail to certify at all
    are recorded and excluded from bracketing.
    """
    if spec.params is None or param not in spec.params:
        raise UnboundParameterError(f"'{param}' is not a parameter of the potential")
    if not (lo < hi):
        raise DomainViolationError(f"empty sweep range [{lo}, {hi}]")

    values = np.linspace(lo, hi, grid_m)
    conclusions = [_conclusion_at(spec, param, float(v), opts) for v in values]

    thresholds: list[float] = []
    widths: list[float] = []
    for i in range(grid_m - 1):
        ca, cb = conclusions[i], conclusions[i + 1]
        if ca.startswith("error") or cb.startswith("error") or ca == cb:
            continue
        a, b = float(values[i]), float(values[i + 1])
        while b - a > thresh_tol:
            mid = 0.5 * (a + b)
            cm = _conclusion_at(spec, param, mid, opts)
            if cm == ca:
                a = mid
            elif cm == cb:
                b = mid
            else:
                break  # error or third conclusion inside the bracket: stop here
        thresholds.append(0.5 * (a + b))
        widths.append(b - a)
    return SweepResult(
        param=param,
        values=tuple(float(v) for v in values),
        conclusions=tuple(conclusions),
        thresholds=tuple(thresholds),
        threshold_widths=tuple(widths),
    )
