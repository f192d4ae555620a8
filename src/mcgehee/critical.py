"""Critical points of the shape potential V on its angular domain.

The scan evaluates V' alone (``reading("d1")``) in one array call on a
uniform grid, brackets each sign change between neighbouring nodes (on the
circle, the last node with the first, one turn on), and runs a bracketed
Newton iteration on V' from the secant point of each bracket in turn, on
floats: its evaluations are scalar calls of V that read V' and V'' alone,
one angle each.  Those readings have the bits of the full jet's and keep
its domain checks, but do not test V for a non-finite value.  Each limit
must pass ``critical_jet``, the one criticality test, on the full jet, so
the stored points carry the V and V'' that certificates and the rest
points of the flow read: a bracket whose limit leaves
|V'| large against its median on the grid straddles a pole, not a zero,
and is dropped.  Only transversal zeros are found: a zero that V'
touches without crossing is invisible to the bracketing step (unless it
lands exactly on a grid node) and is a documented limitation of the scan.

Each potential is scanned once, on first use: the points are stored on the
potential, so the certificate, the rest points of the flow and the
subcommands that list critical angles all read the same scan.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegeneratePotentialError,
    DomainError,
    DomainViolationError,
    NotCriticalPointError,
    PoleEncounteredError,
)
from .potentials import TWO_PI, Jet2, Potential, reading

__all__ = ["CriticalPoint", "bracketed_newton", "critical_jet", "find_critical_points",
           "classify"]

# guard band of the scan grid off the ends of an open interval
_GUARD = 1e-6
# points of the scan grid
_SCAN_GRID = 4096
# max |V'| on the grid below which V is taken as constant
_DEGENERACY_TOL = 1e-9
# |V'| above which an angle is not a critical point, relative to the median
# |V'| on the scan grid: the one rule by which the scan tells a zero from a
# pole and certificates and Yoshida coefficients accept an angle
CRIT_RESIDUAL_RTOL = 3e-8
# |V''| at or below which a critical point is degenerate
_CLASS_TOL = 1e-9
# 4 ulps of max(1, |t|): the overshoot a Newton step may be clipped by, and
# the step or bracket width at which the iteration is done
_NEWTON_TOL = 4.0 * float(np.finfo(float).eps)
_NEWTON_ITERATIONS = 100


@dataclass(frozen=True)
class CriticalPoint:
    theta: float
    value: float       # V(theta)
    curvature: float   # V''(theta)
    kind: str          # "minimum" | "maximum" | "degenerate"
    slope: float = 0.0  # V'(theta), within the criticality bound of 0

    @property
    def jet(self) -> Jet2:
        """V, V', V'' at theta: the jet ``critical_jet`` gave the scan."""
        return Jet2(self.value, self.slope, self.curvature)


def classify(curvature: float) -> str:
    if curvature > _CLASS_TOL:
        return "minimum"
    if curvature < -_CLASS_TOL:
        return "maximum"
    return "degenerate"


def critical_jet(pot: Potential, theta: float) -> tuple[float, Jet2]:
    """The angle reduced into the domain's window and the jet of V there.

    Raises DomainViolationError for an angle outside the domain and
    NotCriticalPointError when |V'| exceeds ``_residual_tol(pot)``.
    """
    theta = float(theta)
    t = pot.domain.reduce(theta)
    if not pot.domain.contains(t):
        raise DomainViolationError(f"angle {theta} lies outside the domain")
    jet = pot.V(t)
    resid = abs(float(jet.d1))
    if resid > _residual_tol(pot):
        raise NotCriticalPointError(f"|V'({t})| = {resid:.3e}")
    return t, jet


def _residual_tol(pot: Potential, size: np.ndarray | None = None) -> float:
    """The largest |V'| at a critical point of ``pot``: ``CRIT_RESIDUAL_RTOL``
    times the median |V'| on the scan grid, the upper of the middle pair
    (``np.median`` grows the process by about 2 MB on its first call).  The
    bound scales with V, a pole on a few nodes does not move it, and |V'| at
    a bracket converged onto a pole exceeds it by many orders.  Stored on
    the potential; ``size`` is |V'| on the scan grid, when the caller has it."""
    if pot._residual_tol is None:
        if size is None:
            with reading("d1"):
                size = np.abs(_grid_jet(pot, pot.domain.sample_grid(_SCAN_GRID, _GUARD)).d1)
        mid = size.size // 2
        pot._residual_tol = CRIT_RESIDUAL_RTOL * float(np.partition(size, mid)[mid])
    return pot._residual_tol


def _grid_jet(pot: Potential, grid: np.ndarray):
    """Evaluate V on a grid; on failure, locate the first offending node so
    the error names the pole instead of the whole array.  The nodes are
    evaluated in the caller's ``reading``, so they fail where the grid did."""
    try:
        return pot.V(grid)
    except DomainError as err:
        for theta in grid:
            try:
                pot.V(float(theta))
            except DomainError as inner:
                raise PoleEncounteredError(float(theta), str(inner)) from err
        raise


def bracketed_newton(fdf, lo: float, hi: float, sign_lo: float, t: float) -> float:
    """Newton's method on floats in one bracket: a zero of f in [lo, hi].

    ``fdf(t)`` returns the floats f and f' at ``t``.  f has the sign
    ``sign_lo`` (1.0 or -1.0) at ``lo`` and the other sign at ``hi``; the
    iteration starts from ``t`` and each evaluation narrows the bracket.  A
    Newton step that leaves the bracket by more than 4 ulps bisects it
    instead, and a smaller overshoot is clipped to the bracket (as
    ``np.clip`` does on arrays), so a zero on an end converges onto that
    end.  The iteration is done at an exact zero or once its step or width
    is within 4 ulps, and stops after 100 iterations.  Returns the last
    iterate.
    """
    for _ in range(_NEWTON_ITERATIONS):
        f, df = fdf(t)
        if f * sign_lo > 0.0:
            lo = t
        else:
            hi = t
        if f == 0.0:
            return t
        step = t - f / df if df != 0.0 else math.nan
        ulps = _NEWTON_TOL * max(1.0, abs(t))
        if lo - ulps <= step <= hi + ulps:
            step = step if step > lo else lo
            nxt = step if step < hi else hi
        else:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - t) <= ulps or hi - lo <= ulps:
            return nxt
        t = nxt
    return t


def find_critical_points(pot: Potential) -> list[CriticalPoint]:
    """All transversal zeros of V' on the domain, sorted by angle.

    The first scan of ``pot`` that succeeds is stored on it; later calls
    return a new list of the same points without evaluating V.  Raises
    DegeneratePotentialError when V' vanishes identically on the scan grid
    (no isolated critical points to speak of), PoleEncounteredError when
    evaluation fails at an interior node; a failed scan stores nothing.
    """
    if pot._critical_points is None:
        pot._critical_points = tuple(_scan(pot))
    return list(pot._critical_points)


def _scan(pot: Potential) -> list[CriticalPoint]:
    grid = pot.domain.sample_grid(_SCAN_GRID, _GUARD)
    with reading("d1"):
        d1 = _grid_jet(pot, grid).d1
    size = np.abs(d1)
    peak = float(size.max())
    if peak < _DEGENERACY_TOL:
        raise DegeneratePotentialError(f"max |V'| = {peak:.3e} on the scan grid")
    _residual_tol(pot, size)  # stored for critical_jet, from the grid in hand

    sign = np.sign(d1)
    i = np.flatnonzero(sign[:-1] * sign[1:] < 0.0)
    brackets = list(zip(grid[i].tolist(), grid[i + 1].tolist(),
                        d1[i].tolist(), d1[i + 1].tolist()))
    if pot.domain.periodic and sign[-1] * sign[0] < 0.0:
        # the last node brackets with the first, one turn on
        brackets.append((float(grid[-1]), float(grid[0]) + TWO_PI,
                         float(d1[-1]), float(d1[0])))

    def fdf(t):
        jet = pot.V(t)
        return jet.d1, jet.d2

    roots = grid[d1 == 0.0].tolist()
    with reading("d1", "d2"):
        for lo, hi, d_lo, d_hi in brackets:
            secant = lo - d_lo * (hi - lo) / (d_hi - d_lo)
            roots.append(bracketed_newton(fdf, lo, hi, 1.0 if d_lo > 0.0 else -1.0, secant))

    out = []
    for theta in np.sort(pot.domain.reduce(np.array(roots))):
        try:
            theta, jet = critical_jet(pot, theta)
        except NotCriticalPointError:
            continue  # a sign change of V' across a pole converges onto the pole
        out.append(CriticalPoint(theta, jet.val, jet.d2, classify(jet.d2), jet.d1))
    return out
