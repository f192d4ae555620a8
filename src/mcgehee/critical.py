"""Critical points of the shape potential V on its angular domain.

The scan evaluates V' on a uniform grid, brackets each sign change between
neighbouring nodes, and runs a bracketed Newton iteration on V' from the
secant point of every bracket at once.  Each limit must pass
``critical_jet``, the one criticality test: a bracket whose limit leaves
|V'| large against its median on the grid straddles a pole, not a zero,
and is dropped.  Only transversal zeros are found: a zero that V'
touches without crossing is invisible to the bracketing step (unless it
lands exactly on a grid node) and is a documented limitation of the scan.

Each potential is scanned once, on first use: the points are stored on the
potential, so the certificate, the rest points of the flow and the
subcommands that list critical angles all read the same scan.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegeneratePotentialError,
    DomainError,
    DomainViolationError,
    NotCriticalPointError,
    PoleEncounteredError,
)
from .potentials import TWO_PI, Jet2, Potential

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


def _residual_tol(pot: Potential, d1: np.ndarray | None = None) -> float:
    """The largest |V'| at a critical point of ``pot``: ``CRIT_RESIDUAL_RTOL``
    times the median |V'| on the scan grid, the upper of the middle pair
    (``np.median`` grows the process by about 2 MB on its first call).  The
    bound scales with V, a pole on a few nodes does not move it, and |V'| at
    a bracket converged onto a pole exceeds it by many orders.  Stored on
    the potential; ``d1`` is V' on the scan grid, when the caller has it."""
    if pot._residual_tol is None:
        if d1 is None:
            d1 = _grid_jet(pot, pot.domain.sample_grid(_SCAN_GRID, _GUARD)).d1
        mid = d1.size // 2
        pot._residual_tol = CRIT_RESIDUAL_RTOL * float(np.partition(np.abs(d1), mid)[mid])
    return pot._residual_tol


def _grid_jet(pot: Potential, grid: np.ndarray):
    """Evaluate V on a grid; on failure, locate the first offending node so
    the error names the pole instead of the whole array."""
    try:
        return pot.V(grid)
    except DomainError as err:
        for theta in grid:
            try:
                pot.V(float(theta))
            except DomainError as inner:
                raise PoleEncounteredError(float(theta), str(inner)) from err
        raise


def bracketed_newton(fdf, lo, hi, sign_lo, t0) -> np.ndarray:
    """Newton's method in many brackets at once: one zero of f per bracket.

    ``fdf(t, i)`` returns the arrays f and f' at the points ``t`` of the
    brackets numbered ``i``.  f has the sign ``sign_lo`` at ``lo`` and the
    other sign at ``hi``; the iteration starts from ``t0`` and each
    evaluation narrows the bracket.  A Newton step that leaves the bracket
    by more than 4 ulps bisects it instead, and a smaller overshoot is
    clipped to the bracket, so a zero on an end converges onto that end.
    A bracket is done at an exact zero or once its step or width is within
    4 ulps; all stop after 100 iterations.  Returns the last iterates.
    """
    lo, hi, t = (np.array(x, dtype=float) for x in (lo, hi, t0))
    sign_lo = np.broadcast_to(sign_lo, t.shape)
    todo = np.arange(t.size)
    for _ in range(_NEWTON_ITERATIONS):
        if not todo.size:
            break
        x = t[todo]
        f, df = fdf(x, todo)
        left = np.sign(f) == sign_lo[todo]
        a = lo[todo] = np.where(left, x, lo[todo])
        b = hi[todo] = np.where(left, hi[todo], x)
        with np.errstate(all="ignore"):
            step = x - f / df
        ulps = _NEWTON_TOL * np.maximum(1.0, np.abs(x))
        inside = (a - ulps <= step) & (step <= b + ulps)
        nxt = np.where(f == 0.0, x, np.where(inside, np.clip(step, a, b), 0.5 * (a + b)))
        t[todo] = nxt
        todo = todo[(f != 0.0) & (np.abs(nxt - x) > ulps) & (b - a > ulps)]
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
    d1 = _grid_jet(pot, grid).d1

    if float(np.max(np.abs(d1))) < _DEGENERACY_TOL:
        raise DegeneratePotentialError(
            f"max |V'| = {float(np.max(np.abs(d1))):.3e} on the scan grid"
        )
    _residual_tol(pot, d1)  # stored for critical_jet, from the grid in hand

    on_nodes = grid[d1 == 0.0]
    if pot.domain.periodic:  # the last node brackets with the first, one turn on
        grid, d1 = np.append(grid, grid[0] + TWO_PI), np.append(d1, d1[0])
    i = np.flatnonzero(np.sign(d1[:-1]) * np.sign(d1[1:]) < 0.0)
    lo, hi = grid[i], grid[i + 1]
    secant = lo - d1[i] * (hi - lo) / (d1[i + 1] - d1[i])

    def fdf(t, _):
        jet = pot.V(t)
        return jet.d1, jet.d2

    roots = np.concatenate([on_nodes, bracketed_newton(fdf, lo, hi, np.sign(d1[i]), secant)])

    out = []
    for theta in np.sort(pot.domain.reduce(roots)):
        try:
            theta, jet = critical_jet(pot, theta)
        except NotCriticalPointError:
            continue  # a sign change of V' across a pole converges onto the pole
        out.append(CriticalPoint(theta, jet.val, jet.d2, classify(jet.d2), jet.d1))
    return out
