"""Critical points of the shape potential V on its angular domain.

The scan is grid + sign-change bracketing + bisection on V', so only
transversal zeros are found; a zero that V' touches without crossing is
invisible to the bracketing step (unless it lands exactly on a grid node)
and is a documented limitation of the scan.
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
from .potentials import TWO_PI, Jet2, Potential

__all__ = ["CriticalPoint", "critical_jet", "find_critical_points", "classify"]


@dataclass(frozen=True)
class CriticalPoint:
    theta: float
    value: float       # V(theta)
    curvature: float   # V''(theta)
    kind: str          # "minimum" | "maximum" | "degenerate"


def classify(curvature: float, class_tol: float = 1e-9) -> str:
    if curvature > class_tol:
        return "minimum"
    if curvature < -class_tol:
        return "maximum"
    return "degenerate"


def critical_jet(pot: Potential, theta: float, residual_tol: float) -> tuple[float, Jet2]:
    """The angle reduced into the domain's window and the jet of V there.

    Raises DomainViolationError for an angle outside the domain and
    NotCriticalPointError when |V'| exceeds ``residual_tol``: this is the
    rule by which certificates and Yoshida coefficients accept an angle.
    """
    theta = float(theta)
    t = pot.domain.reduce(theta)
    if not pot.domain.contains(t):
        raise DomainViolationError(f"angle {theta} lies outside the domain")
    jet = pot.V(t)
    resid = abs(float(jet.d1))
    if resid > residual_tol:
        raise NotCriticalPointError(f"|V'({t})| = {resid:.3e}")
    return t, jet


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


def _newton_polish(pot: Potential, theta: float) -> float:
    """Drive a bisection root of V' to machine precision.

    Bisection stops at root_tol, which is coarse enough to dominate
    downstream quantities anchored at the critical angle (eigen-data,
    distances to rest points).  A couple of guarded Newton steps square the
    error away; on any sign of trouble (flat curvature, step larger than
    the bisection error could be, domain edge) the input is returned as-is.
    """
    eps = float(np.finfo(float).eps)
    for _ in range(4):
        try:
            j = pot.V(theta)
        except DomainError:
            break
        d1, d2 = float(j.d1), float(j.d2)
        if d1 == 0.0 or not math.isfinite(d2) or d2 == 0.0:
            break
        step = d1 / d2
        if not math.isfinite(step) or abs(step) > 1e-3:
            break
        theta -= step
        if abs(step) <= 4.0 * eps * max(1.0, abs(theta)):
            break
    return theta


def find_critical_points(
    pot: Potential,
    grid_n: int = 4096,
    root_tol: float = 1e-12,
    guard: float = 1e-6,
    degeneracy_tol: float = 1e-9,
    residual_tol: float = 1e-9,
    class_tol: float = 1e-9,
) -> list[CriticalPoint]:
    """All transversal zeros of V' on the domain, sorted by angle.

    Raises DegeneratePotentialError when V' vanishes identically on the scan
    grid (no isolated critical points to speak of), PoleEncounteredError when
    evaluation fails at an interior node.
    """
    grid = pot.domain.sample_grid(grid_n, guard)
    d1 = _grid_jet(pot, grid).d1

    if float(np.max(np.abs(d1))) < degeneracy_tol:
        raise DegeneratePotentialError(
            f"max |V'| = {float(np.max(np.abs(d1))):.3e} on the scan grid"
        )

    signs = np.sign(d1)
    roots = [float(t) for t in grid[signs == 0.0]]  # exact zeros on nodes

    lo_list = list(grid[:-1][signs[:-1] * signs[1:] < 0.0])
    hi_list = list(grid[1:][signs[:-1] * signs[1:] < 0.0])
    if pot.domain.periodic and signs[-1] * signs[0] < 0.0:
        lo_list.append(grid[-1])
        hi_list.append(grid[0] + TWO_PI)

    if lo_list:
        lo = np.array(lo_list, dtype=float)
        hi = np.array(hi_list, dtype=float)
        slo = np.sign(pot.V(lo).d1)
        iters = max(1, int(math.ceil(math.log2(float(np.max(hi - lo)) / root_tol))))
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            smid = np.sign(pot.V(mid).d1)
            same = smid == slo          # root lies right of mid
            exact = smid == 0.0         # mid *is* the root: collapse
            lo = np.where(exact, mid, np.where(same, mid, lo))
            hi = np.where(exact, mid, np.where(same, hi, mid))
        roots.extend(float(t) for t in 0.5 * (lo + hi))

    # keep only genuine roots (a sign-flipping jump refines to a non-zero V')
    cleaned = []
    for theta in roots:
        theta = float(pot.domain.reduce(_newton_polish(pot, theta)))
        if abs(pot.V(theta).d1) <= residual_tol:
            cleaned.append(theta)
    cleaned.sort()

    merged: list[float] = []
    for theta in cleaned:
        if merged and theta - merged[-1] <= 10.0 * root_tol:
            continue
        merged.append(theta)
    if (
        pot.domain.periodic
        and len(merged) > 1
        and (merged[0] + TWO_PI) - merged[-1] <= 10.0 * root_tol
    ):
        merged.pop()

    out = []
    for theta in merged:
        j = pot.V(theta)
        out.append(CriticalPoint(theta, float(j.val), float(j.d2), classify(j.d2, class_tol)))
    return out
