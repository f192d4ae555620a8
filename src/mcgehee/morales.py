"""Yoshida coefficients at Darboux points and the Morales-Ramis comparison.

A Darboux point of a homogeneous potential U is a configuration c with
grad U(c) = c.  Along the ray of a critical angle theta_c of V the gradient
is purely radial, so the ray carries a Darboux point exactly when
beta * V(theta_c) > 0, at the scale s solving s^(beta-2) = 1/(beta*V(theta_c)).
The eigenvalues of the Hessian of U at c are the Yoshida coefficients of
that point: homogeneity pins the radial one to beta - 1, and the non-trivial
tangential one reduces in polar coordinates to

    lambda = V''(theta_c) / (beta * V(theta_c)) + 1.

The polar formula is definitional here; it needs no Darboux point and so
extends to rays with beta * V(theta_c) <= 0, where the Hessian route has no
real configuration to evaluate at.  Where the Darboux point does exist, a
finite-difference Hessian at s*(cos theta_c, sin theta_c) reproduces both
coefficients and serves as an independent cross-check.

Two known obstructions to integrability are phrased in terms of lambda.
The curvature condition of the certificate (assumption 6) states that a
meromorphic first integral forces

    (lambda - 1) * beta + (beta + 2)^2 / 8  >=  0

at every critical angle satisfying the remaining assumptions, while the
Morales-Ramis theory pins lambda, for degree beta = -1, to the discrete set
{-p(p-3)/2 | p integer} = {1, 0, -2, -5, -9, ...}.  Every member of that
set satisfies the inequality -- at beta = -1 it reads lambda <= 9/8, and the
set tops out at 1 -- so the two obstructions are consistent where they
overlap.  Only the beta = -1 set is implemented: it is the only one with a
closed form to test against, and the general Morales-Ramis tables are out
of scope.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .critical import critical_jet
from .errors import (
    BetaTwoScaleDegenerateError,
    DomainViolationError,
    ZeroBetaError,
    ZeroPotentialValueError,
)
from .potentials import Potential

__all__ = [
    "NecessaryInequality",
    "YoshidaCoefficient",
    "check_integrability_necessary",
    "darboux_from_critical",
    "hessian_coefficients",
    "mr_beta_minus1_member",
    "mr_beta_minus1_values",
    "yoshida_lambda",
]

# the integers p whose members -p(p-3)/2 mr_beta_minus1_values lists
_MR_P = range(-20, 21)
# how far lambda may sit from a member and still count as one
_MR_TOL = 1e-9


@dataclass(frozen=True)
class YoshidaCoefficient:
    """Both Yoshida coefficients on the ray of one critical angle.

    ``darboux_scale`` is the radius s of the Darboux point on the ray,
    present exactly when beta * V(theta_c) > 0 (and beta != 2, where the
    scale equation degenerates and no scale can be reported).
    """

    theta_c: float
    lam: float                   # non-trivial coefficient
    beta: float
    trivial: float               # the radial coefficient, always beta - 1
    darboux_scale: float | None


@dataclass(frozen=True)
class NecessaryInequality:
    """Outcome of the integrability-necessary inequality with its margin.

    ``margin`` is (lambda - 1) * beta + (beta + 2)^2 / 8; the inequality is
    satisfied (non-strictly, boundary included) when the margin is >= 0.
    A negative margin means no meromorphic first integral can exist if the
    remaining certificate assumptions hold at this angle.
    """

    satisfied: bool
    margin: float


def yoshida_lambda(pot: Potential, theta_c: float) -> YoshidaCoefficient:
    """Both Yoshida coefficients at the critical angle ``theta_c``.

    The non-trivial coefficient is computed from the jet of V as
    lambda = V''/(beta*V) + 1; the trivial (radial) one is beta - 1.  The
    Darboux scale rides along when the ray carries a real Darboux point.
    """
    if pot.beta == 0.0:
        raise ZeroBetaError("beta = 0: Yoshida coefficients are undefined")
    theta_c, jet = critical_jet(pot, theta_c)
    val = float(jet.val)
    if val == 0.0:
        raise ZeroPotentialValueError(
            f"V({theta_c}) = 0: the Yoshida coefficient is undefined on this ray"
        )
    lam = float(jet.d2) / (pot.beta * val) + 1.0
    return YoshidaCoefficient(
        theta_c=theta_c,
        lam=lam,
        beta=pot.beta,
        trivial=pot.beta - 1.0,
        darboux_scale=None if pot.beta == 2.0 else _darboux_scale(pot.beta, val),
    )


def darboux_from_critical(pot: Potential, theta_c: float) -> float | None:
    """Scale s of the Darboux point on the ray of ``theta_c``, if it exists.

    On the ray the gradient of U is radial with magnitude
    beta * s^(beta-1) * V(theta_c), so grad U(c) = c pins
    s^(beta-2) = 1/(beta*V(theta_c)).  A real positive solution exists
    exactly when beta * V(theta_c) > 0; otherwise None is returned.  At
    beta = 2 the equation loses s entirely and cannot be solved.
    """
    if pot.beta == 2.0:
        raise BetaTwoScaleDegenerateError(
            "beta = 2: the Darboux scale equation s^(beta-2) = 1/(beta V) loses s"
        )
    _, jet = critical_jet(pot, theta_c)
    return _darboux_scale(pot.beta, float(jet.val))


def _darboux_scale(beta: float, val: float) -> float | None:
    """s with s^(beta-2) = 1/(beta*val), for beta != 2; None if beta*val <= 0."""
    bv = beta * val
    if bv <= 0.0:
        return None
    return bv ** (1.0 / (2.0 - beta))


def check_integrability_necessary(lam: float, beta: float) -> NecessaryInequality:
    """Evaluate the necessary inequality (lambda-1)*beta + (beta+2)^2/8 >= 0.

    This is the contrapositive of the certificate's curvature condition: an
    integrable system satisfying the remaining assumptions must keep the
    margin non-negative at every Darboux point.  The boundary counts as
    satisfied, matching the non-strict form of the condition.
    """
    margin = (float(lam) - 1.0) * float(beta) + (float(beta) + 2.0) ** 2 / 8.0
    return NecessaryInequality(satisfied=margin >= 0.0, margin=margin)


def mr_beta_minus1_member(lam: float) -> bool:
    """Whether lambda lies in the beta = -1 Morales-Ramis set within ``_MR_TOL``.

    The set is {-p(p-3)/2 | p integer}; inverting the quadratic gives
    p = (3 +/- sqrt(9 - 8*lambda))/2, and it suffices to test the integers
    adjacent to the two real roots.  lambda > 9/8 makes the roots complex
    and can never be a member (the set tops out at 1).
    """
    lam = float(lam)
    disc = 9.0 - 8.0 * lam
    if disc < 0.0:
        return False
    root = math.sqrt(disc)
    for p_real in ((3.0 - root) / 2.0, (3.0 + root) / 2.0):
        for p in (math.floor(p_real), math.ceil(p_real)):
            if abs(lam + 0.5 * p * (p - 3.0)) <= _MR_TOL:
                return True
    return False


def mr_beta_minus1_values() -> list[float]:
    """Distinct members -p(p-3)/2 of the beta = -1 set for p in [-20, 20].

    Returned in descending order (the set is bounded above by 1 and runs
    down through 0, -2, -5, -9, ...).
    """
    values = {-0.5 * p * (p - 3.0) for p in _MR_P}
    return sorted(values, reverse=True)


def hessian_coefficients(pot: Potential, theta_c: float) -> tuple[float, float]:
    """Yoshida coefficients via a finite-difference Hessian of U at the Darboux point.

    Independent cross-check of :func:`yoshida_lambda`: builds the Cartesian
    potential U(x, y) = r^beta V(theta), differences it around
    s*(cos theta_c, sin theta_c), and returns the eigenvalues of the 2x2
    Hessian in ascending order.  They should match (beta - 1, lambda) up to
    the O(h^2) truncation of the stencil.  Raises when the ray carries no
    real Darboux point.
    """
    scale = darboux_from_critical(pot, theta_c)
    if scale is None:
        raise DomainViolationError(
            f"no real Darboux point on the ray theta_c = {theta_c}"
        )
    theta_c = float(theta_c)
    x0, y0 = scale * math.cos(theta_c), scale * math.sin(theta_c)

    def u(x: float, y: float) -> float:
        r = math.hypot(x, y)
        return r**pot.beta * float(pot.V(math.atan2(y, x)).val)

    h = scale * 2.0e-4  # ~eps^(1/4) relative: truncation and roundoff balance
    uxx = (u(x0 + h, y0) - 2.0 * u(x0, y0) + u(x0 - h, y0)) / h**2
    uyy = (u(x0, y0 + h) - 2.0 * u(x0, y0) + u(x0, y0 - h)) / h**2
    uxy = (
        u(x0 + h, y0 + h) - u(x0 + h, y0 - h) - u(x0 - h, y0 + h) + u(x0 - h, y0 - h)
    ) / (4.0 * h**2)
    eigs = np.linalg.eigvalsh(np.array([[uxx, uxy], [uxy, uyy]]))
    return float(eigs[0]), float(eigs[1])
