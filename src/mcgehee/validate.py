"""Built-in invariant suite: the checks behind the ``validate`` subcommand.

Each check exercises one structural promise of the package against an
independent oracle -- finite differences for the jets, conserved quantities
and coordinate-free Cartesian integration for the flow, and the two
application thresholds for the certifier -- and reduces it to a single
worst-case measure with a fixed budget.  ``run_all`` returns one
:class:`CheckResult` per check; the suite passes only if every measure
stays within its budget.

The random draws are seeded, so repeated runs are bit-identical.  The
helpers (:func:`random_trig_poly`, :func:`jet_fd_error`,
:func:`energy_drift`, :func:`flow_equivalence_gap`,
:func:`random_mcgehee_state`) are exported for the acceptance tests, which
apply the same measures to their own draws.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LeftDomainError, StepUnderflowError
from .flow import (
    ManifoldState,
    McGeheeState,
    integrate,
    integrate_cartesian,
    integrate_manifold,
    sample_at_physical_times,
    to_mcgehee,
)
from .potentials import Potential, PotentialSpec, compile_potential, reading, spec_from_dict
from .certify import sweep_threshold

__all__ = [
    "CheckResult",
    "flow_equivalence_gap",
    "jet_fd_error",
    "random_mcgehee_state",
    "random_trig_poly",
    "run_all",
]

# harmonics of a random trigonometric polynomial
_TRIG_DEGREE = 4
# jet_fd_error's grid size, stencil step and distance from open domain ends
_FD_N, _FD_H, _FD_PAD = 1000, 1e-4, 0.05
# distance of a random angle from open domain ends
_THETA_PAD = 0.3
# energy_drift's tau span and relative tolerance
_DRIFT_SPAN, _DRIFT_RTOL = (0.0, 50.0), 1e-10
# flow_equivalence_gap's tolerances, the same for both integrations
_GAP_RTOL, _GAP_ATOL = 1e-11, 1e-13


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measure: float        # worst value observed across the check's samples
    budget: float         # bound the measure must stay within
    detail: str = ""

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        out = f"{verdict}  {self.name:<24} {self.measure:.3e} within {self.budget:.0e}"
        return out + (f"  ({self.detail})" if self.detail else "")


# ------------------------------------------------------------------ helpers


def random_trig_poly(rng: np.random.Generator) -> str:
    """Expression source of a random trigonometric polynomial of V.

    Coefficients are uniform on [-1, 1]; every harmonic up to the fourth
    appears, so the critical-point structure varies freely from draw to
    draw.  The constant term is shifted down by 1.5 to bias V negative,
    where the certifier's assumptions live.
    """
    terms = [f"{float(rng.uniform(-1.0, 1.0)) - 1.5:.17g}"]
    for k in range(1, _TRIG_DEGREE + 1):
        a = float(rng.uniform(-1.0, 1.0))
        b = float(rng.uniform(-1.0, 1.0))
        terms.append(f"{a:+.17g}*cos({k}*theta)")
        terms.append(f"{b:+.17g}*sin({k}*theta)")
    return " ".join(terms)


def jet_fd_error(pot: Potential) -> float:
    """Worst grid-relative mismatch of the jet's V', V'' vs central differences.

    The oracle is the 5-point central stencil (truncation O(h^4)) on a
    1000-point grid, which stays trustworthy even 0.05 away from an open
    domain end where V has a pole and the derivatives grow like inverse
    powers of the distance.  Each derivative's deviation is normalized by the larger of
    1 and its own sup over the grid, so angles where the derivative
    happens to vanish do not inflate the measure.
    """
    h = _FD_H
    grid = pot.domain.sample_grid(_FD_N, _FD_PAD)
    mid, vp, vpp = pot.V(grid)
    with reading("val"):
        up1 = pot.V(pot.domain.reduce(grid + h)).val
        dn1 = pot.V(pot.domain.reduce(grid - h)).val
        up2 = pot.V(pot.domain.reduce(grid + 2.0 * h)).val
        dn2 = pot.V(pot.domain.reduce(grid - 2.0 * h)).val
    fd1 = (-up2 + 8.0 * up1 - 8.0 * dn1 + dn2) / (12.0 * h)
    fd2 = (-up2 + 16.0 * up1 - 30.0 * mid + 16.0 * dn1 - dn2) / (12.0 * h * h)
    e1 = np.max(np.abs(vp - fd1)) / max(1.0, float(np.max(np.abs(fd1))))
    e2 = np.max(np.abs(vpp - fd2)) / max(1.0, float(np.max(np.abs(fd2))))
    return float(max(e1, e2))


def _random_theta(pot: Potential, rng: np.random.Generator) -> float:
    """A uniform angle 0.3 inside the domain ends (periodic domains use the
    full circle)."""
    lo, hi = pot.domain.lo, pot.domain.hi
    if pot.domain.periodic:
        return float(rng.uniform(lo, hi))
    return float(rng.uniform(lo + _THETA_PAD, hi - _THETA_PAD))


def random_mcgehee_state(pot: Potential, rng: np.random.Generator) -> McGeheeState:
    """A random blown-up state with r in [0.5, 2] and theta as
    ``_random_theta`` draws it."""
    theta = _random_theta(pot, rng)
    return McGeheeState(
        r=float(rng.uniform(0.5, 2.0)),
        theta=theta,
        v=float(rng.uniform(-1.0, 1.0)),
        w=float(rng.uniform(-1.0, 1.0)),
    )


def energy_drift(pot: Potential, state: McGeheeState) -> float:
    """Relative drift of h over the computed part of tau in [0, 50].

    Orbits that end in a binary collision or a finite-tau blow-up stop
    early (the blow-up chart does not regularize those); the drift is
    measured over whatever portion was actually integrated.
    """
    traj = integrate(state, pot, _DRIFT_SPAN, rtol=_DRIFT_RTOL)
    h = traj.hs[np.isfinite(traj.hs)]
    scale = max(abs(float(h[0])), 1e-300)
    return float(np.max(np.abs(h - h[0])) / scale)


def flow_equivalence_gap(pot: Potential, p0, q0, t_grid) -> float:
    """Max configuration-space distance between Cartesian and blown-up runs.

    The same initial condition is integrated once in Cartesian coordinates
    and once through the blow-up; the blown-up orbit is resampled at the
    Cartesian physical times (the time-reparameterization alignment) and
    the positions are compared.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    t_end = float(t_grid[-1])
    cart = integrate_cartesian(np.asarray(p0, float), np.asarray(q0, float), pot,
                               (0.0, t_end), rtol=_GAP_RTOL, atol=_GAP_ATOL)
    st = to_mcgehee(p0, q0, pot.beta)
    # generous tau budget; the stop comes from covering t_end in physical time
    traj = integrate(st, pot, (0.0, 1e4), rtol=_GAP_RTOL, atol=_GAP_ATOL, t_stop=t_end)
    rows = sample_at_physical_times(traj, t_grid)
    q_blown = rows[:, 0:1] * np.stack(
        [np.cos(rows[:, 1]), np.sin(rows[:, 1])], axis=1
    )
    q_cart = cart.sample(t_grid)[:, :2]  # raw rows are (qx, qy, px, py)
    return float(np.max(np.hypot(*(q_blown - q_cart).T)))


# ------------------------------------------------------------------ checks


def _check_jets(rng: np.random.Generator) -> CheckResult:
    pots = [
        compile_potential(spec_from_dict({"builtin": "isosceles", "params": {"alpha": 1.0}})),
        compile_potential(spec_from_dict({"builtin": "yoshida_g", "params": {"epsilon": 4.0}})),
    ]
    for _ in range(3):
        pots.append(
            compile_potential(PotentialSpec(beta=-1.0, expr=random_trig_poly(rng)))
        )
    worst = max(jet_fd_error(pot) for pot in pots)
    return CheckResult("jet-vs-fd", worst <= 1e-6, worst, 1e-6,
                       "V', V'' vs central differences, 1000-point grids")


def _check_energy(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for spec in (
        {"builtin": "isosceles", "params": {"alpha": 1.0}},
        {"builtin": "yoshida_g", "params": {"epsilon": 4.0}},
    ):
        pot = compile_potential(spec_from_dict(spec))
        for _ in range(3):
            worst = max(worst, energy_drift(pot, random_mcgehee_state(pot, rng)))
    return CheckResult("energy-conservation", worst <= 1e-8, worst, 1e-8,
                       "relative h drift, tau in [0, 50], rtol 1e-10")


def _check_manifold_invariance(rng: np.random.Generator) -> CheckResult:
    pot = compile_potential(spec_from_dict({"builtin": "yoshida_g", "params": {"epsilon": 4.0}}))
    worst = 0.0
    for _ in range(3):
        theta = _random_theta(pot, rng)
        cap = -2.0 * float(pot.V(theta).val)
        v = float(rng.uniform(-0.9, 0.9)) * math.sqrt(cap)
        w = math.sqrt(cap - v * v)
        traj = integrate_manifold(ManifoldState(theta, v, w), pot, (0.0, 30.0))
        worst = max(worst, traj.max_abs_z)
    return CheckResult("manifold-invariance", worst <= 1e-9, worst, 1e-9,
                       "max |z| along M-orbits, tau in [0, 30]")


def _check_gradient_like(rng: np.random.Generator) -> CheckResult:
    slack = 0.0
    for spec in (
        {"builtin": "isosceles", "params": {"alpha": 1.0}},
        {"builtin": "yoshida_g", "params": {"epsilon": 4.0}},
    ):
        pot = compile_potential(spec_from_dict(spec))
        for _ in range(3):
            theta = _random_theta(pot, rng)
            cap = -2.0 * float(pot.V(theta).val)
            v = float(rng.uniform(-0.9, 0.9)) * math.sqrt(cap)
            w = math.copysign(math.sqrt(cap - v * v), rng.uniform(-1.0, 1.0))
            try:
                traj = integrate_manifold(ManifoldState(theta, v, w), pot, (0.0, 20.0))
            except (StepUnderflowError, LeftDomainError):
                continue
            # Trust only the prefix that is still on M: for beta < 0 the
            # transversal drift is expanding and eventually swamps the
            # subsystem dynamics (see the projection chart in mcgehee.flow).
            bad = np.nonzero(np.abs(traj.zs) > 1e-9)[0]
            vs = traj.vs[: int(bad[0])] if len(bad) else traj.vs
            drops = np.diff(vs)
            slack = max(slack, float(max(0.0, -np.min(drops))) if len(drops) else 0.0)
    return CheckResult("gradient-like", slack <= 1e-10, slack, 1e-10,
                       "v nondecreasing along M-orbits (beta > -2)")


def _check_flow_equivalence(rng: np.random.Generator) -> CheckResult:
    pot = compile_potential(spec_from_dict({"builtin": "isosceles", "params": {"alpha": 1.0}}))
    t_grid = np.linspace(0.0, 5.0, 101)
    worst = 0.0
    for _ in range(3):
        q = np.array([rng.uniform(0.8, 1.5), 0.0])
        q[1] = rng.uniform(-0.4, 0.4) * q[0]
        # launch outward so the orbit neither collides nor leaves the domain
        # inside the compared window
        p = rng.uniform(-0.3, 0.3, size=2) + 3.0 * q / np.hypot(*q)
        worst = max(worst, flow_equivalence_gap(pot, p, q, t_grid))
    return CheckResult("flow-equivalence", worst <= 1e-6, worst, 1e-6,
                       "Cartesian vs blown-up positions, t in [0, 5]")


def _check_threshold_isosceles() -> CheckResult:
    spec = spec_from_dict({"builtin": "isosceles", "params": {"alpha": 1.0}})
    res = sweep_threshold(spec, "alpha", 1.0, 20.0, grid_m=60)
    dev = (
        abs(res.thresholds[0] - 55.0 / 4.0) if len(res.thresholds) == 1 else math.inf
    )
    return CheckResult("threshold-isosceles", dev <= 1e-6, dev, 1e-6,
                       f"|alpha* - 55/4|, thresholds={list(res.thresholds)}")


def _check_threshold_yoshida() -> CheckResult:
    spec = spec_from_dict({"builtin": "yoshida_g", "params": {"epsilon": 0.0}})
    lower = sweep_threshold(spec, "epsilon", -0.9, 0.9, grid_m=60)
    upper = sweep_threshold(spec, "epsilon", 1.1, 10.0, grid_m=60)
    dev = math.inf
    if len(lower.thresholds) == 1 and len(upper.thresholds) == 1:
        dev = max(
            abs(lower.thresholds[0] - (-0.125)),
            abs(upper.thresholds[0] - 25.0 / 7.0),
        )
    return CheckResult("threshold-yoshida", dev <= 1e-6, dev, 1e-6,
                       "|eps* - (-1/8)| and |eps* - 25/7|")


def run_all(seed: int) -> list[CheckResult]:
    """Run the whole suite deterministically and return one result per check."""
    rng = np.random.default_rng(seed)
    return [
        _check_jets(rng),
        _check_energy(rng),
        _check_manifold_invariance(rng),
        _check_gradient_like(rng),
        _check_flow_equivalence(rng),
        _check_threshold_isosceles(),
        _check_threshold_yoshida(),
    ]
