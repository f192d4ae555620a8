"""Blown-up dynamics of planar Hamiltonians with homogeneous potentials.

McGehee coordinates (r, theta, v, w) replace (q, p) via

    q = r(cos theta, sin theta),
    p = r^(beta/2) (v e_r + w e_theta),

and the rescaled time dt = r^(1 - beta/2) dtau turns the collision r = 0
into an invariant boundary.  In these variables

    dr/dtau     = r v
    dtheta/dtau = w
    dv/dtau     = -(beta/2) v^2 + w^2 - beta V(theta)
    dw/dtau     = -(beta/2 + 1) v w - V'(theta)

and the energy relation reads h = r^beta z with z = (v^2 + w^2)/2 + V(theta).
The set M = {z = 0} is the collision manifold; on it dv/dtau =
(beta/2 + 1) w^2, so for beta != -2 the flow is gradient-like in v.

Full-system integration works on (rho, theta, v, w, t, ell) with
rho = log r and ell = log|z| (z keeps one sign along an orbit, since
z = h r^-beta), plus physical time t (dt/dtau = r^(1 - beta/2)).  The log
form is not cosmetic; it is what makes the reported energy honest:

  * Reconstructing z from (v, w, theta) costs an absolute rounding error
    near 1e-16, which r^beta turns into an enormous *relative* error in
    h = r^beta z whenever orbits run to large or small r.
  * Carrying r and z directly keeps them relatively accurate, but their
    truncation errors accumulate independently, and h inherits the sum:
    about n_steps * rtol over a long span (measured ~4e-6 over tau = 50
    on escape orbits), far above what energy conservation should cost.
  * In log form d(rho)/dtau = v and d(ell)/dtau = -beta v are linear in
    the *same* stage samples of v, so every Runge-Kutta increment of
    log h = beta rho + ell cancels to rounding (exactly so when beta is a
    power of two, e.g. the builtins).  Energy drift lands at the 1e-12
    level, and r^beta z never overflows because only beta rho + ell is
    ever exponentiated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import IO, Sequence

import numpy as np

from .critical import bracketed_newton, find_critical_points
from .errors import (
    DomainError,
    DomainViolationError,
    LeftDomainError,
    McGeheeError,
    NotSaddleError,
    OriginSingularityError,
)
from .potentials import Potential
from .rk import ATOL, RTOL, RawSolution, solve

__all__ = ["McGeheeState", "ManifoldState", "Equilibrium", "Linearization", "Trajectory",
           "CartesianTrajectory", "SpiralDiagnostics", "to_mcgehee", "from_mcgehee", "energy",
           "vector_field", "integrate", "integrate_manifold", "find_equilibria", "linearize",
           "trace_invariant_manifold", "cartesian_vector_field", "integrate_cartesian",
           "check_beta_minus2_integral", "sample_at_physical_times"]

CAPTURE_DISTANCE = 1e-3  # "approaches the focus" cutoff for spiral capture
# Largest handoff distance at which a separatrix is continued with the linear
# flow of its target focus.  The neglected Taylor terms of the on-M field are
# O(distance) relative, so the continued phase errs by O(1e-9) rad.
LINEAR_HANDOFF = 1e-9
# the |z| within which integrate_manifold's on-M start counts as on M
_MANIFOLD_TOL = 1e-12
# trace_invariant_manifold's tolerances, tighter than the plain integrators'
# because the departure phase amplifies seed-level noise by
# exp(|lambda_stable| * tau_departure)
_TRACE_RTOL, _TRACE_ATOL = 1e-12, 1e-15


def _z(pot: Potential, theta: float, v: float, w: float) -> float:
    """z = (v^2 + w^2)/2 + V(theta), the energy factor h = r^beta z."""
    return 0.5 * (v**2 + w**2) + float(pot.V(theta).val)


@dataclass(frozen=True)
class McGeheeState:
    r: float
    theta: float
    v: float
    w: float

    def z(self, pot: Potential) -> float:
        return _z(pot, self.theta, self.v, self.w)


@dataclass(frozen=True)
class ManifoldState:
    theta: float
    v: float
    w: float

    def z(self, pot: Potential) -> float:
        return _z(pot, self.theta, self.v, self.w)

    def as_array(self) -> np.ndarray:
        return np.array([self.theta, self.v, self.w])


@dataclass(frozen=True)
class Equilibrium:
    """Rest point D^+/D^- of the (theta, v, w) subsystem on M."""

    theta_c: float
    sign: str                       # "+" or "-"
    v_star: float                   # sign * sqrt(-2 V(theta_c))
    lambda1: float                  # -beta * v_star, eigenvector (0, 1, 0)
    lambda23: tuple[complex, complex]
    type: str                       # saddle | stable_focus | unstable_focus | node | center

    def point(self) -> ManifoldState:
        return ManifoldState(self.theta_c, self.v_star, 0.0)

    def to_dict(self) -> dict:
        return {
            "theta_c": self.theta_c,
            "sign": self.sign,
            "v_star": self.v_star,
            "lambda1": self.lambda1,
            "lambda23": [[l.real, l.imag] for l in self.lambda23],
            "type": self.type,
        }


@dataclass(frozen=True)
class Linearization:
    matrix: np.ndarray              # 3x3, rows in (theta, v, w) order
    lambda1: float
    lambda23: tuple[complex, complex]
    eigvec1: tuple[float, float, float]
    type: str
    eig_residual: float             # |matrix @ eigvec1 - lambda1 * eigvec1|
    charpoly_residual: float        # max |lambda^2 + b lambda + c| over lambda23


@dataclass(frozen=True)
class SpiralDiagnostics:
    """Winding of a traced separatrix around the rest point it ends nearest.

    ``to_dict`` keeps the six headline keys.  How the phase splits between
    the absolute run and the linear focal continuation, the distance at the
    handoff and the log-distance are attributes only.
    """

    target_theta: float
    target_v_star: float
    swept_angle: float              # radians wound around the target, |total|
    min_distance: float
    terminal_distance: float
    captured: bool                  # terminal distance within CAPTURE_DISTANCE
    absolute_angle: float           # |phase| resolved in absolute coordinates
    continued_angle: float          # |phase| of the linear focal continuation
    handoff_distance: float | None  # where the continuation took over, if it did
    log_terminal_distance: float    # log(terminal_distance), kept past underflow

    def to_dict(self) -> dict:
        return {
            "target_theta": self.target_theta,
            "target_v_star": self.target_v_star,
            "swept_angle": self.swept_angle,
            "min_distance": self.min_distance,
            "terminal_distance": self.terminal_distance,
            "captured": self.captured,
        }


_CSV_HEADER = "tau,t,r,theta,v,w,z,h"


@dataclass
class Trajectory:
    """Accepted-step samples of a blown-up orbit.

    ``taus`` is strictly monotone (increasing for forward runs, decreasing
    for backward ones); t is monotone wherever r > 0.  For subsystem runs
    (``subsystem=True``) the r and t columns are placeholders (0 and NaN)
    and z is reconstructed from the state; for full runs z and h come from
    the carried log-radial components (h = r^beta z evaluated as
    sign(z) exp(beta log r + log|z|)).
    """

    pot: Potential
    taus: np.ndarray
    ts: np.ndarray
    rs: np.ndarray
    thetas: np.ndarray
    vs: np.ndarray
    ws: np.ndarray
    zs: np.ndarray
    hs: np.ndarray
    reason: str
    reason_detail: dict = field(default_factory=dict)
    subsystem: bool = False
    spiral: SpiralDiagnostics | None = None
    raw: RawSolution | None = None

    def __len__(self) -> int:
        return len(self.taus)

    @property
    def final_state(self) -> McGeheeState | ManifoldState:
        i = -1
        if self.subsystem:
            return ManifoldState(float(self.thetas[i]), float(self.vs[i]), float(self.ws[i]))
        return McGeheeState(
            float(self.rs[i]), float(self.thetas[i]), float(self.vs[i]), float(self.ws[i])
        )

    @property
    def max_abs_z(self) -> float:
        return float(np.max(np.abs(self.zs)))

    def sample(self, taus) -> np.ndarray:
        """Dense-output states at requested times, one row per query, in the
        raw component order ((log r, theta, v, w, t, log|z|) for full runs,
        (theta, v, w) for subsystem runs)."""
        if self.raw is None:
            raise ValueError("trajectory carries no dense-output data")
        return self.raw.sample(taus)

    def write_csv(self, stream: IO[str]) -> None:
        row = ",".join(["%.17g"] * 8) + "\n"
        cols = (self.taus, self.ts, self.rs, self.thetas, self.vs, self.ws, self.zs, self.hs)
        stream.write(_CSV_HEADER + "\n")
        stream.writelines(row % r for r in zip(*(c.tolist() for c in cols)))


def to_mcgehee(p: Sequence[float], q: Sequence[float], beta: float) -> McGeheeState:
    """Cartesian (p, q) -> blown-up (r, theta, v, w).  q = 0 is the collision
    itself and has no image."""
    qx, qy = float(q[0]), float(q[1])
    px, py = float(p[0]), float(p[1])
    r = math.hypot(qx, qy)
    if r == 0.0:
        raise OriginSingularityError("q = 0 has no McGehee image")
    theta = math.atan2(qy, qx)
    scale = r ** (-beta / 2.0)
    cos_t, sin_t = qx / r, qy / r
    v = scale * (px * cos_t + py * sin_t)
    w = scale * (-px * sin_t + py * cos_t)
    return McGeheeState(r, theta, v, w)


def from_mcgehee(state: McGeheeState, beta: float) -> tuple[np.ndarray, np.ndarray]:
    cos_t, sin_t = math.cos(state.theta), math.sin(state.theta)
    q = state.r * np.array([cos_t, sin_t])
    scale = state.r ** (beta / 2.0)
    p = scale * np.array(
        [state.v * cos_t - state.w * sin_t, state.v * sin_t + state.w * cos_t]
    )
    return p, q


def energy(state: McGeheeState, pot: Potential) -> float:
    """h = r^beta z, evaluated definitionally from the state."""
    return state.r**pot.beta * state.z(pot)


def _vw_rates(b: float, v: float, w: float, val: float, d1: float) -> tuple[float, float]:
    """(dv, dw)/dtau, given V and V' at theta; shared by every chart."""
    return -(b / 2.0) * v * v + w * w - b * val, -(b / 2.0 + 1.0) * v * w - d1


def vector_field(state: McGeheeState, pot: Potential) -> np.ndarray:
    """(dr, dtheta, dv, dw)/dtau at the given state."""
    v, w = state.v, state.w
    val, d1, _ = pot.V(state.theta)
    return np.array([state.r * v, w, *_vw_rates(pot.beta, v, w, val, d1)])


def _full_rhs(pot: Potential):
    b, V, exp = pot.beta, pot.V_float, math.exp
    texp = 1.0 - b / 2.0

    def rhs(tau: float, y: tuple) -> tuple:
        # an overflowing exp raises OverflowError, which rejects the step
        rho, th, v, w, _, _ = y
        val, d1, _ = V(th)
        return (v, w, *_vw_rates(b, v, w, val, d1), exp(texp * rho), -b * v)

    return rhs


def _manifold_rhs(pot: Potential):
    b, V = pot.beta, pot.V_float

    def rhs(tau: float, y: tuple) -> tuple:
        th, v, w = y
        val, d1, _ = V(th)
        return (w, *_vw_rates(b, v, w, val, d1))

    return rhs


def _manifold_projector(pot: Potential):
    """One Newton step of z -> 0 through the steeper of v, w.

    The collision manifold z = (v^2 + w^2)/2 + V(theta) = 0 is exactly
    invariant, but the transversal direction is *expanding* whenever
    beta * v < 0 along the run (rate -beta*v), so integration noise off the
    manifold grows exponentially and eventually dominates the on-manifold
    dynamics.  Re-projecting each accepted step removes that spurious
    channel without touching the (theta, w) spiral coordinates; the
    residual after one Newton step is quadratic in the (tiny) per-step
    drift, i.e. negligible.
    """

    V = pot.V_float

    def project(tau: float, y: tuple) -> tuple:
        th, v, w = y
        z = 0.5 * (v * v + w * w) + V(th)[0]
        if z == 0.0:
            return y
        if abs(v) >= abs(w):
            if abs(v) < 1e-8:
                return y  # gradient of z too flat to project safely
            return th, v - z / v, w
        return th, v, w - z / w

    return project


def _subsystem_stop(eq_tol: float | None, slice_from: int):
    if eq_tol is None:
        return None

    def stop(tau: float, y: tuple, f: tuple) -> str | None:
        if all(abs(x) < eq_tol for x in f[slice_from : slice_from + 3]):
            return "reached_equilibrium"
        return None

    return stop


def _nearest_center(pot: Potential, theta: float, eq: Equilibrium) -> float:
    """theta_c shifted by whole turns to sit nearest an unwrapped angle."""
    if not pot.domain.periodic:
        return eq.theta_c
    turns = round((theta - eq.theta_c) / (2.0 * math.pi))
    return eq.theta_c + 2.0 * math.pi * turns


def _eq_distance(pot: Potential, theta: float, v: float, w: float, eq: Equilibrium) -> float:
    center = _nearest_center(pot, theta, eq)
    return math.sqrt((theta - center) ** 2 + (v - eq.v_star) ** 2 + w**2)


def _equilibrium_detail(pot: Potential, theta: float, v: float, w: float) -> dict:
    detail: dict = {}
    try:
        eqs = find_equilibria(pot)
    except McGeheeError:
        return detail
    if eqs:
        detail["distance"] = min(_eq_distance(pot, theta, v, w, e) for e in eqs)
    return detail


def integrate(
    state0: McGeheeState,
    pot: Potential,
    tau_span: tuple[float, float],
    rtol: float = RTOL,
    atol: float = ATOL,
    eq_tol: float | None = None,
    t_stop: float | None = None,
) -> Trajectory:
    """Integrate the full blown-up system over ``tau_span``.

    Physical time t (from t=0) and log|z| ride along as extra components
    (see the module docstring for why the radial pair is integrated in log
    form); backward spans (tau1 < tau0) are allowed.  With ``eq_tol`` set,
    the run stops once the (theta, v, w) speed drops below it and the
    reason records the distance to the nearest rest point.  ``t_stop`` ends
    a forward run once the carried physical time reaches it, which is how a
    tau-parameterized run covers a prescribed t-window without guessing the
    tau span.
    """
    tau0, tau1 = float(tau_span[0]), float(tau_span[1])
    if not (state0.r > 0.0 and math.isfinite(state0.r)):
        raise DomainViolationError(f"r = {state0.r} is outside the blow-up chart")
    try:
        z0 = state0.z(pot)
    except DomainError as exc:
        raise LeftDomainError("initial state lies outside the potential domain") from exc
    if z0 == 0.0:
        raise LeftDomainError(
            "initial state has zero energy (h = 0, z = 0): log|z| is undefined, and the"
            " (theta, v, w) orbit lies on the collision manifold M = {z = 0}"
        )
    z_sign = math.copysign(1.0, z0)
    y0 = (math.log(state0.r), state0.theta, state0.v, state0.w, 0.0, math.log(abs(z0)))
    eq_stop = _subsystem_stop(eq_tol, slice_from=1)
    if t_stop is None:
        stop = eq_stop
    else:
        def stop(tau: float, y: tuple, f: tuple) -> str | None:
            if y[4] >= t_stop:
                return "t_stop"
            return eq_stop(tau, y, f) if eq_stop is not None else None

    sol = solve(_full_rhs(pot), tau0, y0, tau1, rtol=rtol, atol=atol, stop=stop)
    ys = sol.ys
    with np.errstate(over="ignore"):
        rs = np.exp(ys[:, 0])
        zs = z_sign * np.exp(ys[:, 5])
        hs = z_sign * np.exp(pot.beta * ys[:, 0] + ys[:, 5])
    traj = Trajectory(pot=pot, taus=sol.ts, ts=ys[:, 4], rs=rs, thetas=ys[:, 1], vs=ys[:, 2],
                      ws=ys[:, 3], zs=zs, hs=hs, reason=sol.reason, raw=sol)
    if sol.reason == "reached_equilibrium":
        traj.reason_detail = _equilibrium_detail(
            pot, float(ys[-1, 1]), float(ys[-1, 2]), float(ys[-1, 3])
        )
    return traj


def integrate_manifold(
    m0: ManifoldState,
    pot: Potential,
    tau_span: tuple[float, float],
    on_manifold: bool = True,
    project: bool = False,
) -> Trajectory:
    """Integrate the r-independent (theta, v, w) subsystem over ``tau_span``.

    In on-M mode the start must satisfy |z| <= 1e-12, and the trajectory's
    z column (reconstructed per sample) doubles as the invariance
    diagnostic ``max_abs_z``.  With ``project=True`` every accepted step is
    Newton-projected back onto z = 0 (see ``_manifold_projector``); the z
    column is then ~0 by construction and no longer measures drift.
    """
    z0 = m0.z(pot)
    if on_manifold and abs(z0) > _MANIFOLD_TOL:
        raise DomainViolationError(f"|z| = {abs(z0):.3e} exceeds {_MANIFOLD_TOL:.1e}: not on M")
    return _manifold_run(m0, pot, tau_span, RTOL, ATOL, None, project)


def _manifold_run(m0, pot, tau_span, rtol, atol, eq_tol, project) -> Trajectory:
    """``integrate_manifold`` without its start check; ``eq_tol`` ends the
    run at a rest point as in ``integrate``."""
    sol = solve(
        _manifold_rhs(pot), float(tau_span[0]), (m0.theta, m0.v, m0.w), float(tau_span[1]),
        rtol=rtol, atol=atol, stop=_subsystem_stop(eq_tol, slice_from=0),
        postprocess=_manifold_projector(pot) if project else None,
    )
    thetas, vs, ws = sol.ys[:, 0], sol.ys[:, 1], sol.ys[:, 2]
    zs = 0.5 * (vs**2 + ws**2) + pot.V(thetas).val
    n = len(sol.ts)
    return Trajectory(pot=pot, taus=sol.ts, ts=np.full(n, math.nan), rs=np.zeros(n),
                      thetas=thetas, vs=vs, ws=ws, zs=zs, hs=np.zeros(n), reason=sol.reason,
                      subsystem=True, raw=sol)


def _eigen_data(b: float, v_star: float, c: float):
    """lambda1, the pair lambda23 and the type of a rest point of degree b
    with V''(theta_c) = c."""
    lam1 = -b * v_star
    # lambda^2 + p lambda + c = 0 with p = (beta/2 + 1) v_star
    p = (b / 2.0 + 1.0) * v_star
    disc = p * p - 4.0 * c
    if disc >= 0.0:
        sq = math.sqrt(disc)
        if p == 0.0 and c == 0.0:
            roots = (0.0 + 0.0j, 0.0 + 0.0j)
        else:
            qq = -(p + math.copysign(sq, p)) / 2.0
            if qq == 0.0:  # p == 0, c < 0: symmetric real pair
                roots = (complex(sq / 2.0), complex(-sq / 2.0))
            else:
                roots = (complex(qq), complex(c / qq))
        roots = tuple(sorted(roots, key=lambda z: -z.real))
        if c < 0.0:
            kind = "saddle"
        else:
            kind = "node"
    else:
        im = math.sqrt(-disc) / 2.0
        re = -p / 2.0
        roots = (complex(re, im), complex(re, -im))
        scale = 1e-12 * max(1.0, abs(p), math.sqrt(abs(c)))
        if re > scale:
            kind = "unstable_focus"
        elif re < -scale:
            kind = "stable_focus"
        else:
            kind = "center"
    return lam1, roots, kind


def find_equilibria(pot: Potential) -> list[Equilibrium]:
    """D^+/D^- rest points over every critical angle with V < 0.

    Critical points with V(theta_c) >= 0 carry no real rest point (the
    radicand -2V would be negative) and are skipped; they remain visible
    through find_critical_points.
    """
    out: list[Equilibrium] = []
    for cp in find_critical_points(pot):
        if cp.value >= 0.0:
            continue
        mag = math.sqrt(-2.0 * cp.value)
        for sign, v_star in (("-", -mag), ("+", mag)):
            lam1, roots, kind = _eigen_data(pot.beta, v_star, cp.curvature)
            out.append(Equilibrium(theta_c=cp.theta, sign=sign, v_star=v_star, lambda1=lam1,
                                   lambda23=roots, type=kind))
    return out


def linearize(eq: Equilibrium, pot: Potential) -> Linearization:
    """Coefficient matrix of the subsystem at ``eq`` plus eigen-data and the
    residuals that certify it."""
    b, c = pot.beta, float(pot.V(eq.theta_c).d2)
    p = (b / 2.0 + 1.0) * eq.v_star
    m = np.array([[0.0, 0.0, 1.0], [0.0, -b * eq.v_star, 0.0], [-c, 0.0, -p]])
    lam1, roots, kind = _eigen_data(b, eq.v_star, c)
    e1 = np.array([0.0, 1.0, 0.0])
    eig_res = float(np.max(np.abs(m @ e1 - lam1 * e1)))
    char_res = max(abs(l * l + p * l + c) for l in roots)
    return Linearization(matrix=m, lambda1=lam1, lambda23=roots, eigvec1=(0.0, 1.0, 0.0),
                         type=kind, eig_residual=eig_res, charpoly_residual=char_res)


def _signed_phase(thetas: np.ndarray, ws: np.ndarray, center_theta: float) -> float:
    angles = np.unwrap(np.arctan2(ws, thetas - center_theta))
    return float(angles[-1] - angles[0])


def _continue_focus(eq: Equilibrium, x: float, w: float, dtau: float) -> tuple[float, float]:
    """Signed phase gained and log-distance reached by the linear focal flow.

    In the deviation coordinates (x, w) = (theta - theta_c, w) the on-M flow
    near a focus with eigenvalues a +/- ib (b > 0) is the block
    [[0, 1], [-V''(theta_c), -(beta/2 + 1) v*]]; dv - v* is slaved to z = 0
    and O(distance^2), so it is dropped.  The shear (u, s) = (x, (w - a x)/b)
    turns the block into a uniform rotation psi' = -b with radius e^(a tau).
    The phase atan2(w, x) differs from psi by a 2pi-periodic offset inside
    (-pi, pi) (the shear preserves orientation and has no negative
    eigenvalue), so its unwrapped change over ``dtau`` is -b dtau plus the
    change of that offset.
    """
    a, b = eq.lambda23[0].real, abs(eq.lambda23[0].imag)
    u, s = x, (w - a * x) / b
    psi0 = math.atan2(s, u)
    psi1 = psi0 - b * dtau

    def offset(psi: float) -> float:
        c, sn = math.cos(psi), math.sin(psi)
        return math.remainder(math.atan2(a * c + b * sn, c) - psi, 2.0 * math.pi)

    phase = -b * dtau + offset(psi1) - offset(psi0)
    c, sn = math.cos(psi1), math.sin(psi1)
    log_dist = a * dtau + math.log(math.hypot(u, s)) + math.log(math.hypot(c, a * c + b * sn))
    return phase, log_dist


def trace_invariant_manifold(
    eq: Equilibrium,
    pot: Potential,
    branch: tuple[str, str],
    offset: float = 1e-7,
    max_tau: float = 200.0,
    eq_tol: float | None = 1e-14,
) -> Trajectory:
    """Trace a separatrix of a saddle on M and record spiral diagnostics.

    ``branch`` picks the eigen-direction: ("unstable" | "stable", "+" | "-").
    The seed sits ``offset`` along the within-M eigenvector (1, 0, lambda)
    (normalized), Newton-projected back onto z = 0 through v; unstable
    branches run forward in tau, stable ones backward.  The run keeps the
    projection of ``integrate_manifold(project=True)`` switched on: without
    it, transversal noise grows like exp(-beta * integral of v) and, when
    that rate is positive along the branch, throws the separatrix off M
    before it can wind up on its focus.  The returned trajectory's
    ``spiral`` field measures winding around the nearest rest point to the
    endpoint.

    Absolute coordinates stop resolving a focus near ulp(theta_c) ~ 1e-16,
    and ``eq_tol`` ends the run a little above that floor.  When the run
    ended there (``reached_equilibrium``), within ``LINEAR_HANDOFF`` of a
    focus that attracts in the direction of integration, the winding is
    carried on in closed form with the linear flow of that focus up to
    ``+/-max_tau`` (see ``_continue_focus``): the quadratic Taylor terms are
    O(distance) relative there, so the flow is linear to rounding.  The
    spiral's swept angle, terminal and minimum distance then describe the
    continued state; ``absolute_angle`` keeps the phase of the sampled run
    alone and ``log_terminal_distance`` keeps a distance that may underflow.
    The samples, and so the CSV, stop where the absolute run stopped.
    Saddles, nodes, centres and runs that end at the span keep the absolute
    result.
    """
    kind, direction = branch
    if kind not in ("unstable", "stable") or direction not in ("+", "-"):
        raise ValueError(f"branch {branch!r} is not (unstable|stable, +|-)")
    l2, l3 = eq.lambda23
    if not (l2.imag == 0.0 and l3.imag == 0.0 and l2.real * l3.real < 0.0):
        raise NotSaddleError(
            f"equilibrium at theta={eq.theta_c:.6g} ({eq.type}) has no real "
            "saddle directions on M"
        )
    lam = max(l2.real, l3.real) if kind == "unstable" else min(l2.real, l3.real)
    evec = np.array([1.0, 0.0, lam]) / math.sqrt(1.0 + lam * lam)
    s = 1.0 if direction == "+" else -1.0
    y0 = eq.point().as_array() + s * offset * evec
    if y0[1] != 0.0:
        y0[1] -= _z(pot, y0[0], y0[1], y0[2]) / y0[1]  # one Newton step of z through v

    span = (0.0, max_tau if kind == "unstable" else -max_tau)
    traj = _manifold_run(
        ManifoldState(float(y0[0]), float(y0[1]), float(y0[2])), pot, span,
        _TRACE_RTOL, _TRACE_ATOL, eq_tol, project=True,
    )

    eqs = find_equilibria(pot)
    th_end = float(traj.thetas[-1])
    v_end, w_end = float(traj.vs[-1]), float(traj.ws[-1])
    dists = [(_eq_distance(pot, th_end, v_end, w_end, e), e) for e in eqs]
    terminal, target = min(dists, key=lambda de: de[0])
    if traj.reason == "reached_equilibrium":
        traj.reason_detail = {"distance": terminal}
    center = _nearest_center(pot, th_end, target)
    path_d = np.sqrt(
        (traj.thetas - center) ** 2 + (traj.vs - target.v_star) ** 2 + traj.ws**2
    )
    phase = _signed_phase(traj.thetas, traj.ws, center)
    min_distance = float(np.min(path_d))
    log_terminal = math.log(terminal) if terminal > 0.0 else -math.inf
    continued, handoff = 0.0, None
    x_end = th_end - center
    dtau = span[1] - float(traj.taus[-1])
    if (
        traj.reason == "reached_equilibrium"
        and target.type in ("stable_focus", "unstable_focus")
        and target.lambda23[0].real * dtau < 0.0    # attracts in the run's direction
        and terminal <= LINEAR_HANDOFF
        and (x_end != 0.0 or w_end != 0.0)
    ):
        continued, log_terminal = _continue_focus(target, x_end, w_end, dtau)
        handoff, terminal = terminal, math.exp(log_terminal)
        min_distance = min(min_distance, terminal)
    traj.spiral = SpiralDiagnostics(
        target_theta=target.theta_c,
        target_v_star=target.v_star,
        swept_angle=abs(phase + continued),
        min_distance=min_distance,
        terminal_distance=float(terminal),
        captured=terminal <= CAPTURE_DISTANCE,
        absolute_angle=abs(phase),
        continued_angle=abs(continued),
        handoff_distance=handoff,
        log_terminal_distance=log_terminal,
    )
    return traj


@dataclass
class CartesianTrajectory:
    """Accepted-step samples of the unregularized Hamiltonian flow."""

    pot: Potential
    ts: np.ndarray
    qs: np.ndarray        # shape (n, 2)
    ps: np.ndarray        # shape (n, 2)
    reason: str
    raw: RawSolution | None = None

    def __len__(self) -> int:
        return len(self.ts)

    def hamiltonian(self) -> np.ndarray:
        kinetic = 0.5 * np.sum(self.ps**2, axis=1)
        return kinetic + np.array([self.pot.U(q) for q in self.qs])

    def sample(self, ts) -> np.ndarray:
        if self.raw is None:
            raise ValueError("trajectory carries no dense-output data")
        return self.raw.sample(ts)


def cartesian_vector_field(
    p: Sequence[float], q: Sequence[float], pot: Potential
) -> np.ndarray:
    """(dq, dp)/dt = (p, -grad U(q))."""
    g = pot.grad_U(q)
    return np.array([p[0], p[1], -g[0], -g[1]], dtype=float)


def integrate_cartesian(
    p0: Sequence[float],
    q0: Sequence[float],
    pot: Potential,
    t_span: tuple[float, float],
    rtol: float = RTOL,
    atol: float = ATOL,
) -> CartesianTrajectory:
    def rhs(t: float, y: tuple) -> tuple:
        try:
            return tuple(cartesian_vector_field(y[2:], y[:2], pot).tolist())
        except OriginSingularityError as err:
            raise DomainError(str(err)) from err

    y0 = (q0[0], q0[1], p0[0], p0[1])
    sol = solve(rhs, float(t_span[0]), y0, float(t_span[1]), rtol=rtol, atol=atol)
    return CartesianTrajectory(
        pot=pot, ts=sol.ts, qs=sol.ys[:, :2], ps=sol.ys[:, 2:], reason=sol.reason,
        raw=sol,
    )


def check_beta_minus2_integral(traj: CartesianTrajectory) -> float:
    """Max |G - G(0)| along a Cartesian orbit, G = (q.p)^2 - 2 |q|^2 H.

    G is a first integral exactly when the potential has degree -2; for any
    other degree the returned deviation is a discriminating diagnostic, not
    an error estimate.
    """
    qp = np.sum(traj.qs * traj.ps, axis=1)
    g = qp**2 - 2.0 * np.sum(traj.qs**2, axis=1) * traj.hamiltonian()
    return float(np.max(np.abs(g - g[0])))


def sample_at_physical_times(traj: Trajectory, times: Sequence[float]) -> np.ndarray:
    """Invert the monotone t(tau) map of a full-system trajectory and return
    dense-output rows (r, theta, v, w, t, z) at the requested physical times."""
    if traj.subsystem:
        raise ValueError("subsystem trajectories carry no physical time")
    forward = traj.taus[-1] >= traj.taus[0]
    tau_sorted = traj.taus if forward else traj.taus[::-1]
    t_sorted = traj.ts if forward else traj.ts[::-1]  # dt/dtau > 0: t sorts with tau
    # Near a collision (r -> 0) dt/dtau underflows, so consecutive t samples
    # may tie; that is still invertible, only a strict reversal is not.
    if not np.all(np.diff(t_sorted) >= 0):
        raise ValueError("t is not monotone along this trajectory")
    t_star = np.asarray(times, dtype=float)
    inside = (t_sorted[0] - 1e-12 <= t_star) & (t_star <= t_sorted[-1] + 1e-12)
    if not inside.all():
        raise ValueError(f"t = {float(t_star[~inside][0])} outside the integrated range")
    # Newton on t(tau) = t_star in each query's bracket of accepted nodes;
    # the slope dt/dtau = exp((1 - beta/2) log r) is the carried derivative of t
    i = np.clip(np.searchsorted(t_sorted, t_star), 1, len(t_sorted) - 1)
    lo, hi = tau_sorted[i - 1], tau_sorted[i]

    def fdf(tau, k):
        row = traj.sample(tau)
        with np.errstate(over="ignore"):
            return row[:, 4] - t_star[k], np.exp((1.0 - traj.pot.beta / 2.0) * row[:, 0])

    tau = bracketed_newton(fdf, lo, hi, -1.0, 0.5 * (lo + hi))
    rows = traj.sample(tau)
    # raw components are (log r, theta, v, w, t, log|z|); undo the logs
    z_sign = math.copysign(1.0, traj.zs[0]) if traj.zs[0] != 0.0 else 0.0
    with np.errstate(over="ignore"):
        rows[:, 0] = np.exp(rows[:, 0])
        rows[:, 5] = z_sign * np.exp(rows[:, 5])
    return rows
