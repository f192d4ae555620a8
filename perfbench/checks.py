"""Checks of every operation's output, each made apart from the program.

Potentials are written out in closed form here (V, V' and V'' by hand),
trajectories are integrated again with scipy, and certificates are
recomputed from the coefficients of each trigonometric polynomial.  Nothing
is compared with a stored copy of an earlier output.  Every ``check_*``
function returns a list of problems; an empty list accepts the output.
"""
from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from workloads import SIMULATE_TAU, Op

TWO_PI = 2.0 * math.pi
STRICTNESS_TOL = 1e-9      # the default of certify
THRESHOLD_TOL = 1e-6       # distance of a sweep threshold from its exact value
MANIFOLD_TOL = 1e-7        # |theta, v, w| of a separatrix against scipy DOP853
SIMULATE_TOL = 1e-9        # |log r, theta, v, w, t| of an orbit against scipy DOP853
NEWTON_TOL = 1e-6          # relative gap of positions against Newton's equations
NEWTON_WINDOW = (1e-2, 1e2)  # r where the t column still resolves the orbit
ENERGY_DRIFT = 1e-8
MARGIN_RTOL = 1e-8         # A5/A6 margins against the reference
FINE_STEP = 1e-5           # A3/A4 grid: the bump is 2e-4 wide


# ------------------------------------------------------------ closed forms


class ClosedForm:
    """V, V' and V'' of a shape potential, written out by hand."""

    def __init__(self, beta, V, dV, d2V, periodic=True, sign=1.0):
        self.beta, self._V, self._dV, self._d2V = beta, V, dV, d2V
        self.periodic, self.sign = periodic, sign

    def _arg(self, theta):
        theta = np.asarray(theta, dtype=float)
        return np.mod(theta, TWO_PI) if self.periodic else theta

    def V(self, theta):
        return self.sign * self._V(self._arg(theta))

    def dV(self, theta):
        return self.sign * self._dV(self._arg(theta))

    def d2V(self, theta):
        return self.sign * self._d2V(self._arg(theta))

    def negated(self) -> "ClosedForm":
        return ClosedForm(self.beta, self._V, self._dV, self._d2V, self.periodic, -self.sign)


def isosceles(alpha: float) -> ClosedForm:
    k = 4.0 * alpha**1.5

    def V(t):
        return -1.0 / np.cos(t) - k / np.sqrt(alpha + 2.0 * np.sin(t) ** 2)

    def dV(t):
        s, c = np.sin(t), np.cos(t)
        return -s / c**2 + 2.0 * k * s * c * (alpha + 2.0 * s * s) ** -1.5

    return ClosedForm(-1.0, V, dV, None, periodic=False)


def isosceles_grad_U(alpha: float):
    """grad U for U(x, y) = -1/x - 4 alpha^1.5 / sqrt(alpha x^2 + (alpha+2) y^2)."""
    k = 4.0 * alpha**1.5

    def grad(x, y):
        d = (alpha * x * x + (alpha + 2.0) * y * y) ** 1.5
        return 1.0 / (x * x) + k * alpha * x / d, k * (alpha + 2.0) * y / d

    return grad


def yoshida_g(eps: float) -> ClosedForm:
    # -[(c^4 + s^4)/4 + (eps/2) c^2 s^2] = -1/4 - (eps - 1)(1 - cos 4t)/16
    return ClosedForm(
        4.0,
        lambda t: -0.25 - (eps - 1.0) * (1.0 - np.cos(4.0 * t)) / 16.0,
        lambda t: -(eps - 1.0) * np.sin(4.0 * t) / 4.0,
        lambda t: -(eps - 1.0) * np.cos(4.0 * t),
    )


def yoshida_g_grad_U(eps: float):
    """grad U for U(x, y) = -[(x^4 + y^4)/4 + (eps/2) x^2 y^2]."""
    return lambda x, y: (-(x**3 + eps * x * y * y), -(y**3 + eps * x * x * y))


def _builtin(builtin: str, param: str):
    value = float(param.split("=")[1])
    if builtin == "isosceles":
        return isosceles(value), isosceles_grad_U(value)
    return yoshida_g(value), yoshida_g_grad_U(value)


def trig_poly(c0: float, coefs, beta: float) -> ClosedForm:
    ks = np.arange(1, len(coefs) + 1, dtype=float)
    a = np.array([c[0] for c in coefs], dtype=float)
    b = np.array([c[1] for c in coefs], dtype=float)

    def parts(t):
        kt = np.multiply.outer(np.asarray(t, dtype=float), ks)
        return np.cos(kt), np.sin(kt)

    def V(t):
        c, s = parts(t)
        return c0 + c @ a + s @ b

    def dV(t):
        c, s = parts(t)
        return s @ (-ks * a) + c @ (ks * b)

    def d2V(t):
        c, s = parts(t)
        return c @ (-ks * ks * a) + s @ (-ks * ks * b)

    return ClosedForm(beta, V, dV, d2V)


def bump(beta: float) -> ClosedForm:
    """-1.5 + 0.3 cos 2t - 0.02 exp(-((t - 0.8)/2e-4)^2)."""
    w = 2e-4

    def g(t):
        u = (t - 0.8) / w
        return u, 0.02 * np.exp(-u * u)

    def V(t):
        return -1.5 + 0.3 * np.cos(2.0 * t) - g(t)[1]

    def dV(t):
        u, e = g(t)
        return -0.6 * np.sin(2.0 * t) + e * 2.0 * u / w

    def d2V(t):
        u, e = g(t)
        return -1.2 * np.cos(2.0 * t) + e * (2.0 / w**2) * (1.0 - 2.0 * u * u)

    return ClosedForm(beta, V, dV, d2V)


def _read_csv(text: str) -> np.ndarray:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["tau", "t", "r", "theta", "v", "w", "z", "h"]:
        raise ValueError("not a trajectory CSV")
    return np.array([[float(x) for x in row] for row in rows[1:]], dtype=float)


# ------------------------------------------------------------ sweep


def check_sweep(op: Op, out: str) -> list[str]:
    f = op.facts
    res = json.loads(out)
    problems = []
    thresholds = res["thresholds"]
    if len(thresholds) != 1:
        problems.append(f"{len(thresholds)} thresholds, expected one")
    for thr in thresholds:
        if abs(thr - f["threshold"]) > THRESHOLD_TOL:
            problems.append(f"threshold {thr!r} is {abs(thr - f['threshold']):.3g} "
                            f"from {f['threshold']!r}")
    grid = res["grid"]
    values = [v for v, _ in grid]
    if len(values) != f["grid_m"] or values[0] != f["lo"] or values[-1] != f["hi"]:
        problems.append("grid does not span the requested range")
    for v, conclusion in grid:
        if abs(v - f["threshold"]) <= THRESHOLD_TOL:
            continue
        nonintegrable = (v < f["threshold"]) == f["nonintegrable_below"]
        want = "NonIntegrable" if nonintegrable else "Inconclusive"
        if conclusion != want:
            problems.append(f"sample {v!r}: {conclusion}, expected {want}")
    return problems


# ------------------------------------------------------------ trace


def _on_m_rhs(cf: ClosedForm):
    b = cf.beta

    def rhs(tau, y):
        th, v, w = y
        return [w, -(b / 2.0) * v * v + w * w - b * cf.V(th),
                -(b / 2.0 + 1.0) * v * w - cf.dV(th)]

    return rhs


def _on_m_reduced_rhs(cf: ClosedForm, sign: float):
    """(theta, w) on M, with v = sign * sqrt(-2V - w^2) eliminated through z = 0,
    so the integration cannot drift off M."""
    b = cf.beta

    def rhs(tau, y):
        th, w = y
        v = sign * math.sqrt(max(-2.0 * float(cf.V(th)) - w * w, 0.0))
        return [w, -(b / 2.0 + 1.0) * v * w - float(cf.dV(th))]

    return rhs


def check_manifold(op: Op, out: str, diag_text: str) -> list[str]:
    cf, _ = _builtin(op.facts["builtin"], op.facts["param"])
    rows = _read_csv(out)
    diag = json.loads(diag_text)
    taus, th, v, w = rows[:, 0], rows[:, 3], rows[:, 4], rows[:, 5]
    problems = []

    # against scipy: where v keeps one sign, on M itself in (theta, w);
    # where it changes sign, in (theta, v, w), whose drift off M contracts
    # for beta > 0 once v > 0
    if np.all(v > 0.0) or np.all(v < 0.0):
        sign = 1.0 if v[0] > 0.0 else -1.0
        sol = solve_ivp(_on_m_reduced_rhs(cf, sign), (taus[0], taus[-1]), [th[0], w[0]],
                        method="DOP853", t_eval=taus, rtol=1e-13, atol=1e-15)
        ref_th, ref_w = sol.y
        ref_v = sign * np.sqrt(np.maximum(-2.0 * cf.V(ref_th) - ref_w**2, 0.0))
    else:
        sol = solve_ivp(_on_m_rhs(cf), (taus[0], taus[-1]), [th[0], v[0], w[0]],
                        method="DOP853", t_eval=taus, rtol=1e-13, atol=1e-15)
        ref_th, ref_v, ref_w = sol.y
    if not sol.success or sol.y.shape[1] != len(taus):
        return [f"scipy integration failed: {sol.message}"]
    gap = float(np.max(np.abs(np.concatenate([ref_th - th, ref_v - v, ref_w - w]))))
    if not gap <= MANIFOLD_TOL:
        problems.append(f"samples are {gap:.3g} from scipy DOP853 (tolerance {MANIFOLD_TOL})")

    z = 0.5 * (v * v + w * w) + cf.V(th)
    if not float(np.max(np.abs(z))) <= 1e-9:
        problems.append(f"samples leave M: max |z| = {float(np.max(np.abs(z))):.3g}")

    # on M dv/dtau = (beta/2 + 1) w^2 >= 0
    dv = np.diff(v) * np.sign(np.diff(taus))
    worst = float(np.min(dv)) if len(dv) else 0.0
    if worst < -1e-12 * max(1.0, float(np.max(np.abs(v)))):
        problems.append(f"v decreases along the run by {-worst:.3g}")

    theta_c, sign = op.facts["focus"]
    v_star = sign * math.sqrt(-2.0 * float(cf.V(theta_c)))
    if abs(math.remainder(diag["target_theta"] - theta_c, TWO_PI)) > 1e-9 or \
            abs(diag["target_v_star"] - v_star) > 1e-12 * abs(v_star):
        problems.append(f"target ({diag['target_theta']!r}, {diag['target_v_star']!r}) "
                        f"is not the focus ({theta_c!r}, {v_star!r})")
    if not diag["swept_angle"] >= 4.0 * math.pi:
        problems.append(f"swept angle {diag['swept_angle']!r} < 4 pi")
    if not diag["terminal_distance"] <= 1e-3:
        problems.append(f"terminal distance {diag['terminal_distance']!r} > 1e-3")
    return problems


def _blowup_rhs(cf: ClosedForm):
    b = cf.beta

    def rhs(tau, y):
        rho, th, v, w, _ = y
        return [v, w, -(b / 2.0) * v * v + w * w - b * float(cf.V(th)),
                -(b / 2.0 + 1.0) * v * w - float(cf.dV(th)),
                math.exp((1.0 - b / 2.0) * rho)]

    return rhs


def check_simulate(op: Op, out: str) -> list[str]:
    cf, grad_U = _builtin(op.facts["builtin"], op.facts["param"])
    b = cf.beta
    r0, th0, v0, w0 = op.facts["state"]
    rows = _read_csv(out)
    taus, ts, rs, th, v, w, hs = (rows[:, i] for i in (0, 1, 2, 3, 4, 5, 7))
    problems = []

    if taus[-1] != SIMULATE_TAU:
        problems.append(f"run ends at tau = {taus[-1]!r}, not {SIMULATE_TAU!r}")
    h0 = r0**b * (0.5 * (v0 * v0 + w0 * w0) + float(cf.V(th0)))
    drift = float(np.max(np.abs(hs - h0))) / abs(h0)
    if not drift <= ENERGY_DRIFT:
        problems.append(f"relative drift of h is {drift:.3g}")

    # the blown-up flow in tau, integrated again at the CSV's taus
    sol = solve_ivp(_blowup_rhs(cf), (taus[0], taus[-1]), [math.log(r0), th0, v0, w0, 0.0],
                    method="DOP853", t_eval=taus, rtol=1e-13, atol=1e-15)
    if not sol.success or sol.y.shape[1] != len(taus):
        return problems + [f"scipy integration of the blown-up flow failed: {sol.message}"]
    rho = np.log(rs)
    gap = max(float(np.max(np.abs(sol.y[0] - rho) / np.maximum(1.0, np.abs(rho)))),
              float(np.max(np.abs(sol.y[1:4] - np.array([th, v, w])))),
              float(np.max(np.abs(sol.y[4] - ts) / np.maximum(1.0, np.abs(ts)))))
    if not gap <= SIMULATE_TOL:
        problems.append(f"orbit is {gap:.3g} from scipy DOP853 in tau")

    # Newton's equations in physical time, on the rows before r leaves the
    # window: beyond it the t column's own error (~1e-10, integrated at
    # rtol 1e-10) is amplified by 1/(t_c - t) near collision and escape
    keep = (rs >= NEWTON_WINDOW[0]) & (rs <= NEWTON_WINDOW[1])
    keep &= np.cumprod(keep).astype(bool)
    c, s = math.cos(th0), math.sin(th0)
    scale = r0 ** (b / 2.0)
    y0 = [r0 * c, r0 * s, scale * (v0 * c - w0 * s), scale * (v0 * s + w0 * c)]

    def newton(t, y):
        gx, gy = grad_U(y[0], y[1])
        return [y[2], y[3], -gx, -gy]

    t_rows = ts[keep]
    if len(t_rows) < 10:
        return problems + [f"only {len(t_rows)} rows inside the Newton window"]
    nsol = solve_ivp(newton, (0.0, t_rows[-1]), y0, method="DOP853", t_eval=t_rows,
                     rtol=1e-13, atol=1e-15)
    if not nsol.success or nsol.y.shape[1] != len(t_rows):
        return problems + [f"scipy integration of Newton's equations failed: {nsol.message}"]
    q = np.array([rs[keep] * np.cos(th[keep]), rs[keep] * np.sin(th[keep])])
    rel = float(np.max(np.hypot(*(nsol.y[:2] - q)) / rs[keep]))
    if not rel <= NEWTON_TOL:
        problems.append(f"positions are {rel:.3g} (relative) from Newton's equations")
    return problems


# ------------------------------------------------------------ certificates


def critical_points(cf: ClosedForm, n: int = 1 << 19) -> list[float]:
    """Zeros of V' on [0, 2 pi): a sign scan 1.2e-5 apart refined by brentq."""
    grid = np.linspace(0.0, TWO_PI, n, endpoint=False)
    d = cf.dV(grid)
    s = np.sign(d)
    roots = [float(t) for t in grid[s == 0.0]]
    f = lambda t: float(cf.dV(t))
    for i in np.nonzero(s[:-1] * s[1:] < 0.0)[0]:
        roots.append(brentq(f, grid[i], grid[i + 1], xtol=1e-15))
    if s[-1] * s[0] < 0.0:
        roots.append(brentq(f, grid[-1], TWO_PI, xtol=1e-15) % TWO_PI)
    return sorted(roots)


def _triples(crit: list[float]):
    n = len(crit)
    if n < 2:
        return []
    return [(crit[i], crit[(i + 1) % n] + (TWO_PI if i + 1 >= n else 0.0),
             crit[(i + 2) % n] + (TWO_PI if i + 2 >= n else 0.0)) for i in range(n)]


def _margins(cf: ClosedForm, triple) -> tuple[list[float], list[float]]:
    """Margins of A1, A2, A3, A5, A6 over consecutive critical points (A4
    holds there by construction), and the size of the terms behind each."""
    tm, t0, tp = triple
    b = cf.beta
    vals = [float(cf.V(t)) for t in triple]
    v0, c0 = vals[1], float(cf.d2V(t0))
    cm, cp = float(cf.d2V(tm)), float(cf.d2V(tp))
    # V has no critical point inside, so its maximum sits at one of the three
    margins = [min(abs(b + 2.0), abs(b)), min(t0 - tm, tp - t0), -max(vals),
               min(-cm, -cp), c0 + (b + 2.0) ** 2 * v0 / 8.0]
    scales = [1.0, 1.0, max(abs(x) for x in vals), max(abs(cm), abs(cp)),
              abs(c0) + (b + 2.0) ** 2 * abs(v0) / 8.0]
    return margins, scales


def _verdicts(cf: ClosedForm, crit: list[float]) -> set[str]:
    """{"NonIntegrable"}, {"Inconclusive"} or both, when a margin sits
    inside the strictness band."""
    out = set()
    for triple in _triples(crit):
        margins, scales = _margins(cf, triple)
        band = [STRICTNESS_TOL + MARGIN_RTOL * s for s in scales]
        # A4: the program samples |V'| on a grid, which reads ~|V''| h near
        # a flat endpoint
        flat = min(abs(float(cf.d2V(t))) for t in triple) <= 1e-5
        if flat or any(abs(m) <= bd for m, bd in zip(margins, band)):
            out |= {"NonIntegrable", "Inconclusive"}
        elif all(m > 0 for m in margins):
            out.add("NonIntegrable")
    return out or {"Inconclusive"}


def _positive_candidate(cf: ClosedForm, crit: list[float]) -> set[bool]:
    out = set()
    for triple in _triples(crit):
        low = min(float(cf.V(t)) for t in triple)
        if abs(low) <= 1e-12:
            out |= {True, False}
        elif low > 0.0:
            out.add(True)
    return out or {False}


def expected_outcomes(cf: ClosedForm, crit: list[float]) -> set[tuple[str, str]]:
    """(conclusion, kind) pairs that certify --allow-sign-flip may give."""
    out = set()
    direct = _verdicts(cf, crit)
    if "NonIntegrable" in direct:
        out.add(("NonIntegrable", "direct"))
    if "Inconclusive" in direct:
        for positive in _positive_candidate(cf, crit):
            flipped = _verdicts(cf.negated(), crit) if positive else {"Inconclusive"}
            if "NonIntegrable" in flipped:
                out.add(("NonIntegrable", "complexified"))
            if "Inconclusive" in flipped:
                out.add(("Inconclusive", "direct"))
    return out


def _triple_problems(cf: ClosedForm, crit: list[float], cert: dict) -> list[str]:
    """The reported triple and its A5/A6 margins, against the reference."""
    problems = []
    triple = cert["triple"]
    crit_arr = np.array(crit)
    for t in triple:
        if np.min(np.abs(np.remainder(crit_arr - t + math.pi, TWO_PI) - math.pi)) > 1e-9:
            problems.append(f"{t!r} is not a critical angle")
    if problems:
        return problems
    margins, scales = _margins(cf, triple)
    reported = {a["index"]: a for a in cert["assumptions"]}
    for index, m, s in ((5, margins[3], scales[3]), (6, margins[4], scales[4])):
        got = reported[index]["margin"]
        if abs(got - m) > MARGIN_RTOL * max(abs(m), s):
            problems.append(f"A{index} margin {got!r}, reference {m!r}")
    if cert["conclusion"] != "NonIntegrable":
        return problems

    # every assumption under the reference, on a grid that resolves the bump;
    # a margin inside the strictness band passes, as for the verdict
    tm, t0, tp = triple
    for m, s, name in zip(margins, scales, ("A1", "A2", "A3", "A5", "A6")):
        if m < -(STRICTNESS_TOL + MARGIN_RTOL * s):
            problems.append(f"{name} fails: margin {m!r}")
    fine = np.linspace(tm, tp, int((tp - tm) / FINE_STEP) + 2)
    vmax = float(np.max(cf.V(fine)))
    if vmax > STRICTNESS_TOL + MARGIN_RTOL * abs(vmax):
        problems.append(f"A3 fails: max V = {vmax!r} on [{tm!r}, {tp!r}]")
    for a, b in ((tm, t0), (t0, tp)):
        inside = [t for t in crit + [t + TWO_PI for t in crit] if a < t < b
                  and min(t - a, b - t) > 1e-9]
        inner = np.linspace(a, b, int((b - a) / FINE_STEP) + 2)[1:-1]
        d = np.sign(cf.dV(inner))
        if inside or np.any(d == 0.0) or np.any(d[:-1] != d[1:]):
            problems.append(f"A4 fails: V' vanishes inside ({a!r}, {b!r})"
                            + (f" at {inside[0]!r}" if inside else ""))
    return problems


def check_certificate(op: Op, out: str) -> list[str]:
    f = op.facts
    cf = bump(f["beta"]) if f.get("bump") else trig_poly(f["c0"], f["coefs"], f["beta"])
    cert = json.loads(out)
    crit = critical_points(cf)
    outcome = (cert["conclusion"], cert["kind"])
    expected = expected_outcomes(cf, crit)
    if outcome not in expected:
        return [f"{outcome} where the reference gives {sorted(expected)}"]
    if cert["triple"] is None:
        return []
    # a complexified certificate is a certificate of -V
    return _triple_problems(cf.negated() if cert["kind"] == "complexified" else cf, crit, cert)


def check(op: Op, out: str, err: str) -> list[str]:
    kind = op.argv[0]
    if kind == "sweep":
        return check_sweep(op, out)
    if kind == "manifold":
        return check_manifold(op, out, err)
    if kind == "simulate":
        return check_simulate(op, out)
    return check_certificate(op, out)
