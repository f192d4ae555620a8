"""Adaptive embedded Runge-Kutta integration with PI step control.

One pair runs every integration: Dormand-Prince 8(5,3), DOP853 (Hairer,
Norsett & Wanner, *Solving ODEs I*, II.5 and II.10), whose coefficients
are the constants ``_C``, ``_A``, ``_B``, ``_E5`` and ``_E3`` below: twelve
stages and eleven calls of f per attempt.  Its error combines the 5th- and
3rd-order estimates as ``|h| n5 / sqrt((n5 + 0.01 n3) n)``, RMS-scaled by
``atol + rtol*max(|y|, |y_new|)``, and uses no derivative at the new state,
so f is called there only once the step is accepted.  A
proportional-integral controller with gains 0.7/8 and 0.4/8 sets the step
size.  Dense output re-steps: the state between two accepted nodes is one
step of the pair from the earlier node with its error test not applied,
so it is as accurate as the nodes.

States and derivatives travel as tuples of floats.  The step itself is
straight-line code generated once per state dimension on first use and
cached: every stage sum written out term by term with each coefficient
scaled by h first, so the sum overflows no sooner than its terms; one
finiteness test per stage value, on the new state and on its derivative;
the scaled error norm; and f at the accepted state.  A ``postprocess`` of
the accepted state returns the derivative at its result instead, so the
next step still starts from a known derivative (FSAL) and f is not called
at the new state.  The accepted nodes become arrays once, at the end of
the run.

A run ends by one rule, tested before its first step and after each
accepted one: at t1 once it is within ``1e-14*max(|t1|, 1)`` of it, or
where ``stop`` names a reason.  A right-hand side may raise DomainError (or
OverflowError) to signal that a stage left the admissible region; the step
is then retried with a smaller h.  When the step size underflows the run
ends gracefully with a termination reason, unless not even one step was
accepted, which raises instead.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, LeftDomainError, StepUnderflowError

__all__ = ["RawSolution", "solve"]


# DOP853: stage s is f at ``t + _C[s]*h`` and ``y + h*sum(_A[s][j]*k[j])``
# (row s has s entries), and the new state is ``y + h*sum(_B[j]*k[j])``
_C = (
    0.0, 0.526001519587677318785587544488e-1, 0.789002279381515978178381316732e-1,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0,
)
_A = (
    (),
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1),
)
_B = (
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
    4.45031289275240888144113950566, 1.89151789931450038304281599044,
    -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2,
)
# the weights of the 5th-order error estimate
_E5 = (
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
    -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
    0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
    0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1,
)
# the 3rd-order one: _B minus the weights of the embedded 3rd-order solution
_E3 = tuple(b - bhh for b, bhh in zip(_B, (
    0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    0.733846688281611857341361741547, 0.0, 0.0, 0.220588235294117647058823529412e-1,
)))
# the proportional-integral controller's gains, 0.7/q and 0.4/q at order q = 8
_K_I, _K_P = 0.7 / 8, 0.4 / 8

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_EPS = sys.float_info.epsilon
# largest step in the independent variable
_MAX_STEP = math.pi / 8.0
# default error tolerances of every integrator built on ``solve``
RTOL, ATOL = 1e-10, 1e-12


@dataclass
class RawSolution:
    ts: np.ndarray          # accepted nodes, monotone in integration direction
    ys: np.ndarray          # states at the nodes, shape (n, dim)
    fs: np.ndarray          # derivatives at the nodes
    reason: str             # "span_end" | "step_underflow" | "left_domain" | custom
    n_accepted: int
    n_rejected: int
    f: Callable[[float, tuple], Sequence[float]]   # the right-hand side, for dense output

    def sample(self, tq) -> np.ndarray:
        """States at the query times ``tq``, shape (len(tq), dim), each
        from ``state_at``."""
        tq = np.atleast_1d(np.asarray(tq, dtype=float)).tolist()
        return np.array([self.state_at(t)[0] for t in tq]).reshape(len(tq), self.ys.shape[1])

    def state_at(self, t: float) -> tuple[tuple, tuple]:
        """The state at t inside the integrated span, and f there.

        At a node these are the recorded pair.  Between nodes they are one
        step of the pair from the node before t, with its error test not
        applied (an infinite atol zeroes the error norm): the step checks
        its stage values, the state and f there as in a run, so a query
        whose step leaves the domain raises DomainError (or OverflowError)
        and no query returns a non-finite state.
        """
        direction = 1.0 if self.ts[-1] >= self.ts[0] else -1.0
        s = direction * self.ts
        if not s[0] - 1e-12 <= direction * t <= s[-1] + 1e-12:
            raise ValueError(f"dense-output query {t} outside the integrated span")
        k = max(int(np.searchsorted(s, direction * t, side="right")) - 1, 0)
        t0, y0, k0 = float(self.ts[k]), tuple(self.ys[k].tolist()), tuple(self.fs[k].tolist())
        if t == t0:
            return y0, k0
        y, k1, _ = _step(len(y0))(self.f, t0, y0, k0, t - t0, math.inf, 0.0)
        if y is None:   # the error estimate itself overflowed
            raise DomainError(f"non-finite error estimate at {t}")
        return y, k1


def _step_source(n: int) -> str:
    """Source of one DOP853 attempt on n float components.

    ``step(f, t, y, k0, h, atol, rtol, post=None)`` returns ``(y_new, k_new,
    err)``: the new state, f at it and the error norm against ``atol +
    rtol*max(|y|, |y_new|)``.  Each coefficient is scaled by h once, and each
    sum is written out term by term, left to right, over the nonzero
    coefficients: ``y + ((a0*h)*k0 + (a1*h)*k1 + ...)``.  A non-finite stage
    value, new state or derivative there raises DomainError.  One
    comparison tests all n values: x - x is 0.0 for a finite double x and
    nan otherwise.  A rejected attempt (not err <= 1) returns ``(None, None,
    err)``; when an accepted one has ``post``, the new state and its
    derivative are ``post(t + h, y_new)``.
    """
    def names(prefix):
        return ", ".join(f"{prefix}{i}" for i in range(n))

    def squares(prefix):
        return " + ".join(f"{prefix}{i}*{prefix}{i}" for i in range(n))

    def finite(prefix, what):
        return [f"    if {' + '.join(f'({prefix}{i} - {prefix}{i})' for i in range(n))} != 0.0:",
                f"        raise DomainError('non-finite {what}')"]

    scaled: dict[float, str] = {}   # coefficient -> local holding coefficient*h

    def combination(coefs, i):
        for x in dict.fromkeys(x for x in coefs if x and x not in scaled):
            scaled[x] = f"m{len(scaled)}"
            lines.append(f"    {scaled[x]} = {x!r}*h")
        return " + ".join(f"{scaled[x]}*k{j}_{i}" for j, x in enumerate(coefs) if x)

    lines = ["def step(f, t, y, k0, h, atol, rtol, post=None):",
             f"    {names('y')}, = y", f"    {names('k0_')}, = k0"]
    for s in range(1, len(_C)):
        for i in range(n):
            lines.append(f"    s{i} = y{i} + ({combination(_A[s], i)})")
        lines += finite("s", "stage value")
        lines.append(f"    {names(f'k{s}_')}, = f(t + {_C[s]!r}*h, ({names('s')},))")
    for i in range(n):
        lines.append(f"    u{i} = y{i} + ({combination(_B, i)})")
    lines += finite("u", "new state")
    # the 5th-order estimate q0 and the 3rd-order q1, each over its weight
    for i in range(n):
        lines += [f"    a = abs(y{i}); b = abs(u{i})",
                  f"    w{i} = atol + rtol*(a if a > b else b)"]
        lines.append(f"    q0_{i} = ({combination(_E5, i)})/w{i}")
    for i in range(n):
        lines.append(f"    q1_{i} = ({combination(_E3, i)})/w{i}")
    y_new = f"({names('u')},)"
    # Hairer's combination of the 5th- and 3rd-order estimates; h is
    # already inside each q
    lines += [f"    n5 = {squares('q0_')}", f"    n3 = {squares('q1_')}",
              f"    err = n5/sqrt((n5 + 0.01*n3)*{n}) if n5 else 0.0",
              "    if not err <= 1.0:", "        return None, None, err",
              "    if post is None:",
              f"        {names('k0_')}, = f(t + h, {y_new})",
              *("    " + s for s in finite("k0_", "derivative")),
              f"        return {y_new}, ({names('k0_')},), err",
              f"    return (*post(t + h, {y_new}), err)"]
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=None)
def _step(n: int) -> Callable:
    """The compiled step for dimension n, generated on first use."""
    namespace = {"sqrt": math.sqrt, "DomainError": DomainError}
    code = compile(_step_source(n), f"<mcgehee.rk step {n}>", "exec")
    exec(code, namespace)
    return namespace["step"]


def _rms(xs, scale) -> float:
    return math.sqrt(sum((x / s) * (x / s) for x, s in zip(xs, scale)) / len(scale))


def _h_min(t: float, t1: float) -> float:
    """The smallest step ``solve`` takes at t on its way to t1."""
    return 16.0 * _EPS * max(abs(t), abs(t1), 1.0)


def _initial_step(f, t0, y0, f0, t1, rtol, atol):
    scale = [atol + rtol * abs(x) for x in y0]
    d0, d1 = _rms(y0, scale), _rms(f0, scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    if h0 == 0.0:  # d1 overflowed: start from the smallest step
        return _h_min(t0, t1)
    direction = math.copysign(1.0, t1 - t0)
    h0 = min(h0, abs(t1 - t0), _MAX_STEP)
    try:
        f1 = f(t0 + direction * h0, tuple(x + direction * h0 * k for x, k in zip(y0, f0)))
        d2 = _rms([a - b for a, b in zip(f1, f0)], scale) / h0
    except (DomainError, OverflowError):
        return 0.01 * h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, abs(t1 - t0), _MAX_STEP)


def solve(
    f: Callable[[float, tuple], Sequence[float]],
    t0: float,
    y0: Sequence[float],
    t1: float,
    rtol: float = RTOL,
    atol: float = ATOL,
    stop: Callable[[float, tuple, tuple], str | None] | None = None,
    postprocess: Callable[[float, tuple], tuple[tuple, tuple]] | None = None,
) -> RawSolution:
    """Integrate ``dy/dt = f(t, y)`` from t0 to t1 (either direction).

    ``f`` takes the state as a tuple of floats and returns n floats; it is
    called once per stage past the first on every attempt, and once at the
    new state of each accepted step.  ``stop`` is evaluated at t0 and at
    every accepted node and may return a custom termination reason to end
    the run early.
    ``postprocess(t, y)`` maps each accepted state before it is recorded
    (e.g. projection onto an invariant set) and returns ``(y, f(t, y))`` at
    the adjusted state, which the next step takes as its first stage, so
    f is not called there; a DomainError it raises rejects the step.
    """
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"integration span must be finite, got [{t0}, {t1}]")
    if t0 == t1:
        raise ValueError("empty integration span")
    if not (0.0 < rtol < math.inf and 0.0 < atol < math.inf):
        raise ValueError(f"rtol and atol must be positive and finite, got {rtol}, {atol}")
    y = tuple(map(float, y0))
    if not all(map(math.isfinite, y)):
        raise LeftDomainError("initial state is not integrable: non-finite component")
    step = _step(len(y))
    k_i, k_p = _K_I, _K_P
    direction = math.copysign(1.0, t1 - t0)
    span_tol = 1e-14 * max(abs(t1), 1.0)   # a run within this of t1 has reached it
    try:
        k0 = f(t0, y)
    except (DomainError, OverflowError) as err:
        raise LeftDomainError(f"initial state is not integrable: {err}") from err
    if not all(map(math.isfinite, k0)):
        raise LeftDomainError("initial state is not integrable: non-finite derivative")

    h = min(_initial_step(f, t0, y, k0, t1, rtol, atol), abs(t1 - t0), _MAX_STEP)

    ts, ys, fs = [t0], [y], [k0]
    err_prev = 1.0
    n_acc = n_rej = 0
    t = t0

    while True:   # a run ends here at t1 or at stop's reason, or below if h underflows
        reason = stop(t, y, k0) if stop is not None else None
        if reason:
            break
        if direction * (t1 - t) <= span_tol:
            reason = "span_end"
            break
        h_min = _h_min(t, t1)
        h = min(h, abs(t1 - t))
        domain_hit = False
        while h >= h_min:
            hs = direction * h
            try:
                y_new, k_new, err = step(f, t, y, k0, hs, atol, rtol, postprocess)
            except (DomainError, OverflowError):
                err = math.nan
            if not math.isfinite(err):
                domain_hit = True
                n_rej += 1
                h *= 0.5
                continue
            if err <= 1.0:
                break
            n_rej += 1
            h *= max(_MIN_FACTOR, _SAFETY * err ** -k_i)
        else:
            reason = "left_domain" if domain_hit else "step_underflow"
            break

        t = t + hs
        y, k0 = y_new, k_new  # f at y_new, or the postprocess's pair
        ts.append(t)
        ys.append(y)
        fs.append(k0)
        n_acc += 1

        factor = _SAFETY * err ** -k_i * err_prev ** k_p if err else _MAX_FACTOR
        h = min(h * min(_MAX_FACTOR, max(_MIN_FACTOR, factor)), _MAX_STEP)
        err_prev = max(err, 1e-4)  # keep the PI memory term well-conditioned

    if n_acc == 0:
        if reason == "left_domain":
            raise LeftDomainError(f"no progress from t={t0}: state leaves the domain")
        if reason == "step_underflow":
            raise StepUnderflowError(f"step size underflow at t={t0}")
    return RawSolution(
        np.array(ts), np.array(ys), np.array(fs), reason, n_acc, n_rej, f
    )
