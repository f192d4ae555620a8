"""Adaptive Dormand-Prince 5(4) integration with PI step control.

The solver is deliberately small: one explicit embedded pair, RMS error
norm against ``atol + rtol*max(|y|, |y_new|)``, a proportional-integral
controller on the step size, and cubic Hermite interpolation between
accepted steps (locally fourth-order, matching the sampling accuracy we
need).

States and derivatives travel as tuples of floats.  The step itself is
straight-line code generated once per state dimension and cached: every
stage sum written out term by term, one finiteness test per stage, the
scaled error norm and the FSAL stage.  The step calls the right-hand side
once per stage; a ``postprocess`` of the accepted state returns the
derivative at its result too, so FSAL holds through it.  The accepted nodes
become arrays once, at the end of the run.

A right-hand side may raise DomainError (or OverflowError) to signal that a
stage left the admissible region; the step is then retried with a smaller
h.  When the step size underflows the run ends gracefully with a
termination reason, unless not even one step was accepted, which raises
instead.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, LeftDomainError, StepUnderflowError

__all__ = ["RawSolution", "solve", "hermite_sample"]

# Dormand-Prince coefficients.  The last row of A equals the 5th-order
# weights, so the final stage of an accepted step is the first stage of the
# next one (FSAL), and the last stage value is the new state.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
# difference between the 5th- and embedded 4th-order weights
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_K_I = 0.7 / 5.0   # integral gain on the current error
_K_P = 0.4 / 5.0   # proportional gain on the previous error
_EPS = sys.float_info.epsilon
# largest step in the independent variable
_MAX_STEP = math.pi / 8.0
# default error tolerances of every integrator built on ``solve``
RTOL, ATOL = 1e-10, 1e-12


@dataclass
class RawSolution:
    ts: np.ndarray          # accepted nodes, monotone in integration direction
    ys: np.ndarray          # states at the nodes, shape (n, dim)
    fs: np.ndarray          # derivatives at the nodes (for dense output)
    reason: str             # "span_end" | "step_underflow" | "left_domain" | custom
    n_accepted: int
    n_rejected: int

    def sample(self, tq) -> np.ndarray:
        return hermite_sample(self.ts, self.ys, self.fs, tq)


def hermite_sample(ts: np.ndarray, ys: np.ndarray, fs: np.ndarray, tq) -> np.ndarray:
    """Cubic Hermite interpolation of the solution at query times ``tq``.

    Queries must lie inside the integrated span; returns shape (len(tq), dim).
    """
    tq_arr = np.atleast_1d(np.asarray(tq, dtype=float))
    direction = 1.0 if ts[-1] >= ts[0] else -1.0
    s = direction * ts
    lo, hi = s[0], s[-1]
    q = direction * tq_arr
    if np.any(q < lo - 1e-12) or np.any(q > hi + 1e-12):
        raise ValueError("dense-output query outside the integrated span")
    idx = np.clip(np.searchsorted(s, q, side="right") - 1, 0, len(ts) - 2)
    t0, t1 = ts[idx], ts[idx + 1]
    h = t1 - t0
    x = np.where(h != 0.0, (tq_arr - t0) / np.where(h == 0.0, 1.0, h), 0.0)
    x = x[:, None]
    h00 = (1 + 2 * x) * (1 - x) ** 2
    h10 = x * (1 - x) ** 2
    h01 = x**2 * (3 - 2 * x)
    h11 = x**2 * (x - 1)
    hcol = h[:, None]
    return h00 * ys[idx] + h10 * hcol * fs[idx] + h01 * ys[idx + 1] + h11 * hcol * fs[idx + 1]


def _step_source(n: int) -> str:
    """Source of one Dormand-Prince attempt on n float components.

    ``step(f, t, y, k0, h, atol, rtol)`` returns ``(y_new, k6, err)``: the
    new state, f at it (FSAL) and the RMS of the error estimate against
    ``atol + rtol*max(|y|, |y_new|)``.  Each stage sum is written out term by
    term, left to right, over the nonzero coefficients; a non-finite stage
    value raises DomainError before f sees it.  One comparison tests all n
    values: x - x is 0.0 for a finite double x and nan otherwise.
    """
    def names(prefix):
        return ", ".join(f"{prefix}{i}" for i in range(n))

    lines = ["def step(f, t, y, k0, h, atol, rtol):",
             f"    {names('y')}, = y", f"    {names('k0_')}, = k0"]
    for s in range(1, 7):
        for i in range(n):
            terms = " + ".join(f"{a!r}*k{j}_{i}" for j, a in enumerate(_A[s]) if a)
            lines.append(f"    s{i} = y{i} + h*({terms})")
        lines += [f"    if {' + '.join(f'(s{i} - s{i})' for i in range(n))} != 0.0:",
                  "        raise DomainError('non-finite stage value')",
                  f"    {names(f'k{s}_')}, = f(t + {_C[s]!r}*h, ({names('s')},))"]
    for i in range(n):
        terms = " + ".join(f"{e!r}*k{j}_{i}" for j, e in enumerate(_E) if e)
        lines += [f"    a = abs(y{i}); b = abs(s{i})",
                  f"    q{i} = h*({terms})/(atol + rtol*(a if a > b else b))"]
    squares = " + ".join(f"q{i}*q{i}" for i in range(n))
    lines.append(f"    return ({names('s')},), ({names('k6_')},), sqrt(({squares})/{n})")
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=None)
def _step(n: int) -> Callable:
    """The compiled step for dimension n, generated on first use."""
    namespace = {"sqrt": math.sqrt, "DomainError": DomainError}
    exec(compile(_step_source(n), f"<mcgehee.rk step {n}>", "exec"), namespace)
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
    first_step: float | None = None,
    stop: Callable[[float, tuple, tuple], str | None] | None = None,
    postprocess: Callable[[float, tuple], tuple[tuple, tuple]] | None = None,
) -> RawSolution:
    """Integrate ``dy/dt = f(t, y)`` from t0 to t1 (either direction).

    ``f`` takes the state as a tuple of floats and returns n floats; it is
    called once per stage.  ``stop`` is evaluated at every accepted node and
    may return a custom termination reason to end the run early.
    ``postprocess(t, y)`` maps each accepted state before it is recorded
    (e.g. projection onto an invariant set) and returns ``(y, f(t, y))`` at
    the adjusted state, which the next step takes as its first stage, so
    FSAL survives it.
    """
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"integration span must be finite, got [{t0}, {t1}]")
    if t0 == t1:
        raise ValueError("empty integration span")
    if not (0.0 < rtol < math.inf and 0.0 < atol < math.inf):
        raise ValueError(f"rtol and atol must be positive and finite, got {rtol}, {atol}")
    if first_step is not None and not math.isfinite(first_step):
        raise ValueError(f"first_step must be finite, got {first_step}")
    y = tuple(map(float, y0))
    if not all(map(math.isfinite, y)):
        raise LeftDomainError("initial state is not integrable: non-finite component")
    step = _step(len(y))
    direction = math.copysign(1.0, t1 - t0)
    try:
        k0 = f(t0, y)
    except (DomainError, OverflowError) as err:
        raise LeftDomainError(f"initial state is not integrable: {err}") from err

    h = first_step if first_step is not None else _initial_step(f, t0, y, k0, t1, rtol, atol)
    h = min(abs(h), abs(t1 - t0), _MAX_STEP)

    ts, ys, fs = [t0], [y], [k0]
    reason = None
    err_prev = 1.0
    n_acc = n_rej = 0
    t = t0

    if stop is not None:
        early = stop(t, y, k0)
        if early:
            return RawSolution(np.array(ts), np.array(ys), np.array(fs), early, 0, 0)

    while reason is None:
        h_min = _h_min(t, t1)
        if abs(t1 - t) <= h_min:
            reason = "span_end"
            break
        h = min(h, abs(t1 - t))
        domain_hit = False
        while True:
            if h < h_min:
                reason = "left_domain" if domain_hit else "step_underflow"
                break
            hs = direction * h
            try:
                y_new, k_new, err = step(f, t, y, k0, hs, atol, rtol)
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
            h *= max(_MIN_FACTOR, _SAFETY * err ** (-_K_I))
        if reason is not None:
            break

        t = t + hs
        if postprocess is not None:
            y, k0 = postprocess(t, y_new)
        else:
            y, k0 = y_new, k_new  # FSAL: last stage is f(t, y_new)
        ts.append(t)
        ys.append(y)
        fs.append(k0)
        n_acc += 1

        if err == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = _SAFETY * err ** (-_K_I) * err_prev ** _K_P
        h = min(h * min(_MAX_FACTOR, max(_MIN_FACTOR, factor)), _MAX_STEP)
        err_prev = max(err, 1e-4)  # keep the PI memory term well-conditioned

        if stop is not None:
            custom = stop(t, y, k0)
            if custom:
                reason = custom
                break
        if direction * (t1 - t) <= 1e-14 * max(abs(t1), 1.0):
            reason = "span_end"
            break

    if n_acc == 0:
        if reason == "left_domain":
            raise LeftDomainError(f"no progress from t={t0}: state leaves the domain")
        if reason == "step_underflow":
            raise StepUnderflowError(f"step size underflow at t={t0}")
    return RawSolution(
        np.array(ts), np.array(ys), np.array(fs), reason, n_acc, n_rej
    )
