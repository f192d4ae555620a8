"""Seeded inputs of the three workloads.

Every workload is a list of operations.  An operation is one call of the
``mcgehee`` command line, given as its argument list, plus the facts its
independent check needs.  One round runs every operation once, in order;
a run repeats whole rounds, so the same seed always gives the same
operations and the same share of known failures.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

# grid of one sweep; the bisection to the default --thresh-tol (1e-9) adds
# about 31 evaluations per threshold whatever the grid
SWEEP_GRID_M = 20
SIMULATE_TAU = 50.0
EXPR_DRAWS_PER_ROUTE = 16

# the bump hides two critical points near theta = 0.8 from the 4096-point
# scan of certify; its certificate is wrong (see the README)
BUMP_EXPR = "-1.5 + 0.3*cos(2*theta) - 0.02*exp(-((theta-0.8)/2e-4)^2)"
BUMP_BETA = -1.0


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]
    facts: dict = field(default_factory=dict)
    known_fault: bool = False


# analytic thresholds of the acceptance families
ISOSCELES_THRESHOLD = 55.0 / 4.0
YOSHIDA_LOW = -1.0 / 8.0
YOSHIDA_HIGH = 25.0 / 7.0


def _jitter_range(rng: random.Random, lo: float, hi: float) -> tuple[float, float]:
    """Pull both ends inward by up to 1% of the width, so each seed puts the
    grid samples elsewhere while the range keeps its one threshold."""
    width = hi - lo
    return lo + rng.uniform(0.0, 0.01) * width, hi - rng.uniform(0.0, 0.01) * width


def sweep_ops(seed: int) -> list[Op]:
    rng = random.Random(seed)
    families = [
        ("isosceles", "alpha", (1.0, 20.0), ISOSCELES_THRESHOLD, False),
        ("yoshida_g", "epsilon", (-0.9, 0.9), YOSHIDA_LOW, False),
        ("yoshida_g", "epsilon", (1.1, 10.0), YOSHIDA_HIGH, False),
        ("yoshida_h", "epsilon", (-0.9, 0.9), YOSHIDA_LOW, True),
        ("yoshida_h", "epsilon", (1.1, 10.0), YOSHIDA_HIGH, True),
    ]
    ops = []
    for builtin, param, (lo, hi), threshold, flip in families:
        lo, hi = _jitter_range(rng, lo, hi)
        argv = ["sweep", "--builtin", builtin, "--param", param,
                f"--range={lo!r}:{hi!r}", "--grid-m", str(SWEEP_GRID_M)]
        if flip:
            argv.append("--allow-sign-flip")
        # isosceles certifies below its threshold, the quartic pair outside
        # the gap (-1/8, 25/7)
        below = builtin == "isosceles" or threshold == YOSHIDA_LOW
        ops.append(Op(f"sweep {builtin} {lo:.4g}:{hi:.4g}", tuple(argv), {
            "threshold": threshold, "nonintegrable_below": below,
            "lo": lo, "hi": hi, "grid_m": SWEEP_GRID_M,
        }))
    return ops


# the acc07 separatrices: (builtin, parameter, --from, --sign, branch, and the
# analytic focus (theta_c, sign of v*) the branch must wind onto)
SEPARATRICES = [
    ("isosceles", "alpha=1", -math.pi / 4, "+", "unstable", (0.0, +1.0)),
    ("yoshida_g", "epsilon=4", 0.0, "-", "unstable", (math.pi / 4, +1.0)),
    ("yoshida_g", "epsilon=4", 0.0, "-", "stable", (math.pi / 4, -1.0)),
]


def trace_ops(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for builtin, param, start, sign, branch, focus in SEPARATRICES:
        argv = ["manifold", "--builtin", builtin, "--set", param,
                f"--from={start!r}", "--sign", sign, "--branch", branch,
                "--branch-dir", "+"]
        ops.append(Op(f"manifold {builtin} {branch}", tuple(argv),
                      {"builtin": builtin, "param": param, "focus": focus}))
    # isosceles: the homothetic collision orbits theta = 0, w = 0 are the
    # only ones seen to stay clear of the binary collisions theta = +-pi/2
    # for 50 units of tau; off that line every tried state ends in
    # step_underflow within tau = 8
    r0, v0 = rng.uniform(0.8, 1.25), rng.uniform(-0.5, 0.5)
    states = [("isosceles", "alpha=1", (r0, 0.0, v0, 0.0))]
    # yoshida_g(4): every orbit escapes; in tau it settles onto D+(pi/4)
    states.append(("yoshida_g", "epsilon=4", (
        rng.uniform(0.8, 1.25), rng.uniform(0.1, 0.5),
        rng.uniform(-0.5, 0.5), rng.uniform(0.1, 0.3))))
    for builtin, param, state in states:
        argv = ["simulate", "--builtin", builtin, "--set", param,
                "--init", ",".join(repr(x) for x in state),
                "--tau-span", f"0:{SIMULATE_TAU!r}"]
        ops.append(Op(f"simulate {builtin}", tuple(argv),
                      {"builtin": builtin, "param": param, "state": state}))
    return ops


def _trig_poly(rng: random.Random, k: int, sign: float, bias: float):
    """Coefficients (c0, [(a_j, b_j)]) of c0 + sum a_j cos(j t) + b_j sin(j t),
    j <= 4, scaled by a random factor in [0.5, 2].

    A dominant harmonic cos(k (t - phi)) is perturbed by the other three with
    |a_j|, |b_j| <= 0.1 k / j^2, small enough that V' keeps exactly 2k zeros:
    every seed draws the same number of critical points per slot.  c0 puts V
    on the side of ``sign`` everywhere, ``bias`` beyond the largest value the
    harmonics can reach.
    """
    scale = rng.uniform(0.5, 2.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    coefs = []
    for j in range(1, 5):
        if j == k:
            a, b = math.cos(k * phi), math.sin(k * phi)
        else:
            bound = 0.1 * k / j**2
            a, b = rng.uniform(-bound, bound), rng.uniform(-bound, bound)
        coefs.append((round(scale * a, 6), round(scale * b, 6)))
    reach = sum(abs(a) + abs(b) for a, b in coefs)
    return sign * round(reach + scale * bias, 6), coefs


def trig_source(c0: float, coefs) -> str:
    parts = [repr(c0)]
    for k, (a, b) in enumerate(coefs, start=1):
        arg = "theta" if k == 1 else f"{k}*theta"
        for c, fn in ((a, "cos"), (b, "sin")):
            if c != 0.0:
                parts.append(f"{'-' if c < 0 else '+'} {abs(c)!r}*{fn}({arg})")
    return " ".join(parts)


def certify_expr_ops(seed: int) -> list[Op]:
    """Half the draws are negative everywhere (certify's direct route), half
    positive (the sign-flip route).  Each (route, k, intended verdict) slot
    recurs at fixed places, so every seed runs the same mix of work.

    With m the bias, V at the middle minimum of a (max, min, max) triple is
    about -(2 + m) and V'' there about k^2, so A6 holds for (beta + 2)^2 well
    below 8 k^2 / (2 + m) and fails well above it: beta + 2 = +-[0.1, 0.9]
    with m in [0.1, 0.5] certifies, beta in [3, 4] with m in [k^2, k^2 + 0.5]
    does not.
    """
    rng = random.Random(seed)
    ops = []
    for i in range(2 * EXPR_DRAWS_PER_ROUTE):
        flip = i % 2 == 1
        k = 1 + (i // 2) % 4
        certifies = (i // 8) % 2 == 0
        if certifies:
            bias = rng.uniform(0.1, 0.5)
            beta = -2.0 + rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 0.9)
        else:
            bias = rng.uniform(k * k, k * k + 0.5)
            beta = rng.uniform(3.0, 4.0)
        c0, coefs = _trig_poly(rng, k, +1.0 if flip else -1.0, bias)
        beta = round(beta, 6)
        argv = ["certify", "--expr", trig_source(c0, coefs), "--beta", repr(beta),
                "--allow-sign-flip"]
        name = f"certify {'flip' if flip else 'direct'} k={k} {'win' if certifies else 'lose'}"
        ops.append(Op(name, tuple(argv), {"c0": c0, "coefs": coefs, "beta": beta}))
    ops.append(Op("certify bump", ("certify", "--expr", BUMP_EXPR, "--beta", repr(BUMP_BETA),
                                   "--allow-sign-flip"),
                  {"bump": True, "beta": BUMP_BETA}, known_fault=True))
    return ops


WORKLOADS = {
    "sweep": sweep_ops,
    "trace": trace_ops,
    "certify_expr": certify_expr_ops,
}
