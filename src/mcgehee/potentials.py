"""Homogeneous potentials split into radial scale and angular shape.

A planar potential that scales as ``U(k q) = k^beta U(q)`` is determined by
its degree ``beta`` and the restriction to the unit circle

    V(theta) = U(cos theta, sin theta),        U(q) = |q|^beta V(theta).

:class:`Potential` wraps the code :mod:`mcgehee.expr` compiles for V on its
domain, so a single call yields V, V' and V'' at scalar or array arguments,
as a :class:`Jet2` record, or raises DomainError, never a non-finite value.
Shapes come from an expression or from the builtin catalogue, whose entries
are expression sources with a fixed degree and domain; both kinds are
parsed, checked and compiled alike:

``isosceles(alpha)``
    V(theta) = -1/cos(theta) - 4 alpha^(3/2) / sqrt(alpha + 2 sin^2(theta)),
    degree -1 on the open interval (-pi/2, pi/2).  The mass-ratio family of
    three bodies on a line of symmetry; the interval endpoints are the
    double collisions.

``yoshida_g(epsilon)`` / ``yoshida_h(epsilon)``
    -/+ [ (cos^4 + sin^4)/4 + (epsilon/2) cos^2 sin^2 ], degree 4 quartic
    pair, written in the closed form ((3 + epsilon) + (1 - epsilon)
    cos(4 theta))/16, and ``yoshida_g`` as its negation term by term: the
    two are negatives bit for bit up to the sign of an exact zero, which
    needs epsilon <= -1 in V and epsilon = 1 in V' and V''.  ``yoshida_h``
    is positive for epsilon > -1, which matters for the sign-flip
    (complexified) certification route.
"""
from __future__ import annotations

import contextlib
import contextvars
import functools
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple

import numpy as np

from . import expr as expr_mod
from .errors import (
    DomainError,
    OriginSingularityError,
    SpecError,
    UnboundParameterError,
    UnknownBuiltinError,
)
from .expr import TWO_PI

__all__ = ["Domain", "Jet2", "PotentialSpec", "Potential", "compile_potential", "load_spec",
           "reading", "BUILTINS"]


@dataclass(frozen=True)
class Domain:
    """Angular domain: either the full periodic circle or an open interval."""

    lo: float
    hi: float
    periodic: bool = False

    @classmethod
    def full_circle(cls) -> "Domain":
        return cls(0.0, TWO_PI, periodic=True)

    def contains(self, theta: float) -> bool:
        return self.periodic or self.lo < theta < self.hi

    def reduce(self, theta):
        """Map angles into the fundamental window (identity for intervals)."""
        return theta % TWO_PI if self.periodic else theta

    def sample_grid(self, n: int, guard: float) -> np.ndarray:
        """Uniform scan grid.  Periodic domains cover [lo, hi) without the
        duplicate endpoint; open intervals keep a guard band away from the
        (typically singular) ends.  Each (domain, n, guard) has one grid,
        built on first use and handed out read-only, so the potentials of a
        sweep evaluate V on the same array and ``expr.shared_tables`` finds
        its table by identity.  The grid is kept with ``expr.keep_grid``:
        every potential evaluated on it reads one reduction of it and one
        copy of each wave sin(k theta) and cos(k theta) of its source, for a
        literal k, computed once per process, or derived once per process
        where k is a rung of the source's harmonic ladder."""
        return _sample_grid(self, n, guard)


@functools.lru_cache(maxsize=expr_mod._KEPT_GRIDS)
def _sample_grid(domain: Domain, n: int, guard: float) -> np.ndarray:
    if domain.periodic:
        grid = np.linspace(domain.lo, domain.hi, n, endpoint=False)
    else:
        grid = np.linspace(domain.lo + guard, domain.hi - guard, n)
    grid = grid.copy()   # linspace returns a view; the kept grid owns its memory
    expr_mod.keep_grid(grid)
    return grid


# ------------------------------------------------------------------ builtins
@dataclass(frozen=True)
class _Builtin:
    beta: float
    domain: Domain
    source: str
    positive: tuple[str, ...] = ()  # parameters that must be > 0


BUILTINS: dict[str, _Builtin] = {
    "isosceles": _Builtin(
        -1.0, Domain(-math.pi / 2, math.pi / 2),
        "-1/cos(theta) - 4*alpha^1.5/sqrt(alpha + 2*sin(theta)*sin(theta))", ("alpha",)),
    "yoshida_g": _Builtin(4.0, Domain.full_circle(),
                          "((epsilon - 1)*cos(4*theta) - (3 + epsilon))/16"),
    "yoshida_h": _Builtin(4.0, Domain.full_circle(),
                          "((3 + epsilon) + (1 - epsilon)*cos(4*theta))/16"),
}


# ------------------------------------------------------------------ spec
@dataclass(frozen=True)
class PotentialSpec:
    """Declarative description of a potential (what goes in spec files)."""

    beta: float
    expr: str | None = None
    builtin: str | None = None
    params: Mapping[str, float] = field(default_factory=dict)
    domain: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        # a builtin's degree is fixed; every spec, built in code or read from
        # a file, passes here
        known = BUILTINS.get(self.builtin)
        if known is not None and self.beta != known.beta:
            raise SpecError(f"beta: builtin {self.builtin!r} has degree {known.beta}")

    def to_dict(self) -> dict:
        out: dict = {"beta": self.beta}
        if self.builtin is not None:
            out["builtin"] = self.builtin
        if self.expr is not None:
            out["expr"] = self.expr
        if self.params:
            out["params"] = dict(self.params)
        if self.domain is not None:
            out["domain"] = list(self.domain)
        return out

    def with_params(self, **updates: float) -> "PotentialSpec":
        merged = dict(self.params)
        merged.update(updates)
        return PotentialSpec(self.beta, self.expr, self.builtin, merged, self.domain)


def spec_from_dict(raw: object) -> PotentialSpec:
    """Validate a decoded JSON object against the spec-file schema."""
    if not isinstance(raw, dict):
        raise SpecError("spec: expected a JSON object")
    allowed = {"beta", "expr", "builtin", "params", "domain"}
    for key in raw:
        if key not in allowed:
            raise SpecError(f"{key}: unknown field")

    expr_src = raw.get("expr")
    builtin = raw.get("builtin")
    if (expr_src is None) == (builtin is None):
        raise SpecError("spec: exactly one of 'expr' or 'builtin' is required")
    if expr_src is not None and not isinstance(expr_src, str):
        raise SpecError("expr: expected a string")
    if builtin is not None:
        if not isinstance(builtin, str):
            raise SpecError("builtin: expected a string")
        if builtin not in BUILTINS:
            raise UnknownBuiltinError(
                f"builtin: unknown name {builtin!r} (have {', '.join(sorted(BUILTINS))})"
            )

    beta = raw.get("beta")
    if beta is None:
        if builtin is None:
            raise SpecError("beta: required for expression potentials")
        beta = BUILTINS[builtin].beta
    if not isinstance(beta, (int, float)) or isinstance(beta, bool) or not math.isfinite(beta):
        raise SpecError("beta: expected a finite number")

    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise SpecError("params: expected an object")
    for name, value in params.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
            raise SpecError(f"params.{name}: expected a finite number")

    domain = raw.get("domain")
    if domain is not None:
        if (
            not isinstance(domain, (list, tuple))
            or len(domain) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in domain)
        ):
            raise SpecError("domain: expected [lo, hi]")
        lo, hi = float(domain[0]), float(domain[1])
        if not (lo < hi <= lo + TWO_PI):
            raise SpecError("domain: need lo < hi <= lo + 2*pi")
        domain = (lo, hi)

    return PotentialSpec(
        beta=float(beta),
        expr=expr_src,
        builtin=builtin,
        params={k: float(v) for k, v in params.items()},
        domain=domain,
    )


def load_spec(path: str) -> PotentialSpec:
    """Read and validate a potential spec file (JSON)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as err:
            raise SpecError(f"spec: invalid JSON ({err})") from err
    return spec_from_dict(raw)


# ------------------------------------------------------------------ potential
class Jet2(NamedTuple):
    """V, V' and V'' at one angle (floats) or at an array of angles; inside
    ``reading``, ``None`` for a component not read."""

    val: object
    d1: object
    d2: object


# the components ``Potential.V`` evaluates, in ``Jet2``'s order; None for all
_READING: contextvars.ContextVar[tuple[str, ...] | None] = contextvars.ContextVar(
    "reading", default=None)


@contextlib.contextmanager
def reading(*components: str):
    """A scope in which ``Potential.V`` evaluates only ``components`` of the
    jet, named as the fields of ``Jet2``, and returns ``None`` for the
    others, so that reading one fails at once.  The evaluation keeps every
    domain check of the full jet and tests only the returned components for
    a non-finite value; each has the bits of the full jet's.  Its compiled
    code is its own, made on first use."""
    if not components or not set(components) <= set(expr_mod.COMPONENTS):
        raise ValueError(f"components must be among {expr_mod.COMPONENTS}, got {components}")
    token = _READING.set(tuple(c for c in expr_mod.COMPONENTS if c in components))
    try:
        yield
    finally:
        _READING.reset(token)


class Potential:
    """Compiled shape potential.  Immutable but for what is stored on first
    use: the critical points and the criticality bound of the scan of
    ``mcgehee.critical``, the flow's charts of ``mcgehee.flow``, and the
    evaluators of each ``reading``; evaluation has no other side effects."""

    def __init__(self, beta: float, domain: Domain, node: expr_mod.Node,
                 evaluators: tuple[Callable, Callable], spec: PotentialSpec):
        self.beta = float(beta)
        self.domain = domain
        self.node = node
        # V_float(theta) -> (V, V', V''): the scalar closure, checks and all
        self.V_float, self._array = evaluators
        self.spec = spec
        self._critical_points = None
        self._residual_tol = None
        self._charts = None
        self._readings: dict[tuple[str, ...], tuple[Callable, Callable]] = {}

    def __repr__(self):
        src = self.spec.builtin or self.spec.expr
        return f"Potential(beta={self.beta}, {src!r})"

    # -------------------------------------------------------------- evaluation
    def V(self, theta) -> Jet2:
        """V, V', V'' at theta (scalar or array).  Raises DomainError rather
        than ever returning a non-finite component.  Inside ``reading``,
        only the components read are evaluated, and the others are None.
        On a grid of ``Domain.sample_grid``, an array component may be a
        read-only array shared across potentials: with V = ``cos(theta)``,
        V itself is the grid's kept wave, and with V = ``cos(theta) +
        cos(2*theta)`` cos(2*theta) is the kept rung that angle addition
        derives from cos(theta) and sin(theta).  Inside
        ``expr.shared_tables`` an array component may be a read-only array
        shared with other calls."""
        reads = _READING.get()
        if reads is None:
            scalar, array = self.V_float, self._array
        else:
            evaluators = self._readings.get(reads)
            if evaluators is None:
                # the prologue is the full jet's, which compile_potential ran
                evaluators = self._readings[reads] = expr_mod.compile_reading(
                    self.node, dict(self.spec.params), self.domain, reads)
            scalar, array = evaluators
        if not isinstance(theta, np.ndarray):
            return Jet2(*scalar(float(theta)))
        with np.errstate(all="ignore"):
            return Jet2(*array(np.asarray(theta, dtype=float)))

    # -------------------------------------------------------------- cartesian
    def U(self, q) -> float:
        """Full potential at a cartesian point."""
        q = np.asarray(q, dtype=float)
        r = float(np.hypot(q[0], q[1]))
        if r == 0.0:
            raise OriginSingularityError("U is evaluated away from the origin")
        return r**self.beta * self.V(math.atan2(q[1], q[0])).val

    def grad_U(self, q) -> np.ndarray:
        """Gradient of U: radial part beta r^(beta-1) V, tangential r^(beta-1) V'."""
        q = np.asarray(q, dtype=float)
        return np.array(self._grad_U(float(q[0]), float(q[1])))

    def _grad_U(self, qx: float, qy: float) -> tuple[float, float]:
        """``grad_U`` on floats, for the Cartesian right-hand side."""
        r = math.hypot(qx, qy)
        if r == 0.0:
            raise OriginSingularityError("grad U is evaluated away from the origin")
        theta = math.atan2(qy, qx)
        val, d1, _ = self.V_float(theta)
        radial = self.beta * r ** (self.beta - 1.0) * val
        tangential = r ** (self.beta - 1.0) * d1
        c, s = math.cos(theta), math.sin(theta)
        return radial * c - tangential * s, radial * s + tangential * c


def compile_potential(spec: PotentialSpec) -> Potential:
    """Compile the evaluators of V for a validated spec, which must bind
    exactly the free parameters of its source."""
    if spec.builtin is None:
        what, info = "the expression", _Builtin(spec.beta, Domain.full_circle(), spec.expr)
    elif spec.builtin in BUILTINS:
        what, info = f"builtin {spec.builtin!r}", BUILTINS[spec.builtin]
    else:
        raise UnknownBuiltinError(f"unknown builtin {spec.builtin!r}")
    node = expr_mod.parse(info.source)
    names = expr_mod.free_parameters(node)
    missing = sorted(names.difference(spec.params))
    if missing:
        raise UnboundParameterError(f"{what} needs parameter(s): {', '.join(missing)}")
    extra = [p for p in spec.params if p not in names]
    if extra:
        raise SpecError(f"params.{extra[0]}: not a parameter of {what}")
    if any(spec.params[p] <= 0.0 for p in info.positive):
        raise DomainError(f"{spec.builtin}: {', '.join(info.positive)} must be positive")
    domain = info.domain if spec.domain is None else Domain(*spec.domain)
    try:  # the prologue's theta-free subtrees, checked once here
        evaluators = expr_mod.compile_node(node, dict(spec.params), domain)
    except (ZeroDivisionError, OverflowError) as err:
        raise DomainError(f"potential singular: {err}") from err
    if domain.periodic and not expr_mod.periodic(node):
        _check_cut(node, spec.params, what)
    return Potential(info.beta, domain, node, evaluators, spec)


# an unmarked source on the circle: each component of V's jet at 0 and at
# 2 pi agrees within this much of max(1, |component|)
_CUT_RTOL = 1e-9


def _check_cut(node: expr_mod.Node, params: Mapping[str, float], what: str) -> None:
    """Raise DomainError unless the source, which ``expr.periodic`` does not
    mark, has one jet at theta = 0 and at 2 pi, unreduced: on the circle V
    is read at theta mod 2 pi, so a source that is not 2 pi-periodic jumps
    at the cut, and a certificate across it would be about no function on
    the circle.  A jet that cannot be evaluated at either end fails too."""
    scalar, _ = expr_mod.compile_node(node, dict(params), Domain(-1.0, TWO_PI + 1.0))
    try:
        ends = scalar(0.0), scalar(TWO_PI)
    except DomainError:
        ends = None
    if ends is None or any(abs(a - b) > _CUT_RTOL * max(1.0, abs(a), abs(b))
                           for a, b in zip(*ends)):
        raise DomainError(f"{what} is not 2*pi-periodic: V, V', V'' at theta = 0 and "
                          "2*pi differ; give its open interval with --domain (or a spec "
                          "file's \"domain\")")
