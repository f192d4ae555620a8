"""Homogeneous potentials split into radial scale and angular shape.

A planar potential that scales as ``U(k q) = k^beta U(q)`` is determined by
its degree ``beta`` and the restriction to the unit circle

    V(theta) = U(cos theta, sin theta),        U(q) = |q|^beta V(theta).

:class:`Potential` wraps the code :mod:`mcgehee.expr` compiles for V, so a
single call yields V, V' and V'' at scalar or array arguments, as a
:class:`Jet2` record.  Shapes come from an expression or from the builtin
catalogue, whose entries are expression sources with a fixed degree and
domain; both kinds are parsed, checked and compiled alike:

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

__all__ = ["Domain", "Jet2", "PotentialSpec", "Potential", "compile_potential", "load_spec",
           "BUILTINS"]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Domain:
    """Angular domain: either the full periodic circle or an open interval."""

    lo: float
    hi: float
    periodic: bool = False

    @classmethod
    def full_circle(cls) -> "Domain":
        return cls(0.0, TWO_PI, periodic=True)

    def contains(self, theta) -> bool:
        if self.periodic:
            return True
        if isinstance(theta, np.ndarray):
            return bool(np.all((self.lo < theta) & (theta < self.hi)))
        return self.lo < theta < self.hi

    def reduce(self, theta):
        """Map angles into the fundamental window (identity for intervals)."""
        return theta % TWO_PI if self.periodic else theta

    def sample_grid(self, n: int, guard: float) -> np.ndarray:
        """Uniform scan grid.  Periodic domains cover [lo, hi) without the
        duplicate endpoint; open intervals keep a guard band away from the
        (typically singular) ends."""
        if self.periodic:
            return np.linspace(self.lo, self.hi, n, endpoint=False)
        return np.linspace(self.lo + guard, self.hi - guard, n)


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
    if builtin is not None and float(beta) != BUILTINS[builtin].beta:
        raise SpecError(f"beta: builtin {builtin!r} has degree {BUILTINS[builtin].beta}")

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
    """V, V' and V'' at one angle (floats) or at an array of angles."""

    val: object
    d1: object
    d2: object


class Potential:
    """Compiled shape potential.  Immutable but for the critical points and
    the criticality bound, which the scan of ``mcgehee.critical`` stores on
    first use; evaluation has no side effects."""

    def __init__(self, beta: float, domain: Domain, evaluators: tuple[Callable, Callable],
                 spec: PotentialSpec):
        self.beta = float(beta)
        self.domain = domain
        self._scalar, self._array = evaluators
        self.spec = spec
        self.V_float = _float_path(domain, self._scalar)
        self._critical_points = None
        self._residual_tol = None

    def __repr__(self):
        src = self.spec.builtin or self.spec.expr
        return f"Potential(beta={self.beta}, {src!r})"

    # -------------------------------------------------------------- evaluation
    def V(self, theta) -> Jet2:
        """V, V', V'' at theta (scalar or array).  Raises DomainError rather
        than ever returning a non-finite component."""
        if not isinstance(theta, np.ndarray):
            return Jet2(*self.V_float(float(theta)))
        theta = np.asarray(theta, dtype=float)
        if not self.domain.contains(theta):
            raise DomainError("theta outside the potential domain")
        try:
            with np.errstate(all="ignore"):
                val, d1, d2 = self._array(self.domain.reduce(theta))
        except (ZeroDivisionError, OverflowError) as err:
            raise DomainError(f"potential singular: {err}") from err
        if not (np.isfinite(val).all() and np.isfinite(d1).all() and np.isfinite(d2).all()):
            raise DomainError("potential evaluation produced a non-finite value")
        return Jet2(val, d1, d2)

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
        r = float(np.hypot(q[0], q[1]))
        if r == 0.0:
            raise OriginSingularityError("grad U is evaluated away from the origin")
        theta = math.atan2(q[1], q[0])
        j = self.V(theta)
        radial = self.beta * r ** (self.beta - 1.0) * j.val
        tangential = r ** (self.beta - 1.0) * j.d1
        c, s = math.cos(theta), math.sin(theta)
        return np.array([radial * c - tangential * s, radial * s + tangential * c])


def _float_path(domain: Domain, scalar: Callable) -> Callable:
    """The float branch of ``Potential.V`` as one closure returning the plain
    tuple (V, V', V''): the domain test and reduction (``Domain.contains``
    and ``Domain.reduce`` inlined) and every failure as DomainError.  The
    right-hand sides of the flow call it directly."""
    lo, hi, periodic = domain.lo, domain.hi, domain.periodic
    isfinite = math.isfinite

    def V(theta: float) -> tuple[float, float, float]:
        if periodic:
            theta = theta % TWO_PI
        elif not lo < theta < hi:
            raise DomainError("theta outside the potential domain")
        try:
            val, d1, d2 = scalar(theta)
        except (ZeroDivisionError, OverflowError) as err:
            raise DomainError(f"potential singular: {err}") from err
        if not (isfinite(val) and isfinite(d1) and isfinite(d2)):
            raise DomainError("potential evaluation produced a non-finite value")
        return val, d1, d2

    return V


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
    try:
        evaluators = expr_mod.compile_node(node, dict(spec.params))
    except (ZeroDivisionError, OverflowError) as err:
        raise DomainError(f"potential singular: {err}") from err
    domain = info.domain if spec.domain is None else Domain(*spec.domain)
    return Potential(info.beta, domain, evaluators, spec)
