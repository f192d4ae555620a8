"""Homogeneous potentials split into radial scale and angular shape.

A planar potential that scales as ``U(k q) = k^beta U(q)`` is determined by
its degree ``beta`` and the restriction to the unit circle

    V(theta) = U(cos theta, sin theta),        U(q) = |q|^beta V(theta).

:class:`Potential` wraps a compiled jet evaluator for V, so a single call
yields V, V' and V'' at scalar or array arguments.  Shapes come either from
the expression language (:mod:`mcgehee.expr`) or from the builtin catalogue:

``isosceles(alpha)``
    V(theta) = -1/cos(theta) - 4 alpha^(3/2) / sqrt(alpha + 2 sin^2(theta)),
    degree -1 on the open interval (-pi/2, pi/2).  The mass-ratio family of
    three bodies on a line of symmetry; the interval endpoints are the
    double collisions.

``yoshida_g(epsilon)`` / ``yoshida_h(epsilon)``
    -/+ [ (cos^4 + sin^4)/4 + (epsilon/2) cos^2 sin^2 ], degree 4 quartic
    pair; ``yoshida_h`` is everywhere positive, which matters for the
    sign-flip (complexified) certification route.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from . import expr as expr_mod
from . import jets
from .errors import (
    DomainError,
    OriginSingularityError,
    SpecError,
    UnboundParameterError,
    UnknownBuiltinError,
)
from .jets import Jet2

__all__ = ["Domain", "PotentialSpec", "Potential", "compile_potential", "load_spec", "BUILTINS"]

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
        return bool(np.all((self.lo < theta) & (theta < self.hi)))

    def reduce(self, theta):
        """Map angles into the fundamental window (identity for intervals)."""
        return theta % TWO_PI if self.periodic else theta

    def sample_grid(self, n: int, guard: float = 1e-6) -> np.ndarray:
        """Uniform scan grid.  Periodic domains cover [lo, hi) without the
        duplicate endpoint; open intervals keep a guard band away from the
        (typically singular) ends."""
        if self.periodic:
            return np.linspace(self.lo, self.hi, n, endpoint=False)
        return np.linspace(self.lo + guard, self.hi - guard, n)

    @property
    def width(self) -> float:
        return self.hi - self.lo


# ------------------------------------------------------------------ builtins
def _isosceles(params: Mapping[str, float]) -> Callable[[Jet2], Jet2]:
    a = float(params["alpha"])
    if a <= 0.0:
        raise DomainError("isosceles: alpha must be positive")
    c = 4.0 * a**1.5

    def fn(th: Jet2) -> Jet2:
        s = jets.sin(th)
        return -1.0 / jets.cos(th) - c / jets.sqrt(a + 2.0 * s * s)

    return fn


def _yoshida(sign: float):
    def factory(params: Mapping[str, float]) -> Callable[[Jet2], Jet2]:
        e = float(params["epsilon"])

        def fn(th: Jet2) -> Jet2:
            c, s = jets.cos(th), jets.sin(th)
            quartic = (c**4 + s**4) / 4.0 + (e / 2.0) * (c * c) * (s * s)
            return sign * quartic

        return fn

    return factory


@dataclass(frozen=True)
class _Builtin:
    beta: float
    param_names: tuple[str, ...]
    domain: Domain
    factory: Callable[[Mapping[str, float]], Callable[[Jet2], Jet2]]


BUILTINS: dict[str, _Builtin] = {
    "isosceles": _Builtin(-1.0, ("alpha",), Domain(-math.pi / 2, math.pi / 2), _isosceles),
    "yoshida_g": _Builtin(4.0, ("epsilon",), Domain.full_circle(), _yoshida(-1.0)),
    "yoshida_h": _Builtin(4.0, ("epsilon",), Domain.full_circle(), _yoshida(+1.0)),
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
class Potential:
    """Compiled shape potential.  Immutable; evaluation has no side effects."""

    def __init__(self, beta: float, domain: Domain, fn: Callable[[Jet2], Jet2],
                 spec: PotentialSpec, flipped: bool = False):
        self.beta = float(beta)
        self.domain = domain
        self._fn = fn
        self.spec = spec
        self.flipped = flipped

    def __repr__(self):
        src = self.spec.builtin or self.spec.expr
        return f"Potential(beta={self.beta}, {src!r}{', flipped' if self.flipped else ''})"

    # -------------------------------------------------------------- evaluation
    def V(self, theta) -> Jet2:
        """Jet of V at theta (scalar or array).  Raises DomainError rather
        than ever returning a non-finite component."""
        if isinstance(theta, np.ndarray):
            theta = np.asarray(theta, dtype=float)
        else:
            theta = float(theta)
        if not self.domain.contains(theta):
            raise DomainError("theta outside the potential domain")
        th = Jet2.variable(self.domain.reduce(theta))
        try:
            with np.errstate(all="ignore"):
                out = self._fn(th)
        except (ZeroDivisionError, OverflowError) as err:
            raise DomainError(f"potential singular: {err}") from err
        if not out.is_finite():
            raise DomainError("potential evaluation produced a non-finite value")
        return out

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

    # -------------------------------------------------------------- variants
    def sign_flipped(self) -> "Potential":
        """The potential -V (same degree, same domain).  Used to certify
        everywhere-positive potentials through the complexified route."""
        fn = self._fn
        return Potential(self.beta, self.domain, lambda th: -fn(th), self.spec,
                         flipped=not self.flipped)


def compile_potential(spec: PotentialSpec) -> Potential:
    """Build the jet evaluator for a validated spec."""
    if spec.builtin is not None:
        info = BUILTINS.get(spec.builtin)
        if info is None:
            raise UnknownBuiltinError(f"unknown builtin {spec.builtin!r}")
        missing = [p for p in info.param_names if p not in spec.params]
        if missing:
            raise UnboundParameterError(
                f"builtin {spec.builtin!r} needs parameter(s): {', '.join(missing)}"
            )
        extra = [p for p in spec.params if p not in info.param_names]
        if extra:
            raise SpecError(f"params.{extra[0]}: not a parameter of {spec.builtin!r}")
        fn = info.factory(spec.params)
        domain = Domain(*spec.domain) if spec.domain is not None else info.domain
        return Potential(info.beta, domain, fn, spec)

    node = expr_mod.parse(spec.expr)
    missing = sorted(expr_mod.free_parameters(node) - set(spec.params))
    if missing:
        raise UnboundParameterError(f"expression needs parameter(s): {', '.join(missing)}")
    fn = expr_mod.compile_node(node, dict(spec.params))
    domain = Domain(*spec.domain) if spec.domain is not None else Domain.full_circle()
    return Potential(spec.beta, domain, fn, spec)
