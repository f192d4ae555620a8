"""Tiny expression language for shape potentials V(theta): parser and
compiler to straight-line (V, V', V'') code.

Grammar (whitespace insignificant, ``^`` binds tightest and associates right):

    expr    := term (("+" | "-") term)*
    term    := factor (("*" | "/") factor)*
    factor  := "-" factor | primary ("^" factor)?
    primary := number | "pi" | "theta" | ident | ident "(" expr ")" | "(" expr ")"

``theta`` is the independent variable; any other bare identifier becomes a
named parameter that must be bound before evaluation.  Function calls are
restricted to the names in :data:`FUNCTIONS`.  Exponents may be arbitrary
subexpressions as long as they do not depend on ``theta``.  :func:`parse` is
cached per source and :func:`free_parameters` per tree, so a builtin's source
or a sweep's expression is parsed once per process, and each node keeps its
hash, so a repeat compile hashes no tree.
"""
from __future__ import annotations

import contextlib
import contextvars
import functools
import math
import mmap
import operator
import re
import threading
from dataclasses import dataclass
from typing import Callable, Mapping, Union

import numpy as np

from .errors import DomainError, ParseError, UnboundParameterError, UnknownFunctionError

__all__ = ["parse", "free_parameters", "compile_node", "compile_reading", "shared_tables",
           "keep_grid", "periodic", "FUNCTIONS", "COMPONENTS"]

# names callable in an expression; each has a rule in ``_Emitter.call``
FUNCTIONS = ("cos", "sin", "tan", "sqrt", "exp", "log", "abs")
# parsed sources and compiled expressions kept per process; a sweep's potentials share one
_CACHE_SIZE = 256
TWO_PI = 2.0 * math.pi
# the components of V's jet, in the order the closures return them
COMPONENTS = ("val", "d1", "d2")


# ------------------------------------------------------------------- AST
def _hash_once(cls):
    """``cls`` with each node's hash kept on it after the first call: a tree
    is immutable, and the caches keyed on one look it up on every compile,
    which would otherwise hash the whole tree each time."""
    tree_hash = cls.__hash__

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = tree_hash(self)
        return h

    cls.__hash__ = __hash__
    return cls


@_hash_once
@dataclass(frozen=True)
class Num:
    value: float


@_hash_once
@dataclass(frozen=True)
class Pi:
    pass


@_hash_once
@dataclass(frozen=True)
class Theta:
    pass


@_hash_once
@dataclass(frozen=True)
class Param:
    name: str


@_hash_once
@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Node"


@_hash_once
@dataclass(frozen=True)
class Neg:
    child: "Node"


@_hash_once
@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Node"
    right: "Node"


@_hash_once
@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: "Node"


Node = Union[Num, Pi, Theta, Param, Call, Neg, BinOp, Pow]


# ------------------------------------------------------------------- lexer
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, "", len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, pos = self.next()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", pos)

    def parse(self) -> Node:
        node = self.expr()
        kind, value, pos = self.peek()
        if kind is not None:
            raise ParseError(f"unexpected {value!r}", pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.next()
                node = BinOp(value, node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.next()
                node = BinOp(value, node, self.factor())
            else:
                return node

    def factor(self) -> Node:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.next()
            return Neg(self.factor())
        node = self.primary()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.next()
            return Pow(node, self.factor())
        return node

    def primary(self) -> Node:
        kind, value, pos = self.next()
        if kind == "num":
            return Num(float(value))
        if kind == "ident":
            if value == "pi":
                return Pi()
            if value == "theta":
                return Theta()
            nkind, nvalue, _ = self.peek()
            if nkind == "op" and nvalue == "(":
                if value not in FUNCTIONS:
                    raise UnknownFunctionError(f"unknown function {value!r}", pos)
                self.next()
                arg = self.expr()
                self.expect_op(")")
                return Call(value, arg)
            return Param(value)
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"expected a value, got {value!r}" if kind else "unexpected end of input", pos)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def parse(text: str) -> Node:
    """Parse expression source into an AST."""
    return _Parser(text).parse()


_CHILD_FIELDS = {Call: ("arg",), Neg: ("child",), BinOp: ("left", "right"),
                 Pow: ("base", "exponent")}


def _children(node: Node) -> tuple:
    return tuple(getattr(node, f) for f in _CHILD_FIELDS.get(type(node), ()))


def _nodes(node: Node):
    """Every node of the tree, parents before children."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(_children(node))


@functools.lru_cache(maxsize=_CACHE_SIZE)
def free_parameters(node: Node) -> frozenset[str]:
    """Names of all parameters referenced by the expression."""
    return frozenset(n.name for n in _nodes(node) if isinstance(n, Param))


def _literal(node: Node) -> float | None:
    """The value of a number or a negated one; None for any other node."""
    if isinstance(node, Neg):
        value = _literal(node.child)
        return None if value is None else -value
    return float(node.value) if isinstance(node, Num) else None


def _slope(node: Node) -> float | None:
    """k where ``node`` is k*theta + c, with k built from literals by + - *
    and c free of theta (k = 0 when ``node`` is); None otherwise."""
    if isinstance(node, Theta):
        return 1.0
    if not any(isinstance(n, Theta) for n in _nodes(node)):
        return 0.0
    if isinstance(node, Neg):
        k = _slope(node.child)
        return None if k is None else -k
    if isinstance(node, BinOp) and node.op in "+-":
        a, b = _slope(node.left), _slope(node.right)
        return None if a is None or b is None else a + b if node.op == "+" else a - b
    if isinstance(node, BinOp) and node.op == "*":
        for c, x in ((node.left, node.right), (node.right, node.left)):
            k, s = _literal(c), _slope(x)
            if k is not None and s is not None:
                return k * s
    return None


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _harmonics(node: Node) -> tuple[bool, int]:
    """(periodic, K) of a source.  It is periodic when every theta sits
    inside sin, cos or tan of k*theta + c, k an integer and c free of theta
    (``_slope``), or when it has no theta.  K is the top of its harmonic
    ladder: the largest K such that sin or cos of theta or of a literal
    times theta appears for every k = 1..K."""
    periodic, ks, stack = True, set(), [node]
    while stack:
        n = stack.pop()
        if isinstance(n, Call) and n.fn in ("sin", "cos", "tan"):
            k = _slope(n.arg)
            if k is not None and math.isfinite(k) and k == round(k):
                a = n.arg
                if n.fn != "tan" and k > 0.0 and (isinstance(a, Theta) or isinstance(a, BinOp)
                                                  and a.op == "*" and Theta() in (a.left, a.right)):
                    ks.add(k)
                continue
        periodic = periodic and not isinstance(n, Theta)
        stack.extend(_children(n))
    top = 0
    while top + 1.0 in ks:
        top += 1
    return periodic, top


def periodic(node: Node) -> bool:
    """Whether a source is 2 pi-periodic by construction (``_harmonics``);
    kept per tree."""
    return _harmonics(node)[0]


# ------------------------------------------------------------------- compile
#
# An expression compiles, once per process and kind of domain, to the source
# of one function, ``bind(p, lo, hi)``.  Its prologue reads the parameters
# from the dict ``p`` and evaluates every theta-free subtree once.  It
# returns two closures, ``scalar(t)`` on floats through ``math`` and
# ``array(t)`` on float arrays through ``np``: straight lines of assignments
# returning (V, V', V''), each under V's rules of evaluation (the domain,
# and every failure as DomainError: ``_Emitter.checked``).
#
# A reading is the same code for some of the components (``COMPONENTS``):
# its closures return None for the others, and ``_Emitter.lines`` drops
# every assignment that only those read.  Each reading is compiled from its
# own source on first use (``compile_reading``), and every source of a tree,
# ``float_body``'s included, in both flavours, is rendered from one walk of
# it (``_walked``), kept for the few trees compiled last.  A reading keeps
# every domain check of the full jet, since a check is never dropped, and
# tests only the components it returns for a non-finite value, so a
# component it returns has the full jet's bits.  The full jet fails where a
# reading does not only where a component it leaves out overflows.  The
# scan reads V' on its grid and V', V'' in its Newton steps, the arcs of a
# certificate and the flow's charts V and V' (``float_body``, which the
# charts inline), and the z column and ``validate``'s shifted grids V.
#
# So the code has three parts.  The prologue runs once per binding.  For a
# source with parameters, the array flavour's ``% TWO_PI`` and every
# assignment and check that reads no prologue name form a module-level
# ``table(t)``, once per source: it depends on the angles alone, so inside
# ``shared_tables`` the potentials of a sweep compute it once per grid
# (``tables``).  The parameter part is the rest of ``array``: the interval
# test, the table unpacked, the body that reads the prologue, and the
# non-finite test.  The table's checks now run before the parameter part's,
# so where two rules fail on one array, the table's is the one raised.  A
# source without parameters has no table: its array closure would compute
# it once per call anyway.
#
# A wave is sin or cos of theta or of a literal multiple k*theta
# (``_Emitter.wave``).  Where the source's literal harmonics form an
# unbroken ladder k = 1..K, K >= 2 (``_harmonics``, once per tree), rungs
# 2..K come from rung k - 1 and rung 1 by angle addition, the recurrence
# behind Clenshaw's summation (Clenshaw, "A note on the summation of
# Chebyshev series", MTAC 9, 1955):
#
#     c_k = c_{k-1}*c_1 - s_{k-1}*s_1,    s_k = s_{k-1}*c_1 + c_{k-1}*s_1
#
# in this order in every flavour, reading, chart and store, so each has the
# full jet's bits; k*theta is not computed for a derived rung.  Every other
# wave is the C library's: a rung above a gap (k = 5 of 1, 2, 3, 5), a
# fractional, negative or parameter k, and k*theta + c.  A ladder costs two
# transcendental calls per point where the C library would make 2K, and it
# is the more accurate: against mpmath at 4000 angles in [0, 4 pi] a derived
# rung errs by at most k*1.1e-16 (k <= 8), while the C library's cos and sin
# of the rounded product k*theta err by up to 3.6e-15 (k = 3, 5) and
# 7.1e-15 (k = 6, 7), the rounding of k*theta itself.  Deriving a lone
# cos(4*theta) would need rungs 1-3 that nothing else reads, so a ladder
# must be unbroken from 1; no builtin has one.
#
# Across sources, the array flavour shares the waves of a grid.  It reads
# its angles through ``_waves``, which reduces them on a periodic domain
# (on an array that is not a kept grid, only at the entries ``% TWO_PI``
# moves: ``_reduce``), and it writes a wave of the C library as
# ``np.cos(x) if w is None else w.wave(np.cos, k, x)``, with x = k*theta,
# and a derived rung as ``c_k if w is None else w.rung(np.cos, k)``.
# On a grid that ``Domain.sample_grid`` built (``keep_grid``), ``w`` is the
# grid's store: the reduction and each wave are computed once per process,
# the derived rungs under keys of their own, and every potential that reads
# cos(2*theta) there reads one read-only array.  Any other array has no
# store and computes what the float flavour computes.  A kept wave of the
# C library reads the x the call computes, and the store derives a rung by
# the closures' operations, so a kept wave has the bits of a computed one.
#
# Theta enters as (t, 1, 0) and a
# theta-free value c as (c, 0, 0); the rules are second-order forward
# differentiation by source transformation (Griewank & Walther, *Evaluating
# Derivatives*, 2008):
#
#     (a, a', a'') * (b, b', b'')  ->  (ab, a'b + ab', a''b + 2a'b' + ab'')
#     f(a)                         ->  (f(a), f'(a) a', f''(a) a'^2 + f'(a) a'')
#
# Each rule has one operation order, the same in both closures; they differ
# only where numpy's tan, exp, log and power round differently from the C
# library's, and where ``math`` overflows with an error and numpy to inf.
# Operations on literals are done while emitting, and three rules shorten
# the rest:
#
# - A literal 0 is a structural zero, such as theta'' or the derivatives of a
#   constant.  Against a function of theta, x*0 and 0/x fold to that 0,
#   x + 0 and x - 0 to x, and 0 - x to -x; on literals and prologue names the
#   arithmetic stays exact.  So a constant acts componentwise,
#   c*(f, f', f'') -> (cf, cf', cf''), and c + f touches only V.  x*1, x/1,
#   x^0 and x^1 fold as well.
# - A power with an exponent of 2, 3 or 4 is a product: x*x, (x*x)*x and
#   (x*x)*(x*x), whether the exponent is a literal or a parameter (``_ipow``).
# - + and * order their operands (``_ordered``), so a*b and b*a are one name.
#
# Assignments nothing reads are dropped from the closures; the domain checks
# stay.  The folds can change the sign of an exact zero: -0.0 + 0 gives -0.0
# where the sum gave +0.0, and x*0 takes the sign of the literal 0, not of
# x.  Neither the scan's ``d1 == 0.0`` node test nor its sign-change test
# sees the sign of a zero.  Where an operand overflows, a product with 0
# that gave nan is gone: a derivative that was nan becomes +-inf, which the
# non-finite check still rejects, and sqrt, log, tan, abs, ^ and / keep
# their DomainError and ZeroDivisionError checks.  Only a product with a 0
# written in the source loses the overflow of its other operand:
# 0*exp(exp(theta)) is 0.  The source holds only names the emitter makes,
# names from FUNCTIONS, float reprs, and reprs of parameter names, used as
# keys of ``p``.

# tan is rejected this close to a pole of the tangent
_TAN_POLE_TOL = 1e-12
_COMPARE = {"==": operator.eq, "<=": operator.le, "<": operator.lt}


def _src(x) -> str:
    """Source of an operand; negative floats are parenthesised atoms, and
    ``None``, a component a reading does not return, is ``None``."""
    if x is None:
        return "None"
    if not isinstance(x, float):
        return x
    text = repr(x) if math.isfinite(x) else f"float('{x!r}')"
    return f"({text})" if math.copysign(1.0, x) < 0.0 else text


def _ordered(a, b) -> tuple:
    """The operands of a commutative operation in one order, so that a*b and
    b*a are one operation."""
    return (a, b) if _src(a) <= _src(b) else (b, a)


def _ipow(x, c):
    """x**c, with the products the emitter writes for a literal exponent of
    2, 3 or 4; the body calls it for an exponent read from a parameter."""
    if c in (2.0, 3.0, 4.0):
        x2 = x * x
        return x2 if c == 2.0 else x2 * (x if c == 3.0 else x2)
    return x ** c


class _Emitter:
    """The operations of one expression, each emitted once, and the triple
    (V, V', V'') they compute, ``result``.

    An operand is a float literal, a prologue name ``k<i>`` (fixed once the
    parameters are bound) or a body name ``t`` or ``v<i>`` (a function of
    theta).  A node evaluates to an operand when it is theta-free and to a
    triple otherwise.  An operation on literals is done here, one on
    prologue names goes to the prologue, any other to the body.  The tree is
    walked once, on construction, and each line keeps its text in both
    flavours, (float, array): a prologue line reads no angle and is written
    through ``math`` in both.  Rendering (``lines`` and the methods after
    it) only reads the emitter, so one walk serves every reading.
    """

    def __init__(self, node: Node):
        # the prologue, its texts -> name, and the rungs angle addition derives
        self.prologue, self.names = [], {}
        self.rungs = {float(k) for k in range(2, _harmonics(node)[1] + 1)}
        # the body's names and checks, and which of them read no prologue name
        self.body, self.body_names, self.fixed = [], {}, {"t"}
        # theta and its literal multiples: name -> k
        self.multiples = {"t": 1.0}
        # each wave emitted: (fn, k, x) -> name
        self.waves: dict[tuple, str] = {}
        result = self.walk(node)
        self.result = result if isinstance(result, tuple) else (result, 0.0, 0.0)

    @staticmethod
    def varies(*atoms) -> bool:
        # a loop, not any(): the walk asks this of every operation
        for a in atoms:
            if isinstance(a, str) and a[0] in "tv":
                return True
        return False

    def _place(self, texts: tuple[str, str], atoms, assign: bool = True) -> str:
        body = self.varies(*atoms)
        names = self.body_names if body else self.names
        if texts not in names:
            names[texts] = name = f"{'v' if body else 'k'}{len(names)}"
            stmts = tuple(f"{name} = {text}" for text in texts) if assign else texts
            if body:
                reads = {a for a in atoms if self.varies(a)}
                fixed = reads <= self.fixed and not any(
                    isinstance(a, str) and a[0] == "k" for a in atoms)
                if fixed and assign:
                    self.fixed.add(name)
                self.body.append((name if assign else None, stmts, reads, fixed))
            else:
                self.prologue.append(stmts[0])
        return names[texts]

    def op(self, fmt: str, fold, *atoms):
        """``fmt`` on ``atoms``, with ``{xp}`` the module: ``np`` in the
        array text of an operation that varies, else ``math``."""
        if all(isinstance(a, float) for a in atoms):
            return float(fold(*atoms))
        srcs = [*map(_src, atoms)]
        text = fmt.format(*srcs, xp="math")
        array = fmt.format(*srcs, xp="np") if self.varies(*atoms) else text
        return self._place((text, array), atoms)

    def check(self, x, compare: str, bound: float, error: type, message: str, when=None):
        """Raise ``error`` where ``x compare bound``, anywhere in an array, and the prologue
        flag ``when``, if given, is true; ``{k<i>}`` in ``message`` reads a prologue name."""
        if isinstance(x, float) and when is None:
            if _COMPARE[compare](x, bound):
                raise error(message)
            return
        test = f"{_src(x)} {compare} {_src(bound)}"
        cond = "" if when is None else f"{when} and "
        self._place(tuple(f"if {cond}{t}: raise {error.__name__}(f{message!r})"
                          for t in (test, f"({test}).any()" if self.varies(x) else test)),
                    (x, when), assign=False)

    def zero(self, x, other) -> bool:
        """Whether x is a literal zero to fold against ``other``, a function
        of theta; on literals and prologue names the arithmetic is exact."""
        return isinstance(x, float) and x == 0.0 and self.varies(other)

    def add(self, a, b):
        if self.zero(a, b) or self.zero(b, a):
            return b if isinstance(a, float) else a
        return self.op("{} + {}", operator.add, *_ordered(a, b))

    def sub(self, a, b):
        if self.zero(b, a):
            return a
        return self.neg(b) if self.zero(a, b) else self.op("{} - {}", operator.sub, a, b)

    def mul(self, a, b):
        if a == 1.0 or b == 1.0:
            return b if a == 1.0 else a
        if self.zero(a, b) or self.zero(b, a):
            return a if isinstance(a, float) else b
        name = self.op("{} * {}", operator.mul, *_ordered(a, b))
        k = a if b == "t" else b if a == "t" else None
        if isinstance(k, float):
            self.multiples[name] = k
        return name

    def div(self, a, b):
        return a if b == 1.0 or self.zero(a, b) else self.op("{} / {}", operator.truediv, a, b)

    def neg(self, a):
        return self.op("-{}", operator.neg, a)

    def pow(self, x, c):
        """x**c; an exponent of 2, 3 or 4 as the products ``_ipow`` takes."""
        if not isinstance(c, float):
            return self.op("_ipow({}, {})", _ipow, x, c)
        if c == 0.0 or c == 1.0:
            return 1.0 if c == 0.0 else x
        if c in (2.0, 3.0, 4.0):
            x2 = self.mul(x, x)
            return x2 if c == 2.0 else self.mul(x2, x if c == 3.0 else x2)
        return self.op("{} ** {}", operator.pow, x, c)

    def chain(self, f, fp, fpp, a1, a2):
        return f, self.mul(fp, a1), self.add(self.mul(self.mul(fpp, a1), a1), self.mul(fp, a2))

    def wave(self, fn: str, k: float, x: str) -> str:
        """sin or cos (``fn``) of x = k*theta, for a literal k.  A rung of
        the source's ladder, 2 <= k <= K, comes from rungs k - 1 and 1 by
        angle addition and reads no x; any other k is the C library's of x.
        In the array text a kept grid's store serves either.  Each wave is
        emitted once: a rung looks up the rungs below it instead of
        recursing through them again."""
        key = (fn, k, x)
        if key in self.waves:
            return self.waves[key]
        if k in self.rungs:
            c, s = self.wave("cos", k - 1.0, "t"), self.wave("sin", k - 1.0, "t")
            c1, s1 = self.wave("cos", 1.0, "t"), self.wave("sin", 1.0, "t")
            text = array = (f"{c} * {c1} - {s} * {s1}" if fn == "cos"
                            else f"{s} * {c1} + {c} * {s1}")
            atoms, kept = (c, s, c1, s1), f"w.rung(np.{fn}, {int(k)})"
        else:
            text, array, atoms = f"math.{fn}({x})", f"np.{fn}({x})", (x,)
            kept = f"w.wave(np.{fn}, {_src(k)}, {x})"
        name = self.waves[key] = self._place((text, f"{array} if w is None else {kept}"), atoms)
        return name

    def call(self, fn: str, u):
        """fn of an operand, or of a triple by the chain rule; sin and cos of
        a literal multiple of theta through ``wave``."""
        x = u[0] if isinstance(u, tuple) else u
        if fn in ("sqrt", "log"):
            self.check(x, "<=", 0.0, DomainError, f"{fn} requires a positive argument")
        elif fn == "tan":
            size = self.op("{xp}.fabs({})", math.fabs, self.call("cos", x))
            self.check(size, "<", _TAN_POLE_TOL, DomainError, "tan evaluated at a pole")
        elif fn == "abs":
            self.check(x, "==", 0.0, DomainError, "|x| is not differentiable at 0")
            s = self.op("{xp}.copysign(1.0, {})", lambda v: math.copysign(1.0, v), x)
        if fn == "abs":
            f = self.mul(s, x)
        elif fn in ("sin", "cos") and x in self.multiples:
            f = self.wave(fn, self.multiples[x], x)
        else:
            f = self.op(f"{{xp}}.{fn}({{}})", getattr(math, fn), x)
        if not isinstance(u, tuple):
            return f
        a1, a2 = u[1], u[2]
        if fn == "abs":
            return f, self.mul(s, a1), self.mul(s, a2)
        if fn == "exp":
            return f, self.mul(f, a1), self.mul(f, self.add(self.mul(a1, a1), a2))
        if fn == "sin":
            fp, fpp = self.call("cos", x), self.neg(f)
        elif fn == "cos":
            fp, fpp = self.neg(self.call("sin", x)), self.neg(f)
        elif fn == "tan":
            fp = self.add(1.0, self.mul(f, f))
            fpp = self.mul(self.mul(2.0, f), fp)
        elif fn == "sqrt":
            fp, fpp = self.div(0.5, f), self.div(-0.25, self.mul(x, f))
        else:  # log
            fp = self.div(1.0, x)
            fpp = self.mul(self.neg(fp), fp)
        return self.chain(f, fp, fpp, a1, a2)

    def power(self, u, c):
        """u^c, of an operand or of a triple, for an exponent c that is a
        number or a prologue name."""
        x = u[0] if isinstance(u, tuple) else u
        if isinstance(c, float):
            if not math.isfinite(c):
                raise DomainError("exponent of ^ must be finite")
            n = int(c) if c == round(c) and abs(c) < 2**31 else None
            if isinstance(u, tuple) and n in (0, 1):
                return u if n else (1.0, 0.0, 0.0)
            if n is None:
                self.check(x, "<=", 0.0, DomainError, f"x^{c} requires x > 0")
            elif n < 0:
                self.check(x, "==", 0.0, ZeroDivisionError, "0 raised to a negative power")
            # for an integer c, c*(c - 1) is the rounded integer product n(n - 1)
            e1, e2, c2 = c - 1.0, c - 2.0, c * (c - 1.0)
        else:
            finite = f"if not math.isfinite({c}): raise DomainError('exponent of ^ must be finite')"
            self._place((finite,) * 2, (), assign=False)
            whole = self.op("{0} == round({0}) and abs({0}) < 2147483648.0", None, c)
            self.check(x, "<=", 0.0, DomainError, f"x^{{{c}}} requires x > 0",
                       when=self.op("not {}", None, whole))
            self.check(x, "==", 0.0, ZeroDivisionError, "0 raised to a negative power",
                       when=self.op("{} and {} < 0.0", None, whole, c))
            # with these exponents and coefficients the general rule returns,
            # for finite (u', u''), u at c = 1 and (1, 0, 0) at c = 0, up to the
            # sign of a zero, which ``settle`` puts right
            e1 = self.op("{0} - 1.0 if {0} != 0.0 else 0.0", None, c)
            e2 = self.op("{0} - 2.0 if {0} != 0.0 and {0} != 1.0 else 0.0", None, c)
            c2 = self.op("{0} * ({0} - 1.0) if {0} != 1.0 else -0.0", None, c)
        f = self.pow(x, c)
        if not isinstance(u, tuple):
            return f
        fp, fpp = self.mul(c, self.pow(x, e1)), self.mul(c2, self.pow(x, e2))
        _, d1, d2 = self.chain(f, fp, fpp, u[1], u[2])
        if isinstance(c, float):
            return f, d1, d2
        return f, self.settle(c, d1, u[1]), self.settle(c, d2, u[2])

    def settle(self, c, d, a):
        """A derivative d of u^c, for an exponent c read from a parameter, with
        the bits the rule of a literal c gives: +0 at c = 0, u's own
        derivative a at c = 1, d otherwise.  A d folded to a literal is chosen
        from in the prologue.  Otherwise, at c = 1, d is a exactly, or -0 when
        a is a literal zero and the term with a was folded away; adding a
        zero z changes nothing but that sign: z = +0 at c = 0, a at c = 1 when
        a is a literal zero, else -0."""
        if isinstance(d, float):
            return self.op("0.0 if {0} == 0.0 else {1} if {0} == 1.0 else {2}", None, c, a, d)
        z = self.op("0.0 if {0} == 0.0 else {1} if {0} == 1.0 else -0.0", None, c,
                    a if isinstance(a, float) and a == 0.0 else -0.0)
        return self.add(d, z)

    def walk(self, node: Node):
        if isinstance(node, Num):
            return float(node.value)
        if isinstance(node, Pi):
            return math.pi
        if isinstance(node, Theta):
            return ("t", 1.0, 0.0)
        if isinstance(node, Param):
            return self._place((f"float(p[{node.name!r}])",) * 2, ())
        if isinstance(node, Neg):
            x = self.walk(node.child)
            return tuple(map(self.neg, x)) if isinstance(x, tuple) else self.neg(x)
        if isinstance(node, Call):
            return self.call(node.fn, self.walk(node.arg))
        if isinstance(node, Pow):
            u, c = self.walk(node.base), self.walk(node.exponent)
            if isinstance(c, tuple):
                raise DomainError("exponent of ^ must not depend on theta")
            return self.power(u, c)
        a, b = self.walk(node.left), self.walk(node.right)
        if node.op == "/":
            self.check(b[0] if isinstance(b, tuple) else b, "==", 0.0, ZeroDivisionError,
                       "jet division by zero")
        if not (isinstance(a, tuple) or isinstance(b, tuple)):
            return {"+": self.add, "-": self.sub, "*": self.mul, "/": self.div}[node.op](a, b)
        (a0, a1, a2), (b0, b1, b2) = (x if isinstance(x, tuple) else (x, 0.0, 0.0) for x in (a, b))
        if node.op in "+-":
            f = self.add if node.op == "+" else self.sub
            return f(a0, b0), f(a1, b1), f(a2, b2)
        add, mul = self.add, self.mul
        if node.op == "*":
            return (mul(a0, b0), add(mul(a1, b0), mul(a0, b1)),
                    add(add(mul(a2, b0), mul(mul(2.0, a1), b1)), mul(a0, b2)))
        v = self.div(a0, b0)
        d1 = self.div(self.sub(a1, mul(v, b1)), b0)
        return v, d1, self.div(self.sub(self.sub(a2, mul(mul(2.0, d1), b1)), mul(v, b2)), b0)

    def lines(self, result, entries, array: bool) -> list[str]:
        """The lines of the body ``entries`` that ``result`` reads, in the
        float or the ``array`` flavour: the assignments nothing reads are
        dropped, and the array flavour deletes temporaries after use."""
        live, lines = {"t", *result}, []
        for target, stmts, reads, _ in reversed(entries):
            if target is not None and target not in live:
                continue
            if array and reads - live:
                lines.append("del " + ", ".join(sorted(reads - live)))
            lines.append(stmts[array])
            live |= reads
        return lines[::-1]

    def table(self, result, periodic: bool) -> tuple[list[str], list[str] | None]:
        """The array body split in two: the module-level ``table(t)``, the
        angles read through ``_waves`` and every assignment and check that
        reads no prologue name, returning what the rest reads of it; and the lines of the
        rest, which start by unpacking that.  ``([], None)`` when the rest
        reads nothing of the table."""
        rest = [e for e in self.body if not e[3]]
        read = set(result)
        for target, _, reads, _ in reversed(rest):
            if target is None or target in read:
                read |= reads
        made = (["t"] if periodic else []) + [e[0] for e in self.body if e[3] and e[0]]
        out = [n for n in made if n in read]
        if not out:
            return [], None
        lines = [f"t, w = _waves(t, {periodic})",
                 *self.lines(out, [e for e in self.body if e[3]], True)]
        unpack = f"{', '.join(out)},"
        return (["def table(t):", *(f"    {s}" for s in lines), f"    return {unpack}",
                 "tables = _shared(table)"],
                [f"{unpack} = tables(t)", *self.lines(result, rest, True)])

    def checked(self, result, periodic: bool, array: bool, body: list[str] | None) -> list[str]:
        """The body returning ``result`` under V's rules, in the float or the
        ``array`` flavour: the angle ``t`` reduced on a periodic domain,
        else tested against ``(lo, hi)``; a ZeroDivisionError or
        OverflowError of the body, and a non-finite returned component,
        raised as DomainError.  A component that is ``None`` is not
        returned: what only it reads is dropped and it is not tested, while
        every domain check stays.  x - x is 0.0 for a finite double x and
        nan otherwise, so one comparison tests all float components; an
        array is tested per component, as a sum of large ones can overflow.
        ``body`` is from ``lines``, or from ``table`` with the table's
        angles; None is the whole array body, reading ``_waves``."""
        if periodic:
            head = ["t = t % TWO_PI"] if not array else []
        else:
            inside = "((lo < t) & (t < hi)).all()" if array else "lo < t < hi"
            head = [f"if not {inside}:",
                    "    raise DomainError('theta outside the potential domain')"]
        if body is None:
            head.append(f"t, w = _waves(t, {periodic})")
            body = self.lines(result, self.body, True)
        tested = [_src(a) for a in result
                  if not (a is None or isinstance(a, float) and math.isfinite(a))]
        if array:
            finite = f"not ({' and '.join(f'np.isfinite({x}).all()' for x in tested)})"
        else:
            finite = " + ".join(f"({x} - {x})" for x in tested) + " != 0.0"
        return [*head, "try:", *(f"    {s}" for s in body or ["pass"]),
                "except (ZeroDivisionError, OverflowError) as err:",
                "    raise DomainError(f'potential singular: {err}') from err",
                *([f"if {finite}:", "    raise DomainError("
                   "'potential evaluation produced a non-finite value')"] if tested else [])]

    def closure(self, name: str, result, periodic: bool, array: bool,
                body: list[str] | None) -> list[str]:
        """The checked body returning ``result`` as a closure; the array
        closure broadcasts theta-free components."""
        body = self.checked(result, periodic, array, body)
        if array:
            result = [a if a is None or self.varies(a) else f"np.full_like(t, {_src(a)})"
                      for a in result]
        return [f"    def {name}(t):", *(f"        {s}" for s in body),
                f"        return {', '.join(map(_src, result))}"]


# trees kept walked, one emitter each: every reading of a source, in both
# flavours, is compiled during its first certify, so a few are enough
_WALKED_TREES = 4
_walked = functools.lru_cache(maxsize=_WALKED_TREES)(_Emitter)


# inside ``shared_tables``: per ``table`` function, its kept results as
# (angles, table) pairs, least recently used first
_SHARED: contextvars.ContextVar[dict | None] = contextvars.ContextVar("tables", default=None)
# results kept per table: the scan grid and the arc grids on both sides of
# a threshold Brent brackets
_SHARED_TABLES = 3


@contextlib.contextmanager
def shared_tables():
    """A scope in which the array evaluators of every source with parameters
    compute the table of a grid once: ``table(t)`` depends on the angles
    alone, so potentials that differ only in their parameters share it.
    Results are kept per table with their angles and handed out read-only.
    A kept result is found for the same array (``Domain.sample_grid`` hands
    out one per grid), else for an array of the same shape with the same
    bits, so -0.0 and 0.0 differ; all are dropped when the scope ends."""
    token = _SHARED.set({})
    try:
        yield
    finally:
        _SHARED.reset(token)


def _shared(table: Callable) -> Callable:
    """``table`` through the LRU of the current ``shared_tables`` scope,
    if any; a hit moves to the back.  The angles are kept as they are when
    they are read-only and own their memory, else as a read-only copy, so a
    later write to the caller's array cannot change a kept key.  Float64
    angles, as V's array closure passes them."""
    def tables(t):
        kept = _SHARED.get()
        if kept is None:
            return table(t)
        lru = kept.setdefault(table, [])
        for k, (grid, out) in enumerate(lru):
            if grid is t or (grid.shape == t.shape
                             and (grid.view(np.uint64) == t.view(np.uint64)).all()):
                lru.append(lru.pop(k))
                return out
        out = table(t)
        for a in out:
            a.flags.writeable = False
        if t.flags.writeable or not t.flags.owndata:
            t = t.copy()
            t.flags.writeable = False
        if len(lru) >= _SHARED_TABLES:
            del lru[0]
        lru.append((t, out))
        return out
    return tables


# the grids ``keep_grid`` was given, least recently used first: id -> store.
# Each store holds its grid, so an id found here is that grid's.
_KEPT: dict[int, "_Kept"] = {}
# grids kept, as many as ``Domain.sample_grid`` keeps
_KEPT_GRIDS = 16
# waves kept per grid, least recently used dropped: 1 MB at 4096 points
_KEPT_WAVES = 32
# guards the order of both kinds of dict; a wave is computed outside it, so
# two threads may compute one wave twice
_KEPT_LOCK = threading.Lock()


class _Kept:
    """A kept grid, read-only, with the read-only waves computed on it,
    least recently used first: the C library's keyed by (np.sin or np.cos,
    k), a ladder's derived rungs by (np.sin or np.cos, k, "rung")."""

    def __init__(self, grid: np.ndarray):
        self.grid, self.waves, self._reduced = grid, {}, None

    def reduced(self) -> "_Kept":
        """The store of ``grid % TWO_PI``: this one when the grid is its own
        reduction bit for bit, as the circle's grids are, else one kept with
        this one."""
        if self._reduced is None:
            angles = self.grid % TWO_PI
            if np.array_equal(angles.view(np.uint64), self.grid.view(np.uint64)):
                self._reduced = self
            else:
                angles.flags.writeable = False
                self._reduced = _Kept(angles)
        return self._reduced

    def _kept(self, key, compute: Callable) -> np.ndarray:
        """The wave under ``key``, made by ``compute(out)`` on first use."""
        with _KEPT_LOCK:
            out = self.waves.pop(key, None)
            if out is not None:
                self.waves[key] = out
                return out
        # in a mapping of its own, outside the malloc heap: a long-lived
        # array there can leave the temporaries of later calls on top of the
        # heap, which glibc then hands back on each free and the next call
        # faults in again (with glibc on x86-64 Linux, about 100 page
        # faults per 8 x 1029 arc call)
        g = self.grid
        out = np.frombuffer(mmap.mmap(-1, g.nbytes), dtype=float, count=g.size).reshape(g.shape)
        compute(out)
        out.flags.writeable = False
        with _KEPT_LOCK:
            self.waves[key] = out
            if len(self.waves) > _KEPT_WAVES:
                del self.waves[next(iter(self.waves))]
        return out

    def wave(self, fn, k: float, x: np.ndarray) -> np.ndarray:
        """``fn(x)``, for np.sin or np.cos and x = k*grid (the grid at
        k = 1)."""
        return self._kept((fn, k), lambda out: fn(x, out=out))

    def rung(self, fn, k: int) -> np.ndarray:
        """Rung k >= 2 of the ladder on the grid, cos or sin (``fn``) of
        k*grid from rungs k - 1 and 1 by ``_Emitter.wave``'s operations."""
        def compute(out):
            c1, s1 = self.wave(np.cos, 1.0, self.grid), self.wave(np.sin, 1.0, self.grid)
            c, s = (c1, s1) if k == 2 else (self.rung(np.cos, k - 1), self.rung(np.sin, k - 1))
            if fn is np.cos:
                np.subtract(c * c1, s * s1, out=out)
            else:
                np.add(s * c1, c * s1, out=out)
        return self._kept((fn, k, "rung"), compute)


def keep_grid(grid: np.ndarray) -> None:
    """Keep the reduction and the waves of ``grid`` once they are read, for
    every array closure called on this very array; it is made read-only.
    ``Domain.sample_grid`` registers each grid it builds."""
    grid.flags.writeable = False
    with _KEPT_LOCK:
        _KEPT[id(grid)] = _Kept(grid)
        if len(_KEPT) > _KEPT_GRIDS:
            del _KEPT[next(iter(_KEPT))]


def _waves(t: np.ndarray, periodic: bool) -> tuple[np.ndarray, _Kept | None]:
    """The angles an array closure reads, ``t % TWO_PI`` on a periodic
    domain and ``t`` otherwise, with their store if ``t`` is a kept grid."""
    with _KEPT_LOCK:
        kept = _KEPT.pop(id(t), None)
        if kept is not None:
            _KEPT[id(t)] = kept
    if kept is None:
        return (_reduce(t) if periodic else t), None
    if periodic:
        kept = kept.reduced()
    return kept.grid, kept


def _reduce(t: np.ndarray) -> np.ndarray:
    """``t % TWO_PI`` bit for bit, computed only where it moves an angle:
    at entries with the sign bit set (-0.0 goes to +0.0) or at least 2 pi
    (inf goes to nan).  Elsewhere, nan included, ``%`` returns the entry
    itself, so an array with no such entry is returned as it is."""
    wrap = np.signbit(t) | (t >= TWO_PI)
    if not wrap.any():
        return t
    out = t.copy()
    out[wrap] = t[wrap] % TWO_PI
    return out


def namespace() -> dict:
    """The globals every emitted source runs in."""
    return {"math": math, "np": np, "DomainError": DomainError, "_ipow": _ipow,
            "TWO_PI": TWO_PI, "_shared": _shared, "_waves": _waves}


def _read(result: tuple, reads: tuple[str, ...]) -> tuple:
    """The triple ``result`` with ``None`` for each component not in ``reads``."""
    return tuple(x if name in reads else None for name, x in zip(COMPONENTS, result))


def _reading_source(node: Node, periodic: bool, reads: tuple[str, ...]) -> str:
    """The source of ``bind`` for the components ``reads`` of the jet; the
    closures return the triple with ``None`` for the others."""
    em = _walked(node)
    result = _read(em.result, reads)
    table, body = em.table(result, periodic) if free_parameters(node) else ([], None)
    closures = [*em.closure("scalar", result, periodic, False, em.lines(result, em.body, False)),
                *em.closure("array", result, periodic, True, body)]
    return "\n".join([*table, "def bind(p, lo, hi):", *(f"    {s}" for s in em.prologue),
                      *closures, "    return scalar, array", ""])


def float_body(node: Node, periodic: bool) -> tuple[list[str], list[str], tuple[str, str]]:
    """The prologue and the checked body of the scalar closure of the
    reading (V, V'), and the source of V and V', for code that inlines V's
    float evaluation: every domain check of ``bind``'s scalar closure, the
    same waves, ladder rungs derived alike, and no V'', which is neither
    computed nor tested.  The prologue reads the parameters from ``p``;
    the body reads the angle ``t`` (and ``lo``, ``hi``) and defines names
    ``v<i>``, the prologue names ``k<i>``.  Both run in ``namespace()``."""
    em = _walked(node)
    result = em.result[:2]
    body = em.checked(result, periodic, False, em.lines(result, em.body, False))
    return list(em.prologue), body, tuple(map(_src, result))


# a source's full evaluators and up to four readings of it
@functools.lru_cache(maxsize=5 * _CACHE_SIZE)
def _compiled(node: Node, periodic: bool, reads: tuple[str, ...]):
    """The parameter names of ``node`` and the compiled ``bind`` of its
    reading ``reads``."""
    names = free_parameters(node)
    ns = namespace()
    exec(compile(_reading_source(node, periodic, reads), "<mcgehee.expr>", "exec"), ns)
    return names, ns["bind"]


def compile_node(node: Node, params: Mapping[str, float], domain) -> tuple[Callable, Callable]:
    """Bind parameters and a ``potentials.Domain`` and return the evaluators
    ``(scalar, array)``, on a float angle and on a float array, each
    returning (V, V', V'') or raising DomainError.  Theta-free subtrees are
    checked here, once: DomainError, or ZeroDivisionError on a division by
    an exact zero."""
    return compile_reading(node, params, domain, COMPONENTS)


def compile_reading(node: Node, params: Mapping[str, float], domain,
                    reads: tuple[str, ...]) -> tuple[Callable, Callable]:
    """``compile_node``'s evaluators for the components ``reads`` of the
    jet, names of ``COMPONENTS`` in its order: each returns the triple with
    ``None`` for the other components, which it neither computes nor tests
    for a non-finite value.  Its domain checks are the full jet's, all of
    them, and each returned component has the full jet's bits.  Each
    reading is compiled from its own source on first use."""
    names, bind = _compiled(node, domain.periodic, reads)
    missing = sorted(names - set(params))
    if missing:
        raise UnboundParameterError(f"expression needs parameter(s): {', '.join(missing)}")
    return bind(params, domain.lo, domain.hi)
