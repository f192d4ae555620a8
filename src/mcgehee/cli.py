"""Command-line surface tying the modules together.

Subcommands: ``certify`` (certificate JSON), ``sweep`` (threshold JSON),
``equilibria`` (rest-point report JSON), ``simulate`` (trajectory CSV),
``manifold`` (separatrix CSV plus spiral diagnostics), ``compare-mr``
(Yoshida-coefficient comparison JSON), and ``validate`` (the built-in
invariant suite).

Exit codes: 0 for success (including a NonIntegrable certificate), 1 for
usage and IO errors, 2 for domain or numeric errors, and 3 for an
Inconclusive certificate, so shell loops can branch on the verdict without
parsing JSON.  Structured output is JSON with floats at 17 significant
digits; trajectories are CSV.  There is no environment-variable
configuration: everything observable comes from flags and files, and
repeated runs are bit-identical.
"""
from __future__ import annotations

import argparse
import functools
import io
import json
import math
import sys
from dataclasses import replace
from typing import Sequence

from .certify import CertifyOptions, certify, sweep_threshold
from .critical import find_critical_points
from .errors import (
    DomainViolationError,
    McGeheeError,
    ParseError,
    SpecError,
    UnboundParameterError,
    UnknownBuiltinError,
    ZeroBetaError,
    ZeroPotentialValueError,
)
from .flow import (
    McGeheeState,
    find_equilibria,
    integrate,
    trace_invariant_manifold,
)
from .morales import check_integrability_necessary, mr_beta_minus1_member, yoshida_lambda
from .potentials import PotentialSpec, compile_potential, load_spec, spec_from_dict
from .rk import ATOL, RTOL
from .validate import run_all

__all__ = ["load_spec", "main", "run"]


class _UsageError(Exception):
    pass


_USAGE_ERRORS = (
    _UsageError,
    SpecError,
    ParseError,
    UnknownBuiltinError,
    UnboundParameterError,
    OSError,
)


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit code 1, not 2."""

    def error(self, message: str):
        raise _UsageError(f"{self.prog}: {message}")


# ------------------------------------------------------------- serialization


def dumps_17(obj) -> str:
    """JSON text with every float at 17 significant digits.

    17 digits round-trip IEEE doubles exactly, so the output is as
    reproducible as the computation itself.
    """

    def conv(x):
        if isinstance(x, bool) or x is None:
            return x
        if isinstance(x, float):
            return "\x00" + format(x, ".17g") + "\x00"
        if isinstance(x, dict):
            return {k: conv(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [conv(v) for v in x]
        return x

    # the sentinel comes out of json.dumps escaped (ensure_ascii), so strip
    # the escaped form together with the enclosing quotes
    text = json.dumps(conv(obj), indent=2)
    return text.replace('"\\u0000', "").replace('\\u0000"', "")


def _emit(text: str, path: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# ------------------------------------------------------------- flag parsing


def _parse_pair(text: str, flag: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise _UsageError(f"{flag}: expected LO:HI, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise _UsageError(f"{flag}: expected two numbers, got {text!r}") from None


def _parse_init(text: str) -> McGeheeState:
    parts = text.split(",")
    if len(parts) != 4:
        raise _UsageError(f"--init: expected r,theta,v,w, got {text!r}")
    try:
        r, theta, v, w = (float(p) for p in parts)
    except ValueError:
        raise _UsageError(f"--init: expected four numbers, got {text!r}") from None
    return McGeheeState(r, theta, v, w)


def _parse_sets(pairs: Sequence[str]) -> dict[str, float]:
    out: dict[str, float] = {}
    for pair in pairs:
        name, eq, value = pair.partition("=")
        if not eq or not name:
            raise _UsageError(f"--set: expected NAME=VALUE, got {pair!r}")
        try:
            out[name] = float(value)
        except ValueError:
            raise _UsageError(f"--set {name}: expected a number, got {value!r}") from None
    return out


def _positive(value: float | None, flag: str) -> None:
    if value is not None and not (value > 0.0):
        raise _UsageError(f"{flag}: must be positive, got {value}")


def _build_spec(args: argparse.Namespace) -> PotentialSpec:
    overrides = _parse_sets(args.set)
    if args.file is not None:
        spec = load_spec(args.file)
        return spec.with_params(**overrides) if overrides else spec
    raw: dict = {}
    if args.builtin is not None:
        raw["builtin"] = args.builtin
    else:
        raw["expr"] = args.expr
    if args.beta is not None:
        raw["beta"] = args.beta
    if overrides:
        raw["params"] = overrides
    if getattr(args, "domain", None) is not None:
        raw["domain"] = list(_parse_pair(args.domain, "--domain"))
    return spec_from_dict(raw)


# ------------------------------------------------------------- subcommands


def _cmd_certify(args: argparse.Namespace) -> int:
    _positive(args.strictness_tol, "--strictness-tol")
    opts = CertifyOptions(allow_sign_flip=args.allow_sign_flip)
    if args.strictness_tol is not None:
        opts = replace(opts, strictness_tol=args.strictness_tol)
    if args.grid_n is not None:
        if args.grid_n <= 0:
            raise _UsageError("--grid-n: must be positive")
        opts = replace(opts, grid_n=args.grid_n)
    pot = compile_potential(_build_spec(args))
    cert = certify(pot, opts)
    _emit(dumps_17(cert.to_dict()), args.output)
    return 0 if cert.conclusion == "NonIntegrable" else 3


def _cmd_sweep(args: argparse.Namespace) -> int:
    _positive(args.thresh_tol, "--thresh-tol")
    if args.grid_m < 2:
        raise _UsageError("--grid-m: need at least 2 samples")
    lo, hi = _parse_pair(args.range, "--range")
    spec = _build_spec(args)
    if args.param not in (spec.params or {}):
        # seed the swept parameter (each sample overwrites it); compiling
        # here fails fast when the family does not accept it at all
        spec = spec.with_params(**{args.param: 0.5 * (lo + hi)})
        compile_potential(spec)
    res = sweep_threshold(
        spec,
        args.param,
        lo,
        hi,
        grid_m=args.grid_m,
        thresh_tol=args.thresh_tol,
        opts=CertifyOptions(allow_sign_flip=args.allow_sign_flip),
    )
    _emit(dumps_17(res.to_dict()), args.output)
    return 0


def _cmd_equilibria(args: argparse.Namespace) -> int:
    spec = _build_spec(args)
    pot = compile_potential(spec)
    skipped = [
        {
            "theta_c": cp.theta,
            "reason": f"V(theta_c) = {cp.value:.6g} >= 0: no rest point over this angle",
        }
        for cp in find_critical_points(pot)
        if cp.value >= 0.0
    ]
    report = {
        "beta": pot.beta,
        "potential": spec.to_dict(),
        "equilibria": [eq.to_dict() for eq in find_equilibria(pot)],
        "skipped": skipped,
    }
    _emit(dumps_17(report), args.output)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    _positive(args.rtol, "--rtol")
    _positive(args.atol, "--atol")
    state = _parse_init(args.init)
    tau0, tau1 = _parse_pair(args.tau_span, "--tau-span")
    pot = compile_potential(_build_spec(args))
    traj = integrate(state, pot, (tau0, tau1), rtol=args.rtol, atol=args.atol)
    buf = io.StringIO()
    traj.write_csv(buf)
    _emit(buf.getvalue(), args.output)
    print(f"# stopped: {traj.reason} after {len(traj)} accepted steps", file=sys.stderr)
    return 0


def _cmd_manifold(args: argparse.Namespace) -> int:
    _positive(args.offset, "--offset")
    _positive(args.max_tau, "--max-tau")
    pot = compile_potential(_build_spec(args))
    eqs = [eq for eq in find_equilibria(pot) if eq.sign == args.sign]
    if not eqs:
        raise DomainViolationError("the potential has no rest points with that sign")

    def angular_gap(eq):
        d = eq.theta_c - args.from_theta
        return abs(math.remainder(d, 2.0 * math.pi) if pot.domain.periodic else d)

    eq = min(eqs, key=angular_gap)
    if angular_gap(eq) > 1e-3:
        raise DomainViolationError(
            f"no critical angle within 1e-3 of --from {args.from_theta} "
            f"(nearest: {eq.theta_c:.12g})"
        )
    traj = trace_invariant_manifold(
        eq,
        pot,
        (args.branch, args.branch_dir),
        offset=args.offset,
        max_tau=args.max_tau,
    )
    buf = io.StringIO()
    traj.write_csv(buf)
    _emit(buf.getvalue(), args.output)
    diag = dumps_17(traj.spiral.to_dict())
    if args.output is None or args.output == "-":
        print(diag, file=sys.stderr)
    else:
        print(diag)
    return 0


def _cmd_compare_mr(args: argparse.Namespace) -> int:
    spec = _build_spec(args)
    pot = compile_potential(spec)
    if pot.beta == 0.0:
        raise ZeroBetaError("beta = 0: Yoshida coefficients are undefined")
    points = []
    for cp in find_critical_points(pot):
        try:
            c = yoshida_lambda(pot, cp.theta)
        except ZeroPotentialValueError as err:
            points.append({"theta_c": cp.theta, "skipped": str(err)})
            continue
        ineq = check_integrability_necessary(c.lam, pot.beta)
        row: dict = {
            "theta_c": c.theta_c,
            "lambda": c.lam,
            "trivial_coefficient": c.trivial,
            "necessary_inequality": {
                "satisfied": ineq.satisfied,
                "margin": ineq.margin,
            },
        }
        if c.darboux_scale is not None:
            row["darboux_scale"] = c.darboux_scale
        if pot.beta == -1.0:
            row["mr_beta_minus1_member"] = mr_beta_minus1_member(c.lam)
        points.append(row)
    _emit(dumps_17({"beta": pot.beta, "potential": spec.to_dict(), "points": points}),
          args.output)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    results = run_all(seed=args.seed)
    for res in results:
        print(res.line())
    return 0 if all(r.passed for r in results) else 2


# ------------------------------------------------------------- entry points


def _add_potential_flags(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--builtin", metavar="NAME",
                       help="builtin potential family (isosceles, yoshida_g, yoshida_h)")
    group.add_argument("--file", metavar="PATH", help="JSON potential spec file")
    group.add_argument("--expr", metavar="SRC",
                       help="inline expression for V(theta); requires --beta")
    sub.add_argument("--beta", type=float, default=None,
                     help="homogeneity degree (required with --expr)")
    sub.add_argument("--set", action="append", default=[], metavar="NAME=VALUE",
                     help="set or override a potential parameter (repeatable)")
    sub.add_argument("--domain", default=None, metavar="LO:HI",
                     help="open angular domain for --expr (default: periodic circle)")
    sub.add_argument("--output", default=None, metavar="PATH",
                     help="write the result here instead of stdout")


# one per process: parse_args leaves it as it was (append copies its default)
@functools.lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    parser = _Parser(prog="mcgehee",
                     description="Non-integrability certificates and blown-up "
                                 "flow for planar homogeneous-potential systems.")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("certify", help="check the six assumptions, print a certificate")
    _add_potential_flags(p)
    p.add_argument("--allow-sign-flip", action="store_true",
                   help="if V > 0 over a candidate triple, also try -V (complexified)")
    p.add_argument("--strictness-tol", type=float, default=None,
                   help="margin below which the verdict stays Inconclusive")
    p.add_argument("--grid-n", type=int, default=None, help="critical-point scan resolution")
    p.set_defaults(func=_cmd_certify)

    p = subs.add_parser("sweep", help="locate certificate-conclusion thresholds along a parameter")
    _add_potential_flags(p)
    p.add_argument("--param", required=True, help="parameter name to sweep")
    p.add_argument("--range", required=True, metavar="LO:HI", help="sweep interval")
    p.add_argument("--grid-m", type=int, default=200, help="number of grid samples")
    p.add_argument("--thresh-tol", type=float, default=1e-9,
                   help="width of the returned threshold bracket")
    p.add_argument("--allow-sign-flip", action="store_true")
    p.set_defaults(func=_cmd_sweep)

    p = subs.add_parser("equilibria", help="report the rest points D+/D- with eigen-data")
    _add_potential_flags(p)
    p.set_defaults(func=_cmd_equilibria)

    p = subs.add_parser("simulate", help="integrate the blown-up flow, print trajectory CSV")
    _add_potential_flags(p)
    p.add_argument("--init", required=True, metavar="R,THETA,V,W", help="initial state")
    p.add_argument("--tau-span", required=True, metavar="A:B", help="integration span in tau")
    p.add_argument("--rtol", type=float, default=RTOL)
    p.add_argument("--atol", type=float, default=ATOL)
    p.set_defaults(func=_cmd_simulate)

    p = subs.add_parser("manifold", help="trace a separatrix on M, print CSV and spiral diagnostics")
    _add_potential_flags(p)
    p.add_argument("--from", dest="from_theta", type=float, required=True,
                   metavar="THETA", help="critical angle carrying the saddle")
    p.add_argument("--sign", choices=("+", "-"), default="-",
                   help="which of D+/D- to start from (default: -)")
    p.add_argument("--branch", choices=("unstable", "stable"), default="unstable")
    p.add_argument("--branch-dir", choices=("+", "-"), default="+",
                   help="which side of the eigenvector to seed")
    p.add_argument("--offset", type=float, default=1e-7, help="seed distance from the saddle")
    p.add_argument("--max-tau", type=float, default=200.0, help="tau budget for the trace")
    p.set_defaults(func=_cmd_manifold)

    p = subs.add_parser("compare-mr", help="Yoshida coefficients, necessary inequality, MR set")
    _add_potential_flags(p)
    p.set_defaults(func=_cmd_compare_mr)

    p = subs.add_parser("validate", help="run the built-in invariant suite")
    p.add_argument("--seed", type=int, default=20260401, help="seed for the random draws")
    p.set_defaults(func=_cmd_validate)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Parse ``argv`` and execute one subcommand, returning the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _USAGE_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except McGeheeError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2
    except SystemExit as exit_:  # argparse --help
        code = exit_.code
        return int(code) if isinstance(code, int) else 0


def main() -> None:
    sys.exit(run())
