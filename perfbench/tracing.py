"""Spans around the public functions of each mcgehee module.

``install`` replaces each traced function by a wrapper in every mcgehee
module that holds it, since the modules import each other's functions by
name (``certify`` and ``flow`` both import ``find_critical_points``,
``flow`` imports ``solve``, ``cli`` imports ``certify`` and
``sweep_threshold``).  Methods are wrapped on their class.  A span is
(name, start, end, parent) and stays in memory until ``write`` at the end
of the run.  The right-hand side and the projection handed to ``rk.solve``
are wrapped per call, so their calls are counted where they happen.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.amounts: list[float] = []   # points, roots, steps or bytes, per span
        self.rejected: dict[int, int] = {}   # rejected RK steps, per solve span
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.amounts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, amount=None):
        """``fn`` wrapped in a span; ``amount(args, kwargs, result)`` sizes it."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if amount is not None:
                self.amounts[idx] = amount(args, kwargs, result)
            return result

        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent,amount\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{name},{self.starts[i]!r},{self.ends[i]!r},"
                         f"{self.parents[i]},{self.amounts[i]!r}\n")


def install(tracer: Tracer):
    """Wrap the traced functions; returns a callable that unwraps them."""
    replaced = []

    def replace(owner, attr, wrapper):
        replaced.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def replace_everywhere(original, wrapper):
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("mcgehee"):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        replace(mod, attr, wrapper)

    certify, cli, critical, expr, flow, potentials, rk = (
        importlib.import_module(f"mcgehee.{name}")
        for name in ("certify", "cli", "critical", "expr", "flow", "potentials", "rk"))

    raw_V = potentials.Potential.V

    def V(self, theta):
        if isinstance(theta, np.ndarray):
            idx = tracer.open("potentials.V_array")
            tracer.amounts[idx] = theta.size
        else:
            idx = tracer.open("potentials.V_scalar")
        try:
            return raw_V(self, theta)
        finally:
            tracer.close(idx)

    replace(potentials.Potential, "V", V)
    replace(flow.Trajectory, "write_csv", tracer.span("cli.emit", flow.Trajectory.write_csv))

    raw_solve = rk.solve

    def solve(f, *args, postprocess=None, **kwargs):
        f = tracer.span("rk.rhs", f)
        if postprocess is not None:
            postprocess = tracer.span("flow.project", postprocess)
        idx = tracer.open("rk.solve")
        try:
            sol = raw_solve(f, *args, postprocess=postprocess, **kwargs)
        finally:
            tracer.close(idx)
        tracer.amounts[idx] = sol.n_accepted
        tracer.rejected[idx] = sol.n_rejected
        return sol

    replace_everywhere(raw_solve, solve)

    plain = [
        (potentials.compile_potential, "potentials.compile", None),
        (expr.parse, "expr.parse", None),
        (expr.compile_node, "expr.compile_node", None),
        (critical.find_critical_points, "critical.find", lambda a, k, r: len(r)),
        (certify.certify, "certify.certify", None),
        (certify.check_triple, "certify.check_triple", None),
        (certify.sweep_threshold, "certify.sweep_threshold", None),
        (flow.find_equilibria, "flow.find_equilibria", None),
        (flow.trace_invariant_manifold, "flow.trace", None),
        (cli.dumps_17, "cli.emit", None),
        (cli._emit, "cli.emit", lambda a, k, r: len(a[0].encode()) + (not a[0].endswith("\n"))),
    ]
    for fn, name, amount in plain:
        replace_everywhere(fn, tracer.span(name, fn, amount))

    def uninstall():
        for owner, attr, original in reversed(replaced):
            setattr(owner, attr, original)

    return uninstall


# ------------------------------------------------------------ metrics


def _round_metrics(tr: Tracer, lo: int, hi: int) -> dict[str, float]:
    """Per-layer metrics of the spans with indices in [lo, hi)."""
    dur = {}
    child = {}
    for i in range(lo, hi):
        d = tr.ends[i] - tr.starts[i]
        dur[i] = d
        p = tr.parents[i]
        if p >= lo:
            child[p] = child.get(p, 0.0) + d

    def sel(name, outermost=False):
        out = [i for i in range(lo, hi) if tr.names[i] == name]
        if outermost:
            out = [i for i in out if tr.parents[i] < 0 or tr.names[tr.parents[i]] != name]
        return out

    def total(ids):
        return sum(dur[i] for i in ids)

    def self_time(ids):
        return sum(dur[i] - child.get(i, 0.0) for i in ids)

    vs, va = sel("potentials.V_scalar"), sel("potentials.V_array")
    comp, parse = sel("potentials.compile"), sel("expr.parse")
    find, cert, triple = sel("critical.find"), sel("certify.certify"), sel("certify.check_triple")
    solve, rhs = sel("rk.solve"), sel("rk.rhs")
    eqs, proj, trace = sel("flow.find_equilibria"), sel("flow.project"), sel("flow.trace")
    emit = sel("cli.emit", outermost=True)
    steps = sum(tr.amounts[i] for i in solve)
    return {
        "potentials.V_scalar_calls": len(vs),
        "potentials.V_scalar_s": total(vs),
        "potentials.V_array_calls": len(va),
        "potentials.V_array_points": sum(tr.amounts[i] for i in va),
        "potentials.V_array_s": total(va),
        "potentials.compile_calls": len(comp),
        "potentials.compile_s": total(comp),
        "expr.parse_calls": len(parse),
        "expr.parse_s": total(parse),
        "expr.compile_node_s": total(sel("expr.compile_node", outermost=True)),
        "critical.find_calls": len(find),
        "critical.find_s": total(find),
        "critical.find_self_s": self_time(find),
        "critical.points": sum(tr.amounts[i] for i in find),
        "certify.certify_calls": len(cert),
        "certify.certify_self_s": self_time(cert),
        "certify.check_triple_calls": len(triple),
        "certify.check_triple_s": total(triple),
        "certify.sweep_evals": sum(1 for i in cert if tr.parents[i] >= 0
                                   and tr.names[tr.parents[i]] == "certify.sweep_threshold"),
        "rk.solve_calls": len(solve),
        "rk.steps_accepted": steps,
        "rk.steps_rejected": sum(tr.rejected[i] for i in solve),
        "rk.rhs_calls": len(rhs),
        "rk.rhs_s": total(rhs),
        "rk.solve_self_s": self_time(solve),
        "rk.us_per_step": 1e6 * total(solve) / steps if steps else 0.0,
        "flow.find_equilibria_calls": len(eqs),
        "flow.find_equilibria_s": total(eqs),
        "flow.project_calls": len(proj),
        "flow.project_s": total(proj),
        "flow.trace_self_s": self_time(trace),
        "cli.emit_s": total(emit),
        "cli.bytes_out": sum(tr.amounts[i] for i in sel("cli.emit") if tr.amounts[i]),
    }


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_step"):
        return "us"
    return "bytes" if name.endswith("bytes_out") else "count"


def layer_metrics(tr: Tracer, rounds: list[tuple[int, int]]) -> tuple[dict, list[str]]:
    """Median over the traced rounds of each per-round metric, and the names
    of the counts that did not repeat exactly from round to round."""
    per_round = [_round_metrics(tr, lo, hi) for lo, hi in rounds]
    out, unsteady = {}, []
    for name in per_round[0]:
        values = [m[name] for m in per_round]
        out[name] = statistics.median(values)
        if unit(name) in ("count", "bytes") and len(set(values)) > 1:
            unsteady.append(name)
    return out, unsteady
