"""The benchmark's tracer (perfbench/tracing.py) wraps package functions by
name, so renaming one breaks ``perfbench/run.py --trace 1``.  One traced
certify shows that the layers it reports are still reachable."""
import importlib.util
import pathlib

import pytest

from mcgehee import cli, potentials, rk
from mcgehee.critical import _SCAN_GRID


def load_tracing():
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_sees_each_layer(capsys):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    raw_V = potentials.Potential.V
    uninstall = tracing.install(tracer)
    try:
        rc = cli.run(["certify", "--expr", "-2 + 0.25*cos(3*theta) + 0.0625*sin(theta + 0.5)",
                      "--beta", "-1"])
    finally:
        uninstall()
    capsys.readouterr()
    assert rc in (0, 3)
    for name in ("expr.compile_node", "potentials.V_scalar", "potentials.V_array",
                 "critical.find"):
        assert name in tracer.names, name
    assert potentials.Potential.V is raw_V


def test_benchmark_tracer_sees_the_flow_layers(capsys):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        rc = cli.run(["manifold", "--builtin", "yoshida_g", "--set", "epsilon=4",
                      "--from=0.0", "--sign", "-", "--branch", "unstable",
                      "--branch-dir", "+", "--max-tau", "5"])
    finally:
        uninstall()
    capsys.readouterr()
    assert rc == 0
    metrics = tracing._round_metrics(tracer, 0, len(tracer.names))
    for name in ("rk.solve", "rk.rhs", "flow.project", "cli.emit"):
        assert name in tracer.names, name
    assert metrics["rk.steps_accepted"] > 0 and metrics["cli.bytes_out"] > 0
    # a call per stage past the first on each attempt; the projection
    # returns the derivative at its result
    stages = len(rk._C)
    assert stages - 1 <= metrics["rk.rhs_calls"] / metrics["rk.steps_accepted"] <= stages + 1
    assert metrics["rk.us_per_step"] > 0.0
    # the subcommand and the trace both ask for the critical points; the
    # second call reads the stored scan
    assert metrics["critical.find_calls"] == 2
    grids = [i for i, name in enumerate(tracer.names)
             if name == "potentials.V_array" and tracer.amounts[i] == _SCAN_GRID]
    assert len(grids) == 1


@pytest.mark.parametrize("argv", [
    ["simulate", "--builtin", "yoshida_g", "--set", "epsilon=4",
     "--init", "1.0,0.3,0.1,0.2", "--tau-span", "0:5"],
    ["manifold", "--builtin", "yoshida_g", "--set", "epsilon=4", "--from=0.0", "--sign", "-",
     "--branch", "unstable", "--branch-dir", "+", "--max-tau", "5"],
], ids=["simulate", "manifold"])
def test_benchmark_tracer_sees_every_stage(argv, capsys):
    # each solve calls f for its first derivative and its first-step
    # estimate, then once per stage past the first on every attempt, and
    # once at the new state of each accepted step unless, as on the
    # manifold run, the projection returns f there
    at_new_state = 0 if argv[0] == "manifold" else 1
    tracing = load_tracing()
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        rc = cli.run(argv)
    finally:
        uninstall()
    capsys.readouterr()
    assert rc == 0
    m = tracing._round_metrics(tracer, 0, len(tracer.names))
    assert m["rk.solve_calls"] == 1 and m["rk.steps_accepted"] > 0
    assert m["rk.rhs_calls"] == (2 * m["rk.solve_calls"]
                                 + (len(rk._C) - 1) * (m["rk.steps_accepted"]
                                                              + m["rk.steps_rejected"])
                                 + at_new_state * m["rk.steps_accepted"])
    if argv[0] == "manifold":
        assert m["flow.project_calls"] == m["rk.steps_accepted"]
