"""The benchmark's tracer (perfbench/tracing.py) wraps package functions by
name, so renaming one breaks ``perfbench/run.py --trace 1``.  One traced
certify shows that the layers it reports are still reachable."""
import importlib.util
import pathlib

from mcgehee import cli, potentials


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
