"""What the package and each subcommand import.

A certificate never runs the flow, its integrator, the Morales-Ramis side
or the validation suite, so ``certify`` and ``sweep`` do not import them,
and the package loads the names of the dynamics side on first access.
Each check runs in a fresh interpreter: the test process has imported
every module already.
"""
import os
import subprocess
import sys
import textwrap

import mcgehee

SRC = os.path.dirname(os.path.dirname(mcgehee.__file__))
DYNAMICS = ("mcgehee.flow", "mcgehee.morales", "mcgehee.rk", "mcgehee.validate")


def python(code: str) -> list[str]:
    """The lines ``code`` prints in a fresh interpreter importing this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout.splitlines()


def test_certify_and_sweep_import_no_dynamics_and_simulate_imports_the_flow():
    lines = python(f"""
        import contextlib, io, sys
        from mcgehee import cli

        def run(*argv):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                print(cli.run(list(argv)), file=sys.__stdout__)
            print([m for m in {DYNAMICS!r} if m in sys.modules])

        run("certify", "--expr", "-2 + 0.25*cos(3*theta)", "--beta", "-1")
        run("sweep", "--builtin", "isosceles", "--param", "alpha", "--range", "0.5:3",
            "--grid-m", "8")
        run("simulate", "--builtin", "yoshida_g", "--set", "epsilon=4",
            "--init", "1.0,0.3,0.1,0.2", "--tau-span", "0:1")
    """)
    assert lines == ["0", "[]", "0", "[]", "0", "['mcgehee.flow', 'mcgehee.rk']"]


def test_every_package_name_resolves_and_certify_is_the_function():
    lines = python("""
        import sys
        namespace = {}
        exec("from mcgehee import *", namespace)
        import mcgehee
        from mcgehee import certify
        print(sorted(set(namespace) - {"__builtins__"}) == sorted(mcgehee.__all__))
        print(certify.__module__, certify.__name__, callable(certify))
        print("__all__" in dir(mcgehee), set(mcgehee.__all__) <= set(dir(mcgehee)))
        print(all(namespace[n] is getattr(mcgehee, n) for n in mcgehee.__all__))
        print(mcgehee.integrate is sys.modules["mcgehee.flow"].integrate,
              hasattr(mcgehee, "no_such_name"))
    """)
    assert lines == ["True", "mcgehee.certify certify True", "True True", "True", "True False"]


def test_importing_the_package_defers_the_dynamics_side():
    lines = python(f"""
        import sys
        import mcgehee
        print([m for m in {DYNAMICS!r} if m in sys.modules])
        mcgehee.yoshida_lambda
        print([m for m in {DYNAMICS!r} if m in sys.modules])
        print(mcgehee.rk is sys.modules["mcgehee.rk"], "flow" in dir(mcgehee))
        print(mcgehee.flow.integrate is mcgehee.integrate, mcgehee.morales.yoshida_lambda
              is mcgehee.yoshida_lambda, hasattr(mcgehee, "validate"))
    """)
    assert lines == ["[]", "['mcgehee.morales']", "True True", "True True False"]
