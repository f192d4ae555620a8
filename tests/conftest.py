import functools
import importlib.util
import math
import pathlib
import sys

import pytest

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def fd2(f, x, h=1e-5):
    """Central finite differences: (f, f', f'') of a scalar callable at x.

    Used as the independent oracle for everything the jets claim to compute.
    """
    fp, fm, f0 = f(x + h), f(x - h), f(x)
    return f0, (fp - fm) / (2.0 * h), (fp - 2.0 * f0 + fm) / (h * h)


@pytest.fixture
def fd():
    return fd2


def close(a, b, tol=1e-9):
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


@functools.cache
def load_workloads():
    """The benchmark's ``perfbench/workloads.py``, loaded once per session."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module
