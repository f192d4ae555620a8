"""Non-integrability certificates and McGehee blow-up dynamics for planar
Hamiltonian systems with real-degree homogeneous potentials.

The package splits into a certificate side and a dynamics side.  On the
certificate side, :func:`certify` mechanically checks six assumptions on a
triple of critical angles of V and returns a signed margin for each;
:func:`sweep_threshold` locates where the verdict flips along a parameter
family.  On the dynamics side, :func:`integrate` runs the blown-up
(r, theta, v, w) flow, :func:`integrate_manifold` the collision-manifold
subsystem, and :func:`trace_invariant_manifold` follows saddle separatrices
and measures how they spiral into the focus rest points -- the mechanism
the certificate's curvature condition detects.  :mod:`mcgehee.morales`
relates the same curvature data to Darboux points and the Morales-Ramis
coefficient set, and :func:`mcgehee.validate.run_all` cross-checks the
whole stack against independent oracles.

The names of the dynamics side, those of :mod:`mcgehee.flow` and
:mod:`mcgehee.morales`, load their module on first access, as do the
attributes ``mcgehee.flow``, ``mcgehee.morales`` and ``mcgehee.rk``, so a
program that only certifies never imports the flow, its integrator or the
Morales-Ramis side.
"""
import importlib

from .certify import (
    AssumptionReport,
    Certificate,
    CertifyOptions,
    SweepResult,
    certify,
    check_triple,
    sweep_threshold,
)
from .critical import CriticalPoint, find_critical_points
from .errors import (
    BetaTwoScaleDegenerateError,
    DegeneratePotentialError,
    DomainError,
    DomainViolationError,
    LeftDomainError,
    McGeheeError,
    NotCriticalPointError,
    NotSaddleError,
    OriginSingularityError,
    ParseError,
    PoleEncounteredError,
    SpecError,
    StepUnderflowError,
    UnboundParameterError,
    UnknownBuiltinError,
    UnknownFunctionError,
    ZeroBetaError,
    ZeroPotentialValueError,
)
from .potentials import (
    Domain,
    Jet2,
    Potential,
    PotentialSpec,
    compile_potential,
    spec_from_dict,
)

__version__ = "0.1.0"

# the dynamics side, imported on first use (PEP 562): certify and sweep run
# neither module.  The certificate side above is imported eagerly, as the
# command line loads it anyway, and so that ``certify`` is the function and
# not the submodule that importing ``mcgehee.certify`` binds on the package.
_LAZY = {
    **dict.fromkeys((
        "CartesianTrajectory", "Equilibrium", "Linearization", "ManifoldState",
        "McGeheeState", "SpiralDiagnostics", "Trajectory", "cartesian_vector_field",
        "check_beta_minus2_integral", "energy", "find_equilibria", "from_mcgehee",
        "integrate", "integrate_cartesian", "integrate_manifold", "linearize",
        "sample_at_physical_times", "to_mcgehee", "trace_invariant_manifold",
        "vector_field"), "flow"),
    **dict.fromkeys((
        "NecessaryInequality", "YoshidaCoefficient", "check_integrability_necessary",
        "darboux_from_critical", "hessian_coefficients", "mr_beta_minus1_member",
        "mr_beta_minus1_values", "yoshida_lambda"), "morales"),
}
# the dynamics modules themselves, attributes of the package once imported
_LAZY_MODULES = ("flow", "morales", "rk")


def __getattr__(name: str):
    if name in _LAZY_MODULES:
        return importlib.import_module(f".{name}", __name__)
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_LAZY_MODULES})


__all__ = [
    "AssumptionReport", "BetaTwoScaleDegenerateError", "Certificate", "CertifyOptions",
    "CriticalPoint", "DegeneratePotentialError", "Domain", "DomainError",
    "DomainViolationError", "Jet2", "LeftDomainError", "McGeheeError",
    "NotCriticalPointError", "NotSaddleError", "OriginSingularityError", "ParseError",
    "PoleEncounteredError", "Potential", "PotentialSpec", "SpecError",
    "StepUnderflowError", "SweepResult", "UnboundParameterError",
    "UnknownBuiltinError", "UnknownFunctionError", "ZeroBetaError",
    "ZeroPotentialValueError", "certify", "check_triple", "compile_potential",
    "find_critical_points", "spec_from_dict", "sweep_threshold",
    *_LAZY,
]
