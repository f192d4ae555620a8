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
"""
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
from .flow import (
    CartesianTrajectory,
    Equilibrium,
    Linearization,
    ManifoldState,
    McGeheeState,
    SpiralDiagnostics,
    Trajectory,
    cartesian_vector_field,
    check_beta_minus2_integral,
    energy,
    find_equilibria,
    from_mcgehee,
    integrate,
    integrate_cartesian,
    integrate_manifold,
    linearize,
    sample_at_physical_times,
    to_mcgehee,
    trace_invariant_manifold,
    vector_field,
)
from .morales import (
    NecessaryInequality,
    YoshidaCoefficient,
    check_integrability_necessary,
    darboux_from_critical,
    hessian_coefficients,
    mr_beta_minus1_member,
    mr_beta_minus1_values,
    yoshida_lambda,
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

__all__ = [
    "AssumptionReport",
    "BetaTwoScaleDegenerateError",
    "CartesianTrajectory",
    "Certificate",
    "CertifyOptions",
    "CriticalPoint",
    "DegeneratePotentialError",
    "Domain",
    "DomainError",
    "DomainViolationError",
    "Equilibrium",
    "Jet2",
    "LeftDomainError",
    "Linearization",
    "ManifoldState",
    "McGeheeError",
    "McGeheeState",
    "NecessaryInequality",
    "NotCriticalPointError",
    "NotSaddleError",
    "OriginSingularityError",
    "ParseError",
    "PoleEncounteredError",
    "Potential",
    "PotentialSpec",
    "SpecError",
    "SpiralDiagnostics",
    "StepUnderflowError",
    "SweepResult",
    "Trajectory",
    "UnboundParameterError",
    "UnknownBuiltinError",
    "UnknownFunctionError",
    "YoshidaCoefficient",
    "ZeroBetaError",
    "ZeroPotentialValueError",
    "cartesian_vector_field",
    "certify",
    "check_beta_minus2_integral",
    "check_integrability_necessary",
    "check_triple",
    "compile_potential",
    "darboux_from_critical",
    "energy",
    "find_critical_points",
    "find_equilibria",
    "from_mcgehee",
    "hessian_coefficients",
    "integrate",
    "integrate_cartesian",
    "integrate_manifold",
    "linearize",
    "mr_beta_minus1_member",
    "mr_beta_minus1_values",
    "sample_at_physical_times",
    "spec_from_dict",
    "sweep_threshold",
    "to_mcgehee",
    "trace_invariant_manifold",
    "vector_field",
    "yoshida_lambda",
]
