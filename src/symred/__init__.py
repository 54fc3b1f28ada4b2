"""symred: a numerical toolkit for symplectic reduction in explicit charts.

The package represents symplectic-Riemannian structures, abelian group
actions and momentum maps as evaluable fields over a single coordinate
chart, and verifies the defining identities of the reduction pipeline to
stated tolerances at sampled points: compatible triples, invariance of
metrics and almost complex structures, the reduced symplectic form, the
reduced metric induced through a Riemannian submersion, and the equivalence
between reduced compatibility and the almost-complex-mapping property of
the quotient projection.
"""

__version__ = "0.1.0"

from .errors import (
    ActionNotFreeError,
    DegenerateInputError,
    NonFiniteError,
    NotOnLevelError,
    NotRegularValueError,
    NotSPDError,
    NotStandardStructureError,
    OddDimensionError,
    ParseError,
    RankDeficientLiftError,
    ScenarioFormatError,
    SymredError,
    UnknownIdentifierError,
    UnknownScenarioError,
    ValidationError,
    VerticalLeakWarning,
)
from .geometry import (
    TensorField,
    eval_field,
    fd_directional,
    fd_jacobian,
    kernel_basis,
    sample_ball,
    sample_box,
)
from .structures import (
    CompatibleTriple,
    StructureCheckResult,
    build_compatible_triple,
    check_acs,
    check_closed,
    check_compatibility,
    check_metric,
    check_symplectic_pointwise,
    standard_acs,
    standard_acs_matrix,
    standard_symplectic,
    standard_symplectic_matrix,
)
from .actions import (
    GroupAction,
    MomentumMap,
    apply_flow,
    average_metric,
    check_field_invariance,
    check_isometry,
    check_momentum_invariance,
    check_symplectomorphism,
    generator,
    momentum_residual,
    planar_rotation_action,
    pushforward_table,
)
from .reduction import (
    ReducedStructures,
    ReductionScenario,
    SampleSpec,
    SplitTangentSpace,
    lift_frames,
    reduced_structures,
    split_tangent,
    verify_main_theorem,
    verify_reduction_identity,
    verify_submersion,
)
from .holomorphy import ChartedMap, almost_complex_residual, cauchy_riemann_residual
from .report import VerificationReport
from .scenarios import builtin, builtin_names, builtin_text, load_scenario_file, parse_scenario
