"""Spectral toolkit for the periodic two-component Hunter-Saxton system.

Closed-form characteristic solvers, the square-root-density isometry onto
an infinite-dimensional pseudosphere, curvature of the underlying groups,
the global weak flow for admissible timelike data, and a method-of-lines
oracle for cross-checking everything.
"""

from .data import (
    DEFAULT_N,
    Classification,
    InitialData,
    PRESETS,
    SolutionClass,
    casimir,
    classify,
    normalize,
    preset,
    scenario_from_dict,
    scenario_from_file,
)
from .engine import (
    LagrangianFields,
    blowup_time,
    blowup_time_bisect,
    compose_with_inverse,
    eulerian_fields,
    eulerian_solution,
    factor,
    factor_root_times,
    is_global,
    lagrangian_fields,
    riccati,
    singular_time_literal,
)
from .errors import (
    BlowupReached,
    DegeneratePlane,
    HsError,
    NonZeroMean,
    NotAdmissible,
    NotInU,
    NotInvertible,
    Singular,
    StepUnstable,
)
from .findim import (
    FinPoint,
    FinTangent,
    boost_point,
    boost_tangent,
    fin_metric,
    fin_omega,
    j_action,
    plane_scan,
    quotient_sec,
    split,
    standard_base,
    vertical_field,
)
from .geometry import (
    KTangent,
    TangentPair,
    arnold_curvature,
    b_operator,
    bracket,
    christoffel,
    j_tensor,
    k_curvature,
    metric_G,
    metric_K,
    nijenhuis,
    omega_form,
)
from .grid import (
    Grid,
    GridFunction,
    a_inverse,
    antiderivative_from_zero,
    derivative,
    integrate,
    mean_zero_project,
    read_csv,
    write_csv,
    write_table,
    write_text,
)
from .oracle import OracleConfig, compare, evolve, rhs
from .sphere import (
    GroupElement,
    SpherePoint,
    boundary_hit_time,
    canonical_representative,
    gauge_parameter,
    geodesic,
    geodesic_gap,
    geodesic_velocity,
    lorentz,
    pairing,
    phi_iso,
    phi_iso_inverse,
    tangent_map,
)
from .weak import (
    AdmissibilityReport,
    WeakState,
    admissibility,
    energy,
    flow_state,
    geodesic_residual,
    lagrangian_snapshot,
    weak_residual,
    weak_solution,
    weak_state,
)

__version__ = "0.1.0"
