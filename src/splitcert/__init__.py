"""splitcert: validated numerics for certifying transversal manifold splitting.

The package builds up from outward-rounded interval arithmetic to an
end-to-end, computer-assisted verification that perturbed stable and
unstable manifolds intersect transversally for an explicit parameter range,
including the full pipeline for the Lerman-Umanskii vector field.
"""

from .intervals import Interval, IntervalBox, IntervalError
from .matrices import (
    IntervalMatrix,
    LinalgError,
    imat_apply,
    imat_mul,
    spectral_norm_ub,
    sigma_min_lb,
    ivec_norm_ub,
    ilinsolve,
    imatsolve,
    iinverse,
)
from .jets import Jet1Enclosure, Jet2Enclosure, jet1_compose, jet2_compose, jet2_stack
from .polys import PolyMap, VectorFieldDef
from .newton import FunctionOracle, NewtonCertificate, newton_step, newton_verify
from .implicit import (
    GOracle,
    ImplicitEnclosure,
    ImplicitContractionError,
    implicit_enclose,
    implicit_first,
    implicit_jet,
    implicit_mixed_second,
)
from .flow import (
    FlowError,
    FlowSettings,
    rough_enclosure,
    taylor_coeffs,
    flow_jet,
    point_flow,
    point_flow_jet,
)
from .distance import (
    ConditionError,
    ManifoldOracle,
    DistanceOracle,
    distance_fixed_point,
    distance_nhim_section,
    distance_unequal,
)
from .degree import (
    SplittingProblem,
    MelnikovCertificate,
    BoundaryExclusionCertificate,
    assemble_lemma_data,
    verify_practical,
    verify_transversal,
    verify_boundary_exclusion,
)
from .lerman import (
    LUConfig,
    ManifoldGraphEnclosure,
    lu_field,
    integrals_HK,
    chart_psi,
    chart_V,
    make_local_graph,
    global_manifold,
    build_distance_oracle,
    run_theorem_proof,
    locate_homoclinic,
    midpoint_mixed_second,
    sample_manifold,
    local_enclosure_boxes,
)

__version__ = "0.1.0"
