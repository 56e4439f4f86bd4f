"""covpkit: deciding and certifying constant objective values, exactly.

Library surface for multi-dimensional assignment problems (axial, planar and
general), axial transportation, and the classic graph problems whose
constant-value instances admit closed characterizations.  All arithmetic is
exact rational; every verdict is either certified or refuted by an explicit
pair of feasible solutions.
"""

from .covp import (
    ConjectureReport,
    ConstantValueOrders,
    CovpVerdict,
    DetSequence,
    IncidenceMatrix,
    OrderRefutation,
    build_incidence,
    build_Md,
    build_M_prime,
    build_reduced,
    conjecture_experiment,
    constant_value_orders,
    counterexample_array,
    covp_check_axial_fast,
    covp_check_bruteforce,
    covp_check_planar_p2,
    covp_space_dimension,
    det_sequence,
    verify_rank_Md,
)
from .errors import BudgetExceeded, InputError, SizeLimitError
from .exact import (
    CostTensor,
    ExactMatrix,
    LinearSystemResult,
    Scalar,
    determinant,
    flatten_index,
    parse_rational,
    rank,
    solve_linear,
    unflatten_index,
)
from .feasible import (
    EnumerationResult,
    FeasibleSolution,
    SearchBudget,
    enumerate_axial,
    enumerate_general,
    enumerate_mols,
    enumerate_planar,
    is_feasible_solution,
    iter_solutions,
    objective,
)
from .graphs import (
    GraphReport,
    WeightedGraph,
    brute_force_oracle,
    certificate_reconstructs,
    cycle_components,
    matching_covp,
    mst_covp,
    sp_directed_covp,
    sp_undirected_covp,
    tsp_covp,
    weighted_graph,
)
from .savs import (
    ConstructiveResult,
    DecomposeResult,
    Decomposition,
    decompose,
    decompose_axial_constructive,
    decompose_planar_constructive,
    project,
    reconstruct,
    savs_dimension,
    savs_generator_matrix,
)
from .transform import (
    AdmissibleTransformation,
    ApplyResult,
    AxialReduction,
    TransportInstance,
    apply_transformation,
    axial_reduction,
    blow_up,
    certify_optimal,
    covp_check_axial_tp,
    enumerate_transport_plans,
    transport_covp_bruteforce,
)

# The elimination kernels are pure Python; reports record this name.
KERNEL_BACKEND = "pure"

__version__ = "0.1.0"
