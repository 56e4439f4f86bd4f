"""The function names an outside tracer wraps stay reachable at their homes.

A tracer that imports ``covpkit`` and ``covpkit.cli`` finds each layer by
module name and function name, and patches every module attribute that is
the original function.  Moving or renaming one of these silently drops that
layer from the trace, so the list below is kept by hand.
"""

import sys

import covpkit
import covpkit.cli  # noqa: F401  (registers the cli module as a tracer would)

TRACED = {
    "covpkit._kernels": ["echelon", "det_bareiss"],
    "covpkit.exact": ["rank", "solve_linear", "determinant"],
    "covpkit.feasible": [
        "enumerate_general", "enumerate_axial", "enumerate_planar", "enumerate_mols",
        "objective",
    ],
    "covpkit.savs": ["decompose", "savs_dimension"],
    "covpkit.covp": [
        "covp_check_axial_fast", "covp_check_planar_p2", "covp_check_bruteforce",
        "covp_space_dimension", "conjecture_experiment", "verify_rank_Md",
    ],
    "covpkit.transform": ["covp_check_axial_tp", "axial_reduction"],
    "covpkit.graphs": [
        "mst_covp", "sp_undirected_covp", "sp_directed_covp", "matching_covp", "tsp_covp",
    ],
    "covpkit.jsonio": [
        "load_file", "loads_strict", "tensor_from_obj", "graph_from_obj",
        "transport_from_obj", "tensor_to_obj", "decomposition_to_obj", "graph_to_obj",
        "solutions_to_obj",
    ],
    "covpkit.cli": ["_emit", "main"],
}


def test_traced_names_reachable():
    missing = [
        f"{home}.{name}"
        for home, names in TRACED.items()
        for name in names
        if not callable(getattr(sys.modules.get(home), name, None))
    ]
    assert missing == []


def test_exact_binds_the_kernels_themselves():
    # the tracer patches by identity, so exact's bindings must be the
    # kernel module's own function objects
    kernels = sys.modules["covpkit._kernels"]
    assert covpkit.exact.echelon is kernels.echelon
    assert covpkit.exact.det_bareiss is kernels.det_bareiss
