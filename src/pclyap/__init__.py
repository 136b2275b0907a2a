"""Path-complete Lyapunov graphs and copositive-norm JSR bounds."""

from . import serialize
from .copositive import (
    Certificate,
    MatrixSet,
    TransportError,
    VerificationReport,
    dual_eval,
    primal_eval,
    transport_certificate,
    vee,
    verify_certificate,
)
from .feasibility import RhoBound, feasible, rho_bound
from .graphs import (
    LabeledGraph,
    NodeId,
    SimulationMap,
    check_assumption_minimal,
    common_lyapunov_graph,
    completeness_flags,
    find_simulation,
    induced_subgraph,
    is_path_complete,
    make_graph,
    parse_node_id,
    path_complete_components,
    strongly_connected_components,
    transpose,
)
from .jsr import (
    HierarchyReport,
    HierarchyStep,
    brute_force_bounds,
    hierarchy,
    spectral_radius,
)
from .lifts import (
    backward_composition_lift,
    composition_lift,
    de_bruijn,
    max_lift,
    min_lift,
    sum_lift,
)
from .simplex import SimplexIterationLimit

__version__ = "0.1.0"

__all__ = [
    "Certificate", "MatrixSet", "TransportError", "VerificationReport",
    "dual_eval", "primal_eval", "transport_certificate", "vee",
    "verify_certificate", "RhoBound", "feasible", "rho_bound", "LabeledGraph",
    "NodeId", "SimulationMap", "check_assumption_minimal",
    "common_lyapunov_graph", "completeness_flags", "find_simulation",
    "induced_subgraph", "is_path_complete", "make_graph", "parse_node_id",
    "path_complete_components", "strongly_connected_components", "transpose",
    "HierarchyReport", "HierarchyStep", "brute_force_bounds",
    "hierarchy", "spectral_radius",
    "backward_composition_lift", "composition_lift", "de_bruijn", "max_lift",
    "min_lift", "sum_lift", "SimplexIterationLimit", "serialize",
]
