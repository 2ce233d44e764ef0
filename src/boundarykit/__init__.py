"""boundarykit — boundary connectivity in graph pairs, with verification.

The package studies subsets of a graph ``G`` whose adjacency may be refined
by a denser companion ``G⁺`` on the same vertices: it computes the exterior
boundary of a subset, the part of it visible from an observer vertex, and
the outer-visible refinement; provides a GF(2) cycle-space toolkit with a
constructive cutset-crossing-cycle witness; and ships a harness that checks
boundary-connectivity statements exhaustively or randomly on lattice boxes.
"""

from .boundary import (BoundaryReport, full_report, outer_boundary,
                       outer_visible_boundary, report_to_json, visible_boundary)
from .cyclespace import (CycleGen, EdgeVector, crossing_cycle_witness,
                         cycle_space_rank, decompose, fundamental_basis,
                         is_generating)
from .errors import InputError, NotInSpanError
from .graphs import (Graph, GraphPair, component_of, count_components,
                     is_cutset, is_minimal_cutset, set_components,
                     shortest_path, vertexset_from_json, vertexset_to_json)
from .harness import (TrialConfig, VerifyReport, check_dp_hypotheses,
                      check_k_hypotheses, enumerate_connected_subsets,
                      hypothesis_report, random_connected_graph,
                      run_verification, sample_connected_subset)
from .lattice import (BoxSpec, box_shell, build_box, build_box_pair,
                      extra_edge_patches, four_cycle_gen, margin_interior,
                      parse_box_spec, with_apex)

__version__ = "0.1.0"

__all__ = [
    "BoundaryReport", "BoxSpec", "CycleGen", "EdgeVector", "Graph",
    "GraphPair", "InputError", "NotInSpanError", "TrialConfig",
    "VerifyReport", "box_shell", "build_box", "build_box_pair",
    "check_dp_hypotheses", "check_k_hypotheses", "component_of",
    "count_components", "crossing_cycle_witness", "cycle_space_rank",
    "decompose", "enumerate_connected_subsets", "extra_edge_patches",
    "four_cycle_gen", "full_report", "fundamental_basis",
    "hypothesis_report", "is_cutset", "is_generating", "is_minimal_cutset",
    "margin_interior", "outer_boundary", "outer_visible_boundary",
    "parse_box_spec", "random_connected_graph", "report_to_json",
    "run_verification", "sample_connected_subset", "set_components",
    "shortest_path", "vertexset_from_json", "vertexset_to_json",
    "visible_boundary", "with_apex", "__version__",
]
