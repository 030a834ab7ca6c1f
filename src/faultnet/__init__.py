"""faultnet: network design under non-uniform fault models at desk scale."""

from .bulk import (
    sample_tree,
    solve_bulk_sndp,
    solve_flex_sndp,
    solve_rsndp,
)
from .cover import primal_dual_cover, ring_cover_exact
from .exact import exact_solve
from .flexalg import solve_fgc, solve_flex_st, solve_flex_st_22
from .flow import Flow, flow_decompose, min_cost_flow
from .graph import FaultGraph, VertexCut, boundary, connected_components, same_component
from .instances import InstanceFile, generate, parse, serialize
from .gap import gap_experiment
from .lp import separate_bulk, separate_flex
from .trace import count, recording
from .oracles import (
    BulkScenario,
    FlexRequirement,
    Problem,
    RelativeRequirement,
    expand_rsndp_to_bulk,
    fgc_requirements,
    is_bulk_feasible,
    is_flex_feasible,
    is_rsndp_feasible,
    violated_cuts_flex_aug,
    violating_edge_sets_bulk,
)

__all__ = [
    "FaultGraph",
    "VertexCut",
    "boundary",
    "connected_components",
    "same_component",
    "Flow",
    "min_cost_flow",
    "flow_decompose",
    "FlexRequirement",
    "BulkScenario",
    "RelativeRequirement",
    "Problem",
    "fgc_requirements",
    "is_flex_feasible",
    "is_bulk_feasible",
    "is_rsndp_feasible",
    "violated_cuts_flex_aug",
    "violating_edge_sets_bulk",
    "expand_rsndp_to_bulk",
    "primal_dual_cover",
    "ring_cover_exact",
    "solve_fgc",
    "solve_flex_st",
    "solve_flex_st_22",
    "solve_bulk_sndp",
    "solve_flex_sndp",
    "solve_rsndp",
    "sample_tree",
    "exact_solve",
    "separate_flex",
    "separate_bulk",
    "gap_experiment",
    "InstanceFile",
    "generate",
    "parse",
    "serialize",
    "count",
    "recording",
]

__version__ = "0.1.0"
