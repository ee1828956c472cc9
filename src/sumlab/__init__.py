"""sumlab: exact small-graph laboratory for sum/difference indices, sum
numbers, exclusive sum labellings, and the bound/conjecture machinery
around them."""

from .graphs import (
    Graph,
    GraphError,
    Graph6Error,
    EdgeListError,
    UnsupportedSizeError,
    DegreeSequence,
    canonical_form,
    complete_graph,
    count_cycles_of_length,
    cycle_graph,
    degree_sequence,
    emit_graph6,
    enumerate_connected,
    girth,
    is_bipartite,
    is_connected,
    parse_edge_list,
    parse_graph6,
    path_graph,
)
from .labelling import (
    Certificate,
    CertificateVerdict,
    EdgeLabelling,
    LabelKind,
    LabellingError,
    VertexLabelling,
    derive_edge_labelling,
    distinct_value_count,
    verify_certificate,
)
from .bounds import (
    BoundReport,
    bound_report,
    best_df_lower,
    best_sm_lower,
    diff_degree_bound,
    odd_cycle_bound,
    sum_degree_bound,
)
from .solvers import (
    ExclusiveWitness,
    IndexResult,
    SearchConfig,
    SolverError,
    difference_index,
    exclusive_sum_number,
    realize_gplus,
    sum_index,
    sum_number,
)
from .families import (
    FamilyError,
    FamilyInstance,
    chained_odd_cycles,
    gnk,
    prism,
    subdivided_complete,
    subdivided_complete_kk,
)
from .sumsets import (
    StanchescuVerdict,
    SumsetError,
    common_difference,
    span,
    stanchescu_check,
    sumset,
)
from .scan import ScanRecord, ScanReport, scan_conjectures, scan_record

__version__ = "0.1.0"
