"""Max-min fair resource allocation over capacitated graphs.

Resources (edges) have capacities, paths group resources that must be
allocated together, and demands ask for rate over one or more paths.  The
package provides exact allocators (a sequential LP and a one-shot LP with an
embedded sorting network), fast approximate one-shot binners with bounded
unfairness, multi-path waterfilling algorithms, the fairness/efficiency
metrics to compare them, and a generation/benchmark harness.
"""

from .bench import (
    ALLOCATOR_IDS,
    Scenario,
    benchmark_csv,
    load_allocation,
    load_problem,
    merge_partition_allocations,
    pop_partition,
    run_allocator,
    run_benchmark,
    save_allocation,
    save_problem,
)
from .generate import TrafficSpec, generate_problem, k_shortest_paths
from .lp import (
    LinearProgram,
    LpSolution,
    ScipyBackend,
    SimplexBackend,
    SimplexError,
    SolveSession,
)
from .metrics import (
    MetricsReport,
    compare_rates,
    default_vartheta,
    efficiency,
    q_fairness,
)
from .model import (
    Allocation,
    Demand,
    FeasibilityCheck,
    Path,
    Problem,
    Resource,
    Violation,
    check_feasible,
    default_feasibility_tol,
    problem_from_json,
    problem_to_json,
    total_allocation,
    validate_problem,
)
from .optimizers import (
    AllocationError,
    build_feasible_alloc,
    compute_equi_boundaries,
    equi_depth_elastic,
    equi_depth_multibin,
    exact_sequential_max_min,
    geo_binner,
    merge_boundaries,
    one_shot_exact,
    suggest_bin_config,
    swan_sequence,
)
from .report import AllocatorReport, report_to_dict
from .sortnet import SortingNetwork, build_sorting_network, sorts_all_binary_inputs
from .waterfill import (
    SubdemandMatrix,
    adaptive_waterfill,
    approx_waterfill,
    build_subdemands,
    is_bandwidth_bottlenecked,
    single_path_waterfill,
    theta_trace_csv,
)

__version__ = "0.1.0"
