"""Entanglement scheduling and distribution for buffered quantum networks.

The package splits into layers: `topology` and `workload` describe the
problem instance, `mred` solves the rate-balance programs, `scheduler`
turns active commodities into rate plans, `protocol` executes plans on
integer buffers slot by slot, and `engine` runs whole simulations. The
`cli` module wires everything into a command line tool.
"""

from .engine import RunMetrics, RunResult, run_simulation
from .lp import SolverError
from .mred import (
    MredModel,
    RateSolution,
    build_and_check_mred_dc,
    build_mred,
    check_solution,
    solve_lexicographic,
    solve_max_total,
    solve_single_pair_edr,
)
from .protocol import BufferState, ConservationError, ProtocolConfig
from .rng import SlotRng
from .scheduler import (
    POLICIES,
    POLICY_BASELINE,
    POLICY_DEADLINE,
    POLICY_ORDERED,
    SchedulerState,
    framework_step,
    new_state,
)
from .topology import (
    Link,
    Network,
    NodePair,
    ValidationError,
    build_manual,
    canonical_pair,
    generate_waxman,
    is_connected,
    read_network,
    sample_sd_pairs,
    write_network,
)
from .workload import (
    Commodity,
    DeadlineSpec,
    WorkloadConfig,
    active_set,
    generate_workload,
    read_workload,
    write_workload,
)

__version__ = "0.1.0"

__all__ = [
    "BufferState",
    "Commodity",
    "ConservationError",
    "DeadlineSpec",
    "Link",
    "MredModel",
    "Network",
    "NodePair",
    "POLICIES",
    "POLICY_BASELINE",
    "POLICY_DEADLINE",
    "POLICY_ORDERED",
    "ProtocolConfig",
    "RateSolution",
    "RunMetrics",
    "RunResult",
    "SchedulerState",
    "SlotRng",
    "SolverError",
    "ValidationError",
    "WorkloadConfig",
    "active_set",
    "build_and_check_mred_dc",
    "build_manual",
    "build_mred",
    "canonical_pair",
    "check_solution",
    "framework_step",
    "generate_waxman",
    "generate_workload",
    "is_connected",
    "new_state",
    "read_network",
    "read_workload",
    "run_simulation",
    "sample_sd_pairs",
    "solve_lexicographic",
    "solve_max_total",
    "solve_single_pair_edr",
    "write_network",
    "write_workload",
]
