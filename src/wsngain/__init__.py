"""Gain design and distributed estimation for wireless sensor networks.

The package covers two estimation architectures for a common scalar
parameter observed through analog relays: a fusion center with multiple
receive antennas, and a fully decentralized network where sensors exchange
compressed observations with neighbors and agree on the estimate by
consensus.  Transmission gains are designed under fixed-energy,
phase-only, quantized-phase or sensor-selection constraints by a cyclic
optimizer that alternates an exact auxiliary solve with a gain update:
one exact trust-region step for fixed energy and energy-mode selection,
projected power-method steps for quantized phases and phase-mode
selection.  Phase-only gains see one constant matrix, and their design is
its unimodular power method.
"""

from .diffusion import (
    CompressionPlan,
    GlobalModel,
    assemble_global_model,
    assign_carriers,
    centralized_model,
    decentralized_model,
    information_table,
)
from .errors import (
    DegenerateGains,
    DisconnectedGraph,
    GenerationFailed,
    InconsistentPlan,
    InvalidConfig,
    InvalidEdge,
    NoConvergence,
    NoDescent,
    TooLarge,
    WsnGainError,
    ZeroVectorWarning,
)
from .estimator import (
    EstimateReport,
    GainVector,
    global_mle,
    global_variance,
    local_mle,
    received_by_sink,
    run_consensus,
    simulate_measurement,
)
from .gainopt import (
    ConstraintSpec,
    OptimizerConfig,
    OptimizerTrace,
    build_inner_quadratic,
    build_lifted,
    inner_power_iterations,
    optimize,
    optimize_decentralized,
    optimize_phase_only_uqp,
    project,
    refine,
    shift_quadratic,
    solve_auxiliary,
    uqp_matrix,
    uqp_step,
)
from .harness import (
    ExperimentConfig,
    baseline_all_ones,
    baseline_exhaustive_quantized,
    baseline_selection,
    derived_seed,
    render_csv,
    run_experiment,
)
from .netgraph import Topology, build_topology, random_connected_topology
from .scenario import (
    CentralizedScenario,
    DecentralizedScenario,
    NoiseConfig,
    from_json_dict,
    gen_centralized_scenario,
    gen_decentralized_scenario,
    load_scenario,
    save_scenario,
    to_json_dict,
)

__version__ = "0.1.0"

__all__ = [
    "CentralizedScenario",
    "CompressionPlan",
    "ConstraintSpec",
    "DecentralizedScenario",
    "DegenerateGains",
    "DisconnectedGraph",
    "EstimateReport",
    "ExperimentConfig",
    "GainVector",
    "GenerationFailed",
    "GlobalModel",
    "InconsistentPlan",
    "InvalidConfig",
    "InvalidEdge",
    "NoConvergence",
    "NoDescent",
    "NoiseConfig",
    "OptimizerConfig",
    "OptimizerTrace",
    "TooLarge",
    "Topology",
    "WsnGainError",
    "ZeroVectorWarning",
    "assemble_global_model",
    "assign_carriers",
    "baseline_all_ones",
    "baseline_exhaustive_quantized",
    "baseline_selection",
    "build_inner_quadratic",
    "build_lifted",
    "build_topology",
    "centralized_model",
    "decentralized_model",
    "derived_seed",
    "from_json_dict",
    "gen_centralized_scenario",
    "gen_decentralized_scenario",
    "global_mle",
    "global_variance",
    "information_table",
    "inner_power_iterations",
    "load_scenario",
    "local_mle",
    "optimize",
    "optimize_decentralized",
    "optimize_phase_only_uqp",
    "project",
    "random_connected_topology",
    "received_by_sink",
    "refine",
    "render_csv",
    "run_consensus",
    "run_experiment",
    "save_scenario",
    "simulate_measurement",
    "shift_quadratic",
    "solve_auxiliary",
    "to_json_dict",
    "uqp_matrix",
    "uqp_step",
]
