"""Random pairwise key predistribution under gradual deployment.

Each of n sensor nodes is paired offline with k uniformly chosen partners;
a pair can communicate securely once deployed if either selected the
other.  This package computes the exact and asymptotic connectivity
behavior of the induced key graph when only a fraction of the nodes is
deployed, and cross-checks every formula with Monte Carlo experiments.

Layout: scheme (pairing tables and key rings), graphs (key graphs and the
block kernel for connectivity and isolation), theory (closed-form
calculators), montecarlo (repeat-trial harness), cli (command-line front
end), sampling (deterministic PRNG).
"""

from . import theory
from .graphs import (
    KeyGraph,
    build_graph,
    connected_at,
    write_edge_list,
)
from .montecarlo import (
    DeploymentSchedule,
    Estimate,
    ExperimentPlan,
    RingCensus,
    estimate_from,
    run_keyring_census,
    run_phased_detail,
    run_sweep,
    wilson_interval,
)
from .scheme import (
    KeyRing,
    PairingTable,
    PairwiseKeyId,
    SchemeParams,
    derive_key_rings,
    generate_pairing,
    phase_size,
    reverse_degree,
    reverse_degrees,
    ring_sizes,
    table_from_json,
    table_from_lists,
    table_to_json,
)

__version__ = "0.1.0"

__all__ = [
    "SchemeParams",
    "PairingTable",
    "PairwiseKeyId",
    "KeyRing",
    "generate_pairing",
    "derive_key_rings",
    "reverse_degree",
    "reverse_degrees",
    "ring_sizes",
    "phase_size",
    "table_to_json",
    "table_from_json",
    "table_from_lists",
    "KeyGraph",
    "build_graph",
    "write_edge_list",
    "connected_at",
    "theory",
    "ExperimentPlan",
    "Estimate",
    "RingCensus",
    "DeploymentSchedule",
    "estimate_from",
    "run_sweep",
    "run_phased_detail",
    "run_keyring_census",
    "wilson_interval",
    "__version__",
]
