"""Toolkit for downloading qubit cluster-state entanglement out of
continuous-variable cluster states.

The package simulates the three-step downloading protocol exactly at
desk scale, maps continuous-variable imperfections (finite squeezing,
thermal occupation, photon loss, detector inefficiency) onto located
single-qubit erasures and dephasing, computes the squeezing thresholds
those error rates imply, and plans the hardware pre-compensation that
keeps downloaded errors uncorrelated between qubits.
"""

__version__ = "0.1.0"

from .error_model import (
    amplitude_imbalance,
    dephasing_rate,
    keep_probability,
    log_imbalance,
    p_del_analytic,
    p_succ_quadrature,
    qubit_given_outcome,
    squeezing_db_for_pdel,
    vertex_disconnect_prob,
)
from .gaussian import (
    GaussianState,
    SqueezedThermalParams,
    mixture_params,
    symplectic_eigenvalues,
    thermal_cvcs,
)
from .graphs import Graph, make_graph, parse_graph_spec
from .grid import HybridGridState, make_grid_state
from .planner import DecorrelationPlan, NoiseParams, linearized_plan, plan, verify_plan
from .protocol import (
    DownloadRecord,
    DownloadSummary,
    ProtocolParams,
    downloaded_state_direct,
    downloaded_state_equivalent,
    register_from_outcomes,
    run_download,
)
from .qubits import (
    QubitDensityMatrix,
    QubitPureState,
    apply_balancing_povm,
    cluster_state,
    fidelity,
    postprocessing_equivalence,
    stabilizer_residual,
    trace_distance,
)

__all__ = [
    "__version__",
    "Graph",
    "make_graph",
    "parse_graph_spec",
    "QubitPureState",
    "QubitDensityMatrix",
    "cluster_state",
    "apply_balancing_povm",
    "fidelity",
    "trace_distance",
    "stabilizer_residual",
    "postprocessing_equivalence",
    "GaussianState",
    "SqueezedThermalParams",
    "mixture_params",
    "symplectic_eigenvalues",
    "thermal_cvcs",
    "qubit_given_outcome",
    "log_imbalance",
    "amplitude_imbalance",
    "keep_probability",
    "p_del_analytic",
    "p_succ_quadrature",
    "dephasing_rate",
    "squeezing_db_for_pdel",
    "vertex_disconnect_prob",
    "ProtocolParams",
    "DownloadRecord",
    "DownloadSummary",
    "downloaded_state_direct",
    "downloaded_state_equivalent",
    "register_from_outcomes",
    "run_download",
    "NoiseParams",
    "DecorrelationPlan",
    "plan",
    "linearized_plan",
    "verify_plan",
    "HybridGridState",
    "make_grid_state",
]
