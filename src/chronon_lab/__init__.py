"""chronon-lab: thermal time quanta, quantum speed limits, and
conditional-entropy numerics.

Everything works on dense complex matrices at desk scale.  Entropies are in
nats; the natural-unit ThermalContext (h = k = c = T = 1) converts them into
time quanta and process velocities, while Hamiltonian dynamics follow the
hbar = 1 convention (ThermalContext.hbar_one).
"""

from .entropy import (
    ConditionalState,
    EntropyValue,
    conditional_state,
    cq_conditional,
    generalized_conditional,
    trotter_conditional_density,
    von_neumann,
)
from .flow import (
    SystemSpec,
    ThermalFlow,
    Tick,
    clock_ratio,
    dilation_from_conditioning,
    simulate_flow,
    simultaneity_offset,
)
from .gaussian import (
    GaussianPacket,
    PartitionEntropy,
    bound_classical_velocity,
    bound_process_velocity,
    bound_resolution_velocity,
    max_G,
    max_H,
    partition_entropy_G,
    scaled_function_H,
)
from .linalg import (
    Spectrum,
    eig_hermitian,
    matrix_func,
    partial_trace,
    support_log,
    tensor,
)
from .relativity import (
    Boost,
    FrameQuantities,
    InvarianceReport,
    check_bound_invariance,
    gamma,
    transform_temperature,
)
from .speed_limits import (
    OrthogonalizationResult,
    ThermalContext,
    TimeQuantum,
    antiqubit_process_velocity,
    ml_bound_shifted,
    orthogonalization_time,
    process_velocity,
    state_count,
    time_quantum,
)
from .states import (
    BipartiteState,
    ClassicalQuantumState,
    CorrelationBasis,
    DensityMatrix,
    StateVector,
    build_measurement_operator,
    cq_embed,
    measurement_probability,
    reduce_over_apparatus,
)

__version__ = "0.1.0"

__all__ = [
    "BipartiteState",
    "Boost",
    "ClassicalQuantumState",
    "ConditionalState",
    "CorrelationBasis",
    "DensityMatrix",
    "EntropyValue",
    "FrameQuantities",
    "GaussianPacket",
    "InvarianceReport",
    "OrthogonalizationResult",
    "PartitionEntropy",
    "Spectrum",
    "StateVector",
    "SystemSpec",
    "ThermalContext",
    "ThermalFlow",
    "Tick",
    "TimeQuantum",
    "antiqubit_process_velocity",
    "bound_classical_velocity",
    "bound_process_velocity",
    "bound_resolution_velocity",
    "build_measurement_operator",
    "check_bound_invariance",
    "clock_ratio",
    "conditional_state",
    "cq_conditional",
    "cq_embed",
    "dilation_from_conditioning",
    "eig_hermitian",
    "gamma",
    "generalized_conditional",
    "matrix_func",
    "max_G",
    "max_H",
    "measurement_probability",
    "ml_bound_shifted",
    "orthogonalization_time",
    "partial_trace",
    "partition_entropy_G",
    "process_velocity",
    "reduce_over_apparatus",
    "scaled_function_H",
    "simulate_flow",
    "simultaneity_offset",
    "state_count",
    "support_log",
    "tensor",
    "time_quantum",
    "transform_temperature",
    "trotter_conditional_density",
    "von_neumann",
]
