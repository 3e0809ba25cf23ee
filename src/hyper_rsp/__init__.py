"""Remote preparation of single-photon two-qubit states over hyper-entangled channels.

Exact state-vector simulation of two linear-optical preparation circuits, the
receiver-side correction tables they induce, and the efficiency and detector
loss accounting around them.
"""

from .efficiency import EfficiencyInput, efficiency, protocol_efficiency
from .elements import PauliOp
from .protocols import (
    BranchReport,
    CorrectionSearch,
    build_circuit,
    correction_table,
    derive_correction,
    evolve,
    outcome_registry,
    run_protocol,
)
from .runtime import (
    ChannelMessage,
    SampleStats,
    decode_outcome,
    encode_outcome,
    sample_with_loss,
)
from .states import (
    Outcome,
    ProtocolKind,
    Schema,
    StateVector,
    TargetParams,
    fidelity,
    make_hyper_bell,
    make_target,
    project_photon_a,
)

__version__ = "0.1.0"

__all__ = [
    "BranchReport",
    "ChannelMessage",
    "CorrectionSearch",
    "EfficiencyInput",
    "Outcome",
    "PauliOp",
    "ProtocolKind",
    "SampleStats",
    "Schema",
    "StateVector",
    "TargetParams",
    "build_circuit",
    "correction_table",
    "decode_outcome",
    "derive_correction",
    "efficiency",
    "encode_outcome",
    "evolve",
    "fidelity",
    "make_hyper_bell",
    "make_target",
    "outcome_registry",
    "project_photon_a",
    "protocol_efficiency",
    "run_protocol",
    "sample_with_loss",
]
