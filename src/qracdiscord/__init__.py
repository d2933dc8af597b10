"""Quantum discord, geometric discord and the two-dimensional quantum
witness for pure-state encodings of the 2-to-1 quantum random access code.

The four encoding states are parameterised by four half-angle offsets and
two phases (see :mod:`qracdiscord.encoding`); everything downstream is a
pure function of those six angles.
"""

from .discord import (
    ConditionalEnsemble,
    classical_correlation,
    conditional_ensemble,
    conditional_ensemble_dense,
    conditional_entropy,
    discord_pre_opt,
    mutual_information,
    quantum_discord,
)
from .encoding import (
    BASE_ANGLES,
    EncodingSet,
    cq_state,
    encoding_states,
    planar_rotation,
    reduced_qubit,
    state_kets,
)
from .geodiscord import (
    BlochDecomposition,
    bloch_decompose,
    geometric_discord,
    planar_gd_closed,
)
from .search import (
    GridSpec,
    SearchResult,
    SweepRecord,
    grid_search_gd,
    refine_local,
    sweep_planar,
    sweep_preopt_plane,
    witness_max_numeric,
)
from .witness import success_probability, witness_max_closed, witness_value

__version__ = "0.1.0"

__all__ = [
    "BASE_ANGLES",
    "BlochDecomposition",
    "ConditionalEnsemble",
    "EncodingSet",
    "GridSpec",
    "SearchResult",
    "SweepRecord",
    "bloch_decompose",
    "classical_correlation",
    "conditional_ensemble",
    "conditional_ensemble_dense",
    "conditional_entropy",
    "cq_state",
    "discord_pre_opt",
    "encoding_states",
    "geometric_discord",
    "grid_search_gd",
    "mutual_information",
    "planar_gd_closed",
    "planar_rotation",
    "quantum_discord",
    "reduced_qubit",
    "refine_local",
    "state_kets",
    "success_probability",
    "sweep_planar",
    "sweep_preopt_plane",
    "witness_max_closed",
    "witness_max_numeric",
    "witness_value",
]
