"""Graded supersymmetric quantum mechanics models, verified exactly.

The package builds the model families of Z2^n-graded supersymmetric
quantum mechanics as tensor operators (exact Pauli-string Clifford factor
times a formal ladder block), checks every defining relation of the graded
algebra with zero tolerance, and reports rank, spectral degeneracy and
orbit structure.
"""

from .clifford import (
    PauliOperator,
    anticommutes,
    big_gamma,
    commutes,
    gamma,
    gamma_tilde,
    proportional,
)
from .grading import (
    MAX_RANK,
    AlgebraCensus,
    DegreeVector,
    bracket_kind,
    bracket_sign,
    census,
    dot,
    enumerate_odd_degrees,
)
from .models import (
    FAMILIES,
    GradedOperator,
    Model,
    ModelSpec,
    ModelSpecError,
    build,
    build_from_selector,
    build_maximal,
    build_minimal,
    build_next,
    hermitizing_phase,
    minimal_phase_exponent,
)
from .sqm_block import (
    FockRealization,
    GridRealization,
    NumericRealization,
    SqmBlock,
    WordSum,
    canonical_blocks,
    ground_state_pair,
    realize,
)
from .verify import (
    OrbitReport,
    RankReport,
    RelationReport,
    SpectrumReport,
    TensorSum,
    TensorTerm,
    central_rank,
    check_centrality,
    check_defining_relations,
    count_generated_operators,
    pauli_rank,
    orbit_decomposition,
    spectrum,
)

__version__ = "0.1.0"
