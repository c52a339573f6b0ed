"""Graded supersymmetric quantum mechanics models, verified exactly.

The package builds the model families of Z2^n-graded supersymmetric
quantum mechanics as tensor operators (exact Pauli-string Clifford factor
times a formal ladder block), checks every defining relation of the graded
algebra with zero tolerance, and reports rank, spectral degeneracy and
orbit structure.

Layout: :mod:`~graded_sqm.grading` (degrees and counts),
:mod:`~graded_sqm.models` (the families, built as packed tables of
records), :mod:`~graded_sqm.verify` (the exact checks, on those tables),
:mod:`~graded_sqm.clifford` (Pauli strings), :mod:`~graded_sqm.sqm_block`
(the formal ladder block), :mod:`~graded_sqm.operators` (the operator
views of a model and the tensor-sum oracle), :mod:`~graded_sqm.realizations`
(the numeric Fock and grid realizations and the spectrum read off them) and
:mod:`~graded_sqm.cli`.  The public names below resolve lazily (PEP 562):
``import graded_sqm`` loads no submodule, and the first use of a name loads
only the module that defines it, so a command-line call compiles just the
modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "clifford": (
        "PauliOperator", "anticommutes", "big_gamma", "commutes", "gamma", "gamma_tilde",
        "proportional",
    ),
    "grading": (
        "MAX_RANK", "AlgebraCensus", "DegreeVector", "bracket_kind", "bracket_sign", "census",
        "dot", "enumerate_odd_degrees",
    ),
    "models": (
        "FAMILIES", "Model", "ModelSpec", "ModelSpecError", "build", "build_from_selector",
        "hermitizing_phase", "minimal_phase_exponent",
    ),
    "operators": ("GradedOperator", "TensorSum", "TensorTerm"),
    "realizations": (
        "FockRealization", "GridRealization", "NumericRealization", "SpectrumReport", "spectrum",
    ),
    "sqm_block": ("SqmBlock", "WordSum", "canonical_blocks", "ground_state_pair", "realize"),
    "verify": (
        "OrbitReport", "RankReport", "RelationReport", "central_rank", "check_centrality",
        "check_defining_relations", "count_generated_operators", "orbit_decomposition",
    ),
}
# public name -> the submodule that defines it
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value
