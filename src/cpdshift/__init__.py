"""Conditionally positive definite unilateral weighted shifts.

Generate shifts from scalar representing triplets, classify them, decide
subnormality and similarity to subnormal shifts, build the model subnormal
shift, and test quasi-affinity and similarity between shift pairs.

The W(a, b) family module wab and its names load on first access, so that a
process which never reads them does not import it.
"""

from .core import (
    ScalarTriplet,
    ShiftSequences,
    TypeLabel,
    classify_type,
    defect_moment_measure,
    validate_triplet,
)
from .measures import AtomicMeasure, ResolventIntegrals, point_mass, zero_measure
from .qpoly import q_poly
from .quasiaffine import (
    intertwiner_defect,
    quasi_affine_test,
    similarity_test,
)
from .similarity import (
    ModelDegenerateError,
    b2_identity_check,
    criterion_ineqsuf,
    criterion_kdwq,
    criterion_nyttrs,
    criterion_weight_band,
    example_t0,
    model_subnormal,
    similar_by_beta,
)
from .subnormality import (
    NecessaryReport,
    berger_measure,
    dichotomy_check,
    hankel_psd_oracle,
    is_subnormal,
    necessary_conditions,
)
from .verdict import (
    INCONCLUSIVE,
    NO,
    YES,
    InvalidTripletError,
    NotApplicableError,
    Verdict,
)

_WAB_NAMES = {
    "GrowthFamilyExample",
    "WabClassification",
    "generate_3uwre",
    "wab_classify",
    "wab_weight_list",
    "wab_weights",
}


def __getattr__(name: str):
    """The module wab and its names, imported on first access and kept as module globals."""
    if name != "wab" and name not in _WAB_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module  # `from . import wab` would look up this hook again

    wab = import_module(f"{__name__}.wab")  # binds the global wab
    if name == "wab":
        return wab
    value = globals()[name] = getattr(wab, name)
    return value


__version__ = "0.1.0"

__all__ = [
    "AtomicMeasure",
    "GrowthFamilyExample",
    "INCONCLUSIVE",
    "InvalidTripletError",
    "ModelDegenerateError",
    "NecessaryReport",
    "NO",
    "NotApplicableError",
    "ResolventIntegrals",
    "ScalarTriplet",
    "ShiftSequences",
    "TypeLabel",
    "Verdict",
    "WabClassification",
    "YES",
    "b2_identity_check",
    "berger_measure",
    "classify_type",
    "criterion_ineqsuf",
    "criterion_kdwq",
    "criterion_nyttrs",
    "criterion_weight_band",
    "defect_moment_measure",
    "dichotomy_check",
    "example_t0",
    "generate_3uwre",
    "hankel_psd_oracle",
    "intertwiner_defect",
    "is_subnormal",
    "model_subnormal",
    "necessary_conditions",
    "point_mass",
    "q_poly",
    "quasi_affine_test",
    "similar_by_beta",
    "similarity_test",
    "validate_triplet",
    "wab_classify",
    "wab_weight_list",
    "wab_weights",
    "zero_measure",
]
