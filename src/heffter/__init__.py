"""Heffter arrays, cyclic cycle systems, and orientable biembeddings of K_{2mn+1}."""

__version__ = "1.0.0"

from .arrayfile import parse_array, serialize_array
from .core import (
    HeffterArray,
    VerificationReport,
    from_rows,
    is_simple_array,
    reorder_columns,
    transpose,
    verify_heffter,
)
from .embedding import (
    CycleSystem,
    EmbeddingCertificate,
    FaceSet,
    RotationSystem,
    build_face_set,
    certify,
    derive_rotations,
    develop_cycles,
    exact_pair_coverage,
    genus_closed_form,
    is_translation_closed,
)
from .h3 import (
    construct_raw_h3,
    corrected_row_sums,
    predicted_row_sums,
    simple_h3,
    standard_reordering,
    table_errata,
)
from .modmath import canon, is_half_set, is_simple, partial_sums
from .orderings import CompatibleOrderingPair, compatible_orderings
from .search import (
    SearchConfig,
    SearchOutcome,
    brute_force_oracle,
    find_simple_column_permutation,
    generate_heffter,
)

__all__ = [
    "CompatibleOrderingPair",
    "CycleSystem",
    "EmbeddingCertificate",
    "FaceSet",
    "HeffterArray",
    "RotationSystem",
    "SearchConfig",
    "SearchOutcome",
    "VerificationReport",
    "brute_force_oracle",
    "build_face_set",
    "canon",
    "certify",
    "compatible_orderings",
    "construct_raw_h3",
    "corrected_row_sums",
    "derive_rotations",
    "develop_cycles",
    "exact_pair_coverage",
    "find_simple_column_permutation",
    "from_rows",
    "generate_heffter",
    "genus_closed_form",
    "is_half_set",
    "is_simple",
    "is_simple_array",
    "is_translation_closed",
    "parse_array",
    "partial_sums",
    "predicted_row_sums",
    "reorder_columns",
    "serialize_array",
    "simple_h3",
    "standard_reordering",
    "table_errata",
    "transpose",
    "verify_heffter",
]
