"""Heffter arrays, cyclic cycle systems, and orientable biembeddings of K_{2mn+1}."""

__version__ = "1.0.0"

from .arrayfile import parse_array, serialize_array
from .core import (
    HeffterArray,
    VerificationReport,
    from_rows,
    reorder_columns,
    transpose,
    verify_heffter,
)
from .embedding import (
    CycleSystem,
    EmbeddingCertificate,
    FaceSet,
    build_face_set,
    certify,
    derive_rotations,
    develop_cycles,
    exact_pair_coverage,
    genus_closed_form,
    is_translation_closed,
)
from .errors import HeffterError
from .h3 import construct_raw_h3, simple_h3, standard_reordering
from .modmath import canon, is_half_set, is_simple, partial_sums
from .orderings import CompatibleOrderingPair, compatible_orderings
from .search import (
    SearchOutcome,
    brute_force_oracle,
    find_simple_column_permutation,
    generate_heffter,
    simple_column_permutations,
)

__all__ = [
    "CompatibleOrderingPair",
    "CycleSystem",
    "EmbeddingCertificate",
    "FaceSet",
    "HeffterArray",
    "HeffterError",
    "SearchOutcome",
    "VerificationReport",
    "brute_force_oracle",
    "build_face_set",
    "canon",
    "certify",
    "compatible_orderings",
    "construct_raw_h3",
    "derive_rotations",
    "develop_cycles",
    "exact_pair_coverage",
    "find_simple_column_permutation",
    "from_rows",
    "generate_heffter",
    "genus_closed_form",
    "is_half_set",
    "is_simple",
    "is_translation_closed",
    "parse_array",
    "partial_sums",
    "reorder_columns",
    "serialize_array",
    "simple_column_permutations",
    "simple_h3",
    "standard_reordering",
    "transpose",
    "verify_heffter",
]
