from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heffter.embedding import (
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
from heffter.errors import (
    BudgetExceededError,
    HeffterError,
    InconsistentRotationError,
    ModulusMismatchError,
    NotAnEmbeddingError,
    NotHeffterError,
    NotSimpleError,
    PinchPointError,
)
from heffter.core import from_rows, reorder_columns
from heffter.h3 import construct_raw_h3, simple_h3
from heffter.modmath import partial_sums
from heffter.orderings import CyclicOrdering, CompatibleOrderingPair, compatible_orderings
from heffter.search import SearchConfig, find_simple_column_permutation, generate_heffter
from oracles import _successors_exhaustive, certify_exhaustive


def _pairs_covered_once(cycles, v: int) -> bool:
    """Independent brute force: every unordered pair on exactly one cycle edge."""
    remaining = set(combinations(range(v), 2))
    for cycle in cycles:
        for idx, a in enumerate(cycle):
            b = cycle[(idx + 1) % len(cycle)]
            edge = (min(a, b), max(a, b))
            if edge not in remaining:
                return False
            remaining.remove(edge)
    return not remaining


def test_develop_columns_of_h33_gives_cyclic_sts19() -> None:
    H = simple_h3(3)
    system = develop_cycles([H.column(j) for j in range(3)], 19)
    assert system.k == 3
    assert len(system.cycles) == 57  # 3 base triangles x 19 translates
    assert _pairs_covered_once(system.cycles, 19)
    assert exact_pair_coverage(system)
    assert is_translation_closed(system)


def test_develop_rows_of_simple_h35_gives_pentagon_system() -> None:
    H = simple_h3(5)
    system = develop_cycles([H.row(i) for i in range(3)], 31)
    assert system.k == 5
    assert len(system.cycles) == 93  # covering C(31,2) = 465 pairs
    assert _pairs_covered_once(system.cycles, 31)


def test_develop_single_half_set_part_mod7() -> None:
    system = develop_cycles([(1, 2, -3)], 7)
    assert system.cycles[0] == (0, 1, 3)
    assert len(system.cycles) == 7
    assert _pairs_covered_once(system.cycles, 7)


def test_develop_rejects_non_simple_part() -> None:
    H = construct_raw_h3(8)  # first row repeats a partial sum
    with pytest.raises(NotSimpleError):
        develop_cycles([H.row(i) for i in range(3)], 49)


def test_develop_rejects_bad_sums_and_partitions() -> None:
    with pytest.raises(NotHeffterError):
        develop_cycles([(1, 2, 3)], 7)  # sums to 6, not 0
    with pytest.raises(NotHeffterError):
        develop_cycles([(1, 2, -3), (1, 2, -3)], 13)  # not a half-set partition
    with pytest.raises(NotHeffterError):
        develop_cycles([], 7)
    with pytest.raises(NotHeffterError):
        develop_cycles([(1, 2, -3), (4, 5, 6, -15)], 31)  # mixed part sizes


def test_develop_rejects_non_canonical_entries() -> None:
    with pytest.raises(ModulusMismatchError):
        develop_cycles([(1, 2, 40)], 7)
    with pytest.raises(ModulusMismatchError):
        develop_cycles([(1, 2, -3)], 8)  # even modulus


def test_face_set_counts_for_n3() -> None:
    H = simple_h3(3)
    face_set = build_face_set(H, compatible_orderings(H))
    faces = list(face_set.faces())
    assert len(faces) == 114  # 19*3 of each color; 342 arcs = 2 * C(19,2)
    assert sum(len(w) for w in faces) == 342


def test_face_set_counts_for_n5() -> None:
    H = simple_h3(5)
    cert = certify(build_face_set(H, compatible_orderings(H)))
    assert cert.num_col_faces == 155  # 31 * 5 triangles
    assert cert.num_row_faces == 93  # 31 * 3 pentagons
    assert cert.faces == 248  # C(31,2) * (1/3 + 1/5)


def test_broken_row_ordering_is_not_an_embedding() -> None:
    # Hand-build an ordering pair around the non-simple original H(3,8).
    H = construct_raw_h3(8)
    omega_r = CyclicOrdering(H, tuple(tuple((i, j) for j in range(8)) for i in range(3)))
    omega_c = CyclicOrdering(
        H,
        tuple(tuple((i, j) for i in range(3)) for j in range(4))
        + tuple(tuple((i, j) for i in reversed(range(3))) for j in range(4, 8)),
    )
    pair = CompatibleOrderingPair(omega_r, omega_c, composition_cycle=())
    with pytest.raises(NotAnEmbeddingError):
        build_face_set(H, pair)


def _successor_map(cycle) -> dict[int, int]:
    return dict(zip(cycle, cycle[1:] + cycle[:1]))


def test_rotations_single_cycles_and_translation_invariant() -> None:
    for n in (3, 5):
        H = simple_h3(n)
        v = H.modulus
        face_set = build_face_set(H, compatible_orderings(H))
        rotations = derive_rotations(face_set)
        oracle = _successors_exhaustive(face_set)
        assert len(rotations.at_zero) == v - 1
        for u in range(v):
            cycle = rotations.rotation_cycle(u)
            assert len(cycle) == v - 1 and u not in cycle
            assert _successor_map(cycle) == oracle[u]
        # Vertex transitivity: rotation at u+1 is the translate of rotation at u.
        for u in range(v):
            succ_u, succ_next = oracle[u], oracle[(u + 1) % v]
            assert all(succ_next[(a + 1) % v] == (succ_u[a] + 1) % v for a in succ_u)


def test_reversed_face_breaks_rotation_consistency() -> None:
    H = simple_h3(3)
    face_set = build_face_set(H, compatible_orderings(H))
    rows = face_set.rows
    flipped = FaceSet(
        rows=CycleSystem(rows.v, (tuple(reversed(rows.bases[0])),) + rows.bases[1:]),
        cols=face_set.cols,
    )
    with pytest.raises((InconsistentRotationError, PinchPointError)):
        derive_rotations(flipped)


def test_certificate_euler_data() -> None:
    expected = {3: (19, 171, 114, 20), 4: (25, 300, 175, 51), 5: (31, 465, 248, 94)}
    for n, (V, E, F, g) in expected.items():
        H = simple_h3(n)
        cert = certify(build_face_set(H, compatible_orderings(H)))
        assert (cert.vertices, cert.edges, cert.faces, cert.genus) == (V, E, F, g)
        assert cert.euler_characteristic == 2 - 2 * g
        assert cert.all_ok
        assert cert.genus_matches_formula is True


@pytest.mark.parametrize("n", range(3, 26))
def test_genus_closed_form_equals_simplified_expression(n: int) -> None:
    # 1 - [6n+1 + C(6n+1,2)(1/3 + 1/n - 1)]/2 simplifies to 1 + (6n+1)(n-2).
    assert genus_closed_form(n) == 1 + (6 * n + 1) * (n - 2)


def test_genus_published_value() -> None:
    assert genus_closed_form(5) == 94


def test_exact_pair_coverage_detects_damage() -> None:
    H = simple_h3(3)
    system = develop_cycles([H.column(j) for j in range(3)], 19)
    broken = CycleSystem(v=19, bases=system.bases[1:])
    assert not exact_pair_coverage(broken)
    # Steps 0, 1, 2, 3, 5 mod 11: a loop is no edge, and the pairs {u, u + 4}
    # lie on no cycle, though the translates list 11 * 5 = C(11, 2) "edges".
    looped = CycleSystem(v=11, bases=((0, 0, 1, 3, 6),))
    assert not exact_pair_coverage(looped)
    assert not _pairs_covered_once(looped.cycles, 11)


def test_five_row_biembedding_certifies() -> None:
    # Every edge of K_41 on one 4-cycle and one 5-cycle face; the 3 x n
    # closed-form check does not apply (flag stays None).
    from heffter.core import reorder_columns
    from heffter.search import SearchConfig, find_simple_column_permutation, generate_heffter

    H = generate_heffter(5, 4, SearchConfig(seed=3))
    outcome = find_simple_column_permutation(H)
    assert outcome.permutation is not None
    S = reorder_columns(H, outcome.permutation)
    cert = certify(build_face_set(S, compatible_orderings(S)))
    assert cert.all_ok
    assert cert.genus_matches_formula is None
    assert (cert.vertices, cert.edges, cert.faces) == (41, 820, 369)
    assert cert.genus == 206  # (2 - 41 + 820 - 369) / 2


def test_certify_rejects_incomplete_face_set() -> None:
    H = simple_h3(3)
    face_set = build_face_set(H, compatible_orderings(H))
    damaged = FaceSet(
        rows=CycleSystem(face_set.v, face_set.rows.bases[1:]),  # a base face and its translates gone
        cols=face_set.cols,
    )
    with pytest.raises(NotAnEmbeddingError):
        certify(damaged)


def test_certify_rejects_simple_zero_sum_array_that_is_not_a_half_set() -> None:
    # Rows and columns sum to 0 and are simple, but 2 and 3 are used twice:
    # the faces exist, and only certify's arc-exactness pass rejects them.
    A = from_rows([[1, 2, -3], [2, -4, 2], [-3, 2, 1]])
    face_set = build_face_set(A, compatible_orderings(A))
    with pytest.raises(NotAnEmbeddingError):
        certify(face_set)


@pytest.mark.parametrize("n", (3, 4, 5, 8))
def test_face_set_colors_are_developed_row_and_reversed_column_walks(n: int) -> None:
    H = simple_h3(n)
    v = H.modulus
    pair = compatible_orderings(H)
    face_set = build_face_set(H, pair)
    assert face_set.rows == develop_cycles(pair.omega_r.element_parts(), v)
    expected_cols = []
    for part in pair.omega_c.element_parts():
        walk = [0, *partial_sums(part, v)[:-1]]
        expected_cols.append((0, *reversed(walk[1:])))
    assert list(face_set.cols.bases) == expected_cols
    assert face_set.face_count == v * (H.m + H.n)


def test_develop_keeps_one_base_walk_per_part() -> None:
    H = simple_h3(5)
    parts = [H.row(i) for i in range(H.m)]
    system = develop_cycles(parts, H.modulus)
    assert system.bases == tuple((0, *partial_sums(p, H.modulus)[:-1]) for p in parts)
    assert system.cycles == tuple(
        tuple((x + t) % H.modulus for x in base) for base in system.bases for t in range(H.modulus)
    )


def test_quotient_witnesses_are_given_at_vertex_0() -> None:
    H = simple_h3(3)
    face_set = build_face_set(H, compatible_orderings(H))
    rows, cols = face_set.rows, face_set.cols
    dropped = FaceSet(CycleSystem(rows.v, rows.bases[1:]), cols)
    steps = {(b - a) % 19 for a, b in zip(rows.bases[0], rows.bases[0][1:] + rows.bases[0][:1])}
    with pytest.raises(NotAnEmbeddingError, match=rf"arc \(0,{min(steps)}\) lies on 0 faces"):
        certify(dropped)
    with pytest.raises(InconsistentRotationError, match="at vertex 0"):
        derive_rotations(dropped)
    doubled = FaceSet(CycleSystem(rows.v, rows.bases + rows.bases[:1]), cols)
    with pytest.raises(NotAnEmbeddingError, match="lies on 2 faces"):
        certify(doubled)
    with pytest.raises(InconsistentRotationError, match=r"corner after \(\d+,0\)"):
        derive_rotations(doubled)
    looped = FaceSet(CycleSystem(rows.v, ((0, *rows.bases[0]),) + rows.bases[1:]), cols)
    with pytest.raises(NotAnEmbeddingError, match="degenerate arc at vertex 0"):
        certify(looped)
    with pytest.raises(InconsistentRotationError, match="not a permutation"):
        derive_rotations(looped)


def test_degenerate_arc_witness_is_given_at_vertex_0() -> None:
    # The repeated vertex ends the walk, so its zero step sits at a nonzero
    # vertex; the quotient reports every witness at vertex 0.
    H = simple_h3(3)
    face_set = build_face_set(H, compatible_orderings(H))
    rows = face_set.rows
    base = rows.bases[0]
    assert base[-1] != 0
    looped = FaceSet(CycleSystem(rows.v, ((*base, base[-1]),) + rows.bases[1:]), face_set.cols)
    with pytest.raises(NotAnEmbeddingError, match=r"^degenerate arc at vertex 0$"):
        certify(looped)


def _outcome(fn, arg):
    """A check's result, or the class of the HeffterError it raised."""
    try:
        return fn(arg)
    except HeffterError as exc:
        return type(exc)


@lru_cache(maxsize=None)
def _simple_5xn(n: int, seed: int):
    """A generated 5 x n array reordered to simple rows, or None."""
    try:
        H = generate_heffter(5, n, SearchConfig(node_budget=50_000, seed=seed))
    except BudgetExceededError:
        return None
    outcome = find_simple_column_permutation(H)
    if outcome.permutation is None:
        return None
    return reorder_columns(H, outcome.permutation)


def _damage(system: CycleSystem, kind: str, i: int) -> CycleSystem:
    bases = list(system.bases)
    i %= len(bases)
    if kind == "drop":
        del bases[i]
    elif kind == "reverse":
        bases[i] = tuple(reversed(bases[i]))
    elif kind == "duplicate":
        bases.append(bases[i])
    elif kind == "mirror":  # same steps in reverse order: arcs stay exact, corners change
        bases[i] = tuple(-x % system.v for x in reversed(bases[i]))
    return CycleSystem(system.v, tuple(bases))


@st.composite
def _face_sets(draw) -> FaceSet:
    source = draw(st.sampled_from(("h3", "h5", "non-half-set")))
    if source == "h3":
        H = simple_h3(draw(st.integers(3, 66)))  # v <= 397
    elif source == "h5":
        H = _simple_5xn(draw(st.integers(3, 7)), draw(st.integers(0, 3)))
        assume(H is not None)
    else:
        H = from_rows([[1, 2, -3], [2, -4, 2], [-3, 2, 1]])
    face_set = build_face_set(H, compatible_orderings(H))
    kind = draw(st.sampled_from(("none", "drop", "reverse", "duplicate", "mirror")))
    if kind == "none":
        return face_set
    i = draw(st.integers(0, 100))
    if draw(st.booleans()):
        return FaceSet(_damage(face_set.rows, kind, i), face_set.cols)
    return FaceSet(face_set.rows, _damage(face_set.cols, kind, i))


@settings(max_examples=80, deadline=None)
@given(_face_sets())
def test_quotient_checks_match_exhaustive_oracle(face_set: FaceSet) -> None:
    v = face_set.v
    cert = _outcome(certify, face_set)
    assert cert == _outcome(certify_exhaustive, face_set)
    if isinstance(cert, EmbeddingCertificate):  # a closed orientable surface
        assert cert.euler_characteristic == 2 - 2 * cert.genus and cert.genus >= 0
    rotations = _outcome(derive_rotations, face_set)
    oracle = _outcome(_successors_exhaustive, face_set)
    if isinstance(oracle, tuple):
        assert all(_successor_map(rotations.rotation_cycle(u)) == oracle[u] for u in range(v))
    else:
        assert rotations == oracle
    for system in (face_set.rows, face_set.cols):
        assert exact_pair_coverage(system) == _pairs_covered_once(system.cycles, v)
