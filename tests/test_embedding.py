from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, combinations

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
    NoCompatibleConstructionError,
    NotAnEmbeddingError,
    NotHeffterError,
    NotSimpleError,
    PinchPointError,
)
from heffter.core import HeffterArray, from_rows, reorder_columns, transpose
from heffter.h3 import construct_raw_h3, simple_h3
from heffter.modmath import partial_sums
from heffter.orderings import compatible_orderings
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
    face_set = build_face_set(H)
    faces = list(face_set.faces())
    assert len(faces) == 114  # 19*3 of each color; 342 arcs = 2 * C(19,2)
    assert sum(len(w) for w in faces) == 342


def test_face_set_counts_for_n5() -> None:
    H = simple_h3(5)
    cert = certify(build_face_set(H))
    assert cert.num_col_faces == 155  # 31 * 5 triangles
    assert cert.num_row_faces == 93  # 31 * 3 pentagons
    assert cert.faces == 248  # C(31,2) * (1/3 + 1/5)


def _raised(fn, H: HeffterArray) -> tuple[type, str] | None:
    try:
        fn(H)
    except HeffterError as exc:
        return type(exc), str(exc)
    return None


def _swap_in_row(H: HeffterArray, i: int, a: int, b: int) -> HeffterArray:
    """H with cells (i, a) and (i, b) exchanged: row i still sums to 0, columns a and b do not."""
    cells = [list(row) for row in H.cells]
    cells[i][a], cells[i][b] = cells[i][b], cells[i][a]
    return from_rows(cells)


@pytest.mark.parametrize(
    "H, raised, message",
    (
        (generate_heffter(4, 4, SearchConfig(seed=1)), NoCompatibleConstructionError, "both dim"),
        (from_rows(((1, 2, 3), (4, 5, 6), (7, 8, 9))), NotHeffterError, "row part 1 does not sum"),
        (_swap_in_row(simple_h3(5), 0, 0, 4), NotHeffterError, "column part 1 does not sum"),
        (construct_raw_h3(8), NotSimpleError, "row part 1 has a repeated"),
        (transpose(construct_raw_h3(8)), NotSimpleError, "column part 1 has a repeated"),
    ),
)
def test_build_face_set_raises_what_compatible_orderings_raises(
    H: HeffterArray, raised: type, message: str
) -> None:
    expected = _raised(compatible_orderings, H)
    assert expected is not None and expected[0] is raised and expected[1].startswith(message)
    assert _raised(build_face_set, H) == expected


def _successor_map(cycle) -> dict[int, int]:
    return dict(zip(cycle, cycle[1:] + cycle[:1]))


def test_rotations_single_cycles_and_translation_invariant() -> None:
    for n in (3, 5):
        H = simple_h3(n)
        v = H.modulus
        face_set = build_face_set(H)
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
    face_set = build_face_set(H)
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
        cert = certify(build_face_set(H))
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


@pytest.mark.parametrize("m, n, seed", ((5, 4, None), (7, 5, 0), (4, 4, None)))
def test_developed_rows_and_columns_of_generated_arrays_cover_each_pair_once(
    m: int, n: int, seed: int | None
) -> None:
    # heffter develop prints pair_coverage_ok as a constant; this is its proof's
    # test.  Lines of 4 or 5 entries are always simple; the columns of the
    # seed-0 7 x 5 array happen to be simple, as develop_cycles requires.
    H = generate_heffter(m, n, SearchConfig(seed=seed))
    for parts in ([H.row(i) for i in range(m)], [H.column(j) for j in range(n)]):
        assert exact_pair_coverage(develop_cycles(parts, H.modulus))


def test_five_row_biembedding_certifies() -> None:
    # Every edge of K_41 on one 4-cycle and one 5-cycle face; the 3 x n
    # closed-form check does not apply (flag stays None).
    from heffter.core import reorder_columns
    from heffter.search import SearchConfig, find_simple_column_permutation, generate_heffter

    H = generate_heffter(5, 4, SearchConfig(seed=3))
    outcome = find_simple_column_permutation(H)
    assert outcome.permutation is not None
    S = reorder_columns(H, outcome.permutation)
    cert = certify(build_face_set(S))
    assert cert.all_ok
    assert cert.genus_matches_formula is None
    assert (cert.vertices, cert.edges, cert.faces) == (41, 820, 369)
    assert cert.genus == 206  # (2 - 41 + 820 - 369) / 2


def test_certify_rejects_incomplete_face_set() -> None:
    H = simple_h3(3)
    face_set = build_face_set(H)
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
    face_set = build_face_set(A)
    with pytest.raises(NotAnEmbeddingError):
        certify(face_set)


def _summed_walks(H: HeffterArray, parts) -> list[tuple[int, ...]]:
    """(0, s_1, ..., s_{k-1}) of each part, summed along its cells here."""
    v = H.modulus
    sums = (list(accumulate(H.cells[i][j] for i, j in part)) for part in parts)
    return [(0, *(s % v for s in part_sums[:-1])) for part_sums in sums]


@pytest.mark.parametrize("n", (3, 4, 5, 6, 7, 8, 9))
def test_face_set_colors_are_developed_row_and_reversed_column_walks(n: int) -> None:
    # Odd n reverses columns t+2..n, even n rows (m+1)/2+1..m; a transpose
    # of simple_h3(n) is n x 3, and the searched 5 x n arrays have m = 5.
    arrays = [simple_h3(n), transpose(simple_h3(n))]
    if 4 <= n <= 7:
        arrays.append(_simple_5xn(n, 0))
    for H in arrays:
        pair = compatible_orderings(H)
        face_set = build_face_set(H)
        assert list(face_set.rows.bases) == _summed_walks(H, pair.row_parts)
        assert list(face_set.cols.bases) == [
            (0, *walk[:0:-1]) for walk in _summed_walks(H, pair.col_parts)
        ]
        assert face_set.face_count == H.modulus * (H.m + H.n)


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
    face_set = build_face_set(H)
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
    face_set = build_face_set(H)
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
    face_set = build_face_set(H)
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
