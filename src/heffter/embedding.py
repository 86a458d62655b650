"""Cyclic cycle systems and orientable biembeddings from Heffter arrays.

A simply ordered zero-sum part (a_1, ..., a_k) of a half-set of Z_v develops
into the base cycle (0, s_1, ..., s_{k-1}) of its partial sums plus all v
translates; over a full Heffter system the translated cycles decompose the
edge set of K_v exactly once per pair.

For a Heffter array with compatible orderings, the developed row cycles are
traversed forward and the developed column cycles in reverse.  Forward row
walks realize each arc whose vertex difference lies in the half-set exactly
once, and reversed column walks realize the complementary arcs, so every
directed edge of K_v is on exactly one face and every undirected edge is on
one face of each color.  Reading off the corner successor at each vertex
yields the rotation system; the embedding lives on a genuine orientable
surface exactly when every vertex rotation is a single (v-1)-cycle, and its
genus follows from Euler's formula V - E + F = 2 - 2g.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator, Sequence

from .core import HeffterArray
from .errors import (
    InconsistentRotationError,
    NotAnEmbeddingError,
    NotHeffterError,
    NotSimpleError,
    NotOrientableSurfaceError,
    OrderingMismatchError,
    PinchPointError,
)
from .modmath import _partial_sums, is_half_set
from .orderings import CompatibleOrderingPair, orbit

Walk = tuple[int, ...]


def _base_walk(part: Sequence[int], v: int) -> Walk:
    """(0, s_1, ..., s_{k-1}) for a zero-sum simply ordered part."""
    sums = _partial_sums(part, v)
    if sums[-1] != 0:
        raise NotHeffterError(f"part {tuple(part)} does not sum to 0 mod {v}")
    if len(set(sums)) != len(sums):
        raise NotSimpleError(f"part {tuple(part)} has repeated partial sums mod {v}")
    return (0, *sums[:-1])


@dataclass(frozen=True)
class CycleSystem:
    """A k-cycle decomposition of K_v, closed under translation x -> x+1."""

    v: int
    k: int
    cycles: tuple[Walk, ...]


def _canonical_rotation(cycle: Walk) -> Walk:
    """Rotate a directed cycle to start at its smallest vertex."""
    i = cycle.index(min(cycle))
    return cycle[i:] + cycle[:i]


def develop_cycles(parts: Sequence[Sequence[int]], v: int) -> CycleSystem:
    """Develop a simply ordered Heffter system into a cyclic k-cycle system.

    The parts must partition a half-set of Z_v, share one length k, each sum
    to 0 mod v, and each be simply ordered.  The v translates of each base
    cycle are listed in order, base by base, without de-duplication: all
    are distinct.  A translate fixing a k-cycle has order dividing
    gcd(k, v) = 1, because the half-set count makes k divide (v-1)/2; and
    translates of different bases differ, since their difference sets are
    disjoint.
    """
    if not parts:
        raise NotHeffterError("no parts given")
    lengths = {len(p) for p in parts}
    if len(lengths) != 1:
        raise NotHeffterError(f"parts have mixed sizes {sorted(lengths)}")
    if not is_half_set(chain.from_iterable(parts), v):
        raise NotHeffterError(f"parts do not partition a half-set of Z_{v}")
    k = lengths.pop()
    bases = [_base_walk(p, v) for p in parts]
    return CycleSystem(v=v, k=k, cycles=tuple(_translates(bases, v)))


def _translates(bases: Iterable[Walk], v: int) -> Iterator[Walk]:
    """The v translates x -> x + t of each base walk, base by base."""
    for base in bases:
        for t in range(v):
            yield tuple((x + t) % v for x in base)


def _covers_each_pair_once(walks: Iterable[Walk], v: int) -> bool:
    """True iff every pair of Z_v is an edge of exactly one closed walk."""
    edges: set[tuple[int, int]] = set()
    for walk in walks:
        for a, b in zip(walk, walk[1:] + walk[:1]):
            edge = (a, b) if a < b else (b, a)
            if edge in edges:
                return False
            edges.add(edge)
    return len(edges) == v * (v - 1) // 2


def exact_pair_coverage(system: CycleSystem) -> bool:
    """Brute-force check that every pair of Z_v is an edge of exactly one cycle."""
    return _covers_each_pair_once(system.cycles, system.v)


def is_translation_closed(system: CycleSystem) -> bool:
    """True iff translating any cycle by +1 mod v gives another cycle."""
    keys = {_canonical_rotation(c) for c in system.cycles}
    return all(
        _canonical_rotation(tuple((x + 1) % system.v for x in c)) in keys
        for c in system.cycles
    )


@dataclass(frozen=True)
class FaceSet:
    """Base faces of the 2-colored embedding; full faces are the v translates.

    Row faces (length n) are one color, column faces (length m) the other.
    ``column_reversed`` records which global orientation convention produced
    exact arc coverage.
    """

    v: int
    row_bases: tuple[Walk, ...]
    col_bases: tuple[Walk, ...]
    column_reversed: bool

    def faces(self) -> Iterator[Walk]:
        yield from self.row_faces()
        yield from self.col_faces()

    def row_faces(self) -> Iterator[Walk]:
        return _translates(self.row_bases, self.v)

    def col_faces(self) -> Iterator[Walk]:
        return _translates(self.col_bases, self.v)

    @property
    def face_count(self) -> int:
        return self.v * (len(self.row_bases) + len(self.col_bases))


def _reverse_walk(walk: Walk) -> Walk:
    return (walk[0], *walk[:0:-1])


def _arc_counts(v: int, faces: Iterator[Walk]) -> bytearray:
    """Explicit per-arc counters, indexed u * v + w; saturates at 255."""
    counts = bytearray(v * v)
    for walk in faces:
        for a, b in zip(walk, walk[1:] + walk[:1]):
            if a == b:
                raise NotAnEmbeddingError(f"degenerate arc at vertex {a}")
            i = a * v + b
            if counts[i] < 255:
                counts[i] += 1
    return counts


def _check_arc_exactness(v: int, faces: Iterator[Walk]) -> None:
    counts = _arc_counts(v, faces)  # raises on a loop arc, so the diagonal is 0
    for u in range(v):
        for w in range(v):
            c = counts[u * v + w]
            if c != 1 and u != w:
                raise NotAnEmbeddingError(
                    f"arc ({u},{w}) lies on {c} faces, expected exactly 1"
                )


def build_face_set(H: HeffterArray, pair: CompatibleOrderingPair) -> FaceSet:
    """Assemble the 2-colored face set of K_v from H and its orderings.

    Row parts are developed forward and column parts reversed; if that
    convention fails arc-exactness the flipped one (rows reversed) is tried,
    and the survivor is recorded on the returned FaceSet.  A part that is
    not simple collapses a face to a walk with a repeated vertex and is
    rejected.
    """
    if pair.omega_r.array != H or pair.omega_c.array != H:
        raise OrderingMismatchError("ordering pair belongs to a different array")
    v = H.modulus
    try:
        row_bases = tuple(_base_walk(p, v) for p in pair.omega_r.element_parts())
        col_bases = tuple(_base_walk(p, v) for p in pair.omega_c.element_parts())
    except NotSimpleError as exc:
        raise NotAnEmbeddingError(f"non-simple part collapses a face: {exc}") from exc
    candidates = (
        FaceSet(v, row_bases, tuple(_reverse_walk(w) for w in col_bases), True),
        FaceSet(v, tuple(_reverse_walk(w) for w in row_bases), col_bases, False),
    )
    failure: NotAnEmbeddingError | None = None
    for face_set in candidates:
        try:
            _check_arc_exactness(v, face_set.faces())
            return face_set
        except NotAnEmbeddingError as exc:
            failure = exc
    raise NotAnEmbeddingError(
        f"no orientation convention covers every arc exactly once: {failure}"
    )


@dataclass(frozen=True)
class RotationSystem:
    """Cyclic neighbor successor at every vertex of K_v."""

    v: int
    successors: tuple[dict[int, int], ...]

    def rotation_cycle(self, u: int) -> Walk:
        """The single cycle of neighbors at vertex u."""
        succ = self.successors[u]
        return orbit(succ, next(iter(succ)))


def derive_rotations(F: FaceSet) -> RotationSystem:
    """Reconstruct vertex rotations from face corners.

    Consecutive arcs (a, u), (u, b) of a face set successor_u(a) = b.  Each
    successor map must be a permutation of the v-1 neighbors (else the faces
    are inconsistent) and must be a single cycle (else u is a pinch point
    and the complex is a pseudosurface, not a surface).
    """
    v = F.v
    succ: list[dict[int, int]] = [dict() for _ in range(v)]
    for walk in F.faces():
        k = len(walk)
        for idx, u in enumerate(walk):
            a = walk[idx - 1]
            b = walk[(idx + 1) % k]
            if a in succ[u]:
                raise InconsistentRotationError(
                    f"two faces define the corner after ({a},{u})"
                )
            succ[u][a] = b
    for u in range(v):
        if len(succ[u]) != v - 1 or len(set(succ[u].values())) != v - 1:
            raise InconsistentRotationError(
                f"successor map at vertex {u} is not a permutation of its neighbors"
            )
        length = len(orbit(succ[u], next(iter(succ[u]))))
        if length != v - 1:
            raise PinchPointError(
                f"rotation at vertex {u} splits (orbit {length} of {v - 1})"
            )
    return RotationSystem(v=v, successors=tuple(succ))


def genus_closed_form(n: int) -> int:
    """Genus of the biembedding of K_{6n+1} with 3-cycle and n-cycle faces.

    Evaluates g = 1 - [6n + 1 + C(6n+1, 2)(1/3 + 1/n - 1)] / 2 exactly.
    """
    v = 6 * n + 1
    edges = Fraction(v * (v - 1), 2)
    g = 1 - Fraction(1, 2) * (v + edges * (Fraction(1, 3) + Fraction(1, n) - 1))
    if g.denominator != 1 or g < 0:
        raise NotOrientableSurfaceError(f"closed form gives non-integral genus {g}")
    return int(g)


@dataclass(frozen=True)
class EmbeddingCertificate:
    """Outcome of certifying a face set as an orientable biembedding."""

    v: int
    num_row_faces: int
    num_col_faces: int
    row_face_len: int
    col_face_len: int
    vertices: int
    edges: int
    faces: int
    euler_characteristic: int
    genus: int
    arc_coverage_ok: bool
    edge_bicolor_ok: bool
    rotations_ok: bool
    genus_matches_formula: bool | None

    @property
    def all_ok(self) -> bool:
        return (
            self.arc_coverage_ok
            and self.edge_bicolor_ok
            and self.rotations_ok
            and self.genus_matches_formula is not False
        )


def certify(F: FaceSet) -> EmbeddingCertificate:
    """Exhaustively certify a face set and compute the genus of its surface.

    Re-expands every face: checks arc-exactness, the one-face-per-color
    property of every undirected edge, derives and validates all vertex
    rotations, and evaluates Euler's formula.  For 3 x n inputs the genus is
    also compared against the closed form.
    """
    v = F.v
    _check_arc_exactness(v, F.faces())
    derive_rotations(F)  # raises on pinch points / inconsistencies
    # Each undirected edge of K_v on exactly one face of each color.
    bicolor = _covers_each_pair_once(F.row_faces(), v) and _covers_each_pair_once(
        F.col_faces(), v
    )
    vertices = v
    edges = v * (v - 1) // 2
    faces = F.face_count
    euler = vertices - edges + faces
    if (2 - euler) % 2 != 0 or euler > 2:
        raise NotOrientableSurfaceError(
            f"Euler characteristic {euler} is not 2 - 2g for integer g >= 0"
        )
    genus = (2 - euler) // 2
    matches: bool | None = None
    if F.col_bases and len(F.col_bases[0]) == 3:
        matches = genus == genus_closed_form(len(F.row_bases[0]))
    return EmbeddingCertificate(
        v=v,
        num_row_faces=v * len(F.row_bases),
        num_col_faces=v * len(F.col_bases),
        row_face_len=len(F.row_bases[0]),
        col_face_len=len(F.col_bases[0]),
        vertices=vertices,
        edges=edges,
        faces=faces,
        euler_characteristic=euler,
        genus=genus,
        arc_coverage_ok=True,
        edge_bicolor_ok=bicolor,
        rotations_ok=True,
        genus_matches_formula=matches,
    )
