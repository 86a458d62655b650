"""Cyclic cycle systems and orientable biembeddings from Heffter arrays.

A simply ordered zero-sum part (a_1, ..., a_k) of a half-set of Z_v develops
into the base cycle (0, s_1, ..., s_{k-1}) of its partial sums plus all v
translates; over a full Heffter system the translated cycles decompose the
edge set of K_v exactly once per pair.  A :class:`CycleSystem` stores only
the base walks and builds the translates when it is iterated.

For a Heffter array with compatible orderings, the row base walks are
traversed forward and the column base walks in reverse; a :class:`FaceSet`
is that pair of cycle systems, one per face color.  Forward row walks
realize each arc whose vertex difference lies in the half-set exactly once,
and reversed column walks realize the complementary arcs, so every directed
edge of K_v is on exactly one face and every undirected edge is on one face
of each color.  Reading off the corner successor at each vertex yields the
rotation system; the embedding lives on a genuine orientable surface
exactly when every vertex rotation is a single (v-1)-cycle, and its genus
follows from Euler's formula V - E + F = 2 - 2g.

Every face set here is closed under x -> x + 1, so each check reduces to the
m + n base walks (the current-graph argument; Gross and Tucker, *Topological
Graph Theory*, ch. 4; Archdeacon, Electron. J. Combin. 22 (2015) #P1.74).
The translate by t of a base step a -> b is the arc (a + t, b + t), so arc
(u, w) lies on as many faces as there are base steps of difference w - u:
arcs are exact iff the base steps hit each nonzero residue of Z_v once, and
a color covers each pair once iff the steps {d, -d} hit each class once.
A corner a -> u -> b translates to the corner a - u -> 0 -> b - u at vertex
0, and succ_{u+t}(a+t) = succ_u(a) + t, so the rotation at u is the one at 0
moved by +u and one (v-1)-cycle at vertex 0 certifies every vertex.
:func:`certify` therefore runs in O(mn + v) time and memory;
:func:`certify_exhaustive` expands all v(m+n) faces and is kept as its
independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Sequence

from .core import HeffterArray
from .errors import (
    InconsistentRotationError,
    NotAnEmbeddingError,
    NotHeffterError,
    NotSimpleError,
    NotOrientableSurfaceError,
    OrderingMismatchError,
    OutOfRangeError,
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
    """Base walks on Z_v; the cycles are their v translates x -> x + t.

    Iterating the system yields the translates of each base walk in order,
    base by base, without storing them.
    """

    v: int
    bases: tuple[Walk, ...]

    @property
    def k(self) -> int:
        """Length of every cycle."""
        return len(self.bases[0])

    @property
    def cycles(self) -> tuple[Walk, ...]:
        """All v * len(bases) cycles, expanded."""
        return tuple(self)

    def __iter__(self) -> Iterator[Walk]:
        v = self.v
        for base in self.bases:
            for t in range(v):
                yield tuple((x + t) % v for x in base)


def develop_cycles(parts: Sequence[Sequence[int]], v: int) -> CycleSystem:
    """Develop a simply ordered Heffter system into a cyclic k-cycle system.

    The parts must partition a half-set of Z_v, share one length k, each sum
    to 0 mod v, and each be simply ordered.  The result keeps one base walk
    (0, s_1, ..., s_{k-1}) per part; its v translates are all distinct.  A
    translate fixing a k-cycle has order dividing gcd(k, v) = 1, because the
    half-set count makes k divide (v-1)/2; and translates of different bases
    differ, since their difference sets are disjoint.
    """
    if not parts:
        raise NotHeffterError("no parts given")
    lengths = {len(p) for p in parts}
    if len(lengths) != 1:
        raise NotHeffterError(f"parts have mixed sizes {sorted(lengths)}")
    if not is_half_set(chain.from_iterable(parts), v):
        raise NotHeffterError(f"parts do not partition a half-set of Z_{v}")
    return CycleSystem(v, tuple(_base_walk(p, v) for p in parts))


def _step_counts(v: int, bases: Sequence[Walk]) -> list[int]:
    """counts[d] = the number of base steps a -> b, over all bases, with b - a = d mod v."""
    counts = [0] * v
    for base in bases:
        for a, b in zip(base, base[1:] + base[:1]):
            counts[(b - a) % v] += 1
    return counts


def exact_pair_coverage(system: CycleSystem) -> bool:
    """True iff every pair of Z_v is an edge of exactly one cycle.

    The translates of a step of difference d cover each pair {u, u + d} once,
    so the pairs of class {d, -d} are covered counts[d] + counts[-d] times;
    a zero step is a loop, not an edge.
    """
    v = system.v
    counts = _step_counts(v, system.bases)
    return counts[0] == 0 and all(counts[d] + counts[v - d] == 1 for d in range(1, v // 2 + 1))


def is_translation_closed(system: CycleSystem) -> bool:
    """True iff translating any cycle by +1 mod v gives another cycle.

    Always true: the cycles are the translates base + t, and
    (base + t) + 1 = base + (t + 1 mod v) is one of them.
    """
    return True


@dataclass(frozen=True)
class FaceSet:
    """The two face colors of the embedding: row faces and column faces.

    Row faces (length n) are one color, column faces (length m) the other;
    each color is the cycle system of its base faces.
    """

    rows: CycleSystem
    cols: CycleSystem

    @property
    def v(self) -> int:
        return self.rows.v

    def faces(self) -> Iterator[Walk]:
        return chain(self.rows, self.cols)

    @property
    def face_count(self) -> int:
        return self.v * (len(self.rows.bases) + len(self.cols.bases))


def _reverse_walk(walk: Walk) -> Walk:
    return (walk[0], *walk[:0:-1])


def _check_arc_exactness(F: FaceSet) -> None:
    """Every arc (u, w), u != w, on exactly one face, read off the base steps."""
    v = F.v
    for base in chain(F.rows.bases, F.cols.bases):
        for a, b in zip(base, base[1:] + base[:1]):
            if a == b:
                raise NotAnEmbeddingError(f"degenerate arc at vertex {a}")
    counts = _step_counts(v, F.rows.bases + F.cols.bases)
    for d in range(1, v):
        if counts[d] != 1:
            raise NotAnEmbeddingError(
                f"arc (0,{d}) lies on {counts[d]} faces, expected exactly 1"
            )


def build_face_set(H: HeffterArray, pair: CompatibleOrderingPair) -> FaceSet:
    """Assemble the 2-colored face set of K_v from H and its orderings.

    Row parts are developed forward and column parts reversed.  This is the
    only convention needed: reversing a face negates its arc differences, so
    reversing the rows instead gives the same multiset {x, -x : x in H}, and
    in a translation-closed face set the number of faces on arc (a, b) is
    the multiplicity of b - a in that multiset.  Arc-exactness is left to
    :func:`certify`.  A part that is not simple collapses a face to a walk
    with a repeated vertex and is rejected.
    """
    if pair.omega_r.array != H or pair.omega_c.array != H:
        raise OrderingMismatchError("ordering pair belongs to a different array")
    v = H.modulus
    try:
        rows = tuple(_base_walk(p, v) for p in pair.omega_r.element_parts())
        cols = tuple(_reverse_walk(_base_walk(p, v)) for p in pair.omega_c.element_parts())
    except NotSimpleError as exc:
        raise NotAnEmbeddingError(f"non-simple part collapses a face: {exc}") from exc
    return FaceSet(CycleSystem(v, rows), CycleSystem(v, cols))


@dataclass(frozen=True)
class RotationSystem:
    """Vertex rotations of a translation-closed embedding of K_v.

    Only the successor map at vertex 0 is stored; the map at u is its
    translate, succ_u(a) = succ_0(a - u) + u.
    """

    v: int
    at_zero: dict[int, int]

    def rotation_cycle(self, u: int) -> Walk:
        """The single cycle of neighbors at vertex u."""
        v = self.v
        return tuple((x + u) % v for x in orbit(self.at_zero, next(iter(self.at_zero))))


def derive_rotations(F: FaceSet) -> RotationSystem:
    """Reconstruct the vertex rotations from the corners of the base faces.

    A corner a -> u -> b of a face sets successor_u(a) = b; moved to vertex
    0 it sets successor_0(a - u) = b - u, and every translate of the corner
    sets the same relative successor.  The map at vertex 0 must be a
    permutation of the v-1 neighbors (else the faces are inconsistent) and a
    single cycle (else every vertex is a pinch point and the complex is a
    pseudosurface, not a surface).
    """
    v = F.v
    succ: dict[int, int] = {}
    for walk in chain(F.rows.bases, F.cols.bases):
        k = len(walk)
        for idx, u in enumerate(walk):
            a = (walk[idx - 1] - u) % v
            if a in succ:
                raise InconsistentRotationError(
                    f"two faces define the corner after ({a},0)"
                )
            succ[a] = (walk[(idx + 1) % k] - u) % v
    # Keys are the negated base steps and values the steps, so v-1 distinct
    # nonzero keys (no loop step) make the values the v-1 neighbors as well.
    if len(succ) != v - 1 or 0 in succ:
        raise InconsistentRotationError(
            "successor map at vertex 0 is not a permutation of its neighbors"
        )
    length = len(orbit(succ, next(iter(succ))))
    if length != v - 1:
        raise PinchPointError(
            f"rotation at vertex 0 splits (orbit {length} of {v - 1})"
        )
    return RotationSystem(v=v, at_zero=succ)


def genus_closed_form(n: int) -> int:
    """Genus of the biembedding of K_{6n+1} with 3-cycle and n-cycle faces.

    With v = 6n + 1 there are E = 3nv edges and F = nv + 3v faces, so
    chi = v - 3nv + (n+3)v = v(4 - 2n) and g = 1 - chi/2 = 1 + (6n+1)(n-2).
    Defined for n >= 3, the sizes for which an H(3,n) exists.
    """
    if n < 3:
        raise OutOfRangeError(f"the genus formula needs n >= 3, got {n}")
    return 1 + (6 * n + 1) * (n - 2)


@dataclass(frozen=True)
class EmbeddingCertificate:
    """Outcome of certifying a face set as an orientable biembedding.

    Arc-exactness and the vertex rotations have no flag: :func:`certify`
    raises when either fails.
    """

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
    edge_bicolor_ok: bool
    genus_matches_formula: bool | None

    @property
    def all_ok(self) -> bool:
        return self.edge_bicolor_ok and self.genus_matches_formula is not False


def _certificate(F: FaceSet, bicolor: bool) -> EmbeddingCertificate:
    """Euler data of a face set whose arcs and rotations have been checked."""
    v = F.v
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
    if F.cols.bases and F.cols.k == 3:
        matches = genus == genus_closed_form(F.rows.k)
    return EmbeddingCertificate(
        v=v,
        num_row_faces=v * len(F.rows.bases),
        num_col_faces=v * len(F.cols.bases),
        row_face_len=F.rows.k,
        col_face_len=F.cols.k,
        vertices=vertices,
        edges=edges,
        faces=faces,
        euler_characteristic=euler,
        genus=genus,
        edge_bicolor_ok=bicolor,
        genus_matches_formula=matches,
    )


def certify(F: FaceSet) -> EmbeddingCertificate:
    """Certify a face set from its base faces and compute the genus of its surface.

    Checks arc-exactness, the vertex rotations and the one-face-per-color
    property of every undirected edge on the base steps and corners (see
    the module docstring), then evaluates Euler's formula.  For 3 x n inputs
    the genus is also compared against the closed form.  Raises what
    :func:`certify_exhaustive` raises, in the same order, with witnesses
    given at vertex 0.
    """
    _check_arc_exactness(F)
    derive_rotations(F)  # raises on pinch points / inconsistencies
    bicolor = exact_pair_coverage(F.rows) and exact_pair_coverage(F.cols)
    return _certificate(F, bicolor)


# The exhaustive oracle: every check on all v(m+n) expanded faces, O(v^2).


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


def _successors_exhaustive(F: FaceSet) -> tuple[dict[int, int], ...]:
    """The successor map at every vertex, read off every corner of every face."""
    v = F.v
    succ: list[dict[int, int]] = [dict() for _ in range(v)]
    for walk in F.faces():
        k = len(walk)
        for idx, u in enumerate(walk):
            a = walk[idx - 1]
            if a in succ[u]:
                raise InconsistentRotationError(
                    f"two faces define the corner after ({a},{u})"
                )
            succ[u][a] = walk[(idx + 1) % k]
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
    return tuple(succ)


def _pair_coverage_exhaustive(system: CycleSystem) -> bool:
    """:func:`exact_pair_coverage` by listing the edges of every cycle."""
    edges: set[tuple[int, int]] = set()
    for walk in system:
        for a, b in zip(walk, walk[1:] + walk[:1]):
            edge = (a, b) if a < b else (b, a)
            if edge in edges:
                return False
            edges.add(edge)
    return len(edges) == system.v * (system.v - 1) // 2


def certify_exhaustive(F: FaceSet) -> EmbeddingCertificate:
    """:func:`certify` by full expansion of every face; the slow oracle.

    Counts every arc of every face in a v x v table, builds the successor
    map at every vertex, and counts the undirected edges of each color.
    """
    v = F.v
    counts = _arc_counts(v, F.faces())  # raises on a loop arc, so the diagonal is 0
    for u in range(v):
        for w in range(v):
            c = counts[u * v + w]
            if c != 1 and u != w:
                raise NotAnEmbeddingError(
                    f"arc ({u},{w}) lies on {c} faces, expected exactly 1"
                )
    _successors_exhaustive(F)
    bicolor = _pair_coverage_exhaustive(F.rows) and _pair_coverage_exhaustive(F.cols)
    return _certificate(F, bicolor)
