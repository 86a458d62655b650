"""Cyclic cycle systems and orientable biembeddings from Heffter arrays.

A simply ordered zero-sum part (a_1, ..., a_k) of a half-set of Z_v develops
into the base cycle (0, s_1, ..., s_{k-1}) of its partial sums plus all v
translates; over a full Heffter system the translated cycles decompose the
edge set of K_v exactly once per pair.  A :class:`CycleSystem` stores only
the base walks and builds the translates when it is iterated.

For a Heffter array with compatible orderings, each base walk is read off
the partial sums :func:`~heffter.core.verify_heffter` reports for its line,
run as its ordering runs; the row walks are traversed forward and the column
walks in reverse, and a :class:`FaceSet` is that pair of cycle systems, one
per face color.  Forward row walks realize each arc whose vertex difference
lies in the half-set exactly once, and reversed column walks realize the
complementary arcs, so every directed edge of K_v is on exactly one face and
every undirected edge is on one face of each color.  Reading off the corner
successor at each vertex yields the rotation system; the embedding lives on
a genuine orientable surface exactly when every vertex rotation is a single
(v-1)-cycle, and its genus follows from Euler's formula V - E + F = 2 - 2g.

Every face set here is closed under x -> x + 1, so each check reduces to the
m + n base walks (the current-graph argument; Gross and Tucker, *Topological
Graph Theory*, ch. 4; Archdeacon, Electron. J. Combin. 22 (2015) #P1.74).
The translate by t of a base step a -> b is the arc (a + t, b + t), so arc
(u, w) lies on as many faces as there are base steps of difference w - u.
:func:`certify` counts the steps once per color, rows[d] and cols[d]: arcs
are exact iff rows[d] + cols[d] = 1 for each nonzero residue d of Z_v (and
no step is 0), and a color covers each pair once iff its steps {d, -d} hit
each class once.  A corner a -> u -> b translates to the corner
a - u -> 0 -> b - u at vertex 0, and succ_{u+t}(a+t) = succ_u(a) + t, so the
rotation at u is the one at 0 moved by +u and one (v-1)-cycle at vertex 0
certifies every vertex.  :func:`certify` therefore runs in O(mn + v) time
and memory.  Its independent oracle, which expands all v(m+n) faces, lives
with the tests in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Mapping, Sequence, TypeVar

from .core import HeffterArray
from .errors import (
    InconsistentRotationError,
    NotAnEmbeddingError,
    NotHeffterError,
    NotSimpleError,
    OutOfRangeError,
    PinchPointError,
)
from .modmath import _partial_sums, is_half_set
from .orderings import _checked_lines

Walk = tuple[int, ...]
T = TypeVar("T")


def orbit(perm: Mapping[T, T], start: T) -> tuple[T, ...]:
    """The orbit of ``start`` under repeated application of ``perm``."""
    out = [start]
    cur = perm[start]
    while cur != start:
        out.append(cur)
        cur = perm[cur]
    return tuple(out)


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


def _pairs_once(counts: Sequence[int]) -> bool:
    """Each pair class {d, -d} hit by one step, none by a zero step (a loop, not an edge).

    The translates of a step of difference d cover each pair {u, u + d} once.
    """
    v = len(counts)
    return counts[0] == 0 and all(counts[d] + counts[v - d] == 1 for d in range(1, v // 2 + 1))


def exact_pair_coverage(system: CycleSystem) -> bool:
    """True iff every pair of Z_v is an edge of exactly one cycle."""
    return _pairs_once(_step_counts(system.v, system.bases))


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


def _line_walk(sums: Sequence[int], backward: bool, v: int) -> Walk:
    """Base walk of a zero-sum line; run backward, its partial sums are -s_{k-1}, ..., -s_1, 0."""
    return (0, *(-s % v for s in sums[-2::-1])) if backward else (0, *sums[:-1])


def build_face_set(H: HeffterArray) -> FaceSet:
    """Assemble the 2-colored face set of K_v from H and its compatible orderings.

    Each base walk is read off the partial sums of :func:`verify_heffter`,
    with its line run and checked as in :func:`compatible_orderings`.  Row
    walks are developed forward and column walks reversed.  This is the only
    convention needed: reversing a face negates its arc differences, so
    reversing the rows instead gives the same multiset {x, -x : x in H}, and
    in a translation-closed face set the number of faces on arc (a, b) is
    the multiplicity of b - a in that multiset.  Arc-exactness is left to
    :func:`certify`.
    """
    report, row_from, col_from = _checked_lines(H)
    v = H.modulus
    rows = tuple(_line_walk(s, i >= row_from, v) for i, s in enumerate(report.row_partial_sums))
    cols = tuple(_line_walk(s, j >= col_from, v) for j, s in enumerate(report.col_partial_sums))
    return FaceSet(CycleSystem(v, rows), CycleSystem(v, tuple((0, *w[:0:-1]) for w in cols)))


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

    num_row_faces: int
    num_col_faces: int
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
    """Euler data of a face set whose arcs and rotations have been checked.

    The genus needs no check: once every arc lies on one face and every
    rotation is one cycle, the faces are the face-tracing orbits of a rotation
    system of the connected K_v, a closed orientable surface, so chi = 2 - 2g, g >= 0.
    """
    v = F.v
    edges = v * (v - 1) // 2
    faces = F.face_count
    euler = v - edges + faces
    genus = (2 - euler) // 2
    matches: bool | None = None
    if F.cols.bases and F.cols.k == 3:
        matches = genus == genus_closed_form(F.rows.k)
    return EmbeddingCertificate(
        num_row_faces=v * len(F.rows.bases),
        num_col_faces=v * len(F.cols.bases),
        vertices=v,
        edges=edges,
        faces=faces,
        euler_characteristic=euler,
        genus=genus,
        edge_bicolor_ok=bicolor,
        genus_matches_formula=matches,
    )


def certify(F: FaceSet) -> EmbeddingCertificate:
    """Certify a face set from its base faces and compute the genus of its surface.

    Reads every step check off one step count per color (module docstring):
    a zero step is a degenerate arc, rows[d] + cols[d] faces lie on arc (0, d),
    and each table's pair condition is the one-face-per-color flag.  Then the
    rotations are checked on the base corners and Euler's formula gives the
    genus, compared with the closed form for 3 x n inputs.  Raises the
    oracle's exceptions in the oracle's order, with witnesses at vertex 0.
    """
    v = F.v
    rows = _step_counts(v, F.rows.bases)
    cols = _step_counts(v, F.cols.bases)
    if rows[0] or cols[0]:
        raise NotAnEmbeddingError("degenerate arc at vertex 0")
    for d in range(1, v):
        if rows[d] + cols[d] != 1:
            raise NotAnEmbeddingError(
                f"arc (0,{d}) lies on {rows[d] + cols[d]} faces, expected exactly 1"
            )
    derive_rotations(F)  # raises on pinch points / inconsistencies
    return _certificate(F, _pairs_once(rows) and _pairs_once(cols))
