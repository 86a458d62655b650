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
:func:`derive_rotations` is the one arc check: arcs are exact iff the base
steps of both colors hit each nonzero residue d of Z_v once and none is 0.
A color covers each pair once iff its steps {d, -d} hit each class once.
A corner a -> u -> b translates to the corner a - u -> 0 -> b - u at vertex
0, and succ_{u+t}(a+t) = succ_u(a) + t, so the rotation at u is the one at
0 moved by +u and one (v-1)-cycle at vertex 0 certifies every vertex;
:func:`certify` is those rotations plus Euler's formula.  The step counts
are kept only for the differences that occur, and every scan stops within
them, so both take time and memory in proportion to the base faces (2mn
steps for an m x n array), not to v.  Their independent oracle, which
expands all v(m+n) faces and computes the Euler data from them, lives with
the tests in ``tests/oracles.py``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Mapping, Sequence, TypeVar

from .core import HeffterArray, _check_type, _grid
from .errors import (
    InvalidEntryError,
    ModulusMismatchError,
    NotAnEmbeddingError,
    NotHeffterError,
    NotSimpleError,
    OutOfRangeError,
    PinchPointError,
)
from .modmath import _partial_sums, check_modulus, is_half_set
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


def _line_walk(sums: Sequence[int], backward: bool, v: int) -> Walk:
    """Base walk of a zero-sum line; run backward, its partial sums are -s_{k-1}, ..., -s_1, 0."""
    return (0, *(-s % v for s in sums[-2::-1])) if backward else (0, *sums[:-1])


@dataclass(frozen=True)
class CycleSystem:
    """Base walks on Z_v; the cycles are their v translates x -> x + t.

    Iterating the system yields the translates of each base walk in order,
    base by base, without storing them.  v must be an odd int >= 3, and the
    bases sequences of ints, stored as a tuple of tuples.
    """

    v: int
    bases: tuple[Walk, ...]

    def __post_init__(self) -> None:
        check_modulus(self.v)
        bases = _grid(self.bases, "bases")
        if any(type(x) is not int for x in chain.from_iterable(bases)):
            raise InvalidEntryError("bases must be sequences of integers")
        object.__setattr__(self, "bases", bases)

    @property
    def k(self) -> int:
        """Length of every cycle; 0 for a system with no base or with bases of mixed lengths."""
        lengths = {len(base) for base in self.bases}
        return lengths.pop() if len(lengths) == 1 else 0

    def __iter__(self) -> Iterator[Walk]:
        v = self.v
        for base in self.bases:
            for t in range(v):
                yield tuple((x + t) % v for x in base)


def develop_cycles(parts: Iterable[Iterable[int]], v: int) -> CycleSystem:
    """Develop a simply ordered Heffter system into a cyclic k-cycle system.

    The parts must partition a half-set of Z_v, share one length k, each sum
    to 0 mod v, and each be simply ordered.  The result keeps one base walk
    (0, s_1, ..., s_{k-1}) per part; its v translates are all distinct.  A
    translate fixing a k-cycle has order dividing gcd(k, v) = 1, because the
    half-set count makes k divide (v-1)/2; and translates of different bases
    differ, since their difference sets are disjoint.  Parts are read once.
    """
    parts = _grid(parts, "parts")
    if not parts:
        raise NotHeffterError("no parts given")
    lengths = {len(p) for p in parts}
    if len(lengths) != 1:
        raise NotHeffterError(f"parts have mixed sizes {sorted(lengths)}")
    if not is_half_set(chain.from_iterable(parts), v):
        raise NotHeffterError(f"parts do not partition a half-set of Z_{v}")
    walks = []
    for part in parts:
        sums = _partial_sums(part, v)
        if sums[-1] != 0:
            raise NotHeffterError(f"part {part} does not sum to 0 mod {v}")
        if len(set(sums)) != len(sums):
            raise NotSimpleError(f"part {part} has repeated partial sums mod {v}")
        walks.append(_line_walk(sums, False, v))
    return CycleSystem(v, tuple(walks))


def _steps(v: int, bases: Sequence[Walk]) -> list[int]:
    """The difference b - a mod v of every base step a -> b, over all bases."""
    return [(b - a) % v for base in bases for a, b in zip(base, base[1:] + base[:1])]


def _pairs_once(steps: list[int], v: int) -> bool:
    """Each pair class {d, -d} hit by one step, none by a zero step (a loop, not an edge).

    The translates of a step of difference d cover each pair {u, u + d} once.
    With no zero step, the (v-1)/2 classes are each hit once iff there are as
    many steps and their classes are distinct.
    """
    h = v // 2
    return 0 not in steps and len({d if d <= h else v - d for d in steps}) == len(steps) == h


def exact_pair_coverage(system: CycleSystem) -> bool:
    """True iff every pair of Z_v is an edge of exactly one cycle.

    Raises InvalidEntryError when ``system`` is not a CycleSystem.
    """
    _check_type(system, CycleSystem)
    return _pairs_once(_steps(system.v, system.bases), system.v)


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
    each color is the cycle system of its base faces, both mod one v.
    """

    rows: CycleSystem
    cols: CycleSystem

    def __post_init__(self) -> None:
        _check_type(self.rows, CycleSystem)
        _check_type(self.cols, CycleSystem)
        if self.rows.v != self.cols.v:
            raise ModulusMismatchError(f"row faces mod {self.rows.v}, column faces mod {self.cols.v}")

    @property
    def v(self) -> int:
        return self.rows.v

    @property
    def face_count(self) -> int:
        return self.v * (len(self.rows.bases) + len(self.cols.bases))


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


def derive_rotations(F: FaceSet) -> CycleSystem:
    """Check that every arc lies on one face, then reconstruct the vertex rotations.

    Arcs are exact iff the base steps are v-1 distinct nonzero residues, and
    then the successor map at vertex 0, successor_0(a - u) = b - u for each
    base corner a -> u -> b, is a permutation: its keys are the negated steps
    and its values the steps (module docstring).  It must also be a single
    cycle, else every vertex is a pinch point and the complex is a
    pseudosurface, not a surface.  That cycle is the one base walk of the
    result, so its translate by u, the u-th cycle, is the rotation at u.
    Raises InvalidEntryError when F is not a FaceSet, then NotAnEmbeddingError
    for a zero step or the least d whose arc (0, d) is not on one face, then
    PinchPointError.
    """
    _check_type(F, FaceSet)
    v = F.v
    bases = F.rows.bases + F.cols.bases
    steps = _steps(v, bases)
    arcs = Counter(steps)
    if arcs[0]:
        raise NotAnEmbeddingError("degenerate arc at vertex 0")
    if not len(arcs) == len(steps) == v - 1:  # some d is not one step; each d before the least is one
        d = 1
        while arcs[d] == 1:
            d += 1
        raise NotAnEmbeddingError(f"arc (0,{d}) lies on {arcs[d]} faces, expected exactly 1")
    succ = {(walk[idx - 1] - u) % v: (walk[(idx + 1) % len(walk)] - u) % v
            for walk in bases for idx, u in enumerate(walk)}
    rotation = orbit(succ, next(iter(succ)))
    if len(rotation) != v - 1:
        raise PinchPointError(
            f"rotation at vertex 0 splits (orbit {len(rotation)} of {v - 1})"
        )
    return CycleSystem(v, (rotation,))


def genus_closed_form(n: int) -> int:
    """Genus of the biembedding of K_{6n+1} with 3-cycle and n-cycle faces.

    With v = 6n + 1 there are E = 3nv edges and F = nv + 3v faces, so
    chi = v - 3nv + (n+3)v = v(4 - 2n) and g = 1 - chi/2 = 1 + (6n+1)(n-2).
    Defined for int n >= 3, the sizes for which an H(3,n) exists.
    """
    if type(n) is not int or n < 3:
        raise OutOfRangeError(f"the genus formula needs n >= 3, got {n!r}")
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


def certify(F: FaceSet) -> EmbeddingCertificate:
    """Certify a face set from its base faces and compute the genus of its surface.

    :func:`derive_rotations` checks the arcs and the rotations; then Euler's
    formula gives the genus, compared with the closed form for 3 x n inputs,
    and the row steps' pair condition is the one-face-per-color flag.  The
    genus needs no check: once every arc lies on one face and every rotation
    is one cycle, the faces are the face-tracing orbits of a rotation system
    of the connected K_v, a closed orientable surface, so chi = 2 - 2g,
    g >= 0.  Raises the exceptions of :func:`derive_rotations`, which are the
    oracle's in the oracle's order, with witnesses at vertex 0.
    """
    derive_rotations(F)
    v = F.v
    edges = v * (v - 1) // 2
    euler = v - edges + F.face_count
    genus = (2 - euler) // 2
    matches: bool | None = None
    if F.cols.k == 3 and v == 6 * F.rows.k + 1:  # a 3 x n face set; k = 0 for no base or mixed lengths
        matches = genus == genus_closed_form(F.rows.k)
    return EmbeddingCertificate(
        num_row_faces=v * len(F.rows.bases),
        num_col_faces=v * len(F.cols.bases),
        vertices=v,
        edges=edges,
        faces=F.face_count,
        euler_characteristic=euler,
        genus=genus,
        # cols[d] + cols[-d] = 2 - rows[d] - rows[-d] once arcs are exact: the colors pass together.
        edge_bicolor_ok=_pairs_once(_steps(v, F.rows.bases), v),
        genus_matches_formula=matches,
    )
