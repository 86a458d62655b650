"""Slow, independent oracles for the quotient checks of :mod:`heffter.embedding`.

Every check on all v(m+n) expanded faces, O(v^2): the differential tests
compare :func:`heffter.embedding.certify` and its helpers against these.
"""

from __future__ import annotations

from typing import Iterator

from heffter.embedding import CycleSystem, EmbeddingCertificate, FaceSet, Walk, _certificate
from heffter.errors import InconsistentRotationError, NotAnEmbeddingError, PinchPointError
from heffter.orderings import orbit


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
