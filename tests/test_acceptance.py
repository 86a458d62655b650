"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to stream the lines.
Stated runtime budgets are enforced (best-of-N timing for the
sub-millisecond criterion, wall clock for the batch ones).
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from typing import Iterator

import pytest

from heffter.core import is_simple_array, reorder_columns, verify_heffter
from heffter.embedding import (
    build_face_set,
    certify,
    derive_rotations,
    develop_cycles,
    exact_pair_coverage,
    genus_closed_form,
    is_translation_closed,
)
from heffter.h3 import (
    construct_raw_h3,
    corrected_row_sums,
    predicted_row_sums,
    simple_h3,
    standard_reordering,
    table_errata,
)
from heffter.modmath import canon, is_half_set, is_simple, partial_sums
from heffter.orderings import compatible_orderings
from heffter.search import (
    SearchConfig,
    brute_force_oracle,
    find_simple_column_permutation,
    generate_heffter,
)
from oracles import composition_orbit, ordering_parts

H35 = ((6, 7, -10, -4, 1), (-9, 5, 2, -11, 13), (3, -12, 8, 15, -14))
H38 = (
    (-13, -11, 6, 3, 10, -8, 14, -1),
    (4, -7, 17, 19, 5, -16, -2, -20),
    (9, 18, -23, -22, -15, 24, -12, 21),
)
H38_REORDERED = (
    (-13, -11, -8, -1, 10, 6, 3, 14),
    (4, -7, -16, -20, 5, 17, 19, -2),
    (9, 18, 24, 21, -15, -23, -22, -12),
)
H38_ROW_SUMS = (
    {36, 25, 17, 16, 26, 32, 35, 0},
    {4, 46, 30, 10, 15, 32, 2, 0},
    {9, 27, 2, 23, 8, 34, 12, 0},
)


@contextmanager
def criterion(number: int, description: str) -> Iterator[None]:
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] criterion {number} ({description}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"[ACCEPTANCE] criterion {number} ({description}): PASS  [{elapsed:.2f}s]")


def test_criterion_1_golden_reproduction() -> None:
    with criterion(1, "golden reproduction of the published arrays"):
        assert construct_raw_h3(5).cells == H35
        assert construct_raw_h3(8).cells == H38
        assert simple_h3(8).cells == H38_REORDERED
        H = simple_h3(8)
        for i in range(3):
            assert set(partial_sums(H.row(i), 49)) == H38_ROW_SUMS[i]

        # Budget: < 1 ms for the whole reproduction (best of 5 runs).
        def run() -> None:
            construct_raw_h3(5)
            construct_raw_h3(8)
            Hp = simple_h3(8)
            for i in range(3):
                partial_sums(Hp.row(i), 49)

        best = min(_timed(run) for _ in range(5))
        assert best < 1e-3, f"golden reproduction took {best * 1e3:.3f} ms"


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_2_theorem_at_scale() -> None:
    with criterion(2, "simple H(3,n) verifies for every 3 <= n <= 1000"):
        t0 = time.perf_counter()
        for n in range(3, 1001):
            H = simple_h3(n)
            report = verify_heffter(H)
            assert report.is_heffter, f"axioms fail at n={n}"
            assert report.is_simple, f"simplicity fails at n={n}"
        assert time.perf_counter() - t0 < 10.0


def test_criterion_3_table_conformance() -> None:
    with criterion(3, "printed partial-sum tables conform for n in 16..40"):
        for n in range(16, 41):
            H = simple_h3(n)
            v = H.modulus
            for i in (1, 2, 3):
                sums = partial_sums(H.row(i - 1), v)
                # The distinctness guarantee holds unconditionally.
                assert len(set(sums)) == len(sums), (n, i)
                actual = frozenset(sums)
                predicted = predicted_row_sums(n, i)
                missing, spurious = table_errata(n, i)
                assert corrected_row_sums(n, i) == actual, (n, i)
                # Every deviation of the printed table is a documented erratum.
                assert actual - predicted <= missing, (n, i)
                assert predicted - actual <= spurious, (n, i)


def test_criterion_4_compatible_orderings() -> None:
    with criterion(4, "composition is a single 3n-cycle for 3 <= n <= 200"):
        t0 = time.perf_counter()
        cycles = {n: compatible_orderings(simple_h3(n)).composition_cycle for n in range(3, 201)}
        assert time.perf_counter() - t0 < 2.0
        # A walk of 3n steps always has 3n cells; the oracle is outside the budget.
        for n, cycle in cycles.items():
            assert len(set(cycle)) == 3 * n, n
            assert cycle == composition_orbit(*ordering_parts(3, n)), n


def test_criterion_5_biembedding_certification() -> None:
    with criterion(5, "orientable biembedding certified for 3 <= n <= 1000"):
        t0 = time.perf_counter()
        expected_genus = {3: 20, 4: 51, 5: 94}
        for n in range(3, 1001):
            H = simple_h3(n)
            v = H.modulus
            face_set = build_face_set(H)
            if n <= 30:
                rotations = derive_rotations(face_set)
                for u in range(v):
                    assert len(rotations.rotation_cycle(u)) == v - 1
            cert = certify(face_set)
            assert cert.all_ok
            assert cert.edges == (6 * n + 1) * 3 * n
            assert cert.genus == genus_closed_form(n)
            if n in expected_genus:
                assert cert.genus == expected_genus[n]
        assert time.perf_counter() - t0 < 30.0


def test_criterion_5_certifies_n_10000_within_a_second() -> None:
    with criterion(5, "biembedding of K_60001 (n = 10^4) certified in under 1 s"):
        n = 10**4
        H = simple_h3(n)
        face_set = build_face_set(H)
        t0 = time.perf_counter()
        cert = certify(face_set)
        elapsed = time.perf_counter() - t0
        assert cert.all_ok and cert.vertices == 60001
        assert cert.genus == genus_closed_form(n)
        assert elapsed < 1.0, f"certify took {elapsed:.2f} s"


def test_criterion_6_cycle_systems() -> None:
    with criterion(6, "developed cycle systems cover each pair once, n in 3..12"):
        t0 = time.perf_counter()
        for n in range(3, 13):
            H = simple_h3(n)
            v = H.modulus
            for parts in ([H.row(i) for i in range(3)], [H.column(j) for j in range(H.n)]):
                system = develop_cycles(parts, v)
                assert exact_pair_coverage(system), n
                assert is_translation_closed(system), n
                # Independent pair count: every edge of K_v exactly once.
                seen = set()
                for cycle in system.cycles:
                    for idx, a in enumerate(cycle):
                        b = cycle[(idx + 1) % len(cycle)]
                        edge = (min(a, b), max(a, b))
                        assert edge not in seen, n
                        seen.add(edge)
                assert len(seen) == v * (v - 1) // 2
        assert time.perf_counter() - t0 < 5.0


def test_criterion_7_search_parity() -> None:
    with criterion(7, "H(5,n) generation and simple reordering, oracle parity"):
        t0 = time.perf_counter()
        generated = {}
        for n in (3, 4, 5, 6):
            H = generate_heffter(5, n)
            assert verify_heffter(H).is_heffter
            generated[n] = H
            outcome = find_simple_column_permutation(H)
            assert outcome.permutation is not None, f"no reordering for H(5,{n})"
            reordered = reorder_columns(H, outcome.permutation)
            assert verify_heffter(reordered).is_heffter
            assert is_simple_array(reordered)
        # Pruned search parity with the complete oracle on n <= 8 instances.
        parity_instances = list(generated.values()) + [
            construct_raw_h3(n) for n in (5, 6, 7, 8)
        ]
        for H in parity_instances:
            valid = brute_force_oracle(H)
            outcome = find_simple_column_permutation(H)
            if valid:
                assert outcome.permutation == valid[0]
            else:
                assert outcome.permutation is None
        assert time.perf_counter() - t0 < 60.0


def test_criterion_8_property_suites() -> None:
    with criterion(8, "randomized property suites"):
        rng = random.Random(20150825)

        # Reversal/rotation invariance on 1000 random zero-sum sequences.
        v = 49
        for _ in range(1000):
            k = rng.randint(1, 12)
            seq = [rng.choice([x for x in range(-24, 25) if x]) for _ in range(k)]
            total = (-sum(seq)) % v
            if total:
                seq.append(canon(total, v))
            rot = seq[1:] + seq[:1]
            assert is_simple(seq, v) == is_simple(rot, v)
            assert is_simple(seq, v) == is_simple(seq[::-1], v)

        # reorder_columns preserves the Heffter axioms: 500 random permutations.
        for _ in range(500):
            n = rng.randint(3, 50)
            H = simple_h3(n)
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            assert verify_heffter(reorder_columns(H, perm)).is_heffter

        # The half-set checker rejects every absolute-value-changing
        # single-element perturbation of the published example (negating an
        # element keeps a half-set and must stay accepted).
        entries = [x for row in H35 for x in row]
        assert is_half_set(entries, 31)
        for k, x in enumerate(entries):
            for y in range(-15, 16):
                if y == 0 or abs(y) == abs(x):
                    continue
                perturbed = entries[:k] + [y] + entries[k + 1 :]
                assert not is_half_set(perturbed, 31), (k, y)
            negated = entries[:k] + [-x] + entries[k + 1 :]
            assert is_half_set(negated, 31)
        assert not is_half_set(entries[1:], 31)  # dropped element
