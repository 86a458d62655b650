"""Per-layer spans recorded from outside the program.

The layers are the ``heffter`` modules.  :class:`Tracer` replaces every
module binding of each function in :data:`LAYERS` with a timing wrapper
(the modules import each other's functions with ``from .x import y``, so
``heffter.cli.certify`` and ``heffter.embedding.certify`` are patched
separately) and restores the originals on :meth:`Tracer.uninstall`.
Wrapped calls nested inside wrapped calls become child spans; a span's self
time is its duration minus that of its children.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from typing import Callable

LAYERS: dict[str, tuple[str, ...]] = {
    "cli": ("main",),
    "arrayfile": ("parse_array", "serialize_array"),
    "h3": ("simple_h3", "construct_raw_h3", "standard_reordering"),
    "core": ("verify_heffter", "reorder_columns", "from_rows"),
    "modmath": ("partial_sums", "is_half_set", "is_simple", "canon"),
    "orderings": ("compatible_orderings", "compose"),
    "embedding": (
        "develop_cycles",
        "exact_pair_coverage",
        "is_translation_closed",
        "build_face_set",
        "derive_rotations",
        "certify",
    ),
    "search": ("find_simple_column_permutation", "brute_force_oracle", "generate_heffter"),
}

# Millions of calls per run: a wrapper would cost more than the work, so
# their time stays in the self time of whichever wrapped function calls them.
UNWRAPPED = ("modmath.is_canonical", "modmath.half_bound")

MODULES = ("heffter", *(f"heffter.{name}" for name in LAYERS))

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


def originals() -> dict[str, Callable]:
    """Span name -> the function object as defined in its own module."""
    return {
        f"{mod}.{fn}": getattr(importlib.import_module(f"heffter.{mod}"), fn)
        for mod, fns in LAYERS.items()
        for fn in fns
    }


def code_names() -> dict[object, str]:
    """Code object -> span name, for finding where an exception escaped from."""
    return {fn.__code__: name for name, fn in originals().items()}


class Stat:
    __slots__ = ("calls", "busy", "self", "failed")

    def __init__(self) -> None:
        self.calls = 0
        self.busy = 0.0
        self.self = 0.0
        self.failed = 0


def _certify_sizes(counts: dict[str, int], args: tuple) -> None:
    F = args[0]
    counts["embedding.faces_expanded"] += F.face_count
    counts["embedding.arc_counter_bytes"] += F.v * F.v


def _oracle_sizes(counts: dict[str, int], args: tuple) -> None:
    counts["search.oracle_perms"] += math.factorial(args[0].n)


# Sizes computed from the arguments, not counted by the program.
SIZE_HOOKS = {"embedding.certify": _certify_sizes, "search.brute_force_oracle": _oracle_sizes}


class Tracer:
    """Aggregated spans (calls, busy, self, failed) per wrapped function."""

    def __init__(self) -> None:
        from heffter.errors import BudgetExceededError

        self._accepted = BudgetExceededError  # a budget stop is an outcome, not a failure
        self.stats = {name: Stat() for name in SPAN_NAMES}
        self.counts = {key: 0 for key in
                       ("embedding.faces_expanded", "embedding.arc_counter_bytes", "search.oracle_perms")}
        self._stack: list[float] = []
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in originals().items()}
        self._bindings: list[tuple[object, str, Callable, Callable]] = []
        for modname in MODULES:
            module = importlib.import_module(modname)
            for attr, value in vars(module).items():
                if callable(value) and id(value) in wrappers:
                    self._bindings.append((module, attr, value, wrappers[id(value)]))

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        accepted = self._accepted
        hook = SIZE_HOOKS.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except accepted:
                raise
            except BaseException:
                stat.failed += 1
                raise
            finally:
                dt = clock() - t0
                child = stack.pop()
                stat.calls += 1
                stat.busy += dt
                stat.self += dt - child
                if stack:
                    stack[-1] += dt
            if hook is not None:
                hook(counts, args)
            return result

        return span

    def install(self) -> None:
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)
