"""Concept-forming operators and exhaustive concept enumeration.

For a context matrix I over a residuated chain, a graded object set C maps
up to the intent

    up(C)(j) = min over i of residuum(C(i), I[i, j])

and a graded attribute set D maps down to the extent

    down(D)(i) = min over j of residuum(D(j), I[i, j]).

Pairs (C, D) with up(C) = D and down(D) = C are the formal concepts of I;
their rectangles never exceed I and are the building blocks used by the
factorization module, whose candidate sweep `enumerate_concepts` runs on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix import LEVEL_DTYPE, FuzzySet, GradedMatrix, _require_same_scale
from .scale import Scale, _require_count


class BudgetExceededError(RuntimeError):
    """Raised when an exhaustive computation overruns its closure budget."""


@dataclass(frozen=True)
class FormalConcept:
    """A fixpoint pair of the two concept-forming operators."""

    extent: FuzzySet
    intent: FuzzySet


def _require_context(context: GradedMatrix) -> None:
    if context.n_rows == 0 or context.n_cols == 0:
        raise ValueError("a context needs at least one row and one column")


def _check_set(context: GradedMatrix, graded: FuzzySet, axis: int) -> None:
    """Check a graded set of the context's rows (axis 0), an extent, or of
    its columns (axis 1), an intent."""
    _require_context(context)
    _require_same_scale(context.scale, graded.scale)
    size = context.shape[axis]
    if graded.size != size:
        name, unit = (("extent", "rows"), ("intent", "columns"))[axis]
        raise ValueError(f"{name} size {graded.size} does not match {size} {unit}")


def _up_levels(scale: Scale, entries: np.ndarray, extent: np.ndarray) -> np.ndarray:
    return scale.residuum(extent[:, None], entries).min(axis=0)


def _down_levels(scale: Scale, entries: np.ndarray, intent: np.ndarray) -> np.ndarray:
    return scale.residuum(intent[None, :], entries).min(axis=1)


def up(context: GradedMatrix, extent: FuzzySet) -> FuzzySet:
    """Intent of all attributes shared by a graded set of objects."""
    _check_set(context, extent, 0)
    return FuzzySet(context.scale, _up_levels(context.scale, context.entries, extent.membership))


def down(context: GradedMatrix, intent: FuzzySet) -> FuzzySet:
    """Extent of all objects sharing a graded set of attributes."""
    _check_set(context, intent, 1)
    return FuzzySet(context.scale, _down_levels(context.scale, context.entries, intent.membership))


def concept_from_intent(context: GradedMatrix, intent: FuzzySet) -> FormalConcept:
    """The concept generated by an arbitrary (not necessarily closed) intent."""
    _check_set(context, intent, 1)
    scale, entries = context.scale, context.entries
    extent = _down_levels(scale, entries, intent.membership)
    closed = _up_levels(scale, entries, extent)
    return FormalConcept(FuzzySet(scale, extent), FuzzySet(scale, closed))


def enumerate_concepts(context: GradedMatrix, *, budget: int = 10**6) -> list[FormalConcept]:
    """All formal concepts of a context, in lexicographic intent order.

    Intents form a closure system: starting from the closure of the empty
    intent, repeatedly closing the join of a known intent with a graded
    singleton reaches every closed intent.  The greedy's sweep closes every
    such extension of a known intent in batches, each with its extent, which
    is closed too.  The number of closures, one for the start and one per
    extension, is capped by `budget`, at least 1; small contexts stay far
    below it, and overruns raise BudgetExceededError rather than grind on.
    """
    # a call-time import: factorization imports this module, and the tracer finds both by module
    from .factorization import _make_sweep

    _require_context(context)
    budget = _require_count("budget", budget, 1)
    scale, entries = context.scale, context.entries
    sweep = _make_sweep(scale, entries, entries != 0)
    # the empty intent's extent is top, since residuum(0, b) = n
    top = np.full(context.n_rows, scale.max_level, dtype=LEVEL_DTYPE)
    closures = 0

    def spend(count: int) -> None:
        nonlocal closures
        closures += count
        if closures > budget:
            raise BudgetExceededError(f"concept enumeration exceeded the budget of {budget} closures")

    spend(1)
    # no candidate closes to the start, the least closed intent, since a
    # candidate raises its intent at its own attribute: the start goes
    # straight into the result and is never keyed
    start = _up_levels(scale, entries, top)
    found, seen = [(start, top)], set()
    frontier = [(start, top)]
    while frontier:
        for js, _, _, covers in sweep.batches(*frontier.pop()):
            spend(len(js))
            # most candidates close to an intent already seen: key every
            # closed intent of the batch, the last of its covers, by its
            # bytes in the batch's type, and build a concept only for a new
            # key
            keys = covers[-1].tobytes()
            width = len(keys) // len(js)
            for c in range(len(js)):
                key = keys[c * width:(c + 1) * width]
                if key not in seen:
                    seen.add(key)
                    extent, intent = sweep.concept(covers, c)
                    found.append((intent, extent))
                    frontier.append((intent, extent))
    return [FormalConcept(FuzzySet(scale, extent), FuzzySet(scale, intent))
            for intent, extent in sorted(found, key=lambda pair: tuple(pair[0]))]
