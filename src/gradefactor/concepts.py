"""Concept-forming operators and exhaustive concept enumeration.

For a context matrix I over a residuated chain, a graded object set C maps
up to the intent

    up(C)(j) = min over i of residuum(C(i), I[i, j])

and a graded attribute set D maps down to the extent

    down(D)(i) = min over j of residuum(D(j), I[i, j]).

Pairs (C, D) with up(C) = D and down(D) = C are the formal concepts of I;
their rectangles never exceed I and are the building blocks used by the
factorization module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix import LEVEL_DTYPE, FuzzySet, GradedMatrix, _require_same_scale
from .scale import Scale


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


def _check_extent(context: GradedMatrix, extent: FuzzySet) -> None:
    _require_same_scale(context.scale, extent.scale)
    if extent.size != context.n_rows:
        raise ValueError(f"extent size {extent.size} does not match {context.n_rows} rows")


def _check_intent(context: GradedMatrix, intent: FuzzySet) -> None:
    _require_same_scale(context.scale, intent.scale)
    if intent.size != context.n_cols:
        raise ValueError(f"intent size {intent.size} does not match {context.n_cols} columns")


def _up_levels(scale: Scale, entries: np.ndarray, extent: np.ndarray) -> np.ndarray:
    return scale.residuum(extent[:, None], entries).min(axis=0)


def _down_levels(scale: Scale, entries: np.ndarray, intent: np.ndarray) -> np.ndarray:
    return scale.residuum(intent[None, :], entries).min(axis=1)


def up(context: GradedMatrix, extent: FuzzySet) -> FuzzySet:
    """Intent of all attributes shared by a graded set of objects."""
    _require_context(context)
    _check_extent(context, extent)
    return FuzzySet(context.scale, _up_levels(context.scale, context.entries, extent.membership))


def down(context: GradedMatrix, intent: FuzzySet) -> FuzzySet:
    """Extent of all objects sharing a graded set of attributes."""
    _require_context(context)
    _check_intent(context, intent)
    return FuzzySet(context.scale, _down_levels(context.scale, context.entries, intent.membership))


def close_intent(context: GradedMatrix, intent: FuzzySet) -> FuzzySet:
    """The least closed intent containing `intent`, i.e. up(down(intent))."""
    return concept_from_intent(context, intent).intent


def concept_from_intent(context: GradedMatrix, intent: FuzzySet) -> FormalConcept:
    """The concept generated by an arbitrary (not necessarily closed) intent."""
    _require_context(context)
    _check_intent(context, intent)
    scale, entries = context.scale, context.entries
    extent = _down_levels(scale, entries, intent.membership)
    closed = _up_levels(scale, entries, extent)
    return FormalConcept(FuzzySet(scale, extent), FuzzySet(scale, closed))


def enumerate_concepts(context: GradedMatrix, *, budget: int = 10**6) -> list[FormalConcept]:
    """All formal concepts of a context, in lexicographic intent order.

    Intents form a closure system: starting from the closure of the empty
    intent, repeatedly closing the join of a known intent with a graded
    singleton reaches every closed intent.  The number of closure
    computations is capped by `budget`; small contexts stay far below it,
    and overruns raise BudgetExceededError rather than grind on.
    """
    _require_context(context)
    scale, entries = context.scale, context.entries
    n_cols = context.n_cols
    top = scale.max_level
    closures = 0

    def close(intent_levels: np.ndarray) -> np.ndarray:
        nonlocal closures
        closures += 1
        if closures > budget:
            raise BudgetExceededError(
                f"concept enumeration exceeded the budget of {budget} closures"
            )
        extent = _down_levels(scale, entries, intent_levels)
        return _up_levels(scale, entries, extent)

    seen: dict[bytes, np.ndarray] = {}
    frontier: list[np.ndarray] = []

    def add(intent_levels: np.ndarray) -> None:
        key = intent_levels.tobytes()
        if key not in seen:
            seen[key] = intent_levels
            frontier.append(intent_levels)

    add(close(np.zeros(n_cols, dtype=LEVEL_DTYPE)))
    while frontier:
        current = frontier.pop()
        for j in range(n_cols):
            held = int(current[j])
            for a in range(held + 1, top + 1):
                extended = current.copy()
                extended[j] = a
                add(close(extended))

    concepts = []
    for intent_levels in sorted(seen.values(), key=tuple):
        extent_levels = _down_levels(scale, entries, intent_levels)
        concepts.append(
            FormalConcept(FuzzySet(scale, extent_levels), FuzzySet(scale, intent_levels))
        )
    return concepts
