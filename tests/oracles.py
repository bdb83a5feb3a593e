"""Slow reference implementations the fast kernels are checked against.

Everything here is written with explicit Python loops, exact rationals,
or brute-force search, deliberately sharing no code with the numpy
kernels under test.  The one exception is `greedy_factors`, the original
one-candidate-at-a-time greedy: it closes each candidate with the plain
`down`/`up` operators, which have their own loop oracles above, and is the
reference the batched candidate sweep of `find_factors` must match.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from gradefactor import FactorSet, FormalConcept, FuzzySet, GradedMatrix, Scale
from gradefactor.concepts import _down_levels, _up_levels
from gradefactor.factorization import resolve_tie_break
from gradefactor.matrix import LEVEL_DTYPE


def value_tnorm(scale: Scale, a: int, b: int) -> int:
    """The t-norm computed in value space with Fractions."""
    n = scale.max_level
    x, y = Fraction(a, n), Fraction(b, n)
    if scale.tnorm_kind == "lukasiewicz":
        v = max(Fraction(0), x + y - 1) * n
        assert v.denominator == 1
        return int(v)
    if scale.tnorm_kind == "godel":
        return min(a, b)
    # rounded goguen: nearest level to the true product, ties up
    return math.floor(x * y * n + Fraction(1, 2))


def brute_residuum(scale: Scale, a: int, b: int) -> int:
    """Largest c with tnorm(a, c) <= b, found by scanning the chain."""
    return max(c for c in range(scale.levels) if int(scale.tnorm(a, c)) <= b)


def loop_up(context: GradedMatrix, extent) -> list[int]:
    scale, entries = context.scale, context.entries
    return [
        min(int(scale.residuum(int(extent[i]), int(entries[i, j])))
            for i in range(context.n_rows))
        for j in range(context.n_cols)
    ]


def loop_down(context: GradedMatrix, intent) -> list[int]:
    scale, entries = context.scale, context.entries
    return [
        min(int(scale.residuum(int(intent[j]), int(entries[i, j])))
            for j in range(context.n_cols))
        for i in range(context.n_rows)
    ]


def loop_compose(a: GradedMatrix, b: GradedMatrix) -> list[list[int]]:
    """Triple-loop sup-t-norm product."""
    scale = a.scale
    return [
        [
            max(
                (int(scale.tnorm(int(a.entries[i, l]), int(b.entries[l, j])))
                 for l in range(a.n_cols)),
                default=0,
            )
            for j in range(b.n_cols)
        ]
        for i in range(a.n_rows)
    ]


def bool_compose(a: GradedMatrix, b: GradedMatrix) -> np.ndarray:
    """Ordinary Boolean matrix product."""
    return (a.entries.astype(bool) @ b.entries.astype(bool)).astype(int)


def sweep_concepts(context: GradedMatrix) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every concept as an (intent, extent) pair, found by closing every
    possible intent.  Exponential in the column count; tiny inputs only."""
    found = {}
    for intent in product(range(context.scale.levels), repeat=context.n_cols):
        extent = loop_down(context, intent)
        closed = tuple(loop_up(context, extent))
        if closed not in found:
            found[closed] = tuple(loop_down(context, closed))
    return {(intent, extent) for intent, extent in found.items()}


def min_cover_size(context: GradedMatrix, concepts) -> int:
    """Smallest number of concepts whose rectangles cover every nonzero
    cell, by trying all subsets in increasing size."""
    scale, entries = context.scale, context.entries
    cells = [
        (i, j)
        for i in range(context.n_rows)
        for j in range(context.n_cols)
        if entries[i, j]
    ]
    if not cells:
        return 0
    hit_sets = []
    for c in concepts:
        hits = frozenset(
            (i, j) for i, j in cells
            if int(scale.tnorm(int(c.extent.membership[i]), int(c.intent.membership[j])))
            == int(entries[i, j])
        )
        hit_sets.append(hits)
    universe = frozenset(cells)
    for k in range(1, len(concepts) + 1):
        for combo in combinations(hit_sets, k):
            if frozenset().union(*combo) == universe:
                return k
    raise AssertionError("the full concept set always covers the context")


def covered_count(scale: Scale, entries: np.ndarray, mask: np.ndarray,
                   extent: np.ndarray, intent: np.ndarray) -> int:
    rect = scale.tnorm(extent[:, None], intent[None, :])
    return int(np.count_nonzero(mask & (rect >= entries)))


def candidate_closure(scale: Scale, entries: np.ndarray, intent: np.ndarray,
                       j: int, a: int) -> tuple[np.ndarray, np.ndarray]:
    grown = intent.copy()
    if a > grown[j]:
        grown[j] = a
    extent = _down_levels(scale, entries, grown)
    closed = _up_levels(scale, entries, extent)
    return extent, closed


def select_candidate(scale: Scale, entries: np.ndarray, mask: np.ndarray,
                      intent: np.ndarray, key, skip_dominated: bool):
    """Best (gain, j, a) over all candidate extensions, with closure arrays.

    Candidates with a <= intent[j] leave the intent unchanged, so their gain
    equals the current concept's own cover count; skipping them cannot alter
    which strictly-improving candidate wins.
    """
    top = scale.max_level
    best = None
    for j in range(entries.shape[1]):
        start = int(intent[j]) + 1 if skip_dominated else 1
        for a in range(start, top + 1):
            extent, closed = candidate_closure(scale, entries, intent, j, a)
            g = covered_count(scale, entries, mask, extent, closed)
            rank = (g, key(j, a))
            if best is None or rank > best[0]:
                best = (rank, j, a, extent, closed)
    if best is None:
        return None
    rank, j, a, extent, closed = best
    return rank[0], j, a, extent, closed


def greedy_factors(context: GradedMatrix, tie_break="grade-then-index", *,
                   max_factors: int | None = None,
                   skip_dominated: bool = True) -> FactorSet:
    """The greedy decomposition, one full closure per candidate.

    `skip_dominated=False` also evaluates the candidates that leave the
    intent unchanged; the factors must come out the same either way.
    """
    key = resolve_tie_break(tie_break)
    scale, entries = context.scale, context.entries
    n_rows, n_cols = entries.shape
    mask = entries != 0
    uncovered = [int(mask.sum())]
    factors: list[FormalConcept] = []
    complete = True

    while mask.any():
        if max_factors is not None and len(factors) >= max_factors:
            complete = False
            break
        intent = np.zeros(n_cols, dtype=LEVEL_DTYPE)
        extent = _down_levels(scale, entries, intent)
        best_so_far = 0
        selected = select_candidate(scale, entries, mask, intent, key, skip_dominated)
        while selected is not None and selected[0] > best_so_far:
            best_so_far, _, _, extent, intent = selected
            selected = select_candidate(scale, entries, mask, intent, key, skip_dominated)
        concept = FormalConcept(FuzzySet(scale, extent), FuzzySet(scale, intent))
        factors.append(concept)
        rect = scale.tnorm(extent[:, None], intent[None, :])
        mask &= ~(rect >= entries)
        uncovered.append(int(mask.sum()))

    return FactorSet(
        factors=tuple(factors),
        context_shape=(n_rows, n_cols),
        scale=scale,
        complete=complete,
        uncovered_counts=tuple(uncovered),
    )
