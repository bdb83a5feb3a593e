"""Concept-forming operators, closures, and exhaustive enumeration."""

import numpy as np
import pytest
from hypothesis import given, settings

import golden
import oracles
import strategies
from gradefactor import (
    BudgetExceededError,
    FormalConcept,
    FuzzySet,
    GradedMatrix,
    Scale,
    concept_from_intent,
    down,
    enumerate_concepts,
    up,
)
from gradefactor.matrix import _rectangle

FIVE = Scale(5)


# ---------------------------------------------------------------- operators


@given(strategies.context_with_extent())
@settings(max_examples=80)
def test_up_matches_loop_oracle(case):
    ctx, extent = case
    assert list(up(ctx, extent).membership) == oracles.loop_up(ctx, extent.membership)


@given(strategies.context_with_intent())
@settings(max_examples=80)
def test_down_matches_loop_oracle(case):
    ctx, intent = case
    assert list(down(ctx, intent).membership) == oracles.loop_down(ctx, intent.membership)


@given(strategies.context_with_extent())
@settings(max_examples=80)
def test_galois_extensivity_and_idempotence(case):
    ctx, extent = case
    once = up(ctx, extent)
    assert np.all(extent.membership <= down(ctx, once).membership)
    assert up(ctx, down(ctx, once)) == once


@given(strategies.context_with_intent())
@settings(max_examples=80)
def test_closure_is_extensive_and_idempotent(case):
    ctx, intent = case
    closed = concept_from_intent(ctx, intent).intent
    assert np.all(intent.membership <= closed.membership)
    assert concept_from_intent(ctx, closed).intent == closed


def test_up_is_antitone():
    ctx = golden.graded_matrix()
    small = FuzzySet(FIVE, [1, 0, 2, 0, 0])
    large = FuzzySet(FIVE, [3, 1, 2, 0, 4])
    assert np.all(small.membership <= large.membership)
    assert np.all(up(ctx, large).membership <= up(ctx, small).membership)


def test_operator_validation():
    ctx = golden.graded_matrix()
    with pytest.raises(ValueError, match="extent size"):
        up(ctx, FuzzySet(FIVE, [1, 2]))
    with pytest.raises(ValueError, match="intent size"):
        down(ctx, FuzzySet(FIVE, [1, 2]))
    with pytest.raises(ValueError, match="scale mismatch"):
        up(ctx, FuzzySet(Scale(5, "godel"), [0] * 5))
    empty = GradedMatrix(FIVE, np.zeros((0, 3), dtype=int))
    with pytest.raises(ValueError, match="at least one row"):
        up(empty, FuzzySet(FIVE, []))


# ---------------------------------------------------------------- concepts


@given(strategies.context_with_intent())
@settings(max_examples=80)
def test_concept_from_intent_is_a_fixpoint(case):
    ctx, intent = case
    concept = concept_from_intent(ctx, intent)
    assert up(ctx, concept.extent) == concept.intent
    assert down(ctx, concept.intent) == concept.extent


@given(strategies.context_with_intent())
@settings(max_examples=80)
def test_concept_rectangle_never_exceeds_context(case):
    ctx, intent = case
    concept = concept_from_intent(ctx, intent)
    rect = _rectangle(ctx.scale, concept.extent.membership, concept.intent.membership)
    assert np.all(rect <= ctx.entries)


@given(strategies.contexts())
@settings(max_examples=80)
def test_singleton_concept_covers_its_generating_cell(case):
    # the cell-by-cell coverage argument behind the greedy algorithm
    ctx = case
    entries = ctx.entries
    for i in range(ctx.n_rows):
        for j in range(ctx.n_cols):
            if not entries[i, j]:
                continue
            seed = np.zeros(ctx.n_cols, dtype=int)
            seed[j] = entries[i, j]
            concept = concept_from_intent(ctx, FuzzySet(ctx.scale, seed))
            cell = ctx.scale.tnorm(int(concept.extent.membership[i]),
                                   int(concept.intent.membership[j]))
            assert int(cell) == int(entries[i, j])


def test_covers_matches_definition():
    # a concept covers cell (i, j) when tnorm(extent(i), intent(j)) equals
    # I[i, j]: exactly where its rectangle agrees with I
    ctx = GradedMatrix(FIVE, [[2, 0], [4, 1]])
    for seed, extent, intent, covered in (
        ([4, 0], [2, 4], [4, 1], [[True, True], [True, True]]),
        ([0, 4], [0, 1], [4, 4], [[False, True], [False, True]]),
    ):
        concept = concept_from_intent(ctx, FuzzySet(FIVE, seed))
        assert concept.extent.membership.tolist() == extent
        assert concept.intent.membership.tolist() == intent
        cells = [[int(FIVE.tnorm(extent[i], intent[j])) == int(ctx.entries[i, j])
                  for j in range(2)] for i in range(2)]
        assert cells == covered
        rect = _rectangle(FIVE, concept.extent.membership, concept.intent.membership)
        assert (rect == ctx.entries).tolist() == covered


# ---------------------------------------------------------------- enumeration


@given(strategies.contexts(max_rows=3, max_cols=3, kinds=("lukasiewicz", "godel")))
@settings(max_examples=40)
def test_enumeration_matches_exhaustive_sweep(ctx):
    got = {
        (tuple(int(v) for v in c.intent.membership),
         tuple(int(v) for v in c.extent.membership))
        for c in enumerate_concepts(ctx)
    }
    assert got == oracles.sweep_concepts(ctx)


def test_enumeration_is_sorted_and_unique(decathlon):
    concepts = enumerate_concepts(decathlon)
    intents = [tuple(int(v) for v in c.intent.membership) for c in concepts]
    assert intents == sorted(intents)
    assert len(set(intents)) == len(intents)


def test_decathlon_concept_count(decathlon):
    assert len(enumerate_concepts(decathlon)) == golden.CONCEPT_COUNT


def test_every_enumerated_concept_is_a_fixpoint(decathlon):
    for c in enumerate_concepts(decathlon):
        assert up(decathlon, c.extent) == c.intent
        assert down(decathlon, c.intent) == c.extent


def test_reference_factors_are_concepts(decathlon, reference_factors):
    concepts = set(enumerate_concepts(decathlon))
    for c in reference_factors:
        assert c in concepts


def test_extreme_concepts_present(decathlon):
    concepts = enumerate_concepts(decathlon)
    top_extent = FuzzySet(FIVE, [4] * 5)
    assert any(c.extent == top_extent for c in concepts)
    full = concept_from_intent(decathlon, FuzzySet(FIVE, [4] * 10))
    assert FormalConcept(full.extent, full.intent) in set(concepts)


def test_enumeration_budget(decathlon):
    with pytest.raises(BudgetExceededError, match="budget"):
        enumerate_concepts(decathlon, budget=10)
