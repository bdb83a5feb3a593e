"""Concept-forming operators, closures, and exhaustive enumeration."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from gradefactor import factorization
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


# the enumeration closes on the greedy's sweep: its level tables, the
# t-norm arithmetic past their cap, and batches of one candidate each
SWEEP_PATCHES = ({"_LEVEL_TABLE_BYTES": factorization._LEVEL_TABLE_BYTES},
                 {"_LEVEL_TABLE_BYTES": 0}, {"SWEEP_BATCH_BYTES": 1})


@pytest.mark.deep
@given(st.one_of(
    strategies.contexts(max_rows=3, max_cols=3, kinds=("lukasiewicz", "godel", "goguen")),
    # the two-grade chain closes on row bitsets
    strategies.contexts(scale=Scale.boolean(), max_rows=6, max_cols=6),
))
@settings(max_examples=strategies.examples(60))
def test_enumeration_matches_exhaustive_sweep(ctx):
    expected = oracles.sweep_concepts(ctx)
    for patch in SWEEP_PATCHES:
        with mock.patch.multiple(factorization, **patch):
            got = {
                (tuple(int(v) for v in c.intent.membership),
                 tuple(int(v) for v in c.extent.membership))
                for c in enumerate_concepts(ctx)
            }
        assert got == expected, patch


@pytest.mark.deep
@given(
    st.one_of(
        strategies.contexts(max_rows=3, max_cols=3, kinds=("lukasiewicz", "godel", "goguen")),
        strategies.contexts(scale=Scale.boolean(), max_rows=6, max_cols=6),
    ),
    st.sampled_from([0, factorization._LEVEL_TABLE_BYTES]),
    st.sampled_from([1, factorization.SWEEP_BATCH_BYTES]),
)
@settings(max_examples=strategies.examples(60))
def test_no_candidate_closes_to_the_start(ctx, level_cap, batch_bytes):
    # the enumeration never keys its start, the least closed intent: from
    # the start and from every enumerated intent, each batch candidate's
    # closed intent is its closure, in levels 0..n, and never the start
    scale, entries = ctx.scale, ctx.entries
    start = up(ctx, FuzzySet(scale, np.full(ctx.n_rows, scale.max_level))).membership
    with mock.patch.multiple(factorization, _LEVEL_TABLE_BYTES=level_cap,
                             SWEEP_BATCH_BYTES=batch_bytes):
        concepts = enumerate_concepts(ctx)
        sweep = factorization._make_sweep(scale, entries, entries != 0)
        assert concepts[0].intent.membership.tolist() == start.tolist()
        for concept in concepts:
            intent = concept.intent.membership
            for js, levels, _, covers in sweep.batches(intent, concept.extent.membership):
                for c, (j, a) in enumerate(zip(js.tolist(), levels.tolist())):
                    extent, closed = sweep.concept(covers, c)
                    assert 0 <= closed.min() and closed.max() <= scale.max_level
                    expected = oracles.candidate_closure(scale, entries, intent, j, a)
                    assert (extent.tolist(), closed.tolist()) == tuple(e.tolist() for e in expected)
                    assert closed.tolist() != start.tolist()


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


def test_enumeration_budget_is_exact(decathlon):
    # one closure for the start, then one per extension (j, a) with
    # a > intent[j] of every concept's intent
    top = decathlon.scale.max_level
    concepts = enumerate_concepts(decathlon)
    budget = 1 + sum(int((top - c.intent.membership).sum()) for c in concepts)
    assert enumerate_concepts(decathlon, budget=budget) == concepts
    with pytest.raises(BudgetExceededError,
                       match=f"^concept enumeration exceeded the budget of {budget - 1} closures$"):
        enumerate_concepts(decathlon, budget=budget - 1)


@pytest.mark.parametrize("batch_bytes, taken", [(factorization.SWEEP_BATCH_BYTES, 0), (1, 9)])
def test_enumeration_budget_stops_within_a_batch(batch_bytes, taken):
    # the start's intent holds 0, so each of its 10**5 extensions a/0 closes
    # to a new concept; a budget of 10 must stop before the batch that
    # overruns it has any of its concepts taken
    ctx = GradedMatrix(Scale(10**5), [[0]])
    concept = factorization._GradedSweep.concept
    with mock.patch.object(factorization, "SWEEP_BATCH_BYTES", batch_bytes), \
            mock.patch.object(factorization._GradedSweep, "concept", autospec=True,
                              side_effect=concept) as taking:
        with pytest.raises(BudgetExceededError, match="budget of 10 closures"):
            enumerate_concepts(ctx, budget=10)
    assert taking.call_count == taken


@pytest.mark.parametrize("budget", [0, -1])
def test_enumeration_budget_below_one_refuses_the_start(budget):
    # the start's closure alone overruns, even where it has no extension
    top = GradedMatrix(FIVE, [[4]])
    assert len(enumerate_concepts(top, budget=1)) == 1
    with pytest.raises(BudgetExceededError, match=f"budget of {budget} closures"):
        enumerate_concepts(top, budget=budget)
