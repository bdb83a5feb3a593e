"""Greedy decomposition, factor matrices, coverage, and the exact oracle."""

import re
import sys
from fractions import Fraction
from itertools import product
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
    DEFAULT_TIE_BREAK,
    FactorSet,
    FormalConcept,
    FuzzySet,
    GradedMatrix,
    MAX_LEVELS,
    Scale,
    TIE_BREAK_POLICIES,
    compose,
    concept_from_intent,
    coverage_curve,
    down,
    enumerate_concepts,
    factor_matrices,
    find_factors,
    optimal_factorization,
    read_fimi,
    up,
)
from gradefactor import factorization
from gradefactor.factorization import resolve_tie_break
from gradefactor.matrix import LEVEL_DTYPE, _rectangle

FIVE = Scale(5)


def assert_exact(factor_set, context):
    a, b = factor_matrices(factor_set)
    assert compose(a, b) == context


def sweep_gain(ctx, mask, intent, j, a):
    """The cover count a greedy step from `intent` gives the candidate
    (j, a), read off the batch that scores it, or None when no batch holds
    it; `mask` holds the uncovered nonzero cells."""
    sweep = factorization._make_sweep(ctx.scale, ctx.entries, mask)
    batches = sweep.batches(intent.membership, down(ctx, intent).membership)
    for js, levels, gains, _ in batches:
        (hit,) = np.nonzero((js == j) & (levels == a))
        if hit.size:
            return int(gains[hit[0]])
    return None


def live_weights(sweep, shape):
    """The weights of the uncovered cells a graded sweep holds, packed
    column by column as bit planes, as an array of the sweep's shape."""
    n_rows, n_cols = shape
    planes = [factorization._unpack_rows(plane, n_rows * n_cols) << k
              for k, plane in enumerate(np.atleast_2d(sweep.live))]
    return np.sum(planes, axis=0).reshape(n_cols, n_rows).T


def unclarified(scale, entries):
    """What `_clarify` returns for an input whose run takes it as it is."""
    return entries, None, slice(None)


def is_unclarified(clarified, entries):
    distinct, weights, rows = clarified
    return distinct is entries and weights is None and rows == slice(None)


def uncovered_cells(sweep, clarified):
    """The uncovered cells a sweep holds, as a Boolean array over the
    input; both sweeps pack them column by column.  A sweep of a run that
    `_clarify` returned `clarified` for holds its entries' rows, which
    expand through the clarification's index."""
    distinct, _, rows = clarified
    if isinstance(sweep, factorization._BitsetSweep):
        columns = [factorization._unpack_rows(bits, len(distinct)) for bits in sweep.uncovered]
        return np.stack(columns, axis=1) != 0
    return (live_weights(sweep, distinct.shape) != 0)[rows]


# ---------------------------------------------------------------- greedy


def test_decathlon_has_seven_factors(decathlon, reference_factors):
    fs = find_factors(decathlon)
    assert fs.complete
    assert fs.factors == reference_factors
    assert_exact(fs, decathlon)


def test_both_policies_reach_seven_on_decathlon(decathlon):
    for policy in TIE_BREAK_POLICIES:
        fs = find_factors(decathlon, policy)
        assert len(fs.factors) == 7
        assert_exact(fs, decathlon)


def test_callable_tie_break_refused(decathlon):
    # a tie-break is a policy name; a key function is refused with a
    # one-line error that names both policies
    with pytest.raises(ValueError, match="^unknown tie-break policy: a callable key; ") as info:
        find_factors(decathlon, lambda j, a: (a, -j))
    message = str(info.value)
    assert "\n" not in message
    assert all(policy in message for policy in TIE_BREAK_POLICIES)


def test_unknown_tie_break_rejected(decathlon):
    with pytest.raises(ValueError, match="unknown tie-break"):
        find_factors(decathlon, "alphabetical")
    assert TIE_BREAK_POLICIES == ("grade-then-index", "index-then-grade")
    assert DEFAULT_TIE_BREAK in TIE_BREAK_POLICIES
    for policy in TIE_BREAK_POLICIES:
        assert resolve_tie_break(policy) == policy


def test_single_rectangle_needs_one_factor():
    r = compose(GradedMatrix(FIVE, [[4], [2], [3]]), GradedMatrix(FIVE, [[3, 4]]))
    fs = find_factors(r)
    assert len(fs.factors) == 1
    assert_exact(fs, r)


def test_zero_matrix_needs_no_factors():
    fs = find_factors(GradedMatrix(FIVE, np.zeros((3, 4), dtype=int)))
    assert fs.factors == ()
    assert fs.complete
    assert fs.uncovered_counts == (0,)


def test_max_factors_truncates(decathlon):
    fs = find_factors(decathlon, max_factors=2)
    assert len(fs.factors) == 2
    assert not fs.complete
    assert fs.uncovered_counts[-1] > 0
    with pytest.raises(ValueError, match="^max_factors must be at least 0, got -1$"):
        find_factors(decathlon, max_factors=-1)


@pytest.mark.parametrize("bound", [1.5, 2.0, "2", Fraction(2)])
def test_max_factors_must_be_an_integer(bound):
    diagonal = GradedMatrix(FIVE, np.diag([4] * 4))
    with pytest.raises(ValueError, match="^" + re.escape(f"max_factors must be an integer, got {bound!r}") + "$"):
        find_factors(diagonal, max_factors=bound)


def test_max_factors_takes_a_numpy_integer():
    diagonal = GradedMatrix(FIVE, np.diag([4] * 4))
    assert find_factors(diagonal, max_factors=np.int64(1)) == find_factors(diagonal, max_factors=1)


def test_max_factors_zero(decathlon):
    fs = find_factors(decathlon, max_factors=0)
    assert fs.factors == ()
    assert not fs.complete


@given(strategies.contexts(max_rows=5, max_cols=5))
@settings(max_examples=80)
def test_greedy_is_always_exact(ctx):
    fs = find_factors(ctx)
    assert fs.complete
    assert_exact(fs, ctx)
    for c in fs.factors:
        assert up(ctx, c.extent) == c.intent
        assert down(ctx, c.intent) == c.extent


@given(strategies.contexts(max_rows=5, max_cols=5))
@settings(max_examples=40)
def test_uncovered_counts_strictly_decrease(ctx):
    fs = find_factors(ctx)
    counts = fs.uncovered_counts
    assert counts[0] == int(np.count_nonzero(ctx.entries))
    assert counts[-1] == 0
    assert all(a > b for a, b in zip(counts, counts[1:]))


@given(strategies.contexts(max_rows=4, max_cols=4))
@settings(max_examples=30)
def test_skipping_dominated_candidates_changes_nothing(ctx):
    fast = find_factors(ctx)
    assert oracles.greedy_factors(ctx).factors == fast.factors
    assert oracles.greedy_factors(ctx, skip_dominated=False).factors == fast.factors


def test_greedy_handles_rounded_goguen():
    scale = Scale(5, "goguen", rounded=True)
    rng = np.random.default_rng(3)
    for _ in range(10):
        ctx = GradedMatrix(scale, rng.integers(0, 5, size=(4, 4)))
        assert_exact(find_factors(ctx), ctx)


def test_identical_runs_return_identical_factor_sets(decathlon):
    assert find_factors(decathlon) == find_factors(decathlon)


def test_a_factor_that_covers_nothing_stops_the_run(decathlon):
    # a step whose winner's concept covers no cell its gain counted: zeroed
    # covers pack no cell and hold the empty extent; the bound turns a
    # missing guard into a failure rather than a hang
    best_candidate = factorization._best_candidate

    def step(*args):
        selected = best_candidate(*args)
        if selected is None:
            return None
        gain, covers, c = selected
        return gain, tuple(np.zeros_like(a) for a in covers), c

    with mock.patch.object(factorization, "_best_candidate", step), \
            pytest.raises(RuntimeError, match="^factor 1 covers no uncovered cell$"):
        find_factors(decathlon, max_factors=20)


# ---------------------------------------------------------------- sweep kernel
#
# The batched candidate sweep of `find_factors` against the one-candidate-
# at-a-time reference loop.  Small batch budgets force candidate batches to
# split mid-attribute, so every batch boundary is exercised.  Each run is
# repeated with the opening block capped at nothing, at half of its
# opening's batches, and at its default, and with the level tables
# capped at nothing (t-norm arithmetic) and at their default.

ALL_KINDS = ("lukasiewicz", "godel", "goguen")
# batch budgets in bytes: one candidate a batch; 37 words of a bitset
# batch's extents or probe block, or 148 levels of 16 bits; and the default
BUDGETS = (1, 8 * 37, factorization.SWEEP_BATCH_BYTES)
LEVEL_TABLE_CAPS = (0, factorization._LEVEL_TABLE_BYTES)


def opening_batches(ctx, budget):
    """Candidates per batch, bytes per candidate and the number of batches
    of a run's first opening at a batch budget in bytes: m * n candidates
    on an n-step chain, batched by the bytes of the input's cells in the
    work dtype, or on two grades by the words of a candidate's extent or
    of its row of the probe block, whichever is longer."""
    n_rows, n_cols = ctx.shape
    n = ctx.scale.max_level
    if n == 1:
        row_words = -(-n_rows // 64)
        batch = max(1, budget // (8 * max(row_words, n_cols)))
        # its extent's row bitset and a byte per column
        size = 8 * row_words + n_cols
    else:
        itemsize = np.dtype(factorization._work_dtype(ctx.scale)).itemsize
        batch = max(1, budget // max(1, n_rows * n_cols * itemsize))
        # a bitset over all cells, and its extent and closed intent
        size = 8 * -(-n_rows * n_cols // 64) + (n_rows + n_cols) * itemsize
    return batch, size, -(-n_cols * n // batch)


def table_caps(ctx, budget):
    """Opening-block caps in words: none; the first half of the opening's
    batches at a batch budget in bytes, and at least one, so that the
    block stores whole batches and, with two batches or more, leaves the
    rest to the sweep; and the default."""
    batch, size, batches = opening_batches(ctx, budget)
    return 0, -(-max(1, batches // 2) * batch * size // 8), factorization._OPENING_TABLE_WORDS


def assert_matches_reference(ctx, tie_break=DEFAULT_TIE_BREAK, budget=None, max_factors=None):
    budget = factorization.SWEEP_BATCH_BYTES if budget is None else budget
    slow = oracles.greedy_factors(ctx, tie_break, max_factors=max_factors)
    for cap, level_cap in product(table_caps(ctx, budget), LEVEL_TABLE_CAPS):
        with mock.patch.object(factorization, "SWEEP_BATCH_BYTES", budget), \
                mock.patch.object(factorization, "_OPENING_TABLE_WORDS", cap), \
                mock.patch.object(factorization, "_LEVEL_TABLE_BYTES", level_cap):
            fast = find_factors(ctx, tie_break, max_factors=max_factors)
        assert fast == slow, f"opening block at {cap} words, level tables at {level_cap} bytes"


@pytest.mark.deep
@given(
    strategies.scales(ALL_KINDS, max_levels=101).flatmap(
        lambda scale: strategies.contexts(scale, max_rows=5, max_cols=4)
    ),
    st.sampled_from(TIE_BREAK_POLICIES),
    st.sampled_from(BUDGETS),
)
@settings(max_examples=strategies.examples(150))
def test_sweep_matches_reference_on_graded_chains(ctx, tie_break, budget):
    assert_matches_reference(ctx, tie_break, budget)


@pytest.mark.deep
@pytest.mark.parametrize("levels", [5, 11, 101])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_sweep_matches_reference_on_each_tnorm(levels, kind):
    scale = Scale(levels, kind, rounded=kind == "goguen")
    entries = np.random.default_rng(levels).integers(0, levels, size=(7, 5))
    entries[entries < levels // 4] = 0
    assert_matches_reference(GradedMatrix(scale, entries))


@pytest.mark.deep
@pytest.mark.parametrize("levels, shape", [(11, (6, 75)), (2, (20, 260))])
def test_sweep_matches_reference_past_a_partial_opening_block(levels, shape):
    # inputs whose first opening takes more than one batch at the default
    # budget, so that the mid cap stores some of its batches and not all
    scale = Scale(levels)
    entries = np.random.default_rng(levels).integers(0, levels, size=shape)
    if levels == 2:
        entries &= np.random.default_rng(3).integers(0, 2, size=shape)
    ctx = GradedMatrix(scale, entries)
    assert opening_batches(ctx, factorization.SWEEP_BATCH_BYTES)[2] >= 2
    assert_matches_reference(ctx)


def tall_product(scale, rows, seed, cols=8):
    """A rows x cols product of a random rows x 3 and 3 x cols factor pair,
    with 5% of its cells redrawn: factors whose intents span columns."""
    rng = np.random.default_rng(seed)
    n = scale.max_level
    a, b = rng.integers(0, n + 1, size=(rows, 3, 1)), rng.integers(0, n + 1, size=(1, 3, cols))
    entries = scale.tnorm(a, b).max(axis=1)
    noise = rng.random(entries.shape) < 0.05
    entries[noise] = rng.integers(0, n + 1, size=int(noise.sum()))
    return GradedMatrix(scale, entries)


@pytest.mark.deep
@pytest.mark.parametrize("rows, cols", [
    *(pytest.param(rows, 8, id=str(rows)) for rows in (63, 64, 65, 129, 257, 1000)),
    pytest.param(1000, 3, id="1000x3"), pytest.param(257, 2, id="257x2"),
    pytest.param(2, 257, id="2x257"),
])
@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("tie_break", TIE_BREAK_POLICIES)
def test_sweep_matches_reference_on_tall_inputs(rows, cols, kind, tie_break):
    # past 64 rows a closure's row minima fold the block's halves, which
    # leaves an odd middle row at 65, 129 and 257 rows; thin inputs fold
    # the most, and a wide one packs a column of 2 rows per cover word and
    # offsets its intents by up to 257 * 5
    scale = Scale(5, kind, rounded=kind == "goguen")
    assert_matches_reference(tall_product(scale, rows, rows, cols), tie_break)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_graded_tall_runs_give_the_pinned_factors(kind):
    # 3196 x 75 on 5 levels, one candidate a batch, on both row sources:
    # the factor sets pinned in golden.GRADED_TALL_SHA256
    ctx = golden.graded_tall(kind)
    for level_cap in LEVEL_TABLE_CAPS:
        with mock.patch.object(factorization, "_LEVEL_TABLE_BYTES", level_cap):
            fs = find_factors(ctx, max_factors=3)
        assert golden.factor_set_sha256(fs) == golden.GRADED_TALL_SHA256[kind], \
            f"level tables at {level_cap} bytes"


def test_a_complete_tall_run_gives_the_pinned_factors(tmp_path):
    # the late steps of a complete run close small extents against wide
    # intents, which the ten factors pinned in golden.TALL_SHA256 never reach
    path = tmp_path / "tall.dat"
    path.write_text(golden.tall_transactions())
    ctx = read_fimi(path)
    for tie_break in TIE_BREAK_POLICIES:
        fs = find_factors(ctx, tie_break)
        assert fs.complete
        assert golden.factor_set_sha256(fs) == golden.TALL_COMPLETE_SHA256[tie_break], tie_break


# ---------------------------------------------------------------- clarification
#
# A graded input with repeated rows runs on its clarified context, the
# distinct rows, with each row's cells weighted by how many input rows it
# stands for; repeated columns are swept as they are.  Inputs shorter than
# _CLARIFY_ROWS run as they are, so the tests below that draw small inputs
# patch it to 0 to reach the clarified path.


def distinct_context(ctx):
    """The context a run of `ctx` sweeps, by the rule `find_factors`
    documents, with the weight of each of its rows: the input itself, of
    unit weights, on two grades, on fewer than _CLARIFY_ROWS rows or when
    more than half of its rows are distinct; else its distinct rows,
    sorted, each weighing its count."""
    rows = [tuple(row) for row in ctx.entries.tolist()]
    distinct = sorted(set(rows))
    if (ctx.scale.levels == 2 or len(rows) < factorization._CLARIFY_ROWS
            or 2 * len(distinct) > len(rows)):
        return ctx, np.ones((len(rows), 1), dtype=np.int64)
    weights = [[rows.count(row)] for row in distinct]
    return GradedMatrix(ctx.scale, np.array(distinct)), np.array(weights)


@pytest.mark.deep
@given(
    strategies.scales(ALL_KINDS, max_levels=12).flatmap(
        lambda scale: st.one_of(strategies.contexts(scale, max_rows=6, max_cols=5),
                                strategies.repeated_contexts(scale))
    ),
)
@settings(max_examples=strategies.examples(100))
def test_clarify_merges_repeated_rows(ctx):
    # the distinct rows come in key order, which the sort of each side's
    # (row, weight) pairs leaves out
    with mock.patch.object(factorization, "_CLARIFY_ROWS", 0):
        expected, weights = distinct_context(ctx)
        clarified = factorization._clarify(ctx.scale, ctx.entries)
        if expected is ctx:
            assert is_unclarified(clarified, ctx.entries)
            return
        distinct, got_weights, rows = clarified
        assert sorted(zip(distinct.tolist(), got_weights.tolist())) == \
            list(zip(expected.entries.tolist(), weights.tolist()))
        assert np.array_equal(distinct[rows], ctx.entries)
        assert int(np.where(distinct != 0, got_weights, 0).sum()) == int(np.count_nonzero(ctx.entries))


@pytest.mark.parametrize("levels, shape", [(5, (2, 20)), (5, (2, 21)), (300, (2, 6)),
                                           (300, (2, 7)), (2**20, (2, 2)), (2**20, (2, 3))])
@mock.patch.object(factorization, "_CLARIFY_ROWS", 0)
def test_clarify_keys_rows_by_their_digits_or_their_bytes(levels, shape):
    # rows of m levels key as int64 digits while m * bit_length(levels)
    # fits 62 bits, and past that as bytes of the narrowest unsigned type,
    # on both sides of that bound; either way rows differing in their last
    # digit stay apart, and equal rows merge
    entries = np.full(shape, levels - 1, dtype=np.int64)
    keys = factorization._row_keys(entries, levels)
    assert (keys.dtype == np.int64) == (shape[1] * levels.bit_length() <= 62)
    assert keys[0] == keys[1]
    entries[1, -1] -= 1
    keys = factorization._row_keys(entries, levels)
    assert keys[0] != keys[1]
    # tripled, the rows merge back in key order, each weighing 3
    tripled = GradedMatrix(Scale(levels), np.repeat(entries, 3, axis=0))
    distinct, weights, rows = factorization._clarify(tripled.scale, tripled.entries)
    assert distinct.tolist() == entries[np.argsort(keys)].tolist()
    assert np.array_equal(distinct[rows], tripled.entries)
    assert weights.tolist() == [[3], [3]]


@pytest.mark.parametrize("levels", [3, 11])
def test_clarify_leaves_inputs_shorter_than_the_row_floor_as_they_are(levels):
    # one row repeated: below _CLARIFY_ROWS rows the run takes the input as
    # it is, and from that many rows on it merges them; its three equal
    # columns stay
    floor = factorization._CLARIFY_ROWS
    entries = np.ones((floor, 3), dtype=np.int64)
    short = entries[1:]
    assert is_unclarified(factorization._clarify(Scale(levels), short), short)
    distinct, weights, rows = factorization._clarify(Scale(levels), entries)
    assert distinct.tolist() == [[1, 1, 1]] and weights.tolist() == [[floor]]
    assert rows.tolist() == [0] * floor


def level_table_caps(ctx):
    """Level-table caps in bytes: none; exactly the tables of the context
    the run sweeps, which a clarified input's fewer cells fit where the
    input's do not; and the default."""
    distinct, _ = distinct_context(ctx)
    if distinct.scale.levels == 2:
        return LEVEL_TABLE_CAPS
    with mock.patch.object(factorization, "_LEVEL_TABLE_BYTES", 1 << 62):
        tables = table_bytes(factorization._make_sweep(distinct.scale, distinct.entries,
                                                       distinct.entries != 0))
    return 0, tables, factorization._LEVEL_TABLE_BYTES


@pytest.mark.deep
@given(
    strategies.scales(ALL_KINDS, max_levels=9).flatmap(
        lambda scale: strategies.repeated_contexts(scale, max_rows=3, max_cols=3)
    ),
    st.sampled_from(TIE_BREAK_POLICIES),
    st.sampled_from([None, 1, 2]),
)
@settings(max_examples=strategies.examples(60))
def test_clarified_runs_match_reference(ctx, tie_break, max_factors):
    with mock.patch.object(factorization, "_CLARIFY_ROWS", 0):
        # the reference greedy runs on the input as it is; the opening block
        # and the level tables are capped at nothing, at a size sized to the
        # clarified context, and at their defaults
        slow = oracles.greedy_factors(ctx, tie_break, max_factors=max_factors)
        distinct, _ = distinct_context(ctx)
        opening_caps = table_caps(distinct, factorization.SWEEP_BATCH_BYTES)
        for cap, level_cap in product(opening_caps, level_table_caps(ctx)):
            with mock.patch.object(factorization, "_OPENING_TABLE_WORDS", cap), \
                    mock.patch.object(factorization, "_LEVEL_TABLE_BYTES", level_cap):
                fast = find_factors(ctx, tie_break, max_factors=max_factors)
            assert fast == slow, f"opening block at {cap} words, level tables at {level_cap} bytes"


@pytest.mark.deep
@pytest.mark.parametrize("levels", [3, 5, 11])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_clarified_runs_sweep_duplicated_columns_as_they_are(kind, levels):
    # rows repeated unequally often and every column twice: the run merges
    # the rows, each weighing its count, keeps both copies of each column,
    # and gives the reference's factors, whose later copies lose every tie
    scale = Scale(levels, kind, rounded=kind == "goguen")
    base = np.random.default_rng(levels).integers(0, levels, size=(6, 4))
    ctx = GradedMatrix(scale, np.repeat(np.repeat(base, [2, 5, 3, 2, 4, 2], 0), 2, 1))
    with mock.patch.object(factorization, "_CLARIFY_ROWS", 0):
        distinct, weights, _ = factorization._clarify(scale, ctx.entries)
        assert distinct.shape == (6, 8) and sorted(weights[:, 0]) == [2, 2, 2, 3, 4, 5]
        for tie_break, level_cap in product(TIE_BREAK_POLICIES, LEVEL_TABLE_CAPS):
            with mock.patch.object(factorization, "_LEVEL_TABLE_BYTES", level_cap):
                fast = find_factors(ctx, tie_break)
            assert fast == oracles.greedy_factors(ctx, tie_break), \
                f"{tie_break}, level tables at {level_cap} bytes"


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_planted_loadings_give_the_pinned_factors(kind):
    # 4000 x 8 with 125 distinct rows, run on its clarified context, under
    # both policies and on both row sources: the factor sets pinned in
    # golden.LOADINGS_SHA256, computed on the whole input
    ctx = golden.planted_loadings(kind)
    distinct, weights, _ = factorization._clarify(ctx.scale, ctx.entries)
    assert distinct.shape == (125, 8) and int(weights.sum()) == len(ctx.entries)
    for tie_break, level_cap in product(TIE_BREAK_POLICIES, LEVEL_TABLE_CAPS):
        with mock.patch.object(factorization, "_LEVEL_TABLE_BYTES", level_cap):
            fs = find_factors(ctx, tie_break)
        assert golden.factor_set_sha256(fs) == golden.LOADINGS_SHA256[kind], \
            f"{tie_break}, level tables at {level_cap} bytes"


@given(
    st.integers(0, 300),
    st.sampled_from([(1,), (7,), (3, 5), (40, 30), (1, 700)]),
    st.sampled_from([np.int16, np.int32, np.int64]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=150)
def test_row_minima_match_a_plain_reduction(rows, slab, dtype, seed):
    top = 100
    block = np.random.default_rng(seed).integers(0, top + 1, size=(rows, *slab)).astype(dtype)
    expected = block.min(axis=0, initial=top)
    got = factorization._row_minima(block.copy(), dtype(top))
    assert got.dtype == dtype
    assert np.array_equal(got, expected)


def batch_sizes(ctx, budget):
    """Per greedy step of a run at a batch budget in bytes, the candidates
    of each batch whose closures its sweep took, and per closure the bytes
    of the block whose row minima it took, with its candidates.  The sweep
    runs on the input as it is, not on its clarified context, whose fewer
    rows would fit a step in fewer batches."""
    steps, blocks = [], []
    row_minima = factorization._row_minima

    def recorded_minima(block, top):
        blocks.append((block.nbytes, block.shape[1]))
        return row_minima(block, top)

    def listed(batches):
        def wrapped(sweep, *args):
            steps.append([])
            for batch in batches(sweep, *args):
                steps[-1].append(len(batch[0]))
                yield batch
        return wrapped

    with mock.patch.object(factorization, "_row_minima", recorded_minima), \
            mock.patch.object(factorization._GradedSweep, "batches",
                              listed(factorization._GradedSweep.batches)), \
            mock.patch.object(factorization._BitsetSweep, "batches",
                              listed(factorization._BitsetSweep.batches)), \
            mock.patch.object(factorization, "SWEEP_BATCH_BYTES", budget), \
            mock.patch.object(factorization, "_clarify", unclarified):
        fs = find_factors(ctx)
    return fs, steps, blocks


@pytest.mark.parametrize("levels, rows, cols, budget", [
    (5, 4000, 8, factorization.SWEEP_BATCH_BYTES), (5, 1000, 8, 1 << 16),
    (200, 300, 5, factorization.SWEEP_BATCH_BYTES), (5, 100, 30, 4096), (5, 100, 30, 20000),
])
@pytest.mark.parametrize("level_cap", LEVEL_TABLE_CAPS)
def test_closure_blocks_stay_within_the_batch_bytes(levels, rows, cols, budget, level_cap):
    # every step's batches but its last hold as many candidates as the
    # budget allows, and no closure block exceeds it unless it holds one
    scale = Scale(levels)
    ctx = tall_product(scale, rows, levels, cols)
    cell_bytes = ctx.entries.size * np.dtype(factorization._work_dtype(scale)).itemsize
    batch = max(1, budget // cell_bytes)
    with mock.patch.object(factorization, "_LEVEL_TABLE_BYTES", level_cap):
        fs, steps, blocks = batch_sizes(ctx, budget)
        # the run on the clarified context, 810 of 4000 rows or 320 of 1000
        assert find_factors(ctx) == fs
    assert fs == oracles.greedy_factors(ctx) if rows < 1000 else fs.complete
    steps = [step for step in steps if step]
    assert any(len(step) > 1 for step in steps)
    for step in steps:
        assert all(c == batch for c in step[:-1]) and step[-1] <= batch
    assert blocks and all(size <= budget or c == 1 for size, c in blocks)
    assert any(size > budget for size, _ in blocks) == (cell_bytes > budget)


@pytest.mark.parametrize("rows, cols, budget", [
    (3196, 75, 1 << 14), (3196, 40, 1 << 12), (64, 600, factorization.SWEEP_BATCH_BYTES),
])
def test_bitset_batches_keep_their_size(rows, cols, budget):
    # a bitset batch's largest arrays are its candidates' extents, a row
    # word each, and their probe block, a word per column: on 3196 x 75
    # the probe block is the larger, on 3196 x 40 the extents
    rng = np.random.default_rng(rows)
    ctx = GradedMatrix(Scale.boolean(), (rng.random((rows, cols)) < 0.45).astype(int))
    width = 8 * max(-(-rows // 64), cols)
    batch = max(1, budget // width)
    assert opening_batches(ctx, budget)[0] == batch
    sizes = []
    closed = factorization._BitsetSweep._closed

    def recorded(ext, holes):
        sizes.append(len(ext))
        return closed(ext, holes)

    with mock.patch.object(factorization._BitsetSweep, "_closed", staticmethod(recorded)):
        _, steps, _ = batch_sizes(ctx, budget)
    assert sizes and all(c * width <= budget or c == 1 for c in sizes)
    full = [c == batch for c in sizes]
    # a step's batches are full but for its last
    ends = set((np.cumsum([len(step) for step in steps]) - 1).tolist())
    assert len(ends) < len(full)
    assert all(full[i] for i in range(len(full)) if i not in ends)


@pytest.mark.deep
@pytest.mark.parametrize("levels", [128, 129])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_sweep_matches_reference_at_the_narrow_level_bound(levels, kind):
    # 128 levels is the longest chain whose sweep runs in 16-bit levels
    scale = Scale(levels, kind, rounded=kind == "goguen")
    rng = np.random.default_rng(levels)
    assert_matches_reference(GradedMatrix(scale, rng.integers(0, levels, size=(6, 4))))
    # every grade occurs in every column, so an overflow would show in a gain
    ctx = GradedMatrix(scale, np.stack([rng.permutation(levels) for _ in range(2)], axis=1))
    mask = ctx.entries != 0
    intent = FuzzySet(scale, [0, int(rng.integers(1, levels))])
    for level_cap in LEVEL_TABLE_CAPS:
        with mock.patch.object(factorization, "_LEVEL_TABLE_BYTES", level_cap):
            for j in range(2):
                for a in range(1, levels):
                    expected = oracles.covered_count(
                        scale, ctx.entries, mask,
                        *oracles.candidate_closure(scale, ctx.entries, intent.membership, j, a),
                    )
                    got = sweep_gain(ctx, mask, intent, j, a)
                    assert got == (expected if a > intent.membership[j] else None)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_sweep_runs_in_64_bit_levels_past_the_32_bit_bound(kind):
    # 32,769 levels is the shortest chain whose sweep needs int64
    scale = Scale(32769, kind, rounded=kind == "goguen")
    assert factorization._work_dtype(scale) is np.int64
    n = scale.max_level
    ctx = GradedMatrix(scale, [[n, n // 2], [n // 4, n]])
    runs = []
    for level_cap in LEVEL_TABLE_CAPS:
        with mock.patch.object(factorization, "_LEVEL_TABLE_BYTES", level_cap):
            runs.append(find_factors(ctx))
    assert runs[0] == runs[1]
    assert len(runs[0]) == 2
    assert len(coverage_curve(runs[0], ctx)) == 2


def step_candidates(sweep, intent, extent):
    """Every candidate one step of a sweep scores, as (j, a, gain, extent,
    closed intent in levels) lists."""
    return [(j, a, g, *(half.tolist() for half in sweep.concept(covers, c)))
            for js, levels, gains, covers in sweep.batches(intent, extent)
            for c, (j, a, g) in enumerate(zip(js.tolist(), levels.tolist(), gains.tolist()))]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_tables_stay_in_the_work_dtype_past_its_column_offsets(kind):
    # a 128-level chain runs in 16-bit levels, and on 257 columns the cover
    # test's offset grades reach 257 * 128 - 1 > 2**15, yet all three
    # tables hold 16-bit levels, since only the cover test's gather adds
    # the offsets, in intp; a run and every candidate of one step agree
    # with t-norm arithmetic, and sampled ones with the reference
    scale = Scale(128, kind, rounded=kind == "goguen")
    ctx = tall_product(scale, 3, 128, 257)
    mask = ctx.entries != 0
    intent = np.random.default_rng(257).integers(0, 128, size=257) // 2
    extent = down(ctx, FuzzySet(scale, intent)).membership
    runs, steps = [], []
    for level_cap in LEVEL_TABLE_CAPS:
        with mock.patch.object(factorization, "_LEVEL_TABLE_BYTES", level_cap):
            runs.append(find_factors(ctx, max_factors=1))
            sweep = factorization._make_sweep(scale, ctx.entries, mask)
            steps.append(step_candidates(sweep, intent, extent))
    work = factorization._work_dtype(scale)
    assert work is np.int16
    assert sweep.rows.res.dtype == sweep.rows.never.dtype == sweep.rows.cols.dtype == work
    assert runs[0] == runs[1] and len(runs[0]) == 1
    assert steps[0] == steps[1]
    for j, a, gain, got_extent, got_closed in steps[1][::997]:
        expected = oracles.candidate_closure(scale, ctx.entries, intent, j, a)
        assert (got_extent, got_closed) == tuple(map(np.ndarray.tolist, expected))
        assert gain == oracles.covered_count(scale, ctx.entries, mask, *expected)


def table_bytes(sweep):
    return sum(table.nbytes for table in (sweep.rows.res, sweep.rows.never, sweep.rows.cols))


def rows_of(sweep):
    """The row source a sweep reads its residua from."""
    return type(getattr(sweep, "rows", None))


def test_level_tables_stay_within_their_cap():
    scale = Scale(101, "goguen", rounded=True)
    ctx = GradedMatrix(scale, np.random.default_rng(5).integers(0, 101, size=(6, 5)))
    mask = ctx.entries != 0
    # two level tables and the column table, each of 101 grades x 6 rows x
    # 5 columns in 16-bit levels
    size = 3 * 101 * 6 * 5 * 2
    with mock.patch.object(factorization, "_LEVEL_TABLE_BYTES", size):
        sweep = factorization._make_sweep(scale, ctx.entries, mask)
    assert rows_of(sweep) is factorization._LevelTables
    assert table_bytes(sweep) == size
    with mock.patch.object(factorization, "_LEVEL_TABLE_BYTES", size - 1):
        assert rows_of(factorization._make_sweep(scale, ctx.entries, mask)) is factorization._Residua
        assert find_factors(ctx) == oracles.greedy_factors(ctx)
    # the default cap holds no table of a 2 x 2 input on 2**20 grades
    ones = np.ones((2, 2), dtype=np.int64)
    assert rows_of(factorization._make_sweep(Scale(2**20), ones, ones != 0)) is factorization._Residua
    # and the two-grade sweep builds none at all
    bitset = factorization._make_sweep(Scale.boolean(), mask.astype(np.int64), mask)
    assert rows_of(bitset) is not factorization._LevelTables
    assert not hasattr(bitset, "res") and not hasattr(bitset, "never")


@pytest.mark.parametrize("levels, shape", [(5, (40, 30)), (11, (200, 100)), (129, (50, 40)),
                                           (2000, (30, 20)), (2000, (60, 50)), (128, (40, 300)),
                                           (5, (2, 7000))])
def test_column_and_level_tables_fit_the_default_cap(levels, shape):
    # the level table and the two column tables all hold levels of the
    # work dtype, however many columns the cover test offsets, 300 * 128
    # past 2**15 on 40 x 300
    scale = Scale(levels)
    entries = np.random.default_rng(levels).integers(0, levels, size=shape)
    sweep = factorization._make_sweep(scale, entries, entries != 0)
    work = np.dtype(factorization._work_dtype(scale))
    fit = 3 * levels * entries.size * work.itemsize
    for cap in (fit, fit - 1):
        with mock.patch.object(factorization, "_LEVEL_TABLE_BYTES", cap):
            assert factorization._LevelTables.fit(scale, entries) == (cap == fit)
    if rows_of(sweep) is factorization._LevelTables:
        assert sweep.rows.res.dtype == sweep.rows.never.dtype == sweep.rows.cols.dtype == work
        assert table_bytes(sweep) == fit <= factorization._LEVEL_TABLE_BYTES
    else:
        assert fit > factorization._LEVEL_TABLE_BYTES


@pytest.mark.deep
@given(
    st.sampled_from([1, 63, 64, 65, 130, 257]),
    st.integers(1, 6),
    st.floats(0.05, 0.95),
    st.integers(0, 2**32 - 1),
    st.sampled_from(TIE_BREAK_POLICIES),
    st.sampled_from(BUDGETS),
    st.sampled_from([None, 1, 2]),
)
@settings(max_examples=strategies.examples(60))
def test_bitset_sweep_matches_reference_at_word_boundaries(n, m, density, seed, tie_break,
                                                           budget, max_factors):
    rng = np.random.default_rng(seed)
    ctx = GradedMatrix(Scale.boolean(), (rng.random((n, m)) < density).astype(int))
    assert_matches_reference(ctx, tie_break, budget, max_factors)


@pytest.mark.deep
@given(
    strategies.packed_closures(), st.sampled_from("CF"),
    st.sampled_from([8, 8 * 3, factorization.SWEEP_BATCH_BYTES]),
)
@settings(max_examples=strategies.examples(200))
def test_bitset_closures_match_the_plain_test(block, order, budget):
    # the probed closure test against one AND over every (extent, column,
    # word) triple, on the word-major layout the sweep passes and on the
    # row-major one; a budget of 8 or 24 bytes splits the pairs the probe
    # leaves into chunks of one to three
    ext, holes = (np.asarray(a, order=order) for a in block)
    with mock.patch.object(factorization, "SWEEP_BATCH_BYTES", budget):
        closed = factorization._BitsetSweep._closed(ext, holes)
    assert closed.dtype == bool
    assert np.array_equal(closed, oracles.closed_columns(ext, holes))


@pytest.mark.deep
def test_bitset_sweep_matches_reference_on_a_truncated_tall_run():
    rng = np.random.default_rng(8)
    ctx = GradedMatrix(Scale.boolean(), (rng.random((300, 20)) < 0.45).astype(int))
    assert_matches_reference(ctx, max_factors=6)


def test_opening_table_stays_within_its_cap():
    ctx = GradedMatrix(Scale(101), np.random.default_rng(101).integers(0, 101, size=(40, 10)))
    calls = []
    opening_batches = factorization._opening_batches

    def recorded(sweep, block, *args):
        calls.append((sweep, block))
        return opening_batches(sweep, block, *args)

    # the whole opening is 10 attributes x 100 grades, each candidate
    # keeping 7 words of covered cells and 40 + 10 levels of 16 bits, 156
    # bytes in all, in batches of 524288 // (400 * 2) = 655 candidates
    cap = 13000
    with mock.patch.object(factorization, "_opening_batches", recorded), \
            mock.patch.object(factorization, "_OPENING_TABLE_WORDS", cap):
        capped = find_factors(ctx)
    # every opening of the run is handed the one block, which the first fills
    sweep, block = calls[0]
    assert len(calls) == len(capped) and all(b is block for _, b in calls)
    js = np.concatenate([b[0] for b in block])
    levels = np.concatenate([b[1] for b in block])
    stored = sum(a.nbytes for *_, covers in block for a in covers)
    assert 0 < stored <= 8 * cap
    # the block holds the first candidates in (j, a) order, as the longest
    # prefix of whole batches that fits, not all 1000
    order = [(j, a) for j in range(10) for a in range(1, 101)]
    assert list(zip(js.tolist(), levels.tolist())) == order[:len(js)]
    batch, width = sweep.batch, stored // len(js)
    assert width == 8 * 7 + 2 * (40 + 10)
    assert all(len(a) == len(b[0]) == batch for b in block for a in (b[1], *b[2]))
    assert len(js) * width <= 8 * cap < (len(js) + batch) * width
    assert 0 < len(js) < len(order)
    with mock.patch.object(factorization, "_OPENING_TABLE_WORDS", 0):
        assert find_factors(ctx) == capped
    # a run that seeks no factor builds no block
    with mock.patch.object(factorization, "_opening_batches", recorded):
        find_factors(ctx, max_factors=0)
        find_factors(GradedMatrix(Scale(101), np.zeros((40, 10), dtype=int)))
    assert len(calls) == len(capped)


@pytest.mark.parametrize("levels, shape", [(11, (6, 75)), (2, (20, 260))])
def test_a_first_opening_counts_each_batch_once(levels, shape):
    # the first opening keeps its batches as the sweep yields them, gains
    # and all, so a one-factor run counts the gains of each batch its sweep
    # yields once, whatever the block holds
    entries = np.random.default_rng(levels).integers(0, levels, size=shape)
    ctx = GradedMatrix(Scale(levels), entries)
    sweep_class = factorization._BitsetSweep if levels == 2 else factorization._GradedSweep
    sweep_count, sweep_batches = sweep_class.count, sweep_class.batches

    def count(sweep, covers):
        counted.append(len(covers[0]))
        return sweep_count(sweep, covers)

    def batches(sweep, *args):
        for batch in sweep_batches(sweep, *args):
            yielded.append(len(batch[0]))
            yield batch

    for cap in table_caps(ctx, factorization.SWEEP_BATCH_BYTES):
        counted, yielded = [], []
        with mock.patch.object(sweep_class, "count", count), \
                mock.patch.object(sweep_class, "batches", batches), \
                mock.patch.object(factorization, "_OPENING_TABLE_WORDS", cap):
            find_factors(ctx, max_factors=1)
        assert counted == yielded and len(yielded) >= 2, f"opening block at {cap} words"


def closure_counts(ctx, cap, level_cap):
    """A run's factor set, the candidates its closures close and the
    candidates its sweep's batches yield, at an opening-block cap in words
    and a level-table cap in bytes."""
    closed, yielded = [], []

    def candidates(block):
        # a block of candidates leads with them; one candidate has no such axis
        return int(np.prod(block.shape[:-1]))

    def counted(kernel):
        def closures(rows, idx):
            closed.append(candidates(idx))
            return kernel(rows, idx)
        return closures

    bitset_closed = factorization._BitsetSweep._closed

    def closed_columns(ext, holes):
        closed.append(candidates(ext))
        return bitset_closed(ext, holes)

    def listed(batches):
        def wrapped(sweep, *args):
            for batch in batches(sweep, *args):
                yielded.append(len(batch[0]))
                yield batch
        return wrapped

    with mock.patch.object(factorization._LevelTables, "closures",
                           counted(factorization._LevelTables.closures)), \
            mock.patch.object(factorization._Residua, "closures",
                              counted(factorization._Residua.closures)), \
            mock.patch.object(factorization._BitsetSweep, "_closed", staticmethod(closed_columns)), \
            mock.patch.object(factorization._GradedSweep, "batches",
                              listed(factorization._GradedSweep.batches)), \
            mock.patch.object(factorization._BitsetSweep, "batches",
                              listed(factorization._BitsetSweep.batches)), \
            mock.patch.object(factorization, "_OPENING_TABLE_WORDS", cap), \
            mock.patch.object(factorization, "_LEVEL_TABLE_BYTES", level_cap):
        fs = find_factors(ctx)
    return fs, sum(closed), sum(yielded)


@pytest.mark.parametrize("levels, kind, level_cap", [
    (5, "lukasiewicz", factorization._LEVEL_TABLE_BYTES), (5, "lukasiewicz", 0),
    (11, "godel", factorization._LEVEL_TABLE_BYTES), (11, "goguen", 0),
    (2, "lukasiewicz", factorization._LEVEL_TABLE_BYTES),
])
def test_a_run_closes_each_candidate_it_scores_once(levels, kind, level_cap):
    # every closure is one of a candidate the sweep's batches score, and a
    # winner's concept, the opening's included, comes from the batch or
    # block that scored it, so no candidate is closed a second time
    scale = Scale(levels, kind, rounded=kind == "goguen")
    entries = np.random.default_rng(levels).integers(0, levels, size=(12, 9))
    ctx = GradedMatrix(scale, entries)
    slow = oracles.greedy_factors(ctx)
    assert len(slow) >= 3
    for cap in table_caps(ctx, factorization.SWEEP_BATCH_BYTES):
        fs, closed, yielded = closure_counts(ctx, cap, level_cap)
        assert fs == slow
        assert closed == yielded > 0, f"opening block at {cap} words"


# the arrays each row source reads its residua from
ROW_SOURCE_TABLES = {
    factorization._LevelTables: ("res", "never", "cols"),
    factorization._Residua: ("entries", "columns"),
}


@pytest.mark.parametrize("level_cap", LEVEL_TABLE_CAPS)
def test_row_sources_stay_read_only_and_unchanged_through_a_run(level_cap):
    scale = Scale(11, "goguen", rounded=True)
    ctx = GradedMatrix(scale, np.random.default_rng(11).integers(0, 11, size=(8, 6)))
    made = []
    make_sweep = factorization._make_sweep

    def recorded(*args):
        sweep = make_sweep(*args)
        tables = [getattr(sweep.rows, name) for name in ROW_SOURCE_TABLES[type(sweep.rows)]]
        made.append((sweep.rows, tables, [table.copy() for table in tables]))
        return sweep

    with mock.patch.object(factorization, "_make_sweep", recorded), \
            mock.patch.object(factorization, "_LEVEL_TABLE_BYTES", level_cap):
        fs = find_factors(ctx)
    ((rows, tables, before),) = made
    assert type(rows) is (factorization._LevelTables if level_cap else factorization._Residua)
    assert fs.complete and len(fs) > 1
    for table, copy in zip(tables, before):
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[...] = 0
        assert np.array_equal(table, copy)


def tie_spans(ctx, tie_break, budget, cap):
    """Per greedy step of one run at a batch budget in bytes and an
    opening-block cap in words: how many of its batches hold a candidate
    of the step's top gain."""
    spans = []
    best_candidate = factorization._best_candidate

    def step(batches, tie_break):
        batches = list(batches)
        tops = [int(g.max()) for _, _, g, _ in batches]
        spans.append(tops.count(max(tops, default=0)))
        return best_candidate(batches, tie_break)

    with mock.patch.object(factorization, "_best_candidate", step), \
            mock.patch.object(factorization, "SWEEP_BATCH_BYTES", budget), \
            mock.patch.object(factorization, "_OPENING_TABLE_WORDS", cap):
        fs = find_factors(ctx, tie_break)
    return fs, spans


@pytest.mark.parametrize("levels, kind, base", [
    (5, "lukasiewicz", (3, 2)), (7, "godel", (2, 3)), (11, "goguen", (3, 2)), (2, "godel", (5, 3)),
])
@pytest.mark.parametrize("tie_break", TIE_BREAK_POLICIES)
def test_ties_across_batches_match_reference(levels, kind, base, tie_break):
    # identical column blocks give every candidate a twin of equal gain in
    # a later batch, so ties span batches at every budget and opening cap
    scale = Scale(levels, kind, rounded=kind == "goguen")
    entries = np.tile(np.random.default_rng(levels).integers(0, levels, size=base), 3)
    ctx = GradedMatrix(scale, entries)
    slow = oracles.greedy_factors(ctx, tie_break)
    for budget in BUDGETS[:2]:
        for cap in table_caps(ctx, budget):
            fast, spans = tie_spans(ctx, tie_break, budget, cap)
            assert fast == slow, f"budget {budget}, opening block at {cap} words"
            assert max(spans) >= 2


# ---------------------------------------------------------------- gain


def test_gain_counts_covered_universe_cells(decathlon):
    mask = decathlon.entries != 0
    g = sweep_gain(decathlon, mask, FuzzySet(FIVE, np.zeros(10, dtype=np.int64)), 0, 4)
    concept = concept_from_intent(decathlon, FuzzySet(FIVE, [4] + [0] * 9))
    rect = FIVE.tnorm(concept.extent.membership[:, None], concept.intent.membership[None, :])
    assert g == int(np.count_nonzero(mask & (rect == decathlon.entries)))


@given(strategies.context_with_intent(kinds=ALL_KINDS), st.data())
@settings(max_examples=strategies.examples(60))
def test_gain_matches_the_closed_candidate(pair, data):
    ctx, intent = pair
    j = data.draw(st.integers(0, ctx.n_cols - 1))
    a = data.draw(st.integers(1, ctx.scale.max_level))
    drawn = np.array(data.draw(
        st.lists(st.lists(st.booleans(), min_size=ctx.n_cols, max_size=ctx.n_cols),
                 min_size=ctx.n_rows, max_size=ctx.n_rows)
    ), dtype=bool)
    mask = drawn & (ctx.entries != 0)
    extent, closed = oracles.candidate_closure(
        ctx.scale, ctx.entries, intent.membership, j, a
    )
    expected = oracles.covered_count(ctx.scale, ctx.entries, mask, extent, closed)
    # a step scores only the candidates that raise the intent
    got = sweep_gain(ctx, mask, intent, j, a)
    assert got == (expected if a > intent.membership[j] else None)


@pytest.mark.deep
@given(
    strategies.context_with_intent(kinds=ALL_KINDS), st.data(),
    st.sampled_from(BUDGETS), st.sampled_from(LEVEL_TABLE_CAPS),
)
@settings(max_examples=strategies.examples(80))
def test_each_batch_closes_its_candidates(pair, data, budget, level_cap):
    # every candidate of a step, in (j, a) order, with the extent, closed
    # intent and gain its batch gives it, against one closure per candidate
    ctx, intent = pair
    scale, entries = ctx.scale, ctx.entries
    drawn = data.draw(st.lists(st.booleans(), min_size=entries.size, max_size=entries.size))
    mask = np.array(drawn).reshape(entries.shape) & (entries != 0)
    with mock.patch.object(factorization, "SWEEP_BATCH_BYTES", budget), \
            mock.patch.object(factorization, "_LEVEL_TABLE_BYTES", level_cap):
        sweep = factorization._make_sweep(scale, entries, mask)
        seen = []
        for js, levels, gains, covers in sweep.batches(intent.membership,
                                                       down(ctx, intent).membership):
            assert len(js) == len(levels) == len(gains) >= 1
            assert sweep.count(covers).tolist() == gains.tolist()
            for c, (j, a) in enumerate(zip(js.tolist(), levels.tolist())):
                extent, closed = oracles.candidate_closure(scale, entries, intent.membership, j, a)
                got_extent, got_closed = sweep.concept(covers, c)
                assert got_extent.tolist() == extent.tolist()
                assert got_closed.tolist() == closed.tolist()
                assert gains[c] == oracles.covered_count(scale, entries, mask, extent, closed)
                seen.append((j, a))
    assert seen == [(j, a) for j in range(ctx.n_cols)
                    for a in range(int(intent.membership[j]) + 1, scale.levels)]


@given(
    st.sampled_from([63, 64, 65]),
    st.integers(1, 6),
    st.floats(0.05, 0.95),
    st.integers(0, 2**32 - 1),
    st.sampled_from([None, 1, 2]),
)
@settings(max_examples=40)
def test_bitset_retire_in_place_equals_a_full_repack(n, m, density, seed, max_factors):
    # `retire` takes the covers of the batch that scored the factor
    rng = np.random.default_rng(seed)
    ctx = GradedMatrix(Scale.boolean(), (rng.random((n, m)) < density).astype(int))
    retire = factorization._BitsetSweep.retire
    mask = ctx.entries != 0
    counts = []

    def checked(sweep, covers, c):
        extent, intent = sweep.concept(covers, c)
        remaining = retire(sweep, covers, c)
        mask[:] &= ~(_rectangle(ctx.scale, extent, intent) >= ctx.entries)
        assert np.array_equal(sweep.uncovered, factorization._pack_cells(mask.T))
        assert remaining == int(mask.sum())
        counts.append(remaining)
        return remaining

    with mock.patch.object(factorization._BitsetSweep, "retire", checked):
        fs = find_factors(ctx, max_factors=max_factors)
    assert tuple(counts) == fs.uncovered_counts[1:]
    assert fs == oracles.greedy_factors(ctx, max_factors=max_factors)


@given(
    strategies.scales(ALL_KINDS, min_levels=3, max_levels=12).flatmap(
        lambda scale: st.one_of(strategies.contexts(scale, max_rows=6, max_cols=5),
                                strategies.repeated_contexts(scale, max_rows=3, max_cols=3))
    ),
    st.sampled_from(LEVEL_TABLE_CAPS),
    st.integers(0, 2),
)
@settings(max_examples=strategies.examples(60))
def test_graded_retire_clears_the_winners_packed_cells(ctx, level_cap, opening_cap):
    # after each factor the sweep's uncovered cells are those the
    # reference's factors so far leave, on either row source and with the
    # winner's covers from the opening block or from a sweep batch; on a
    # clarified context each distinct cell keeps the weight of the input
    # cells it stands for, in every plane, until it is covered
    slow = oracles.greedy_factors(ctx)
    cap = table_caps(ctx, factorization.SWEEP_BATCH_BYTES)[opening_cap]
    retire = factorization._GradedSweep.retire
    clarify = factorization._clarify
    mask = ctx.entries != 0
    counts, clarified = [], []

    def recorded(*args):
        clarified.append(clarify(*args))
        return clarified[-1]

    def checked(sweep, covers, c):
        remaining = retire(sweep, covers, c)
        factor = slow.factors[len(counts)]
        rect = _rectangle(ctx.scale, factor.extent.membership, factor.intent.membership)
        mask[:] &= ~(rect >= ctx.entries)
        assert np.array_equal(uncovered_cells(sweep, clarified[0]), mask)
        distinct, weights, rows = clarified[0]
        if weights is not None:
            live = np.zeros(distinct.shape, dtype=bool)
            live[rows] = mask
            assert np.array_equal(live_weights(sweep, distinct.shape), np.where(live, weights, 0))
        assert remaining == int(mask.sum())
        counts.append(remaining)
        return remaining

    with mock.patch.object(factorization._GradedSweep, "retire", checked), \
            mock.patch.object(factorization, "_clarify", recorded), \
            mock.patch.object(factorization, "_CLARIFY_ROWS", 0), \
            mock.patch.object(factorization, "_OPENING_TABLE_WORDS", cap), \
            mock.patch.object(factorization, "_LEVEL_TABLE_BYTES", level_cap):
        fs = find_factors(ctx)
    assert fs == slow
    assert tuple(counts) == slow.uncovered_counts[1:]


@pytest.mark.parametrize("level_cap", LEVEL_TABLE_CAPS)
def test_cover_universe_bookkeeping(decathlon, reference_factors, level_cap):
    # the shared `retire` on both row sources, given the covers of the
    # batch that scored the first factor
    mask = decathlon.entries != 0
    assert int(mask.sum()) == 50
    retired = []
    retire = factorization._GradedSweep.retire

    def recorded(sweep, covers, c):
        retired.append((sweep, sweep.concept(covers, c), retire(sweep, covers, c)))
        return retired[-1][2]

    with mock.patch.object(factorization, "_LEVEL_TABLE_BYTES", level_cap), \
            mock.patch.object(factorization._GradedSweep, "retire", recorded):
        find_factors(decathlon, max_factors=1)
    ((sweep, (extent, intent), remaining),) = retired
    assert rows_of(sweep) is (factorization._LevelTables if level_cap else factorization._Residua)
    first = reference_factors[0]
    assert (extent.tolist(), intent.tolist()) == (first.extent.membership.tolist(),
                                                  first.intent.membership.tolist())
    assert (50 - remaining, remaining) == (23, 27)
    assert int(uncovered_cells(sweep, unclarified(FIVE, decathlon.entries)).sum()) == 27


@pytest.mark.parametrize("level_cap", LEVEL_TABLE_CAPS)
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_a_run_cover_tests_each_scored_batch_once(kind, level_cap):
    # the cover test runs once per batch a sweep scores, and `retire`
    # clears the cells the winner's batch packed without testing again
    scale = Scale(7, kind, rounded=kind == "goguen")
    ctx = GradedMatrix(scale, np.random.default_rng(7).integers(0, 7, size=(12, 9)))
    slow = oracles.greedy_factors(ctx)
    calls, scored, retires = [], [], []

    def counted(kernel):
        def covered(rows, *args):
            calls.append(1)
            return kernel(rows, *args)
        return covered

    batches = factorization._GradedSweep.batches

    def listed(sweep, *args):
        for batch in batches(sweep, *args):
            scored.append(1)
            yield batch

    retire = factorization._GradedSweep.retire

    def spied(sweep, *args):
        before = len(calls)
        remaining = retire(sweep, *args)
        retires.append(len(calls) - before)
        return remaining

    for cap in table_caps(ctx, factorization.SWEEP_BATCH_BYTES):
        for log in (calls, scored, retires):
            log.clear()
        with mock.patch.object(factorization._LevelTables, "covered",
                               counted(factorization._LevelTables.covered)), \
                mock.patch.object(factorization._Residua, "covered",
                                  counted(factorization._Residua.covered)), \
                mock.patch.object(factorization._GradedSweep, "batches", listed), \
                mock.patch.object(factorization._GradedSweep, "retire", spied), \
                mock.patch.object(factorization, "_OPENING_TABLE_WORDS", cap), \
                mock.patch.object(factorization, "_LEVEL_TABLE_BYTES", level_cap):
            fs = find_factors(ctx)
        assert fs == slow, f"opening block at {cap} words"
        assert len(calls) == len(scored) > 0
        assert retires == [0] * len(fs)


# grades at both ends of the longest chain, so that a key must rank a
# gain above any difference of grades
TIED_GRADES = (*range(1, 5), *range(MAX_LEVELS - 4, MAX_LEVELS))


@st.composite
def tied_runs(draw):
    """Candidates (j, a) in (j, a) order, with grades from both ends of the
    longest chain and gains from one or two runs of four neighbouring
    values, and the batches they split into at random boundaries, each
    tagged with the index of its first candidate."""
    candidates = [(j, a) for j in range(draw(st.integers(0, 5)))
                  for a in sorted(draw(st.sets(st.sampled_from(TIED_GRADES))))]
    # gains up to _MAX_CELLS, the cell count of the largest input
    # find_factors takes, beside grades up to MAX_LEVELS - 1, and on both
    # sides of 2**31, where a key of twice the multiplier would wrap
    bases = draw(st.lists(st.sampled_from([0, 1000, 2**31 - 2, factorization._MAX_CELLS - 3]),
                          min_size=1, max_size=2))
    gains = [draw(st.sampled_from(bases)) + draw(st.integers(0, 3)) for _ in candidates]
    cuts = draw(st.lists(st.integers(1, len(candidates) - 1))) if len(candidates) > 1 else []
    bounds = sorted({0, len(candidates), *cuts})
    batches = [(np.array([j for j, _ in candidates[lo:hi]], dtype=np.int64),
                np.array([a for _, a in candidates[lo:hi]], dtype=np.int64),
                np.array(gains[lo:hi], dtype=np.int64), lo)
               for lo, hi in zip(bounds, bounds[1:])]
    return candidates, gains, batches


@given(tied_runs(), st.sampled_from(TIE_BREAK_POLICIES))
@settings(max_examples=300)
def test_batch_winners_match_the_sort_key(run, tie_break):
    # The key g * MAX_LEVELS - a cannot overflow int64 on any input
    # find_factors accepts: a gain counts cells, at most _MAX_CELLS =
    # (2**63 - 1) // MAX_LEVELS of them, and a grade lies in
    # [0, MAX_LEVELS), so every key lies in (-MAX_LEVELS, 2**63).  The
    # draws take gains and grades up to both bounds.
    assert factorization._MAX_CELLS * MAX_LEVELS <= np.iinfo(np.int64).max
    candidates, gains, batches = run
    key = oracles.TIE_BREAK_KEYS[tie_break]
    best = None
    for (j, a), g in zip(candidates, gains):
        if best is None or (g, key(j, a)) > best[0]:
            best = (g, key(j, a)), (g, j, a)
    got = factorization._best_candidate(iter(batches), tie_break)
    if best is None:
        assert got is None
    else:
        gain, start, c = got
        assert type(gain) is int
        assert (gain, *candidates[start + c]) == best[1]


def test_an_input_past_the_cell_bound_is_refused(decathlon):
    with mock.patch.object(factorization, "_MAX_CELLS", 49), \
            pytest.raises(ValueError, match="^find_factors takes at most 49 cells, got 50$"):
        find_factors(decathlon)
    with mock.patch.object(factorization, "_MAX_CELLS", 50):
        assert find_factors(decathlon).complete


# ---------------------------------------------------------------- factor sets


def test_factor_matrices_layout(decathlon):
    fs = golden.reference_factor_set()
    a, b = factor_matrices(fs)
    assert a.shape == (5, 7)
    assert b.shape == (7, 10)
    assert a == GradedMatrix.from_values(FIVE, golden.A_F)
    assert b == GradedMatrix.from_values(FIVE, golden.B_F)


def test_factor_matrices_compose_to_superposition(decathlon):
    fs = find_factors(decathlon, max_factors=3)
    a, b = factor_matrices(fs)
    rects = [_rectangle(FIVE, c.extent.membership, c.intent.membership) for c in fs.factors]
    assert np.array_equal(compose(a, b).entries, np.maximum.reduce(rects))


def reference_prefix(k, trace):
    """The first k reference factors, with the given trace."""
    a, b = golden.printed_factor_matrices()
    return FactorSet(GradedMatrix(FIVE, a.entries[:, :k]), GradedMatrix(FIVE, b.entries[:k]), trace)


def full_rectangle(trace):
    """One factor whose rectangle is 1 in every cell of the decathlon input."""
    return FactorSet(GradedMatrix(FIVE, [[4]] * 5), GradedMatrix(FIVE, [[4] * 10]), trace)


def test_factor_set_validation():
    a, b = golden.printed_factor_matrices()
    with pytest.raises(ValueError, match="inner dimensions disagree"):
        FactorSet(a, GradedMatrix(FIVE, b.entries[:6]), golden.UNCOVERED)
    with pytest.raises(ValueError, match="scale mismatch"):
        FactorSet(a, GradedMatrix(Scale(5, "godel"), b.entries), golden.UNCOVERED)
    with pytest.raises(ValueError, match="one entry per prefix"):
        FactorSet(a, b, uncovered_counts=(50, 0))


@pytest.mark.parametrize("trace", [(5, -3), (2, 7), (-1, -1), (6, 4, 5)])
def test_factor_set_refuses_a_trace_that_rises_or_goes_negative(trace):
    k = len(trace) - 1
    a, b = golden.printed_factor_matrices()
    with pytest.raises(ValueError, match=r"^uncovered_counts must not rise or go below 0, got "):
        FactorSet(GradedMatrix(FIVE, a.entries[:, :k]), GradedMatrix(FIVE, b.entries[:k]), trace)
    with pytest.raises(TypeError):
        FactorSet(a, b)


def test_factor_set_iteration(reference_factors):
    fs = golden.reference_factor_set()
    assert len(fs) == 7
    assert tuple(fs) == reference_factors


def test_complete_is_read_off_the_trace():
    assert golden.reference_factor_set().complete
    truncated = reference_prefix(2, golden.UNCOVERED[:3])
    assert not truncated.complete
    with pytest.raises(TypeError):
        FactorSet(*golden.printed_factor_matrices(), golden.UNCOVERED, complete=False)


def test_covered_nonzero_curve(decathlon):
    fs = find_factors(decathlon)
    curve = fs.covered_nonzero_curve()
    assert len(curve) == 7
    assert curve[-1] == 1
    assert all(a <= b for a, b in zip(curve, curve[1:]))
    assert curve == [Fraction(50 - u, 50) for u in golden.UNCOVERED[1:]]


# ---------------------------------------------------------------- coverage


def test_decathlon_coverage_curve(decathlon):
    fs = find_factors(decathlon)
    assert tuple(coverage_curve(fs, decathlon)) == golden.CURVE


def test_reference_order_coverage_curve(decathlon):
    assert tuple(coverage_curve(golden.reference_factor_set(), decathlon)) == golden.CURVE


def test_coverage_curve_validation(decathlon):
    fs = find_factors(decathlon)
    with pytest.raises(ValueError, match="does not fit"):
        coverage_curve(fs, GradedMatrix(FIVE, np.zeros((4, 10), dtype=int)))
    with pytest.raises(ValueError, match="scale mismatch"):
        coverage_curve(fs, GradedMatrix(Scale(5, "godel"), np.zeros((5, 10), dtype=int)))


def test_coverage_curve_rejects_an_incomplete_set_that_claims_completeness(decathlon):
    # six factors leave one cell uncovered, but the trace says none is
    fs = reference_prefix(6, (*golden.UNCOVERED[:6], 0))
    with pytest.raises(ValueError, match="^factors do not reproduce the input exactly$"):
        coverage_curve(fs, decathlon)


def test_coverage_curve_rejects_factors_above_the_input(decathlon):
    # a full rectangle exceeds every cell of the decathlon input below 1,
    # and matches the 17 cells that are 1
    assert int(np.count_nonzero(decathlon.entries == 4)) == 17
    with pytest.raises(ValueError, match="^factors exceed the input$"):
        coverage_curve(full_rectangle((50, 33)), decathlon)
    # a set that claims completeness fails the exactness check first
    with pytest.raises(ValueError, match="^factors do not reproduce the input exactly$"):
        coverage_curve(full_rectangle((50, 0)), decathlon)


@pytest.mark.parametrize("trace", [(50, 27, 10), (50, 20, 14), (49, 27, 14)])
def test_coverage_curve_recounts_the_trace(decathlon, trace):
    # the true trace of these two factors is golden.UNCOVERED[:3]
    fs = reference_prefix(2, trace)
    with pytest.raises(ValueError, match="^factors do not cover the cells their uncovered "
                                         "counts claim$"):
        coverage_curve(fs, decathlon)


@given(
    strategies.scales(ALL_KINDS, max_levels=11).flatmap(
        lambda scale: strategies.contexts(scale, max_rows=5, max_cols=5)
    ),
    st.sampled_from([None, 1, 2]),
)
@settings(max_examples=120)
def test_coverage_curve_accepts_every_greedy_run(ctx, max_factors):
    fs = find_factors(ctx, max_factors=max_factors)
    assert fs.complete == (fs.uncovered_counts[-1] == 0)
    a, b = factor_matrices(fs)
    assert fs.complete == (oracles.loop_compose(a, b) == ctx.entries.tolist())
    assert len(coverage_curve(fs, ctx)) == len(fs)


@given(strategies.contexts(max_rows=3, max_cols=3, kinds=ALL_KINDS))
@settings(max_examples=40)
def test_coverage_curve_accepts_every_optimal_cover(ctx):
    opt = optimal_factorization(ctx)
    assert opt.complete and opt.uncovered_counts[-1] == 0
    assert len(coverage_curve(opt, ctx)) == len(opt)


@given(strategies.contexts(max_rows=4, max_cols=4))
@settings(max_examples=40)
def test_coverage_curve_matches_prefix_superpositions(ctx):
    fs = find_factors(ctx)
    curve = coverage_curve(fs, ctx)
    a, b = factor_matrices(fs)
    for l, cov in enumerate(curve, start=1):
        prefix = np.array(oracles.loop_compose(GradedMatrix(ctx.scale, a.entries[:, :l]),
                                               GradedMatrix(ctx.scale, b.entries[:l])))
        agree = int(np.count_nonzero(prefix == ctx.entries))
        assert cov == Fraction(agree, ctx.entries.size)


def curve_or_error(curve, factor_set, context):
    try:
        return curve(factor_set, context)
    except ValueError as exc:
        return f"ValueError: {exc}"


@given(strategies.factor_pairs(kinds=ALL_KINDS), st.sampled_from(["product", "raised", "any"]),
       st.sampled_from(["true", "complete", "off"]), st.data())
@settings(max_examples=300)
def test_coverage_curve_matches_full_rectangles(pair, context_kind, claim, data):
    # support blocks and whole-grid raises give the curve, or the error, of
    # one full rectangle per factor, on complete and truncated sets
    a, b = pair
    scale, (n, m), k = a.scale, (a.n_rows, b.n_cols), a.n_cols
    product = oracles.loop_compose(a, b)
    assert compose(a, b).entries.tolist() == product
    cells = np.array(product, dtype=np.int64).reshape(n, m)
    if context_kind != "product":
        level = st.integers(0, scale.max_level)
        drawn = np.reshape(data.draw(st.lists(level, min_size=n * m, max_size=n * m)), (n, m))
        cells = np.maximum(cells, drawn) if context_kind == "raised" else drawn
    context = GradedMatrix(scale, cells)
    prefixes = [np.array(oracles.loop_compose(GradedMatrix(scale, a.entries[:, :l]),
                                              GradedMatrix(scale, b.entries[:l]))).reshape(n, m)
                for l in range(k + 1)]
    trace = [int(np.count_nonzero((cells != 0) & (prefix != cells))) for prefix in prefixes]
    if claim == "complete":
        trace[-1] = 0
    elif claim == "off":
        trace[data.draw(st.integers(0, k))] += 1
    trace = tuple(trace)
    if any(later > earlier for earlier, later in zip(trace, trace[1:])):
        # a count that rises, as past a factor exceeding a covered cell, is
        # refused before any curve is drawn
        with pytest.raises(ValueError, match="^uncovered_counts must not rise"):
            FactorSet(a, b, trace)
        return
    fs = FactorSet(a, b, trace)
    assert (curve_or_error(coverage_curve, fs, context)
            == curve_or_error(oracles.full_coverage_curve, fs, context))


@pytest.mark.parametrize("cell, trace, error", [
    (3, (48, 2, 0), None),
    (4, (48, 2, 0), "factors do not reproduce the input exactly"),
    (2, (48, 2, 1), "factors exceed the input"),
    (4, (48, 2, 2), "factors do not cover the cells their uncovered counts claim"),
])
def test_coverage_curve_checks_cells_inside_a_sparse_block(cell, trace, error):
    # factor 1 raises all 48 cells of a 6 x 8 grid to 1, the whole grid;
    # factor 2 raises its support block, row 2 by columns 3 and 4, to 3.
    # The offending cell, (2, 4), lies inside that block
    godel = Scale(5, "godel")
    a = GradedMatrix(godel, [[1, 3 if i == 2 else 0] for i in range(6)])
    b = GradedMatrix(godel, [[1] * 8, [4 if j in (3, 4) else 0 for j in range(8)]])
    fs = FactorSet(a, b, trace)
    cells = np.ones((6, 8), dtype=np.int64)
    cells[2, 3:5] = 3, cell
    context = GradedMatrix(godel, cells)
    if error is None:
        assert coverage_curve(fs, context) == [Fraction(46, 48), Fraction(1)]
    else:
        with pytest.raises(ValueError, match=f"^{error}$"):
            coverage_curve(fs, context)
    assert (curve_or_error(coverage_curve, fs, context)
            == curve_or_error(oracles.full_coverage_curve, fs, context))


# ---------------------------------------------------------------- oracle


def test_decathlon_optimum(decathlon):
    opt = optimal_factorization(decathlon)
    assert len(opt.factors) == golden.OPTIMAL_FACTOR_COUNT
    assert_exact(opt, decathlon)


def test_boolean_identity_optimum():
    scale = Scale.boolean()
    eye = GradedMatrix(scale, np.eye(3, dtype=int))
    opt = optimal_factorization(eye)
    assert len(opt.factors) == 3
    assert_exact(opt, eye)


@pytest.mark.parametrize("levels", [2, 3, 5])
@pytest.mark.parametrize("shape", [(1, 1), (2, 3), (4, 1)])
def test_oracle_on_zero_matrix(levels, shape):
    # the cover search's own path: no cell to cover, so no factor
    n_rows, n_cols = shape
    opt = optimal_factorization(GradedMatrix(Scale(levels), np.zeros(shape, dtype=int)))
    assert opt.factors == ()
    for matrix, matrix_shape in ((opt.a, (n_rows, 0)), (opt.b, (0, n_cols))):
        assert matrix.entries.shape == matrix_shape
        assert matrix.entries.dtype == LEVEL_DTYPE
    assert opt.uncovered_counts == (0,)
    assert opt.complete


@given(strategies.contexts(max_rows=3, max_cols=3, kinds=("lukasiewicz", "godel")))
@settings(max_examples=30)
def test_oracle_matches_brute_force_minimum(ctx):
    opt = optimal_factorization(ctx)
    assert_exact(opt, ctx)
    # the concepts come from the loop oracle, not from the enumeration the
    # optimal factorization itself runs on
    concepts = [FormalConcept(FuzzySet(ctx.scale, extent), FuzzySet(ctx.scale, intent))
                for intent, extent in sorted(oracles.sweep_concepts(ctx))]
    if ctx.entries.any():
        assert len(opt.factors) == oracles.min_cover_size(ctx, concepts)
    else:
        assert len(opt.factors) == 0


@given(strategies.contexts(max_rows=4, max_cols=4))
@settings(max_examples=40)
def test_greedy_never_beats_the_oracle(ctx):
    assert len(find_factors(ctx).factors) >= len(optimal_factorization(ctx).factors)


def test_oracle_budget(decathlon):
    with pytest.raises(BudgetExceededError):
        optimal_factorization(decathlon, budget=50)


def test_oracle_budget_stops_the_cover_search():
    # five closures enumerate its concepts; the cover search visits six nodes
    ctx = GradedMatrix(Scale.boolean(), [[1, 1, 0], [0, 1, 1]])
    assert len(enumerate_concepts(ctx, budget=5)) == 4
    with pytest.raises(BudgetExceededError) as info:
        optimal_factorization(ctx, budget=5)
    assert str(info.value) == "cover search exceeded the budget of 5 nodes"
    assert len(optimal_factorization(ctx, budget=6)) == 2


@pytest.mark.deep
@given(st.integers(1, 16).flatmap(
    lambda bits: st.lists(st.integers(0, 2**bits - 1), max_size=12)))
@settings(max_examples=strategies.examples(200))
def test_min_cover_matches_the_recursive_search(masks):
    # the same index set at the budget of the recursive search's node
    # count, and none below it
    chosen, nodes = oracles.cover_search(masks)
    assert factorization._min_cover(masks, nodes) == chosen
    if nodes:
        with pytest.raises(BudgetExceededError):
            factorization._min_cover(masks, nodes - 1)


def test_min_cover_reaches_past_the_recursion_limit():
    # 1,500 disjoint masks need every one of them: a chain of 1,501 nodes
    # after 1,499 sizes that fail at the root
    masks = [1 << b for b in range(1500)]
    assert len(masks) > sys.getrecursionlimit()
    assert factorization._min_cover(masks, 3000) == list(range(1500))
    with pytest.raises(BudgetExceededError):
        factorization._min_cover(masks, 2999)


def test_oracle_is_deterministic(decathlon):
    assert optimal_factorization(decathlon) == optimal_factorization(decathlon)
