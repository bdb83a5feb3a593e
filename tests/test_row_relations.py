"""Relations between greedy runs on inputs whose rows are moved, repeated
or extended: each must hold exactly, whatever the sweep does inside.

- Permuting the rows permutes the extents and changes nothing else: a
  gain is a sum over rows, and ties go by attribute and grade alone.
- Repeating every row k times repeats each extent entry k times and
  multiplies the trace by k: every gain scales by k, so no tie moves.
- Appending a zero row adds a zero entry to every extent and changes
  nothing else, on the Godel t-norm and on two grades, where
  residuum(a, 0) = 0 for every a > 0, so the zero row bounds no closure.

These are not relations, and no test here claims them:

- Permuting the columns may change the factors, because ties go by
  attribute index.
- On Lukasiewicz and rounded Goguen a zero row bounds every closure,
  since residuum(a, 0) = n - a > 0 for a < n, so appending one may change
  the factors.

Each relation is checked at batch budgets of one candidate, of a few and
the default, and with the level tables and without them, on inputs of up
to 130 rows, so that moved rows cross the fold of a tall closure block,
the padding of a row's cover words and the word trimming of the bitset
sweep.  Inputs with repeated rows run on their clarified context, which
every run here takes whatever its row count, `_CLARIFY_ROWS` patched to 0.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies
from gradefactor import (
    TIE_BREAK_POLICIES,
    GradedMatrix,
    Scale,
    find_factors,
    read_csv,
)
from gradefactor import factorization
from gradefactor.cli import main

ALL_KINDS = ("lukasiewicz", "godel", "goguen")
# batch budgets in bytes: one candidate a batch; 37 row words of a bitset
# batch, or 148 levels of 16 bits; and the default
BUDGETS = (1, 8 * 37, factorization.SWEEP_BATCH_BYTES)
LEVEL_TABLE_CAPS = (0, factorization._LEVEL_TABLE_BYTES)


@st.composite
def tall_contexts(draw, kinds=ALL_KINDS, levels=(2, 3, 5, 11)):
    """An input of 1 to 130 rows and 1 to 6 columns at a drawn density,
    with its rows drawn from a smaller pool half of the time, so that some
    repeat, and a seeded generator for what a relation draws next."""
    levels = draw(st.sampled_from(levels))
    kind = draw(st.sampled_from(kinds))
    rows = draw(st.sampled_from([1, 5, 63, 64, 65, 130]))
    cols = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    entries = rng.integers(1, levels, size=(rows, cols)) * (rng.random((rows, cols)) < draw(
        st.floats(0.1, 0.9)))
    if draw(st.booleans()):
        entries = entries[rng.integers(0, max(1, rows // 4), size=rows)]
    return GradedMatrix(Scale(levels, kind, rounded=kind == "goguen"), entries), rng


def run(ctx, tie_break, budget, level_cap):
    with mock.patch.object(factorization, "SWEEP_BATCH_BYTES", budget), \
            mock.patch.object(factorization, "_LEVEL_TABLE_BYTES", level_cap), \
            mock.patch.object(factorization, "_CLARIFY_ROWS", 0):
        return find_factors(ctx, tie_break)


RUNS = (st.sampled_from(TIE_BREAK_POLICIES), st.sampled_from(BUDGETS),
        st.sampled_from(LEVEL_TABLE_CAPS))


@pytest.mark.deep
@given(tall_contexts(), *RUNS)
@settings(max_examples=strategies.examples(40))
def test_permuting_rows_permutes_the_extents(drawn, tie_break, budget, level_cap):
    ctx, rng = drawn
    perm = rng.permutation(ctx.n_rows)
    fs = run(ctx, tie_break, budget, level_cap)
    moved = run(GradedMatrix(ctx.scale, ctx.entries[perm]), tie_break, budget, level_cap)
    assert np.array_equal(moved.a.entries, fs.a.entries[perm])
    assert moved.b == fs.b
    assert moved.uncovered_counts == fs.uncovered_counts


@pytest.mark.deep
@given(tall_contexts(), st.integers(2, 4), *RUNS)
@settings(max_examples=strategies.examples(30))
def test_repeating_every_row_repeats_the_extents_and_scales_the_trace(drawn, k, tie_break,
                                                                      budget, level_cap):
    ctx, _ = drawn
    fs = run(ctx, tie_break, budget, level_cap)
    repeated = run(GradedMatrix(ctx.scale, np.repeat(ctx.entries, k, axis=0)),
                   tie_break, budget, level_cap)
    assert np.array_equal(repeated.a.entries, np.repeat(fs.a.entries, k, axis=0))
    assert repeated.b == fs.b
    assert repeated.uncovered_counts == tuple(k * u for u in fs.uncovered_counts)


@pytest.mark.deep
@given(st.one_of(tall_contexts(kinds=("godel",)), tall_contexts(levels=(2,))), *RUNS)
@settings(max_examples=strategies.examples(40))
def test_appending_a_zero_row_adds_a_zero_extent_entry(drawn, tie_break, budget, level_cap):
    ctx, _ = drawn
    fs = run(ctx, tie_break, budget, level_cap)
    grown = np.vstack([ctx.entries, np.zeros((1, ctx.n_cols), dtype=ctx.entries.dtype)])
    extended = run(GradedMatrix(ctx.scale, grown), tie_break, budget, level_cap)
    assert np.array_equal(extended.a.entries[:-1], fs.a.entries)
    assert not extended.a.entries[-1].any()
    assert extended.b == fs.b
    assert extended.uncovered_counts == fs.uncovered_counts


def test_factorize_on_shuffled_rows_permutes_only_the_object_factors(tmp_path, graded_csv):
    # the decathlon as given, and with every athlete three times, which
    # runs on the clarified context: a row-shuffled copy of either input
    # writes the same B.csv and coverage.tsv, and A.csv with its rows moved
    # as the input's were
    lines = graded_csv.read_text(encoding="utf-8").splitlines(keepends=True)
    for copies in (1, 3):
        rows = lines * copies
        perm = np.random.default_rng(copies).permutation(len(rows))
        outs = []
        for name, order in (("given", range(len(rows))), ("shuffled", perm)):
            path = tmp_path / f"{name}-{copies}.csv"
            path.write_text("".join(rows[i] for i in order), encoding="utf-8")
            outs.append(tmp_path / f"out-{name}-{copies}")
            with mock.patch.object(factorization, "_CLARIFY_ROWS", 0):
                assert main(["factorize", "--input", str(path), "--out-dir", str(outs[-1])]) == 0
        given_out, shuffled_out = outs
        for name in ("B.csv", "coverage.tsv"):
            assert (shuffled_out / name).read_bytes() == (given_out / name).read_bytes()
        a_given = (given_out / "A.csv").read_text(encoding="utf-8").splitlines()
        a_shuffled = (shuffled_out / "A.csv").read_text(encoding="utf-8").splitlines()
        assert a_shuffled == [a_given[i] for i in perm]
        assert read_csv(given_out / "A.csv", Scale(5)).n_cols == 7
