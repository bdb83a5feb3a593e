"""Hypothesis strategies for scales, graded sets, and contexts, the
example counts of tests that set their own, and the one directory each
test's examples write their files to."""

from __future__ import annotations

from pathlib import Path

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

from gradefactor import FuzzySet, GradedMatrix, Scale

EXACT_KINDS = ("lukasiewicz", "godel")


def examples(count: int) -> int:
    """`count` examples under the suite's hypothesis profile, scaled as the
    loaded profile scales max_examples, so that a test which sets its own
    count runs ten times as many under the deep profile."""
    return count * settings.default.max_examples // settings.get_profile("suite").max_examples


def example_dir(tmp_path_factory, name: str) -> Path:
    """The directory `name` of the session's temporary tree, made on the
    first example of a test and reused, its files overwritten, by every
    later one; `tmp_path_factory.mktemp` numbers a new directory among
    those already made on each call, which grows with the examples."""
    folder = tmp_path_factory.getbasetemp() / name
    folder.mkdir(exist_ok=True)
    return folder


def scales(kinds=EXACT_KINDS, min_levels: int = 2, max_levels: int = 6):
    def build(levels: int, kind: str) -> Scale:
        return Scale(levels, kind, rounded=kind == "goguen")

    return st.builds(build, st.integers(min_levels, max_levels), st.sampled_from(kinds))


@st.composite
def contexts(draw, scale: Scale | None = None, max_rows: int = 4, max_cols: int = 4,
             kinds=EXACT_KINDS):
    sc = draw(scales(kinds)) if scale is None else scale
    n = draw(st.integers(1, max_rows))
    m = draw(st.integers(1, max_cols))
    level = st.integers(0, sc.max_level)
    rows = draw(st.lists(st.lists(level, min_size=m, max_size=m), min_size=n, max_size=n))
    return GradedMatrix(sc, rows)


@st.composite
def repeated_contexts(draw, scale: Scale | None = None, max_rows: int = 4, max_cols: int = 4,
                      copies: int = 3, kinds=EXACT_KINDS):
    """A context whose rows and columns are drawn, with repeats and in any
    order, from those of a base context of at most max_rows x max_cols, up
    to `copies` times as many of each."""
    base = draw(contexts(scale, max_rows, max_cols, kinds))
    rows = draw(st.lists(st.integers(0, base.n_rows - 1), min_size=1,
                         max_size=copies * base.n_rows))
    cols = draw(st.lists(st.integers(0, base.n_cols - 1), min_size=1,
                         max_size=copies * base.n_cols))
    return GradedMatrix(base.scale, base.entries[rows][:, cols])


@st.composite
def composable_pairs(draw, max_dim: int = 4, kinds=EXACT_KINDS):
    sc = draw(scales(kinds))
    n = draw(st.integers(1, max_dim))
    k = draw(st.integers(1, max_dim))
    m = draw(st.integers(1, max_dim))
    level = st.integers(0, sc.max_level)
    left = draw(st.lists(st.lists(level, min_size=k, max_size=k), min_size=n, max_size=n))
    right = draw(st.lists(st.lists(level, min_size=m, max_size=m), min_size=k, max_size=k))
    return GradedMatrix(sc, left), GradedMatrix(sc, right)


@st.composite
def context_with_extent(draw, **kwargs):
    ctx = draw(contexts(**kwargs))
    level = st.integers(0, ctx.scale.max_level)
    levels = draw(st.lists(level, min_size=ctx.n_rows, max_size=ctx.n_rows))
    return ctx, FuzzySet(ctx.scale, levels)


@st.composite
def context_with_intent(draw, **kwargs):
    ctx = draw(contexts(**kwargs))
    level = st.integers(0, ctx.scale.max_level)
    levels = draw(st.lists(level, min_size=ctx.n_cols, max_size=ctx.n_cols))
    return ctx, FuzzySet(ctx.scale, levels)


# the supports one factor's extent or intent may have: no nonzero grade,
# one, every one, or arbitrary grades
SUPPORTS = ("none", "one", "all", "any")


@st.composite
def factor_pairs(draw, max_rows: int = 8, max_cols: int = 8, max_factors: int = 5,
                 kinds=EXACT_KINDS):
    """Factor matrices a (n x k) and b (k x m), k >= 0, whose factors mix
    empty, single-row, single-column, dense and arbitrary supports."""
    sc = draw(scales(kinds))
    n = draw(st.integers(1, max_rows))
    m = draw(st.integers(1, max_cols))
    k = draw(st.integers(0, max_factors))
    level = st.integers(0, sc.max_level)
    nonzero = st.integers(1, sc.max_level)

    def grades(size: int) -> list[int]:
        support = draw(st.sampled_from(SUPPORTS))
        if support == "none":
            return [0] * size
        if support == "one":
            out = [0] * size
            out[draw(st.integers(0, size - 1))] = draw(nonzero)
            return out
        return draw(st.lists(nonzero if support == "all" else level,
                             min_size=size, max_size=size))

    extents = [grades(n) for _ in range(k)]
    intents = [grades(m) for _ in range(k)]
    return (GradedMatrix(sc, np.array(extents, dtype=np.int64).reshape(k, n).T),
            GradedMatrix(sc, np.array(intents, dtype=np.int64).reshape(k, m)))


# row words of a packed extent or of a column's holes: no row, the first
# row, the first two, the last, and every row, so that an extent meets a
# column's holes in some words and misses them in others
ROW_WORDS = (0, 1, 3, 1 << 63, (1 << 64) - 1)


@st.composite
def packed_closures(draw, max_words: int = 9, max_extents: int = 8, max_cols: int = 8):
    """c packed extents, c x w, and m columns' holes, m x w, uint64 row
    words, with w of 0, 1, 2 or max_words: among the extents, some zero in
    their leading words or in every word, and among the columns, some with
    no holes."""
    w = draw(st.sampled_from([0, 1, 2, max_words]))
    c, m = draw(st.integers(1, max_extents)), draw(st.integers(1, max_cols))
    word = st.sampled_from(ROW_WORDS)

    def block(rows: int) -> np.ndarray:
        words = draw(st.lists(word, min_size=rows * w, max_size=rows * w))
        return np.array(words, dtype=np.uint64).reshape(rows, w)

    ext, holes = block(c), block(m)
    for i, lead in enumerate(draw(st.lists(st.integers(0, w), min_size=c, max_size=c))):
        ext[i, :lead] = 0
    holes[draw(st.lists(st.booleans(), min_size=m, max_size=m))] = 0
    return ext, holes
