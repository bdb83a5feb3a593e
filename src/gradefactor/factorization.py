"""Greedy and exact decomposition of a graded matrix into concept factors.

`find_factors` grows one concept at a time: it repeatedly extends a
candidate intent by the attribute-grade pair whose generated concept covers
the most still-uncovered nonzero cells, closes the intent, and stops growing
when no extension strictly improves the count.  The factors it emits
reproduce the input exactly under sup-t-norm composition.  Each step scores
all extensions in one batched sweep, on row bitsets when the chain has two
grades.  On a longer chain the sweep closes and cover-tests a batch of
candidates over every row, packs the cells each covers, and counts their
gains by popcount against the packed uncovered cells, which are all a run
changes.  Its residua come from one of two read-only row sources: three
tables per run, up to a fixed size, so that closures and cover tests are
lookups, the cover test by adjointness: tnorm(e, t) >= b exactly when
e > residuum(t, b - 1); or, past the cap, t-norm arithmetic.  Either
builds a closure as a block that leads with rows, whose minima fold a
tall block's halves rather than pay numpy's cost per row, and runs the
cover test column by column, comparing extents along the rows; the
covered cells and the uncovered ones are packed column by column.  A
sweep takes and returns intents as levels, and both row sources close
to levels; only the tables' cover test offsets a closed grade t at
attribute j to j * (n + 1) + t, the row of a column table, in its
gather.  Every batch is sized so that its largest array fits one byte
cap.  A batch is plain arrays, (js, levels, gains, covers), whose covers
hold each candidate's extent and closed intent, so the winner's concept
comes from the batch that scored it and no candidate is closed twice;
retiring the winner clears the cells its covers hold, with no second
cover test.  Every factor opens from the empty intent, whose candidates
cover the same cells all run long, so a run's first opening keeps its
first batches, up to a fixed number of words, as the sweep yields them,
and every later opening scores them by popcount and takes its winner's
concept from them.  Ties on the gain go to one of two named policies; a
batch's winner is one argmax, over its gains or over a key that ranks the
lower grade next.

On two grades a closure tests one row word of each candidate's extent
against the rows every column lacks, and the other words only for the
pairs that word leaves closed.

A graded input of at least _CLARIFY_ROWS rows, at most half of them
distinct, is clarified first: the sweep runs on its distinct rows and,
among those, its distinct columns, each cell weighted by the input cells
it stands for, and holds the uncovered cells as bit planes of those
weights, so every gain, winner and trace entry is the input's.  The
factors expand back to the input's rows and columns once per run.  A
4000 x 8 input with 125 distinct rows and 6 distinct columns then runs in
about a sixth of the time; on an input whose rows do not repeat the check
is one np.unique of row keys, and on a shorter one there is no check.

`optimal_factorization` is the small-instance oracle: it enumerates every
formal concept and searches subsets in lexicographic index order for a
minimum exact cover.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .concepts import (
    BudgetExceededError,
    FormalConcept,
    _require_context,
    enumerate_concepts,
)
from .matrix import (LEVEL_DTYPE, FuzzySet, GradedMatrix, _require_composable,
                     _require_same_scale, _superpose)
from .scale import MAX_LEVELS, Scale, _require_integer

# Among equal-gain candidates a tie-break policy picks one: both prefer
# lower grades, since a lower grade constrains the intent less, so the
# strictly-improving inner loop keeps more room to extend the candidate
# before it stalls.  "grade-then-index" takes the lowest grade, then the
# earliest attribute; "index-then-grade" the earliest attribute, then the
# lowest grade.
TIE_BREAK_POLICIES = ("grade-then-index", "index-then-grade")

DEFAULT_TIE_BREAK = "grade-then-index"


def resolve_tie_break(policy) -> str:
    if isinstance(policy, str) and policy in TIE_BREAK_POLICIES:
        return policy
    given = "a callable key" if callable(policy) else repr(policy)
    raise ValueError(
        f"unknown tie-break policy: {given}; expected one of: {', '.join(TIE_BREAK_POLICIES)}"
    )


@dataclass(frozen=True)
class FactorSet:
    """A decomposition of one context into concept factors: the n x k
    object-factor matrix `a` and the k x m factor-attribute matrix `b`,
    whose l-th column and row are the extent and intent of the l-th factor.

    `uncovered_counts` traces the run: entry l is the number of nonzero
    cells still uncovered after the first l factors, so it starts at the
    full count and ends at 0 exactly when the set is complete.
    """

    a: GradedMatrix
    b: GradedMatrix
    uncovered_counts: tuple[int, ...]

    def __post_init__(self) -> None:
        _require_composable(self.a, self.b)
        if len(self.uncovered_counts) != len(self) + 1:
            raise ValueError("uncovered_counts must hold one entry per prefix, including the empty one")
        counts = self.uncovered_counts
        if counts[-1] < 0 or any(later > earlier for earlier, later in zip(counts, counts[1:])):
            raise ValueError(f"uncovered_counts must not rise or go below 0, got {counts}")

    @property
    def scale(self) -> Scale:
        return self.a.scale

    @property
    def context_shape(self) -> tuple[int, int]:
        return self.a.n_rows, self.b.n_cols

    @property
    def factors(self) -> tuple[FormalConcept, ...]:
        """The factors as formal concepts, built on each access."""
        return tuple(
            FormalConcept(FuzzySet(self.scale, extent), FuzzySet(self.scale, intent))
            for extent, intent in zip(self.a.entries.T, self.b.entries)
        )

    @property
    def complete(self) -> bool:
        """Whether the factors cover every nonzero cell, read off the trace."""
        return self.uncovered_counts[-1] == 0

    def __len__(self) -> int:
        return self.a.n_cols

    def __iter__(self):
        return iter(self.factors)

    def covered_nonzero_curve(self) -> list[Fraction]:
        """Fraction of initially nonzero cells covered after each factor."""
        initial = self.uncovered_counts[0]
        if initial == 0:
            return [Fraction(1)] * len(self)
        return [Fraction(initial - u, initial) for u in self.uncovered_counts[1:]]


# Bytes of the largest array one batch of candidates builds (512 KiB).  On
# a graded chain a batch spans every row of the input, from either row
# source, so a batch of c candidates over r rows and m columns builds
# c * r * m levels of its row source's type; on the two-grade chain c
# extents of w row words and a c x m block of probed words, c * max(w, m)
# words, and the pairs its probe leaves take the full test this many bytes
# of their gathered words at a time.  A batch holds one candidate at least,
# which alone exceeds the cap on an input past it.  A batch's memory is
# therefore flat in the number of grades.  What a run keeps grows with them
# only up to a cap: the opening block up to _OPENING_TABLE_WORDS, the level
# and column tables up to _LEVEL_TABLE_BYTES.
SWEEP_BATCH_BYTES = 1 << 19

# 8-byte words of covers one run's opening block may hold (4 MiB), counted
# by the bytes its whole batches keep.  On an n-step chain an r x m input
# has m * n opening candidates, each with r * m / 64 words of covered cells
# and its extent and closed intent, r + m levels, so the whole opening
# grows with the grades; the cap keeps the block fixed.  It holds
# the whole opening of a 200 x 100 input on 11 levels (388k words); on two
# grades a candidate takes only r / 64 words and m bytes.
_OPENING_TABLE_WORDS = 1 << 19

# Bytes the three tables of one run may take (16 MiB): the level table and
# the two column tables.  On an n-step chain an r x m input needs
# 3 (n + 1) r m cells of `_work_dtype`, which holds the tables of a
# 200 x 100 input on 11 levels in 1.3 MB.  A longer chain or a larger input
# builds none, and the sweep takes its residua from t-norm arithmetic
# instead of the tables.
_LEVEL_TABLE_BYTES = 16 << 20

# Rows of the shortest input find_factors clarifies (see _clarify): on
# fewer rows two np.unique calls and the weight planes cost more than the
# merged rows save.
_CLARIFY_ROWS = 64


# Cells of the largest input find_factors takes, 2**32 - 1: a gain counts
# cells, so a step's tie key gain * MAX_LEVELS - a (see _best_candidate)
# stays within int64.  Such an input already holds 32 GiB of levels.
_MAX_CELLS = np.iinfo(np.int64).max // MAX_LEVELS


def _pack_cells(bits: np.ndarray) -> np.ndarray:
    """Each block bits[c] of a c x ... Boolean array as one bitset over its
    cells, row-major: uint64, c x words.  An n x m array's transpose packs
    as m bitsets over its rows."""
    flat = np.ascontiguousarray(bits.reshape(len(bits), -1))
    cells = flat.shape[1]
    packed = np.zeros((len(bits), -(-cells // 64) * 8), dtype=np.uint8)
    packed[:, : -(-cells // 8)] = np.packbits(flat, axis=1, bitorder="little")
    return packed.view(np.uint64)


def _unpack_rows(bitset: np.ndarray, n: int) -> np.ndarray:
    """Levels 0/1 of the first n rows of one bitset."""
    bits = np.unpackbits(bitset.view(np.uint8), bitorder="little")[:n]
    return bits.astype(LEVEL_DTYPE)


def _work_dtype(scale: Scale):
    """The narrowest signed integer type holding every intermediate of the
    scale's t-norm and residuum, none above 2n(n + 1) on an n-step chain.
    Narrow levels halve or quarter the memory traffic of a batch."""
    n = scale.max_level
    top = 2 * n * (n + 1)
    return np.int16 if top < 2**15 else np.int32 if top < 2**31 else LEVEL_DTYPE


def _row_minima(block: np.ndarray, top) -> np.ndarray:
    """min(axis=0, initial=top) of a block that leads with rows, which it
    overwrites.

    numpy reduces the leading axis one row at a time, at about 30 ns a row
    whatever the row's width, so a tall block first folds its upper half
    onto its lower half with np.minimum, while it has more rows than both
    64 and a row has cells.  On int16 a (4000, 8) block then takes 21 µs
    instead of 108, and (4000, 64) 41 µs instead of 109.  A short block,
    or one whose rows are at least as wide as it is tall, is reduced as
    it is: folding (200, 1000) would write half the block to save 200
    row steps, and took 21 µs instead of 19.
    """
    rows = len(block)
    width = block.size // rows if rows else 0
    while rows > 64 and rows > width:
        half = rows // 2
        np.minimum(block[:half], block[rows - half:rows], out=block[:half])
        rows -= half
    return block[:rows].min(axis=0, initial=top)


def _ranked_candidates(intent: np.ndarray, n: int, start: int, batch: int):
    """Attributes and grades of the candidates a > intent[j] on an n-step
    chain, from the start-th on in (j, a) order, ranked batch by batch."""
    counts = n - intent
    ends = np.cumsum(counts)
    total = int(ends[-1])
    for lo in range(start, total, batch):
        flat = np.arange(lo, min(lo + batch, total))
        js = np.searchsorted(ends, flat, side="right")
        yield js, intent[js] + 1 + flat - (ends[js] - counts[js])


class _LevelTables:
    """The graded sweep's residua from a level table and two column tables,
    built once per run in the work type, each in the layout it is read in,
    and read-only from then on.

    Row i * (n + 1) + e of `res` holds residuum(e, I[i, j]) for every
    column j, so a closure's row minima are its closed intent as levels.
    Row j * (n + 1) + t of `never` holds residuum(t, I[i, j] - 1) for
    every row i, the largest extent grade e with tnorm(e, t) < I[i, j]:
    by adjointness the cover test compares the rows a closed intent names
    with its extent, a batch's (candidate, column, row) block at once.
    The cover test alone offsets a closed grade t at attribute j to that
    row, adding `starts`, j * (n + 1), in its gather.  At a zero cell that
    residuum is of no grade, and the cell may test covered, but the sweep
    counts nonzero cells only.  cols[j, a] holds residuum(a, I[i, j]) for
    every row i: the extent that grade a at attribute j allows.
    Candidates are the grades above an intent, in (j, a) order.
    """

    @staticmethod
    def fit(scale: Scale, entries: np.ndarray) -> bool:
        """Whether the three tables, in the work type, fit in
        _LEVEL_TABLE_BYTES."""
        work = np.dtype(_work_dtype(scale)).itemsize
        return 3 * scale.levels * entries.size * work <= _LEVEL_TABLE_BYTES

    def __init__(self, scale: Scale, entries: np.ndarray) -> None:
        n, self.dtype = scale.max_level, np.dtype(_work_dtype(scale))
        n_rows, n_cols = entries.shape
        self.top = n
        # intp, so that the cover test's offset intents index with no
        # conversion
        self.starts = np.arange(n_cols) * (n + 1)
        # the column tables lead with columns and grades, so each is built
        # over whole rows, which ufuncs take at full speed
        grades = np.arange(n + 1, dtype=self.dtype)[:, None]
        sub = np.ascontiguousarray(entries.T, dtype=self.dtype)[:, None, :]
        self.cols = scale.residuum(grades, sub)
        self.never = scale.residuum(grades, sub - 1).reshape(-1, n_rows)
        # `res` is `cols` with rows leading: a residuum built in that
        # layout runs inner loops of n_cols cells, and took about 1 ms on a
        # 4000 x 8 input on 5 levels against 0.13 ms for a transposing copy
        self.res = np.ascontiguousarray(self.cols.transpose(2, 1, 0)).reshape(-1, n_cols)
        for table in (self.res, self.never, self.cols):
            table.setflags(write=False)
        self.grades = np.arange(n + 1)
        self.row_starts = np.arange(0, n_rows * (n + 1), n + 1)

    def candidates(self, intent: np.ndarray, start: int, batch: int):
        js, levels = (self.grades > intent[:, None]).nonzero()
        for lo in range(start, len(js), batch):
            yield js[lo:lo + batch], levels[lo:lo + batch]

    def allowed(self, js: np.ndarray, levels: np.ndarray) -> np.ndarray:
        return self.cols[js, levels]

    def closures(self, ext: np.ndarray) -> np.ndarray:
        # rows lead the gathered closure, so its min runs over whole
        # candidate x column slabs
        return _row_minima(self.res.take((ext + self.row_starts).T, axis=0), self.top)

    def covered(self, ext: np.ndarray, closed: np.ndarray) -> np.ndarray:
        return self.never.take(closed + self.starts, axis=0) < ext[:, None, :]


class _Residua:
    """The graded sweep's residua by t-norm arithmetic, past the table cap.

    Candidates are ranked batch by batch.  Closures are residuum minima
    over (row, candidate, column) blocks; the cover test compares the
    t-norm rectangle, over (candidate, column, row) blocks, with a
    contiguous copy of the input's transpose, exactly at the nonzero
    cells, the only ones the sweep counts.  Both copies of the input are
    read-only from construction on.
    """

    def __init__(self, scale: Scale, entries: np.ndarray) -> None:
        self.scale = scale
        self.dtype = np.dtype(_work_dtype(scale))
        self.entries = entries.astype(self.dtype)
        self.columns = np.ascontiguousarray(entries.T, dtype=self.dtype)
        for table in (self.entries, self.columns):
            table.setflags(write=False)

    def candidates(self, intent: np.ndarray, start: int, batch: int):
        return _ranked_candidates(intent, self.scale.max_level, start, batch)

    def allowed(self, js: np.ndarray, levels: np.ndarray) -> np.ndarray:
        levels = np.asarray(levels, dtype=self.dtype)[..., None]
        return self.scale.residuum(levels, self.columns[js])

    def closures(self, ext: np.ndarray) -> np.ndarray:
        # rows lead, as in the level tables' closures
        res = self.scale.residuum(ext.T[..., None], self.entries[:, None, :])
        return _row_minima(res, self.scale.max_level)

    def covered(self, ext: np.ndarray, closed: np.ndarray) -> np.ndarray:
        ext, closed = ext[:, None, :], closed[..., None]
        # each closed grade meets a whole row of extent grades, and numpy's
        # min and max against an operand repeated along the row run several
        # times slower than a compare or an add, which Godel and Lukasiewicz
        # use instead, exact at the nonzero cells b
        if self.scale.tnorm_kind == "godel":
            # min(e, t) >= b exactly when e >= b and t >= b
            return (ext >= self.columns) & (closed >= self.columns)
        if self.scale.tnorm_kind == "lukasiewicz":
            # max(e + t - n, 0) >= b > 0 exactly when e + (t - n) >= b
            return ext + (closed - self.scale.max_level) >= self.columns
        return self.scale.tnorm(ext, closed) >= self.columns


class _GradedSweep:
    """Candidate scoring on a graded chain, with residua from a row source.

    A candidate (j, a) joins grade `a` at attribute `j` to an intent with
    extent D.  Its extent is D ∧ residuum(a, I[:, j]), because the residuum
    is antitone in its first argument.  Batches span every row: a row
    outside D's support has extent 0, whose residua are all n, so it
    neither lowers a closure nor holds a covered cell.  The cover test
    runs column by column, comparing along the rows, and a batch's covers
    are the cells each candidate's concept covers, packed over all cells
    column by column, with the candidates' extents and, last, closed
    intents, levels in the work type; `concept` takes one in LEVEL_DTYPE.
    Its gains are the popcounts of the packed cells against `live`, the
    uncovered cells packed the same way, the one thing a run changes, and
    retiring a winner clears its packed cells there.
    The mask must hold nonzero cells only.

    A cell may carry an integer weight, the number of input cells it
    stands for on a clarified context (see `_clarify`).  `live` then holds
    the weights of the uncovered cells as bit planes, plane k the cells
    whose weight has bit k set, and a gain is Σ_k 2^k popcount(covers &
    plane k); retiring clears the winner's cells in every plane.  Without
    weights `live` is the one plane, the packed mask itself, with no plane
    axis and no place values (`place` is None), so that a gain is one
    popcount: on 20 x 20 a plane axis of length one cost up to 1 µs a
    count.
    """

    def __init__(self, entries: np.ndarray, mask: np.ndarray, rows,
                 weights: np.ndarray | None = None) -> None:
        self.rows = rows
        # a batch's largest array is its candidates' closures over every cell
        self.batch = max(1, SWEEP_BATCH_BYTES // max(1, entries.size * rows.dtype.itemsize))
        if weights is None:
            self.live, self.place = _pack_cells(mask.T[None])[0], None
        else:
            cells = np.where(mask, weights, 0).T
            planes = np.arange(max(1, int(cells.max()).bit_length()))
            self.live = _pack_cells((cells >> planes[:, None, None]) & 1 != 0)
            self.place = 1 << planes

    def batches(self, intent: np.ndarray, extent: np.ndarray, start: int = 0):
        """The candidates (j, a) with a > intent[j] of an intent whose extent
        is `extent`, from the start-th on in (j, a) order, in batches: per
        batch its attributes, grades, gains and covers, whose `count` the
        gains are.  Extents and closed intents stay in the work dtype."""
        for js, levels in self.rows.candidates(intent, start, self.batch):
            allowed = self.rows.allowed(js, levels)
            ext = np.minimum(allowed, extent, dtype=allowed.dtype)
            closed = self.rows.closures(ext)
            covers = _pack_cells(self.rows.covered(ext, closed)), ext, closed
            yield js, levels, self.count(covers), covers

    def count(self, covers: tuple) -> np.ndarray:
        """Gains of a batch of covers against the cells uncovered now."""
        if self.place is None:
            return np.bitwise_count(covers[0] & self.live).sum(axis=1, dtype=np.int64)
        hits = np.bitwise_count(covers[0][:, None] & self.live).sum(axis=2, dtype=np.int64)
        return hits @ self.place

    def concept(self, covers: tuple, c: int) -> tuple[np.ndarray, np.ndarray]:
        """The extent and closed intent of the c-th candidate of covers, as
        levels."""
        _, ext, closed = covers
        return ext[c].astype(LEVEL_DTYPE), closed[c].astype(LEVEL_DTYPE)

    def retire(self, covers: tuple, c: int) -> int:
        """Clear the packed cells of the c-th candidate of a batch's covers,
        the winner's, in every plane; returns the weight of the cells that
        stay uncovered."""
        self.live &= ~covers[0][c]
        left = np.bitwise_count(self.live).sum(axis=-1, dtype=np.int64)
        return int(left if self.place is None else left @ self.place)


class _BitsetSweep:
    """Candidate scoring on the two-grade chain, where every t-norm is AND.

    Columns and the uncovered cells are bitsets over rows.  A candidate
    extent is D & col[j]; attribute j' is in its closure iff the extent
    misses every hole of j', the rows of ~col[j']; its gain is the
    popcount of extent & uncovered[j'] over closed j'.  A batch's covers
    are the candidates' extent bitsets and, last, closed columns.
    """

    def __init__(self, entries: np.ndarray, mask: np.ndarray) -> None:
        self.n_rows = entries.shape[0]
        self.cols = _pack_cells((entries != 0).T)
        self.uncovered = _pack_cells(mask.T)
        # a batch's largest arrays are its candidates' extents, a row word
        # each, and their probe block, a word per column
        self.batch = max(1, SWEEP_BATCH_BYTES // (8 * max(self.cols.shape)))

    @staticmethod
    def _closed(ext: np.ndarray, holes: np.ndarray) -> np.ndarray:
        """Which columns each extent's closure holds, c x m, for c extents
        over w row words and the m columns' holes over the same words.

        A probe ANDs each extent, on its largest word, with that word of
        every column's holes: a nonzero word proves the column open.  Only
        the pairs it leaves whose extent has bits in other words take the
        AND over those words, SWEEP_BATCH_BYTES of gathered words at a
        time.  An empty extent's largest word is 0, so it misses every hole
        and closes every column with no further test.  Nearly every column
        has a hole in any one word of an extent, so the full test runs for
        little more than the columns that close: on the 3196 x 75 input of
        the boolean-tall benchmark, 50 words for every pair took 5.4 ms of
        a 9.1 ms ten-factor run, and with the probe the whole run takes
        about 3.5 ms (2 vCPUs).  `batches` slices both with [:, words],
        which numpy lays out word-major, so the transposes read here are
        contiguous and every gather and reduction runs along the
        candidates or columns rather than the few words."""
        c, w = ext.shape
        if not w:
            return np.ones((c, len(holes)), dtype=bool)
        ext, holes = ext.T, holes.T
        probed = ext.argmax(axis=0), np.arange(c)
        rest = ext.copy()
        rest[probed] = 0
        closed = (ext[probed][:, None] & holes[probed[0]]) == 0
        rows, cols = np.nonzero(closed & rest.any(axis=0)[:, None])
        step = max(1, SWEEP_BATCH_BYTES // (8 * w))
        for lo in range(0, len(rows), step):
            r, k = rows[lo:lo + step], cols[lo:lo + step]
            closed[r, k] = ~(rest[:, r] & holes[:, k]).any(axis=0)
        return closed

    def batches(self, intent: np.ndarray, extent: np.ndarray, start: int = 0):
        base = _pack_cells((extent != 0)[None])[0]
        # closures test only the words the extent occupies; it has no bits
        # past the last row, where ~cols has ones
        words = np.flatnonzero(base)
        holes = ~self.cols[:, words]
        for js, levels in _ranked_candidates(intent, 1, start, self.batch):
            # on two grades a concept covers exactly its extent x intent, so
            # the extent's row bitset and the closed columns stand for the
            # cells, in 1/m of the words
            ext = base & self.cols[js]
            covers = ext, self._closed(ext[:, words], holes)
            yield js, levels, self.count(covers), covers

    def count(self, covers: tuple) -> np.ndarray:
        # closures hold few of the columns, so pair each candidate with its
        # closed columns rather than mask a full candidate x column block
        ext, closed = covers
        rows, cols = np.nonzero(closed)
        hit = np.bitwise_count(ext[rows] & self.uncovered[cols]).sum(axis=1, dtype=np.int64)
        gains = np.zeros(len(ext), dtype=np.int64)
        np.add.at(gains, rows, hit)
        return gains

    def concept(self, covers: tuple, c: int) -> tuple[np.ndarray, np.ndarray]:
        ext, closed = covers
        return _unpack_rows(ext[c], self.n_rows), closed[c].astype(LEVEL_DTYPE)

    def retire(self, covers: tuple, c: int) -> int:
        # the concept covers exactly extent x intent: clear the extent's
        # row bits in its closed columns
        ext, closed = covers
        self.uncovered[closed[c]] &= ~ext[c]
        return int(np.bitwise_count(self.uncovered).sum())


def _make_sweep(scale: Scale, entries: np.ndarray, mask: np.ndarray,
                weights: np.ndarray | None = None) -> _GradedSweep | _BitsetSweep:
    if scale.levels == 2:
        return _BitsetSweep(entries, mask)
    rows = (_LevelTables if _LevelTables.fit(scale, entries) else _Residua)(scale, entries)
    return _GradedSweep(entries, mask, rows, weights)


def _row_keys(block: np.ndarray, levels: int) -> np.ndarray:
    """One key per row of a block of levels, equal exactly where the rows
    are: the row's levels as the digits of a mixed-radix int64 when m
    digits of base `levels` fit in 62 bits, else the row's bytes in the
    narrowest unsigned type, as one void item."""
    m = block.shape[1]
    if m * levels.bit_length() <= 62:
        return block @ levels ** np.arange(m, dtype=np.int64)
    narrow = np.ascontiguousarray(block, dtype=np.min_scalar_type(levels - 1))
    return narrow.view(np.dtype((np.void, narrow.itemsize * m))).ravel()


def _classes(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The classes of equal keys in order of first occurrence: each class's
    first index, each key's class and each class's size."""
    _, first, inverse, counts = np.unique(keys, return_index=True, return_inverse=True,
                                          return_counts=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse], counts[order]


def _clarify(scale: Scale, entries: np.ndarray):
    """The clarified context of a graded input, or the input itself when
    its run takes it as it is.

    Identical rows get identical grades in every extent, so a concept
    covers all their copies or none, and a closure, a minimum over rows,
    does not see the repeats.  A later copy of a column has the first
    copy's closure grades, so each of its candidates ties the first copy's
    at a later attribute and loses under both policies.  The sweep can
    therefore run on the distinct rows and, among those, the distinct
    columns, both in order of first occurrence, with each cell weighted by
    the product of its row's and its column's multiplicity: every gain is
    the input's, so every winner is, and extents and intents expand back
    through the returned inverses.  This is clarifying the context, which
    keeps its concept lattice.

    The two-grade chain keeps its bitset sweep.  A graded input is
    clarified when it has at least _CLARIFY_ROWS rows and at most half of
    them are distinct.  On rows repeated about 4 times, 3 t-norms and 4
    seeds each, the median time of a clarified run over an unclarified
    one (best of 15-40 calls, 7 interleaved rounds, 2 vCPUs) was
    1.55 on 4 x 4 and 5 x 5 on 3 grades, 1.47 on 8 x 8 and 1.23 on 16 x 10
    on 5 grades, 1.04-1.10 on 24-48 x 10, 0.98 on 64 x 10, 0.91 on 96 x 10
    and 0.86 on 128 x 10.  Where rows do not repeat the check is pure
    cost, one np.unique of the row keys: 1.1-1.25 ms on 3196 x 75, against
    a second or more.  A 4000 x 8 input with 125 distinct rows spends about
    0.5 ms to clarify, and its sweep then runs on 125 x 6 cells instead of
    4000 x 8.

    Returns the clarified entries, their cell weights, and the index of
    each input row's and each input column's class; for an input taken as
    it is, the input, no weights and two whole slices.
    """
    unclarified = entries, None, slice(None), slice(None)
    if scale.levels == 2 or len(entries) < _CLARIFY_ROWS:
        return unclarified
    rows, row_inverse, row_counts = _classes(_row_keys(entries, scale.levels))
    if 2 * len(rows) > len(entries):
        return unclarified
    distinct = entries[rows]
    cols, col_inverse, col_counts = _classes(_row_keys(distinct.T, scale.levels))
    weights = row_counts[:, None] * col_counts
    return distinct[:, cols], weights, row_inverse, col_inverse


def _opening_batches(sweep, block: list, intent: np.ndarray, extent: np.ndarray):
    """The opening step's batches: each (js, levels, covers) that `block`
    holds, scored by `count` with no closure, then the sweep's for the
    candidates past them.

    Each factor opens from the empty intent, whose extent down(∅) is top
    because residuum(0, b) = n, so the opening candidates, their closures
    and the nonzero cells they cover stay fixed for the whole run; only the
    uncovered cells change.  A batch of the sweep joins `block` while the
    covers the block holds fit in _OPENING_TABLE_WORDS words.  The first
    that does not fit ends it: that batch opens every later opening's sweep
    and never fits, so the first opening fills the block, a prefix of whole
    batches in (j, a) order, and later ones keep it as it is.
    """
    for js, levels, covers in block:
        yield js, levels, sweep.count(covers), covers
    size = sum(a.nbytes for *_, covers in block for a in covers)
    for js, levels, gains, covers in sweep.batches(intent, extent, sum(len(b[0]) for b in block)):
        size += sum(a.nbytes for a in covers)
        if size <= 8 * _OPENING_TABLE_WORDS:
            block.append((js, levels, covers))
        yield js, levels, gains, covers


def _best_candidate(batches, tie_break: str):
    """The winning (gain, covers, c) over batches of the extensions (j, a)
    with a > intent[j] of one intent, in (j, a) order: the winner is the
    c-th candidate of the batch whose covers are `covers`.  None when there
    are none, as when the intent is already top.

    The winner has the largest gain.  Among equal gains "index-then-grade"
    takes the first in (j, a) order, so a batch's winner is the argmax of
    its gains and a later batch must gain strictly more; "grade-then-index"
    takes the lowest grade, then the first in order, so a batch's winner is
    the argmax of the key gain * MAX_LEVELS - a, and a later batch must
    have a strictly larger key: at an equal key its candidate has the same
    grade at a later attribute.  Grades lie below MAX_LEVELS, so the key
    ranks by gain first; it stays below 2**63 because a gain counts cells
    of an input, and find_factors takes at most _MAX_CELLS of them.
    Candidates with a <= intent[j] leave the intent unchanged, so their
    gain is the current concept's own cover count and they can never be a
    strict improvement.
    """
    by_grade = tie_break == "grade-then-index"
    best = None
    for _, levels, g, covers in batches:
        key = g * MAX_LEVELS - levels if by_grade else g
        c = int(key.argmax())
        if best is None or key[c] > best[0]:
            best = key[c], g[c], covers, c
    return None if best is None else (int(best[1]), *best[2:])


def find_factors(context: GradedMatrix, tie_break=DEFAULT_TIE_BREAK, *,
                 max_factors: int | None = None) -> FactorSet:
    """Greedy exact decomposition of a context into concept factors.

    Each round grows an intent from empty: among all attribute-grade pairs
    it picks the one whose generated concept covers the most uncovered
    nonzero cells (ties resolved by `tie_break`, a name in
    TIE_BREAK_POLICIES), closes the extended intent, and repeats while the
    best cover count strictly improves.  The finished concept is appended
    and the cells it covers are retired.

    A `max_factors` bound truncates the run; its trace then ends above 0,
    so the result is incomplete instead of pretending to be exact.  A
    graded input whose rows repeat is swept on its clarified context (see
    `_clarify`), with the same factors and trace.
    """
    _require_context(context)
    if context.entries.size > _MAX_CELLS:
        raise ValueError(f"find_factors takes at most {_MAX_CELLS} cells, got {context.entries.size}")
    tie_break = resolve_tie_break(tie_break)
    if max_factors is not None and _require_integer("max_factors", max_factors) < 0:
        raise ValueError(f"max_factors must be nonnegative, got {max_factors}")
    scale = context.scale
    uncovered = [int(np.count_nonzero(context.entries))]
    entries, weights, row_index, col_index = _clarify(scale, context.entries)
    n_rows, n_cols = entries.shape
    sweep = _make_sweep(scale, entries, entries != 0, weights)
    # the empty intent's extent is top, since residuum(0, b) = n
    empty = np.zeros(n_cols, dtype=LEVEL_DTYPE)
    top = np.full(n_rows, scale.max_level, dtype=LEVEL_DTYPE)
    extents: list[np.ndarray] = []
    intents: list[np.ndarray] = []
    block: list[tuple] = []

    while uncovered[-1] and (max_factors is None or len(extents) < max_factors):
        best_so_far, extent, intent, covers, c = 0, top, empty, None, 0
        selected = _best_candidate(_opening_batches(sweep, block, empty, top), tie_break)
        while selected is not None and selected[0] > best_so_far:
            best_so_far, covers, c = selected
            extent, intent = sweep.concept(covers, c)
            selected = _best_candidate(sweep.batches(intent, extent), tie_break)
        extents.append(extent)
        intents.append(intent)
        # the winner's covers hold the cells its concept covers; with no
        # winner the factor is (top, empty), which covers no nonzero cell
        uncovered.append(uncovered[-1] if covers is None else sweep.retire(covers, c))
        # the candidate (j, I[i, j]) of any uncovered cell covers that cell,
        # so a correct sweep always retires one
        if uncovered[-1] == uncovered[-2]:
            raise RuntimeError(f"factor {len(extents)} covers no uncovered cell")

    k = len(extents)
    # a clarified run's factors expand to the input's rows and columns once
    a = np.reshape(extents, (k, n_rows)).T[row_index]
    b = np.reshape(intents, (k, n_cols))[:, col_index]
    return FactorSet(GradedMatrix(scale, a), GradedMatrix(scale, b), tuple(uncovered))


def factor_matrices(factor_set: FactorSet) -> tuple[GradedMatrix, GradedMatrix]:
    """The object-factor and factor-attribute matrices of a factor set."""
    return factor_set.a, factor_set.b


def coverage_curve(factor_set: FactorSet, context: GradedMatrix) -> list[Fraction]:
    """Exact fraction of matching cells after each successive factor, from
    one pass over the factors that also checks them against the context.

    Entry l compares the superposition of the first l + 1 rectangles with
    the context.  The last superposition is the product of the factor
    matrices, so it must equal the context when the set is complete and
    never exceed it otherwise.  Prefixes only grow, so then none exceeds
    the context, and a nonzero cell is covered exactly where its prefix
    equals it: the pass recounts `uncovered_counts` from the curve.  A
    factor that raised its support block alone moves the count of matching
    cells by the block's matches before and after; one that raised the
    whole grid has it recounted.

    Raises ValueError, in this order, when a complete set does not
    reproduce the context, when the factors exceed it, and when the
    recount differs from the set's trace.
    """
    _require_context(context)
    _require_same_scale(factor_set.scale, context.scale)
    if factor_set.context_shape != context.shape:
        raise ValueError(
            f"factor set shaped {factor_set.context_shape} does not fit context {context.shape}"
        )
    entries = context.entries
    acc = np.zeros_like(entries)
    equal = []
    count = int(np.count_nonzero(entries == 0))
    for raised in _superpose(factor_set.a, factor_set.b, acc):
        if raised is None:
            count = int(np.count_nonzero(acc == entries))
        else:
            index, old, new = raised
            block = entries[index]
            count += int(np.count_nonzero(new == block)) - int(np.count_nonzero(old == block))
        equal.append(count)
    if factor_set.complete and not np.array_equal(acc, entries):
        raise ValueError("factors do not reproduce the input exactly")
    if not np.all(acc <= entries):
        raise ValueError("factors exceed the input")
    size = entries.size
    recount = (int(np.count_nonzero(entries)), *(size - e for e in equal))
    if recount != tuple(factor_set.uncovered_counts):
        raise ValueError("factors do not cover the cells their uncovered counts claim")
    return [Fraction(e, size) for e in equal]


def _min_cover(masks: list[int], budget: int) -> list[int]:
    """The lexicographically least of the smallest index sets whose masks
    cover the union of all masks, by subset sizes 1, 2, ... and indices in
    increasing order.  Every search node counts against `budget`.

    The search keeps its open nodes on an explicit stack rather than
    recursing once per chosen mask, so a cover of thousands of masks does
    not pass Python's recursion limit.  It visits the nodes of the depth-
    first search in the same order: each frame holds a node's position,
    uncovered bits and depth left, and the position past the child it
    tries, so the frames' children are the masks chosen so far.  A node
    fails when the masks past its position cannot cover its bits within
    its depth, or when the same bits at the same position already failed
    with at least as much depth left.
    """
    candidates = [(idx, m) for idx, m in enumerate(masks) if m]
    count = len(candidates)
    suffix_union = [0] * (count + 1)
    suffix_max_pop = [0] * (count + 1)
    for p in range(count - 1, -1, -1):
        suffix_union[p] = suffix_union[p + 1] | candidates[p][1]
        suffix_max_pop[p] = max(suffix_max_pop[p + 1], candidates[p][1].bit_count())
    if not suffix_union[0]:
        return []

    nodes = 0
    # (position, uncovered) -> deepest remaining depth already known to fail
    failed: dict[tuple[int, int], int] = {}
    for size in range(1, count + 1):
        frames: list[list[int]] = []
        child = 0, suffix_union[0], size
        while True:
            if child is not None:
                nodes += 1
                if nodes > budget:
                    raise BudgetExceededError(f"cover search exceeded the budget of {budget} nodes")
                pos, uncovered, depth_left = child
                if uncovered == 0:
                    return [candidates[frame[3] - 1][0] for frame in frames]
                if (depth_left and uncovered.bit_count() <= depth_left * suffix_max_pop[pos]
                        and failed.get((pos, uncovered), -1) < depth_left):
                    frames.append([pos, uncovered, depth_left, pos])
            if not frames:
                break
            frame = frames[-1]
            pos, uncovered, depth_left, p = frame
            child = None
            while child is None and p < count and suffix_union[p] & uncovered == uncovered:
                remaining = uncovered & ~candidates[p][1]
                p += 1
                if remaining != uncovered:
                    child = p, remaining, depth_left - 1
            frame[3] = p
            if child is None:
                failed[pos, uncovered] = depth_left
                frames.pop()
    raise RuntimeError("no concept cover found; this should be impossible")


def optimal_factorization(context: GradedMatrix, *, budget: int = 10**6) -> FactorSet:
    """Minimum-size exact concept decomposition, by exhaustive search.

    Enumerates all formal concepts, then looks for the smallest subset
    covering every nonzero cell, trying subset sizes 1, 2, ... and indices
    in lexicographic order, so the result is deterministic: the minimum size
    first, the lexicographically least concept-index set second.  `budget`
    caps both the closure count of the enumeration and the number of search
    nodes.  Intended for small instances only.
    """
    concepts = enumerate_concepts(context, budget=budget)
    scale, entries = context.scale, context.entries
    n_rows, n_cols = context.shape
    rows, cols = np.nonzero(entries)
    # Bitmask of covered cells per concept, bit b for the b-th nonzero cell
    # in row-major order; concepts covering nothing can never appear in a
    # minimal cover.
    values = entries[rows, cols]
    masks = []
    for concept in concepts:
        hits = scale.tnorm(concept.extent.membership[rows], concept.intent.membership[cols]) >= values
        masks.append(int.from_bytes(np.packbits(hits, bitorder="little").tobytes(), "little"))
    chosen = _min_cover(masks, budget)

    uncovered_counts = [len(rows)]
    remaining = (1 << len(rows)) - 1
    for idx in chosen:
        remaining &= ~masks[idx]
        uncovered_counts.append(remaining.bit_count())
    k = len(chosen)
    extents = [concepts[idx].extent.membership for idx in chosen]
    intents = [concepts[idx].intent.membership for idx in chosen]
    return FactorSet(GradedMatrix(scale, np.reshape(extents, (k, n_rows)).T),
                     GradedMatrix(scale, np.reshape(intents, (k, n_cols))), tuple(uncovered_counts))
