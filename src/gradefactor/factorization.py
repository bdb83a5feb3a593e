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
lookups, the cover test by adjointness: tnorm(e, c) >= b exactly when
c > residuum(e, b - 1); or, past the cap, t-norm arithmetic.  A batch is
plain arrays, (js, levels, gains, covers), whose covers hold each
candidate's extent and closed intent, so the winner's concept comes from
the batch that scored it and no candidate is closed twice.  Every factor
opens from the empty intent, whose candidates cover the same cells all run
long, so each run keeps the whole covers of the opening's first batches as
one block, up to a fixed number of words, and every opening scores it by
popcount and takes its winner's concept from it.  Ties on the gain go to
one of two named policies, decided within a batch in numpy.

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
from .matrix import (LEVEL_DTYPE, FuzzySet, GradedMatrix, _rectangle, _require_composable,
                     _require_same_scale, _superpose)
from .scale import Scale

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


# Cells one batch of candidates may touch: a batch of c candidates over r
# rows and m columns holds c * r * m levels on a graded chain, from either
# row source, since a batch spans every row of the input; or c * m * w
# words of w row words on the two-grade chain.  The opening block is
# scored this many words at a time.  A batch's memory is therefore flat in
# the number of grades.  What a run keeps grows with them only up to a cap:
# the opening block up to _OPENING_TABLE_WORDS, the level and column tables
# up to _LEVEL_TABLE_BYTES.
SWEEP_CELL_BUDGET = 1 << 16

# 8-byte words of covers one run's opening block may hold (4 MiB), counted
# by the bytes it keeps.  On an n-step chain an r x m input has m * n
# opening candidates, each with r * m / 64 words of covered cells and its
# extent and closed intent, r + m levels of `_work_dtype`, so the whole
# opening grows with the grades; the cap keeps the block fixed.  It holds
# the whole opening of a 200 x 100 input on 11 levels (388k words); on two
# grades a candidate takes only r / 64 words and m bytes.
_OPENING_TABLE_WORDS = 1 << 19

# Bytes the three tables of one run may take (16 MiB): the two level tables
# and the column table.  On an n-step chain an r x m input needs
# 3 (n + 1) r m cells of `_work_dtype`, which holds the tables of a
# 200 x 100 input on 11 levels in 1.3 MB.  A longer chain or a larger input
# builds none, and the sweep takes its residua from t-norm arithmetic
# instead of the tables.
_LEVEL_TABLE_BYTES = 16 << 20


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
    scale's t-norm and residuum; none exceeds 2n(n + 1) on an n-step chain.
    Narrow levels halve or quarter the memory traffic of a batch."""
    n = scale.max_level
    for dtype in (np.int16, np.int32):
        if 2 * n * (n + 1) <= np.iinfo(dtype).max:
            return dtype
    return LEVEL_DTYPE


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
    """The graded sweep's residua from two level tables and a column table,
    built once per run and read-only from then on.

    Row i * (n + 1) + e of `res` holds residuum(e, I[i, j]) for every
    column j.  The same row of `never` holds residuum(e, I[i, j] - 1), the
    largest grade c with tnorm(e, c) < I[i, j], and n at zero cells, which
    therefore never count as covered: by adjointness the cover test is a
    lookup in `never`.  cols[j, e] holds residuum(e, I[i, j]) for every
    row i: the extent that grade e at attribute j allows.  Candidates are
    the grades of a per-run grid above the intent, never larger than a
    table.
    """

    @staticmethod
    def fit(scale: Scale, entries: np.ndarray) -> bool:
        """Whether the three tables fit in _LEVEL_TABLE_BYTES."""
        itemsize = np.dtype(_work_dtype(scale)).itemsize
        return 3 * scale.levels * entries.size * itemsize <= _LEVEL_TABLE_BYTES

    def __init__(self, scale: Scale, entries: np.ndarray) -> None:
        n, dtype = scale.max_level, _work_dtype(scale)
        n_rows, n_cols = entries.shape
        grades = np.arange(n + 1, dtype=dtype)[:, None]
        sub = entries.astype(dtype)[:, None, :]
        res = scale.residuum(grades, sub)
        never = np.where(sub != 0, scale.residuum(grades, sub - 1), dtype(n))
        self.cols = np.ascontiguousarray(res.transpose(2, 1, 0))
        self.res, self.never = res.reshape(-1, n_cols), never.reshape(-1, n_cols)
        for table in (self.res, self.never, self.cols):
            table.setflags(write=False)
        self.n, self.grades = n, np.arange(n + 1)
        self.offsets = np.arange(n_rows) * (n + 1)

    def candidates(self, intent: np.ndarray, start: int, batch: int):
        js, levels = (self.grades > intent[:, None]).nonzero()
        for lo in range(start, len(js), batch):
            yield js[lo:lo + batch], levels[lo:lo + batch]

    def allowed(self, js: np.ndarray, levels: np.ndarray) -> np.ndarray:
        return self.cols[js, levels]

    def index(self, ext: np.ndarray) -> np.ndarray:
        """The rows of `res` and `never` that hold a batch of extents."""
        return ext + self.offsets

    def closures(self, idx: np.ndarray) -> np.ndarray:
        # rows lead the gathered closure, so its min runs over whole
        # candidate x column slabs
        return self.res.take(idx.T, axis=0).min(axis=0, initial=self.n)

    def covered(self, idx: np.ndarray, closed: np.ndarray) -> np.ndarray:
        return self.never.take(idx, axis=0) < closed[..., None, :]


class _Residua:
    """The graded sweep's residua by t-norm arithmetic, past the table cap.

    Candidates are ranked batch by batch.  Closures are residuum minima over
    (candidate, row, column) blocks; the cover test compares the t-norm
    rectangle with the input, read-only from construction on, and so finds
    every zero cell covered, which the sweep does not count.
    """

    def __init__(self, scale: Scale, entries: np.ndarray) -> None:
        self.scale, self.entries = scale, entries.astype(_work_dtype(scale))
        self.entries.setflags(write=False)

    def candidates(self, intent: np.ndarray, start: int, batch: int):
        return _ranked_candidates(intent, self.scale.max_level, start, batch)

    def allowed(self, js: np.ndarray, levels: np.ndarray) -> np.ndarray:
        levels = np.asarray(levels, dtype=self.entries.dtype)[..., None]
        return self.scale.residuum(levels, self.entries[:, js].T)

    def index(self, ext: np.ndarray) -> np.ndarray:
        """A batch of extents in the work dtype, so that the arithmetic over
        (candidate, row, column) blocks stays narrow."""
        return ext.astype(self.entries.dtype, copy=False)

    def closures(self, ext: np.ndarray) -> np.ndarray:
        res = self.scale.residuum(ext[..., None], self.entries)
        return res.min(axis=-2, initial=self.scale.max_level)

    def covered(self, ext: np.ndarray, closed: np.ndarray) -> np.ndarray:
        return _rectangle(self.scale, ext, closed) >= self.entries


class _GradedSweep:
    """Candidate scoring on a graded chain, with residua from a row source.

    A candidate (j, a) joins grade `a` at attribute `j` to an intent with
    extent D.  Its extent is D ∧ residuum(a, I[:, j]), because the residuum
    is antitone in its first argument.  Batches span every row: a row
    outside D's support has extent 0, whose residua are all n, so it
    neither lowers a closure nor holds a covered cell.  A batch's covers
    are the cells each candidate's concept covers, packed over all cells,
    with the candidates' extents and closed intents; its gains are the
    popcounts of the packed cells against `live`, the packed uncovered
    cells, the one thing a run changes.  The mask must hold nonzero cells
    only.
    """

    def __init__(self, entries: np.ndarray, mask: np.ndarray, rows) -> None:
        self.rows = rows
        self.batch = max(1, SWEEP_CELL_BUDGET // max(1, entries.size))
        self.live = _pack_cells(mask[None])[0]

    def batches(self, intent: np.ndarray, extent: np.ndarray, start: int = 0):
        """The candidates (j, a) with a > intent[j] of an intent whose extent
        is `extent`, from the start-th on in (j, a) order, in batches: per
        batch its attributes, grades, gains and covers, whose `count` the
        gains are.  Extents and closed intents stay in the work dtype."""
        for js, levels in self.rows.candidates(intent, start, self.batch):
            allowed = self.rows.allowed(js, levels)
            ext = np.minimum(allowed, extent, dtype=allowed.dtype)
            idx = self.rows.index(ext)
            closed = self.rows.closures(idx)
            covers = _pack_cells(self.rows.covered(idx, closed)), ext, closed
            yield js, levels, self.count(covers), covers

    def count(self, covers: tuple) -> np.ndarray:
        """Gains of a batch of covers against the cells uncovered now."""
        return np.bitwise_count(covers[0] & self.live).sum(axis=1, dtype=np.int64)

    def concept(self, covers: tuple, c: int) -> tuple[np.ndarray, np.ndarray]:
        """The extent and closed intent of the c-th candidate of covers."""
        _, ext, closed = covers
        return ext[c].astype(LEVEL_DTYPE), closed[c].astype(LEVEL_DTYPE)

    def retire(self, extent: np.ndarray, intent: np.ndarray) -> int:
        """Drop the cells the concept covers; returns how many stay uncovered."""
        self.live &= ~_pack_cells(self.rows.covered(self.rows.index(extent), intent)[None])[0]
        return int(np.bitwise_count(self.live).sum())


class _BitsetSweep:
    """Candidate scoring on the two-grade chain, where every t-norm is AND.

    Columns and the uncovered cells are bitsets over rows.  A candidate
    extent is D & col[j]; attribute j' is in its closure iff the extent
    misses every hole of j', the rows of ~col[j']; its gain is the
    popcount of extent & uncovered[j'] over closed j'.
    """

    def __init__(self, entries: np.ndarray, mask: np.ndarray) -> None:
        self.n_rows = entries.shape[0]
        self.cols = _pack_cells((entries != 0).T)
        self.uncovered = _pack_cells(mask.T)

    @staticmethod
    def _closed(ext: np.ndarray, holes: np.ndarray) -> np.ndarray:
        return ~(ext[..., None, :] & holes).any(axis=-1)

    def batches(self, intent: np.ndarray, extent: np.ndarray, start: int = 0):
        base = _pack_cells((extent != 0)[None])[0]
        # closures test only the words the extent occupies; it has no bits
        # past the last row, where ~cols has ones
        words = np.flatnonzero(base)
        holes = ~self.cols[:, words]
        batch = max(1, SWEEP_CELL_BUDGET // max(1, holes.size))
        for js, levels in _ranked_candidates(intent, 1, start, batch):
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

    def retire(self, extent: np.ndarray, intent: np.ndarray) -> int:
        # the concept covers exactly extent x intent: clear the extent's
        # rows in the intent's columns
        self.uncovered[np.flatnonzero(intent)] &= ~_pack_cells((extent != 0)[None])[0]
        return int(np.bitwise_count(self.uncovered).sum())


def _make_sweep(scale: Scale, entries: np.ndarray, mask: np.ndarray) -> _GradedSweep | _BitsetSweep:
    if scale.levels == 2:
        return _BitsetSweep(entries, mask)
    rows = (_LevelTables if _LevelTables.fit(scale, entries) else _Residua)(scale, entries)
    return _GradedSweep(entries, mask, rows)


def _opening_block(sweep, intent: np.ndarray, extent: np.ndarray) -> tuple:
    """The covers of the opening step's first batches, as one block.

    Each factor opens from the empty intent, whose extent down(∅) is top
    because residuum(0, b) = n, so the opening candidates, their closures
    and the nonzero cells they cover stay fixed for the whole run; only the
    uncovered cells change.  The block is (js, levels, *covers) of the
    longest prefix of whole batches, in (j, a) order, whose covers fit in
    _OPENING_TABLE_WORDS words, or an empty block when no batch fits.
    """
    parts, size = [], 0
    for js, levels, _, covers in sweep.batches(intent, extent):
        size += sum(a.nbytes for a in covers)
        if size > 8 * _OPENING_TABLE_WORDS:
            break
        parts.append((js, levels, *covers))
    return tuple(map(np.concatenate, zip(*parts))) or ((), ())


def _opening_batches(sweep, block: tuple, intent: np.ndarray, extent: np.ndarray):
    """The opening step's batches: the block's, scored by `count`
    SWEEP_CELL_BUDGET words at a time with no closure, then the sweep's for
    the candidates past it.  One popcount scores the block of a 40 x 30
    input on 11 levels (11k words)."""
    js, levels, *covers = block
    step = max(1, 8 * SWEEP_CELL_BUDGET // max(1, sum(a[:1].nbytes for a in covers)))
    for lo in range(0, len(js), step):
        stored = tuple(a[lo:lo + step] for a in covers)
        yield js[lo:lo + step], levels[lo:lo + step], sweep.count(stored), stored
    yield from sweep.batches(intent, extent, len(js))


def _best_candidate(batches, tie_break: str):
    """The winning (gain, covers, c) over batches of the extensions (j, a)
    with a > intent[j] of one intent, in (j, a) order: the winner is the
    c-th candidate of the batch whose covers are `covers`.  None when there
    are none, as when the intent is already top.

    The winner has the largest gain.  Among equal gains "index-then-grade"
    takes the first in (j, a) order, so a later batch must gain strictly
    more; "grade-then-index" takes the lowest grade, then the first in
    order, so batches compare by (gain, -a, -j).  Candidates with
    a <= intent[j] leave the intent unchanged, so their gain is the current
    concept's own cover count and they can never be a strict improvement.
    """
    by_grade = tie_break == "grade-then-index"
    best = None
    for js, levels, g, covers in batches:
        ties = (g == g.max()).nonzero()[0]
        c = ties[levels[ties].argmin()] if by_grade else ties[0]
        rank = (int(g[c]), -int(levels[c]), -int(js[c])) if by_grade else (int(g[c]),)
        if best is None or rank > best[0]:
            best = rank, covers, c
    return None if best is None else (best[0][0], *best[1:])


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
    so the result is incomplete instead of pretending to be exact.
    """
    _require_context(context)
    tie_break = resolve_tie_break(tie_break)
    if max_factors is not None and max_factors < 0:
        raise ValueError(f"max_factors must be nonnegative, got {max_factors}")
    scale, entries = context.scale, context.entries
    n_rows, n_cols = entries.shape
    mask = entries != 0
    sweep = _make_sweep(scale, entries, mask)
    # the empty intent's extent is top, since residuum(0, b) = n
    empty = np.zeros(n_cols, dtype=LEVEL_DTYPE)
    top = np.full(n_rows, scale.max_level, dtype=LEVEL_DTYPE)
    uncovered = [int(mask.sum())]
    extents: list[np.ndarray] = []
    intents: list[np.ndarray] = []

    while uncovered[-1] and (max_factors is None or len(extents) < max_factors):
        if not extents:
            # once per run, and only by a run that seeks a factor
            block = _opening_block(sweep, empty, top)
        best_so_far, extent, intent = 0, top, empty
        selected = _best_candidate(_opening_batches(sweep, block, empty, top), tie_break)
        while selected is not None and selected[0] > best_so_far:
            best_so_far, covers, c = selected
            extent, intent = sweep.concept(covers, c)
            selected = _best_candidate(sweep.batches(intent, extent), tie_break)
        extents.append(extent)
        intents.append(intent)
        uncovered.append(sweep.retire(extent, intent))
        # the candidate (j, I[i, j]) of any uncovered cell covers that cell,
        # so a correct sweep always retires one
        if uncovered[-1] == uncovered[-2]:
            raise RuntimeError(f"factor {len(extents)} covers no uncovered cell")

    k = len(extents)
    return FactorSet(GradedMatrix(scale, np.reshape(extents, (k, n_rows)).T),
                     GradedMatrix(scale, np.reshape(intents, (k, n_cols))), tuple(uncovered))


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


def optimal_factorization(context: GradedMatrix, *, budget: int = 10**6) -> FactorSet:
    """Minimum-size exact concept decomposition, by exhaustive search.

    Enumerates all formal concepts, then looks for the smallest subset
    covering every nonzero cell, trying subset sizes 1, 2, ... and indices
    in lexicographic order, so the result is deterministic: the minimum size
    first, the lexicographically least concept-index set second.  `budget`
    caps both the closure count of the enumeration and the number of search
    nodes.  Intended for small instances only.
    """
    _require_context(context)
    concepts = enumerate_concepts(context, budget=budget)
    scale, entries = context.scale, context.entries
    n_rows, n_cols = context.shape
    rows, cols = np.nonzero(entries)
    cells = list(zip(rows.tolist(), cols.tolist()))
    if not cells:
        return FactorSet(GradedMatrix.zeros(scale, n_rows, 0),
                         GradedMatrix.zeros(scale, 0, n_cols), (0,))

    # Bitmask of covered cells per concept; concepts covering nothing can
    # never appear in a minimal cover.
    masks = []
    for concept in concepts:
        hits = _rectangle(scale, concept.extent.membership, concept.intent.membership) >= entries
        masks.append(sum(1 << b for b, (i, j) in enumerate(cells) if hits[i, j]))
    candidates = [(idx, m) for idx, m in enumerate(masks) if m]

    count = len(candidates)
    suffix_union = [0] * (count + 1)
    suffix_max_pop = [0] * (count + 1)
    for p in range(count - 1, -1, -1):
        suffix_union[p] = suffix_union[p + 1] | candidates[p][1]
        suffix_max_pop[p] = max(suffix_max_pop[p + 1], candidates[p][1].bit_count())

    full = (1 << len(cells)) - 1
    nodes = 0
    # (position, uncovered) -> deepest remaining depth already known to fail
    failed: dict[tuple[int, int], int] = {}
    chosen: list[int] = []

    def search(pos: int, uncovered: int, depth_left: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(
                f"cover search exceeded the budget of {budget} nodes"
            )
        if uncovered == 0:
            return True
        if depth_left == 0:
            return False
        if uncovered.bit_count() > depth_left * suffix_max_pop[pos]:
            return False
        memo_key = (pos, uncovered)
        if failed.get(memo_key, -1) >= depth_left:
            return False
        for p in range(pos, count):
            if suffix_union[p] & uncovered != uncovered:
                break
            idx, mask = candidates[p]
            remaining = uncovered & ~mask
            if remaining == uncovered:
                continue
            chosen.append(idx)
            if search(p + 1, remaining, depth_left - 1):
                return True
            chosen.pop()
        if failed.get(memo_key, -1) < depth_left:
            failed[memo_key] = depth_left
        return False

    for size in range(1, count + 1):
        if search(0, full, size):
            break
    else:
        raise RuntimeError("no concept cover found; this should be impossible")

    uncovered_counts = [len(cells)]
    remaining = full
    for idx in chosen:
        remaining &= ~masks[idx]
        uncovered_counts.append(remaining.bit_count())
    k = len(chosen)
    extents = [concepts[idx].extent.membership for idx in chosen]
    intents = [concepts[idx].intent.membership for idx in chosen]
    return FactorSet(GradedMatrix(scale, np.reshape(extents, (k, n_rows)).T),
                     GradedMatrix(scale, np.reshape(intents, (k, n_cols))), tuple(uncovered_counts))
