"""Greedy and exact decomposition of a graded matrix into concept factors.

`find_factors` grows one concept at a time: it repeatedly extends a
candidate intent by the attribute-grade pair whose generated concept covers
the most still-uncovered nonzero cells, closes the intent, and stops growing
when no extension strictly improves the count.  The factors it emits
reproduce the input exactly under sup-t-norm composition.  Each step scores
all extensions in one batched sweep, on row bitsets when the chain has two
grades.  On a longer chain, two level tables per run, up to a fixed size,
hold the residua of every extent grade against every cell, so a
candidate's closure is a lookup, and so is its cover test: by adjointness,
tnorm(e, c) >= b exactly when c > residuum(e, b - 1).  Every factor opens
from the empty intent, whose candidates cover the same cells all run long,
so one opening table per run keeps those cells as packed bitsets, up to a
fixed number of words, and later openings score them by popcount.

`optimal_factorization` is the small-instance oracle: it enumerates every
formal concept and searches subsets in lexicographic index order for a
minimum exact cover.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .concepts import (
    BudgetExceededError,
    FormalConcept,
    _require_context,
    _up_levels,
    enumerate_concepts,
)
from .matrix import LEVEL_DTYPE, FuzzySet, GradedMatrix, _rectangle, _require_same_scale
from .scale import Scale

# A tie-break policy maps (attribute index, grade level) to a sort key;
# among equal-gain candidates the one with the largest key wins.  Both
# built-in policies prefer lower grades: a lower grade constrains the
# intent less, so the strictly-improving inner loop keeps more room to
# extend the candidate before it stalls.
TieBreakKey = Callable[[int, int], tuple]

TIE_BREAK_POLICIES: dict[str, TieBreakKey] = {
    # prefer the lower grade, then the earlier attribute
    "grade-then-index": lambda j, a: (-a, -j),
    # prefer the earlier attribute, then the lower grade
    "index-then-grade": lambda j, a: (-j, -a),
}

DEFAULT_TIE_BREAK = "grade-then-index"


def resolve_tie_break(policy) -> TieBreakKey:
    if callable(policy):
        return policy
    try:
        return TIE_BREAK_POLICIES[policy]
    except KeyError:
        raise ValueError(
            f"unknown tie-break policy {policy!r}, expected one of: "
            f"{', '.join(TIE_BREAK_POLICIES)} or a callable"
        ) from None


@dataclass(frozen=True)
class FactorSet:
    """An ordered list of concept factors for one context.

    `uncovered_counts` traces the run: entry l is the number of nonzero
    cells still uncovered after the first l factors, so it starts at the
    full count and ends at 0 exactly when the set is complete.
    """

    factors: tuple[FormalConcept, ...]
    context_shape: tuple[int, int]
    scale: Scale
    uncovered_counts: tuple[int, ...]

    def __post_init__(self) -> None:
        n, m = self.context_shape
        for concept in self.factors:
            if concept.extent.size != n or concept.intent.size != m:
                raise ValueError(
                    f"factor shaped {concept.extent.size}x{concept.intent.size} "
                    f"does not fit a {n}x{m} context"
                )
            if concept.extent.scale != self.scale or concept.intent.scale != self.scale:
                raise ValueError("factor scale differs from the factor set scale")
        if len(self.uncovered_counts) != len(self.factors) + 1:
            raise ValueError("uncovered_counts must hold one entry per prefix, including the empty one")

    @property
    def complete(self) -> bool:
        """Whether the factors cover every nonzero cell, read off the trace."""
        return self.uncovered_counts[-1] == 0

    def __len__(self) -> int:
        return len(self.factors)

    def __iter__(self):
        return iter(self.factors)

    def covered_nonzero_curve(self) -> list[Fraction]:
        """Fraction of initially nonzero cells covered after each factor."""
        initial = self.uncovered_counts[0]
        if initial == 0:
            return [Fraction(1)] * len(self.factors)
        return [Fraction(initial - u, initial) for u in self.uncovered_counts[1:]]


# Cells one batch of candidate closures may touch: a batch of c candidates
# over r rows and m columns holds c * r * m levels on a graded chain, or
# c * m * w words of w row words on the two-grade chain.  A batch's memory
# is therefore flat in the number of grades.  What a run keeps grows with
# them only up to a cap: the opening table's stored covers up to
# _OPENING_TABLE_WORDS, the level tables up to _LEVEL_TABLE_BYTES.
SWEEP_CELL_BUDGET = 1 << 16

# 8-byte words of covers one run's opening table may hold (4 MiB).  On an
# n-step chain an r x m input has m * n opening candidates of r * m / 64
# words each, so the whole table grows with the grades; the cap keeps it
# fixed.  It holds the whole table of a 200 x 100 input on 11 levels (313k
# words); on two grades a candidate takes only r / 64 + m / 8 words.
_OPENING_TABLE_WORDS = 1 << 19

# Bytes the two level tables of one run may take (16 MiB).  On an n-step
# chain an r x m input needs 2 (n + 1) r m cells of `_work_dtype`, which
# holds the tables of a 200 x 100 input on 11 levels in 880 kB; a longer
# chain or a larger input builds none and scores by t-norm arithmetic.
_LEVEL_TABLE_BYTES = 16 << 20


def _pack_rows(bits: np.ndarray) -> np.ndarray:
    """An n x m Boolean array as m bitsets over its rows: uint64, m x words."""
    n, m = bits.shape
    words = -(-n // 64)
    packed = np.zeros((words * 8, m), dtype=np.uint8)
    packed[: -(-n // 8)] = np.packbits(bits, axis=0, bitorder="little")
    return np.ascontiguousarray(packed.T).view(np.uint64)


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


def _level_tables(scale: Scale, entries: np.ndarray):
    """The two level tables of an input, or None past _LEVEL_TABLE_BYTES.

    Row i * (n + 1) + e of `res` holds residuum(e, I[i, j]) for every
    column j.  The same row of `never` holds residuum(e, I[i, j] - 1), the
    largest grade c with tnorm(e, c) < I[i, j], and n at zero cells, which
    therefore never count as covered.
    """
    n = scale.max_level
    dtype = _work_dtype(scale)
    n_rows, n_cols = entries.shape
    if 2 * (n + 1) * n_rows * n_cols * np.dtype(dtype).itemsize > _LEVEL_TABLE_BYTES:
        return None
    grades = np.arange(n + 1, dtype=dtype)[:, None]
    sub = entries.astype(dtype)[:, None, :]
    res = scale.residuum(grades, sub)
    never = np.where(sub != 0, scale.residuum(grades, sub - 1), dtype(n))
    return res.reshape(-1, n_cols), never.reshape(-1, n_cols)


class _GradedSweep:
    """Candidate scoring on any chain.

    A candidate (j, a) joins grade `a` at attribute `j` to an intent with
    extent D.  Its extent is D ∧ residuum(a, I[:, j]), because the residuum
    is antitone in its first argument, so only the closure (up) and the
    cover count need the whole matrix.  Rows outside the support of D can
    neither lower an up nor hold a covered nonzero cell, so a step works
    on D's support alone; the mask must hold nonzero cells only.

    Extents and closed intents are levels, so a step needs no arithmetic
    when the run's level tables exist: the candidate extent and the closure
    are lookups in `res`, and by adjointness tnorm(e, c) >= b holds exactly
    when c > residuum(e, b - 1), a lookup in `never`.
    """

    def __init__(self, scale: Scale, entries: np.ndarray, mask: np.ndarray) -> None:
        self.scale, self.entries, self.mask = scale, entries, mask
        self.tables = _level_tables(scale, entries)

    def scorer(self, extent: np.ndarray):
        """Batch size, gain function and cover function for the candidates
        of one extent.  The cover function gives the arrays `counter` scores
        a batch from: here, per candidate, the nonzero cells its concept
        covers as one bitset over the extent's cells, row-major.
        """
        scale = self.scale
        n = scale.max_level
        dtype = _work_dtype(scale)
        rows = np.flatnonzero(extent)
        sub, base = self.entries[rows].astype(dtype), extent[rows].astype(dtype)
        live = self.mask[rows]
        batch = max(1, SWEEP_CELL_BUDGET // max(1, sub.size))

        if self.tables is None:
            def hits(js: np.ndarray, levels: np.ndarray) -> np.ndarray:
                ext = np.minimum(base, scale.residuum(levels[:, None].astype(dtype), sub[:, js].T))
                closed = scale.residuum(ext[:, :, None], sub).min(axis=1, initial=n)
                return _rectangle(scale, ext, closed) >= sub
        else:
            res, never = self.tables
            offsets = rows * (n + 1)

            def hits(js: np.ndarray, levels: np.ndarray) -> np.ndarray:
                ext = np.minimum(base, res[offsets + levels[:, None], js[:, None]])
                idx = ext + offsets
                # rows lead the gathered closure, so its min runs over whole
                # candidate x column slabs
                closed = np.take(res, idx.T, axis=0).min(axis=0, initial=n)
                return np.take(never, idx, axis=0) < closed[:, None, :]

        live_bits = np.packbits(live)

        def gains(js: np.ndarray, levels: np.ndarray) -> np.ndarray:
            covered = np.packbits(hits(js, levels).reshape(len(js), -1), axis=1)
            return np.bitwise_count(covered & live_bits).sum(axis=1, dtype=np.int64)

        def covers(js: np.ndarray, levels: np.ndarray) -> tuple[np.ndarray]:
            covered = hits(js, levels) & (sub != 0)
            return (_pack_rows(covered.reshape(len(js), -1).T),)

        return batch, gains, covers

    def counter(self):
        """Gain function of the covers of a top extent's candidates against
        the cells uncovered now."""
        live = _pack_rows(self.mask.reshape(-1, 1))[0]
        return lambda covered: np.bitwise_count(covered & live).sum(axis=1, dtype=np.int64)

    def closure(self, extent: np.ndarray, j: int, a: int) -> tuple[np.ndarray, np.ndarray]:
        ext = np.minimum(extent, self.scale.residuum(a, self.entries[:, j]))
        return ext, _up_levels(self.scale, self.entries, ext)

    def retire(self, extent: np.ndarray, intent: np.ndarray) -> int:
        """Drop the cells the concept covers; returns how many stay uncovered."""
        self.mask &= ~(_rectangle(self.scale, extent, intent) >= self.entries)
        return int(self.mask.sum())


class _BitsetSweep(_GradedSweep):
    """Candidate scoring on the two-grade chain, where every t-norm is AND.

    Columns, their holes (rows lacking the attribute) and the uncovered
    cells are bitsets over rows.  A candidate extent is D & col[j];
    attribute j' is in its closure iff the extent misses every hole of j';
    its gain is the popcount of extent & uncovered[j'] over closed j'.
    """

    def __init__(self, scale: Scale, entries: np.ndarray, mask: np.ndarray) -> None:
        self.scale, self.entries, self.mask = scale, entries, mask
        self.cols = _pack_rows(entries != 0)
        self.holes = _pack_rows(entries == 0)
        self.uncovered = _pack_rows(mask)

    @staticmethod
    def _closed(ext: np.ndarray, holes: np.ndarray) -> np.ndarray:
        return ~(ext[..., None, :] & holes).any(axis=-1)

    @staticmethod
    def _count(ext: np.ndarray, closed: np.ndarray, uncovered: np.ndarray) -> np.ndarray:
        # closures hold few of the columns, so pair each candidate with its
        # closed columns rather than mask a full candidate x column block
        rows, cols = np.nonzero(closed)
        hit = np.bitwise_count(ext[rows] & uncovered[cols]).sum(axis=1, dtype=np.int64)
        gains = np.zeros(len(ext), dtype=np.int64)
        np.add.at(gains, rows, hit)
        return gains

    def scorer(self, extent: np.ndarray):
        base = _pack_rows(extent[:, None] != 0)[0]
        words = np.flatnonzero(base)
        base = base[words]
        cols, holes, uncovered = (
            self.cols[:, words], self.holes[:, words], self.uncovered[:, words]
        )
        batch = max(1, SWEEP_CELL_BUDGET // max(1, holes.size))

        def covers(js: np.ndarray, levels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            # on two grades a concept covers exactly its extent x intent, so
            # the extent's row bitset and the closed columns stand for the
            # cells, in 1/m of the words
            ext = base & cols[js]
            return ext, self._closed(ext, holes)

        def gains(js: np.ndarray, levels: np.ndarray) -> np.ndarray:
            return self._count(*covers(js, levels), uncovered)

        return batch, gains, covers

    def counter(self):
        return lambda ext, closed: self._count(ext, closed, self.uncovered)

    def closure(self, extent: np.ndarray, j: int, a: int) -> tuple[np.ndarray, np.ndarray]:
        ext = _pack_rows(extent[:, None] != 0)[0] & self.cols[j]
        n = self.entries.shape[0]
        return _unpack_rows(ext, n), self._closed(ext, self.holes).astype(LEVEL_DTYPE)

    def retire(self, extent: np.ndarray, intent: np.ndarray) -> int:
        remaining = super().retire(extent, intent)
        self.uncovered = _pack_rows(self.mask)
        return remaining


def _make_sweep(scale: Scale, entries: np.ndarray, mask: np.ndarray) -> _GradedSweep:
    kind = _BitsetSweep if scale.levels == 2 else _GradedSweep
    return kind(scale, entries, mask)


class _OpeningTable:
    """The opening step of every factor, scored from one table per run.

    Each factor opens from the empty intent, whose extent down(∅) is top
    because residuum(0, b) = n, so the opening candidates, their batches,
    their closures and the nonzero cells they cover stay fixed for the whole
    run; only the uncovered cells change.  The table keeps the sweep's
    covers of each batch, keyed by the batch's first candidate, so a stored
    batch is scored by popcounts against the uncovered cells alone.  A
    batch not stored is scored by the kernel, and stored while the table
    has room.  The table stands in for the sweep in `_best_candidate` on
    opening steps only.
    """

    def __init__(self, sweep: _GradedSweep) -> None:
        self.sweep, self.scale = sweep, sweep.scale
        self.batches: dict[tuple[int, int], tuple[np.ndarray, ...]] = {}
        self.words = 0
        self.full = False

    def scorer(self, extent: np.ndarray):
        batch, kernel_gains, covers = self.sweep.scorer(extent)
        count = self.sweep.counter()

        def gains(js: np.ndarray, levels: np.ndarray) -> np.ndarray:
            first = (int(js[0]), int(levels[0]))
            covered = self.batches.get(first)
            if covered is None:
                if self.full:
                    return kernel_gains(js, levels)
                covered = covers(js, levels)
                words = sum(-(-a.nbytes // 8) for a in covered)
                if self.words + words <= _OPENING_TABLE_WORDS:
                    self.batches[first] = covered
                    self.words += words
                else:
                    self.full = True
            return count(*covered)

        return batch, gains, covers

    def closure(self, extent: np.ndarray, j: int, a: int) -> tuple[np.ndarray, np.ndarray]:
        return self.sweep.closure(extent, j, a)


def _best_candidate(sweep: _GradedSweep, intent: np.ndarray, extent: np.ndarray,
                    key: TieBreakKey):
    """The winning (gain, j, a, extent, closed intent) over every extension
    (j, a) with a > intent[j], or None when the intent is already top.

    The winner has the largest (gain, key(j, a)); equal ranks go to the
    first candidate in (j, a) order.  `key` is evaluated only on candidates
    tying for the top gain seen so far.  Candidates with a <= intent[j]
    leave the intent unchanged, so their gain is the current concept's own
    cover count and they can never be a strict improvement.
    """
    counts = sweep.scale.max_level - intent
    ends = np.cumsum(counts)
    total = int(ends[-1])
    batch, gains, _ = sweep.scorer(extent)
    best = None
    for start in range(0, total, batch):
        flat = np.arange(start, min(start + batch, total))
        js = np.searchsorted(ends, flat, side="right")
        levels = intent[js] + 1 + flat - (ends[js] - counts[js])
        g = gains(js, levels)
        top = int(g.max())
        if best is not None and top < best[0][0]:
            continue
        for c in np.flatnonzero(g == top):
            j, a = int(js[c]), int(levels[c])
            rank = (top, key(j, a))
            if best is None or rank > best[0]:
                best = (rank, j, a)
    if best is None:
        return None
    (g, _), j, a = best
    return (g, j, a, *sweep.closure(extent, j, a))


def find_factors(context: GradedMatrix, tie_break=DEFAULT_TIE_BREAK, *,
                 max_factors: int | None = None) -> FactorSet:
    """Greedy exact decomposition of a context into concept factors.

    Each round grows an intent from empty: among all attribute-grade pairs
    it picks the one whose generated concept covers the most uncovered
    nonzero cells (ties resolved by `tie_break`), closes the extended
    intent, and repeats while the best cover count strictly improves.  The
    finished concept is appended and the cells it covers are retired.

    A `max_factors` bound truncates the run; its trace then ends above 0,
    so the result is incomplete instead of pretending to be exact.
    """
    _require_context(context)
    key = resolve_tie_break(tie_break)
    if max_factors is not None and max_factors < 0:
        raise ValueError(f"max_factors must be nonnegative, got {max_factors}")
    scale, entries = context.scale, context.entries
    n_rows, n_cols = entries.shape
    sweep = _make_sweep(scale, entries, entries != 0)
    opening = _OpeningTable(sweep)
    uncovered = [int(sweep.mask.sum())]
    factors: list[FormalConcept] = []

    while uncovered[-1] and (max_factors is None or len(factors) < max_factors):
        # the empty intent's extent is top, since residuum(0, b) = n
        intent = np.zeros(n_cols, dtype=LEVEL_DTYPE)
        extent = np.full(n_rows, scale.max_level, dtype=LEVEL_DTYPE)
        best_so_far = 0
        selected = _best_candidate(opening, intent, extent, key)
        while selected is not None and selected[0] > best_so_far:
            best_so_far, _, _, extent, intent = selected
            selected = _best_candidate(sweep, intent, extent, key)
        factors.append(FormalConcept(FuzzySet(scale, extent), FuzzySet(scale, intent)))
        uncovered.append(sweep.retire(extent, intent))
        # the candidate (j, I[i, j]) of any uncovered cell covers that cell,
        # so a correct sweep always retires one
        if uncovered[-1] == uncovered[-2]:
            raise RuntimeError(f"factor {len(factors)} covers no uncovered cell")

    return FactorSet(
        factors=tuple(factors),
        context_shape=(n_rows, n_cols),
        scale=scale,
        uncovered_counts=tuple(uncovered),
    )


def factor_matrices(factor_set: FactorSet) -> tuple[GradedMatrix, GradedMatrix]:
    """The object-factor and factor-attribute matrices of a factor set.

    Column l of the first matrix is the l-th extent; row l of the second is
    the l-th intent.  Composing the two reproduces the superposition of the
    factor rectangles.
    """
    n, m = factor_set.context_shape
    k = len(factor_set.factors)
    a = np.zeros((n, k), dtype=LEVEL_DTYPE)
    b = np.zeros((k, m), dtype=LEVEL_DTYPE)
    for l, concept in enumerate(factor_set.factors):
        a[:, l] = concept.extent.membership
        b[l, :] = concept.intent.membership
    return GradedMatrix(factor_set.scale, a), GradedMatrix(factor_set.scale, b)


def coverage_curve(factor_set: FactorSet, context: GradedMatrix) -> list[Fraction]:
    """Exact fraction of matching cells after each successive factor, from
    one pass over the factors that also checks them against the context.

    Entry l compares the superposition of the first l + 1 rectangles with
    the context.  The last superposition is the product of the factor
    matrices, so it must equal the context when the set is complete and
    never exceed it otherwise.  Prefixes only grow, so then none exceeds
    the context, and a nonzero cell is covered exactly where its prefix
    equals it: the pass recounts `uncovered_counts` from the curve.

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
    for concept in factor_set.factors:
        rect = _rectangle(context.scale, concept.extent.membership, concept.intent.membership)
        np.maximum(acc, rect, out=acc)
        equal.append(int(np.count_nonzero(acc == entries)))
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
    rows, cols = np.nonzero(entries)
    cells = list(zip(rows.tolist(), cols.tolist()))
    if not cells:
        return FactorSet((), context.shape, scale, (0,))

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

    picked = tuple(concepts[idx] for idx in chosen)
    uncovered_counts = [len(cells)]
    remaining = full
    for idx in chosen:
        remaining &= ~masks[idx]
        uncovered_counts.append(remaining.bit_count())
    return FactorSet(
        factors=picked,
        context_shape=context.shape,
        scale=scale,
        uncovered_counts=tuple(uncovered_counts),
    )
