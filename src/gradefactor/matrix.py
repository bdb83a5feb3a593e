"""Graded vectors and matrices over a scale, with sup-t-norm composition.

A GradedMatrix holds integer levels, never floats, so every operation here
is exact.  Arrays are locked after construction; build modified copies
instead of mutating in place.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .scale import Scale

LEVEL_DTYPE = np.int64


def _as_level_array(scale: Scale, data, ndim: int) -> np.ndarray:
    arr = np.asarray(data)
    if arr.size and arr.dtype.kind not in "iub":
        raise TypeError(
            f"expected integer grade levels, got dtype {arr.dtype}; "
            "use from_values for decimal grades"
        )
    arr = arr.astype(LEVEL_DTYPE)  # astype always copies
    if arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d array of levels, got shape {arr.shape}")
    if arr.size and (arr.min() < 0 or arr.max() > scale.max_level):
        raise ValueError(f"grade levels must lie in [0, {scale.max_level}]")
    arr.setflags(write=False)
    return arr


def _require_same_scale(a: Scale, b: Scale) -> None:
    if a != b:
        raise ValueError(f"scale mismatch: {a} vs {b}")


def _require_composable(a: GradedMatrix, b: GradedMatrix) -> None:
    _require_same_scale(a.scale, b.scale)
    if a.n_cols != b.n_rows:
        raise ValueError(f"inner dimensions disagree: {a.shape} x {b.shape}")


class FuzzySet:
    """A graded subset of a finite universe: one membership level per element."""

    __slots__ = ("scale", "membership")

    def __init__(self, scale: Scale, membership) -> None:
        self.scale = scale
        self.membership = _as_level_array(scale, membership, 1)

    @classmethod
    def zeros(cls, scale: Scale, size: int) -> "FuzzySet":
        return cls(scale, np.zeros(size, dtype=LEVEL_DTYPE))

    @classmethod
    def from_values(cls, scale: Scale, values: Iterable, *, strict: bool = True) -> "FuzzySet":
        """Build from numbers in [0, 1] instead of levels."""
        return cls(scale, [scale.level_from_value(v, strict=strict) for v in values])

    @property
    def size(self) -> int:
        return self.membership.shape[0]

    def values(self) -> list[Fraction]:
        return [self.scale.value(v) for v in self.membership]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FuzzySet):
            return NotImplemented
        return self.scale == other.scale and np.array_equal(self.membership, other.membership)

    def __hash__(self) -> int:
        return hash((self.scale, self.membership.tobytes()))

    def __repr__(self) -> str:
        body = " ".join(self.scale.format_level(v) for v in self.membership)
        return f"<FuzzySet [{body}]>"


class GradedMatrix:
    """A rectangular array of grades over one scale.

    Zero-sized dimensions are tolerated so that a factorization with k = 0
    factors still has well-defined factor matrices; contexts handed to the
    concept operators must have at least one row and column.
    """

    __slots__ = ("scale", "entries")

    def __init__(self, scale: Scale, entries) -> None:
        self.scale = scale
        self.entries = _as_level_array(scale, entries, 2)

    @classmethod
    def zeros(cls, scale: Scale, n_rows: int, n_cols: int) -> "GradedMatrix":
        return cls(scale, np.zeros((n_rows, n_cols), dtype=LEVEL_DTYPE))

    @classmethod
    def from_values(cls, scale: Scale, rows: Sequence[Iterable], *, strict: bool = True) -> "GradedMatrix":
        """Build from numbers in [0, 1] instead of levels."""
        levels = [[scale.level_from_value(v, strict=strict) for v in row] for row in rows]
        return cls(scale, levels)

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape

    @property
    def n_rows(self) -> int:
        return self.entries.shape[0]

    @property
    def n_cols(self) -> int:
        return self.entries.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedMatrix):
            return NotImplemented
        return self.scale == other.scale and np.array_equal(self.entries, other.entries)

    def __repr__(self) -> str:
        n, m = self.shape
        return f"<GradedMatrix {n}x{m} on {self.scale.levels}-level chain ({self.scale.tnorm_kind})>"


def _rectangle(scale: Scale, extent: np.ndarray, intent: np.ndarray) -> np.ndarray:
    """The t-norm outer product of an extent and an intent: out[..., i, j] is
    tnorm(extent[..., i], intent[..., j]), the cells of one factor's
    rectangle, or of a batch of them along the leading axes."""
    return scale.tnorm(extent[..., :, None], intent[..., None, :])


def compose(a: GradedMatrix, b: GradedMatrix) -> GradedMatrix:
    """Sup-t-norm product: out[i, j] = max over l of tnorm(a[i, l], b[l, j]).

    On the two-grade chain this is the ordinary Boolean matrix product.
    """
    _require_composable(a, b)
    out = np.zeros((a.n_rows, b.n_cols), dtype=LEVEL_DTYPE)
    for l in range(a.n_cols):
        np.maximum(out, _rectangle(a.scale, a.entries[:, l], b.entries[l, :]), out=out)
    return GradedMatrix(a.scale, out)
