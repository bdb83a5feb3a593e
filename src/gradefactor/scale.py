"""Exact arithmetic for bounded chains of grades under a chosen t-norm.

Grades live on an equidistant chain 0 < 1/n < ... < 1 and are stored as the
integer levels 0..n, which keeps Lukasiewicz and Godel operations closed and
bit-exact.  Every operation accepts plain ints or numpy arrays of levels and
broadcasts like a ufunc, so the same kernels serve scalar reasoning and
whole-matrix sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

TNORM_KINDS = ("lukasiewicz", "godel", "goguen")

# The longest chain: on an n-step chain no t-norm or residuum intermediate
# exceeds 2n(n + 1), which must fit in int64, so n < 2**31.
MAX_LEVELS = 2**31

# Strict parsing rejects inputs farther than this from a representable grade.
PARSE_TOLERANCE = Fraction(1, 10**9)


def _round_half_up(x: Fraction) -> int:
    return math.floor(x + Fraction(1, 2))


@dataclass(frozen=True)
class Scale:
    """An equidistant chain of grades 0 = g_0 < g_1 < ... < g_n = 1.

    `levels` counts the grades (n + 1), at most MAX_LEVELS, so level i
    stands for the rational i/n.  `tnorm_kind` selects the aggregation used by every consumer of
    the scale.  The goguen (product) t-norm is not closed on a finite chain
    and is available only with ``rounded=True``, which rounds products
    half-up to the nearest level; lukasiewicz and godel are closed, and
    refuse ``rounded=True``.
    """

    levels: int
    tnorm_kind: str = "lukasiewicz"
    rounded: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.levels, int) or self.levels < 2:
            raise ValueError(
                f"a scale needs at least the two grades 0 and 1, got levels={self.levels!r}"
            )
        if self.levels > MAX_LEVELS:
            raise ValueError(
                f"a scale has at most {MAX_LEVELS} grades, got levels={self.levels}"
            )
        if self.tnorm_kind not in TNORM_KINDS:
            raise ValueError(
                f"unknown t-norm {self.tnorm_kind!r}, expected one of: {', '.join(TNORM_KINDS)}"
            )
        if self.tnorm_kind == "goguen" and not self.rounded:
            raise ValueError(
                "the goguen t-norm is not closed on a finite chain; "
                "pass rounded=True to opt in to half-up rounding"
            )
        if self.rounded and self.tnorm_kind != "goguen":
            raise ValueError(
                f"rounded=True applies to the goguen t-norm only; {self.tnorm_kind} is closed"
            )

    @classmethod
    def boolean(cls, tnorm_kind: str = "lukasiewicz") -> "Scale":
        """The two-grade chain {0, 1}, on which every t-norm is logical AND."""
        return cls(2, tnorm_kind)

    @property
    def max_level(self) -> int:
        """Level of the top grade 1, i.e. n."""
        return self.levels - 1

    # ------------------------------------------------------------------
    # t-norm and residuum on levels
    # ------------------------------------------------------------------

    def tnorm(self, a, b):
        """Aggregate two grades. Accepts levels or arrays of levels."""
        n = self.max_level
        if self.tnorm_kind == "lukasiewicz":
            return np.maximum(a + b - n, 0)
        if self.tnorm_kind == "godel":
            return np.minimum(a, b)
        # goguen: round a*b/n half-up to the nearest level
        return (2 * a * b + n) // (2 * n)

    def residuum(self, a, b):
        """The largest grade c with tnorm(a, c) <= b."""
        n = self.max_level
        if self.tnorm_kind == "lukasiewicz":
            return np.minimum(n - a + b, n)
        if self.tnorm_kind == "godel":
            return np.where(a <= b, n, b)[()]
        # rounded goguen: largest c with (2ac + n) // (2n) <= b
        safe = np.maximum(2 * a, 1)
        return np.where(a == 0, n, np.minimum((2 * n * b + n - 1) // safe, n))[()]

    # ------------------------------------------------------------------
    # conversions between levels, rationals, and text
    # ------------------------------------------------------------------

    def check_level(self, level) -> int:
        lv = int(level)
        if lv != level:
            raise ValueError(f"grade level must be an integer, got {level!r}")
        if not 0 <= lv <= self.max_level:
            raise ValueError(f"grade level {lv} outside [0, {self.max_level}]")
        return lv

    def value(self, level) -> Fraction:
        """The rational value level/n of a grade."""
        return Fraction(self.check_level(level), self.max_level)

    def level_from_value(self, value, *, strict: bool = True) -> int:
        """Map a number in [0, 1] to the nearest level, ties rounding half-up.

        Strict mode rejects values outside [0, 1] and values farther than
        PARSE_TOLERANCE from a representable grade; lenient mode clamps and
        rounds instead.
        """
        try:
            x = Fraction(value)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ValueError(f"cannot interpret {value!r} as a grade") from exc
        if x < 0 or x > 1:
            if strict:
                raise ValueError(f"grade value {value!r} outside [0, 1]")
            x = min(max(x, Fraction(0)), Fraction(1))
        n = self.max_level
        level = _round_half_up(x * n)
        if strict and abs(x - Fraction(level, n)) > PARSE_TOLERANCE:
            raise ValueError(
                f"{value!r} does not denote a grade on a {self.levels}-level chain"
            )
        return level

    def format_level(self, level) -> str:
        """Canonical text for a grade: an exact decimal if one exists with at
        most six fractional digits, otherwise the literal level as ``L<k>``."""
        lv = self.check_level(level)
        f = Fraction(lv, self.max_level)
        for digits in range(7):
            scaled = f * 10**digits
            if scaled.denominator == 1:
                if digits == 0:
                    return str(int(scaled))
                return f"{int(scaled) // 10**digits}.{int(scaled) % 10**digits:0{digits}d}"
        return f"L{lv}"
