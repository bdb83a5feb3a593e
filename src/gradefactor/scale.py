"""Exact arithmetic for bounded chains of grades under a chosen t-norm.

Grades live on an equidistant chain 0 < 1/n < ... < 1 and are stored as the
integer levels 0..n, which keeps Lukasiewicz and Godel operations closed and
bit-exact.  Every operation accepts plain ints or numpy arrays of levels and
broadcasts like a ufunc, so the same kernels serve scalar reasoning and
whole-matrix sweeps.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

TNORM_KINDS = ("lukasiewicz", "godel", "goguen")

# The longest chain: on an n-step chain no t-norm or residuum intermediate
# exceeds 2n(n + 1), which must fit in int64, so n < 2**31.
MAX_LEVELS = 2**31

# Strict parsing rejects inputs farther than this from a representable grade.
PARSE_TOLERANCE = Fraction(1, 10**9)


def _require_count(name: str, value, low: int = 0, high: int | None = None) -> int:
    """A Python or numpy integer in [low, high] as an int; a bool, any
    other type and a value out of range are refused."""
    try:
        if isinstance(value, bool):
            raise TypeError
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if count < low:
        raise ValueError(f"{name} must be at least {low}, got {count}")
    if high is not None and count > high:
        raise ValueError(f"{name} must be at most {high}, got {count}")
    return count


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
        # frozen: a numpy integer is stored as the int it stands for
        object.__setattr__(self, "levels", _require_count("levels", self.levels, 2, MAX_LEVELS))
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
            # the t-norm runs on a factor's rectangle or a concept's cells,
            # blocks no larger than the input, where the compare and
            # multiply of `residuum` cost an extra ufunc call: composing a
            # 20 x 20 factor set took 17-23% longer that way
            return np.maximum(a + b - n, 0)
        if self.tnorm_kind == "godel":
            return np.minimum(a, b)
        # goguen: round a*b/n half-up to the nearest level
        return (2 * a * b + n) // (2 * n)

    def residuum(self, a, b):
        """The largest grade c with tnorm(a, c) <= b."""
        n = self.max_level
        # The residua build the level tables of every graded run and, past
        # their cap, every closure, over blocks as large as the input times
        # the grades.  A maximum or minimum against a scalar runs several
        # times slower there than a compare and a multiply: on 160k int16
        # levels np.minimum(x, 12) took 110-155 µs, against 9 µs for
        # x > 12.  So the residua clip by multiplying a difference with its
        # own sign test, in the operands' type, which also keeps a Python
        # int a Python int.
        if self.tnorm_kind == "lukasiewicz":
            # min(n - a + b, n) = n - max(a - b, 0)
            d = a - b
            d *= d > 0
            return n - d
        # a residuum of grades lies in [0, n], so its maximum with n where
        # a condition holds, and with 0 elsewhere, selects n there; on
        # broadcast blocks this is several times faster than np.where.  n
        # takes the operands' type, since a Boolean array times a Python
        # int would be int64; so does the guarded divisor.
        top = np.result_type(a, b).type(n)
        if self.tnorm_kind == "godel":
            return np.maximum(b, (a <= b) * top)
        # rounded goguen: largest c with (2ac + n) // (2n) <= b, at most n;
        # a = 0 divides by 1 and selects n
        zero = a == 0
        c = (2 * n * b + n - 1) // (2 * a + zero)
        d = c - n
        d *= d > 0
        return np.maximum(c - d, zero * top)

    # ------------------------------------------------------------------
    # conversions between levels, rationals, and text
    # ------------------------------------------------------------------

    def check_level(self, level) -> int:
        """A level of this chain, a Python or numpy integer in [0, n], as an int."""
        return _require_count("grade level", level, 0, self.max_level)

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
        shifted = lv
        for digits in range(7):
            # lv/n has `digits` decimals when n divides lv * 10**digits
            scaled, rest = divmod(shifted, self.max_level)
            if not rest:
                if digits == 0:
                    return str(scaled)
                whole, fraction = divmod(scaled, 10**digits)
                return f"{whole}.{fraction:0{digits}d}"
            shifted *= 10
        return f"L{lv}"
