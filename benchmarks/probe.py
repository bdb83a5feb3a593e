"""Reference-speed probe: fixed work that converts timings to one machine speed.

On a shared host the speed of fixed work drifts by tens of percent, both
within a second and over minutes, and process CPU time drifts with it.
The benchmark runs a probe between operations and times it by its own
thread's CPU time, so threads left running elsewhere in the process cannot
slow it.  Every reported timing is multiplied by the probe's reference
time divided by the mean probe time measured beside it, which states the
timing at the speed the machine had when the reference was set.

Kinds of work do not slow alike: when the host is busy, interpreter loops
slow down far more than numpy calls that stream through memory.  So the
probe is made of components, one per kind of cost the program has, and
each workload times the components that resemble its own work.  No
component uses code of the program under test.
"""

from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction

import numpy as np

_RNG = np.random.default_rng(20130305)
_SMALL = _RNG.integers(0, 11, size=(40, 30))
_TALL = _RNG.integers(0, 2, size=(3200, 75))
_DECIMALS = [f"{v // 100}.{v % 100:02d}" for v in _RNG.integers(0, 10**6, size=300).tolist()]


def _interp() -> int:
    """Interpreter arithmetic and string handling."""
    acc = 0
    for i in range(14000):
        acc = (acc * 1103515245 + i) & 0xFFFFFFFF
    return acc + len(",".join(str(v) for v in range(4000)).split(","))


def _parse() -> int:
    """Parsing decimals into exact rationals and rounding them."""
    low, span = Fraction(3), Fraction(7)
    return sum(math.floor((Fraction(text) - low) / span * 4 + Fraction(1, 2))
               for text in _DECIMALS)


def _small() -> int:
    """numpy calls on small arrays, where per-call overhead dominates."""
    acc = 0
    for j in range(180):
        column = _SMALL[:, j % 30]
        implied = np.minimum(10 - column[:, None] + _SMALL, 10).min(axis=0)
        rect = np.maximum(column[:, None] + implied[None, :] - 10, 0)
        acc += int(np.count_nonzero(rect >= _SMALL))
    return acc


def _tall() -> int:
    """numpy calls on tall arrays, where memory traffic dominates."""
    acc = 0
    for j in range(2):
        column = _TALL[:, j]
        implied = np.minimum(1 - column[:, None] + _TALL, 1).min(axis=0)
        rect = np.minimum(column[:, None], implied[None, :])
        acc += int(np.count_nonzero(rect >= _TALL))
    return acc


COMPONENTS = {"interp": _interp, "parse": _parse, "small": _small, "tall": _tall}

# Thread CPU time of each component at reference speed: about the median of
# 400 runs on the reference machine (a 2-vCPU VM running Python 3.11.7 and
# numpy 2.4.6), rounded.  Never change them: every scaled figure the
# benchmark has reported is relative to these constants.
REFERENCE_S = {"interp": 0.0025, "parse": 0.0030, "small": 0.0028, "tall": 0.0065}


class Probe:
    """The sum of some components, with its reference time."""

    def __init__(self, components: tuple[str, ...]) -> None:
        self.work = [COMPONENTS[name] for name in components]
        self.reference_s = sum(REFERENCE_S[name] for name in components)

    def _run(self) -> float:
        start = time.thread_time()
        for work in self.work:
            work()
        return time.thread_time() - start

    def samples(self, repeats: int = 1) -> list[float]:
        """Thread CPU time of `repeats` warm runs of the probe.

        Each timed run follows an identical run that brings the probe's code
        and arrays back into the caches the preceding op evicted; on a busy
        host that refill costs the short probe far more, in proportion, than
        it costs an op."""
        times = []
        for _ in range(repeats):
            self._run()
            times.append(self._run())
        return times

    def speed_factor(self, samples: list[float]) -> float:
        """What multiplies a timing taken beside `samples` to state it at
        reference speed.

        The host switches between a fast and a slow state every few hundred
        milliseconds, so probe times are bimodal and their median jumps
        between the two modes.  A run's wall time integrates over both
        states; the mean of samples spread over the run does the same."""
        return self.reference_s / statistics.fmean(samples)
