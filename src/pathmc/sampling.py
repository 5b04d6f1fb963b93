"""Random streams, sample-size rules, and the small sampling primitives the
estimators are built from.

Every estimator in the package draws exclusively through :class:`RngStream`
so that a (seed, stream_id) pair fully determines its output, bit for bit,
across platforms and repeated runs.
"""

from __future__ import annotations

import hashlib
import math
import random
from bisect import bisect_right
from dataclasses import dataclass

from .errors import InvalidParameter


class RngStream(random.Random):
    """A deterministic random stream identified by (seed, stream_id).

    The underlying generator is seeded with the first eight bytes of
    ``sha256("{seed}:{stream_id}")``, so distinct stream ids derived from the
    same master seed are decorrelated while remaining fully reproducible.
    Inherits the full ``random.Random`` API; ``random()`` is the hot-path
    draw.
    """

    def __new__(cls, seed: int = 0, stream_id: int = 0):
        # random.Random's C-level __new__ accepts at most one argument
        return super().__new__(cls)

    def __init__(self, seed: int, stream_id: int = 0):
        digest = hashlib.sha256(f"{int(seed)}:{int(stream_id)}".encode()).digest()
        super().__init__(int.from_bytes(digest[:8], "big"))
        self.master_seed = int(seed)
        self.stream_id = int(stream_id)


def sample_count(epsilon: float, delta: float, b: float) -> int:
    """Number of paths needed for additive error ``epsilon`` with failure
    probability ``delta`` when single-path values are bounded by ``b``.

    Evaluates ``ceil(4 * ln(4/delta) * epsilon**-2 * b**2)`` with a floor of
    one sample.
    """
    for name, val in (("epsilon", epsilon), ("b", b)):
        if not (val >= 0.0) or math.isinf(val):
            raise InvalidParameter(f"{name} must be finite and nonnegative, got {val}")
    if epsilon == 0.0:
        raise InvalidParameter("epsilon must be positive")
    if not (0.0 < delta < 4.0):
        raise InvalidParameter(f"delta must lie in (0, 4), got {delta}")
    try:
        k = math.ceil(4.0 * math.log(4.0 / delta) * epsilon ** -2.0 * b * b)
    except OverflowError:
        raise InvalidParameter(f"the path count for epsilon={epsilon}, b={b} overflows") from None
    return max(1, int(k))


class CumulativeTable:
    """Precomputed cumulative sums for repeated draws from fixed weights."""

    __slots__ = ("_cum", "total")

    def __init__(self, weights):
        cum = []
        acc = 0.0
        for w in weights:
            if not (w >= 0.0) or math.isinf(w):
                raise InvalidParameter(f"weights must be finite and nonnegative, got {w}")
            acc += w
            cum.append(acc)
        if not (acc > 0.0):
            raise InvalidParameter("weights sum to zero")
        self._cum = cum
        self.total = acc

    def draw(self, rng: random.Random) -> int:
        idx = bisect_right(self._cum, rng.random() * self.total)
        last = len(self._cum) - 1
        return idx if idx < last else last


def sample_poisson(b: float, rng: random.Random) -> int:
    """Draw from the Poisson distribution with mean ``b``.

    Implemented by sequential conditional coins: term l is accepted with
    probability ``W(l) / (1 - sum_{j<l} W(j))`` where ``W(l) = b**l /
    (l! * e**b)``, so the expected number of coins is b + 1 and no truncation
    of the tail is ever applied.
    """
    if not (b >= 0.0) or math.isinf(b):
        raise InvalidParameter(f"rate must be finite and nonnegative, got {b}")
    w = math.exp(-b)
    if w == 0.0:
        raise InvalidParameter(f"rate {b} is too large: exp(-rate) underflows, no draw would end")
    remaining = 1.0
    l = 0
    while True:
        prob = 1.0 if remaining <= w else w / remaining
        if rng.random() < prob:
            return l
        remaining -= w
        l += 1
        w *= b / l


class StreamingMoments:
    """Single-pass mean and spread of complex values (Welford update).

    Accumulators from disjoint streams merge associatively, which is what
    makes the worker partitioning deterministic: chunks are merged in worker
    order regardless of how they were produced.
    """

    __slots__ = ("count", "mean", "_m2")

    def __init__(self):
        self.count = 0
        self.mean = 0.0 + 0.0j
        self._m2 = 0.0

    def add(self, value: complex) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += (delta.conjugate() * (value - self.mean)).real

    def merge(self, other: "StreamingMoments") -> None:
        if other.count == 0:
            return
        if self.count == 0:
            self.count, self.mean, self._m2 = other.count, other.mean, other._m2
            return
        total = self.count + other.count
        delta = other.mean - self.mean
        self.mean += delta * (other.count / total)
        self._m2 += other._m2 + (delta.conjugate() * delta).real * (
            self.count * other.count / total
        )
        self.count = total

    @property
    def std(self) -> float:
        """Sample standard deviation (zero for fewer than two values)."""
        if self.count < 2:
            return 0.0
        return math.sqrt(self._m2 / (self.count - 1))


@dataclass
class EstimateReport:
    """Everything a single estimation run reports.

    ``empirical_std`` is diagnostic only: the number of samples is fixed up
    front by :func:`sample_count` and never adapted to the observed spread.
    """

    estimate: complex
    k: int
    empirical_std: float
    b: float
    epsilon: float
    delta: float
    seed: int
    elapsed_s: float
    workers: int = 1
    method: str = "markov"
