"""Deterministic random-number streams.

Every stochastic component of a workload (network latency, user
activity, request interarrival) draws from its own named stream so that
adding a new component never perturbs the draws seen by existing ones.
Streams are derived from a single run seed, making whole traces
reproducible from one integer.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Sequence


class RngStream(random.Random):
    """A named, independently-seeded random stream."""

    def __init__(self, root_seed: int, name: str):
        digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
        super().__init__(int.from_bytes(digest[:8], "big"))
        self.name = name

    def exponential(self, mean: float) -> float:
        """Exponential variate with the given mean (mean, not rate)."""
        return self.expovariate(1.0 / mean)

    def pareto_latency(self, scale: float, alpha: float = 2.5) -> float:
        """Heavy-tailed latency: Pareto with minimum ``scale``.

        Network round-trip and service times are famously heavy-tailed;
        alpha=2.5 keeps a finite variance while producing the occasional
        10x outlier that stresses adaptive timeout estimators.
        """
        return scale * self.paretovariate(alpha)

    def lognormal_latency(self, median: float, sigma: float = 0.5) -> float:
        """Log-normal latency with the given median."""
        return median * math.exp(self.gauss(0.0, sigma))

    def choice_weighted(self, items: Sequence,
                        cum_weights: Sequence[float]):
        """Single weighted choice.  Callers accumulate the weights once
        (``itertools.accumulate``); ``random.choices`` draws the same
        values from them as from the plain weights."""
        return self.choices(items, cum_weights=cum_weights, k=1)[0]


class RngRegistry:
    """Factory handing out named streams for one simulation run."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._streams: dict[str, RngStream] = {}

    def stream(self, name: str) -> RngStream:
        """Return the stream for ``name``, creating it on first use."""
        found = self._streams.get(name)
        if found is None:
            found = RngStream(self.seed, name)
            self._streams[name] = found
        return found
