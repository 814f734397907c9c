"""Randomized exponential backoff for aborted transactions.

The baseline HTM resolves conflicts by timestamp (older wins), and aborted
transactions "use randomized backoff to avoid livelock" (Sec. III-B1).
"""

from __future__ import annotations

import random

from ..sim.rng import randbelow


def backoff_cycles(rng: random.Random, attempts: int, base: int,
                   maximum: int) -> int:
    """Cycles to stall before retrying after the ``attempts``-th attempt
    aborted. Uniform over an exponentially-growing, capped window:
    ``rng.randrange(window) + 1``, drawn through :func:`randbelow`."""
    if base <= 0:
        return 0
    exponent = min(max(attempts - 1, 0), 20)
    window = min(base << exponent, maximum)
    return randbelow(rng, window) + 1
