"""Deterministic random-number streams.

The paper achieves statistically-significant results by injecting "small
amounts of non-determinism" [Alameldeen & Wood] and averaging over runs.
We reproduce that with named, independently-seeded streams so that, e.g.,
backoff jitter and workload key generation never perturb each other: adding
draws to one stream leaves every other stream's sequence unchanged.
"""

from __future__ import annotations

import random
from typing import Dict


def randbelow(rng: random.Random, n: int) -> int:
    """``rng.randrange(n)``, drawn as CPython's
    ``Random._randbelow_with_getrandbits`` draws it: one
    ``getrandbits(n.bit_length())`` per draw, redrawn while out of range.
    The same stream gives the same numbers, without randrange's two
    Python-level calls and argument checks. ``n`` must be positive, as
    for randrange; the check sits on the redraw path, which every
    ``n <= 0`` takes."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        if n <= 0:
            raise ValueError(f"empty range for randbelow({n})")
        r = rng.getrandbits(k)
    return r


class RngStreams:
    """A family of independent :class:`random.Random` streams.

    Each named stream is seeded from ``(seed, name)`` so the same
    configuration seed always reproduces the same run.
    """

    def __init__(self, seed: int):
        self._seed = seed
        self._streams: Dict[str, random.Random] = {}

    @property
    def seed(self) -> int:
        return self._seed

    def stream(self, name: str) -> random.Random:
        """Return (creating on first use) the stream with this name."""
        rng = self._streams.get(name)
        if rng is None:
            rng = random.Random(f"{self._seed}/{name}")
            self._streams[name] = rng
        return rng

    def backoff(self) -> random.Random:
        """Stream used for transaction-abort backoff jitter."""
        return self.stream("backoff")

    def jitter(self) -> random.Random:
        """Stream used for initial per-core clock skew."""
        return self.stream("jitter")

    def eviction(self) -> random.Random:
        """Stream used to pick the random sharer that absorbs an evicted
        U-state line (Sec. III-B5)."""
        return self.stream("eviction")

    def workload(self, name: str = "workload") -> random.Random:
        """Stream for workload input generation."""
        return self.stream(name)
