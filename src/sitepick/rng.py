"""Deterministic random numbers for reproducible experiment runs.

SplitMix64 is a counter-based generator: the state advances by a fixed
odd increment and each output is an avalanche mix of the counter. Sub-seeds
for (k, run) cells are derived by folding the path components through the
same avalanche function, so a sweep produces identical streams no matter
how its cells are scheduled. Because output j of a generator is a function
of its state and j alone, the next outputs of many generators can be made
as one array (`next_u64_table`).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_TWO_NEG_53 = 2.0 ** -53

# Tables of at most this many draws are mixed one Python int at a time: the
# dozen array calls of `_mix64_array` cost about 10 us whatever their size,
# and one scalar mix about 0.6 us (Python 3.11, numpy 2.4, 2-vCPU VM).
_SCALAR_DRAWS = 12


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a 64-bit avalanche permutation."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """`mix64` of every element of a uint64 array. Array arithmetic on uint64
    wraps modulo 2**64 silently, as the masks in `mix64` do."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def derive_seed(base_seed: int, *path: int) -> int:
    """Mix a base seed with integer path components into a fresh 64-bit seed.

    Order-sensitive: derive_seed(s, k, run) and derive_seed(s, run, k)
    differ, so distinct sweep cells get distinct, schedule-independent
    streams.
    """
    z = base_seed & _MASK64
    for part in path:
        z = mix64(z ^ mix64((part + _GOLDEN) & _MASK64))
    return z


class SplitMix64:
    """Seeded counter-mix generator with the few draws this package needs."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return mix64(self._state)

    def random(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * _TWO_NEG_53

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n) via the multiply-shift reduction."""
        if n <= 0:
            raise ValueError(f"randrange needs n >= 1, got {n}")
        return (self.next_u64() * n) >> 64

    def gauss(self) -> float:
        """Standard normal deviate (Box-Muller, cosine branch)."""
        u1 = ((self.next_u64() >> 11) + 1) * _TWO_NEG_53  # (0, 1]
        u2 = (self.next_u64() >> 11) * _TWO_NEG_53
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(math.tau * u2)


def next_u64_table(rngs: Sequence[SplitMix64], count: int) -> np.ndarray:
    """(len(rngs), count) uint64 array whose row r is the next `count`
    `next_u64` outputs of rngs[r], which are then advanced past them: draw j
    of a generator in state s is mix64(s + (j + 1) * GOLDEN mod 2**64).
    `random()` makes (u >> 11) * 2**-53 of an output u, and `randrange(m)`
    makes (u * m) >> 64."""
    states = [rng._state for rng in rngs]
    for rng in rngs:
        rng._state = (rng._state + count * _GOLDEN) & _MASK64
    if len(states) * count <= _SCALAR_DRAWS:
        rows = [[mix64(state + j * _GOLDEN) for j in range(1, count + 1)] for state in states]
        return np.array(rows, dtype=np.uint64)
    steps = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    return _mix64_array(np.array(states, dtype=np.uint64)[:, None] + steps)
