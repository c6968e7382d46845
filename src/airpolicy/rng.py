"""Deterministic random numbers built on a SplitMix64 sequence.

Every stochastic component of the package (forest bootstraps, network
initialization, epoch shuffles, synthetic data) draws from this generator so
that a seed fully determines all outputs, independent of platform and of any
third-party RNG implementation.

The sequence is the standard SplitMix64: the 64-bit state advances by the
golden-ratio increment 0x9E3779B97F4A7C15 and each output is the finalizer

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

applied to the advanced state. Derived draws are defined on top of the raw
64-bit stream as documented on each method, so any implementation of the same
scheme reproduces them bit for bit.

Because the state only ever advances by the increment, the i-th state after
the current one is ``state + i * gamma (mod 2**64)``. ``u64_block(k)`` uses
that closed form to produce the next k raw outputs at once as a numpy
``uint64`` array, equal to k calls of ``u64()``, and leaves the generator
where those calls would. ``randints(bound, k)`` is ``u64_block(k) % bound``,
element for element the values of k ``randint(bound)`` calls, and
``shuffle`` takes its swap indices from one block. ``normals(n)`` takes
the uniforms of all its Box-Muller pairs from one block and returns the
values, and leaves the state and the spare, of n ``normal()`` calls.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """Seeded 64-bit generator with a handful of derived draw types."""

    def __init__(self, seed: int):
        self._state = seed & _MASK
        self._spare_normal = None

    def u64(self) -> int:
        """Next raw 64-bit output."""
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def u64_block(self, k: int) -> np.ndarray:
        """Next k raw outputs as a uint64 array; the state advances by k."""
        with np.errstate(over="ignore"):
            z = np.uint64(self._state) + np.arange(1, k + 1, dtype=np.uint64) * np.uint64(_GAMMA)
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        self._state = (self._state + k * _GAMMA) & _MASK
        return z ^ (z >> np.uint64(31))

    def spawn(self) -> "SplitMix64":
        """Child generator seeded with the next raw output."""
        return SplitMix64(self.u64())

    def uniform(self) -> float:
        """Float in [0, 1) from the top 53 bits of one raw output."""
        return (self.u64() >> 11) * (2.0 ** -53)

    def normal(self) -> float:
        """Standard normal via Box-Muller; draws two uniforms per pair."""
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
            return z
        # u1 in (0, 1] so the log is finite.
        u1 = 1.0 - self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        self._spare_normal = r * math.sin(theta)
        return r * math.cos(theta)

    def randint(self, n: int) -> int:
        """Integer in [0, n) as u64() mod n (documented, bias negligible)."""
        if n <= 0:
            raise ValueError("n must be positive")
        return self.u64() % n

    def randints(self, bound: int, k: int) -> np.ndarray:
        """k integers in [0, bound) as a uint64 array: u64_block(k) % bound,
        the values of k randint(bound) calls. bound must fit in 64 bits."""
        if not 0 < bound <= _MASK:
            raise ValueError("bound must lie in [1, 2**64)")
        return self.u64_block(k) % np.uint64(bound)

    def shuffle(self, items) -> None:
        """In-place Fisher-Yates from the last element down: for i = n-1 .. 1,
        swap items i and u64() % (i + 1). Works on lists and numpy arrays."""
        n = len(items)
        js = (self.u64_block(max(n - 1, 0)) % np.arange(n, 1, -1, dtype=np.uint64)).tolist()
        seq = list(items)
        for i, j in zip(range(n - 1, 0, -1), js):
            seq[i], seq[j] = seq[j], seq[i]
        items[:] = seq

    def normals(self, n: int) -> list[float]:
        """n normal() draws with their uniforms from one u64_block: a pending
        spare comes first and an odd n leaves one. Each pair uses normal()'s
        scalar math calls; numpy's vector log, cos and sin move bits."""
        out = []
        if n and self._spare_normal is not None:
            out.append(self._spare_normal)
            self._spare_normal = None
        pairs = (n - len(out) + 1) // 2
        u = ((self.u64_block(2 * pairs) >> np.uint64(11)) * 2.0 ** -53).tolist()
        for u1, u2 in zip(u[::2], u[1::2]):
            r = math.sqrt(-2.0 * math.log(1.0 - u1))
            theta = 2.0 * math.pi * u2
            out += (r * math.cos(theta), r * math.sin(theta))
        if len(out) > n:
            self._spare_normal = out.pop()
        return out
