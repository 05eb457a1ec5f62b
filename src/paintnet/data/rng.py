"""Portable seeded random number generation.

The generator is splitmix64: a 64-bit counter advanced by a fixed odd
constant, with the counter value scrambled through two multiply-xorshift
rounds per output.  Identical seeds produce identical sequences on every
platform, which is what makes weight init, corruption masks, and fold
splits reproducible byte-for-byte.

splitmix64 is counter-based: the i-th output after state s is
mix(s + i * gamma mod 2**64), independent of the outputs before it
(Steele, Lea & Flood 2014; Salmon et al. 2011).  uniform_array and
sample_indices therefore draw whole blocks with numpy uint64 arithmetic.
A block gives exactly the values, and leaves exactly the state, of the
same number of next_u64() calls, so seeds and checkpoints from versions
that drew one value at a time reproduce bit for bit.
"""

from __future__ import annotations

import enum

import numpy as np

from ..errors import ArgumentError

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_STREAM_SALT = 0xD1B54A32D192ED03

# one output consumes 53 bits: (next_u64() >> 11) * 2**-53 is exactly in [0, 1)
_INV_2_53 = 1.0 / (1 << 53)

# uniform_array fills its output this many draws at a time: the scratch
# beside the output is one chunk (128 KiB of uint64), not a second copy
_CHUNK = 1 << 14


@enum.unique
class Stream(enum.IntEnum):
    """First salts of Rng.stream, one per purpose, so no two purposes share draws.

    Every seeded draw of a run derives its stream from the run seed and
    one of these; the later salts (epoch, sample, class, fold) index
    within a purpose.
    """

    ORDER = 0x0E      # per-epoch sample order, (ORDER, epoch)
    INIT = 0x11       # autoencoder weights
    HEAD_INIT = 0x1D  # classifier head weights
    SPLIT = 0x5B      # per-class fold deals, (SPLIT, class index)
    CORRUPT = 0xC0    # corruption masks, (CORRUPT, epoch, sample)
    FOLD = 0xCF       # crossval's per-fold seeds, (FOLD, fold)


class Rng:
    """splitmix64 stream with helpers for floats, shuffles, and subsampling."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def _next_block(self, m: int) -> np.ndarray:
        """The next m next_u64() outputs as a uint64 array, state advanced past them.

        numpy uint64 arithmetic wraps modulo 2**64, as the masks do above.
        """
        z = np.arange(1, m + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)
        z += np.uint64(self._state)
        self._state = (self._state + m * _GAMMA) & _MASK
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        return z

    @classmethod
    def stream(cls, seed: int, *salts: int) -> "Rng":
        """Derive an independent generator from (seed, salts).

        Equal (seed, salts) tuples always yield the same stream; the
        salts keep e.g. per-epoch corruption masks decoupled from the
        shuffle order drawn from the same base seed.
        """
        rng = cls(seed)
        for salt in salts:
            rng = cls(rng.next_u64() ^ ((salt * _STREAM_SALT) & _MASK))
        return rng

    def uniform_array(self, shape, lo: float, hi: float) -> np.ndarray:
        """Array filled in row-major order with uniform draws from [lo, hi).

        Element i is lo + (hi - lo) * ((u_i >> 11) * 2**-53), where u_i is
        the i-th next_u64() output: an exact conversion into [0, 1), then
        two IEEE operations, in that order.
        """
        out = np.empty(shape, dtype=np.float64)
        flat = out.reshape(-1)
        for start in range(0, flat.size, _CHUNK):
            chunk = flat[start:start + _CHUNK]
            np.multiply(self._next_block(chunk.size) >> np.uint64(11), _INV_2_53, out=chunk)
            chunk *= hi - lo
            chunk += lo
        return out

    def below(self, n: int) -> int:
        """Integer in [0, n). Plain modulo; bias is irrelevant at our ranges."""
        if n <= 0:
            raise ArgumentError("below() needs n >= 1")
        return self.next_u64() % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample_indices(self, n: int, m: int) -> np.ndarray:
        """m distinct indices drawn uniformly without replacement from range(n).

        Partial Fisher-Yates; the order of the returned picks is part of
        the deterministic contract.
        """
        if not 0 <= m <= n:
            raise ArgumentError(f"need 0 <= m <= n, got m={m} n={n}")
        steps = np.arange(m, dtype=np.uint64)
        picks = (steps + self._next_block(m) % (np.uint64(n) - steps)).tolist()
        pool = list(range(n))
        for i, j in enumerate(picks):
            pool[i], pool[j] = pool[j], pool[i]
        return np.array(pool[:m], dtype=np.int64)
