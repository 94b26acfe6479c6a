"""Deterministic random streams.

Every stochastic component in the package draws from an :class:`RngStream`
that is fully determined by an integer seed plus a path of child indices.
Two streams built from the same ``(seed, path)`` produce bit-identical draws
on any platform, which is what makes training runs and tests reproducible.
"""

from __future__ import annotations

import numpy as np

from .errors import UsageError

_SEED_MAX = 2**64


def check_seed(seed: int, name: str = "seed") -> int:
    """``seed``, or UsageError naming ``name`` unless it is in [0, 2**64)."""
    if not 0 <= seed < _SEED_MAX:
        raise UsageError(f"{name} must be a 64-bit unsigned integer, got {seed}")
    return seed


class RngStream:
    """A seeded pseudo-random stream with deterministic child splitting.

    The underlying generator is PCG64 keyed by ``SeedSequence((seed, *path))``.
    ``child(k)`` derives an independent stream for sub-task ``k`` by extending
    the path, so concurrent consumers never share state: the stream for
    ``(seed=3, path=(2, 0))`` is the same in every process that constructs it.
    """

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        self.seed = check_seed(int(seed))
        self.path = tuple(int(p) for p in path)
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((self.seed, *self.path)))
        )

    def child(self, index: int) -> "RngStream":
        """Return the independent sub-stream at ``index``."""
        return RngStream(self.seed, self.path + (int(index),))

    def uniform(self, size=None):
        """Draw from U[0, 1): a float if ``size`` is None, else an array."""
        return self._gen.random(size)

    def standard_normal(self, size=None):
        return self._gen.standard_normal(size)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size)

    def beta(self, a, b, size=None):
        """Draw from Beta(a, b): a float if ``size`` is None, else an array."""
        return self._gen.beta(a, b, size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, path={self.path})"
