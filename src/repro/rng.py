"""Deterministic random-number management.

Every stochastic component in the library (slip generation, pool capacity
churn, job runtime sampling...) draws from a :class:`numpy.random.Generator`
handed to it explicitly — no module imports global random state. This
module provides a small utility for deriving independent child streams
from a single experiment seed so that

* results are reproducible given one integer seed, and
* adding a new consumer of randomness does not perturb existing streams
  (each consumer derives its stream from a stable string key).

A hot loop that takes one variate at a time from a stream it alone
reads can draw it in blocks with :func:`block_stream`, which yields
exactly the values successive scalar calls would return.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from itertools import chain

import numpy as np

# numpy loads numpy.random on first use: importing it here puts that
# cost where repro is imported, not where a run makes its first stream.
from numpy.random import Generator, default_rng

__all__ = ["BLOCK_SIZE", "RngFactory", "block_stream", "derive_seed"]

_MASK64 = (1 << 64) - 1

#: Variates a :func:`block_stream` draws per refill.
BLOCK_SIZE = 1024


def derive_seed(root_seed: int, *keys: str | int) -> int:
    """Derive a 64-bit child seed from ``root_seed`` and a key path.

    The derivation is stable across processes and Python versions (it
    does not use :func:`hash`, whose string hashing is salted).
    """
    material = str(int(root_seed)) + "\x1f" + "\x1f".join(str(k) for k in keys)
    # FNV-1a over the utf-8 bytes: tiny, stable, and good enough to seed
    # PCG64 (which applies its own scrambling to the seed).
    acc = 0xCBF29CE484222325
    for byte in material.encode("utf-8"):
        acc ^= byte
        acc = (acc * 0x100000001B3) & _MASK64
    return acc


def _blocks(draw: Callable[..., np.ndarray], args: tuple) -> Iterator[list]:
    while True:
        yield draw(*args, size=BLOCK_SIZE).tolist()


def block_stream(draw: Callable[..., np.ndarray], *args: object) -> Iterator:
    """The successive scalar draws ``draw(*args)``, generated in blocks.

    ``draw`` is a bound method of a :class:`numpy.random.Generator`
    whose array form fills ``size`` with the values that as many scalar
    calls return (``rng.random``, ``rng.integers(n)``); ``next()`` on
    the stream then yields exactly the scalar sequence, as Python
    numbers, at a fraction of a scalar call's cost. Each refill advances
    the generator :data:`BLOCK_SIZE` draws ahead, so the stream must be
    the generator's only consumer.
    """
    return chain.from_iterable(_blocks(draw, args))


class RngFactory:
    """Factory of named, independent random generators.

    Parameters
    ----------
    seed:
        Root seed of the experiment. Two factories with the same seed
        yield identical streams for identical key paths.

    Examples
    --------
    >>> rngs = RngFactory(1234)
    >>> slip_rng = rngs.generator("seismo", "slip", 0)
    >>> pool_rng = rngs.generator("osg", "capacity")
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)

    def child_seed(self, *keys: str | int) -> int:
        """Return the derived integer seed for a key path."""
        return derive_seed(self.seed, *keys)

    def generator(self, *keys: str | int) -> Generator:
        """Return a fresh :class:`~numpy.random.Generator` for a key path."""
        return default_rng(self.child_seed(*keys))

    def generators(self, prefix: str, count: int) -> list[Generator]:
        """Return ``count`` generators keyed ``(prefix, 0..count-1)``."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        return [self.generator(prefix, i) for i in range(count)]

    @staticmethod
    def independent(seeds: Iterable[int]) -> list[Generator]:
        """Generators from explicit seeds (escape hatch for tests)."""
        return [default_rng(int(s)) for s in seeds]

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"RngFactory(seed={self.seed})"
