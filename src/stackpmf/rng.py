"""Deterministic random-stream derivation for all Monte-Carlo code.

Every stochastic routine in the package draws from a Philox generator
(a counter-based, 64-bit algorithm) keyed through ``numpy.random.SeedSequence``
spawn keys. A stream is addressed by a root seed plus a path of integers
and short string labels, so replication i of an experiment always sees the
same draws no matter how the work is scheduled or how many workers run it.
Annotations are strings: ``numpy.random`` (and OpenSSL, via ``secrets``) loads with the
first stream, not on import, so ``estimate`` without ``--band`` never loads it.
"""

import operator
import zlib

import numpy as np


def _as_int(value, what: str) -> int:
    """``value`` as an exact integer; floats and bools raise instead of aliasing one."""
    if isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, not a bool: {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _encode_part(part) -> int:
    if isinstance(part, str):
        return zlib.crc32(part.encode("ascii"))
    value = _as_int(part, "stream path parts")
    if value < 0:
        raise ValueError(f"stream path parts must be nonnegative, got {part!r}")
    return value


def _seed_sequence(seed: int, path: tuple) -> "np.random.SeedSequence":
    """The ``SeedSequence`` of the stream ``(seed, path)``; ``seed`` must lie in [0, 2**64)."""
    seed = _as_int(seed, "seed")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return np.random.SeedSequence(entropy=seed, spawn_key=tuple(_encode_part(p) for p in path))


def substream(seed: int, *path) -> "np.random.Generator":
    """Generator for the stream addressed by ``seed`` and ``path``.

    ``path`` parts are nonnegative integers or short ASCII labels.
    Equal (seed, path) pairs always yield identical generators.
    """
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, path)))


def substream_seed(seed: int, *path) -> int:
    """A 64-bit child seed for the stream addressed by ``seed`` and ``path``.

    Used to hand a single integer to code that derives its own substreams.
    """
    return int(_seed_sequence(seed, path).generate_state(1, np.uint64)[0])
