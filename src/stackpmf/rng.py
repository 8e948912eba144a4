"""Deterministic random-stream derivation for all Monte-Carlo code.

Every stochastic routine in the package draws from a Philox generator
(a counter-based, 64-bit algorithm) keyed through ``numpy.random.SeedSequence``
spawn keys. A stream is addressed by a root seed plus a path of integers
and short string labels, so replication i of an experiment always sees the
same draws no matter how the work is scheduled or how many workers run it.

A single stream (:func:`substream`) comes from numpy's ``SeedSequence``
itself. The child seeds and streams of a block of replications
(:func:`child_seeds`, :func:`keyed_streams`) come from a port of the same
derivation in ``uint32`` arithmetic, one pass per block: Philox is fixed
by its 128-bit key and a zero counter, so one generator re-keyed per index
draws exactly what a fresh one would. In the port every ``uint32`` array
is combined only with ``uint32`` arrays or Python ints below 2**32, never
with an ``int64`` one, which numpy before 2.0 would promote.

Annotations are strings: ``numpy.random`` (and OpenSSL, via ``secrets``) loads with the
first stream, not on import, so ``estimate`` without ``--band`` never loads it.
"""

import operator
import zlib

import numpy as np

# The constants of numpy's SeedSequence (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4

#: Indices keyed in one pass of :func:`keyed_streams`: its arrays stay
#: under a few hundred KiB for any number of replications.
KEY_BLOCK = 4096


def _as_int(value, what: str) -> int:
    """``value`` as an exact integer; floats and bools raise instead of aliasing one."""
    if isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, not a bool: {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _as_seed(seed) -> int:
    seed = _as_int(seed, "seed")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return seed


def _encode_part(part) -> int:
    if isinstance(part, str):
        return zlib.crc32(part.encode("ascii"))
    value = _as_int(part, "stream path parts")
    if value < 0:
        raise ValueError(f"stream path parts must be nonnegative, got {part!r}")
    return value


def _seed_sequence(seed: int, path: tuple) -> "np.random.SeedSequence":
    """The ``SeedSequence`` of the stream ``(seed, path)``; ``seed`` must lie in [0, 2**64)."""
    return np.random.SeedSequence(entropy=_as_seed(seed), spawn_key=tuple(_encode_part(p) for p in path))


def substream(seed: int, *path) -> "np.random.Generator":
    """Generator for the stream addressed by ``seed`` and ``path``.

    ``path`` parts are nonnegative integers or short ASCII labels.
    Equal (seed, path) pairs always yield identical generators.
    """
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, path)))


# ---------------------------------------------------------------------------
# SeedSequence over a block of indices


def _words(value: int) -> list[int]:
    """The little-endian 32-bit words SeedSequence makes of ``value >= 0``; 0 is one word."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _pool(entropy: list) -> list:
    """``SeedSequence``'s pool of 4 words mixed from ``entropy``, whose words
    are Python ints below 2**32 or ``uint32`` arrays (one entry per index)."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _generate_state(pool: list, n_words: int) -> list:
    """``generate_state(n_words, np.uint32)`` of ``pool``, one array per word."""
    hash_const, words = _INIT_B, []
    for i in range(n_words):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ value >> 16)
    return words


def _pairs(words: list) -> list:
    """``uint64`` arrays of consecutive little-endian word pairs, as ``generate_state`` views them."""
    return [lo.astype(np.uint64) | hi.astype(np.uint64) << np.uint64(32) for lo, hi in zip(words[::2], words[1::2])]


def _child_pool(seed: int, path: tuple, indices) -> list:
    """The pools of the streams ``(seed, *path, i)`` for each i of ``indices`` (below 2**32)."""
    index = np.fromiter(indices, dtype=np.int64, count=len(indices))
    if index.size and not (0 <= index.min() and index.max() <= _MASK32):
        raise ValueError("block indices must lie in [0, 2**32)")
    # a spawn key pads the seed's words to the pool size
    run = _words(_as_seed(seed))
    spawn = [word for part in path for word in _words(_encode_part(part))]
    return _pool(run + [0] * (_POOL_SIZE - len(run)) + spawn + [index.astype(np.uint32)])


def child_seeds(seed: int, path: tuple, indices) -> np.ndarray:
    """The 64-bit child seed ``SeedSequence(...).generate_state(1, np.uint64)``
    of the stream ``(seed, *path, i)`` for each i of ``indices`` (below
    2**32), as one ``uint64`` array from one pass."""
    return _pairs(_generate_state(_child_pool(seed, path, indices), 2))[0]


def _philox_keys(seed: int, path: tuple, indices) -> np.ndarray:
    """The ``(len(indices), 2)`` Philox keys of ``substream(child)`` for each
    child seed of :func:`child_seeds`.

    A child seed below 2**32 is one entropy word to numpy and two here,
    ``[lo, 0]``, which fill the pool alike."""
    child = _generate_state(_child_pool(seed, path, indices), 2)
    return np.stack(_pairs(_generate_state(_pool(child), 4)), axis=1)


def keyed_streams(seed: int, path: tuple, indices):
    """For each i of ``indices``, in order, a generator that draws what
    ``substream(child)`` draws, ``child`` the index's seed from :func:`child_seeds`.

    One Philox generator is re-keyed per index, so each yielded stream is
    valid until the next one is taken. Keys are derived ``KEY_BLOCK``
    indices at a time.
    """
    bit_generator = np.random.Philox(key=0)
    rng = np.random.Generator(bit_generator)
    state = bit_generator.state  # counter 0 and an empty buffer
    for start in range(0, len(indices), KEY_BLOCK):
        for key in _philox_keys(seed, path, indices[start : start + KEY_BLOCK]):
            state["state"]["key"] = key
            bit_generator.state = state
            yield rng
