"""numpy's seeded uniform stream, drawn for many seeds at once.

``uniforms(keys, k)[i]`` equals ``np.random.default_rng(keys[i]).random(k)``
bit for bit, where each row of ``keys`` is the entropy of one
``SeedSequence``.  The three stages are fixed integer arithmetic, so they
run on whole arrays here:

* ``SeedSequence``: the entropy words are hashed into a pool of four
  uint32 words, and ``generate_state(4, uint64)`` hashes the pool again;
* ``PCG64`` seeding: those four words set a 128-bit LCG state and
  increment, here held as pairs of uint64 and multiplied on 32-bit limbs;
* ``random()``: each LCG step gives one XSL-RR output x, and the double
  is (x >> 11) * 2**-53.

The constants are those of numpy's ``bit_generator.pyx`` and ``pcg64.h``.
"""

from __future__ import annotations

import numpy as np

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = 2549297995355413924, 4865540595714422341
_U32, _U64 = np.uint32, np.uint64


class _HashMix:
    """SeedSequence's hashmix: its multiplier advances with every call."""

    def __init__(self, init: int, mult: int):
        self.const, self.mult = init, mult

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ _U32(self.const)
        self.const = (self.const * self.mult) & _MASK32
        value = value * _U32(self.const)
        return value ^ (value >> _U32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _U32(_MIX_MULT_L) * x - _U32(_MIX_MULT_R) * y
    return out ^ (out >> _U32(16))


def _pool(words: np.ndarray) -> list:
    """SeedSequence.mix_entropy over rows of uint32 entropy words (m, w)."""
    hashmix = _HashMix(_INIT_A, _MULT_A)
    width = words.shape[1]
    zero = np.zeros(words.shape[0], dtype=_U32)
    pool = [hashmix(words[:, i] if i < width else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, width):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(words[:, src]))
    return pool


def _state_words(pool: list) -> list:
    """SeedSequence.generate_state(4, uint64): four uint64 arrays."""
    hashmix = _HashMix(_INIT_B, _MULT_B)
    half = [hashmix(pool[i % _POOL_SIZE]).astype(_U64) for i in range(8)]
    return [half[2 * i] | (half[2 * i + 1] << _U64(32)) for i in range(4)]


def _mul_wide(a: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Full 128-bit product of uint64 array a and constant b: (high, low)."""
    a0, a1 = a & _U64(_MASK32), a >> _U64(32)
    b0, b1 = _U64(b & _MASK32), _U64(b >> 32)
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _U64(32)) + (p01 & _U64(_MASK32)) + (p10 & _U64(_MASK32))
    low = (p00 & _U64(_MASK32)) | (mid << _U64(32))
    high = a1 * b1 + (p01 >> _U64(32)) + (p10 >> _U64(32)) + (mid >> _U64(32))
    return high, low


class _PCG64:
    """PCG64 (128-bit LCG, XSL-RR output) on arrays of states."""

    def __init__(self, words: list):
        seed_hi, seed_lo, inc_hi, inc_lo = words
        self.inc_hi = (inc_hi << _U64(1)) | (inc_lo >> _U64(63))
        self.inc_lo = (inc_lo << _U64(1)) | _U64(1)
        # one step from state 0 gives the increment; then add the seed, step
        self.hi, self.lo = self._add(self.inc_hi, self.inc_lo, seed_hi, seed_lo)
        self._step()

    @staticmethod
    def _add(hi, lo, add_hi, add_lo):
        low = lo + add_lo
        return hi + add_hi + (low < lo).astype(_U64), low

    def _step(self) -> None:
        high, low = _mul_wide(self.lo, _PCG_MULT_LO)
        high = high + self.lo * _U64(_PCG_MULT_HI) + self.hi * _U64(_PCG_MULT_LO)
        self.hi, self.lo = self._add(high, low, self.inc_hi, self.inc_lo)

    def next_double(self) -> np.ndarray:
        self._step()
        rot = self.hi >> _U64(58)
        x = self.hi ^ self.lo
        x = (x >> rot) | (x << ((_U64(64) - rot) & _U64(63)))
        return (x >> _U64(11)).astype(float) * (1.0 / 9007199254740992.0)


def _word_groups(wide: np.ndarray) -> list:
    """Row sets whose entries split alike into words, with that split."""
    if (wide == wide[0]).all():
        return [(slice(None), wide[0])]
    patterns, inverse = np.unique(wide, axis=0, return_inverse=True)
    return [(np.flatnonzero(inverse.ravel() == i), pattern)
            for i, pattern in enumerate(patterns)]


def uniforms(keys: np.ndarray, k: int) -> np.ndarray:
    """The first k doubles of default_rng(row).random(k) for every entropy row.

    keys is a uint64 array of shape (..., L); the result has shape (..., k).
    An entry below 2**32 is one entropy word, a larger one two.
    """
    flat = keys.reshape(-1, keys.shape[-1])
    wide = (flat >> _U64(32)) > 0
    out = np.empty((flat.shape[0], k))
    for rows, pattern in _word_groups(wide):
        cols = []
        for j, two_words in enumerate(pattern):
            cols.append(flat[rows, j] & _U64(_MASK32))
            if two_words:
                cols.append(flat[rows, j] >> _U64(32))
        gen = _PCG64(_state_words(_pool(np.stack(cols, axis=1).astype(_U32))))
        for i in range(k):
            out[rows, i] = gen.next_double()
    return out.reshape(keys.shape[:-1] + (k,))
