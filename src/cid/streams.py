"""Counter-based random variates: every one is a pure function of a key, a
family and an index, drawn by in-repo algorithms from SplitMix64 outputs.

The bits come from SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): raw
number c of the stream keyed by k is mix(k + (c + 1) * GOLDEN) mod 2^64,
the (c + 1)-th output of SplitMix64 started from state k. Family f owns
the counters f * 2^40 + index, so no family shares a raw number with
another, and a variate depends on no other variate, on no draw order and on
no library's sampling algorithm.
"""

from __future__ import annotations

import math

import numpy as np

MASK = 2**64 - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
FAMILY_BITS = 40
# The families of a stream: plain uniforms, then three per gamma attempt k,
# GAMMAS + 3k, GAMMAS + 3k + 1 and GAMMAS + 3k + 2, for its uniforms u0, u1
# and u2.
UNIFORMS, GAMMAS = 0, 1
# The scales that turn a gamma attempt's raw numbers, shifted right by 11,
# into -u0, pi*u1 and u2. A product is -k or k exactly, or k*pi rounded once,
# times a power of two, so it equals negating u0 or multiplying u1 by pi.
_SCALES = np.array([[-1.0], [math.pi], [1.0]]) * 2.0**-53
# Most gamma variates drawn in one vectorised pass: a pass holds a few
# arrays of 3 * BLOCK numbers, about 2 MiB, however many are drawn.
BLOCK = 2**14


def _mix(z: int) -> int:
    """SplitMix64's output function on a 64-bit Python int."""
    z = ((z ^ (z >> 30)) * _MIX1) & MASK
    z = ((z ^ (z >> 27)) * _MIX2) & MASK
    return z ^ (z >> 31)


def key(seed: int, *words: int) -> int:
    """A 64-bit key from a nonnegative seed of any size and further words
    below 2^64: the seed's 64-bit limbs, their number, then the words, each
    absorbed as h = mix(h ^ word + GOLDEN). Seeds that differ in any bit, or
    only in their number of limbs, absorb different words."""
    limbs = [(seed >> shift) & MASK
             for shift in range(0, max(seed.bit_length(), 1), 64)]
    h = 0
    for word in (*limbs, len(limbs), *words):
        h = _mix(((h ^ word) + GOLDEN) & MASK)
    return h


def uniforms(raw: np.ndarray) -> np.ndarray:
    """(raw >> 11) * 2^-53 for each 64-bit raw number: a multiple of 2^-53
    in [0, 1 - 2^-53]. Consumes raw."""
    raw >>= np.uint64(11)
    # below 2^53 as int64, whose conversion to float is the cheaper one
    return raw.view(np.int64) * 2.0**-53


class Stream:
    """The variates keyed by one 64-bit key, each a pure function of its
    family and index."""

    __slots__ = ("key",)

    def __init__(self, key: int):
        self.key = key & MASK

    def raw(self, families, index) -> np.ndarray:
        """The 64-bit raw numbers at the counters f * 2^40 + index of each
        family f in families, for a nonnegative integer array index: one
        array shaped like index per family, stacked."""
        offsets = np.array([(((f << FAMILY_BITS) + 1) * GOLDEN + self.key)
                            & MASK for f in families], dtype=np.uint64)
        z = np.add.outer(offsets, np.asarray(index, dtype=np.uint64)
                         * np.uint64(GOLDEN))
        shifted = np.empty_like(z)
        for shift, factor in ((30, _MIX1), (27, _MIX2)):
            np.right_shift(z, np.uint64(shift), out=shifted)
            z ^= shifted
            z *= np.uint64(factor)
        np.right_shift(z, np.uint64(31), out=shifted)
        z ^= shifted
        return z

    def random(self, family: int, index) -> np.ndarray:
        """Uniforms in [0, 1) at index of family (uniforms)."""
        return uniforms(self.raw((family,), index)[0])

    def gammas(self, shapes, index=None) -> np.ndarray:
        """Gamma(shape) variates with unit scale for shapes >= 1, variate i
        at index[i] (by default i), by Marsaglia and Tsang's method (ACM
        TOMS 26, 2000).

        Attempt k for the variate at index j draws the uniforms u0, u1, u2
        at index j of the families GAMMAS + 3k, GAMMAS + 3k + 1 and GAMMAS
        + 3k + 2. With d = shape - 1/3, the Box-Muller normal x = sqrt(-2
        log(1 - u0)) cos(pi u1) (cos(pi u1) has the law of cos(2 pi u1)) and
        v = (1 + x / sqrt(9d))^3, it returns d*v if v > 0 and u2 < 1 -
        0.0331 x^4 (the squeeze) or, failing that, log u2 < x^2/2 + d (1 - v
        + log v); otherwise attempt k + 1 decides.

        Each block of at most BLOCK variates runs one vectorised pass per
        attempt over its undecided variates, where only those that fail the
        squeeze take the logs of the second test. About one variate in
        twenty needs a later attempt at shape 1, fewer at larger shapes.
        """
        shapes = np.asarray(shapes, dtype=float)
        index = None if index is None else np.asarray(index)
        out = np.empty(len(shapes))
        for start in range(0, len(shapes), BLOCK):
            stop = min(start + BLOCK, len(shapes))
            at = (np.arange(start, stop, dtype=np.uint64) if index is None
                  else index[start:stop])
            out[start:stop] = self._block(shapes[start:stop], at)
        return out

    def _block(self, shapes: np.ndarray, index: np.ndarray) -> np.ndarray:
        """gammas(shapes, index), one vectorised pass per attempt over the
        variates the earlier attempts left undecided."""
        d = shapes - 1.0 / 3.0
        root = np.sqrt(9.0 * d)
        out = rows = None  # rows: the rows of out undecided; None: all
        family = GAMMAS
        while True:
            raw = self.raw((family, family + 1, family + 2), index)
            raw >>= np.uint64(11)
            neg_u0, angle, u2 = raw.view(np.int64) * _SCALES
            x = np.log1p(neg_u0)
            x *= -2.0
            np.sqrt(x, out=x)
            x *= np.cos(angle, out=angle)
            v = x / root
            v += 1.0
            v *= v * v
            # v <= 0 needs x <= -sqrt(9d) <= -sqrt(6), where the squeeze fails
            x *= x
            squeeze = x * x
            squeeze *= -0.0331
            squeeze += 1.0
            left = np.flatnonzero(u2 >= squeeze)
            vl = v[left]
            # log 0 = -inf accepts; v <= 0 gives nan or -inf and rejects
            with np.errstate(divide="ignore", invalid="ignore"):
                accept = np.log(u2[left]) < \
                    0.5 * x[left] + d[left] * (1.0 - vl + np.log(vl))
            v *= d
            # the rejected rows are written too, and overwritten later
            if rows is None:
                out = v
            else:
                out[rows] = v
            rejected = left[~accept]
            if not len(rejected):
                return out
            rows = rejected if rows is None else rows[rejected]
            d, root, index = d[rejected], root[rejected], index[rejected]
            family += 3
