"""Seeded draws: numpy's default generator, or below DRAWS_MIN draws the same bits in pure Python.

A pure-Python port of numpy's SeedSequence mix, PCG64 stream with XSL-RR
output and next_double (:func:`seeded_doubles`), and of its scalar Poisson
and geometric-search samplers, gives ``np.random.default_rng(seed)``'s
bits on any CPU.  Only :func:`uniforms` and :func:`geometric_pair_sums`
choose between the port and numpy's generator.  The simulations import
this module inside their generators, so a call that draws nothing never
compiles it.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator
from itertools import islice

from .errors import DomainError

# The fewest seeded draws taken from numpy's generator; below it they come
# from seeded_doubles, which gives default_rng(seed)'s bits in pure Python,
# so a small simulation never pays numpy's import (120-180 ms cold).  With
# numpy already loaded its path is the faster from about 10 draws on; at
# 4,095 draws the list path costs about 3 ms more for JM and 6 ms more for
# Weibull, while a cold call breaks even only near 10^5 draws.
DRAWS_MIN = 4096
# Geometric draws added to the first column at a time, in geometric_pair_sums.
DRAW_BLOCK = 1 << 16
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit LCG multiplier
# Stirling's series coefficients of numpy's random_loggam, as it writes them.
_LOGGAM_COEFFS = (
    8.333333333333333e-02, -2.777777777777778e-03, 7.936507936507937e-04, -5.952380952380952e-04,
    8.417508417508418e-04, -1.917526917526918e-03, 6.410256410256410e-03, -2.955065359477124e-02,
    1.796443723688307e-01, -1.39243221690590e00,
)


def _check_seed(seed: int) -> None:
    if not (isinstance(seed, int) and seed >= 0):
        raise DomainError(f"seed must be a non-negative integer, got {seed}")


def seeded_rng(seed: int):
    """numpy's default generator seeded with ``seed``; DomainError unless it is an int >= 0."""
    _check_seed(seed)
    import numpy as np

    return np.random.default_rng(seed)


def _pcg64_seed(seed: int) -> tuple[int, int]:
    """The 128-bit PCG64 state and increment that ``default_rng(seed)`` starts from.

    numpy's SeedSequence (``bit_generator.pyx``): the seed's 32-bit words,
    least significant first, are hashed into a pool of four words, which
    mix with each other and then with every word beyond the fourth.  The
    pool is hashed out to eight words, read as four little-endian 64-bit
    words: state high and low, increment high and low.  PCG64's srandom
    then sets inc = 2 * increment + 1 and steps around the added state.
    """
    words = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _MASK32)
    const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, state = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * 0x58F38DED & _MASK32
        value = value * const & _MASK32
        state.append(value ^ value >> 16)
    high, low, inc_high, inc_low = (state[i] | state[i + 1] << 32 for i in range(0, 8, 2))
    inc = ((inc_high << 64 | inc_low) << 1 | 1) & _MASK128
    return ((inc + (high << 64 | low)) * _PCG_MULT + inc) & _MASK128, inc


def _pcg64_doubles(state: int, inc: int) -> Iterator[float]:
    # PCG64's step (a 128-bit LCG) with its XSL-RR output, the 64-bit xor of
    # the state's halves rotated right by its top six bits; next_double
    # keeps the output's top 53 bits.
    while True:
        state = (state * _PCG_MULT + inc) & _MASK128
        word = (state >> 64 ^ state) & _MASK64
        yield (((word | word << 64) >> (state >> 122) & _MASK64) >> 11) * 2.0**-53


def seeded_doubles(seed: int) -> Iterator[float]:
    """The doubles ``default_rng(seed).random()`` gives, one at a time, in pure Python.

    The same bits on any CPU, for any seed; DomainError unless ``seed`` is
    an int >= 0.  Each call starts a new stream, which only its caller holds.
    """
    _check_seed(seed)  # here: a generator's body would check it only at the first draw
    return _pcg64_doubles(*_pcg64_seed(seed))


def uniforms(seed: int, n: int):
    """``default_rng(seed).random(n)``: a list below DRAWS_MIN draws, numpy's float64 array from there on."""
    if n < DRAWS_MIN:
        return list(islice(seeded_doubles(seed), n))
    return seeded_rng(seed).random(n)


def geometric_pair_sums(seed: int, p: float, n: int):
    """``rng.geometric(p, size=n) + rng.geometric(p, size=n)`` for ``rng = default_rng(seed)`` and p in (0, 1].

    A list, or numpy's int64 array, which holds the first column while the
    second is added to it a block at a time.  numpy's random_geometric searches the
    cumulative probabilities when p is at least its literal below, and
    inverts an exponential drawn from its ziggurat tables otherwise.  The
    search is ported: at such a p, below DRAWS_MIN draws in all, the sums
    are a list.
    """
    if 2 * n < DRAWS_MIN and p >= 0.333333333333333333333333:
        draws = geometric_search(seeded_doubles(seed), p, 2 * n)
        return list(map(operator.add, draws[:n], draws[n:]))
    rng = seeded_rng(seed)
    sums = rng.geometric(p, size=n)
    # numpy's generator draws one element after another, so DRAW_BLOCK draws
    # at a time are the second column's values, and no second array of n is made.
    for start in range(0, n, DRAW_BLOCK):
        block = sums[start : start + DRAW_BLOCK]
        block += rng.geometric(p, size=block.size)
    return sums


def geometric_search(doubles: Iterator[float], p: float, n: int) -> list[int]:
    """``n`` draws of numpy's random_geometric_search from :func:`seeded_doubles`: trials to a first success.

    Each draw takes one uniform u and counts the terms of p + p q + p q^2 + ...
    that it takes for the sum to reach u, adding them as numpy does.
    """
    q, draws = 1.0 - p, []
    for u in islice(doubles, n):
        x = 1
        total = prod = p
        while u > total:
            prod *= q
            total += prod
            x += 1
        draws.append(x)
    return draws


def poisson_draw(doubles: Iterator[float], lam: float) -> int:
    """One Poisson draw of mean ``lam`` from :func:`seeded_doubles`, as numpy's random_poisson makes it.

    For 0 <= lam <= numpy's limit: 0 at lam = 0, the multiplication method
    below 10, and from 10 on the transformed rejection with squeeze (PTRS;
    Hörmann, Insurance: Mathematics and Economics 12, 1993).  Where numpy
    takes the log of 0, or casts a float beyond the int64 range (which
    x86-64 reads as the smallest int64), the outcome that gives is kept.
    """
    if lam >= 10.0:
        return _poisson_ptrs(doubles, lam)
    enlam, prod, k = math.exp(-lam), 1.0, 0
    if lam > 0.0:
        for u in doubles:
            prod *= u
            if not prod > enlam:
                break
            k += 1
    return k


def _poisson_ptrs(doubles: Iterator[float], lam: float) -> int:
    slam, loglam = math.sqrt(lam), math.log(lam)
    b = 0.931 + 2.53 * slam
    a = -0.059 + 0.02483 * b
    log_invalpha = math.log(1.1239 + 1.1328 / (b - 3.4))
    vr = 0.9277 - 3.6224 / (b - 2)
    for u in doubles:
        u -= 0.5
        v = next(doubles)
        us = 0.5 - abs(u)
        if us == 0.0:  # k = floor(-inf): the smallest int64, rejected below
            continue
        k = math.floor((2 * a / us + b) * u + lam + 0.43)
        if us >= 0.07 and v <= vr:
            return k
        if not 0 <= k < 2**63 or (us < 0.013 and v > us):
            continue
        lhs = math.log(v) + log_invalpha - math.log(a / (us * us) + b) if v else -math.inf  # C's log(0)
        if lhs <= -lam + k * loglam - _loggam(k + 1):
            return k


def _loggam(x: int) -> float:
    """numpy's random_loggam: log Gamma(x) by Stirling's series, here for integers x >= 1."""
    if x <= 2:
        return 0.0
    n = max(7 - x, 0)
    x0 = float(x + n)
    x2 = (1.0 / x0) * (1.0 / x0)
    gl0 = _LOGGAM_COEFFS[9]
    for c in _LOGGAM_COEFFS[8::-1]:
        gl0 *= x2
        gl0 += c
    gl = gl0 / x0 + 0.5 * 1.8378770664093453 + (x0 - 0.5) * math.log(x0) - x0
    for _ in range(n):
        gl -= math.log(x0 - 1.0)
        x0 -= 1.0
    return gl
