"""numpy's standard normal sampler on protocol's own Philox words.

``standard_normals(seed, stream, n)`` is
``protocol.trial_rng(seed, stream).standard_normal(n)`` bit for bit, drawn
without loading ``numpy.random`` (which loads OpenSSL through ``secrets``).
The emulator imports this module only when a run draws noise, so the other
runs do not compile it.
"""

from __future__ import annotations

import functools
import math
import os
from typing import Optional

import numpy as np

from .protocol import _UINT64_MASK, _doubles, _philox

__all__ = ["standard_normals"]

# Philox buffers the sampler evaluates at once: its arrays hold 4 words of
# each, whatever the number of draws.
_BLOCK = 4096

# numpy's ziggurat_nor_r, where the tail begins, and ziggurat_nor_inv_r.
_R = 3.6541528853610087963519472518
_INV_R = 0.27366123732975827203338247596


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """numpy's ki_double, wi_double and fi_double, read from the package's
    data/ziggurat_tables.txt on first use (its header gives their source)."""
    path = os.path.join(os.path.dirname(__file__), "data", "ziggurat_tables.txt")
    with open(path, encoding="ascii") as fh:
        words = [int(line, 16) for line in fh if not line.startswith("#")]
    ki, wi, fi = np.array(words, dtype=np.uint64).reshape(3, 256)
    return ki, wi.view(np.float64), fi.view(np.float64)


def _tail(words: np.ndarray, start: int) -> Optional[tuple[float, int]]:
    """The draw beyond r of a strip-0 try at word ``start``, as numpy makes
    it from pairs of the following words, and the word after the pair it
    takes; None if ``words`` ends first.  Its sign is bit 17 of the try's
    word, numpy's (rabs >> 8) & 1."""
    negative = int(words[start]) >> 17 & 1
    for first in range(start + 1, words.size - 1, 2):
        u_1, u_2 = ((int(word) >> 11) * 2.0**-53 for word in words[first:first + 2])
        xx = -_INV_R * math.log1p(-u_1)
        yy = -math.log1p(-u_2)
        if yy + yy > xx * xx:
            return (-(_R + xx) if negative else _R + xx), first + 2
    return None


def standard_normals(seed: int, stream: int, n: int) -> np.ndarray:
    """``trial_rng(seed, stream).standard_normal(n)``, bit for bit.

    numpy's ziggurat (Marsaglia & Tsang, J. Stat. Softw. 5(8), 2000) takes
    one Philox word w per try: its low byte picks the strip i, bit 8 is the
    sign and the next 52 bits are rabs, and x = rabs * wi[i] is drawn when
    rabs < ki[i], as about 98.5% of words are.  Otherwise strip i > 0 takes
    the next word as a double u and draws x when (fi[i-1] - fi[i])*u + fi[i]
    < exp(-x*x/2), strip 0 draws from the tail, and a refused try starts
    over at the next word.  Buffer j of the stream is Philox of the counter
    (j, 0, 0, 0), and the words come ``_BLOCK`` buffers at a time: every
    word is classified and every wedge tested at once, and only the walk
    over the slow words, which fixes where each try starts, and the tails
    run in Python.  A try that meets the end of a block carries its words
    into the next.  exp and log1p are libm's, as numpy calls them.
    """
    ki, wi, fi = _tables()
    key = np.array([stream & _UINT64_MASK], dtype=np.uint64)
    out = np.empty(n)
    filled, counter = 0, 1
    words = np.empty(0, dtype=np.uint64)
    while filled < n:
        # a draw takes about 1.022 words, so 1.031 per draw left seldom falls short
        buffers = min(_BLOCK, 1 + (n - filled) * 33 // 128)
        fresh = np.stack(_philox(np.arange(counter, counter + buffers, dtype=np.uint64),
                                 seed, key), axis=1)
        words = np.concatenate((words, fresh.ravel()))
        counter += buffers
        strip = (words & 0xFF).astype(np.intp)
        rabs = words >> 9 & 0xFFFFFFFFFFFFF
        x = rabs * wi[strip]
        np.negative(x, out=x, where=(words & 0x100) != 0)
        drawn = rabs < ki[strip]
        slow = np.flatnonzero(~drawn)
        # the wedge test of every slow word, taking the next word as u
        wedge = slow[(strip[slow] != 0) & (slow + 1 < words.size)]
        i_w, x_w = strip[wedge], x[wedge]
        below = (fi[i_w - 1] - fi[i_w]) * _doubles(words[wedge + 1]) + fi[i_w]
        bound = [math.exp(v) for v in (-0.5 * x_w * x_w).tolist()]
        under = dict(zip(wedge.tolist(), (below < bound).tolist()))
        # the walk: a slow word that an earlier try took as u or tail words
        # starts no try; each try that starts at one takes the words it needs
        taken, tails, stop, next_try = [], {}, words.size, 0
        for s, i in zip(slow.tolist(), strip[slow].tolist()):
            if s < next_try:
                continue
            if i and s + 1 < words.size:
                drawn[s] = under[s]
                taken.append(s + 1)
                next_try = s + 2
                continue
            tail = None if i else _tail(words, s)
            if tail is None:  # the block ends inside this try
                stop = s
                break
            tails[s], next_try = tail
            taken.extend(range(s + 1, next_try))
        drawn[taken] = False
        drawn[list(tails)] = True
        x[list(tails)] = list(tails.values())
        values = x[:stop][drawn[:stop]]
        count = min(values.size, n - filled)
        out[filled:filled + count] = values[:count]
        filled += count
        words = words[stop:]
    return out
