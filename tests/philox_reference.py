"""Pure-Python Philox4x64-10, the written form of the generator behind
``lattice.philox_stream``, used only by the tests.

A key (k0, k1) and a 256-bit counter, kept as four 64-bit lanes with lane 0
lowest.  Each block increments the counter first and then applies ten
rounds to it; the key takes a Weyl step between rounds.  A block's four
words come out in lane order, so word i of a fresh stream is lane i mod 4
of the block with counter i // 4 + 1.  ``numpy.random.Philox`` with the same
key gives the same words from ``random_raw``.
"""

from __future__ import annotations

MASK = (1 << 64) - 1
MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def block(counter: int, key: tuple[int, int]) -> list[int]:
    """The four words of the block at the 256-bit ``counter``."""
    c = [counter >> 64 * i & MASK for i in range(4)]
    k0, k1 = key[0] & MASK, key[1] & MASK
    for r in range(10):
        if r:
            k0, k1 = (k0 + WEYL[0]) & MASK, (k1 + WEYL[1]) & MASK
        p0 = MULTIPLIERS[0] * c[0]
        p1 = MULTIPLIERS[1] * c[2]
        c = [(p1 >> 64) ^ c[1] ^ k0, p1 & MASK, (p0 >> 64) ^ c[3] ^ k1, p0 & MASK]
    return c


def raw_words(key: tuple[int, int], count: int, counter: int = 0) -> list[int]:
    """The first ``count`` raw words of a stream whose counter stands at
    ``counter``: the blocks at counter + 1, counter + 2, ..., in lane order."""
    out: list[int] = []
    while len(out) < count:
        counter = (counter + 1) & ((1 << 256) - 1)
        out.extend(block(counter, key))
    return out[:count]
