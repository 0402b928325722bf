"""Small combinatorial and bitmask helpers shared across the package.

File indices are 1-based everywhere in the public API; a set of indices is
carried as an int bitmask with bit (i - 1) set for member i, which keeps set
algebra cheap in the delivery hot paths.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations


def comb0(n: int, k: int) -> int:
    """Binomial coefficient extended to be 0 outside 0 <= k <= n.

    Negative n (which arises when a formula subtracts a larger population
    from a smaller one) also yields 0, except comb0(0, 0) == 1.
    """
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def step_payloads(k: int, t: int, distinct: int) -> int:
    """Payloads of a share-t leader-based XOR step among k users whose step
    items take `distinct` distinct values: C(k, t+1) - C(k-distinct, t+1),
    the user sets of size t+1 that touch at least one leader (Yu,
    Maddah-Ali and Avestimehr, arXiv:1609.07817, Thm. 1)."""
    return comb0(k, t + 1) - comb0(k - distinct, t + 1)


def mask_of(members) -> int:
    """Bitmask for an iterable of 1-based indices."""
    mask = 0
    for i in members:
        if i < 1:
            raise ValueError(f"indices are 1-based, got {i}")
        mask |= 1 << (i - 1)
    return mask


def members_of(mask: int) -> tuple[int, ...]:
    """Sorted 1-based indices present in a bitmask."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def subset_masks(members, size: int) -> list[int]:
    """All size-element subsets of the given index collection, as bitmasks.

    Canonical order: lexicographic over the sorted member tuple, which every
    caller relies on for determinism.
    """
    base = sorted(members)
    return [mask_of(c) for c in combinations(base, size)]


def concat_bits(segments) -> int:
    """Concatenate (value, width) segments, the first lowest; every value
    must fit its width.  Neighbours are merged pairwise, so the cost stays
    near linear in the total width (shifting each segment into one growing
    result is quadratic in the segment count)."""
    segs = list(segments)
    while len(segs) > 1:
        merged = [
            (lo | (hi << wlo), wlo + whi)
            for (lo, wlo), (hi, whi) in zip(segs[::2], segs[1::2])
        ]
        if len(segs) % 2:
            merged.append(segs[-1])
        segs = merged
    return segs[0][0] if segs else 0


@lru_cache(maxsize=None)
def part_labels(n: int, size: int) -> tuple[int, ...]:
    """All size-element subsets of [n] as masks, in subset_masks order: the
    part labels of a share-size layer among n users, and the level-size
    subfiles of an n-file library."""
    return tuple(subset_masks(range(1, n + 1), size))


@lru_cache(maxsize=None)
def divisibility_unit(n_users: int) -> int:
    """lcm of binom(K, t) over t in [0, K]; subfile sizes divisible by this
    split evenly into parts for every integer caching share."""
    unit = 1
    for t in range(n_users + 1):
        unit = math.lcm(unit, math.comb(n_users, t))
    return unit


def mix_seed(*parts: int) -> int:
    """Deterministic 64-bit seed derivation from integer components.

    Avoids Python's salted hash() so schedules are reproducible across
    processes.
    """
    acc = 0x9E3779B97F4A7C15
    for p in parts:
        p &= 0xFFFFFFFFFFFFFFFF
        acc ^= p
        acc = (acc * 0xBF58476D1CE4E5B9 + 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        acc ^= acc >> 31
    return acc
