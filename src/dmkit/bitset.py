"""Bitmask helpers for subsets of small ground sets.

Two encodings are used throughout the package:

* a *mask* is an int whose bit i stands for element i of an ordered
  ground set, so a subset of an n-element set is an int < 2**n;
* a *family bitmap* is an int over 2**n bit positions whose bit m is set
  when mask m belongs to the family.  Whole-family transforms (upward and
  downward closure, layer slicing, relabelling) become a handful of
  big-int operations.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def permute_mask(mask: int, perm: tuple[int, ...]) -> int:
    """Relocate bit i of mask to position perm[i]."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


@lru_cache(maxsize=None)
def masks_without_bit(n: int, i: int) -> int:
    """Family bitmap of all masks over n elements that avoid element i."""
    bm = 0
    for m in range(1 << n):
        if not m >> i & 1:
            bm |= 1 << m
    return bm


@lru_cache(maxsize=None)
def transposition(n: int, i: int, j: int) -> tuple[int, int]:
    """(shift, mask) of the delta swap t = (bm ^ bm >> shift) & mask;
    bm ^= t ^ t << shift that exchanges elements i < j of a family bitmap
    over n elements: each mask with bit i set and bit j clear trades places
    with the mask shift = 2^j - 2^i above it."""
    return (1 << j) - (1 << i), masks_without_bit(n, j) & ~masks_without_bit(n, i)


def relabellings(bm: int, n: int) -> Iterator[int]:
    """The family bitmap bm over n elements under each of the n!
    relabellings of its ground set, lazily, in the order of Heap's
    algorithm (B. R. Heap, "Permutations by interchanges", 1963): each is
    one delta swap from the one before, every other one the exchange of
    elements 0 and 1."""
    yield bm
    if n < 2:
        return
    swaps = [[transposition(n, k, i) for k in range(i)] for i in range(n)]
    s01, m01 = swaps[1][0]
    c = [0] * n  # Heap's counters: swaps made at each level since its reset
    i = 2
    while True:
        t = (bm ^ bm >> s01) & m01
        bm ^= t ^ t << s01
        yield bm
        while i < n and c[i] == i:
            c[i] = 0
            i += 1
        if i == n:
            return
        shift, mask = swaps[i][c[i] if i & 1 else 0]
        t = (bm ^ bm >> shift) & mask
        bm ^= t ^ t << shift
        yield bm
        c[i] += 1
        i = 2


def orbit(bm: int, n: int) -> set[int]:
    """The distinct images of the family bitmap bm over n elements under
    the relabellings of its ground set: the closure of {bm} under the
    n - 1 adjacent transpositions, which generate every permutation.  It
    costs n - 1 delta swaps per distinct image, where relabellings takes
    n! steps whatever the count of images."""
    swaps = [transposition(n, i, i + 1) for i in range(n - 1)]
    seen = {bm}
    todo = [bm]
    while todo:
        p = todo.pop()
        for shift, mask in swaps:
            t = (p ^ p >> shift) & mask
            q = p ^ t ^ t << shift
            if q not in seen:
                seen.add(q)
                todo.append(q)
    return seen


@lru_cache(maxsize=None)
def layer_selectors(n: int) -> tuple[int, ...]:
    """Per size r, the bitmap of every r-element mask of an n-element
    ground set; bm & selector[r] is the r-layer of a family bitmap."""
    out = [0] * (n + 1)
    for m in range(1 << n):
        out[m.bit_count()] |= 1 << m
    return tuple(out)


def family_to_bitmap(masks) -> int:
    bm = 0
    for m in masks:
        bm |= 1 << m
    return bm


def up_closure(bm: int, n: int) -> int:
    """Bitmap of all supersets of members of bm."""
    for i in range(n):
        bm |= (bm & masks_without_bit(n, i)) << (1 << i)
    return bm


def down_closure(bm: int, n: int) -> int:
    """Bitmap of all subsets of members of bm."""
    for i in range(n):
        with_i = ~masks_without_bit(n, i)
        bm |= (bm & with_i) >> (1 << i)
    return bm


def minimal_members(bm: int, n: int) -> int:
    """Bitmap of the inclusion-minimal masks in bm; bm must be up-closed."""
    covered = 0
    for i in range(n):
        covered |= (bm & masks_without_bit(n, i)) << (1 << i)
    return bm & ~covered


def format_members(mask: int, labels: tuple[str, ...]) -> str:
    """Human-readable subset, e.g. ``{a,c}`` or ``{}``."""
    return "{" + ",".join(labels[i] for i in iter_bits(mask)) + "}"
