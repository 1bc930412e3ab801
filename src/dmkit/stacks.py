"""Cardinality-layer decomposition of set systems and the matroid-stack,
paving, sparse-paving, and quotient classifiers."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Sequence

from .bitset import down_closure, iter_bits, layer_selectors, up_closure
from .errors import AmbientHypothesisError
from .matroid import is_quotient_bitmap
from .setsystem import WORD_MAX_N, SetSystem, delta_matroid_bits, exchange_holds

# Bound of each per-layer verdict cache (_exchange_layer, which serves
# layer_is_matroid on six elements and up, and layer_paving_flags) and of
# the per-family stack_flags memo.  Every nonempty layer bitmap of a system
# on at most five elements fits layer_paving_flags (2 110 of them), and
# every isomorphism-class representative on at most four elements fits
# stack_flags (4 077 of them); larger runs evict.  Up to five elements
# layer_is_matroid reads matroid_layers and no cache.
LAYER_CACHE_SIZE = 4096


@dataclass(frozen=True)
class Stack:
    """The size layers N_k .. N_l of a set system.

    Improper layers (no feasible set of that size) are kept as explicit
    empty-family systems so that layer indices stay aligned with
    cardinalities.
    """

    layers: tuple[SetSystem, ...]
    k: int
    l: int

    def layer(self, size: int) -> SetSystem:
        return self.layers[size - self.k]

    def proper_layers(self) -> list[tuple[int, SetSystem]]:
        return [(self.k + i, s) for i, s in enumerate(self.layers) if s.is_proper]


def stack_of(system: SetSystem) -> Stack:
    system._require_proper()
    sizes = system.layer_sizes
    k, l = sizes[0], sizes[-1]
    bm, sel = system.family_bitmap, layer_selectors(system.n)
    layers = (SetSystem.from_bitmap(system.labels, bm & sel[r]) for r in range(k, l + 1))
    return Stack(tuple(layers), k, l)


@dataclass(frozen=True)
class StackClassification:
    """Flag vector for the layer-based classes of a set system."""

    matroid_stack: bool
    paving_system: bool
    sparse_paving_system: bool
    quotient_system: bool
    even: bool
    delta_matroid: bool
    rank_gaps: tuple[int, ...] = field(default=())
    # The motivating question bounds gaps by 1 <= gap <= 2; reported, not
    # enforced, because the formal definitions do not impose it.
    gaps_within_bounds: bool = True


@lru_cache(maxsize=None)
def matroid_layers() -> frozenset[int]:
    """The basis-family bitmaps of every matroid on WORD_MAX_N = 5 labelled
    elements: 406 of them (OEIS A058673), built on first use, never at
    import, by one delta_matroid_bits run over the 2 110 nonempty
    equicardinal families on five elements (on an equicardinal family the
    exchange axiom is basis exchange).

    One table serves every n <= 5.  Adding a loop to a matroid keeps its
    bases, and deleting a loop keeps them too, so a family whose masks
    avoid an element is a matroid with that element exactly when it is one
    without it.  A layer bitmap below 2^(2^n) is therefore a matroid on n
    elements exactly when it is in the table, and the table holds 1, 2, 5,
    16, 68 and 406 bitmaps below 2^(2^n) for n = 0..5.
    """
    layers = []
    for sel in layer_selectors(WORD_MAX_N):
        picks = [0]
        for m in iter_bits(sel):
            picks += [p | 1 << m for p in picks]
        layers += picks[1:]
    verdicts = delta_matroid_bits(layers, WORD_MAX_N)
    return frozenset(layer for b, layer in enumerate(layers) if verdicts >> b & 1)


def layer_is_matroid(layer: int) -> bool:
    """Basis exchange on a nonempty equicardinal family bitmap.  Below
    2^32 (every mask on at most five elements) it is membership in
    matroid_layers; above, the exchange axiom of exchange_holds on the
    least ground set holding the masks, cached per bitmap.  An element in
    no mask is a loop and never enters an exchange, so the verdict depends
    on the bitmap alone."""
    if layer >> (1 << WORD_MAX_N):
        return _exchange_layer(layer)
    return layer in matroid_layers()


@lru_cache(maxsize=LAYER_CACHE_SIZE)
def _exchange_layer(layer: int) -> bool:
    return exchange_holds(layer, (layer.bit_length() - 1).bit_length())


@lru_cache(maxsize=LAYER_CACHE_SIZE)
def layer_paving_flags(layer: int, n: int) -> tuple[bool, bool]:
    """(paving, sparse paving) of the rank-r matroid with basis bitmap
    layer: every (r-1)-set is independent, and also every (r+1)-set is
    spanning (the dual is paving); vacuous at r = 0 and r = n.  Keyed on
    n as well, since a loop makes a 1-set dependent."""
    r = next(iter_bits(layer)).bit_count()
    sel = layer_selectors(n)
    if r and sel[r - 1] & ~down_closure(layer, n):
        return (False, False)
    return (True, r == n or not sel[r + 1] & ~up_closure(layer, n))


def is_stack_bitmap(bm: int, n: int) -> bool:
    """True when every nonempty cardinality layer of a family bitmap over
    n elements is a matroid.  Up to WORD_MAX_N elements only the layers of
    rank 2 to n - 2 are looked up in matroid_layers, since every nonempty
    layer of rank 0, 1, n - 1 or n is a matroid (a rank-1 family is a
    parallel class and loops, and its dual at rank n - 1); above that each
    layer goes to layer_is_matroid.  The first non-matroid layer ends the
    test."""
    if n > WORD_MAX_N:
        return all(layer_is_matroid(bm & sel) for sel in layer_selectors(n) if bm & sel)
    table = matroid_layers()
    for sel in layer_selectors(n)[2:n - 1]:
        layer = bm & sel
        if layer and layer not in table:
            return False
    return True


def matroid_stack_bits(indices: Sequence[int], n: int) -> int:
    """Bitmask over a batch of family indices of an n-element ground set:
    bit b is set when is_stack_bitmap(indices[b], n).  Up to WORD_MAX_N
    elements the layers of is_stack_bitmap are read rank by rank, rank 2
    first, which rejects most families: per rank the surviving positions
    keep the ones whose layer is empty or in matroid_layers.  Above
    WORD_MAX_N each family is decided by is_stack_bitmap."""
    if n > WORD_MAX_N:
        return sum(1 << b for b, index in enumerate(indices) if is_stack_bitmap(index, n))
    table = matroid_layers()
    where = range(len(indices))
    for sel in layer_selectors(n)[2:n - 1]:
        where = [b for b in where if (layer := indices[b] & sel) in table or not layer]
    return sum(1 << b for b in where)


def is_matroid_stack(system: SetSystem) -> bool:
    """True when every nonempty cardinality layer is a matroid."""
    system._require_proper()
    return is_stack_bitmap(system.family_bitmap, system.n)


# Every value stack_flags returns is one of these nine tuples, so that a
# memo entry holds a reference, not a tuple of its own.
_NOT_A_STACK = (False, False, False, False)
_STACK_FLAGS = {flags: (True, *flags) for flags in product((False, True), repeat=3)}


@lru_cache(maxsize=LAYER_CACHE_SIZE)
def stack_flags(bm: int, n: int) -> tuple[bool, bool, bool, bool]:
    """(matroid stack, paving, sparse paving, quotient) of a nonempty
    family bitmap over n elements, from verdicts on its layers:
    is_stack_bitmap, then for matroid stacks the cached layer_paving_flags
    per layer and matroid.is_quotient_bitmap on consecutive layers, which
    compares their cached cyclic-set families.
    Memoized per family on (bm, n): the paving and sparse-paving flags of
    the same bitmap differ between ground sets."""
    if not is_stack_bitmap(bm, n):
        return _NOT_A_STACK
    layers = [bm & sel for sel in layer_selectors(n) if bm & sel]
    flags = [layer_paving_flags(layer, n) for layer in layers]
    return _STACK_FLAGS[
        all(p for p, _ in flags),
        all(sp for _, sp in flags),
        all(is_quotient_bitmap(below, above, n) for below, above in zip(layers, layers[1:])),
    ]


def classify_stack(system: SetSystem) -> StackClassification:
    """Every layer flag of stack_flags, with the rank gaps, evenness and
    the exchange-axiom verdict of the system."""
    system._require_proper()
    sizes = system.layer_sizes
    matroid_stack, paving, sparse, quotient = stack_flags(system.family_bitmap, system.n)
    gaps = tuple(b - a for a, b in zip(sizes, sizes[1:]))
    return StackClassification(
        matroid_stack=matroid_stack,
        paving_system=paving,
        sparse_paving_system=sparse,
        quotient_system=quotient,
        even=system.is_even,
        delta_matroid=system.is_delta_matroid(),
        rank_gaps=gaps,
        gaps_within_bounds=all(1 <= g <= 2 for g in gaps),
    )


def check_speven(system: SetSystem) -> bool:
    """Quotient verdict for an even sparse paving set system.

    Raises AmbientHypothesisError unless the system is even and sparse
    paving; the verdict is expected (and tested) to always be True.
    """
    if not system.is_even:
        raise AmbientHypothesisError("system is not even")
    _, _, sparse_paving, quotient = stack_flags(system.family_bitmap, system.n)
    if not sparse_paving:
        raise AmbientHypothesisError("system is not a sparse paving set system")
    return quotient
