"""Cardinality-layer decomposition of set systems and the matroid-stack,
paving, sparse-paving, and quotient classifiers."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Sequence

from .bitset import down_closure, iter_bits, layer_selectors, up_closure
from .errors import AmbientHypothesisError
from .matroid import is_quotient_chain
from .setsystem import WORD_MAX_N, SetSystem, delta_matroid_bits, exchange_holds

# Bound of the per-family stack_flags memo, which serves the object API
# only (classify_stack, check_speven, the SetSystem forms of the paving,
# sparse-paving and quotient predicates and classify_by_exminors'
# ambient); the census decides those columns by paving_bits and
# quotient_bits and fills no entry.  Every isomorphism-class
# representative on at most four elements fits it (4 077 of them); larger
# runs evict.
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
def matroid_layers(n: int) -> dict[int, tuple[bool, bool]] | _ExchangeLayers:
    """The matroids on n labelled elements: `layer in matroid_layers(n)` is
    basis exchange on a nonempty equicardinal family bitmap over n
    elements, and `matroid_layers(n)[layer]` the layer_paving_flags of a
    matroid's.  Up to WORD_MAX_N a dict of 1, 2, 5, 16, 68 and 406 entries
    for n = 0..5 (OEIS A058673), built on first use, never at import, by
    one delta_matroid_bits pass over the nonempty equicardinal families on
    n elements; above, where they cannot be listed, an _ExchangeLayers.
    """
    if n > WORD_MAX_N:
        return _ExchangeLayers(n)
    layers = []
    for sel in layer_selectors(n):
        picks = [0]
        for m in iter_bits(sel):
            picks += [p | 1 << m for p in picks]
        layers += picks[1:]
    verdicts = delta_matroid_bits(layers, n)
    return {bm: layer_paving_flags(bm, n) for b, bm in enumerate(layers) if verdicts >> b & 1}


@dataclass(frozen=True)
class _ExchangeLayers:
    """matroid_layers(n) above WORD_MAX_N: `in` is exchange_holds on a
    nonempty equicardinal family bitmap, and `[]` is layer_paving_flags."""

    n: int

    def __contains__(self, layer: int) -> bool:
        return bool(layer) and is_equicardinal_index(layer, self.n) and exchange_holds(layer, self.n)

    def __getitem__(self, layer: int) -> tuple[bool, bool]:
        return layer_paving_flags(layer, self.n)


def is_equicardinal_index(index: int, n: int) -> bool:
    """True when a nonempty family index lies in one cardinality layer:
    the layer of its least mask."""
    return not index & ~layer_selectors(n)[((index & -index).bit_length() - 1).bit_count()]


def equicardinal_bits(indices: Sequence[int], n: int) -> int:
    """Bitmask over a batch of family indices of an n-element ground set:
    bit b is set when is_equicardinal_index(indices[b], n), its test
    inlined in one pass over the batch."""
    sel = layer_selectors(n)
    return sum(1 << b for b, i in enumerate(indices)
               if not i & ~sel[((i & -i).bit_length() - 1).bit_count()])


def layer_paving_flags(layer: int, n: int) -> tuple[bool, bool]:
    """(paving, sparse paving) of the rank-r matroid with basis bitmap
    layer: every (r-1)-set is independent, and also every (r+1)-set is
    spanning (the dual is paving); vacuous at r = 0 and r = n.  The flags
    depend on n, since a loop makes a 1-set dependent."""
    r = next(iter_bits(layer)).bit_count()
    sel = layer_selectors(n)
    if r and sel[r - 1] & ~down_closure(layer, n):
        return (False, False)
    return (True, r == n or not sel[r + 1] & ~up_closure(layer, n))


def is_stack_bitmap(bm: int, n: int) -> bool:
    """True when every nonempty cardinality layer of a family bitmap over
    n elements is a matroid.  Only the layers of rank 2 to n - 2 are looked
    up in matroid_layers(n), since every nonempty layer of rank 0, 1, n - 1
    or n is a matroid (a rank-1 family is a parallel class and loops, and
    its dual at rank n - 1).  The first non-matroid layer ends the test."""
    table = matroid_layers(n)
    for sel in layer_selectors(n)[2:n - 1]:
        layer = bm & sel
        if layer and layer not in table:
            return False
    return True


def matroid_stack_bits(indices: Sequence[int], n: int) -> int:
    """Bitmask over a batch of family indices of an n-element ground set:
    bit b is set when is_stack_bitmap(indices[b], n)."""
    return sum(1 << b for b in _stack_positions(indices, n))


def _stack_positions(indices: Sequence[int], n: int) -> list[int] | range:
    """The positions b of a batch where is_stack_bitmap(indices[b], n), in
    order.  The layers are read rank by rank, rank 2 first, which rejects
    most families: per rank the surviving positions keep the ones whose
    layer is empty or in matroid_layers(n)."""
    table = matroid_layers(n)
    where = range(len(indices))
    for sel in layer_selectors(n)[2:n - 1]:
        where = [b for b in where if (layer := indices[b] & sel) in table or not layer]
    return where


def paving_bits(indices: Sequence[int], n: int, sparse: bool = False) -> int:
    """Bitmask over a batch of family indices of an n-element ground set:
    bit b is set when stack_flags(indices[b], n) holds paving (sparse
    paving when sparse), that is when every nonempty layer of indices[b]
    is in matroid_layers(n) with that flag of matroid_layers(n)[layer]
    set.  A layer that is not a matroid is not in the table, so the stack
    test comes with the lookup.  The layers are read as in
    matroid_stack_bits, rank 2 first, then rank 1; ranks 0 and n are
    skipped, since every nonempty layer there is a paving and sparse
    paving matroid."""
    table, k = matroid_layers(n), int(sparse)
    where = range(len(indices))
    sels = layer_selectors(n)
    for sel in (*sels[2:n], *sels[1:2]):
        where = [b for b in where
                 if not (layer := indices[b] & sel) or layer in table and table[layer][k]]
    return sum(1 << b for b in where)


def quotient_bits(indices: Sequence[int], n: int) -> int:
    """Bitmask over a batch of family indices of an n-element ground set:
    bit b is set when stack_flags(indices[b], n) holds quotient, that is
    when indices[b] is a matroid stack (matroid_stack_bits) whose
    nonempty layers, in ascending rank, pass matroid.is_quotient_chain."""
    sels = layer_selectors(n)
    return sum(1 << b for b in _stack_positions(indices, n)
               if is_quotient_chain([layer for sel in sels if (layer := indices[b] & sel)], n))


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
    is_stack_bitmap, then for matroid stacks the flags of each layer in
    matroid_layers(n) and matroid.is_quotient_chain on the layers, which
    compares the cached cyclic-set families of consecutive ones.
    Memoized per family on (bm, n): the paving and sparse-paving flags of
    the same bitmap differ between ground sets."""
    if not is_stack_bitmap(bm, n):
        return _NOT_A_STACK
    table = matroid_layers(n)
    layers = [bm & sel for sel in layer_selectors(n) if bm & sel]
    flags = [table[layer] for layer in layers]
    return _STACK_FLAGS[
        all(p for p, _ in flags),
        all(sp for _, sp in flags),
        is_quotient_chain(layers, n),
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
