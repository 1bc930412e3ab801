"""Cardinality-layer decomposition of set systems and the matroid-stack,
paving, sparse-paving, and quotient classifiers."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .bitset import iter_bits, layer_selectors
from .errors import AmbientHypothesisError
from .matroid import Matroid, is_quotient, paving_flags
from .setsystem import SetSystem

# Bound of the per-layer verdict cache.  Every layer bitmap of a system on
# at most five elements fits (2 116 of them, counting the empty layer of
# each size); larger systems evict.
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
    sizes = [m.bit_count() for m in system.masks]
    k, l = min(sizes), max(sizes)
    layers = []
    for size in range(k, l + 1):
        masks = frozenset(m for m in system.masks if m.bit_count() == size)
        layers.append(SetSystem(system.labels, masks))
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


@lru_cache(maxsize=LAYER_CACHE_SIZE)
def layer_is_matroid(layer: int) -> bool:
    """Basis exchange on a nonempty equicardinal family bitmap.

    reach[x] is the set of y outside B1 with (B1 - x) + y feasible, so
    exchange holds for (B1, B2, x) when reach[x] meets B2.  The verdict
    depends on the bitmap alone, not on the ground set around it, which
    is why the cache is keyed on the bitmap.
    """
    bases = list(iter_bits(layer))
    ground = 0
    for b in bases:
        ground |= b
    for b1 in bases:
        reach = {}
        for x in iter_bits(b1):
            w = b1 ^ (1 << x)
            reach[x] = sum(1 << y for y in iter_bits(ground & ~b1) if layer >> (w | 1 << y) & 1)
        for b2 in bases:
            for x in iter_bits(b1 & ~b2):
                if not reach[x] & b2:
                    return False
    return True


def is_matroid_stack(system: SetSystem) -> bool:
    """True when every nonempty cardinality layer is a matroid.

    Each layer is cut from the family bitmap and decided by the cached
    layer_is_matroid; the first non-matroid layer ends the test.
    """
    system._require_proper()
    bm = system.family_bitmap
    for selector in layer_selectors(system.n):
        layer = bm & selector
        if layer and not layer_is_matroid(layer):
            return False
    return True


def classify_stack(system: SetSystem) -> StackClassification:
    """Evaluate every layer flag directly from the definitions."""
    stack = stack_of(system)
    proper = stack.proper_layers()
    matroid_stack = is_matroid_stack(system)
    paving = sparse = quotient = matroid_stack
    if matroid_stack:
        matroids = [Matroid(layer, size) for size, layer in proper]
        for m in matroids:
            p, sp = paving_flags(m)
            paving = paving and p
            sparse = sparse and sp
        quotient = all(is_quotient(below, above) for below, above in zip(matroids, matroids[1:]))
    gaps = tuple(b - a for (a, _), (b, _) in zip(proper, proper[1:]))
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
    flags = classify_stack(system)
    if not flags.even:
        raise AmbientHypothesisError("system is not even")
    if not flags.sparse_paving_system:
        raise AmbientHypothesisError("system is not a sparse paving set system")
    return flags.quotient_system
