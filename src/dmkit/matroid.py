"""Matroids as equicardinal set systems: exchange axiom, rank, circuits,
quotients, and paving properties."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

from .bitset import (down_closure, iter_bits, layer_selectors, masks_without_bit, minimal_members,
                     up_closure)
from .errors import (
    CapacityError,
    GroundSetMismatchError,
    NotADeltaMatroidError,
    NotAMatroidError,
)
from .setsystem import SetSystem


def exchange_violation(system: SetSystem) -> tuple[int, int, int] | None:
    """First (B1, B2, x) failing basis exchange, or None.

    Assumes the family is equicardinal; exchange asks for y in B2-B1 with
    (B1 - x) + y feasible, for every x in B1-B2.
    """
    masks = system.sorted_masks
    fam = system.masks
    for b1 in masks:
        for b2 in masks:
            out = b2 & ~b1
            for x in iter_bits(b1 & ~b2):
                w = b1 ^ (1 << x)
                if not any(w | (1 << y) in fam for y in iter_bits(out)):
                    return (b1, b2, x)
    return None


def is_matroid(system: SetSystem) -> bool:
    """True when the feasible sets are equicardinal and satisfy basis exchange,
    which an equicardinal family does exactly when it is a delta-matroid."""
    return len(system.layer_sizes) == 1 and system.is_delta_matroid()


@dataclass(frozen=True)
class Matroid:
    """A matroid carried by its basis family; the rank is read from the
    bases, so the two cannot disagree."""

    system: SetSystem

    def __post_init__(self) -> None:
        # nonempty, and every basis of the least one's size, the rank;
        # basis exchange is from_system's check
        if not self.system.is_proper:
            raise NotAMatroidError("empty basis family")
        if self.system.family_bitmap & ~layer_selectors(self.n)[self.rank]:
            raise NotAMatroidError(f"basis sizes differ: {list(self.system.layer_sizes)}")

    @classmethod
    def from_system(cls, system: SetSystem) -> Matroid:
        matroid = cls(system)
        if not system.is_delta_matroid():
            raise NotAMatroidError(f"basis exchange fails at {exchange_violation(system)}")
        return matroid

    @property
    def labels(self) -> tuple[str, ...]:
        return self.system.labels

    @property
    def n(self) -> int:
        return self.system.n

    @property
    def bases(self) -> frozenset[int]:
        return self.system.masks

    # -- rank and circuits ---------------------------------------------

    @cached_property
    def rank(self) -> int:
        return next(iter_bits(self.system.family_bitmap)).bit_count()

    def rank_of_mask(self, x: int) -> int:
        return max((b & x).bit_count() for b in self.system.masks)

    def rank_of(self, elements: Iterable[str]) -> int:
        return self.rank_of_mask(self.system.mask_of(elements))

    def circuit_masks(self) -> tuple[int, ...]:
        return _circuit_masks(self.system.family_bitmap, self.n)

    def circuits(self) -> tuple[tuple[str, ...], ...]:
        """Minimal dependent sets, sorted by (size, members)."""
        return tuple(self.system.members(c) for c in self.circuit_masks())

    # -- constructions --------------------------------------------------

    def dual(self) -> Matroid:
        full = (1 << self.n) - 1
        return Matroid(SetSystem(self.labels, frozenset(full ^ b for b in self.bases)))

    def delete(self, e: str) -> Matroid:
        return Matroid(self.system.delete(e))

    def contract(self, e: str) -> Matroid:
        return Matroid(self.system.contract(e))

    def restrict(self, elements: Iterable[str]) -> Matroid:
        return Matroid(self.system.restrict(elements))

    def contract_set(self, elements: Iterable[str]) -> Matroid:
        out = self
        for e in elements:
            out = out.contract(e)
        return out


# Closures and circuits are keyed on (basis bitmap, n): no Matroid is kept alive.
@lru_cache(maxsize=1 << 16)
def _independent_bitmap(bases: int, n: int) -> int:
    return down_closure(bases, n)


@lru_cache(maxsize=1 << 16)
def _spanning_bitmap(bases: int, n: int) -> int:
    return up_closure(bases, n)


@lru_cache(maxsize=1 << 16)
def _circuit_masks(bases: int, n: int) -> tuple[int, ...]:
    """Circuits of the matroid with basis bitmap bases, by (size, mask)."""
    return tuple(sorted(iter_bits(_circuit_bitmap(bases, n)), key=lambda c: (c.bit_count(), c)))


def _circuit_bitmap(bases: int, n: int) -> int:
    """Family bitmap of the circuits: the minimal dependent sets."""
    return minimal_members(~_independent_bitmap(bases, n) & ((1 << (1 << n)) - 1), n)


@lru_cache(maxsize=1 << 16)
def _cyclic_bitmap(bases: int, n: int) -> int:
    """Family bitmap of the cyclic sets (unions of circuits) of the matroid
    with basis bitmap bases: the sets X in which every element of X lies
    on a circuit inside X."""
    circuits = _circuit_bitmap(bases, n)
    cyclic = (1 << (1 << n)) - 1
    for e in range(n):
        without = masks_without_bit(n, e)
        up = circuits & ~without  # all hold e: a closure step along e adds none
        for i in range(n):
            if i != e:
                up |= (up & masks_without_bit(n, i)) << (1 << i)
        cyclic &= up | without
    return cyclic


def uniform_matroid(r: int, n: int | None = None, labels: Iterable[str] | None = None) -> Matroid:
    """U_{r,n} on the given labels (defaults to a, b, c, ..., at most
    twelve of them); n, when given, must be the number of labels."""
    if labels is None:
        if n is not None and n > 12:
            raise CapacityError(f"default labels cover n <= 12, got n = {n}; pass labels")
        labels = "abcdefghijkl"[:n]
    labels = tuple(labels)
    if n is not None and len(labels) != n:
        raise GroundSetMismatchError(f"n = {n} but {len(labels)} labels given")
    masks = frozenset(m for m in range(1 << len(labels)) if m.bit_count() == r)
    return Matroid.from_system(SetSystem(labels, masks))


def is_quotient(q: Matroid, lift: Matroid) -> bool:
    """True when q is a quotient of the lift: every circuit of the lift is
    a union of circuits of q.

    Both matroids must share the (ordered) ground set.  The verdict is
    is_quotient_bitmap's; circuits_cover is the circuit-form reference,
    and the basis form is an independent oracle in the test suite.
    """
    if q.labels != lift.labels:
        raise GroundSetMismatchError("quotient test needs a common ground set")
    return is_quotient_bitmap(q.system.family_bitmap, lift.system.family_bitmap, q.n)


def is_quotient_bitmap(q_bases: int, lift_bases: int, n: int) -> bool:
    """The quotient test on basis bitmaps over n elements: every cyclic
    set of the lift (a union of its circuits) is cyclic in q.  This holds
    exactly when every circuit of the lift is a union of circuits of q
    (Oxley, Matroid Theory, Prop. 7.3.6)."""
    return not _cyclic_bitmap(lift_bases, n) & ~_cyclic_bitmap(q_bases, n)


def is_quotient_chain(layers: Iterable[int], n: int) -> bool:
    """True when each matroid of a sequence of basis bitmaps over n
    elements is a quotient of the next (is_quotient_bitmap): every cyclic
    set of a matroid is cyclic in the one before it.  Each cyclic-set
    family is read once, and none after the first pair that fails."""
    below = -1  # the first matroid has none before it: every set passes
    for layer in layers:
        cyclic = _cyclic_bitmap(layer, n)
        if cyclic & ~below:
            return False
        below = cyclic
    return True


def envelope_bitmap(lower: int, upper: int, n: int) -> int:
    """The full Higgs lift of two matroids given by basis bitmaps over n
    elements: the family bitmap of the sets spanning in lower and
    independent in upper."""
    return _spanning_bitmap(lower, n) & _independent_bitmap(upper, n)


def sandwiched_envelope(family: int, lower: int, upper: int, n: int) -> int:
    """envelope_bitmap(lower, upper, n), after checking that it holds
    every set of the family bitmap, as it does for a delta-matroid and
    its extreme layers."""
    envelope = envelope_bitmap(lower, upper, n)
    outside = family & ~envelope
    if outside:
        raise NotADeltaMatroidError(
            f"feasible mask {(outside & -outside).bit_length() - 1} is not sandwiched "
            "between minimal and maximal bases"
        )
    return envelope


def circuits_cover(q_circuits: Sequence[int], lift_circuits: Iterable[int]) -> bool:
    """True when every lift circuit mask is the union of the q circuit
    masks inside it: the circuit-form reference for is_quotient_bitmap."""
    for c in lift_circuits:
        covered = 0
        for qc in q_circuits:
            if not qc & ~c:
                covered |= qc
                if covered == c:
                    break
        if covered != c:
            return False
    return True


def paving_flags(m: Matroid) -> tuple[bool, bool]:
    """(paving, sparse paving): circuits no smaller than the rank, and the
    same for the dual."""
    paving = all(c.bit_count() >= m.rank for c in m.circuit_masks())
    if not paving:
        return (False, False)
    d = m.dual()
    co_paving = all(c.bit_count() >= d.rank for c in d.circuit_masks())
    return (True, co_paving)


def require_min_max(system: SetSystem) -> None:
    """Refuse a system that is not a delta-matroid: it has no min/max matroids."""
    if not system.is_delta_matroid():
        raise NotADeltaMatroidError("min/max matroids need the exchange axiom")


def min_max_matroids(system: SetSystem) -> tuple[Matroid, Matroid]:
    """The minimal and maximal matroids of a delta-matroid, with the
    containment property of every feasible set checked on the way."""
    require_min_max(system)
    lo = Matroid.from_system(SetSystem(system.labels, frozenset(system.min_sets())))
    hi = Matroid.from_system(SetSystem(system.labels, frozenset(system.max_sets())))
    sandwiched_envelope(system.family_bitmap, lo.system.family_bitmap, hi.system.family_bitmap,
                        system.n)
    return lo, hi
