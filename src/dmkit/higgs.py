"""Higgs lifts between a quotient pair and the Higgs lift delta-matroids
built from index sets."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .bitset import layer_selectors
from .errors import InvalidIndexSetError, NotAQuotientError
from .matroid import Matroid, envelope_bitmap, is_quotient, min_max_matroids, require_min_max
from .setsystem import SetSystem


def validate_index_set(k: int, index_set) -> frozenset[int]:
    """Check K against [0, k]: nonempty, in range, and the complement of K
    in {0..k} may not contain two consecutive integers."""
    ks = frozenset(index_set)
    if not ks:
        raise InvalidIndexSetError("index set is empty; the union would be improper")
    for i in ks:
        if not isinstance(i, int) or i < 0 or i > k:
            raise InvalidIndexSetError(f"index {i} outside [0, {k}]")
    complement = sorted(set(range(k + 1)) - ks)
    for a, b in zip(complement, complement[1:]):
        if b == a + 1:
            raise InvalidIndexSetError(
                f"complement of the index set contains the consecutive pair "
                f"({a}, {b})",
                offending_pair=(a, b),
            )
    return ks


def _require_quotient(q: Matroid, lift: Matroid) -> None:
    if not is_quotient(q, lift):
        raise NotAQuotientError("first matroid is not a quotient of the second")


def higgs_lift(q: Matroid, lift: Matroid, i: int) -> Matroid:
    """The i-th Higgs lift of q toward lift.

    Bases are the sets of size r(q)+i that span q and are independent in
    the lift; i is clamped to q below 0 and to the lift above k.
    """
    _require_quotient(q, lift)
    k = lift.rank - q.rank
    if i <= 0:
        return q
    if i > k:
        return lift
    envelope = envelope_bitmap(q.system.family_bitmap, lift.system.family_bitmap, q.n)
    layer = envelope & layer_selectors(q.n)[q.rank + i]
    return Matroid(SetSystem.from_bitmap(q.labels, layer))


def build_higgs_dm(q: Matroid, lift: Matroid, index_set) -> SetSystem:
    """Union of the basis families of the Higgs lifts indexed by K.

    K must be nonempty, lie in [0, k], and have no two consecutive
    integers missing; the result satisfies the exchange axiom (verified
    in the test suite, not assumed here).
    """
    _require_quotient(q, lift)
    r = q.rank
    ks = validate_index_set(lift.rank - r, index_set)
    sel = layer_selectors(q.n)
    layers = 0
    for i in ks:
        layers |= sel[r + i]
    envelope = envelope_bitmap(q.system.family_bitmap, lift.system.family_bitmap, q.n)
    return SetSystem.from_bitmap(q.labels, envelope & layers)


@dataclass(frozen=True)
class HiggsClassification:
    """Outcome of the layer-by-layer Higgs test.

    kind is one of "not_higgs", "higgs", "full", "even"; index_set holds
    the occupied layer indices (relative to the minimal rank) when the
    system is a Higgs lift delta-matroid; failing_layer names the first
    offending cardinality otherwise.
    """

    kind: str
    index_set: frozenset[int] | None = None
    k: int | None = None
    failing_layer: int | None = None

    @property
    def is_higgs(self) -> bool:
        return self.kind != "not_higgs"

    @property
    def is_full(self) -> bool:
        return self.kind == "full"

    @property
    def is_even_higgs(self) -> bool:
        """Even Higgs lift delta-matroid: k and every index even, which
        a full lift is only at k = 0."""
        return self.kind == "even" or self.kind == "full" and self.k == 0


def classify_higgs(system: SetSystem) -> HiggsClassification:
    """Decide whether a delta-matroid is a Higgs lift delta-matroid.

    Each occupied size layer must coincide with the basis family of the
    corresponding Higgs lift of (D_min, D_max); the first layer where the
    feasibility criterion fails is reported.
    """
    require_min_max(system)
    return classify_higgs_bitmap(system.family_bitmap, system.n)


def classify_higgs_bitmap(bm: int, n: int) -> HiggsClassification:
    """classify_higgs of the delta-matroid with family bitmap bm over n
    elements; unspecified on a family that is not a delta-matroid.

    It rests on Bouchet (1987): the smallest and the largest feasible
    sets of a delta-matroid are the bases of two matroids D_min and D_max,
    and every feasible set spans D_min and is independent in D_max.  So
    the lowest and highest layers are read as D_min and D_max unchecked,
    and the layer test runs on their envelope.
    """
    sel = layer_selectors(n)
    sizes = [r for r in range(n + 1) if bm & sel[r]]
    envelope = envelope_bitmap(bm & sel[sizes[0]], bm & sel[sizes[-1]], n)
    return _classify_layers(bm, n, sizes, envelope)


def _classify_higgs_reference(system: SetSystem) -> HiggsClassification:
    """classify_higgs on min/max matroids built by min_max_matroids, the
    reference of the differential tests; the layer test is the kernel's."""
    lo, hi = min_max_matroids(system)
    envelope = envelope_bitmap(lo.system.family_bitmap, hi.system.family_bitmap, system.n)
    return _classify_layers(system.family_bitmap, system.n, system.layer_sizes, envelope)


def _classify_layers(bm: int, n: int, sizes: Sequence[int], envelope: int) -> HiggsClassification:
    """The Higgs layer test of the family bitmap bm with the given
    envelope, over its occupied sizes in ascending order: every occupied
    layer must be the envelope's layer of its size."""
    sel = layer_selectors(n)
    r_lo = sizes[0]
    for r in sizes:
        if bm & sel[r] != envelope & sel[r]:
            return HiggsClassification("not_higgs", failing_layer=r)
    k = sizes[-1] - r_lo
    ks = frozenset(r - r_lo for r in sizes)
    if len(ks) == k + 1:
        kind = "full"
    elif k % 2 == 0 and all(i % 2 == 0 for i in ks):
        kind = "even"
    else:
        kind = "higgs"
    return HiggsClassification(kind, index_set=ks, k=k)


def full_higgs_dm(q: Matroid, lift: Matroid) -> SetSystem:
    """The full Higgs lift delta-matroid of the pair (q, lift)."""
    k = lift.rank - q.rank
    return build_higgs_dm(q, lift, range(k + 1))
