"""Minor enumeration in the delete/contract normal form, the class table
of the excluded-minor characterizations and their membership classifier."""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, compress
from typing import Callable, Iterable, Iterator, Sequence

from .bitset import iter_bits, layer_selectors, orbit, transposition
from .catalog import CatalogEntry, ExminorClassId, excluded_minor_set
from .errors import AmbientHypothesisError, CapacityError
from .higgs import classify_higgs, classify_higgs_bitmap
from .matroid import is_matroid
from .setsystem import BATCH, WORD_MAX_N, SetSystem, delta_matroid_bits
from .stacks import (equicardinal_bits, is_matroid_stack, matroid_layers, matroid_stack_bits,
                     paving_bits, quotient_bits, stack_flags)


@dataclass(frozen=True)
class MinorWitness:
    """A minor S\\X/Y isomorphic to a named target."""

    deleted: tuple[str, ...]
    contracted: tuple[str, ...]
    target_name: str

    def verify(self, system: SetSystem) -> bool:
        from .catalog import make_named

        minor = system.minor(self.deleted, self.contracted)
        return minor.is_isomorphic(make_named(self.target_name))


def _removal_splits(removed: tuple[int, ...]) -> Iterator[tuple[int, int]]:
    """(delete-mask, contract-mask) splits of a removed index tuple, in
    ascending delete-size then lexicographic order."""
    for dsize in range(len(removed) + 1):
        for dels in combinations(removed, dsize):
            x = sum(1 << i for i in dels)
            y = sum(1 << i for i in removed) ^ x
            yield x, y


def _valid(system: SetSystem, x: int, y: int) -> bool:
    return any(m & y == y and not m & x for m in system.masks)


def enumerate_minors(
    system: SetSystem, m: int
) -> Iterator[tuple[tuple[str, ...], tuple[str, ...], SetSystem]]:
    """Yield every valid (X, Y, S\\X/Y) with an m-element ground set.

    Scan order is deterministic: removed sets ascending lexicographically,
    then the delete/contract split by (|X|, lex).
    """
    n = system.n
    if not 0 <= m <= n:
        raise ValueError(f"minor size {m} outside [0, {n}]")
    for removed in combinations(range(n), n - m):
        for x, y in _removal_splits(removed):
            if _valid(system, x, y):
                dels = system.members(x)
                cons = system.members(y)
                yield dels, cons, system.minor(dels, cons) if x | y else system


# (removed set, delta swaps) per removed set of a relabelling walk.
_Moves = tuple[tuple[tuple[int, ...], tuple], ...]


def _relabel_moves(n: int, sets: Iterable[tuple[int, ...]]) -> _Moves:
    """(R, swaps) per removed set R of a sequence: the delta swaps
    (bitset.transposition) that take a family bitmap from the previous R's
    relabelling (at first the identity) to R's, with the kept elements on
    bits 0..m-1 and R on bits m..n-1, both in order.  The minor S\\X/Y of a
    split of R is then the 2^m-bit chunk j, j being Y written on R's
    bits."""
    out = []
    at = list(range(n))  # at[q] is the element on bit q
    for removed in sets:
        swaps = []
        for q, e in enumerate([i for i in range(n) if i not in removed] + list(removed)):
            p = at.index(e, q)
            if p != q:
                swaps.append(transposition(n, q, p))
                at[q], at[p] = e, at[q]
        out.append((removed, tuple(swaps)))
    return tuple(out)


@lru_cache(maxsize=None)
def _removal_moves(n: int, m: int) -> _Moves:
    """_relabel_moves of the removed sets of n - m elements in combinations
    order, the witness scan's.  At n = 7, m = 4 the 35 removed sets take
    58 swaps."""
    return _relabel_moves(n, combinations(range(n), n - m))


@lru_cache(maxsize=None)
def _identity_first_moves(n: int, m: int) -> _Moves:
    """_relabel_moves of the removed sets of n - m elements in reversed
    combinations order, the verdict scans': the first set, the last n - m
    elements, is the identity and costs no swap.  At n = 5 the removed sets
    take 12 swaps for m = 2 and 3 and 4 for m = 1 and 4, against 16 and 8
    in combinations order."""
    return _relabel_moves(n, reversed(list(combinations(range(n), n - m))))


@lru_cache(maxsize=None)
def _chunk_shifts(r: int, m: int) -> tuple[int, ...]:
    """Offsets j << m of the minor chunks of the splits of a removed set of
    r elements (_removal_moves), in split order."""
    return tuple(y << m for _, y in _removal_splits(tuple(range(r))))


def _split_of(removed: tuple[int, ...], j: int) -> tuple[int, int]:
    """(X, Y) of the split of a removed set whose Y is j on its bits."""
    y = sum(1 << removed[k] for k in iter_bits(j))
    return sum(1 << i for i in removed) ^ y, y


def _orbit_index(pool: Sequence[CatalogEntry]) -> dict[int, CatalogEntry]:
    """Family bitmap of every relabelling of every target of a pool of
    same-size targets, mapped to the first target, in pool order, it
    relabels."""
    index: dict[int, CatalogEntry] = {}
    for t in pool:
        for image in orbit(t.system.family_bitmap, t.system.n):
            index.setdefault(image, t)
    return index


class _LaneTables(dict):
    """The verdict kernels' lookup of m-element minors per m, built from
    the orbit index on first use: for m <= 3 a bytes.translate table, b to
    1 when a 2^m-bit chunk of b is in the index, else to 0; for m >= 4 the
    index as a frozenset, whose isdisjoint passes a miss twice as fast.
    The witness scan reads the orbit index alone and builds none."""

    def __init__(self, orbits: dict[int, dict[int, CatalogEntry]]) -> None:
        super().__init__()
        self.orbits = orbits

    def __missing__(self, m: int) -> bytes | frozenset[int]:
        index, full = self.orbits[m], (1 << (1 << m)) - 1
        table = self[m] = frozenset(index) if m > 3 else bytes(
            any(b >> k & full in index for k in range(0, 8, 1 << m)) for b in range(256))
        return table


@dataclass(frozen=True)
class _ScanPlan:
    """A target list grouped by ground-set size: the sizes, largest first,
    and per size the orbit index of its targets and its lane table."""

    targets: tuple[CatalogEntry, ...]
    sizes: tuple[int, ...]
    orbits: dict[int, dict[int, CatalogEntry]]
    lane_tables: _LaneTables = field(compare=False)

    @classmethod
    def of(cls, targets: tuple[CatalogEntry, ...]) -> _ScanPlan:
        by_size: dict[int, list[CatalogEntry]] = {}
        for t in targets:
            by_size.setdefault(t.system.n, []).append(t)
        orbits = {m: _orbit_index(pool) for m, pool in by_size.items()}
        return cls(targets, tuple(sorted(by_size, reverse=True)), orbits, _LaneTables(orbits))


# Scan plans keyed by the identity of a tuple of targets, and of any other
# sequence by the identities of its entries, so that a list changed in
# place gets a fresh plan.  A cached plan holds that tuple and its entries,
# so no live object can take over one of their ids; the cache is emptied
# when full so that callers passing fresh entries on every call do not grow
# it without bound.
SCAN_PLAN_CACHE_SIZE = 64
_scan_plans: dict[int | tuple[int, ...], _ScanPlan] = {}


def _scan_plan(targets: Sequence[CatalogEntry]) -> _ScanPlan:
    key = id(targets) if type(targets) is tuple else tuple(map(id, targets))
    plan = _scan_plans.get(key)
    if plan is None:
        if len(_scan_plans) >= SCAN_PLAN_CACHE_SIZE:
            _scan_plans.clear()
        plan = _scan_plans[key] = _ScanPlan.of(tuple(targets))
    return plan


# A scan hit: (delete mask X, contract mask Y, target) of a minor S\\X/Y.
_Hit = tuple[int, int, CatalogEntry]


def _chunk_scan(bm: int, n: int, m: int, plan: _ScanPlan) -> _Hit | None:
    """The first hit among the m-element minors of the family bitmap bm
    over n elements, each read as a chunk of bm relabelled by
    _removal_moves, looked up in the orbit index."""
    lookup = plan.orbits[m].get
    full = (1 << (1 << m)) - 1
    shifts = _chunk_shifts(n - m, m)
    p = bm
    for removed, swaps in _removal_moves(n, m):
        for shift, mask in swaps:
            t = (p ^ p >> shift) & mask
            p ^= t ^ t << shift
        for shift in shifts:
            hit = lookup(p >> shift & full)
            if hit is not None:
                return *_split_of(removed, shift >> m), hit
    return None


def _first_minor(bm: int, n: int, plan: _ScanPlan) -> _Hit | None:
    """(X, Y, target) of the first minor S\\X/Y of the family bitmap bm
    over n elements isomorphic to a target of the plan, or None.

    Minors are scanned by ground-set size, largest first; within a size in
    enumerate_minors order (removed sets lexicographically, then splits by
    (|X|, lex)); the hit names the first target, in list order, isomorphic
    to the first matching minor.  At every n the minors are the chunks of
    the relabelled family bitmap (_chunk_scan; the whole system is the one
    chunk of m = n), each looked up in the orbit index of its size.
    """
    for m in plan.sizes:
        if m <= n:
            found = _chunk_scan(bm, n, m, plan)
            if found is not None:
                return found
    return None


def _any_minor(bm: int, n: int, plan: _ScanPlan) -> bool:
    """_first_minor(bm, n, plan) is not None, with the minors scanned
    smallest first and the scan stopped at any hit: most families with a
    listed minor have a small one, which a largest-first scan meets only
    after every larger minor.  Each removed set of _identity_first_moves
    relabels bm, and all its chunks are read at once in the lane table of
    their size: for m <= 3 one translate of the bitmap's bytes, padded to
    a byte below three elements; else the two halves at m = n - 1, and
    otherwise a list of the chunks.  The whole family is looked up last."""
    width = max(1, 1 << n >> 3)
    for m in reversed(plan.sizes):
        if m >= n:
            continue
        table, p = plan.lane_tables[m], bm
        if m > 3:
            step = 1 << m
            full = (1 << step) - 1
        for _, swaps in _identity_first_moves(n, m):
            for shift, mask in swaps:
                t = (p ^ p >> shift) & mask
                p ^= t ^ t << shift
            if m <= 3:
                if 1 in p.to_bytes(width, "little").translate(table):
                    return True
            elif n - m == 1:
                if p & full in table or p >> step in table:
                    return True
            elif not table.isdisjoint([p >> s & full for s in range(0, 1 << n, step)]):
                return True
    return bm in plan.orbits.get(n, ())


# The lane kernel of no_minor_bits packs a batch of up to BATCH family
# indices over n <= WORD_MAX_N elements into one int, a lane of max(8, 2^n)
# bits a family, and makes each swap of _identity_first_moves on every
# lane, its mask repeated in each: no mask bit lies at or above 2^n in its
# lane, so no bit crosses lanes.  The chunks then read as in _any_minor;
# invalid splits and the padding of n < 3 read as 0, which no orbit index
# holds.
_NO_HIT = bytes([1]) + bytes(255)  # translate: byte 0 to 1, any other to 0


@lru_cache(maxsize=None)
def _lane_moves(n: int, m: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The swaps of _identity_first_moves(n, m) per removed set, each mask
    repeated in BATCH lanes of max(8, 2^n) bits."""
    width = max(1, 1 << n >> 3)
    return tuple(tuple((shift, int.from_bytes(mask.to_bytes(width, "little") * BATCH, "little"))
                       for shift, mask in swaps) for _, swaps in _identity_first_moves(n, m))


def _lane_hits(indices: Sequence[int], n: int, m: int, plan: _ScanPlan) -> bytes:
    """A byte per family of a batch of at most BATCH, nonzero when an
    m-element minor is in the orbit index: per removed set, one translate
    of the chunks (m <= 3, they tile bytes) or a lookup per 16-bit chunk;
    at m = n the family itself."""
    if m == n:
        return bytes(map(plan.orbits[n].__contains__, indices))
    width = max(1, 1 << n >> 3)  # bytes a lane
    lanes = array("BHI"[width.bit_length() - 1], indices)
    if sys.byteorder != "little":
        lanes.byteswap()
    p = int.from_bytes(lanes, "little")
    table = plan.lane_tables[m]
    hits = 0
    for swaps in _lane_moves(n, m):
        for shift, mask in swaps:
            t = (p ^ p >> shift) & mask
            p ^= t ^ t << shift
        raw = p.to_bytes(len(lanes) * width, "little")
        if m <= 3:
            hits |= int.from_bytes(raw.translate(table), "little")
            continue
        chunks = array("H", raw)
        if sys.byteorder != "little":
            chunks.byteswap()
        if not table.isdisjoint(chunks):
            hits |= int.from_bytes(bytes(map(table.__contains__, chunks)), "little")
    stride = width if m <= 3 else 2  # hit bytes a lane, OR-ed into its first
    for step in (8, 16)[:stride.bit_length() - 1]:
        hits |= hits >> step
    return hits.to_bytes(len(lanes) * stride, "little")[::stride]


def has_minor_from(
    system: SetSystem, targets: Sequence[CatalogEntry]
) -> MinorWitness | None:
    """First minor of the system isomorphic to a target, or None; the scan
    order is that of _first_minor."""
    found = _first_minor(system.family_bitmap, system.n, _scan_plan(targets))
    if found is None:
        return None
    x, y, hit = found
    return MinorWitness(system.members(x), system.members(y), hit.name)


def no_minor_bits(indices: Sequence[int], n: int, targets: Sequence[CatalogEntry]) -> int:
    """Bitmask over a batch of family indices of an n-element ground set:
    bit b is set when has_minor_from(system, targets) is None for the
    system of indices[b].  The verdict alone; no witness is built.  Up to
    WORD_MAX_N elements the lane kernel decides slices of BATCH, the sizes
    smallest first, each on the families with no hit yet; above that
    _any_minor decides each family."""
    plan = _scan_plan(targets)
    if n > WORD_MAX_N:
        return sum(1 << b for b, index in enumerate(indices) if not _any_minor(index, n, plan))
    out = 0
    for lo in range(0, len(indices), BATCH):
        batch = indices[lo:lo + BATCH]
        where = range(lo, lo + len(batch))
        for m in reversed(plan.sizes):
            if m <= n and batch:
                keep = _lane_hits(batch, n, m, plan).translate(_NO_HIT)
                batch, where = list(compress(batch, keep)), list(compress(where, keep))
        out |= sum(map((1).__lshift__, where))
    return out


# An index form decides a property for a batch of family indices of an
# n-element ground set, at any n, with no SetSystem built by the census: it
# returns the bitmask of the batch positions where the property holds.
IndexForm = Callable[[Sequence[int], int], int]
# A census predicate, declared once as (index form, SetSystem form); the
# census runs the index form, and the SetSystem form is the object API and
# the reference.  A census column is (totals key, *predicate).
Predicate = tuple[IndexForm, Callable[[SetSystem], bool]]
Column = tuple[str, IndexForm, Callable[[SetSystem], bool]]


def index_form(pred: Callable[[int, int], bool]) -> IndexForm:
    """The index form that decides pred(index, n) family by family."""
    return lambda indices, n: sum(1 << b for b, i in enumerate(indices) if pred(i, n))


def every_index(indices: Sequence[int], n: int) -> int:
    return (1 << len(indices)) - 1


@lru_cache(maxsize=None)
def _odd_sets(n: int) -> int:
    return sum(layer_selectors(n)[1::2])


def is_even_index(index: int, n: int) -> bool:
    """SetSystem.is_even of a nonempty family index: every feasible set
    even, or every one odd."""
    odd = _odd_sets(n)
    return not index & odd or not index & ~odd


def both(first: Predicate, second: Predicate) -> Predicate:
    """The conjunction of two predicates with index forms; the second is
    decided only on the families where the first holds."""
    (first_index, first_system), (second_index, second_system) = first, second

    def index(indices: Sequence[int], n: int) -> int:
        where = list(iter_bits(first_index(indices, n)))
        bits = second_index([indices[b] for b in where], n) if where else 0
        return sum(1 << where[j] for j in iter_bits(bits))

    return index, lambda s: first_system(s) and second_system(s)


def _stack_flag(k: int, index: IndexForm) -> Predicate:
    """Flag k of stack_flags (1 paving, 2 sparse paving, 3 quotient), with
    its batched index form; the SetSystem form reads the memo."""
    return index, lambda s: is_matroid_stack(s) and stack_flags(s.family_bitmap, s.n)[k]


# The census predicates.  The SetSystem forms of EVEN, EQUICARDINAL, DELTA
# and MATROID are the independent references of the index forms.
ALWAYS: Predicate = (every_index, lambda s: True)
EVEN: Predicate = (index_form(is_even_index), lambda s: s.is_even)
DELTA: Predicate = (delta_matroid_bits, lambda s: s.is_delta_matroid())
EVEN_DELTA = both(EVEN, DELTA)
EQUICARDINAL: Predicate = (equicardinal_bits, lambda s: len(s.layer_sizes) == 1)
MATROID: Predicate = (index_form(lambda i, n: i in matroid_layers(n)), is_matroid)
MATROID_STACK: Predicate = (matroid_stack_bits, is_matroid_stack)
EVEN_MATROID_STACK = both(EVEN, MATROID_STACK)
PAVING = _stack_flag(1, paving_bits)
SPARSE_PAVING = _stack_flag(2, lambda indices, n: paving_bits(indices, n, sparse=True))
QUOTIENT = _stack_flag(3, quotient_bits)
# The Higgs index forms run the classify_higgs kernel, which assumes a
# delta-matroid: every Higgs column is decided inside a DELTA ambient.
HIGGS: Predicate = (index_form(lambda i, n: classify_higgs_bitmap(i, n).is_higgs),
                    lambda s: classify_higgs(s).is_higgs)
FULL_HIGGS: Predicate = (index_form(lambda i, n: classify_higgs_bitmap(i, n).is_full),
                         lambda s: classify_higgs(s).is_full)
EVEN_HIGGS: Predicate = (index_form(lambda i, n: classify_higgs_bitmap(i, n).is_even_higgs),
                         lambda s: classify_higgs(s).is_even_higgs)


@dataclass(frozen=True)
class ClassSpec:
    """One characterization "class X inside ambient Y": within the ambient,
    the direct oracle holds exactly when the system has no minor in the
    excluded-minor list of its class id.

    class_id is None for a census row that is not an excluded-minor class,
    whose exminor oracle always holds.  refusal is the
    AmbientHypothesisError message of classify_by_exminors outside the
    ambient (empty when every system is inside); theorem_id and description
    name the census theorem, None with the direct oracle for a class that
    has none.  The ambient and direct oracles are predicates: an index form
    the census runs on family indices and a SetSystem form.
    """

    class_id: ExminorClassId | None
    theorem_id: str | None
    description: str | None
    refusal: str
    ambient_index: IndexForm
    ambient: Callable[[SetSystem], bool]
    direct_index: IndexForm | None
    direct: Callable[[SetSystem], bool] | None

    def exminor(self, system: SetSystem) -> bool:
        """No minor of the system in the class's list capped at its
        ground-set size; the census asks inside the ambient only."""
        if self.class_id is None:
            return True
        plan = _scan_plan(excluded_minor_set(self.class_id, system.n))
        return not _any_minor(system.family_bitmap, system.n, plan)

    def exminor_index(self, indices: Sequence[int], n: int) -> int:
        if self.class_id is None:
            return every_index(indices, n)
        return no_minor_bits(indices, n, excluded_minor_set(self.class_id, n))

    @property
    def columns(self) -> tuple[Column, Column, Column]:
        return (("ambient", self.ambient_index, self.ambient),
                ("direct_members", self.direct_index, self.direct),
                ("exminor_members", self.exminor_index, self.exminor))


_C = ExminorClassId
CLASS_TABLE: dict[ExminorClassId, ClassSpec] = {spec.class_id: spec for spec in (
    ClassSpec(_C.DELTA_MATROID, "exdelta", "delta-matroids within proper set systems",
              "", *ALWAYS, *DELTA),
    ClassSpec(_C.EVEN_DELTA_WITHIN_EVEN, "exevendelta",
              "even delta-matroids within even proper systems",
              "system is not even", *EVEN, *DELTA),
    ClassSpec(_C.EVEN_DELTA_WITHIN_ALL, "exevendelta2",
              "even delta-matroids within all proper systems",
              "", *ALWAYS, *EVEN_DELTA),
    ClassSpec(_C.MATROID_EQUICARDINAL, "exmatroid", "matroids within equicardinal proper systems",
              "feasible sets are not equicardinal", *EQUICARDINAL, *MATROID),
    ClassSpec(_C.HIGGS_LIFT, "exhiggs", "Higgs lift delta-matroids within delta-matroids",
              "system is not a delta-matroid", *DELTA, *HIGGS),
    ClassSpec(_C.FULL_HIGGS, "exfull", "full Higgs lift delta-matroids within delta-matroids",
              "system is not a delta-matroid", *DELTA, *FULL_HIGGS),
    ClassSpec(_C.EVEN_HIGGS_WITHIN_EVEN, "exevenhiggs",
              "even Higgs lift delta-matroids within even delta-matroids",
              "system is not an even delta-matroid", *EVEN_DELTA, *EVEN_HIGGS),
    ClassSpec(_C.MATROID_STACK, "exmatroidstack",
              "matroid stack delta-matroids within matroid stack systems",
              "system is not a matroid stack system", *MATROID_STACK, *DELTA),
    ClassSpec(_C.EVEN_MATROID_STACK, "exevenmatroidstack",
              "even matroid stack delta-matroids within even matroid stack systems",
              "system is not an even matroid stack system", *EVEN_MATROID_STACK, *DELTA),
    ClassSpec(_C.PAVING, "expaving", "paving delta-matroids within paving systems",
              "system is not a paving set system", *PAVING, *DELTA),
    ClassSpec(_C.SPARSE_PAVING, "exsparsepaving",
              "sparse paving delta-matroids within sparse paving systems",
              "system is not a sparse paving set system", *SPARSE_PAVING, *DELTA),
    ClassSpec(_C.QUOTIENT_STACK, "exquotient", "quotient delta-matroids within quotient systems",
              "system is not a quotient set system", *QUOTIENT, *DELTA),
    # Binary delta-matroids have no direct oracle here; gf2.is_binary_dm
    # scans the P-twists of this list.
    ClassSpec(_C.BINARY, None, None, "", *ALWAYS, None, None),
)}


def classify_by_exminors(
    system: SetSystem, class_id: ExminorClassId, cap: int | None = None
) -> tuple[bool, MinorWitness | None]:
    """Membership verdict for a minor-closed class by excluded-minor scan.

    Raises ImproperSystemError on an empty family, which no class holds,
    and AmbientHypothesisError when the side condition of the class
    fails, which is distinct from a negative scan verdict.  Minors never
    gain elements, so the list is scanned up to the ground-set size
    whatever the cap for infinite excluded-minor families; a cap below the
    ground-set size raises CapacityError, since the excluded minors it
    drops could be minors of the system and a "member" verdict would be
    unsound.
    """
    system._require_proper()
    if cap is not None and cap < system.n:
        raise CapacityError(
            f"cap {cap} is below the ground-set size {system.n}: excluded minors "
            f"with more than {cap} elements would go unscanned, so a member "
            "verdict would be unsound"
        )
    cid = ExminorClassId(class_id)
    spec = CLASS_TABLE[cid]
    if not spec.ambient(system):
        raise AmbientHypothesisError(spec.refusal)
    witness = has_minor_from(system, excluded_minor_set(cid, system.n))
    return witness is None, witness
