"""Minor enumeration in the delete/contract normal form, the class table
of the excluded-minor characterizations and their membership classifier."""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from operator import itemgetter
from typing import Callable, Iterator, Sequence

from .bitset import iter_bits, layer_selectors, permute_mask
from .catalog import CatalogEntry, ExminorClassId, excluded_minor_set
from .errors import AmbientHypothesisError, CapacityError
from .higgs import classify_higgs
from .matroid import is_matroid
from .setsystem import SetSystem
from .stacks import classify_stack, is_matroid_stack


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


# Systems on at most TABLE_MAX_N elements look for minors on at most
# TABLE_MAX_M elements by table lookup instead of building each minor: the
# tables read a family bitmap of at most 32 bits as four bytes and hold
# 16-bit minor bitmaps.  Per split they take 2 KB, and the count of splits
# grows as 3^n, so larger systems project instead.
TABLE_MAX_N = 5
TABLE_MAX_M = 4
# Systems on TABLE_MAX_N < n <= PROJECTION_MAX_N elements find every proper
# minor by gathering its bitmap from the family bitmap, 2^m positions per
# split: 65 280 positions over every m < n at n = 8 (about 1.7 MB, built in
# about 30 ms).  Larger systems build each minor.
PROJECTION_MAX_N = 8


@lru_cache(maxsize=None)
def _split_tables(n: int, m: int) -> tuple[tuple[int, int, array], ...]:
    """(X, Y, table) per delete/contract split of an n-element ground set
    that leaves m elements, in enumerate_minors order.

    A family bitmap of up to 32 bits is read as four bytes; entry
    256 * j + b of the table is the bitmap, over the m kept elements, of the
    masks 8j..8j+7 selected by b that contain Y and avoid X, so OR-ing four
    lookups gives the bitmap of the minor S\\X/Y (0 when the split is
    invalid).
    """
    out = []
    for removed in combinations(range(n), n - m):
        kept = [i for i in range(n) if i not in removed]
        removed_mask = sum(1 << i for i in removed)
        bit_of = [1 << sum(1 << j for j, i in enumerate(kept) if f >> i & 1)
                  for f in range(1 << n)]
        for x, y in _removal_splits(removed):
            table = []
            for chunk in range(0, 32, 8):
                part = [0]
                for f in range(chunk, min(chunk + 8, 1 << n)):
                    if f & removed_mask == y:
                        bit = bit_of[f]
                        part += [v | bit for v in part]
                    else:
                        part += part
                table += part * (256 // len(part))
            out.append((x, y, array("H", table)))
    return tuple(out)


@lru_cache(maxsize=None)
def _split_projections(n: int, m: int) -> tuple[tuple[int, int, itemgetter], ...]:
    """(X, Y, gather) per delete/contract split of an n-element ground set
    that leaves m elements, in enumerate_minors order.

    The positions of a split are Y | expand(k) for k < 2^m, where expand
    puts bit j of k on the j-th kept element: k is a feasible set of
    S\\X/Y exactly when mask Y | expand(k) is feasible.  gather takes the
    positions from highest k to lowest, so on the family bitmap written as
    a bit string, bit p at index p, int("".join(gather(bits)), 2) is the
    minor bitmap (0 when the split is invalid).
    """
    out = []
    for removed in combinations(range(n), n - m):
        kept = [i for i in range(n) if i not in removed]
        expand = [sum(1 << kept[j] for j in iter_bits(k)) for k in range(1 << m)]
        for x, y in _removal_splits(removed):
            out.append((x, y, itemgetter(*[y | e for e in reversed(expand)])))
    return tuple(out)


def _orbit_index(pool: Sequence[CatalogEntry]) -> dict[int, CatalogEntry]:
    """Family bitmap of every relabelling of every target of a nonempty
    pool of same-size targets, mapped to the first target it relabels."""
    m = pool[0].system.n
    images = [[1 << permute_mask(f, perm) for f in range(1 << m)]
              for perm in permutations(range(m))]
    index: dict[int, CatalogEntry] = {}
    for t in pool:
        for image in images:
            index.setdefault(sum(image[f] for f in t.system.masks), t)
    return index


def _shape(bm: int, m: int) -> tuple[int, ...]:
    """Count of feasible sets of each size 0..m in a family bitmap over an
    m-element ground set; isomorphic systems have equal shapes."""
    return tuple((bm & selector).bit_count() for selector in layer_selectors(m))


@dataclass(frozen=True)
class _ScanPlan:
    """A target list grouped by ground-set size: the sizes, largest first,
    the orbit index of every group small enough for a bitmap lookup and,
    for every group, its targets by shape in list order."""

    targets: tuple[CatalogEntry, ...]
    sizes: tuple[int, ...]
    orbits: dict[int, dict[int, CatalogEntry]]
    shapes: dict[int, dict[tuple[int, ...], tuple[CatalogEntry, ...]]]

    @classmethod
    def of(cls, targets: tuple[CatalogEntry, ...]) -> _ScanPlan:
        by_size: dict[int, list[CatalogEntry]] = {}
        for t in targets:
            by_size.setdefault(t.system.n, []).append(t)
        orbits = {m: _orbit_index(pool) for m, pool in by_size.items() if m <= TABLE_MAX_M}
        shapes = {}
        for m, pool in by_size.items():
            by_shape: dict[tuple[int, ...], list[CatalogEntry]] = {}
            for t in pool:
                by_shape.setdefault(_shape(t.system.family_bitmap, m), []).append(t)
            shapes[m] = {shape: tuple(ts) for shape, ts in by_shape.items()}
        return cls(targets, tuple(sorted(by_size, reverse=True)), orbits, shapes)


# Scan plans keyed by the identities of the target entries.  A cached plan
# holds its entries, so no live object can take over one of their ids; the
# cache is emptied when full so that callers passing fresh entries on every
# call do not grow it without bound.
SCAN_PLAN_CACHE_SIZE = 64
_scan_plans: dict[tuple[int, ...], _ScanPlan] = {}


def _scan_plan(targets: Sequence[CatalogEntry]) -> _ScanPlan:
    key = tuple(map(id, targets))
    plan = _scan_plans.get(key)
    if plan is None:
        if len(_scan_plans) >= SCAN_PLAN_CACHE_SIZE:
            _scan_plans.clear()
        plan = _scan_plans[key] = _ScanPlan.of(tuple(targets))
    return plan


def _table_scan(
    system: SetSystem, m: int, orbit: dict[int, CatalogEntry]
) -> MinorWitness | None:
    bm = system.family_bitmap
    b0 = bm & 255
    b1 = 256 | bm >> 8 & 255
    b2 = 512 | bm >> 16 & 255
    b3 = 768 | bm >> 24
    for x, y, t in _split_tables(system.n, m):
        minor = t[b0] | t[b1] | t[b2] | t[b3]
        if minor:
            hit = orbit.get(minor)
            if hit is not None:
                return MinorWitness(system.members(x), system.members(y), hit.name)
    return None


def _first_isomorphic(
    minor: SetSystem, candidates: Sequence[CatalogEntry]
) -> CatalogEntry | None:
    """First candidate, in list order, isomorphic to the minor; the
    candidates have the minor's shape."""
    if minor.n <= 5:
        canon = minor.canonical_form()
        for t in candidates:
            if t.canonical == canon:
                return t
    else:
        for t in candidates:
            if minor.is_isomorphic(t.system):
                return t
    return None


def _projection_scan(system: SetSystem, m: int, plan: _ScanPlan) -> MinorWitness | None:
    n = system.n
    bits = format(system.family_bitmap, f"0{1 << n}b")[::-1]
    splits = _split_projections(n, m)
    orbit = plan.orbits.get(m)
    if orbit is not None:
        for x, y, gather in splits:
            hit = orbit.get(int("".join(gather(bits)), 2))
            if hit is not None:
                return MinorWitness(system.members(x), system.members(y), hit.name)
        return None
    shapes = plan.shapes[m]
    sizes = {sum(shape) for shape in shapes}
    full = (1 << n) - 1
    for x, y, gather in splits:
        minor = int("".join(gather(bits)), 2)
        if minor.bit_count() not in sizes:
            continue
        candidates = shapes.get(_shape(minor, m))
        if candidates is None:
            continue
        found = SetSystem(system.members(full ^ x ^ y), frozenset(iter_bits(minor)))
        hit = _first_isomorphic(found, candidates)
        if hit is not None:
            return MinorWitness(system.members(x), system.members(y), hit.name)
    return None


def _object_scan(system: SetSystem, m: int, plan: _ScanPlan) -> MinorWitness | None:
    shapes = plan.shapes[m]
    for dels, cons, minor in enumerate_minors(system, m):
        candidates = shapes.get(_shape(minor.family_bitmap, m))
        if candidates is not None:
            hit = _first_isomorphic(minor, candidates)
            if hit is not None:
                return MinorWitness(dels, cons, hit.name)
    return None


def has_minor_from(
    system: SetSystem, targets: Sequence[CatalogEntry]
) -> MinorWitness | None:
    """First minor of the system isomorphic to a target, or None.

    Minors are scanned by ground-set size, largest first; within a size in
    enumerate_minors order (removed sets lexicographically, then splits by
    (|X|, lex)); the witness names the first target, in list order,
    isomorphic to the first matching minor.  Three kernels give the same
    witness: minors on at most TABLE_MAX_M elements of systems on at most
    TABLE_MAX_N elements by table lookup, the other proper minors of
    systems on at most PROJECTION_MAX_N elements by projection of the
    family bitmap, and the rest (the whole system from five elements up,
    every minor of a larger system) by building each minor.
    """
    plan = _scan_plan(targets)
    n = system.n
    for m in plan.sizes:
        if m > n:
            continue
        if n <= TABLE_MAX_N and m <= TABLE_MAX_M:
            witness = _table_scan(system, m, plan.orbits[m])
        elif m == n or n > PROJECTION_MAX_N:
            witness = _object_scan(system, m, plan)
        else:
            witness = _projection_scan(system, m, plan)
        if witness is not None:
            return witness
    return None


def _always(system: SetSystem) -> bool:
    return True


def _is_dm(system: SetSystem) -> bool:
    return system.is_delta_matroid()


def _is_even_dm(system: SetSystem) -> bool:
    return system.is_even and system.is_delta_matroid()


@dataclass(frozen=True)
class ClassSpec:
    """One characterization "class X inside ambient Y": within the ambient,
    the direct oracle holds exactly when the system has no minor in the
    excluded-minor list of its class id.

    refusal is the AmbientHypothesisError message of classify_by_exminors
    outside the ambient (empty when every system is inside); theorem_id
    and description name the census theorem, None with the direct oracle
    for a class that has none.
    """

    ambient: Callable[[SetSystem], bool]
    refusal: str
    direct: Callable[[SetSystem], bool] | None
    theorem_id: str | None
    description: str | None


CLASS_TABLE: dict[ExminorClassId, ClassSpec] = {
    ExminorClassId.DELTA_MATROID: ClassSpec(
        _always, "", _is_dm,
        "exdelta", "delta-matroids within proper set systems"),
    ExminorClassId.EVEN_DELTA_WITHIN_EVEN: ClassSpec(
        lambda s: s.is_even, "system is not even", _is_dm,
        "exevendelta", "even delta-matroids within even proper systems"),
    ExminorClassId.EVEN_DELTA_WITHIN_ALL: ClassSpec(
        _always, "", _is_even_dm,
        "exevendelta2", "even delta-matroids within all proper systems"),
    ExminorClassId.MATROID_EQUICARDINAL: ClassSpec(
        lambda s: len({m.bit_count() for m in s.masks}) == 1,
        "feasible sets are not equicardinal", is_matroid,
        "exmatroid", "matroids within equicardinal proper systems"),
    ExminorClassId.HIGGS_LIFT: ClassSpec(
        _is_dm, "system is not a delta-matroid", lambda s: classify_higgs(s).is_higgs,
        "exhiggs", "Higgs lift delta-matroids within delta-matroids"),
    ExminorClassId.FULL_HIGGS: ClassSpec(
        _is_dm, "system is not a delta-matroid", lambda s: classify_higgs(s).is_full,
        "exfull", "full Higgs lift delta-matroids within delta-matroids"),
    ExminorClassId.EVEN_HIGGS_WITHIN_EVEN: ClassSpec(
        _is_even_dm, "system is not an even delta-matroid",
        lambda s: classify_higgs(s).is_even_higgs,
        "exevenhiggs", "even Higgs lift delta-matroids within even delta-matroids"),
    ExminorClassId.MATROID_STACK: ClassSpec(
        is_matroid_stack, "system is not a matroid stack system", _is_dm,
        "exmatroidstack", "matroid stack delta-matroids within matroid stack systems"),
    ExminorClassId.EVEN_MATROID_STACK: ClassSpec(
        lambda s: s.is_even and is_matroid_stack(s),
        "system is not an even matroid stack system", _is_dm,
        "exevenmatroidstack",
        "even matroid stack delta-matroids within even matroid stack systems"),
    # The layer classes call classify_stack for matroid stacks only.
    ExminorClassId.PAVING: ClassSpec(
        lambda s: is_matroid_stack(s) and classify_stack(s).paving_system,
        "system is not a paving set system", _is_dm,
        "expaving", "paving delta-matroids within paving systems"),
    ExminorClassId.SPARSE_PAVING: ClassSpec(
        lambda s: is_matroid_stack(s) and classify_stack(s).sparse_paving_system,
        "system is not a sparse paving set system", _is_dm,
        "exsparsepaving", "sparse paving delta-matroids within sparse paving systems"),
    ExminorClassId.QUOTIENT_STACK: ClassSpec(
        lambda s: is_matroid_stack(s) and classify_stack(s).quotient_system,
        "system is not a quotient set system", _is_dm,
        "exquotient", "quotient delta-matroids within quotient systems"),
    # Binary delta-matroids have no direct oracle here; gf2.is_binary_dm
    # scans the P-twists of this list.
    ExminorClassId.BINARY: ClassSpec(_always, "", None, None, None),
}


def classify_by_exminors(
    system: SetSystem, class_id: ExminorClassId, cap: int | None = None
) -> tuple[bool, MinorWitness | None]:
    """Membership verdict for a minor-closed class by excluded-minor scan.

    Raises AmbientHypothesisError when the side condition of the class
    fails, which is distinct from a negative scan verdict.  The cap for
    infinite excluded-minor families defaults to the scanned ground-set
    size (minors never gain elements); a cap below it raises
    CapacityError, since the excluded minors it drops could be minors of
    the system and a "member" verdict would be unsound.
    """
    if cap is None:
        cap = system.n
    elif cap < system.n:
        raise CapacityError(
            f"cap {cap} is below the ground-set size {system.n}: excluded minors "
            f"with more than {cap} elements would go unscanned, so a member "
            "verdict would be unsound"
        )
    cid = ExminorClassId(class_id)
    spec = CLASS_TABLE[cid]
    if not spec.ambient(system):
        raise AmbientHypothesisError(spec.refusal)
    witness = has_minor_from(system, excluded_minor_set(cid, cap))
    return witness is None, witness
