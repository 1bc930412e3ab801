"""Minor enumeration in the delete/contract normal form and the
excluded-minor membership classifiers."""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterator, Sequence

from .bitset import permute_mask
from .catalog import CatalogEntry, ExminorClassId, excluded_minor_set
from .errors import AmbientHypothesisError, CapacityError
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
# grows as 3^n, so larger systems keep building each minor.
TABLE_MAX_N = 5
TABLE_MAX_M = 4


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


@dataclass(frozen=True)
class _ScanPlan:
    """A target list grouped by ground-set size, largest first, with the
    orbit index of every group small enough for the table scan."""

    targets: tuple[CatalogEntry, ...]
    pools: tuple[tuple[int, tuple[CatalogEntry, ...]], ...]
    orbits: dict[int, dict[int, CatalogEntry]]

    @classmethod
    def of(cls, targets: tuple[CatalogEntry, ...]) -> _ScanPlan:
        by_size: dict[int, list[CatalogEntry]] = {}
        for t in targets:
            by_size.setdefault(t.system.n, []).append(t)
        pools = tuple((m, tuple(by_size[m])) for m in sorted(by_size, reverse=True))
        orbits = {m: _orbit_index(pool) for m, pool in pools if m <= TABLE_MAX_M}
        return cls(targets, pools, orbits)


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


def _object_scan(
    system: SetSystem, m: int, pool: Sequence[CatalogEntry]
) -> MinorWitness | None:
    for dels, cons, minor in enumerate_minors(system, m):
        sig = minor.size_signature
        candidates = [t for t in pool if t.system.size_signature == sig]
        if not candidates:
            continue
        if m <= 5:
            canon = minor.canonical_form()
            for t in candidates:
                if t.canonical == canon:
                    return MinorWitness(dels, cons, t.name)
        else:
            for t in candidates:
                if minor.is_isomorphic(t.system):
                    return MinorWitness(dels, cons, t.name)
    return None


def has_minor_from(
    system: SetSystem, targets: Sequence[CatalogEntry]
) -> MinorWitness | None:
    """First minor of the system isomorphic to a target, or None.

    Minors are scanned by ground-set size, largest first; within a size in
    enumerate_minors order (removed sets lexicographically, then splits by
    (|X|, lex)); the witness names the first target, in list order,
    isomorphic to the first matching minor.  Systems on at most TABLE_MAX_N
    elements scan minors on at most TABLE_MAX_M elements by table lookup;
    the others build each minor, and both give the same witness.
    """
    plan = _scan_plan(targets)
    n = system.n
    tables = n <= TABLE_MAX_N
    for m, pool in plan.pools:
        if m > n:
            continue
        if tables and m <= TABLE_MAX_M:
            witness = _table_scan(system, m, plan.orbits[m])
        else:
            witness = _object_scan(system, m, pool)
        if witness is not None:
            return witness
    return None


def _ambient_ok(system: SetSystem, class_id: ExminorClassId) -> tuple[bool, str]:
    """Check the side condition a classifier imposes on its inputs."""
    cid = ExminorClassId(class_id)
    if cid in (ExminorClassId.DELTA_MATROID, ExminorClassId.EVEN_DELTA_WITHIN_ALL,
               ExminorClassId.BINARY):
        return True, ""
    if cid is ExminorClassId.EVEN_DELTA_WITHIN_EVEN:
        return system.is_even, "system is not even"
    if cid in (ExminorClassId.HIGGS_LIFT, ExminorClassId.FULL_HIGGS):
        return system.is_delta_matroid(), "system is not a delta-matroid"
    if cid is ExminorClassId.EVEN_HIGGS_WITHIN_EVEN:
        return (
            system.is_even and system.is_delta_matroid(),
            "system is not an even delta-matroid",
        )
    if cid is ExminorClassId.MATROID_EQUICARDINAL:
        sizes = {m.bit_count() for m in system.masks}
        return len(sizes) == 1, "feasible sets are not equicardinal"
    stack = is_matroid_stack(system)
    if cid is ExminorClassId.MATROID_STACK:
        return stack, "system is not a matroid stack system"
    if cid is ExminorClassId.EVEN_MATROID_STACK:
        return (
            system.is_even and stack,
            "system is not an even matroid stack system",
        )
    flags = classify_stack(system) if stack else None
    if cid is ExminorClassId.PAVING:
        return stack and flags.paving_system, "system is not a paving set system"
    if cid is ExminorClassId.SPARSE_PAVING:
        return stack and flags.sparse_paving_system, "system is not a sparse paving set system"
    if cid is ExminorClassId.QUOTIENT_STACK:
        return stack and flags.quotient_system, "system is not a quotient set system"
    raise ValueError(f"unhandled class id {class_id}")


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
    ok, why = _ambient_ok(system, class_id)
    if not ok:
        raise AmbientHypothesisError(why)
    witness = has_minor_from(system, excluded_minor_set(ExminorClassId(class_id), cap))
    return witness is None, witness
