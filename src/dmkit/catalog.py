"""Named set systems, twist-class tables, and the excluded-minor lists of
the characterization theorems."""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .bitset import iter_bits, orbit
from .errors import CapacityError, UnknownNameError
from .setsystem import SetSystem

TWIST_CLASS_CAP = 8

# Fixed small systems: label string (one character per element), feasible
# families as member strings ("" is the empty set).
_FIXED: dict[str, tuple[str, tuple[str, ...]]] = {
    "S2": ("ab", ("", "ab")),
    "T1": ("abc", ("", "ab", "abc")),
    "T2": ("abc", ("", "ab", "ac", "abc")),
    "T3": ("abc", ("", "a", "ab", "abc")),
    "T4": ("abc", ("", "a", "ab", "ac", "abc")),
    "T5": ("abcd", ("", "ab", "abcd")),
    "T6": ("abcd", ("", "ab", "ac", "abcd")),
    "T7": ("abcd", ("", "ab", "ac", "ad", "abcd")),
    "T8": ("abcd", ("", "a", "ab", "ac", "ad", "abcd")),
    "U1": ("ab", ("", "a", "ab")),
    "U2": ("abc", ("", "c", "ab", "abc")),
    # U3..U7: empty set, the ground set, and the edges of the graphs G3..G7.
    "U3": ("abcd", ("", "abcd", "ab", "cd")),
    "U4": ("abcd", ("", "abcd", "ab", "bc", "cd")),
    "U5": ("abcd", ("", "abcd", "ab", "bc", "ad", "cd")),
    "U6": ("abcd", ("", "abcd", "ab", "bc", "ac", "ad")),
    "U7": ("abcd", ("", "abcd", "ab", "bc", "ac", "cd", "ad")),
    "P1": ("abc", ("", "ab", "ac", "bc", "abc")),
    "P2": ("abc", ("", "a", "b", "c", "ab", "ac", "bc")),
    "P3": ("abc", ("", "b", "c", "ab", "ac", "abc")),
    "P4": ("abcd", ("", "ab", "ac", "ad", "bc", "bd", "cd")),
    "P5": ("abcd", ("", "ab", "ad", "bc", "cd", "abcd")),
}

_SK_RE = re.compile(r"^S_?(\d+)$")
_NAME_RE = re.compile(r"^(?P<base>[A-Za-z]\w*?)(?:\*(?P<twist>.*))?$")


def _base_system(name: str) -> SetSystem:
    if name in _FIXED:
        labels, fam = _FIXED[name]
        return SetSystem.from_sets(tuple(labels), [list(fs) for fs in fam])
    m = _SK_RE.match(name)
    if m:
        k = int(m.group(1))
        if k < 1:
            raise UnknownNameError(f"S_{k} needs k >= 1")
        if k == 2:
            return _base_system("S2")
        labels = tuple(f"e{i}" for i in range(1, k + 1))
        return SetSystem(labels, frozenset({0, (1 << k) - 1}))
    raise UnknownNameError(f"unknown catalog name {name!r}")


def make_named(name: str) -> SetSystem:
    """Build a named system; ``X*{a,c}``, ``X*a`` and ``X*`` (dual) twist
    syntax is accepted on top of the base names."""
    m = _NAME_RE.match(name.strip())
    if not m:
        raise UnknownNameError(f"cannot parse catalog name {name!r}")
    base = _base_system(m.group("base"))
    twist = m.group("twist")
    if twist is None:
        return base
    twist = twist.strip()
    if twist == "":
        return base.dual()
    if twist.startswith("{"):
        if not twist.endswith("}"):
            raise UnknownNameError(f"malformed twist set in {name!r}")
        parts = [p.strip() for p in twist[1:-1].split(",") if p.strip()]
    else:
        parts = [twist]
    for p in parts:
        if p not in base.labels:
            raise UnknownNameError(f"twist element {p!r} not in ground set of {name!r}")
    return base.twist(parts)


@dataclass(frozen=True)
class CatalogEntry:
    """A named excluded-minor system."""

    name: str
    system: SetSystem


def _twist_name(base: str, members: tuple[str, ...], n: int) -> str:
    if not members:
        return base
    if len(members) == n:
        return f"{base}*"
    if len(members) == 1:
        return f"{base}*{members[0]}"
    return f"{base}*{{{','.join(members)}}}"


def twist_classes(system: SetSystem, base_name: str = "S") -> list[CatalogEntry]:
    """All twists of a system up to isomorphism.

    Each class is represented by its (size, lexicographic) smallest twist
    set; the dual partner of a class is named by the complement of that
    representative, following the appendix table conventions.  Classes are
    returned ordered by (representative size, members).  A class is the
    relabelling orbit of its representative twist, which holds every twist
    of the class; the orbit is walked only when a twist not yet in a class
    shares the representative's _relabelling_invariant.
    """
    n = system.n
    if n > TWIST_CLASS_CAP:
        raise CapacityError(f"twist enumeration capped at {TWIST_CLASS_CAP} elements")
    order = sorted(range(1 << n), key=lambda a: (a.bit_count(), system.members(a)))
    twisted = {a: system.twist(system.members(a)) for a in order}
    invariant = {a: _relabelling_invariant(twisted[a].family_bitmap, n) for a in order}
    reps: list[int] = []
    class_of: dict[int, int] = {}  # twist mask -> its class's representative
    for a in order:
        if a in class_of:
            continue
        reps.append(a)
        alike = [b for b in order if b not in class_of and invariant[b] == invariant[a]]
        images = orbit(twisted[a].family_bitmap, n) if alike[1:] else {twisted[a].family_bitmap}
        for b in alike:
            if twisted[b].family_bitmap in images:
                class_of[b] = a
    # Dual pairing: the dual of the class of A is the class of A ^ E.
    full = (1 << n) - 1
    names: dict[int, str] = {}
    for rep in reps:
        if rep in names:
            continue
        names[rep] = _twist_name(base_name, system.members(rep), n)
        partner = class_of[rep ^ full]
        if partner != rep:
            names[partner] = _twist_name(base_name, system.members(rep ^ full), n)
    return [CatalogEntry(names[rep], twisted[rep]) for rep in reps]


def _relabelling_invariant(bm: int, n: int) -> tuple[int, tuple[int, ...]]:
    """A cheap relabelling invariant of a family bitmap over n elements:
    the number of its sets of each size and, per element, of those holding
    it, sorted over the elements; each number is an n-bit digit (< 2^n)."""
    total, holding = 0, [0] * n
    for m in iter_bits(bm):
        digit = 1 << n * m.bit_count()
        total += digit
        for e in iter_bits(m):
            holding[e] += digit
    return total, tuple(sorted(holding))


class ExminorClassId(Enum):
    """One identifier per excluded-minor characterization."""

    DELTA_MATROID = "delta"
    EVEN_DELTA_WITHIN_EVEN = "even-delta"
    EVEN_DELTA_WITHIN_ALL = "even-delta-all"
    HIGGS_LIFT = "higgs"
    FULL_HIGGS = "full-higgs"
    EVEN_HIGGS_WITHIN_EVEN = "even-higgs"
    MATROID_EQUICARDINAL = "matroid"
    BINARY = "binary"
    MATROID_STACK = "matroid-stack"
    EVEN_MATROID_STACK = "even-matroid-stack"
    PAVING = "paving"
    SPARSE_PAVING = "sparse-paving"
    QUOTIENT_STACK = "quotient-stack"


def _named_entries(names: list[str]) -> list[CatalogEntry]:
    return [CatalogEntry(name, make_named(name)) for name in names]


@lru_cache(maxsize=None)
def _twist_class_entries(base: str) -> tuple[CatalogEntry, ...]:
    return tuple(twist_classes(make_named(base), base))


@lru_cache(maxsize=None)
def binary_twist_classes(cap: int) -> tuple[CatalogEntry, ...]:
    """The twist classes of the five binary excluded minors P1..P5 with at
    most cap elements: the head of the binary list."""
    return tuple(e for base in ("P1", "P2", "P3", "P4", "P5")
                 for e in _twist_class_entries(base) if e.system.n <= cap)


def _t_classes(indices) -> list[CatalogEntry]:
    out: list[CatalogEntry] = []
    for i in indices:
        out.extend(_twist_class_entries(f"T{i}"))
    return out


def _s_twist_reps(k: int, sizes) -> list[CatalogEntry]:
    """The twists of S_k by its first j elements, j in sizes.  S_k is
    symmetric, so j determines the class, and the j- and (k - j)-twists
    are the same class: callers pass sizes j <= k/2."""
    base = make_named(f"S_{k}")
    members = [base.labels[:j] for j in sizes]
    return [CatalogEntry(_twist_name(f"S_{k}", m, k), base.twist(m)) for m in members]


# Explicit per-corollary twist lists for T5..T8 (matroid-stack flavors).
_STACK_T_LISTS = {
    5: ["T5", "T5*a", "T5*{b,c,d}"],
    6: ["T6", "T6*a", "T6*b", "T6*{b,c,d}"],
    7: ["T7", "T7*a", "T7*b", "T7*{a,c,d}", "T7*{b,c,d}", "T7*"],
    8: ["T8", "T8*a", "T8*b", "T8*{a,c,d}", "T8*{b,c,d}", "T8*"],
}

_PAVING_LISTS = [
    "T1*{b,c}", "T1*",
    "T2", "T2*{a,b}", "T2*{b,c}", "T2*",
    "T3*b", "T3*{b,c}",
    "T4", "T4*b", "T4*{a,c}", "T4*{b,c}",
    "T6*{b,c,d}",
    "T7", "T7*b", "T7*{b,c,d}",
    "T8", "T8*{b,c,d}",
]

_SPARSE_PAVING_LIST = ["T2", "T2*", "T3*b", "T4*b", "T4*{a,c}"]

_QUOTIENT_LIST = [
    "T1", "T1*", "T2", "T2*", "T3", "T4", "T4*",
    "T5", "T6", "T7", "T7*", "T8", "T8*",
]

# The paving, sparse-paving and quotient lists follow the plain S_k, k >= 3.
_LAYER_CLASS_LISTS = {
    ExminorClassId.PAVING: _PAVING_LISTS,
    ExminorClassId.SPARSE_PAVING: _SPARSE_PAVING_LIST,
    ExminorClassId.QUOTIENT_STACK: _QUOTIENT_LIST,
}


@lru_cache(maxsize=None)
def excluded_minor_set(class_id: ExminorClassId, cap: int = 8) -> tuple[CatalogEntry, ...]:
    """The (cap-truncated) excluded-minor list for one characterization.

    The cap bounds the ground-set size of entries drawn from the infinite
    S_k families; finite entries larger than the cap are dropped as well
    since nothing of that size can appear in a smaller system.
    """
    cid = ExminorClassId(class_id)
    entries: list[CatalogEntry] = []
    if cid is ExminorClassId.DELTA_MATROID:
        for k in range(3, cap + 1):
            entries += _s_twist_reps(k, range(k // 2 + 1))
        entries += _t_classes(range(1, 9))
    elif cid is ExminorClassId.EVEN_DELTA_WITHIN_EVEN:
        for k in range(4, cap + 1, 2):
            entries += _s_twist_reps(k, range(k // 2 + 1))
        entries += _t_classes([5, 6, 7])
    elif cid is ExminorClassId.EVEN_DELTA_WITHIN_ALL:
        entries += _named_entries(["S1"])
        for k in range(3, cap + 1):
            entries += _s_twist_reps(k, range(k // 2 + 1))
        entries += _t_classes([5, 6, 7])
    elif cid is ExminorClassId.HIGGS_LIFT:
        entries += _named_entries(["U1", "U2", "U3", "U4", "U5", "U6", "U7"])
    elif cid is ExminorClassId.FULL_HIGGS:
        entries += _named_entries(["U1", "S2"])
    elif cid is ExminorClassId.EVEN_HIGGS_WITHIN_EVEN:
        entries += _named_entries(["U3", "U4", "U5", "U6", "U7"])
    elif cid is ExminorClassId.MATROID_EQUICARDINAL:
        entries += _named_entries(["T5*{a,d}", "T6*{a,d}"])
        for k in range(2, cap // 2 + 1):
            entries += _s_twist_reps(2 * k, [k])
    elif cid is ExminorClassId.BINARY:
        return binary_twist_classes(cap) + excluded_minor_set(ExminorClassId.DELTA_MATROID, cap)
    elif cid is ExminorClassId.MATROID_STACK:
        for k in range(3, cap + 1):
            entries += _s_twist_reps(k, range((k + 1) // 2))
        entries += _t_classes([1, 2, 3, 4])
        for i in (5, 6, 7, 8):
            entries += _named_entries(_STACK_T_LISTS[i])
    elif cid is ExminorClassId.EVEN_MATROID_STACK:
        for k2 in range(4, cap + 1, 2):
            entries += _s_twist_reps(k2, range((k2 + 1) // 2))
        for i in (5, 6, 7):
            entries += _named_entries(_STACK_T_LISTS[i])
    elif cid in _LAYER_CLASS_LISTS:
        for k in range(3, cap + 1):
            entries += _s_twist_reps(k, [0])
        entries += _named_entries(_LAYER_CLASS_LISTS[cid])
    return tuple(e for e in entries if e.system.n <= cap)
