"""Proper set systems: twists, minors, the symmetric exchange axiom,
isomorphism, and (de)serialization.

A set system is an ordered tuple of element labels together with a family
of feasible subsets encoded as bitmasks against the label order.  Values
are immutable and all operations are pure functions, so instances may be
shared freely across threads.
"""

from __future__ import annotations

import json
import sys
from array import array
from enum import Enum
from functools import cached_property, lru_cache
from itertools import permutations
from typing import Iterable, Sequence

from .bitset import (family_to_bitmap, format_members, iter_bits, layer_selectors,
                     masks_without_bit, permute_mask, relabellings)
from .errors import (
    CapacityError,
    FormatError,
    ImproperSystemError,
    InvalidMinorError,
    UnknownElementError,
)

# Canonicalization walks all n! relabellings; it is meant for small ground sets.
PERMUTATION_CAP = 10


class ElementStatus(Enum):
    LOOP = "loop"
    COLOOP = "coloop"
    NEITHER = "neither"


def _check_labels(labels: tuple[str, ...]) -> None:
    if len(set(labels)) != len(labels):
        raise FormatError("duplicate element labels")


class SetSystem:
    """A set system (E, F) with E ordered and F stored as bitmasks.

    A system keeps the form of F it was built from, the frozenset of masks
    or the family bitmap, and derives the other once, on first use.
    Equality and hash read (labels, family_bitmap).
    """

    labels: tuple[str, ...]

    def __init__(self, labels: Sequence[str], masks: frozenset[int]) -> None:
        labels = tuple(labels)
        _check_labels(labels)
        full = (1 << len(labels)) - 1
        for m in masks:
            if m < 0 or m & ~full:
                raise FormatError(f"mask {m} uses bits outside the ground set")
        self.__dict__.update(labels=labels, masks=masks)

    @classmethod
    def from_sets(cls, labels: Sequence[str], feasible: Iterable[Iterable[str]]) -> SetSystem:
        labels = tuple(labels)
        index = {e: i for i, e in enumerate(labels)}
        masks = set()
        for fs in feasible:
            m = 0
            for e in fs:
                if e not in index:
                    raise FormatError(f"feasible set references unknown label {e!r}")
                m |= 1 << index[e]
            masks.add(m)
        return cls(labels, frozenset(masks))

    @classmethod
    def from_bitmap(cls, labels: Sequence[str], bm: int) -> SetSystem:
        """The system with family bitmap bm over the labels, kept as that
        int alone."""
        labels = tuple(labels)
        _check_labels(labels)
        if bm < 0 or bm.bit_length() > 1 << len(labels):
            raise FormatError(f"family bitmap {bm} is not a family over {len(labels)} elements")
        system = cls.__new__(cls)
        system.__dict__.update(labels=labels, family_bitmap=bm)
        return system

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.labels == other.labels and self.family_bitmap == other.family_bitmap

    def __hash__(self) -> int:
        return hash((self.labels, self.family_bitmap))

    # -- basic queries ------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def is_proper(self) -> bool:
        # read off whichever form the system was built from
        stored = self.__dict__
        return bool(stored["masks"] if "masks" in stored else stored["family_bitmap"])

    @cached_property
    def masks(self) -> frozenset[int]:
        # copied from a set, the frozenset's table is sized to its members
        return frozenset(set(iter_bits(self.family_bitmap)))

    @cached_property
    def sorted_masks(self) -> tuple[int, ...]:
        return tuple(sorted(self.masks, key=lambda m: (m.bit_count(), m)))

    @cached_property
    def family_bitmap(self) -> int:
        """The feasible family as a bitmap over masks (bit m set when mask
        m is feasible)."""
        return family_to_bitmap(self.masks)

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        """The sizes of the feasible sets, ascending, each once."""
        bm = self.family_bitmap
        return tuple(r for r, sel in enumerate(layer_selectors(self.n)) if bm & sel)

    @cached_property
    def is_even(self) -> bool:
        self._require_proper()
        return len({r & 1 for r in self.layer_sizes}) == 1

    def _require_proper(self) -> None:
        if not self.is_proper:
            raise ImproperSystemError("operation requires a proper set system")

    def mask_of(self, elements: Iterable[str]) -> int:
        m = 0
        for e in elements:
            try:
                m |= 1 << self.labels.index(e)
            except ValueError:
                raise UnknownElementError(f"unknown element {e!r}") from None
        return m

    def members(self, mask: int) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in iter_bits(mask))

    def feasible_sets(self) -> tuple[tuple[str, ...], ...]:
        return tuple(self.members(m) for m in self.sorted_masks)

    def element_status(self, e: str) -> ElementStatus:
        self._require_proper()
        bit = self.mask_of([e])
        if all(m & bit for m in self.masks):
            return ElementStatus.COLOOP
        if not any(m & bit for m in self.masks):
            return ElementStatus.LOOP
        return ElementStatus.NEITHER

    # -- twists and minors --------------------------------------------

    def twist(self, elements: Iterable[str]) -> SetSystem:
        """Partial dual: replace each feasible F by F symmetric-difference A."""
        a = self.mask_of(elements)
        return SetSystem(self.labels, frozenset(m ^ a for m in self.masks))

    def dual(self) -> SetSystem:
        return self.twist(self.labels)

    def delete(self, e: str) -> SetSystem:
        """Single-element deletion; a coloop is contracted instead."""
        if self.element_status(e) is ElementStatus.COLOOP:
            return self.minor(contract=[e])
        return self.minor(delete=[e])

    def contract(self, e: str) -> SetSystem:
        """Single-element contraction; a loop is deleted instead."""
        if self.element_status(e) is ElementStatus.LOOP:
            return self.minor(delete=[e])
        return self.minor(contract=[e])

    def minor(self, delete: Iterable[str] = (), contract: Iterable[str] = ()) -> SetSystem:
        """Normal-form minor S\\X/Y.

        Requires disjoint X and Y and a witnessing feasible set F with
        Y <= F <= E-X; rejected otherwise rather than reordered.
        """
        self._require_proper()
        x = self.mask_of(delete)
        y = self.mask_of(contract)
        if x & y:
            raise InvalidMinorError(
                f"delete and contract sets overlap on {format_members(x & y, self.labels)}"
            )
        if not any(m & y == y and not m & x for m in self.masks):
            raise InvalidMinorError(
                "no feasible set is disjoint from the deleted part and "
                "contains the contracted part"
            )
        removed = x | y
        labels = tuple(e for i, e in enumerate(self.labels) if not removed >> i & 1)
        # the removed bits are squeezed out highest first, so that each
        # squeeze leaves the positions of the lower ones as they are
        lows = [(1 << i) - 1 for i in reversed(range(self.n)) if removed >> i & 1]
        masks = set()
        for m in self.masks:
            if m & y == y and not m & x:
                for low in lows:
                    m = m & low | m >> 1 & ~low
                masks.add(m)
        return SetSystem(labels, frozenset(masks))

    def restrict(self, elements: Iterable[str]) -> SetSystem:
        """Sequential deletion of everything outside the given elements."""
        keep = set(elements)
        out = self
        for e in self.labels:
            if e not in keep:
                out = out.delete(e)
        return out

    # -- the symmetric exchange axiom ---------------------------------

    def se_violation(self) -> tuple[int, int, int] | None:
        """First (X, Y, u) witnessing failure of the exchange axiom, or None.

        X and Y are feasible masks and u an element index with u in X^Y such
        that no v in X^Y makes X ^ {u,v} feasible.  Scan order is fixed:
        masks sorted by (size, value), u ascending.
        """
        self._require_proper()
        masks = self.sorted_masks
        fam = self.masks
        for x in masks:
            for y in masks:
                d = x ^ y
                if not d:
                    continue
                for u in iter_bits(d):
                    w = x ^ (1 << u)
                    if w in fam:
                        continue
                    rest = d & ~(1 << u)
                    if not any(w ^ (1 << v) in fam for v in iter_bits(rest)):
                        return (x, y, u)
        return None

    @cached_property
    def _exchange_holds(self) -> bool:
        self._require_proper()
        return exchange_holds(self.family_bitmap, self.n)

    def is_delta_matroid(self) -> bool:
        """True when the symmetric exchange axiom holds; decided once per
        object, like family_bitmap."""
        return self._exchange_holds

    def _layer(self, r: int) -> tuple[int, ...]:
        """The feasible masks of size r, ascending."""
        return tuple(iter_bits(self.family_bitmap & layer_selectors(self.n)[r]))

    def min_sets(self) -> tuple[int, ...]:
        self._require_proper()
        return self._layer(self.layer_sizes[0])

    def max_sets(self) -> tuple[int, ...]:
        self._require_proper()
        return self._layer(self.layer_sizes[-1])

    # -- isomorphism ---------------------------------------------------

    def canonical_form(self) -> tuple[int, int]:
        """(n, least family bitmap over the n! relabellings of the ground
        set); two systems are isomorphic exactly when their forms are
        equal."""
        if self.n > PERMUTATION_CAP:
            raise CapacityError(
                f"canonical form needs {self.n}! relabellings; cap is {PERMUTATION_CAP}"
            )
        return _canonical_form(self.n, self.family_bitmap)

    def canonical_permutation(self) -> tuple[int, ...]:
        """A permutation (bit i -> position perm[i]) taking the family
        bitmap to that of canonical_form; the lexicographically least."""
        best = self.canonical_form()[1]
        for perm in permutations(range(self.n)):
            if family_to_bitmap(permute_mask(m, perm) for m in self.masks) == best:
                return perm

    def is_isomorphic(self, other: SetSystem) -> bool:
        """Relabelling equivalence: equal cached canonical forms, after a
        prefilter on n and the number of feasible sets."""
        if self.n != other.n or self.family_bitmap.bit_count() != other.family_bitmap.bit_count():
            return False
        return self.canonical_form() == other.canonical_form()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fam = ";".join(
            ",".join(self.members(m)) or "-" for m in self.sorted_masks
        )
        return f"SetSystem({' '.join(self.labels)} | {fam})"


def _se_holds_bitmap(bm: int, n: int) -> bool:
    """Exchange-axiom check on a family bitmap.

    flips[w] is the mask of elements i with w ^ {i} feasible; a row is
    filled the first time the pair loop needs it, so a family that fails
    early costs a few rows instead of the whole 2^n * n table.
    """
    flips = [-1] * (1 << n)
    bits = [1 << i for i in range(n)]
    masks = list(iter_bits(bm))
    for x in masks:
        fx = flips[x]
        if fx < 0:
            fx = 0
            for b in bits:
                if bm >> (x ^ b) & 1:
                    fx |= b
            flips[x] = fx
        for y in masks:
            d = x ^ y
            bad = d & ~fx
            while bad:
                ub = bad & -bad
                bad ^= ub
                w = x ^ ub
                fw = flips[w]
                if fw < 0:
                    fw = 0
                    for b in bits:
                        if bm >> (w ^ b) & 1:
                            fw |= b
                    flips[w] = fw
                if not d & fw & ~ub:
                    return False
    return True


@lru_cache(maxsize=None)
def _square_stages(n: int) -> tuple[tuple[int, int, int], ...]:
    """Per element k, (2^k, keep, width) of stage k of _se_holds_square:
    keep selects the masks that avoid k in each of the 2^k blocks of 2^n
    bits, and width = 2^k * 2^n is the width of the square before it."""
    return tuple((1 << k, masks_without_bit(n, k) * sum(1 << (j << n) for j in range(1 << k)),
                  1 << k + n) for k in range(n))


def _se_holds_square(bm: int, n: int) -> bool:
    """Exchange-axiom check on a family bitmap for dense families.

    With W = X ^ {u} the axiom fails exactly when some infeasible W has a
    feasible flip W ^ {u}, and some nonempty K has no feasible flip W ^ {k}
    with k in K while W ^ K is feasible (K = W ^ Y; conversely X = W ^ {u}
    and Y = W ^ K), so u drops out.  The square holds one block of 2^n
    bits per K: block K of t is the family translated by K, block K of h
    the infeasible W with a feasible flip and none in K.  Element k
    doubles the blocks: the new blocks K + k of t are one masked butterfly
    of t, those of h one AND-NOT of h with the family translated by k,
    replicated over the blocks by r, a copy of the family that doubles
    with them.  Only the new blocks are tested, so a failing family exits
    after a few small stages and a delta-matroid costs about twice the
    last stage.
    """
    stages = _square_stages(n)
    near = 0
    for s, keep, _ in stages:
        near |= (bm & keep) << s | bm >> s & keep
    t = r = bm
    h = near & ~bm
    for s, keep, width in stages:
        tk = (t & keep) << s | t >> s & keep
        hk = h & ~((r & keep) << s | r >> s & keep)
        if hk & tk:
            return False
        if s >> n - 1:
            break
        t |= tk << width
        h |= hk << width
        r |= r << width
    return True


def exchange_holds(bm: int, n: int) -> bool:
    """The exchange-axiom verdict of a family bitmap over n elements, by
    family size at the crossovers measured on delta-matroids: the square
    for families of more than 2^(n - 5) + 1 sets on at most
    PERMUTATION_CAP elements (whose square of 2^(2n) bits stays small), the
    pair loop otherwise, so one set always takes the pair loop.  Both
    oracles are looked up at call time, so a wrapper set on the module sees
    every call."""
    if n <= PERMUTATION_CAP and (bm.bit_count() - 1) << 5 > 1 << n:
        return _se_holds_square(bm, n)
    return _se_holds_bitmap(bm, n)


# -- the bit-sliced exchange oracle over family indices ------------------

# A family index of a system on at most WORD_MAX_N elements fits one 32-bit
# word: the unit of the bit-plane transpose here and of the minor scan's
# lanes (minorscan).
WORD_MAX_N = 5

# Families per batch of the census loop and of its batch kernels.  The
# bit-sliced exchange oracle pays its rows once per batch; on uniform
# five-element families it took about 0.37, 0.23, 0.15 and 0.13 us per
# family at 512, 1024, 2048 and 4096.
BATCH = 2048


@lru_cache(maxsize=BATCH // 32)
def _transpose_masks(blocks: int) -> tuple[tuple[int, int], ...]:
    """(shift, mask) of the five delta-swaps that transpose every 32 x 32
    bit block of an int of blocks * 1024 bits: swap j exchanges bit j of
    the in-block position with bit j + 5, so bit 32w + i of a block trades
    places with bit 32i + w.  Its mask selects bit i of word w for i with
    bit j set and w with bit j clear."""
    swaps = []
    for j in range(5):
        word = sum(1 << i for i in range(32) if i >> j & 1)
        block = sum(word << 32 * w for w in range(32) if not w >> j & 1)
        mask = int.from_bytes(block.to_bytes(128, "little") * blocks, "little")
        swaps.append(((1 << j + 5) - (1 << j), mask))
    return tuple(swaps)


def bit_planes(indices: Sequence[int]) -> list[int]:
    """The 32 bit-planes of a batch of family indices below 2^32: bit b of
    plane m is set when family indices[b] contains mask m.

    The indices are packed as 32-bit words into one int, every block of 32
    words is transposed in place by five delta-swaps, and plane m is word
    m of every block, read by one strided slice.
    """
    words = array("I", indices)
    words.frombytes(bytes(4 * (-len(words) % 32)))
    if sys.byteorder != "little":
        words.byteswap()
    size = len(words)
    x = int.from_bytes(words, "little")
    for shift, mask in _transpose_masks(size // 32):
        t = (x >> shift ^ x) & mask
        x ^= t | t << shift
    view = memoryview(x.to_bytes(4 * size, "little")).cast("I")
    return [int.from_bytes(view[m::32].tobytes(), "little") for m in range(32)]


@lru_cache(maxsize=None)
def _exchange_steps(n: int) -> tuple[tuple[int, ...], tuple[tuple[int, tuple, tuple], ...]]:
    """(prevs, rows) of the bit-sliced exchange test.  The nonempty subsets
    D of the n elements are taken by mask, from 1 up, and prevs[D - 1] is D
    without its lowest bit.  rows holds (W, V, Y) per mask W, ascending,
    with V[D - 1] = W ^ {v} for v the element of the lowest bit of D and
    Y[D - 1] = W ^ D."""
    subsets = range(1, 1 << n)
    prevs = tuple(s & s - 1 for s in subsets)
    return prevs, tuple((w, tuple(w ^ s & -s for s in subsets), tuple(w ^ s for s in subsets))
                        for w in range(1 << n))


def delta_matroid_bits(indices: Sequence[int], n: int) -> int:
    """Bitmask over a batch of family indices of an n-element ground set:
    bit b is set when family indices[b] satisfies the exchange axiom
    (vacuously for the empty family).  Above WORD_MAX_N elements each
    family is decided by exchange_holds.

    Up to WORD_MAX_N, as in _se_holds_square, u drops out: the axiom fails
    at a mask W exactly when W is infeasible, some flip W ^ {k} is
    feasible, and some feasible W ^ D (D nonempty) has no feasible flip
    W ^ {k} with k in D.  On the bit-planes P that is, for every family at
    once,

        ~P[W] & OR over k of P[W ^ {k}] & OR over D of (P[W ^ D] & AND over k in D of ~P[W ^ {k}]),

    with each AND built from the AND of D minus its lowest element, and
    the last AND, over every k, the families with no feasible flip: one
    row of 2^n - 1 steps per W, paid once per batch.  Families that have
    failed drop out of the base, and the pass ends when every family has
    failed.  The scalar references are _se_holds_bitmap, _se_holds_square
    and se_violation.
    """
    if n > WORD_MAX_N:
        return sum(1 << b for b, index in enumerate(indices) if exchange_holds(index, n))
    planes = bit_planes(indices)
    alive = (1 << len(indices)) - 1
    missing = [alive ^ p for p in planes]
    fail = 0
    prevs, rows = _exchange_steps(n)
    for w, vs, ys in rows:
        base = missing[w] & ~fail
        if not base:
            continue
        ands = [base]
        hit = 0
        for prev, v, y in zip(prevs, vs, ys):
            a = ands[prev] & missing[v]
            ands.append(a)
            hit |= planes[y] & a
        hit &= ~ands[-1]
        if hit:
            fail |= hit
            if fail == alive:
                break
    return alive ^ fail


@lru_cache(maxsize=65536)
def _canonical_form(n: int, bm: int) -> tuple[int, int]:
    return n, min(relabellings(bm, n))


# -- serialization -----------------------------------------------------


def decode_json(text: str):
    """json.loads, refusing a malformed text with the decoder's message."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad JSON: {exc}") from None


def parse_set_system(text: str) -> SetSystem:
    """Parse the JSON or compact text serialization.

    JSON: ``{"elements": [...], "feasible": [[...], ...]}``.
    Compact: labels, a ``|`` separator, then ``;``-separated feasible sets
    with ``-`` for the empty set.  An empty feasible family parses to an
    improper system (usable by the census, rejected by delta-matroid ops).
    """
    stripped = text.strip()
    if stripped.startswith("{"):
        doc = decode_json(stripped)
        if not isinstance(doc, dict) or "elements" not in doc or "feasible" not in doc:
            raise FormatError('JSON form needs "elements" and "feasible" keys')
        elements = doc["elements"]
        feasible = doc["feasible"]
        if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
            raise FormatError('"elements" must be a list of strings')
        if not isinstance(feasible, list) or not all(type(fs) is list for fs in feasible):
            raise FormatError('"feasible" must be a list of label lists')
        # from_sets refuses any label that is not an element, a non-string
        # one included; an unhashable one raises TypeError there
        try:
            return SetSystem.from_sets(elements, feasible)
        except TypeError:
            raise FormatError('"feasible" must be a list of label lists') from None
    if "|" not in stripped:
        raise FormatError("compact form needs a '|' separating labels from sets")
    head, _, tail = stripped.partition("|")
    labels = head.split()
    sets = []
    tail = tail.strip()
    if tail:
        for part in tail.split(";"):
            part = part.strip()
            if part == "-":
                sets.append([])
            elif part:
                sets.append(part.split())
    return SetSystem.from_sets(labels, sets)


def serialize_set_system(system: SetSystem, fmt: str = "json", canonical: bool = False) -> str:
    """Serialize with feasible sets sorted by (size, lexicographic members).

    With canonical=True the elements are reordered by the canonical
    permutation first, making the output isomorphism-invariant.
    """
    if canonical:
        perm = system.canonical_permutation()
        order = sorted(range(system.n), key=lambda i: perm[i])
        # Among label orders realizing the canonical mask encoding, pick a
        # deterministic one: stable sort on target position.
        labels = tuple(system.labels[i] for i in order)
        masks = frozenset(permute_mask(m, perm) for m in system.masks)
        system = SetSystem(labels, masks)
    fam = sorted(system.feasible_sets(), key=lambda fs: (len(fs), fs))
    if fmt == "json":
        doc = {"elements": list(system.labels), "feasible": [list(fs) for fs in fam]}
        return json.dumps(doc, separators=(", ", ": "))
    if fmt == "compact":
        body = " ; ".join(" ".join(fs) if fs else "-" for fs in fam)
        return f"{' '.join(system.labels)} | {body}"
    raise FormatError(f"unknown serialization format {fmt!r}")
