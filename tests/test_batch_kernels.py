"""The index-level census kernels against their SetSystem references: the
bit-sliced exchange oracle, the index-level excluded-minor scan, the index
forms of the class table and the batched census loop."""

from __future__ import annotations

import functools
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmkit import census, minorscan
from dmkit.bitset import iter_bits, layer_selectors, permute_mask
from dmkit.catalog import ExminorClassId, binary_twist_classes, excluded_minor_set
from dmkit.census import (
    _COUNT_COLUMNS,
    REGISTRY,
    count_census,
    family_indices,
    family_system,
    random_quotient_pair,
    run_streaming,
    verify_equivalence,
)
from dmkit.gf2 import SkewSymMatrixGF2, d_of_c
from dmkit.higgs import build_higgs_dm
from dmkit.matroid import envelope_bitmap, is_quotient_bitmap
from dmkit.minorscan import (
    CLASS_TABLE,
    EVEN_HIGGS,
    FULL_HIGGS,
    HIGGS,
    _removal_splits,
    has_minor_from,
    no_minor_bits,
)
from dmkit.setsystem import (BATCH, _se_holds_bitmap, _se_holds_square, bit_planes,
                             delta_matroid_bits)
from dmkit.stacks import (equicardinal_bits, is_equicardinal_index, is_stack_bitmap,
                          matroid_layers, matroid_stack_bits, paving_bits, quotient_bits,
                          stack_flags)

SRC = Path(__file__).resolve().parent.parent / "src"
FAST = settings(max_examples=40, deadline=None)

seeds = st.integers(0, 2**32 - 1)


def as_bools(bits: int, count: int) -> list[bool]:
    return [bool(bits >> b & 1) for b in range(count)]


def exchange_reference(index: int, n: int) -> bool:
    """The exchange verdict of the scalar bitmap oracle, checked against
    the bit square and the object-level scan."""
    verdict = _se_holds_bitmap(index, n)
    assert verdict == _se_holds_square(index, n), (n, index)
    assert verdict == (family_system(n, index).se_violation() is None), (n, index)
    return verdict


def higgs_index(rng: random.Random, n: int) -> int:
    """A Higgs lift delta-matroid on n elements from a random quotient pair
    and index set."""
    r_l = rng.randrange(n + 1)
    r_q = rng.randrange(r_l + 1)
    q, lift = random_quotient_pair(n, r_q, r_l, rng.getrandbits(31))
    k = r_l - r_q
    while True:
        ks = [i for i in range(k + 1) if rng.random() < 0.6] or [0]
        missing = sorted(set(range(k + 1)) - set(ks))
        if all(b != a + 1 for a, b in zip(missing, missing[1:])):
            return build_higgs_dm(q, lift, ks).family_bitmap


def dofc_index(rng: random.Random, n: int) -> int:
    rows = [0] * n
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        if rng.random() < 0.5:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return d_of_c(SkewSymMatrixGF2(tuple("abcdefghij"[:n]), tuple(rows))).family_bitmap


# A perturbed D(C) delta-matroid on five elements whose only exchange
# failure is at X = {b}, u = e.
ONE_ROW = 590384839


def twist_index(index: int, n: int, twist: int) -> int:
    return sum(1 << (m ^ twist) for m in range(1 << n) if index >> m & 1)


def n5_batch(seed: int) -> list[int]:
    """A seeded batch of n = 5 family indices mixing every kind the census
    meets: uniform, sparse, a streamed run of consecutive indices, and
    Higgs and D(C) delta-matroids with their twists, each also with one
    set added or removed (few violations, so every row W counts)."""
    rng = random.Random(seed)
    batch = [rng.getrandbits(32) or 1 for _ in range(rng.randrange(0, 80))]
    batch += [sum(1 << m for m in rng.sample(range(32), rng.randrange(1, 6)))
              for _ in range(rng.randrange(0, 40))]
    start = rng.randrange(1, 2**32 - 64)
    batch += range(start, start + rng.randrange(0, 64))
    for make in (higgs_index, dofc_index):
        for _ in range(rng.randrange(1, 6)):
            index = make(rng, 5)
            twisted = twist_index(index, 5, rng.randrange(32))
            batch += [index, twisted, index ^ 1 << rng.randrange(32), twisted ^ 1 << rng.randrange(32)]
    rng.shuffle(batch)
    return [i for i in batch if i]


class TestBitPlanes:
    @FAST
    @given(st.lists(st.integers(0, 2**32 - 1), max_size=100))
    def test_transpose(self, indices):
        planes = bit_planes(indices)
        assert len(planes) == 32
        for m, plane in enumerate(planes):
            assert plane == sum(1 << b for b, i in enumerate(indices) if i >> m & 1)


class TestExchangeOracle:
    """delta_matroid_bits against _se_holds_bitmap and se_violation."""

    def test_every_family_up_to_four_elements(self):
        for n in range(5):
            indices = list(range(1, 1 << (1 << n)))
            for lo in range(0, len(indices), 2000):
                batch = indices[lo:lo + 2000]
                got = as_bools(delta_matroid_bits(batch, n), len(batch))
                assert got == [exchange_reference(i, n) for i in batch], (n, lo)

    @FAST
    @given(seeds)
    def test_seeded_five_element_batches(self, seed):
        batch = n5_batch(seed)
        got = as_bools(delta_matroid_bits(batch, 5), len(batch))
        assert got == [exchange_reference(i, 5) for i in batch]

    @FAST
    @given(st.sampled_from([1, 2, 3, 4, 6, 7, 8]), seeds)
    def test_seeded_smaller_batches(self, n, seed):
        # above five elements each family goes to exchange_holds
        rng = random.Random(seed)
        batch = [rng.getrandbits(1 << n) or 1 for _ in range(rng.randrange(1, 200))]
        batch += [higgs_index(rng, n), dofc_index(rng, n)]
        got = as_bools(delta_matroid_bits(batch, n), len(batch))
        assert got == [exchange_reference(i, n) for i in batch]

    @pytest.mark.parametrize("length", [1, 31, 32, 33, 2047, 2048])
    def test_batch_lengths_around_the_word_and_the_census_batch(self, length):
        # bit_planes pads a batch to whole blocks of 32 families, and the
        # census cuts its runs into census.BATCH = 2048; a delta-matroid
        # last in the batch shows a family the padding or the alive mask lost
        rng = random.Random(length)
        pool = n5_batch(length)
        batch = [rng.choice(pool) if rng.random() < 0.5 else rng.getrandbits(32) or 1
                 for _ in range(length - 1)] + [dofc_index(rng, 5)]
        got = as_bools(delta_matroid_bits(batch, 5), len(batch))
        assert got == [exchange_reference(i, 5) for i in batch]
        assert got[-1]

    def test_every_row_alone_decides_a_family(self):
        # ONE_ROW fails the exchange axiom at (X, u) = ({b}, e) alone, which
        # is the row W = {b, e}; its relabellings and twists move that row
        # to every W, so a row that the oracle skipped would pass one of
        # these families
        families = []
        for u in range(5):
            perm = [u if i == 4 else 4 if i == u else i for i in range(5)]
            relabelled = sum(1 << permute_mask(m, perm) for m in range(32) if ONE_ROW >> m & 1)
            families += [twist_index(relabelled, 5, a) for a in range(32)]
        assert not any(exchange_reference(i, 5) for i in families)
        assert delta_matroid_bits(families, 5) == 0

    def test_delta_matroid_batches_run_every_row(self):
        # batches of delta-matroids never all fail, so every row W runs
        rng = random.Random(81)
        batch = [make(rng, 5) for _ in range(30) for make in (higgs_index, dofc_index)]
        batch += [twist_index(i, 5, rng.randrange(32)) for i in batch]
        assert delta_matroid_bits(batch, 5) == (1 << len(batch)) - 1
        one_bad = batch + [1 | 1 << 0b111]  # {{}, {a,b,c}}: no exchange from {} to {a,b,c}
        assert delta_matroid_bits(one_bad, 5) == (1 << len(batch)) - 1


def minor_targets(n: int) -> list[tuple[str, tuple]]:
    """Every target list an index scan runs on at n elements."""
    out = [(cid.value, excluded_minor_set(cid, n)) for cid in ExminorClassId]
    return out + [("binary P-twists", binary_twist_classes(n))]


def embedded_targets(n: int, targets) -> list[int]:
    """Each target on n elements, and per target on m < n elements and per
    delete/contract split leaving m elements, the sparse family whose minor
    at that split is the target: the sets Y | (target set put on the kept
    elements).  A scan that skipped a split misses one of them."""
    out = []
    for t in targets:
        m = t.system.n
        for removed in itertools.combinations(range(n), n - m):
            kept = [i for i in range(n) if i not in removed]
            for _, y in _removal_splits(removed):
                out.append(sum(1 << (y | sum(1 << kept[j] for j in range(m) if f >> j & 1))
                               for f in t.system.masks))
    return out


def embedded_at_each_size(rng: random.Random, n: int, targets) -> list[int]:
    """Per target size m <= n of a list, one of its m-element targets with
    its elements put on m random elements of n and the rest loops or
    coloops: a family whose listed minors are that target alone, found at
    size m only (a list holds minimal non-members)."""
    out = []
    for m in sorted({t.system.n for t in targets if t.system.n <= n}):
        t = rng.choice([t for t in targets if t.system.n == m])
        perm = rng.sample(range(n), n)
        y = sum(1 << perm[i] for i in range(m, n) if rng.random() < 0.5)
        out.append(sum(1 << (y | sum(1 << perm[j] for j in iter_bits(f))) for f in t.system.masks))
    return out


class TestIndexScan:
    """_any_minor, the verdict scan behind ClassSpec.exminor and
    no_minor_bits above five elements, and no_minor_bits, against
    _first_minor(...) is None, the witness scan, on the same plan.  These
    are two kernels: the verdicts relabel by the identity-first move list
    and read every chunk of a removed set at once in the lane tables,
    smallest first with a stop at any hit (_any_minor one family at a
    time, no_minor_bits in lanes up to five elements); _first_minor reads
    the chunks split by split, largest first."""

    def check(self, batch: list[int], n: int) -> None:
        for name, targets in minor_targets(n):
            plan = minorscan._scan_plan(targets)
            want = [minorscan._first_minor(i, n, plan) is None for i in batch]
            assert [not minorscan._any_minor(i, n, plan) for i in batch] == want, (n, name)
            assert as_bools(no_minor_bits(batch, n, targets), len(batch)) == want, (n, name)

    def test_every_family_up_to_three_elements(self):
        # below three elements the lane kernel pads each lane to a byte;
        # every family four times, in batches of 4, 12, 60 and 1 020
        for n in range(4):
            self.check(list(range(1, 1 << (1 << n))) * 4, n)

    def test_every_four_element_family(self):
        self.check(list(range(1, 1 << 16)), 4)

    @pytest.mark.parametrize("n", (3, 4, 5))
    def test_batch_lengths_around_the_lane_count(self, n):
        # the lane kernel's masks span BATCH lanes and longer batches are
        # cut, and a batch of any length takes the lanes; each batch ends
        # in a member with no listed minor, so its lane is read at every
        # size
        rng = random.Random(f"lanes:{n}")
        pool = [rng.getrandbits(1 << n) or 1 for _ in range(48)]
        pool += [make(rng, n) for make in (higgs_index, dofc_index) for _ in range(24)]
        for name, targets in minor_targets(n):
            plan = minorscan._scan_plan(targets)
            members = [i for i in pool if minorscan._first_minor(i, n, plan) is None]
            last = max(members, key=int.bit_count)
            for length in (0, 1, 3, 4, 7, 8, 9, 2047, 2048, 2049):
                batch = [rng.choice(pool) for _ in range(length - 1)] + [last][:length]
                want = [minorscan._first_minor(i, n, plan) is None for i in batch]
                assert as_bools(no_minor_bits(batch, n, targets), length) == want, (n, name, length)

    def test_no_orbit_index_holds_the_empty_family(self):
        # the lane kernel reads invalid splits and padding chunks as bitmap
        # 0, which must never be a hit
        for n in range(9):
            for name, targets in minor_targets(n):
                plan = minorscan._scan_plan(targets)
                assert all(0 not in plan.orbits[m] for m in plan.sizes), (n, name)
                assert all(plan.lane_tables[m][0] == 0 for m in plan.sizes if m <= 3), (n, name)

    def test_every_target_at_every_split(self):
        for n in (4, 5):
            for _, targets in minor_targets(n):
                self.check(embedded_targets(n, targets), n)

    @FAST
    @given(seeds)
    def test_seeded_four_element_families(self, seed):
        rng = random.Random(seed)
        batch = [rng.getrandbits(16) or 1 for _ in range(60)]
        batch += [higgs_index(rng, 4), dofc_index(rng, 4)]
        self.check(batch, 4)

    @FAST
    @given(seeds)
    def test_seeded_five_element_batches(self, seed):
        # uniform, sparse and streamed families, and D(C) and Higgs members
        # with their twists, whose scans run to the end
        self.check(n5_batch(seed), 5)

    @pytest.mark.parametrize("n", (6, 7, 8))
    def test_seeded_larger_systems(self, n):
        # _any_minor above five elements, where the chunks of m >= 4 are
        # read as a list, or as the two halves at m = n - 1: uniform and
        # sparse families, Higgs index-set unions and D(C) members with
        # their twists, and per list one target of each size embedded
        rng = random.Random(f"verdict:{n}")
        batch = [rng.getrandbits(1 << n) or 1 for _ in range(12)]
        batch += [sum(1 << m for m in rng.sample(range(1 << n), rng.randrange(1, 5)))
                  for _ in range(6)]
        for make in (higgs_index, dofc_index):
            for _ in range(5):
                index = make(rng, n)
                batch += [index, twist_index(index, n, rng.randrange(1 << n))]
        for _, targets in minor_targets(n):
            batch += embedded_at_each_size(rng, n, targets)
        self.check(batch, n)

    def test_class_spec_exminor_keeps_the_witness_verdict(self):
        rng = random.Random(434)
        for n in range(1, 7):
            batch = [rng.getrandbits(1 << n) or 1 for _ in range(10)]
            batch += [make(rng, n) for make in (higgs_index, dofc_index) for _ in range(3)]
            for cid, spec in CLASS_TABLE.items():
                targets = excluded_minor_set(cid, n)
                systems = [family_system(n, i)
                           for i in batch + embedded_at_each_size(rng, n, targets)]
                assert [spec.exminor(s) for s in systems] == [
                    has_minor_from(s, targets) is None for s in systems], (n, cid)


def class_forms():
    """(name, index form, SetSystem form) of every oracle of the class table
    (binary has no direct oracle), every census theorem and every count
    column."""
    for cid, spec in CLASS_TABLE.items():
        yield f"{cid.value} ambient", spec.ambient_index, spec.ambient
        if spec.direct_index is not None:
            yield f"{cid.value} direct", spec.direct_index, spec.direct
    for tid, eq in REGISTRY.items():
        for key, form, scalar in eq.columns:
            yield f"{tid} {key}", form, scalar
    for key, form, scalar in _COUNT_COLUMNS[1:]:
        yield f"count {key}", form, scalar


# The Higgs index forms run classify_higgs_bitmap, which is specified on
# delta-matroids only, their ambient; their SetSystem forms refuse the rest.
HIGGS_FORMS = {HIGGS[0], FULL_HIGGS[0], EVEN_HIGGS[0]}


class TestIndexForms:
    def check(self, indices: list[int], n: int) -> None:
        dms = [i for i in indices if family_system(n, i).is_delta_matroid()]
        for name, form, scalar in class_forms():
            # the count columns after the first and the Higgs forms are
            # defined on delta-matroids
            batch = dms if name.startswith("count") or form in HIGGS_FORMS else indices
            got = as_bools(form(batch, n), len(batch))
            assert got == [bool(scalar(family_system(n, i))) for i in batch], (name, n)

    def test_every_family_up_to_three_elements(self):
        for n in range(1, 4):
            self.check(list(range(1, 1 << (1 << n))), n)

    @FAST
    @given(st.integers(4, 7), seeds)
    def test_seeded_families(self, n, seed):
        rng = random.Random(seed)
        batch = [rng.getrandbits(1 << n) or 1 for _ in range(30)]
        batch += [higgs_index(rng, n) for _ in range(6)] + [dofc_index(rng, n) for _ in range(4)]
        # matroid stacks: a random matroid layer or two
        for _ in range(6):
            _, lift = random_quotient_pair(n, 0, rng.randrange(n + 1), rng.getrandbits(31))
            q, _ = random_quotient_pair(n, rng.randrange(n + 1), n, rng.getrandbits(31))
            batch += [lift.system.family_bitmap, lift.system.family_bitmap | q.system.family_bitmap]
        self.check(batch, n)

    def test_every_equicardinal_five_element_family(self):
        # the matroid theorem's ambient at n = 5: every family inside one layer
        batch = []
        for sel in layer_selectors(5):
            masks = [m for m in range(32) if sel >> m & 1]
            for size in range(1, len(masks) + 1):
                for chosen in itertools.combinations(masks, size):
                    batch.append(sum(1 << m for m in chosen))
        assert len(batch) == 2110
        spec = CLASS_TABLE[ExminorClassId.MATROID_EQUICARDINAL]
        for form, scalar in ((spec.ambient_index, spec.ambient), (spec.direct_index, spec.direct)):
            got = as_bools(form(batch, 5), len(batch))
            assert got == [bool(scalar(family_system(5, i))) for i in batch]


@functools.lru_cache(maxsize=None)
def basis_exchange(layer: tuple[int, ...]) -> bool:
    """Basis exchange on the masks of one nonempty layer: for bases B1, B2
    and x in B1 - B2 some y in B2 - B1 makes B1 - x + y a basis."""
    bases = set(layer)
    return all(any(b1 ^ 1 << x | 1 << y in bases for y in iter_bits(b2 & ~b1))
               for b1 in layer for b2 in layer for x in iter_bits(b1 & ~b2))


def stack_reference(index: int, n: int) -> bool:
    """Every nonempty cardinality layer of a family index passes
    basis_exchange on its masks, with no table or cache of dmkit; checked
    against is_stack_bitmap, the per-family form."""
    layers: dict[int, list[int]] = {}
    for m in iter_bits(index):
        layers.setdefault(m.bit_count(), []).append(m)
    verdict = all(basis_exchange(tuple(layer)) for layer in layers.values())
    assert verdict == is_stack_bitmap(index, n), (n, index)
    return verdict


def matroid_index(rng: random.Random, n: int, r: int) -> int:
    """The basis family of a seeded random rank-r matroid on n elements."""
    return random_quotient_pair(n, r, r, rng.getrandbits(31))[0].system.family_bitmap


def stack_batch(rng: random.Random, n: int, length: int) -> list[int]:
    """A batch of family indices, about a third each uniform, envelopes of
    random quotient pairs (full Higgs lifts, matroid stacks) and unions of
    random matroid layers of distinct ranks, some of the last two with one
    set flipped."""
    batch = []
    while len(batch) < length:
        kind = rng.randrange(3)
        if kind == 0:
            batch.append(rng.getrandbits(1 << n) or 1)
            continue
        if kind == 1:
            r_l = rng.randrange(n + 1)
            q, lift = random_quotient_pair(n, rng.randrange(r_l + 1), r_l, rng.getrandbits(31))
            index = envelope_bitmap(q.system.family_bitmap, lift.system.family_bitmap, n)
        else:
            ranks = rng.sample(range(n + 1), rng.randrange(1, n + 2))
            index = 0
            for r in ranks:
                index |= matroid_index(rng, n, r)
        if rng.random() < 0.3:
            index ^= 1 << rng.randrange(1 << n)
        batch.append(index or 1)
    return batch


class TestMatroidStackBits:
    """matroid_stack_bits, the batched MATROID_STACK index form, against
    is_stack_bitmap family by family and per-layer basis exchange."""

    def check(self, batch: list[int], n: int) -> list[bool]:
        want = [stack_reference(i, n) for i in batch]
        assert as_bools(matroid_stack_bits(batch, n), len(batch)) == want, n
        assert minorscan.MATROID_STACK[0] is matroid_stack_bits
        return want

    def test_every_family_up_to_four_elements(self):
        for n in range(5):
            indices = list(range(1, 1 << (1 << n)))
            for lo in range(0, len(indices), 2048):
                self.check(indices[lo:lo + 2048], n)

    @pytest.mark.parametrize("length", [0, 1, 3, 4, 375, 2047, 2048])
    def test_seeded_five_element_batches(self, length):
        rng = random.Random(f"stack-bits:{length}")
        want = self.check(stack_batch(rng, 5, length), 5)
        if length >= 375:
            # the batch holds stacks and non-stacks in good number
            assert 0.1 < sum(want) / length < 0.9

    def test_six_elements_decide_by_exchange(self):
        # above five elements the layer verdicts are exchange tests
        rng = random.Random("stack-bits:6")
        want = self.check(stack_batch(rng, 6, 60), 6)
        assert any(want) and not all(want)


class TestStackFlagBits:
    """paving_bits and quotient_bits, the batched index forms of PAVING,
    SPARSE_PAVING and QUOTIENT, bit for bit against the unmemoized
    stack_flags, and equicardinal_bits against the layer count."""

    def check(self, batch: list[int], n: int) -> list[tuple[bool, ...]]:
        want = [stack_flags.__wrapped__(i, n) for i in batch]
        # both forms read matroid.is_quotient_chain; pin it to the pair test
        for i, w in zip(batch, want):
            layers = [layer for sel in layer_selectors(n) if (layer := i & sel)]
            assert w[3] == (w[0] and all(map(is_quotient_bitmap, layers, layers[1:],
                                             itertools.repeat(n)))), (n, i)
        for k, (form, _) in enumerate((minorscan.PAVING, minorscan.SPARSE_PAVING,
                                       minorscan.QUOTIENT), 1):
            assert as_bools(form(batch, n), len(batch)) == [w[k] for w in want], (n, k)
        assert minorscan.PAVING[0] is paving_bits and minorscan.QUOTIENT[0] is quotient_bits
        return want

    def test_every_family_up_to_four_elements(self):
        for n in range(5):
            indices = list(range(1, 1 << (1 << n)))
            for lo in range(0, len(indices), BATCH):
                self.check(indices[lo:lo + BATCH], n)

    @pytest.mark.parametrize("length", [0, 1, 3, 4, 375, 2047, 2048])
    def test_seeded_five_element_batches(self, length):
        rng = random.Random(f"stack-flag-bits:{length}")
        want = self.check(stack_batch(rng, 5, length), 5)
        if length >= 375:
            # each flag holds on some matroid stacks and fails on others
            stacks_ = [w for w in want if w[0]]
            assert all({w[k] for w in stacks_} == {False, True} for k in (1, 2, 3))

    def test_six_elements_decide_by_the_stand_in(self):
        rng = random.Random("stack-flag-bits:6")
        want = self.check(stack_batch(rng, 6, 60), 6)
        assert all({w[k] for w in want} == {False, True} for k in (1, 2, 3))

    def test_ranks_zero_and_n_always_pass(self):
        # paving_bits skips these ranks: their one nonempty layer, the
        # empty set or the whole ground set, is a sparse paving matroid
        for n in range(7):
            table = matroid_layers(n)
            for layer in (1, 1 << (1 << n) - 1):
                assert layer in table and table[layer] == (True, True), (n, layer)

    def test_equicardinal_every_family_up_to_four_elements(self):
        for n in range(5):
            indices = list(range(1, 1 << (1 << n)))
            want = [len(family_system(n, i).layer_sizes) == 1 for i in indices]
            assert [is_equicardinal_index(i, n) for i in indices] == want, n
            for lo in range(0, len(indices), BATCH):
                batch = indices[lo:lo + BATCH]
                assert as_bools(equicardinal_bits(batch, n), len(batch)) == want[lo:lo + BATCH]
        assert minorscan.EQUICARDINAL[0] is equicardinal_bits


def reference_census(theorem: str, indices, n: int = 5) -> tuple[dict, list]:
    """The SetSystem-level census loop: every family built and every oracle
    of the registry called on it, one family at a time."""
    eq = REGISTRY[theorem]
    totals = {"checked": 0, "ambient": 0, "direct_members": 0, "exminor_members": 0}
    discrepancies = []
    for index in indices:
        totals["checked"] += 1
        s = family_system(n, index)
        if not eq.ambient(s):
            continue
        direct, exm = eq.direct(s), eq.exminor(s)
        totals["ambient"] += 1
        totals["direct_members"] += direct
        totals["exminor_members"] += exm
        if direct != exm:
            discrepancies.append({"family_index": index, "direct": direct, "exminor": exm})
    return totals, discrepancies


# The exhaustive n = 4 census, (checked, ambient, direct, exminor) per
# theorem, and the n = 4 class counts, as recorded before the batched loop.
N4_TOTALS = {
    "exdelta": (65535, 65535, 5959, 5959),
    "exevendelta": (65535, 510, 294, 294),
    "exevendelta2": (65535, 65535, 294, 294),
    "exmatroid": (65535, 95, 68, 68),
    "exhiggs": (65535, 5959, 811, 811),
    "exfull": (65535, 5959, 558, 558),
    "exevenhiggs": (65535, 294, 258, 258),
    "exmatroidstack": (65535, 37887, 4438, 4438),
    "exevenmatroidstack": (65535, 402, 267, 267),
    "expaving": (65535, 5759, 1528, 1528),
    "exsparsepaving": (65535, 1583, 766, 766),
    "exquotient": (65535, 3319, 1740, 1740),
    "speven": (65535, 78, 78, 78),
}
N4_COUNTS = {
    "checked": 65535, "delta_matroid": 5959, "even_delta_matroid": 294, "higgs": 811,
    "full_higgs": 558, "matroid": 68, "matroid_stack_dm": 4438, "paving_dm": 1528,
    "sparse_paving_dm": 766, "quotient_dm": 1740, "binary_consistent": 2295,
}


class TestBatchedCensus:
    def test_exhaustive_n4_totals(self):
        for theorem, want in N4_TOTALS.items():
            report = verify_equivalence(4, theorem)
            assert report.ok and tuple(report.totals.values()) == want, theorem
        assert count_census(4).totals == N4_COUNTS

    def test_sampled_n5_matches_reference_every_theorem(self):
        for theorem in REGISTRY:
            report = verify_equivalence(5, theorem, "sampled", seed=9, count=300)
            indices = family_indices(5, "sampled", seed=9, count=300)
            assert (report.totals, report.discrepancies) == reference_census(theorem, indices)

    def test_delta_matroid_stream_matches_reference(self):
        # a batch dense in delta-matroids reaches every oracle of every
        # theorem, and one-set flips of some of them the minor hits; above
        # five elements every column runs its index form all the same
        from dmkit.census import _tally

        for n in (5, 6):
            rng = random.Random(82)
            indices = [make(rng, n) for _ in range(25) for make in (higgs_index, dofc_index)]
            indices += [i ^ 1 << rng.randrange(1 << n) for i in indices[:16]]
            indices = [i for i in indices if i]
            for theorem, eq in REGISTRY.items():
                totals, disc = _tally(eq.columns, [(indices, None)], n, 100)
                assert (totals, disc) == reference_census(theorem, indices, n), (n, theorem)

    def test_streamed_n5_jobs_agree(self, tmp_path):
        start = 3 << 30
        one = run_streaming(5, "exdelta", start=start, stop=start + 300, chunk=64, jobs=1,
                            checkpoint_path=str(tmp_path / "one.ckpt"))
        two = run_streaming(5, "exdelta", start=start, stop=start + 300, chunk=64, jobs=2,
                            checkpoint_path=str(tmp_path / "two.ckpt"))
        assert one.to_json() == two.to_json()
        assert (tmp_path / "one.ckpt").read_text() == (tmp_path / "two.ckpt").read_text()
        assert (one.totals, one.discrepancies) == reference_census(
            "exdelta", range(start, start + 300))

    def test_census_builds_no_set_system(self, monkeypatch):
        # every census column runs its index form at every n, the Higgs
        # columns included
        built = []
        real = census.family_system
        monkeypatch.setattr(census, "family_system",
                            lambda n, index: built.append((n, index)) or real(n, index))
        for theorem in ("exhiggs", "exfull", "exevenhiggs"):
            assert verify_equivalence(4, theorem).ok
        sampled = verify_equivalence(5, "exhiggs", "sampled", seed=5, count=20000)
        assert sampled.ok and sampled.totals["ambient"] > 0
        assert count_census(4).totals == N4_COUNTS
        for theorem in ("exhiggs", "exmatroidstack"):
            assert verify_equivalence(6, theorem, "sampled", seed=6, count=200).ok
        assert count_census(6, "sampled", seed=6, count=200).totals["checked"] == 200
        assert built == []

    def test_sampled_count_matches_scalar_columns(self):
        report = count_census(5, "sampled", seed=4, count=200)
        want = dict.fromkeys(["checked", *(key for key, _, _ in _COUNT_COLUMNS)], 0)
        for index in family_indices(5, "sampled", seed=4, count=200):
            s = family_system(5, index)
            want["checked"] += 1
            if s.is_delta_matroid():
                for key, _, scalar in _COUNT_COLUMNS:
                    want[key] += bool(scalar(s))
        assert report.totals == want


def test_n5_census_runs_stay_numpy_free():
    # numpy costs about 12 MB of resident memory, and no census path needs
    # it: not the n = 5 runs, and not the n <= 4 isomorphism tables, class
    # weights or witness spreading
    code = """
import dataclasses
import sys
from dmkit.census import REGISTRY, count_census, run_streaming, verify_equivalence
from dmkit.cli import main
from dmkit.minorscan import every_index
verify_equivalence(5, "exhiggs", "sampled", seed=1, count=200)
run_streaming(5, "exdelta", start=1 << 31, stop=(1 << 31) + 200)
assert main(["census", "run", "--n", "5", "--theorem", "exmatroidstack",
             "--mode", "sampled", "--count", "100"]) == 0
assert verify_equivalence(4, "exdelta").ok
assert main(["census", "run", "--n", "3", "--theorem", "exhiggs", "--no-dedupe"]) == 0
assert count_census(4).ok
REGISTRY["wrong"] = dataclasses.replace(
    REGISTRY["exdelta"], theorem_id="wrong", direct=lambda s: True, direct_index=every_index)
assert len(verify_equivalence(4, "wrong", max_witnesses=7).discrepancies) == 7
assert "numpy" not in sys.modules, "numpy was imported"
"""
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr

