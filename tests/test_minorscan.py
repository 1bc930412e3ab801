"""Minor enumeration and excluded-minor classifiers."""

from __future__ import annotations

import random
from itertools import combinations, permutations
from math import factorial

import numpy as np
import pytest

from dmkit import minorscan
from dmkit.bitset import iter_bits, orbit, permute_mask, transposition
from dmkit.catalog import CatalogEntry, ExminorClassId, excluded_minor_set, make_named
from dmkit.census import (
    REGISTRY,
    _canonical_index_table,
    enumerate_proper_systems,
    family_system,
    random_quotient_pair,
)
from dmkit.errors import AmbientHypothesisError, CapacityError, ImproperSystemError
from dmkit.gf2 import SkewSymMatrixGF2, d_of_c
from dmkit.higgs import build_higgs_dm
from dmkit.matroid import is_matroid, uniform_matroid
from dmkit.minorscan import (
    MinorWitness,
    classify_by_exminors,
    enumerate_minors,
    has_minor_from,
    no_minor_bits,
)
from dmkit.setsystem import SetSystem, _canonical_form
from dmkit.stacks import classify_stack, stack_of

from conftest import random_delta_matroid, random_system


def system_of(labels: str, *sets: str) -> SetSystem:
    return SetSystem.from_sets(tuple(labels), [list(s) for s in sets])


class TestEnumerateMinors:
    def test_full_size_is_identity_only(self, rng):
        s = random_system(rng, 4)
        out = list(enumerate_minors(s, s.n))
        assert out == [((), (), s)]

    def test_u2_has_s2_minor_at_size_2(self):
        u2 = make_named("U2")
        s2 = make_named("S2")
        assert any(m.is_isomorphic(s2) for _, _, m in enumerate_minors(u2, 2))

    def test_counting_derived_example(self):
        # ({a,b}, {0}): contractions invalid, two single deletions valid
        s = system_of("ab", "")
        assert sum(1 for _ in enumerate_minors(s, 1)) == 2

    def test_every_minor_proper(self, rng):
        for _ in range(20):
            s = random_system(rng, 4)
            for m in range(s.n + 1):
                for _, _, minor in enumerate_minors(s, m):
                    assert minor.is_proper

    def test_lemma_normal_form_completeness(self, rng):
        # every sequence of single-element operations is hit by some (X, Y)
        for _ in range(40):
            s = random_system(rng, 4)
            cur = s
            ops = []
            for _ in range(rng.randrange(1, 4)):
                e = rng.choice(cur.labels)
                op = rng.choice(["delete", "contract"])
                cur = cur.delete(e) if op == "delete" else cur.contract(e)
            found = [
                minor for _, _, minor in enumerate_minors(s, cur.n) if minor == cur
            ]
            assert found, (s, cur)


class TestHasMinorFrom:
    def test_t5_contract_ab_gives_s2(self):
        t5 = make_named("T5")
        witness = has_minor_from(t5, [CatalogEntry("S2", make_named("S2"))])
        assert witness is not None
        assert witness.target_name == "S2"
        assert witness.verify(t5)
        assert set(witness.contracted) == {"a", "b"} and witness.deleted == ()

    def test_u24_has_no_bad_minor(self):
        u24 = uniform_matroid(2, 4).system
        targets = excluded_minor_set(ExminorClassId.DELTA_MATROID, 4)
        assert has_minor_from(u24, targets) is None

    def test_self_witness(self):
        t1 = make_named("T1")
        witness = has_minor_from(t1, [CatalogEntry("T1", t1)])
        assert witness.target_name == "T1"
        assert witness.deleted == () and witness.contracted == ()

    def test_witnesses_verify_and_are_deterministic(self, rng):
        targets = excluded_minor_set(ExminorClassId.DELTA_MATROID, 4)
        for _ in range(60):
            s = random_system(rng, 4)
            w1 = has_minor_from(s, targets)
            w2 = has_minor_from(s, targets)
            assert w1 == w2
            if w1 is not None:
                assert w1.verify(s)


class TestClassifiers:
    def test_t1_not_delta(self):
        ok, witness = classify_by_exminors(make_named("T1"), ExminorClassId.DELTA_MATROID)
        assert not ok and witness.deleted == () and witness.contracted == ()
        assert witness.target_name.startswith("T1")

    def test_u1_not_higgs(self):
        ok, witness = classify_by_exminors(make_named("U1"), ExminorClassId.HIGGS_LIFT)
        assert not ok and witness.target_name == "U1"

    def test_s2_full_vs_higgs(self):
        s2 = make_named("S2")
        ok_full, _ = classify_by_exminors(s2, ExminorClassId.FULL_HIGGS)
        ok_higgs, _ = classify_by_exminors(s2, ExminorClassId.HIGGS_LIFT)
        assert not ok_full and ok_higgs

    def test_ambient_violations_raise(self):
        t1 = make_named("T1")  # not a delta-matroid
        with pytest.raises(AmbientHypothesisError):
            classify_by_exminors(t1, ExminorClassId.HIGGS_LIFT)
        s1 = make_named("S1")  # odd sizes
        with pytest.raises(AmbientHypothesisError):
            classify_by_exminors(s1, ExminorClassId.EVEN_DELTA_WITHIN_EVEN)
        u1 = make_named("U1")  # not equicardinal
        with pytest.raises(AmbientHypothesisError):
            classify_by_exminors(u1, ExminorClassId.MATROID_EQUICARDINAL)

    def test_every_class_refuses_an_empty_family(self):
        # the delta, even-delta-all and binary scans found no minor in an
        # empty family and called it a member
        empty = SetSystem(tuple("ab"), frozenset())
        for cid in ExminorClassId:
            with pytest.raises(ImproperSystemError, match="requires a proper set system"):
                classify_by_exminors(empty, cid)

    def test_binary_scope_for_proper_systems(self):
        # Cor 5.9 scope is all proper systems: T1 fails through the S/T part
        ok, witness = classify_by_exminors(make_named("T1"), ExminorClassId.BINARY)
        assert not ok and witness is not None

    def test_matroid_classifier(self):
        u24 = uniform_matroid(2, 4).system
        ok, _ = classify_by_exminors(u24, ExminorClassId.MATROID_EQUICARDINAL)
        assert ok
        half_twist = make_named("S_4*{e1,e2}")
        ok, witness = classify_by_exminors(half_twist, ExminorClassId.MATROID_EQUICARDINAL)
        assert not ok and witness.target_name == "S_4*{e1,e2}"

    def test_cap_below_ground_set_refused(self):
        # S_5 is not a delta-matroid, but every excluded minor on at most
        # four elements is missing from it: a cap of 4 must not say "member"
        s5 = make_named("S_5")
        with pytest.raises(CapacityError):
            classify_by_exminors(s5, ExminorClassId.DELTA_MATROID, cap=4)
        ok, witness = classify_by_exminors(s5, ExminorClassId.DELTA_MATROID, cap=5)
        assert not ok and witness.target_name == "S_5"
        assert classify_by_exminors(s5, ExminorClassId.DELTA_MATROID, cap=7)[1] == witness

    def test_a_cap_above_the_ground_set_scans_the_same_list(self):
        # minors never gain elements, so classify_by_exminors scans the
        # list at the ground-set size: every longer list, cut to that size,
        # is the same list in the same order
        for cid in ExminorClassId:
            for n in range(9):
                reference = excluded_minor_set(cid, n)
                for cap in range(n, 13):
                    cut = tuple(e for e in excluded_minor_set(cid, cap) if e.system.n <= n)
                    assert cut == reference, (cid, n, cap)


def object_scan(system: SetSystem, targets) -> MinorWitness | None:
    """Reference scan: build every minor, largest first, in enumerate_minors
    order, and compare it with each target by isomorphism."""
    by_size: dict[int, list[CatalogEntry]] = {}
    for t in targets:
        if t.system.n <= system.n:
            by_size.setdefault(t.system.n, []).append(t)
    for m in sorted(by_size, reverse=True):
        for dels, cons, minor in enumerate_minors(system, m):
            for t in by_size[m]:
                if minor.is_isomorphic(t.system):
                    return MinorWitness(dels, cons, t.name)
    return None


def projection_hosts(n: int, count: int, seed: int) -> list[SetSystem]:
    """count seeded n-element hosts of each of four kinds: dense random
    families (witnesses on few elements), sparse ones with at most four
    sets (their scans reach the minors on five or more elements and the
    whole system), D(C) members and Higgs index-set unions (delta-matroids,
    so the delta scan runs to the end)."""
    rng = random.Random(f"{seed}:{n}")
    labels = tuple("abcdefghij"[:n])
    out = []
    for _ in range(count):
        out.append(SetSystem(labels, frozenset(
            m for m in range(1 << n) if rng.random() < 0.5) or frozenset({0})))
        out.append(SetSystem(labels, frozenset(rng.sample(range(1 << n), rng.randrange(1, 5)))))
        rows = [0] * n
        for i in range(n):
            rows[i] |= rng.randrange(2) << i
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        out.append(d_of_c(SkewSymMatrixGF2(labels, tuple(rows))))
        # quotient pairs have at most eight elements; the rest are loops
        r_l = rng.randrange(1, min(n, 8) + 1)
        q, lift = random_quotient_pair(
            min(n, 8), rng.randrange(r_l + 1), r_l, rng.getrandbits(31))
        k = lift.rank - q.rank
        # index sets K in [0, k] whose complement has no consecutive pair
        full = (1 << (k + 1)) - 1
        ks = rng.choice([ks for ks in range(1, full + 1) if not (full & ~ks) & (full & ~ks) >> 1])
        index_set = [i for i in range(k + 1) if ks >> i & 1]
        out.append(SetSystem(labels, build_higgs_dm(q, lift, index_set).masks))
    return out


def projection_witnesses(n: int, targets) -> dict[int, tuple[int, int, str]]:
    """(delete mask, contract mask, target name) of the first witness for
    every family index on n elements that has one, in the documented scan
    order, from numpy projections of all families at once and the census
    canonical index tables."""
    fams = np.arange(1 << (1 << n), dtype=np.uint32)
    found = np.zeros(len(fams), dtype=bool)
    found[0] = True
    out: dict[int, tuple[int, int, str]] = {}
    names = [t.name for t in targets]
    for m in sorted({t.system.n for t in targets if t.system.n <= n}, reverse=True):
        canon = np.asarray(_canonical_index_table(m))
        first = np.full(len(canon), -1)
        for k, t in reversed(list(enumerate(targets))):
            if t.system.n == m:
                first[canon[sum(1 << f for f in t.system.masks)]] = k
        for removed in combinations(range(n), n - m):
            kept = [i for i in range(n) if i not in removed]
            for size in range(len(removed) + 1):
                for dels in combinations(removed, size):
                    x = sum(1 << i for i in dels)
                    y = sum(1 << i for i in removed) ^ x
                    minor = np.zeros(len(fams), dtype=np.uint32)
                    for f in range(1 << n):
                        if f & y == y and not f & x:
                            g = sum(1 << j for j, i in enumerate(kept) if f >> i & 1)
                            minor |= ((fams >> np.uint32(f)) & np.uint32(1)) << np.uint32(g)
                    hit = first[canon[minor]]
                    new = ~found & (minor != 0) & (hit >= 0)
                    for index in np.nonzero(new)[0].tolist():
                        out[index] = (x, y, names[hit[index]])
                    found |= new
    return out


class TestTableScan:
    """The witness scan of systems on at most five elements, which reads
    chunks as above five, against the object path, witness for witness."""

    def test_every_family_up_to_three_elements_every_class(self):
        for n in range(1, 4):
            for cid in ExminorClassId:
                targets = excluded_minor_set(cid, n)
                for index in range(1, 1 << (1 << n)):
                    s = family_system(n, index)
                    assert has_minor_from(s, targets) == object_scan(s, targets), (n, cid, index)

    def test_every_four_element_family_every_class(self):
        classes = [
            (cid, targets, projection_witnesses(4, targets))
            for cid in ExminorClassId
            for targets in [excluded_minor_set(cid, 4)]
        ]
        for index in range(1, 1 << 16):
            s = family_system(4, index)
            for cid, targets, expected in classes:
                got = has_minor_from(s, targets)
                want = expected.get(index)
                if want is None:
                    assert got is None, (cid, index)
                else:
                    x, y, name = want
                    assert got == MinorWitness(s.members(x), s.members(y), name), (cid, index)

    def test_seeded_samples_against_object_path(self):
        rng = random.Random(424)
        for n, count in ((4, 40), (5, 100)):
            for cid in ExminorClassId:
                targets = excluded_minor_set(cid, n)
                for _ in range(count):
                    s = family_system(n, rng.getrandbits(1 << n) or 1)
                    assert has_minor_from(s, targets) == object_scan(s, targets), (cid, s)

    def test_sparse_five_element_families(self):
        # random families have minors on four elements; sparse ones reach
        # the three-element and whole-system scans
        rng = random.Random(425)
        for cid in (ExminorClassId.DELTA_MATROID, ExminorClassId.BINARY,
                    ExminorClassId.MATROID_STACK, ExminorClassId.PAVING):
            targets = excluded_minor_set(cid, 5)
            for _ in range(60):
                masks = frozenset(rng.sample(range(32), rng.randrange(1, 5)))
                s = SetSystem(tuple("abcde"), masks)
                assert has_minor_from(s, targets) == object_scan(s, targets), (cid, s)

    def test_larger_systems_keep_the_object_path(self):
        # systems on six or more elements keep the object path's witnesses
        # whichever kernel scans them: the differential set of
        # TestProjectionScan, one host of each kind per size
        for n in (6, 7, 8):
            for s in projection_hosts(n, 1, seed=426):
                for cid in ExminorClassId:
                    targets = excluded_minor_set(cid, n)
                    assert has_minor_from(s, targets) == object_scan(s, targets), (cid, s)

    def test_isomorphic_targets_resolve_to_the_first_in_list_order(self):
        # pairs of equal-but-relabelled targets on 4, 5 and 6 elements; each
        # host is a relabelling of the target with loops added up to seven
        # elements, so the witness scan meets the pair in its orbit index
        # as the whole system and as a proper minor
        rng = random.Random(427)
        t5 = make_named("T5")
        pairs = [
            (t5, SetSystem(t5.labels, frozenset({0, 0b1100, 0b1111}))),
            (make_named("S_5*{e1,e2}"), make_named("S_5*{e4,e5}")),
            (make_named("S_6*{e1,e2}"), make_named("S_6*{e3,e6}")),
        ]
        for base, relabelled in pairs:
            assert relabelled.is_isomorphic(base) and relabelled != base
            targets = [CatalogEntry("A", relabelled), CatalogEntry("B", base)]
            perms = list(permutations(range(base.n)))
            if len(perms) > 24:
                perms = rng.sample(perms, 12)
            for order in (targets, targets[::-1]):
                for perm in perms:
                    masks = frozenset(permute_mask(m, perm) for m in base.masks)
                    for n in range(base.n, 8):
                        s = SetSystem(tuple("abcdefg"[:n]), masks)
                        got = has_minor_from(s, order)
                        assert got == object_scan(s, order), (base, perm, n)
                        assert got.target_name == order[0].name

    def test_fresh_target_lists_share_witnesses_and_cache_stays_bounded(self, rng):
        cached = excluded_minor_set(ExminorClassId.BINARY, 5)
        systems = [random_system(rng, 5) for _ in range(10)]
        for _ in range(3):
            for s in systems:
                fresh = [CatalogEntry(e.name, e.system) for e in cached]
                assert has_minor_from(s, fresh) == has_minor_from(s, cached)
                assert has_minor_from(s, list(cached)) == has_minor_from(s, cached)
        assert len(minorscan._scan_plans) <= minorscan.SCAN_PLAN_CACHE_SIZE

    def test_a_list_changed_in_place_gets_a_fresh_plan(self):
        # a list is keyed by its entries, so replacing one between two
        # calls changes the verdict, in the witness and the verdict scan
        t5 = make_named("T5")
        s2 = CatalogEntry("S2", make_named("S2"))
        targets = [s2]
        assert has_minor_from(t5, targets).target_name == "S2"
        assert no_minor_bits([t5.family_bitmap], t5.n, targets) == 0
        targets[0] = CatalogEntry("S_6", make_named("S_6*{e1,e2}"))
        assert has_minor_from(t5, targets) is None
        assert no_minor_bits([t5.family_bitmap], t5.n, targets) == 1
        targets[0] = s2
        assert has_minor_from(t5, targets).target_name == "S2"

    def test_a_tuple_of_targets_hits_its_cached_plan(self):
        # a tuple is keyed by its identity: the cached plan holds that same
        # tuple, so no other object can take over its id while it is cached
        targets = excluded_minor_set(ExminorClassId.DELTA_MATROID, 5)
        plan = minorscan._scan_plan(targets)
        assert minorscan._scan_plan(targets) is plan
        assert minorscan._scan_plans[id(targets)] is plan and plan.targets is targets
        copy = tuple(list(targets))
        assert copy is not targets and minorscan._scan_plan(copy) is not plan
        assert minorscan._scan_plan(copy).orbits == plan.orbits


def chunk_minors(bm: int, n: int, m: int):
    """(X, Y, minor bitmap) of every valid split of a family bitmap that
    leaves m elements, as the chunk scan reads them: each removed set's
    relabelling applied by its delta swaps, then one chunk per split."""
    full = (1 << (1 << m)) - 1
    p = bm
    for removed, swaps in minorscan._removal_moves(n, m):
        for shift, mask in swaps:
            t = (p ^ p >> shift) & mask
            p ^= t ^ t << shift
        for shift in minorscan._chunk_shifts(n - m, m):
            if p >> shift & full:
                yield (*minorscan._split_of(removed, shift >> m), p >> shift & full)


@pytest.mark.parametrize("moves, first", [
    (minorscan._removal_moves, lambda n, m: tuple(range(n - m))),
    (minorscan._identity_first_moves, lambda n, m: tuple(range(m, n))),
])
def test_move_lists_relabel_each_removed_set_once(moves, first):
    # the chain {}, {0}, {0, 1}, ... is fixed by no relabelling but the
    # identity, so the probe tells every relabelling apart; the verdict
    # scans' list starts at the identity, with no swap
    for n in range(8):
        probe = sum(1 << (1 << k) - 1 for k in range(n + 1))
        for m in range(n + 1):
            walk = moves(n, m)
            assert [r for r, _ in walk][0] == first(n, m), (n, m)
            assert sorted(r for r, _ in walk) == list(combinations(range(n), n - m)), (n, m)
            if moves is minorscan._identity_first_moves:
                assert walk[0][1] == (), (n, m)
            p = probe
            for removed, swaps in walk:
                for shift, mask in swaps:
                    t = (p ^ p >> shift) & mask
                    p ^= t ^ t << shift
                order = [i for i in range(n) if i not in removed] + list(removed)
                perm = tuple(order.index(e) for e in range(n))
                assert p == sum(1 << permute_mask(f, perm) for f in iter_bits(probe)), (n, m)


class TestProjectionScan:
    """The chunk scan of systems on six or more elements against the
    object path, witness for witness."""

    @pytest.mark.parametrize("n, count", [(6, 6), (7, 3), (8, 1)])
    def test_seeded_hosts_every_class(self, n, count):
        hosts = projection_hosts(n, count, seed=428)
        for cid in ExminorClassId:
            targets = excluded_minor_set(cid, n)
            want = [object_scan(s, targets) for s in hosts]
            for s, witness in zip(hosts, want):
                assert has_minor_from(s, targets) == witness, (cid, s)
            # the verdict alone, from the family indices
            assert no_minor_bits([s.family_bitmap for s in hosts], n, targets) == sum(
                1 << b for b, witness in enumerate(want) if witness is None), cid

    def test_gathered_bitmaps_are_the_minors_in_scan_order(self):
        # every chunk, at every m, is the bitmap of its minor with the kept
        # elements in order; a sparse family keeps the nine-element
        # reference quick
        rng = random.Random(429)
        for n, density in ((6, 0.5), (7, 0.5), (8, 0.5), (9, 0.1)):
            s = SetSystem(tuple("abcdefghi"[:n]), frozenset(
                m for m in range(1 << n) if rng.random() < density))
            for m in range(n + 1):
                got = list(chunk_minors(s.family_bitmap, n, m))
                want = [
                    (s.mask_of(dels), s.mask_of(cons), minor.family_bitmap)
                    for dels, cons, minor in enumerate_minors(s, m)
                ]
                assert got == want, (n, m)

    def test_asymmetric_targets_on_five_and_six_elements(self):
        # targets with no automorphism, whose orbit indices hold all m!
        # images; each host hides one of them as the minor of one split
        # (chunk y of the extra elements), and is then relabelled
        rng = random.Random(433)
        targets = []
        for name, m in (("A", 6), ("B", 5), ("C", 5)):
            while True:
                bm = rng.getrandbits(1 << m)
                if len(orbit(bm, m)) == factorial(m):
                    break
            targets.append(CatalogEntry(name, SetSystem.from_bitmap(tuple("uvwxyz"[:m]), bm)))
        for n in (6, 7):
            labels = tuple("abcdefg"[:n])
            hosts = [SetSystem(labels, frozenset(rng.sample(range(1 << n), 1 << n - 1)))
                     for _ in range(2)]
            for target in targets:
                m = target.system.n
                for _ in range(3):
                    y = rng.randrange(1 << n - m)
                    chunks = [rng.getrandbits(1 << m) & rng.getrandbits(1 << m)
                              for _ in range(1 << n - m)]
                    chunks[y] = target.system.family_bitmap
                    masks = [f | j << m for j, chunk in enumerate(chunks) for f in iter_bits(chunk)]
                    perm = tuple(rng.sample(range(n), n))
                    hosts.append(SetSystem(labels, frozenset(permute_mask(f, perm) for f in masks)))
            want = [object_scan(s, targets) for s in hosts]
            assert sum(witness is not None for witness in want) >= 9
            for s, witness in zip(hosts, want):
                assert has_minor_from(s, targets) == witness, s
            assert no_minor_bits([s.family_bitmap for s in hosts], n, targets) == sum(
                1 << b for b, witness in enumerate(want) if witness is None)

    def test_larger_systems_build_each_minor(self):
        for n in (9, 10):
            # T5, S_5*{e1,e2} and S_8*{e2,e3} with loops added
            targets = excluded_minor_set(ExminorClassId.DELTA_MATROID, 8)
            labels = tuple("abcdefghij"[:n])
            for name in ("T5", "S_5*{e1,e2}", "S_8*{e2,e3}"):
                s = SetSystem(labels, make_named(name).masks)
                got = has_minor_from(s, targets)
                assert got is not None and got == object_scan(s, targets), s
                assert no_minor_bits([s.family_bitmap], n, targets) == 0, s
            # members have none, and their scans run to the end: U_{2,4} with
            # loops, a delta-matroid, and a D(C) on every element, also binary
            rng = random.Random(f"431:{n}")
            rows = [0] * n
            for i in range(n):
                for j in range(i, n):
                    if rng.random() < 0.15:
                        rows[i] |= 1 << j
                        rows[j] |= 1 << i
            u24 = SetSystem(labels, frozenset(m for m in range(16) if m.bit_count() == 2))
            dofc = d_of_c(SkewSymMatrixGF2(labels, tuple(rows)))
            delta, binary = ExminorClassId.DELTA_MATROID, ExminorClassId.BINARY
            for s, cid in ((u24, delta), (dofc, delta), (dofc, binary)):
                targets = excluded_minor_set(cid, n)
                assert object_scan(s, targets) is None
                assert has_minor_from(s, targets) is None
                assert no_minor_bits([s.family_bitmap], n, targets) == 1

    def test_seeded_nine_element_hosts(self):
        # the differential set of test_seeded_hosts_every_class on nine
        # elements, for the delta-matroid class, whose list has targets of
        # every size up to nine
        n = 9
        hosts = projection_hosts(n, 1, seed=432)
        targets = excluded_minor_set(ExminorClassId.DELTA_MATROID, n)
        want = [object_scan(s, targets) for s in hosts]
        for s, witness in zip(hosts, want):
            assert has_minor_from(s, targets) == witness, s
        assert any(witness is None for witness in want)
        assert no_minor_bits([s.family_bitmap for s in hosts], n, targets) == sum(
            1 << b for b, witness in enumerate(want) if witness is None)


# The refusal of each class whose ambient can fail, pinned word for word
# (the CLI prints it), and the census theorem of each class.
REFUSALS = {
    ExminorClassId.EVEN_DELTA_WITHIN_EVEN: "system is not even",
    ExminorClassId.HIGGS_LIFT: "system is not a delta-matroid",
    ExminorClassId.FULL_HIGGS: "system is not a delta-matroid",
    ExminorClassId.EVEN_HIGGS_WITHIN_EVEN: "system is not an even delta-matroid",
    ExminorClassId.MATROID_EQUICARDINAL: "feasible sets are not equicardinal",
    ExminorClassId.MATROID_STACK: "system is not a matroid stack system",
    ExminorClassId.EVEN_MATROID_STACK: "system is not an even matroid stack system",
    ExminorClassId.PAVING: "system is not a paving set system",
    ExminorClassId.SPARSE_PAVING: "system is not a sparse paving set system",
    ExminorClassId.QUOTIENT_STACK: "system is not a quotient set system",
}
THEOREMS = {
    ExminorClassId.DELTA_MATROID: "exdelta",
    ExminorClassId.EVEN_DELTA_WITHIN_EVEN: "exevendelta",
    ExminorClassId.EVEN_DELTA_WITHIN_ALL: "exevendelta2",
    ExminorClassId.MATROID_EQUICARDINAL: "exmatroid",
    ExminorClassId.HIGGS_LIFT: "exhiggs",
    ExminorClassId.FULL_HIGGS: "exfull",
    ExminorClassId.EVEN_HIGGS_WITHIN_EVEN: "exevenhiggs",
    ExminorClassId.MATROID_STACK: "exmatroidstack",
    ExminorClassId.EVEN_MATROID_STACK: "exevenmatroidstack",
    ExminorClassId.PAVING: "expaving",
    ExminorClassId.SPARSE_PAVING: "exsparsepaving",
    ExminorClassId.QUOTIENT_STACK: "exquotient",
}


def index_forms_hold(form, indices: list[int], n: int) -> list[int]:
    """The indices on which an index form holds, in their order."""
    return [indices[b] for b in iter_bits(form(indices, n))] if indices else []


def minimal_non_member_classes(spec, top: int) -> dict[int, set[tuple[int, int]]]:
    """Per n <= top, the canonical forms of the minimal non-members of a
    class: the ambient families that fail the direct oracle while each of
    their nonempty halves (single-element deletions and contractions) is a
    member.  Candidates at n join two members below on the top element and
    keep the families whose halves at every other element, read as the top
    halves after exchanging that element with the top one, are members too
    (membership is label-invariant)."""
    out = {}
    members = {0}  # the members on n - 1 elements, and the empty half
    for n in range(top + 1):
        half = (1 << n) >> 1
        swaps = [transposition(n, e, n - 1) for e in range(n - 1)]
        candidates = [1] if n == 0 else []
        for low in members if n else ():
            for high in members:
                f = low | high << half
                for shift, mask in swaps:
                    t = (f ^ f >> shift) & mask
                    g = f ^ t ^ t << shift
                    if g & (1 << half) - 1 not in members or g >> half not in members:
                        break
                else:
                    if f:
                        candidates.append(f)
        ambient = index_forms_hold(spec.ambient_index, candidates, n)
        direct = set(index_forms_hold(spec.direct_index, ambient, n))
        out[n] = {_canonical_form(n, f) for f in ambient if f not in direct}
        if n < top:
            every = index_forms_hold(spec.ambient_index, list(range(1, 1 << (1 << n))), n)
            members = {0, *index_forms_hold(spec.direct_index, every, n)}
    return out


def class_table_hosts() -> list[SetSystem]:
    """Every proper family on at most three elements, seeded n = 4 and
    n = 5 samples, every union of uniform layers on 4 and 5 elements
    (matroid stacks, so the layer ambients hold) and seeded
    delta-matroids."""
    hosts = [family_system(n, i) for n in (1, 2, 3) for i in range(1, 1 << (1 << n))]
    hosts += [s for _, s in enumerate_proper_systems(4, "sampled", seed=5, count=300)]
    hosts += [s for _, s in enumerate_proper_systems(5, "sampled", seed=6, count=150)]
    for n in (4, 5):
        for sizes in range(1, 1 << (n + 1)):
            hosts.append(family_system(n, sum(
                1 << m for m in range(1 << n) if sizes >> m.bit_count() & 1)))
    rng = random.Random(77)
    hosts += [random_delta_matroid(rng, n) for n in (4, 5) for _ in range(40)]
    return hosts


def reference_ambients(s: SetSystem) -> dict[ExminorClassId, bool]:
    """Each class's ambient from the definitions: the exchange axiom by
    se_violation, the matroid-stack test layer by layer by is_matroid."""
    dm = s.se_violation() is None
    stack = all(is_matroid(layer) for _, layer in stack_of(s).proper_layers())
    flags = classify_stack(s)
    return {
        ExminorClassId.DELTA_MATROID: True,
        ExminorClassId.EVEN_DELTA_WITHIN_EVEN: s.is_even,
        ExminorClassId.EVEN_DELTA_WITHIN_ALL: True,
        ExminorClassId.MATROID_EQUICARDINAL: len({m.bit_count() for m in s.masks}) == 1,
        ExminorClassId.HIGGS_LIFT: dm,
        ExminorClassId.FULL_HIGGS: dm,
        ExminorClassId.EVEN_HIGGS_WITHIN_EVEN: s.is_even and dm,
        ExminorClassId.BINARY: True,
        ExminorClassId.MATROID_STACK: stack,
        ExminorClassId.EVEN_MATROID_STACK: s.is_even and stack,
        ExminorClassId.PAVING: stack and flags.paving_system,
        ExminorClassId.SPARSE_PAVING: stack and flags.sparse_paving_system,
        ExminorClassId.QUOTIENT_STACK: stack and flags.quotient_system,
    }


class TestClassTable:
    def test_refusals_and_scans_match_the_census_registry(self):
        # classify_by_exminors refuses, with its message, exactly where the
        # census ambient of the class fails, which is where the ambient of
        # the definitions fails; inside it, the census exminor oracle gives
        # the scan's verdict.
        seen = dict.fromkeys(ExminorClassId, 0)
        for s in class_table_hosts():
            reference = reference_ambients(s)
            for cid in ExminorClassId:
                eq = REGISTRY.get(THEOREMS.get(cid))
                ambient = eq.ambient(s) if eq is not None else True
                assert ambient == reference[cid], (cid, s)
                try:
                    member, _ = classify_by_exminors(s, cid)
                except AmbientHypothesisError as exc:
                    assert not ambient and str(exc) == REFUSALS[cid], (cid, s)
                    seen[cid] += 1
                    continue
                assert ambient, (cid, s)
                if eq is not None:
                    assert eq.exminor(s) == member, (cid, s)
        # every class that can refuse did refuse somewhere
        assert {cid for cid, count in seen.items() if count} == set(REFUSALS)

    def test_excluded_minor_lists_are_minimal(self):
        # each entry lies in its class's ambient and fails the direct
        # oracle, while every valid single-element deletion and
        # contraction of it passes
        for cid, spec in minorscan.CLASS_TABLE.items():
            if spec.direct is None:
                continue
            for entry in excluded_minor_set(cid, 8):
                s = entry.system
                assert spec.ambient(s) and not spec.direct(s), (cid, entry.name)
                for dels, cons, minor in enumerate_minors(s, s.n - 1):
                    assert spec.direct(minor), (cid, entry.name, dels, cons)

    def test_excluded_minor_lists_hold_every_minimal_non_member_up_to_four(self):
        # both ways: up to isomorphism, the minimal non-members of each
        # class on n <= 4 elements are the list entries of that size, each
        # class listed once
        counts = []
        for cid, spec in minorscan.CLASS_TABLE.items():
            if spec.direct is None:
                continue
            derived = minimal_non_member_classes(spec, 4)
            listed = {n: [] for n in derived}
            for entry in excluded_minor_set(cid, 4):
                listed[entry.system.n].append(entry.system.canonical_form())
            for n, forms in listed.items():
                assert sorted(forms) == sorted(derived[n]), (cid, n)
            counts.append(sum(map(len, derived.values())))
        assert counts == [56, 24, 27, 3, 7, 2, 5, 45, 15, 20, 7, 15]

    def test_registry_rows(self):
        assert list(REGISTRY) == list(THEOREMS.values()) + ["speven"]
        for cid, theorem in THEOREMS.items():
            assert minorscan.CLASS_TABLE[cid].theorem_id == theorem
        assert minorscan.CLASS_TABLE[ExminorClassId.BINARY].theorem_id is None
