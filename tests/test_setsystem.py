"""Core set-system operations against hand-computed values."""

from __future__ import annotations

import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmkit.bitset import family_to_bitmap, iter_bits, permute_mask, relabellings
from dmkit.census import family_system, random_quotient_pair
from dmkit.errors import (
    CapacityError,
    FormatError,
    ImproperSystemError,
    InvalidMinorError,
    NotAMatroidError,
    UnknownElementError,
)
from dmkit.gf2 import SkewSymMatrixGF2, d_of_c, parse_matrix
from dmkit.higgs import build_higgs_dm, higgs_lift
from dmkit.latticepath import iter_regions, lpdm, parse_region
from dmkit.matroid import Matroid
from dmkit.setsystem import (
    PERMUTATION_CAP,
    ElementStatus,
    SetSystem,
    _se_holds_bitmap,
    _se_holds_square,
    parse_set_system,
    serialize_set_system,
)

from conftest import LABELS, random_delta_matroid, random_system


def fam(system: SetSystem) -> set[frozenset[str]]:
    return {frozenset(fs) for fs in system.feasible_sets()}


def system_of(labels: str, *sets: str) -> SetSystem:
    return SetSystem.from_sets(tuple(labels), [list(s) for s in sets])


def reference_canonical_form(s: SetSystem) -> tuple:
    """The least sorted (size, mask) encoding of the family over all n!
    permutations of the ground set, prefixed with n: a canonical form
    computed without the relabelling walk, kept as the reference for the
    isomorphism classes canonical_form induces."""
    return (s.n,) + min(tuple(sorted((m.bit_count(), permute_mask(m, perm)) for m in s.masks))
                        for perm in itertools.permutations(range(s.n)))


class TestParsing:
    def test_json_s2(self):
        s = parse_set_system('{"elements":["a","b"],"feasible":[[],["a","b"]]}')
        assert s.labels == ("a", "b")
        assert fam(s) == {frozenset(), frozenset("ab")}

    def test_singleton_loop(self):
        s = parse_set_system('{"elements":["e"],"feasible":[[]]}')
        assert s.element_status("e") is ElementStatus.LOOP

    def test_compact_t1(self):
        s = parse_set_system("a b c | - ; a b ; a b c")
        json_form = parse_set_system(
            '{"elements":["a","b","c"],"feasible":[[],["a","b"],["a","b","c"]]}'
        )
        assert s == json_form

    def test_round_trip_both_formats(self, rng):
        for n in range(0, 5):
            for _ in range(20):
                s = random_system(rng, n)
                assert parse_set_system(serialize_set_system(s, "json")) == s
                assert parse_set_system(serialize_set_system(s, "compact")) == s

    def test_duplicate_labels_rejected(self):
        with pytest.raises(FormatError):
            parse_set_system('{"elements":["a","a"],"feasible":[[]]}')

    def test_unknown_label_rejected(self):
        with pytest.raises(FormatError):
            parse_set_system('{"elements":["a"],"feasible":[["b"]]}')

    def test_empty_family_parses_improper(self):
        s = parse_set_system('{"elements":["a"],"feasible":[]}')
        assert not s.is_proper
        with pytest.raises(ImproperSystemError):
            s.is_delta_matroid()

    @pytest.mark.parametrize("feasible", ['[1]', '[null]', '["ab"]', '[["a"], "b"]',
                                          '[[1]]', '[["a", null]]', '[{"a": 1}]', '[[["a"]]]',
                                          '[[{}]]'])
    def test_feasible_entries_must_be_label_lists(self, feasible):
        with pytest.raises(FormatError):
            parse_set_system('{"elements":["a","b"],"feasible":%s}' % feasible)

    def test_malformed_text(self):
        with pytest.raises(FormatError):
            parse_set_system("no separator here")
        with pytest.raises(FormatError):
            parse_set_system("{bad json")

    def test_every_reader_refuses_bad_json_alike(self):
        # set systems, regions and matrices decode through one routine,
        # which keeps the decoder's message and offset
        messages = set()
        for parse in (parse_set_system, parse_region, parse_matrix):
            with pytest.raises(FormatError) as err:
                parse("{")
            messages.add(str(err.value))
        assert messages == {"bad JSON: Expecting property name enclosed in double quotes: "
                            "line 1 column 2 (char 1)"}


class TestFromBitmap:
    def test_keeps_the_bitmap_it_was_built_from(self, rng):
        for n in range(6):
            for _ in range(20):
                bm = rng.getrandbits(1 << n)
                s = SetSystem.from_bitmap("abcdef"[:n], bm)
                assert s == SetSystem(tuple("abcdef"[:n]), frozenset(m for m in range(1 << n) if bm >> m & 1))
                assert s.__dict__["family_bitmap"] == bm == family_to_bitmap(s.masks)

    def test_rejects_sets_outside_the_ground_set(self):
        with pytest.raises(FormatError):
            SetSystem.from_bitmap("ab", 1 << 4)

    @pytest.mark.parametrize("bm", [-1, -16, 1 << 16, (1 << 17) - 1])
    def test_rejects_negative_and_too_wide_bitmaps(self, bm):
        with pytest.raises(FormatError):
            SetSystem.from_bitmap("abcd", bm)

    def test_rejects_duplicate_labels(self):
        with pytest.raises(FormatError):
            SetSystem.from_bitmap("aa", 1)

    @staticmethod
    def assert_same_system(labels, bm):
        s = SetSystem.from_bitmap(labels, bm)
        t = SetSystem(tuple(labels), frozenset(iter_bits(bm)))
        assert s == t and t == s and hash(s) == hash(t)
        # built from the bitmap, the system holds no masks until asked
        assert "masks" not in s.__dict__
        assert s.masks == t.masks and s.family_bitmap == t.family_bitmap

    def test_equals_the_mask_form_for_every_family_up_to_three(self):
        for n in range(4):
            labels = LABELS[:n]
            for bm in range(1 << (1 << n)):
                self.assert_same_system(labels, bm)
                for m in range(1 << n):
                    # equality reads the family, not the labels alone
                    assert SetSystem.from_bitmap(labels, bm) != SetSystem.from_bitmap(
                        labels, bm ^ 1 << m)
                assert SetSystem.from_bitmap(labels, bm) != SetSystem.from_bitmap(
                    labels[::-1], bm) or n < 2

    @pytest.mark.parametrize("n", range(4, 8))
    def test_equals_the_mask_form_on_seeded_families(self, rng, n):
        for _ in range(50):
            self.assert_same_system(LABELS[:n], rng.getrandbits(1 << n))

    def test_is_immutable(self):
        for s in (SetSystem.from_bitmap("abc", 0b10010110),
                  SetSystem(tuple("abc"), frozenset({1, 2, 4, 7}))):
            for name in ("labels", "masks", "family_bitmap", "n", "extra"):
                with pytest.raises(AttributeError):
                    setattr(s, name, None)
                with pytest.raises(AttributeError):
                    delattr(s, name)
            assert s.labels == tuple("abc") and s.masks == frozenset({1, 2, 4, 7})

    def test_pickle_round_trip(self, rng):
        # census --jobs hands work to other processes
        for n in range(6):
            bm = rng.getrandbits(1 << n)
            for s in (SetSystem.from_bitmap(LABELS[:n], bm),
                      SetSystem(tuple(LABELS[:n]), frozenset(iter_bits(bm)))):
                s.is_proper and s.is_delta_matroid()
                t = pickle.loads(pickle.dumps(s))
                assert t == s and hash(t) == hash(s) and t.masks == s.masks

    def test_constructions_are_decided_on_their_bitmaps(self, rng):
        # the exchange axiom and the matroid checks read the family bitmap,
        # so a construction built as a bitmap never decodes its masks
        def decided(s):
            if s.is_delta_matroid() and len(s.layer_sizes) == 1:
                assert Matroid.from_system(s).system is s
            else:
                with pytest.raises(NotAMatroidError):
                    Matroid.from_system(s)
            return s

        systems = []
        for n in range(1, 7):
            for _ in range(10):
                rows = [0] * n
                for i, j in itertools.combinations(range(n), 2):
                    if rng.random() < 0.5:
                        rows[i] |= 1 << j
                        rows[j] |= 1 << i
                systems.append(d_of_c(SkewSymMatrixGF2(tuple(LABELS[:n]), tuple(rows))))
        for n, r_q, r_l in ((4, 1, 3), (5, 2, 4), (6, 1, 4)):
            q, lift = random_quotient_pair(n, r_q, r_l, rng.getrandbits(31))
            # lifts 0 and above k are q and the lift themselves
            for i in range(1, lift.rank - q.rank + 1):
                systems.append(higgs_lift(q, lift, i).system)
            systems += [build_higgs_dm(q, lift, range(0, lift.rank - q.rank + 1, 2)),
                        build_higgs_dm(q, lift, range(lift.rank - q.rank + 1))]
        systems += [family_system(3, index) for index in range(1, 1 << 8)
                    if family_system(3, index).is_delta_matroid()]
        for region in iter_regions(4):
            result = lpdm(region)
            systems += [result.system, result.min_matroid.system, result.max_matroid.system]
        for s in systems:
            assert "masks" not in decided(s).__dict__, s.labels

class TestElementStatus:
    def test_s2_neither(self):
        s = system_of("ab", "", "ab")
        assert s.element_status("a") is ElementStatus.NEITHER

    def test_full_set_coloop(self):
        s = system_of("abc", "abc")
        for e in "abc":
            assert s.element_status(e) is ElementStatus.COLOOP

    def test_empty_set_loop(self):
        s = system_of("abc", "")
        for e in "abc":
            assert s.element_status(e) is ElementStatus.LOOP

    def test_unknown_element(self):
        with pytest.raises(UnknownElementError):
            system_of("ab", "a").element_status("z")


class TestTwist:
    def test_t1_twist_c(self):
        t1 = system_of("abc", "", "ab", "abc")
        assert fam(t1.twist("c")) == {frozenset("c"), frozenset("abc"), frozenset("ab")}

    def test_t1_dual(self):
        t1 = system_of("abc", "", "ab", "abc")
        assert fam(t1.dual()) == {frozenset(), frozenset("c"), frozenset("abc")}

    def test_twist_empty_identity(self, rng):
        for _ in range(20):
            s = random_system(rng, 4)
            assert s.twist([]) == s

    def test_twist_involution(self, rng):
        for n in range(1, 7):
            for _ in range(30):
                s = random_system(rng, n)
                a = [e for e in s.labels if rng.random() < 0.5]
                assert s.twist(a).twist(a) == s

    def test_twist_preserves_evenness_and_properness(self, rng):
        for _ in range(100):
            s = random_system(rng, 5)
            a = [e for e in s.labels if rng.random() < 0.5]
            t = s.twist(a)
            assert t.is_proper
            assert t.is_even == s.is_even


class TestMinor:
    def test_contraction_order_dependence(self):
        # S = ({a,b,c,d}, {{a,b},{c,d}}): c is a loop of S/a, a of S/c.
        s = system_of("abcd", "ab", "cd")
        via_a = s.contract("a").contract("c")
        assert via_a.labels == ("b", "d") and fam(via_a) == {frozenset("b")}
        via_c = s.contract("c").contract("a")
        assert via_c.labels == ("b", "d") and fam(via_c) == {frozenset("d")}

    def test_identity_minor(self):
        t5 = system_of("abcd", "", "ab", "abcd")
        assert t5.minor([], []) == t5

    def test_u2_delete_c_is_s2(self):
        u2 = system_of("abc", "", "c", "ab", "abc")
        m = u2.minor(["c"], [])
        s2 = system_of("ab", "", "ab")
        assert m.is_isomorphic(s2)

    def test_overlap_rejected(self):
        s = system_of("abc", "ab")
        with pytest.raises(InvalidMinorError):
            s.minor(["a"], ["a"])

    def test_no_witness_rejected(self):
        s = system_of("abc", "ab")
        # nothing avoids a and contains c
        with pytest.raises(InvalidMinorError):
            s.minor(["a"], ["c"])

    def test_delete_coloop_contracts(self):
        s = system_of("ab", "ab", "a")
        # a is a coloop: deleting it must contract instead
        d = s.delete("a")
        assert d.labels == ("b",) and fam(d) == {frozenset(), frozenset("b")}

    def test_contract_loop_deletes(self):
        s = system_of("ab", "", "b")
        c = s.contract("a")
        assert c.labels == ("b",) and fam(c) == {frozenset(), frozenset("b")}

    def test_minors_stay_proper(self, rng):
        for _ in range(50):
            s = random_system(rng, 5)
            e = rng.choice(s.labels)
            assert s.delete(e).is_proper
            assert s.contract(e).is_proper

    def test_order_independence_of_valid_normal_form(self, rng):
        # every interleaving of single-element operations realizing a valid
        # (X, Y) pair gives the normal-form minor
        for _ in range(60):
            s = random_system(rng, 5)
            elems = list(s.labels)
            rng.shuffle(elems)
            x, y = elems[:2], elems[2:3]
            try:
                target = s.minor(x, y)
            except InvalidMinorError:
                continue
            ops = [(e, "delete") for e in x] + [(e, "contract") for e in y]
            for perm in itertools.permutations(ops):
                cur = s
                for e, op in perm:
                    cur = cur.delete(e) if op == "delete" else cur.contract(e)
                assert cur == target

    def test_minors_of_delta_matroids_are_delta_matroids(self, rng):
        for _ in range(25):
            d = random_delta_matroid(rng, 4)
            for x_len in range(3):
                elems = list(d.labels)
                rng.shuffle(elems)
                x, y = elems[:x_len], elems[x_len : x_len + 1]
                try:
                    m = d.minor(x, y)
                except InvalidMinorError:
                    continue
                assert m.is_delta_matroid()


class TestEvenness:
    def test_u3_even(self):
        u3 = system_of("abcd", "", "abcd", "ab", "cd")
        assert u3.is_even

    def test_s1_not_even(self):
        assert not system_of("e", "", "e").is_even

    def test_t5_even(self):
        assert system_of("abcd", "", "ab", "abcd").is_even


class TestExchangeAxiom:
    def test_u1_is_delta_matroid(self):
        assert system_of("ab", "", "a", "ab").is_delta_matroid()

    def test_t1_fails_with_witness(self):
        t1 = system_of("abc", "", "ab", "abc")
        assert not t1.is_delta_matroid()
        witness = t1.se_violation()
        assert witness is not None
        x, y, u = witness
        # re-verify the witness directly
        d = x ^ y
        assert d >> u & 1
        for v in range(t1.n):
            if d >> v & 1:
                flip = (1 << u) if v == u else (1 << u) | (1 << v)
                assert x ^ flip not in t1.masks

    def test_matroid_bases_always_pass(self):
        u24 = frozenset(m for m in range(16) if m.bit_count() == 2)
        s = SetSystem(tuple("abcd"), u24)
        assert s.is_delta_matroid()

    def test_direct_and_bitmap_checks_agree(self, rng):
        for n in range(1, 7):
            for _ in range(60):
                s = random_system(rng, n)
                bitmap = sum(1 << m for m in s.masks)
                assert (s.se_violation() is None) == _se_holds_bitmap(bitmap, n)
                assert s.is_delta_matroid() == (s.se_violation() is None)

    def test_every_family_up_to_four_elements(self):
        for n in range(1, 5):
            for index in range(1, 1 << (1 << n)):
                s = SetSystem(tuple("abcd"[:n]), frozenset(i for i in range(1 << n) if index >> i & 1))
                reference = s.se_violation() is None
                assert _se_holds_bitmap(index, n) == reference, (n, index)
                assert _se_holds_square(index, n) == reference, (n, index)
                assert s.is_delta_matroid() == reference, (n, index)

    def test_d_of_c_members_pass_in_full(self, rng):
        # D(C) is always a delta-matroid, so the bitmap check fills every
        # row it needs instead of stopping at the first pairs
        from dmkit.gf2 import SkewSymMatrixGF2, d_of_c, parse_matrix

        for n in (5, 6):
            for _ in range(40):
                rows = [0] * n
                for i, j in itertools.combinations_with_replacement(range(n), 2):
                    if rng.random() < 0.5:
                        rows[i] |= 1 << j
                        rows[j] |= 1 << i
                d = d_of_c(SkewSymMatrixGF2(tuple("abcdef"[:n]), tuple(rows)))
                twisted = d.twist(rng.sample(list(d.labels), rng.randrange(n + 1)))
                for s in (d, twisted):
                    assert s.se_violation() is None
                    assert _se_holds_bitmap(s.family_bitmap, n)
                    assert s.is_delta_matroid()

    def test_verdict_is_decided_once_per_object(self, rng, monkeypatch):
        # one case per oracle of the dispatch, by family size at n = 5:
        # more than 2^(5 - 5) + 1 = 2 sets go to the square, one or two
        # sets to the bitmap pair loop; above PERMUTATION_CAP = 10 elements
        # every family goes to the pair loop; se_violation, spied on too, is
        # never called
        from dmkit import setsystem

        calls = []
        reference = SetSystem.se_violation
        for name in ("_se_holds_square", "_se_holds_bitmap"):
            oracle = getattr(setsystem, name)
            monkeypatch.setattr(
                setsystem, name,
                lambda bm, n, name=name, oracle=oracle: calls.append((name, bm)) or oracle(bm, n),
            )
        monkeypatch.setattr(
            SetSystem, "se_violation",
            lambda s: calls.append(("se_violation", s.family_bitmap)) or reference(s),
        )
        tiers = (("_se_holds_square", 5, range(3, 33)), ("_se_holds_bitmap", 5, range(1, 3)),
                 ("_se_holds_bitmap", 11, range(1, 1 << 11)))
        for tier, n, sizes in tiers:
            for _ in range(20):
                masks = frozenset(rng.sample(range(1 << n), rng.choice(sizes)))
                s = SetSystem(tuple("abcdefghijk"[:n]), masks)
                calls.clear()
                verdict = s.is_delta_matroid()
                assert calls == [(tier, s.family_bitmap)]
                assert s.is_delta_matroid() == verdict == (reference(s) is None)
                assert len(calls) == 1
                # the verdict belongs to the object, not to equal values
                assert SetSystem(s.labels, s.masks).is_delta_matroid() == verdict
                assert calls == [(tier, s.family_bitmap)] * 2


class TestCanonicalForm:
    def test_relabeling_invariance(self, rng):
        for n in range(1, 6):
            for _ in range(25):
                s = random_system(rng, n)
                perm = list(range(n))
                rng.shuffle(perm)
                relabeled = SetSystem(
                    tuple(s.labels[perm[i]] for i in range(n)),
                    frozenset(
                        sum(1 << perm.index(i) for i in range(n) if m >> i & 1)
                        for m in s.masks
                    ),
                )
                assert s.canonical_form() == relabeled.canonical_form()
                assert s.is_isomorphic(relabeled)

    def test_t1_twists_distinct(self):
        t1 = system_of("abc", "", "ab", "abc")
        assert not t1.twist("a").is_isomorphic(t1.twist(["b", "c"]))

    def test_t7_not_self_dual(self):
        t7 = system_of("abcd", "", "ab", "ac", "ad", "abcd")
        assert not t7.is_isomorphic(t7.dual())

    def test_capacity_error(self):
        big = SetSystem(tuple(f"x{i}" for i in range(11)), frozenset({0}))
        with pytest.raises(CapacityError):
            big.canonical_form()

    def test_different_sizes_never_isomorphic(self):
        assert not system_of("a", "").is_isomorphic(system_of("ab", ""))

    @staticmethod
    def assert_same_classes(systems):
        # the two forms induce the same partition exactly when each pairs
        # with one value of the other
        pairs = {(s.canonical_form(), reference_canonical_form(s)) for s in systems}
        assert len({a for a, _ in pairs}) == len(pairs) == len({b for _, b in pairs})

    def test_same_classes_as_reference_for_every_family_up_to_three(self):
        for n in range(4):
            labels = tuple("abc"[:n])
            self.assert_same_classes(SetSystem.from_bitmap(labels, bm)
                                     for bm in range(1 << (1 << n)))

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_same_classes_as_reference_on_seeded_families(self, n):
        # each random family with a relabelling of it (same class) and
        # with one set traded for another of its size (mostly not)
        rng = random.Random(7000 + n)
        systems = []
        for _ in range(12 if n == 6 else 40):
            masks = rng.sample(range(1 << n), rng.randrange(1, 2 * n))
            perm = list(range(n))
            rng.shuffle(perm)
            m = rng.choice(masks)
            other = rng.choice([f for f in range(1 << n) if f.bit_count() == m.bit_count()])
            for family in (masks, [permute_mask(f, tuple(perm)) for f in masks],
                           [f for f in masks if f != m] + [other]):
                systems.append(SetSystem(tuple(LABELS[:n]), frozenset(family)))
        self.assert_same_classes(systems)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(6, 7), st.integers(0, 2**32 - 1))
    def test_relabelling_walk_agrees_with_canonical_forms(self, n, seed):
        # a random relabelling is always isomorphic; trading one feasible
        # set for another of its size keeps the size signature and mostly
        # is not.  Few sets keep the n! reference forms quick.
        rng = random.Random(seed)
        labels = tuple("abcdefg"[:n])
        masks = rng.sample(range(1 << n), rng.randrange(1, 12))
        a = SetSystem(labels, frozenset(masks))
        perm = list(range(n))
        rng.shuffle(perm)
        moved = SetSystem(labels, frozenset(sum(1 << perm[i] for i in range(n) if m >> i & 1)
                                            for m in masks))
        m = rng.choice(masks)
        free = [f for f in range(1 << n) if f.bit_count() == m.bit_count() and f not in a.masks]
        swapped = SetSystem(labels, a.masks - {m} | {rng.choice(free)}) if free else a
        for b in (moved, swapped):
            assert sorted(map(int.bit_count, a.masks)) == sorted(map(int.bit_count, b.masks))
            assert a.is_isomorphic(b) == (reference_canonical_form(a)
                                          == reference_canonical_form(b))
        assert a.is_isomorphic(moved)

    def test_nine_element_walk_runs_lazily(self):
        # equal size signatures, not isomorphic (disjoint pair against a
        # crossing one): each canonical form walks all 9! relabellings,
        # one at a time
        a = system_of("abcdefghi", "", "ab", "cd")
        b = system_of("abcdefghi", "", "ab", "bc")
        assert not a.is_isomorphic(b)
        assert a.is_isomorphic(system_of("abcdefghi", "", "hi", "ac"))
        # the first relabellings at the cap come without the other 10!
        walk = relabellings(1 << 0b11, PERMUTATION_CAP)
        assert list(itertools.islice(walk, 3)) == [1 << 0b11, 1 << 0b11, 1 << 0b110]

    def test_canonical_serialization_is_invariant(self, rng):
        for _ in range(20):
            s = random_system(rng, 4)
            perm = list(range(4))
            rng.shuffle(perm)
            relabeled = SetSystem(
                tuple(s.labels[perm[i]] for i in range(4)),
                frozenset(
                    sum(1 << perm.index(i) for i in range(4) if m >> i & 1)
                    for m in s.masks
                ),
            )
            a = serialize_set_system(s, canonical=True)
            b = serialize_set_system(relabeled, canonical=True)
            # element names differ, but the feasible-set shape is identical
            import json

            fa = json.loads(a)["feasible"]
            fb = json.loads(b)["feasible"]
            assert [len(x) for x in fa] == [len(x) for x in fb]
            ia = {tuple(sorted(json.loads(a)["elements"].index(e) for e in fs)) for fs in fa}
            ib = {tuple(sorted(json.loads(b)["elements"].index(e) for e in fs)) for fs in fb}
            assert ia == ib


class TestMinMaxSets:
    def test_u2_layers(self):
        u2 = system_of("abc", "", "c", "ab", "abc")
        assert u2.min_sets() == (0,)
        assert u2.max_sets() == (7,)
