"""Higgs lifts: rank identity oracle, index-set validation, duality and
minor commutation, classification round trips."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmkit.census import family_system, random_quotient_pair
from dmkit.errors import (
    InvalidIndexSetError,
    NotADeltaMatroidError,
    NotAQuotientError,
)
from dmkit.higgs import (
    HiggsClassification,
    _classify_higgs_reference,
    _classify_layers,
    build_higgs_dm,
    classify_higgs,
    classify_higgs_bitmap,
    full_higgs_dm,
    higgs_lift,
    validate_index_set,
)
from dmkit.matroid import Matroid, min_max_matroids, uniform_matroid
from dmkit.setsystem import SetSystem

from conftest import random_delta_matroid
from test_batch_kernels import dofc_index, higgs_index, twist_index


def system_of(labels: str, *sets: str) -> SetSystem:
    return SetSystem.from_sets(tuple(labels), [list(s) for s in sets])


def zero_matroid(labels: str) -> Matroid:
    return Matroid.from_system(system_of(labels, ""))


def free_matroid(labels: str) -> Matroid:
    return Matroid.from_system(system_of(labels, labels))


class TestHiggsLift:
    def test_lift_zero_is_quotient_matroid(self):
        q, lift = random_quotient_pair(5, 1, 3, seed=3)
        assert higgs_lift(q, lift, 0) == q

    def test_lift_above_k_clamps_to_lift(self):
        q, lift = random_quotient_pair(5, 1, 3, seed=3)
        assert higgs_lift(q, lift, 2 + 5) == lift

    def test_lift_below_zero_clamps_to_quotient(self):
        q, lift = random_quotient_pair(5, 1, 3, seed=3)
        assert higgs_lift(q, lift, -2) == q

    def test_two_element_free_lift(self):
        q = zero_matroid("ab")
        lift = free_matroid("ab")
        mid = higgs_lift(q, lift, 1)
        assert mid.bases == uniform_matroid(1, 2).bases

    def test_rejects_non_quotient(self):
        q = Matroid.from_system(system_of("ab", "a"))
        lift = uniform_matroid(1, 2)
        with pytest.raises(NotAQuotientError):
            higgs_lift(q, lift, 0)

    def test_rank_formula_oracle(self):
        # Higgs rank on every subset equals min(r_Q(X) + i, r_L(X))
        for seed in range(25):
            q, lift = random_quotient_pair(6, seed % 3, seed % 3 + 2, seed)
            k = lift.rank - q.rank
            for i in range(k + 1):
                mid = higgs_lift(q, lift, i)
                for x in range(1 << q.n):
                    expected = min(q.rank_of_mask(x) + i, lift.rank_of_mask(x))
                    assert mid.rank_of_mask(x) == expected

    def test_nesting(self):
        for seed in range(10):
            q, lift = random_quotient_pair(5, 0, 3, seed)
            k = lift.rank - q.rank
            for i in range(k + 1):
                for j in range(i, k + 1):
                    hi_ = higgs_lift(q, lift, i)
                    hj = higgs_lift(q, lift, j)
                    assert higgs_lift(hi_, lift, j - i) == hj

    def test_duality_identity(self):
        # (H^i_{Q,L})* = H^j_{L*,Q*} with i + j = k
        for seed in range(30):
            q, lift = random_quotient_pair(6, seed % 4, seed % 4 + seed % 3, seed)
            k = lift.rank - q.rank
            for i in range(k + 1):
                lhs = higgs_lift(q, lift, i).dual()
                rhs = higgs_lift(lift.dual(), q.dual(), k - i)
                assert lhs.bases == rhs.bases

    def test_restriction_commutes(self):
        # (H^i)|X = H^i_{Q|X, L|X}
        for seed in range(20):
            q, lift = random_quotient_pair(5, seed % 3, seed % 3 + 2, seed)
            k = lift.rank - q.rank
            labels = q.labels
            keep = [e for j, e in enumerate(labels) if (seed >> j) & 1 or j < 2]
            for i in range(k + 1):
                lhs = higgs_lift(q, lift, i).restrict(keep)
                rhs = higgs_lift(q.restrict(keep), lift.restrict(keep), i)
                assert lhs.bases == rhs.bases

    def test_contraction_commutes(self):
        # (H^i)/X = H^{i-t} of the contractions, t = r_L(X) - r_Q(X)
        for seed in range(20):
            q, lift = random_quotient_pair(5, seed % 3, seed % 3 + 2, seed)
            k = lift.rank - q.rank
            x_mask = seed % (1 << q.n)
            x = [e for j, e in enumerate(q.labels) if x_mask >> j & 1]
            t = lift.rank_of_mask(x_mask) - q.rank_of_mask(x_mask)
            for i in range(k + 1):
                lhs = higgs_lift(q, lift, i).contract_set(x)
                rhs = higgs_lift(q.contract_set(x), lift.contract_set(x), i - t)
                assert lhs.bases == rhs.bases


class TestIndexSetValidation:
    def test_valid_sets(self):
        assert validate_index_set(3, [0, 1, 2, 3]) == frozenset({0, 1, 2, 3})
        assert validate_index_set(2, [0, 2]) == frozenset({0, 2})
        assert validate_index_set(3, [1, 3]) == frozenset({1, 3})

    def test_consecutive_gap_rejected_with_pair(self):
        with pytest.raises(InvalidIndexSetError) as exc:
            validate_index_set(3, [0, 3])
        assert exc.value.offending_pair == (1, 2)

    def test_empty_rejected(self):
        with pytest.raises(InvalidIndexSetError):
            validate_index_set(0, [])

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidIndexSetError):
            validate_index_set(2, [3])
        with pytest.raises(InvalidIndexSetError):
            validate_index_set(2, [-1, 0, 1])


class TestBuildHiggsDm:
    def test_two_element_full(self):
        q, lift = zero_matroid("ab"), free_matroid("ab")
        d = build_higgs_dm(q, lift, [0, 1, 2])
        assert d.masks == frozenset({0, 1, 2, 3})

    def test_two_element_even_is_s2(self):
        q, lift = zero_matroid("ab"), free_matroid("ab")
        d = build_higgs_dm(q, lift, [0, 2])
        assert d.masks == frozenset({0, 3})

    def test_gap_rejected(self):
        q, lift = zero_matroid("abc"), free_matroid("abc")
        with pytest.raises(InvalidIndexSetError):
            build_higgs_dm(q, lift, [0, 3])

    def test_every_valid_index_set_gives_delta_matroid(self):
        for seed in range(15):
            q, lift = random_quotient_pair(5, 0, 4, seed)
            k = lift.rank - q.rank
            for ks in valid_index_sets(k):
                assert build_higgs_dm(q, lift, ks).is_delta_matroid()

    def test_union_of_the_indexed_lifts(self):
        # the sandwich cut once by the OR of the layer selectors is the
        # union of the basis families of the Higgs lifts, bitmap included
        for seed in range(10):
            q, lift = random_quotient_pair(5, seed % 3, 5 - seed % 2, seed)
            k = lift.rank - q.rank
            lifts = [higgs_lift(q, lift, i).system for i in range(k + 1)]
            for i, s in enumerate(lifts):
                assert s.family_bitmap == sum(1 << m for m in s.masks), (seed, i)
            for ks in valid_index_sets(k):
                d = build_higgs_dm(q, lift, ks)
                assert d.masks == frozenset().union(*(lifts[i].masks for i in ks))
                assert d.family_bitmap == sum(1 << m for m in d.masks)


def valid_index_sets(k: int) -> list[tuple[int, ...]]:
    """All nonempty K in [0, k] whose complement has no consecutive pair."""
    out = []
    for mask in range(1, 1 << (k + 1)):
        ks = tuple(i for i in range(k + 1) if mask >> i & 1)
        comp = [i for i in range(k + 1) if not mask >> i & 1]
        if not any(b == a + 1 for a, b in zip(comp, comp[1:])):
            out.append(ks)
    return out


class TestClassify:
    def test_u1_not_higgs(self):
        u1 = system_of("ab", "", "a", "ab")
        cls = classify_higgs(u1)
        assert cls.kind == "not_higgs" and cls.failing_layer == 1

    def test_s2_even_higgs(self):
        cls = classify_higgs(system_of("ab", "", "ab"))
        assert cls.kind == "even"
        assert cls.index_set == frozenset({0, 2}) and cls.is_even_higgs

    def test_matroid_is_full_higgs(self):
        cls = classify_higgs(uniform_matroid(2, 4).system)
        assert cls.kind == "full" and cls.k == 0
        assert cls.is_full and cls.is_even_higgs

    def test_rejects_non_delta_matroid(self):
        with pytest.raises(NotADeltaMatroidError):
            classify_higgs(system_of("abc", "", "ab", "abc"))

    def test_round_trip_build_classify(self):
        for seed in range(12):
            q, lift = random_quotient_pair(5, 0, 4, seed)
            k = lift.rank - q.rank
            for ks in valid_index_sets(k):
                d = build_higgs_dm(q, lift, ks)
                cls = classify_higgs(d)
                assert cls.is_higgs
                got = {i + min_size(d) for i in cls.index_set}
                assert got == {q.rank + i for i in ks}


class TestBitmapKernel:
    """classify_higgs_bitmap against the min_max_matroids reference, on the
    whole classification: kind, index set, k and failing layer."""

    def test_every_delta_matroid_up_to_four_elements(self):
        seen = 0
        for n in range(1, 5):
            for index in range(1, 1 << (1 << n)):
                s = family_system(n, index)
                if s.is_delta_matroid():
                    seen += 1
                    assert classify_higgs_bitmap(index, n) == _classify_higgs_reference(s), (n, index)
        assert seen == 6132

    @settings(max_examples=40, deadline=None)
    @given(st.integers(5, 7), st.integers(0, 2**32 - 1))
    def test_seeded_higgs_and_dofc_with_twists(self, n, seed):
        rng = random.Random(seed)
        for make in (higgs_index, dofc_index):
            index = make(rng, n)
            for bm in (index, twist_index(index, n, rng.randrange(1 << n))):
                s = family_system(n, bm)
                assert s.is_delta_matroid()
                assert classify_higgs_bitmap(bm, n) == _classify_higgs_reference(s), (n, bm)

    def test_layer_test_reads_every_occupied_layer(self):
        # a delta-matroid's extreme layers always match its envelope, so
        # only an envelope cut on one layer shows that the layer test
        # compares every occupied size, the first and the last too
        s = system_of("abc", "", "a", "b", "c", "ab", "ac", "bc", "abc")
        bm, sizes = s.family_bitmap, s.layer_sizes
        assert _classify_layers(bm, 3, sizes, bm) == HiggsClassification(
            "full", index_set=frozenset(range(4)), k=3)
        for r in sizes:
            cut = bm & ~(1 << ((1 << r) - 1))
            assert _classify_layers(bm, 3, sizes, cut) == HiggsClassification(
                "not_higgs", failing_layer=r)

    def test_non_delta_matroids_refused_as_before(self):
        for n in range(1, 4):
            for index in range(1, 1 << (1 << n)):
                s = family_system(n, index)
                if s.is_delta_matroid():
                    continue
                with pytest.raises(NotADeltaMatroidError) as got:
                    classify_higgs(s)
                with pytest.raises(NotADeltaMatroidError) as want:
                    _classify_higgs_reference(s)
                assert str(got.value) == str(want.value) == "min/max matroids need the exchange axiom"


def min_size(system: SetSystem) -> int:
    return min(m.bit_count() for m in system.masks)


class TestContainment:
    def test_every_dm_subfamily_of_full_higgs(self, rng):
        # feasible family sits inside the full Higgs lift of (min, max)
        for _ in range(25):
            d = random_delta_matroid(rng, 5)
            lo, hi = min_max_matroids(d)
            full = full_higgs_dm(lo, hi)
            assert d.masks <= full.masks

    def test_full_higgs_of_min_max(self):
        q, lift = zero_matroid("ab"), free_matroid("ab")
        d = full_higgs_dm(q, lift)
        lo, hi = min_max_matroids(d)
        assert lo == q and hi == lift
