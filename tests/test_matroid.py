"""Matroid structure tests with brute-force oracles."""

from __future__ import annotations

from itertools import combinations

import pytest

from dmkit.bitset import iter_bits, layer_selectors
from dmkit.census import count_census, random_quotient_pair
from dmkit.errors import (
    CapacityError,
    GroundSetMismatchError,
    NotADeltaMatroidError,
    NotAMatroidError,
)
from dmkit.matroid import (
    Matroid,
    _circuit_masks,
    circuits_cover,
    is_matroid,
    is_quotient,
    is_quotient_bitmap,
    min_max_matroids,
    paving_flags,
    uniform_matroid,
)
from dmkit.setsystem import SetSystem, exchange_holds

from conftest import random_delta_matroid


def system_of(labels: str, *sets: str) -> SetSystem:
    return SetSystem.from_sets(tuple(labels), [list(s) for s in sets])


def brute_circuits(m: Matroid) -> set[int]:
    """Minimal dependent sets by direct subset enumeration."""
    n = m.n
    dependent = set()
    for a in range(1 << n):
        if not any(a & b == a for b in m.bases):
            dependent.add(a)
    out = set()
    for a in dependent:
        if not any((a ^ (1 << i)) in dependent for i in iter_bits(a)):
            out.add(a)
    return out


def quotient_oracle_by_bases(q: Matroid, lift: Matroid) -> bool:
    """Lemma-style basis characterization of quotients, independent of the
    circuit implementation: for each basis B of the lift and e outside it,
    some basis B' of q inside B has exchange options contained in B's."""
    n = q.n
    for b in lift.bases:
        for e in range(n):
            if b >> e & 1:
                continue
            found = False
            for bq in q.bases:
                if bq & ~b:
                    continue
                q_options = {
                    f
                    for f in iter_bits(bq | (1 << e))
                    if ((bq | (1 << e)) ^ (1 << f)) in q.bases
                }
                l_options = {
                    f
                    for f in iter_bits(b | (1 << e))
                    if ((b | (1 << e)) ^ (1 << f)) in lift.bases
                }
                if q_options <= l_options:
                    found = True
                    break
            if not found:
                return False
    return True


def all_matroid_bitmaps(n: int) -> list[int]:
    """Basis bitmap of every matroid on n elements: every nonempty family
    of equal-size sets that satisfies basis exchange."""
    out = []
    for selector in layer_selectors(n):
        positions = list(iter_bits(selector))
        for pick in range(1, 1 << len(positions)):
            bm = sum(1 << positions[i] for i in iter_bits(pick))
            if exchange_holds(bm, n):
                out.append(bm)
    return out


def pair_minus_34_matroid() -> Matroid:
    # all 2-subsets of {1,2,3,4} except {3,4}
    return Matroid.from_system(system_of("1234", "12", "13", "14", "23", "24"))


class TestIsMatroid:
    def test_two_subsets_minus_one_pair_is_matroid(self):
        assert is_matroid(system_of("1234", "12", "13", "14", "23", "24"))

    def test_exchange_failure_detected(self):
        assert not is_matroid(system_of("1234", "12", "13", "34"))

    def test_rank_zero(self):
        assert is_matroid(system_of("abc", ""))

    def test_non_equicardinal(self):
        assert not is_matroid(system_of("ab", "", "a"))

    def test_constructor_rejects(self):
        with pytest.raises(NotAMatroidError):
            Matroid.from_system(system_of("1234", "12", "13", "34"))

    def test_uniform_rank_above_the_ground_set_rejected(self):
        # U_{5,3} has no basis; it used to be built with rank 5 and no bases
        with pytest.raises(NotAMatroidError, match="empty basis family"):
            uniform_matroid(5, 3)
        assert uniform_matroid(3, 3).rank == 3 and uniform_matroid(0, 3).rank == 0

    def test_constructor_refuses_what_no_rank_describes(self):
        # bases of sizes 0 and 2 used to read as rank 0, and an empty
        # family raised StopIteration on its first rank read
        with pytest.raises(NotAMatroidError, match=r"basis sizes differ: \[0, 2\]"):
            Matroid(SetSystem(("a", "b"), frozenset({0, 3})))
        with pytest.raises(NotAMatroidError, match="empty basis family"):
            Matroid(SetSystem(("a", "b"), frozenset()))
        # exchange stays from_system's check: the bare constructor takes
        # an equicardinal family by theorem
        assert Matroid(system_of("1234", "12", "34")).rank == 2

    def test_uniform_ground_set_is_the_one_asked_for(self):
        # the default labels are the twelve letters a..l: n = 13 used to
        # give U_{2,12}, and four labels with n = 3 a matroid on four
        with pytest.raises(CapacityError, match="n <= 12, got n = 13"):
            uniform_matroid(2, 13)
        with pytest.raises(GroundSetMismatchError, match="n = 3 but 4 labels"):
            uniform_matroid(2, 3, labels="xyzw")
        assert uniform_matroid(2, 13, labels=[f"e{i}" for i in range(13)]).n == 13
        assert uniform_matroid(1, labels="xy").labels == ("x", "y")

    def test_uniform_bases_are_every_r_set(self):
        # uniform_matroid builds unchecked: any two r-sets exchange
        for n in range(10):
            for r in range(n + 1):
                m = uniform_matroid(r, n)
                assert m.bases == {sum(1 << e for e in c) for c in combinations(range(n), r)}
                assert exchange_holds(m.system.family_bitmap, n), (r, n)


class TestRank:
    def test_uniform_singleton(self):
        u24 = uniform_matroid(2, 4)
        assert u24.rank_of(["a"]) == 1

    def test_uniform_empty(self):
        assert uniform_matroid(2, 4).rank_of([]) == 0

    def test_derived_rank_value(self):
        m = pair_minus_34_matroid()
        assert m.rank_of(["3", "4"]) == 1

    def test_monotone_and_submodular_spot_checks(self, rng):
        for _ in range(10):
            d = random_delta_matroid(rng, 4)
            layer = SetSystem(d.labels, frozenset(d.max_sets()))
            m = Matroid.from_system(layer)
            subsets = list(range(1 << m.n))
            for _ in range(50):
                a = rng.choice(subsets)
                b = rng.choice(subsets)
                ra, rb = m.rank_of_mask(a), m.rank_of_mask(b)
                assert m.rank_of_mask(a | b) + m.rank_of_mask(a & b) <= ra + rb
                if a & b == a:
                    assert ra <= rb


class TestCircuits:
    def test_free_matroid_no_circuits(self):
        assert Matroid.from_system(system_of("abc", "abc")).circuits() == ()

    def test_pair_minus_34_circuits(self):
        m = pair_minus_34_matroid()
        expected = {frozenset("34"), frozenset("123"), frozenset("124")}
        assert {frozenset(c) for c in m.circuits()} == expected
        assert {sum(1 << "1234".index(e) for e in c) for c in m.circuits()} == brute_circuits(m)

    def test_rank_zero_all_singletons(self):
        m = Matroid.from_system(system_of("abc", ""))
        assert {frozenset(c) for c in m.circuits()} == {
            frozenset("a"),
            frozenset("b"),
            frozenset("c"),
        }

    def test_against_brute_force_random(self, rng):
        for _ in range(20):
            d = random_delta_matroid(rng, 5)
            m = Matroid.from_system(SetSystem(d.labels, frozenset(d.min_sets())))
            got = {sum(1 << d.labels.index(e) for e in c) for c in m.circuits()}
            assert got == brute_circuits(m)

    def test_circuit_masks_sorted_by_size_then_mask(self, rng):
        # circuits() promises (size, members) order; mask order alone would
        # put {1,2,3} = 0b0111 before {3,4} = 0b1100
        assert pair_minus_34_matroid().circuit_masks() == (0b1100, 0b0111, 0b1011)
        for _ in range(20):
            d = random_delta_matroid(rng, 5)
            m = Matroid.from_system(SetSystem(d.labels, frozenset(d.min_sets())))
            by_size = sorted(brute_circuits(m), key=lambda c: (c.bit_count(), c))
            assert m.circuit_masks() == tuple(by_size)


class TestDuality:
    def test_involution(self, rng):
        for _ in range(20):
            d = random_delta_matroid(rng, 5)
            m = Matroid.from_system(SetSystem(d.labels, frozenset(d.max_sets())))
            assert m.dual().dual() == m

    def test_circuits_of_dual_are_cocircuits(self):
        m = pair_minus_34_matroid()
        # cocircuits: minimal sets meeting every basis
        n = m.n
        cocircuits = set()
        hitting = [
            a for a in range(1 << n) if all(a & b for b in m.bases)
        ]
        hitset = set(hitting)
        for a in hitting:
            if not any(a ^ (1 << i) in hitset for i in iter_bits(a)):
                cocircuits.add(a)
        got = {sum(1 << "1234".index(e) for e in c) for c in m.dual().circuits()}
        assert got == cocircuits


class TestQuotient:
    def test_u13_quotient_of_u23(self):
        q = uniform_matroid(1, 3)
        lift = uniform_matroid(2, 3)
        assert is_quotient(q, lift)

    def test_loop_mismatch_not_quotient(self):
        q = Matroid.from_system(system_of("ab", "a"))
        lift = uniform_matroid(1, 2)
        assert not is_quotient(q, lift)

    def test_reflexive(self):
        m = pair_minus_34_matroid()
        assert is_quotient(m, m)

    def test_ground_set_mismatch(self):
        with pytest.raises(GroundSetMismatchError):
            is_quotient(uniform_matroid(1, 2), uniform_matroid(1, 3))

    def test_duality_reverses_quotients(self, rng):
        from dmkit.census import random_quotient_pair

        for seed in range(40):
            q, lift = random_quotient_pair(5, seed % 3, 2 + seed % 3, seed)
            assert is_quotient(q, lift)
            assert is_quotient(lift.dual(), q.dual())

    def test_agreement_with_basis_oracle(self, rng):
        # circuit-union implementation vs the independent basis-form oracle
        for _ in range(60):
            d1 = random_delta_matroid(rng, 4)
            d2 = random_delta_matroid(rng, 4)
            m1 = Matroid.from_system(SetSystem(d1.labels, frozenset(d1.min_sets())))
            m2 = Matroid.from_system(SetSystem(d2.labels, frozenset(d2.max_sets())))
            if m1.rank > m2.rank:
                m1, m2 = m2, m1
            assert is_quotient(m1, m2) == quotient_oracle_by_bases(m1, m2)

    def test_bitmap_form_equals_circuit_form_on_every_pair_up_to_four(self):
        for n in range(5):
            matroids = all_matroid_bitmaps(n)
            assert len(matroids) == [1, 2, 5, 16, 68][n]  # OEIS A058673
            for q in matroids:
                for lift in matroids:
                    assert is_quotient_bitmap(q, lift, n) == circuits_cover(
                        _circuit_masks(q, n), _circuit_masks(lift, n)), (n, q, lift)

    def test_quotient_pairs_count_the_full_higgs_lifts(self):
        # a full Higgs lift delta-matroid and its quotient pair determine
        # each other, and the census decides full Higgs lifts with no
        # quotient test; 7 806 at n = 5 is the count of Bouchet envelopes
        for n, expected in enumerate([1, 3, 12, 67, 558, 7806]):
            matroids = all_matroid_bitmaps(n)
            pairs = sum(is_quotient_bitmap(q, lift, n) for q in matroids for lift in matroids)
            assert pairs == expected
            if n <= 4:
                assert pairs == count_census(n).totals["full_higgs"]

    def test_bitmap_form_agrees_with_basis_oracle_from_five_to_seven(self):
        for n in (5, 6, 7):
            pool = []
            for seed in range(12):
                r_l = seed % (n + 1)
                q, lift = random_quotient_pair(n, (seed * 5) % (r_l + 1), r_l, 100 * n + seed)
                assert is_quotient_bitmap(q.system.family_bitmap, lift.system.family_bitmap, n)
                pool += [q, lift]
            verdicts = set()
            for a in pool:
                for b in pool[::3]:
                    if a.rank <= b.rank:
                        got = is_quotient_bitmap(a.system.family_bitmap, b.system.family_bitmap, n)
                        assert got == quotient_oracle_by_bases(a, b), (n, a, b)
                        verdicts.add(got)
            assert verdicts == {False, True}

    def test_transitivity_via_higgs(self):
        from dmkit.census import random_quotient_pair
        from dmkit.higgs import higgs_lift

        for seed in range(20):
            q, lift = random_quotient_pair(5, 1, 4, seed)
            mid = higgs_lift(q, lift, 2)
            assert is_quotient(q, mid) and is_quotient(mid, lift)
            assert is_quotient(q, lift)


class TestPaving:
    def test_u24(self):
        assert paving_flags(uniform_matroid(2, 4)) == (True, True)

    def test_free_matroid(self):
        m = Matroid.from_system(system_of("abc", "abc"))
        assert paving_flags(m) == (True, True)

    def test_rank2_parallel_boundary_is_paving(self):
        # circuit {b,c} has size 2 = rank: "at least r" makes this paving
        m = Matroid.from_system(system_of("abc", "ab", "ac"))
        assert paving_flags(m)[0] is True

    def test_rank3_with_2_circuit_not_paving(self):
        # bases: 3-sets of {a,b,c,d} containing exactly one of c, d
        m = Matroid.from_system(system_of("abcd", "abc", "abd"))
        assert {frozenset(c) for c in m.circuits()} == {frozenset("cd")}
        assert paving_flags(m) == (False, False)


class TestMinMaxMatroids:
    def test_u2(self):
        u2 = system_of("abc", "", "c", "ab", "abc")
        lo, hi = min_max_matroids(u2)
        assert lo.bases == frozenset({0}) and lo.rank == 0
        assert hi.bases == frozenset({7}) and hi.rank == 3

    def test_matroid_gives_itself_twice(self):
        u24 = uniform_matroid(2, 4)
        lo, hi = min_max_matroids(u24.system)
        assert lo == hi == u24

    def test_rejects_non_delta_matroid(self):
        with pytest.raises(NotADeltaMatroidError):
            min_max_matroids(system_of("abc", "", "ab", "abc"))

    def test_sandwich_property(self, rng):
        for _ in range(30):
            d = random_delta_matroid(rng, 5)
            lo, hi = min_max_matroids(d)
            for m in d.masks:
                assert any(b & m == b for b in lo.bases)
                assert any(b & m == m for b in hi.bases)

    def test_min_quotient_of_max_over_census(self):
        import numpy as np

        from dmkit.census import _canonical_index_table, enumerate_proper_systems, family_system

        for _, s in enumerate_proper_systems(3):
            if s.is_delta_matroid():
                lo, hi = min_max_matroids(s)
                assert is_quotient(lo, hi)
        # one representative per isomorphism class covers n = 4
        for rep in np.unique(_canonical_index_table(4)[1:]).tolist():
            s = family_system(4, rep)
            if s.is_delta_matroid():
                lo, hi = min_max_matroids(s)
                assert is_quotient(lo, hi)
