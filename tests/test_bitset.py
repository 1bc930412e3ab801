"""Family-bitmap helpers against direct subset enumeration."""

from __future__ import annotations

import random
from itertools import permutations
from math import comb, factorial

from dmkit.bitset import (
    down_closure,
    family_to_bitmap,
    iter_bits,
    layer_selectors,
    minimal_members,
    orbit,
    permute_mask,
    relabellings,
    transposition,
    up_closure,
)


def test_iter_bits():
    assert list(iter_bits(0)) == []
    assert list(iter_bits(0b10110)) == [1, 2, 4]


def test_permute_mask():
    assert permute_mask(0b011, (2, 0, 1)) == 0b101
    assert permute_mask(0, (1, 0)) == 0


def test_layer_selectors():
    # selector k holds exactly the k-element masks, so the n + 1 selectors
    # partition the 2^n masks by size
    for n in range(7):
        sel = layer_selectors(n)
        assert len(sel) == n + 1
        for k in range(n + 1):
            assert [m for m in range(1 << n) if sel[k] >> m & 1] == [
                m for m in range(1 << n) if m.bit_count() == k
            ]
        assert sum(sel) == (1 << (1 << n)) - 1


def test_closures_against_enumeration():
    rng = random.Random(7)
    for n in range(1, 6):
        for _ in range(20):
            fam = {m for m in range(1 << n) if rng.random() < 0.3}
            bm = family_to_bitmap(fam)
            ups = {m for m in range(1 << n) if any(f & m == f for f in fam)}
            downs = {m for m in range(1 << n) if any(f & m == m for f in fam)}
            assert up_closure(bm, n) == family_to_bitmap(ups)
            assert down_closure(bm, n) == family_to_bitmap(downs)
            mins = {
                m for m in ups if not any((m ^ (1 << i)) in ups for i in iter_bits(m))
            }
            assert minimal_members(family_to_bitmap(ups), n) == family_to_bitmap(mins)


def relabelled(bm: int, n: int, perm: tuple[int, ...]) -> int:
    return family_to_bitmap(permute_mask(m, perm) for m in range(1 << n) if bm >> m & 1)


def test_delta_swap_exchanges_two_elements():
    rng = random.Random(8)
    for n in range(2, 8):
        for _ in range(5):
            bm = rng.getrandbits(1 << n)
            for i in range(n):
                for j in range(i + 1, n):
                    shift, mask = transposition(n, i, j)
                    t = (bm ^ bm >> shift) & mask
                    perm = list(range(n))
                    perm[i], perm[j] = j, i
                    assert bm ^ t ^ t << shift == relabelled(bm, n, tuple(perm))


def test_relabellings_visit_every_permutation_once():
    # the maximal chain {0} < {0,1} < ... is rigid: its n! relabellings are
    # distinct, so the walk yields each permutation's image exactly once
    for n in range(8):
        chain = family_to_bitmap((1 << k) - 1 for k in range(1, n + 1))
        walk = list(relabellings(chain, n))
        assert len(walk) == factorial(n)
        assert set(walk) == {relabelled(chain, n, perm) for perm in permutations(range(n))}


def test_orbit_is_the_set_of_relabellings():
    # every family on at most three elements, then seeded dense, sparse and
    # layer-union families (few, some and many automorphisms) on four to
    # seven elements
    for n in range(4):
        for bm in range(1 << (1 << n)):
            assert orbit(bm, n) == set(relabellings(bm, n)), (n, bm)
    rng = random.Random(9)
    for n in range(4, 8):
        selectors = layer_selectors(n)
        for _ in range(4):
            families = (rng.getrandbits(1 << n),
                        family_to_bitmap(rng.sample(range(1 << n), rng.randrange(1, 4))),
                        sum(sel for sel in selectors if rng.random() < 0.5))
            for bm in families:
                assert orbit(bm, n) == set(relabellings(bm, n)), (n, bm)


def test_orbit_sizes_of_the_s_k_twists():
    # S_k twisted by a t-set is {A, E - A} with |A| = t: its images are the
    # C(k, t) t-sets A, each pair counted once when t = k / 2
    for k in range(1, 11):
        full = (1 << k) - 1
        for t in range(k + 1):
            a = (1 << t) - 1
            want = comb(k, t) // 2 if 2 * t == k else comb(k, t)
            assert len(orbit(1 << a | 1 << (full ^ a), k)) == want, (k, t)
