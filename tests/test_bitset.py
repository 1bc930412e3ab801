"""Family-bitmap helpers against direct subset enumeration."""

from __future__ import annotations

import random

from dmkit.bitset import (
    down_closure,
    family_to_bitmap,
    iter_bits,
    layer_selectors,
    minimal_members,
    permute_mask,
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
