"""The full-pass exchange oracle _se_holds_square against the bitmap pair
loop _se_holds_bitmap and se_violation (every family with n <= 4 is in
test_setsystem.py), and the matroid verdicts that read is_delta_matroid
against the basis-exchange scan exchange_violation."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmkit import setsystem
from dmkit.bitset import iter_bits, layer_selectors
from dmkit.census import family_system, random_quotient_pair
from dmkit.errors import NotAMatroidError
from dmkit.matroid import Matroid, exchange_violation, is_matroid
from dmkit.setsystem import SetSystem, _se_holds_bitmap, _se_holds_square

from test_batch_kernels import dofc_index, higgs_index, twist_index

FAST = settings(max_examples=30, deadline=None)
LABELS = tuple("abcdefghij")


def square_verdict(bm: int, n: int) -> bool:
    """_se_holds_square, checked against both references."""
    verdict = _se_holds_square(bm, n)
    reference = family_system(n, bm).se_violation() is None
    assert verdict == _se_holds_bitmap(bm, n) == reference, (n, bm)
    return verdict


def seeded_families(seed: int, n: int) -> list[int]:
    """Uniform, sparse, D(C) and Higgs-union families on n elements, the
    twists of each, and each of these with one set flipped."""
    rng = random.Random(seed)
    size = 1 << n
    base = [rng.getrandbits(size) or 1,
            sum(1 << m for m in rng.sample(range(size), rng.randrange(1, 2 * n))),
            dofc_index(rng, n), higgs_index(rng, n)]
    base += [twist_index(bm, n, rng.randrange(size)) for bm in base]
    flipped = [bm ^ 1 << rng.randrange(size) for bm in base]
    return base + [bm for bm in flipped if bm]


def row_alone(u: int, others: int) -> int:
    """{{w} : w in D} + {D'} for D = D' + u, |D'| = 2 or 3: its only
    exchange failure is at W = D and K = D' (X = D' and Y = {u})."""
    return 1 << others | sum(1 << (1 << w) for w in iter_bits(others | 1 << u))


class TestSquareOracle:
    @FAST
    @given(st.integers(5, 8), st.integers(0, 2**32 - 1))
    def test_seeded_families(self, n, seed):
        for bm in seeded_families(seed, n):
            square_verdict(bm, n)

    def test_constructions_pass_in_full(self):
        rng = random.Random(11)
        for n in range(5, 9):
            for make in (dofc_index, higgs_index):
                for _ in range(6):
                    bm = make(rng, n)
                    assert square_verdict(bm, n)
                    assert square_verdict(twist_index(bm, n, rng.randrange(1 << n)), n)

    @pytest.mark.parametrize("n", (9, 10))
    def test_large_constructions(self, n):
        # D(C) and uniform matroids pass in full; their twists pass, and
        # each with one set flipped gets the pair loop's verdict
        rng = random.Random(n)
        families = [dofc_index(rng, n) for _ in range(3)]
        families += [layer_selectors(n)[r] for r in (1, n // 2, n - 2)]
        for bm in families:
            twisted = twist_index(bm, n, rng.randrange(1 << n))
            assert _se_holds_square(bm, n) and _se_holds_square(twisted, n)
            for flipped in (bm ^ 1 << rng.randrange(1 << n), twisted ^ 1 << rng.randrange(1 << n)):
                assert _se_holds_square(flipped, n) == _se_holds_bitmap(flipped, n), (n, flipped)

    def test_an_infeasible_set_needs_a_feasible_flip(self):
        # {}, {a, b} on four elements: {c, d} has no feasible flip, so the
        # feasible {c, d} ^ {c, d} fails nothing
        assert square_verdict(1 | 1 << 0b0011, 4)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_every_row_alone_decides_a_family(self, n):
        # every (D, D') with |D'| = 2 or 3 is the only failure of one
        # family, so a stage the oracle skipped passes some family
        families = [row_alone(u, others) for u in range(n) for others in range(1 << n)
                    if not others >> u & 1 and others.bit_count() in (2, 3)]
        assert not any(square_verdict(bm, n) for bm in families)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_dispatch_at_the_square_threshold(self, n, monkeypatch):
        # k = 2^(n - 5) + 1 sets (one below five elements) go to the pair
        # loop and k + 1 to the square: the first k masks, a Higgs union and
        # random families, each cut or grown to size
        picked = []
        for name in ("_se_holds_square", "_se_holds_bitmap"):
            oracle = getattr(setsystem, name)
            monkeypatch.setattr(
                setsystem, name,
                lambda bm, n, name=name, oracle=oracle: picked.append(name) or oracle(bm, n),
            )
        rng = random.Random(n)
        k = (1 << n >> 5) + 1
        families = [(1 << k) - 1, *(rng.getrandbits(1 << n) for _ in range(10))]
        if n <= 8:
            families.append(higgs_index(rng, n))
        for bm in families:
            for size, tier in ((k, "_se_holds_bitmap"), (k + 1, "_se_holds_square")):
                while bm.bit_count() != size:
                    bm ^= 1 << rng.randrange(1 << n) if bm.bit_count() < size else bm & -bm
                picked.clear()
                verdict = SetSystem(LABELS[:n], frozenset(iter_bits(bm))).is_delta_matroid()
                assert picked == [tier], (n, bm)
                assert verdict == _se_holds_bitmap(bm, n) == _se_holds_square(bm, n)


def equicardinal_families(n: int):
    """Every nonempty family of r-element sets on n elements, every r."""
    for r in range(n + 1):
        layer = [m for m in range(1 << n) if m.bit_count() == r]
        for pick in range(1, 1 << len(layer)):
            yield family_system(n, sum(1 << m for i, m in enumerate(layer) if pick >> i & 1))


def seeded_equicardinal(seed: int, n: int) -> list[SetSystem]:
    """A random r-layer family, a repaired matroid basis family, and both
    with one r-set flipped."""
    rng = random.Random(seed)
    r = rng.randrange(n + 1)
    layer = [m for m in range(1 << n) if m.bit_count() == r]
    families = [sum(1 << m for m in layer if rng.random() < 0.5) or 1 << layer[0],
                random_quotient_pair(n, r, r, rng.getrandbits(31))[1].system.family_bitmap]
    families += [bm ^ 1 << rng.choice(layer) for bm in families]
    return [family_system(n, bm) for bm in families if bm]


def check_matroid_verdicts(s: SetSystem) -> None:
    # each verdict on its own object: is_delta_matroid is cached per object
    bad = exchange_violation(s)
    assert is_matroid(s) == (bad is None), s
    fresh = SetSystem(s.labels, s.masks)
    if bad is None:
        assert Matroid.from_system(fresh).bases == s.masks
    else:
        with pytest.raises(NotAMatroidError) as err:
            Matroid.from_system(fresh)
        assert str(err.value) == f"basis exchange fails at {bad}"


class TestMatroidVerdicts:
    def test_every_equicardinal_family_up_to_four_elements(self):
        for n in range(5):
            for s in equicardinal_families(n):
                check_matroid_verdicts(s)

    @FAST
    @given(st.integers(5, 7), st.integers(0, 2**32 - 1))
    def test_seeded_families(self, n, seed):
        for s in seeded_equicardinal(seed, n):
            check_matroid_verdicts(s)
