"""Layer decomposition and the matroid-stack classifiers."""

from __future__ import annotations

import functools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmkit import stacks
from dmkit.bitset import iter_bits, layer_selectors
from dmkit.catalog import ExminorClassId, make_named
from dmkit.census import (
    REGISTRY,
    _class_weights,
    count_census,
    enumerate_proper_systems,
    random_quotient_pair,
    verify_equivalence,
)
from dmkit.errors import AmbientHypothesisError, ImproperSystemError
from dmkit.higgs import full_higgs_dm
from dmkit.matroid import (Matroid, circuits_cover, exchange_violation, is_matroid, paving_flags,
                           uniform_matroid)
from dmkit.minorscan import classify_by_exminors
from dmkit.setsystem import SetSystem
from dmkit.stacks import (
    LAYER_CACHE_SIZE,
    check_speven,
    classify_stack,
    is_matroid_stack,
    layer_paving_flags,
    matroid_layers,
    stack_flags,
    stack_of,
)

from conftest import LABELS, random_system

SRC = Path(__file__).resolve().parent.parent / "src"


def system_of(labels: str, *sets: str) -> SetSystem:
    return SetSystem.from_sets(tuple(labels), [list(s) for s in sets])


class TestStackOf:
    def test_t5_layers(self):
        stack = stack_of(make_named("T5"))
        assert (stack.k, stack.l) == (0, 4)
        proper_sizes = [size for size, _ in stack.proper_layers()]
        assert proper_sizes == [0, 2, 4]
        assert not stack.layer(1).is_proper and not stack.layer(3).is_proper

    def test_matroid_single_layer(self):
        stack = stack_of(uniform_matroid(2, 4).system)
        assert stack.k == stack.l == 2
        assert len(stack.proper_layers()) == 1

    def test_union_reconstructs(self, rng):
        for _ in range(20):
            s = random_system(rng, 4)
            stack = stack_of(s)
            union = frozenset().union(*(layer.masks for layer in stack.layers))
            assert union == s.masks

    def test_full_higgs_layers_are_lifts(self):
        from dmkit.census import random_quotient_pair
        from dmkit.higgs import full_higgs_dm, higgs_lift

        for seed in range(10):
            q, lift = random_quotient_pair(5, 1, 3, seed)
            d = full_higgs_dm(q, lift)
            stack = stack_of(d)
            for size, layer in stack.proper_layers():
                assert layer.masks == higgs_lift(q, lift, size - q.rank).bases


class TestClassifyStack:
    def test_p5_is_matroid_stack_dm(self):
        flags = classify_stack(make_named("P5"))
        assert flags.matroid_stack and flags.delta_matroid

    def test_twist_of_rank2_matroid_is_not_matroid_stack(self):
        m = system_of("1234", "12", "13", "14", "23", "24")
        twisted = m.twist(["1", "3"])
        flags = classify_stack(twisted)
        assert flags.delta_matroid and not flags.matroid_stack

    def test_matroid_inherits_own_paving_flags(self):
        from dmkit.matroid import paving_flags

        m = uniform_matroid(2, 4)
        flags = classify_stack(m.system)
        assert flags.matroid_stack
        assert (flags.paving_system, flags.sparse_paving_system) == paving_flags(m)

    def test_rank_gap_report(self):
        flags = classify_stack(make_named("T5"))
        assert flags.rank_gaps == (2, 2) and flags.gaps_within_bounds
        flags = classify_stack(system_of("abcd", "", "abc"))
        assert flags.rank_gaps == (3,) and not flags.gaps_within_bounds

    def test_implications(self, rng):
        for _ in range(150):
            s = random_system(rng, 4)
            flags = classify_stack(s)
            if flags.sparse_paving_system:
                assert flags.paving_system
            if flags.paving_system:
                assert flags.matroid_stack
            if flags.quotient_system:
                assert flags.matroid_stack


class TestStackExminors:
    def test_matroid_is_trivially_fine(self):
        u24 = uniform_matroid(2, 4).system
        ok, _ = classify_by_exminors(u24, ExminorClassId.MATROID_STACK)
        assert ok

    def test_sparse_paving_with_t2_minor_fails(self):
        t2 = make_named("T2")
        assert classify_stack(t2).sparse_paving_system
        ok, witness = classify_by_exminors(t2, ExminorClassId.SPARSE_PAVING)
        assert not ok and witness.target_name in ("T2", "T2*")

    def test_full_higgs_dm_is_quotient_dm(self):
        from dmkit.census import random_quotient_pair
        from dmkit.higgs import full_higgs_dm

        for seed in range(8):
            q, lift = random_quotient_pair(4, 1, 3, seed)
            d = full_higgs_dm(q, lift)
            if not classify_stack(d).quotient_system:
                continue
            ok, _ = classify_by_exminors(d, ExminorClassId.QUOTIENT_STACK)
            assert ok

    def test_ambient_violation_distinct(self):
        bad = system_of("1234", "12", "13", "34")  # its 2-layer is not a matroid
        with pytest.raises(AmbientHypothesisError):
            classify_by_exminors(bad, ExminorClassId.MATROID_STACK)


class TestSpEven:
    def test_s2(self):
        assert check_speven(make_named("S2")) is True

    def test_non_even_rejected(self):
        with pytest.raises(AmbientHypothesisError):
            check_speven(make_named("U1"))

    def test_exhaustive_n3(self):
        from dmkit.census import enumerate_proper_systems

        for _, s in enumerate_proper_systems(3):
            flags = classify_stack(s)
            if flags.even and flags.sparse_paving_system:
                assert check_speven(s) is True


class TestDualClosure:
    def test_stack_classes_closed_under_duals(self, rng):
        for _ in range(120):
            s = random_system(rng, 4)
            flags = classify_stack(s)
            dual_flags = classify_stack(s.dual())
            assert flags.matroid_stack == dual_flags.matroid_stack
            assert flags.sparse_paving_system == dual_flags.sparse_paving_system
            assert flags.quotient_system == dual_flags.quotient_system


class TestMinorClosure:
    def test_stack_classes_closed_under_single_element_minors(self):
        # layers of any single-element minor stay in the same matroid class
        # (all matroids, paving, sparse paving); exhaustive on 3 elements
        # and one representative per isomorphism class on 4
        import numpy as np

        from dmkit.census import _canonical_index_table, enumerate_proper_systems, family_system

        def check(s):
            flags = classify_stack(s)
            if not flags.matroid_stack:
                return
            for e in s.labels:
                for smaller in (s.delete(e), s.contract(e)):
                    small_flags = classify_stack(smaller)
                    assert small_flags.matroid_stack
                    if flags.paving_system:
                        assert small_flags.paving_system
                    if flags.sparse_paving_system:
                        assert small_flags.sparse_paving_system

        for _, s in enumerate_proper_systems(3):
            check(s)
        reps = np.unique(_canonical_index_table(4)[1:])
        for rep in reps.tolist():
            check(family_system(4, rep))


# -- the bitmap matroid-stack test against the object-level oracle ----------

def reference_layers(s: SetSystem) -> list[SetSystem]:
    """The nonempty size layers, cut from the masks without stack_of."""
    sizes = sorted({m.bit_count() for m in s.masks})
    return [SetSystem(s.labels, frozenset(m for m in s.masks if m.bit_count() == r))
            for r in sizes]


@functools.lru_cache(maxsize=None)
def reference_layer(layer: SetSystem) -> Matroid | None:
    """The layer's matroid by is_matroid and Matroid.from_system (the
    exchange_violation scan), or None."""
    return Matroid.from_system(layer) if is_matroid(layer) else None


def reference_matroid_stack(s: SetSystem) -> bool:
    """Every layer passes is_matroid."""
    return all(reference_layer(layer) is not None for layer in reference_layers(s))


@functools.lru_cache(maxsize=None)
def _reference_quotient(q: Matroid, lift: Matroid) -> bool:
    """The circuit form: every circuit of the lift is a union of circuits
    of q (stack_flags decides it from cyclic-set families instead)."""
    return circuits_cover(q.circuit_masks(), lift.circuit_masks())


def reference_flags(s: SetSystem) -> tuple[bool, bool, bool, bool]:
    """(matroid stack, paving, sparse paving, quotient) from is_matroid
    and Matroid.from_system on each layer, and circuits_cover on
    consecutive layers."""
    matroids = [reference_layer(layer) for layer in reference_layers(s)]
    if None in matroids:
        return (False, False, False, False)
    pav = [paving_flags(m) for m in matroids]
    quotient = all(_reference_quotient(a, b) for a, b in zip(matroids, matroids[1:]))
    return (True, all(p for p, _ in pav), all(sp for _, sp in pav), quotient)


def reference_gaps(s: SetSystem) -> tuple[int, ...]:
    """Differences of consecutive nonempty layer sizes."""
    sizes = [next(iter(layer.masks)).bit_count() for layer in reference_layers(s)]
    return tuple(b - a for a, b in zip(sizes, sizes[1:]))


def stack_like_systems(rng: random.Random, n: int):
    """Full Higgs delta-matroids (matroid stacks), their twists (mostly
    not), sparse families and dense random families."""
    for _ in range(30):
        r_l = rng.randrange(n + 1)
        q, lift = random_quotient_pair(n, rng.randrange(r_l + 1), r_l, rng.randrange(1 << 30))
        d = full_higgs_dm(q, lift)
        yield d
        yield d.twist(rng.sample(list(d.labels), rng.randrange(1, n + 1)))
    for _ in range(150):
        masks = {rng.randrange(1 << n) for _ in range(rng.randrange(1, 2 * n))}
        yield SetSystem(tuple(LABELS[:n]), frozenset(masks))
        yield random_system(rng, n)


class TestIsMatroidStack:
    def test_every_family_n_le_4(self):
        for n in range(1, 5):
            for _, s in enumerate_proper_systems(n):
                assert is_matroid_stack(s) == reference_matroid_stack(s), s

    @pytest.mark.parametrize("n", [5, 6])
    def test_seeded_families(self, n):
        rng = random.Random(f"matroid-stack:{n}")
        verdicts = []
        for s in stack_like_systems(rng, n):
            verdicts.append(is_matroid_stack(s))
            assert verdicts[-1] == reference_matroid_stack(s), s
        assert any(verdicts) and not all(verdicts)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.just(n),
        st.one_of(
            st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=2 * n),
            st.integers(1, (1 << (1 << n)) - 1).map(lambda bm: set(iter_bits(bm))),
        ),
    )))
    def test_property_reference_and_duals(self, case):
        n, masks = case
        s = SetSystem(tuple(LABELS[:n]), frozenset(masks))
        verdict = is_matroid_stack(s)
        assert verdict == reference_matroid_stack(s)
        assert verdict == is_matroid_stack(s.dual())

    def test_classify_stack_flags_every_family_n_le_4(self):
        for n in range(1, 5):
            for _, s in enumerate_proper_systems(n):
                flags = classify_stack(s)
                got = (flags.matroid_stack, flags.paving_system,
                       flags.sparse_paving_system, flags.quotient_system)
                assert got == reference_flags(s), s

    @pytest.mark.parametrize("n", [5, 6])
    def test_classify_stack_flags_seeded_families(self, n):
        rng = random.Random(f"classify-stack:{n}")
        seen = []
        for s in stack_like_systems(rng, n):
            flags = classify_stack(s)
            got = (flags.matroid_stack, flags.paving_system,
                   flags.sparse_paving_system, flags.quotient_system)
            assert got == reference_flags(s), s
            assert flags.rank_gaps == reference_gaps(s), s
            seen.append(got)
        # every flag is seen both set and clear among the matroid stacks
        for i in range(1, 4):
            assert {got[i] for got in seen if got[0]} == {False, True}, i

    def test_every_layer_n5_reads_the_table(self, monkeypatch):
        # every nonempty r-layer on five elements, each as a one-layer
        # system: 2^C(5, r) - 1 of them per r.  The matroid verdicts and
        # the paving flags come from the table, built once, with no
        # exchange test
        layers = every_layer_n5()
        assert len(layers) == 2110
        matroid_layers.cache_clear()
        stack_flags.cache_clear()

        def refuse(bm, n):
            raise AssertionError(f"exchange test on {bm} over {n} elements")

        monkeypatch.setattr(stacks, "exchange_holds", refuse)
        for layer in layers:
            assert is_matroid_stack(layer) == reference_matroid_stack(layer), layer
            # paving_flags on the layer as a basis family, matroid or not
            expect = paving_flags(Matroid(layer))
            assert layer_paving_flags(layer.family_bitmap, 5) == expect, layer
            if layer.family_bitmap in matroid_layers(5):
                assert matroid_layers(5)[layer.family_bitmap] == expect, layer
            flags = classify_stack(layer)
            got = (flags.matroid_stack, flags.paving_system,
                   flags.sparse_paving_system, flags.quotient_system)
            assert got == reference_flags(layer), layer
        for layer in layers:
            is_matroid_stack(layer)
        assert matroid_layers.cache_info().misses == 1

    def test_improper_system_rejected(self):
        with pytest.raises(ImproperSystemError):
            is_matroid_stack(SetSystem(tuple("ab"), frozenset()))

    def test_layer_verdict_is_basis_exchange(self):
        # membership in matroid_layers(n) is basis exchange:
        # exchange_violation is the reference, on every five-element layer
        # and on seeded six- and seven-element ones, random picks and
        # matroid basis families.  Above five elements the stand-in
        # decides by the exchange axiom, and its flags are paving_flags'
        layers = every_layer_n5()
        rng = random.Random(2026)
        for n in (6, 7):
            labels = tuple(LABELS[:n])
            for _ in range(150):
                r = rng.randrange(n + 1)
                masks = [m for m in range(1 << n) if m.bit_count() == r]
                pick = rng.sample(masks, rng.randrange(1, len(masks) + 1))
                layers.append(SetSystem(labels, frozenset(pick)))
                layers.append(random_quotient_pair(n, r, r, rng.randrange(1 << 30))[1].system)
        verdicts = set()
        for layer in layers:
            verdict = layer.family_bitmap in matroid_layers(layer.n)
            assert verdict == (exchange_violation(layer) is None), layer
            verdicts.add((layer.n, verdict))
            if layer.n > 5:
                assert matroid_layers(layer.n)[layer.family_bitmap] == paving_flags(
                    Matroid(layer)), layer
        assert verdicts == {(n, v) for n in (5, 6, 7) for v in (False, True)}


def every_layer_n5() -> list[SetSystem]:
    """Every nonempty cardinality layer on five elements (2 110 of them),
    each as a one-layer system, by size, then by pick of its masks."""
    labels = tuple(LABELS[:5])
    layers = []
    for r in range(6):
        masks = [m for m in range(32) if m.bit_count() == r]
        for pick in range(1, 1 << len(masks)):
            layers.append(SetSystem(labels, frozenset(masks[i] for i in iter_bits(pick))))
    return layers



# -- the tables of matroids on n labelled elements ----------------------------

class TestMatroidLayers:
    def test_labelled_matroid_counts(self):
        # OEIS A058673: the matroids on n labelled elements
        assert [len(matroid_layers(n)) for n in range(6)] == [1, 2, 5, 16, 68, 406]

    def test_rank_counts(self):
        # every nonempty layer of rank 0, 1, 4 or 5 is a matroid (2^C(5, r) - 1
        # of them), which is why the stack tests look only at ranks 2 and 3
        sel = layer_selectors(5)
        table = matroid_layers(5)
        assert [sum(bm & ~sel[r] == 0 for bm in table) for r in range(6)] == [
            1, 31, 171, 171, 31, 1]

    @pytest.mark.parametrize("n", range(6))
    def test_flags_are_the_circuit_reference(self, n):
        # each entry's (paving, sparse paving) flags are those of
        # matroid.paving_flags, from circuits, on the same n elements: a
        # loop the masks avoid changes them
        labels = tuple(LABELS[:n])
        for bm, flags in matroid_layers(n).items():
            assert flags == paving_flags(Matroid(SetSystem.from_bitmap(labels, bm))), (n, bm)

    def test_cli_import_builds_no_table(self):
        # the table is built on first use, so processes that never decide a
        # stack (constructions, the CLI's cold start) do not pay for it
        code = ("import dmkit.cli\n"
                "from dmkit.stacks import matroid_layers\n"
                "assert matroid_layers.cache_info().misses == 0, 'table built at import'\n")
        done = subprocess.run([sys.executable, "-c", code],
                              env={**os.environ, "PYTHONPATH": str(SRC)},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr


# -- the per-family stack_flags memo ------------------------------------------

def memo_families(n: int):
    """Family bitmaps on n elements: sparse and dense random families, and
    full Higgs delta-matroids of seeded quotient pairs (matroid stacks)."""
    masks = st.one_of(
        st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=2 * n),
        st.integers(1, (1 << (1 << n)) - 1).map(lambda bm: set(iter_bits(bm))),
        st.tuples(st.integers(0, n), st.integers(0, n), st.integers(0, 1 << 30)).map(
            lambda t: full_higgs_dm(*random_quotient_pair(n, min(t[:2]), max(t[:2]), t[2])).masks),
    )
    return masks.map(lambda ms: sum(1 << m for m in ms))


def census_reports(items) -> list[str]:
    """to_json() of each n = 4 run, a theorem id or None for count_census,
    from an empty memo."""
    stack_flags.cache_clear()
    return [verify_equivalence(4, t).to_json() if t else count_census(4).to_json()
            for t in items]


class TestStackFlagsMemo:
    def test_memo_matches_unmemoized_every_family_n_le_4(self):
        stack_flags.cache_clear()
        for n in range(5):
            for bm in range(1, 1 << (1 << n)):
                assert stack_flags(bm, n) == stack_flags.__wrapped__(bm, n), (bm, n)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.sampled_from([5, 6]).flatmap(lambda n: st.tuples(st.just(n), memo_families(n))))
    def test_memo_matches_unmemoized_seeded_n5_n6(self, case):
        n, bm = case
        want = stack_flags.__wrapped__(bm, n)
        assert stack_flags(bm, n) == want
        assert stack_flags(bm, n) == want

    def test_key_includes_n(self):
        # {a} is sparse paving on two elements, not on three ({b, c} is a
        # non-spanning 2-set)
        stack_flags.cache_clear()
        assert stack_flags(0b10, 2) == (True, True, True, True)
        assert stack_flags(0b10, 3) == (True, True, False, True)
        assert stack_flags(0b10, 2) == (True, True, True, True)

    def test_every_representative_n_le_4_fits(self):
        reps = [(rep, n) for n in range(5) for rep in _class_weights(n)[0].tolist()]
        assert len(reps) == 1 + 3 + 11 + 79 + 3983 == 4077 <= LAYER_CACHE_SIZE
        stack_flags.cache_clear()
        first = [stack_flags(rep, n) for rep, n in reps]
        info = stack_flags.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 4077, 4077)
        assert [stack_flags(rep, n) for rep, n in reps] == first
        assert stack_flags.cache_info().hits == 4077

    def test_census_makes_no_stack_flags_call(self, monkeypatch):
        # the stack columns (paving, sparse paving, quotient) of the 13
        # n = 4 theorems and of count_census decide their batches by
        # paving_bits and quotient_bits; the memo serves the object API
        import dmkit.minorscan as minorscan

        want = census_reports([*REGISTRY, None])
        assert all('"ok": true' in report for report in want)
        calls = []

        def spy(bm, n):
            calls.append((bm, n))
            return stack_flags(bm, n)

        monkeypatch.setattr(minorscan, "stack_flags", spy)
        assert census_reports([*REGISTRY, None]) == want
        assert not calls
        assert stack_flags.cache_info().currsize == 0

    def test_reverse_theorem_order_same_reports(self):
        items = [*REGISTRY, None]
        forward = census_reports(items)
        assert census_reports(items[::-1]) == forward[::-1]
