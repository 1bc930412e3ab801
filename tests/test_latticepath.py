"""Region construction checks, path enumeration, LPDM construction, duals and
minors at the region level."""

from __future__ import annotations

import itertools
import json
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmkit.bitset import down_closure, family_to_bitmap, iter_bits, minimal_members, up_closure
from dmkit.errors import FormatError, InvalidRegionError, UnknownElementError
from dmkit.higgs import full_higgs_dm
from dmkit.latticepath import (
    Region,
    _all_paths_bitmap,
    _matroid_bitmaps,
    _two_sided_paths_bitmap,
    count_paths,
    element_kind,
    enumerate_paths,
    iter_regions,
    lpdm,
    parse_region,
    region_dual,
    region_minor,
    region_svg,
    serialize_region,
    verify_region_prop,
)
from dmkit.matroid import (
    _circuit_masks,
    _independent_bitmap,
    _spanning_bitmap,
    circuits_cover,
    is_matroid,
)
from dmkit.setsystem import SetSystem

TINY = Region(1, 0, 1, 1, "EN", "EE")
FIG1 = Region(0, 0, 5, 4, "EENEENENN", "NNEENEENE")
FIG2 = Region(3, 4, 4, 8, "EEENEENENEEN", "EEENEENNENNE")


def relabel_reverse(system: SetSystem) -> SetSystem:
    n = system.n
    return SetSystem(
        system.labels,
        frozenset(
            sum(1 << (n - 1 - i) for i in range(n) if m >> i & 1) for m in system.masks
        ),
    )


class TestValidation:
    def test_classic_case_valid(self):
        assert FIG1.diagnostics() == []

    def test_vc_below_d(self):
        # every violated constraint is named, first one first
        with pytest.raises(InvalidRegionError) as err:
            Region(2, 1, 1, 2, "EEN", "ENN")
        assert str(err.value) == "v - c = 1 is below d = 2; Q ends at height 4, expected 2"

    def test_crossing_detected(self):
        with pytest.raises(InvalidRegionError, match="^P crosses above Q at level 1$"):
            Region(0, 0, 1, 1, "NE", "EN")

    def test_word_endpoint_mismatch(self):
        with pytest.raises(InvalidRegionError, match="^P ends at height 0, expected 1$"):
            Region(0, 0, 1, 1, "EE", "NE")

    def test_fig2_valid(self):
        assert FIG2.diagnostics() == []

    def test_unchecked_regions_pass_the_check(self):
        # iter_regions and region_dual build their regions unchecked; each
        # equals the region built through the checking constructor
        for region in iter_regions(7):
            for built in (region, region_dual(region)):
                fields = (built.d, built.c, built.u, built.v, built.p_word, built.q_word)
                assert Region(*fields) == built, built


class TestPaths:
    def test_tiny_three_paths(self):
        paths = enumerate_paths(TINY)
        b_sets = sorted(p.north_labels() for p in paths)
        assert b_sets == [(), (1,), (2,)]

    def test_classic_case_constant_size(self):
        sizes = {len(p.north_labels()) for p in enumerate_paths(FIG1)}
        assert sizes == {4}

    def test_fig2_all_endpoints_used(self):
        paths = enumerate_paths(FIG2)
        assert {p.start for p in paths} == {0, 1, 2, 3}
        assert {p.end for p in paths} == {0, 1, 2, 3, 4}

    def test_fig2_path_count_frozen(self):
        # regression value computed by this enumerator
        assert count_paths(FIG2) == len(enumerate_paths(FIG2)) == 6424

    def test_count_matches_enumeration(self):
        for region in itertools.islice(iter_regions(4), 0, 600, 7):
            assert count_paths(region) == len(enumerate_paths(region))

    def test_paths_stay_in_region(self):
        for p in enumerate_paths(FIG2):
            y = p.start
            x = -y
            for level, step in enumerate(p.word, start=1):
                if step == "N":
                    y += 1
                else:
                    x += 1
                assert FIG2.hp[level] <= y <= FIG2.hq[level]


class TestLpdm:
    def test_tiny(self):
        res = lpdm(TINY)
        assert res.system.masks == frozenset({0, 1, 2})
        assert res.min_matroid.rank == 0
        assert res.max_matroid.bases == frozenset({1, 2})

    def test_degenerate_single_north(self):
        res = lpdm(Region(0, 0, 0, 1, "N", "N"))
        assert res.system.labels == ("1",) and res.system.masks == frozenset({1})

    def test_fig1_transversal_matroid(self):
        # presentation {{1,2,3},{2..6},{5..8},{8,9}} from the figure
        pres = [set(range(1, 4)), set(range(2, 7)), set(range(5, 9)), {8, 9}]
        bases = set()
        for combo in itertools.combinations(range(1, 10), 4):
            for perm in itertools.permutations(range(4)):
                if all(combo[i] in pres[perm[i]] for i in range(4)):
                    bases.add(frozenset(combo))
                    break
        got = {
            frozenset(int(e) for e in fs) for fs in lpdm(FIG1).system.feasible_sets()
        }
        assert got == bases

    def test_empty_region(self):
        res = lpdm(Region(0, 0, 0, 0, "", ""))
        assert res.system.labels == () and res.system.masks == frozenset({0})

    def test_raises_the_failure_tag_of_verify_region_prop(self, monkeypatch):
        # lpdm decides the claims by verify_region_prop and raises its tag
        import dmkit.latticepath as latticepath

        monkeypatch.setattr(latticepath, "verify_region_prop", lambda region: "patched tag")
        with pytest.raises(InvalidRegionError, match="^patched tag$"):
            lpdm(FIG2)

    def test_path_image_is_the_full_higgs_lift(self):
        # verify_region_prop, which lpdm runs, checks the path image
        # against the bitmap envelope of the pair, spanning in the minimal
        # matroid and independent in the maximal one; the full Higgs lift
        # built from the matroids agrees
        for region in iter_regions(6):
            res = lpdm(region)
            assert res.system == full_higgs_dm(res.min_matroid, res.max_matroid), region


    def test_matroids_are_the_extreme_path_layers(self):
        # The one-pass path bitmap, cut to its layers of sizes v - c - d and
        # v, gives the paths from s_Q to t_P and from s_P to t_Q, as walked
        # one by one.
        for region in iter_regions(6):
            ends = {(region.d, 0): set(), (0, region.c): set()}
            for path in enumerate_paths(region):
                if (path.start, path.end) in ends:
                    mask = sum(1 << (label - 1) for label in path.north_labels())
                    ends[path.start, path.end].add(mask)
            lo, hi = (family_to_bitmap(ends[key]) for key in ((region.d, 0), (0, region.c)))
            assert _matroid_bitmaps(region, _all_paths_bitmap(region)) == (lo, hi), region


class TestRegionDual:
    def test_tiny_offsets_swap(self):
        dual = region_dual(TINY)
        assert (dual.d, dual.c) == (0, 1)

    def test_involution(self):
        for region in itertools.islice(iter_regions(5), 0, 3000, 11):
            assert region_dual(region_dual(region)) == region

    def test_dual_semantics_samples(self):
        for region in itertools.islice(iter_regions(5), 0, 3000, 23):
            lhs = lpdm(region_dual(region)).system
            rhs = relabel_reverse(lpdm(region).system.dual())
            assert lhs.masks == rhs.masks

    def test_fig2_dual_semantics(self):
        lhs = lpdm(region_dual(FIG2)).system
        rhs = relabel_reverse(lpdm(FIG2).system.dual())
        assert lhs.masks == rhs.masks


class TestRegionMinor:
    def test_delete_loop_column(self):
        # loop: both paths share an east step; region pinched at label 3
        region = Region(0, 0, 2, 1, "ENE", "NEE")
        assert element_kind(region, 3) == "loop"
        smaller = region_minor(region, 3, "delete")
        assert smaller.n == 2
        assert lpdm(smaller).system.masks == lpdm(region).system.delete("3").masks

    def test_tiny_delete_2(self):
        smaller = region_minor(TINY, 2, "delete")
        assert lpdm(smaller).system.masks == frozenset({0, 1})

    def test_contract_is_dual_delete_dual(self):
        for region in itertools.islice(iter_regions(4), 0, 2000, 17):
            for e in range(1, region.n + 1):
                got = region_minor(region, e, "contract")
                flipped = region_dual(region)
                expect = region_dual(region_minor(flipped, region.n + 1 - e, "delete"))
                if element_kind(region, e) != "loop":
                    assert lpdm(got).system == lpdm(expect).system

    def test_bad_label(self):
        with pytest.raises(UnknownElementError):
            region_minor(TINY, 3, "delete")

    def test_commutes_with_set_system_minor_small(self):
        # exhaustive over u+v <= 4; the acceptance suite extends to 6
        for region in iter_regions(4):
            system = lpdm(region).system
            for e in range(1, region.n + 1):
                label = str(e)
                for op, oracle in (
                    ("delete", system.delete(label)),
                    ("contract", system.contract(label)),
                ):
                    got = lpdm(region_minor(region, e, op)).system
                    assert got.masks == oracle.masks, (region, e, op)


    def test_each_call_checks_only_the_built_region(self, monkeypatch):
        # region_minor checks the one region it builds from height
        # profiles; the regions it flips on the way, like every
        # region_dual, are duals of valid regions, built unchecked
        post_init, seen = Region.__post_init__, []

        def counted(region):
            seen.append(region)
            post_init(region)

        monkeypatch.setattr(Region, "__post_init__", counted)
        for region in iter_regions(4):
            seen.clear()
            region_dual(region)
            assert seen == []
            for e in range(1, region.n + 1):
                for op in ("delete", "contract"):
                    seen.clear()
                    region_minor(region, e, op)
                    assert len(seen) == 1, (region, e, op)


class TestNonClosureUnderTwists:
    def test_lpm_twist_leaves_the_class(self):
        # M = 2-subsets of {1,2,3,4} minus {3,4} is an LPDM; its twist by
        # {2,3} has a 2-layer that is not a matroid, and is not Higgs
        from dmkit.higgs import classify_higgs
        from dmkit.stacks import stack_of

        m = SetSystem.from_sets(tuple("1234"), [list(s) for s in ("12", "13", "14", "23", "24")])
        assert is_matroid(m)
        twisted = m.twist(["2", "3"])
        layer2 = [layer for size, layer in stack_of(twisted).proper_layers() if size == 2]
        assert layer2 and not is_matroid(layer2[0])
        assert twisted.is_delta_matroid()
        assert not classify_higgs(twisted).is_higgs


class TestIndexSubsets:
    def test_layer_selected_families_are_delta_matroids(self):
        # selecting layer sizes K (complement gap-free) keeps (SE)
        from dmkit.latticepath import lpdm as build

        for region in itertools.islice(iter_regions(4), 0, 1200, 19):
            res = build(region)
            sizes = sorted({m.bit_count() for m in res.system.masks})
            if len(sizes) < 2:
                continue
            lo, hi = sizes[0], sizes[-1]
            keep = {s for s in range(lo, hi + 1) if (s - lo) % 2 == 0}
            masks = frozenset(m for m in res.system.masks if m.bit_count() in keep)
            picked = SetSystem(res.system.labels, masks)
            if picked.is_proper:
                assert picked.is_delta_matroid()


class TestSerialization:
    def test_round_trip(self):
        for region in (TINY, FIG1, FIG2):
            assert parse_region(serialize_region(region)) == region

    @pytest.mark.parametrize("key, value", [("d", 0.9), ("d", 1.0), ("d", True), ("u", "1"),
                                            ("v", None), ("P", ["E", "N"]), ("Q", 0)])
    def test_malformed_fields_rejected(self, key, value):
        # the serialized TINY with one field replaced by a non-integer
        # coordinate or a non-string path word
        doc = json.loads(serialize_region(TINY))
        doc[key] = value
        with pytest.raises(FormatError):
            parse_region(json.dumps(doc))

    def test_svg_smoke(self):
        svg = region_svg(FIG2)
        assert svg.startswith("<svg") and "polyline" in svg


class TestPropositionSamples:
    def test_prop_samples_and_fast_path_agree(self):
        # the bitmap claims hold, and lpdm builds both matroids through
        # the validated Matroid.from_system
        for region in itertools.islice(iter_regions(5), 0, 4000, 31):
            assert verify_region_prop(region) is None
            lpdm(region)  # raises if either claim fails

    def test_fast_path_passes_exactly_the_valid_regions(self):
        # every tuple with u <= 2, v <= 3, d, c <= 3 and E/N words of length
        # u + v: those that construct are exactly the regions iter_regions
        # yields, and they pass both paths-bitmap routes and the bitmap
        # checks; every other one raises all its violated constraints, the
        # first of them of the kinds counted here
        built, first_kinds = set(), Counter()
        for u, v, d, c in itertools.product(range(3), range(4), range(4), range(4)):
            words = ["".join(w) for w in itertools.product("EN", repeat=u + v)]
            for p_word, q_word in itertools.product(words, words):
                fields = (d, c, u, v, p_word, q_word)
                try:
                    region = Region(*fields)
                except InvalidRegionError as err:
                    diags = Region._valid(*fields).diagnostics()
                    assert str(err) == "; ".join(diags), fields
                    first_kinds[re.sub(r"-?\d+", "#", diags[0])] += 1
                    continue
                assert _all_paths_bitmap(region) == _two_sided_paths_bitmap(region), region
                assert verify_region_prop(region) is None, region
                built.add(region)
        assert built == {r for r in iter_regions(5) if r.u <= 2 and r.v <= 3 and max(r.d, r.c) <= 3}
        assert len(built) == 879
        assert first_kinds == {"v - c = # is below d = #": 12831,
                               "P ends at height #, expected #": 11608,
                               "Q ends at height #, expected #": 3077,
                               "P crosses above Q at level #": 165}

    def test_a_negative_minimal_size_is_refused(self):
        # with v - c < d no path has v - c - d north steps
        for fields in ((1, 0, 0, 0, "", ""), (2, 0, 1, 1, "EN", "NE")):
            with pytest.raises(InvalidRegionError, match="^v - c = . is below d = "):
                Region(*fields)

    def test_words_of_the_wrong_length_are_refused(self):
        # a word of the wrong length bounds no path of u + v steps
        for fields, message in (((0, 0, 1, 1, "E", "E"), "P has 1 steps, expected 2"),
                                ((0, 0, 1, 1, "EN", "E"), "Q has 1 steps, expected 2"),
                                ((0, 0, 1, 1, "ENE", "NEE"), "P has 3 steps, expected 2")):
            with pytest.raises(InvalidRegionError, match=f"^{message}"):
                Region(*fields)


words = st.text(alphabet="EN", max_size=8)


@st.composite
def loose_regions(draw):
    """Region fields with any small offsets (negative ones and v - c < d
    too) and E/N words of any length up to 8, half of them of length
    u + v."""
    d, c, v = (draw(st.integers(-2, 5)) for _ in range(3))
    p_word = draw(words)
    q_word = draw(st.one_of(st.text(alphabet="EN", min_size=len(p_word),
                                    max_size=len(p_word)), words))
    u = draw(st.one_of(st.just(len(p_word) - v), st.integers(-2, 8)))
    return d, c, u, v, p_word, q_word


class TestSideFamilies:
    """_all_paths_bitmap (one-sided families per word) against the
    two-sided level DP and the path enumerator."""

    def test_every_region_up_to_seven(self):
        for region in iter_regions(7):
            assert _all_paths_bitmap(region) == _two_sided_paths_bitmap(region), region

    def test_union_of_enumerated_paths(self):
        for region in iter_regions(5):
            labels = {
                sum(1 << (e - 1) for e in path.north_labels())
                for path in enumerate_paths(region)
            }
            assert _all_paths_bitmap(region) == family_to_bitmap(labels), region

    @given(loose_regions())
    @settings(max_examples=400, deadline=None)
    def test_loose_regions(self, fields):
        try:
            region = Region(*fields)
        except InvalidRegionError as err:
            assert str(err) == "; ".join(Region._valid(*fields).diagnostics())
            return
        assert _all_paths_bitmap(region) == _two_sided_paths_bitmap(region)
        assert verify_region_prop(region) is None


def closures(bases: int, n: int) -> tuple[int, int, list[int]]:
    """Spanning and independent bitmaps and circuits of a basis bitmap,
    computed without the matroid caches."""
    full = (1 << (1 << n)) - 1
    indep = down_closure(bases, n)
    return up_closure(bases, n), indep, list(iter_bits(minimal_members(full & ~indep, n)))


class TestCachedClosures:
    def test_sweep_matches_the_uncached_formula(self):
        # verify_region_prop reads the (basis bitmap, n) caches; here every
        # region with u + v <= 6 is decided again from closures computed
        # inline, and an lpdm slice builds the same path family
        for i, region in enumerate(iter_regions(6)):
            n = region.n
            d_bm = _all_paths_bitmap(region)
            lo_bm, hi_bm = _matroid_bitmaps(region, d_bm)
            span_lo, _, circuits_lo = closures(lo_bm, n)
            _, indep_hi, circuits_hi = closures(hi_bm, n)
            assert d_bm == span_lo & indep_hi, region
            assert circuits_cover(circuits_lo, circuits_hi), region
            assert verify_region_prop(region) is None, region
            assert _spanning_bitmap(lo_bm, n) == span_lo
            assert _independent_bitmap(hi_bm, n) == indep_hi
            assert sorted(_circuit_masks(lo_bm, n)) == circuits_lo
            assert sorted(_circuit_masks(hi_bm, n)) == circuits_hi
            if i % 41 == 0:
                assert lpdm(region).system.family_bitmap == d_bm

    def test_ground_set_size_is_part_of_the_key(self):
        bases = 1 << 0b011  # the one basis {a, b}
        for n in (2, 3):
            span, indep, circuits = closures(bases, n)
            assert (_spanning_bitmap(bases, n), _independent_bitmap(bases, n)) == (span, indep)
            assert sorted(_circuit_masks(bases, n)) == circuits
        assert _spanning_bitmap(bases, 2) != _spanning_bitmap(bases, 3)
        assert _circuit_masks(bases, 2) == ()
        assert _circuit_masks(bases, 3) == (0b100,)
