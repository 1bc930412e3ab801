"""Named constructions and the appendix twist tables."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from dmkit.bitset import orbit
from dmkit.catalog import (
    _FIXED,
    CatalogEntry,
    ExminorClassId,
    _s_twist_reps,
    _twist_name,
    binary_twist_classes,
    excluded_minor_set,
    make_named,
    twist_classes,
)
from dmkit.errors import UnknownNameError
from dmkit.setsystem import SetSystem

from conftest import LABELS

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "appendix_tables.json").read_text()
)

P_BASES = ("P1", "P2", "P3", "P4", "P5")
TABLE_CLASS_COUNTS = {"T1": 6, "T2": 6, "T3": 4, "T4": 6, "T5": 6, "T6": 7, "T7": 8, "T8": 8}


def fam(system: SetSystem) -> set[frozenset[str]]:
    return {frozenset(fs) for fs in system.feasible_sets()}


class TestMakeNamed:
    def test_t5(self):
        t5 = make_named("T5")
        assert t5.labels == ("a", "b", "c", "d")
        assert fam(t5) == {frozenset(), frozenset("ab"), frozenset("abcd")}

    def test_u2(self):
        u2 = make_named("U2")
        assert fam(u2) == {frozenset(), frozenset("c"), frozenset("ab"), frozenset("abc")}

    def test_s4(self):
        s4 = make_named("S_4")
        assert s4.labels == ("e1", "e2", "e3", "e4")
        assert s4.masks == frozenset({0, 15})

    def test_s1(self):
        s1 = make_named("S1")
        assert s1.labels == ("e1",) and s1.masks == frozenset({0, 1})

    def test_twist_syntax(self):
        assert fam(make_named("T1*{a,b}")) == {frozenset(), frozenset("c"), frozenset("ab")}
        assert fam(make_named("T3*b")) == fam(make_named("T3").twist("b"))
        assert make_named("T7*") == make_named("T7").dual()

    def test_unknown_names(self):
        for bad in ("T9", "X1", "T1*{z}", "S_0", "T1*{a"):
            with pytest.raises(UnknownNameError):
                make_named(bad)

    def test_u_systems_are_delta_matroids(self):
        for i in range(1, 8):
            assert make_named(f"U{i}").is_delta_matroid()

    def test_p_systems_are_delta_matroids(self):
        for i in range(1, 6):
            assert make_named(f"P{i}").is_delta_matroid()

    def test_s_and_t_systems_are_not_delta_matroids(self):
        names = [f"T{i}" for i in range(1, 9)] + [f"S_{k}" for k in range(3, 9)]
        for name in names:
            assert not make_named(name).is_delta_matroid(), name


class TestAppendixTables:
    def test_twist_arithmetic_matches_tables(self):
        # every table entry is the literal twist it claims to be
        for base, rows in GOLDEN.items():
            system = make_named(base)
            for row in rows:
                for entry in row:
                    got = fam(system.twist(entry["twist"]))
                    expected = {frozenset(fs) for fs in entry["feasible"]}
                    assert got == expected, entry["name"]

    def test_class_counts(self):
        total = 0
        for base, expected in TABLE_CLASS_COUNTS.items():
            classes = twist_classes(make_named(base), base)
            assert len(classes) == expected, base
            total += len(classes)
        assert total == 51

    def test_tables_partition_into_generated_classes(self):
        # each table row entry lands in a distinct generated class
        for base, rows in GOLDEN.items():
            classes = twist_classes(make_named(base), base)
            matched = []
            for row in rows:
                for entry in row:
                    entry_system = SetSystem.from_sets(
                        tuple("abcd"[: make_named(base).n]), entry["feasible"]
                    )
                    hits = [
                        i
                        for i, cls in enumerate(classes)
                        if cls.system.is_isomorphic(entry_system)
                    ]
                    assert len(hits) == 1, (base, entry["name"])
                    matched.append(hits[0])
            assert sorted(matched) == list(range(len(classes))), base

    def test_dual_pairings(self):
        # two entries in a row are dual; a single entry is self-dual
        for base, rows in GOLDEN.items():
            n = make_named(base).n
            for row in rows:
                systems = [
                    SetSystem.from_sets(tuple("abcd"[:n]), e["feasible"]) for e in row
                ]
                if len(systems) == 1:
                    assert systems[0].is_isomorphic(systems[0].dual()), row[0]["name"]
                else:
                    a, b = systems
                    assert a.is_isomorphic(b.dual()), (row[0]["name"], row[1]["name"])
                    assert b.is_isomorphic(a.dual())

    def test_s_twist_classes_match_the_closed_form(self):
        # twist_classes groups by relabelling orbits; _s_twist_reps writes
        # each S_k class down without a search, one entry per twist-set
        # size j <= k/2
        for k in range(1, 9):
            name = f"S_{k}"
            assert twist_classes(make_named(name), name) == _s_twist_reps(k, range(k // 2 + 1))

    def test_catalog_canonical_matches(self):
        for base in TABLE_CLASS_COUNTS:
            for cls in twist_classes(make_named(base), base):
                assert cls.system.canonical_form() == make_named(cls.name).canonical_form()


def reference_twist_classes(system: SetSystem, base_name: str) -> list[CatalogEntry]:
    """twist_classes with the orbit of every class walked and every twist
    tested against it, whatever its invariant: the reference of the
    differential test."""
    n = system.n
    order = sorted(range(1 << n), key=lambda a: (a.bit_count(), system.members(a)))
    twisted = {a: system.twist(system.members(a)) for a in order}
    reps: list[int] = []
    class_of: dict[int, int] = {}
    for a in order:
        if a in class_of:
            continue
        reps.append(a)
        images = orbit(twisted[a].family_bitmap, n)
        for b in order:
            if b not in class_of and twisted[b].family_bitmap in images:
                class_of[b] = a
    full = (1 << n) - 1
    names: dict[int, str] = {}
    for rep in reps:
        if rep in names:
            continue
        names[rep] = _twist_name(base_name, system.members(rep), n)
        partner = class_of[rep ^ full]
        if partner != rep:
            names[partner] = _twist_name(base_name, system.members(rep ^ full), n)
    return [CatalogEntry(names[rep], twisted[rep]) for rep in reps]


def seeded_twist_systems(n: int, count: int) -> list[SetSystem]:
    """Seeded families on n elements: a few random sets, with no symmetry
    as a rule, and unions of whole size layers with one set flipped, whose
    twists share invariants across classes."""
    rng = random.Random(f"twist-classes:{n}")
    out = []
    for _ in range(count):
        masks = set(rng.sample(range(1 << n), rng.randrange(2, 2 * n)))
        out.append(SetSystem(tuple(LABELS[:n]), frozenset(masks)))
        sizes = rng.sample(range(n + 1), rng.randrange(1, 4))
        masks = {m for m in range(1 << n) if m.bit_count() in sizes} ^ {rng.randrange(1 << n)}
        out.append(SetSystem(tuple(LABELS[:n]), frozenset(masks or {0})))
    return out


class TestTwistClassesDifferential:
    @pytest.mark.parametrize("base", [*_FIXED, *(f"S_{k}" for k in range(1, 9))])
    def test_catalog_bases(self, base):
        system = make_named(base)
        assert twist_classes(system, base) == reference_twist_classes(system, base)

    @pytest.mark.parametrize("n, count", [(5, 6), (6, 3), (7, 1)])
    def test_seeded_systems(self, n, count):
        for system in seeded_twist_systems(n, count):
            assert twist_classes(system) == reference_twist_classes(system, "S"), system


class TestExcludedMinorSets:
    def test_full_higgs_list(self):
        names = {e.name for e in excluded_minor_set(ExminorClassId.FULL_HIGGS, 4)}
        assert names == {"U1", "S2"}

    def test_sparse_paving_list(self):
        entries = excluded_minor_set(ExminorClassId.SPARSE_PAVING, 6)
        names = {e.name for e in entries}
        assert names == {
            "S_3", "S_4", "S_5", "S_6",
            "T2", "T2*", "T3*b", "T4*b", "T4*{a,c}",
        }

    def test_binary_includes_p_twists_and_delta_list(self):
        entries = excluded_minor_set(ExminorClassId.BINARY, 4)
        names = {e.name for e in entries}
        assert {"P1", "P2", "P3", "P4", "P5"} <= names
        assert any(name.startswith("T5") for name in names)
        assert any(name.startswith("S_3") or name == "S_3" for name in names)

    def test_binary_list_is_p_twists_then_delta_list(self):
        # the binary list's head is the P1..P5 twists that is_binary_dm
        # scans, each within the cap; the rest is the delta-matroid list
        for cap in range(11):
            head = binary_twist_classes(cap)
            assert all(e.name[:2] in P_BASES and e.system.n <= cap for e in head), cap
            assert excluded_minor_set(ExminorClassId.BINARY, cap) == (
                head + excluded_minor_set(ExminorClassId.DELTA_MATROID, cap)), cap
        assert {e.name[:2] for e in binary_twist_classes(3)} == {"P1", "P2", "P3"}
        assert {e.name[:2] for e in binary_twist_classes(4)} == set(P_BASES)
        assert binary_twist_classes(2) == ()

    def test_higgs_list(self):
        names = {e.name for e in excluded_minor_set(ExminorClassId.HIGGS_LIFT, 4)}
        assert names == {f"U{i}" for i in range(1, 8)}

    def test_even_higgs_list(self):
        names = {e.name for e in excluded_minor_set(ExminorClassId.EVEN_HIGGS_WITHIN_EVEN, 4)}
        assert names == {"U3", "U4", "U5", "U6", "U7"}

    def test_matroid_list_caps(self):
        entries = excluded_minor_set(ExminorClassId.MATROID_EQUICARDINAL, 8)
        names = {e.name for e in entries}
        assert names == {
            "T5*{a,d}", "T6*{a,d}",
            "S_4*{e1,e2}", "S_6*{e1,e2,e3}", "S_8*{e1,e2,e3,e4}",
        }

    def test_cap_filters_large_entries(self):
        entries = excluded_minor_set(ExminorClassId.DELTA_MATROID, 3)
        assert all(e.system.n <= 3 for e in entries)
        names = {e.name for e in entries}
        assert "T5" not in names and any(n.startswith("T1") for n in names)

    def test_entries_deduplicated(self):
        for cid in ExminorClassId:
            entries = excluded_minor_set(cid, 5)
            canons = [e.system.canonical_form() for e in entries]
            assert len(canons) == len(set(canons)), cid

    def test_no_entry_relabels_an_earlier_one(self):
        # by orbits, since canonical_form stops at 10 elements: no entry of
        # a list is isomorphic to an earlier entry of the same size
        orbits: dict[tuple[int, int], set[int]] = {}
        for cid in ExminorClassId:
            for cap in range(13):
                seen: dict[int, set[int]] = {}
                for e in excluded_minor_set(cid, cap):
                    n, bm = e.system.n, e.system.family_bitmap
                    assert bm not in seen.get(n, ()), (cid, cap, e.name)
                    key = (n, bm)
                    if key not in orbits:
                        orbits[key] = orbit(bm, n)
                    seen.setdefault(n, set()).update(orbits[key])

    def test_large_caps_build_without_family_bitmaps(self):
        # an S_k entry is built from its two masks; its family bitmap, a
        # 2^k-bit int, is never decoded, so a cap of 64 builds at once
        s_classes = set(ExminorClassId) - {ExminorClassId.HIGGS_LIFT, ExminorClassId.FULL_HIGGS,
                                            ExminorClassId.EVEN_HIGGS_WITHIN_EVEN}
        for cid in ExminorClassId:
            entries = excluded_minor_set(cid, 64)
            names = [e.name for e in entries]
            assert any(name.startswith("S_64") for name in names) == (cid in s_classes), cid
            for e in entries:
                if "family_bitmap" in e.system.__dict__:
                    # only a twist-class entry, decoded by twist_classes' orbits
                    assert e.system.n <= 4 and not e.name.startswith("S"), (cid, e.name)

    def test_quotient_stack_list(self):
        entries = excluded_minor_set(ExminorClassId.QUOTIENT_STACK, 4)
        names = {e.name for e in entries}
        assert names == {
            "S_3", "S_4",
            "T1", "T1*", "T2", "T2*", "T3", "T4", "T4*",
            "T5", "T6", "T7", "T7*", "T8", "T8*",
        }

    def test_no_excluded_minor_is_a_delta_matroid_for_delta_class(self):
        for e in excluded_minor_set(ExminorClassId.DELTA_MATROID, 6):
            assert not e.system.is_delta_matroid(), e.name

    def test_s_twist_closed_form_equals_permutation_search(self):
        # S_k twisted by a j-set is the (k - j)-twist's class and no other
        # j' <= k/2's, so the lists need only the sizes j <= k/2; checked by
        # the relabelling walk for every k <= 8 and every j
        for k in range(3, 9):
            forms = [e.system.canonical_form() for e in _s_twist_reps(k, range(k + 1))]
            assert forms == forms[::-1], k
            assert len(set(forms[:k // 2 + 1])) == k // 2 + 1, k

    def test_entries_match_named_construction_and_search(self):
        # Every list entry, at every cap up to 7, is isomorphic to the
        # system its name builds (a twist-class entry may hold another
        # twist of the class).
        for cid in ExminorClassId:
            for cap in range(8):
                for e in excluded_minor_set(cid, cap):
                    assert e.system.canonical_form() == make_named(e.name).canonical_form(), (
                        cid, cap, e.name)


class TestNamedFacts:
    def test_p5_twist_ac_is_u24(self):
        from dmkit.matroid import uniform_matroid

        p5ac = make_named("P5*{a,c}")
        assert p5ac.is_isomorphic(uniform_matroid(2, 4).system)

    def test_t7_and_dual_not_isomorphic(self):
        assert not make_named("T7").is_isomorphic(make_named("T7*"))

    def test_t3_self_dual(self):
        assert make_named("T3").is_isomorphic(make_named("T3*"))
