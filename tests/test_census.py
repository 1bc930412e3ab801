"""Census enumeration, equivalence verification, counting, and the
seeded quotient-pair generator."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
import subprocess
import sys
from itertools import islice, permutations
from pathlib import Path

import pytest

from dmkit.bitset import permute_mask
from dmkit.catalog import ExminorClassId
from dmkit.census import (
    _COUNT_COLUMNS,
    BATCH,
    REGISTRY,
    _canonical_index_table,
    _class_weights,
    _tally,
    _weighted_families,
    count_census,
    enumerate_proper_systems,
    family_indices,
    family_system,
    random_quotient_pair,
    run_streaming,
    verify_equivalence,
)
from dmkit.errors import CapacityError, DmkitError
from dmkit.matroid import circuits_cover, is_matroid, is_quotient
from dmkit.minorscan import CLASS_TABLE, every_index


SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def wrong(monkeypatch):
    """A deliberately wrong theorem (direct oracle always True, in both
    forms) under the id "wrong": every family that is not a delta-matroid
    is a discrepancy."""
    monkeypatch.setitem(REGISTRY, "wrong", dataclasses.replace(
        REGISTRY["exdelta"], theorem_id="wrong", direct=lambda s: True, direct_index=every_index))
    return "wrong"


def first_non_delta(n: int, k: int) -> list[dict]:
    """The discrepancies of the wrong theorem at its first k family indices."""
    bad = (i for i in range(1, 1 << (1 << n)) if not family_system(n, i).is_delta_matroid())
    return [{"family_index": i, "direct": True, "exminor": False} for i in islice(bad, k)]


class TestEnumeration:
    def test_counts(self):
        assert sum(1 for _ in enumerate_proper_systems(1)) == 3
        assert sum(1 for _ in enumerate_proper_systems(2)) == 15
        assert sum(1 for _ in enumerate_proper_systems(3)) == 255

    def test_family_index_encoding(self):
        _, s = next(iter([(i, s) for i, s in enumerate_proper_systems(2) if i == 0b1001]))
        assert s.masks == frozenset({0, 3})

    def test_exhaustive_capped(self):
        with pytest.raises(CapacityError):
            list(enumerate_proper_systems(5))

    def test_more_elements_than_census_labels_refused(self):
        # the labels are a prefix of CENSUS_LABELS; n = 9 would build an
        # 8-element system or refuse its index as a bad bitmap
        with pytest.raises(CapacityError, match="at most 8 elements, got n = 9"):
            family_system(9, 5)
        with pytest.raises(CapacityError, match="at most 8 elements, got n = 9"):
            next(enumerate_proper_systems(9, "sampled", seed=1, count=1))
        assert family_system(8, 5).n == 8

    def test_sampled_deterministic(self):
        a = [i for i, _ in enumerate_proper_systems(5, "sampled", seed=11, count=50)]
        b = [i for i, _ in enumerate_proper_systems(5, "sampled", seed=11, count=50)]
        c = [i for i, _ in enumerate_proper_systems(5, "sampled", seed=12, count=50)]
        assert a == b and a != c and 0 not in a

    def test_sampled_batches_draw_like_one_call_per_family(self):
        # a batch is one getrandbits call split into strides; it must yield
        # the indices of one getrandbits(2^n) per family, drawn again at 0
        def one_by_one(n: int, seed: int, count: int) -> list[int]:
            rng, out = random.Random(seed), []
            while len(out) < count:
                out += filter(None, [rng.getrandbits(1 << n)])
            return out

        for n in range(8):
            for seed in range(6):
                for count in (0, 1, 2, 33, BATCH - 1, BATCH, BATCH + 1):
                    want = one_by_one(n, seed, count)
                    assert list(family_indices(n, "sampled", seed=seed, count=count)) == want
                    batches = list(_weighted_families(n, "sampled", seed=seed, count=count,
                                                      dedupe=True))
                    assert all(w is None and 0 < len(b) <= BATCH for b, w in batches)
                    assert [i for b, _ in batches for i in b] == want, (n, seed, count)


class TestVerifyEquivalence:
    def test_unknown_theorem(self):
        # both entry points refuse through one lookup, which lists the ids
        texts = []
        for run in (verify_equivalence, run_streaming):
            with pytest.raises(DmkitError) as err:
                run(3, "nope")
            texts.append(str(err.value))
        assert texts == [f"unknown theorem id 'nope'; known: {sorted(REGISTRY)}"] * 2

    def test_refuses_negative_n(self):
        for run in (lambda: verify_equivalence(-1, "exdelta"),
                    lambda: verify_equivalence(-1, "exdelta", dedupe=False),
                    lambda: verify_equivalence(-2, "exdelta", "sampled", count=5),
                    lambda: count_census(-1),
                    lambda: run_streaming(-1, "exdelta"),
                    lambda: run_streaming(-1, "exdelta", stop=5)):
            with pytest.raises(DmkitError, match=r"n = -[12]"):
                run()

    def test_dedupe_matches_full_run(self, wrong):
        # dedupe changes the cost of a run, not a byte of its report: the
        # class sizes weigh each class once, the labelled run counts every
        # family by bit_count
        for n in range(5):
            for tid in REGISTRY:
                fast = verify_equivalence(n, tid, dedupe=True)
                slow = verify_equivalence(n, tid, dedupe=False)
                assert fast.totals == slow.totals, (n, tid)
                assert fast.to_json() == slow.to_json(), (n, tid)
                assert fast.ok == slow.ok == (tid != wrong or n < 3), (n, tid)
        for n in (3, 4):
            fast = verify_equivalence(n, wrong, dedupe=True, max_witnesses=5)
            slow = verify_equivalence(n, wrong, dedupe=False, max_witnesses=5)
            assert fast.to_json() == slow.to_json(), n

    def test_unit_weights_count_like_explicit_ones(self, wrong):
        # a batch without weights counts each family once by bit_count; with
        # weights of 1 it gives the same totals and witnesses, and a weight
        # w counts like w copies of the family
        rng = random.Random(84)
        for n in (3, 4, 5):
            indices = [rng.getrandbits(1 << n) or 1 for _ in range(150)]
            batches = [indices[:70], indices[70:]]
            weights = [rng.randrange(1, 4) for _ in indices]
            copies = [i for i, w in zip(indices, weights) for _ in range(w)]
            for columns in [*(spec.columns for spec in REGISTRY.values()), _COUNT_COLUMNS]:
                plain = _tally(columns, [(b, None) for b in batches], n, 100)
                assert plain == _tally(columns, [(b, [1] * len(b)) for b in batches], n, 100)
                assert (_tally(columns, [(indices, weights)], n)[0]
                        == _tally(columns, [(copies, None)], n)[0]), n
            assert _tally(REGISTRY[wrong].columns, [(indices, None)], n, 100)[1], n

    def test_sampled_run(self):
        rep = verify_equivalence(5, "exfull", "sampled", seed=5, count=300)
        assert rep.ok
        assert rep.totals["checked"] == 300

    def test_report_json_round_trip(self):
        rep = verify_equivalence(2, "exdelta")
        doc = json.loads(rep.to_json())
        assert doc["ok"] is True and doc["totals"]["checked"] == 15

    def test_reports_are_deterministic(self):
        a = verify_equivalence(3, "exdelta").to_json()
        b = verify_equivalence(3, "exdelta").to_json()
        assert a == b


class TestStreaming:
    def test_matches_plain_run(self):
        plain = verify_equivalence(2, "exdelta", dedupe=False)
        stream = run_streaming(2, "exdelta", chunk=7)
        assert stream.totals == plain.totals

    def test_witnesses_keep_index_order_and_cut(self, wrong):
        # Every census path keeps the first max_witnesses discrepancies of
        # the wrong theorem, in family-index order (draw order when sampled).
        bad = [i for i in range(1, 256) if not family_system(3, i).is_delta_matroid()]
        want = [{"family_index": i, "direct": True, "exminor": False} for i in bad[:5]]
        assert first_non_delta(3, 5) == want
        plain = verify_equivalence(3, "wrong", dedupe=False, max_witnesses=5)
        assert plain.discrepancies == want
        assert plain.totals["ambient"] - plain.totals["exminor_members"] == len(bad)
        streamed = run_streaming(3, "wrong", chunk=40, max_witnesses=5)
        assert streamed.discrepancies == want and streamed.totals == plain.totals
        sampled = verify_equivalence(3, "wrong", "sampled", seed=2, count=200, max_witnesses=3)
        first = [i for i, s in enumerate_proper_systems(3, "sampled", seed=2, count=200)
                 if not s.is_delta_matroid()][:3]
        assert [d["family_index"] for d in sampled.discrepancies] == first
        deduped = verify_equivalence(3, "wrong", max_witnesses=5)
        assert deduped.discrepancies == want and deduped.totals == plain.totals
        for k in (1, 5, 100):
            deduped = verify_equivalence(4, "wrong", max_witnesses=k)
            assert deduped.discrepancies == first_non_delta(4, k), k

    def test_witness_rerun_stops_at_the_batch_that_fills_the_report(self, wrong, monkeypatch):
        # a deduplicated run that finds a discrepancy re-runs the labelled
        # loop for its witnesses; it used to evaluate all 65 535 families
        spec = REGISTRY[wrong]
        seen = []

        def counted(indices, n):
            seen.append(len(indices))
            return spec.ambient_index(indices, n)

        monkeypatch.setitem(REGISTRY, wrong, dataclasses.replace(spec, ambient_index=counted))
        classes = len(_class_weights(4)[0])
        for k in (1, 5, 100):
            seen.clear()
            report = verify_equivalence(4, wrong, max_witnesses=k)
            last = report.discrepancies[-1]["family_index"]
            assert report.discrepancies == first_non_delta(4, k), k
            assert sum(seen) - classes == ((last - 1) // BATCH + 1) * BATCH < 1 << 16, k

    def test_refuses_chunk_below_one(self, tmp_path):
        # A chunk below 1 never advanced the scan, so the refusal is
        # checked in a subprocess under a timeout: before any work, and
        # before any checkpoint write.
        ck = tmp_path / "census.ckpt"
        code = f"""
import sys
from dmkit.census import run_streaming
from dmkit.cli import main
from dmkit.errors import DmkitError
for chunk in (0, -3):
    try:
        run_streaming(2, "exdelta", chunk=chunk)
    except DmkitError as exc:
        assert f"chunk = {{chunk}}" in str(exc), exc
    else:
        sys.exit("no refusal")
    assert main(["census", "run", "--n", "3", "--theorem", "exdelta", "--long",
                 "--chunk", str(chunk), "--resume", {str(ck)!r}]) == 2
"""
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stderr.count("chunk = ") == 2 and not ck.exists()

    def test_checkpoint_keeps_the_report_witnesses(self, wrong, tmp_path):
        ck = tmp_path / "census.ckpt"
        report = run_streaming(3, wrong, chunk=40, max_witnesses=5, checkpoint_path=str(ck))
        assert report.discrepancies == first_non_delta(3, 5)
        assert json.loads(ck.read_text())["discrepancies"] == report.discrepancies
        ck = tmp_path / "interrupted.ckpt"
        run_streaming(3, wrong, stop=100, chunk=40, max_witnesses=5, checkpoint_path=str(ck))
        assert json.loads(ck.read_text())["discrepancies"] == report.discrepancies
        resumed = run_streaming(3, wrong, chunk=40, max_witnesses=5, checkpoint_path=str(ck))
        assert resumed.to_json() == report.to_json()
        # a finished checkpoint that kept more witnesses still reports the cut list
        doc = json.loads(ck.read_text())
        doc["discrepancies"] = first_non_delta(3, 9)
        ck.write_text(json.dumps(doc))
        resumed = run_streaming(3, wrong, chunk=40, max_witnesses=5, checkpoint_path=str(ck))
        assert resumed.to_json() == report.to_json()

    def test_checkpoint_resume(self, tmp_path):
        ck = tmp_path / "census.ckpt"
        # full reference
        ref = run_streaming(3, "exdelta", chunk=64)
        # interrupted run: stop after the first chunk by slicing
        run_streaming(3, "exdelta", stop=100, checkpoint_path=str(ck), chunk=50)
        doc = json.loads(ck.read_text())
        assert doc["next_index"] == 100
        resumed = run_streaming(3, "exdelta", checkpoint_path=str(ck), chunk=64)
        assert resumed.totals == ref.totals

    def test_checkpoint_mismatch_rejected(self, tmp_path):
        from dmkit.errors import FormatError

        ck = tmp_path / "census.ckpt"
        run_streaming(2, "exdelta", checkpoint_path=str(ck), chunk=8)
        with pytest.raises(FormatError):
            run_streaming(3, "exdelta", checkpoint_path=str(ck))

    def test_checkpoint_from_another_range_rejected(self, tmp_path):
        from dmkit.errors import FormatError

        ck = tmp_path / "census.ckpt"
        run_streaming(3, "exdelta", start=1, stop=200, chunk=50, checkpoint_path=str(ck))
        with pytest.raises(FormatError):  # other start
            run_streaming(3, "exdelta", start=100, stop=120, checkpoint_path=str(ck))
        with pytest.raises(FormatError):  # checkpoint already past the stop
            run_streaming(3, "exdelta", start=1, stop=120, checkpoint_path=str(ck))
        with pytest.raises(FormatError):  # other witness limit
            run_streaming(3, "exdelta", stop=256, max_witnesses=5, checkpoint_path=str(ck))

    def test_checkpoint_range_refusal_exits_2(self, tmp_path, capsys):
        from dmkit.cli import main

        ck = tmp_path / "census.ckpt"
        run_streaming(3, "exdelta", start=1, stop=200, max_witnesses=5,
                      checkpoint_path=str(ck))
        argv = ["census", "run", "--n", "3", "--theorem", "exdelta", "--resume", str(ck)]
        assert main(argv) == 2
        assert "witnesses" in capsys.readouterr().err

    @pytest.mark.parametrize("malformed", [
        pytest.param(lambda doc: [], id="not-an-object"),
        pytest.param(lambda doc: {k: v for k, v in doc.items() if k != "next_index"},
                     id="no-next-index"),
        pytest.param(lambda doc: {**doc, "totals": {}}, id="empty-totals"),
        pytest.param(lambda doc: {**doc, "next_index": "9"}, id="next-index-a-string"),
        # before the run's start: it used to count the empty family
        pytest.param(lambda doc: {**doc, "next_index": 0}, id="next-index-before-start"),
        # a discrepancy must be a witness of the run: it used to resume to
        # "ok": false with no family named
        *(pytest.param(lambda doc, d=d: {**doc, "discrepancies": [d]}, id=f"discrepancy-{name}")
          for name, d in [
              ("not-an-object", 1),
              ("missing-key", {"family_index": 5, "direct": True}),
              ("extra-key", {"family_index": 5, "direct": True, "exminor": False, "n": 3}),
              ("index-a-string", {"family_index": "5", "direct": True, "exminor": False}),
              ("index-a-bool", {"family_index": True, "direct": True, "exminor": False}),
              ("index-before-start", {"family_index": 0, "direct": True, "exminor": False}),
              ("index-at-next-index", {"family_index": 100, "direct": True, "exminor": False}),
              ("verdict-an-int", {"family_index": 5, "direct": 1, "exminor": False}),
              ("verdicts-agree", {"family_index": 5, "direct": True, "exminor": True}),
          ]),
    ])
    def test_malformed_checkpoint_refused(self, malformed, tmp_path, capsys):
        from dmkit.cli import main
        from dmkit.errors import FormatError

        ck = tmp_path / "census.ckpt"
        run_streaming(3, "exdelta", stop=100, chunk=50, checkpoint_path=str(ck))
        ck.write_text(json.dumps(malformed(json.loads(ck.read_text()))))
        with pytest.raises(FormatError):
            run_streaming(3, "exdelta", chunk=50, checkpoint_path=str(ck))
        argv = ["census", "run", "--n", "3", "--theorem", "exdelta", "--long", "--resume",
                str(ck)]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert not out and err.startswith("dmkit: ") and "Traceback" not in err

    def test_interrupted_checkpoint_write_keeps_previous(self, tmp_path, monkeypatch):
        import dmkit.census as census

        ck = tmp_path / "census.ckpt"
        ref = run_streaming(3, "exdelta", chunk=64)
        run_streaming(3, "exdelta", stop=100, checkpoint_path=str(ck), chunk=50)
        before = ck.read_text()

        def killed_mid_write(doc, fh):
            fh.write(json.dumps(doc)[:20])
            raise KeyboardInterrupt

        monkeypatch.setattr(census.json, "dump", killed_mid_write)
        with pytest.raises(KeyboardInterrupt):
            run_streaming(3, "exdelta", stop=200, checkpoint_path=str(ck), chunk=50)
        monkeypatch.undo()
        assert ck.read_text() == before
        assert [p.name for p in tmp_path.iterdir()] == [ck.name]
        resumed = run_streaming(3, "exdelta", checkpoint_path=str(ck), chunk=64)
        assert resumed.totals == ref.totals

    def test_parallel_jobs_match(self):
        single = run_streaming(3, "exdelta", chunk=32)
        multi = run_streaming(3, "exdelta", chunk=32, jobs=2)
        assert single.totals == multi.totals

    def test_one_pool_per_streamed_run(self, wrong, tmp_path, monkeypatch):
        # a jobs = 2 run opens one pool for all of its rounds, hands it at
        # most jobs chunks per round and writes one checkpoint per round
        import dmkit.census as census

        pools, saved = [], []

        class FakePool:
            def __init__(self, max_workers):
                self.jobs, self.batches, self.closed = max_workers, [], False
                pools.append(self)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.closed = True

            def map(self, fn, *iterables):
                calls = list(zip(*iterables))
                self.batches.append(len(calls))
                return [fn(*call) for call in calls]

        save = census._save_checkpoint
        monkeypatch.setattr(census, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(census, "_save_checkpoint",
                            lambda path, doc: saved.append(doc["next_index"]) or save(path, doc))
        ck = tmp_path / "census.ckpt"
        report = run_streaming(3, wrong, chunk=20, jobs=2, max_witnesses=7,
                               checkpoint_path=str(ck))
        # 255 families: six rounds of two chunks of 20, then one chunk of 15
        assert len(pools) == 1 and pools[0].jobs == 2 and pools[0].closed
        assert pools[0].batches == [2] * 6 + [1]
        assert saved == [41, 81, 121, 161, 201, 241, 256]
        assert report == run_streaming(3, wrong, chunk=20, max_witnesses=7)
        assert report.discrepancies == first_non_delta(3, 7)

    def test_n5_index_range_slices(self):
        # genuine 5-element oracle-equivalence slices through the
        # long-run path (the full 2^32 sweep stays opt-in)
        rep = run_streaming(5, "exdelta", start=1, stop=2000, chunk=512)
        assert rep.ok and rep.totals["checked"] == 1999
        assert rep.totals["direct_members"] == rep.totals["exminor_members"]
        rep = run_streaming(5, "exmatroidstack", start=1, stop=2000, chunk=512)
        assert rep.ok


class TestCounting:
    def test_n2_matroid_count_hand_enumerated(self):
        # matroids on {a,b} as labeled basis systems: {0}, {a}, {b},
        # {a},{b}, and {ab}
        rep = count_census(2)
        assert rep.totals["matroid"] == 5

    def test_n3_matroid_count_hand_enumerated(self):
        # rank 0: 1; rank 1: any nonempty set of singletons: 7; rank 2:
        # any nonempty family of 2-subsets satisfies exchange on 3
        # elements: 7; rank 3: 1
        assert count_census(3).totals["matroid"] == 16

    def test_n2_higgs_counts_hand_enumerated(self):
        # full Higgs lift families on {a,b}: 5 matroids, the sandwich
        # families of the 7 strict quotient pairs (rank 0 under each of
        # the three rank-1 matroids and under the free matroid, the three
        # rank-1 matroids under the free matroid); adding the index-gap
        # family {0,2} of (rank0, free) gives 13 Higgs families
        rep = count_census(2)
        assert rep.totals["full_higgs"] == 12
        assert rep.totals["higgs"] == 13

    def test_n3_every_dm_is_matroid_stack(self):
        # every equicardinal family on 3 elements is a matroid, so the
        # matroid-stack delta-matroids are exactly the delta-matroids
        rep = count_census(3)
        assert rep.totals["matroid_stack_dm"] == rep.totals["delta_matroid"]

    def test_monotone_class_counts(self):
        for n in (2, 3):
            rep = count_census(n)
            t = rep.totals
            assert t["sparse_paving_dm"] <= t["paving_dm"] <= t["matroid_stack_dm"]
            assert t["matroid_stack_dm"] <= t["delta_matroid"]
            assert t["full_higgs"] <= t["higgs"] <= t["delta_matroid"]

    def test_delta_matroid_lower_bound(self):
        for n in (1, 2, 3):
            rep = count_census(n)
            assert rep.ok
            assert rep.totals["delta_matroid"] >= 1 << (1 << (n - 1))

    def test_matroid_count_against_direct_oracle(self):
        direct = sum(
            1 for _, s in enumerate_proper_systems(3) if is_matroid(s)
        )
        assert count_census(3).totals["matroid"] == direct

    def test_frozen_regression_counts(self):
        # values first computed by these oracles; pinned against drift
        assert count_census(3).totals == {
            "checked": 255,
            "delta_matroid": 155,
            "even_delta_matroid": 30,
            "higgs": 83,
            "full_higgs": 67,
            "matroid": 16,
            "matroid_stack_dm": 155,
            "paving_dm": 104,
            "sparse_paving_dm": 74,
            "quotient_dm": 122,
            "binary_consistent": 135,
        }
        totals4 = count_census(4).totals
        assert totals4["delta_matroid"] == 5959
        assert totals4["matroid"] == 68
        assert totals4["higgs"] == 811
        assert totals4["full_higgs"] == 558


def permutation_table(n: int):
    """The canonical index table the census built before its orbit walk:
    the least image of every family index under all n! permutations, each
    applied to every index at once on numpy arrays.  The reference for the
    walk."""
    import numpy as np

    size = 1 << n
    indices = np.arange(1 << size, dtype=np.uint32)
    best = indices.copy()
    for perm in permutations(range(n)):
        sub = [permute_mask(m, perm) for m in range(size)]
        table = np.zeros(len(indices), dtype=np.uint32)
        for j in range(size):
            table |= ((indices >> np.uint32(j)) & np.uint32(1)) << np.uint32(sub[j])
        np.minimum(best, table, out=best)
    return best


class TestClassWeights:
    def test_weights_per_n(self):
        # the cached class arrays of each n, asked for in alternation
        import numpy as np

        classes = {0: 1, 1: 3, 2: 11, 3: 79, 4: 3983}
        for n in (3, 4, 2, 4, 3, 0, 1):
            reps, sizes = (np.asarray(a) for a in _class_weights(n))
            assert len(reps) == classes[n] and int(sizes.sum()) == (1 << (1 << n)) - 1
            canon = np.asarray(_canonical_index_table(n))
            assert reps.tolist() == np.unique(canon[1:]).tolist()
            assert sizes.tolist() == [int((canon == r).sum()) for r in reps.tolist()]

    def test_orbit_walk_matches_permutation_table(self):
        import numpy as np

        for n in range(5):
            want = permutation_table(n)
            table = _canonical_index_table(n)
            reps, sizes = _class_weights(n)
            assert np.asarray(table).dtype == want.dtype and np.array_equal(table, want), n
            distinct, counts = np.unique(want[1:], return_counts=True)
            assert reps.tolist() == distinct.tolist(), n
            assert sizes.tolist() == counts.tolist(), n
            assert all(math.factorial(n) % size == 0 for size in sizes), n
            assert sum(sizes) == (1 << (1 << n)) - 1, n

    def test_no_table_above_the_exhaustive_cap(self):
        with pytest.raises(CapacityError):
            _canonical_index_table(5)
        with pytest.raises(CapacityError):
            _class_weights(5)


class TestRandomQuotientPair:
    def test_spec_example(self):
        q, lift = random_quotient_pair(4, 1, 3, seed=7)
        assert q.rank == 1 and lift.rank == 3
        assert is_quotient(q, lift)

    def test_equal_ranks_identity(self):
        q, lift = random_quotient_pair(4, 2, 2, seed=1)
        assert q == lift

    def test_free_lift(self):
        q, lift = random_quotient_pair(4, 2, 4, seed=2)
        assert lift.bases == frozenset({0b1111})
        assert is_quotient(q, lift)

    def test_deterministic(self):
        a = random_quotient_pair(5, 1, 3, seed=9)
        b = random_quotient_pair(5, 1, 3, seed=9)
        assert a == b

    def test_bad_parameters(self):
        with pytest.raises(DmkitError):
            random_quotient_pair(3, 2, 1, seed=0)

    def test_seeded_n6_pair_pinned(self):
        # masks of one seeded pair above the exhaustive range, as first drawn
        q, lift = random_quotient_pair(6, 2, 4, seed=7)
        assert (q.rank, sorted(q.system.masks)) == (2, [6, 10, 18, 20, 24])
        assert (lift.rank, sorted(lift.system.masks)) == (
            4, [15, 23, 29, 39, 43, 46, 51, 53, 54, 57, 60])

    def test_more_than_eight_elements_refused(self):
        # the ground set is a prefix of the eight census labels
        with pytest.raises(CapacityError, match="at most 8 elements"):
            random_quotient_pair(9, 1, 2, seed=5)
        q, lift = random_quotient_pair(8, 1, 2, seed=5)
        assert is_quotient(q, lift) and len(q.system.labels) == 8

    def test_many_seeds_valid(self):
        for seed in range(30):
            q, lift = random_quotient_pair(6, seed % 4, seed % 4 + seed % 3, seed)
            assert is_quotient(q, lift)
            assert q.rank + (seed % 3) == lift.rank
        # Q = L/W with W as loops is a quotient by construction, unchecked
        # at run time: every shape on 2..8 elements, by both quotient forms
        for n in range(2, 9):
            for r_l in range(n + 1):
                for r_q in range(r_l + 1):
                    for seed in range(4):
                        q, lift = random_quotient_pair(n, r_q, r_l, seed)
                        assert (q.rank, lift.rank) == (r_q, r_l)
                        assert is_matroid(q.system) and is_matroid(lift.system)
                        assert circuits_cover(q.circuit_masks(), lift.circuit_masks())
                        assert is_quotient(q, lift), (n, r_q, r_l, seed)


class TestRegistryCoverage:
    def test_all_theorem_ids_present(self):
        expected = {
            "exdelta", "exevendelta", "exevendelta2", "exmatroid",
            "exhiggs", "exfull", "exevenhiggs",
            "exmatroidstack", "exevenmatroidstack", "expaving",
            "exsparsepaving", "exquotient", "speven",
        }
        assert set(REGISTRY) == expected

    def test_speven_scan_always_passes(self):
        # speven is not an excluded-minor class, so its row has no list
        speven = REGISTRY["speven"]
        assert speven.class_id is None
        indices = list(range(1, 1 << 8))
        assert speven.exminor_index(indices, 3) == (1 << len(indices)) - 1
        assert all(speven.exminor(family_system(3, i)) for i in indices)


class TestSingleDeclaration:
    """Each census predicate is declared once: the count columns and the
    speven row hold the class table's oracle objects, not copies."""

    def test_count_columns_are_class_table_oracles(self):
        columns = {key: (form, scalar) for key, form, scalar in _COUNT_COLUMNS}
        delta = CLASS_TABLE[ExminorClassId.DELTA_MATROID]
        assert columns["delta_matroid"][0] is delta.direct_index
        assert columns["delta_matroid"][1] is delta.direct
        for key, cid in (("matroid_stack_dm", ExminorClassId.MATROID_STACK),
                         ("paving_dm", ExminorClassId.PAVING),
                         ("sparse_paving_dm", ExminorClassId.SPARSE_PAVING),
                         ("quotient_dm", ExminorClassId.QUOTIENT_STACK)):
            spec = CLASS_TABLE[cid]
            assert columns[key][0] is spec.ambient_index, key
            assert columns[key][1] is spec.ambient, key

    def test_speven_direct_is_the_quotient_ambient(self):
        speven, quotient = REGISTRY["speven"], CLASS_TABLE[ExminorClassId.QUOTIENT_STACK]
        assert speven.direct_index is quotient.ambient_index
        assert speven.direct is quotient.ambient

    def test_registry_holds_the_class_table_rows(self):
        for spec in CLASS_TABLE.values():
            if spec.theorem_id is not None:
                assert REGISTRY[spec.theorem_id] is spec
