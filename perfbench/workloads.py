"""Seeded inputs, timed jobs and reference checks of the four workloads.

Every workload function takes the benchmark seed, a size scale (1.0 at
``--seconds 10``), a working directory inside the checkout and an
optional Tracer.  It builds its inputs from the seed, runs the timed job
through the public dmkit API, and afterwards checks every output against
a reference that does not share the code path it checks: the exchange
axiom re-decided by ``se_violation()``, witnesses replayed with
``MinorWitness.verify``, D(C) recomputed from principal-minor ranks, and
the recorded exhaustive n = 4 totals.

Timed work runs in rounds with a machine-speed calibration sample after
each (see calibrate.py); the workloads return raw times, the samples and,
for each round, the mean of the samples on either side of it, and run.py
scales the reported metrics to the reference speed.  The
static tables each workload needs are built by worker.py before its job.

Library functions are looked up on their module at call time (``census.
verify_equivalence``), never bound at import, so that a traced run sees
the tracer's wrappers.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
import dmkit.census as census
import dmkit.cli as cli
import dmkit.gf2 as gf2
import dmkit.higgs as higgs
import dmkit.latticepath as latticepath
import dmkit.minorscan as minorscan
from dmkit.catalog import ExminorClassId
from dmkit.gf2 import SkewSymMatrixGF2
from dmkit.minorscan import MinorWitness
from dmkit.setsystem import SetSystem, serialize_set_system

LABELS = "abcdefgh"
clock = time.perf_counter

# Recorded exhaustive n = 4 totals (65 535 proper systems), one entry per
# registered theorem, and the class counts of count_census(4).
N4_TOTALS = {
    "exdelta": (65535, 65535, 5959, 5959),
    "exevendelta": (65535, 510, 294, 294),
    "exevendelta2": (65535, 65535, 294, 294),
    "exmatroid": (65535, 95, 68, 68),
    "exhiggs": (65535, 5959, 811, 811),
    "exfull": (65535, 5959, 558, 558),
    "exevenhiggs": (65535, 294, 258, 258),
    "exmatroidstack": (65535, 37887, 4438, 4438),
    "exevenmatroidstack": (65535, 402, 267, 267),
    "expaving": (65535, 5759, 1528, 1528),
    "exsparsepaving": (65535, 1583, 766, 766),
    "exquotient": (65535, 3319, 1740, 1740),
    "speven": (65535, 78, 78, 78),
}
N4_COUNTS = {
    "checked": 65535, "delta_matroid": 5959, "even_delta_matroid": 294, "higgs": 811,
    "full_higgs": 558, "matroid": 68, "matroid_stack_dm": 4438, "paving_dm": 1528,
    "sparse_paving_dm": 766, "quotient_dm": 1740, "binary_consistent": 2295,
}
# Number of valid regions with u + v <= k, by exhaustive enumeration.
REGION_COUNTS = {0: 1, 1: 5, 2: 24, 3: 116, 4: 557, 5: 2637, 6: 12291, 7: 56459}

# Sizes at scale 1.  Timed jobs run in rounds of equal make-up, and
# items_per_s is the median of the per-round rates, so that a slow phase
# of the machine moves few rounds.  A census-n5 round is one sampled call
# per theorem (families per call below), one streamed call over
# N5_STREAM_LEN consecutive indices from a seeded start (a start per round,
# since the cost of a slice depends on the high bits its families share).
# Each round ends with N5_VERDICTS families through their census row for
# the three theorems (a single ~0.6 ms scan was too short: the host's
# millisecond hiccups moved its p99 from run to run).
N5_ROUNDS = 16
N5_SAMPLED = (("exdelta", 250), ("exhiggs", 1250), ("exmatroidstack", 375))
N5_STREAM_LEN = 375
N5_VERDICTS = 75
# census-n4: the seeded undeduplicated slice that follows the census; each
# family gets its full census row (every theorem's ambient, direct and
# excluded-minor verdicts).  2000 families leave 20 latency samples beyond
# the nearest-rank p99.
N4_SLICE = 2000
N4_CALIBRATE_EVERY = 100
# A constructions round is 1/CONSTRUCT_ROUNDS of the regions, and the
# matrices and quotient pairs below.
CONSTRUCT_ROUNDS = 16
# Matrix sizes cycle through n = 1..6 and each round builds one quotient
# pair of every shape (n, r(Q), r(L)) with 2 <= n <= 6, so that every seed
# has the same mix of sizes and only the random matrices and matroids vary.
CONSTRUCT_MATRICES = 378
PAIR_SHAPES = tuple((n, r_q, r_l) for n in range(2, 7) for r_l in range(n + 1)
                    for r_q in range(r_l + 1))
CONSTRUCT_PAIRS = len(PAIR_SHAPES)
CONSTRUCT_LPDM_EVERY = 97
# The library's exchange-axiom verdict must hold for every construction;
# the slow se_violation() reference re-decides every CONSTRUCT_REF_EVERY-th
# one (all of them would triple the run), and D(C) is recomputed from
# principal-minor ranks for every CONSTRUCT_DOFC_REF_EVERY-th matrix.
CONSTRUCT_REF_EVERY = 3
CONSTRUCT_DOFC_REF_EVERY = 8
# A verdicts round is VERDICT_QUERIES queries; 16 rounds give 1200
# latency samples, 12 of them beyond the nearest-rank p99.
VERDICT_ROUNDS = 16
VERDICT_QUERIES = 75
VERDICT_REPLAY = 50
COLD_QUERIES = 5
# Query kinds of the verdicts corpus.  Each is an argv prefix; the file
# and --json are appended.
VERDICT_KINDS = (
    ("check", "--class", "delta"),
    ("check", "--class", "binary"),
    ("check", "--class", "higgs"),
    ("check", "--class", "full-higgs"),
    ("check", "--class", "even-delta"),
    ("binary", "check"),
    ("higgs", "classify"),
)


@dataclass
class Result:
    """Outcome of one workload run: counts, timings and failures."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    round_rates: list = field(default_factory=list)
    round_speed: list = field(default_factory=list)  # calibration seconds around each round
    speed: list = field(default_factory=list)
    job_s: float = 0.0  # wall time of the timed job, calibration samples excluded
    latencies: list = field(default_factory=list)
    detail: dict = field(default_factory=dict)
    cold_queries: list = field(default_factory=list)
    peak_rss_mb: float = 0.0

    def check(self, ok: bool, what: str, weight: int = 1) -> None:
        """Count weight operations as attempted, and as failed unless ok."""
        self.attempted += weight
        if not ok:
            self.failed += weight
            if len(self.failures) < 20:
                self.failures.append(what)

    def guard(self, what: str, fn, *args):
        """Call a reference check; an unexpected exception is a failure."""
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001 - any raise is a failed check
            self.check(False, f"{what}: {type(exc).__name__}: {exc}")
            return None


def _mark(tracer, op: int) -> None:
    if tracer is not None:
        tracer.op_id = op


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _scaled(base: int, scale: float, least: int = 1) -> int:
    return max(least, round(base * scale))


# -- reference oracles (independent of the code paths they check) ---------


def is_dm(system: SetSystem) -> bool:
    """Exchange axiom by the exhaustive object-level scan."""
    return system.se_violation() is None


def _is_matroid_layer(layer: list[int]) -> bool:
    fam = set(layer)
    for b1 in layer:
        for b2 in layer:
            out = b2 & ~b1
            rest = b1 & ~b2
            while rest:
                x = rest & -rest
                rest ^= x
                w = b1 ^ x
                ys = out
                found = False
                while ys:
                    y = ys & -ys
                    ys ^= y
                    if w | y in fam:
                        found = True
                        break
                if not found:
                    return False
    return True


def is_matroid_stack(masks) -> bool:
    """Every cardinality layer is the basis family of a matroid."""
    layers: dict[int, list[int]] = {}
    for m in masks:
        layers.setdefault(m.bit_count(), []).append(m)
    return all(_is_matroid_layer(layer) for layer in layers.values())


def _gf2_rank(rows: list[int]) -> int:
    rank = 0
    rows = list(rows)
    while rows:
        pivot = rows.pop()
        if not pivot:
            continue
        rank += 1
        low = pivot & -pivot
        rows = [r ^ pivot if r & low else r for r in rows]
    return rank


def dofc_reference(rows: tuple[int, ...], n: int) -> frozenset[int]:
    """Subsets whose principal submatrix is nonsingular, by rank."""
    out = set()
    for subset in range(1 << n):
        cols = [i for i in range(n) if subset >> i & 1]
        sub = [sum(((rows[i] >> c) & 1) << j for j, c in enumerate(cols)) for i in cols]
        if _gf2_rank(sub) == len(cols):
            out.add(subset)
    return frozenset(out)


def random_skew(rng: random.Random, n: int) -> SkewSymMatrixGF2:
    rows = [0] * n
    for i in range(n):
        if rng.random() < 0.5:
            rows[i] |= 1 << i
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return SkewSymMatrixGF2(tuple(LABELS[:n]), tuple(rows))


def valid_index_sets(k: int) -> list[list[int]]:
    """Nonempty K within [0, k] whose complement has no consecutive pair."""
    out = []
    for mask in range(1, 1 << (k + 1)):
        comp = [i for i in range(k + 1) if not mask >> i & 1]
        if any(b == a + 1 for a, b in zip(comp, comp[1:])):
            continue
        out.append([i for i in range(k + 1) if mask >> i & 1])
    return out


def run_cli(argv: list[str]) -> tuple[int, str, str, float]:
    """(exit code, stdout, stderr, seconds) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = clock()
        rc = cli.main(argv)
        t1 = clock()
    return rc, out.getvalue(), err.getvalue(), t1 - t0


def _cold(argv: list[str]) -> dict:
    rc, out, _, _ = run_cli(argv)
    return {"argv": argv, "rc": rc, "stdout": out}


# -- census-n5 -----------------------------------------------------------------


def census_n5(seed, scale: float, workdir: Path, tracer=None) -> Result:
    """Seeded n = 5 families through verify_equivalence(..., "sampled") for
    three theorems, a streamed exdelta slice, and single-family census
    rows, in rounds of one call of each kind."""
    res = Result()
    rng = random.Random(f"census-n5:{seed}")
    rounds = _scaled(N5_ROUNDS, scale)
    sampled = [[(t, rng.getrandbits(31), count) for t, count in N5_SAMPLED]
               for _ in range(rounds)]
    starts = [1 + rng.randrange((1 << 32) - N5_STREAM_LEN) for _ in range(rounds)]
    labels = tuple(LABELS[:5])
    probes = []
    for _ in range(rounds * N5_VERDICTS):
        index = 0
        while not index:
            index = rng.getrandbits(32)
        probes.append(SetSystem(labels, frozenset(m for m in range(32) if index >> m & 1)))
    theorems = tuple(t for t, _ in N5_SAMPLED)
    round_items = sum(count for _, count in N5_SAMPLED) + N5_STREAM_LEN

    op = 0
    reports, streamed, rows = [], [], []
    sampled_s = streamed_s = 0.0
    speed = calibrate.Speed()
    t0 = clock()
    for r in range(rounds):
        a = clock()
        for theorem, s, count in sampled[r]:
            _mark(tracer, op)
            op += 1
            reports.append(census.verify_equivalence(5, theorem, "sampled", seed=s, count=count))
        b = clock()
        _mark(tracer, op)
        op += 1
        lo = starts[r]
        streamed.append(census.run_streaming(5, "exdelta", start=lo, stop=lo + N5_STREAM_LEN,
                                             jobs=1))
        c = clock()
        for system in probes[r * N5_VERDICTS:(r + 1) * N5_VERDICTS]:
            _mark(tracer, op)
            op += 1
            d = clock()
            rows.append(census_row(system, theorems))
            res.latencies.append(clock() - d)
        speed.sample()
        sampled_s += b - a
        streamed_s += c - b
        res.round_rates.append(round_items / (c - a))
        res.round_speed.append(speed.around_last())
    res.job_s = clock() - t0 - speed.spent
    res.speed = speed.samples
    res.peak_rss_mb = _peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()

    sampled = [call for calls in sampled for call in calls]
    res.detail = {
        "n5_sampled_fps": sum(count for _, _, count in sampled) / sampled_s,
        "n5_streamed_fps": rounds * N5_STREAM_LEN / streamed_s,
    }

    for (theorem, s, count), rep in zip(sampled, reports):
        res.guard(f"sampled {theorem} seed {s}", _check_n5_sampled, res, theorem, s, count, rep)
    for lo, rep in zip(starts, streamed):
        res.guard(f"streamed [{lo}, +{N5_STREAM_LEN})", _check_n5_streamed, res, lo, rep)
    for system, row in zip(probes, rows):
        res.guard("n5 census row", _check_row, res, system, theorems, row)
    res.cold_queries = [
        _cold(["census", "run", "--n", "5", "--theorem", "exdelta", "--mode", "sampled",
               "--seed", str(s), "--count", "40", "--json"])
        for _, s, _ in sampled[:COLD_QUERIES]
    ]
    return res


def _check_n5_sampled(res: Result, theorem: str, s: int, count: int, rep) -> None:
    t = rep.totals
    head = f"sampled {theorem} seed {s}"
    res.check(rep.ok and t["checked"] == count, f"{head}: report {rep.totals}", count)
    dms = stacks = stack_dms = 0
    for _, system in census.enumerate_proper_systems(5, "sampled", seed=s, count=count):
        dm = is_dm(system)
        dms += dm
        if theorem == "exmatroidstack" and is_matroid_stack(system.masks):
            stacks += 1
            stack_dms += dm
    if theorem == "exdelta":
        expect = (count, dms, dms)
        got = (t["ambient"], t["direct_members"], t["exminor_members"])
    elif theorem == "exhiggs":
        expect, got = dms, t["ambient"]
    else:
        expect = (stacks, stack_dms)
        got = (t["ambient"], t["direct_members"])
    res.check(expect == got, f"{head}: reference {expect} != reported {got}")


def _check_n5_streamed(res: Result, lo: int, rep) -> None:
    t = rep.totals
    n = N5_STREAM_LEN
    res.check(rep.ok and t["checked"] == n and t["ambient"] == n,
              f"streamed {lo}: report {t}", n)
    dms = sum(is_dm(census.family_system(5, i)) for i in range(lo, lo + n))
    res.check(t["direct_members"] == dms == t["exminor_members"],
              f"streamed {lo}: reference {dms} != reported {t}")


# -- census-n4 -----------------------------------------------------------------


def census_n4(seed, scale: float, workdir: Path, tracer=None,
              theorems: tuple[str, ...] = tuple(N4_TOTALS)) -> Result:
    """The exhaustive n = 4 census for every registered theorem plus
    count_census(4), then a seeded undeduplicated slice of single-family
    verdicts (the memoization honesty check)."""
    res = Result()
    rng = random.Random(f"census-n4:{seed}")
    labels = tuple(LABELS[:4])
    indices = [rng.randrange(1, 1 << 16) for _ in range(_scaled(N4_SLICE, scale, 20))]
    probes = [SetSystem(labels, frozenset(m for m in range(16) if i >> m & 1)) for i in indices]

    reports = {}
    per_theorem = {}
    around = []
    speed = calibrate.Speed()
    t0 = clock()
    for op, theorem in enumerate(theorems):
        _mark(tracer, op)
        a = clock()
        reports[theorem] = census.verify_equivalence(4, theorem)
        per_theorem[theorem] = clock() - a
        speed.sample()
        around.append(speed.around_last())
    _mark(tracer, len(theorems))
    a = clock()
    counts = census.count_census(4)
    per_theorem["count_census"] = clock() - a
    speed.sample()
    around.append(speed.around_last())
    rows = []
    for k, system in enumerate(probes):
        _mark(tracer, len(theorems) + 1 + k)
        a = clock()
        rows.append(census_row(system, theorems))
        res.latencies.append(clock() - a)
        if k % N4_CALIBRATE_EVERY == N4_CALIBRATE_EVERY - 1:
            speed.sample()
    res.job_s = clock() - t0 - speed.spent
    res.speed = speed.samples
    res.peak_rss_mb = _peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()

    census_s = sum(per_theorem.values())
    res.round_rates.append((len(theorems) + 1) * 65535 / census_s)
    # The census is one round: its speed weighs each call's by the call's time.
    res.round_speed.append(census_s / sum(t / c for t, c in zip(per_theorem.values(), around)))
    res.detail = {"n4_census_s": census_s}
    for theorem, seconds in per_theorem.items():
        res.detail[f"n4_census_s.{theorem}"] = seconds

    for theorem, rep in reports.items():
        t = rep.totals
        got = (t["checked"], t["ambient"], t["direct_members"], t["exminor_members"])
        res.check(rep.ok and got == N4_TOTALS[theorem],
                  f"n4 {theorem}: {got} != recorded {N4_TOTALS[theorem]}", 65535)
    res.check(counts.ok and counts.totals == N4_COUNTS,
              f"count_census(4): {counts.totals} != recorded", 65535)
    for system, row in zip(probes, rows):
        res.guard("n4 census row", _check_row, res, system, theorems, row)
    res.cold_queries = [
        _cold(["census", "run", "--n", "4", "--theorem", "exevendelta", "--json"])
    ] * COLD_QUERIES
    return res


def census_row(system: SetSystem, theorems) -> list[tuple]:
    """(ambient, direct, exminor) of one family for every theorem, with the
    oracles skipped outside the hypothesis, as the census evaluates it."""
    row = []
    for theorem in theorems:
        eq = census.REGISTRY[theorem]
        if eq.ambient(system):
            row.append((True, eq.direct(system), eq.exminor(system)))
        else:
            row.append((False, None, None))
    return row


def _check_row(res: Result, system: SetSystem, theorems, row) -> None:
    ok = all(direct == exminor for _, direct, exminor in row)
    dm = is_dm(system)
    for theorem, (ambient, direct, _) in zip(theorems, row):
        if theorem == "exdelta":
            ok = ok and ambient and direct == dm
    member, witness = minorscan.classify_by_exminors(system, ExminorClassId.DELTA_MATROID)
    ok = ok and member == dm and (member or witness.verify(system))
    res.check(ok, f"census row {row} for {sorted(system.masks)}")


# -- constructions -------------------------------------------------------------


def constructions(seed, scale: float, workdir: Path, tracer=None) -> Result:
    """Every region with u + v <= 7 through verify_region_prop (an lpdm
    slice alongside), seeded skew-symmetric matrices through d_of_c, and
    seeded quotient pairs through build_higgs_dm for every valid index
    set; every construction's exchange axiom is decided by the library."""
    res = Result()
    rng = random.Random(f"constructions:{seed}")
    max_size = 7 if scale >= 0.5 else 4
    rounds = _scaled(CONSTRUCT_ROUNDS, scale)
    matrices = [random_skew(rng, 1 + i % 6) for i in range(rounds * CONSTRUCT_MATRICES)]
    pairs = [(n, r_q, r_l, rng.getrandbits(31))
             for _ in range(rounds) for n, r_q, r_l in PAIR_SHAPES]
    region_iter = latticepath.iter_regions(max_size)
    per_round = -(-REGION_COUNTS[max_size] // rounds)

    op = 0
    regions = 0
    region_failures = []
    lpdm_systems = []
    built_matrices = []
    unions = []
    region_s = matrix_s = pair_s = 0.0
    speed = calibrate.Speed()
    t0 = clock()
    for r in range(rounds):
        latencies = []
        a = clock()
        done = regions
        for region in itertools.islice(region_iter, per_round):
            _mark(tracer, op)
            op += 1
            failure = latticepath.verify_region_prop(region)
            if failure is not None:
                region_failures.append((region, failure))
            if regions % CONSTRUCT_LPDM_EVERY == 0:
                lpdm_systems.append(latticepath.lpdm(region).system)
            regions += 1
        b = clock()
        for matrix in matrices[r * CONSTRUCT_MATRICES:(r + 1) * CONSTRUCT_MATRICES]:
            _mark(tracer, op)
            op += 1
            d = gf2.d_of_c(matrix)
            built_matrices.append((d, d.is_delta_matroid()))
        c = clock()
        for n, r_q, r_l, s in pairs[r * CONSTRUCT_PAIRS:(r + 1) * CONSTRUCT_PAIRS]:
            _mark(tracer, op)
            op += 1
            p0 = clock()
            q, lift = census.random_quotient_pair(n, r_q, r_l, s)
            for ks in valid_index_sets(lift.rank - q.rank):
                d = higgs.build_higgs_dm(q, lift, ks)
                unions.append((d, d.is_delta_matroid()))
            latencies.append(clock() - p0)
        e = clock()
        speed.sample()
        res.round_speed.append(speed.around_last())
        region_s += b - a
        matrix_s += c - b
        pair_s += e - c
        res.round_rates.append((regions - done + CONSTRUCT_MATRICES + CONSTRUCT_PAIRS) / (e - a))
        res.latencies += latencies
    res.job_s = clock() - t0 - speed.spent
    res.speed = speed.samples
    res.peak_rss_mb = _peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()

    res.detail = {
        "regions_per_s": regions / region_s,
        "matrices_per_s": len(matrices) / matrix_s,
        "quotient_pairs_per_s": len(pairs) / pair_s,
        "regions": regions,
        "index_set_unions": len(unions),
    }

    res.check(regions == REGION_COUNTS[max_size],
              f"{regions} regions enumerated, recorded {REGION_COUNTS[max_size]}")
    for region, failure in region_failures:
        res.check(False, f"region {region}: {failure}")
    res.attempted += regions - len(region_failures)
    for d in lpdm_systems:
        res.guard("lpdm", _check_construction, res, "lpdm", d, True, True)
    for k, (matrix, (d, verdict)) in enumerate(zip(matrices, built_matrices)):
        res.guard("d_of_c", _check_construction, res, "D(C)", d, verdict,
                  k % CONSTRUCT_REF_EVERY == 0)
        if k % CONSTRUCT_DOFC_REF_EVERY == 0:
            res.check(d.masks == dofc_reference(matrix.rows, matrix.n),
                      f"D(C) of {matrix.rows} differs from the principal-minor family")
    for k, (d, verdict) in enumerate(unions):
        res.guard("union", _check_construction, res, "index-set union", d, verdict,
                  k % CONSTRUCT_REF_EVERY == 0)
    res.cold_queries = _construction_cold_queries(rng, workdir)
    return res


def _check_construction(res: Result, what: str, d: SetSystem, verdict: bool,
                        reference: bool) -> None:
    res.check(verdict and (not reference or is_dm(d)),
              f"{what} {sorted(d.masks)}: exchange axiom fails")


def _construction_cold_queries(rng: random.Random, workdir: Path) -> list[dict]:
    queries = []
    regions = list(latticepath.iter_regions(6))
    for k in range(COLD_QUERIES):
        if k % 2:
            matrix = random_skew(rng, 6)
            path = workdir / f"cold-matrix-{k}.json"
            path.write_text(gf2.serialize_matrix(matrix), encoding="utf-8")
            queries.append(_cold(["binary", "dofc", str(path)]))
        else:
            region = regions[rng.randrange(len(regions))]
            path = workdir / f"cold-region-{k}.json"
            path.write_text(latticepath.serialize_region(region), encoding="utf-8")
            queries.append(_cold(["lattice", "build", str(path)]))
    return queries


# -- verdicts ------------------------------------------------------------------


def verdict_corpus(rng: random.Random, systems: int) -> list[tuple[str, SetSystem]]:
    """(kind, system) on 5-7 elements: D(C), Higgs index-set unions,
    twists of both, and uniform random families.  Sizes and kinds cycle
    with the index, so every seed has the same mix."""
    out = []
    for i in range(systems):
        n = (5, 5, 6, 6, 7)[i % 5]
        kind = ("dofc", "higgs", "twist", "random")[i % 4]
        if kind == "random":
            masks = frozenset(m for m in range(1 << n) if rng.random() < 0.5) or frozenset({0})
            out.append((kind, SetSystem(tuple(LABELS[:n]), masks)))
            continue
        source = kind if kind != "twist" else ("dofc", "higgs")[rng.randrange(2)]
        if source == "dofc":
            system = gf2.d_of_c(random_skew(rng, n))
        else:
            r_l = rng.randrange(1, n + 1)
            r_q = rng.randrange(r_l + 1)
            q, lift = census.random_quotient_pair(n, r_q, r_l, rng.getrandbits(31))
            choices = valid_index_sets(lift.rank - q.rank)
            system = higgs.build_higgs_dm(q, lift, choices[rng.randrange(len(choices))])
        if kind == "twist":
            twist = [e for e in system.labels if rng.random() < 0.5]
            system = system.twist(twist)
            kind = f"twist-{source}"
        out.append((kind, system))
    return out


def verdicts(seed, scale: float, workdir: Path, tracer=None) -> Result:
    """A closed loop with one caller feeding a seeded corpus through the
    in-process CLI with --json: check --class C, binary check and higgs
    classify, some of them on inputs whose hypothesis fails (exit 2)."""
    res = Result()
    rng = random.Random(f"verdicts:{seed}")
    rounds = _scaled(VERDICT_ROUNDS, scale)
    corpus = verdict_corpus(rng, rounds * VERDICT_QUERIES // 3)
    queries = []
    for i, (kind, system) in enumerate(corpus):
        path = workdir / f"system-{i}.json"
        path.write_text(serialize_set_system(system), encoding="utf-8")
        for j in range(3 * i, 3 * i + 3):
            queries.append((i, list(VERDICT_KINDS[j % len(VERDICT_KINDS)]) + [str(path), "--json"]))

    outputs = []
    speed = calibrate.Speed()
    t0 = clock()
    for r in range(rounds):
        latencies = []
        a = clock()
        for op in range(r * VERDICT_QUERIES, (r + 1) * VERDICT_QUERIES):
            _mark(tracer, op)
            rc, out, err, seconds = run_cli(queries[op][1])
            outputs.append((rc, out, err))
            latencies.append(seconds)
        res.round_rates.append(VERDICT_QUERIES / (clock() - a))
        speed.sample()
        res.round_speed.append(speed.around_last())
        res.latencies += latencies
    res.job_s = clock() - t0 - speed.spent
    res.speed = speed.samples
    res.peak_rss_mb = _peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()

    refused = sum(1 for rc, _, _ in outputs if rc == 2)
    res.detail = {"queries": len(queries), "systems": len(corpus),
                  "refused": refused}

    facts = [res.guard("reference", _verdict_facts, kind, system) for kind, system in corpus]
    for (i, argv), (rc, out, err) in zip(queries, outputs):
        if facts[i] is not None:
            res.guard(" ".join(argv), _check_verdict, res, argv, corpus[i], facts[i], rc, out)
    for (i, argv), first in zip(queries[:VERDICT_REPLAY], outputs):
        again = run_cli(argv)[:3]
        res.check(again == first, f"replay of {' '.join(argv)} differs")
    res.cold_queries = [_cold(argv) for _, argv in queries[:COLD_QUERIES]]
    return res


def _verdict_facts(kind: str, system: SetSystem) -> dict:
    dm = is_dm(system)
    facts = {"dm": dm, "even": len({m.bit_count() & 1 for m in system.masks}) == 1}
    if dm:
        facts["binary"] = gf2.is_binary_dm(system)[0]
        cls = higgs.classify_higgs(system)
        facts["higgs"] = cls.is_higgs
        facts["full"] = cls.is_full
        if kind in ("dofc", "twist-dofc") and not facts["binary"]:
            raise AssertionError(f"{kind} system reported non-binary")
        if kind == "higgs" and not facts["higgs"]:
            raise AssertionError("index-set union reported non-Higgs")
    return facts


def _check_verdict(res: Result, argv, item, facts: dict, rc: int, out: str) -> None:
    _, system = item
    head = " ".join(argv)
    if argv[0] == "check":
        cls = argv[2]
        ambient = {"higgs": facts["dm"], "full-higgs": facts["dm"],
                   "even-delta": facts["even"]}.get(cls, True)
        if not ambient:
            res.check(rc == 2 and out == "", f"{head}: expected exit 2, got {rc}")
            return
        expect = {
            "delta": facts["dm"],
            "even-delta": facts["dm"],
            "binary": facts["dm"] and facts.get("binary", False),
            "higgs": facts.get("higgs"),
            "full-higgs": facts.get("full"),
        }[cls]
        doc = json.loads(out)
        ok = rc == (0 if expect else 1) and doc["member"] == expect
        if ok and not expect:
            w = doc["witness"]
            ok = MinorWitness(tuple(w["delete"]), tuple(w["contract"]), w["target"]).verify(system)
        res.check(ok, f"{head}: exit {rc}, {out.strip()}, expected member={expect}")
        return
    if not facts["dm"]:
        res.check(rc == 2 and out == "", f"{head}: expected exit 2, got {rc}")
        return
    doc = json.loads(out)
    if argv[0] == "binary":
        ok = doc["binary"] == facts["binary"] and rc == (0 if facts["binary"] else 1)
        if ok and not facts["binary"]:
            w = doc["witness"]
            ok = MinorWitness(tuple(w["delete"]), tuple(w["contract"]), w["target"]).verify(system)
    else:
        ok = (doc["kind"] != "not_higgs") == facts["higgs"] and rc == (0 if facts["higgs"] else 1)
    res.check(ok, f"{head}: exit {rc}, {out.strip()}")


JOBS = {
    "census-n5": census_n5,
    "census-n4": census_n4,
    "constructions": constructions,
    "verdicts": verdicts,
}
