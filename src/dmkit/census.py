"""Exhaustive and sampled enumeration of proper set systems, oracle
equivalence verification, and counting.

Family index encoding: bit j of the index means the subset with mask j is
feasible, with subsets ordered by mask value.  Index 0 is the empty
family and is skipped (improper).
"""

from __future__ import annotations

import json
import os
import random
import sys
import tempfile
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, compress, repeat
from operator import or_
from typing import Iterable, Iterator, Sequence

from .bitset import iter_bits, relabellings
from .errors import CapacityError, DmkitError, FormatError
from .gf2 import binary_dm_bits, is_binary_dm
from .matroid import Matroid, exchange_violation
from .minorscan import (
    CLASS_TABLE,
    DELTA,
    EVEN,
    FULL_HIGGS,
    HIGGS,
    MATROID,
    MATROID_STACK,
    PAVING,
    QUOTIENT,
    SPARSE_PAVING,
    ClassSpec,
    Column,
    both,
)
from .setsystem import BATCH, SetSystem

CENSUS_LABELS = "abcdefgh"
EXHAUSTIVE_CAP = 4
CHECKPOINT_VERSION = 2
DEFAULT_CHUNK = 1 << 24
_ZERO_DIGIT = bytes.maketrans(b"0", b"\0")  # translate: "0" to byte 0, "1" kept


def family_system(n: int, index: int) -> SetSystem:
    """The set system encoded by a family index, on the first n of
    CENSUS_LABELS."""
    if n > len(CENSUS_LABELS):
        raise CapacityError(f"census systems have at most {len(CENSUS_LABELS)} elements, "
                            f"got n = {n}")
    return SetSystem.from_bitmap(CENSUS_LABELS[:n], index)


def family_indices(n: int, mode: str = "exhaustive", *, seed: int = 0,
                   count: int = 0) -> Iterator[int]:
    """Yield the family indices of a run.

    Exhaustive mode requires n <= 4; sampled mode draws uniformly from the
    nonempty families, deterministically per seed.
    """
    batches = _weighted_families(n, mode, seed=seed, count=count, dedupe=False)
    return chain.from_iterable(batch for batch, _ in batches)


def enumerate_proper_systems(n: int, mode: str = "exhaustive", *, seed: int = 0,
                             count: int = 0) -> Iterator[tuple[int, SetSystem]]:
    """Yield (family index, system) pairs of family_indices."""
    for index in family_indices(n, mode, seed=seed, count=count):
        yield index, family_system(n, index)


# -- isomorphism reduction over family indices ---------------------------


@lru_cache(maxsize=None)
def _isomorphism_classes(n: int) -> tuple[array, array, array]:
    """(canonical table, representatives, class sizes) on n elements, by
    one walk in index order: each index not yet assigned is the least of
    its class, and its relabellings, the ORs of those of its two bytes
    (each byte value's listed once, in one order), are the whole class."""
    if n > EXHAUSTIVE_CAP:
        raise CapacityError(f"no canonical table for n = {n}")
    table = array("I", bytes(4 << (1 << n)))
    lo = [tuple(relabellings(b, n)) for b in range(len(table))[:256]]
    hi = [tuple(relabellings(b << 8, n)) for b in range(len(table) >> 8 or 1)]
    reps, sizes = array("I"), array("I")
    f = 1
    while True:
        orbit = set(map(or_, lo[f & 255], hi[f >> 8]))
        for g in orbit:
            table[g] = f
        reps.append(f)
        sizes.append(len(orbit))
        try:
            f = table.index(0, f + 1)
        except ValueError:
            return table, reps, sizes


def _canonical_index_table(n: int) -> array:
    """canonical[f] = least family index isomorphic to f, for all indices."""
    return _isomorphism_classes(n)[0]


def _class_weights(n: int) -> tuple[array, array]:
    """(representatives, class sizes): the least family index of each
    isomorphism class of nonempty families, ascending, and the number of
    families in its class."""
    return _isomorphism_classes(n)[1:]


def _by_class(n: int, mode: str, dedupe: bool) -> bool:
    return dedupe and mode == "exhaustive" and 0 <= n <= EXHAUSTIVE_CAP


def _weighted_families(n: int, mode: str, *, seed: int, count: int,
                       dedupe: bool) -> Iterator[tuple[Sequence[int], Sequence[int] | None]]:
    """Yield (family indices, weights) batches of at most BATCH families
    whose weights add up to the number of families in the run; weights is
    None when every weight is 1.

    A deduplicated exhaustive run yields the least index of each
    isomorphism class, in index order, weighted by the class size (every
    census oracle is label-invariant); any other run yields every family
    with weight 1.  A sampled index is one rng.getrandbits(2^n) call, made
    again while it is 0; a batch of k makes one call of k strides of
    max(32, 2^n) bits, which reads the stream of k such calls, 32-bit word
    by word, low word first (a call of fewer than 32 bits keeps the high
    bits of its word), so dropping its zero draws and drawing again for
    the shortfall yields the family-by-family loop's indices.
    """
    if n < 0:
        raise DmkitError(f"a census needs n >= 0, got n = {n}")
    if mode == "sampled" and count < 0:
        raise DmkitError(f"a sampled census needs count >= 0, got count = {count}")
    if _by_class(n, mode, dedupe):
        reps, sizes = _class_weights(n)
        for lo in range(0, len(reps), BATCH):
            yield reps[lo:lo + BATCH], sizes[lo:lo + BATCH]
    elif mode == "exhaustive":
        if n > EXHAUSTIVE_CAP:
            raise CapacityError(
                f"exhaustive enumeration of 2^{1 << n} families needs the "
                "long-run census entry point"
            )
        stop = 1 << (1 << n)
        for lo in range(1, stop, BATCH):
            yield range(lo, min(lo + BATCH, stop)), None
    elif mode == "sampled":
        rng, bits = random.Random(seed), 1 << n
        size = max(4, bits >> 3)  # bytes a draw
        for lo in range(0, count, BATCH):
            batch: list[int] = []
            while k := min(BATCH, count - lo) - len(batch):
                draws = rng.getrandbits(8 * size * k)
                if bits < 32:  # keep the high bits of each word
                    low = ((1 << bits) - 1).to_bytes(4, "little") * k
                    draws = draws >> 32 - bits & int.from_bytes(low, "little")
                raw = draws.to_bytes(size * k, "little")
                if size > 8:
                    words = [int.from_bytes(raw[i:i + size], "little")
                             for i in range(0, len(raw), size)]
                else:
                    words = array("IQ"[size > 4], raw)
                    if sys.byteorder != "little":
                        words.byteswap()
                batch += filter(None, words)
            yield batch, None
    else:
        raise ValueError(f"unknown mode {mode!r}")


# -- the equivalence registry ---------------------------------------------


# The census theorems: one per class of the class table with a theorem id,
# in table order, then speven, which is not an excluded-minor class.
SPEVEN = ClassSpec(None, "speven", "even sparse paving systems are quotient systems",
                   "system is not an even sparse paving set system",
                   *both(EVEN, SPARSE_PAVING), *QUOTIENT)
REGISTRY: dict[str, ClassSpec] = {
    spec.theorem_id: spec for spec in (*CLASS_TABLE.values(), SPEVEN) if spec.theorem_id
}


@dataclass
class CensusReport:
    """Aggregated result of one census or verification run."""

    n: int
    mode: str
    theorem: str | None = None
    totals: dict = field(default_factory=dict)
    discrepancies: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.discrepancies

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "mode": self.mode,
                "theorem": self.theorem,
                "totals": self.totals,
                "discrepancies": self.discrepancies,
                "ok": self.ok,
            },
            separators=(", ", ": "),
        )

    def summary(self) -> str:
        if self.theorem:
            parts = [self.theorem, f"{self.totals['ambient']} systems in hypothesis",
                     f"{len(self.discrepancies)} discrepancies"]
        else:
            parts = [f"{len(self.discrepancies)} discrepancies", json.dumps(self.totals)]
        return " | ".join([f"n={self.n}", self.mode, *parts])


def _new_totals(columns: tuple[Column, ...]) -> dict[str, int]:
    return dict.fromkeys(["checked", *(key for key, _, _ in columns)], 0)


def _mode_label(mode: str, seed: int, count: int) -> str:
    return f"sampled(seed={seed}, count={count})" if mode == "sampled" else mode


def _select(items: Sequence, bits: int) -> list:
    """The items at the set bits of a bitmask over their positions."""
    return list(compress(items, format(bits, "b")[::-1].encode().translate(_ZERO_DIGIT)))


def _weight(bits: int, weights: Sequence[int] | None) -> int:
    """The weight of the batch positions at the set bits (weights None: 1 each)."""
    return bits.bit_count() if weights is None else sum(_select(weights, bits))


def _tally(
    columns: tuple[Column, ...], batches: Iterable[tuple[Sequence[int], Sequence[int] | None]],
    n: int, max_witnesses: int = 0,
) -> tuple[dict[str, int], list[dict]]:
    """Totals over (family indices, weights) batches, each family counted
    its weight times (once when weights is None): "checked", then one
    total per column.  The first column gates the others, which are
    decided only on the families inside it.  The first max_witnesses
    families inside on which the second and third columns disagree
    (direct and exminor) are returned, in iteration order.

    Each column runs its index form on a whole batch at once, at every n,
    so the loop builds no SetSystem of a family.
    """
    totals = _new_totals(columns)
    discrepancies: list[dict] = []
    (gate_key, gate, _), rest = columns[0], columns[1:]
    for indices, weights in batches:
        totals["checked"] += _weight((1 << len(indices)) - 1, weights)
        bits = gate(indices, n)
        totals[gate_key] += _weight(bits, weights)
        indices = _select(indices, bits)
        weights = weights and _select(weights, bits)
        verdicts = [form(indices, n) for _, form, _ in rest]
        for (key, _, _), bits in zip(rest, verdicts):
            totals[key] += _weight(bits, weights)
        if max_witnesses:
            direct, exm = verdicts[:2]
            for b in iter_bits(direct ^ exm):
                if len(discrepancies) >= max_witnesses:
                    break
                discrepancies.append({"family_index": indices[b],
                                      "direct": bool(direct >> b & 1),
                                      "exminor": bool(exm >> b & 1)})
    return totals, discrepancies


def _theorem(theorem_id: str) -> ClassSpec:
    """The registered theorem with this id; an unknown id is refused."""
    if theorem_id not in REGISTRY:
        raise DmkitError(f"unknown theorem id {theorem_id!r}; known: {sorted(REGISTRY)}")
    return REGISTRY[theorem_id]


def verify_equivalence(
    n: int,
    theorem_id: str,
    mode: str = "exhaustive",
    *,
    seed: int = 0,
    count: int = 0,
    dedupe: bool = True,
    max_witnesses: int = 100,
) -> CensusReport:
    """Compare a direct oracle with its excluded-minor classifier.

    Exhaustive runs with dedupe=True evaluate both oracles once per
    isomorphism class and weight the verdicts by the class size.  Every
    run reports the first max_witnesses discrepant family indices, in
    index order (draw order for sampled runs), so dedupe changes the cost
    of a run, not its report.
    """
    columns = _theorem(theorem_id).columns
    families = _weighted_families(n, mode, seed=seed, count=count, dedupe=dedupe)
    totals, discrepancies = _tally(columns, families, n, max_witnesses)
    if discrepancies and _by_class(n, mode, dedupe):
        # the labelled loop yields the first discrepant indices in index
        # order, so it stops at the first batch that fills the report
        discrepancies = []
        end = 1 << (1 << n)
        for start in range(1, end, BATCH):
            discrepancies += _stream_range(n, theorem_id, start, min(start + BATCH, end),
                                           max_witnesses - len(discrepancies))[1]
            if len(discrepancies) == max_witnesses:
                break
    return CensusReport(n=n, mode=_mode_label(mode, seed, count), theorem=theorem_id,
                        totals=totals, discrepancies=discrepancies)


# -- counting --------------------------------------------------------------


# The class counts of count_census; every column after the first is
# decided on delta-matroids only, which the Higgs index forms assume.
_COUNT_COLUMNS: tuple[Column, ...] = (
    ("delta_matroid", *DELTA),
    ("even_delta_matroid", *EVEN),
    ("higgs", *HIGGS),
    ("full_higgs", *FULL_HIGGS),
    ("matroid", *MATROID),
    ("matroid_stack_dm", *MATROID_STACK),
    ("paving_dm", *PAVING),
    ("sparse_paving_dm", *SPARSE_PAVING),
    ("quotient_dm", *QUOTIENT),
    ("binary_consistent", binary_dm_bits, lambda s: is_binary_dm(s)[0]),
)


def count_census(n: int, mode: str = "exhaustive", *, seed: int = 0, count: int = 0) -> CensusReport:
    """Class counts over the census; exhaustive runs assert the
    delta-matroid lower bound 2^(2^(n-1))."""
    report = CensusReport(n=n, mode=_mode_label(mode, seed, count))
    families = _weighted_families(n, mode, seed=seed, count=count, dedupe=True)
    report.totals, _ = _tally(_COUNT_COLUMNS, families, n)
    if mode == "exhaustive":
        bound = 1 << (1 << (n - 1)) if n >= 1 else 1
        found = report.totals["delta_matroid"]
        if found < bound:
            report.discrepancies.append(
                {"class": "delta_matroid", "count": found, "lower_bound": bound}
            )
    return report


# -- random quotient pairs ---------------------------------------------


def random_quotient_pair(n: int, r_q: int, r_l: int, seed: int) -> tuple[Matroid, Matroid]:
    """Seeded (Q, L) with Q a quotient of L, r(Q) = r_q, r(L) = r_l.

    L is repaired from a random basis family by deleting an offending
    basis until exchange holds; Q is the contraction L/W by a random
    rank-(r_l - r_q) subset W, put back on the full ground set with W as
    loops.  It is a quotient unchecked: for a circuit C of L, C - W is a
    union of circuits of L/W, and W's elements are loops of Q, so C is a
    union of circuits of Q (Oxley, Prop. 3.1.11).  The ground set is a
    prefix of CENSUS_LABELS, so n is at most eight.
    """
    if n > len(CENSUS_LABELS):
        raise CapacityError(f"random quotient pairs have at most {len(CENSUS_LABELS)} "
                            f"elements, got n = {n}")
    if not 0 <= r_q <= r_l <= n:
        raise DmkitError(f"need 0 <= r_q <= r_l <= n, got ({r_q}, {r_l}, {n})")
    rng = random.Random(seed)
    labels = tuple(CENSUS_LABELS[:n])
    candidates = [m for m in range(1 << n) if m.bit_count() == r_l]
    family = {m for m in candidates if rng.random() < 0.5}
    if not family:
        family = {rng.choice(candidates)}
    while True:
        system = SetSystem(labels, frozenset(family))
        bad = exchange_violation(system)
        if bad is None:
            break
        family.discard(bad[0])
    lift = Matroid(system)
    k = r_l - r_q
    if k == 0:
        return lift, lift
    subsets = list(range(1 << n))
    rng.shuffle(subsets)
    w = next(m for m in subsets if lift.rank_of_mask(m) == k)
    q_bases = frozenset(
        b
        for b in range(1 << n)
        if not b & w and b.bit_count() == r_q and lift.rank_of_mask(b | w) == r_l
    )
    return Matroid(SetSystem(labels, q_bases)), lift


# -- long exhaustive runs with checkpointing -----------------------------


def _stream_range(
    n: int, theorem_id: str, start: int, stop: int, max_witnesses: int
) -> tuple[dict, list[dict]]:
    batches = ((range(lo, min(lo + BATCH, stop)), None) for lo in range(start, stop, BATCH))
    return _tally(REGISTRY[theorem_id].columns, batches, n, max_witnesses)


# concurrent.futures.ProcessPoolExecutor, imported by the first run with
# jobs > 1 only: the import would add to every CLI start.
ProcessPoolExecutor = None


def run_streaming(
    n: int,
    theorem_id: str,
    *,
    start: int = 1,
    stop: int | None = None,
    checkpoint_path: str | None = None,
    chunk: int = DEFAULT_CHUNK,
    max_witnesses: int = 100,
    jobs: int = 1,
) -> CensusReport:
    """Undeduped exhaustive scan over a family-index range with periodic
    checkpoints; the entry point for long (n = 5) runs.

    Chunks are processed in index order, jobs chunks per round and one
    checkpoint after each round; with jobs > 1 one pool of worker
    processes takes the chunks of every round, and they are merged in
    order, so the report is identical to the single-process one.  Each
    merge keeps the first max_witnesses discrepancies, so a checkpoint
    holds exactly the witnesses of the report it leads to.
    """
    global ProcessPoolExecutor
    columns = _theorem(theorem_id).columns
    if n < 0 or chunk < 1 or jobs < 1:
        raise DmkitError(f"need n >= 0, chunk >= 1 and jobs >= 1, got n = {n}, "
                         f"chunk = {chunk}, jobs = {jobs}")
    end = stop if stop is not None else 1 << (1 << n)
    totals = _new_totals(columns)
    discrepancies: list[dict] = []
    index = start
    if checkpoint_path:
        loaded = _load_checkpoint(checkpoint_path, n, theorem_id, start, end, max_witnesses,
                                  totals.keys())
        if loaded is not None:
            index, totals, discrepancies = loaded
    if jobs > 1 and ProcessPoolExecutor is None:
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(jobs) if jobs > 1 else nullcontext() as pool:
        run = pool.map if pool else map
        while index < end:
            # one round: at most jobs chunks in flight, then a checkpoint
            round_end = min(index + chunk * jobs, end)
            los = range(index, round_end, chunk)
            his = [min(lo + chunk, round_end) for lo in los]
            for part_totals, part_disc in run(_stream_range, repeat(n), repeat(theorem_id),
                                              los, his, repeat(max_witnesses)):
                for key, value in part_totals.items():
                    totals[key] += value
                discrepancies.extend(part_disc)
                del discrepancies[max_witnesses:]
            index = round_end
            if checkpoint_path:
                _save_checkpoint(checkpoint_path, {
                    "version": CHECKPOINT_VERSION,
                    "n": n,
                    "theorem": theorem_id,
                    "start": start,
                    "max_witnesses": max_witnesses,
                    "next_index": index,
                    "totals": totals,
                    "discrepancies": discrepancies,
                })
    return CensusReport(
        n=n, mode=f"streaming[{start},{end})", theorem=theorem_id,
        totals=totals, discrepancies=discrepancies,
    )


def _save_checkpoint(path, doc: dict) -> None:
    """Write the checkpoint to a temporary file beside it, then rename it
    over the old one, so a run killed mid-write leaves the previous
    checkpoint intact."""
    fd, tmp = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp",
        dir=os.path.dirname(os.path.abspath(path)),
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _load_checkpoint(path, n, theorem_id, start, stop, max_witnesses, keys):
    """(next index, totals, discrepancies) of the run that wrote the
    checkpoint, or None when there is none.  The run must be the same one:
    a checkpoint from another theorem, start index or witness limit, or
    one that is already past the requested stop, is refused, and so is one
    whose next index, totals (an int per key of the run's totals) or
    discrepancies (each a witness of _is_witness) are malformed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        return None
    except json.JSONDecodeError as exc:
        raise FormatError(f"corrupt checkpoint {path}: {exc}") from None
    if type(doc) is not dict:
        raise FormatError(f"corrupt checkpoint {path}: not a JSON object")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise FormatError(f"checkpoint version {doc.get('version')} unsupported")
    if doc.get("n") != n or doc.get("theorem") != theorem_id:
        raise FormatError("checkpoint belongs to a different run")
    if doc.get("start") != start:
        raise FormatError(
            f"checkpoint run started at index {doc.get('start')}, not {start}"
        )
    if doc.get("max_witnesses") != max_witnesses:
        raise FormatError(
            f"checkpoint run kept {doc.get('max_witnesses')} witnesses, not {max_witnesses}"
        )
    index, totals = doc.get("next_index"), doc.get("totals")
    if type(index) is not int or index < start:
        raise FormatError(
            f"corrupt checkpoint {path}: next_index {index!r} is not an index from {start}"
        )
    if index > stop:
        raise FormatError(f"checkpoint is at index {index}, past the requested stop {stop}")
    if type(totals) is not dict or totals.keys() != keys or any(
            type(v) is not int for v in totals.values()):
        raise FormatError(f"corrupt checkpoint {path}: totals are not an int per column")
    discrepancies = doc.get("discrepancies")
    if type(discrepancies) is not list or not all(
            _is_witness(d, start, index) for d in discrepancies):
        raise FormatError(f"corrupt checkpoint {path}: discrepancies are not a list of "
                          f"witnesses from [{start}, {index})")
    return index, {key: totals[key] for key in keys}, discrepancies[:max_witnesses]


def _is_witness(entry, start: int, stop: int) -> bool:
    """True when a checkpoint entry is a discrepancy _tally could have
    written for a family of [start, stop): its index, and two verdicts
    that differ."""
    return (type(entry) is dict and entry.keys() == {"family_index", "direct", "exminor"}
            and type(entry["family_index"]) is int and start <= entry["family_index"] < stop
            and type(entry["direct"]) is bool and type(entry["exminor"]) is bool
            and entry["direct"] != entry["exminor"])
