"""Span tracing of dmkit's layers from outside the package.

A Tracer wraps the public entry points of each layer by rebinding module
attributes: every ``dmkit`` module attribute that is the original object,
including names other modules imported (``dmkit.census.classify_higgs``
as well as ``dmkit.higgs.classify_higgs``), is pointed at the wrapper.
Methods are rebound on their class.  Nothing under ``src/`` changes.

Spans (name, start, end, parent, operation id) are kept in flat arrays
in memory and written out when the run ends.  A span's self time is its
duration minus the durations of its direct children; the code is
single-threaded, so children nest inside their parent and never overlap.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# (module, attribute, span name).  "Class.method" attributes are rebound on
# the class.  Every name listed in this file must exist: install() raises
# when one is missing, so that a renamed layer fails the traced run instead
# of reading as a layer that was never called.
SPANS = (
    ("dmkit.setsystem", "SetSystem.is_delta_matroid", "setsystem.is_delta_matroid"),
    ("dmkit.setsystem", "SetSystem.minor", "setsystem.minor"),
    ("dmkit.setsystem", "SetSystem.canonical_form", "setsystem.canonical_form"),
    ("dmkit.setsystem", "SetSystem.is_isomorphic", "setsystem.is_isomorphic"),
    ("dmkit.minorscan", "has_minor_from", "minorscan.has_minor_from"),
    ("dmkit.minorscan", "classify_by_exminors", "minorscan.classify_by_exminors"),
    ("dmkit.catalog", "excluded_minor_set", "catalog.excluded_minor_set"),
    ("dmkit.census", "family_system", "census.family_system"),
    ("dmkit.census", "_canonical_index_table", "census.canonical_index_table"),
    ("dmkit.census", "verify_equivalence", "census.verify_equivalence"),
    ("dmkit.census", "count_census", "census.count_census"),
    ("dmkit.census", "run_streaming", "census.run_streaming"),
    ("dmkit.census", "_stream_range", "census.stream_range"),
    ("dmkit.stacks", "classify_stack", "stacks.classify_stack"),
    ("dmkit.matroid", "exchange_violation", "matroid.exchange_violation"),
    ("dmkit.matroid", "is_quotient", "matroid.is_quotient"),
    ("dmkit.matroid", "min_max_matroids", "matroid.min_max_matroids"),
    ("dmkit.higgs", "classify_higgs", "higgs.classify_higgs"),
    ("dmkit.higgs", "build_higgs_dm", "higgs.build_higgs_dm"),
    ("dmkit.gf2", "d_of_c", "gf2.d_of_c"),
    ("dmkit.gf2", "is_binary_dm", "gf2.is_binary_dm"),
    ("dmkit.latticepath", "verify_region_prop", "latticepath.verify_region_prop"),
    ("dmkit.latticepath", "lpdm", "latticepath.lpdm"),
    ("dmkit.bitset", "up_closure", "bitset.closure"),
    ("dmkit.bitset", "down_closure", "bitset.closure"),
    ("dmkit.bitset", "minimal_members", "bitset.closure"),
    ("dmkit.cli", "main", "cli.main"),
)

# Helpers whose calls are counted but which get no span: their time stays
# in the caller's self time (the exchange oracle inside is_delta_matroid).
COUNTED = (
    ("dmkit.setsystem", "_se_holds_bitmap", "setsystem.se_holds_bitmap"),
)

# Census entry points whose self time is the census aggregation loop.
AGGREGATE = (
    "census.verify_equivalence",
    "census.count_census",
    "census.run_streaming",
    "census.stream_range",
)

# lru_caches whose hit ratio over the traced run is reported.
CACHES = (
    ("dmkit.setsystem", "_canonical_form", "setsystem.canonical_form.hit_ratio"),
    ("dmkit.catalog", "excluded_minor_set", "catalog.excluded_minor_set.hit_ratio"),
    ("dmkit.matroid", "_circuit_masks", "matroid.circuit_cache.hit_ratio"),
)


def _resolve(module: str, attr: str):
    """(owner, attribute name, object) for a dotted attribute; raises
    LookupError when the module or attribute is gone."""
    owner = sys.modules.get(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if isinstance(owner, type):
        obj = owner.__dict__.get(name)
    else:
        obj = getattr(owner, name, None)
    if obj is None:
        raise LookupError(f"{module}.{attr} not found: update the lists in perfbench/tracer.py")
    return owner, name, obj


def _cache_counts(module: str, attr: str) -> tuple[int, int]:
    obj = _resolve(module, attr)[2]
    if not hasattr(obj, "cache_info"):
        raise LookupError(f"{module}.{attr} is no longer an lru_cache: "
                          "update CACHES in perfbench/tracer.py")
    info = obj.cache_info()
    return info.hits, info.misses


class Tracer:
    """In-memory span recorder with install/uninstall of layer wrappers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self.region_next_ns = 0
        self._restore: list[tuple[object, str, object]] = []
        self._cache_before: dict[str, tuple[int, int]] = {}

    # -- wrappers -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _span_wrapper(self, fn, span_name: str):
        nid = self._name_id(span_name)
        names, starts, ends, parents, ops = self.name, self.start, self.end, self.parent, self.op
        stack = self.stack
        clock = time.perf_counter_ns
        counts = self.counts
        tracer = self

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if span_name == "minorscan.has_minor_from" and result is not None:
                counts["minorscan.has_minor_from.witnesses"] += 1
            elif span_name == "cli.main" and result == 2:
                counts["cli.main.refusals"] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, fn, key: str):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _minors_wrapper(self, fn):
        counts = self.counts

        def enumerate_minors(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts["minorscan.minors"] += 1
                yield item

        return enumerate_minors

    def _regions_wrapper(self, fn):
        tracer = self
        clock = time.perf_counter_ns

        def iter_regions(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    tracer.region_next_ns += clock() - t0
                    return
                tracer.region_next_ns += clock() - t0
                yield item

        return iter_regions

    def _rebind(self, found, wrapper) -> None:
        owner, name, orig = found
        if isinstance(owner, type):
            self._restore.append((owner, name, orig))
            setattr(owner, name, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "dmkit" or mod_name.startswith("dmkit.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._restore.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer entry point; dmkit must already be imported."""
        for module, attr, cache_key in CACHES:
            self._cache_before[cache_key] = _cache_counts(module, attr)
        for module, attr, span_name in SPANS:
            found = _resolve(module, attr)
            self._rebind(found, self._span_wrapper(found[2], span_name))
        for module, attr, key in COUNTED:
            found = _resolve(module, attr)
            self._rebind(found, self._count_wrapper(found[2], key))
        found = _resolve("dmkit.minorscan", "enumerate_minors")
        self._rebind(found, self._minors_wrapper(found[2]))
        found = _resolve("dmkit.latticepath", "iter_regions")
        self._rebind(found, self._regions_wrapper(found[2]))

    def uninstall(self) -> None:
        """Restore every rebound attribute and freeze the cache counters."""
        for owner, name, orig in reversed(self._restore):
            setattr(owner, name, orig)
        self._restore.clear()
        for module, attr, cache_key in CACHES:
            hits, misses = _cache_counts(module, attr)
            h0, m0 = self._cache_before.get(cache_key, (0, 0))
            self.counts[cache_key + ".hits"] = hits - h0
            self.counts[cache_key + ".misses"] = misses - m0

    # -- analysis -------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds)."""
        import numpy as np

        n = len(self.start)
        names = np.frombuffer(self.name, dtype=np.int32) if n else np.zeros(0, np.int32)
        start = np.frombuffer(self.start, dtype=np.int64) if n else np.zeros(0, np.int64)
        end = np.frombuffer(self.end, dtype=np.int64) if n else np.zeros(0, np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32) if n else np.zeros(0, np.int32)
        dur = end - start
        child = np.zeros(n, dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        selfs = np.bincount(names, weights=own, minlength=k)
        return {
            name: (int(calls[i]), float(total[i]) / 1e9, float(selfs[i]) / 1e9)
            for i, name in enumerate(self.names)
        }

    def child_calls(self, child_name: str, parent_name: str) -> int:
        """Number of child_name spans whose direct parent is parent_name."""
        if child_name not in self._name_ids or parent_name not in self._name_ids:
            return 0
        import numpy as np

        names = np.frombuffer(self.name, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        mine = parents[(names == self._name_ids[child_name]) & (parents >= 0)]
        return int(np.count_nonzero(names[mine] == self._name_ids[parent_name]))

    def dump(self, path: Path) -> int:
        """Write every span as gzip'd TSV (name, start_ns, end_ns, parent,
        op); returns the span count."""
        names = self.names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\top\n")
            rows = []
            for i in range(len(self.start)):
                rows.append(
                    f"{i}\t{names[self.name[i]]}\t{self.start[i]}\t{self.end[i]}"
                    f"\t{self.parent[i]}\t{self.op[i]}\n"
                )
                if len(rows) >= 65536:
                    fh.write("".join(rows))
                    rows.clear()
            fh.write("".join(rows))
        return len(self.start)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced run, zero where a layer was not
    called."""
    st = tracer.self_times()
    counts = tracer.counts

    def calls(name: str) -> int:
        return st.get(name, (0, 0.0, 0.0))[0]

    def self_s(name: str) -> float:
        return st.get(name, (0, 0.0, 0.0))[2]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def hit_ratio(key: str) -> float:
        hits, misses = counts[key + ".hits"], counts[key + ".misses"]
        return ratio(hits, hits + misses)

    out: dict[str, float] = {}
    for name in (
        "setsystem.is_delta_matroid", "setsystem.minor", "setsystem.canonical_form",
        "setsystem.is_isomorphic", "minorscan.has_minor_from",
        "minorscan.classify_by_exminors", "catalog.excluded_minor_set",
        "census.family_system", "stacks.classify_stack", "matroid.exchange_violation",
        "matroid.is_quotient", "matroid.min_max_matroids", "higgs.classify_higgs",
        "higgs.build_higgs_dm", "gf2.d_of_c", "gf2.is_binary_dm",
        "latticepath.verify_region_prop", "latticepath.lpdm", "bitset.closure", "cli.main",
    ):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    out["setsystem.se_bitmap_share"] = ratio(
        counts["setsystem.se_holds_bitmap"], calls("setsystem.is_delta_matroid")
    )
    out["setsystem.canonical_form.hit_ratio"] = hit_ratio("setsystem.canonical_form.hit_ratio")
    scans = calls("minorscan.has_minor_from")
    minors = counts["minorscan.minors"]
    out["minorscan.has_minor_from.minors_per_call"] = ratio(minors, scans)
    out["minorscan.has_minor_from.canon_per_minor"] = ratio(
        tracer.child_calls("setsystem.canonical_form", "minorscan.has_minor_from"), minors
    )
    out["minorscan.has_minor_from.witness_ratio"] = ratio(
        counts["minorscan.has_minor_from.witnesses"], scans
    )
    out["catalog.excluded_minor_set.hit_ratio"] = hit_ratio("catalog.excluded_minor_set.hit_ratio")
    out["census.canonical_index_table.self_s"] = self_s("census.canonical_index_table")
    out["census.aggregate.self_s"] = sum(self_s(name) for name in AGGREGATE)
    out["matroid.circuit_cache.hit_ratio"] = hit_ratio("matroid.circuit_cache.hit_ratio")
    out["latticepath.iter_regions.self_s"] = tracer.region_next_ns / 1e9
    out["cli.refusal_ratio"] = ratio(counts["cli.main.refusals"], calls("cli.main"))
    return out


def self_time_table(tracer: Tracer) -> list[tuple[str, int, float, float]]:
    """(span name, calls, total s, self s), largest self time first."""
    rows = [(name, c, tot, own) for name, (c, tot, own) in tracer.self_times().items()]
    if tracer.region_next_ns:
        rows.append(("latticepath.iter_regions", 0, tracer.region_next_ns / 1e9,
                     tracer.region_next_ns / 1e9))
    return sorted(rows, key=lambda r: -r[3])
