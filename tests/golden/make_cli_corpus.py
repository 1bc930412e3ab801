"""Record the golden CLI corpus replayed by tests/test_cli_corpus.py.

Run from the repository root with ``PYTHONPATH=src python3
tests/golden/make_cli_corpus.py``; it rewrites tests/golden/cli_corpus.json.
Each case holds an argument vector (``{system}`` stands for a file holding
the case's set system or lattice region), the exit code, and stdout and
stderr as printed.  The
corpus pins the verdicts, witnesses, refusals and census totals, so a
refactor that changes any byte of them shows up as a failing case.  The
exhaustive n = 4 cases (`census run --n 4 --json` for every theorem,
`exquotient` also with --no-dedupe, and `census count --n 4` in text and
--json form) pin the totals of the memoized per-family stack flags, with
and without eviction from the memo.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

from dmkit.catalog import ExminorClassId, make_named
from dmkit.census import REGISTRY, random_quotient_pair
from dmkit.cli import main
from dmkit.gf2 import SkewSymMatrixGF2, d_of_c
from dmkit.higgs import build_higgs_dm
from dmkit.latticepath import Region, parse_region, serialize_region
from dmkit.setsystem import SetSystem, serialize_set_system

OUT = Path(__file__).with_name("cli_corpus.json")
LABELS = "abcdefghijk"


def _uniform_layers(n: int, sizes) -> SetSystem:
    return SetSystem(tuple(LABELS[:n]),
                     frozenset(m for m in range(1 << n) if m.bit_count() in sizes))


def _random(seed: int, n: int, p: float) -> SetSystem:
    rng = random.Random(seed)
    masks = frozenset(m for m in range(1 << n) if rng.random() < p) or frozenset({0})
    return SetSystem(tuple(LABELS[:n]), masks)


def _dofc(seed: int, n: int, p: float = 0.5) -> SetSystem:
    rng = random.Random(seed)
    rows = [0] * n
    for i in range(n):
        for j in range(i, n):
            if rng.random() < p:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return d_of_c(SkewSymMatrixGF2(tuple(LABELS[:n]), tuple(rows)))


def _higgs(seed: int, n: int, r_q: int, r_l: int, ks) -> SetSystem:
    q, lift = random_quotient_pair(n, r_q, r_l, seed)
    return build_higgs_dm(q, lift, ks)


def systems() -> dict[str, SetSystem]:
    """About twenty fixed systems on 3 to 7 elements: members and
    non-members of every class, and refusals of every ambient."""
    return {
        "T1": make_named("T1"),
        "P2": make_named("P2"),
        "all3": _uniform_layers(3, range(4)),
        "U24": _uniform_layers(4, {2}),
        "U14+U34": _uniform_layers(4, {1, 3}),
        "even4": SetSystem(tuple("abcd"), frozenset({0, 0b0011, 0b1100, 0b1111})),
        "U3": make_named("U3"),
        "P4": make_named("P4"),
        "T5*{a,d}": make_named("T5*{a,d}"),
        "S_5": make_named("S_5"),
        "U25+U35": _uniform_layers(5, {2, 3}),
        "dofc5": _dofc(3, 5),
        "higgs5": _higgs(11, 5, 1, 3, [0, 1, 2]),
        "even-higgs5": _higgs(12, 5, 1, 3, [0, 2]),
        "random5": _random(5, 5, 0.5),
        "sparse6": _random(6, 6, 0.08),
        "higgs6": _higgs(13, 6, 2, 4, [0, 2]),
        "dofc6*ab": _dofc(4, 6).twist(["a", "b"]),
        "random6": _random(7, 6, 0.6),
        "dofc7": _dofc(5, 7),
        "U37": _uniform_layers(7, {3}),
    }


def stack_systems() -> dict[str, SetSystem]:
    """Extra systems for the ``stack classify`` cases: rank gaps (2, 2)
    and (3,), a twisted rank-2 matroid (a delta-matroid that is not a
    matroid stack), and an empty family (refused as improper)."""
    rank2 = SetSystem(tuple("abcd"), frozenset({0b0011, 0b0101, 0b1001, 0b0110, 0b1010}))
    return {
        "T5": make_named("T5"),
        "gap3": SetSystem(tuple("abcd"), frozenset({0, 0b0111})),
        "rank2*ac": rank2.twist(["a", "c"]),
        "empty": SetSystem(tuple("ab"), frozenset()),
    }


def higgs_systems() -> dict[str, SetSystem]:
    """Extra systems for the ``higgs classify`` cases: S2 (even, K = {0, 2})
    and a twist of a full Higgs lift that is not one, failing above a
    rank-1 minimal matroid."""
    return {
        "S2": make_named("S2"),
        "higgs5*a": _higgs(11, 5, 1, 3, [0, 1, 2]).twist(["a"]),
    }


def large_systems() -> dict[str, SetSystem]:
    """Systems on 6 to 11 elements: the whole-system delta excluded minors
    S_6, a twist of it and S_8 for the ``check --class delta`` cases; for
    the ``check --class delta`` and ``binary check`` cases a 9-element
    binary D(C) (matrix density 0.3, 57 feasible sets), whose scans run to
    the end, and two 7-element two-set systems, one with a 6-element minor
    isomorphic to S_6*{e1,e2,e3} and one whose whole system has the shape
    of S_7*{e1,e2,e3} but is not isomorphic to it; and a sparse 11-element
    D(C) (matrix density 0.15, 102 feasible sets), alone and with the set
    {a, b, c} flipped, for the ``stack classify`` and ``higgs classify``
    cases; and the 15-element delta-matroid {{}, {e0, e1}}, whose
    excluded-minor scan is refused for its 15-element targets."""
    dofc11 = _dofc(1, 11, 0.15)
    return {
        "S_6": make_named("S_6"),
        "S_6*{e1,e2}": make_named("S_6*{e1,e2}"),
        "S_8": make_named("S_8"),
        "dofc9": _dofc(2, 9, 0.3),
        "pair7-hit": SetSystem.from_sets(tuple(LABELS[:7]), ["abc", "def"]),
        "pair7-near": SetSystem.from_sets(tuple(LABELS[:7]), ["abc", "cdef"]),
        "dofc11": dofc11,
        "dofc11^abc": SetSystem(dofc11.labels, dofc11.masks ^ {0b111}),
        "pair15": SetSystem.from_sets(tuple(f"e{i}" for i in range(15)), [[], ["e0", "e1"]]),
    }


def regions() -> dict[str, str]:
    """Region files for the ``lattice`` cases, the last one invalid (P
    crosses above Q); no Region holds that one, so it is written as JSON
    text."""
    valid = {
        "region-tiny": Region(1, 0, 1, 1, "EN", "EE"),
        "region-fig1": Region(0, 0, 5, 4, "EENEENENN", "NNEENEENE"),
        "region-dc": Region(1, 1, 2, 3, "ENEEN", "NENEE"),
        "region-fig2": Region(3, 4, 4, 8, "EEENEENENEEN", "EEENEENNENNE"),
    }
    texts = {name: serialize_region(region) for name, region in valid.items()}
    texts["region-crossing"] = '{"d": 0, "c": 0, "u": 1, "v": 1, "P": "NE", "Q": "EN"}'
    return texts


def cases() -> list[dict]:
    out = []
    classes = [c.value for c in ExminorClassId]
    for name in systems():
        for cls in classes:
            out.append({"system": name, "argv": ["check", "--class", cls, "{system}"]})
            out.append({"system": name,
                        "argv": ["check", "--class", cls, "--json", "{system}"]})
        out.append({"system": name, "argv": ["binary", "check", "{system}"]})
        out.append({"system": name, "argv": ["binary", "check", "--json", "{system}"]})
    for theorem in sorted(REGISTRY):
        base = ["census", "run", "--n", "3", "--theorem", theorem]
        out.append({"argv": base})
        out.append({"argv": base + ["--json"]})
        out.append({"argv": base + ["--no-dedupe"]})
        out.append({"argv": base + ["--no-dedupe", "--json"]})
        out.append({"argv": base + ["--long", "--chunk", "100", "--json"]})
        out.append({"argv": ["census", "run", "--n", "4", "--theorem", theorem,
                             "--mode", "sampled", "--seed", "3", "--count", "300", "--json"]})
        # refused: a sampled run is never deduplicated
        out.append({"argv": ["census", "run", "--n", "4", "--theorem", theorem,
                             "--mode", "sampled", "--seed", "4", "--count", "300",
                             "--no-dedupe"]})
        n5 = ["census", "run", "--n", "5", "--theorem", theorem,
              "--mode", "sampled", "--seed", "5", "--count", "400"]
        out.append({"argv": n5})
        out.append({"argv": n5 + ["--json"]})
    for theorem in sorted(REGISTRY):
        out.append({"argv": ["census", "run", "--n", "4", "--theorem", theorem, "--json"]})
    out.append({"argv": ["census", "run", "--n", "4", "--theorem", "exquotient",
                         "--no-dedupe", "--json"]})
    out.append({"argv": ["census", "run", "--n", "5", "--theorem", "exdelta"]})
    # options a route would ignore are refused on it: a chunk below 1 on
    # every route, and the streaming options on a sampled run
    n3 = ["census", "run", "--n", "3", "--theorem", "exdelta"]
    sampled = ["census", "run", "--n", "4", "--theorem", "exdelta", "--mode", "sampled",
               "--count", "50"]
    for argv in (n3, n3 + ["--long"], n3 + ["--no-dedupe"], sampled):
        out.append({"argv": argv + ["--chunk", "0"]})
    for extra in (["--resume", "ck.json"], ["--long"], ["--jobs", "2"], ["--jobs", "1"]):
        out.append({"argv": sampled + extra})
    # and so are the sampling options on an exhaustive run, --chunk on a
    # run that is not streamed and --no-dedupe on one that is
    for extra in (["--chunk", "7"], ["--seed", "9"], ["--count", "5"],
                  ["--seed", "9", "--count", "5"], ["--long", "--no-dedupe"],
                  ["--long", "--no-dedupe", "--seed", "9"], ["--jobs", "2", "--count", "5"]):
        out.append({"argv": n3 + extra})
    out.append({"argv": sampled + ["--chunk", "7"]})
    for extra in (["--seed", "9"], ["--count", "5"], ["--seed", "9", "--count", "5"]):
        out.append({"argv": ["census", "count", "--n", "3"] + extra})
    for theorem in ("exdelta", "exhiggs"):
        out.append({"argv": ["census", "run", "--n", "6", "--theorem", theorem,
                             "--mode", "sampled", "--count", "300", "--json"]})
    out.append({"argv": ["census", "count", "--n", "6", "--mode", "sampled", "--count", "300"]})
    out.append({"argv": ["census", "count", "--n", "3"]})
    out.append({"argv": ["census", "count", "--n", "3", "--json"]})
    out.append({"argv": ["census", "count", "--n", "4"]})
    out.append({"argv": ["census", "count", "--n", "4", "--json"]})
    out.append({"argv": ["census", "count", "--n", "5", "--mode", "sampled",
                         "--seed", "5", "--count", "400"]})
    out.append({"argv": ["census", "count", "--n", "5", "--mode", "sampled",
                         "--seed", "5", "--count", "400", "--json"]})
    for cls in classes:
        out.append({"argv": ["catalog", "dump", "--class", cls, "--cap", "6"]})
    # cap 10 reaches the S_7..S_10 twists whose j- and (k - j)-twists are
    # one class
    for cls in classes:
        out.append({"argv": ["catalog", "dump", "--class", cls, "--cap", "10"]})
    for name in [*(f"T{i}" for i in range(1, 9)), *(f"P{i}" for i in range(1, 6)),
                 "U1", "S2", *(f"S_{k}" for k in range(3, 9))]:
        out.append({"argv": ["catalog", "twists", "--name", name]})
    for name in ("T1", "U14+U34", "random5", "dofc6*ab"):
        for cls in classes:
            out.append({"system": name, "argv": ["scan", "--class", cls, "{system}"]})
        out.append({"system": name, "argv": ["scan", "--class", "delta", "--json", "{system}"]})
    out.append({"system": "dofc7", "argv": ["scan", "--class", "delta", "--cap", "5", "{system}"]})
    for name, text in regions().items():
        out.append({"system": name, "argv": ["lattice", "build", "{system}"]})
        out.append({"system": name, "argv": ["lattice", "dual", "{system}"]})
        if name in ("region-fig2", "region-crossing"):
            continue
        for e in range(1, parse_region(text).n + 1):
            for op in ("delete", "contract"):
                out.append({"system": name, "argv": ["lattice", "minor", "--element", str(e),
                                                     "--op", op, "{system}"]})
    out.append({"system": "region-tiny",
                "argv": ["lattice", "minor", "--element", "3", "--op", "delete", "{system}"]})
    for name in [*systems(), *stack_systems()]:
        out.append({"system": name, "argv": ["stack", "classify", "{system}"]})
        out.append({"system": name, "argv": ["stack", "classify", "--json", "{system}"]})
    for name in [*systems(), *stack_systems(), *higgs_systems()]:
        out.append({"system": name, "argv": ["higgs", "classify", "{system}"]})
        out.append({"system": name, "argv": ["higgs", "classify", "--json", "{system}"]})
    for name in ("S_6", "S_6*{e1,e2}", "S_8"):
        out.append({"system": name, "argv": ["check", "--class", "delta", "{system}"]})
        out.append({"system": name, "argv": ["check", "--class", "delta", "--json", "{system}"]})
    for name in ("dofc9", "pair7-hit", "pair7-near"):
        out.append({"system": name, "argv": ["check", "--class", "delta", "{system}"]})
        out.append({"system": name, "argv": ["check", "--class", "delta", "--json", "{system}"]})
        out.append({"system": name, "argv": ["binary", "check", "{system}"]})
        out.append({"system": name, "argv": ["binary", "check", "--json", "{system}"]})
    for name in ("dofc11", "dofc11^abc"):
        for command in ("stack", "higgs"):
            out.append({"system": name, "argv": [command, "classify", "{system}"]})
            out.append({"system": name, "argv": [command, "classify", "--json", "{system}"]})
    # every class refuses an empty family; these four have ambients that
    # do not read it as improper
    for cls in ("delta", "even-delta-all", "matroid", "binary"):
        out.append({"system": "empty", "argv": ["check", "--class", cls, "{system}"]})
        out.append({"system": "empty", "argv": ["check", "--class", cls, "--json", "{system}"]})
    # excluded-minor lists reaching 15 elements are refused, on one system
    # and on a sampled census
    out.append({"system": "pair15", "argv": ["check", "--class", "delta", "{system}"]})
    out.append({"system": "pair15", "argv": ["check", "--class", "delta", "--json", "{system}"]})
    out.append({"argv": ["census", "run", "--n", "15", "--theorem", "exdelta",
                         "--mode", "sampled", "--count", "2"]})
    # only a JSON report carries a stamp
    out.append({"argv": ["census", "run", "--n", "3", "--theorem", "exdelta", "--timestamps"]})
    out.append({"argv": ["census", "count", "--n", "3", "--timestamps"]})
    # higgs build with U(2,4) as both quotient and lift, so K lies in
    # [0, 0]: one valid build, and two index sets with an entry that is not
    # an integer
    for ks in ("0", "x", "0,x"):
        out.append({"system": "U24", "argv": ["higgs", "build", "--quotient", "{system}",
                                              "--lift", "{system}", "--index-set", ks]})
    return out


def run_case(argv: list[str], system_path: str | None) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process CLI call."""
    argv = [system_path if a == "{system}" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def record() -> dict:
    texts = {name: serialize_set_system(s)
             for name, s in {**systems(), **stack_systems(), **higgs_systems(),
                             **large_systems()}.items()}
    texts.update(regions())
    recorded = []
    with tempfile.TemporaryDirectory() as tmp:
        for case in cases():
            path = None
            if "system" in case:
                path = str(Path(tmp) / "system.json")
                Path(path).write_text(texts[case["system"]], encoding="utf-8")
            code, stdout, stderr = run_case(case["argv"], path)
            recorded.append({**case, "exit": code, "stdout": stdout, "stderr": stderr})
    return {"systems": texts, "cases": recorded}


if __name__ == "__main__":
    doc = record()
    OUT.write_text(json.dumps(doc, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"{len(doc['cases'])} cases written to {OUT}", file=sys.stderr)
