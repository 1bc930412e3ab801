"""Golden CLI corpus: every recorded invocation must reproduce its exit
code, stdout and stderr byte for byte.

The corpus (tests/golden/cli_corpus.json, written by
tests/golden/make_cli_corpus.py) covers `check` for every class in text
and --json form on 21 fixed 3-7-element systems, ambient refusals
included, `binary check`, `census run --n 3` for every theorem with and
without --no-dedupe and streamed, sampled n = 4 census runs and their
refusal of --no-dedupe, exhaustive `census run --n 4 --json` for every
theorem (and for exquotient with --no-dedupe, 65 535 families through
the stack-flag memo), sampled n = 5 census runs of 400 families in text
and --json form and the refusal of an exhaustive n = 5 run without
--long, the refusals of a --chunk of 0 on every route, of the
streaming options (--resume, --long, --jobs 2, --chunk) on a sampled run,
of --seed, --count and an unstreamed --chunk on exhaustive runs and
counts, and of --no-dedupe on a streamed run, `census
count --n 3` and `--n 4` in text and --json form, a sampled `census
count --n 5`, `catalog dump --cap 6` and `--cap 10` for every class
(cap 10 reaches the S_7..S_10 twists), `catalog twists` on T1-T8, P1-P5,
U1, S2 and S_3-S_8, the `scan` alias on four systems, `lattice build`, `dual` and `minor` on five regions, one of
them invalid, `stack classify` in text and --json form on the fixed
systems and four more (rank gaps (2, 2) and (3,), a twisted rank-2
matroid, an empty family), and `higgs classify` in text and --json form
on all of those and two more (S2, and a twist of a full Higgs lift that
is not one). Systems on 6 to 11 elements add `check --class delta` on
S_6, S_6*{e1,e2} and S_8 (whole-system witnesses), `check --class delta`
and `binary check` on a 9-element D(C) (scans that run to the end) and
on two 7-element systems whose minors on six or seven elements have a
target's shape (one isomorphic, one not), `stack classify` and
`higgs classify` on a sparse 11-element D(C) and on the same family with
one set flipped, and sampled n = 6 runs of 300 families: `census run`
for exdelta and exhiggs, and `census count`.  The empty family is
refused by `check` for the delta, even-delta-all, matroid and binary
classes, and --timestamps without --json by `census run` and `count`.
`higgs build` builds U(2,4) over itself with K = {0} and refuses two
index sets with an entry that is not an integer.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from dmkit.cli import main

CORPUS = json.loads(
    (Path(__file__).parent / "golden" / "cli_corpus.json").read_text(encoding="utf-8")
)


def _case_id(case: dict) -> str:
    prefix = f"{case['system']}:" if "system" in case else ""
    return prefix + " ".join(a for a in case["argv"] if a != "{system}")


@pytest.mark.parametrize("case", CORPUS["cases"], ids=_case_id)
def test_cli_output_matches_corpus(case, tmp_path):
    argv = list(case["argv"])
    if "system" in case:
        path = tmp_path / "system.json"
        path.write_text(CORPUS["systems"][case["system"]], encoding="utf-8")
        argv = [str(path) if a == "{system}" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, out.getvalue(), err.getvalue()) == (
        case["exit"], case["stdout"], case["stderr"]
    )
