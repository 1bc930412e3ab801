"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Run from the root of a checkout; takes about a minute.  It

* runs every workload through run.py at a tiny size (--seconds 1) and
  asserts that the last line carries every end-to-end metric of
  BENCHMARK.json with its unit, a positive value and no failed check;
* runs one traced workload and asserts the same for every per-layer metric;
* corrupts one recorded expected value at a time (an n = 4 census total,
  the region count) and asserts that the error rate rises above 0;
* runs run.py in a directory holding only BENCHMARK.json and perfbench/
  and asserts that it exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(root: Path, *args: str) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.strip().splitlines()


def check_result(lines: list[str], spec: list[dict], what: str) -> None:
    doc = json.loads(lines[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}, what
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1, (what, doc)
    assert set(doc["metrics"]) == {m["name"] for m in spec}, what
    for m in spec:
        got = doc["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (what, m["name"], got)
        assert isinstance(got["value"], (int, float)), (what, m["name"], got)
        if "bound" in m:
            assert got["value"] > 0, (what, m["name"], got)


def tiny_runs() -> None:
    for workload in [w["name"] for w in BENCH["workloads"]]:
        rc, lines = run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                        "--trace", "0")
        assert rc == 0, (workload, lines[-5:])
        check_result(lines, BENCH["end_to_end"], workload)
        print(f"ok   {workload}: every end-to-end metric printed with its unit")
    rc, lines = run(ROOT, "--workload", "constructions", "--seed", "7", "--seconds", "1",
                    "--trace", "1")
    assert rc == 0, lines[-5:]
    check_result(lines, BENCH["per_layer"], "traced constructions")
    print("ok   traced constructions: every per-layer metric printed with its unit")


def corrupted_references() -> None:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workdir = HERE / "out" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    checked, ambient, direct, exminor = workloads.N4_TOTALS["exdelta"]
    workloads.N4_TOTALS["exdelta"] = (checked, ambient, direct + 1, exminor)
    res = workloads.census_n4(7, 0.01, workdir, theorems=("exdelta",))
    assert res.failed > 0 and res.failed / res.attempted > 0, res.failures
    workloads.N4_TOTALS["exdelta"] = (checked, ambient, direct, exminor)
    print(f"ok   corrupted n = 4 total: error_rate {res.failed / res.attempted:.3f} > 0")

    workloads.REGION_COUNTS[4] += 1
    res = workloads.constructions(7, 0.01, workdir)
    assert res.failed > 0, res.failures
    workloads.REGION_COUNTS[4] -= 1
    print(f"ok   corrupted region count: error_rate {res.failed / res.attempted:.5f} > 0")


def bare_directory() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench" / path.name)
    rc, lines = run(bare, "--workload", "census-n5", "--seed", "1", "--seconds", "10",
                    "--trace", "0")
    shutil.rmtree(bare)
    assert rc != 0 and not any(line.startswith("{") for line in lines), (rc, lines)
    print(f"ok   without src/: exit {rc}, no result printed")


def main() -> int:
    tiny_runs()
    corrupted_references()
    bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
