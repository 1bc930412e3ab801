"""One fresh interpreter of the benchmark: a set-up measurement or a run.

    python3 perfbench/worker.py setup --workload W
    python3 perfbench/worker.py run --workload W --seed N --seconds S [--trace]

run.py starts it from the root of a checkout with ``src`` on PYTHONPATH,
one process at a time.  ``setup`` times the import of dmkit and the build
of the workload's static tables with perf_counter, brackets that interval
with two calibration samples (see calibrate.py), prints both as one JSON
line and exits; interpreter start and the benchmark's own imports lie
outside the timed interval.  ``run`` does the same import and set-up, runs
the workload's job, checks it, and prints the result as one JSON line.
With --trace the layers are wrapped before set-up and the spans are
written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
OUT = Path("perfbench") / "out"


def _import_dmkit() -> float:
    """Import the CLI (and with it every layer); returns the seconds taken."""
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import dmkit.cli  # noqa: F401

    seconds = time.perf_counter() - t0
    import dmkit

    if Path(dmkit.__file__).resolve().parent != ROOT / "src" / "dmkit":
        raise SystemExit(f"dmkit imported from {dmkit.__file__}, not this checkout")
    return seconds


def build_tables(workload: str) -> None:
    """Build the workload's static tables: canonical index tables,
    excluded-minor lists and region profiles."""
    from dmkit import catalog, census, latticepath
    from dmkit.catalog import ExminorClassId

    if workload == "census-n5":
        for cid in (ExminorClassId.DELTA_MATROID, ExminorClassId.HIGGS_LIFT,
                    ExminorClassId.MATROID_STACK):
            catalog.excluded_minor_set(cid, 5)
    elif workload == "census-n4":
        census._canonical_index_table(3)
        census._canonical_index_table(4)
        for cid in ExminorClassId:
            catalog.excluded_minor_set(cid, 4)
    elif workload == "constructions":
        for _ in latticepath.iter_regions(7):
            pass
    elif workload == "verdicts":
        for cap in (5, 6, 7):
            for cid in (ExminorClassId.DELTA_MATROID, ExminorClassId.BINARY,
                        ExminorClassId.HIGGS_LIFT, ExminorClassId.FULL_HIGGS,
                        ExminorClassId.EVEN_DELTA_WITHIN_EVEN):
                catalog.excluded_minor_set(cid, cap)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=["setup", "run"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    if args.mode == "setup":
        before = calibrate.seconds()
        t0 = time.perf_counter()
        _import_dmkit()
        build_tables(args.workload)
        setup_s = time.perf_counter() - t0
        print(json.dumps({"setup_s": setup_s, "speed": [before, calibrate.seconds()]}))
        return 0

    import_s = _import_dmkit()
    import tracer as tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    build_tables(args.workload)
    workdir = OUT / f"{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    job = workloads.JOBS[args.workload]
    result = job(args.seed, args.seconds / 10.0, workdir, tracer)
    doc = {
        "attempted": result.attempted,
        "failed": result.failed,
        "failures": result.failures,
        "round_rates": result.round_rates,
        "round_speed": result.round_speed,
        "speed": result.speed,
        "job_s": result.job_s,
        "import_s": import_s,
        "latencies": result.latencies,
        "detail": result.detail,
        "cold_queries": result.cold_queries,
        "peak_rss_mb": result.peak_rss_mb,
        "workdir": str(workdir),
    }
    if tracer is not None:
        dump = OUT / f"spans-{args.workload}-{args.seed}.tsv.gz"
        doc["spans"] = tracer.dump(dump)
        doc["spans_file"] = str(dump)
        doc["layers"] = tracing.layer_metrics(tracer)
        doc["table"] = tracing.self_time_table(tracer)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
