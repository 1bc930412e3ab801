"""The dmkit benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # the four workloads in turn

Run from the root of a checkout; dmkit is imported from its ``src``.  Load
comes from this one process: every measurement runs in a fresh child
interpreter (perfbench/worker.py, or ``python -m dmkit.cli``), started one
at a time, so caches start as a user's run finds them.

With --trace 0 the run prints every end-to-end metric of BENCHMARK.json:

* setup_s: median, over SETUP_RUNS fresh interpreters, of the time each
  takes to import dmkit and build the workload's static tables (timed
  inside the interpreter: interpreter start and the benchmark's own
  imports are left out);
* peak_rss_mb: peak resident memory of the run's interpreter;
* items_per_s: the workload's items per second of timed work (families for
  the census workloads, constructions, CLI verdicts);
* verdict_p50_ms / verdict_p99_ms: latency of one verdict (one family's
  census row, one quotient-pair construction, one CLI query), median and
  nearest-rank p99 of at least 1000 samples;
* cli_cold_ms: median time of fresh ``python -m dmkit.cli`` processes
  answering one of the workload's queries.

Every timed metric is reported at a reference machine speed (see
calibrate.py), because the CPU speed of a shared VM drifts by more than
the bounds, within a run as well as between runs: the measuring
interpreter times a fixed calibration task between its rounds, and each
round's rate is scaled by the samples on either side of it, the
latencies by the run's median sample; each set-up interpreter times the
task just before and just after its set-up; and each cold CLI process is
followed by a fresh calibration interpreter.  The detail line gives the
run's median scale factor and, under "raw", the same metrics unscaled;
its other figures are raw.

With --trace 1 it runs the job once untraced and once traced, prints every
per-layer metric, writes the span dump and a report with the self-time
table under perfbench/out/, and reports the tracing overhead: the median
over rounds of the traced round's time over the untraced one's, minus
one (see tracing_share), times the untraced job time.

Every output is checked against a reference (see workloads.py).  The last
line of stdout is one JSON object with keys correct, attempted, failed and
metrics; the exit code is 1 when any check failed and 2 when the checkout
has no dmkit sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("census-n5", "census-n4", "constructions", "verdicts")
SETUP_RUNS = 11
DEADLINE_S = 170.0


class Budget:
    """Wall-clock budget shared by the child processes of one run."""

    def __init__(self, seconds: float) -> None:
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return max(1.0, self.end - time.monotonic())


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], budget: Budget) -> tuple[int, str, str, float]:
    """Run one child to completion: (exit code, stdout, stderr, seconds).

    subprocess.run kills and reaps the child if the budget runs out."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True, text=True,
                              timeout=budget.left())
    except subprocess.TimeoutExpired:
        return -1, "", f"timed out: {' '.join(argv)}", time.perf_counter() - t0
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - t0


def worker(args, budget: Budget, trace: bool = False) -> dict:
    """The result of one ``worker.py run`` interpreter."""
    argv = [sys.executable, str(HERE / "worker.py"), "run", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if trace:
        argv.append("--trace")
    rc, out, err, _ = spawn(argv, budget)
    if rc != 0:
        raise RuntimeError(f"worker run exited {rc}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q of the
    samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def spawn_factor(budget: Budget) -> float:
    """Scale factor for one process start-up time: SPAWN_REFERENCE_S over the
    wall time of a fresh calibration interpreter started right after it."""
    return calibrate.SPAWN_REFERENCE_S / spawn([sys.executable, str(HERE / "calibrate.py")],
                                               budget)[3]


def cold_cli(queries: list[dict], budget: Budget) -> tuple[float, float, list[str]]:
    """Median ms of fresh CLI processes at the reference speed, each scaled
    by the calibration interpreter started right after it; the raw median;
    and the queries whose exit code or stdout differ from the in-process
    run."""
    times, raw, bad = [], [], []
    for q in queries:
        rc, out, _, seconds = spawn([sys.executable, "-m", "dmkit.cli", *q["argv"]], budget)
        times.append(seconds * spawn_factor(budget) * 1000.0)
        raw.append(seconds * 1000.0)
        if rc != q["rc"] or out != q["stdout"]:
            bad.append(f"cold CLI {' '.join(q['argv'])}: exit {rc}, output differs")
    return statistics.median(times), statistics.median(raw), bad


def setup_seconds(args, budget: Budget) -> tuple[float, float]:
    """Median set-up time of SETUP_RUNS interpreters at the reference speed,
    each scaled by its own two calibration samples, and the raw median."""
    scaled, raw = [], []
    for _ in range(SETUP_RUNS):
        rc, out, err, _ = spawn([sys.executable, str(HERE / "worker.py"), "setup",
                                 "--workload", args.workload], budget)
        if rc != 0:
            raise RuntimeError(f"worker setup exited {rc}: {err.strip()[-2000:]}")
        doc = json.loads(out.strip().splitlines()[-1])
        raw.append(doc["setup_s"])
        scaled.append(doc["setup_s"] * calibrate.REFERENCE_S / statistics.mean(doc["speed"]))
    return statistics.median(scaled), statistics.median(raw)


def reference_job_s(run: dict) -> float:
    """A run's job time (calibration samples excluded) at the reference speed."""
    return run["job_s"] * calibrate.REFERENCE_S / statistics.median(run["speed"])


def tracing_share(plain: dict, traced: dict) -> float:
    """Median, over rounds, of a traced round's time over the untraced
    round's, minus one.  The two runs have the same inputs round by round,
    and each round's time is at the reference speed of the calibration
    samples on either side of it, so the host's drift between and within
    the runs cancels."""
    return statistics.median(
        p * cp / (t * ct)
        for p, cp, t, ct in zip(plain["round_rates"], plain["round_speed"],
                                traced["round_rates"], traced["round_speed"], strict=True)
    ) - 1.0


def measure(args, budget: Budget) -> tuple[dict, int, int, list[str], dict]:
    """--trace 0: (metrics, attempted, failed, failures, detail)."""
    setup_s, raw_setup_s = setup_seconds(args, budget)
    run = worker(args, budget)
    cold_ms, raw_cold_ms, cold_bad = cold_cli(run["cold_queries"], budget)
    shutil.rmtree(ROOT / run["workdir"], ignore_errors=True)
    k = calibrate.REFERENCE_S / statistics.median(run["speed"])
    rates = [rate * c / calibrate.REFERENCE_S
             for rate, c in zip(run["round_rates"], run["round_speed"], strict=True)]
    lat = [x * k for x in run["latencies"]]
    p99 = percentile(lat, 0.99)
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": run["peak_rss_mb"],
        "items_per_s": statistics.median(rates),
        "verdict_p50_ms": statistics.median(lat) * 1000.0,
        "verdict_p99_ms": p99 * 1000.0,
        "cli_cold_ms": cold_ms,
    }
    attempted = run["attempted"] + len(run["cold_queries"])
    failed = run["failed"] + len(cold_bad)
    detail = dict(run["detail"])
    detail.update({
        "error_rate": failed / attempted,
        "verdict_samples": len(lat),
        "verdicts_beyond_p99": sum(1 for x in lat if x > p99),
        "job_s": run["job_s"],
        "rounds": len(rates),
        "speed_factor": k,
        "cold_cli_runs": len(run["cold_queries"]),
        "setup_runs": SETUP_RUNS,
        "src_lines": src_lines(),
        "raw": {
            "setup_s": raw_setup_s,
            "items_per_s": statistics.median(run["round_rates"]),
            "verdict_p50_ms": statistics.median(run["latencies"]) * 1000.0,
            "verdict_p99_ms": percentile(run["latencies"], 0.99) * 1000.0,
            "cli_cold_ms": raw_cold_ms,
        },
    })
    return metrics, attempted, failed, run["failures"] + cold_bad, detail


def measure_traced(args, budget: Budget) -> tuple[dict, int, int, list[str], dict]:
    """--trace 1: per-layer metrics from a traced run of the same job."""
    plain = worker(args, budget)
    traced = worker(args, budget, trace=True)
    shutil.rmtree(ROOT / traced["workdir"], ignore_errors=True)
    plain_s, traced_s = reference_job_s(plain), reference_job_s(traced)
    share = tracing_share(plain, traced)
    overhead = share * plain_s
    layers = dict(traced["layers"])
    layers["cli.import_s"] = traced["import_s"]
    layers["trace.overhead_s"] = overhead
    layers["trace.spans"] = traced["spans"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "untraced_job_s": plain_s,
        "traced_job_s": traced_s,
        "raw_untraced_job_s": plain["job_s"],
        "raw_traced_job_s": traced["job_s"],
        "overhead_share": share,
        "overhead_s": overhead,
        "spans": traced["spans"],
        "spans_file": traced["spans_file"],
        "self_time": [
            {"span": name, "calls": calls, "total_s": total, "self_s": own}
            for name, calls, total, own in traced["table"]
        ],
        "layers": layers,
    }
    path = HERE / "out" / f"trace-{args.workload}-{args.seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    detail = {"report": str(path.relative_to(ROOT)), "table": traced["table"],
              "share": share, "untraced_job_s": plain_s, "traced_job_s": traced_s}
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    return layers, attempted, failed, plain["failures"] + traced["failures"], detail


def src_lines() -> int:
    """Lines of Python under src/ (informational; not a gated metric)."""
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in (ROOT / "src").rglob("*.py"))


def run_one(args, spec: list[dict]) -> dict:
    budget = Budget(DEADLINE_S)
    try:
        if args.trace:
            measured, attempted, failed, failures, detail = measure_traced(args, budget)
        else:
            measured, attempted, failed, failures, detail = measure(args, budget)
    except (RuntimeError, json.JSONDecodeError, KeyError, ZeroDivisionError) as exc:
        print(f"{args.workload}: run failed: {exc}", file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    missing = [m["name"] for m in spec if m["name"] not in measured]
    if missing:
        print(f"{args.workload}: metrics not measured: {missing}", file=sys.stderr)
        return {"correct": False, "attempted": attempted, "failed": max(1, failed), "metrics": {}}
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in spec}

    print(f"{args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}: "
          f"{attempted} checks, {failed} failed")
    for failure in failures:
        print(f"  FAILED {failure}")
    if args.trace:
        print(f"  tracing overhead {measured['trace.overhead_s']:.3f} s, "
              f"{detail['share']:.1%} of the untraced job (jobs at the reference speed: "
              f"{detail['untraced_job_s']:.3f} s untraced, {detail['traced_job_s']:.3f} s "
              f"traced); report {detail['report']}")
        print(f"  {'span':<34}{'calls':>10}{'total_s':>10}{'self_s':>10}")
        for name, calls, total, own in detail["table"]:
            print(f"  {name:<34}{calls:>10}{total:>10.3f}{own:>10.3f}")
    else:
        for name, m in metrics.items():
            print(f"  {name:<16}{m['value']:>14.4f} {m['unit']}")
        print("  detail " + json.dumps(detail, sort_keys=True))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dmkit" / "__init__.py").is_file():
        print(f"no dmkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec = bench["per_layer"] if args.trace else bench["end_to_end"]

    if args.workload != "all":
        result = run_one(args, spec)
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = run_one(argparse.Namespace(**{**vars(args), "workload": workload}), spec)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
