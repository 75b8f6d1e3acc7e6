"""The repo's benchmark: four workloads, end-to-end and per-layer metrics.

Driver form (one workload, result as the last line of stdout)::

    python3 benchmarks/e2e/run.py --workload delphi-n160-aws --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every per-layer
metric.  Without ``--workload`` every workload runs in turn and a table is
printed instead (``--trace 1`` adds the per-layer rows).  Every measurement
happens in a fresh ``worker.py`` process; this file only starts them, takes
medians and compares.  See ``README.md`` beside this file for the glossary.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from declared import END_TO_END, PER_LAYER, RUN_SECONDS, workload_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3

#: All worker processes of one measurement share this many seconds; one that
#: is still running when they are spent is killed and the run fails.
TIME_LIMIT_S = 170


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def run_child(
    workload: str,
    seed: int,
    seconds: float,
    deadline: float,
    traced: bool = False,
    setup_only: bool = False,
) -> Dict[str, Any]:
    """Run ``worker.py`` once, to end before ``deadline`` on the monotonic
    clock, and return the report it prints last."""
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--spawned-at", repr(time.monotonic()),
    ]  # fmt: skip
    if traced:
        command.append("--traced")
    if setup_only:
        command.append("--setup-only")
    try:
        # subprocess.run kills and reaps the child on timeout.
        finished = subprocess.run(
            command,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as error:
        raise BenchmarkError(f"{workload}: no result within {TIME_LIMIT_S}s") from error
    if finished.returncode != 0:
        raise BenchmarkError(f"{workload}: worker exited with code {finished.returncode}")
    return json.loads(finished.stdout.strip().splitlines()[-1])


def measure_untraced(
    workload: str, seed: int, seconds: float, deadline: float, setups: int = SETUPS
) -> Dict[str, Any]:
    """One measured run; ``setup_s`` is the median over ``setups`` set-ups
    (the others are set-up-only processes that stop before the timed region)."""
    setup_times = [
        run_child(workload, seed, seconds, deadline, setup_only=True)["setup_s"]
        for _ in range(setups - 1)
    ]
    report = run_child(workload, seed, seconds, deadline)
    setup_times.append(report["setup_s"])
    report["setup_samples_s"] = setup_times
    report["end_to_end"]["setup_s"] = sorted(setup_times)[len(setup_times) // 2]
    return report


def merge_traced(report: Dict[str, Any], untraced: Dict[str, Any]) -> Dict[str, Any]:
    """Check and cost a traced run's report against an untraced one, and
    fill in every declared per-layer metric (0 for a layer not entered)."""
    if report["exact"] != untraced["exact"]:
        report["problems"].append("traced run differs from the untraced run")
    unknown = set(report["per_layer"]) - {name for name, _unit, _better in PER_LAYER}
    if unknown:
        raise BenchmarkError(f"undeclared per-layer metrics {sorted(unknown)}")
    slow, fast = report["end_to_end"]["ops_per_cal"], untraced["end_to_end"]["ops_per_cal"]
    report["per_layer"] = {
        **{name: 0.0 for name, _unit, _better in PER_LAYER},
        **report["per_layer"],
        "sim.trace_overhead_pct": (fast / slow - 1.0) * 100.0,
        "host.ops_per_s": untraced["uncalibrated"]["ops_per_s"],
        "host.cpu_us_per_op": untraced["uncalibrated"]["cpu_us_per_op"],
        "host.cal_ms": untraced["uncalibrated"]["cal_ms"],
        "host.spin_s": report["env"]["host.spin_s"],
        "host.nproc": report["env"]["nproc"],
    }
    return report


def result_line(report: Dict[str, Any], traced: bool) -> Dict[str, Any]:
    """The driver's result object for one run."""
    units = {name: unit for name, unit, *_rest in (PER_LAYER if traced else END_TO_END)}
    values = report["per_layer" if traced else "end_to_end"]
    return {
        "correct": report["failed"] == 0 and not report["problems"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def save(report: Dict[str, Any]) -> None:
    """Keep the full report (environment stamp included) beside the traces."""
    OUT.mkdir(parents=True, exist_ok=True)
    suffix = "-traced" if report["traced"] else ""
    path = OUT / f"result-{report['workload']}{suffix}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    stamp = {**report["uncalibrated"], **report["env"]}
    print(f"[e2e] {report['workload']}{suffix}: {report['rounds']} rounds, "
          f"{report['timed_s']:.1f}s timed; "
          + ", ".join(f"{key}={value}" for key, value in sorted(stamp.items())),
          file=sys.stderr)  # fmt: skip
    for problem in report["problems"]:
        print(f"[e2e] {report['workload']}{suffix}: FAILED GATE: {problem}", file=sys.stderr)


def run_one(workload: str, seed: int, seconds: float, traced: bool) -> int:
    deadline = time.monotonic() + TIME_LIMIT_S
    if traced:
        untraced = measure_untraced(workload, seed, seconds, deadline, setups=1)
        report = merge_traced(
            run_child(workload, seed, seconds, deadline, traced=True), untraced
        )
    else:
        report = measure_untraced(workload, seed, seconds, deadline)
    save(report)
    line = result_line(report, traced)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Every workload in turn, as a table a person can read."""
    status = 0
    bounds = {name: (better, bound) for name, _unit, better, bound in END_TO_END}
    for workload in workload_names():
        deadline = time.monotonic() + TIME_LIMIT_S
        reports = [measure_untraced(workload, seed, seconds, deadline)]
        if traced:
            traced_report = run_child(workload, seed, seconds, deadline, traced=True)
            reports.append(merge_traced(traced_report, reports[0]))
        for report in reports:
            save(report)
            line = result_line(report, report["traced"])
            status |= 0 if line["correct"] else 1
            print(f"{workload}{' (traced)' if report['traced'] else ''}: "
                  f"correct={line['correct']} attempted={line['attempted']} "
                  f"failed={line['failed']}")  # fmt: skip
            for name, metric in line["metrics"].items():
                better, bound = bounds.get(name, ("", None))
                note = f"  better={better} bound={bound:.0%}" if bound is not None else ""
                print(f"  {name:34s} {metric['value']:>16.6f} {metric['unit']}{note}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workload_names())
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    traced = bool(args.trace)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found: nothing to measure", file=sys.stderr)
        return 2
    try:
        if args.workload:
            return run_one(args.workload, args.seed, args.seconds, traced)
        return run_all(args.seed, args.seconds, traced)
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
