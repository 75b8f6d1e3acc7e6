"""One workload, one fresh process: set up, measure, verify, report.

``run.py`` starts this once per run (traced and untraced runs never share a
process) and reads the JSON object printed as the last line of stdout.
``setup_s`` runs from ``--spawned-at`` — the parent's monotonic clock just
before it started this interpreter, so interpreter start-up and every
import are inside it — to the start of the timed region.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"


def spin_seconds(iterations: int = 2_000_000) -> float:
    """A fixed pure-python loop; normalises rows across boxes and kernels."""
    started = time.perf_counter()
    total = 0
    for index in range(iterations):
        total += index * index % 7
    return time.perf_counter() - started


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` (absent in an exported tree)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[len("ref: "):]
    return target.read_text().strip() if target.is_file() else "unknown"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from tracing import Tracer, median
    from workloads import WORKLOADS

    tracer = Tracer(args.workload) if args.traced else None
    workload = WORKLOADS[args.workload](args.seed, tracer)
    report: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.traced,
    }
    try:
        with workload.span("setup"):
            workload.setup()
        if tracer is not None:
            tracer.reset_counters()
        # Hold collector state fixed for the timed region: nothing allocated
        # during set-up is ever rescanned.
        gc.collect()
        gc.freeze()
        report["setup_s"] = time.monotonic() - args.spawned_at
        if not args.setup_only:
            with workload.span("run"):
                workload.measure(args.seconds)
            blocks = workload.blocks
            attempted, failed, problems = workload.verify()
            report.update(
                rounds=workload.rounds,
                blocks=[block._asdict() for block in blocks],
                timed_s=sum(block.wall_s for block in blocks),
                attempted=attempted,
                failed=failed,
                problems=problems,
                exact=workload.exact(),
                end_to_end={
                    "ops_per_cal": median([block.ops_per_cal for block in blocks]),
                    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                    "setup_s": report["setup_s"],
                },
                # The same rounds in host seconds: what a user of this box
                # saw, too unsteady on a shared box to bound.
                uncalibrated={
                    "ops_per_s": median([block.ops / block.wall_s for block in blocks]),
                    "cpu_us_per_op": median([block.cpu_s / block.ops * 1e6 for block in blocks]),
                    "cal_ms": median([block.cal_s * 1e3 for block in blocks]),
                },
                env={
                    "host.spin_s": spin_seconds(),
                    "nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "platform": platform.platform(),
                    "git_sha": git_sha(),
                    "seed": args.seed,
                },
            )
            if tracer is not None:
                report["per_layer"] = workload.layer_metrics()
                tracer.write(OUT / f"trace-{args.workload}.json", {"env": report["env"]})
    finally:
        workload.close()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
