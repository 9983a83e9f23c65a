"""quditkit benchmark: ``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1``.

Runs one workload from the repository root, checks every output against
the oracles, prints a metric table and a JSON report, and ends with one
JSON line: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones from
a traced run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import signal
import sys

import common

WORKLOADS = ("qudit-check", "pair-chain", "cli-datasets")
# A run must end within 180 s; a program that hangs is stopped before that.
TIME_LIMIT_S = 170
# Shown in the table only; BENCHMARK.json declares the result-line units.
EXTRA_UNITS = {"fail_ratio": "1", "region_csv_s": "s", "werner_s": "s"}


def declared_units(trace: int) -> dict:
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _timed_out(signum, frame):
    raise common.BenchError(f"run exceeded {TIME_LIMIT_S} s")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Before numpy loads here or in any child.
    os.environ.update(common.BLAS_ENV)
    import cli_datasets
    import inproc

    children = common.Children()
    signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(TIME_LIMIT_S)
    try:
        common.require_sources()
        units = declared_units(args.trace)
        if args.workload == "cli-datasets":
            drive = functools.partial(cli_datasets.drive, children)
        else:
            drive = functools.partial(inproc.drive, children, args.workload)
        correct, run, metrics, report = drive(args.seed, args.seconds, bool(args.trace))
        if set(metrics) != set(units):
            raise common.BenchError(f"metrics differ from BENCHMARK.json: {set(metrics) ^ set(units)}")
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)
        children.kill_all()

    blas = report.get("blas") or common.blas_info()
    report["provenance"] = common.provenance(args.seed, blas)
    report["provenance"]["blas_threads_requested"] = common.BLAS_THREADS
    report["workload"], report["trace"], report["correct"] = args.workload, args.trace, correct
    report["op_p99_percentile"] = run["op_p99_percentile"]
    report["samples"] = run["samples"]

    if not args.trace:
        shown = dict(metrics, fail_ratio=run["failed"] / run["attempted"])
        for key in ("region_csv_s", "werner_s"):
            if key in report:
                shown[key] = report[key]
        print(f"{args.workload} seed={args.seed} ops={run['attempted']} failed={run['failed']} "
              f"tail=p{run['op_p99_percentile']:g} of {run['samples']} samples")
        for key, value in shown.items():
            print(f"  {key:<14} {value:>14.6g} {units.get(key) or EXTRA_UNITS[key]}")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
