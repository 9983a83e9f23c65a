"""Benchmark smoke test: ``python3 tools/bench_smoke.py``.

Runs every perfbench workload for SECONDS = 2 s at seed 1, untraced and
traced, and checks the last JSON line and the report of each run: every
output matches its oracle, and every failure key is a known one.
qudit-check may fail only with the N >= 8 positivity defect on its
unphysical inputs (ArithmeticError at N = 8 and N = 11); pair-chain and
cli-datasets may not fail at all.  Prints one line per run and exits 1 at
the first run that breaks a rule.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 2
WORKLOADS = ("qudit-check", "pair-chain", "cli-datasets")
KNOWN_FAILURES = {
    "qudit-check": {"ArithmeticError at N=8 (unphysical)", "ArithmeticError at N=11 (unphysical)"},
}


def problems(w: str, trace: int, output: str) -> tuple[str, list[str]]:
    """The run's summary line, and the rules it breaks."""
    lines = output.splitlines()
    r = json.loads(lines[-1])
    report = json.loads(next(l for l in lines if l.startswith("report "))[len("report "):])
    keys = set()
    for part in ("run", "traced", "untraced"):
        keys.update(report.get(part, {}).get("failures", {}))
    known = KNOWN_FAILURES.get(w, set())
    failed = r["failed"]
    bad = []
    if not r["correct"]:
        bad.append(f"{w} (trace {trace}): an output differs from its oracle")
    if not keys <= known:
        bad.append(f"{w} (trace {trace}): unexpected failures {sorted(keys - known)}")
    if w != "qudit-check" and failed:
        bad.append(f"{w} (trace {trace}): {failed} failed operations")
    summary = f"{w} trace {trace} ok: {r['attempted']} operations, {failed} failed: {sorted(keys)}"
    return summary, bad


def main() -> int:
    for trace in (0, 1):
        for w in WORKLOADS:
            run = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", w, "--seed", "1",
                 "--seconds", str(SECONDS), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
            )
            summary, bad = problems(w, trace, run.stdout)
            if bad:
                print("\n".join(f"bench_smoke: {b}" for b in bad), file=sys.stderr)
                return 1
            print(summary, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
