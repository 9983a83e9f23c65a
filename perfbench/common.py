"""Shared helpers: paths, child processes, percentiles, strict JSON, provenance."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"

# One closed-loop client on a 2-CPU machine: BLAS gets one thread so that it
# neither competes with the client nor adds thread hand-off jitter.
BLAS_THREADS = 1
BLAS_ENV = {var: str(BLAS_THREADS)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
TAIL_MIN_BEYOND = 10


class BenchError(RuntimeError):
    """The benchmark itself could not run (missing sources, crashed worker)."""


def require_sources() -> None:
    if not (SRC / "quditkit" / "__init__.py").is_file():
        raise BenchError(f"quditkit sources not found under {SRC}")


def child_env() -> dict:
    return {**os.environ, **BLAS_ENV, "PYTHONPATH": str(SRC)}


def check_imported_from_checkout(module) -> None:
    """Refuse to measure a quditkit that was not imported from this checkout."""
    path = Path(module.__file__).resolve()
    if SRC.resolve() not in path.parents:
        raise BenchError(f"quditkit imported from {path}, expected under {SRC}")


class Children:
    """The child processes a run has started and not yet reaped.

    ``kill_all`` ends and reaps them when a run is abandoned, so no child
    outlives the benchmark.
    """

    def __init__(self) -> None:
        self.live: set[subprocess.Popen] = set()

    def start(self, argv: list[str], **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen(argv, env=child_env(), **kwargs)
        self.live.add(proc)
        return proc

    def reaped(self, proc: subprocess.Popen) -> None:
        self.live.discard(proc)

    def kill_all(self) -> None:
        for proc in self.live:
            proc.kill()
            proc.wait()
        self.live.clear()


def run_child(children: Children, argv: list[str], cwd: Path, stdout_path: Path,
              stderr_path: Path):
    """Run one child to completion; returns (exit code, wall s, CPU s, peak RSS MB).

    CPU time (user + system) and peak RSS come from this child's own rusage
    (wait4), so each child is measured on its own.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = children.start(argv, cwd=cwd, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    children.reaped(proc)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """Highest percentile (capped at 99) with at least ten samples beyond it.

    Nearest-rank: returns (value, percentile).  With n >= 1000 samples this
    is p99; with fewer it drops to (n - 10) / n; below 11 samples it is the
    maximum, reported as percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_MIN_BEYOND:
        return xs[-1], 100.0
    pct = min(0.99, (n - TAIL_MIN_BEYOND) / n)
    rank = min(n - TAIL_MIN_BEYOND, math.ceil(pct * n))
    return xs[rank - 1], round(100.0 * pct, 3)


def latency_metrics(latencies_s: list[float], ok: int) -> dict:
    """ops_per_s over the summed op time, median and tail latency in ms."""
    tail, pct = tail_percentile(latencies_s)
    return {
        "ops_per_s": ok / sum(latencies_s),
        "op_p50_ms": 1e3 * statistics.median(latencies_s),
        "op_p99_ms": 1e3 * tail,
        "op_p99_percentile": pct,
        "samples": len(latencies_s),
    }


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON constant {token}")


def strict_json_loads(text: str | bytes):
    """json.loads that rejects NaN, Infinity and -Infinity tokens."""
    return json.loads(text, parse_constant=_reject_constant)


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "quditkit").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def blas_info() -> dict:
    """BLAS name and version from numpy's build config, live thread count."""
    import numpy as np

    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "lib*openblas*.so*"))):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                info["threads"] = int(fn())
                return info
    return info


def provenance(seed: int, blas: dict) -> dict:
    import numpy as np

    version = None
    init = (SRC / "quditkit" / "__init__.py").read_text()
    for line in init.splitlines():
        if line.startswith("__version__"):
            version = line.split("=", 1)[1].strip().strip("\"'")
    return {
        "quditkit_version": version,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "numpy_version": np.__version__,
        "blas": blas,
        "python_version": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "seed": seed,
    }

