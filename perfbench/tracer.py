"""Span recorder installed from outside quditkit, around its public functions.

Each wrapped function is replaced under every module attribute that refers
to it (``bipartite`` imports ``cached_tensors`` by name, ``cli`` reaches
``qutrit.region_scan`` through the module), so callers inside the package
are traced as well.  Wrappers return the original result or re-raise the
original exception; they never change what the package computes.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc

# Public functions whose self time is reported, as "module.function".
TRACED = (
    "basis.compute_tensors",
    "basis.generate_basis",
    "sympoly.positivity_check",
    "sympoly.power_sums",
    "sympoly.elementary_from_power",
    "qudit.from_bloch",
    "qudit.to_bloch",
    "qudit.invariants",
    "qudit.purity_residuals",
    "qudit.entropy",
    "qutrit.region_scan",
    "qutrit.region_to_csv",
    "qutrit.boundaries_to_csv",
    "bipartite.from_components",
    "bipartite.to_components",
    "bipartite.purity_residuals_qudit",
    "bipartite.trace_identity_residual",
    "bipartite.reduced_states",
    "bipartite.purity_residuals_qubit",
    "bipartite.z_matrix",
    "bipartite.mixed_positivity_qubit",
    "bipartite.werner_consistency",
    "bipartite.werner_positivity_scan",
    "su4.components_to_ququart",
    "su4.ququart_to_components",
    "cli.main",
)
SETUP_OP = -1


class Tracer:
    """In-memory spans plus per-name self time, calls and failures."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []   # (name, start, end, parent index, op id)
        self.op = SETUP_OP
        self.stats = {name: {"self_s": 0.0, "calls": 0, "failed": 0} for name in TRACED}
        self.peak_mb = 0.0            # tracemalloc peak inside compute_tensors
        self.csv_bytes = 0            # characters returned by region_to_csv
        self._stack: list[list] = []  # [span index, start, child time]
        self._patched: list[tuple] = []

    def _call(self, name, fn, args, kwargs):
        measure_memory = name == "basis.compute_tensors" and not tracemalloc.is_tracing()
        if measure_memory:
            tracemalloc.start()
        parent = self._stack[-1][0] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        frame = [index, time.perf_counter(), 0.0]
        self._stack.append(frame)
        failed = False
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            failed = True
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - frame[1]
            entry = self.stats[name]
            entry["self_s"] += duration - frame[2]
            entry["calls"] += 1
            entry["failed"] += failed
            if self._stack:
                self._stack[-1][2] += duration
            self.spans[index] = (name, frame[1], end, parent, self.op)
            if measure_memory:
                self.peak_mb = max(self.peak_mb, tracemalloc.get_traced_memory()[1] / 2**20)
                tracemalloc.stop()
        if name == "qutrit.region_to_csv":
            self.csv_bytes += len(result)
        return result

    def install(self) -> None:
        """Wrap every TRACED function that is loaded, under all its names."""
        modules = [m for k, m in sys.modules.items() if k == "quditkit" or k.startswith("quditkit.")]
        for name in TRACED:
            mod_name, attr = name.split(".")
            home = sys.modules.get(f"quditkit.{mod_name}")
            if home is None:
                continue
            original = getattr(home, attr)
            wrapper = self._wrapper(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def _wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        return wrapper

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def first_calls_s(self, name: str) -> float:
        """Summed duration of the set-up phase calls to ``name``."""
        return sum(e - s for n, s, e, _, op in self.spans if n == name and op == SETUP_OP)


def write_spans(path, spans) -> None:
    """One JSON object per span: name, start, end, parent index, op id."""
    with open(path, "w") as fh:
        for name, start, end, parent, op in spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "op": op}) + "\n")


def layer_metrics(stats: dict, *, peak_mb: float, csv_bytes: int, cache: tuple[int, int],
                  first_call_s: float, output_bytes: int, wall_s: float,
                  traced: dict, untraced: dict) -> dict:
    """Per-layer metric values; self times plus bench.unattributed_s add up to wall_s.

    ``traced`` and ``untraced`` are the summaries of the same ops run with
    and without the wrappers; their difference is the tracing overhead.
    """
    out = {}
    for name in TRACED:
        out[f"{name}.self_s"] = stats[name]["self_s"]
        out[f"{name}.calls"] = stats[name]["calls"]
    hits, misses = cache
    out["basis.compute_tensors.peak_mb"] = peak_mb
    out["basis.cached_tensors.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["sympoly.positivity_check.failed"] = stats["sympoly.positivity_check"]["failed"]
    out["qutrit.region_to_csv.bytes"] = csv_bytes
    out["bipartite.to_components.first_call_s"] = first_call_s
    out["cli.output_bytes"] = output_bytes
    out["bench.wall_s"] = wall_s
    out["bench.unattributed_s"] = wall_s - sum(s["self_s"] for s in stats.values())
    for key in ("ops_per_s", "op_p50_ms", "op_p99_ms"):
        out[f"bench.trace_overhead.{key}"] = traced[key] - untraced[key]
    out["bench.traced_ops"] = traced["attempted"]
    out["bench.fail_ratio"] = traced["failed"] / traced["attempted"]
    return out
