"""cli-datasets: a fixed script of CLI invocations, each in a fresh interpreter.

Untraced runs start ``python -m quditkit.cli ARGV``; traced runs start
``perfbench/cli_child.py``, which calls ``quditkit.cli.main(ARGV)`` with
the span wrappers installed.  Either way every cache starts cold.  Outputs
are checked against the oracles and hashed: the same command line and seed
must give the same bytes on every pass.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import statistics
import sys

import numpy as np

import common
import oracles
from tracer import TRACED, layer_metrics, write_spans

SETUP_RUNS = 9
# Nominal length of one pass of the script; a run makes ceil(seconds / this)
# passes, so a given --seconds always gives the same sample count and the
# same tail percentile.
PASS_SECONDS = 7.5
REGION_RESOLUTION = 1024
WERNER_STEPS = 101


def script(seed: int) -> list[tuple[str, list[str]]]:
    return [
        ("qutrit-region", ["qutrit-region", "--resolution", str(REGION_RESOLUTION),
                           "--output", "region.csv"]),
        ("werner-5", ["werner", "--N", "5"]),
        ("werner-3-csv", ["werner", "--N", "3", "--format", "csv"]),
        ("check-3", ["check", "state3.json"]),
        ("check-11", ["check", "state11.json"]),
        ("entropy-8", ["entropy", "state8.json"]),
        ("tensors-9", ["tensors", "--N", "9"]),
        ("random-5", ["random", "--N", "5", "--count", "200", "--seed", str(seed)]),
        ("convert", ["convert", "pair.json"]),
        ("verify-su4", ["verify-su4"]),
    ]


def write_inputs(workdir, seed: int, sampling) -> dict:
    """State files for check, entropy and convert; returns their matrices."""
    rng = np.random.default_rng([seed, 2])
    inputs = {}
    for name, N in (("state3", 3), ("state11", 11), ("state8", 8)):
        P = oracles.bloch_of(sampling.random_density_matrix(N, rng))
        (workdir / f"{name}.json").write_text(json.dumps({"N": N, "bloch": P.tolist()}))
        inputs[name] = oracles.rho_of(P, N)
    rho4 = sampling.random_density_matrix(4, rng)
    x, y, w = oracles.components_of(rho4, 2)
    (workdir / "pair.json").write_text(
        json.dumps({"N": 2, "x": x.tolist(), "y": y.tolist(), "omega": w.tolist()}))
    inputs["pair"] = oracles.rho_of(oracles.bloch_of(rho4), 4)
    return inputs


# ---------------------------------------------------------------------------
# oracles, one per script entry; each returns a list of mismatches
# ---------------------------------------------------------------------------

def _werner_rows(N: int, rows) -> list[str]:
    if len(rows) != WERNER_STEPS:
        return [f"werner scan has {len(rows)} rows, expected {WERNER_STEPS}"]
    for alpha, min_eig, psd in rows:
        expect = oracles.werner_min_eig(N, alpha)
        if abs(min_eig - expect) > 1e-9 or (abs(expect) > 1e-8 and psd != (expect > 0)):
            return [f"werner N={N} spectrum differs from the closed form at alpha={alpha}"]
    return []


def _check_state(out, rho) -> list[str]:
    N = rho.shape[0]
    bad = []
    if out["N"] != N or len(out["bloch"]) != N * N - 1:
        bad.append("state header")
    if out["physical"] != (oracles.min_eig(rho) >= -oracles.PSD_TOL):
        bad.append("physical verdict differs from eigvalsh")
    P = np.asarray(out["bloch"])
    if abs(out["invariants"]["p2"] - P @ P) > 1e-9 * max(1.0, P @ P):
        bad.append("|P|^2 invariant")
    if out["entropy"] is None or abs(out["entropy"] - oracles.entropy(rho)) > 1e-9:
        bad.append("entropy differs from eigenvalue entropy")
    return bad


def _check_tensors(out, N: int) -> list[str]:
    if out["header"]["N"] != N:
        return ["tensor header"]
    for key, ref in zip(("f", "d"), oracles.structure_tensors(N)):
        records = out[key]
        if len(records) != int(np.count_nonzero(np.abs(ref) > 1e-12)):
            return [f"{key} record count differs from the reference tensor"]
        for r in records:
            if abs(r["value"] - ref[r["a"], r["b"], r["c"]]) > 1e-12:
                return [f"{key} entry differs from the reference tensor"]
    return []


def check_output(label: str, stdout: bytes, files: dict, ctx: dict) -> list[str]:
    if label == "qutrit-region":
        grid = files["region.csv"]
        # Cells are "P,Q,admissible,fail_mask" with P and Q written by repr(float),
        # which always has a '.', so ",1," only matches admissible = 1.
        rows = grid.count(b"\n") - 1
        if rows != REGION_RESOLUTION**2:
            return [f"region CSV has {rows} rows, expected {REGION_RESOLUTION**2}"]
        if grid.count(b",1,") != ctx["region_admissible"]:
            return ["region CSV admissible count differs from region_scan"]
        if files["region_boundaries.csv"].count(b"\n") != 1 + 4 * 4 * REGION_RESOLUTION:
            return ["boundary CSV row count"]
        return []
    if label == "werner-3-csv":
        lines = stdout.decode().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        if any(r[0] != "3" for r in rows):
            return ["werner CSV N column"]
        return _werner_rows(3, [(float(r[1]), float(r[4]), r[5] == "1") for r in rows])
    out = common.strict_json_loads(stdout)
    if label == "werner-5":
        if out["consistency"]["N"] != 5 or out["consistency"]["consistent"]:
            return ["werner N=5 consistency report"]
        return _werner_rows(5, [(r["alpha"], r["min_eigenvalue"], r["psd"]) for r in out["scan"]])
    if label in ("check-3", "check-11"):
        return _check_state(out, ctx["inputs"]["state3" if label == "check-3" else "state11"])
    if label == "entropy-8":
        rho = ctx["inputs"]["state8"]
        ok = out["N"] == 8 and abs(out["entropy"] - oracles.entropy(rho)) <= 1e-9
        return [] if ok else ["entropy differs from eigenvalue entropy"]
    if label == "tensors-9":
        return _check_tensors(out, 9)
    if label == "random-5":
        states = out["states"]
        if out["seed"] != ctx["seed"] or len(states) != 200:
            return ["random header or count"]
        for s in states:
            rho = oracles.rho_of(np.asarray(s["bloch"]), 5)
            if s["N"] != 5 or not s["physical"] or oracles.min_eig(rho) < -oracles.PSD_TOL:
                return ["random state is not a physical N=5 state"]
        return []
    if label == "convert":
        P = np.asarray(out["bloch"])
        if out["N"] != 4 or np.abs(P - oracles.bloch_of(ctx["inputs"]["pair"])).max() > 1e-10:
            return ["ququart Bloch vector differs from the reference projection"]
        return [] if out["roundtrip_residual"] <= 1e-12 else ["convert round trip residual"]
    if label == "verify-su4":
        ok = out["all_ok"] is True and len(out["identities"]) == 15
        return [] if ok else ["SU(4) dictionary identities"]
    raise KeyError(label)


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class Pass:
    def __init__(self) -> None:
        self.latencies, self.ok, self.wrong = [], 0, 0   # latencies: CPU s per invocation
        self.failures, self.cpu, self.rss = {}, {}, {}
        self.wall_s = 0.0
        self.output_bytes = 0
        self.children = []   # traced child reports, in invocation order

    def fail(self, label: str, reason: str) -> None:
        key = f"{label}: {reason}"
        self.failures[key] = self.failures.get(key, 0) + 1


def run_pass(ctx: dict, traced: bool, res: Pass) -> Pass:
    """One pass of the script, appended to ``res``."""
    workdir = ctx["workdir"]
    for i, (label, argv) in enumerate(script(ctx["seed"])):
        if traced:
            spans = workdir / "spans.json"
            cmd = [sys.executable, str(common.BENCH_DIR / "cli_child.py"), str(spans), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "quditkit.cli", *argv]
        code, wall, cpu, rss = common.run_child(ctx["children"], cmd, workdir,
                                                workdir / "stdout", workdir / "stderr")
        res.latencies.append(cpu)
        res.cpu.setdefault(label, []).append(cpu)
        res.wall_s += wall
        res.rss[label] = max(res.rss.get(label, 0.0), rss)
        stdout = (workdir / "stdout").read_bytes()
        files = {}
        for name in ("region.csv", "region_boundaries.csv"):
            path = workdir / name
            if path.exists():
                files[name] = path.read_bytes()
                path.unlink()
        if traced:
            child = json.loads(spans.read_text())
            child["op"] = i
            res.children.append(child)
        res.output_bytes += len(stdout) + sum(len(b) for b in files.values())
        if code != 0:
            res.fail(label, f"exit code {code}")
            continue
        h = hashlib.sha256(stdout)
        for name in sorted(files):
            h.update(files[name])
        digest = h.hexdigest()
        first = ctx["hashes"].setdefault(label, digest)
        if first != digest:
            bad = ["output bytes differ from an earlier pass with the same command line"]
        elif digest in ctx["verified"]:
            bad = []
        else:
            try:
                bad = check_output(label, stdout, files, ctx)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                bad = [f"unparseable output ({type(exc).__name__}: {exc})"]
            if not bad:
                ctx["verified"].add(digest)
        for reason in bad:
            res.fail(label, reason)
        res.wrong += bool(bad)
        res.ok += not bad
    return res


def _context(children, seed: int) -> dict:
    sys.path.insert(0, str(common.SRC))
    import quditkit
    from quditkit import qutrit, sampling

    common.check_imported_from_checkout(quditkit)
    workdir = common.OUT_DIR / f"cli-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return {
        "seed": seed,
        "children": children,
        "workdir": workdir,
        "inputs": write_inputs(workdir, seed, sampling),
        "region_admissible": int(qutrit.region_scan(REGION_RESOLUTION).admissible.sum()),
        "hashes": {},
        "verified": set(),
    }


def _summary(p: Pass) -> dict:
    out = {"attempted": len(p.latencies), "failed": len(p.latencies) - p.ok, "wrong": p.wrong,
           "failures": p.failures, "cpu_s": p.cpu, "peak_rss_mb_by_command": p.rss,
           **common.latency_metrics(p.latencies, p.ok)}
    # Rate of a pass at each command's median time: one slow invocation moves
    # a plain sum of times but not the per-command medians.
    typical_pass_s = sum(statistics.median(t) for t in p.cpu.values())
    out["ops_per_s"] = p.ok / len(p.latencies) * len(p.cpu) / typical_pass_s
    return out


def _merge_children(children: list[dict]):
    stats = {name: {"self_s": 0.0, "calls": 0, "failed": 0} for name in TRACED}
    peak_mb, csv_bytes, hits, misses, spans = 0.0, 0, 0, 0, []
    for child in children:
        for name, entry in child["stats"].items():
            for key in entry:
                stats[name][key] += entry[key]
        peak_mb = max(peak_mb, child["peak_mb"])
        csv_bytes += child["csv_bytes"]
        hits, misses = hits + child["cache"][0], misses + child["cache"][1]
        base = len(spans)
        for name, start, end, parent, _ in child["spans"]:
            spans.append((name, start, end, None if parent is None else base + parent, child["op"]))
    return stats, peak_mb, csv_bytes, (hits, misses), spans


def drive(children, seed: int, seconds: int, trace: bool):
    """Returns (correct, run summary, metrics, report) for one cli-datasets run."""
    ctx = _context(children, seed)
    try:
        if trace:
            plain, traced = _summary(run_pass(ctx, False, Pass())), run_pass(ctx, True, Pass())
            run = _summary(traced)
            stats, peak_mb, csv_bytes, cache, spans = _merge_children(traced.children)
            metrics = layer_metrics(stats, peak_mb=peak_mb, csv_bytes=csv_bytes, cache=cache,
                                    first_call_s=0.0, output_bytes=traced.output_bytes,
                                    wall_s=traced.wall_s, traced=run, untraced=plain)
            write_spans(common.OUT_DIR / "spans-cli-datasets.jsonl", spans)
            correct = run["wrong"] == 0 and plain["wrong"] == 0
            return correct, run, metrics, {"traced": run, "untraced": plain}

        setups = []
        for _ in range(SETUP_RUNS):
            code, _, cpu, _ = common.run_child(
                children, [sys.executable, "-c", "import quditkit.cli"], ctx["workdir"],
                ctx["workdir"] / "stdout", ctx["workdir"] / "stderr")
            if code != 0:
                raise common.BenchError("python -c 'import quditkit.cli' failed")
            setups.append(cpu)
        total = Pass()
        for _ in range(max(1, math.ceil(seconds / PASS_SECONDS))):
            run_pass(ctx, False, total)
        run = _summary(total)
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": run["ops_per_s"],
            "op_p50_ms": run["op_p50_ms"],
            "op_p99_ms": run["op_p99_ms"],
            "peak_rss_mb": max(total.rss.values()),
        }
        report = {
            "run": run,
            "setup_samples_s": setups,
            "region_csv_s": statistics.median(total.cpu["qutrit-region"]),
            "werner_s": statistics.median(total.cpu["werner-5"]),
            "fail_ratio": run["failed"] / run["attempted"],
            "output_sha256": ctx["hashes"],
        }
        return run["wrong"] == 0, run, metrics, report
    finally:
        shutil.rmtree(ctx["workdir"], ignore_errors=True)
