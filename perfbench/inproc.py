"""In-process workloads: qudit-check and pair-chain.

``drive`` runs on the benchmark's side and starts workers one after another;
a worker (``python3 perfbench/inproc.py ...``) imports quditkit, runs one
warm-up op at each N, prints READY and then runs the measured phase.  Inputs
come from the seed only; quditkit.sampling generates them and the oracles
module checks every output outside the timed section.  Every worker of a run
gets the same inputs, so each input's latency is its median over all passes of
all workers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import common
import oracles
from tracer import Tracer, layer_metrics, write_spans

# An untraced run starts WORKERS fresh processes in turn (each one is also a
# set-up sample); each makes "passes" passes over the same inputs.
WORKERS = 3

# N -> ops per block.  Blocks are shuffled, so every block holds the exact
# mix and the share of slow large-N ops does not drift from seed to seed.
WORKLOADS = {
    "qudit-check": {
        "mix": {3: 4, 5: 3, 8: 2, 11: 1},
        "kinds": ("mixed", "low-rank", "unphysical"),
        "passes": 6,
        "trace_blocks_per_s": 24,
    },
    "pair-chain": {
        "mix": {2: 4, 3: 3, 5: 2, 7: 1},
        "kinds": ("pure", "rank-2"),
        # Fewer, longer passes than qudit-check: a run needs ~200 inputs so
        # that the tail percentile falls inside the N = 7 class.
        "passes": 4,
        "trace_blocks_per_s": 3,
    },
}


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def make_input(workload: str, N: int, kind: str, rng, sampling) -> dict:
    if workload == "qudit-check":
        if kind == "low-rank":
            rank = int(rng.integers(1, 3))
            rho = sampling.random_density_matrix(N, rng, rank=rank)
        else:
            rank = N
            rho = sampling.random_density_matrix(N, rng)
            if kind == "unphysical":
                rho = oracles.unphysical(rho)
        return {"N": N, "kind": kind, "pure": rank == 1, "rho": rho,
                "P": oracles.bloch_of(rho)}
    rank = 1 if kind == "pure" else 2
    return {"N": N, "kind": kind, "pure": rank == 1,
            "rho": sampling.random_density_matrix(N * N, rng, rank=rank)}


def blocks(workload: str, rng, sampling):
    """Endless stream of shuffled blocks of inputs."""
    spec = WORKLOADS[workload]
    plan = [(N, kind) for N, count in spec["mix"].items() for kind in spec["kinds"]
            for _ in range(count)]
    while True:
        order = rng.permutation(len(plan))
        yield [make_input(workload, *plan[i], rng, sampling) for i in order]


# ---------------------------------------------------------------------------
# ops; each returns the values the oracle checks and the digest records
# ---------------------------------------------------------------------------

def op_qudit_check(q, inp):
    N = inp["N"]
    state = q.qudit.from_bloch(N, inp["P"])
    tensors = q.basis.cached_tensors(N)
    report = q.sympoly.positivity_check(state.rho)
    inv = q.qudit.invariants(state, tensors)
    pur = q.qudit.purity_residuals(state, tensors)
    S = q.qudit.entropy(state) if report.psd else None
    return {"psd": report.psd, "p2": inv.p2, "Q": inv.Q, "quartic": inv.quartic,
            "r_norm": pur.r_norm, "r_vec": pur.r_vec, "entropy": S}


def check_qudit_check(inp, out) -> list[str]:
    bad = []
    rho = inp["rho"]
    if out["psd"] != (oracles.min_eig(rho) >= -oracles.PSD_TOL):
        bad.append("psd verdict differs from eigvalsh")
    if inp["pure"] and abs(out["r_norm"]) + out["r_vec"] > oracles.PURE_TOL:
        bad.append("pure state purity residual above 1e-8")
    if out["entropy"] is not None and abs(out["entropy"] - oracles.entropy(rho)) > 1e-9:
        bad.append("entropy differs from eigenvalue entropy")
    return bad


def op_pair_chain(q, inp):
    N = inp["N"]
    x, y, w = q.bipartite.to_components(inp["rho"], q.basis.cached_basis(N))
    state = q.bipartite.from_components(N, x, y, w)
    pur = q.bipartite.purity_residuals_qudit(state)
    trace_res = q.bipartite.trace_identity_residual(state)
    red1, red2 = q.bipartite.reduced_states(state)
    report = q.sympoly.positivity_check(state.rho)
    out = {"x": x, "y": y, "omega": w, "rho": state.rho, "purity": pur.total(),
           "trace_identity": trace_res, "red1": red1.bloch, "red2": red2.bloch,
           "psd": report.psd}
    if N == 2:
        out["purity_qubit"] = q.bipartite.purity_residuals_qubit(state).total()
        out["adjugate"] = q.bipartite.z_matrix(state).adjugate_residual
        out["ineq_ok"] = all(q.bipartite.mixed_positivity_qubit(state)["satisfied"])
        out["ququart"] = q.su4.components_to_ququart(x, y, w)
        out["back"] = q.su4.ququart_to_components(out["ququart"])
    return out


def check_pair_chain(inp, out) -> list[str]:
    bad = []
    N, rho = inp["N"], inp["rho"]
    x, y, w = oracles.components_of(rho, N)
    if max(np.abs(out["x"] - x).max(), np.abs(out["y"] - y).max(),
           np.abs(out["omega"] - w).max()) > 1e-10:
        bad.append("components differ from the reference projection")
    if np.abs(out["rho"] - rho).max() > 1e-10:
        bad.append("density matrix round trip through the components")
    if max(np.abs(out["red1"] - x).max(), np.abs(out["red2"] - y).max()) > 1e-10:
        bad.append("reduced states differ from the partial traces")
    if out["psd"] != (oracles.min_eig(rho) >= -oracles.PSD_TOL):
        bad.append("psd verdict differs from eigvalsh")
    if inp["pure"] and (out["purity"] > oracles.PURE_TOL or out["trace_identity"] > oracles.PURE_TOL):
        bad.append("pure state purity chain residual above 1e-8")
    if N == 2:
        if inp["pure"] and out["purity_qubit"] > oracles.PURE_TOL:
            bad.append("pure two-qubit purity residual above 1e-8")
        if out["adjugate"] > 1e-10 or not out["ineq_ok"]:
            bad.append("Z adjugate relation or necessary positivity inequality")
        x2, y2, w2 = out["back"]
        if max(np.abs(x2 - x).max(), np.abs(y2 - y).max(), np.abs(w2 - w).max()) > 1e-10:
            bad.append("su4 component round trip")
        if np.abs(out["ququart"] - oracles.bloch_of(rho)).max() > 1e-10:
            bad.append("ququart Bloch vector differs from the reference projection")
    return bad


OPS = {"qudit-check": (op_qudit_check, check_qudit_check),
       "pair-chain": (op_pair_chain, check_pair_chain)}


def _digest_update(h, out) -> None:
    for key in sorted(out):
        value = out[key]
        if isinstance(value, tuple):
            for v in value:
                h.update(np.asarray(v).tobytes())
        else:
            h.update(repr(value).encode() if not isinstance(value, np.ndarray) else value.tobytes())


# ---------------------------------------------------------------------------
# worker
# ---------------------------------------------------------------------------

class Modules:
    def __init__(self) -> None:
        import quditkit
        from quditkit import basis, bipartite, qudit, sampling, su4, sympoly

        common.check_imported_from_checkout(quditkit)
        self.basis, self.bipartite, self.qudit = basis, bipartite, qudit
        self.sampling, self.su4, self.sympoly = sampling, su4, sympoly


def _timed(q, op, inp):
    """(CPU time, output or None, exception or None) of one op, and its output digest."""
    h = hashlib.sha256()
    t0 = time.process_time()
    try:
        out = op(q, inp)
    except Exception as exc:  # counted as a failed op, by type
        dt = time.process_time() - t0
        h.update(type(exc).__name__.encode())
        return dt, None, exc, h.hexdigest()
    dt = time.process_time() - t0
    _digest_update(h, out)
    return dt, out, None, h.hexdigest()


def run_ops(q, workload, seed, *, passes, op_seconds=None, n_blocks=None, tracer=None):
    """Closed loop over the seeded stream, then ``passes - 1`` repeats of it.

    The first pass takes whole blocks until it holds ``n_blocks`` or its summed
    op time reaches ``op_seconds``, and checks every output with the oracles.
    Each repeat runs the same inputs in the same order and must reproduce the
    first pass's output bytes.  Every input keeps all its latencies.
    """
    op, check = OPS[workload]
    rng = np.random.default_rng([seed, 1])
    inputs, latencies, digests, bad = [], [], [], set()
    failures, failed, wrong = {}, 0, 0

    def fail(reason, inp):
        key = f"{reason} at N={inp['N']} ({inp['kind']})"
        failures[key] = failures.get(key, 0) + 1

    t_start = time.perf_counter()
    op_time, taken = 0.0, 0
    for block in blocks(workload, rng, q.sampling):
        if (n_blocks is not None and taken >= n_blocks) or \
                (op_seconds is not None and op_time >= op_seconds):
            break
        taken += 1
        for inp in block:
            if tracer is not None:
                tracer.op = len(inputs)
            dt, out, exc, digest = _timed(q, op, inp)
            reasons = [type(exc).__name__] if exc is not None else check(inp, out)
            for reason in reasons:
                fail(reason, inp)
            if reasons:
                bad.add(len(inputs))
                failed += 1
                wrong += exc is None
            inputs.append(inp)
            latencies.append([dt])
            digests.append(digest)
            op_time += dt
    for _ in range(passes - 1):
        for i, inp in enumerate(inputs):
            dt, out, exc, digest = _timed(q, op, inp)
            latencies[i].append(dt)
            if digest != digests[i]:
                fail("output differs between passes", inp)
                bad.add(i)
                failed, wrong = failed + 1, wrong + 1
            elif i in bad:
                failed += 1
                wrong += exc is None
    wall = time.perf_counter() - t_start
    return {"latencies": latencies, "ok": len(inputs) - len(bad), "bad": sorted(bad),
            "passes": passes, "attempted": passes * len(inputs), "failed": failed,
            "wrong": wrong, "failures": failures, "digests": digests, "n_blocks": taken,
            "wall_s": wall}


def merge(parts: list[dict]) -> dict:
    """One result from the workers' results for the same inputs.

    Each input keeps its latencies from every worker; an input whose output
    bytes differ from the first worker's fails in the later worker.
    """
    first = parts[0]
    out = {"latencies": [sum(xs, []) for xs in zip(*(r["latencies"] for r in parts))],
           "failures": {}, "bad": set()}
    for key in ("passes", "attempted", "failed", "wrong"):
        out[key] = sum(r[key] for r in parts)
    for r in parts:
        for key, count in r["failures"].items():
            out["failures"][key] = out["failures"].get(key, 0) + count
        out["bad"].update(r["bad"])
        differ = [i for i, (a, b) in enumerate(zip(first["digests"], r["digests"])) if a != b]
        if differ:
            key = "output differs between worker processes"
            out["failures"][key] = out["failures"].get(key, 0) + len(differ)
            fresh = [i for i in differ if i not in r["bad"]]
            out["failed"] += r["passes"] * len(fresh)
            out["wrong"] += r["passes"] * len(fresh)
            out["bad"].update(differ)
    out["ok"] = len(out["latencies"]) - len(out["bad"])
    return out


def warm_up(q, workload, seed) -> None:
    """One op at each N in the mix, so caches and product tables are built."""
    op = OPS[workload][0]
    rng = np.random.default_rng([seed, 0])
    for N in WORKLOADS[workload]["mix"]:
        op(q, make_input(workload, N, WORKLOADS[workload]["kinds"][0], rng, q.sampling))


def summarize(res: dict) -> dict:
    """Every execution counts as attempted; an input's latency is its median over the passes.

    The passes lie seconds apart, so the median is the op's cost in the run's
    typical state of the shared host, and neither a stall nor a rare quiet
    second moves it.
    """
    out = {key: res[key] for key in ("attempted", "failed", "wrong", "failures", "passes")}
    per_input = [statistics.median(xs) for xs in res["latencies"]]
    return out | common.latency_metrics(per_input, res["ok"])


def worker(args) -> dict:
    q = Modules()
    tracer = Tracer() if args.mode == "trace" else None
    if tracer is not None:
        tracer.install()
    t_setup = time.perf_counter()
    warm_up(q, args.workload, args.seed)
    setup_wall = time.perf_counter() - t_setup
    # CPU time of this process so far: interpreter start, imports, warm-up.
    print(f"READY {time.process_time()!r}", flush=True)
    out = {"blas": common.blas_info()}
    if tracer is None:
        # The first worker fills its share of the run by time, later ones
        # repeat its inputs.
        passes = WORKLOADS[args.workload]["passes"]
        out["run"] = run_ops(q, args.workload, args.seed, passes=passes,
                             op_seconds=None if args.blocks else args.seconds / (WORKERS * passes),
                             n_blocks=args.blocks or None)
    else:
        tracer.uninstall()
        n_blocks = max(1, round(args.seconds * WORKLOADS[args.workload]["trace_blocks_per_s"] / 2))
        plain = run_ops(q, args.workload, args.seed, passes=1, n_blocks=n_blocks)
        tracer.install()
        traced = run_ops(q, args.workload, args.seed, passes=1, n_blocks=n_blocks, tracer=tracer)
        tracer.uninstall()
        info = q.basis.cached_tensors.cache_info()
        out["untraced"], out["run"] = summarize(plain), summarize(traced)
        out["trace_changed_results"] = plain["digests"] != traced["digests"]
        out["layers"] = layer_metrics(
            tracer.stats, peak_mb=tracer.peak_mb, csv_bytes=tracer.csv_bytes,
            cache=(info.hits, info.misses),
            first_call_s=tracer.first_calls_s("bipartite.to_components"),
            output_bytes=0, wall_s=setup_wall + traced["wall_s"],
            traced=out["run"], untraced=out["untraced"])
        common.OUT_DIR.mkdir(exist_ok=True)
        write_spans(common.OUT_DIR / f"spans-{args.workload}.jsonl", tracer.spans)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


# ---------------------------------------------------------------------------
# parent side: starts the workers and collects their results
# ---------------------------------------------------------------------------

def _start(children, workload, seed, seconds, mode, n_blocks=0):
    argv = [sys.executable, str(common.BENCH_DIR / "inproc.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
            "--blocks", str(n_blocks)]
    proc = children.start(argv, cwd=common.ROOT, stdout=subprocess.PIPE, text=True)
    word, _, setup_s = proc.stdout.readline().partition(" ")
    if word != "READY":
        raise common.BenchError(f"{workload} worker failed during set-up")
    return proc, float(setup_s)


def _finish(children, proc) -> dict:
    text, _ = proc.communicate()
    children.reaped(proc)
    if proc.returncode != 0:
        raise common.BenchError(f"worker exited with {proc.returncode}")
    return json.loads(text.strip().splitlines()[-1]) if text.strip() else {}


def drive(children, workload: str, seed: int, seconds: int, trace: bool):
    """Returns (correct, run summary, metrics, report) for one in-process run."""
    if trace:
        proc, _ = _start(children, workload, seed, seconds, "trace")
        data = _finish(children, proc)
        run, plain = data["run"], data["untraced"]
        correct = run["wrong"] == 0 and plain["wrong"] == 0 and not data["trace_changed_results"]
        report = {"traced": run, "untraced": plain, "blas": data["blas"],
                  "trace_changed_results": data["trace_changed_results"]}
        return correct, run, data["layers"], report

    setups, parts, rss, n_blocks = [], [], [], 0
    for _ in range(WORKERS):
        proc, s = _start(children, workload, seed, seconds, "run", n_blocks)
        data = _finish(children, proc)
        setups.append(s)
        parts.append(data["run"])
        rss.append(data["peak_rss_mb"])
        n_blocks = data["run"]["n_blocks"]
    run = summarize(merge(parts))
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": run["ops_per_s"],
        "op_p50_ms": run["op_p50_ms"],
        "op_p99_ms": run["op_p99_ms"],
        "peak_rss_mb": max(rss),
    }
    report = {"run": run, "setup_samples_s": setups, "peak_rss_mb_by_worker": rss,
              "blas": data["blas"], "fail_ratio": run["failed"] / run["attempted"]}
    return run["wrong"] == 0, run, metrics, report


def main() -> int:
    parser = argparse.ArgumentParser(description="in-process benchmark worker")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("run", "trace"), required=True)
    parser.add_argument("--blocks", type=int, default=0,
                        help="blocks of inputs to take (0: fill the run's share by time)")
    out = worker(parser.parse_args())
    if out:
        print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
