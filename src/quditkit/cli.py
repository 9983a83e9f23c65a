"""Command-line front end: machine-readable reports and scan datasets.

Exit codes: 0 success, 1 invalid input, 2 unphysical state where
physicality is required.  Errors are emitted as structured JSON on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import basis as basis_mod
from . import bipartite, qudit, qutrit, sampling, su4, sympoly
from .basis import DEFAULT_TOL

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_UNPHYSICAL = 2


@dataclass
class CommandConfig:
    command: str
    N: int = 3
    tolerance: float = DEFAULT_TOL
    seed: int = 0
    output: str | None = None
    fmt: str = "json"
    resolution: int = 512
    alpha_min: float | None = None
    alpha_max: float | None = None
    steps: int = 101
    count: int = 1
    input: str | None = None

    def __post_init__(self) -> None:
        if self.tolerance <= 0:
            raise ValueError("tolerance must be > 0")
        if self.N < 2:
            raise ValueError("N must be >= 2")


def _emit(config: CommandConfig, chunks: Iterable[str], suffix: str = "") -> None:
    """Write the text chunks in order to the output file or to stdout.

    The file name gets the suffix before its extension.  On stdout a final
    newline is added when the text does not end with one.
    """
    if config.output:
        path = Path(config.output)
        if suffix:
            path = path.with_name(path.stem + suffix + path.suffix)
        sink = path.open("w")
    else:
        sink = contextlib.nullcontext(sys.stdout)
    last = ""
    with sink as out:
        for chunk in chunks:
            out.write(chunk)
            last = chunk or last
        if not config.output and not last.endswith("\n"):
            out.write("\n")


def _json_dumps(obj) -> str:
    """Strict JSON: a NaN or infinity is refused (exit 1), never written."""
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"result is not finite, the input is out of range: {exc}") from exc


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read input file {path!r}: {exc}") from exc


def _finite_array(data: dict, key: str) -> np.ndarray:
    a = np.asarray(data[key], dtype=float)
    if not np.isfinite(a).all():
        raise ValueError(f"field {key!r} contains a non-finite value (NaN or infinity)")
    return a


def _load_qudit_state(path: str) -> qudit.QuditState:
    data = _load_json(path)
    if "bloch" not in data or "N" not in data:
        raise ValueError("state JSON must contain fields 'N' and 'bloch'")
    return qudit.from_bloch(int(data["N"]), _finite_array(data, "bloch"))


def _load_bipartite_state(path: str) -> bipartite.BipartiteState:
    data = _load_json(path)
    for key in ("N", "x", "y", "omega"):
        if key not in data:
            raise ValueError(f"bipartite state JSON must contain field {key!r}")
    x, y, omega = (_finite_array(data, key) for key in ("x", "y", "omega"))
    return bipartite.from_components(int(data["N"]), x, y, omega)


def cmd_basis(config: CommandConfig) -> int:
    b = basis_mod.generate_basis(config.N)
    _emit(config, [_json_dumps(b.to_json_dict(config.tolerance))])
    return EXIT_OK


def cmd_tensors(config: CommandConfig) -> int:
    b = basis_mod.generate_basis(config.N)
    t = basis_mod.compute_tensors(b, config.tolerance)
    _emit(config, [_json_dumps(t.to_json_dict(config.tolerance))])
    return EXIT_OK


def cmd_check(config: CommandConfig) -> int:
    state = _load_qudit_state(config.input)
    tensors = basis_mod.cached_tensors(state.dim)
    report = sympoly.positivity_check(state.rho, config.tolerance)
    inv = qudit.invariants(state, tensors)
    pur = qudit.purity_residuals(state, tensors)
    out = {
        "N": state.dim,
        "bloch": state.bloch.tolist(),
        "physical": report.psd,
        "report": report.to_json_dict(),
        "invariants": inv.to_json_dict(),
        "purity": {"r_norm": pur.r_norm, "r_vec": pur.r_vec},
        "entropy": qudit.entropy(state, config.tolerance) if report.psd else None,
    }
    _emit(config, [_json_dumps(out)])
    return EXIT_OK


def cmd_entropy(config: CommandConfig) -> int:
    state = _load_qudit_state(config.input)
    try:
        S = qudit.entropy(state, config.tolerance)
    except qudit.UnphysicalStateError as exc:
        _error(config.command, str(exc))
        return EXIT_UNPHYSICAL
    _emit(config, [_json_dumps({"N": state.dim, "entropy": S})])
    return EXIT_OK


def cmd_qutrit_region(config: CommandConfig) -> int:
    grid = qutrit.region_scan(config.resolution, config.tolerance)
    _emit(config, qutrit.region_csv_rows(grid))
    if config.output:
        _emit(config, [qutrit.boundaries_to_csv(grid)], suffix="_boundaries")
    return EXIT_OK


def cmd_werner(config: CommandConfig) -> int:
    report = bipartite.werner_consistency(config.N)
    rows = bipartite.werner_positivity_scan(
        config.N, config.alpha_min, config.alpha_max, config.steps, config.tolerance
    )
    if config.fmt == "csv":
        _emit(config, [bipartite.werner_scan_csv(rows)])
    else:
        _emit(config, [_json_dumps({"consistency": report.to_json_dict(), "scan": rows})])
    return EXIT_OK


def cmd_convert(config: CommandConfig) -> int:
    state = _load_bipartite_state(config.input)
    if state.dim != 2:
        raise ValueError("convert expects a two-qubit component state (N = 2)")
    P = su4.components_to_ququart(state.x, state.y, state.omega)
    x2, y2, w2 = su4.ququart_to_components(P)
    roundtrip = max(
        float(np.abs(x2 - state.x).max()),
        float(np.abs(y2 - state.y).max()),
        float(np.abs(w2 - state.omega).max()),
    )
    out = {"N": 4, "bloch": P.tolist(), "roundtrip_residual": roundtrip}
    _emit(config, [_json_dumps(out)])
    return EXIT_OK


def cmd_verify_su4(config: CommandConfig) -> int:
    reports = su4.verify_pauli_dictionary()
    out = {
        "identities": reports,
        "all_ok": all(r["ok"] for r in reports),
        "dictionary": su4.dictionary_json(),
    }
    _emit(config, [_json_dumps(out)])
    return EXIT_OK


def cmd_random(config: CommandConfig) -> int:
    rng = np.random.default_rng(config.seed)
    states = []
    for _ in range(config.count):
        rho = sampling.random_density_matrix(config.N, rng)
        states.append(qudit.from_density_matrix(rho).to_json_dict(config.tolerance))
    _emit(config, [_json_dumps({"seed": config.seed, "states": states})])
    return EXIT_OK


_COMMANDS = {
    "basis": cmd_basis,
    "tensors": cmd_tensors,
    "check": cmd_check,
    "entropy": cmd_entropy,
    "qutrit-region": cmd_qutrit_region,
    "werner": cmd_werner,
    "convert": cmd_convert,
    "verify-su4": cmd_verify_su4,
    "random": cmd_random,
}


def _error(command: str, message: str) -> None:
    sys.stderr.write(_json_dumps({"command": command, "error": message}) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quditkit",
        description="Qudit density matrices in the generalized Gell-Mann basis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, with_input: bool = False) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        if with_input:
            p.add_argument("input", help="path to a state JSON file")
        p.add_argument("--N", type=int, default=3, help="qudit dimension (default 3)")
        p.add_argument("--tolerance", type=float, default=DEFAULT_TOL)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output", default=None, help="output file (default stdout)")
        p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
        return p

    add("basis", "emit the generator matrices as JSON")
    add("tensors", "emit the sparse f/d structure tensors as JSON")
    add("check", "physicality, invariants and purity report for a state JSON", True)
    add("entropy", "von Neumann entropy of a state JSON (exit 2 if unphysical)", True)
    p = add("qutrit-region", "emit the admissible (|P|, Q) region as CSV")
    p.add_argument("--resolution", type=int, default=512)
    p.set_defaults(fmt="csv")
    p = add("werner", "Werner-state consistency report and positivity scan")
    p.add_argument("--alpha-min", type=float, default=None)
    p.add_argument("--alpha-max", type=float, default=None)
    p.add_argument("--steps", type=int, default=101)
    add("convert", "map a two-qubit component state to the ququart Bloch vector", True)
    add("verify-su4", "check the 15 Pauli-product generator identities")
    p = add("random", "sample random qudit states with the given seed")
    p.add_argument("--count", type=int, default=1)
    return parser


def run(config: CommandConfig) -> int:
    """Dispatch one parsed command; returns the process exit status."""
    try:
        # a finite but huge input overflows on the way; the non-finite result
        # is refused by _json_dumps, so numpy's warnings would only add noise
        # ahead of the structured error on stderr
        with np.errstate(over="ignore", invalid="ignore"):
            return _COMMANDS[config.command](config)
    except (ValueError, KeyError, ArithmeticError) as exc:
        _error(config.command, str(exc))
        return EXIT_INVALID_INPUT


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    fields = CommandConfig.__dataclass_fields__
    try:
        config = CommandConfig(**{k: v for k, v in vars(args).items() if k in fields})
    except ValueError as exc:
        _error(args.command, str(exc))
        return EXIT_INVALID_INPUT
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
