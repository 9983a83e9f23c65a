"""Command-line front end: machine-readable reports and scan datasets.

Exit codes: 0 success, 1 invalid input, 2 unphysical state where
physicality is required.  Errors are emitted as structured JSON on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from collections.abc import Callable, Iterable
from pathlib import Path
from typing import TYPE_CHECKING, Any, NoReturn

import numpy as np

# every other module is imported by the handler that uses it, so a process
# compiles only what its subcommand runs
from . import basis as basis_mod
from .basis import DEFAULT_TOL

if TYPE_CHECKING:
    from .bipartite import BipartiteState
    from .qudit import QuditState

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_UNPHYSICAL = 2


def _emit(args: argparse.Namespace, chunks: Iterable[str], suffix: str = "") -> None:
    """Write the text chunks in order to the output file or to stdout.

    The file name gets the suffix before its extension.  On stdout a final
    newline is added when the text does not end with one.
    """
    if args.output:
        path = Path(args.output)
        if suffix:
            path = path.with_name(path.stem + suffix + path.suffix)
        try:
            sink = path.open("w")
        except OSError as exc:
            raise ValueError(f"cannot write output file {str(path)!r}: {exc}") from exc
    else:
        sink = contextlib.nullcontext(sys.stdout)
    last = ""
    with sink as out:
        for chunk in chunks:
            out.write(chunk)
            last = chunk or last
        if not args.output and not last.endswith("\n"):
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
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read input file {path!r}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"input file {path!r} must hold a JSON object, not {type(data).__name__}")
    return data


def _dimension(data: dict) -> int:
    """Field 'N' as an int: an integral number (3 or 3.0), nothing else."""
    N = data["N"]
    if isinstance(N, float) and N.is_integer():
        return int(N)
    if type(N) is not int:
        raise ValueError(f"field 'N' must be an integer, got {json.dumps(N)}")
    return N


def _finite_array(data: dict, key: str) -> np.ndarray:
    try:
        a = np.asarray(data[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"field {key!r} must hold numbers: {exc}") from exc
    if not np.isfinite(a).all():
        raise ValueError(f"field {key!r} contains a non-finite value (NaN or infinity)")
    return a


def _load_qudit_state(path: str) -> QuditState:
    from .qudit import from_bloch

    data = _load_json(path)
    if "bloch" not in data or "N" not in data:
        raise ValueError("state JSON must contain fields 'N' and 'bloch'")
    return from_bloch(_dimension(data), _finite_array(data, "bloch"))


def _load_bipartite_state(path: str) -> BipartiteState:
    from .bipartite import from_components

    data = _load_json(path)
    for key in ("N", "x", "y", "omega"):
        if key not in data:
            raise ValueError(f"bipartite state JSON must contain field {key!r}")
    x, y, omega = (_finite_array(data, key) for key in ("x", "y", "omega"))
    return from_components(_dimension(data), x, y, omega)


def cmd_basis(args: argparse.Namespace) -> int:
    b = basis_mod.generate_basis(args.N)
    _emit(args, [_json_dumps(b.to_json_dict(args.tolerance))])
    return EXIT_OK


def cmd_tensors(args: argparse.Namespace) -> int:
    b = basis_mod.generate_basis(args.N)
    t = basis_mod.compute_tensors(b, args.tolerance)
    _emit(args, [_json_dumps(t.to_json_dict(args.tolerance))])
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    from . import qudit, sympoly

    state = _load_qudit_state(args.input)
    tensors = basis_mod.cached_tensors(state.dim)
    report = sympoly.positivity_check(state.rho, args.tolerance)
    inv = qudit.invariants(state, tensors)
    pur = qudit.purity_residuals(state, tensors)
    out = {
        "N": state.dim,
        "bloch": state.bloch.tolist(),
        "physical": report.psd,
        "report": report.to_json_dict(),
        "invariants": inv.to_json_dict(),
        "purity": {"r_norm": pur.r_norm, "r_vec": pur.r_vec},
        "entropy": qudit.entropy(state, args.tolerance) if report.psd else None,
    }
    _emit(args, [_json_dumps(out)])
    return EXIT_OK


def cmd_entropy(args: argparse.Namespace) -> int:
    from . import qudit

    state = _load_qudit_state(args.input)
    try:
        S = qudit.entropy(state, args.tolerance)
    except qudit.UnphysicalStateError as exc:
        _error(args.command, str(exc))
        return EXIT_UNPHYSICAL
    _emit(args, [_json_dumps({"N": state.dim, "entropy": S})])
    return EXIT_OK


def cmd_qutrit_region(args: argparse.Namespace) -> int:
    from . import qutrit

    grid = qutrit.region_scan(args.resolution, args.tolerance)
    _emit(args, qutrit.region_csv_rows(grid))
    if args.output:
        _emit(args, [qutrit.boundaries_to_csv(grid)], suffix="_boundaries")
    return EXIT_OK


def cmd_werner(args: argparse.Namespace) -> int:
    from . import bipartite

    report = bipartite.werner_consistency(args.N)
    rows = bipartite.werner_positivity_scan(
        args.N, args.alpha_min, args.alpha_max, args.steps, args.tolerance
    )
    if args.fmt == "csv":
        _emit(args, [bipartite.werner_scan_csv(rows)])
    else:
        _emit(args, [_json_dumps({"consistency": report.to_json_dict(), "scan": rows})])
    return EXIT_OK


def cmd_convert(args: argparse.Namespace) -> int:
    from . import su4

    state = _load_bipartite_state(args.input)
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
    _emit(args, [_json_dumps(out)])
    return EXIT_OK


def cmd_verify_su4(args: argparse.Namespace) -> int:
    from . import su4

    reports = su4.verify_pauli_dictionary()
    out = {
        "identities": reports,
        "all_ok": all(r["ok"] for r in reports),
        "dictionary": su4.dictionary_json(),
    }
    _emit(args, [_json_dumps(out)])
    return EXIT_OK


def cmd_random(args: argparse.Namespace) -> int:
    from . import qudit, sampling

    basis = basis_mod.cached_basis(args.N)  # refuses N < 2 before sampling
    rng = np.random.default_rng(args.seed)
    states = []
    for _ in range(args.count):
        rho = sampling.random_density_matrix(args.N, rng)
        states.append(qudit.from_density_matrix(rho, basis).to_json_dict(args.tolerance))
    _emit(args, [_json_dumps({"seed": args.seed, "states": states})])
    return EXIT_OK


def _error(command: str | None, message: str) -> None:
    sys.stderr.write(_json_dumps({"command": command, "error": message}) + "\n")


class _UsageError(Exception):
    """An argparse error, with the subcommand it belongs to (None at the top level)."""


class _Parser(argparse.ArgumentParser):
    """Usage errors are raised to main(), which reports them like invalid input."""

    def error(self, message: str) -> NoReturn:
        raise _UsageError(self.prog.partition(" ")[2] or None, message)


def _checked(kind: type, ok: Callable[[Any], bool], message: str) -> Callable[[str], Any]:
    """An argparse type: kind(text), refused with message unless ok(value)."""
    def parse(text: str):
        if not ok(value := kind(text)):
            raise argparse.ArgumentTypeError(message)
        return value
    parse.__name__ = kind.__name__  # argparse names it in "invalid float value: 'x'"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quditkit",
        description="Qudit density matrices in the generalized Gell-Mann basis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str, *flags: str) -> argparse.ArgumentParser:
        """Register a subcommand, its handler, --output and the shared arguments in flags."""
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        if "input" in flags:
            p.add_argument("input", help="path to a state JSON file")
        if "N" in flags:
            p.add_argument("--N", type=int, default=3, help="qudit dimension (default 3)")
        if "tolerance" in flags:
            p.add_argument("--tolerance", default=DEFAULT_TOL,
                           type=_checked(float, lambda v: v > 0, "tolerance must be > 0"))
        p.add_argument("--output", default=None, help="output file (default stdout)")
        return p

    add("basis", cmd_basis, "emit the generator matrices as JSON", "N", "tolerance")
    add("tensors", cmd_tensors, "emit the sparse f/d structure tensors as JSON",
        "N", "tolerance")
    add("check", cmd_check, "physicality, invariants and purity report for a state JSON",
        "input", "tolerance")
    add("entropy", cmd_entropy, "von Neumann entropy of a state JSON (exit 2 if unphysical)",
        "input", "tolerance")
    p = add("qutrit-region", cmd_qutrit_region, "emit the admissible (|P|, Q) region as CSV",
            "tolerance")
    p.add_argument("--resolution", type=int, default=512)
    p = add("werner", cmd_werner, "Werner-state consistency report and positivity scan",
            "N", "tolerance")
    p.add_argument("--alpha-min", type=float, default=None)
    p.add_argument("--alpha-max", type=float, default=None)
    p.add_argument("--steps", type=int, default=101)
    p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    add("convert", cmd_convert, "map a two-qubit component state to the ququart Bloch vector",
        "input")
    add("verify-su4", cmd_verify_su4, "check the 15 Pauli-product generator identities")
    p = add("random", cmd_random, "sample random qudit states with the given seed",
            "N", "tolerance")
    p.add_argument("--count", default=1,
                   type=_checked(int, lambda v: v >= 1, "count must be >= 1"))
    p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command line; returns the process exit status."""
    command = None
    try:
        args, unknown = build_parser().parse_known_args(argv)
        command = args.command
        if unknown:
            raise ValueError(f"unrecognized arguments: {' '.join(unknown)}")
        # a finite but huge input overflows on the way; the non-finite result
        # is refused by _json_dumps, so numpy's warnings would only add noise
        # ahead of the structured error on stderr
        with np.errstate(over="ignore", invalid="ignore"):
            return args.handler(args)
    except _UsageError as exc:
        command, message = exc.args
    except (ValueError, KeyError, ArithmeticError) as exc:
        message = str(exc)
    _error(command, message)
    return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
