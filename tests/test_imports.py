"""The package namespace loads lazily, and each subcommand loads only its modules."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quditkit

SRC = Path(__file__).resolve().parents[1] / "src"

# the 40 package-level names, by home module
PUBLIC = {
    "basis": [
        "DEFAULT_TOL", "AdjointMatrix", "GellMannBasis", "StructureTensors", "adjoint_of",
        "cached_basis", "cached_tensors", "compute_tensors", "generate_basis",
        "verify_ff_dd_identity", "verify_product_rule",
    ],
    "bipartite": [
        "BipartiteState", "WernerState", "from_components", "purity_residuals_qubit",
        "purity_residuals_qudit", "reduced_states", "to_components", "werner",
        "werner_consistency", "werner_positivity_scan", "z_matrix",
    ],
    "qudit": [
        "InvariantSet", "QuditState", "UnphysicalStateError", "entropy", "from_bloch",
        "invariants", "purity_residuals", "to_bloch", "transform",
    ],
    "qutrit": ["DiscriminantViolationError", "admissible", "region_scan", "spectrum"],
    "sympoly": [
        "SymPolyReport", "elementary_from_power", "positivity_check", "power_sums",
        "trace_powers_from_traceless",
    ],
}

# quditkit modules loaded besides quditkit, quditkit.cli and quditkit.basis
SUBCOMMAND_MODULES = {
    ("basis", "--N", "2"): [],
    ("tensors", "--N", "2"): [],
    ("check", "state.json"): ["sympoly", "qudit"],
    ("entropy", "state.json"): ["sympoly", "qudit"],
    ("qutrit-region", "--resolution", "4"): ["qutrit"],
    ("werner", "--N", "2", "--steps", "3"): ["sympoly", "qudit", "bipartite"],
    ("convert", "pair.json"): ["sympoly", "qudit", "bipartite", "su4"],
    ("verify-su4",): ["su4"],
    ("random", "--N", "2"): ["sympoly", "qudit", "sampling"],
}


def loaded_modules(tmp_path, code, *argv):
    """The quditkit modules in sys.modules after running code in a fresh interpreter."""
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    report = ("\nimport json, sys\n"
              "print(json.dumps([m for m in sys.modules if m.startswith('quditkit')]))")
    proc = subprocess.run(
        [sys.executable, "-c", code + report, *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_bare_import_loads_no_submodule(tmp_path):
    assert loaded_modules(tmp_path, "import quditkit") == {"quditkit"}


@pytest.mark.parametrize("argv", list(SUBCOMMAND_MODULES), ids=lambda argv: argv[0])
def test_subcommand_loads_only_its_modules(tmp_path, argv):
    (tmp_path / "state.json").write_text(json.dumps({"N": 3, "bloch": [0.0] * 8}))
    zeros = [0.0] * 3
    (tmp_path / "pair.json").write_text(
        json.dumps({"N": 2, "x": zeros, "y": zeros, "omega": [zeros] * 3}))
    code = ("import contextlib, io, sys\nfrom quditkit.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(sys.argv[1:]) == 0\n")
    expected = {"quditkit", "quditkit.cli", "quditkit.basis"}
    expected |= {f"quditkit.{m}" for m in SUBCOMMAND_MODULES[argv]}
    assert loaded_modules(tmp_path, code, *argv) == expected


def test_package_names_resolve_to_their_home_modules():
    names = dir(quditkit)
    for home, public in PUBLIC.items():
        module = getattr(quditkit, home)
        assert module.__name__ == f"quditkit.{home}" and home in names
        for name in public:
            assert getattr(quditkit, name) is getattr(module, name), name
            assert name in names
    assert set(quditkit.__all__) == {*PUBLIC, *(n for public in PUBLIC.values() for n in public)}
    assert isinstance(quditkit.__version__, str)
    with pytest.raises(AttributeError, match="nope"):
        quditkit.nope
