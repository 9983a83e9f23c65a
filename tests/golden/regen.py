"""Rewrite the golden CLI outputs kept beside this script.

Each line of LINES runs through ``quditkit.cli.main`` in-process with
``--output`` set to its first file, in this directory; ``qutrit-region``
also writes its ``_boundaries`` file.  No BLAS or LAPACK call touches these
outputs, so ``tests/test_golden.py`` compares them byte for byte.  A change
that moves these bytes reruns this script and names the moved files in
CHANGES.md.  From the repository root:

    PYTHONPATH=src python tests/golden/regen.py
"""

from __future__ import annotations

import sys
from pathlib import Path

from quditkit.cli import main

GOLDEN = Path(__file__).resolve().parent

# (command line without --output, the files it writes: the --output file first)
LINES: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...] = (
    (("basis", "--N", "2"), ("basis_N2.json",)),
    (("basis", "--N", "3"), ("basis_N3.json",)),
    (("tensors", "--N", "2"), ("tensors_N2.json",)),
    (("tensors", "--N", "3"), ("tensors_N3.json",)),
    (("tensors", "--N", "5"), ("tensors_N5.json",)),
    (("verify-su4",), ("verify_su4.json",)),
    (("qutrit-region", "--resolution", "32"),
     ("qutrit_region_r32.csv", "qutrit_region_r32_boundaries.csv")),
)


def run(argv: tuple[str, ...], outputs: tuple[str, ...], directory: Path) -> int:
    """Run one line with its output file in directory; returns the exit status."""
    return main([*argv, "--output", str(directory / outputs[0])])


if __name__ == "__main__":
    for argv, outputs in LINES:
        if run(argv, outputs, GOLDEN) != 0:
            sys.exit(f"quditkit {' '.join(argv)} failed")
        print(" ".join(outputs))
