"""Qudit density matrices in the generalized Gell-Mann basis.

Importing the package loads none of its modules: each public name below is
imported from its home module on first access (PEP 562), so a command that
uses only the generators never compiles the two-qudit or qutrit code.
"""

__version__ = "0.1.0"

# home module -> the public names the package re-exports from it
_EXPORTS = {
    "basis": (
        "DEFAULT_TOL",
        "AdjointMatrix",
        "GellMannBasis",
        "StructureTensors",
        "adjoint_of",
        "cached_basis",
        "cached_tensors",
        "compute_tensors",
        "generate_basis",
        "verify_ff_dd_identity",
        "verify_product_rule",
    ),
    "bipartite": (
        "BipartiteState",
        "WernerState",
        "from_components",
        "purity_residuals_qubit",
        "purity_residuals_qudit",
        "reduced_states",
        "to_components",
        "werner",
        "werner_consistency",
        "werner_positivity_scan",
        "z_matrix",
    ),
    "qudit": (
        "InvariantSet",
        "QuditState",
        "UnphysicalStateError",
        "entropy",
        "from_bloch",
        "invariants",
        "purity_residuals",
        "to_bloch",
        "transform",
    ),
    "qutrit": ("DiscriminantViolationError", "admissible", "region_scan", "spectrum"),
    "sympoly": (
        "SymPolyReport",
        "elementary_from_power",
        "positivity_check",
        "power_sums",
        "trace_powers_from_traceless",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# `from quditkit import *` binds the public names and their home modules
__all__ = [*_EXPORTS, *_HOME]


def __getattr__(name: str):
    """Import a public name, or one of the home modules, on first use and cache it."""
    import importlib

    module = _HOME.get(name, name if name in _EXPORTS else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
