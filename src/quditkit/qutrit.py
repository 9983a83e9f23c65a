"""Closed-form qutrit spectra and the admissible (|P|, Q) region.

For N = 3 the traceless part A = P_a L_a of rho = (1 + A)/3 has the
characteristic cubic  x^3 - |P|^2 x - (2/3) Q = 0, solved in trigonometric
form with cos(chi) = sqrt(3) Q / |P|^3.  A state is physical exactly when
the cubic has three real roots with 1 + x_i >= 0.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .basis import DEFAULT_TOL

# cos(chi) may poke out of [-1, 1] by roundoff; clamp only this far
CLAMP_SLACK = 1e-9

P_MAX = np.sqrt(3.0)   # |P| bound for a qutrit
Q_MIN, Q_MAX = -3.0, 3.0

# region_scan evaluates its grid in blocks of whole rows, about this many cells
_BLOCK_CELLS = 1 << 16


class DiscriminantViolationError(ValueError):
    """3 Q^2 > |P|^6 beyond tolerance: the cubic has complex roots."""


class FailFlag(enum.IntFlag):
    """Bit flags naming the condition(s) an inadmissible cell violates."""

    NONE = 0
    NORM_BOUND = 1       # |P|^2 <= 3
    CONDITION1 = 2       # (2/3) Q >= |P|^2 - 1
    DISCRIMINANT = 4     # 3 Q^2 <= |P|^6
    EIGEN_POSITIVITY = 8  # all (1 + x_i) >= 0


@dataclass(frozen=True)
class QutritSpectrum:
    roots: tuple[float, float, float]   # eigenvalues of A, ordering of the closed form
    chi: float                          # angle in [0, pi]; 0 when |P| = 0
    eigenvalues_rho: tuple[float, float, float]


@dataclass(frozen=True, eq=False)
class RegionGrid:
    """Admissibility verdicts on a (|P|, Q) grid plus analytic boundary curves."""

    p_values: np.ndarray       # sampled |P| in [0, sqrt(3)]
    q_values: np.ndarray       # sampled Q in [-3, 3]
    admissible: np.ndarray     # bool, shape (len(p_values), len(q_values))
    fail_mask: np.ndarray      # uint8 bit flags, same shape
    boundaries: dict[str, np.ndarray]  # name -> array of (|P|, Q) samples


def spectrum(p2: float, Q: float, tol: float = DEFAULT_TOL) -> QutritSpectrum:
    """Roots of x^3 - p2 x - (2/3) Q = 0 in closed trigonometric form.

    |P| = 0 degenerates to the triple root 0 (chi reported as 0).  Raises
    DiscriminantViolationError when sqrt(3)|Q|/|P|^3 exceeds 1 beyond the
    clamping slack.
    """
    if p2 < 0:
        raise ValueError(f"|P|^2 must be >= 0, got {p2}")
    if p2 == 0.0:
        if abs(Q) > tol:
            raise DiscriminantViolationError(f"|P| = 0 forces Q = 0, got Q={Q}")
        return QutritSpectrum(
            roots=(0.0, 0.0, 0.0), chi=0.0, eigenvalues_rho=(1 / 3.0, 1 / 3.0, 1 / 3.0)
        )
    pnorm = np.sqrt(p2)
    cos_chi = np.sqrt(3.0) * Q / pnorm**3
    if abs(cos_chi) > 1.0 + CLAMP_SLACK:
        raise DiscriminantViolationError(
            f"sqrt(3) Q / |P|^3 = {cos_chi:.6g} lies outside [-1, 1]: no real spectrum"
        )
    chi = float(np.arccos(np.clip(cos_chi, -1.0, 1.0)))
    scale = 2.0 * pnorm / np.sqrt(3.0)
    c = np.cos(chi / 3.0)
    s = np.sin(chi / 3.0)
    x1 = scale * (-0.5 * c - (np.sqrt(3.0) / 2.0) * s)
    x2 = scale * (-0.5 * c + (np.sqrt(3.0) / 2.0) * s)
    x3 = scale * c
    roots = (float(x1), float(x2), float(x3))
    return QutritSpectrum(
        roots=roots, chi=chi, eigenvalues_rho=tuple((1.0 + x) / 3.0 for x in roots)
    )


def _conditions(
    p2: np.ndarray, Q: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized per-condition pass flags (norm, condition1, discriminant, eigen)."""
    p2 = np.asarray(p2, dtype=float)
    Q = np.asarray(Q, dtype=float)
    ok_norm = p2 <= 3.0 + tol
    ok_cond1 = (2.0 / 3.0) * Q >= p2 - 1.0 - tol
    ok_disc = 3.0 * Q**2 <= p2**3 + tol
    # smallest root where the spectrum is real; x3 = scale*cos(chi/3) is the
    # largest, the minimum is x1
    pnorm = np.sqrt(p2)
    # the floor only guards the discarded pnorm = 0 branch of the where
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_chi = np.where(pnorm > 0, np.sqrt(3.0) * Q / np.maximum(pnorm, 1e-30) ** 3, 1.0)
    chi = np.arccos(np.clip(cos_chi, -1.0, 1.0))
    scale = 2.0 * pnorm / np.sqrt(3.0)
    x_min = scale * (-0.5 * np.cos(chi / 3.0) - (np.sqrt(3.0) / 2.0) * np.sin(chi / 3.0))
    ok_eigen = np.where(ok_disc, 1.0 + x_min >= -tol, False)
    return ok_norm, ok_cond1, ok_disc, ok_eigen


def admissible(p2: float, Q: float, tol: float = DEFAULT_TOL) -> tuple[bool, list[FailFlag]]:
    """Physicality verdict for the invariant pair, with the failed conditions."""
    if p2 < 0:
        raise ValueError(f"|P|^2 must be >= 0, got {p2}")
    ok_norm, ok_cond1, ok_disc, ok_eigen = (
        bool(v[0]) for v in _conditions(np.array([p2]), np.array([Q]), tol)
    )
    failed = []
    if not ok_norm:
        failed.append(FailFlag.NORM_BOUND)
    if not ok_cond1:
        failed.append(FailFlag.CONDITION1)
    if not ok_disc:
        failed.append(FailFlag.DISCRIMINANT)
    elif not ok_eigen:
        # only meaningful once the spectrum is real
        failed.append(FailFlag.EIGEN_POSITIVITY)
    return (not failed), failed


def region_scan(resolution: int = 512, tol: float = DEFAULT_TOL) -> RegionGrid:
    """Admissibility grid over |P| in [0, sqrt(3)], Q in [-3, 3].

    The conditions are evaluated on blocks of about _BLOCK_CELLS cells (whole
    rows of fixed |P|), so the float temporaries stay bounded whatever the
    resolution; each cell gets the same verdict as on the full grid.
    """
    if resolution < 2:
        raise ValueError("resolution must be >= 2 per axis")
    p_values = np.linspace(0.0, P_MAX, resolution)
    q_values = np.linspace(Q_MIN, Q_MAX, resolution)
    p2 = p_values**2
    adm = np.empty((resolution, resolution), dtype=bool)
    fail_mask = np.empty((resolution, resolution), dtype=np.uint8)
    rows = max(1, _BLOCK_CELLS // resolution)
    for lo in range(0, resolution, rows):
        P2, QQ = np.meshgrid(p2[lo:lo + rows], q_values, indexing="ij")
        ok_norm, ok_cond1, ok_disc, ok_eigen = _conditions(P2, QQ, tol)
        fail_mask[lo:lo + rows] = (
            (~ok_norm).astype(np.uint8) * FailFlag.NORM_BOUND
            + (~ok_cond1).astype(np.uint8) * FailFlag.CONDITION1
            + (~ok_disc).astype(np.uint8) * FailFlag.DISCRIMINANT
            + (ok_disc & ~ok_eigen).astype(np.uint8) * FailFlag.EIGEN_POSITIVITY
        )
        adm[lo:lo + rows] = ok_norm & ok_cond1 & ok_disc & ok_eigen

    ps = np.linspace(0.0, P_MAX, 4 * resolution)
    qs = np.linspace(Q_MIN, Q_MAX, 4 * resolution)
    boundaries = {
        "norm_bound": np.column_stack([np.full_like(qs, P_MAX), qs]),
        "condition1": np.column_stack([ps, 1.5 * (ps**2 - 1.0)]),
        "discriminant_upper": np.column_stack([ps, ps**3 / np.sqrt(3.0)]),
        "discriminant_lower": np.column_stack([ps, -(ps**3) / np.sqrt(3.0)]),
    }
    return RegionGrid(
        p_values=p_values,
        q_values=q_values,
        admissible=adm,
        fail_mask=fail_mask,
        boundaries=boundaries,
    )


def region_csv_rows(grid: RegionGrid) -> Iterator[str]:
    """Cell table with columns |P|, Q, admissible(0/1), fail_mask, by rows.

    Yields the header and then one string per |P| row.  Each coordinate is formatted once with repr(float), and each
    "admissible,fail_mask" tail is looked up by its code.
    """
    q_cells = [f"{q!r}," for q in grid.q_values.tolist()]
    tails = [f"{adm},{mask}\n" for adm in (0, 1) for mask in range(256)]
    yield "P,Q,admissible,fail_mask\n"
    for p, adm, mask in zip(grid.p_values.tolist(), grid.admissible, grid.fail_mask):
        head = f"{p!r},"
        codes = ((adm.astype(np.intp) << 8) | mask).tolist()
        yield "".join([head + q + tails[code] for q, code in zip(q_cells, codes)])


def region_to_csv(grid: RegionGrid) -> str:
    """The whole region_csv_rows table as one string."""
    return "".join(region_csv_rows(grid))


def boundaries_to_csv(grid: RegionGrid) -> str:
    """Analytic boundary curve samples, one labelled row per point."""
    rows = ["condition,P,Q\n"]
    for name, curve in grid.boundaries.items():
        rows.append("".join([f"{name},{p!r},{q!r}\n" for p, q in curve.tolist()]))
    return "".join(rows)
