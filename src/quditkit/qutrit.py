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

from .basis import DEFAULT_TOL, require_budget

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


def _require_invariants(p2: float, Q: float) -> None:
    if not np.isfinite((p2, Q)).all():
        raise ValueError(f"|P|^2 and Q must be finite, got {p2!r} and {Q!r}")
    if p2 < 0:
        raise ValueError(f"|P|^2 must be >= 0, got {p2}")


def spectrum(p2: float, Q: float) -> QutritSpectrum:
    """Roots of x^3 - p2 x - (2/3) Q = 0 in closed trigonometric form.

    |P| = 0 degenerates to the triple root 0 (chi reported as 0).  Raises
    ValueError for NaN, infinite or negative input, and
    DiscriminantViolationError when sqrt(3)|Q|/|P|^3 exceeds 1 beyond the
    clamping slack, or when |P| = 0 and |Q| > DEFAULT_TOL.
    """
    _require_invariants(p2, Q)
    if p2 == 0.0:
        if abs(Q) > DEFAULT_TOL:
            raise DiscriminantViolationError(f"|P| = 0 forces Q = 0, got Q={Q}")
        return QutritSpectrum(
            roots=(0.0, 0.0, 0.0), chi=0.0, eigenvalues_rho=(1 / 3.0, 1 / 3.0, 1 / 3.0)
        )
    pnorm = np.sqrt(p2)
    # |P|^3 overflows above p2 ~ 1e205; Q / inf = 0 is then the right limit
    with np.errstate(over="ignore"):
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
    """Vectorized per-condition pass flags (norm, condition1, discriminant, eigen).

    p2 and Q broadcast against each other; each flag has the shape of the
    operation that decides it.  The eigenvalue flag is False wherever the
    discriminant fails, and the trigonometric root is evaluated only on the
    cells where the spectrum is real.
    """
    p2 = np.asarray(p2, dtype=float)
    Q = np.asarray(Q, dtype=float)
    ok_norm = p2 <= 3.0 + tol
    ok_cond1 = (2.0 / 3.0) * Q >= p2 - 1.0 - tol
    three_q2, p6 = 3.0 * Q**2, p2**3
    ok_disc = three_q2 <= p6 + tol
    both = np.isinf(three_q2) & np.isinf(p6)
    if both.any():
        # inf <= inf would pass: where both sides overflow, compare logarithms
        q_big, p2_big = (np.broadcast_to(a, both.shape)[both] for a in (Q, p2))
        ok_disc[both] = np.log(3.0) + 2.0 * np.log(np.abs(q_big)) <= 3.0 * np.log(p2_big)
    p2_real, q_real = (np.broadcast_to(a, ok_disc.shape)[ok_disc] for a in (p2, Q))
    # smallest root where the spectrum is real; x3 = scale*cos(chi/3) is the
    # largest, the minimum is x1
    pnorm = np.sqrt(p2_real)
    # the floor only guards the discarded pnorm = 0 branch of the where
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_chi = np.where(
            pnorm > 0, np.sqrt(3.0) * q_real / np.maximum(pnorm, 1e-30) ** 3, 1.0
        )
    third = np.arccos(np.clip(cos_chi, -1.0, 1.0)) / 3.0
    scale = 2.0 * pnorm / np.sqrt(3.0)
    x_min = scale * (-0.5 * np.cos(third) - (np.sqrt(3.0) / 2.0) * np.sin(third))
    ok_eigen = np.zeros(ok_disc.shape, dtype=bool)
    ok_eigen[ok_disc] = 1.0 + x_min >= -tol
    return ok_norm, ok_cond1, ok_disc, ok_eigen


def _fail_mask(ok_norm, ok_cond1, ok_disc, ok_eigen) -> np.ndarray:
    """uint8 FailFlag bits; EIGEN_POSITIVITY only where the spectrum is real (ok_disc)."""
    return (
        (~ok_norm).astype(np.uint8) * FailFlag.NORM_BOUND
        + (~ok_cond1).astype(np.uint8) * FailFlag.CONDITION1
        + (~ok_disc).astype(np.uint8) * FailFlag.DISCRIMINANT
        + (ok_disc & ~ok_eigen).astype(np.uint8) * FailFlag.EIGEN_POSITIVITY
    )


def admissible(p2: float, Q: float) -> tuple[bool, list[FailFlag]]:
    """Physicality verdict for the invariant pair, with the failed conditions.

    The conditions are region_scan's at tol = DEFAULT_TOL.  Raises
    ValueError for NaN, infinite or negative input.  A huge finite pair may
    overflow to inf inside the conditions, without a warning; where both
    3 Q^2 and |P|^6 overflow, the discriminant compares their logarithms.
    """
    _require_invariants(p2, Q)
    with np.errstate(over="ignore"):
        mask = int(_fail_mask(*_conditions(np.array([p2]), np.array([Q]), DEFAULT_TOL))[0])
    # written out, as iterating FailFlag on Python 3.10 also yields NONE
    order = (FailFlag.NORM_BOUND, FailFlag.CONDITION1, FailFlag.DISCRIMINANT,
             FailFlag.EIGEN_POSITIVITY)
    failed = [flag for flag in order if mask & flag]
    return (not failed), failed


def region_scan(resolution: int = 512, tol: float = DEFAULT_TOL) -> RegionGrid:
    """Admissibility grid over |P| in [0, sqrt(3)], Q in [-3, 3].

    The conditions are evaluated on blocks of about _BLOCK_CELLS cells (whole
    rows of fixed |P|), so the float temporaries stay bounded whatever the
    resolution; each cell gets the same verdict as on the full grid.  The
    two one-byte R x R result arrays are refused with ValueError, before
    anything is allocated, above DENSE_VIEW_MAX_BYTES (so R <= 11585).
    """
    if resolution < 2:
        raise ValueError("resolution must be >= 2 per axis")
    require_budget(f"a {resolution} x {resolution} region grid", 2 * resolution * resolution)
    p_values = np.linspace(0.0, P_MAX, resolution)
    q_values = np.linspace(Q_MIN, Q_MAX, resolution)
    p2 = p_values**2
    fail_mask = np.empty((resolution, resolution), dtype=np.uint8)
    rows = max(1, _BLOCK_CELLS // resolution)
    for lo in range(0, resolution, rows):
        fail_mask[lo:lo + rows] = _fail_mask(*_conditions(p2[lo:lo + rows, None], q_values, tol))

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
        admissible=fail_mask == 0,
        fail_mask=fail_mask,
        boundaries=boundaries,
    )


def region_csv_rows(grid: RegionGrid) -> Iterator[str]:
    """Cell table with columns |P|, Q, admissible(0/1), fail_mask, by rows.

    Yields the header and then one string per |P| row.  A cell reads
    head + q_j + tail[code], where head is the row's "|P|," and code is
    admissible << 8 | fail_mask, so a row is head + head.join(cells).  The
    code is constant over runs of cells: for each code that occurs (four on
    a region_scan grid, at most 512) the strings q_j + tail[code] are built
    once for every j, and each row joins the slices its runs select.
    """
    q_cells = [f"{q!r}," for q in grid.q_values.tolist()]
    tails = [f"{adm},{mask}\n" for adm in (0, 1) for mask in range(256)]
    cells_by_code: dict[int, list[str]] = {}
    yield "P,Q,admissible,fail_mask\n"
    for p, adm, mask in zip(grid.p_values.tolist(), grid.admissible, grid.fail_mask):
        head = f"{p!r},"
        change = (adm[1:] != adm[:-1]) | (mask[1:] != mask[:-1])
        starts = [0, *(np.flatnonzero(change) + 1).tolist()]
        cells = []
        for lo, hi in zip(starts, starts[1:] + [len(mask)]):
            code = 256 * bool(adm[lo]) + int(mask[lo])
            run = cells_by_code.get(code)
            if run is None:
                run = cells_by_code[code] = [q + tails[code] for q in q_cells]
            cells += run[lo:hi]
        yield head + head.join(cells)


def region_to_csv(grid: RegionGrid) -> str:
    """The whole region_csv_rows table as one string."""
    return "".join(region_csv_rows(grid))


def boundaries_to_csv(grid: RegionGrid) -> str:
    """Analytic boundary curve samples, one labelled row per point.

    Each distinct column is formatted once (three of the region_scan curves
    share their |P| column), since repr(float) dominates the cost.
    """
    formatted: dict[bytes, list[str]] = {}

    def cells(column: np.ndarray) -> list[str]:
        key = column.tobytes()
        if key not in formatted:
            formatted[key] = [repr(v) for v in column.tolist()]
        return formatted[key]

    rows = ["condition,P,Q\n"]
    for name, curve in grid.boundaries.items():
        pairs = zip(cells(curve[:, 0]), cells(curve[:, 1]))
        rows.append("".join([f"{name},{p},{q}\n" for p, q in pairs]))
    return "".join(rows)
