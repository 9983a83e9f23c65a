import hashlib
import io
import tracemalloc

import numpy as np
import pytest

from quditkit import sampling
from quditkit.basis import cached_basis, cached_tensors
from quditkit.qudit import from_bloch, invariants, to_bloch
from quditkit.qutrit import (
    DiscriminantViolationError,
    FailFlag,
    RegionGrid,
    admissible,
    _conditions,
    boundaries_to_csv,
    region_csv_rows,
    region_scan,
    region_to_csv,
    spectrum,
)
from quditkit.sympoly import positivity_check


def cubic_roots_oracle(p2, Q):
    """Roots of x^3 - p2 x - 2Q/3 via the companion-matrix eigensolver."""
    return np.sort(np.roots([1.0, 0.0, -p2, -2.0 * Q / 3.0]).real)


def test_pure_corner_spectrum():
    s = spectrum(3.0, 3.0)
    assert abs(s.chi) < 1e-7
    assert np.allclose(sorted(s.roots), [-1.0, -1.0, 2.0], atol=1e-7)
    assert np.allclose(sorted(s.eigenvalues_rho), [0.0, 0.0, 1.0], atol=1e-7)


def test_unit_norm_zero_q_spectrum():
    s = spectrum(1.0, 0.0)
    assert abs(s.chi - np.pi / 2.0) < 1e-12
    assert np.allclose(sorted(s.roots), [-1.0, 0.0, 1.0], atol=1e-12)
    # oracle: solve x^3 - x = 0 directly
    assert np.allclose(sorted(s.roots), cubic_roots_oracle(1.0, 0.0), atol=1e-9)


def test_degenerate_origin():
    s = spectrum(0.0, 0.0)
    assert s.roots == (0.0, 0.0, 0.0)
    assert s.chi == 0.0
    assert np.allclose(s.eigenvalues_rho, [1 / 3] * 3)


def test_discriminant_violation_raises():
    with pytest.raises(DiscriminantViolationError):
        spectrum(0.5, -0.5)
    with pytest.raises(DiscriminantViolationError):
        spectrum(0.0, 0.4)


def test_clamp_within_slack():
    # cos(chi) = 1 + 5e-10 must clamp, not raise
    p2 = 3.0
    Q = (1.0 + 5e-10) * p2**1.5 / np.sqrt(3.0)
    s = spectrum(p2, Q)
    assert abs(s.chi) < 1e-4


def test_roots_match_eigensolver_on_random_states(rng):
    basis = cached_basis(3)
    tens = cached_tensors(3)
    worst = 0.0
    for _ in range(2000):
        rho = sampling.random_density_matrix(3, rng)
        st = from_bloch(3, to_bloch(rho, basis), basis)
        inv = invariants(st, tens)
        s = spectrum(inv.p2, inv.Q)
        eigs = np.sort(np.linalg.eigvalsh(3.0 * rho - np.eye(3)))
        worst = max(worst, np.abs(np.sort(s.roots) - eigs).max())
        x = np.array(s.roots)
        assert abs(x.sum()) < 1e-10
        assert abs(x[0] * x[1] + x[0] * x[2] + x[1] * x[2] + inv.p2) < 1e-10
        assert abs(np.prod(x) - 2.0 * inv.Q / 3.0) < 1e-10
    assert worst < 1e-9


def test_admissible_examples():
    ok, failed = admissible(3.0, 3.0)
    assert ok and not failed
    ok, failed = admissible(1.1, 0.0)
    assert not ok and FailFlag.CONDITION1 in failed
    ok, failed = admissible(3.0, -3.0)
    assert not ok and FailFlag.EIGEN_POSITIVITY in failed
    ok, failed = admissible(0.5, -0.3)
    assert not ok and FailFlag.DISCRIMINANT in failed
    ok, failed = admissible(3.5, 0.0)
    assert not ok and FailFlag.NORM_BOUND in failed


def test_admissible_negative_q_allowed():
    # Q can be negative: mild negative Q inside the region
    ok, failed = admissible(0.5, -0.1)
    assert ok, failed
    rho = np.diag(spectrum(0.5, -0.1).eigenvalues_rho)
    assert positivity_check(rho + 0j).psd


def test_admissible_matches_realized_positivity(rng):
    # ground truth: realize rho = diag((1 + x_i)/3) from the cubic roots
    for _ in range(400):
        p2 = float(rng.uniform(0.0, 3.2))
        Q = float(rng.uniform(-3.2, 3.2))
        verdict, _ = admissible(p2, Q)
        disc_ok = 3.0 * Q**2 <= p2**3 + 1e-9
        if not disc_ok:
            assert not verdict
            continue
        roots = cubic_roots_oracle(p2, Q)
        rho = np.diag((1.0 + roots) / 3.0).astype(complex)
        rho /= np.trace(rho).real
        psd = bool(np.linalg.eigvalsh(rho)[0] >= -1e-9)
        assert verdict == psd, (p2, Q)


def test_random_physical_qutrits_map_inside_region(rng):
    basis = cached_basis(3)
    tens = cached_tensors(3)
    for _ in range(500):
        rho = sampling.random_density_matrix(3, rng)
        st = from_bloch(3, to_bloch(rho, basis), basis)
        inv = invariants(st, tens)
        ok, failed = admissible(inv.p2, inv.Q)
        assert ok, (inv.p2, inv.Q, failed)


def test_region_scan_properties():
    grid = region_scan(128)
    # pure corner is the last cell on both axes
    assert grid.admissible[-1, -1]
    assert grid.fail_mask[-1, -1] == 0
    # every |P|^2 > 3 cell would be inadmissible; |P| axis stops at sqrt(3),
    # so check the norm-bound flag never fires inside the sampled box
    assert not (grid.fail_mask & FailFlag.NORM_BOUND).any()
    # Q = -3 at |P| = sqrt(3) is inadmissible via eigenvalue positivity
    assert not grid.admissible[-1, 0]
    assert grid.fail_mask[-1, 0] & FailFlag.EIGEN_POSITIVITY
    # admissible cells satisfy all three curve conditions
    P2, QQ = np.meshgrid(grid.p_values**2, grid.q_values, indexing="ij")
    adm = grid.admissible
    assert (P2[adm] <= 3.0 + 1e-9).all()
    assert ((2.0 / 3.0) * QQ[adm] >= P2[adm] - 1.0 - 1e-9).all()
    assert (3.0 * QQ[adm] ** 2 <= P2[adm] ** 3 + 1e-9).all()


def test_region_scan_rejects_tiny_resolution():
    with pytest.raises(ValueError):
        region_scan(1)


def test_region_q_zero_cut_is_unit_norm():
    grid = region_scan(256)
    j = int(np.argmin(np.abs(grid.q_values)))
    p_admissible = grid.p_values[grid.admissible[:, j]]
    step = grid.p_values[1] - grid.p_values[0]
    assert abs(p_admissible.max() - 1.0) <= 2 * step


def test_region_csv_schemas():
    grid = region_scan(8)
    csv = region_to_csv(grid)
    lines = csv.strip().split("\n")
    assert lines[0] == "P,Q,admissible,fail_mask"
    assert len(lines) == 1 + 64
    first = lines[1].split(",")
    assert len(first) == 4
    float(first[0]), float(first[1])
    bcsv = boundaries_to_csv(grid)
    assert bcsv.startswith("condition,P,Q\n")
    names = {line.split(",")[0] for line in bcsv.strip().split("\n")[1:]}
    assert names == {
        "norm_bound", "condition1", "discriminant_upper", "discriminant_lower"
    }


def region_to_csv_per_cell(grid):
    """Reference writer: one formatted row per cell."""
    buf = io.StringIO()
    buf.write("P,Q,admissible,fail_mask\n")
    for i, pv in enumerate(grid.p_values):
        for j, qv in enumerate(grid.q_values):
            buf.write(
                f"{float(pv)!r},{float(qv)!r},"
                f"{int(grid.admissible[i, j])},{int(grid.fail_mask[i, j])}\n"
            )
    return buf.getvalue()


def boundaries_to_csv_per_point(grid):
    """Reference writer: one formatted row per boundary sample."""
    buf = io.StringIO()
    buf.write("condition,P,Q\n")
    for name, curve in grid.boundaries.items():
        for pv, qv in curve:
            buf.write(f"{name},{float(pv)!r},{float(qv)!r}\n")
    return buf.getvalue()


def test_region_csv_bytes_match_per_cell_writer():
    grid = region_scan(512)
    for fast, reference in (
        (region_to_csv, region_to_csv_per_cell),
        (boundaries_to_csv, boundaries_to_csv_per_point),
    ):
        got = hashlib.sha256(fast(grid).encode()).hexdigest()
        assert got == hashlib.sha256(reference(grid).encode()).hexdigest()


def test_region_scan_blocks_match_full_grid():
    # 700 rows do not divide into whole blocks, so the last block is short
    grid = region_scan(700)
    P2, QQ = np.meshgrid(grid.p_values**2, grid.q_values, indexing="ij")
    ok_norm, ok_cond1, ok_disc, ok_eigen = _conditions(P2, QQ, 1e-9)
    assert (grid.admissible == (ok_norm & ok_cond1 & ok_disc & ok_eigen)).all()
    mask = (
        (~ok_norm) * FailFlag.NORM_BOUND
        + (~ok_cond1) * FailFlag.CONDITION1
        + (~ok_disc) * FailFlag.DISCRIMINANT
        + (ok_disc & ~ok_eigen) * FailFlag.EIGEN_POSITIVITY
    )
    assert grid.fail_mask.dtype == np.uint8
    assert (grid.fail_mask == mask).all()


def conditions_all_cells(p2, Q, tol):
    """Reference flags: the closed-form root on every cell, masked afterwards."""
    p2 = np.asarray(p2, dtype=float)
    Q = np.asarray(Q, dtype=float)
    ok_norm = p2 <= 3.0 + tol
    ok_cond1 = (2.0 / 3.0) * Q >= p2 - 1.0 - tol
    ok_disc = 3.0 * Q**2 <= p2**3 + tol
    pnorm = np.sqrt(p2)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_chi = np.where(pnorm > 0, np.sqrt(3.0) * Q / np.maximum(pnorm, 1e-30) ** 3, 1.0)
    chi = np.arccos(np.clip(cos_chi, -1.0, 1.0))
    scale = 2.0 * pnorm / np.sqrt(3.0)
    x_min = scale * (-0.5 * np.cos(chi / 3.0) - (np.sqrt(3.0) / 2.0) * np.sin(chi / 3.0))
    ok_eigen = np.where(ok_disc, 1.0 + x_min >= -tol, False)
    return ok_norm, ok_cond1, ok_disc, ok_eigen


@pytest.mark.parametrize("resolution", [700, 1024])
def test_region_scan_matches_all_cells_reference(resolution):
    grid = region_scan(resolution)
    P2, QQ = np.meshgrid(grid.p_values**2, grid.q_values, indexing="ij")
    ok_norm, ok_cond1, ok_disc, ok_eigen = conditions_all_cells(P2, QQ, 1e-9)
    mask = (
        (~ok_norm) * FailFlag.NORM_BOUND
        + (~ok_cond1) * FailFlag.CONDITION1
        + (~ok_disc) * FailFlag.DISCRIMINANT
        + (ok_disc & ~ok_eigen) * FailFlag.EIGEN_POSITIVITY
    )
    assert (grid.admissible == (ok_norm & ok_cond1 & ok_disc & ok_eigen)).all()
    assert (grid.fail_mask == mask).all()


def test_admissible_matches_all_cells_reference(rng):
    p2 = rng.uniform(0.0, 3.2, 10_000)
    Q = rng.uniform(-3.2, 3.2, 10_000)
    # the discriminant boundary Q = +-|P|^3/sqrt(3), and the p2 = 0 and p2 = 3 edges
    edge_p2 = np.concatenate([np.linspace(0.0, 3.2, 161), [1e-12, 1e-6, 1.0, 3.0]])
    edge_q = np.sqrt(edge_p2) ** 3 / np.sqrt(3.0)
    small_q = np.array([0.0, 1e-12, 1e-6, 1e-5, 1e-4, 0.5, 3.0])
    # the smallest root is -1 on Q = 1.5 (p2 - 1), from the tangent point p2 = 3/4
    # to the pure corner; step just below it across the tolerance
    line_p2, offset = np.meshgrid(
        np.linspace(0.75, 3.0, 46), [0.0, 1e-10, 1e-9, 3e-9, 1e-8, 1e-7, 1e-6, 1e-5]
    )
    line_p2, line_q = line_p2.ravel(), 1.5 * (line_p2.ravel() - 1.0) - offset.ravel()
    p2 = np.concatenate([p2, edge_p2, edge_p2, np.zeros(14), np.full(14, 3.0), line_p2])
    Q = np.concatenate([Q, edge_q, -edge_q, small_q, -small_q, small_q, -small_q, line_q])
    flags = conditions_all_cells(p2, Q, 1e-9)
    for i, (pv, qv) in enumerate(zip(p2.tolist(), Q.tolist())):
        ok_norm, ok_cond1, ok_disc, ok_eigen = (bool(f[i]) for f in flags)
        expected = [
            flag
            for flag, failed in (
                (FailFlag.NORM_BOUND, not ok_norm),
                (FailFlag.CONDITION1, not ok_cond1),
                (FailFlag.DISCRIMINANT, not ok_disc),
                (FailFlag.EIGEN_POSITIVITY, ok_disc and not ok_eigen),
            )
            if failed
        ]
        assert admissible(pv, qv) == (not expected, expected), (pv, qv)


def test_region_csv_rows_all_codes_alternating():
    # every one of the 512 (admissible, fail_mask) codes, a new code at every
    # cell, plus one row with a single long run; the per-cell writer is the oracle
    rows, cols = 9, 64
    codes = np.full((rows, cols), 300)
    codes[:-1] = (5 * np.arange(512)).reshape(8, cols) % 512
    assert len(np.unique(codes)) == 512
    assert (codes[:-1, 1:] != codes[:-1, :-1]).all()
    q_values = np.linspace(-1.0, 1.0, cols)
    q_values[[0, 1, 2]] = [-0.0, 1e-300, -2.5e17]
    zero = np.zeros(4)
    grid = RegionGrid(
        p_values=np.linspace(0.0, 1.7, rows),
        q_values=q_values,
        admissible=(codes >> 8).astype(bool),
        fail_mask=(codes & 0xFF).astype(np.uint8),
        # shared columns, and columns equal in value but not in sign
        boundaries={
            "a": np.column_stack([zero, -zero]),
            "b": np.column_stack([-zero, zero]),
            "c": np.column_stack([zero, np.arange(4.0)]),
        },
    )
    assert region_to_csv(grid) == region_to_csv_per_cell(grid)
    assert boundaries_to_csv(grid) == boundaries_to_csv_per_point(grid)


def test_region_scan_and_csv_rows_memory_at_1024():
    # the full-grid scan peaks at 79 MB and the joined CSV string at 100 MB
    tracemalloc.start()
    try:
        grid = region_scan(1024)
        rows = 0
        for chunk in region_csv_rows(grid):
            rows += chunk.count("\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows == 1 + 1024 * 1024
    assert peak < 16 * 2**20


def test_region_scan_refuses_grid_beyond_memory_budget():
    # two one-byte 20000 x 20000 arrays would take 763 MiB; refused before allocating
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="DENSE_VIEW_MAX_BYTES"):
            region_scan(20000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("func", [admissible, spectrum], ids=["admissible", "spectrum"])
@pytest.mark.parametrize(
    "p2, Q",
    [(np.nan, 0.0), (0.5, np.nan), (np.inf, 0.0), (0.5, -np.inf), (-np.inf, 0.0)],
    ids=["nan-p2", "nan-Q", "inf-p2", "-inf-Q", "-inf-p2"],
)
def test_non_finite_invariants_refused(func, p2, Q):
    with pytest.raises(ValueError, match="finite"):
        func(p2, Q)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "p2, Q, expected",
    [
        (1e200, 0.0, [FailFlag.NORM_BOUND, FailFlag.CONDITION1, FailFlag.EIGEN_POSITIVITY]),
        (1.0, 1e200, [FailFlag.DISCRIMINANT]),
        # 3 Q^2 = 3e310 and |P|^6 = 1e309 both overflow; the discriminant fails
        (1e103, 1e155, [FailFlag.NORM_BOUND, FailFlag.DISCRIMINANT]),
        # 3e320 and 1e600 both overflow; the discriminant holds
        (1e200, 1e160, [FailFlag.NORM_BOUND, FailFlag.CONDITION1, FailFlag.EIGEN_POSITIVITY]),
    ],
    ids=["huge-p2", "huge-Q", "both-overflow-violated", "both-overflow-held"],
)
def test_huge_finite_invariants_get_a_verdict_without_warnings(p2, Q, expected):
    assert admissible(p2, Q) == (False, expected)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_spectrum_of_huge_p2_without_warnings():
    # |P|^3 = 1e450 overflows: cos(chi) = Q / inf = 0, its limit
    s = spectrum(1e300, 0.0)
    assert s.chi == np.pi / 2
    # the roots are -|P|, 0 and |P|, up to roundoff on the scale of |P|
    assert np.allclose(s.roots, (-1e150, 0.0, 1e150), rtol=1e-15, atol=1e135)
