"""Power sums and elementary symmetric polynomials of density-matrix spectra.

A Hermitian unit-trace matrix is positive semidefinite exactly when all the
elementary symmetric polynomials e_1..e_N of its eigenvalues are
non-negative, which gives a positivity test that never diagonalizes.  The
e_k are obtained from the power sums p_k = Tr(rho^k) through Newton's
recursion  k e_k = sum_{i=1..k} (-1)^(i-1) e_{k-i} p_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .basis import DEFAULT_TOL


@dataclass(frozen=True)
class SymPolyReport:
    """Spectral symmetric-function report for one Hermitian unit-trace matrix."""

    dim: int
    power_sums: tuple[float, ...]   # p_1..p_dim
    elementary: tuple[float, ...]   # e_1..e_dim
    psd: bool
    min_eigenvalue: float
    eig_psd: bool

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "power_sums": list(self.power_sums),
            "elementary": list(self.elementary),
            "psd": self.psd,
            "min_eigenvalue": self.min_eigenvalue,
        }


def require_hermitian(M: np.ndarray) -> np.ndarray:
    """M as a complex array, checked square and Hermitian within DEFAULT_TOL."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    dev = float(np.abs(M - M.conj().T).max())
    if dev > DEFAULT_TOL:
        raise ValueError(f"matrix is not Hermitian: deviation {dev:.3e} > {DEFAULT_TOL:.3e}")
    return M


def require_density(rho: np.ndarray, shape: tuple[int, int] | None = None) -> np.ndarray:
    """rho as a complex array, Hermitian and unit-trace within DEFAULT_TOL, of shape if given."""
    rho = require_hermitian(rho)
    if shape is not None and rho.shape != shape:
        raise ValueError(f"matrix is {rho.shape}, expected {shape}")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > DEFAULT_TOL:
        raise ValueError(f"trace must be 1, got {tr!r}")
    return rho


def power_sums(M: np.ndarray, K: int) -> list[float]:
    """p_k = Tr(M^k) for k = 1..K, by repeated multiplication."""
    if K < 1:
        raise ValueError("K must be >= 1")
    M = require_hermitian(M)
    out = []
    P = M.copy()
    for _ in range(K):
        out.append(float(np.trace(P).real))
        P = P @ M
    return out


def elementary_from_power(p: list[float] | np.ndarray) -> list[float]:
    """e_1..e_K from p_1..p_K via Newton's recursion (e_0 = 1)."""
    p = list(p)
    e = [1.0]
    for k in range(1, len(p) + 1):
        s = 0.0
        for i in range(1, k + 1):
            s += (-1) ** (i - 1) * e[k - i] * p[i - 1]
        e.append(s / k)
    return e[1:]


def positivity_check(rho: np.ndarray, tol: float = DEFAULT_TOL) -> SymPolyReport:
    """PSD verdict from e_k >= 0, cross-checked against the spectrum.

    ``tol`` is the verdict tolerance: psd means e_k >= -tol for every k,
    and the spectrum verdict means lambda_min >= -tol.  The input checks
    (Hermitian, Tr rho = 1) use DEFAULT_TOL, whatever ``tol`` is.  The two
    verdicts must agree; a disagreement raises ArithmeticError (numerical
    breakdown).
    """
    rho = require_density(rho)
    n = rho.shape[0]
    p = power_sums(rho, n)
    e = elementary_from_power(p)
    psd = all(ek >= -tol for ek in e)
    min_eig = float(np.linalg.eigvalsh(rho)[0])
    eig_psd = min_eig >= -tol
    if psd != eig_psd:
        raise ArithmeticError(
            f"positivity verdicts disagree: e_k -> {psd}, spectrum -> {eig_psd} "
            f"(min eigenvalue {min_eig:.3e})"
        )
    return SymPolyReport(
        dim=n,
        power_sums=tuple(p),
        elementary=tuple(e),
        psd=psd,
        min_eigenvalue=min_eig,
        eig_psd=eig_psd,
    )


def trace_powers_from_traceless(a_traces: list[float] | np.ndarray, N: int, k: int) -> float:
    """Tr rho^k for rho = (1 + A)/N from the traces Tr A^m, m = 0..k.

    Binomial expansion: Tr rho^k = N^-k sum_m C(k, m) Tr A^m.  Requires
    Tr A^0 = N and Tr A = 0, each within DEFAULT_TOL.
    """
    a_traces = list(a_traces)
    if len(a_traces) < k + 1:
        raise ValueError(f"need Tr A^0..Tr A^{k}, got {len(a_traces)} values")
    if abs(a_traces[0] - N) > DEFAULT_TOL:
        raise ValueError(f"Tr A^0 must equal N={N}, got {a_traces[0]!r}")
    if abs(a_traces[1]) > DEFAULT_TOL:
        raise ValueError(f"A must be traceless, got Tr A = {a_traces[1]!r}")
    return sum(comb(k, m) * a_traces[m] for m in range(k + 1)) / N**k
