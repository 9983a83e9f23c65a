"""Reference computations that share no code with quditkit.

The generators are rebuilt here from the documented convention (symmetric
off-diagonal, antisymmetric, diagonal; Tr(L_a L_b) = 2 delta_ab), so that
Bloch vectors, components and tensors can be checked against values the
code under test did not produce.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

PSD_TOL = 1e-9
PURE_TOL = 1e-8


@lru_cache(maxsize=None)
def generators(N: int) -> np.ndarray:
    pairs = [(j, k) for j in range(N) for k in range(j + 1, N)]
    n = N * N - 1
    lam = np.zeros((n, N, N), dtype=complex)
    for a, (j, k) in enumerate(pairs):
        lam[a, j, k] = lam[a, k, j] = 1.0
        lam[len(pairs) + a, j, k] = -1j
        lam[len(pairs) + a, k, j] = 1j
    for l in range(1, N):
        a = 2 * len(pairs) + l - 1
        norm = np.sqrt(2.0 / (l * (l + 1)))
        lam[a, np.arange(l), np.arange(l)] = norm
        lam[a, l, l] = -l * norm
    lam.setflags(write=False)
    return lam


def bloch_of(rho: np.ndarray) -> np.ndarray:
    """P_a = (N/2) Tr(rho L_a)."""
    N = rho.shape[0]
    return (N / 2.0) * np.einsum("aij,ji->a", generators(N), rho).real


def rho_of(P: np.ndarray, N: int) -> np.ndarray:
    return (np.eye(N) + np.einsum("a,aij->ij", P, generators(N))) / N


def components_of(rho: np.ndarray, N: int):
    """(x, y, omega) of an N^2 x N^2 two-qudit matrix."""
    lam = generators(N)
    R = rho.reshape(N, N, N, N)  # R[a, c, b, d] = rho[(a c), (b d)]
    rho1 = np.einsum("ajbj->ab", R)
    rho2 = np.einsum("jajb->ab", R)
    omega = (N * N / 4.0) * np.einsum("acbd,iba,jdc->ij", R, lam, lam).real
    return bloch_of(rho1), bloch_of(rho2), omega


def min_eig(rho: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(rho)[0])


def entropy(rho: np.ndarray) -> float:
    w = np.clip(np.linalg.eigvalsh(rho), 0.0, 1.0)
    w = w[w > 0.0]
    return float(-np.sum(w * np.log(w)))


@lru_cache(maxsize=None)
def structure_tensors(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense f and d from Tr(L_a L_b L_c), as in the documented definitions."""
    lam = generators(N)
    t3 = np.einsum("aij,bjk,cki->abc", lam, lam, lam, optimize=True)
    f = (t3 - t3.transpose(1, 0, 2)).imag / 4.0
    d = (t3 + t3.transpose(1, 0, 2)).real / 4.0
    return f, d


def werner_min_eig(N: int, alpha: float) -> float:
    """Smallest eigenvalue of the Werner state with omega = alpha * 1.

    sum_i L_i x L_i = 2 (SWAP - 1/N), so the spectrum is
    (1 + 2 alpha (+-1 - 1/N)) / N^2 on the (anti)symmetric subspaces.
    """
    return min(1.0 + 2.0 * alpha * (s - 1.0 / N) for s in (1.0, -1.0)) / N**2


def unphysical(rho: np.ndarray) -> np.ndarray:
    """Same eigenvectors, smallest eigenvalue set to -1e-3, trace kept at 1."""
    w, V = np.linalg.eigh(rho)
    w[0] = -1e-3
    w[1:] *= (1.0 + 1e-3) / w[1:].sum()
    return (V * w) @ V.conj().T
