"""Single-qudit states in Bloch form: invariants, purity, entropy.

A dimension-N qudit is parametrized as rho = (1/N)(1 + P_a L_a) with the
generators of :mod:`quditkit.basis`.  The Bloch vector is kept unrescaled,
so |P|^2 = N(N-1)/2 for a pure state (the norm grows with N).

Every conversion goes through one matrix, the generator stack viewed as
G[a, i N + j] = L_a[i, j] of shape (N^2-1, N^2): rho = (1 + P G)/N and
P_a = (N/2) Tr(rho L_a) = (N/2) Re(G vec(rho^T))_a are one GEMV each.  The
invariants need no structure tensor either.  With A = P_a L_a = N rho - 1,
the product rule L_a L_b = (2/N) delta_ab 1 + (d_abc + i f_abc) L_c gives
A^2 = (2/N)|P|^2 1 + d_abc P_a P_b L_c (the f-term cancels, f being
antisymmetric in a, b), so q_c = d_abc P_a P_b = Tr(A^2 L_c)/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import (
    DEFAULT_TOL, GellMannBasis, StructureTensors, _readonly, cached_basis, require_unitary,
)
from .sympoly import require_density


class UnphysicalStateError(ValueError):
    """Raised when an operation defined only for PSD states gets a non-PSD one."""


@dataclass(frozen=True, eq=False)
class QuditState:
    dim: int
    bloch: np.ndarray  # real, length N^2-1, read-only
    rho: np.ndarray    # derived N x N matrix, read-only

    def to_json_dict(self, tol: float = DEFAULT_TOL) -> dict:
        return {
            "N": self.dim,
            "bloch": self.bloch.tolist(),
            "physical": float(np.linalg.eigvalsh(self.rho)[0]) >= -tol,
        }

    @cached_property
    def q(self) -> np.ndarray:
        """q_a = d_abc P_b P_c = Tr(A^2 L_a) / 2 with A = N rho - 1; read-only, computed once.

        The product rule gives A^2 = (2/N)|P|^2 1 + d_abc P_a P_b L_c, so q is
        one N x N product and one GEMV with the generator matrix; no f or d is
        read.
        """
        N = self.dim
        A = N * self.rho - np.eye(N)
        return _readonly(0.5 * (cached_basis(N).matrix @ (A @ A).T.ravel()).real)


@dataclass(frozen=True)
class InvariantSet:
    """SU(N)-invariant combinations of the Bloch vector.

    p2 = |P|^2, Q = d_abc P_a P_b P_c, q_a = d_abc P_b P_c and
    quartic = d_abc d_aef P_b P_c P_e P_f = |q|^2.
    """

    p2: float
    Q: float
    q: tuple[float, ...]
    quartic: float

    def to_json_dict(self) -> dict:
        return {"p2": self.p2, "Q": self.Q, "q": list(self.q), "quartic": self.quartic}


@dataclass(frozen=True)
class PurityResiduals:
    """Residuals of the two pure-state conditions; both vanish iff rho^2 = rho."""

    r_norm: float  # |P|^2 - N(N-1)/2, signed
    r_vec: float   # max_a |(1 - 2/N) P_a - d_bca P_b P_c / N|


def from_bloch(N: int, P: np.ndarray) -> QuditState:
    """State with rho = (1/N)(1 + P_a L_a); P need not be physical."""
    G = cached_basis(N).matrix
    P = np.asarray(P, dtype=float)
    if P.shape != (N * N - 1,):
        raise ValueError(f"Bloch vector must have length {N * N - 1}, got shape {P.shape}")
    rho = (np.eye(N, dtype=complex) + (P @ G).reshape(N, N)) / N
    return QuditState(dim=N, bloch=_readonly(P.copy()), rho=_readonly(rho))


def to_bloch(rho: np.ndarray, basis: GellMannBasis) -> np.ndarray:
    """P_a = (N/2) Tr(rho L_a); requires Hermitian unit-trace input."""
    N = basis.dim
    rho = require_density(rho, (N, N))
    return (N / 2.0) * (basis.matrix @ rho.T.ravel()).real


def from_density_matrix(rho: np.ndarray) -> QuditState:
    N = np.asarray(rho).shape[0]
    return from_bloch(N, to_bloch(rho, cached_basis(N)))


def _q(state: QuditState, tensors: StructureTensors | None) -> np.ndarray:
    """state.q; ``tensors`` is ignored apart from its dimension (kept for callers that pass it)."""
    if tensors is not None and tensors.dim != state.dim:
        raise ValueError("tensors do not match the state dimension")
    return state.q


def invariants(state: QuditState, tensors: StructureTensors | None = None) -> InvariantSet:
    """All four invariants; a pure state has p2 = N(N-1)/2, Q = N(N-1)(N-2)/2.

    ``tensors`` is ignored apart from a dimension check.
    """
    q = _q(state, tensors)
    P = state.bloch
    p2 = float(P @ P)
    Q = float(P @ q)
    return InvariantSet(p2=p2, Q=Q, q=tuple(float(v) for v in q), quartic=float(q @ q))


def purity_residuals(
    state: QuditState, tensors: StructureTensors | None = None
) -> PurityResiduals:
    """Both pure-state residuals; ``tensors`` is ignored apart from a dimension check."""
    q = _q(state, tensors)
    N = state.dim
    P = state.bloch
    r_norm = float(P @ P) - N * (N - 1) / 2.0
    r_vec = float(np.abs((1.0 - 2.0 / N) * P - q / N).max())
    return PurityResiduals(r_norm=r_norm, r_vec=r_vec)


def entropy(state: QuditState, tol: float = DEFAULT_TOL) -> float:
    """Von Neumann entropy -sum x ln x in nats; refuses non-PSD states."""
    eigs = np.linalg.eigvalsh(state.rho)
    if eigs[0] < -tol:
        raise UnphysicalStateError(
            f"entropy undefined: smallest eigenvalue {eigs[0]:.3e} < -{tol:.3e}"
        )
    eigs = np.clip(eigs, 0.0, 1.0)
    nz = eigs[eigs > 0.0]
    return float(-np.sum(nz * np.log(nz)))


def transform(state: QuditState, U: np.ndarray) -> QuditState:
    """Conjugated state U rho U^dag; Bloch vector rotates by the adjoint matrix."""
    U = require_unitary(U)
    N = state.dim
    if U.shape[0] != N:
        raise ValueError(f"unitary is {U.shape[0]}x{U.shape[0]}, state has N={N}")
    return from_bloch(N, to_bloch(U @ state.rho @ U.conj().T, cached_basis(N)))
