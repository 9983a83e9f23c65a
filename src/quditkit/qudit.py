"""Single-qudit states in Bloch form: invariants, purity, entropy.

A dimension-N qudit is parametrized as rho = (1/N)(1 + P_a L_a) with the
generators of :mod:`quditkit.basis`.  The Bloch vector is kept unrescaled,
so |P|^2 = N(N-1)/2 for a pure state (the norm grows with N).
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def is_physical(self, tol: float = DEFAULT_TOL) -> bool:
        return float(np.linalg.eigvalsh(self.rho)[0]) >= -tol

    def to_json_dict(self, tol: float = DEFAULT_TOL) -> dict:
        return {
            "N": self.dim,
            "bloch": self.bloch.tolist(),
            "physical": self.is_physical(tol),
        }


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

    def is_pure(self, tol: float = 1e-9) -> bool:
        return abs(self.r_norm) <= tol and self.r_vec <= tol


def from_bloch(N: int, P: np.ndarray, basis: GellMannBasis | None = None) -> QuditState:
    """State with rho = (1/N)(1 + P_a L_a); P need not be physical."""
    basis = basis if basis is not None else cached_basis(N)
    P = np.asarray(P, dtype=float)
    if P.shape != (N * N - 1,):
        raise ValueError(f"Bloch vector must have length {N * N - 1}, got shape {P.shape}")
    rho = (np.eye(N, dtype=complex) + np.einsum("a,aij->ij", P, basis.generators)) / N
    return QuditState(dim=N, bloch=_readonly(P.copy()), rho=_readonly(rho))


def to_bloch(rho: np.ndarray, basis: GellMannBasis, tol: float = DEFAULT_TOL) -> np.ndarray:
    """P_a = (N/2) Tr(rho L_a); requires Hermitian unit-trace input."""
    N = basis.dim
    rho = require_density(rho, (N, N), tol)
    return (N / 2.0) * np.einsum("aij,ji->a", basis.generators, rho).real


def from_density_matrix(
    rho: np.ndarray, basis: GellMannBasis | None = None, tol: float = DEFAULT_TOL
) -> QuditState:
    basis = basis if basis is not None else cached_basis(np.asarray(rho).shape[0])
    return from_bloch(basis.dim, to_bloch(rho, basis, tol), basis)


def _q(state: QuditState, tensors: StructureTensors) -> np.ndarray:
    """q_a = d_abc P_b P_c, summed over the nonzeros of d."""
    if tensors.dim != state.dim:
        raise ValueError("tensors do not match the state dimension")
    P = state.bloch
    a, b, c = tensors.d_index.T
    return np.bincount(a, tensors.d_value * P[b] * P[c], minlength=len(P))


def invariants(state: QuditState, tensors: StructureTensors) -> InvariantSet:
    """All four invariants; a pure state has p2 = N(N-1)/2, Q = N(N-1)(N-2)/2."""
    q = _q(state, tensors)
    P = state.bloch
    p2 = float(P @ P)
    Q = float(P @ q)
    return InvariantSet(p2=p2, Q=Q, q=tuple(float(v) for v in q), quartic=float(q @ q))


def purity_residuals(state: QuditState, tensors: StructureTensors) -> PurityResiduals:
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


def transform(
    state: QuditState, U: np.ndarray, basis: GellMannBasis | None = None,
    tol: float = DEFAULT_TOL,
) -> QuditState:
    """Conjugated state U rho U^dag; Bloch vector rotates by the adjoint matrix."""
    basis = basis if basis is not None else cached_basis(state.dim)
    U = require_unitary(U, tol)
    if U.shape[0] != state.dim:
        raise ValueError(f"unitary is {U.shape[0]}x{U.shape[0]}, state has N={state.dim}")
    rho2 = U @ state.rho @ U.conj().T
    return from_bloch(state.dim, to_bloch(rho2, basis, tol), basis)


def elementary_from_invariants(N: int, inv: InvariantSet) -> tuple[float, float, float]:
    """Closed forms of e_2, e_3, e_4 in terms of the SU(N) invariants."""
    p2, Q, qq = inv.p2, inv.Q, inv.quartic
    e2 = (N - 1) / (2.0 * N) - p2 / N**2
    e3 = (
        (N - 1) * (N - 2) / (6.0 * N**2)
        - (N - 2) * p2 / N**3
        + 2.0 * Q / (3.0 * N**3)
    )
    e4 = (
        (N - 1) * (N - 2) * (N - 3) / (24.0 * N**3)
        - (N - 2) * (N - 3) * p2 / (2.0 * N**4)
        + 2.0 * (N - 3) * Q / (3.0 * N**4)
        + p2**2 / (2.0 * N**4)
        - (2.0 * p2**2 / N + qq) / (2.0 * N**4)
    )
    return e2, e3, e4
