"""Test oracles: closed-form elementary symmetric polynomials, dense f and d,
the generators built one matrix at a time, and the single-qudit maps written
as explicit contractions.

``elementary_closed_forms`` checks ``quditkit.sympoly.elementary_from_power``:
e_1..e_6 written out in terms of the power sums p_k = Tr rho^k, independently
of Newton's recursion; ``elementary_from_invariants`` writes e_2..e_4 in terms
of the SU(N) invariants instead.  ``dense_tensors`` rebuilds the (n, n, n)
arrays of f and d from their COO entries, for einsum references at small N.
``loop_basis`` builds the generalized Gell-Mann matrices one by one and
stacks them, the reference for ``quditkit.basis.generate_basis``.

``coo_q`` sums q_a = d_abc P_b P_c over the COO entries of d, and
``einsum_from_bloch``, ``einsum_to_bloch`` and ``einsum_adjoint`` contract the
(N^2-1, N, N) generator stack index by index.  quditkit reads the same
quantities off one product with the (N^2-1, N^2) generator matrix instead.

``derived_qubit_identities`` evaluates the identities that purity implies for
two qubits.  ``uncached_q`` and ``uncached_z`` write out the expressions
behind ``QuditState.q`` and ``BipartiteState.z`` as plain functions, evaluated
afresh on every call, so the cached properties can be compared with them bit
for bit.
"""

import numpy as np

from quditkit.basis import cached_basis
from quditkit.bipartite import _det, purity_residuals_qubit


def dense_tensors(t) -> tuple[np.ndarray, np.ndarray]:
    """Dense (n, n, n) f and d of the quditkit StructureTensors t, n = N^2 - 1."""
    n = t.dim * t.dim - 1
    f, d = np.zeros((n, n, n)), np.zeros((n, n, n))
    f[tuple(t.f_index.T)] = t.f_value
    d[tuple(t.d_index.T)] = t.d_value
    return f, d


def loop_basis(N: int) -> tuple[np.ndarray, tuple[str, ...]]:
    """Generators (N^2-1, N, N) and labels in sym-antisym-diag order, one matrix at a time."""
    mats = []
    labels = []
    for j in range(N):
        for k in range(j + 1, N):
            m = np.zeros((N, N), dtype=complex)
            m[j, k] = 1.0
            m[k, j] = 1.0
            mats.append(m)
            labels.append(f"s{j + 1}{k + 1}")
    for j in range(N):
        for k in range(j + 1, N):
            m = np.zeros((N, N), dtype=complex)
            m[j, k] = -1.0j
            m[k, j] = 1.0j
            mats.append(m)
            labels.append(f"a{j + 1}{k + 1}")
    for l in range(1, N):
        m = np.zeros((N, N), dtype=complex)
        norm = np.sqrt(2.0 / (l * (l + 1)))
        for j in range(l):
            m[j, j] = norm
        m[l, l] = -l * norm
        mats.append(m)
        labels.append(f"d{l}")
    return np.stack(mats), tuple(labels)


def coo_q(P: np.ndarray, t) -> np.ndarray:
    """q_a = d_abc P_b P_c, summed over the nonzeros of d in the StructureTensors t."""
    a, b, c = t.d_index.T
    return np.bincount(a, t.d_value * P[b] * P[c], minlength=len(P))


def einsum_from_bloch(P: np.ndarray, generators: np.ndarray) -> np.ndarray:
    """rho = (1 + P_a L_a) / N."""
    N = generators.shape[1]
    return (np.eye(N, dtype=complex) + np.einsum("a,aij->ij", P, generators)) / N


def einsum_to_bloch(rho: np.ndarray, generators: np.ndarray) -> np.ndarray:
    """P_a = (N/2) Tr(rho L_a)."""
    N = generators.shape[1]
    return (N / 2.0) * np.einsum("aij,ji->a", generators, rho).real


def einsum_adjoint(U: np.ndarray, generators: np.ndarray) -> np.ndarray:
    """R_ka = Tr(L_k U L_a U^dag) / 2 (real part)."""
    conj = np.einsum("ij,ajk,lk->ail", U, generators, U.conj(), optimize=True)
    return 0.5 * np.einsum("kij,aji->ka", generators, conj, optimize=True).real


def elementary_closed_forms(p: list[float]) -> list[float]:
    """Explicit e_1..e_K (K <= 6) for p_1 = 1; expansion of the Newton chain."""
    if abs(p[0] - 1.0) > 1e-9:
        raise ValueError("closed forms assume unit trace, p_1 = 1")
    if len(p) > 6:
        raise ValueError("closed forms available up to e_6 only")
    p2 = p[1] if len(p) > 1 else None
    p3 = p[2] if len(p) > 2 else None
    p4 = p[3] if len(p) > 3 else None
    p5 = p[4] if len(p) > 4 else None
    p6 = p[5] if len(p) > 5 else None
    e = [1.0]
    if p2 is not None:
        e.append(0.5 - 0.5 * p2)
    if p3 is not None:
        e.append(1.0 / 6.0 - 0.5 * p2 + p3 / 3.0)
    if p4 is not None:
        e.append((1.0 - 6.0 * p2 + 3.0 * p2**2 + 8.0 * p3 - 6.0 * p4) / 24.0)
    if p5 is not None:
        e.append(
            (1.0 - 10.0 * p2 + 15.0 * p2**2 + 20.0 * p3 - 20.0 * p2 * p3
             - 30.0 * p4 + 24.0 * p5) / 120.0
        )
    if p6 is not None:
        e.append(
            (1.0 - 15.0 * p2 + 45.0 * p2**2 - 15.0 * p2**3 + 40.0 * p3
             - 120.0 * p2 * p3 + 40.0 * p3**2 - 90.0 * p4 + 90.0 * p2 * p4
             + 144.0 * p5 - 120.0 * p6) / 720.0
        )
    return e


def elementary_from_invariants(N: int, inv) -> tuple[float, float, float]:
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


def derived_qubit_identities(state) -> dict:
    """Identities that follow from two-qubit purity: |x|^2 = |y|^2 = 1 + det(omega) etc.

    Refuses a state whose total purity residual is above 4e-8 (the
    identities are consequences of rho^2 = rho).
    """
    res = purity_residuals_qubit(state)
    if not res.total() <= 4e-8:
        raise ValueError(f"state is not pure: purity residual total {res.total():.3e}")
    x, y, w = state.x, state.y, state.omega
    trw = float(np.trace(w))
    trw2 = float(np.trace(w @ w))
    det_w = _det(w)
    xx = float(x @ x)
    yy = float(y @ y)
    return {
        "x_norm_sq": xx,
        "y_norm_sq": yy,
        "det_omega": det_w,
        "trace_identity_residual": abs(trw - float(x @ y) + 0.5 * (trw**2 - trw2)),
        "norm_equality_residual": abs(xx - yy),
        "gram_identity_residual": abs(float(np.sum(w * w)) - xx + 3.0 * det_w),
        "det_connection_residual": max(abs(xx - 1.0 - det_w), abs(yy - 1.0 - det_w)),
    }


def uncached_q(state) -> np.ndarray:
    """q_a = Tr(A^2 L_a) / 2 with A = N rho - 1, evaluated afresh."""
    N = state.dim
    A = N * state.rho - np.eye(N)
    return 0.5 * (cached_basis(N).matrix @ (A @ A).T.ravel()).real


def uncached_z(w: np.ndarray) -> np.ndarray:
    """Z = -(1/2)(tr^2 w - tr w^2) 1 + tr(w) w^T - (w^2)^T for a 3 x 3 omega."""
    trw = np.trace(w)
    w2 = w @ w
    return -0.5 * (trw**2 - np.trace(w2)) * np.eye(3) + trw * w.T - w2.T
