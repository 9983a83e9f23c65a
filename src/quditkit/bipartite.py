"""Two-qudit states in component form: purity chains, Z matrix, Werner family.

A pair of dimension-N qudits is parametrized as

    rho = (1/N^2) [ 1x1 + (L_i x 1) x_i + (1 x L_i) y_i + (L_i x L_j) w_ij ]

with real vectors x, y of length N^2-1 and a real matrix w.  With L_0 = 1
prepended to the generators this is one coefficient matrix
c = [[1, y^T], [x, w]] of shape (N^2, N^2):

    rho[(a c), (b d)] = (1/N^2) sum_{mu nu} c_{mu nu} L_mu[a, b] L_nu[c, d],

and component extraction is the same contraction run in reverse, giving
x_i = (N/2) Tr(rho L_i x 1) and w_ij = (N^2/4) Tr(rho L_i x L_j).  Both
directions cost O(N^6) time and O(N^4) memory.

The general-N purity chain is the same extraction applied to rho^2 - rho:
the four pure-state conditions are the (1, 1), (L_i, 1), (1, L_j) and
(L_i, L_j) components of rho^2 = rho, and their residuals and the trace
identity are read off t_{mu nu} = Tr((rho^2 - rho)(L_mu x L_nu)).

The Werner convention here is w = alpha * identity, so at N = 2 the value
alpha = -1 gives the singlet projector.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .basis import (
    DEFAULT_TOL,
    GellMannBasis,
    StructureTensors,
    _readonly,
    cached_basis,
    cached_tensors,
)
from .qudit import QuditState, from_bloch
from .sympoly import elementary_from_power, require_density


@dataclass(frozen=True, eq=False)
class BipartiteState:
    dim: int            # N per subsystem
    x: np.ndarray       # length N^2-1, read-only
    y: np.ndarray
    omega: np.ndarray   # (N^2-1, N^2-1), read-only
    rho: np.ndarray     # derived N^2 x N^2 matrix, read-only

    def to_json_dict(self) -> dict:
        return {
            "N": self.dim,
            "x": self.x.tolist(),
            "y": self.y.tolist(),
            "omega": self.omega.tolist(),
        }


@dataclass(frozen=True)
class PurityResiduals:
    """Residuals of the four pure-state conditions; all vanish iff rho^2 = rho."""

    r_sum: float    # signed scalar condition
    r_x: float      # max-abs of the x-vector condition
    r_y: float
    r_omega: float  # max-abs of the correlation-matrix condition

    def total(self) -> float:
        return abs(self.r_sum) + self.r_x + self.r_y + self.r_omega

    def is_pure(self, tol: float = 1e-8) -> bool:
        return self.total() <= 4 * tol


@dataclass(frozen=True, eq=False)
class ZMatrix:
    """Entanglement quantifier for two qubits: -Z^T is the adjugate of omega."""

    Z: np.ndarray
    det_omega: float
    adjugate_residual: float  # max-abs of omega Z^T + det(omega) 1
    entangled: bool           # Z != 0; Z vanishes on pure product states


@dataclass(frozen=True, eq=False)
class WernerState:
    dim: int
    alpha: float
    state: BipartiteState


@dataclass(frozen=True)
class WernerConsistencyReport:
    """The two independent determinations of alpha for a pure Werner state.

    alpha_norm comes from the scalar purity condition (alpha^2 = N^2/4);
    alpha_omega from the correlation-matrix condition (-N(N^2-2)/4).  They
    agree only at N = 2.  min_residual is the smallest total purity
    residual of the Werner family over the scanned alpha range.
    """

    dim: int
    alpha_norm: float          # magnitude N/2; both signs solve the norm condition
    alpha_omega: float
    consistent: bool
    min_residual: float
    argmin_alpha: float

    def to_json_dict(self) -> dict:
        return {
            "N": self.dim,
            "alpha_norm_magnitude": self.alpha_norm,
            "alpha_omega": self.alpha_omega,
            "consistent": self.consistent,
            "min_purity_residual": self.min_residual,
            "argmin_alpha": self.argmin_alpha,
        }


def _det(m: np.ndarray) -> float:
    # exactly singular omegas are a meaningful input (det = 0 marks product
    # states); numpy's LU path warns on the zero pivot
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.linalg.det(m))


def _extended_generators(N: int) -> np.ndarray:
    """L_0 = 1 followed by L_1..L_{N^2-1}, shape (N^2, N, N)."""
    lam = cached_basis(N).generators
    return np.concatenate([np.eye(N, dtype=complex)[None], lam])


def _assemble(N: int, c: np.ndarray) -> np.ndarray:
    """sum_{mu nu} c_{mu nu} L_mu x L_nu as an N^2 x N^2 matrix."""
    L = _extended_generators(N)
    right = np.einsum("mn,ncd->mcd", c, L)
    return np.einsum("mab,mcd->acbd", L, right).reshape(N * N, N * N)


def _project(R: np.ndarray, N: int) -> np.ndarray:
    """t[mu, nu] = Tr(R (L_mu x L_nu)) for an N^2 x N^2 matrix R."""
    L = _extended_generators(N)
    # R[(a c), (b d)] = R4[a, c, b, d]
    right = np.einsum("mba,acbd->mcd", L, R.reshape(N, N, N, N))
    return np.einsum("mcd,ndc->mn", right, L)


def from_components(
    N: int, x: np.ndarray, y: np.ndarray, omega: np.ndarray
) -> BipartiteState:
    n = N * N - 1
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    omega = np.asarray(omega, dtype=float)
    if x.shape != (n,) or y.shape != (n,):
        raise ValueError(f"x and y must have length {n}")
    if omega.shape != (n, n):
        raise ValueError(f"omega must be {n}x{n}, got {omega.shape}")
    c = np.vstack([np.append(1.0, y), np.column_stack([x, omega])])  # [[1, y^T], [x, w]]
    rho = _assemble(N, c) / (N * N)
    return BipartiteState(
        dim=N, x=_readonly(x.copy()), y=_readonly(y.copy()),
        omega=_readonly(omega.copy()), rho=_readonly(rho),
    )


def to_components(
    rho: np.ndarray, basis: GellMannBasis, tol: float = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project a Hermitian unit-trace N^2 x N^2 matrix onto component form."""
    N = basis.dim
    rho = require_density(rho, (N * N, N * N), tol)
    t = _project(rho, N).real
    return (N / 2.0) * t[1:, 0], (N / 2.0) * t[0, 1:], (N * N / 4.0) * t[1:, 1:]


def from_density_matrix(
    rho: np.ndarray, N: int, tol: float = DEFAULT_TOL
) -> BipartiteState:
    x, y, omega = to_components(rho, cached_basis(N), tol)
    return from_components(N, x, y, omega)


def reduced_states(state: BipartiteState) -> tuple[QuditState, QuditState]:
    """Partial traces over the second and first subsystem; Bloch vectors are x, y."""
    return from_bloch(state.dim, state.x), from_bloch(state.dim, state.y)


# ---------------------------------------------------------------------------
# two-qubit (N = 2) purity chain and derived identities
# ---------------------------------------------------------------------------

def _require_qubit(state: BipartiteState) -> None:
    if state.dim != 2:
        raise ValueError(f"operation is defined for N = 2 only, got N = {state.dim}")


def _z(w: np.ndarray) -> np.ndarray:
    """Z = -(1/2)(tr^2 w - tr w^2) 1 + tr(w) w^T - (w^2)^T for a 3 x 3 omega."""
    trw = np.trace(w)
    w2 = w @ w
    return -0.5 * (trw**2 - np.trace(w2)) * np.eye(3) + trw * w.T - w2.T


def purity_residuals_qubit(state: BipartiteState) -> PurityResiduals:
    """Residuals of the four two-qubit pure-state conditions."""
    _require_qubit(state)
    x, y, w = state.x, state.y, state.omega
    r_sum = 1.0 + x @ x + y @ y + np.sum(w * w) - 4.0
    r_x = np.abs(x - w @ y).max()
    r_y = np.abs(y - w.T @ x).max()
    r_omega = np.abs(w - np.outer(x, y) - _z(w)).max()
    return PurityResiduals(
        r_sum=float(r_sum), r_x=float(r_x), r_y=float(r_y), r_omega=float(r_omega)
    )


def derived_qubit_identities(state: BipartiteState, tol: float = 1e-8) -> dict:
    """Identities that follow from purity: |x|^2 = |y|^2 = 1 + det(omega) etc.

    Refuses input that is not pure (the identities are consequences of
    rho^2 = rho).
    """
    _require_qubit(state)
    res = purity_residuals_qubit(state)
    if not res.is_pure(tol):
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


def z_matrix(state: BipartiteState, tol: float = DEFAULT_TOL) -> ZMatrix:
    """Z_ij = -d_ij e2(omega) + omega_ji tr(omega) - (omega^2)_ji, for N = 2."""
    _require_qubit(state)
    w = state.omega
    Z = _z(w)
    det_w = _det(w)
    residual = float(np.abs(w @ Z.T + det_w * np.eye(3)).max())
    return ZMatrix(
        Z=_readonly(Z),
        det_omega=det_w,
        adjugate_residual=residual,
        entangled=bool(np.abs(Z).max() > tol),
    )


def mixed_positivity_qubit(state: BipartiteState, tol: float = DEFAULT_TOL) -> dict:
    """The three necessary positivity inequalities for a two-qubit state.

    Component forms of e_2, e_3, e_4 >= 0 for the 4 x 4 matrix (scaled by
    8, 16 and 256 respectively):

        ineq1 = 3 - S                           with S = |x|^2 + |y|^2 + w:w
        ineq2 = 1 - S + 2 G                     with G = x.w.y - det(w)
        ineq3 = 1 - 2S + S^2 + 8G - 4 x.w.wT.x - 4 y.wT.w.y
                - 4 (|x|^2 |y|^2 + 2 x.Z.y + Z:Z)

    Necessary but not sufficient: every PSD state passes all three, and
    equality holds only for pure states.
    """
    _require_qubit(state)
    x, y, w = state.x, state.y, state.omega
    S = float(x @ x + y @ y + np.sum(w * w))
    det_w = _det(w)
    G = float(x @ w @ y) - det_w
    Z = _z(w)
    ineq1 = 3.0 - S
    ineq2 = 1.0 - S + 2.0 * G
    ineq3 = (
        1.0 - 2.0 * S + S**2 + 8.0 * G
        - 4.0 * float(x @ (w @ w.T) @ x)
        - 4.0 * float(y @ (w.T @ w) @ y)
        - 4.0 * (float(x @ x) * float(y @ y) + 2.0 * float(x @ Z @ y) + float(np.sum(Z * Z)))
    )
    min_eig = float(np.linalg.eigvalsh(state.rho)[0])
    return {
        "values": (ineq1, ineq2, ineq3),
        "satisfied": tuple(v >= -tol for v in (ineq1, ineq2, ineq3)),
        "equality": tuple(abs(v) <= tol for v in (ineq1, ineq2, ineq3)),
        "min_eigenvalue": min_eig,
        "psd": min_eig >= -tol,
    }


# ---------------------------------------------------------------------------
# general-N purity chain
# ---------------------------------------------------------------------------

def _d_vector(tensors: StructureTensors, M: np.ndarray) -> np.ndarray:
    """v_i = d_imk M_mk, summed over the nonzeros of d."""
    a, b, c = tensors.d_index.T
    return np.bincount(a, tensors.d_value * M[b, c], minlength=M.shape[0])


def _purity_defect(state: BipartiteState) -> np.ndarray:
    """t[mu, nu] = Tr((rho^2 - rho)(L_mu x L_nu)): the components of rho^2 - rho.

    The pure-state conditions are t = 0, so every residual of the chain is
    read off this one projection: O(N^6) time and O(N^4) memory.
    """
    rho = state.rho
    return _project(rho @ rho - rho, state.dim).real


def purity_residuals_qudit(state: BipartiteState) -> PurityResiduals:
    """Residuals of the four pure-state conditions for two dimension-N qudits.

    They are the components of rho^2 - rho, t = _purity_defect(state),
    scaled to the (N^2 - 2)-normalized conditions written with d and f:

        r_sum   = N^2 t_00               = 1 + (2/N)(|x|^2 + |y|^2) + (4/N^2) w:w - N^2
        r_x     = (N^3/2) max_i |t_i0|   vector:  (N^2-2) x_i - d_ijk x_j x_k
                                                  - (4/N) (w y)_i - (2/N) d_imk (w wT)_mk
        r_y     = (N^3/2) max_i |t_0i|   the same with x <-> y, w <-> wT
        r_omega = (N^4/4) max_ij |t_ij|  matrix:  (N^2-2) w_ij - 2 x_i y_j
                                                  - 2 d_kil x_k w_lj - 2 w_il d_klj y_k
                                                  - w_mn w_kl (d_nlj d_mki - f_nlj f_mki)

    At N = 2 the vector and matrix residuals are twice the qubit-form ones;
    the zero sets coincide.
    """
    N = state.dim
    t = _purity_defect(state)
    return PurityResiduals(
        r_sum=float(N * N * t[0, 0]),
        r_x=float(N**3 / 2.0 * np.abs(t[1:, 0]).max()),
        r_y=float(N**3 / 2.0 * np.abs(t[0, 1:]).max()),
        r_omega=float(N**4 / 4.0 * np.abs(t[1:, 1:]).max()),
    )


def trace_identity_residual(state: BipartiteState) -> float:
    """Residual of the trace consequence of the correlation-matrix condition.

    It is the trace of the matrix condition, (N^4/4) |sum_i t_ii| with
    t = _purity_defect(state).  Rewritten with the ff/dd identity this is

    (N^2-2) tr(w) = 2 x.y + 2 (x+y).z + (1/2) d_imk d_inl (w+wT)_mn (w+wT)_kl
                    - (2/N) [tr(w)^2 - tr(w^2)] - |z|^2,   z_i = d_imk w_mk.

    Vanishes on every state satisfying the four purity conditions; it
    reduces to the two-qubit trace identity at N = 2.
    """
    N = state.dim
    t = _purity_defect(state)
    return float(N**4 / 4.0 * abs(np.trace(t[1:, 1:])))


# ---------------------------------------------------------------------------
# Werner states
# ---------------------------------------------------------------------------

def werner(N: int, alpha: float) -> WernerState:
    """Werner-family state: x = y = 0, omega = alpha * identity.

    Invariant under U x U conjugation for every unitary U.  alpha outside
    the physical range is representable and diagnosable.
    """
    n = N * N - 1
    state = from_components(N, np.zeros(n), np.zeros(n), alpha * np.eye(n))
    return WernerState(dim=N, alpha=float(alpha), state=state)


def werner_alpha_norm(N: int) -> float:
    """|alpha| forced by the scalar purity condition: N/2."""
    return N / 2.0

def werner_alpha_omega(N: int) -> float:
    """alpha forced by the correlation-matrix purity condition: -N(N^2-2)/4."""
    return -N * (N * N - 2.0) / 4.0


def _werner_residual(N: int) -> Callable[[np.ndarray], np.ndarray]:
    """alphas -> total purity residual of werner(N, alpha), as a closure.

    The four residuals are polynomial in alpha, so the omega = identity
    contractions are evaluated once, here, and each call costs O(n) per
    alpha.  Off the diagonal the matrix condition is |0 - alpha^2 C_ij| =
    alpha^2 |C_ij|, and rounding is monotone, so its max is
    alpha^2 max|C_ij| exactly: the result is bit-identical to taking the
    max over the full (n, n) residual matrix.
    """
    tensors = cached_tensors(N)  # refuses an N out of range before allocating
    n = N * N - 1
    eye = np.eye(n)
    # vector conditions: only the d-contraction survives, and it vanishes
    # because sum_l d_lli = 0; evaluate it anyway from the tensors
    vec_base = np.abs((2.0 / N) * _d_vector(tensors, eye)).max()
    # matrix condition: C_ij = Re Tr(S^2 (L_i x L_j)) / 4 with S = sum_i L_i x L_i,
    # the w w (dd - ff) term at w = identity
    S = _assemble(N, np.pad(eye, ((1, 0), (1, 0))))
    C_base = 0.25 * _project(S @ S, N).real[1:, 1:]
    c_diag = np.diag(C_base).copy()
    c_off = np.abs(C_base[~eye.astype(bool)]).max()
    c = N * N - 2.0

    def residual(alphas: np.ndarray) -> np.ndarray:
        alphas = np.asarray(alphas, dtype=float)
        r_sum = np.abs(1.0 + (4.0 / N**2) * alphas**2 * n - N * N)
        r_vec = 2.0 * alphas**2 * vec_base
        r_diag = np.abs(c * alphas[:, None] - alphas[:, None] ** 2 * c_diag).max(axis=1)
        r_omega = np.maximum(r_diag, alphas**2 * c_off)
        return r_sum + r_vec + r_omega

    return residual


def werner_residual_curve(N: int, alphas: np.ndarray) -> np.ndarray:
    """Total purity residual of werner(N, alpha) for an array of alphas.

    The alpha-independent contractions are computed once per call, and
    each alpha then costs O(n); this matches
    purity_residuals_qudit(werner(N, a).state) pointwise.
    """
    return _werner_residual(N)(alphas)


def werner_consistency(N: int) -> WernerConsistencyReport:
    """Both alpha determinations plus the scanned minimum purity residual.

    The residual scan covers alpha in [-N, N] on a uniform 10 000-point grid
    and then refines around the grid minimizer by up to 200 golden-section
    steps, certifying a lower bound on the family's distance from purity
    (zero only at N=2).
    The alpha-independent terms of the residual are computed once per
    call; the grid and every refinement step reuse them.
    """
    if N < 2:
        raise ValueError(f"qudit dimension must be >= 2, got {N}")
    a_norm = werner_alpha_norm(N)
    a_omega = werner_alpha_omega(N)
    consistent = min(abs(a_norm - a_omega), abs(-a_norm - a_omega)) < 1e-12

    residual = _werner_residual(N)
    alphas = np.linspace(-N, N, 10_000)
    totals = residual(alphas)
    k = int(np.argmin(totals))
    lo = alphas[max(k - 1, 0)]
    hi = alphas[min(k + 1, len(alphas) - 1)]

    def curve(a: float) -> float:
        return float(residual(np.array([a]))[0])

    gr = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c1 = b - gr * (b - a)
    c2 = a + gr * (b - a)
    f1, f2 = curve(c1), curve(c2)
    for _ in range(200):
        if f1 < f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - gr * (b - a)
            f1 = curve(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + gr * (b - a)
            f2 = curve(c2)
        if b - a < 1e-14:
            break
    argmin = (a + b) / 2.0
    best = min(curve(argmin), float(totals[k]))
    return WernerConsistencyReport(
        dim=N,
        alpha_norm=a_norm,
        alpha_omega=a_omega,
        consistent=consistent,
        min_residual=best,
        argmin_alpha=float(argmin),
    )


def werner_positivity_scan(
    N: int,
    alpha_min: float | None = None,
    alpha_max: float | None = None,
    steps: int = 101,
    tol: float = DEFAULT_TOL,
) -> list[dict]:
    """Tabulate e_2, e_3 and the full spectrum verdict along the Werner family.

    Demonstrates that the symmetric-polynomial conditions are necessary but
    not sufficient: part of the e_2-allowed window fails the eigenvalue test.

    The spectrum is closed-form, so no state is built: sum_i L_i x L_i =
    2 (SWAP - 1/N), hence rho(alpha) = (1/N^2)[1 + 2 alpha (SWAP - 1/N)] has
    the eigenvalue (1 + 2 alpha (+-1 - 1/N)) / N^2 on the symmetric
    (multiplicity N(N+1)/2) and antisymmetric (N(N-1)/2) subspaces.  The
    power sums p_1..p_3 follow from it, e_2 and e_3 from Newton's identities,
    and the purity residual from werner_residual_curve.  A NaN or infinite
    alpha bound is refused with ValueError.
    """
    if steps < 2:
        raise ValueError("steps must be >= 2")
    if alpha_min is None:
        alpha_min = -N / 2.0
    if alpha_max is None:
        alpha_max = N / 2.0
    if not np.isfinite((alpha_min, alpha_max)).all():
        raise ValueError(f"alpha bounds must be finite, got {alpha_min!r} and {alpha_max!r}")
    alphas = np.linspace(alpha_min, alpha_max, steps)
    eigs = (1.0 + 2.0 * alphas[:, None] * (np.array([1.0, -1.0]) - 1.0 / N)) / (N * N)
    mult = np.array([N * (N + 1) / 2.0, N * (N - 1) / 2.0])
    residuals = werner_residual_curve(N, alphas)
    rows = []
    for alpha, spectrum, residual in zip(alphas, eigs, residuals):
        p = [float(mult @ spectrum**k) for k in (1, 2, 3)]
        _, e2, e3 = elementary_from_power(p)
        min_eig = float(spectrum.min())
        rows.append(
            {
                "N": N,
                "alpha": float(alpha),
                "e2": e2,
                "e3": e3,
                "min_eigenvalue": min_eig,
                "psd": min_eig >= -tol,
                "purity_residual": float(residual),
            }
        )
    return rows


def werner_scan_csv(rows: list[dict]) -> str:
    """werner_positivity_scan rows as CSV; a NaN or infinite cell raises ValueError."""
    cols = ["N", "alpha", "e2", "e3", "min_eigenvalue", "psd", "purity_residual"]
    lines = [",".join(cols)]
    for r in rows:
        cells = []
        for c in cols:
            if c in ("N", "psd"):
                cells.append(str(int(r[c])))
            elif math.isfinite(value := float(r[c])):
                cells.append(repr(value))
            else:
                raise ValueError(
                    f"result is not finite, the input is out of range: "
                    f"{c} = {value!r} at alpha = {r['alpha']!r}"
                )
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
