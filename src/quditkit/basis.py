"""Generalized Gell-Mann generators of SU(N) and their structure tensors.

Conventions used throughout the package:

* generators are Hermitian, traceless and normalized to Tr(L_a L_b) = 2 d_ab;
* ordering is "sym-antisym-diag": all symmetric off-diagonal generators
  S_jk (j < k, lexicographic), then the antisymmetric A_jk in the same
  order, then the N-1 diagonal generators D_l;
* the product rule L_a L_b = (2/N) delta_ab 1 + (d_abc + i f_abc) L_c,
  traced with L_c, gives Tr(L_a L_b L_c) = 2 (d_abc + i f_abc): f is totally
  antisymmetric, d totally symmetric, both real.

The structure tensors are stored in COO form only: an (nnz, 3) index array
and an (nnz,) value array per tensor.  Every generator has at most N
nonzeros, so they are built and contracted in time that grows with the
number of nonzeros (about 5 N^3 for d), not with the dense size (N^2-1)^3.

For N = 2 the canonical ordering yields exactly (sigma_x, sigma_y, sigma_z)
and d vanishes identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

DEFAULT_TOL = 1e-9
SPARSE_CUTOFF = 1e-12
# Largest dense array quditkit will allocate.  It bounds the complex
# (n, N, N) basis (N = 64 needs 256 MiB, N = 65 is refused) and the two
# one-byte R x R arrays of the qutrit region grid (R <= 11585).
DENSE_VIEW_MAX_BYTES = 256 * 2**20


class CheckResult(NamedTuple):
    ok: bool
    max_residual: float


@dataclass(frozen=True, eq=False)
class GellMannBasis:
    """The N^2 - 1 generalized Gell-Mann matrices in canonical ordering."""

    dim: int
    generators: np.ndarray  # shape (N^2-1, N, N), complex, read-only
    labels: tuple[str, ...]

    @property
    def size(self) -> int:
        return self.dim * self.dim - 1

    def to_json_dict(self, tolerance: float = DEFAULT_TOL) -> dict:
        """JSON export: header plus one {re, im} record per generator."""
        return {
            "header": {
                "N": self.dim,
                "tolerance": tolerance,
                "ordering": "sym-antisym-diag",
            },
            "labels": list(self.labels),
            "generators": [
                {"re": g.real.tolist(), "im": g.imag.tolist()}
                for g in self.generators
            ],
        }


@dataclass(frozen=True, eq=False)
class StructureTensors:
    """f and d of SU(N) in COO form.

    ``f_index`` and ``d_index`` are read-only (nnz, 3) int arrays of (a, b, c)
    in lexicographic order; ``f_value`` and ``d_value`` hold the matching
    entries.  Entries with |value| <= SPARSE_CUTOFF are absent.
    """

    dim: int
    f_index: np.ndarray = field(repr=False)
    f_value: np.ndarray = field(repr=False)
    d_index: np.ndarray = field(repr=False)
    d_value: np.ndarray = field(repr=False)

    def to_json_dict(self, tolerance: float = DEFAULT_TOL) -> dict:
        return {
            "header": {
                "N": self.dim,
                "tolerance": tolerance,
                "ordering": "sym-antisym-diag",
            },
            "f": _records(self.f_index, self.f_value),
            "d": _records(self.d_index, self.d_value),
        }


def _records(index: np.ndarray, value: np.ndarray) -> list[dict]:
    return [
        {"a": a, "b": b, "c": c, "value": v}
        for (a, b, c), v in zip(index.tolist(), value.tolist())
    ]


@dataclass(frozen=True, eq=False)
class AdjointMatrix:
    """Adjoint-representation image of a fundamental unitary U."""

    dim: int
    R: np.ndarray  # shape (N^2-1, N^2-1), real, read-only


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def generate_basis(N: int) -> GellMannBasis:
    """Build the N^2 - 1 generalized Gell-Mann matrices for SU(N).

    Raises ValueError for N < 2, and before allocating when the dense
    basis, 16 (N^2-1) N^2 bytes, would exceed DENSE_VIEW_MAX_BYTES (so
    N <= 64).  generate_basis(2) returns the Pauli matrices in the order
    (sigma_x, sigma_y, sigma_z).
    """
    if N < 2:
        raise ValueError(f"qudit dimension must be >= 2, got {N}")
    nbytes = 16 * (N * N - 1) * N * N
    if nbytes > DENSE_VIEW_MAX_BYTES:
        raise ValueError(
            f"the SU({N}) basis needs {nbytes / 2**20:.0f} MiB, more than "
            f"DENSE_VIEW_MAX_BYTES = {DENSE_VIEW_MAX_BYTES / 2**20:.0f} MiB"
        )
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
    gen = _readonly(np.stack(mats))
    return GellMannBasis(dim=N, generators=gen, labels=tuple(labels))


@lru_cache(maxsize=None)
def cached_basis(N: int) -> GellMannBasis:
    """Memoized generate_basis; the basis is deterministic per N."""
    return generate_basis(N)


def _nonzeros(generators: np.ndarray) -> tuple[np.ndarray, ...]:
    """COO (generator, row, column, value) of every nonzero generator entry."""
    g, r, c = np.nonzero(generators)
    return g, r, c, generators[g, r, c]


def _join(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All index pairs (l, r) with left[l] == right[r], grouped by l."""
    order = np.argsort(right, kind="stable")
    keys = right[order]
    lo = np.searchsorted(keys, left, "left")
    count = np.searchsorted(keys, left, "right") - lo
    li = np.repeat(np.arange(len(left)), count)
    # the run of matches for left[l] starts at lo[l] in keys
    offset = np.repeat(lo - np.cumsum(count) + count, count)
    return li, order[np.arange(len(li)) + offset]


def _coalesce(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted unique keys and the sum of the values sharing each key."""
    uniq, inv = np.unique(keys, return_inverse=True)
    if not np.iscomplexobj(values):
        return uniq, np.bincount(inv, values, len(uniq))
    sums = np.empty(len(uniq), dtype=complex)
    sums.real = np.bincount(inv, values.real, len(uniq))
    sums.imag = np.bincount(inv, values.imag, len(uniq))
    return uniq, sums


def _max_abs(values: np.ndarray) -> float:
    return float(np.abs(values).max(initial=0.0))


def _products(g, r, c, v) -> tuple[np.ndarray, ...]:
    """Nonzero terms L_a[i, j] L_b[j, k] of all generator products, as (a, b, i, k, value)."""
    p, q = _join(c, r)
    return g[p], g[q], r[p], c[q], v[p] * v[q]


def _sparse(index: np.ndarray, value: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    keep = np.abs(value) > SPARSE_CUTOFF
    return _readonly(index[keep]), _readonly(value[keep])


def _triple_traces(basis: GellMannBasis) -> tuple[np.ndarray, np.ndarray]:
    """T_abc = Tr(L_a L_b L_c) in COO form: sorted keys (a n + b) n + c and values.

    Every nonzero term L_a[i, j] L_b[j, k] is joined with every nonzero
    L_c[k, i], and the products are summed per (a, b, c).
    """
    N, n = basis.dim, basis.size
    g, r, c, v = nz = _nonzeros(basis.generators)
    a, b, i, k, ab = _products(*nz)
    p, s = _join(k * N + i, r * N + c)
    return _coalesce((a[p] * n + b[p]) * n + g[s], ab[p] * v[s])


def compute_tensors(basis: GellMannBasis, tol: float = DEFAULT_TOL) -> StructureTensors:
    """d_abc = Re T_abc / 2 and f_abc = Im T_abc / 2, with T_abc = Tr(L_a L_b L_c).

    T is summed over the generators' nonzeros only.  Reading f and d off T
    needs Hermitian generators: raises ValueError when any generator
    deviates from Hermitian, max |L - L^H|, by more than ``tol``.
    """
    g, r, c, v = _nonzeros(basis.generators)
    dev = _max_abs(basis.generators[g, c, r].conj() - v)
    if dev > tol:
        raise ValueError(
            f"generators deviate from Hermitian by {dev:.3e} > {tol:.3e}, so f and d "
            "would carry an imaginary residue; generator basis is inconsistent"
        )
    n = basis.size
    keys, t = _triple_traces(basis)
    index = np.column_stack(np.unravel_index(keys, (n, n, n)))
    return StructureTensors(
        basis.dim, *_sparse(index, t.imag / 2.0), *_sparse(index, t.real / 2.0)
    )


@lru_cache(maxsize=None)
def cached_tensors(N: int) -> StructureTensors:
    return compute_tensors(cached_basis(N))


def verify_product_rule(
    basis: GellMannBasis, tensors: StructureTensors, tol: float = DEFAULT_TOL
) -> CheckResult:
    """Check L_a L_b = (2/N) delta_ab 1 + (d_abc + i f_abc) L_c for all pairs.

    Both sides are summed in COO form over (a, b, i, k) and compared entrywise.
    """
    if basis.dim != tensors.dim:
        raise ValueError("basis and tensors have different dimensions")
    N, n = basis.dim, basis.size
    shape = (n, n, N, N)
    g, r, c, v = nz = _nonzeros(basis.generators)
    a, b, i, k, ab = _products(*nz)
    index = np.concatenate([tensors.d_index, tensors.f_index])
    t = np.concatenate([tensors.d_value, 1j * tensors.f_value])
    p, s = _join(index[:, 2], g)
    aa, ii = np.divmod(np.arange(n * N), N)
    keys = np.concatenate([
        np.ravel_multi_index((a, b, i, k), shape),
        np.ravel_multi_index((index[p, 0], index[p, 1], r[s], c[s]), shape),
        np.ravel_multi_index((aa, aa, ii, ii), shape),
    ])
    values = np.concatenate([ab, -t[p] * v[s], np.full(n * N, -2.0 / N)])
    res = _max_abs(_coalesce(keys, values)[1])
    return CheckResult(res <= tol, res)


def verify_ff_dd_identity(tensors: StructureTensors, tol: float = DEFAULT_TOL) -> CheckResult:
    """Check f_mki f_nli = (2/N)(delta_mn delta_kl - delta_ml delta_kn) + d_mni d_kli - d_kni d_mli.

    Both sides are summed in COO form over (m, n, k, l), joining each tensor
    with itself on its last index.
    """
    N = tensors.dim
    n = N * N - 1
    shape = (n,) * 4
    fi, fv, di, dv = tensors.f_index, tensors.f_value, tensors.d_index, tensors.d_value
    p, q = _join(fi[:, 2], fi[:, 2])
    u, w = _join(di[:, 2], di[:, 2])
    mm, kk = np.divmod(np.arange(n * n), n)
    keys = np.concatenate([
        np.ravel_multi_index((fi[p, 0], fi[q, 0], fi[p, 1], fi[q, 1]), shape),
        np.ravel_multi_index((di[u, 0], di[u, 1], di[w, 0], di[w, 1]), shape),
        np.ravel_multi_index((di[w, 0], di[u, 1], di[u, 0], di[w, 1]), shape),
        np.ravel_multi_index((mm, mm, kk, kk), shape),
        np.ravel_multi_index((mm, kk, kk, mm), shape),
    ])
    dd = dv[u] * dv[w]
    values = np.concatenate([
        fv[p] * fv[q], -dd, dd, np.full(n * n, -2.0 / N), np.full(n * n, 2.0 / N),
    ])
    res = _max_abs(_coalesce(keys, values)[1])
    return CheckResult(res <= tol, res)


def require_unitary(U: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    U = np.asarray(U, dtype=complex)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {U.shape}")
    dev = float(np.abs(U.conj().T @ U - np.eye(U.shape[0])).max())
    if dev > tol:
        raise ValueError(f"matrix is not unitary: |U^dag U - 1| = {dev:.3e} > {tol:.3e}")
    return U


def adjoint_of(U: np.ndarray, basis: GellMannBasis, tol: float = DEFAULT_TOL) -> AdjointMatrix:
    """Adjoint-representation matrix R with U L_j U^dag = R_kj L_k.

    R is real orthogonal and leaves f and d invariant as rank-3 tensors.
    Rejects non-unitary U.
    """
    U = require_unitary(U, tol)
    if U.shape[0] != basis.dim:
        raise ValueError(f"unitary is {U.shape[0]}x{U.shape[0]}, basis has N={basis.dim}")
    lam = basis.generators
    conj = np.einsum("ij,ajk,lk->ail", U, lam, U.conj())
    R = 0.5 * np.einsum("kij,aji->ka", lam, conj)
    residue = float(np.abs(R.imag).max())
    if residue > tol:
        raise ValueError(f"adjoint matrix has imaginary residue {residue:.3e}")
    return AdjointMatrix(dim=basis.dim, R=_readonly(R.real))
