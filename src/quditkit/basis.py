"""Generalized Gell-Mann generators of SU(N) and their structure tensors.

Conventions used throughout the package:

* generators are Hermitian, traceless and normalized to Tr(L_a L_b) = 2 d_ab;
* ordering is "sym-antisym-diag": all symmetric off-diagonal generators
  S_jk (j < k, lexicographic), then the antisymmetric A_jk in the same
  order, then the N-1 diagonal generators D_l;
* f_abc = Tr([L_a, L_b] L_c) / 4i is totally antisymmetric,
  d_abc = Tr({L_a, L_b} L_c) / 4 is totally symmetric, both real.

The structure tensors are stored once, in COO form: an (nnz, 3) index
array and an (nnz,) value array per tensor.  Every generator has at most N
nonzeros, so they are built and contracted in time that grows with the
number of nonzeros (about 5 N^3 for d), not with the dense size (N^2-1)^3.

For N = 2 the canonical ordering yields exactly (sigma_x, sigma_y, sigma_z)
and d vanishes identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

DEFAULT_TOL = 1e-9
SPARSE_CUTOFF = 1e-12
# Largest dense array quditkit will allocate for one N.  It bounds the
# (n, n, n) float64 view of f or d that StructureTensors will build (N = 17
# needs 182 MiB, N = 18 needs 257 MiB and is refused) and the complex
# (n, N, N) basis itself (N = 64 needs 256 MiB, N = 65 is refused).
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
    entries.  Entries with |value| <= SPARSE_CUTOFF are absent.  ``f`` and
    ``d`` are dense (n, n, n) views, built on first use and refused with
    MemoryError above DENSE_VIEW_MAX_BYTES; no library path reads them.
    """

    dim: int
    f_index: np.ndarray = field(repr=False)
    f_value: np.ndarray = field(repr=False)
    d_index: np.ndarray = field(repr=False)
    d_value: np.ndarray = field(repr=False)

    @cached_property
    def f(self) -> np.ndarray:
        return self._dense(self.f_index, self.f_value)

    @cached_property
    def d(self) -> np.ndarray:
        return self._dense(self.d_index, self.d_value)

    def _dense(self, index: np.ndarray, value: np.ndarray) -> np.ndarray:
        n = self.dim * self.dim - 1
        nbytes = 8 * n**3
        if nbytes > DENSE_VIEW_MAX_BYTES:
            raise MemoryError(
                f"dense SU({self.dim}) structure tensor needs {nbytes / 2**20:.0f} MiB, "
                f"more than DENSE_VIEW_MAX_BYTES = {DENSE_VIEW_MAX_BYTES / 2**20:.0f} MiB; "
                "use the COO arrays (f_index, f_value, d_index, d_value)"
            )
        t = np.zeros((n, n, n))
        t[tuple(index.T)] = value
        return _readonly(t)

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
    """Compute f_abc and d_abc from the generator traces, over their nonzeros only.

    Raises ValueError when any entry carries an imaginary residue above
    ``tol`` (which would signal a broken basis).
    """
    n = basis.size
    t3_keys, t3 = _triple_traces(basis)
    # T_abc and T_bac side by side, on the union of both supports
    a, b, c = np.unravel_index(t3_keys, (n, n, n))
    keys = np.sort(np.concatenate([t3_keys, (b * n + a) * n + c]))
    keys = keys[np.diff(keys, prepend=-1) != 0]
    a, b, c = np.unravel_index(keys, (n, n, n))
    t = np.zeros(len(keys), dtype=complex)
    t[np.searchsorted(keys, t3_keys)] = t3
    t_ba = t[np.searchsorted(keys, (b * n + a) * n + c)]
    anti = 0.25 * (t + t_ba)  # Tr({L_a,L_b} L_c)/4
    comm = t - t_ba           # Tr([L_a,L_b] L_c)
    residue = max(_max_abs(anti.imag), _max_abs(comm.real) / 4.0)
    if residue > tol:
        raise ValueError(
            f"structure tensors have imaginary residue {residue:.3e} > {tol:.3e}; "
            "generator basis is inconsistent"
        )
    index = np.column_stack([a, b, c])
    return StructureTensors(
        basis.dim, *_sparse(index, comm.imag / 4.0), *_sparse(index, anti.real)
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
