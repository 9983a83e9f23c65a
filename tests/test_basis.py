import tracemalloc

import numpy as np
import pytest

from quditkit import sampling
from quditkit.basis import (
    DENSE_VIEW_MAX_BYTES,
    SPARSE_CUTOFF,
    _sparse,
    _triple_traces,
    adjoint_of,
    cached_basis,
    cached_tensors,
    compute_tensors,
    generate_basis,
    verify_ff_dd_identity,
    verify_product_rule,
)

from closed_forms import dense_tensors

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def standard_su3_gellmann():
    """The eight textbook SU(3) matrices in their usual 1..8 ordering."""
    l1 = np.zeros((3, 3), dtype=complex); l1[0, 1] = l1[1, 0] = 1
    l2 = np.zeros((3, 3), dtype=complex); l2[0, 1] = -1j; l2[1, 0] = 1j
    l3 = np.diag([1, -1, 0]).astype(complex)
    l4 = np.zeros((3, 3), dtype=complex); l4[0, 2] = l4[2, 0] = 1
    l5 = np.zeros((3, 3), dtype=complex); l5[0, 2] = -1j; l5[2, 0] = 1j
    l6 = np.zeros((3, 3), dtype=complex); l6[1, 2] = l6[2, 1] = 1
    l7 = np.zeros((3, 3), dtype=complex); l7[1, 2] = -1j; l7[2, 1] = 1j
    l8 = np.diag([1, 1, -2]).astype(complex) / np.sqrt(3)
    return [l1, l2, l3, l4, l5, l6, l7, l8]


def trace_loop(a, b):
    """Tr(a b) by explicit loops, independent of numpy contractions."""
    n = a.shape[0]
    s = 0.0 + 0.0j
    for i in range(n):
        for j in range(n):
            s += a[i, j] * b[j, i]
    return s


def matmul_loop(a, b):
    n = a.shape[0]
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[i, j] += a[i, k] * b[k, j]
    return out


def test_rejects_dimension_below_two():
    with pytest.raises(ValueError):
        generate_basis(1)


def test_n2_basis_is_pauli():
    b = generate_basis(2)
    assert np.allclose(b.generators[0], PAULI["x"])
    assert np.allclose(b.generators[1], PAULI["y"])
    assert np.allclose(b.generators[2], PAULI["z"])


@pytest.mark.parametrize("N", range(2, 7))
def test_hermitian_traceless_orthonormal(N, bases):
    lam = bases[N].generators
    assert lam.shape == (N * N - 1, N, N)
    for g in lam:
        assert np.abs(g - g.conj().T).max() == 0.0
        assert abs(np.trace(g)) < 1e-14
    for a in range(len(lam)):
        for b in range(a, len(lam)):
            got = trace_loop(lam[a], lam[b])
            want = 2.0 if a == b else 0.0
            assert abs(got - want) < 1e-13


def test_n3_matches_standard_gellmann_content(bases):
    # canonical ordering regroups by sym/antisym/diag; content is the same set
    ours = bases[3].generators
    for std in standard_su3_gellmann():
        assert min(np.abs(std - g).max() for g in ours) < 1e-15


def test_n4_contains_pauli_dictionary_matrices(bases):
    from quditkit.su4 import PAULI_PRODUCT_IDENTITIES

    ours = bases[4].generators
    for name, explicit, _ in PAULI_PRODUCT_IDENTITIES:
        assert min(np.abs(explicit - g).max() for g in ours) < 1e-15, name


@pytest.mark.parametrize("N", range(2, 7))
def test_product_rule(N, bases, tensors):
    ok, res = verify_product_rule(bases[N], tensors[N])
    assert ok and res < 1e-10


def test_product_rule_detects_broken_normalization(bases, tensors):
    broken = bases[3].generators.copy()
    broken[0] = 2.0 * broken[0]
    b = type(bases[3])(dim=3, generators=broken, labels=bases[3].labels)
    ok, res = verify_product_rule(b, tensors[3])
    assert not ok and res > 1e-3


def test_su3_structure_constant_f123_standard_ordering():
    # oracle: commutator trace with loop-based matrix products on the
    # textbook-ordered matrices
    std = standard_su3_gellmann()
    comm = matmul_loop(std[0], std[1]) - matmul_loop(std[1], std[0])
    f123 = trace_loop(comm, std[2]) / 4j
    assert abs(f123 - 1.0) < 1e-14
    # the same value sits at the permuted indices of the canonical tensor:
    # s12 -> 0, a12 -> 3, d1 -> 6
    t = compute_tensors(cached_basis(3))
    assert abs(dense_tensors(t)[0][0, 3, 6] - 1.0) < 1e-14


def test_d_vanishes_for_su2(tensors):
    assert len(tensors[2].d_value) == 0
    assert np.abs(dense_tensors(tensors[2])[1]).max() == 0.0


def test_compute_tensors_rejects_broken_basis(bases):
    # non-Hermitian sigma_x: 0.5i on the diagonal, or 1e-6i on one off-diagonal entry
    for delta in (0.5j * np.eye(2), np.array([[0.0, 1e-6j], [0.0, 0.0]])):
        broken = bases[2].generators.copy()
        broken[0] = broken[0] + delta
        b = type(bases[2])(dim=2, generators=broken, labels=bases[2].labels)
        with pytest.raises(ValueError, match="imaginary residue"):
            compute_tensors(b)


@pytest.mark.parametrize("N", range(2, 7))
def test_tensor_symmetries_and_contractions(N, tensors):
    f, d = dense_tensors(tensors[N])
    n = f.shape[0]
    # total antisymmetry / symmetry under any exchange
    assert np.abs(f + np.swapaxes(f, 0, 1)).max() < 1e-14
    assert np.abs(f - np.transpose(f, (1, 2, 0))).max() < 1e-14
    assert np.abs(d - np.swapaxes(d, 0, 1)).max() < 1e-14
    assert np.abs(d - np.transpose(d, (1, 2, 0))).max() < 1e-14
    assert np.abs(np.einsum("ijk,ijn->kn", f, f) - N * np.eye(n)).max() < 1e-10
    assert np.abs(
        np.einsum("ijk,ijn->kn", d, d) - ((N * N - 4.0) / N) * np.eye(n)
    ).max() < 1e-10
    assert np.abs(np.einsum("ijj->i", d)).max() < 1e-10


def test_su3_dd_contraction_value(tensors):
    d = dense_tensors(tensors[3])[1]
    dd = np.einsum("ijk,ijn->kn", d, d)
    assert np.abs(dd - (5.0 / 3.0) * np.eye(8)).max() < 1e-12


@pytest.mark.parametrize("N", (2, 3, 4))
def test_ff_dd_identity_exhaustive(N, tensors):
    # exhaustive loop oracle on a subsample plus the vectorized full check
    f, d = dense_tensors(tensors[N])
    n = f.shape[0]
    rng = np.random.default_rng(N)
    idx = rng.integers(0, n, size=(60, 4))
    for m, k, nn, l in idx:
        lhs = sum(f[m, k, i] * f[nn, l, i] for i in range(n))
        rhs = (2.0 / N) * (
            float((m == nn) and (k == l)) - float((m == l) and (k == nn))
        )
        rhs += sum(d[m, nn, i] * d[k, l, i] - d[k, nn, i] * d[m, l, i] for i in range(n))
        assert abs(lhs - rhs) < 1e-12
    ok, res = verify_ff_dd_identity(tensors[N])
    assert ok and res < 1e-10


def test_adjoint_identity(bases):
    R = adjoint_of(np.eye(3), bases[3]).R
    assert np.abs(R - np.eye(8)).max() < 1e-14


def test_adjoint_rejects_nonunitary(bases):
    with pytest.raises(ValueError):
        adjoint_of(np.diag([1.0, 2.0]), bases[2])


def test_adjoint_diag_phase_rotates_pauli_plane(bases):
    # oracle: conjugate each Pauli matrix explicitly
    theta = 0.7
    U = np.diag([1.0, np.exp(1j * theta)])
    R = adjoint_of(U, bases[2]).R
    for j, sig in enumerate((PAULI["x"], PAULI["y"], PAULI["z"])):
        conj = U @ sig @ U.conj().T
        rebuilt = sum(R[k, j] * g for k, g in enumerate(bases[2].generators))
        assert np.abs(conj - rebuilt).max() < 1e-14
    expect = np.array(
        [[np.cos(theta), -np.sin(theta), 0.0],
         [np.sin(theta), np.cos(theta), 0.0],
         [0.0, 0.0, 1.0]]
    )
    assert np.abs(R - expect).max() < 1e-14


@pytest.mark.parametrize("N", (2, 3, 4))
def test_adjoint_haar_properties(N, bases, tensors, rng):
    b = bases[N]
    f, d = dense_tensors(tensors[N])
    n = b.size
    for _ in range(25):
        U = sampling.haar_unitary(N, rng)
        R = adjoint_of(U, b).R
        assert np.abs(R.T @ R - np.eye(n)).max() < 1e-10
        fcov = np.einsum("kql,kj,qp,lm->jpm", f, R, R, R, optimize=True)
        dcov = np.einsum("kql,kj,qp,lm->jpm", d, R, R, R, optimize=True)
        assert np.abs(fcov - f).max() < 1e-8
        assert np.abs(dcov - d).max() < 1e-8


def test_adjoint_group_property(bases, rng):
    for N in (2, 3, 4):
        U = sampling.haar_unitary(N, rng)
        V = sampling.haar_unitary(N, rng)
        RU = adjoint_of(U, bases[N]).R
        RV = adjoint_of(V, bases[N]).R
        RUV = adjoint_of(U @ V, bases[N]).R
        assert np.abs(RUV - RU @ RV).max() < 1e-10


def test_json_export_schema(bases, tensors):
    bj = bases[3].to_json_dict()
    assert bj["header"] == {"N": 3, "tolerance": 1e-9, "ordering": "sym-antisym-diag"}
    assert len(bj["generators"]) == 8
    assert set(bj["generators"][0]) == {"re", "im"}
    tj = tensors[3].to_json_dict()
    assert set(tj) == {"header", "f", "d"}
    rec = tj["f"][0]
    assert set(rec) == {"a", "b", "c", "value"}
    # sparse entries reconstruct the dense tensor
    f = np.zeros((8, 8, 8))
    for r in tj["f"]:
        f[r["a"], r["b"], r["c"]] = r["value"]
    assert np.abs(f - dense_tensors(tensors[3])[0]).max() < 1e-12


def trace_tensors_oracle(basis):
    """Dense f, d from the full Tr(L_a L_b L_c) einsum (O(N^8) time, O(N^6) memory)."""
    lam = basis.generators
    prod = np.einsum("aij,bjk->abik", lam, lam)
    t3 = np.einsum("abik,cki->abc", prod, lam)
    anti = 0.25 * (t3 + np.swapaxes(t3, 0, 1))
    comm = t3 - np.swapaxes(t3, 0, 1)
    return comm.imag / 4.0, anti.real


@pytest.mark.parametrize("N", range(2, 12))
def test_coo_tensors_match_trace_oracle(N):
    basis = generate_basis(N)
    t = compute_tensors(basis)
    f, d = trace_tensors_oracle(basis)
    for dense, index, value in ((f, t.f_index, t.f_value), (d, t.d_index, t.d_value)):
        expect = np.argwhere(np.abs(dense) > SPARSE_CUTOFF)
        assert index.shape == expect.shape and (index == expect).all()
        assert np.abs(value - dense[tuple(expect.T)]).max(initial=0.0) <= 1e-15
        assert not index.flags.writeable and not value.flags.writeable


def paired_tensors(basis):
    """Reference COO f and d as Tr([L_a,L_b] L_c)/4i and Tr({L_a,L_b} L_c)/4.

    T_abc and T_bac are paired on the union of both supports (sort, dedupe,
    searchsorted).  For Hermitian generators Re T_bac = Re T_abc and
    Im T_bac = -Im T_abc bit for bit, so this must give the same bytes as
    reading f and d off T_abc alone.
    """
    n = basis.size
    t3_keys, t3 = _triple_traces(basis)
    a, b, c = np.unravel_index(t3_keys, (n, n, n))
    keys = np.sort(np.concatenate([t3_keys, (b * n + a) * n + c]))
    keys = keys[np.diff(keys, prepend=-1) != 0]
    a, b, c = np.unravel_index(keys, (n, n, n))
    t = np.zeros(len(keys), dtype=complex)
    t[np.searchsorted(keys, t3_keys)] = t3
    t_ba = t[np.searchsorted(keys, (b * n + a) * n + c)]
    index = np.column_stack([a, b, c])
    return (*_sparse(index, (t - t_ba).imag / 4.0), *_sparse(index, (0.25 * (t + t_ba)).real))


@pytest.mark.parametrize("N", [*range(2, 17), 24, 32])
def test_compute_tensors_bit_identical_to_paired_build(N):
    basis = cached_basis(N)
    t = compute_tensors(basis)
    got = (t.f_index, t.f_value, t.d_index, t.d_value)
    for a, b in zip(got, paired_tensors(basis)):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("N", (16, 32))
def test_coo_sum_rules_at_large_n(N):
    t = cached_tensors(N)
    n = N * N - 1
    a, b, c = t.f_index.T
    assert np.abs(np.bincount(c, t.f_value**2, n) - N).max() < 1e-10
    a, b, c = t.d_index.T
    assert np.abs(np.bincount(c, t.d_value**2, n) - (N * N - 4.0) / N).max() < 1e-10
    diag = a == b
    assert np.abs(np.bincount(c[diag], t.d_value[diag], n)).max() < 1e-10


def test_basis_refused_above_budget():
    assert 16 * (64 * 64 - 1) * 64 * 64 <= DENSE_VIEW_MAX_BYTES
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="DENSE_VIEW_MAX_BYTES"):
            generate_basis(65)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_tensor_build_memory_at_n32():
    tracemalloc.start()
    try:
        compute_tensors(generate_basis(32))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20
