import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from quditkit import qudit, sampling
from quditkit.basis import adjoint_of, cached_basis, cached_tensors
from quditkit.qudit import (
    UnphysicalStateError,
    entropy,
    from_bloch,
    from_density_matrix,
    invariants,
    purity_residuals,
    to_bloch,
    transform,
)
from quditkit.sympoly import elementary_from_power, power_sums

from closed_forms import (
    coo_q, dense_tensors, einsum_adjoint, einsum_from_bloch, einsum_to_bloch,
    elementary_from_invariants, uncached_q,
)


def test_from_bloch_zero_is_maximally_mixed():
    st = from_bloch(4, np.zeros(15))
    assert np.abs(st.rho - np.eye(4) / 4).max() < 1e-15


def test_from_bloch_rejects_wrong_length():
    with pytest.raises(ValueError):
        from_bloch(3, np.zeros(7))


def test_qutrit_diagonal_pure_state():
    # canonical ordering puts the diagonal generators last: indices 6, 7
    P = np.zeros(8)
    P[6] = 1.5
    P[7] = np.sqrt(3.0) / 2.0
    st = from_bloch(3, P)
    assert np.abs(st.rho - np.diag([1.0, 0.0, 0.0])).max() < 1e-14


def test_qubit_north_pole():
    st = from_bloch(2, np.array([0.0, 0.0, 1.0]))
    assert np.abs(st.rho - np.diag([1.0, 0.0])).max() < 1e-15


def test_to_bloch_round_trip(bases, rng):
    for N in (2, 3, 4, 5):
        for _ in range(1000):
            rho = sampling.random_hermitian_unit_trace(N, rng)
            P = to_bloch(rho, bases[N])
            assert np.abs(from_bloch(N, P).rho - rho).max() < 1e-12


def test_to_bloch_rejects_wrong_trace(bases):
    with pytest.raises(ValueError):
        to_bloch(np.eye(3), bases[3])


def test_haar_pure_state_norm(bases, rng):
    psi = sampling.random_pure_state(4, rng)
    P = to_bloch(np.outer(psi, psi.conj()), bases[4])
    assert abs(P @ P - 6.0) < 1e-10


@pytest.mark.parametrize("N", (2, 3, 4, 5))
def test_pure_state_invariants(N, bases, tensors, rng):
    psi = sampling.random_pure_state(N, rng)
    st = from_bloch(N, to_bloch(np.outer(psi, psi.conj()), bases[N]))
    inv = invariants(st, tensors[N])
    assert abs(inv.p2 - N * (N - 1) / 2.0) < 1e-9
    assert abs(inv.Q - N * (N - 1) * (N - 2) / 2.0) < 1e-9
    assert abs(inv.quartic - sum(v * v for v in inv.q)) < 1e-12


def test_zero_bloch_invariants(tensors):
    inv = invariants(from_bloch(3, np.zeros(8)), tensors[3])
    assert inv.p2 == inv.Q == inv.quartic == 0.0


@pytest.mark.parametrize("N", (2, 3, 4, 5))
def test_purity_residuals_pure(N, bases, tensors, rng):
    psi = sampling.random_pure_state(N, rng)
    rho = np.outer(psi, psi.conj())
    assert np.abs(rho @ rho - rho).max() < 1e-12  # independent idempotency check
    st = from_bloch(N, to_bloch(rho, bases[N]))
    res = purity_residuals(st, tensors[N])
    assert abs(res.r_norm) < 1e-10
    assert res.r_vec < 1e-10


def test_purity_residuals_maximally_mixed(tensors):
    res = purity_residuals(from_bloch(3, np.zeros(8)), tensors[3])
    assert abs(res.r_norm + 3.0) < 1e-14
    assert res.r_vec < 1e-14


def test_pure_norm_hypersphere_without_purity(tensors):
    # |P| = sqrt(3) along one antisymmetric generator: on the pure-norm
    # sphere, but the vector condition fails and rho^2 != rho
    P = np.zeros(8)
    P[3] = np.sqrt(3.0)  # a12 generator
    st = from_bloch(3, P)
    res = purity_residuals(st, tensors[3])
    assert abs(res.r_norm) < 1e-12
    assert res.r_vec > 0.1
    assert np.abs(st.rho @ st.rho - st.rho).max() > 1e-3


def test_purity_iff_residuals(bases, tensors, rng):
    # two-sided: idempotent iff both residuals small, on pure and
    # perturbed-pure populations
    for _ in range(50):
        N = int(rng.integers(2, 6))
        psi = sampling.random_pure_state(N, rng)
        rho = np.outer(psi, psi.conj())
        if rng.random() < 0.5:
            rho = 0.9 * rho + 0.1 * np.eye(N) / N
        st = from_bloch(N, to_bloch(rho, bases[N]))
        res = purity_residuals(st, tensors[N])
        idempotent = np.abs(rho @ rho - rho).max() < 1e-10
        residual_pure = abs(res.r_norm) < 1e-8 and res.r_vec < 1e-8
        assert idempotent == residual_pure


def test_entropy_pure_and_mixed(rng):
    psi = sampling.random_pure_state(3, rng)
    from quditkit.basis import cached_basis
    st = from_bloch(3, to_bloch(np.outer(psi, psi.conj()), cached_basis(3)))
    assert abs(entropy(st)) < 1e-9
    assert abs(entropy(from_bloch(3, np.zeros(8))) - np.log(3.0)) < 1e-12


def test_entropy_explicit_spectrum(bases):
    rho = np.diag([0.5, 0.3, 0.2])
    st = from_bloch(3, to_bloch(rho, bases[3]))
    expect = -sum(x * np.log(x) for x in (0.5, 0.3, 0.2))
    assert abs(entropy(st) - expect) < 1e-12
    assert abs(entropy(st) - 1.0297) < 5e-5


def test_entropy_refuses_unphysical():
    P = np.zeros(8)
    P[6] = 3.0
    with pytest.raises(UnphysicalStateError):
        entropy(from_bloch(3, P))


def test_transform_identity(rng):
    st = from_bloch(3, rng.standard_normal(8))
    st2 = transform(st, np.eye(3))
    assert np.abs(st2.bloch - st.bloch).max() < 1e-12


def test_transform_diag_phase_fixes_diagonal_state():
    P = np.zeros(8)
    P[6] = 1.5
    P[7] = np.sqrt(3.0) / 2.0
    st = from_bloch(3, P)
    U = np.diag(np.exp(1j * np.array([0.3, -0.4, 1.1])))
    st2 = transform(st, U)
    assert np.abs(st2.rho - st.rho).max() < 1e-12


def test_transform_rejects_nonunitary():
    with pytest.raises(ValueError):
        transform(from_bloch(2, np.zeros(3)), np.diag([1.0, 0.5]))


def test_transform_preserves_invariants_and_entropy(bases, tensors, rng):
    from quditkit.basis import adjoint_of

    for _ in range(20):
        rho = sampling.random_density_matrix(3, rng)
        st = from_bloch(3, to_bloch(rho, bases[3]))
        U = sampling.haar_unitary(3, rng)
        st2 = transform(st, U)
        # oracle: direct conjugation
        assert np.abs(st2.rho - U @ st.rho @ U.conj().T).max() < 1e-12
        R = adjoint_of(U, bases[3]).R
        assert np.abs(st2.bloch - R @ st.bloch).max() < 1e-10
        i1, i2 = invariants(st, tensors[3]), invariants(st2, tensors[3])
        assert abs(i1.p2 - i2.p2) < 1e-9
        assert abs(i1.Q - i2.Q) < 1e-9
        assert abs(i1.quartic - i2.quartic) < 1e-9
        assert abs(entropy(st) - entropy(st2)) < 1e-9


@pytest.mark.parametrize("N", (3, 4, 5, 6))
def test_elementary_from_invariants_match_spectrum(N, bases, tensors, rng):
    for _ in range(100):
        rho = sampling.random_density_matrix(N, rng)
        st = from_bloch(N, to_bloch(rho, bases[N]))
        inv = invariants(st, tensors[N])
        e = elementary_from_power(power_sums(st.rho, 4))
        e2, e3, e4 = elementary_from_invariants(N, inv)
        assert abs(e[1] - e2) < 1e-10
        assert abs(e[2] - e3) < 1e-10
        if N >= 4:  # e4 is identically zero for a qutrit
            assert abs(e[3] - e4) < 1e-10


def test_entropy_depends_only_on_invariants(bases, rng):
    # states related by an adjoint rotation have the same entropy
    for _ in range(20):
        rho = sampling.random_density_matrix(4, rng)
        st = from_bloch(4, to_bloch(rho, bases[4]))
        U = sampling.haar_unitary(4, rng)
        st2 = transform(st, U)
        assert abs(entropy(st) - entropy(st2)) < 1e-9


def test_state_json_schema(bases):
    d = from_bloch(2, np.array([0.0, 0.0, 1.0])).to_json_dict()
    assert d == {"N": 2, "bloch": [0.0, 0.0, 1.0], "physical": True}


@given(strategies.integers(2, 12), strategies.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_sparse_d_contractions_match_dense_einsum(N, seed):
    P = np.random.default_rng(seed).uniform(-1.0, 1.0, N * N - 1)
    t = cached_tensors(N)
    state = from_bloch(N, P)
    q = np.einsum("abc,b,c->a", dense_tensors(t)[1], P, P)
    inv = invariants(state, t)
    assert np.abs(np.array(inv.q) - q).max() <= 1e-12
    assert abs(inv.Q - P @ q) <= 1e-12 * max(1.0, abs(P @ q))
    assert abs(inv.quartic - q @ q) <= 1e-12 * max(1.0, q @ q)
    r_vec = np.abs((1.0 - 2.0 / N) * P - q / N).max()
    assert abs(purity_residuals(state, t).r_vec - r_vec) <= 1e-12


def _density_matrices(N, rng):
    """Seeded unit-trace Hermitian inputs: mixed, pure, rank 2 and indefinite."""
    return [
        sampling.random_density_matrix(N, rng),
        sampling.random_density_matrix(N, rng, rank=1),
        sampling.random_density_matrix(N, rng, rank=2),
        sampling.random_hermitian_unit_trace(N, rng),
    ]


def _bloch_vectors(N, rng):
    generators = cached_basis(N).generators
    Ps = [einsum_to_bloch(rho, generators) for rho in _density_matrices(N, rng)]
    return Ps + [rng.uniform(-1.0, 1.0, N * N - 1)]


@pytest.mark.parametrize("N", range(2, 17))
def test_invariants_match_coo_contraction(N):
    # q, Q and quartic are of degree 2, 3 and 4 in P: each is compared
    # relative to max(1, |P|^2) raised to half its degree
    rng = np.random.default_rng([N, 11])
    t = cached_tensors(N)
    for P in _bloch_vectors(N, rng):
        state = from_bloch(N, P)
        q = coo_q(P, t)
        scale = max(1.0, P @ P)
        inv = invariants(state)
        assert np.abs(np.array(inv.q) - q).max() <= 1e-14 * scale
        assert abs(inv.Q - P @ q) <= 1e-14 * scale**1.5
        assert abs(inv.quartic - q @ q) <= 1e-14 * scale**2
        r_vec = np.abs((1.0 - 2.0 / N) * P - q / N).max()
        assert abs(purity_residuals(state).r_vec - r_vec) <= 1e-14 * scale


@pytest.mark.parametrize("N", (2, 3, 5, 8, 11, 16, 24, 32))
def test_maps_match_einsum_contractions(N):
    rng = np.random.default_rng([N, 12])
    b = cached_basis(N)
    for rho in _density_matrices(N, rng):
        P_ref = einsum_to_bloch(rho, b.generators)
        P = to_bloch(rho, b)
        assert np.abs(P - P_ref).max() <= 1e-14 * max(1.0, np.abs(P_ref).max())
        rho_ref = einsum_from_bloch(P, b.generators)
        assert np.abs(from_bloch(N, P).rho - rho_ref).max() <= 1e-14 * max(
            1.0, np.abs(rho_ref).max())
    U = sampling.haar_unitary(N, rng)
    assert np.abs(adjoint_of(U, b).R - einsum_adjoint(U, b.generators)).max() <= 1e-14


@pytest.mark.parametrize("N", (8, 16, 32))
def test_invariants_unchanged_by_haar_conjugation(N):
    rng = np.random.default_rng([N, 13])
    for rho in _density_matrices(N, rng)[:3]:
        st = from_density_matrix(rho)
        st2 = transform(st, sampling.haar_unitary(N, rng))
        i1, i2 = invariants(st), invariants(st2)
        scale = max(1.0, i1.p2)
        assert abs(i1.p2 - i2.p2) <= 1e-12 * scale
        assert abs(i1.Q - i2.Q) <= 1e-12 * scale**1.5
        assert abs(i1.quartic - i2.quartic) <= 1e-12 * scale**2


@pytest.mark.parametrize("N", (2, 3, 8, 16, 24, 32))
def test_bloch_round_trip_at_large_n(N):
    rng = np.random.default_rng([N, 14])
    b = cached_basis(N)
    for rho in _density_matrices(N, rng):
        P = to_bloch(rho, b)
        back = from_bloch(N, P).rho
        assert np.abs(back - rho).max() <= 1e-13
        assert np.abs(to_bloch(back, b) - P).max() <= 1e-13 * max(1.0, np.abs(P).max())


def test_q_is_computed_once_per_state(monkeypatch):
    # q is one GEMV with the generator matrix; invariants and purity_residuals
    # share it, so the generator matrix is fetched once for both
    state = from_bloch(5, np.random.default_rng(15).uniform(-1.0, 1.0, 24))
    calls = []

    def counted(N):
        calls.append(N)
        return cached_basis(N)

    monkeypatch.setattr(qudit, "cached_basis", counted)
    invariants(state)
    purity_residuals(state, cached_tensors(5))
    assert calls == [5]
    assert state.q is state.q


def test_q_is_read_only():
    state = from_bloch(3, np.full(8, 0.25))
    assert not state.q.flags.writeable
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.q = np.zeros(8)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del state.q
    with pytest.raises(ValueError):
        invariants(state, cached_tensors(4))


@pytest.mark.parametrize("N", (*range(2, 17), 32))
def test_cached_q_has_the_bits_of_the_expression(N):
    rng = np.random.default_rng([N, 16])
    for P in _bloch_vectors(N, rng):
        state = from_bloch(N, P)
        q = uncached_q(state)
        assert state.q.tobytes() == q.tobytes()
        inv, pur = invariants(state), purity_residuals(state)
        assert inv.q == tuple(float(v) for v in q)
        assert (inv.Q, inv.quartic) == (float(P @ q), float(q @ q))
        assert pur.r_vec == float(np.abs((1.0 - 2.0 / N) * P - q / N).max())
