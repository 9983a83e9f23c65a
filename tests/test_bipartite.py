import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quditkit import bipartite, sampling
from quditkit.basis import cached_basis, cached_tensors
from quditkit.bipartite import (
    derived_qubit_identities,
    from_components,
    from_density_matrix,
    mixed_positivity_qubit,
    purity_residuals_qubit,
    purity_residuals_qudit,
    reduced_states,
    to_components,
    trace_identity_residual,
    werner,
    werner_consistency,
    werner_positivity_scan,
    werner_residual_curve,
    werner_scan_csv,
    z_matrix,
)
from quditkit.sympoly import elementary_from_power, positivity_check, power_sums

from closed_forms import dense_tensors

SINGLET = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)


def singlet_state():
    return from_density_matrix(np.outer(SINGLET, SINGLET.conj()), 2)


def adjugate_oracle(m):
    """Adjugate by cofactor expansion, independent of det/inverse routines."""
    adj = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            minor = np.delete(np.delete(m, i, axis=0), j, axis=1)
            cof = minor[0, 0] * minor[1, 1] - minor[0, 1] * minor[1, 0]
            adj[j, i] = (-1) ** (i + j) * cof
    return adj


def random_pure_bipartite(N, rng):
    psi = sampling.random_pure_state(N * N, rng)
    return from_density_matrix(np.outer(psi, psi.conj()), N)


# ---------------------------------------------------------------------------
# component form
# ---------------------------------------------------------------------------

def test_zero_components_is_maximally_mixed():
    st = from_components(2, np.zeros(3), np.zeros(3), np.zeros((3, 3)))
    assert np.abs(st.rho - np.eye(4) / 4.0).max() < 1e-15


def test_product_of_north_pole_qubits():
    x = np.array([0.0, 0.0, 1.0])
    st = from_components(2, x, x, np.outer(x, x))
    want = np.zeros((4, 4))
    want[0, 0] = 1.0
    assert np.abs(st.rho - want).max() < 1e-15


def test_from_components_rejects_bad_shapes():
    with pytest.raises(ValueError):
        from_components(2, np.zeros(4), np.zeros(3), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        from_components(2, np.zeros(3), np.zeros(3), np.zeros((3, 4)))


def test_to_components_singlet():
    x, y, w = to_components(np.outer(SINGLET, SINGLET.conj()), cached_basis(2))
    assert np.abs(x).max() < 1e-14
    assert np.abs(y).max() < 1e-14
    assert np.abs(w + np.eye(3)).max() < 1e-14


def test_to_components_product_state(rng):
    p1 = sampling.random_pure_state(2, rng)
    p2 = sampling.random_pure_state(2, rng)
    rho = np.kron(np.outer(p1, p1.conj()), np.outer(p2, p2.conj()))
    st = from_density_matrix(rho, 2)
    assert np.abs(st.omega - np.outer(st.x, st.y)).max() < 1e-12


def kron_sum_oracle(N, x, y, w):
    """rho from the paper's formula, one np.kron product per term."""
    lam = cached_basis(N).generators
    eye = np.eye(N)
    rho = np.eye(N * N, dtype=complex)
    for i in range(N * N - 1):
        rho += x[i] * np.kron(lam[i], eye) + y[i] * np.kron(eye, lam[i])
        for j in range(N * N - 1):
            rho += w[i, j] * np.kron(lam[i], lam[j])
    return rho / (N * N)


@pytest.mark.parametrize("N", (2, 3))
def test_from_components_matches_kron_sum(rng, N):
    n = N * N - 1
    x = rng.standard_normal(n)
    y = rng.standard_normal(n)
    w = rng.standard_normal((n, n))
    st = from_components(N, x, y, w)
    assert np.abs(st.rho - kron_sum_oracle(N, x, y, w)).max() < 1e-14


def test_component_round_trip(rng):
    for N in (2, 3, 5, 7):
        n = N * N - 1
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        w = rng.standard_normal((n, n))
        st = from_components(N, x, y, w)
        x2, y2, w2 = to_components(st.rho, cached_basis(N))
        assert np.abs(x2 - x).max() < 1e-12
        assert np.abs(y2 - y).max() < 1e-12
        assert np.abs(w2 - w).max() < 1e-12


def test_component_map_memory_is_quartic():
    # the N = 8 map touches O(N^4) entries; a table of every L_i x L_j
    # product would take about 260 MB
    N = 8
    cached_basis(N)
    rho = np.eye(N * N) / (N * N)
    tracemalloc.start()
    try:
        x, y, w = to_components(rho, cached_basis(N))
        from_components(N, x, y, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_reduced_states(rng):
    # product state reduces to its factors; entangled states to their marginals
    P1 = np.array([0.3, -0.2, 0.5])
    P2 = np.array([-0.1, 0.4, 0.2])
    st = from_components(2, P1, P2, np.outer(P1, P2))
    r1, r2 = reduced_states(st)
    assert np.abs(r1.bloch - P1).max() < 1e-12
    assert np.abs(r2.bloch - P2).max() < 1e-12

    r1, r2 = reduced_states(singlet_state())
    assert np.abs(r1.rho - np.eye(2) / 2.0).max() < 1e-14
    assert np.abs(r2.rho - np.eye(2) / 2.0).max() < 1e-14

    st = random_pure_bipartite(3, rng)
    r1, r2 = reduced_states(st)
    assert np.abs(r1.bloch - st.x).max() < 1e-12
    assert np.abs(r2.bloch - st.y).max() < 1e-12


# ---------------------------------------------------------------------------
# two-qubit purity chain
# ---------------------------------------------------------------------------

def test_qubit_purity_product_state():
    x = np.array([0.0, 0.0, 1.0])
    st = from_components(2, x, x, np.outer(x, x))
    res = purity_residuals_qubit(st)
    assert res.total() < 1e-12


def test_qubit_purity_singlet():
    res = purity_residuals_qubit(singlet_state())
    assert res.total() < 1e-12


def test_qubit_purity_maximally_mixed():
    st = from_components(2, np.zeros(3), np.zeros(3), np.zeros((3, 3)))
    res = purity_residuals_qubit(st)
    assert abs(res.r_sum + 3.0) < 1e-14


def test_qubit_purity_random_populations(rng):
    for _ in range(200):
        st = random_pure_bipartite(2, rng)
        assert purity_residuals_qubit(st).total() < 1e-8
        assert np.abs(st.rho @ st.rho - st.rho).max() < 1e-10
    for _ in range(200):
        rho = sampling.random_density_matrix(4, rng, rank=int(rng.integers(2, 5)))
        st = from_density_matrix(rho, 2)
        assert purity_residuals_qubit(st).total() > 1e-4


def test_qubit_operations_reject_wrong_dimension(rng):
    st = random_pure_bipartite(3, rng)
    with pytest.raises(ValueError):
        purity_residuals_qubit(st)
    with pytest.raises(ValueError):
        z_matrix(st)
    with pytest.raises(ValueError):
        mixed_positivity_qubit(st)


def test_derived_identities_singlet():
    rep = derived_qubit_identities(singlet_state())
    assert abs(rep["det_omega"] + 1.0) < 1e-12
    assert abs(rep["x_norm_sq"]) < 1e-12
    assert rep["det_connection_residual"] < 1e-12


def test_derived_identities_product_state(rng):
    p1 = sampling.random_pure_state(2, rng)
    p2 = sampling.random_pure_state(2, rng)
    st = from_density_matrix(
        np.kron(np.outer(p1, p1.conj()), np.outer(p2, p2.conj())), 2
    )
    rep = derived_qubit_identities(st)
    assert abs(rep["det_omega"]) < 1e-12
    assert abs(rep["x_norm_sq"] - 1.0) < 1e-12
    assert abs(rep["y_norm_sq"] - 1.0) < 1e-12


def test_derived_identities_partially_entangled():
    theta = np.pi / 6.0
    psi = np.zeros(4, dtype=complex)
    psi[0] = np.cos(theta)
    psi[3] = np.sin(theta)
    st = from_density_matrix(np.outer(psi, psi.conj()), 2)
    rep = derived_qubit_identities(st)
    assert abs(rep["det_omega"] + np.sin(2 * theta) ** 2) < 1e-12
    assert abs(rep["det_omega"] + 0.75) < 1e-12
    assert abs(rep["x_norm_sq"] - 0.25) < 1e-12
    assert rep["trace_identity_residual"] < 1e-12
    assert rep["gram_identity_residual"] < 1e-12


def test_derived_identities_refuse_mixed_input():
    st = from_components(2, np.zeros(3), np.zeros(3), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        derived_qubit_identities(st)


def test_z_matrix_product_state(rng):
    p1 = sampling.random_pure_state(2, rng)
    p2 = sampling.random_pure_state(2, rng)
    st = from_density_matrix(
        np.kron(np.outer(p1, p1.conj()), np.outer(p2, p2.conj())), 2
    )
    zm = z_matrix(st)
    assert not zm.entangled
    assert np.abs(zm.Z).max() < 1e-12


def test_z_matrix_singlet():
    zm = z_matrix(singlet_state())
    assert zm.entangled
    assert np.abs(zm.Z + np.eye(3)).max() < 1e-12
    assert zm.adjugate_residual < 1e-12


@given(arrays(np.float64, (3, 3), elements=st.floats(-2.0, 2.0, allow_subnormal=False)))
@settings(max_examples=150, deadline=None)
def test_z_matrix_is_minus_adjugate_transpose(w):
    st = from_components(2, np.zeros(3), np.zeros(3), w)
    zm = z_matrix(st)
    assert np.abs(zm.Z + adjugate_oracle(w).T).max() < 1e-10
    with np.errstate(divide="ignore", invalid="ignore"):
        det_w = np.linalg.det(w)
    assert np.abs(w @ zm.Z.T + det_w * np.eye(3)).max() < 1e-10


def test_z_decomposes_omega_for_pure_states(rng):
    # the correlation-matrix purity condition reads w = x y^T + Z
    for _ in range(50):
        stp = random_pure_bipartite(2, rng)
        zm = z_matrix(stp)
        assert np.abs(stp.omega - np.outer(stp.x, stp.y) - zm.Z).max() < 1e-10


def test_mixed_positivity_maximally_mixed():
    st = from_components(2, np.zeros(3), np.zeros(3), np.zeros((3, 3)))
    rep = mixed_positivity_qubit(st)
    assert all(rep["satisfied"])
    assert not any(rep["equality"])
    assert rep["psd"]


def test_mixed_positivity_singlet_equalities():
    rep = mixed_positivity_qubit(singlet_state())
    assert all(rep["satisfied"])
    assert all(rep["equality"])


def test_mixed_positivity_pure_states_sit_on_equality(rng):
    for _ in range(50):
        rep = mixed_positivity_qubit(random_pure_bipartite(2, rng))
        assert max(abs(v) for v in rep["values"]) < 1e-8


def test_mixed_positivity_unphysical_werner_fails():
    rep = mixed_positivity_qubit(werner(2, 0.9).state)
    assert not all(rep["satisfied"])
    assert not rep["psd"]
    assert rep["min_eigenvalue"] < -1e-3  # (1 - 3 * 0.9)/4


def test_mixed_positivity_necessary_on_psd_states(rng):
    for _ in range(200):
        rho = sampling.random_density_matrix(4, rng, rank=int(rng.integers(1, 5)))
        rep = mixed_positivity_qubit(from_density_matrix(rho, 2))
        assert all(rep["satisfied"])


def test_mixed_positivity_values_are_scaled_sympoly(rng):
    # the three inequality values are 8 e2, 16 e3, 256 e4 of the 4x4 matrix
    for _ in range(100):
        if rng.random() < 0.5:
            rho = sampling.random_density_matrix(4, rng, rank=int(rng.integers(1, 5)))
        else:
            rho = sampling.random_hermitian_unit_trace(4, rng)
        st = from_density_matrix(rho, 2)
        rep = mixed_positivity_qubit(st)
        e = elementary_from_power(power_sums(st.rho, 4))
        assert abs(rep["values"][0] - 8.0 * e[1]) < 1e-8
        assert abs(rep["values"][1] - 16.0 * e[2]) < 1e-8
        assert abs(rep["values"][2] - 256.0 * e[3]) < 1e-8


# ---------------------------------------------------------------------------
# general-N purity chain
# ---------------------------------------------------------------------------

def test_qudit_purity_product_of_pure_qutrits(rng):
    p1 = sampling.random_pure_state(3, rng)
    p2 = sampling.random_pure_state(3, rng)
    st = from_density_matrix(
        np.kron(np.outer(p1, p1.conj()), np.outer(p2, p2.conj())), 3
    )
    assert np.abs(st.omega - np.outer(st.x, st.y)).max() < 1e-10
    assert purity_residuals_qudit(st).total() < 1e-9


def test_qudit_purity_maximally_mixed():
    st = from_components(3, np.zeros(8), np.zeros(8), np.zeros((8, 8)))
    res = purity_residuals_qudit(st)
    assert abs(res.r_sum + 8.0) < 1e-14


def test_qudit_purity_random_populations(rng):
    for N in (2, 3, 5, 7):
        for _ in range(500):
            st = random_pure_bipartite(N, rng)
            assert purity_residuals_qudit(st).total() < 1e-8
        for _ in range(500):
            rho = sampling.random_density_matrix(N * N, rng, rank=int(rng.integers(2, 5)))
            st = from_density_matrix(rho, N)
            assert purity_residuals_qudit(st).total() > 1e-4


def test_qudit_chain_matches_qubit_chain_at_n2(rng):
    # same conditions up to the (N^2-2) normalization: factor 1 on the
    # scalar, factor 2 on the vector and matrix residuals
    for _ in range(50):
        rho = sampling.random_density_matrix(4, rng, rank=int(rng.integers(1, 5)))
        st = from_density_matrix(rho, 2)
        a = purity_residuals_qubit(st)
        b = purity_residuals_qudit(st)
        assert abs(b.r_sum - a.r_sum) < 1e-12
        assert abs(b.r_x - 2.0 * a.r_x) < 1e-10
        assert abs(b.r_y - 2.0 * a.r_y) < 1e-10
        assert abs(b.r_omega - 2.0 * a.r_omega) < 1e-10


def test_swap_symmetry(rng):
    for N in (2, 3):
        n = N * N - 1
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        w = rng.standard_normal((n, n))
        a = purity_residuals_qudit(from_components(N, x, y, w))
        b = purity_residuals_qudit(from_components(N, y, x, w.T))
        assert abs(a.r_sum - b.r_sum) < 1e-12
        assert abs(a.r_x - b.r_y) < 1e-12
        assert abs(a.r_y - b.r_x) < 1e-12
        assert abs(a.r_omega - b.r_omega) < 1e-12


def test_trace_identity_on_pure_states(rng):
    for N in (2, 3, 5, 7):
        for _ in range(100):
            st = random_pure_bipartite(N, rng)
            assert trace_identity_residual(st) < 1e-8


def test_trace_identity_memory_at_n9(rng):
    # the projection needs a few N^4 arrays (0.5 MB); a COO pairing of d peaked at 5.9 MB
    st = from_density_matrix(sampling.random_density_matrix(81, rng), 9)
    trace_identity_residual(st)
    tracemalloc.start()
    try:
        trace_identity_residual(st)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_trace_identity_reduces_to_qubit_form(rng):
    # at N = 2 the identity is 2 tr(w) = 2 x.y - [tr(w)^2 - tr(w^2)]
    for _ in range(50):
        st = random_pure_bipartite(2, rng)
        w = st.omega
        trw = np.trace(w)
        qubit_form = abs(trw - st.x @ st.y + 0.5 * (trw**2 - np.trace(w @ w)))
        assert trace_identity_residual(st) < 1e-10
        assert qubit_form < 1e-10


# ---------------------------------------------------------------------------
# Werner states
# ---------------------------------------------------------------------------

def test_werner_alpha_minus_one_is_singlet():
    ws = werner(2, -1.0)
    assert np.abs(ws.state.rho - np.outer(SINGLET, SINGLET.conj())).max() < 1e-14
    assert purity_residuals_qudit(ws.state).total() < 1e-12


def test_werner_zero_is_maximally_mixed():
    for N in (2, 3, 4):
        ws = werner(N, 0.0)
        assert np.abs(ws.state.rho - np.eye(N * N) / N**2).max() < 1e-15


def test_werner_u_tensor_u_invariance(rng):
    for N in (2, 3, 4):
        ws = werner(N, 0.7)
        for _ in range(100):
            U = sampling.haar_unitary(N, rng)
            UU = np.kron(U, U)
            assert np.abs(UU @ ws.state.rho @ UU.conj().T - ws.state.rho).max() < 1e-10


def test_werner_reduced_states_maximally_mixed():
    for N in (2, 3):
        r1, r2 = reduced_states(werner(N, 0.8).state)
        assert np.abs(r1.rho - np.eye(N) / N).max() < 1e-14
        assert np.abs(r2.rho - np.eye(N) / N).max() < 1e-14


def test_werner_n3_candidate_alpha_not_pure():
    # alpha = N/2 satisfies the scalar condition but fails the matrix one
    st = werner(3, 1.5).state
    res = purity_residuals_qudit(st)
    assert abs(res.r_sum) < 1e-12
    assert res.r_omega > 1.0


def test_werner_consistency_values():
    rep2 = werner_consistency(2)
    assert rep2.alpha_norm == 1.0
    assert rep2.alpha_omega == -1.0
    assert rep2.consistent
    assert rep2.min_residual < 1e-10
    assert abs(rep2.argmin_alpha + 1.0) < 1e-6

    rep3 = werner_consistency(3)
    assert rep3.alpha_norm == 1.5
    assert rep3.alpha_omega == -5.25
    assert not rep3.consistent
    assert rep3.min_residual > 0.1

    rep4 = werner_consistency(4)
    assert rep4.alpha_norm == 2.0
    assert rep4.alpha_omega == -14.0
    assert not rep4.consistent


def test_werner_residual_curve_matches_generic_path(rng):
    for N in (2, 3, 4):
        alphas = rng.uniform(-N, N, size=8)
        fast = werner_residual_curve(N, alphas)
        for a, v in zip(alphas, fast):
            generic = purity_residuals_qudit(werner(N, float(a)).state).total()
            assert abs(v - generic) < 1e-9


def werner_residual_curve_per_alpha(N, alphas, tensors):
    """The full (G, n, n) residual evaluation, with C the w w (dd - ff) term at w = 1."""
    n = N * N - 1
    eye = np.eye(n)
    alphas = np.asarray(alphas, dtype=float)
    r_sum = np.abs(1.0 + (4.0 / N**2) * alphas**2 * n - N * N)
    vec_base = np.abs((2.0 / N) * bipartite._d_vector(tensors, eye)).max()
    r_vec = 2.0 * alphas**2 * vec_base
    S = bipartite._assemble(N, np.pad(eye, ((1, 0), (1, 0))))
    C_base = 0.25 * bipartite._project(S @ S, N).real[1:, 1:]
    c = N * N - 2.0
    vw = c * alphas[:, None, None] * eye[None] - alphas[:, None, None] ** 2 * C_base[None]
    r_omega = np.abs(vw).max(axis=(1, 2))
    return r_sum + r_vec + r_omega


def werner_minimum_per_alpha(N, tensors, grid_points=10_000, refine_iters=200):
    """Grid scan plus golden-section refinement, one full evaluation per step."""
    alphas = np.linspace(-N, N, grid_points)
    totals = werner_residual_curve_per_alpha(N, alphas, tensors)
    k = int(np.argmin(totals))
    a = alphas[max(k - 1, 0)]
    b = alphas[min(k + 1, grid_points - 1)]

    def curve(x):
        return float(werner_residual_curve_per_alpha(N, np.array([x]), tensors)[0])

    gr = (np.sqrt(5.0) - 1.0) / 2.0
    c1 = b - gr * (b - a)
    c2 = a + gr * (b - a)
    f1, f2 = curve(c1), curve(c2)
    for _ in range(refine_iters):
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
    return min(curve(argmin), float(totals[k])), float(argmin)


@pytest.mark.parametrize("N", (2, 3, 4, 5, 6, 7))
def test_werner_consistency_matches_per_alpha_reference(N):
    t = cached_tensors(N)
    alphas = np.linspace(-N, N, 10_000)
    got = werner_residual_curve(N, alphas)
    assert got.tobytes() == werner_residual_curve_per_alpha(N, alphas, t).tobytes()
    rep = werner_consistency(N)
    assert (rep.min_residual, rep.argmin_alpha) == werner_minimum_per_alpha(N, t)


def werner_residual_closed_form(N, alphas):
    """|1 + 4a^2 (N^2 - 1)/N^2 - N^2| + |(N^2 - 2) a + 4a^2/N|: the scalar and matrix terms."""
    a = np.asarray(alphas, dtype=float)
    return np.abs(1.0 + 4.0 * a**2 * (N * N - 1) / N**2 - N * N) + np.abs(
        (N * N - 2.0) * a + 4.0 * a**2 / N
    )


@pytest.mark.parametrize("N", range(2, 10))
def test_werner_family_matches_closed_form(N):
    alphas = np.linspace(-N, N, 10_001)
    exact = werner_residual_closed_form(N, alphas)
    assert np.all(np.abs(werner_residual_curve(N, alphas) - exact) <= 2e-15 * exact)
    # minimum over [-N, N]: 0 at the singlet (N = 2), 7.5 at -3/2 (N = 3), N^2 - 1 at 0
    min_exact, argmin_exact = {2: (0.0, -1.0), 3: (7.5, -1.5)}.get(N, (N * N - 1.0, 0.0))
    rep = werner_consistency(N)
    assert abs(rep.min_residual - min_exact) <= 1e-12 * max(1.0, min_exact)
    assert abs(rep.argmin_alpha - argmin_exact) <= 1e-12


def test_werner_consistency_memory_at_n7():
    # the per-alpha form builds a (10 000, 48, 48) array: 369 MB peak
    cached_tensors(7)
    tracemalloc.start()
    try:
        werner_consistency(7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_werner_positivity_scan_gap_n2():
    rows = werner_positivity_scan(2, -1.25, 1.25, 201)
    e2_window = [r["alpha"] for r in rows if r["e2"] >= -1e-9]
    psd_window = [r["alpha"] for r in rows if r["psd"]]
    assert abs(min(e2_window) + 1.0) < 0.02
    assert abs(max(e2_window) - 1.0) < 0.02
    assert abs(min(psd_window) + 1.0) < 0.02
    assert abs(max(psd_window) - 1.0 / 3.0) < 0.02
    # strict containment: some alpha passes e2 but fails the spectrum
    assert any(r["e2"] >= 0 and not r["psd"] for r in rows)


def test_werner_positivity_scan_window_n3():
    rows = werner_positivity_scan(3, -1.6, 1.6, 161)
    e2_window = [r["alpha"] for r in rows if r["e2"] >= -1e-9]
    psd_window = [r["alpha"] for r in rows if r["psd"]]
    assert abs(min(e2_window) + 1.5) < 0.03
    assert abs(max(e2_window) - 1.5) < 0.03
    assert min(psd_window) > -1.5 + 0.5
    assert max(psd_window) < 1.5 - 0.5
    assert werner(3, 0.0).state is not None
    mid = [r for r in rows if abs(r["alpha"]) < 1e-9]
    assert mid and mid[0]["psd"] and mid[0]["e2"] > 0 and mid[0]["e3"] > 0


@pytest.mark.parametrize("N", (2, 3, 4, 5))
def test_werner_scan_matches_dense_spectrum(N):
    for r in werner_positivity_scan(N):
        rho = werner(N, r["alpha"]).state.rho
        min_eig = np.linalg.eigvalsh(rho)[0]
        _, e2, e3 = elementary_from_power(power_sums(rho, 3))
        assert abs(r["min_eigenvalue"] - min_eig) < 1e-12
        assert abs(r["e2"] - e2) < 1e-12
        assert abs(r["e3"] - e3) < 1e-12
        assert r["psd"] == (min_eig >= -1e-9)
        try:
            rep = positivity_check(rho)
        except ArithmeticError:
            # the all-e_k verdict passes a few slightly negative spectra at
            # N^2 >= 16 (absolute tolerance on e_k ~ N^-2k) and refuses
            assert not r["psd"]
            continue
        assert rep.psd == r["psd"]
        assert abs(rep.elementary[1] - r["e2"]) < 1e-12
        assert abs(rep.elementary[2] - r["e3"]) < 1e-12


@pytest.mark.parametrize(
    "alpha_min, alpha_max",
    [(np.nan, None), (None, np.inf), (-np.inf, 1.0)],
    ids=["nan-min", "inf-max", "-inf-min"],
)
def test_werner_positivity_scan_refuses_non_finite_bounds(alpha_min, alpha_max):
    with pytest.raises(ValueError, match="alpha bounds must be finite"):
        werner_positivity_scan(3, alpha_min, alpha_max, 3)


def test_werner_scan_csv_refuses_non_finite_cells():
    rows = werner_positivity_scan(2, -1.0, 1.0, 3)
    assert werner_scan_csv(rows).count("\n") == 4
    for key, value in (("purity_residual", np.nan), ("e2", np.inf), ("alpha", -np.inf)):
        with pytest.raises(ValueError, match="not finite"):
            werner_scan_csv([rows[0], {**rows[1], key: value}])


def test_werner_scan_alpha_zero_passes_everything():
    rows = werner_positivity_scan(4, -0.0, 0.0, 2)
    for r in rows:
        assert r["psd"] and r["e2"] > 0 and r["e3"] > 0


@pytest.mark.parametrize("N", (2, 3, 4))
def test_werner_e2_e3_closed_forms_in_alpha(N):
    # e2 vanishes exactly at alpha = +-N/2; e3 follows the cubic window
    rows = werner_positivity_scan(N, -N / 2.0, N / 2.0, 41)
    n2 = N * N
    for r in rows:
        a = r["alpha"]
        e2_closed = (n2 - 1.0) * (n2 - 4.0 * a * a) / (2.0 * n2 * n2)
        cubic = (n2 - 2.0) - 12.0 * (n2 - 2.0) * (a / N) ** 2 - 32.0 * (a / N) ** 3
        e3_closed = (n2 - 1.0) / (6.0 * n2 * n2) * cubic
        assert abs(r["e2"] - e2_closed) < 1e-12
        assert abs(r["e3"] - e3_closed) < 1e-12
    assert abs(rows[0]["e2"]) < 1e-12 and abs(rows[-1]["e2"]) < 1e-12


@pytest.mark.parametrize("N", (3, 4, 5))
def test_no_pure_werner_beyond_qubits(N):
    # desk-scale demonstration: residual bounded away from zero over the
    # whole alpha range
    alphas = np.linspace(-N, N, 10_000)
    totals = werner_residual_curve(N, alphas)
    assert totals.min() > 0.1
    rep = werner_consistency(N)
    assert rep.min_residual > 0.1


# Dense einsum forms of the general-N contractions, kept as references for
# the COO contractions in quditkit.bipartite.

def dense_purity_residuals(state, t):
    N = state.dim
    x, y, w = state.x, state.y, state.omega
    f, d = dense_tensors(t)
    c = N * N - 2.0
    r_sum = 1.0 + (2.0 / N) * (x @ x + y @ y) + (4.0 / N**2) * np.sum(w * w) - N * N
    vx = (
        c * x - np.einsum("kji,k,j->i", d, x, x) - (4.0 / N) * w @ y
        - (2.0 / N) * np.einsum("mki,ml,kl->i", d, w, w)
    )
    vy = (
        c * y - np.einsum("kji,k,j->i", d, y, y) - (4.0 / N) * w.T @ x
        - (2.0 / N) * np.einsum("mki,lm,lk->i", d, w, w)
    )
    C = np.einsum("mn,kl,nlj,mki->ij", w, w, d, d, optimize=True)
    C -= np.einsum("mn,kl,nlj,mki->ij", w, w, f, f, optimize=True)
    vw = (
        c * w - 2.0 * np.outer(x, y) - 2.0 * np.einsum("kli,k,lj->ij", d, x, w)
        - 2.0 * np.einsum("klj,k,il->ij", d, y, w) - C
    )
    return r_sum, np.abs(vx).max(), np.abs(vy).max(), np.abs(vw).max()


def dense_trace_identity_residual(state, t):
    N = state.dim
    x, y, w = state.x, state.y, state.omega
    d = dense_tensors(t)[1]
    z = np.einsum("imk,mk->i", d, w)
    ws = w + w.T
    quad = 0.5 * np.einsum("imk,inl,mn,kl->", d, d, ws, ws, optimize=True)
    trw, trw2 = np.trace(w), np.trace(w @ w)
    rhs = 2.0 * x @ y + 2.0 * (x + y) @ z + quad - (2.0 / N) * (trw**2 - trw2) - z @ z
    return abs((N * N - 2.0) * trw - rhs)


def dense_werner_residual_curve(N, alphas, t):
    f, d = dense_tensors(t)
    n = N * N - 1
    eye = np.eye(n)
    r_sum = np.abs(1.0 + (4.0 / N**2) * alphas**2 * n - N * N)
    vec_base = np.abs((2.0 / N) * np.einsum("mki,ml,kl->i", d, eye, eye)).max()
    C = np.einsum("mn,kl,nlj,mki->ij", eye, eye, d, d, optimize=True)
    C -= np.einsum("mn,kl,nlj,mki->ij", eye, eye, f, f, optimize=True)
    vw = (N * N - 2.0) * alphas[:, None, None] * eye - alphas[:, None, None] ** 2 * C
    return r_sum + 2.0 * alphas**2 * vec_base + np.abs(vw).max(axis=(1, 2))


@pytest.mark.parametrize("N", range(2, 8))
def test_sparse_pair_contractions_match_dense_einsum(rng, N):
    t = cached_tensors(N)
    for rank in (1, 2, N * N):
        rho = sampling.random_density_matrix(N * N, rng, rank=rank)
        state = from_density_matrix(rho, N)
        res = purity_residuals_qudit(state)
        got = (res.r_sum, res.r_x, res.r_y, res.r_omega)
        assert np.abs(np.subtract(got, dense_purity_residuals(state, t))).max() <= 1e-12
        assert abs(
            trace_identity_residual(state) - dense_trace_identity_residual(state, t)
        ) <= 1e-12
    alphas = np.linspace(-N, N, 41)
    ref = dense_werner_residual_curve(N, alphas, t)
    assert np.abs(werner_residual_curve(N, alphas) - ref).max() <= 1e-12
