import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditkit import sampling
from quditkit.sympoly import (
    elementary_from_power,
    positivity_check,
    power_sums,
    require_density,
    require_hermitian,
    trace_powers_from_traceless,
)

from closed_forms import elementary_closed_forms


def esp_direct(eigs, k):
    """Elementary symmetric polynomial by direct sum over index subsets."""
    from itertools import combinations

    return sum(np.prod(c) for c in combinations(eigs, k))


def test_power_sums_maximally_mixed():
    N = 4
    p = power_sums(np.eye(N) / N, 3)
    assert np.allclose(p, [N ** (1 - k) for k in (1, 2, 3)])


def test_power_sums_pure_projector(rng):
    psi = sampling.random_pure_state(4, rng)
    rho = np.outer(psi, psi.conj())
    assert np.allclose(power_sums(rho, 5), np.ones(5), atol=1e-12)


def test_power_sums_diagonal():
    p = power_sums(np.diag([0.5, 0.3, 0.2]), 2)
    assert abs(p[1] - 0.38) < 1e-15


def test_power_sums_rejects_non_hermitian():
    with pytest.raises(ValueError):
        power_sums(np.array([[0.0, 1.0], [0.0, 1.0]]), 2)


def test_newton_pure_state():
    e = elementary_from_power([1.0, 1.0, 1.0, 1.0])
    assert np.allclose(e, [1.0, 0.0, 0.0, 0.0], atol=1e-15)


def test_newton_matches_direct_esp():
    eigs = np.array([0.5, 0.3, 0.2])
    p = [float(np.sum(eigs**k)) for k in (1, 2, 3)]
    e = elementary_from_power(p)
    assert abs(e[1] - 0.31) < 1e-15
    assert abs(e[2] - 0.03) < 1e-15
    for k in (1, 2, 3):
        assert abs(e[k - 1] - esp_direct(eigs, k)) < 1e-14


def test_e3_boundary_from_trace_deficits():
    # p2 = 1 - eps, p3 = 1 - delta with eps = (2/3) delta sits on e3 = 0
    eps, delta = 0.3, 0.45
    e = elementary_from_power([1.0, 1.0 - eps, 1.0 - delta])
    assert abs(e[2] - (eps / 2.0 - delta / 3.0)) < 1e-15
    assert abs(e[2]) < 1e-15


@given(
    st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=2, max_size=6),
)
@settings(max_examples=150, deadline=None)
def test_newton_equals_direct_esp_property(raw):
    eigs = np.array(raw) / np.sum(raw)  # normalize to a valid spectrum
    K = len(eigs)
    p = [float(np.sum(eigs**k)) for k in range(1, K + 1)]
    e = elementary_from_power(p)
    for k in range(1, K + 1):
        assert abs(e[k - 1] - esp_direct(eigs, k)) < 1e-10


@pytest.mark.parametrize("n", range(2, 7))
def test_newton_equals_closed_forms_random(n, rng):
    for _ in range(200):
        rho = sampling.random_density_matrix(n, rng)
        p = power_sums(rho, min(n, 6))
        newton = elementary_from_power(p)
        closed = elementary_closed_forms(p)
        assert np.abs(np.array(newton) - np.array(closed)).max() < 1e-11


def test_positivity_maximally_mixed():
    from math import comb

    N = 4
    rep = positivity_check(np.eye(N) / N)
    assert rep.psd
    for k in range(1, N + 1):
        assert abs(rep.elementary[k - 1] - comb(N, k) / N**k) < 1e-12


def test_positivity_explicit_negative_eigenvalue():
    rep = positivity_check(np.diag([1.2, -0.2]))
    assert not rep.psd
    assert abs(rep.elementary[1] - (-0.24)) < 1e-15
    assert rep.min_eigenvalue < 0


def test_positivity_qutrit_wrong_cubic_sign():
    # |P|^2 = 3 with Q = -3 realizes eigenvalues (1 + x_i)/3 for roots
    # (-2, 1, 1); eigen-decomposition confirms a negative eigenvalue
    rho = np.diag([-1.0, 2.0, 2.0]) / 3.0
    eigs = np.linalg.eigvalsh(rho)
    assert eigs[0] < -1e-3
    rep = positivity_check(rho)
    assert not rep.psd


def test_positivity_rejects_wrong_trace():
    with pytest.raises(ValueError):
        positivity_check(np.eye(3))


def test_positivity_verdicts_agree_on_mixed_population(rng):
    for _ in range(500):
        n = int(rng.integers(2, 7))
        if rng.random() < 0.5:
            rho = sampling.random_density_matrix(n, rng)
            assert positivity_check(rho).psd
        else:
            rho = sampling.random_hermitian_unit_trace(n, rng)
            rep = positivity_check(rho)  # verdicts must agree internally
            assert rep.psd == rep.eig_psd


def test_psd_samples_bound_traces_and_epsilon_delta(rng):
    # e_k in [0, 1], Tr rho^k <= 1, and eps >= (2/3) delta on PSD states
    for _ in range(300):
        n = int(rng.integers(3, 7))
        rho = sampling.random_density_matrix(n, rng)
        p = power_sums(rho, 6)
        e = elementary_from_power(p)
        assert all(-1e-12 <= ek <= 1.0 + 1e-12 for ek in e)
        assert all(pk <= 1.0 + 1e-12 for pk in p)
        eps = 1.0 - p[1]
        delta = 1.0 - p[2]
        assert eps >= (2.0 / 3.0) * delta - 1e-12


def test_ek_vanishes_above_dimension(rng):
    rho = sampling.random_density_matrix(3, rng)
    e = elementary_from_power(power_sums(rho, 6))
    assert np.abs(e[3:]).max() < 1e-12


def test_trace_powers_from_traceless_all_zero():
    assert abs(trace_powers_from_traceless([3.0, 0.0, 0.0, 0.0], 3, 3) - 3 / 27) < 1e-15


def test_trace_powers_from_traceless_qutrit_invariants():
    p2, Q = 1.7, 0.9
    got = trace_powers_from_traceless([3.0, 0.0, 2 * p2, 2 * Q], 3, 3)
    assert abs(got - (3 + 6 * p2 + 2 * Q) / 27.0) < 1e-15


def test_trace_powers_from_traceless_matches_power_sums(rng):
    for n in (2, 3, 4):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        A = (g + g.conj().T) / 2
        A -= np.trace(A).real / n * np.eye(n)
        a_traces = [float(np.trace(np.linalg.matrix_power(A, m)).real) for m in range(5)]
        rho = (np.eye(n) + A) / n
        direct = power_sums(rho, 4)
        got = trace_powers_from_traceless(a_traces, n, 4)
        assert abs(got - direct[3]) < 1e-12


def test_trace_powers_rejects_nonzero_trace():
    with pytest.raises(ValueError):
        trace_powers_from_traceless([3.0, 0.5, 1.0], 3, 2)


def test_report_json_schema(rng):
    rep = positivity_check(sampling.random_density_matrix(3, rng))
    d = rep.to_json_dict()
    assert set(d) == {"dim", "power_sums", "elementary", "psd", "min_eigenvalue"}


def test_require_density_checks_hermitian_then_shape_then_trace(rng):
    rho = sampling.random_density_matrix(3, rng)
    assert require_density(rho, (3, 3)).tobytes() == require_hermitian(rho).tobytes()
    skew = 2.0 * rho + 1j * np.triu(np.ones((3, 3)), 1)  # not Hermitian, trace 2
    with pytest.raises(ValueError, match="not Hermitian"):
        require_density(skew, (4, 4))
    with pytest.raises(ValueError, match="expected"):
        require_density(2.0 * rho, (4, 4))
    with pytest.raises(ValueError, match="trace must be 1"):
        require_density(2.0 * rho, (3, 3))
    with pytest.raises(ValueError, match="trace must be 1"):
        require_density(2.0 * rho)


def test_positivity_input_checks_ignore_the_verdict_tolerance():
    # np.trace gives 0.9999999999999999 here: within DEFAULT_TOL of 1, though
    # not within the verdict tolerance 1e-17
    rep = positivity_check(np.diag([0.6, 0.3, 0.1]), 1e-17)
    assert rep.psd and rep.eig_psd
    # and a trace off by 1e-6 is refused even under a loose verdict tolerance
    with pytest.raises(ValueError, match="trace must be 1"):
        positivity_check(np.diag([0.6, 0.3, 0.1 + 1e-6]), 1e-3)
