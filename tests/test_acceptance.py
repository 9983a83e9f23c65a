"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Every tolerance is pinned here; nothing is
calibrated at runtime.
"""

import numpy as np

from quditkit import sampling
from quditkit.basis import adjoint_of, cached_basis, cached_tensors
from quditkit.bipartite import (
    derived_qubit_identities,
    from_components,
    from_density_matrix,
    purity_residuals_qubit,
    trace_identity_residual,
    werner_consistency,
    werner_positivity_scan,
    werner_residual_curve,
    z_matrix,
)
from quditkit.qudit import entropy, from_bloch, invariants, to_bloch, transform
from quditkit.qutrit import region_scan, spectrum
from quditkit.su4 import components_to_ququart, ququart_to_components, verify_pauli_dictionary
from quditkit.sympoly import (
    elementary_from_power,
    positivity_check,
    power_sums,
)

from closed_forms import dense_tensors, elementary_closed_forms

SEED = 1234


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[acceptance {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_pure_state_invariants():
    rng = np.random.default_rng(SEED)
    expected = {2: (1.0, 0.0), 3: (3.0, 3.0), 4: (6.0, 12.0), 5: (10.0, 30.0)}
    worst = 0.0
    for N, (p2_want, q_want) in expected.items():
        assert p2_want == N * (N - 1) / 2.0
        assert q_want == N * (N - 1) * (N - 2) / 2.0
        basis, tens = cached_basis(N), cached_tensors(N)
        for _ in range(200):
            psi = sampling.random_pure_state(N, rng)
            st = from_bloch(N, to_bloch(np.outer(psi, psi.conj()), basis), basis)
            inv = invariants(st, tens)
            worst = max(worst, abs(inv.p2 - p2_want), abs(inv.Q - q_want))
    _report(1, worst < 1e-9, f"pure-state |P|^2 and Q, worst deviation {worst:.3e}")


def test_criterion_2_structure_tensor_identities():
    worst = 0.0
    d2_exact = True
    for N in range(2, 7):
        t = cached_tensors(N)
        f, d = dense_tensors(t)
        n = f.shape[0]
        worst = max(worst, np.abs(np.einsum("ijk,ijn->kn", f, f) - N * np.eye(n)).max())
        worst = max(
            worst,
            np.abs(np.einsum("ijk,ijn->kn", d, d) - ((N * N - 4.0) / N) * np.eye(n)).max(),
        )
        worst = max(worst, np.abs(np.einsum("ijj->i", d)).max())
        lhs = np.einsum("mki,nli->mnkl", f, f)
        eye = np.eye(n)
        rhs = (2.0 / N) * (
            np.einsum("mn,kl->mnkl", eye, eye) - np.einsum("ml,kn->mnkl", eye, eye)
        )
        rhs += np.einsum("mni,kli->mnkl", d, d) - np.einsum("kni,mli->mnkl", d, d)
        worst = max(worst, np.abs(lhs - rhs).max())
        if N == 2:
            d2_exact = np.abs(d).max() == 0.0 and len(t.d_value) == 0
    _report(
        2,
        worst < 1e-10 and d2_exact,
        f"tensor contractions and ff/dd identity, worst {worst:.3e}; d(N=2) exact zero: {d2_exact}",
    )


def test_criterion_3_qutrit_closed_form():
    rng = np.random.default_rng(SEED)
    basis, tens = cached_basis(3), cached_tensors(3)
    worst_root = 0.0
    worst_vieta = 0.0
    for _ in range(10_000):
        rho = sampling.random_density_matrix(3, rng)
        st = from_bloch(3, to_bloch(rho, basis), basis)
        inv = invariants(st, tens)
        s = spectrum(inv.p2, inv.Q)
        eigs = np.sort(np.linalg.eigvalsh(3.0 * rho - np.eye(3)))
        worst_root = max(worst_root, np.abs(np.sort(s.roots) - eigs).max())
        x = np.array(s.roots)
        worst_vieta = max(
            worst_vieta,
            abs(x.sum()),
            abs(x[0] * x[1] + x[0] * x[2] + x[1] * x[2] + inv.p2),
            abs(np.prod(x) - 2.0 * inv.Q / 3.0),
        )
    _report(
        3,
        worst_root < 1e-9 and worst_vieta < 1e-10,
        f"10000 qutrits: root deviation {worst_root:.3e}, Vieta residual {worst_vieta:.3e}",
    )


def test_criterion_4_region_reproduction():
    tol = 1e-9
    grid = region_scan(512, tol)
    P2, QQ = np.meshgrid(grid.p_values**2, grid.q_values, indexing="ij")

    # direct set: companion-matrix roots of the cubic, then eigenvalue
    # positivity of the realized diagonal state
    realizable = 3.0 * QQ**2 <= P2**3 + tol
    comp = np.zeros(P2.shape + (3, 3))
    comp[..., 1, 0] = 1.0
    comp[..., 2, 1] = 1.0
    comp[..., 0, 2] = (2.0 / 3.0) * QQ
    comp[..., 1, 2] = P2
    roots = np.linalg.eigvals(comp)
    max_imag = np.abs(roots.imag).max(axis=-1)
    imag_ok = (max_imag[realizable] < 1e-5).all()
    direct = realizable & (1.0 + roots.real.min(axis=-1) >= -tol)

    disagreements = int(np.count_nonzero(direct != grid.admissible))

    # e_k route cross-check on a random subsample of realizable cells
    rng = np.random.default_rng(SEED)
    ridx = np.argwhere(realizable)
    sample = ridx[rng.choice(len(ridx), size=1500, replace=False)]
    ek_agree = True
    for i, j in sample:
        rho = np.diag(np.sort(roots[i, j].real) / 3.0 + 1.0 / 3.0).astype(complex)
        rho /= np.trace(rho).real
        ek_agree &= positivity_check(rho, tol).psd == bool(grid.admissible[i, j])

    corner_ok = bool(grid.admissible[-1, -1])
    corner_spectrum = spectrum(3.0, 3.0)
    corner_pure = np.allclose(
        sorted(corner_spectrum.eigenvalues_rho), [0.0, 0.0, 1.0], atol=1e-7
    )

    j0 = int(np.argmin(np.abs(grid.q_values)))
    p_cut = grid.p_values[grid.admissible[:, j0]].max()
    step = grid.p_values[1] - grid.p_values[0]
    cut_ok = abs(p_cut - 1.0) <= step

    ok = disagreements == 0 and imag_ok and ek_agree and corner_ok and corner_pure and cut_ok
    _report(
        4,
        ok,
        f"512x512 grid: {disagreements} disagreements with the eigenvalue set; "
        f"e_k subsample agrees: {ek_agree}; corner admissible+pure: "
        f"{corner_ok and corner_pure}; Q=0 cut at |P|={p_cut:.4f} (step {step:.4f})",
    )


def test_criterion_5_two_qubit_purity_chain():
    rng = np.random.default_rng(SEED)
    worst_chain = 0.0
    worst_derived = 0.0
    for _ in range(500):
        psi = sampling.random_pure_state(4, rng)
        st = from_density_matrix(np.outer(psi, psi.conj()), 2)
        res = purity_residuals_qubit(st)
        worst_chain = max(worst_chain, abs(res.r_sum), res.r_x, res.r_y, res.r_omega)
        worst_chain = max(worst_chain, trace_identity_residual(st))
        rep = derived_qubit_identities(st, tol=1e-8)
        worst_derived = max(
            worst_derived,
            rep["norm_equality_residual"],
            rep["det_connection_residual"],
            rep["gram_identity_residual"],
        )
    worst_adj = 0.0
    for _ in range(1000):
        w = rng.standard_normal((3, 3))
        zm = z_matrix(from_components(2, np.zeros(3), np.zeros(3), w))
        worst_adj = max(worst_adj, zm.adjugate_residual)
    ok = worst_chain < 1e-8 and worst_derived < 1e-8 and worst_adj < 1e-10
    _report(
        5,
        ok,
        f"500 pure states: chain residual {worst_chain:.3e}, derived identities "
        f"{worst_derived:.3e}; 1000 omegas: adjugate residual {worst_adj:.3e}",
    )


def test_criterion_6_werner_theorem():
    rep2 = werner_consistency(2)
    both_minus_one = rep2.alpha_omega == -1.0 and rep2.alpha_norm == 1.0
    n2_ok = (
        rep2.consistent
        and both_minus_one
        and rep2.min_residual < 1e-10
        and abs(rep2.argmin_alpha + 1.0) < 1e-6
    )
    gaps_ok = True
    min_ok = True
    details = []
    for N in (3, 4, 5):
        rep = werner_consistency(N)
        gaps_ok &= (
            not rep.consistent
            and rep.alpha_norm == N / 2.0
            and rep.alpha_omega == -N * (N * N - 2.0) / 4.0
        )
        grid_min = float(werner_residual_curve(N, np.linspace(-N, N, 10_000)).min())
        min_ok &= rep.min_residual > 0.1 and grid_min > 0.1
        details.append(f"N={N}: min residual {rep.min_residual:.3g}")
    _report(
        6,
        n2_ok and gaps_ok and min_ok,
        f"N=2 consistent at alpha=-1 (residual {rep2.min_residual:.2e}); "
        + "; ".join(details),
    )


def test_criterion_7_necessary_vs_sufficient_gap():
    rows2 = werner_positivity_scan(2, -1.1, 1.1, 221)
    e2_in = [r["alpha"] for r in rows2 if r["e2"] >= -1e-9]
    psd_in = [r["alpha"] for r in rows2 if r["psd"]]
    n2_ok = (
        abs(min(e2_in) + 1.0) < 0.02
        and abs(max(e2_in) - 1.0) < 0.02
        and abs(min(psd_in) + 1.0) < 0.02
        and abs(max(psd_in) - 1.0 / 3.0) < 0.02
        and any(r["e2"] >= 0 and not r["psd"] for r in rows2)
    )
    rows3 = werner_positivity_scan(3, -1.6, 1.6, 321)
    e2_in3 = [r["alpha"] for r in rows3 if r["e2"] >= -1e-9]
    psd_in3 = [r["alpha"] for r in rows3 if r["psd"]]
    n3_ok = (
        abs(min(e2_in3) + 1.5) < 0.02
        and abs(max(e2_in3) - 1.5) < 0.02
        and min(psd_in3) > min(e2_in3) + 0.1
        and max(psd_in3) < max(e2_in3) - 0.1
    )
    _report(
        7,
        n2_ok and n3_ok,
        f"N=2 e2 window [{min(e2_in):.3f}, {max(e2_in):.3f}] vs PSD "
        f"[{min(psd_in):.3f}, {max(psd_in):.3f}]; N=3 PSD "
        f"[{min(psd_in3):.3f}, {max(psd_in3):.3f}] inside ({min(e2_in3):.2f}, {max(e2_in3):.2f})",
    )


def test_criterion_8_su4_dictionary():
    reports = verify_pauli_dictionary()
    ident_ok = all(r["ok"] for r in reports) and len(reports) == 15
    worst_ident = max(r["max_deviation"] for r in reports)

    rng = np.random.default_rng(SEED)
    worst_rt = 0.0
    for _ in range(1000):
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        w = rng.standard_normal((3, 3))
        P = components_to_ququart(x, y, w)
        x2, y2, w2 = ququart_to_components(P)
        worst_rt = max(
            worst_rt,
            np.abs(x2 - x).max(), np.abs(y2 - y).max(), np.abs(w2 - w).max(),
        )

    singlet = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    st = from_density_matrix(np.outer(singlet, singlet.conj()), 2)
    P = components_to_ququart(st.x, st.y, st.omega)
    p2 = float(P @ P)
    ok = ident_ok and worst_ident < 1e-15 and worst_rt < 1e-12 and abs(p2 - 6.0) < 1e-12
    _report(
        8,
        ok,
        f"15 identities (worst {worst_ident:.2e}), round trip {worst_rt:.2e}, "
        f"singlet |P|^2 = {p2:.12f}",
    )


def test_criterion_9_symmetric_polynomials():
    rng = np.random.default_rng(SEED)
    worst_newton = 0.0
    for n in range(2, 7):
        for _ in range(1000):
            rho = sampling.random_density_matrix(n, rng)
            p = power_sums(rho, min(n, 6))
            newton = np.array(elementary_from_power(p))
            closed = np.array(elementary_closed_forms(p))
            worst_newton = max(worst_newton, np.abs(newton - closed).max())

    verdicts_agree = True
    eps_delta_ok = True
    for _ in range(10_000):
        n = int(rng.integers(2, 7))
        if rng.random() < 0.5:
            rho = sampling.random_density_matrix(n, rng)
        else:
            rho = sampling.random_hermitian_unit_trace(n, rng)
        rep = positivity_check(rho, 1e-9)  # raises on internal disagreement
        verdicts_agree &= rep.psd == rep.eig_psd
        if rep.psd and n >= 3:
            eps = 1.0 - rep.power_sums[1]
            delta = 1.0 - rep.power_sums[2]
            eps_delta_ok &= eps >= (2.0 / 3.0) * delta - 1e-12
    ok = worst_newton < 1e-11 and verdicts_agree and eps_delta_ok
    _report(
        9,
        ok,
        f"Newton vs closed forms worst {worst_newton:.3e}; verdicts agree on 10000 "
        f"samples: {verdicts_agree}; eps >= (2/3) delta on PSD: {eps_delta_ok}",
    )


def test_criterion_10_sun_invariance():
    rng = np.random.default_rng(SEED)
    worst_change = 0.0
    worst_r = 0.0
    for N in (2, 3, 4):
        basis, tens = cached_basis(N), cached_tensors(N)
        f, d = dense_tensors(tens)
        n = basis.size
        for _ in range(100):
            rho = sampling.random_density_matrix(N, rng)
            st = from_bloch(N, to_bloch(rho, basis), basis)
            U = sampling.haar_unitary(N, rng)
            st2 = transform(st, U, basis)
            i1, i2 = invariants(st, tens), invariants(st2, tens)
            worst_change = max(
                worst_change,
                abs(i1.p2 - i2.p2),
                abs(i1.Q - i2.Q),
                abs(i1.quartic - i2.quartic),
                abs(entropy(st) - entropy(st2)),
            )
            R = adjoint_of(U, basis).R
            worst_r = max(worst_r, np.abs(R.T @ R - np.eye(n)).max())
            fcov = np.einsum("kql,kj,qp,lm->jpm", f, R, R, R, optimize=True)
            dcov = np.einsum("kql,kj,qp,lm->jpm", d, R, R, R, optimize=True)
            worst_r = max(worst_r, np.abs(fcov - f).max(), np.abs(dcov - d).max())
    ok = worst_change < 1e-9 and worst_r < 1e-8
    _report(
        10,
        ok,
        f"invariant drift {worst_change:.3e} under conjugation; adjoint "
        f"orthogonality/covariance residual {worst_r:.3e}",
    )
