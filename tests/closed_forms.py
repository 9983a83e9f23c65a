"""Test oracles: closed-form elementary symmetric polynomials, dense f and d.

``elementary_closed_forms`` checks ``quditkit.sympoly.elementary_from_power``:
e_1..e_6 written out in terms of the power sums p_k = Tr rho^k, independently
of Newton's recursion.  ``dense_tensors`` rebuilds the (n, n, n) arrays of f
and d from their COO entries, for einsum references at small N.
"""

import numpy as np


def dense_tensors(t) -> tuple[np.ndarray, np.ndarray]:
    """Dense (n, n, n) f and d of the quditkit StructureTensors t, n = N^2 - 1."""
    n = t.dim * t.dim - 1
    f, d = np.zeros((n, n, n)), np.zeros((n, n, n))
    f[tuple(t.f_index.T)] = t.f_value
    d[tuple(t.d_index.T)] = t.d_value
    return f, d


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
