"""Dictionary between SU(4) generators and two-qubit Pauli products.

The 15 canonical SU(4) generators are linear combinations of the Pauli
products sigma_p x sigma_q, with coefficients that are exactly
representable in double precision (0, +-1, +-1/2, 1/sqrt(3), 1/sqrt(6)).
This module verifies each identity entrywise and converts between the
two-qubit component form (x, y, omega) and the 15-component Bloch vector
of the equivalent single ququart.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .basis import _readonly, cached_basis

_S3 = 1.0 / np.sqrt(3.0)
_S6 = 1.0 / np.sqrt(6.0)

PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _m(entries: dict[tuple[int, int], complex], scale: float = 1.0) -> np.ndarray:
    out = np.zeros((4, 4), dtype=complex)
    for (i, j), v in entries.items():
        out[i, j] = v
    return scale * out

# (name, explicit matrix, [(coeff, (p, q)), ...]) with sigma_p x sigma_q
PAULI_PRODUCT_IDENTITIES: tuple[tuple[str, np.ndarray, tuple], ...] = (
    ("s12", _m({(0, 1): 1, (1, 0): 1}), ((0.5, (3, 1)), (0.5, (0, 1)))),
    ("s34", _m({(2, 3): 1, (3, 2): 1}), ((0.5, (0, 1)), (-0.5, (3, 1)))),
    ("s13", _m({(0, 2): 1, (2, 0): 1}), ((0.5, (1, 0)), (0.5, (1, 3)))),
    ("s24", _m({(1, 3): 1, (3, 1): 1}), ((0.5, (1, 0)), (-0.5, (1, 3)))),
    ("s14", _m({(0, 3): 1, (3, 0): 1}), ((0.5, (1, 1)), (-0.5, (2, 2)))),
    ("s23", _m({(1, 2): 1, (2, 1): 1}), ((0.5, (1, 1)), (0.5, (2, 2)))),
    ("a12", _m({(0, 1): -1j, (1, 0): 1j}), ((0.5, (0, 2)), (0.5, (3, 2)))),
    ("a34", _m({(2, 3): -1j, (3, 2): 1j}), ((0.5, (0, 2)), (-0.5, (3, 2)))),
    ("a13", _m({(0, 2): -1j, (2, 0): 1j}), ((0.5, (2, 0)), (0.5, (2, 3)))),
    ("a24", _m({(1, 3): -1j, (3, 1): 1j}), ((0.5, (2, 0)), (-0.5, (2, 3)))),
    ("a14", _m({(0, 3): -1j, (3, 0): 1j}), ((0.5, (1, 2)), (0.5, (2, 1)))),
    ("a23", _m({(1, 2): -1j, (2, 1): 1j}), ((0.5, (2, 1)), (-0.5, (1, 2)))),
    ("d1", _m({(0, 0): 1, (1, 1): -1}), ((0.5, (0, 3)), (0.5, (3, 3)))),
    ("d2", _m({(0, 0): 1, (1, 1): 1, (2, 2): -2}, _S3),
     ((_S3, (3, 0)), (0.5 * _S3, (3, 3)), (-0.5 * _S3, (0, 3)))),
    ("d3", _m({(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): -3}, _S6),
     ((_S6, (3, 0)), (-_S6, (3, 3)), (_S6, (0, 3)))),
)


def pauli_product(p: int, q: int) -> np.ndarray:
    return np.kron(PAULI[p], PAULI[q])


def expansion_matrix(expansion: tuple) -> np.ndarray:
    out = np.zeros((4, 4), dtype=complex)
    for coeff, (p, q) in expansion:
        out += coeff * pauli_product(p, q)
    return out


def verify_pauli_dictionary() -> list[dict]:
    """Per-identity report: max entrywise deviation between the two sides."""
    reports = []
    for name, explicit, expansion in PAULI_PRODUCT_IDENTITIES:
        built = expansion_matrix(expansion)
        dev = float(np.abs(explicit - built).max())
        reports.append({"name": name, "max_deviation": dev, "ok": dev < 1e-15})
    return reports


@lru_cache(maxsize=None)
def _component_to_bloch_matrix() -> np.ndarray:
    """15 x 15 map T with P = T c, c = (x, y, omega-rows).

    T_{a, mu} = Tr(B_mu L_a) / 2 for the Pauli products B_mu ordered as
    x-block sigma_i x 1, y-block 1 x sigma_i, then omega block row-major.
    T satisfies T T^T = 2 * identity, so the inverse map is c = T^T P / 2.
    """
    lam = cached_basis(4).generators
    prods = _pauli_product_list()
    T = np.empty((15, 15))
    for mu, (_, B) in enumerate(prods):
        col = 0.5 * np.einsum("aij,ji->a", lam, B)
        T[:, mu] = col.real
    return _readonly(T)


def _pauli_product_list() -> list[tuple[str, np.ndarray]]:
    prods = [(f"s{i}⊗1", pauli_product(i, 0)) for i in (1, 2, 3)]
    prods += [(f"1⊗s{i}", pauli_product(0, i)) for i in (1, 2, 3)]
    prods += [
        (f"s{i}⊗s{j}", pauli_product(i, j)) for i in (1, 2, 3) for j in (1, 2, 3)
    ]
    return prods


def components_to_ququart(x: np.ndarray, y: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Bloch vector of the N = 4 qudit equal, as a matrix, to the two-qubit state."""
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    omega = np.asarray(omega, dtype=float)
    if x.shape != (3,) or y.shape != (3,) or omega.shape != (3, 3):
        raise ValueError("expected two-qubit components: x, y of length 3, omega 3x3")
    c = np.concatenate([x, y, omega.reshape(-1)])
    return _component_to_bloch_matrix() @ c


def ququart_to_components(P: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of components_to_ququart."""
    P = np.asarray(P, dtype=float).reshape(-1)
    if P.shape != (15,):
        raise ValueError(f"ququart Bloch vector must have length 15, got {P.shape}")
    c = 0.5 * (_component_to_bloch_matrix().T @ P)
    return c[:3], c[3:6], c[6:].reshape(3, 3)


def dictionary_json() -> dict:
    """Expansion of each canonical SU(4) generator over Pauli products."""
    T = _component_to_bloch_matrix()
    labels = [name for name, _ in _pauli_product_list()]
    table = {}
    for a in range(15):
        # P_a picks up coefficient T[a, mu]/2 per product under the trace form
        nz = [(labels[mu], T[a, mu] / 2.0) for mu in range(15) if abs(T[a, mu]) > 1e-14]
        table[a] = {
            "labels": [l for l, _ in nz],
            "coeffs": [float(v) for _, v in nz],
        }
    return table
