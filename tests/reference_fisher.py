"""Eigendecomposition SLD and QFI, the reference for the Bloch-coordinate
closed form in :mod:`qgrape.fisher`.

``2 drho = rho L + L rho`` is solved element by element in the eigenbasis of
rho from a LAPACK ``eigh``.  Pairs of eigenvalues whose sum is at most
``tol`` get a zero element, which for a qubit drops the kernel component of
a (numerically) pure state: the library's purity rule ``1 - |r| <=
SLD_RANK_TOL`` is the same cut, since the smaller eigenvalue is
``(1 - |r|)/2``.
"""

from __future__ import annotations

import numpy as np

from qgrape.dynamics import validate_density
from qgrape.fisher import SLD_RANK_TOL, _check_state_derivative


def sld(rho: np.ndarray, drho: np.ndarray, tol: float = SLD_RANK_TOL) -> np.ndarray:
    """Solve ``2 drho = rho L + L rho`` in the eigenbasis of rho.

    Matrix elements on eigenvalue pairs with ``lam_i + lam_j <= tol`` are set
    to zero (the minimal-norm solution on the kernel).
    """
    validate_density(rho)
    drho = _check_state_derivative(drho)
    lam, basis = np.linalg.eigh(rho)
    d_in_basis = basis.conj().T @ drho @ basis
    pair_sums = lam[:, None] + lam[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        elements = np.where(pair_sums > tol, 2.0 * d_in_basis / pair_sums, 0.0)
    return basis @ elements @ basis.conj().T


def qfi(rho: np.ndarray, drho: np.ndarray, tol: float = SLD_RANK_TOL) -> float:
    """Quantum Fisher information ``Tr(rho L^2)``; nonnegative."""
    l_op = sld(rho, drho, tol=tol)
    value = np.trace(rho @ l_op @ l_op).real
    return float(max(value, 0.0))
