"""Eigendecomposition SLD and QFI, the reference for the Bloch-coordinate
closed form in :mod:`qgrape.fisher`, and the stacked Fisher-information
kernel as it was before its numpy work was cut.

``2 drho = rho L + L rho`` is solved element by element in the eigenbasis of
rho from a LAPACK ``eigh``.  Pairs of eigenvalues whose sum is at most
``tol`` get a zero element, which for a qubit drops the kernel component of
a (numerically) pure state: the library's purity rule ``1 - |r| <=
SLD_RANK_TOL`` is the same cut, since the smaller eigenvalue is
``(1 - |r|)/2``.

:func:`information_before_cut` is :func:`qgrape.fisher._information` as it
was before its validity mask, SLD branches and weight rows were written with
fewer numpy calls, and with the library's elementwise dot products; the
library kernel must give the same bits and raise the same errors.

:func:`pauli_sld`, :func:`qfi_bloch` and :func:`povm_along` are the suite's
2x2 SLD, Bloch-vector QFI and axis measurement, read from the library's own
kernel and :class:`qgrape.fisher.Povm`.
"""

from __future__ import annotations

import math

import numpy as np

from qgrape import fisher
from qgrape.dynamics import IDENTITY, POSITIVITY_SLACK, SIGMA_X, SIGMA_Y, SIGMA_Z, TRACE_TOL
from qgrape.dynamics import _check_state, _density, validate_density
from qgrape.errors import SingularOutcomeError, ValidationError
from qgrape.fisher import (
    DERIVATIVE_TOL,
    OUTCOME_DERIV_FLOOR,
    OUTCOME_PROB_FLOOR,
    SLD_RANK_TOL,
    Povm,
)

# bounds on |d| of a valid derivative: traceless within DERIVATIVE_TOL, finite
_DERIVATIVE_BOUNDS = np.array([DERIVATIVE_TOL, *3 * [np.finfo(float).max]])


def sld(rho: np.ndarray, drho: np.ndarray, tol: float = SLD_RANK_TOL) -> np.ndarray:
    """Solve ``2 drho = rho L + L rho`` in the eigenbasis of rho.

    Matrix elements on eigenvalue pairs with ``lam_i + lam_j <= tol`` are set
    to zero (the minimal-norm solution on the kernel).
    """
    validate_density(rho)
    drho = np.asarray(drho, dtype=complex)
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


def pauli_sld(rho: np.ndarray, drho: np.ndarray) -> np.ndarray:
    """The SLD of rho along drho as a 2x2 matrix, from the weight row ``W1``
    of :func:`qgrape.fisher._information`; the minimal-norm solution for a
    pure rho."""
    # the Pauli row (a, b) of L = a I + b . sigma is half its coordinates
    return _density(2.0 * fisher._information(*fisher._coordinates(rho, drho), None)[1][0])


def qfi_bloch(r, dr) -> float:
    """:func:`qgrape.fisher.qfi` from a Bloch vector and its derivative."""
    return float(fisher._information(np.r_[1.0, r][None], np.r_[0.0, dr][None], None)[0][0])


def povm_along(axis) -> Povm:
    """Projective measurement along a finite nonzero Bloch axis, normalized here."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / math.sqrt(axis @ axis)
    op = axis[0] * SIGMA_X + axis[1] * SIGMA_Y + axis[2] * SIGMA_Z
    return Povm((0.5 * (IDENTITY + op), 0.5 * (IDENTITY - op)))


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    products = (u * v).T
    return products[0] + products[1] + products[2]


def _is_pure(norm_sq: np.ndarray) -> np.ndarray:
    return 1.0 - np.sqrt(norm_sq) <= SLD_RANK_TOL


def _sld_bloch(r: np.ndarray, dr: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    norm_sq, radial = _dot(r, r), _dot(r, dr)
    pure, norm = _is_pure(norm_sq), np.sqrt(norm_sq)
    s = radial / norm
    a_pure = s / (2.0 * (1.0 + norm))
    a = np.where(pure, a_pure, -radial / (1.0 - norm_sq))
    b = dr - np.where(pure, (s - a_pure) / norm, a)[:, None] * r
    return a, b, np.maximum(_dot(dr, b), 0.0)


def _qfi_rows(c: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    a, b, value = _sld_bloch(c[:, 1:], d[:, 1:])
    w1, w2 = np.empty(c.shape), np.empty(c.shape)
    w1[:, 0], w1[:, 1:] = a, b
    w2[:, 0], w2[:, 1:] = a * a + _dot(b, b), (2.0 * a)[:, None] * b
    return value, w1, w2


def _cfi_rows(
    c: np.ndarray, d: np.ndarray, povm: Povm
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    pc, pd = (povm.rows[:, None] * c).T, (povm.rows[:, None] * d).T
    p, dp = pc[0] + pc[1] + pc[2] + pc[3], pd[0] + pd[1] + pd[2] + pd[3]
    vanishing = p < OUTCOME_PROB_FLOOR
    singular = vanishing & ~(np.abs(dp) < OUTCOME_DERIV_FLOOR)
    if singular.any():
        i, y = np.argwhere(singular)[0]
        raise SingularOutcomeError(
            f"outcome {y} has probability {p[i, y]:.3e} but derivative {dp[i, y]:.3e}"
        )
    ratio = np.where(vanishing, 0.0, dp / p)
    terms = np.where(vanishing, 0.0, dp * dp / p)
    value, w1, w2 = np.zeros(len(c)), np.zeros(c.shape), np.zeros(c.shape)
    for y, row in enumerate(povm.rows):
        value += terms[:, y]
        w1 += ratio[:, y, None] * row
        w2 += (ratio[:, y] * ratio[:, y])[:, None] * row
    return value, w1, w2


def information_before_cut(
    c: np.ndarray, d: np.ndarray, povm: Povm | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(F, W1, W2)`` of every row of the (n, 4) stacks ``c`` and ``d``, the
    QFI for ``povm=None`` and the CFI otherwise; the first bad row raises the
    error that it raises alone."""
    with np.errstate(divide="ignore", invalid="ignore"):
        lo = (c[:, 0] - np.sqrt((c[:, 1:] ** 2).sum(axis=-1))) / 2.0
        good = (
            (np.abs(c[:, 0] - 1.0) <= TRACE_TOL)
            & (lo >= -POSITIVITY_SLACK)
            & (np.abs(d) <= _DERIVATIVE_BOUNDS).all(axis=1)
        )
        stop = int(good.argmin()) if not good.all() else len(c)
        if povm is None:
            result = _qfi_rows(c[:stop], d[:stop])
        else:
            result = _cfi_rows(c[:stop], d[:stop], povm)
    if stop < len(c):
        _check_state(c[stop])
        if not np.isfinite(d[stop]).all():
            raise ValidationError("state derivative must be finite")
        raise ValidationError("state derivative must be traceless")
    return result
