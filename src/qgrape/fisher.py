"""Quantum and classical Fisher information for qubit states.

The quantum Fisher information is ``F = Tr(rho L^2)`` where the symmetric
logarithmic derivative ``L`` solves ``2 d(rho)/dx = rho L + L rho``.  The
classical Fisher information of a POVM ``{E_y}`` is
``sum_y (d p_y/dx)^2 / p_y`` with ``p_y = Tr(rho E_y)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z, validate_density
from .errors import InconsistentInputError, SingularOutcomeError, ValidationError

__all__ = [
    "SldOperator",
    "sld",
    "qfi",
    "qfi_bloch",
    "Povm",
    "cfi",
]

DERIVATIVE_TOL = 1e-10
SLD_RANK_TOL = 1e-12
PURE_BLOCH_TOL = 1e-9
PURE_TANGENT_TOL = 1e-8
OUTCOME_PROB_FLOOR = 1e-12
OUTCOME_DERIV_FLOOR = 1e-9


def _check_state_derivative(drho: np.ndarray) -> np.ndarray:
    drho = np.asarray(drho, dtype=complex)
    if drho.shape != (2, 2):
        raise ValidationError(f"state derivative must be 2x2, got {drho.shape}")
    if np.abs(drho - drho.conj().T).max() > DERIVATIVE_TOL:
        raise ValidationError("state derivative must be Hermitian")
    if abs(drho[0, 0] + drho[1, 1]) > DERIVATIVE_TOL:
        raise ValidationError("state derivative must be traceless")
    return drho


@dataclass(frozen=True, eq=False)
class SldOperator:
    """Symmetric logarithmic derivative with the rank cutoff used to build it."""

    matrix: np.ndarray
    rank_tolerance: float


def sld(rho: np.ndarray, drho: np.ndarray, tol: float = SLD_RANK_TOL) -> SldOperator:
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
    matrix = basis @ elements @ basis.conj().T
    return SldOperator(matrix=matrix, rank_tolerance=tol)


def qfi(rho: np.ndarray, drho: np.ndarray, tol: float = SLD_RANK_TOL) -> float:
    """Quantum Fisher information ``Tr(rho L^2)``; nonnegative."""
    l_op = sld(rho, drho, tol=tol).matrix
    value = np.trace(rho @ l_op @ l_op).real
    return float(max(value, 0.0))


def qfi_bloch(r, dr) -> float:
    """Quantum Fisher information from a Bloch vector and its derivative.

    ``F = |dr|^2 + (r . dr)^2 / (1 - |r|^2)`` for mixed states.  For pure
    states (``|r| = 1`` within tolerance) the second term is a 0/0 limit;
    the tangency ``r . dr = 0`` is then required and ``|dr|^2`` returned.
    """
    r = np.asarray(r, dtype=float)
    dr = np.asarray(dr, dtype=float)
    if r.shape != (3,) or dr.shape != (3,):
        raise ValidationError("Bloch vectors must have 3 components")
    norm_sq = float(r @ r)
    if norm_sq > 1.0 + PURE_BLOCH_TOL:
        raise ValidationError(f"Bloch vector norm {np.sqrt(norm_sq):.12f} exceeds 1")
    radial = float(r @ dr)
    if norm_sq >= (1.0 - PURE_BLOCH_TOL) ** 2:
        if abs(radial) > PURE_TANGENT_TOL:
            raise InconsistentInputError(
                f"pure state with non-tangent derivative (r . dr = {radial:.3e})"
            )
        return float(dr @ dr)
    return float(dr @ dr + radial * radial / (1.0 - norm_sq))


@dataclass(frozen=True, eq=False)
class Povm:
    """Positive effects summing to the identity."""

    effects: tuple[np.ndarray, ...]

    def __post_init__(self):
        effects = tuple(np.asarray(e, dtype=complex) for e in self.effects)
        total = np.zeros((2, 2), dtype=complex)
        for idx, effect in enumerate(effects):
            if effect.shape != (2, 2):
                raise ValidationError(f"effect {idx} must be 2x2, got {effect.shape}")
            if np.abs(effect - effect.conj().T).max() > 1e-10:
                raise ValidationError(f"effect {idx} is not Hermitian")
            if np.linalg.eigvalsh(effect).min() < -1e-10:
                raise ValidationError(f"effect {idx} is not positive semidefinite")
            total += effect
        if np.abs(total - IDENTITY).max() > 1e-10:
            raise ValidationError("POVM effects do not sum to the identity")
        object.__setattr__(self, "effects", effects)

    @staticmethod
    def plus_minus() -> "Povm":
        """Projective measurement ``{|+><+|, |-><-|}``."""
        return Povm((0.5 * (IDENTITY + SIGMA_X), 0.5 * (IDENTITY - SIGMA_X)))

    @staticmethod
    def computational() -> "Povm":
        """Projective measurement ``{|0><0|, |1><1|}``."""
        return Povm((0.5 * (IDENTITY + SIGMA_Z), 0.5 * (IDENTITY - SIGMA_Z)))

    @staticmethod
    def along(axis: np.ndarray) -> "Povm":
        """Projective measurement along a Bloch axis (normalized internally)."""
        axis = np.asarray(axis, dtype=float)
        axis = axis / np.linalg.norm(axis)
        op = axis[0] * SIGMA_X + axis[1] * SIGMA_Y + axis[2] * SIGMA_Z
        return Povm((0.5 * (IDENTITY + op), 0.5 * (IDENTITY - op)))


def outcome_statistics(
    rho: np.ndarray, drho: np.ndarray, povm: Povm
) -> tuple[np.ndarray, np.ndarray]:
    """Outcome probabilities and their parameter derivatives."""
    probs = np.array([np.trace(rho @ e).real for e in povm.effects])
    dprobs = np.array([np.trace(drho @ e).real for e in povm.effects])
    return probs, dprobs


def cfi(rho: np.ndarray, drho: np.ndarray, povm: Povm) -> float:
    """Classical Fisher information of the POVM outcome distribution.

    Outcomes with vanishing probability contribute zero when their derivative
    also vanishes; a zero-probability outcome with nonzero derivative means
    divergent information and raises :class:`SingularOutcomeError`.
    """
    validate_density(rho)
    drho = _check_state_derivative(drho)
    probs, dprobs = outcome_statistics(rho, drho, povm)
    total = 0.0
    for y, (p, dp) in enumerate(zip(probs, dprobs)):
        if p < OUTCOME_PROB_FLOOR:
            if abs(dp) < OUTCOME_DERIV_FLOOR:
                continue
            raise SingularOutcomeError(
                f"outcome {y} has probability {p:.3e} but derivative {dp:.3e}"
            )
        total += dp * dp / p
    return float(total)

