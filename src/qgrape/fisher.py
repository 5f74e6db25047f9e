"""Quantum and classical Fisher information for qubit states.

With ``rho = (I + r . sigma)/2`` and ``d(rho)/dx = (dr . sigma)/2`` the
symmetric logarithmic derivative ``L = a I + b . sigma`` solves
``2 d(rho)/dx = rho L + L rho``.  Mixed (``1 - |r| > SLD_RANK_TOL``, the one
purity rule): ``a = -(r . dr)/(1 - |r|^2)``, ``b = dr - a r``.  Pure: the
minimal-norm solution, with no component on the kernel of rho,
``a = s/(2 (1 + |r|))``, ``b = dr - (s - a) n`` for ``n = r/|r|``,
``s = n . dr``.  Either way the quantum Fisher information is
``Tr(rho L^2) = dr . b``, for a mixed state ``|dr|^2 + (r . dr)^2/(1 - |r|^2)``.
The classical Fisher information of a POVM ``{E_y}`` is
``sum_y (d p_y/dx)^2 / p_y`` with ``p_y = Tr(rho E_y)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import IDENTITY, POSITIVITY_SLACK, SIGMA_X, SIGMA_Y, SIGMA_Z, validate_density
from .dynamics import _bloch, _check_hermitian, _eigvals_2x2_hermitian
from .errors import InconsistentInputError, SingularOutcomeError, ValidationError

__all__ = ["sld", "qfi", "qfi_bloch", "Povm", "informative_outcomes", "cfi"]

DERIVATIVE_TOL = 1e-10
SLD_RANK_TOL = 1e-12
PURE_TANGENT_TOL = 1e-8
OUTCOME_PROB_FLOOR = 1e-12
OUTCOME_DERIV_FLOOR = 1e-9


def _check_state_derivative(drho: np.ndarray) -> np.ndarray:
    drho = np.asarray(drho, dtype=complex)
    if drho.shape != (2, 2):
        raise ValidationError(f"state derivative must be 2x2, got {drho.shape}")
    # written as "not good": a non-finite entry makes the deviation NaN or inf
    if not np.abs(drho - drho.conj().T).max() <= DERIVATIVE_TOL:
        raise ValidationError("state derivative must be finite and Hermitian")
    if abs(drho[0, 0] + drho[1, 1]) > DERIVATIVE_TOL:
        raise ValidationError("state derivative must be traceless")
    return drho


def _is_pure(norm_sq: float) -> bool:
    return 1.0 - math.sqrt(norm_sq) <= SLD_RANK_TOL


def _sld_bloch(r: np.ndarray, dr: np.ndarray) -> tuple[float, np.ndarray, float]:
    """SLD ``L = a I + b . sigma`` and ``F = Tr(rho L^2)`` as ``(a, b, F)``."""
    norm_sq, radial = float(r @ r), float(r @ dr)
    if not _is_pure(norm_sq):
        a = -radial / (1.0 - norm_sq)
        b = dr - a * r
    else:
        norm = math.sqrt(norm_sq)
        s = radial / norm
        a = s / (2.0 * (1.0 + norm))
        b = dr - (s - a) / norm * r
    return a, b, max(float(dr @ b), 0.0)


def sld(rho: np.ndarray, drho: np.ndarray) -> np.ndarray:
    """Symmetric logarithmic derivative of rho along drho, as a 2x2 matrix;
    the minimal-norm solution for a pure rho."""
    validate_density(rho)
    a, b, _ = _sld_bloch(_bloch(rho), _bloch(_check_state_derivative(drho)))
    return a * IDENTITY + b[0] * SIGMA_X + b[1] * SIGMA_Y + b[2] * SIGMA_Z


def qfi(rho: np.ndarray, drho: np.ndarray) -> float:
    """Quantum Fisher information ``Tr(rho L^2)``; nonnegative."""
    validate_density(rho)
    return _sld_bloch(_bloch(rho), _bloch(_check_state_derivative(drho)))[2]


def qfi_bloch(r, dr) -> float:
    """:func:`qfi` from a Bloch vector and its derivative; a pure ``r`` must
    come with a tangent ``dr`` (``r . dr = 0``)."""
    r, dr = np.asarray(r, dtype=float), np.asarray(dr, dtype=float)
    if r.shape != (3,) or dr.shape != (3,) or not all(map(math.isfinite, r.tolist() + dr.tolist())):
        raise ValidationError("Bloch vectors must have 3 finite components")
    norm_sq, radial = float(r @ r), float(r @ dr)
    if norm_sq > 1.0 + POSITIVITY_SLACK:
        raise ValidationError(f"Bloch vector norm {math.sqrt(norm_sq):.12f} exceeds 1")
    if _is_pure(norm_sq) and abs(radial) > PURE_TANGENT_TOL:
        raise InconsistentInputError(f"pure state, non-tangent derivative (r . dr = {radial:.3e})")
    return _sld_bloch(r, dr)[2]


@dataclass(frozen=True, eq=False)
class Povm:
    """Positive effects summing to the identity."""

    effects: tuple[np.ndarray, ...]

    def __post_init__(self):
        effects = tuple(np.asarray(e, dtype=complex) for e in self.effects)
        total = np.zeros((2, 2), dtype=complex)
        for idx, effect in enumerate(effects):
            _check_hermitian(effect, f"effect {idx}", 1e-10)
            if _eigvals_2x2_hermitian(effect)[0] < -1e-10:
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
        norm = np.linalg.norm(axis)
        if axis.shape != (3,) or not 0.0 < norm < math.inf:
            raise ValidationError(f"POVM axis must be a finite nonzero 3-vector, got {axis}")
        axis = axis / norm
        op = axis[0] * SIGMA_X + axis[1] * SIGMA_Y + axis[2] * SIGMA_Z
        return Povm((0.5 * (IDENTITY + op), 0.5 * (IDENTITY - op)))


def informative_outcomes(rho: np.ndarray, drho: np.ndarray, povm: Povm) -> list[tuple]:
    """``(p_y, dp_y/dx, E_y)`` for every outcome that carries information.

    An outcome whose probability and derivative both vanish carries none and
    is left out; a zero-probability outcome with nonzero derivative means
    divergent information and raises :class:`SingularOutcomeError`.
    """
    terms = []
    for y, effect in enumerate(povm.effects):
        p = np.trace(rho @ effect).real
        dp = np.trace(drho @ effect).real
        if p < OUTCOME_PROB_FLOOR:
            if abs(dp) < OUTCOME_DERIV_FLOOR:
                continue
            raise SingularOutcomeError(
                f"outcome {y} has probability {p:.3e} but derivative {dp:.3e}"
            )
        terms.append((p, dp, effect))
    return terms


def cfi(rho: np.ndarray, drho: np.ndarray, povm: Povm) -> float:
    """Classical Fisher information of the POVM outcome distribution, summed
    over the outcomes of :func:`informative_outcomes`."""
    validate_density(rho)
    drho = _check_state_derivative(drho)
    total = 0.0
    for p, dp, _ in informative_outcomes(rho, drho, povm):
        total += dp * dp / p
    return float(total)

