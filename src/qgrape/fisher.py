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

Both are computed one way, by :func:`_information` on the Pauli coordinates
``(Tr rho, r)`` and ``(Tr d(rho)/dx, dr)``; the 2x2 functions convert to them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z, _bloch, _check_hermitian
from .dynamics import _check_state, _density, _min_eigenvalue
from .errors import InconsistentInputError, SingularOutcomeError, ValidationError

__all__ = ["sld", "qfi", "qfi_bloch", "Povm", "cfi"]

DERIVATIVE_TOL = 1e-10
SLD_RANK_TOL = 1e-12
PURE_TANGENT_TOL = 1e-8
OUTCOME_PROB_FLOOR = 1e-12
OUTCOME_DERIV_FLOOR = 1e-9


def _coordinates(rho: np.ndarray, drho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pauli coordinates of a 2x2 state and its derivative, after the checks
    that only the matrix form needs: shape, finiteness and Hermiticity."""
    rho, drho = np.asarray(rho, dtype=complex), np.asarray(drho, dtype=complex)
    _check_hermitian(rho, "density matrix")
    _check_hermitian(drho, "state derivative", DERIVATIVE_TOL)
    return _bloch(rho), _bloch(drho)


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


def _information(
    c: np.ndarray, d: np.ndarray, povm: Povm | None
) -> tuple[float, np.ndarray, np.ndarray]:
    """QFI (``povm=None``) or CFI of ``povm`` of a state ``c`` and its
    derivative ``d`` in Pauli coordinates, with the weight rows ``(W1, W2)``
    of its first-order change ``2 W1 . dd - W2 . dc``: the Pauli rows of
    ``(L, L^2)`` for the QFI, of ``sum_y (dp_y/p_y)^k E_y``, k = 1, 2, for the
    CFI.  ``c`` must pass :func:`qgrape.dynamics._check_state` and ``d`` be
    finite and traceless within ``DERIVATIVE_TOL``."""
    _check_state(c)
    if not np.isfinite(d).all():
        raise ValidationError("state derivative must be finite")
    if abs(d[0]) > DERIVATIVE_TOL:
        raise ValidationError("state derivative must be traceless")
    r, dr = c[1:], d[1:]
    if povm is None:
        a, b, value = _sld_bloch(r, dr)
        # L = a I + b . sigma and L^2 = (a^2 + |b|^2) I + 2 a b . sigma
        return value, np.array([a, *b]), np.array([a * a + b @ b, *(2.0 * a * b)])
    value, w1, w2 = 0.0, np.zeros(4), np.zeros(4)
    for y, (p, dp) in enumerate(zip(povm.rows @ c, povm.rows @ d)):
        # an outcome with vanishing probability and derivative carries no
        # information; with a nonzero derivative the information diverges
        if p < OUTCOME_PROB_FLOOR:
            if abs(dp) < OUTCOME_DERIV_FLOOR:
                continue
            raise SingularOutcomeError(
                f"outcome {y} has probability {p:.3e} but derivative {dp:.3e}"
            )
        ratio = dp / p
        value += dp * dp / p
        w1 += ratio * povm.rows[y]
        w2 += ratio * ratio * povm.rows[y]
    return float(value), w1, w2


def sld(rho: np.ndarray, drho: np.ndarray) -> np.ndarray:
    """Symmetric logarithmic derivative of rho along drho, as a 2x2 matrix;
    the minimal-norm solution for a pure rho."""
    # the Pauli row (a, b) of L = a I + b . sigma is half its coordinates
    return _density(2.0 * _information(*_coordinates(rho, drho), None)[1])


def qfi(rho: np.ndarray, drho: np.ndarray) -> float:
    """Quantum Fisher information ``Tr(rho L^2)``; nonnegative."""
    return _information(*_coordinates(rho, drho), None)[0]


def qfi_bloch(r, dr) -> float:
    """:func:`qfi` from a Bloch vector and its derivative; a pure ``r`` must
    come with a tangent ``dr`` (``r . dr = 0``)."""
    r, dr = np.asarray(r, dtype=float), np.asarray(dr, dtype=float)
    if r.shape != (3,) or dr.shape != (3,) or not np.isfinite([r, dr]).all():
        raise ValidationError("Bloch vectors must have 3 finite components")
    radial = float(r @ dr)
    if _is_pure(float(r @ r)) and abs(radial) > PURE_TANGENT_TOL:
        raise InconsistentInputError(f"pure state, non-tangent derivative (r . dr = {radial:.3e})")
    return _information(np.concatenate(([1.0], r)), np.concatenate(([0.0], dr)), None)[0]


@dataclass(frozen=True, eq=False)
class Povm:
    """Positive effects summing to the identity.  ``rows[y]`` is the Pauli
    row of effect y, so that ``p_y = rows[y] . c`` for a state with Pauli
    coordinates ``c``."""

    effects: tuple[np.ndarray, ...]
    rows: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        effects = tuple(np.asarray(e, dtype=complex) for e in self.effects)
        for idx, effect in enumerate(effects):
            _check_hermitian(effect, f"effect {idx}", 1e-10)
            if _min_eigenvalue(_bloch(effect)) < -1e-10:
                raise ValidationError(f"effect {idx} is not positive semidefinite")
        coords = np.array([_bloch(e) for e in effects]).reshape(-1, 4)
        if np.abs(_density(coords.sum(axis=0)) - IDENTITY).max() > 1e-10:
            raise ValidationError("POVM effects do not sum to the identity")
        object.__setattr__(self, "effects", effects)
        object.__setattr__(self, "rows", coords / 2.0)

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
        norm = math.sqrt(axis @ axis) if axis.shape == (3,) else 0.0
        if not 0.0 < norm < math.inf:
            raise ValidationError(f"POVM axis must be a finite nonzero 3-vector, got {axis}")
        axis = axis / norm
        op = axis[0] * SIGMA_X + axis[1] * SIGMA_Y + axis[2] * SIGMA_Z
        return Povm((0.5 * (IDENTITY + op), 0.5 * (IDENTITY - op)))


def cfi(rho: np.ndarray, drho: np.ndarray, povm: Povm) -> float:
    """Classical Fisher information of the POVM outcome distribution, summed
    over the outcomes that carry information; a zero-probability outcome
    with nonzero derivative raises :class:`SingularOutcomeError`."""
    return _information(*_coordinates(rho, drho), povm)[0]
