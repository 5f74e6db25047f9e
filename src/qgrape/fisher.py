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
``(Tr rho, r)`` and ``(Tr d(rho)/dx, dr)``; the 2x2 functions and the
single-pulse oracles of :mod:`qgrape.oracles` convert to them.
It takes an (n, 4) stack of states and derivatives, so that one call serves
every final state of the finite-difference oracle, of a single-pulse scan or
of a round of lock-step ascents, and a single state is a one-row stack.
Every dot product is its elementwise products added left to right, the pure and
mixed SLD branches and the skipped CFI outcomes are selected with ``np.where``,
and the first bad row raises the error that it raises alone, so that every row
comes out bitwise as it would alone, in any stack and at any memory alignment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import IDENTITY, SIGMA_X, SIGMA_Z, _STATE_BOUNDS, _bloch, _check_hermitian
from .dynamics import _check_state, _density, _dot, _first_bad, _norm_sq, _state_deviations
from .dynamics import _within
from .errors import SingularOutcomeError, ValidationError

__all__ = ["qfi", "Povm", "cfi"]

DERIVATIVE_TOL = 1e-10
SLD_RANK_TOL = 1e-12
OUTCOME_PROB_FLOOR = 1e-12
OUTCOME_DERIV_FLOOR = 1e-9
# bounds a POVM effect's Hermiticity deviation, how far below 0 its smaller
# eigenvalue may go, and how far the effects' sum may deviate from the identity
EFFECT_TOL = 1e-10
# bounds on a valid row's |d|, which is traceless within DERIVATIVE_TOL and finite
_ROW_BOUNDS = np.array([DERIVATIVE_TOL, *3 * [np.finfo(float).max]])[:, None]


def _coordinates(rho: np.ndarray, drho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pauli coordinates of a 2x2 state and its derivative, as one-row
    stacks, after the checks that only the matrix form needs: shape,
    finiteness and Hermiticity."""
    rho, drho = np.asarray(rho, dtype=complex), np.asarray(drho, dtype=complex)
    _check_hermitian(rho, "density matrix")
    _check_hermitian(drho, "state derivative", DERIVATIVE_TOL)
    return _bloch(rho)[None], _bloch(drho)[None]


def _sld_bloch(
    r: np.ndarray, dr: np.ndarray, norm_sq: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SLD ``L = a I + b . sigma`` and ``F = Tr(rho L^2)`` as ``(a, b, F)``
    for every row of (n, 3) stacks of Bloch vectors, their derivatives and
    their ``|r|^2``.  Each branch divides by zero where the other one applies,
    so the caller ignores those floating-point warnings."""
    radial = _dot(r, dr)
    norm = np.sqrt(norm_sq)
    pure = 1.0 - norm <= SLD_RANK_TOL
    s = radial / norm
    a_pure = s / (2.0 * (1.0 + norm))
    # -radial / (1 - |r|^2), bitwise
    a = np.where(pure, a_pure, radial / (norm_sq - 1.0))
    # b = dr - coef r with coef = a if mixed, (s - a)/|r| if pure
    b = dr - np.where(pure, (s - a_pure) / norm, a)[:, None] * r
    # max(F, 0), keeping a NaN
    return a, b, np.maximum(_dot(dr, b), 0.0)


def _qfi_rows(
    c: np.ndarray, d: np.ndarray, norm_sq: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    a, b, value = _sld_bloch(c[:, 1:], d[:, 1:], norm_sq)
    # L = a I + b . sigma and L^2 = (a^2 + |b|^2) I + 2 a b . sigma
    w1, w2 = np.empty(c.shape), np.empty(c.shape)
    w1[:, 0], w1[:, 1:] = a, b
    w2[:, 0], w2[:, 1:] = a * a + _dot(b, b), (2.0 * a)[:, None] * b
    return value, w1, w2


def _cfi_rows(
    c: np.ndarray, d: np.ndarray, povm: Povm
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # p_y = rows[y] . c and dp_y = rows[y] . d, outcome-major, the products
    # added left to right as in _dot, with c and d in one stack
    products = (np.concatenate((c, d))[:, None] * povm.rows).T
    both = products[0] + products[1] + products[2] + products[3]
    p, dp = both[:, : len(c)], both[:, len(c) :]
    # an outcome with vanishing probability and derivative carries no
    # information; with a nonzero derivative the information diverges
    vanishing = p < OUTCOME_PROB_FLOOR
    ratio, terms = dp / p, dp * dp / p
    if np.count_nonzero(vanishing):  # the check and np.where only where needed
        singular = vanishing & ~(np.abs(dp) < OUTCOME_DERIV_FLOOR)
        if singular.any():
            i, y = np.argwhere(singular.T)[0]
            raise SingularOutcomeError(
                f"outcome {y} has probability {p[y, i]:.3e} but derivative {dp[y, i]:.3e}")
        # a vanishing outcome adds exact zeros, the same as skipping it
        ratio, terms = np.where(vanishing, 0.0, ratio), np.where(vanishing, 0.0, terms)
    value, w1, w2 = np.zeros(len(c)), np.zeros(c.shape), np.zeros(c.shape)
    for row, r, term in zip(povm.rows, ratio, terms):
        value += term
        w1 += r[:, None] * row
        w2 += (r * r)[:, None] * row
    return value, w1, w2


def _information(
    c: np.ndarray, d: np.ndarray, povm: Povm | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """QFI (``povm=None``) or CFI of ``povm`` of every state of an (n, 4)
    stack ``c`` of Pauli coordinates and its derivative ``d``, with the weight
    rows ``(W1, W2)`` of its first-order change ``2 W1 . dd - W2 . dc``: the
    Pauli rows of ``(L, L^2)`` for the QFI, of ``sum_y (dp_y/p_y)^k E_y``,
    k = 1, 2, for the CFI.  Returns ``(F, W1, W2)`` of shapes (n,), (n, 4)
    and (n, 4); every row is bitwise what a one-row stack gives.

    Each ``c[i]`` must pass :func:`qgrape.dynamics._check_state` and each
    ``d[i]`` be finite and traceless within ``DERIVATIVE_TOL``; the CFI also
    rejects an outcome of vanishing probability with a nonzero derivative.
    The first bad row raises the error that it raises alone."""
    # the checks see every row and the closed forms take the pure and the
    # mixed branch, or skip an outcome, with np.where, so the rows or
    # branches not used may divide by zero or meet non-finite numbers
    with np.errstate(divide="ignore", invalid="ignore"):
        # the state rule of _check_state and |d| <= _ROW_BOUNDS on every row,
        # which rejects NaN; |d_i| <= the largest double says d_i is finite.
        # The rule's |r|^2 is the one that the SLD takes
        norm_sq = _norm_sq(c)
        good = _within(c, _STATE_BOUNDS, norm_sq) & (np.abs(d.T) <= _ROW_BOUNDS).all(axis=0)
        stop = _first_bad(~good)
        if povm is None:
            result = _qfi_rows(c[:stop], d[:stop], norm_sq[:stop])
        else:
            result = _cfi_rows(c[:stop], d[:stop], povm)
    if stop < len(c):
        _check_state(c[stop])
        if not np.isfinite(d[stop]).all():
            raise ValidationError("state derivative must be finite")
        raise ValidationError("state derivative must be traceless")
    return result


def qfi(rho: np.ndarray, drho: np.ndarray) -> float:
    """Quantum Fisher information ``Tr(rho L^2)``; nonnegative."""
    return float(_information(*_coordinates(rho, drho), None)[0][0])


@dataclass(frozen=True, eq=False)
class Povm:
    """Positive effects summing to the identity.  ``rows[y]`` is the Pauli
    row of effect y, so that ``p_y = rows[y] . c`` for a state with Pauli
    coordinates ``c``."""

    effects: tuple[np.ndarray, ...]
    rows: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        effects = tuple(np.asarray(e, dtype=complex) for e in self.effects)
        coords = np.empty((len(effects), 4))
        for idx, effect in enumerate(effects):
            _check_hermitian(effect, f"effect {idx}", EFFECT_TOL)
            coords[idx] = _bloch(effect)
            if -_state_deviations(coords[idx])[1] / 2.0 < -EFFECT_TOL:
                raise ValidationError(f"effect {idx} is not positive semidefinite")
        if np.abs(_density(coords.sum(axis=0)) - IDENTITY).max() > EFFECT_TOL:
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


def cfi(rho: np.ndarray, drho: np.ndarray, povm: Povm) -> float:
    """Classical Fisher information of the POVM outcome distribution, summed
    over the outcomes that carry information; a zero-probability outcome
    with nonzero derivative raises :class:`SingularOutcomeError`."""
    return float(_information(*_coordinates(rho, drho), povm)[0][0])
