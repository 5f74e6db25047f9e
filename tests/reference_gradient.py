"""The paper's gradient operators evaluated by their literal sums.

``M1_j``, ``M2_j`` and ``M3_j`` (see :mod:`qgrape.grape`) are accumulated
term by term, which is quadratic in the step count.  The suite checks the
library's one-sweep ``adjoint`` gradient against this reference.
"""

from __future__ import annotations

import logging

import numpy as np

from qgrape.dynamics import EstimationProblem, Trajectory, unvectorize, vectorize
from qgrape.errors import ValidationError
from qgrape.grape import Objective, _commutator, _objective_weights

logger = logging.getLogger(__name__)

HERMITICITY_WARN_TOL = 1e-8


def _warn_if_not_hermitian(mat: np.ndarray, label: str) -> None:
    dev = np.abs(mat - mat.conj().T).max()
    if dev > HERMITICITY_WARN_TOL:
        logger.warning("%s deviates from Hermitian by %.3e", label, dev)


def _suffix_propagators(traj: Trajectory) -> np.ndarray:
    """``S[j] = D_{j+1}^m`` for j = 0..m (``S[m]`` is the identity)."""
    m = traj.n_steps
    suffix = np.empty((m + 1, 4, 4), dtype=complex)
    suffix[m] = np.eye(4, dtype=complex)
    for j in range(m, 0, -1):
        suffix[j - 1] = suffix[j] @ traj.step_propagators[j - 1]
    return suffix


def m_operators(
    traj: Trajectory,
    problem: EstimationProblem,
    j: int,
    k: int,
    _suffix: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three Hermitian gradient operators for step j (1-based) and
    control k, evaluated by the literal sums."""
    m = traj.n_steps
    if not 1 <= j <= m:
        raise ValidationError(f"step index must satisfy 1 <= j <= {m}, got {j}")
    if not 0 <= k < problem.n_controls:
        raise ValidationError(f"control index must satisfy 0 <= k < {problem.n_controls}")
    suffix = _suffix_propagators(traj) if _suffix is None else _suffix
    h_k = problem.control_generators[k]
    dh0 = problem.free_hamiltonian_derivative(traj.x)
    rho_j = traj.states[j]

    m1 = 1j * unvectorize(suffix[j] @ vectorize(_commutator(h_k, rho_j)))
    # phi stores -i [dH0, .] accumulations, so the Hermitian form carries i
    m2 = 1j * unvectorize(suffix[j] @ vectorize(_commutator(h_k, traj.phi[j])))
    m3 = np.zeros((2, 2), dtype=complex)
    w = vectorize(_commutator(h_k, rho_j))
    for i in range(j + 1, m + 1):
        w = traj.step_propagators[i - 1] @ w
        m3 += unvectorize(suffix[i] @ vectorize(_commutator(dh0, unvectorize(w))))

    for label, op in (("M1", m1), ("M2", m2), ("M3", m3)):
        _warn_if_not_hermitian(op, label)
    return m1, m2, m3


def _gradient_naive(
    traj: Trajectory, problem: EstimationProblem, w1: np.ndarray, w2: np.ndarray
) -> np.ndarray:
    m, p = traj.n_steps, problem.n_controls
    dt = traj.dt
    suffix = _suffix_propagators(traj)
    grad = np.empty((m, p))
    for j in range(1, m + 1):
        for k in range(p):
            m1, m2, m3 = m_operators(traj, problem, j, k, _suffix=suffix)
            grad[j - 1, k] = (
                dt * np.trace(w2 @ m1).real
                - 2.0 * dt * dt * np.trace(w1 @ (m2 + m3)).real
            )
    return grad


def naive_gradient(
    traj: Trajectory, problem: EstimationProblem, objective: Objective
) -> np.ndarray:
    """Gradient table (m, p) of either objective from the literal sums, with
    the same objective weights as :func:`qgrape.grape.gradient`."""
    w1, w2 = _objective_weights(traj, objective)
    return _gradient_naive(traj, problem, w1, w2)
