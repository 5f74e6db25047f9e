"""Reference gradients for the suite.

The paper's gradient combines three Hermitian operators built from the
cached trajectory for control amplitude ``V_k(j)``,

``M1_j = i D_{j+1}^m [H_k, rho_j]``,
``M2_j = sum_{i<=j} D_{j+1}^m [H_k, D_{i+1}^j [dH0, rho_i]]``,
``M3_j = (1 - delta_{jm}) sum_{i>j} D_{i+1}^m [dH0, D_{j+1}^i [H_k, rho_j]]``,

where ``D_a^b`` is the propagator product from step a to b (identity when
a > b).  For the quantum Fisher information the entry is

``dF/dV_k(j) = dt Tr(L^2 M1_j) - 2 dt^2 Tr(L (M2_j + M3_j))``

with ``L`` the symmetric logarithmic derivative at the final state; for the
classical Fisher information ``L^2`` and ``L`` are replaced by the weighted
effect sums ``sum_y (dln p_y)^2 E_y`` and ``sum_y (dln p_y) E_y``.  The
formula replaces each step derivative of ``exp(dt L_j)`` by its leading term
``-i dt [H_k, .] exp(dt L_j)``, so it is exact only to first order in ``dt``.
Here it is accumulated term by term, which is quadratic in the step count;
the suite checks that the library's exact gradient differs from it by
``O(dt)``.

The exact gradient is also kept here in its looped form, one complex 8x8
block exponential per step and control in Liouville space, as the reference
for the library's stacked real version.  These references read the
Liouville-space trajectory of ``reference_dynamics.propagate_liouville`` and
take their weights from the 2x2 SLD, not from the library's closed-form
Pauli rows.  The three-row backward sweep ``(lam, mu, q)`` that the library's
adjoint sweep replaced is kept as :func:`backward_rows`, on the library's
real trajectory.  The finite-difference oracle is kept in its original form, one full
:func:`qgrape.dynamics.propagate` per perturbed entry; the library's version,
which re-propagates only from the bumped step on, must equal it bit for bit.
The stacked gradient is also kept as :func:`stacked_exact_gradient`, with the
Van Loan block built from copies (two ``np.stack`` calls, a zero-filled block,
an out-of-place ``ldexp``) and exponentiated by the frozen kernel
``reference_dynamics.expm_matrix_major``; the library's gradient, which
writes into one preallocated block, must equal it bit for bit.
"""

from __future__ import annotations

import logging

import numpy as np
from scipy.linalg import expm

from qgrape import fisher
from qgrape.dynamics import (
    ControlGrid,
    EstimationProblem,
    Trajectory as PauliTrajectory,
)
from qgrape.errors import ValidationError
from qgrape.grape import Objective, _backward_sweep, _final_rows, evaluate_objective
from reference_dynamics import LiouvilleTrajectory as Trajectory
from reference_dynamics import commutator_superop, expm_matrix_major, unvectorize, vectorize
from reference_fisher import pauli_sld

logger = logging.getLogger(__name__)

HERMITICITY_WARN_TOL = 1e-8


def _commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def _warn_if_not_hermitian(mat: np.ndarray, label: str) -> None:
    dev = np.abs(mat - mat.conj().T).max()
    if dev > HERMITICITY_WARN_TOL:
        logger.warning("%s deviates from Hermitian by %.3e", label, dev)


def objective_weights(traj: Trajectory, objective: Objective) -> tuple[np.ndarray, np.ndarray]:
    """Weight pair (W1, W2) as 2x2 operators: (L, L^2) for the QFI and
    ``sum_y (dp_y/p_y)^k E_y``, k = 1, 2, for the CFI."""
    rho = traj.final_state
    drho = traj.final_state_derivative
    if objective.kind == "qfi":
        l_op = pauli_sld(rho, drho)
        return l_op, l_op @ l_op
    w1 = np.zeros((2, 2), dtype=complex)
    w2 = np.zeros((2, 2), dtype=complex)
    for effect in objective.povm.effects:
        p = np.trace(rho @ effect).real
        if p >= fisher.OUTCOME_PROB_FLOOR:
            ratio = np.trace(drho @ effect).real / p
            w1 += ratio * effect
            w2 += ratio * ratio * effect
    return w1, w2


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
    dh0 = problem.encoding
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
    the weights of :func:`objective_weights`."""
    w1, w2 = objective_weights(traj, objective)
    return _gradient_naive(traj, problem, w1, w2)


def backward_weights_stepwise(
    traj: Trajectory, w1: np.ndarray, w2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``lam[j] = adj(D_{j+1}^m)(W1)`` and ``mu[j] = adj(D_{j+1}^m)(W2)``,
    one 2x2 operator at a time."""
    m = traj.n_steps
    props = traj.step_propagators
    lam = np.empty((m + 1, 2, 2), dtype=complex)
    mu = np.empty((m + 1, 2, 2), dtype=complex)
    lam[m] = w1
    mu[m] = w2
    for j in range(m, 0, -1):
        adj = props[j - 1].conj().T
        lam[j - 1] = unvectorize(adj @ vectorize(lam[j]))
        mu[j - 1] = unvectorize(adj @ vectorize(mu[j]))
    return lam, mu


def backward_rows(
    traj: PauliTrajectory, problem: EstimationProblem, objective: Objective
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows ``lam_j``, ``mu_j`` and ``q_j``, j = 1..m, of the library's
    gradient by the three-row sweep that its adjoint sweep replaced,
    ``lam_{j-1} = lam_j E_j``, ``mu_{j-1} = mu_j E_j`` and
    ``q_{j-1} = q_j E_j + lam_{j-1} G``, on the real Pauli trajectory and
    with the library's weight rows."""
    _, w1, w2 = _final_rows([traj], objective)[0]
    m, props = traj.n_steps, traj.steps[:, :4, :4]
    dgen = problem.sensitivity_superop
    rows = np.empty((m + 1, 3, 4))
    rows[m] = w1, w2, w1 @ dgen
    for j in range(m, 1, -1):
        r = rows[j] @ props[j - 1]
        r[2] += r[0] @ dgen
        rows[j - 1] = r
    return rows[1:, 0], rows[1:, 1], rows[1:, 2]


def _step_derivative_kernel(
    liouvillian: np.ndarray, generator_derivative: np.ndarray, dt: float
) -> np.ndarray:
    """Exact amplitude derivative of one step propagator.

    Returns ``B = integral_0^dt exp(s L) P exp((dt - s) L) ds`` for
    ``P = dL/dV``, read off the upper-right block of
    ``exp(dt [[L, P], [0, L]])``.
    """
    block = np.zeros((8, 8), dtype=complex)
    block[:4, :4] = liouvillian
    block[4:, 4:] = liouvillian
    block[:4, 4:] = generator_derivative
    return expm(dt * block)[:4, 4:]


def _gradient_exact_looped(
    traj: Trajectory, problem: EstimationProblem, w1: np.ndarray, w2: np.ndarray
) -> np.ndarray:
    m, p = traj.n_steps, problem.n_controls
    dt = traj.dt
    props = traj.step_propagators
    dgen = -1j * commutator_superop(problem.encoding)
    control_gens = [
        -1j * commutator_superop(h_k) for h_k in problem.control_generators
    ]
    lam, mu = backward_weights_stepwise(traj, w1, w2)

    q = np.zeros((m + 2, 4), dtype=complex)
    for j in range(m, 0, -1):
        h_row = vectorize(lam[j].T) @ dgen
        q[j] = h_row + (q[j + 1] @ props[j] if j < m else 0.0)

    grad = np.empty((m, p))
    for j in range(1, m + 1):
        liou = traj.liouvillians[j - 1]
        rho_prev = vectorize(traj.states[j - 1])
        phi_prev = vectorize(traj.phi[j - 1])
        row_lam = vectorize(lam[j].T)
        row_mix = 2.0 * dt * q[j] - vectorize(mu[j].T)
        for k in range(p):
            kernel = _step_derivative_kernel(liou, control_gens[k], dt)
            value = 2.0 * dt * (row_lam @ kernel @ phi_prev) + row_mix @ kernel @ rho_prev
            grad[j - 1, k] = value.real
    return grad


def looped_exact_gradient(
    traj: Trajectory, problem: EstimationProblem, objective: Objective
) -> np.ndarray:
    """Exact gradient table (m, p) with one block exponential per step and
    control, and the weights of :func:`objective_weights`."""
    w1, w2 = objective_weights(traj, objective)
    return _gradient_exact_looped(traj, problem, w1, w2)


def stacked_exact_gradient(
    traj: PauliTrajectory, problem: EstimationProblem, objective: Objective
) -> np.ndarray:
    """The library's exact gradient table (m, p) on its real trajectory, with
    the Van Loan block assembled from copies."""
    m, dt = traj.n_steps, traj.dt
    ybar = _backward_sweep(traj, _final_rows([traj], objective)[0])
    # the rows (ybar_s, ybar_c + ybar_s G) pair with the columns (s, c)
    left = np.stack([ybar[:, 4:], ybar[:, :4] + ybar[:, 4:] @ problem.sensitivity_superop], axis=1)
    right = np.stack([traj.sensitivity[:-1], traj.coords[:-1]], axis=1)
    # C_j = sum_s col_s row_s as two elementwise outer products added in s
    # order, which every numpy version rounds alike
    weights = right[:, 0, :, None] * left[:, 0, None, :]
    weights += right[:, 1, :, None] * left[:, 1, None, :]
    _, scale = np.frexp(np.abs(weights).max(initial=0.0))
    block = np.zeros((m, 8, 8))
    block[:, :4, :4] = block[:, 4:, 4:] = traj.generators
    block[:, :4, 4:] = np.ldexp(weights, -scale)
    integrals = np.ldexp(expm_matrix_major(block, dt)[:, :4, 4:], scale)
    return np.einsum("kab,jba->jk", problem.control_superops, integrals)


def finite_difference_gradient_full(
    problem: EstimationProblem,
    grid: ControlGrid,
    objective: Objective,
    delta: float = 1e-5,
) -> np.ndarray:
    """Central-difference gradient of the discretized objective, re-propagating
    the full trajectory for every perturbed entry."""
    if delta <= 0:
        raise ValidationError(f"delta must be positive, got {delta}")
    m, p = grid.amplitudes.shape
    grad = np.empty((m, p))
    for j in range(m):
        for k in range(p):
            bumped = grid.amplitudes.copy()
            bumped[j, k] += delta
            f_plus = evaluate_objective(problem, ControlGrid(bumped, grid.dt), objective)
            bumped[j, k] -= 2.0 * delta
            f_minus = evaluate_objective(problem, ControlGrid(bumped, grid.dt), objective)
            grad[j, k] = (f_plus - f_minus) / (2.0 * delta)
    return grad
