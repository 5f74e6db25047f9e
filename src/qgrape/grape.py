"""Gradient-ascent pulse engineering for Fisher-information objectives.

The optimization target is the objective of the discretized dynamics at
fixed ``dt``: exact step exponentials plus the sensitivity recursion of
:func:`qgrape.dynamics.propagate`.  :func:`gradient` differentiates that
target exactly, in reverse mode: one backward sweep carries the weight rows,
and the per-step derivatives of ``exp(dt L_j)`` with respect to the
amplitudes come from one stacked (m, 8, 8) block exponential shared by every
control.  It matches central finite differences of the objective to the
differencing error itself; :func:`finite_difference_gradient` is that
oracle.  The paper's first-order operator formula for the same gradient is
kept in the test suite as a reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fisher
from .dynamics import (
    ControlGrid,
    EstimationProblem,
    Trajectory,
    _check_states,
    _expm,
    _liouvillians,
    propagate,
    step_count,
    step_propagator,
    unvectorize,
    vectorize,
)
from .errors import QGrapeError, ValidationError
from .fisher import Povm, sld

__all__ = [
    "Objective",
    "qfi_objective",
    "cfi_objective",
    "objective_value",
    "evaluate_objective",
    "gradient",
    "finite_difference_gradient",
    "AscentConfig",
    "AscentReport",
    "ascend",
]

CONVERGENCE_WINDOW = 10
MAX_BACKTRACK_HALVINGS = 20


@dataclass(frozen=True)
class Objective:
    """Optimization target: ``qfi`` or ``cfi`` under a fixed POVM."""

    kind: str
    povm: Povm | None = None

    def __post_init__(self):
        if self.kind not in ("qfi", "cfi"):
            raise ValidationError(f"objective kind must be 'qfi' or 'cfi', got {self.kind!r}")
        if self.kind == "cfi" and self.povm is None:
            raise ValidationError("cfi objective requires a POVM")


def qfi_objective() -> Objective:
    return Objective(kind="qfi")


def cfi_objective(povm: Povm) -> Objective:
    return Objective(kind="cfi", povm=povm)


def _objective_at(rho: np.ndarray, drho: np.ndarray, objective: Objective) -> float:
    """Objective of a final state and its parameter derivative."""
    if objective.kind == "qfi":
        return fisher.qfi(rho, drho)
    return fisher.cfi(rho, drho, objective.povm)


def objective_value(traj: Trajectory, objective: Objective) -> float:
    """Objective evaluated on a cached trajectory."""
    return _objective_at(traj.final_state, traj.final_state_derivative, objective)


def evaluate_objective(
    problem: EstimationProblem,
    grid: ControlGrid,
    objective: Objective,
    x: float | None = None,
) -> float:
    """Propagate and evaluate the objective at the final time."""
    return objective_value(propagate(problem, grid, x=x), objective)


def _objective_weights(
    traj: Trajectory, objective: Objective
) -> tuple[np.ndarray, np.ndarray]:
    """Weight pair (W1, W2): (L, L^2) for QFI, effect sums for CFI."""
    rho = traj.final_state
    drho = traj.final_state_derivative
    if objective.kind == "qfi":
        l_op = sld(rho, drho)
        return l_op, l_op @ l_op
    w1 = np.zeros((2, 2), dtype=complex)
    w2 = np.zeros((2, 2), dtype=complex)
    for p, dp, effect in fisher.informative_outcomes(rho, drho, objective.povm):
        ratio = dp / p
        w1 += ratio * effect
        w2 += ratio * ratio * effect
    return w1, w2


def gradient(traj: Trajectory, problem: EstimationProblem, objective: Objective) -> np.ndarray:
    """Gradient table (m, p) of the objective with respect to every control
    amplitude: the true gradient of the discretized objective, in reverse mode.

    With weights ``(W1, W2)`` (``(L, L^2)`` for the QFI, effect sums for the
    CFI), the backward sweep carries the rows of ``lam_j = adj(D_{j+1}^m)(W1)``,
    ``mu_j = adj(D_{j+1}^m)(W2)`` and
    ``q_j = sum_{i>=j} vec(lam_i^T)^T G D_{j+1}^i``, which gathers the
    sensitivity sources ``G = -i [dH0/dx, .]`` downstream of step j.  The
    derivative of ``exp(dt L_j)`` along ``P_k = dL/dV_k`` is
    ``B_jk = integral_0^dt exp(s L_j) P_k exp((dt - s) L_j) ds``, and entry
    (j, k) is ``sum_s row_s B_jk col_s = Tr(P_k X_j)`` with
    ``C_j = sum_s col_s row_s`` and
    ``X_j = integral_0^dt exp((dt - s) L_j) C_j exp(s L_j) ds``.
    ``X_j`` is the top-right block of ``exp(dt [[L_j, C_j], [0, L_j]])``
    (Van Loan, IEEE TAC 23, 395 (1978)), so one stacked (m, 8, 8)
    exponential serves every control.
    """
    w1, w2 = _objective_weights(traj, objective)
    m = traj.n_steps
    dt = traj.dt
    props = traj.step_propagators
    dgen = problem.sensitivity_generator(traj.x)
    # rows[j] = (lam_j, mu_j, q_j) as row vectors; the row vector
    # vec(X^T)^T of a Hermitian X is X flattened row by row
    rows = np.empty((m + 1, 3, 4), dtype=complex)
    rows[m, 0], rows[m, 1] = w1.reshape(4), w2.reshape(4)
    rows[m, 2] = rows[m, 0] @ dgen
    for j in range(m, 1, -1):
        r = rows[j] @ props[j - 1]
        r[2] += r[0] @ dgen
        rows[j - 1] = r
    lam, mu, q = rows[1:, 0], rows[1:, 1], rows[1:, 2]

    # entry (j, k) sums two terms row B_jk column: the sensitivity term
    # 2 dt lam_j B vec(phi_{j-1}) and the weight term
    # (2 dt q_j - mu_j) B vec(rho_{j-1})
    left = np.stack([2.0 * dt * lam, 2.0 * dt * q - mu], axis=1)
    right = np.stack([vectorize(traj.phi[:-1]), vectorize(traj.states[:-1])], axis=1)
    block = np.zeros((m, 8, 8), dtype=complex)
    block[:, :4, :4] = block[:, 4:, 4:] = traj.liouvillians
    block[:, :4, 4:] = np.einsum("jsa,jsb->jab", right, left)
    integrals = _expm(block, dt)[:, :4, 4:]
    return np.einsum("kab,jba->jk", problem.control_superops, integrals).real


def finite_difference_gradient(
    problem: EstimationProblem,
    grid: ControlGrid,
    objective: Objective,
    delta: float = 1e-5,
) -> np.ndarray:
    """Central-difference gradient of the discretized objective.  This is the
    test oracle for the analytic gradient and shares none of its algebra.

    Entry (j, k) is ``(F(V_k(j) + delta) - F(V_k(j) - delta)) / (2 delta)``.
    Each perturbed trajectory is re-propagated from its bumped step on: the
    states before step j and the propagators of every other step come from one
    unperturbed :func:`propagate` and equal, bit for bit, what a full
    re-propagation would compute.  Only the 2 m p bumped steps are
    exponentiated anew, as one stack, and the 2 p trajectories bumped at one
    step advance together.  Their states pass the check of :func:`propagate`
    before any of them is evaluated; the first bad one in entry order raises
    :class:`NumericalStabilityError` naming its step.
    """
    if not (np.isfinite(delta) and delta > 0):
        raise ValidationError(f"delta must be finite and positive, got {delta}")
    m, p = grid.amplitudes.shape
    grad = np.empty((m, p))
    if grad.size == 0:
        return grad
    base = propagate(problem, grid)
    dt = grid.dt

    # rows (j, k, sign): step j's amplitudes with V_k(j) set to a + delta and
    # to (a + delta) - 2 delta; a - delta would round differently
    bumped = np.repeat(grid.amplitudes, 2 * p, axis=0).reshape(m, p, 2, p)
    k = np.arange(p)
    bumped[:, k, 0, k] += delta
    bumped[:, k, 1, k] = bumped[:, k, 0, k] - 2.0 * delta
    bumped_props = step_propagator(
        _liouvillians(problem, bumped.reshape(-1, p), problem.x), dt
    ).reshape(m, 2 * p, 4, 4)

    dgen = problem.sensitivity_generator(problem.x)
    rho_base = vectorize(base.states)[:, :, None]
    phi_base = vectorize(base.phi)[:, :, None]
    for j in range(m):
        # the recursion of propagate from step j on, batched over the 2p
        # bumps as (2p, 4, 4) @ (2p, 4, 1) products, which keep each bump's
        # arithmetic; a (4, 4) @ (4, 2p) block would round differently
        rho = np.empty((m - j + 1, 2 * p, 4, 1), dtype=complex)
        phi = np.empty_like(rho)
        rho[0], phi[0] = rho_base[j], phi_base[j]
        with np.errstate(over="ignore", invalid="ignore"):
            for i, props in enumerate([bumped_props[j], *base.step_propagators[j + 1 :]]):
                rho[i + 1] = np.matmul(props, rho[i])
                phi[i + 1] = np.matmul(props, phi[i]) + np.matmul(dgen, rho[i + 1])
        states = np.ascontiguousarray(unvectorize(rho[1:, :, :, 0].swapaxes(0, 1)))
        _check_states(states, first_step=j + 1)
        final_phi = np.ascontiguousarray(unvectorize(phi[-1, :, :, 0]))
        values = np.array(
            [_objective_at(states[b, -1], dt * final_phi[b], objective) for b in range(2 * p)]
        ).reshape(p, 2)
        grad[j] = (values[:, 0] - values[:, 1]) / (2.0 * delta)
    return grad


@dataclass(frozen=True)
class AscentConfig:
    """Gradient-ascent settings.

    ``dt`` fixes the control grid geometry (the step count follows from the
    problem horizon).  ``init_mode`` is one of ``zero``, ``random_uniform``
    (amplitudes drawn uniformly from [-1, 1]), or ``user_supplied`` with
    ``initial_grid`` set.  Convergence is declared when the objective change
    stays below ``convergence_tolerance * max(1, |F|)`` for 10 consecutive
    iterations.  The step is halved (up to 20 times) whenever it would
    decrease the objective, and a step that still decreases it is not taken,
    so the recorded objective history is non-decreasing.

    ``momentum`` (heavy-ball coefficient, 0 disables) accelerates progress
    along the flat ridges these information landscapes develop; a momentum
    step that fails to improve resets the velocity and falls back to the
    plain safeguarded gradient step, so monotonicity is preserved.
    """

    dt: float
    step_size: float = 0.01
    max_iterations: int = 500
    convergence_tolerance: float = 1e-8
    seed: int = 0
    init_mode: str = "random_uniform"
    initial_grid: ControlGrid | None = None
    momentum: float = 0.0

    def __post_init__(self):
        if self.dt <= 0:
            raise ValidationError(f"dt must be positive, got {self.dt}")
        if self.step_size <= 0:
            raise ValidationError(f"step size must be positive, got {self.step_size}")
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be at least 1")
        if self.convergence_tolerance <= 0:
            raise ValidationError("convergence tolerance must be positive")
        if self.init_mode not in ("zero", "random_uniform", "user_supplied"):
            raise ValidationError(f"unknown init mode {self.init_mode!r}")
        if self.init_mode == "user_supplied" and self.initial_grid is None:
            raise ValidationError("user_supplied init requires initial_grid")
        if not 0.0 <= self.momentum < 1.0:
            raise ValidationError(f"momentum must lie in [0, 1), got {self.momentum}")


@dataclass(frozen=True, eq=False)
class AscentReport:
    """Outcome of one gradient-ascent run."""

    final_grid: ControlGrid
    objective_history: list[float]
    iterations_used: int
    converged: bool
    error: str | None = None
    failed_iteration: int | None = None


def _initial_grid(problem: EstimationProblem, config: AscentConfig) -> ControlGrid:
    if config.init_mode == "user_supplied":
        return config.initial_grid
    m = step_count(problem.horizon, config.dt)
    p = problem.n_controls
    if config.init_mode == "zero":
        return ControlGrid.zeros(m, p, config.dt)
    rng = np.random.default_rng(config.seed)
    amps = rng.uniform(-1.0, 1.0, size=(m, p))
    return ControlGrid(amps, config.dt)


def ascend(
    problem: EstimationProblem, config: AscentConfig, objective: Objective
) -> AscentReport:
    """Maximize the objective by repeated gradient steps.

    Each iteration propagates the current schedule, evaluates the objective,
    computes the analytic gradient, and updates every amplitude by
    ``step_size`` times its gradient entry.  The report records the objective
    after every iteration (index 0 is the initial schedule).
    """
    grid = _initial_grid(problem, config)
    history: list[float] = []
    try:
        traj = propagate(problem, grid)
        value = objective_value(traj, objective)
    except QGrapeError as exc:
        return AscentReport(
            final_grid=grid,
            objective_history=history,
            iterations_used=0,
            converged=False,
            error=f"{type(exc).__name__}: {exc}",
            failed_iteration=0,
        )
    history.append(value)

    converged = False
    iterations = 0
    streak = 0
    velocity = np.zeros_like(grid.amplitudes)
    for it in range(1, config.max_iterations + 1):
        try:
            table = gradient(traj, problem, objective)
            cand = None
            if config.momentum > 0.0:
                velocity = config.momentum * velocity + config.step_size * table
                trial = ControlGrid(grid.amplitudes + velocity, grid.dt)
                try:
                    trial_traj = propagate(problem, trial)
                    trial_value = objective_value(trial_traj, objective)
                except QGrapeError:
                    trial_value = -np.inf  # unusable trial: restart as below
                if trial_value >= value:
                    cand, cand_traj, cand_value = trial, trial_traj, trial_value
                else:
                    velocity = np.zeros_like(velocity)  # ridge overshoot; restart
            if cand is None:
                step = config.step_size
                cand = ControlGrid(grid.amplitudes + step * table, grid.dt)
                cand_traj = propagate(problem, cand)
                cand_value = objective_value(cand_traj, objective)
                halvings = 0
                while cand_value < value and halvings < MAX_BACKTRACK_HALVINGS:
                    step *= 0.5
                    cand = ControlGrid(grid.amplitudes + step * table, grid.dt)
                    cand_traj = propagate(problem, cand)
                    cand_value = objective_value(cand_traj, objective)
                    halvings += 1
                if cand_value < value:
                    cand, cand_traj, cand_value = grid, traj, value
                velocity = cand.amplitudes - grid.amplitudes
        except QGrapeError as exc:
            return AscentReport(
                final_grid=grid,
                objective_history=history,
                iterations_used=iterations,
                converged=False,
                error=f"{type(exc).__name__}: {exc}",
                failed_iteration=it,
            )
        delta = abs(cand_value - value)
        grid, traj, value = cand, cand_traj, cand_value
        history.append(value)
        iterations = it
        if delta < config.convergence_tolerance * max(1.0, abs(value)):
            streak += 1
            if streak >= CONVERGENCE_WINDOW:
                converged = True
                break
        else:
            streak = 0

    return AscentReport(
        final_grid=grid,
        objective_history=history,
        iterations_used=iterations,
        converged=converged,
    )
