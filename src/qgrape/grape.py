"""Gradient-ascent pulse engineering for Fisher-information objectives.

The optimization target is the objective of the discretized dynamics at
fixed ``dt``: exact step exponentials plus the sensitivity recursion of
:func:`qgrape.dynamics.propagate`, in real Pauli coordinates.  :func:`gradient`
differentiates that target exactly, in reverse mode: one backward sweep runs
the adjoint of the forward recursion on the trajectory's own 8x8 step
matrices, one 8-vector product per step, and the per-step derivatives of
``exp(dt R_j)`` with respect to the amplitudes come from one stacked real
(m, 8, 8) block exponential shared by every control.
It matches central finite differences of the objective to the differencing
error itself; :func:`finite_difference_gradient` is that oracle.  The paper's
first-order operator formula for the same gradient is kept in the test suite
as a reference.

:func:`ascend` climbs that gradient with one step rule: each iteration tries a
heavy-ball move and then the gradient step halved again and again, and takes
the first candidate that does not lower the objective.  A candidate that fails
to propagate or to evaluate is rejected like one that lowers it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    ControlGrid,
    EstimationProblem,
    Trajectory,
    _expm,
    _first_bad,
    _forward_steps,
    _generators,
    _stability,
    _unstable,
    propagate,
    step_count,
    step_propagator,
)
from .errors import QGrapeError, ValidationError
from .fisher import Povm, _information

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
# steps of the finite-difference oracle whose states are checked together
_STABILITY_BLOCK = 16


@dataclass(frozen=True)
class Objective:
    """Optimization target: the QFI, or the CFI of ``povm`` when one is set."""

    povm: Povm | None = None

    @property
    def kind(self) -> str:
        return "qfi" if self.povm is None else "cfi"


def qfi_objective() -> Objective:
    return Objective()


def cfi_objective(povm: Povm) -> Objective:
    return Objective(povm)


def _final_information(traj: Trajectory, objective: Objective) -> tuple:
    """Objective and weight rows of the final state and its parameter
    derivative (see :func:`qgrape.fisher._information`), memoized on the
    trajectory: an ascent evaluates each candidate and later takes the
    gradient of the one it accepts."""
    if objective not in traj._memo:
        value, w1, w2 = _information(
            traj.coords[-1:], traj.dt * traj.sensitivity[-1:], objective.povm
        )
        traj._memo[objective] = float(value[0]), w1[0], w2[0]
    return traj._memo[objective]


def objective_value(traj: Trajectory, objective: Objective) -> float:
    """Objective evaluated on a cached trajectory."""
    return _final_information(traj, objective)[0]


def evaluate_objective(
    problem: EstimationProblem, grid: ControlGrid, objective: Objective
) -> float:
    """Propagate and evaluate the objective at the final time."""
    return objective_value(propagate(problem, grid), objective)


def _backward_sweep(traj: Trajectory, objective: Objective) -> np.ndarray:
    """Adjoint rows ``ybar_j = dF/dy_j``, j = 1..m, of the recursion
    ``y_j = B_j y_{j-1}`` of :func:`qgrape.dynamics.propagate` as an (m, 8)
    table: ``ybar_m = (-W2, 2 dt W1)`` and ``ybar_{j-1} = ybar_j B_j`` on the
    trajectory's own steps ``B_j``."""
    _, w1, w2 = _final_information(traj, objective)
    m, steps = traj.n_steps, traj.steps
    ybar = np.empty((m + 1, 8))
    ybar[m, :4], ybar[m, 4:] = -w2, 2.0 * traj.dt * w1
    # ndarray.dot into the next row is the cheapest call of the 8-vector product
    for j in range(m, 1, -1):
        ybar[j].dot(steps[j - 1], out=ybar[j - 1])
    return ybar[1:]


def gradient(traj: Trajectory, problem: EstimationProblem, objective: Objective) -> np.ndarray:
    """Gradient table (m, p) of the objective with respect to every control
    amplitude: the true gradient of the discretized objective, in reverse mode.

    Everything is real and in Pauli coordinates.  :func:`propagate` advances
    ``y_j = (c_j, s_j)`` by ``y_j = B_j y_{j-1}`` with the steps
    ``B_j = [[E_j, 0], [G E_j, E_j]]``, and the objective reads ``y_m``: with
    the weight rows ``(W1, W2)`` of the final state (the Pauli rows of
    ``(L, L^2)`` for the QFI, of effect sums for the CFI),
    ``dF/dy_m = (-W2, 2 dt W1)``.  The adjoint of the recursion,
    ``ybar_{j-1} = ybar_j B_j`` on the trajectory's own steps, gives
    ``ybar_j = dF/dy_j`` for every j.  Only ``E_j = exp(dt R_j)`` depends on
    the amplitudes of step j, so entry (j, k) is
    ``ybar_j (dB_j/dV_k) y_{j-1} = sum_s row_s D_jk col_s`` with the rows
    ``(ybar_s, ybar_c + ybar_s G)``, the columns ``(s_{j-1}, c_{j-1})`` and
    ``D_jk = integral_0^dt exp(s R_j) P_k exp((dt - s) R_j) ds`` the
    derivative of ``E_j`` along ``P_k = dR/dV_k``.  That sum is
    ``Tr(P_k X_j)`` with ``C_j = sum_s col_s row_s`` and
    ``X_j = integral_0^dt exp((dt - s) R_j) C_j exp(s R_j) ds``.
    ``X_j`` is the top-right block of ``exp(dt [[R_j, C_j], [0, R_j]])``
    (Van Loan, IEEE TAC 23, 395 (1978)), so one stacked real (m, 8, 8)
    exponential serves every control.  This is reverse-mode GRAPE on block
    forms (Goodwin & Kuprov, J. Chem. Phys. 143, 084113 (2015)).
    """
    m = traj.n_steps
    ybar = _backward_sweep(traj, objective)
    # the rows (ybar_s, ybar_c + ybar_s G) pair with the columns (s, c): the
    # trajectory's rows y_{j-1} = (c, s), read back to front
    left = np.empty((m, 2, 4))
    left[:, 0] = ybar[:, 4:]
    np.matmul(ybar[:, 4:], problem.sensitivity_superop, out=left[:, 1])
    left[:, 1] += ybar[:, :4]
    right = traj.rows[:-1].reshape(m, 2, 4)[:, ::-1]
    block = np.empty((m, 8, 8))
    block[:, :4, :4] = block[:, 4:, 4:] = traj.generators
    block[:, 4:, :4] = 0.0
    weights = np.einsum("jsa,jsb->jab", right, left, out=block[:, :4, 4:])
    # X_j is linear in C_j, so C is exponentiated scaled by a power of two to
    # entries below 1 and X scaled back, both exactly: then the generators
    # alone set the kernel's scaling, as in Al-Mohy & Higham's Frechet
    # derivative algorithm (SIAM J. Matrix Anal. Appl. 30, 1639 (2009))
    _, scale = np.frexp(np.abs(weights).max(initial=0.0))
    np.ldexp(weights, -scale, out=weights)
    integrals = _expm(block, traj.dt)[:, :4, 4:]
    np.ldexp(integrals, scale, out=integrals)
    return np.einsum("kab,jba->jk", problem.control_superops, integrals)


def finite_difference_gradient(
    problem: EstimationProblem,
    grid: ControlGrid,
    objective: Objective,
    delta: float = 1e-5,
) -> np.ndarray:
    """Central-difference gradient of the discretized objective: the test
    oracle for the analytic gradient.  It shares the forward model with
    :func:`gradient` (the steps of :func:`propagate`, and ``_generators``,
    :func:`step_propagator` and ``_forward_steps`` for the bumped steps) but
    none of its derivative algebra: no adjoint sweep, no block exponential.

    Entry (j, k) is ``(F(V_k(j) + delta) - F(V_k(j) - delta)) / (2 delta)``.
    Each perturbed trajectory starts from the state of one unperturbed
    :func:`propagate` before its bumped step and takes that run's 8x8 steps
    after it.  It equals, bit for bit, what a full re-propagation would
    compute wherever the stacked information kernel rounds every final state
    as it rounds that state alone.  Under OpenBLAS's Katmai kernels
    (``OPENBLAS_CORETYPE=Prescott``) the stacked QFI does not, and 16 of the
    120 entries of one test case differ by up to 2.2e-11.  Only the 2 m p
    bumped steps are exponentiated anew, as one stack.  All 2 m p
    trajectories advance together in one loop over the steps, every state
    passing the check of :func:`propagate` in blocks of
    ``_STABILITY_BLOCK`` steps, and their final states are evaluated in one
    stacked call.  Errors follow entry order ``(j, k, sign)``: the first
    entry whose trajectory goes unstable (:class:`NumericalStabilityError`
    naming its first bad step) or whose final state fails the evaluation
    raises.
    """
    if not (np.isfinite(delta) and delta > 0):
        raise ValidationError(f"delta must be finite and positive, got {delta}")
    m, p = grid.amplitudes.shape
    if m * p == 0:
        return np.empty((m, p))
    base = propagate(problem, grid)
    dt = grid.dt

    # rows (j, k, sign): step j's amplitudes with V_k(j) set to a + delta and
    # to (a + delta) - 2 delta; a - delta would round differently
    bumped = np.repeat(grid.amplitudes, 2 * p, axis=0).reshape(m, p, 2, p)
    k = np.arange(p)
    bumped[:, k, 0, k] += delta
    bumped[:, k, 1, k] = bumped[:, k, 0, k] - 2.0 * delta
    bumped_steps = _forward_steps(
        step_propagator(_generators(problem, bumped.reshape(-1, p)), dt).reshape(m, 2 * p, 4, 4),
        problem.sensitivity_superop,
    )

    # the trajectories in entry order, so that those bumped at or before
    # step i are the first 2 p (i + 1); each step is one (8, 8) @ (8, 1)
    # product per trajectory, as in propagate (an (8, 8) @ (8, n) block
    # would round differently).  The states of a block of steps are kept,
    # slot 0 holding those before it, and checked together; then only each
    # trajectory's current state and its first bad step are kept.  A
    # trajectory's slots hold the maximally mixed state until it is made,
    # which passes the check
    n, length = 2 * m * p, min(m, _STABILITY_BLOCK)
    base_ys = base.rows[:, :, None]
    states = np.zeros((length + 1, n, 8, 1))
    states[:, :, 0] = 1.0
    first_bad = np.zeros(n, dtype=int)
    first_lo = np.empty(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, m, length):
            end = min(start + length, m)
            for i in range(start, end):
                done, active = 2 * p * i, 2 * p * (i + 1)
                prev, cur = states[i - start], states[i - start + 1]
                np.matmul(base.steps[i], prev[:done], out=cur[:done])
                np.matmul(bumped_steps[i], base_ys[i], out=cur[done:active])
            bad, lo = _stability(states[1 : end - start + 1, :active, :4, 0])
            fresh = bad.any(axis=0) & (first_bad[:active] == 0)
            if fresh.any():
                at = bad[:, fresh].argmax(axis=0)
                first_bad[:active][fresh] = start + 1 + at
                first_lo[:active][fresh] = lo[at, fresh.nonzero()[0]]
            states[0] = states[end - start]
    ys = states[0]

    stop = _first_bad(first_bad > 0)
    values = _information(ys[:stop, :4, 0], dt * ys[:stop, 4:, 0], objective.povm)[0]
    if stop < len(ys):
        raise _unstable(int(first_bad[stop]), first_lo[stop])
    return ((values[0::2] - values[1::2]) / (2.0 * delta)).reshape(m, p)


@dataclass(frozen=True)
class AscentConfig:
    """Gradient-ascent settings.

    ``dt`` fixes the control grid geometry (the step count follows from the
    problem horizon).  ``init_mode`` is ``zero`` or ``random`` (amplitudes
    drawn uniformly from [-1, 1]); a start grid of one's own goes to
    :func:`ascend` instead.  Convergence is declared when the objective change
    stays below ``convergence_tolerance * max(1, |F|)`` for 10 consecutive
    iterations.  Each iteration tries candidate moves in turn and takes the
    first that does not lower the objective: with ``momentum`` > 0 (the
    heavy-ball coefficient; 0 disables it) and a nonzero velocity ``v``, first
    ``momentum v + step_size g``, which carries progress along the flat ridges
    these information landscapes develop; then ``step_size g`` halved up to 20
    times.  The velocity becomes the move taken, or zero when none is.  A
    candidate whose propagation or objective raises is rejected like one that
    lowers the objective, and when every candidate is rejected no move is
    taken, so the recorded objective history is non-decreasing.
    """

    dt: float = 0.05
    step_size: float = 0.1
    max_iterations: int = 500
    convergence_tolerance: float = 1e-8
    seed: int = 0
    init_mode: str = "random"
    momentum: float = 0.0

    def __post_init__(self):
        # written as "not good" so that NaN and inf are rejected too
        if not 0 < self.dt < np.inf:
            raise ValidationError(f"dt must be finite and positive, got {self.dt}")
        if not 0 < self.step_size < np.inf:
            raise ValidationError(f"step size must be finite and positive, got {self.step_size}")
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be at least 1")
        if not 0 < self.convergence_tolerance < np.inf:
            raise ValidationError("convergence tolerance must be finite and positive")
        if self.init_mode not in ("zero", "random"):
            raise ValidationError(f"unknown init mode {self.init_mode!r}")
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

    @staticmethod
    def failed(grid: ControlGrid, history: list[float], iteration: int, exc: Exception):
        """Report of a run that raised ``exc`` in ``iteration``."""
        error = f"{type(exc).__name__}: {exc}"
        return AscentReport(grid, history, max(iteration - 1, 0), False, error, iteration)


def _start_grid(problem: EstimationProblem, config: AscentConfig) -> ControlGrid:
    m = step_count(problem.horizon, config.dt)
    p = problem.n_controls
    if config.init_mode == "zero":
        return ControlGrid.zeros(m, p, config.dt)
    rng = np.random.default_rng(config.seed)
    amps = rng.uniform(-1.0, 1.0, size=(m, p))
    return ControlGrid(amps, config.dt)


def _moves(config: AscentConfig, velocity: np.ndarray, table: np.ndarray):
    """The candidate moves of one iteration, in the order they are tried: the
    heavy-ball move ``momentum v + step_size g`` while there is a velocity to
    carry, then ``step_size g / 2^i`` for i = 0..``MAX_BACKTRACK_HALVINGS``.
    With no velocity the heavy-ball move is the first halving move."""
    if config.momentum > 0.0 and velocity.any():
        yield config.momentum * velocity + config.step_size * table
    step = config.step_size
    for _ in range(MAX_BACKTRACK_HALVINGS + 1):
        yield step * table
        step *= 0.5


def ascend(
    problem: EstimationProblem,
    config: AscentConfig,
    objective: Objective,
    start: ControlGrid | None = None,
) -> AscentReport:
    """Maximize the objective by repeated gradient steps.

    The ascent starts from ``start`` when one is given, and runs at its step
    width; otherwise from a grid of step width ``config.dt`` built by
    ``config.init_mode``.  Each iteration computes the analytic gradient ``g``
    of the current schedule and takes the first candidate move (see
    :class:`AscentConfig`) whose schedule keeps the objective from falling.
    The report records the objective after every iteration (index 0 is the
    start).  An iteration fails, ending the run with the error in the report,
    when its gradient raises or when every candidate raised; it reports the
    last candidate's error.
    """
    grid = _start_grid(problem, config) if start is None else start
    history: list[float] = []
    try:
        traj = propagate(problem, grid)
        value = objective_value(traj, objective)
    except QGrapeError as exc:
        return AscentReport.failed(grid, history, 0, exc)
    history.append(value)

    converged = False
    iterations = 0
    streak = 0
    velocity = np.zeros_like(grid.amplitudes)
    for it in range(1, config.max_iterations + 1):
        try:
            table = gradient(traj, problem, objective)
        except QGrapeError as exc:
            return AscentReport.failed(grid, history, it, exc)
        all_raised = True
        for move in _moves(config, velocity, table):
            try:
                cand = ControlGrid(grid.amplitudes + move, grid.dt)
                cand_traj = propagate(problem, cand)
                cand_value = objective_value(cand_traj, objective)
            except QGrapeError as exc:  # rejected, as a candidate that lowers F
                error = exc
                continue
            all_raised = False
            if cand_value >= value:
                break
        else:  # every candidate lowered F or raised: no move is taken
            if all_raised:
                return AscentReport.failed(grid, history, it, error)
            cand, cand_traj, cand_value, move = grid, traj, value, np.zeros_like(velocity)
        velocity = move
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
