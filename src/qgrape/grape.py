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

:func:`ascend` climbs that gradient with one step rule, the generator
``_climb``: each iteration tries a heavy-ball move and then the gradient step
halved again and again, and takes the first candidate that does not lower the
objective.  A candidate that fails to propagate or to evaluate is rejected
like one that lowers it.

:func:`ascend_batch` runs many ascents in lock-step, and :func:`ascend` is its
one-member case.  Each round has two stages, the gradients that the members'
``_climb`` ask for and then the schedules they ask to evaluate, and each stage
calls every stacked kernel once on one flat step axis of the members' steps.
An evaluated schedule comes back as its trajectory with the objective and
weight rows of its final state, and a member asks for a gradient by handing
back the pair it accepted, so nothing is cached on a trajectory.  Only the
8-vector loops run per member.  Each member's report is bitwise what it would
be alone: every per-row product of the Fisher information and of the
gradient's assembly is elementwise, so a row rounds the same in any stack.
When a stacked call raises, one rule, ``_each``, runs the stage again for
each member alone, so that each gets the result or the error it gets alone.
Since no report depends on which members climb beside it, the members are
split into one share per core this process may run on, and every share but
the first climbs in a child made by ``os.fork`` (Linux only; a platform
without ``os.sched_getaffinity`` climbs one share), which sends its reports
back pickled through a pipe.  The outputs are the same bytes on any number of
cores.
"""

from __future__ import annotations

import numbers
import os
import pickle
import signal
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from typing import BinaryIO, Callable, Sequence

import numpy as np

from .dynamics import (
    ControlGrid,
    EstimationProblem,
    Trajectory,
    _dot,
    _expm,
    _first_bad,
    _forward_steps,
    _generators,
    _propagate_each,
    _stability,
    _stacked,
    propagate,
    step_count,
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
    "ascend_batch",
]

CONVERGENCE_WINDOW = 10
MAX_BACKTRACK_HALVINGS = 20
# The most steps that one share of :func:`ascend_batch` climbs together.  A
# running member keeps alive the flat arrays of the round it last moved in, so
# memory grows with the group.  On a 2-vCPU host a 21-point theta sweep at
# m = 400 (42 members, 20 iterations, two shares of 21) peaked at 45 MB in
# the calling process and 34 MB in its child in groups of 1,024 steps, 76 and
# 62 MB in groups of 4,096, 111 and 102 MB with each share one group, and 40
# and 30 MB one member at a time.  Each took 1.9-2.6 s, against 3.7-3.9 s on
# one core; a child's peak counts the pages it shares with the calling process
_BATCH_STEPS = 1024
# steps of the finite-difference oracle whose states are checked together.
# The oracle keeps the states of one block and the one before it, as
# (_STABILITY_BLOCK + 1, 8, 2 m p) doubles: 261 kB at m = 40 and p = 3,
# 2.6 MB at m = 400
_STABILITY_BLOCK = 16
# flat indices of X23, X31, X12 over X32, X13, X21 in an (8, 8) exponential
# of top-right block X (X_ab at 8 a + 4 + b), and of P32, P13, P21 in a 4x4 P
_AXIAL_BLOCK = np.array([[23, 29, 14], [30, 15, 21]])
_AXIAL_GENERATOR = np.array([14, 7, 9])


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


def _each(batched: Callable[[list], list], items: list) -> list:
    """``batched(items)``, one result per item: each item gets the result or
    the :class:`QGrapeError` that it gets alone, the one rule that keeps the
    members of a lock-step round apart.  Only when the stacked call raises
    does each item run again alone."""
    try:
        return batched(items) if items else []
    except QGrapeError as exc:
        if len(items) == 1:
            return [exc]
    results = []
    for item in items:
        try:
            results += batched([item])
        except QGrapeError as exc:
            results.append(exc)
    return results


def _final_rows(trajs: list[Trajectory], objective: Objective) -> list[tuple]:
    """Objective and weight rows of the final state and its parameter
    derivative (see :func:`qgrape.fisher._information`) of trajectories of
    one step width, in one stacked call."""
    finals = _stacked([t.rows[-1:] for t in trajs])
    value, w1, w2 = _information(finals[:, :4], trajs[0].dt * finals[:, 4:], objective.povm)
    return [(float(v), a, b) for v, a, b in zip(value, w1, w2)]


def objective_value(traj: Trajectory, objective: Objective) -> float:
    """Objective of the final state of a propagated trajectory."""
    return _final_rows([traj], objective)[0][0]


def evaluate_objective(
    problem: EstimationProblem, grid: ControlGrid, objective: Objective
) -> float:
    """Propagate and evaluate the objective at the final time."""
    return objective_value(propagate(problem, grid), objective)


def _backward_sweep(traj: Trajectory, row: tuple, out: np.ndarray | None = None) -> np.ndarray:
    """Adjoint rows ``ybar_j = dF/dy_j``, j = 1..m, of the recursion
    ``y_j = B_j y_{j-1}`` of :func:`qgrape.dynamics.propagate` as an (m, 8)
    table, written into ``out`` when given: ``ybar_m = (-W2, 2 dt W1)`` with
    the weight rows of the trajectory's :func:`_final_rows` row
    ``(F, W1, W2)``, and ``ybar_{j-1} = ybar_j B_j`` on its own steps ``B_j``."""
    _, w1, w2 = row
    ybar = np.empty((traj.n_steps, 8)) if out is None else out
    # slices, so that a trajectory without steps gets an empty table
    ybar[-1:, :4], ybar[-1:, 4:] = -w2, 2.0 * traj.dt * w1
    # ndarray.dot into the next row is the cheapest call of the 8-vector
    # product; rows[j - 1] holds ybar_j
    rows = list(ybar)
    for step, row, prev in zip(traj.steps[:0:-1], rows[:0:-1], rows[-2::-1]):
        row.dot(step, out=prev)
    return ybar


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
    return _gradients([(traj, _final_rows([traj], objective)[0])], problem)[0]


def _gradients(evaluated: list[tuple], problem: EstimationProblem) -> list[np.ndarray]:
    """:func:`gradient` of each evaluated ``(traj, row)`` pair, ``row`` the
    trajectory's :func:`_final_rows` row ``(F, W1, W2)``, all on one flat step
    axis.  The trajectories share the step width and the problem's control
    and sensitivity generators.  The backward sweeps loop per trajectory into
    one flat table; the Van Loan stack, its exponential and the contraction
    with the control generators are each one call, every per-row product
    elementwise, so that each table is bitwise its table alone.  A single
    trajectory's arrays are used as they are, without copies."""
    trajs = [traj for traj, _ in evaluated]
    counts = [t.n_steps for t in trajs]
    offsets = list(accumulate(counts, initial=0))
    n = offsets[-1]
    ybar = np.empty((n, 8))
    for (traj, row), o, m in zip(evaluated, offsets, counts):
        _backward_sweep(traj, row, ybar[o : o + m])
    # the rows ybar_s and ybar_c + ybar_s G pair with the columns s and c of
    # y_{j-1} = (c, s).  G is a precession, zero in its first row; ybar_s G
    # runs component-major, each multiply and add along the steps
    ybar_t = ybar.T
    scaled = ybar_t[5:, None] * problem.sensitivity_superop[1:, :, None]
    row_c = ybar_t[:4] + scaled[0] + scaled[1] + scaled[2]
    ys = _stacked([t.rows[:-1] for t in trajs])
    # C_j = sum_s col_s row_s as two elementwise outer products, in
    # contiguous temporaries until it is scaled into the block
    weights = ys[:, 4:, None] * ybar[:, None, 4:]
    weights += ys[:, :4, None] * row_c.T[:, None, :]
    block = np.zeros((n, 8, 8))
    block[:, :4, :4] = block[:, 4:, 4:] = _stacked([t.generators for t in trajs])
    # X_j is linear in C_j, so C is exponentiated scaled by a power of two to
    # entries below 1 and X scaled back, both exactly: then the generators
    # alone set the kernel's scaling, as in Al-Mohy & Higham's Frechet
    # derivative algorithm (SIAM J. Matrix Anal. Appl. 30, 1639 (2009)).
    # Each trajectory's power of two is that of its largest |C| entry, all
    # from one reduction; one without steps takes no part, since reduceat
    # would give it its neighbour's first entry.  When only one trajectory
    # has steps its exponent stays one entry, which ldexp applies faster
    sizes = [m for m in counts if m]
    starts = [16 * o for o, m in zip(offsets, counts) if m]
    _, scale = np.frexp(np.maximum.reduceat(np.abs(weights).reshape(-1), starts))
    scale = scale[:1] if len(sizes) == 1 else np.repeat(scale, sizes)[:, None]
    np.ldexp(weights, -scale[..., None], out=block[:, :4, 4:])
    # every P_k is a precession too, skew and zero outside its Bloch block, so
    # Tr(P_k X) = w . v_k with the axial vectors w = (X23 - X32, X31 - X13,
    # X12 - X21) and v_k = (P_k32, P_k13, P_k21)
    pairs = _expm(block, trajs[0].dt).reshape(n, 64)[:, _AXIAL_BLOCK]
    axial = pairs[:, 0] - pairs[:, 1]
    table = _dot(axial, problem.control_superops.reshape(-1, 16)[:, None, _AXIAL_GENERATOR]).T
    np.ldexp(table, scale, out=table)
    return [table[o : o + m] for o, m in zip(offsets, counts)]


def finite_difference_gradient(
    problem: EstimationProblem,
    grid: ControlGrid,
    objective: Objective,
    delta: float = 1e-5,
) -> np.ndarray:
    """Central-difference gradient of the discretized objective: the test
    oracle for the analytic gradient.  It shares the forward model with
    :func:`gradient` (the steps of :func:`propagate`, and ``_generators``,
    ``_expm`` and ``_forward_steps`` for the bumped steps) but
    none of its derivative algebra: no adjoint sweep, no block exponential.

    Entry (j, k) is ``(F(V_k(j) + delta) - F(V_k(j) - delta)) / (2 delta)``.
    Each perturbed trajectory starts from the state of one unperturbed
    :func:`propagate` before its bumped step and takes that run's 8x8 steps
    after it.  It equals, bit for bit, what a full re-propagation would
    compute, since every product is a gemm, whose columns round alike in
    blocks of any width, and the stacked information kernel rounds every final
    state as it rounds that state alone.  Only the 2 m p bumped steps are
    exponentiated anew, as one stack, and take their trajectories' first
    states in one stacked product.  From there all 2 m p trajectories advance
    together as the columns of one block, one product per step, every state
    passing the check of :func:`propagate` in blocks of ``_STABILITY_BLOCK``
    steps, and their final states are evaluated in one stacked call.  Errors follow
    entry order ``(j, k, sign)``: the first entry that fails raises, an
    unstable one with the error that :func:`propagate` raises for its bumped
    schedule, one whose final state fails the evaluation with that error.
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
        _expm(_generators(problem, bumped.reshape(-1, p)), dt).reshape(m, 2 * p, 4, 4),
        problem.sensitivity_superop,
    )

    # the trajectories in entry order, as the columns of (8, n) blocks, so
    # that those bumped at or before step i are the first 2 p (i + 1).  Each
    # step is one gemm on the columns of the trajectories that have started,
    # at least two, and a gemm column rounds as in propagate's two-column
    # blocks; the first states are column 0 of the same (8, 8) @ (8, 2)
    # product, one per bumped step.  The states of a block of steps are kept,
    # slot 0 holding those before it, and checked together.  A trajectory's
    # slots hold the maximally mixed state, which passes the check, until its
    # first state enters at its bumped step
    n, length = 2 * m * p, min(m, _STABILITY_BLOCK)
    states = np.zeros((length + 1, 8, n))
    states[:, 0] = 1.0
    before = np.zeros((m, 1, 8, 2))
    before[:, 0, :, 0] = base.rows[:m]
    unstable = np.zeros(n, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        firsts = np.matmul(bumped_steps, before)[..., 0].reshape(n, 8).T
        for start in range(0, m, length):
            end = min(start + length, m)
            for i in range(start, end):
                done, active = 2 * p * i, 2 * p * (i + 1)
                prev, cur = states[i - start], states[i - start + 1]
                np.matmul(base.steps[i], prev[:, :done], out=cur[:, :done])
                cur[:, done:active] = firsts[:, done:active]
            checked = states[1 : end - start + 1, :4, :active].swapaxes(1, 2)
            unstable[:active] |= _stability(checked).any(axis=0)
            states[0] = states[end - start]
    ys = states[0]

    stop = _first_bad(unstable)
    values = _information(ys[:4, :stop].T, dt * ys[4:, :stop].T, objective.povm)[0]
    if stop < n:
        amplitudes = grid.amplitudes.copy()
        amplitudes[stop // (2 * p)] = bumped.reshape(n, p)[stop]
        propagate(problem, ControlGrid(amplitudes, dt))
        raise QGrapeError(f"entry {stop} went unstable, but propagate passed its schedule")
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
        for name in ("seed", "max_iterations"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ValidationError(f"seed must be nonnegative, got {self.seed}")
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
    last candidate's error.  This is the one-member case of
    :func:`ascend_batch`.
    """
    return ascend_batch([problem], [config], objective, [start])[0]


def ascend_batch(
    problems: Sequence[EstimationProblem],
    configs: Sequence[AscentConfig],
    objective: Objective,
    starts: Sequence[ControlGrid | None] | None = None,
) -> list[AscentReport]:
    """:func:`ascend` of every (problem, config, start) member, in lock-step.

    Each member's step rule runs as its own :func:`_climb`, and each round has
    two stages: one :func:`_gradients` call for the members that ask for a
    gradient, then one ``_evaluate`` call for the schedules that members ask
    for, the first candidate of a member whose gradient just came included.
    A stage whose stacked call raises runs again for each member alone (see
    :func:`_each`), so a member that raises alone fails alone.  A finished
    member leaves the rounds and holds no arrays.  The members are split into
    one share per usable core (see :func:`_shares`); the caller climbs the
    first share and a child forked for each other share climbs that one, so
    one core or one member forks nothing.  A share climbs in consecutive
    groups of at most ``_BATCH_STEPS`` steps (a longer member climbs alone),
    which bounds the memory a round takes.  An exception raised in a share is
    raised here, after every child has been reaped; when it comes from the
    caller's own share, the children are killed first.  Each report is
    bitwise the one :func:`ascend` gives the member alone, so the reports do
    not depend on the number of cores.  The members share
    the objective, the step width and the problem's control generators and
    encoding; their free generators, probes, horizons and ascent settings may
    differ.
    """
    starts = [None] * len(problems) if starts is None else starts
    members = [
        (problem, config, _start_grid(problem, config) if start is None else start)
        for problem, config, start in zip(problems, configs, starts, strict=True)
    ]
    if not members:
        return []
    first, dt = problems[0], members[0][2].dt
    for problem, _, grid in members[1:]:
        if not (
            grid.dt == dt
            and np.array_equal(problem.control_superops, first.control_superops)
            and np.array_equal(problem.sensitivity_superop, first.sensitivity_superop)
        ):
            raise ValidationError(
                "the members of a batch must share the step width, the control "
                "generators and the encoding"
            )

    shares = _shares([grid.n_steps for _, _, grid in members])
    climbs = [partial(_climb_share, [members[i] for i in share], first, objective)
              for share in shares]
    children: list[tuple[int, BinaryIO]] = []
    try:
        for climb in climbs[1:]:
            children.append(_forked(climb))
        reports = dict(zip(shares[0], climbs[0]()))
        for share, (_, pipe) in zip(shares[1:], children):
            data = pipe.read()
            if not data:
                raise RuntimeError("a forked share of the batch ended without its reports")
            result = pickle.loads(data)
            if isinstance(result, BaseException):
                raise result
            reports.update(zip(share, result))
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)
    return [reports[i] for i in range(len(members))]


def _shares(counts: list[int]) -> list[list[int]]:
    """The indices of members of ``counts`` steps in one share per core that
    this process may run on, and at most one per member: longest first, each
    member joins the share with the fewest steps so far (the first of equals),
    and each share keeps member order."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # macOS and Windows have no affinity call
        cores = 1
    shares: list[list[int]] = [[] for _ in range(min(cores, len(counts)))]
    loads = [0] * len(shares)
    for i in sorted(range(len(counts)), key=lambda i: -counts[i]):
        lightest = loads.index(min(loads))
        shares[lightest].append(i)
        loads[lightest] += counts[i]
    return [sorted(share) for share in shares if share]


def _climb_share(
    members: list[tuple], problem: EstimationProblem, objective: Objective
) -> list[AscentReport]:
    """The reports of ``members`` in order, climbed in consecutive groups of
    at most ``_BATCH_STEPS`` steps (a longer member climbs alone)."""
    reports, group = [], []
    for member in members:
        if group and sum(g.n_steps for _, _, g in group) + member[2].n_steps > _BATCH_STEPS:
            reports += _climb_together(group, problem, objective)
            group = []
        group.append(member)
    return reports + _climb_together(group, problem, objective)


def _forked(climb: Callable[[], list]) -> tuple[int, BinaryIO]:
    """Run ``climb()`` in a forked child: its process id, and the read end of
    the pipe to which it writes the pickled result, or the exception that
    ``climb`` raised.  The child leaves by ``os._exit``, so it runs none of
    its parent's exit handlers and flushes none of its buffers.  A fork, not
    a fresh interpreter: re-importing numpy and qgrape takes about 0.2 s, more
    than a whole horizon sweep; qgrape starts no threads, and OpenBLAS stops
    its thread pool across a fork by its own handler."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, os.fdopen(read, "rb")
    try:
        os.close(read)
        try:
            result = climb()
        except BaseException as exc:  # raised again in the parent
            result = exc
        with os.fdopen(write, "wb") as pipe:
            pipe.write(pickle.dumps(result))
    finally:
        os._exit(0)


def _climb(config: AscentConfig, grid: ControlGrid):
    """The step rule of :func:`ascend` from ``grid``, as a generator that
    leaves the numerics to its caller: ``result = yield grid`` asks for the
    evaluation of a schedule, the pair of its trajectory and that
    trajectory's :func:`_final_rows` row ``(F, W1, W2)``, and
    ``table = yield accepted`` hands the accepted schedule's pair back for
    the gradient table of its trajectory.  Each answer is that, or the
    :class:`QGrapeError` that the request raises alone; the generator returns
    the report."""
    accepted = yield grid
    if isinstance(accepted, QGrapeError):
        return AscentReport.failed(grid, [], 0, accepted)
    value = accepted[1][0]
    history = [value]
    streak = 0
    velocity = np.zeros_like(grid.amplitudes)
    for it in range(1, config.max_iterations + 1):
        table = yield accepted
        if isinstance(table, QGrapeError):
            return AscentReport.failed(grid, history, it, table)
        all_raised = True
        for move in _moves(config, velocity, table):
            try:
                cand = ControlGrid(grid.amplitudes + move, grid.dt)
            except QGrapeError as exc:
                result = exc
            else:
                result = yield cand
            if isinstance(result, QGrapeError):  # rejected, as a candidate that lowers F
                error = result
                continue
            all_raised = False
            cand_value = result[1][0]
            if cand_value >= value:
                break
        else:  # every candidate lowered F or raised: no move is taken
            if all_raised:
                return AscentReport.failed(grid, history, it, error)
            cand, result, cand_value, move = grid, accepted, value, np.zeros_like(velocity)
        velocity = move
        delta = abs(cand_value - value)
        grid, accepted, value = cand, result, cand_value
        history.append(value)
        streak = streak + 1 if delta < config.convergence_tolerance * max(1.0, abs(value)) else 0
        if streak >= CONVERGENCE_WINDOW:
            return AscentReport(grid, history, it, True)
    return AscentReport(grid, history, config.max_iterations, False)


def _climb_together(
    members: list[tuple], problem: EstimationProblem, objective: Objective
) -> list[AscentReport]:
    """Run the :func:`_climb` of every (problem, config, grid) member in
    rounds until each has returned its report; ``problem`` holds the
    members' shared control and sensitivity generators.  Each round answers
    every pending gradient request, an evaluated pair, with one stacked
    :func:`_gradients` call, then every pending evaluation, a schedule, with
    one :func:`_evaluate` call, in member order.  Both stages run under
    :func:`_each`, so a member whose request raises alone fails alone and the
    others go on."""
    climbs = [_climb(config, grid) for _, config, grid in members]
    reports: list = [None] * len(climbs)
    requests: dict = {}  # what each running member waits for, in member order

    def answer(i: int, value) -> None:
        try:
            requests[i] = climbs[i].send(value)
        except StopIteration as done:
            reports[i] = done.value
            requests.pop(i, None)

    def gradients(evaluated: list[tuple]) -> list[np.ndarray]:
        return _gradients(evaluated, problem)

    for i in range(len(climbs)):
        answer(i, None)
    while requests:
        asking = [i for i, request in requests.items() if isinstance(request, tuple)]
        for i, table in zip(asking, _each(gradients, [requests[i] for i in asking])):
            answer(i, table)
        trying = [i for i, request in requests.items() if isinstance(request, ControlGrid)]
        results = _evaluate([(members[i][0], requests[i]) for i in trying], objective)
        for i, result in zip(trying, results):
            answer(i, result)
    return reports


def _evaluate(pairs: list[tuple], objective: Objective) -> list[tuple | QGrapeError]:
    """Each (problem, grid) pair's trajectory and the :func:`_final_rows` row
    ``(F, W1, W2)`` of its final state, or the error that the pair raises
    alone: one stacked :func:`_propagate_each` call and one stacked
    :func:`_final_rows` call, under :func:`_each`."""

    def evaluated(stack: list[tuple]) -> list[tuple]:
        trajs = _propagate_each(*zip(*stack))
        return list(zip(trajs, _final_rows(trajs, objective)))

    return _each(evaluated, pairs)
