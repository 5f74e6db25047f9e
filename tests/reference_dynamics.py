"""Step-by-step propagation, the reference for the stacked
:func:`qgrape.dynamics.propagate`.

Each step assembles its generator with two ``kron`` calls, exponentiates it
on its own with :func:`qgrape.dynamics.step_propagator` and checks the new
state before taking the next step.  The stacked library version performs the
same floating-point operations, so the suite requires its trajectories to
equal this one exactly; the exponential itself is checked against
``scipy.linalg.expm`` on its own.
"""

from __future__ import annotations

import math

import numpy as np

from qgrape.dynamics import (
    IDENTITY,
    POSITIVITY_HARD_FLOOR,
    ControlGrid,
    EstimationProblem,
    Trajectory,
    commutator_superop,
    dissipator,
    step_propagator,
    unvectorize,
    vectorize,
)
from qgrape.errors import NumericalStabilityError, ValidationError


def _min_eigenvalue(rho: np.ndarray) -> float:
    tr = float(rho[0, 0].real + rho[1, 1].real)
    det = float((rho[0, 0] * rho[1, 1] - rho[0, 1] * rho[1, 0]).real)
    return (tr - math.sqrt(max(tr * tr - 4.0 * det, 0.0))) / 2.0


def propagate_stepwise(
    problem: EstimationProblem, grid: ControlGrid, x: float | None = None
) -> Trajectory:
    """The trajectory of :func:`qgrape.dynamics.propagate`, one step at a time."""
    if x is None:
        x = problem.x
    m = grid.n_steps
    if grid.n_controls != problem.n_controls:
        raise ValidationError(
            f"grid has {grid.n_controls} controls, problem has {problem.n_controls}"
        )

    gamma_super = dissipator(problem.noise)
    h_free = np.array(problem.free_hamiltonian(x), dtype=complex)
    dgen = -1j * commutator_superop(problem.free_hamiltonian_derivative(x))
    gens = problem.control_generators

    states = np.empty((m + 1, 2, 2), dtype=complex)
    phis = np.empty((m + 1, 2, 2), dtype=complex)
    props = np.empty((m, 4, 4), dtype=complex)
    lious = np.empty((m, 4, 4), dtype=complex)
    states[0] = problem.probe
    phis[0] = 0.0

    rho_v = vectorize(problem.probe)
    phi_v = np.zeros(4, dtype=complex)
    for j in range(m):
        h = h_free.copy()
        for v, gen in zip(grid.amplitudes[j], gens):
            h += v * gen
        liouvillian = -1j * (np.kron(IDENTITY, h) - np.kron(h.T, IDENTITY)) + gamma_super
        prop = step_propagator(liouvillian, grid.dt)
        rho_v = prop @ rho_v
        phi_v = prop @ phi_v + dgen @ rho_v

        rho = unvectorize(rho_v)
        lo = _min_eigenvalue(rho)
        if lo < -POSITIVITY_HARD_FLOOR or abs(rho[0, 0] + rho[1, 1] - 1.0) > 1e-8:
            raise NumericalStabilityError(
                f"state lost positivity/trace at step {j + 1} "
                f"(min eigenvalue {lo:.3e})",
                step=j + 1,
            )
        props[j] = prop
        lious[j] = liouvillian
        states[j + 1] = rho
        phis[j + 1] = unvectorize(phi_v)

    return Trajectory(
        states=states,
        step_propagators=props,
        liouvillians=lious,
        phi=phis,
        dt=grid.dt,
        x=x,
    )
