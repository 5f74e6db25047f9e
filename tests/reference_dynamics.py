"""Reference trajectories and Liouville-space constructors for the suite.

:func:`propagate_stepwise` is the reference for the stacked
:func:`qgrape.dynamics.propagate`.  Each step adds its control terms to the
problem's real Pauli-coordinate generator one at a time, exponentiates it on
its own with :func:`qgrape.dynamics._expm`, advances the state and
its sensitivity together by one 8x8 step, which the trajectory keeps, and
checks the new state before taking the next step.  The stacked library version performs the
same floating-point operations, so the suite requires its trajectories to
equal this one exactly; the exponential itself is checked against
``scipy.linalg.expm`` on its own.

:func:`propagate_liouville` is the same discretized evolution in complex
Liouville space, on column-major vectorized density matrices
(``vec(rho) = rho.reshape(4, order="F")``, so ``[H, .]`` has matrix
``kron(I, H) - kron(H.T, I)``), with every generator assembled from ``kron``
products per step: the reference for the library's real Bloch-form
generators, and the trajectory that the Liouville-space gradient references
in ``reference_gradient`` read.  Its constructors (:func:`vectorize`,
:func:`commutator_superop`, :func:`dissipator` and the change of basis
``PAULI_BASIS``) live here and share no code with the library's generators.

The suite's small constructors live here too: the ladder operators
``SIGMA_PLUS`` and ``SIGMA_MINUS``, :func:`one_state`,
:func:`bloch_from_density` and :func:`constant_grid`.

:func:`expm_matrix_major` is the Taylor scaling-and-squaring kernel as it was
before :func:`qgrape.dynamics._expm` stored its powers power-major, formed
its coefficient blocks in one product and skipped the column sums under a
bound: the same arithmetic by another route, so the suite requires the two to
agree bit for bit.

:func:`stability_before_cut` is the state check of
:func:`qgrape.dynamics._stability` as it was before ``|r|^2`` was added
elementwise, from numpy's sum over the 3-wide axis instead; the library's
mask must be the same on every stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qgrape.dynamics import (
    IDENTITY,
    PAULIS,
    POSITIVITY_HARD_FLOOR,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    ControlGrid,
    Dephasing,
    EstimationProblem,
    NoiseModel,
    SpontaneousEmission,
    Trajectory,
    _bloch,
    _check_hermitian_stack,
    _expm,
    validate_density,
)
from qgrape.errors import NumericalStabilityError, ValidationError

# sigma_plus maps |1> to |0>, the +1 eigenvector of sigma_z
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)


def one_state() -> np.ndarray:
    """Density matrix of ``|1>``, the -1 eigenstate of ``sigma_z``."""
    return np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


def bloch_from_density(rho: np.ndarray) -> np.ndarray:
    """Bloch vector ``r_i = Tr(rho sigma_i)`` of a valid density matrix."""
    validate_density(rho)
    return _bloch(rho)[1:]


def constant_grid(values, n_steps: int, dt: float) -> ControlGrid:
    """``n_steps`` steps of width ``dt`` that all apply the amplitudes ``values``."""
    return ControlGrid(np.tile(np.asarray(values, dtype=float), (n_steps, 1)), dt)


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Column-major stacking of a 2x2 matrix into a 4-vector, or of each
    matrix in a stack (leading axes are kept)."""
    rho = np.asarray(rho, dtype=complex)
    return rho.reshape(rho.shape[:-2] + (4,), order="F")


def unvectorize(vec: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vectorize`."""
    vec = np.asarray(vec, dtype=complex)
    return vec.reshape(vec.shape[:-1] + (2, 2), order="F")


# columns vec(sigma_mu)/2 with sigma_0 = I; the inverse is 2 PAULI_BASIS^dagger
PAULI_BASIS = 0.5 * vectorize(np.array([IDENTITY, *PAULIS])).T


def commutator_superop(hamiltonian: np.ndarray) -> np.ndarray:
    """4x4 matrix of ``rho -> [H, rho]`` in the column-major vectorization,
    or the (n, 4, 4) stack of them for an (n, 2, 2) stack of Hamiltonians."""
    h = np.asarray(hamiltonian, dtype=complex)
    if h.ndim not in (2, 3) or h.shape[-2:] != (2, 2):
        raise ValidationError(f"Hamiltonian must be 2x2 or a stack of 2x2, got shape {h.shape}")
    _check_hermitian_stack(h, "Hamiltonian")
    return np.kron(IDENTITY, h) - np.kron(h.swapaxes(-1, -2), IDENTITY)


def dephasing_axis(theta: float, phi: float) -> np.ndarray:
    """Pauli operator ``n . sigma`` for the unit axis given by (theta, phi)."""
    n = (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta))
    return n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z


def dissipator(noise: NoiseModel) -> np.ndarray:
    """4x4 matrix of the dissipative part of the generator.

    Dephasing: ``(gamma/2) (sigma_n rho sigma_n - rho)``.
    Spontaneous emission:
    ``gamma_plus (sigma_+ rho sigma_- - {sigma_- sigma_+, rho}/2)
    + gamma_minus (sigma_- rho sigma_+ - {sigma_+ sigma_-, rho}/2)``.
    """
    if noise is None:
        return np.zeros((4, 4), dtype=complex)
    if isinstance(noise, Dephasing):
        sn = dephasing_axis(noise.theta, noise.phi)
        return 0.5 * noise.gamma * (np.kron(sn.T, sn) - np.eye(4, dtype=complex))
    if isinstance(noise, SpontaneousEmission):
        out = np.zeros((4, 4), dtype=complex)
        for rate, jump in (
            (noise.gamma_plus, SIGMA_PLUS),
            (noise.gamma_minus, SIGMA_MINUS),
        ):
            if rate == 0.0:
                continue
            jdj = jump.conj().T @ jump
            out += rate * (
                np.kron(jump.conj(), jump)
                - 0.5 * (np.kron(IDENTITY, jdj) + np.kron(jdj.T, IDENTITY))
            )
        return out
    raise ValidationError(f"unknown noise model {noise!r}")


def pauli_superop(liouvillian: np.ndarray) -> np.ndarray:
    """``PAULI_BASIS^-1 L PAULI_BASIS``, complex as computed."""
    return 2.0 * PAULI_BASIS.conj().T @ liouvillian @ PAULI_BASIS


# The degree-18 Taylor polynomial T18(A) = sum_k A^k / k! is evaluated by
# Paterson-Stockmeyer as a polynomial in A^4 whose coefficients are the
# blocks B_i = sum_r A^r / (4i + r)!, r = 0..3; row i of _TAYLOR18 holds the
# factors of I, A, A^2 and A^3 in B_i.  _THETA18 is the 1-norm up to which T18
# has a relative backward error of at most 2^-53: the root of
# sum_{k>18} |g_k| x^(k-1) = 2^-53 for the series
# log(e^-x T18(x)) = sum_k g_k x^k (Al-Mohy & Higham, SIAM J. Matrix Anal.
# Appl. 31, 970 (2009)).
_TAYLOR18 = np.array(
    [[1.0 / math.factorial(k) if k <= 18 else 0.0 for k in range(4 * i, 4 * i + 4)]
     for i in range(5)]
)
_THETA18 = 1.090863719290036


def expm_matrix_major(generators: np.ndarray, dt: float) -> np.ndarray:
    """``exp(dt * A)`` for one square matrix or every matrix of a stack, by
    scaling and squaring with the degree-18 Taylor polynomial.

    Each matrix gets its own scaling ``s = max(0, ceil(log2(|dt A|_1 /
    theta18)))``, applied exactly as a power of two, and only its own ``s``
    squarings, so a matrix's exponential is bitwise the same alone or in any
    stack.  The polynomial takes seven stacked matrix products and no linear
    solve.  A zero row of ``A`` gives the same row of the identity in the
    result, exactly, so a trace-preserving Pauli generator's exponential keeps
    the trace row ``(1, 0, 0, 0)``.  Real input gives real output, complex
    input complex output.  Non-finite input gives non-finite output without
    floating-point warnings.
    """
    a = np.asarray(generators)
    a = a.astype(np.result_type(a.dtype, np.float64), copy=False)
    shape, n = a.shape, a.shape[-1]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a = np.ascontiguousarray(dt * a).reshape(-1, n, n)
        # column sums as one stacked product: a reduction over the middle
        # axis of small matrices costs several times more
        col_sums = np.ones(n) @ np.abs(a)
        s = np.zeros(len(a), dtype=int)
        if (col_sums > _THETA18).any():
            s = np.ceil(np.log2(col_sums.max(axis=-1) / _THETA18))
            s = np.where(np.isfinite(s) & (s > 0), s, 0).astype(int)
            a = np.ldexp(a.view(float), -s[:, None, None]).view(a.dtype)
        powers = np.empty((len(a), 4, n, n), dtype=a.dtype)
        powers[:, 0] = np.eye(n)
        powers[:, 1] = a
        np.matmul(a, a, out=powers[:, 2])
        np.matmul(powers[:, 2], a, out=powers[:, 3])
        a4 = powers[:, 2] @ powers[:, 2]
        blocks = (_TAYLOR18 @ powers.reshape(-1, 4, n * n)).reshape(-1, 5, n, n)
        x = blocks[:, 4]
        for i in (3, 2, 1, 0):
            x = x @ a4 + blocks[:, i]
        for i in range(s.max(initial=0)):
            squared = s > i
            x[squared] = x[squared] @ x[squared]
    return x.reshape(shape)


def stability_before_cut(coords: np.ndarray) -> np.ndarray:
    """Mask of the states of an (..., 4) stack of Pauli coordinates that lost
    positivity beyond the hard floor, their trace, or finiteness."""
    c0 = coords[..., 0]
    twice_lo = c0 - np.sqrt((coords[..., 1:] ** 2).sum(axis=-1))
    return ~((twice_lo >= -2.0 * POSITIVITY_HARD_FLOOR) & (np.abs(c0 - 1.0) <= 1e-8))


def _check_controls(problem: EstimationProblem, grid: ControlGrid) -> None:
    if grid.n_controls != problem.n_controls:
        raise ValidationError(
            f"grid has {grid.n_controls} controls, problem has {problem.n_controls}"
        )


def propagate_stepwise(problem: EstimationProblem, grid: ControlGrid) -> Trajectory:
    """The trajectory of :func:`qgrape.dynamics.propagate`, one step at a time."""
    _check_controls(problem, grid)
    m = grid.n_steps
    dgen = problem.sensitivity_superop

    coords = np.empty((m + 1, 4))
    sens = np.empty((m + 1, 4))
    steps = np.empty((m, 8, 8))
    gens = np.empty((m, 4, 4))
    coords[0] = _bloch(problem.probe)
    sens[0] = 0.0

    y = np.concatenate([coords[0], sens[0]])
    for j in range(m):
        gen = problem.free_superop.copy()
        for v, control in zip(grid.amplitudes[j], problem.control_superops):
            gen += v * control
        prop = _expm(gen, grid.dt)
        # (c, s) -> (E c, E s + G E c) as one 8x8 step
        step = np.zeros((8, 8))
        step[:4, :4] = step[4:, 4:] = prop
        step[4:, :4] = dgen @ prop
        # as column 0 of a two-column block: a gemm, which rounds a column
        # the same in a block of any width, where one column would be a gemv
        y = (step @ np.column_stack((y, np.zeros(8))))[:, 0]
        c, s = y[:4], y[4:]

        lo = (c[0] - np.sqrt((c[1:] ** 2).sum())) / 2.0
        if lo < -POSITIVITY_HARD_FLOOR or abs(c[0] - 1.0) > 1e-8:
            raise NumericalStabilityError(
                f"state lost positivity/trace at step {j + 1} "
                f"(min eigenvalue {lo:.3e})",
                step=j + 1,
            )
        steps[j] = step
        gens[j] = gen
        coords[j + 1] = c
        sens[j + 1] = s

    return Trajectory(
        rows=np.concatenate([coords, sens], axis=1),
        steps=steps,
        generators=gens,
        dt=grid.dt,
    )


@dataclass(frozen=True, eq=False)
class LiouvilleTrajectory:
    """Propagation products in Liouville space: ``states[j]`` is the 2x2 state
    after step j, ``step_propagators[j-1]`` is ``exp(dt L_j)``,
    ``liouvillians[j-1]`` is ``L_j`` and ``d(rho_j)/dx = dt * phi[j]``."""

    states: np.ndarray
    step_propagators: np.ndarray
    liouvillians: np.ndarray
    phi: np.ndarray
    dt: float

    @property
    def n_steps(self) -> int:
        return self.step_propagators.shape[0]

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def final_state_derivative(self) -> np.ndarray:
        return self.dt * self.phi[-1]


def propagate_liouville(problem: EstimationProblem, grid: ControlGrid) -> LiouvilleTrajectory:
    """The discretized evolution of :func:`qgrape.dynamics.propagate` on
    column-major vectorized 2x2 matrices, one step at a time and without the
    state check."""
    _check_controls(problem, grid)
    m = grid.n_steps
    gamma_super = dissipator(problem.noise)
    h_free = problem.x * problem.encoding
    dgen = -1j * commutator_superop(problem.encoding)
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
        prop = _expm(liouvillian, grid.dt)
        rho_v = prop @ rho_v
        phi_v = prop @ phi_v + dgen @ rho_v
        props[j] = prop
        lious[j] = liouvillian
        states[j + 1] = unvectorize(rho_v)
        phis[j + 1] = unvectorize(phi_v)

    return LiouvilleTrajectory(
        states=states,
        step_propagators=props,
        liouvillians=lious,
        phi=phis,
        dt=grid.dt,
    )
