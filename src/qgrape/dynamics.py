"""Open-system dynamics of a driven two-level probe.

The probe evolves under ``d(rho)/dt = -i[H, rho] + Gamma(rho)`` with a
controlled Hamiltonian ``H = H0(x) + sum_k V_k(t) H_k``.  The estimated
parameter ``x`` enters only through the free part ``H0``.  Controls are
piecewise constant on a uniform grid of ``m`` steps of width ``dt``, so the
final state is a right-to-left product of step propagators
``exp(dt * L_m) ... exp(dt * L_1)`` applied to the probe.

Everything is represented in Liouville space: density matrices are
column-major vectorized (``vec(rho) = rho.reshape(4, order="F")``) and maps
on them are 4x4 matrices.  With this stacking, ``rho -> A rho B`` has matrix
``B.T (x) A`` and the commutator map ``[H, .]`` has matrix
``kron(I, H) - kron(H.T, I)``.

Propagation works on stacks over the time axis: :func:`propagate` builds the
generators of all m steps at once, exponentiates the (m, 4, 4) stack in one
batched scaling-and-squaring call, and loops only over the 4-vector state and
sensitivity recursion.

Conventions (fixed once, asserted by tests):

* ``|0>`` is the +1 eigenvector of ``sigma_z``; ``sigma_plus`` maps
  ``|1> -> |0>``.  With ``gamma_plus = 0`` the population settles at
  ``r_z = -1``, i.e. ``r_z(t) = -1 + exp(-gamma t) (1 + r_z(0))``.
* Under ``H = (x/2) sigma_z`` the Bloch vector precesses counterclockwise
  when viewed from +z: starting from (1, 0, 0),
  ``r(t) = (cos(x t), sin(x t), 0)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import NumericalStabilityError, ValidationError

__all__ = [
    "IDENTITY",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "SIGMA_PLUS",
    "SIGMA_MINUS",
    "PAULIS",
    "zero_state",
    "one_state",
    "plus_state",
    "validate_density",
    "bloch_from_density",
    "density_from_bloch",
    "vectorize",
    "unvectorize",
    "commutator_superop",
    "Dephasing",
    "SpontaneousEmission",
    "NoiseModel",
    "dephasing_axis",
    "dissipator",
    "EstimationProblem",
    "frequency_estimation_problem",
    "ControlGrid",
    "build_liouvillian",
    "step_count",
    "step_propagator",
    "Trajectory",
    "propagate",
]

IDENTITY = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
POSITIVITY_SLACK = 1e-10
POSITIVITY_HARD_FLOOR = 1e-6


def zero_state() -> np.ndarray:
    """Density matrix of ``|0>``, the +1 eigenstate of ``sigma_z``."""
    return np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


def one_state() -> np.ndarray:
    """Density matrix of ``|1>``, the -1 eigenstate of ``sigma_z``."""
    return np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


def plus_state() -> np.ndarray:
    """Density matrix of ``|+> = (|0> + |1>)/sqrt(2)``."""
    return np.full((2, 2), 0.5, dtype=complex)


def _check_hermitian(mat: np.ndarray, name: str, tol: float = HERMITICITY_TOL) -> None:
    if mat.shape != (2, 2):
        raise ValidationError(f"{name} must be 2x2, got shape {mat.shape}")
    _check_hermitian_stack(mat, name, tol)


def _check_hermitian_stack(mat: np.ndarray, name: str, tol: float = HERMITICITY_TOL) -> None:
    # one vectorized test over any leading axes, so stacks cost no Python loop
    if not np.all(np.isfinite(mat)):
        raise ValidationError(f"{name} contains non-finite entries")
    dev = np.abs(mat - mat.conj().swapaxes(-1, -2)).max(initial=0.0)
    if dev > tol:
        raise ValidationError(f"{name} is not Hermitian (deviation {dev:.3e} > {tol:.0e})")


def _eigvals_2x2_hermitian(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # closed form over any leading axes; avoids a LAPACK call per state
    tr = rho[..., 0, 0].real + rho[..., 1, 1].real
    det = (rho[..., 0, 0] * rho[..., 1, 1] - rho[..., 0, 1] * rho[..., 1, 0]).real
    root = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
    return (tr - root) / 2.0, (tr + root) / 2.0


def validate_density(rho: np.ndarray) -> None:
    """Check rho is Hermitian, unit trace, and positive up to small slack."""
    _check_hermitian(rho, "density matrix")
    tr = rho[0, 0] + rho[1, 1]
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValidationError(f"density matrix trace {tr} deviates from 1")
    lo, _ = _eigvals_2x2_hermitian(rho)
    if lo < -POSITIVITY_SLACK:
        raise ValidationError(f"density matrix has negative eigenvalue {lo:.3e}")


def _bloch(mat: np.ndarray) -> np.ndarray:
    """``(Tr(m sigma_x), Tr(m sigma_y), Tr(m sigma_z))`` of a Hermitian 2x2 ``m``."""
    return np.array([2.0 * mat[1, 0].real, 2.0 * mat[1, 0].imag, (mat[0, 0] - mat[1, 1]).real])


def bloch_from_density(rho: np.ndarray) -> np.ndarray:
    """Bloch vector ``r_i = Tr(rho sigma_i)`` of a valid density matrix."""
    validate_density(rho)
    return _bloch(rho)


def density_from_bloch(r: Sequence[float]) -> np.ndarray:
    """Density matrix ``(I + r . sigma)/2``; requires ``|r| <= 1``."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3,):
        raise ValidationError(f"Bloch vector must have 3 components, got {r.shape}")
    norm_sq = float(r @ r)
    if norm_sq > 1.0 + POSITIVITY_SLACK:
        raise ValidationError(f"Bloch vector norm {math.sqrt(norm_sq):.12f} exceeds 1")
    return 0.5 * (IDENTITY + r[0] * SIGMA_X + r[1] * SIGMA_Y + r[2] * SIGMA_Z)


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Column-major stacking of a 2x2 matrix into a 4-vector, or of each
    matrix in a stack (leading axes are kept)."""
    rho = np.asarray(rho, dtype=complex)
    return rho.reshape(rho.shape[:-2] + (4,), order="F")


def unvectorize(vec: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vectorize`."""
    vec = np.asarray(vec, dtype=complex)
    return vec.reshape(vec.shape[:-1] + (2, 2), order="F")


def commutator_superop(hamiltonian: np.ndarray) -> np.ndarray:
    """4x4 matrix of ``rho -> [H, rho]`` in the column-major vectorization,
    or the (n, 4, 4) stack of them for an (n, 2, 2) stack of Hamiltonians."""
    h = np.asarray(hamiltonian, dtype=complex)
    if h.ndim not in (2, 3) or h.shape[-2:] != (2, 2):
        raise ValidationError(f"Hamiltonian must be 2x2 or a stack of 2x2, got shape {h.shape}")
    _check_hermitian_stack(h, "Hamiltonian")
    return np.kron(IDENTITY, h) - np.kron(h.swapaxes(-1, -2), IDENTITY)


@dataclass(frozen=True)
class Dephasing:
    """Dephasing along the axis (theta, phi) at rate gamma."""

    theta: float
    phi: float
    gamma: float

    def __post_init__(self):
        if self.gamma < 0:
            raise ValidationError(f"dephasing rate must be nonnegative, got {self.gamma}")
        if not 0.0 <= self.theta <= math.pi:
            raise ValidationError(f"theta must lie in [0, pi], got {self.theta}")
        if not 0.0 <= self.phi <= 2.0 * math.pi:
            raise ValidationError(f"phi must lie in [0, 2*pi], got {self.phi}")


@dataclass(frozen=True)
class SpontaneousEmission:
    """Raising/lowering dissipation at rates gamma_plus / gamma_minus."""

    gamma_plus: float
    gamma_minus: float

    def __post_init__(self):
        if self.gamma_plus < 0 or self.gamma_minus < 0:
            raise ValidationError(
                f"emission rates must be nonnegative, got "
                f"({self.gamma_plus}, {self.gamma_minus})"
            )


NoiseModel = Dephasing | SpontaneousEmission | None


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


@dataclass(frozen=True, eq=False)
class EstimationProblem:
    """Frequency-estimation scenario: dynamics, probe, and horizon.

    ``free_hamiltonian`` maps the estimated parameter ``x`` to ``H0(x)`` and
    ``free_hamiltonian_derivative`` to ``dH0/dx``; both must return 2x2
    Hermitian matrices.  ``control_generators`` lists the Hermitian operators
    multiplied by the control amplitudes.
    """

    x: float
    free_hamiltonian: Callable[[float], np.ndarray]
    free_hamiltonian_derivative: Callable[[float], np.ndarray]
    control_generators: tuple[np.ndarray, ...]
    noise: NoiseModel
    probe: np.ndarray
    horizon: float

    def __post_init__(self):
        if self.horizon < 0:
            raise ValidationError(f"horizon must be nonnegative, got {self.horizon}")
        validate_density(self.probe)
        _check_hermitian(self.free_hamiltonian(self.x), "free Hamiltonian")
        _check_hermitian(self.free_hamiltonian_derivative(self.x), "free Hamiltonian derivative")
        for k, gen in enumerate(self.control_generators):
            _check_hermitian(gen, f"control generator {k}")

    @property
    def n_controls(self) -> int:
        return len(self.control_generators)

    @cached_property
    def control_superops(self) -> np.ndarray:
        """Stack (p, 4, 4) of ``dL/dV_k = -i [H_k, .]``."""
        gens = np.array(self.control_generators, dtype=complex).reshape(-1, 2, 2)
        return -1j * commutator_superop(gens)

    @cached_property
    def dissipator_superop(self) -> np.ndarray:
        """4x4 matrix of the dissipative part of the generator."""
        return dissipator(self.noise)

    def sensitivity_generator(self, x: float) -> np.ndarray:
        """``G = dL/dx = -i [dH0/dx, .]`` at parameter value x."""
        return -1j * commutator_superop(self.free_hamiltonian_derivative(x))


def frequency_estimation_problem(
    omega0: float,
    noise: NoiseModel,
    probe: np.ndarray,
    horizon: float,
    control_generators: tuple[np.ndarray, ...] = PAULIS,
) -> EstimationProblem:
    """Standard scenario ``H0(x) = (x/2) sigma_z`` with controls along sigma axes."""
    return EstimationProblem(
        x=omega0,
        free_hamiltonian=lambda x: 0.5 * x * SIGMA_Z,
        free_hamiltonian_derivative=lambda x: 0.5 * SIGMA_Z,
        control_generators=tuple(control_generators),
        noise=noise,
        probe=np.array(probe, dtype=complex),
        horizon=horizon,
    )


@dataclass(frozen=True, eq=False)
class ControlGrid:
    """Piecewise-constant control amplitudes: row j holds the p amplitudes
    applied during step j (of width dt)."""

    amplitudes: np.ndarray
    dt: float

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=float)
        if amps.ndim != 2:
            raise ValidationError(f"amplitudes must be an (m, p) table, got ndim={amps.ndim}")
        if not np.all(np.isfinite(amps)):
            raise ValidationError("control amplitudes must be finite")
        if self.dt <= 0:
            raise ValidationError(f"dt must be positive, got {self.dt}")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_steps(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def n_controls(self) -> int:
        return self.amplitudes.shape[1]

    @property
    def horizon(self) -> float:
        return self.n_steps * self.dt

    @staticmethod
    def zeros(n_steps: int, n_controls: int, dt: float) -> "ControlGrid":
        return ControlGrid(np.zeros((n_steps, n_controls)), dt)

    @staticmethod
    def constant(values: Sequence[float], n_steps: int, dt: float) -> "ControlGrid":
        row = np.asarray(values, dtype=float)
        return ControlGrid(np.tile(row, (n_steps, 1)), dt)


def _liouvillians(problem: EstimationProblem, amplitudes: np.ndarray, x: float) -> np.ndarray:
    """Stack (m, 4, 4) of the generators ``L0(x) + sum_k V_k dL/dV_k`` for an
    (m, p) amplitude table.  The Hermiticity check covers the free part at x."""
    free = -1j * commutator_superop(problem.free_hamiltonian(x)) + problem.dissipator_superop
    return free + np.einsum("jk,kab->jab", amplitudes, problem.control_superops)


def build_liouvillian(
    problem: EstimationProblem, controls_at_step: Sequence[float], x: float
) -> np.ndarray:
    """Generator ``-i [H0(x) + sum_k V_k H_k, .] + Gamma`` for one step."""
    amps = np.asarray(controls_at_step, dtype=float)
    if amps.shape != (problem.n_controls,):
        raise ValidationError(
            f"expected {problem.n_controls} control amplitudes, got shape {amps.shape}"
        )
    if not np.all(np.isfinite(amps)):
        raise ValidationError("control amplitudes must be finite")
    return _liouvillians(problem, amps[None, :], x)[0]


def step_count(horizon: float, dt: float) -> int:
    """Number of control steps of width ``dt`` that make up ``horizon``; the
    horizon must be a positive multiple of ``dt``."""
    m = round(horizon / dt)
    if m < 1 or abs(m * dt - horizon) > 1e-9:
        raise ValidationError(f"horizon {horizon} is not a positive multiple of dt {dt}")
    return m


# Pade [13/13] coefficients and the 1-norm up to which that approximant
# meets double precision unscaled (Higham, SIAM J. Matrix Anal. Appl. 26,
# 1179 (2005))
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def _expm(generators: np.ndarray, dt: float) -> np.ndarray:
    """``exp(dt * A)`` for one square matrix or every matrix of a stack, by
    scaling and squaring with the degree-13 Pade approximant.

    Each matrix gets its own scaling ``s = max(0, ceil(log2(|dt A|_1 /
    theta13)))``, applied exactly as a power of two, and only its own ``s``
    squarings, so a matrix's exponential is bitwise the same alone or in any
    stack.  The approximant is formed as ``I + 2 (V - U)^-1 U``, which keeps
    a trace-preserving generator's exponential trace-preserving to rounding.
    Non-finite input gives non-finite output without floating-point warnings.
    """
    b = _PADE13
    a = np.asarray(generators, dtype=complex)
    shape = a.shape
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a = np.ascontiguousarray(dt * a).reshape(-1, *shape[-2:])
        s = np.ceil(np.log2(np.abs(a).sum(axis=-2).max(axis=-1) / _THETA13))
        s = np.where(np.isfinite(s) & (s > 0), s, 0).astype(int)
        a = np.ldexp(a.view(float), -s[:, None, None]).view(complex)
        eye = np.eye(shape[-1])
        a2 = a @ a
        a4 = a2 @ a2
        a6 = a4 @ a2
        u = a @ (
            a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
            + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye
        )
        v = (
            a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
            + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
        )
        x = eye + 2.0 * np.linalg.solve(v - u, u)
        for i in range(s.max(initial=0)):
            squared = s > i
            x[squared] = x[squared] @ x[squared]
    return x.reshape(shape)


def step_propagator(liouvillian: np.ndarray, dt: float) -> np.ndarray:
    """Matrix exponential ``exp(dt * L)`` of one 4x4 generator, or of every
    generator in an (m, 4, 4) stack."""
    if dt <= 0:
        raise ValidationError(f"dt must be positive, got {dt}")
    return _expm(liouvillian, dt)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Cached propagation products.

    ``states[j]`` is the state after step j (``states[0]`` is the probe),
    ``step_propagators[j-1]`` is ``exp(dt L_j)``, ``liouvillians[j-1]`` is the
    generator ``L_j`` itself, and ``phi[j]`` accumulates the parameter
    sensitivity so that ``d(rho_j)/dx = dt * phi[j]``.
    """

    states: np.ndarray
    step_propagators: np.ndarray
    liouvillians: np.ndarray
    phi: np.ndarray
    dt: float
    x: float

    @property
    def n_steps(self) -> int:
        return self.step_propagators.shape[0]

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def final_state_derivative(self) -> np.ndarray:
        """``d(rho_m)/dx`` of the discretized evolution, ``dt * phi_m``."""
        return self.dt * self.phi[-1]


def _check_states(states: np.ndarray, first_step: int = 1) -> None:
    """Raise :class:`NumericalStabilityError` if a state lost positivity beyond
    the hard floor, its trace, or finiteness.

    ``states`` is an (..., n, 2, 2) stack of trajectories whose state i is the
    one after step ``first_step + i``.  The error names the first bad step of
    the first bad trajectory, in C order over the leading axes.
    """
    # past a bad step a state may have overflowed; its warnings are noise
    with np.errstate(over="ignore", invalid="ignore"):
        lo, _ = _eigvals_2x2_hermitian(states)
        trace_dev = np.abs(states[..., 0, 0] + states[..., 1, 1] - 1.0)
        # written as "not good" so that a NaN state counts as bad
        bad = ~((lo >= -POSITIVITY_HARD_FLOOR) & (trace_dev <= 1e-8))
    if bad.any():
        first = int(np.argmax(bad))
        step = first_step + first % bad.shape[-1]
        raise NumericalStabilityError(
            f"state lost positivity/trace at step {step} "
            f"(min eigenvalue {lo.flat[first]:.3e})",
            step=step,
        )


def propagate(
    problem: EstimationProblem, grid: ControlGrid, x: float | None = None
) -> Trajectory:
    """Propagate the probe through all steps, accumulating sensitivities.

    The generators and step propagators of all steps are built as (m, 4, 4)
    stacks; only the recursions below run step by step.  The sensitivity
    recursion is ``phi_j = E_j phi_{j-1} + G(rho_j)`` with ``phi_0 = 0`` and
    ``G = -i [dH0/dx, .]``, which telescopes to
    ``d(rho_j)/dx = dt * sum_{i<=j} D_{i+1}^j G(rho_i)``.

    Raises :class:`NumericalStabilityError` (naming the first such step) if an
    intermediate state loses positivity beyond the hard floor, its trace, or
    finiteness.
    """
    if x is None:
        x = problem.x
    m = grid.n_steps
    if grid.n_controls != problem.n_controls:
        raise ValidationError(
            f"grid has {grid.n_controls} controls, problem has {problem.n_controls}"
        )
    if abs(grid.horizon - problem.horizon) > 1e-9:
        raise ValidationError(
            f"grid horizon {grid.horizon!r} does not match problem horizon "
            f"{problem.horizon!r}"
        )

    lious = _liouvillians(problem, grid.amplitudes, x)
    props = step_propagator(lious, grid.dt)
    dgen = problem.sensitivity_generator(x)

    rho_v = np.empty((m + 1, 4), dtype=complex)
    phi_v = np.empty((m + 1, 4), dtype=complex)
    rho_v[0] = vectorize(problem.probe)
    phi_v[0] = 0.0
    # past a bad step the recursion may overflow; the check below reports the
    # first bad step, so the floating-point warnings of later ones are noise
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(m):
            rho_v[j + 1] = props[j] @ rho_v[j]
        source = np.matmul(dgen, rho_v[1:, :, None])[..., 0]
        for j in range(m):
            phi_v[j + 1] = props[j] @ phi_v[j] + source[j]
    states = np.ascontiguousarray(unvectorize(rho_v))
    _check_states(states[1:])

    return Trajectory(
        states=states,
        step_propagators=props,
        liouvillians=lious,
        phi=np.ascontiguousarray(unvectorize(phi_v)),
        dt=grid.dt,
        x=x,
    )
