"""Open-system dynamics of a driven two-level probe.

The probe evolves under ``d(rho)/dt = -i[H, rho] + Gamma(rho)`` with a
controlled Hamiltonian ``H = x K + sum_k V_k(t) H_k``.  The estimated
parameter ``x`` enters only, and linearly, through the free part
``H0 = x K``; :class:`EstimationProblem` holds ``x`` and ``K`` and builds
each generator once.  Controls are piecewise constant on a uniform grid of
``m`` steps of width ``dt``, so the final state is a right-to-left product
of step propagators ``exp(dt * L_m) ... exp(dt * L_1)`` applied to the probe.

States and generators are real, in Pauli coordinates
``c = (Tr rho, Tr(rho sigma_x), Tr(rho sigma_y), Tr(rho sigma_z))``, so
``rho = (c0 I + r . sigma)/2`` with ``r`` the Bloch vector.  Each generator is
built directly in Bloch form: a Hamiltonian ``H`` gives the precession
``dr/dt = v x r`` with ``v = Tr(H sigma)``, dephasing along the unit axis
``n`` at rate gamma gives ``dr/dt = gamma ((n . r) n - r)``, and spontaneous
emission damps ``r_x`` and ``r_y`` at ``(gamma_plus + gamma_minus)/2`` and
relaxes ``r_z`` to ``(gamma_plus - gamma_minus)/(gamma_plus + gamma_minus)``
at ``gamma_plus + gamma_minus``.  ``Tr rho`` is constant, so row 0 of every
generator is exactly zero.

Propagation works on stacks over the time axis: :func:`propagate` adds the
control terms of all m steps to the problem's free generator at once,
exponentiates the real (m, 4, 4) stack in one batched call of a Taylor
scaling-and-squaring kernel, and loops only over one real 8-vector that
carries the state and its sensitivity, one product per step.  The 8-vector
is column 0 of an (8, 2) block whose column 1 stays zero, so that each
product is a BLAS gemm: a gemm column rounds the same in a block of any
width, so the finite-difference oracle advances all its trajectories as the
columns of one block and still rounds each as this loop does, where a
one-column product, a gemv, would round otherwise.  The (m, 8, 8) step
matrices of that loop stay in the :class:`Trajectory`, where the gradient
and the finite-difference oracle read them.  The time axis may be flat over
several schedules: ``_propagate_each`` lays the m_1 + m_2 + ... steps of
many (problem, grid) pairs end to end and builds, exponentiates and checks
them in one call each, as the lock-step ascents of :mod:`qgrape.grape` do;
only the 8-vector loop runs per schedule.  Every kernel on that axis gives
each step bitwise what it gives the step alone.

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
from typing import Sequence

import numpy as np

from .errors import NumericalStabilityError, ValidationError

__all__ = [
    "IDENTITY",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "PAULIS",
    "zero_state",
    "plus_state",
    "validate_density",
    "density_from_bloch",
    "Dephasing",
    "SpontaneousEmission",
    "NoiseModel",
    "EstimationProblem",
    "frequency_estimation_problem",
    "ControlGrid",
    "step_count",
    "Trajectory",
    "propagate",
]

IDENTITY = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)
# (I, sigma_x, sigma_y, sigma_z): Pauli coordinate mu of m is Tr(m sigma_mu)
_PAULI_FRAME = np.array([IDENTITY, *PAULIS])

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
POSITIVITY_SLACK = 1e-10
POSITIVITY_HARD_FLOOR = 1e-6
PROPAGATION_TRACE_TOL = 1e-8
# bounds on the two deviations of _state_deviations: a state's, a propagated state's
_STATE_BOUNDS = (TRACE_TOL, 2 * POSITIVITY_SLACK)
_PROPAGATION_BOUNDS = (PROPAGATION_TRACE_TOL, 2 * POSITIVITY_HARD_FLOOR)


def zero_state() -> np.ndarray:
    """Density matrix of ``|0>``, the +1 eigenstate of ``sigma_z``."""
    return np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


def plus_state() -> np.ndarray:
    """Density matrix of ``|+> = (|0> + |1>)/sqrt(2)``."""
    return np.full((2, 2), 0.5, dtype=complex)


def _check_hermitian(mat: np.ndarray, name: str, tol: float = HERMITICITY_TOL) -> None:
    if mat.shape != (2, 2):
        raise ValidationError(f"{name} must be 2x2, got shape {mat.shape}")
    _check_hermitian_stack(mat, name, tol)


def _check_hermitian_stack(mat: np.ndarray, name: str, tol: float = HERMITICITY_TOL) -> None:
    # one vectorized test over any leading axes, so stacks cost no Python loop
    if not np.isfinite(mat).all():
        raise ValidationError(f"{name} contains non-finite entries")
    dev = np.abs(mat - mat.conj().swapaxes(-1, -2)).max(initial=0.0)
    if dev > tol:
        raise ValidationError(f"{name} is not Hermitian (deviation {dev:.3e} > {tol:.0e})")


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot products ``u0 v0 + u1 v1 + u2 v2`` of the 3-vectors on the last axis
    of ``u`` and ``v``, broadcast, elementwise, so that a row rounds the same
    alone, in any stack and at any alignment: (n, 3) stacks give (n,), an
    (n, 1, 3) and a (p, 3) stack give (n, p)."""
    return u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1] + u[..., 2] * v[..., 2]


def _norm_sq(coords: np.ndarray) -> np.ndarray:
    """``|r|^2`` of Pauli coordinates over any leading axes, by :func:`_dot`:
    numpy's sum over the 3-wide axis, bitwise, cheaper."""
    return _dot(coords[..., 1:], coords[..., 1:])


def _state_deviations(
    coords: np.ndarray, norm_sq: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``|c0 - 1|`` and ``|r| - c0``, twice the negative smaller eigenvalue, of
    Pauli coordinates over any leading axes; the second as ``-(c0 - |r|)``, so
    that its negative half is the eigenvalue ``(c0 - |r|)/2`` bit for bit.
    ``norm_sq`` is the coordinates' :func:`_norm_sq`, computed here unless a
    caller that needs it too passes it."""
    c0 = coords[..., 0]
    if norm_sq is None:
        norm_sq = _norm_sq(coords)
    return np.abs(c0 - 1.0), -(c0 - np.sqrt(norm_sq))


def _within(
    coords: np.ndarray, bounds: tuple[float, float], norm_sq: np.ndarray | None = None
) -> np.ndarray:
    """Mask of the states whose deviations are within ``bounds``; a NaN one is
    not.  ``norm_sq`` is passed on to :func:`_state_deviations`."""
    trace, eigen = _state_deviations(coords, norm_sq)
    return (trace <= bounds[0]) & (eigen <= bounds[1])


def _check_state(coords: np.ndarray) -> None:
    """Reject Pauli coordinates of a state whose trace deviates from 1 by more
    than ``TRACE_TOL`` or whose eigenvalue is below ``-POSITIVITY_SLACK``."""
    trace, eigen = _state_deviations(coords)
    if not trace <= _STATE_BOUNDS[0]:
        raise ValidationError(f"density matrix trace {coords[0]} deviates from 1")
    if not eigen <= _STATE_BOUNDS[1]:
        raise ValidationError(f"density matrix has negative eigenvalue {-eigen / 2.0:.3e}")


def validate_density(rho: np.ndarray) -> None:
    """Check rho is Hermitian, unit trace, and positive up to small slack."""
    _check_hermitian(rho, "density matrix")
    _check_state(_bloch(rho))


def _bloch(mat: np.ndarray) -> np.ndarray:
    """Pauli coordinates ``(Tr m, Tr(m sigma_x), Tr(m sigma_y), Tr(m sigma_z))``
    of a Hermitian 2x2 ``m``, or of each matrix in a stack."""
    return np.einsum("...ab,iba->...i", mat, _PAULI_FRAME).real


def density_from_bloch(r: Sequence[float]) -> np.ndarray:
    """Density matrix ``(I + r . sigma)/2``; requires ``|r| <= 1``."""
    coords = np.concatenate([[1.0], np.asarray(r, dtype=float)])
    if coords.shape != (4,):
        raise ValidationError(f"Bloch vector must have 3 components, got {coords.size - 1}")
    _check_state(coords)
    return _density(coords)


def _density(coords: np.ndarray) -> np.ndarray:
    """2x2 matrix ``(c0 I + r . sigma)/2`` of Pauli coordinates ``c``, or of
    each row of a stack."""
    return np.einsum("...i,iab->...ab", 0.5 * coords, _PAULI_FRAME)


def _precession(hamiltonian: np.ndarray) -> np.ndarray:
    """Real generator of ``rho -> -i [H, rho]`` in Pauli coordinates, for a
    Hermitian 2x2 ``H`` or each matrix of an (n, 2, 2) stack: the precession
    ``dr/dt = v x r`` with ``v = Tr(H sigma)``."""
    v = np.einsum("...ab,iba->...i", hamiltonian, _PAULI_FRAME[1:]).real
    out = np.zeros(v.shape[:-1] + (4, 4))
    # column k of the cross-product matrix of v is v x e_k
    out[..., 1:, 1:] = np.cross(v[..., None, :], np.eye(3)).swapaxes(-1, -2)
    return out


@dataclass(frozen=True)
class Dephasing:
    """Dephasing along the axis (theta, phi) at rate gamma."""

    theta: float
    phi: float
    gamma: float

    def __post_init__(self):
        # written as "not good" so that NaN and inf are rejected too
        if not 0 <= self.gamma < math.inf:
            raise ValidationError(
                f"dephasing rate must be finite and nonnegative, got {self.gamma}"
            )
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
        if not (0 <= self.gamma_plus < math.inf and 0 <= self.gamma_minus < math.inf):
            raise ValidationError(
                f"emission rates must be finite and nonnegative, got "
                f"({self.gamma_plus}, {self.gamma_minus})"
            )


NoiseModel = Dephasing | SpontaneousEmission | None


def _dissipation(noise: NoiseModel) -> np.ndarray:
    """Real 4x4 generator of the dissipative part in Pauli coordinates.

    Dephasing ``(gamma/2) (sigma_n rho sigma_n - rho)`` along the unit axis
    ``n`` given by (theta, phi) is ``dr/dt = gamma ((n . r) n - r)``.
    Spontaneous emission
    ``gamma_plus (sigma_+ rho sigma_- - {sigma_- sigma_+, rho}/2)
    + gamma_minus (sigma_- rho sigma_+ - {sigma_+ sigma_-, rho}/2)`` damps
    ``r_x`` and ``r_y`` at ``(gamma_plus + gamma_minus)/2`` and gives
    ``dr_z/dt = (gamma_plus - gamma_minus) - (gamma_plus + gamma_minus) r_z``.
    """
    out = np.zeros((4, 4))
    if isinstance(noise, Dephasing):
        st = math.sin(noise.theta)
        n = np.array([st * math.cos(noise.phi), st * math.sin(noise.phi), math.cos(noise.theta)])
        out[1:, 1:] = noise.gamma * (np.outer(n, n) - np.eye(3))
    elif isinstance(noise, SpontaneousEmission):
        total = noise.gamma_plus + noise.gamma_minus
        out[1, 1] = out[2, 2] = -0.5 * total
        out[3, 3] = -total
        out[3, 0] = noise.gamma_plus - noise.gamma_minus
    return out


@dataclass(frozen=True, eq=False)
class EstimationProblem:
    """Frequency-estimation scenario: dynamics, probe, and horizon.

    The free Hamiltonian is ``H0 = x K`` with ``K = encoding``, a Hermitian
    2x2 matrix, so ``dH0/dx = K``.  ``control_generators`` lists the Hermitian
    operators multiplied by the control amplitudes.  The generators that do
    not depend on the controls are built once per problem; to evaluate the
    same model at another ``x``, build ``dataclasses.replace(problem, x=...)``.
    """

    x: float
    encoding: np.ndarray
    control_generators: tuple[np.ndarray, ...]
    noise: NoiseModel
    probe: np.ndarray
    horizon: float

    def __post_init__(self):
        if not math.isfinite(self.x):
            raise ValidationError(f"x must be finite, got {self.x}")
        if not 0 <= self.horizon < math.inf:
            raise ValidationError(f"horizon must be finite and nonnegative, got {self.horizon}")
        if not isinstance(self.noise, NoiseModel):
            raise ValidationError(f"unknown noise model {self.noise!r}")
        validate_density(self.probe)
        _check_hermitian(self.encoding, "encoding")
        for k, gen in enumerate(self.control_generators):
            _check_hermitian(gen, f"control generator {k}")

    @property
    def n_controls(self) -> int:
        return len(self.control_generators)

    @cached_property
    def control_superops(self) -> np.ndarray:
        """Real stack (p, 4, 4) of ``dR/dV_k``, the precession of ``H_k``."""
        gens = np.array(self.control_generators, dtype=complex).reshape(-1, 2, 2)
        return _precession(gens)

    @cached_property
    def free_superop(self) -> np.ndarray:
        """Real 4x4 generator without controls, the Pauli form of
        ``L0 = -i [x K, .] + Gamma``."""
        return _precession(self.x * self.encoding) + _dissipation(self.noise)

    @cached_property
    def sensitivity_superop(self) -> np.ndarray:
        """Real 4x4 ``G = dR/dx``, the precession of ``K``."""
        return _precession(self.encoding)

    @cached_property
    def probe_coords(self) -> np.ndarray:
        """Pauli coordinates ``(1, r)`` of the probe."""
        return _bloch(self.probe)


def frequency_estimation_problem(
    omega0: float,
    noise: NoiseModel,
    probe: np.ndarray,
    horizon: float,
    control_generators: tuple[np.ndarray, ...] = PAULIS,
) -> EstimationProblem:
    """Standard scenario ``H0 = (x/2) sigma_z`` with controls along sigma axes."""
    return EstimationProblem(
        x=omega0,
        encoding=0.5 * SIGMA_Z,
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
        if not np.isfinite(amps).all():
            raise ValidationError("control amplitudes must be finite")
        if not 0 < self.dt < math.inf:
            raise ValidationError(f"dt must be finite and positive, got {self.dt}")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "dt", float(self.dt))  # so that step times are floats

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


def _generators(
    problem: EstimationProblem, amplitudes: np.ndarray, free: np.ndarray | None = None
) -> np.ndarray:
    """Real stack (m, 4, 4) of the generators ``R0 + sum_k V_k dR/dV_k`` for
    an (m, p) amplitude table; ``R0`` is the problem's free generator unless
    ``free`` gives another 4x4 matrix or one per step."""
    gens = np.einsum("jk,kab->jab", amplitudes, problem.control_superops)
    gens += problem.free_superop if free is None else free
    return gens


def step_count(horizon: float, dt: float) -> int:
    """Number of control steps of width ``dt`` that make up ``horizon``; the
    horizon must be a positive multiple of ``dt``, both finite."""
    ratio = horizon / dt if dt > 0 else math.nan
    m = round(ratio) if math.isfinite(ratio) else 0
    if m < 1 or abs(m * dt - horizon) > 1e-9:
        raise ValidationError(f"horizon {horizon} is not a positive multiple of dt {dt}")
    return m


# The degree-18 Taylor polynomial T18(A) = sum_k A^k / k! is evaluated by
# Paterson-Stockmeyer as a polynomial in A^4 whose coefficients are the
# blocks B_i = sum_r A^r / (4i + r)!, r = 0..3; row i of _TAYLOR18 holds the
# factors of I, A, A^2 and A^3 in B_i.  The powers are stored power-major,
# as (4, N, n, n), so that the five blocks of every matrix of a stack come
# from one (5, 4) @ (4, N n^2) product.  _THETA18 is the 1-norm up to which
# T18 has a relative backward error of at most 2^-53: the root of
# sum_{k>18} |g_k| x^(k-1) = 2^-53 for the series
# log(e^-x T18(x)) = sum_k g_k x^k (Al-Mohy & Higham, SIAM J. Matrix Anal.
# Appl. 31, 970 (2009)).
_TAYLOR18 = np.array(
    [[1.0 / math.factorial(k) if k <= 18 else 0.0 for k in range(4 * i, 4 * i + 4)]
     for i in range(5)]
)
_THETA18 = 1.090863719290036
# the identity and the all-ones row of every size up to 16 that _expm takes
_IDENTITIES = tuple(np.eye(n) for n in range(17))
_ONES = np.ones(16)


def _expm(generators: np.ndarray, dt: float) -> np.ndarray:
    """``exp(dt * A)`` for one square matrix or every matrix of a stack, by
    scaling and squaring with the degree-18 Taylor polynomial.

    Each matrix gets its own scaling ``s = max(0, ceil(log2(|dt A|_1 /
    theta18)))``, applied exactly as a power of two, and only its own ``s``
    squarings, so a matrix's exponential is bitwise the same alone or in any
    stack.  The polynomial takes seven stacked matrix products, one
    coefficient product on the power-major stack of I, A, A^2 and A^3, and no
    linear solve; its Horner steps run in place.  A zero row of ``A`` gives the same row of the
    identity in the result, exactly, so a trace-preserving Pauli generator's
    exponential keeps the trace row ``(1, 0, 0, 0)``.  Real input gives real
    output, complex input complex output.  Non-finite input gives non-finite
    output without floating-point warnings.

    The temporaries (the powers, A^4, the five blocks and one slot, for
    ``|dt A|`` and then each Horner product) are slices of one allocation per
    call: glibc serves a chunk this large by mmap, and once it is freed raises
    its mmap threshold above it (mallopt(3)), so the next call's stack comes
    from the heap instead of fresh, page-faulting pages.  The result is a view
    into that allocation.
    """
    a = np.asarray(generators)
    shape, n = a.shape, a.shape[-1]
    a = a.reshape(-1, n, n)
    work = np.empty((11,) + a.shape, dtype=np.promote_types(a.dtype, np.float64))
    powers, a4, blocks, term = work[:4], work[4], work[5:10], work[10]
    squarings = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a = np.multiply(dt, a, out=powers[1], dtype=powers.dtype)
        # column sums as one stacked product: a reduction over the middle
        # axis of small matrices costs several times more
        col_sums = _ONES[:n] @ np.abs(a, out=term.real)
        if np.count_nonzero(col_sums > _THETA18):
            s = np.ceil(np.log2(col_sums.max(axis=-1) / _THETA18))
            s = np.where(np.isfinite(s) & (s > 0), s, 0).astype(int)
            squarings = s.max()
            flat = a.view(float)
            np.ldexp(flat, -s[:, None, None], out=flat)
        powers[0] = _IDENTITIES[n]
        np.matmul(a, a, out=powers[2])
        np.matmul(powers[2], a, out=powers[3])
        np.matmul(powers[2], powers[2], out=a4)
        np.matmul(_TAYLOR18, powers.reshape(4, -1), out=blocks.reshape(5, -1))
        for i in (3, 2, 1, 0):
            blocks[i] += np.matmul(blocks[i + 1], a4, out=term)
        x = blocks[0]
        for i in range(squarings):
            squared = s > i
            y = x[squared]
            x[squared] = y @ y
    return x.reshape(shape)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Propagation products, real and in Pauli coordinates.

    ``rows[j]`` is the 8-vector ``y_j = (c_j, s_j)`` after step j (``rows[0]``
    holds the probe and a zero sensitivity): ``coords`` is the view
    ``rows[:, :4]`` of the states and ``sensitivity`` the view ``rows[:, 4:]``
    of the accumulated parameter sensitivity, with
    ``d(c_j)/dx = dt * sensitivity[j]``.  ``generators[j-1]`` is ``R_j`` and
    ``steps[j-1]`` is the 8x8 step ``B_j = [[E_j, 0], [G E_j, E_j]]`` with
    ``E_j = exp(dt R_j)`` that advances ``y`` over step j.  The final state
    and its derivative are also given as 2x2 matrices.  The trajectories of
    one ``_propagate_each`` call are views of its flat arrays; there ``rows``
    is the strided view of column 0 of the (8, 2) blocks that the recursion
    advances.
    """

    rows: np.ndarray
    steps: np.ndarray
    generators: np.ndarray
    dt: float

    @property
    def n_steps(self) -> int:
        return self.steps.shape[0]

    @property
    def coords(self) -> np.ndarray:
        """View (m+1, 4) of the states' Pauli coordinates in ``rows``."""
        return self.rows[:, :4]

    @property
    def sensitivity(self) -> np.ndarray:
        """View (m+1, 4) of the sensitivities in ``rows``."""
        return self.rows[:, 4:]

    @property
    def final_state(self) -> np.ndarray:
        return _density(self.coords[-1])

    @property
    def final_state_derivative(self) -> np.ndarray:
        """``d(rho_m)/dx`` of the discretized evolution."""
        return _density(self.dt * self.sensitivity[-1])


def _first_bad(bad: np.ndarray) -> int:
    """Index of the first true entry of a row mask, or its length if none."""
    return int(bad.argmax()) if np.count_nonzero(bad) else len(bad)


def _stability(coords: np.ndarray) -> np.ndarray:
    """Mask of the states of an (..., 4) stack of Pauli coordinates that lost
    positivity beyond the hard floor, their trace, or finiteness.  Past a bad
    step a state may have overflowed, so the caller runs this under
    ``np.errstate(over="ignore", invalid="ignore")``."""
    return ~_within(coords, _PROPAGATION_BOUNDS)


def _forward_steps(props: np.ndarray, dgen: np.ndarray) -> np.ndarray:
    """Stack (..., 8, 8) of the steps ``B = [[E, 0], [G E, E]]`` that advance
    ``(c, s)`` by the propagators ``E`` of an (..., 4, 4) stack, with ``G`` the
    sensitivity generator; every ``G E`` comes from one stacked product."""
    steps = np.zeros(props.shape[:-2] + (8, 8))
    steps[..., :4, :4] = steps[..., 4:, 4:] = props
    np.matmul(dgen, props, out=steps[..., 4:, :4])
    return steps


def propagate(problem: EstimationProblem, grid: ControlGrid) -> Trajectory:
    """Propagate the probe through all steps at the problem's ``x``,
    accumulating sensitivities.

    The generators and step propagators of all steps are built as real
    (m, 4, 4) stacks from the problem's cached ``free_superop`` and
    ``control_superops``.  The state recursion ``c_j = E_j c_{j-1}`` with
    ``E_j = exp(dt R_j)`` and the sensitivity recursion
    ``s_j = E_j s_{j-1} + G c_j`` with ``s_0 = 0`` and ``G`` the problem's
    ``sensitivity_superop``, which telescopes to
    ``d(c_j)/dx = dt * sum_{i<=j} E_j ... E_{i+1} G c_i``, run together as
    one real 8-vector step ``(c_j, s_j) = B_j (c_{j-1}, s_{j-1})`` with the
    blocks ``B_j = [[E_j, 0], [G E_j, E_j]]`` of :func:`_forward_steps`,
    which the trajectory keeps as ``steps``.

    Raises :class:`NumericalStabilityError` (naming the first such step) if an
    intermediate state loses positivity beyond the hard floor, its trace, or
    finiteness.
    """
    return _propagate_each([problem], [grid])[0]


def _stacked(arrays: list[np.ndarray]) -> np.ndarray:
    """The arrays one after another along the first axis; a single array is
    returned as it is, uncopied."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _check_grid(problem: EstimationProblem, grid: ControlGrid) -> None:
    if grid.n_controls != problem.n_controls:
        raise ValidationError(
            f"grid has {grid.n_controls} controls, problem has {problem.n_controls}"
        )
    if abs(grid.horizon - problem.horizon) > 1e-9:
        raise ValidationError(
            f"grid horizon {grid.horizon!r} does not match problem horizon "
            f"{problem.horizon!r}"
        )


def _propagate_each(
    problems: Sequence[EstimationProblem], grids: Sequence[ControlGrid]
) -> list[Trajectory]:
    """:func:`propagate` of every (problem, grid) pair on one flat step axis,
    one trajectory per pair.  It raises the error of the first pair that
    :func:`propagate` rejects: the grid checks of all pairs come first, then
    the first pair whose states go unstable (every
    :class:`NumericalStabilityError` is built here).  The pairs share the step
    width and the control and sensitivity generators (the first pair's are
    used); their free generators, probes and step counts may differ.  The
    generators, step exponentials, steps and stability checks of all pairs are
    each one stacked call, and only the 8-vector recursion loops per pair; a
    single pair's arrays are used as they are."""
    for problem, grid in zip(problems, grids):
        _check_grid(problem, grid)
    first, dt = problems[0], grids[0].dt
    counts = [grid.n_steps for grid in grids]
    amplitudes = _stacked([grid.amplitudes for grid in grids])
    free = None if len(grids) == 1 else np.repeat(
        [problem.free_superop for problem in problems], counts, axis=0
    )
    gens = _generators(first, amplitudes, free)
    steps = _forward_steps(_expm(gens, dt), first.sensitivity_superop)

    # pair i's rows y_0..y_m lie at ys[r:r + m + 1, :, 0], its steps at
    # steps[o:o + m]: each row is column 0 of an (8, 2) block whose column 1
    # stays zero, so that every step is a gemm (see the module docstring)
    ys = np.zeros((len(gens) + len(grids), 8, 2))
    blocks = list(ys)
    # past a bad step the recursion may overflow; the check below reports the
    # first bad step, so the floating-point warnings of later ones are noise.
    # ndarray.dot into the next block is the cheapest call of the gemm
    with np.errstate(over="ignore", invalid="ignore"):
        r = o = 0
        for problem, m in zip(problems, counts):
            ys[r, :4, 0] = problem.probe_coords
            for step, prev, nxt in zip(
                steps[o : o + m], blocks[r : r + m], blocks[r + 1 : r + m + 1]
            ):
                step.dot(prev, out=nxt)
            r, o = r + m + 1, o + m
        bad = _stability(ys[:, :4, 0])
    trajs = []
    r = o = 0
    for m in counts:
        step = _first_bad(bad[r + 1 : r + m + 1]) + 1
        if step <= m:
            lo = -_state_deviations(ys[r + step, :4, 0])[1] / 2.0
            raise NumericalStabilityError(f"state lost positivity/trace at step {step} "
                                          f"(min eigenvalue {lo:.3e})", step=step)
        trajs.append(Trajectory(ys[r : r + m + 1, :, 0], steps[o : o + m], gens[o : o + m], dt))
        r, o = r + m + 1, o + m
    return trajs
