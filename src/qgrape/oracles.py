"""Closed-form benchmarks for the qubit frequency-estimation scenarios.

These are analytic solutions of the Bloch equations for the three noise
models (dephasing transverse or parallel to the encoding axis, spontaneous
emission) together with the Fisher information they imply.  They serve as
ground truth for the numeric pipeline and as the analysis backend for
single-pulse control strategies, where the probe evolves freely, receives one
instantaneous rotation at time t0, and evolves freely again until T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UndefinedRotationError, ValidationError
from .fisher import qfi_bloch

__all__ = [
    "SinglePulsePlan",
    "transverse_controlled_qfi",
    "transverse_bloch",
    "parallel_free_qfi",
    "parallel_single_pulse_qfi",
    "spontaneous_free_bloch",
    "spontaneous_free_qfi",
    "spontaneous_single_pulse_qfi",
]

SERIES_CROSSOVER = 1e-6


@dataclass(frozen=True)
class SinglePulsePlan:
    """One instantaneous rotation at t0 within a horizon T.

    For parallel dephasing the pulse is a fixed pi/2 rotation about y; for
    spontaneous emission it is the y-rotation bringing the Bloch vector
    (evaluated at the reference frequency ``omega0``) back to the x-y plane.
    ``gamma``/``gamma_plus``/``gamma_minus`` select the noise strength.
    """

    t0: float
    horizon: float
    omega0: float = 1.0
    gamma: float = 0.0
    gamma_plus: float = 0.0
    gamma_minus: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.t0 <= self.horizon:
            raise ValidationError(
                f"pulse time {self.t0} must lie in [0, {self.horizon}]"
            )


def transverse_controlled_qfi(gamma: float, horizon: float) -> float:
    """``(2/gamma^2) (exp(-gamma T) + gamma T - 1)``, the information of a
    probe held at |+> under transverse dephasing; reduces to ``T^2`` as
    gamma -> 0."""
    if gamma < 0:
        raise ValidationError(f"gamma must be nonnegative, got {gamma}")
    if horizon < 0:
        raise ValidationError(f"horizon must be nonnegative, got {horizon}")
    u = gamma * horizon
    if u < 1e-4:
        # series in u avoids cancellation: T^2 (1 - u/3 + u^2/12 - u^3/60)
        return horizon * horizon * (1.0 - u / 3.0 + u * u / 12.0 - u**3 / 60.0)
    return 2.0 / (gamma * gamma) * (math.expm1(-u) + u)


def transverse_bloch(gamma: float, omega0: float, t: float) -> np.ndarray:
    """Bloch vector of the transverse-dephasing evolution from (1, 0, 0).

    With ``a = sqrt(gamma^2 - 4 omega0^2)``:
    ``r1 = exp(-gamma t/2) [(gamma/a) sinh(a t/2) + cosh(a t/2)]``,
    ``r2 = -(2 omega0/a) exp(-gamma t/2) sinh(a t/2)``, ``r3 = 0``.
    For ``gamma^2 < 4 omega0^2`` the root is imaginary and the hyperbolic
    functions turn trigonometric; at a = 0 the t-linear limit applies.
    """
    if t < 0:
        raise ValidationError(f"time must be nonnegative, got {t}")
    disc = gamma * gamma - 4.0 * omega0 * omega0
    envelope = math.exp(-0.5 * gamma * t)
    half_t = 0.5 * t
    if disc >= 0.0:
        z = math.sqrt(disc) * half_t
        if z < SERIES_CROSSOVER:
            sinhc = 1.0 + z * z / 6.0
        else:
            sinhc = math.sinh(z) / z
        cosh_term = math.cosh(z)
    else:
        z = math.sqrt(-disc) * half_t
        if z < SERIES_CROSSOVER:
            sinhc = 1.0 - z * z / 6.0
        else:
            sinhc = math.sin(z) / z
        cosh_term = math.cos(z)
    sinh_over_a = half_t * sinhc  # sinh(a t/2)/a on either branch
    r1 = envelope * (gamma * sinh_over_a + cosh_term)
    r2 = -2.0 * omega0 * envelope * sinh_over_a
    return np.array([r1, r2, 0.0])


def parallel_free_qfi(gamma: float, t: float) -> float:
    """``t^2 exp(-2 gamma t)``: free-evolution information under parallel
    dephasing from |+>; maximal at t = 1/gamma."""
    if t < 0:
        raise ValidationError(f"time must be nonnegative, got {t}")
    return t * t * math.exp(-2.0 * gamma * t)


def parallel_single_pulse_qfi(plan: SinglePulsePlan) -> float:
    """Information at T for a pi/2 y-pulse applied at t0 under parallel
    dephasing.

    The final Bloch vector is
    ``(e^{-gT} sin(w d) sin(w t0), e^{-gT} cos(w d) sin(w t0),
    e^{-g t0} cos(w t0))`` with ``d = T - t0``; it and its derivative in w
    go to :func:`qgrape.fisher.qfi_bloch`.
    """
    gamma, w, t0, horizon = plan.gamma, plan.omega0, plan.t0, plan.horizon
    tail = horizon - t0
    sin_b, cos_b = math.sin(w * t0), math.cos(w * t0)
    sin_a, cos_a = math.sin(w * tail), math.cos(w * tail)
    decay_t = math.exp(-gamma * horizon)
    decay_0 = math.exp(-gamma * t0)
    r = [decay_t * sin_a * sin_b, decay_t * cos_a * sin_b, decay_0 * cos_b]
    dr = [
        decay_t * (tail * cos_a * sin_b + t0 * sin_a * cos_b),
        decay_t * (t0 * cos_a * cos_b - tail * sin_a * sin_b),
        -decay_0 * t0 * sin_b,
    ]
    return qfi_bloch(r, dr)


def spontaneous_free_bloch(
    gamma_plus: float,
    gamma_minus: float,
    omega0: float,
    t: float,
    r0,
) -> np.ndarray:
    """Free spontaneous-emission evolution of an arbitrary Bloch vector.

    Transverse components rotate at omega0 and damp at ``(g+ + g-)/2``; the
    longitudinal component relaxes toward ``(g+ - g-)/(g+ + g-)`` at rate
    ``g+ + g-``.  Zero total rate gives pure rotation.
    """
    if t < 0:
        raise ValidationError(f"time must be nonnegative, got {t}")
    if gamma_plus < 0 or gamma_minus < 0:
        raise ValidationError("emission rates must be nonnegative")
    r0 = np.asarray(r0, dtype=float)
    total = gamma_plus + gamma_minus
    c, s = math.cos(omega0 * t), math.sin(omega0 * t)
    envelope = math.exp(-0.5 * total * t)
    r1 = envelope * (c * r0[0] - s * r0[1])
    r2 = envelope * (c * r0[1] + s * r0[0])
    if total == 0.0:
        r3 = r0[2]
    else:
        fixed_point = (gamma_plus - gamma_minus) / total
        relax = math.exp(-total * t)
        r3 = fixed_point * (1.0 - relax) + relax * r0[2]
    return np.array([r1, r2, r3])


def spontaneous_free_qfi(gamma_plus: float, gamma_minus: float, horizon: float) -> float:
    """``T^2 exp(-(g+ + g-) T)`` for the probe |+>; maximal at
    T = 2/(g+ + g-)."""
    if horizon < 0:
        raise ValidationError(f"horizon must be nonnegative, got {horizon}")
    return horizon * horizon * math.exp(-(gamma_plus + gamma_minus) * horizon)


def _spontaneous_pulse_state_and_derivative(
    plan: SinglePulsePlan,
) -> tuple[np.ndarray, np.ndarray]:
    """Final Bloch vector and its frequency derivative for the back-to-plane
    pulse strategy, with the rotation frozen at the reference frequency.

    Only the dynamics is differentiated; the rotation matrix, built from the
    pre-pulse state at the reference frequency, is held fixed.
    """
    if plan.gamma_plus != 0.0:
        raise ValidationError("the back-to-plane pulse strategy assumes gamma_plus = 0")
    gamma = plan.gamma_minus
    w, t0, horizon = plan.omega0, plan.t0, plan.horizon
    tail = horizon - t0

    cos_b, sin_b = math.cos(w * t0), math.sin(w * t0)
    env = math.exp(-0.5 * gamma * t0)
    pre = np.array([env * cos_b, env * sin_b, -1.0 + env * env])
    d_pre = np.array([-t0 * env * sin_b, t0 * env * cos_b, 0.0])

    plane_norm = math.hypot(pre[0], pre[2])
    if plane_norm < 1e-12:
        raise UndefinedRotationError(
            f"pre-pulse state at t0 = {t0} has no x-z component to rotate"
        )
    c1, c3 = pre[0] / plane_norm, pre[2] / plane_norm
    rotation = np.array([[c1, 0.0, c3], [0.0, 1.0, 0.0], [-c3, 0.0, c1]])

    q = rotation @ pre  # (plane_norm, r2(t0), 0) at the reference frequency
    dq = rotation @ d_pre

    cos_a, sin_a = math.cos(w * tail), math.sin(w * tail)
    env_tail = math.exp(-0.5 * gamma * tail)
    relax_tail = env_tail * env_tail
    r = np.array(
        [
            env_tail * (cos_a * q[0] - sin_a * q[1]),
            env_tail * (cos_a * q[1] + sin_a * q[0]),
            -1.0 + relax_tail + relax_tail * q[2],
        ]
    )
    dr = np.array(
        [
            env_tail * (-tail * sin_a * q[0] + cos_a * dq[0] - tail * cos_a * q[1] - sin_a * dq[1]),
            env_tail * (-tail * sin_a * q[1] + cos_a * dq[1] + tail * cos_a * q[0] + sin_a * dq[0]),
            relax_tail * dq[2],
        ]
    )
    return r, dr


def spontaneous_single_pulse_qfi(plan: SinglePulsePlan) -> float:
    """Information at T for the pulse that rotates the probe back to the x-y
    plane at t0 under decay (gamma_plus = 0)."""
    r, dr = _spontaneous_pulse_state_and_derivative(plan)
    return qfi_bloch(r, dr)
