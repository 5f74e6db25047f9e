"""Closed-form benchmarks for the qubit frequency-estimation scenarios.

These are the Fisher information of analytic solutions of the Bloch
equations for the three noise models (dephasing transverse or parallel to the
encoding axis, spontaneous emission).  They serve as ground truth for the
numeric pipeline and as the analysis backend for single-pulse control
strategies, where the probe evolves freely, receives one instantaneous
rotation at time t0, and evolves freely again until T.  The free Bloch
vectors themselves are test references, in ``tests/reference_oracles.py``.
"""

from __future__ import annotations

import math

import numpy as np

from .dynamics import _first_bad
from .errors import UndefinedRotationError, ValidationError
from .fisher import _information

__all__ = [
    "transverse_controlled_qfi",
    "parallel_free_qfi",
    "parallel_single_pulse_qfi",
    "spontaneous_free_qfi",
    "spontaneous_single_pulse_qfi",
]


def _check_nonnegative(**values: float) -> None:
    for name, value in values.items():
        # written as "not good" so that NaN and inf are rejected too
        if not 0 <= value < math.inf:
            raise ValidationError(f"{name} must be finite and nonnegative, got {value}")


def _pulse_times(horizon: float, omega0: float, t0, **rates: float) -> np.ndarray:
    """The pulse times ``t0`` (a float or an array) as a flat array, once the
    rates and horizon are finite and nonnegative, ``omega0`` is finite and
    every pulse time lies in [0, T]."""
    _check_nonnegative(horizon=horizon, **rates)
    if not math.isfinite(omega0):
        raise ValidationError(f"omega0 must be finite, got {omega0}")
    times = np.asarray(t0, dtype=float).ravel()
    # written as "not good" so that a NaN pulse time is rejected too
    first = _first_bad(~((0.0 <= times) & (times <= horizon)))
    if first < times.size:
        raise ValidationError(f"pulse time t0 = {times[first]} must lie in [0, {horizon}]")
    return times


def transverse_controlled_qfi(gamma: float, horizon: float) -> float:
    """``(2/gamma^2) (exp(-gamma T) + gamma T - 1)``, the information of a
    probe held at |+> under transverse dephasing; reduces to ``T^2`` as
    gamma -> 0."""
    _check_nonnegative(gamma=gamma, horizon=horizon)
    u = gamma * horizon
    if u < 1e-4:
        # series in u avoids cancellation: T^2 (1 - u/3 + u^2/12 - u^3/60)
        return horizon * horizon * (1.0 - u / 3.0 + u * u / 12.0 - u**3 / 60.0)
    return 2.0 / (gamma * gamma) * (math.expm1(-u) + u)


def parallel_free_qfi(gamma: float, horizon: float) -> float:
    """``T^2 exp(-2 gamma T)``: free-evolution information under parallel
    dephasing from |+>; maximal at T = 1/gamma."""
    _check_nonnegative(gamma=gamma, horizon=horizon)
    return horizon * horizon * math.exp(-2.0 * gamma * horizon)


def parallel_single_pulse_qfi(gamma: float, omega0: float, horizon: float, t0):
    """Information at T for a pi/2 y-pulse applied at t0 under parallel
    dephasing at rate ``gamma``, for a float ``t0`` or at every pulse time of
    an array ``t0`` (the result then has its shape).

    The final Bloch vector is
    ``(e^{-gT} sin(w d) sin(w t0), e^{-gT} cos(w d) sin(w t0),
    e^{-g t0} cos(w t0))`` with ``d = T - t0``; its Pauli rows ``(1, r)``, and
    ``(0, dr)`` of its derivative in w, go to :func:`qgrape.fisher._information`.
    """
    times = _pulse_times(horizon, omega0, t0, gamma=gamma)
    w = omega0
    tail = horizon - times
    sin_b, cos_b = np.sin(w * times), np.cos(w * times)
    sin_a, cos_a = np.sin(w * tail), np.cos(w * tail)
    decay_t = math.exp(-gamma * horizon)
    decay_0 = np.exp(-gamma * times)
    r = [decay_t * sin_a * sin_b, decay_t * cos_a * sin_b, decay_0 * cos_b]
    dr = [
        decay_t * (tail * cos_a * sin_b + times * sin_a * cos_b),
        decay_t * (times * cos_a * cos_b - tail * sin_a * sin_b),
        -decay_0 * times * sin_b,
    ]
    c = np.stack([np.ones_like(times), *r], axis=1)
    value = _information(c, np.stack([np.zeros_like(times), *dr], axis=1), None)[0]
    return float(value[0]) if np.ndim(t0) == 0 else value.reshape(np.shape(t0))


def spontaneous_free_qfi(gamma_plus: float, gamma_minus: float, horizon: float) -> float:
    """``T^2 exp(-(g+ + g-) T)`` for the probe |+>; maximal at
    T = 2/(g+ + g-)."""
    _check_nonnegative(gamma_plus=gamma_plus, gamma_minus=gamma_minus, horizon=horizon)
    return horizon * horizon * math.exp(-(gamma_plus + gamma_minus) * horizon)


def spontaneous_single_pulse_qfi(gamma_minus: float, omega0: float, horizon: float, t0):
    """Information at T for the pulse that rotates the probe back to the x-y
    plane at t0 under decay at rate ``gamma_minus`` (no raising rate), for a
    float ``t0`` or at every pulse time of an array ``t0`` (the result then
    has its shape).

    The final Bloch vector and its frequency derivative go, as Pauli rows, to
    :func:`qgrape.fisher._information`.  Only the dynamics is differentiated:
    the rotation, built from the pre-pulse state at the reference frequency,
    is held fixed.  The first pulse time whose rotation is undefined or whose
    state fails the information check raises.
    """
    times = _pulse_times(horizon, omega0, t0, gamma_minus=gamma_minus)
    gamma, w = gamma_minus, omega0

    cos_b, sin_b = np.cos(w * times), np.sin(w * times)
    env = np.exp(-0.5 * gamma * times)
    plane_norm = np.hypot(env * cos_b, -1.0 + env * env)
    stop = _first_bad(plane_norm < 1e-12)
    # the rotation is undefined at stop: the pulse times from there on are
    # not evaluated
    pulse, cos_b, sin_b, env, plane_norm = (
        a[:stop] for a in (times, cos_b, sin_b, env, plane_norm)
    )
    pre = (env * cos_b, env * sin_b, -1.0 + env * env)
    d_pre_x, d_pre_y = -pulse * env * sin_b, pulse * env * cos_b  # d_pre_z = 0
    # the y-rotation by (c1, c3) takes pre to (plane_norm, r2(t0), 0)
    c1, c3 = pre[0] / plane_norm, pre[2] / plane_norm
    q = (c1 * pre[0] + c3 * pre[2], pre[1], c1 * pre[2] - c3 * pre[0])
    dq = (c1 * d_pre_x, d_pre_y, -c3 * d_pre_x)
    tail = horizon - pulse

    cos_a, sin_a = np.cos(w * tail), np.sin(w * tail)
    env_tail = np.exp(-0.5 * gamma * tail)
    relax_tail = env_tail * env_tail
    r = [
        env_tail * (cos_a * q[0] - sin_a * q[1]),
        env_tail * (cos_a * q[1] + sin_a * q[0]),
        -1.0 + relax_tail + relax_tail * q[2],
    ]
    dr = [
        env_tail * (-tail * sin_a * q[0] + cos_a * dq[0] - tail * cos_a * q[1] - sin_a * dq[1]),
        env_tail * (-tail * sin_a * q[1] + cos_a * dq[1] + tail * cos_a * q[0] + sin_a * dq[0]),
        relax_tail * dq[2],
    ]
    c = np.stack([np.ones_like(pulse), *r], axis=1)
    value = _information(c, np.stack([np.zeros_like(pulse), *dr], axis=1), None)[0]
    if stop < len(times):
        raise UndefinedRotationError(
            f"pre-pulse state at t0 = {float(times[stop])} has no x-z component to rotate"
        )
    return float(value[0]) if np.ndim(t0) == 0 else value.reshape(np.shape(t0))
