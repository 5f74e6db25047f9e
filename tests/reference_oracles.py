"""Closed-form Bloch vectors of free evolution, the references for the
library's propagation under transverse dephasing and spontaneous emission.

Only the suite reads them; :mod:`qgrape.oracles` keeps the closed-form Fisher
information that the library and the CLI use.
"""

from __future__ import annotations

import math

import numpy as np

from qgrape.oracles import _check_nonnegative

SERIES_CROSSOVER = 1e-6


def transverse_bloch(gamma: float, omega0: float, t: float) -> np.ndarray:
    """Bloch vector of the transverse-dephasing evolution from (1, 0, 0).

    With ``a = sqrt(gamma^2 - 4 omega0^2)``:
    ``r1 = exp(-gamma t/2) [(gamma/a) sinh(a t/2) + cosh(a t/2)]``,
    ``r2 = -(2 omega0/a) exp(-gamma t/2) sinh(a t/2)``, ``r3 = 0``.
    For ``gamma^2 < 4 omega0^2`` the root is imaginary and the hyperbolic
    functions turn trigonometric; at a = 0 the t-linear limit applies.
    """
    _check_nonnegative(gamma=gamma, t=t)
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
    _check_nonnegative(gamma_plus=gamma_plus, gamma_minus=gamma_minus, t=t)
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
