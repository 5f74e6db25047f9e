"""Host speed probe: how much slower than full speed the host is running.

The shared 2-vCPU hosts this benchmark runs on switch between speeds every
few seconds (a 100-step ``propagate`` takes about 8 ms in one state, 15 ms in
another and 20 ms at worst), and a 30-second run can spend anywhere from a
little to all of its time slowed down.  Wall-clock rates therefore swing by
half from run to run, more than any useful regression bound.

The probe times a fixed reference kernel, interleaved with the measured work:
a timer signal runs it every ``INTERVAL_S`` between two bytecodes of the main
thread.  The kernel does what qgrape's inner loop does (build a 2x2
Hamiltonian, its 4x4 commutator superoperator, one ``scipy.linalg.expm`` and
a matrix-vector product) with its own frozen code, so a change to qgrape
cannot change it.  Interleaved this finely its time tracks the work's: over
2-second windows the ratio of a ``propagate`` to the kernel stayed within
about 3% while each of them moved by half.  Dividing a duration by
``slowdown`` converts it to seconds at full speed.
"""

from __future__ import annotations

import signal
import time

import numpy as np
from scipy.linalg import expm

# About the kernel's time when the host runs at full speed (2-vCPU Intel Xeon
# at 2.0 GHz, numpy 2.4, scipy 1.17).  It sets the scale of normalised
# figures only; every comparison is between runs that share it.
FULL_SPEED_S = 0.0006
INTERVAL_S = 0.025

_I2 = np.eye(2, dtype=complex)
_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_AMPS = np.random.default_rng(0).uniform(-1.0, 1.0, size=(10, 3))


def reference_kernel() -> float:
    """Run the reference kernel once; returns its duration in seconds."""
    start = time.perf_counter()
    v = np.full(4, 0.5, dtype=complex)
    for a in _AMPS:
        h = 0.5 * _SZ + a[0] * _SX + a[1] * _SY + a[2] * _SZ
        v = expm(-0.05j * (np.kron(_I2, h) - np.kron(h.T, _I2))) @ v
    return time.perf_counter() - start


class SpeedProbe:
    """Runs the reference kernel every ``INTERVAL_S`` while active.

    ``slowdown`` is the kernel's mean time over ``FULL_SPEED_S``;
    ``overhead_s`` is the time the kernel itself took, which the caller
    subtracts from the wall time it measured inside the probe.
    """

    def __init__(self):
        self.durations: list[float] = []
        self.overhead_s = 0.0

    def _tick(self, signum, frame) -> None:
        self.durations.append(reference_kernel())

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.overhead_s = sum(self.durations)
        if not self.durations:  # work shorter than one interval
            self.durations.append(reference_kernel())

    @property
    def slowdown(self) -> float:
        return sum(self.durations) / len(self.durations) / FULL_SPEED_S


def current_slowdown(samples: int = 10) -> float:
    """Slowdown from a few kernel runs back to back, for a moment's reading."""
    return sum(reference_kernel() for _ in range(samples)) / samples / FULL_SPEED_S
