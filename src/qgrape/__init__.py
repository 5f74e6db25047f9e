"""Pulse optimization for qubit frequency estimation under Markovian noise.

The package propagates a driven two-level probe through a Lindblad master
equation with piecewise-constant controls, evaluates the quantum and
classical Fisher information of the final state, and tunes the control
amplitudes by gradient ascent to maximize either quantity.  Closed-form
benchmarks and a sweep-running CLI reproduce the standard dephasing and
spontaneous-emission scenarios.
"""

from . import dynamics, errors, experiments, fisher, grape, oracles
from ._version import __version__
from .dynamics import (
    ControlGrid,
    Dephasing,
    EstimationProblem,
    SpontaneousEmission,
    Trajectory,
    bloch_from_density,
    density_from_bloch,
    frequency_estimation_problem,
    plus_state,
    propagate,
    zero_state,
)
from .fisher import Povm, cfi, qfi, qfi_bloch, sld
from .grape import (
    AscentConfig,
    AscentReport,
    Objective,
    ascend,
    cfi_objective,
    finite_difference_gradient,
    gradient,
    qfi_objective,
)
