"""Property tests of the real Pauli-coordinate step propagators over
generated probes, amplitudes and noise models."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qgrape import dynamics as dyn  # noqa: E402

# fixed examples, no example database: every run checks the same cases
SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)

NOISE_MODELS = [
    None,
    dyn.Dephasing(theta=math.pi / 2, phi=0.0, gamma=0.1),
    dyn.Dephasing(theta=0.0, phi=0.0, gamma=0.1),
    dyn.Dephasing(theta=1.1, phi=0.4, gamma=0.2),
    dyn.SpontaneousEmission(gamma_plus=0.05, gamma_minus=0.1),
]

coordinates = st.floats(-1.0, 1.0, allow_nan=False)
# points of the Bloch ball, its surface included
bloch_vectors = (
    st.tuples(coordinates, coordinates, coordinates)
    .map(np.array)
    .filter(lambda v: np.linalg.norm(v) > 1e-3)
    .map(lambda v: v / np.linalg.norm(v))
    .flatmap(lambda n: st.one_of(st.floats(0.0, 1.0), st.just(1.0)).map(lambda s: s * n))
)
amplitude_tables = st.lists(
    st.tuples(*(st.floats(-5.0, 5.0, allow_nan=False),) * 3), min_size=1, max_size=8
).map(np.array)


@SETTINGS
@given(
    bloch_vectors,
    amplitude_tables,
    st.sampled_from(NOISE_MODELS),
    st.floats(-3.0, 3.0),
    st.sampled_from([0.01, 0.05, 0.5]),
)
def test_every_step_propagator_keeps_states_in_the_bloch_ball(r, amps, noise, x, dt):
    prob = dyn.frequency_estimation_problem(x, noise, dyn.density_from_bloch(r), 1.0)
    props = dyn.step_propagator(dyn._generators(prob, amps), dt)
    assert props.dtype == np.float64
    out = props @ np.concatenate([[1.0], r])
    np.testing.assert_allclose(out[:, 0], 1.0, rtol=0, atol=1e-12)
    assert (np.linalg.norm(out[:, 1:], axis=-1) <= 1.0 + 1e-10).all()
