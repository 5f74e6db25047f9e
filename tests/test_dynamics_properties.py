"""Property tests of the real Pauli-coordinate step propagators over
generated probes, amplitudes and noise models."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qgrape import dynamics as dyn  # noqa: E402
from reference_dynamics import stability_before_cut  # noqa: E402

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
    props = dyn._expm(dyn._generators(prob, amps), dt)
    assert props.dtype == np.float64
    out = props @ np.concatenate([[1.0], r])
    np.testing.assert_allclose(out[:, 0], 1.0, rtol=0, atol=1e-12)
    assert (np.linalg.norm(out[:, 1:], axis=-1) <= 1.0 + 1e-10).all()


def _nudged(x: float, ulps: int) -> float:
    """``x`` moved ``ulps`` doubles up, or down for a negative count."""
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, math.copysign(math.inf, ulps)))
    return x


def _floor_row(n: np.ndarray, trace_ulps: int, ulps: tuple[int, int, int]) -> np.ndarray:
    """Pauli coordinates of c0 - |r| = -2 POSITIVITY_HARD_FLOOR along the unit
    vector ``n``, for a trace a few ulps from 1, with each Bloch component
    then moved a few ulps: rows on both sides of the hard floor."""
    c0 = _nudged(1.0, trace_ulps)
    r = n * (c0 + 2.0 * dyn.POSITIVITY_HARD_FLOOR)
    return np.array([c0, *(_nudged(v, k) for v, k in zip(r, ulps))])


ulp_steps = st.integers(-4, 4)
floor_rows = st.builds(
    _floor_row,
    bloch_vectors.filter(lambda v: np.linalg.norm(v) > 0.5).map(lambda v: v / np.linalg.norm(v)),
    ulp_steps,
    st.tuples(ulp_steps, ulp_steps, ulp_steps),
)
# a trace a few ulps from 1 +- 1e-8, the bound of the trace check
trace_rows = st.builds(
    lambda sign, ulps, r: np.concatenate([[_nudged(1.0 + sign * 1e-8, ulps)], 0.5 * r]),
    st.sampled_from([-1.0, 1.0]),
    ulp_steps,
    bloch_vectors,
)
free_rows = st.tuples(st.floats(0.9, 1.1), *(st.floats(-1.5, 1.5),) * 3).map(np.array)
# a row with one coordinate NaN or infinite
broken_rows = st.builds(
    lambda row, at, value: np.where(np.arange(4) == at, value, row),
    st.one_of(floor_rows, free_rows),
    st.integers(0, 3),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
state_stacks = st.lists(
    st.one_of(floor_rows, trace_rows, free_rows, broken_rows), min_size=1, max_size=40
).map(np.array)


def _block_views(rows: np.ndarray, length: int):
    """The rows laid out as the finite-difference oracle keeps its states, an
    (length + 1, 8, n) array of columns with the checked block at
    ``[1:, :4].swapaxes(1, 2)``: that view, and the view of its first half of
    trajectories."""
    width = -(-len(rows) // length)
    states = np.zeros((length + 1, 8, width))
    states[1:, :4] = np.resize(rows, (length, width, 4)).swapaxes(1, 2)
    return states[1:, :4].swapaxes(1, 2), states[1:, :4, : -(-width // 2)].swapaxes(1, 2)


@SETTINGS
@given(state_stacks, st.integers(1, 4))
def test_stability_mask_equals_the_check_before_the_cut(rows, length):
    # the same accept/reject decision on every state, near the hard floor,
    # near the trace bound, for NaN and infinite coordinates, and on the
    # strided views that the finite-difference oracle checks
    with np.errstate(over="ignore", invalid="ignore"):
        for coords in (rows, *_block_views(rows, length)):
            np.testing.assert_array_equal(dyn._stability(coords), stability_before_cut(coords))


finite_rows = st.lists(
    st.tuples(*(st.floats(allow_nan=False, allow_infinity=False, width=64),) * 4),
    min_size=1,
    max_size=20,
).map(np.array)


@SETTINGS
@given(st.one_of(finite_rows, state_stacks), st.integers(1, 4))
def test_norm_sq_adds_as_numpy_sums_a_3_wide_axis(rows, length):
    # the assumption of the cut: numpy sums a 3-wide trailing axis left to
    # right, (x0 + x1) + x2, so dynamics._norm_sq gives its bits; checked on
    # values of any sign and magnitude, contiguous and strided
    with np.errstate(over="ignore", invalid="ignore"):
        for coords in (rows, *_block_views(rows, length)):
            x = coords[..., 1:]
            np.testing.assert_array_equal(x.sum(axis=-1), (x[..., 0] + x[..., 1]) + x[..., 2])
            want = (x**2).sum(axis=-1)
            assert dyn._norm_sq(coords).tobytes() == want.tobytes()


step_matrices = st.lists(
    st.floats(-2.0, 2.0, allow_nan=False), min_size=64, max_size=64
).map(lambda v: np.reshape(v, (8, 8)))


@SETTINGS
@given(step_matrices, st.integers(0, 2**32 - 1))
def test_a_gemm_column_rounds_alike_in_blocks_of_any_width(step, seed):
    # the assumption of the forward recursion: propagate advances each
    # trajectory as column 0 of an (8, 2) block and the finite-difference
    # oracle advances all its trajectories as the columns of one (8, n) block,
    # each step one BLAS gemm, so a column must round the same in a block of
    # any width.  240 and 2,400 columns reach OpenBLAS's non-small gemm path,
    # and the wide blocks are row-strided slices, as the oracle's are.  A
    # one-column product would be a gemv, which rounds otherwise
    cols = np.random.default_rng(seed).normal(size=(8, 2401))
    pairs = np.zeros((2400, 8, 2))
    pairs[:, :, 0] = cols[:, :2400].T
    want = np.empty((2400, 8, 2))
    for pair, out in zip(pairs, want):
        step.dot(pair, out=out)
    wide = np.empty((8, 2401))
    for width in (3, 17, 240, 2400):
        np.matmul(step, cols[:, :width], out=wide[:, :width])
        assert wide[:, :width].T.tobytes() == want[:width, :, 0].tobytes(), width
