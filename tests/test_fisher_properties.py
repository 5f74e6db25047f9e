"""Property tests of the Fisher-information closed forms over generated
states, derivatives and two-outcome POVMs."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qgrape import dynamics as dyn  # noqa: E402
from qgrape import fisher  # noqa: E402

# fixed examples, no example database: every run checks the same cases
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

coordinates = st.floats(-1.0, 1.0, allow_nan=False)
directions = (
    st.tuples(coordinates, coordinates, coordinates)
    .map(np.array)
    .filter(lambda v: np.linalg.norm(v) > 1e-3)
    .map(lambda v: v / np.linalg.norm(v))
)
# mixed states up to 1 - |r| = 1e-3, and pure ones
mixed_radii = st.floats(0.0, 0.999)
radii = st.one_of(mixed_radii, st.just(1.0))
derivatives = st.tuples(coordinates, coordinates, coordinates).map(lambda v: 2.0 * np.array(v))


def pauli(v):
    return v[0] * dyn.SIGMA_X + v[1] * dyn.SIGMA_Y + v[2] * dyn.SIGMA_Z


@st.composite
def state_and_derivative(draw, radii=radii):
    """(rho, drho); a pure state gets a tangent derivative, the only kind a
    family of pure states has."""
    n, radius, dr = draw(directions), draw(radii), draw(derivatives)
    if radius == 1.0:
        dr = dr - (dr @ n) * n
    return dyn.density_from_bloch(radius * n), 0.5 * pauli(dr)


@st.composite
def two_outcome_povms(draw):
    n = draw(directions)
    bias = draw(st.floats(0.05, 0.95))
    e0 = bias * 0.5 * (dyn.IDENTITY + pauli(n))
    return fisher.Povm((e0, dyn.IDENTITY - e0))


@SETTINGS
@given(state_and_derivative())
def test_sld_solves_the_defining_equation(pair):
    rho, drho = pair
    l_op = fisher.sld(rho, drho)
    residual = 2.0 * drho - rho @ l_op - l_op @ rho
    assert np.abs(residual).max() <= 1e-13 * (1.0 + np.abs(l_op).max())


@SETTINGS
@given(state_and_derivative())
def test_qfi_is_the_sld_second_moment(pair):
    rho, drho = pair
    l_op = fisher.sld(rho, drho)
    second_moment = np.trace(rho @ l_op @ l_op).real
    assert fisher.qfi(rho, drho) == pytest.approx(
        second_moment, rel=1e-12, abs=1e-13 * (1.0 + np.abs(l_op).max() ** 2)
    )


@SETTINGS
@given(state_and_derivative(mixed_radii), two_outcome_povms())
def test_cfi_never_exceeds_qfi(pair, povm):
    rho, drho = pair
    assert fisher.cfi(rho, drho, povm) <= fisher.qfi(rho, drho) * (1.0 + 1e-12) + 1e-12


@SETTINGS
@given(state_and_derivative(), directions, st.floats(0.0, 2.0 * np.pi))
def test_qfi_invariant_under_unitary_rotation(pair, axis, angle):
    rho, drho = pair
    unitary = np.cos(angle / 2) * dyn.IDENTITY - 1j * np.sin(angle / 2) * pauli(axis)
    rotated = (unitary @ m @ unitary.conj().T for m in (rho, drho))
    assert fisher.qfi(*rotated) == pytest.approx(fisher.qfi(rho, drho), rel=1e-10, abs=1e-12)
