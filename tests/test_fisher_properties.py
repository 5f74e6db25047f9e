"""Property tests of the Fisher-information closed forms over generated
states, derivatives and two-outcome POVMs."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qgrape import dynamics as dyn  # noqa: E402
from qgrape import fisher  # noqa: E402
from qgrape.errors import QGrapeError  # noqa: E402
from reference_fisher import information_before_cut, pauli_sld, povm_along  # noqa: E402

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
    l_op = pauli_sld(rho, drho)
    residual = 2.0 * drho - rho @ l_op - l_op @ rho
    assert np.abs(residual).max() <= 1e-13 * (1.0 + np.abs(l_op).max())


@SETTINGS
@given(state_and_derivative())
def test_qfi_is_the_sld_second_moment(pair):
    rho, drho = pair
    l_op = pauli_sld(rho, drho)
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


# --- the stacked kernel against one-row calls -------------------------------


@st.composite
def information_rows(draw, axis):
    """Pauli coordinates ``(c, d)`` of a state and its derivative: a mixed
    state, a pure one with a tangent derivative, or the pure state along the
    measured ``axis``, whose ``-axis`` outcome has zero probability and,
    for a tangent derivative, zero derivative."""
    kind = draw(st.sampled_from(["mixed", "pure", "measured axis"]))
    n = axis if kind == "measured axis" else draw(directions)
    radius = draw(mixed_radii) if kind == "mixed" else 1.0
    dr = draw(derivatives)
    if kind != "mixed":
        dr = dr - (dr @ n) * n
    return np.concatenate([[1.0], radius * n]), np.concatenate([[0.0], dr])


def _corrupt(c, d, axis, defect):
    """A row that fails one check of the kernel."""
    c, d = c.copy(), d.copy()
    if defect == "trace":
        c[0] += 1e-9
    elif defect == "positivity":
        c[1:] = 1.001 * axis
    elif defect == "non-finite derivative":
        d[2] = np.nan
    elif defect == "infinite derivative":
        d[3] = -np.inf
    elif defect == "non-traceless derivative":
        d[0] = 1e-6
    else:  # the -axis outcome: zero probability, nonzero derivative
        c[1:], d[1:] = axis, -0.5 * axis
    return c, d


DEFECTS = [
    "trace",
    "positivity",
    "non-finite derivative",
    "infinite derivative",
    "non-traceless derivative",
    "singular outcome",
]


@st.composite
def information_stacks(draw, max_rows=6):
    axis = draw(directions)
    rows = draw(st.lists(information_rows(axis), min_size=1, max_size=max_rows))
    defects = draw(st.lists(st.tuples(st.sampled_from(DEFECTS), st.integers(0, 6)), max_size=2))
    for defect, at in defects:
        rows.insert(min(at, len(rows)), _corrupt(*rows[min(at, len(rows) - 1)], axis, defect))
    c, d = (np.array(col) for col in zip(*rows))
    return axis, c, d


def _one_row_at_a_time(c, d, povm):
    """The kernel called on each row alone: the results, or the first error."""
    results = []
    for i in range(len(c)):
        try:
            results.append(fisher._information(c[i : i + 1], d[i : i + 1], povm))
        except QGrapeError as exc:
            return exc
    return [np.concatenate(part) for part in zip(*results)]


def _off_alignment(a):
    """A copy of ``a`` that starts 8 bytes past a 16-byte boundary."""
    buf = np.zeros(a.nbytes + 24, dtype=np.uint8)
    offset = -buf.ctypes.data % 16 + 8
    copy = np.frombuffer(buf, dtype=a.dtype, count=a.size, offset=offset).reshape(a.shape)
    copy[...] = a
    return copy


@SETTINGS
@given(information_stacks(), st.booleans())
def test_stacked_information_matches_one_row_calls(stack, measured):
    axis, c, d = stack
    povm = povm_along(axis) if measured else None
    expected = _one_row_at_a_time(c, d, povm)
    # the stack as drawn, and the same stack at another alignment: a row's
    # bits depend on neither its neighbours nor its address
    for c, d in ((c, d), (_off_alignment(c), _off_alignment(d))):
        if isinstance(expected, Exception):
            with pytest.raises(type(expected)) as excinfo:
                fisher._information(c, d, povm)
            assert str(excinfo.value) == str(expected)
            continue
        for got, want in zip(fisher._information(c, d, povm), expected):
            np.testing.assert_array_equal(got, want)


@SETTINGS
@given(information_stacks(max_rows=50), st.booleans())
def test_information_equals_the_kernel_before_the_cut(stack, measured):
    # bitwise the arithmetic of the frozen kernel, and the same first error,
    # on stacks of mixed rows, pure rows and rows with a vanishing outcome
    axis, c, d = stack
    povm = povm_along(axis) if measured else None
    try:
        expected = information_before_cut(c, d, povm)
    except QGrapeError as exc:
        with pytest.raises(type(exc)) as excinfo:
            fisher._information(c, d, povm)
        assert str(excinfo.value) == str(exc)
        return
    got = fisher._information(c, d, povm)
    assert [x.tobytes() for x in got] == [x.tobytes() for x in expected]
