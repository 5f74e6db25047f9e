import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import reference_fisher as ref
from qgrape import dynamics as dyn
from qgrape import fisher, oracles
from qgrape.errors import SingularOutcomeError, ValidationError
from reference_dynamics import constant_grid

NAN_DERIVATIVE = np.array([[np.nan, 0.0], [0.0, np.nan]])


def random_density(rng, min_purity_gap=0.05):
    # keep states away from the boundary so SLD solves are well-conditioned
    r = rng.normal(size=3)
    r *= rng.uniform(0.1, 1.0 - min_purity_gap) / np.linalg.norm(r)
    return dyn.density_from_bloch(r)


def random_traceless_hermitian(rng, scale=0.5):
    v = rng.normal(size=3) * scale
    return 0.5 * (v[0] * dyn.SIGMA_X + v[1] * dyn.SIGMA_Y + v[2] * dyn.SIGMA_Z)


def random_two_outcome_povm(rng):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    bias = rng.uniform(0.2, 0.8)
    op = axis[0] * dyn.SIGMA_X + axis[1] * dyn.SIGMA_Y + axis[2] * dyn.SIGMA_Z
    e0 = bias * 0.5 * (np.eye(2) + op)
    e1 = np.eye(2) - e0
    return fisher.Povm((e0, e1))


def lyapunov_sld(rho, drho):
    # independent route: solve (I (x) rho + rho^T (x) I) vec(L) = 2 vec(drho)
    coeff = np.kron(np.eye(2), rho) + np.kron(rho.T, np.eye(2))
    sol = np.linalg.solve(coeff, 2.0 * drho.reshape(4, order="F"))
    return sol.reshape((2, 2), order="F")


def random_unit(rng):
    n = rng.normal(size=3)
    return n / np.linalg.norm(n)


def derivative_from_bloch(dr):
    return 0.5 * (dr[0] * dyn.SIGMA_X + dr[1] * dyn.SIGMA_Y + dr[2] * dyn.SIGMA_Z)


def unit_trace_pair(rng, gap):
    # rho[1, 1] = 1 - rho[0, 0] is exact for rho[0, 0] in [1/2, 1], so the
    # float inputs are exactly a unit-trace state and a traceless derivative
    r = random_unit(rng) * (1.0 - gap)
    r[2] = abs(r[2])
    p, c = 0.5 + 0.5 * r[2], complex(0.5 * r[0], 0.5 * r[1])
    rho = np.array([[p, c.conjugate()], [c, 1.0 - p]])
    dr = rng.normal(size=3)
    d, e = 0.5 * dr[2], complex(0.5 * dr[0], 0.5 * dr[1])
    return rho, np.array([[d, e.conjugate()], [e, -d]])


def exact_qfi(rho, drho):
    """|dr|^2 + (r . dr)^2 / (1 - |r|^2) in rationals, from the exact Bloch
    coordinates of the float matrices."""
    def bloch(m):
        return [
            2 * Fraction(m[1, 0].real),
            2 * Fraction(m[1, 0].imag),
            Fraction(m[0, 0].real) - Fraction(m[1, 1].real),
        ]

    assert Fraction(rho[0, 0].real) + Fraction(rho[1, 1].real) == 1
    assert drho[0, 0] + drho[1, 1] == 0
    r, dr = bloch(rho), bloch(drho)
    radial = sum(x * y for x, y in zip(r, dr))
    return sum(x * x for x in dr) + radial * radial / (1 - sum(x * x for x in r))


class TestSld:
    def test_diagonal_case(self):
        p, q = 0.7, 0.2
        rho = np.diag([p, 1 - p]).astype(complex)
        drho = np.diag([q, -q]).astype(complex)
        l_op = ref.pauli_sld(rho, drho)
        np.testing.assert_allclose(l_op, np.diag([q / p, -q / (1 - p)]), atol=1e-12)

    def test_pure_unitary_family(self):
        t = 1.7
        rho = dyn.plus_state()
        drho = t * 0.5 * (-1j) * (dyn.SIGMA_Z @ rho - rho @ dyn.SIGMA_Z)
        assert fisher.qfi(rho, drho) == pytest.approx(t * t, rel=1e-12)

    def test_residual_against_lyapunov_solve(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            rho = random_density(rng)
            drho = random_traceless_hermitian(rng)
            l_op = ref.pauli_sld(rho, drho)
            np.testing.assert_allclose(l_op, lyapunov_sld(rho, drho), atol=1e-9)
            residual = 2 * drho - rho @ l_op - l_op @ rho
            assert np.abs(residual).max() < 1e-10

    def test_matches_eigendecomposition_reference_on_mixed_states(self):
        # the reference's own error grows like 1e-16/(1 - |r|)
        rng = np.random.default_rng(43)
        for gap in (0.5, 1e-2, 1e-4, 1e-6, 1e-8):
            tol = 1e-14 / gap
            for _ in range(20):
                rho = dyn.density_from_bloch(random_unit(rng) * (1.0 - gap))
                drho = random_traceless_hermitian(rng)
                l_ref = ref.sld(rho, drho)
                l_op = ref.pauli_sld(rho, drho)
                assert np.abs(l_op - l_ref).max() <= tol * np.abs(l_ref).max()
                assert fisher.qfi(rho, drho) == pytest.approx(ref.qfi(rho, drho), rel=tol)

    def test_pure_states_match_reference_for_any_derivative(self):
        # tangent and non-tangent derivatives alike get the support-restricted
        # SLD, with no exception; |r| = 1 +- 1e-16, 1 - 5e-13 and 1 + 1e-11
        # all fall under the purity rule
        rng = np.random.default_rng(47)
        units = [np.eye(3)[i] * sign for i in range(3) for sign in (1.0, -1.0)]
        units += [random_unit(rng) for _ in range(10)]
        for n in units:
            for scale in (1.0, 1.0 - 5e-13, 1.0 + 1e-11):
                rho = dyn.density_from_bloch(n * scale)
                dr = rng.normal(size=3)
                for drho in (derivative_from_bloch(dr - (dr @ n) * n), derivative_from_bloch(dr)):
                    np.testing.assert_allclose(
                        ref.pauli_sld(rho, drho), ref.sld(rho, drho), rtol=1e-12, atol=1e-12
                    )
                    assert fisher.qfi(rho, drho) == pytest.approx(
                        ref.qfi(rho, drho), rel=1e-12, abs=1e-12
                    )

    def test_requires_traceless_hermitian_derivative(self):
        rho = dyn.plus_state()
        with pytest.raises(ValidationError):
            ref.pauli_sld(rho, np.eye(2))
        with pytest.raises(ValidationError):
            ref.pauli_sld(rho, np.array([[0.0, 1.0], [0.0, 0.0]]))

    # inf - inf in the Hermiticity test warns before the rejection
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_derivative_rejected(self, entry):
        drho = np.array([[0.0, entry], [entry, 0.0]])
        for evaluate in (ref.pauli_sld, fisher.qfi):
            with pytest.raises(ValidationError):
                evaluate(dyn.plus_state(), drho)
            with pytest.raises(ValidationError):
                evaluate(dyn.plus_state(), NAN_DERIVATIVE)


class TestQfi:
    def test_zero_derivative(self):
        assert fisher.qfi(dyn.plus_state(), np.zeros((2, 2))) == 0.0

    def test_parallel_free_value(self):
        gamma, t = 0.1, 10.0
        noise = dyn.Dephasing(theta=0.0, phi=0.0, gamma=gamma)
        prob = dyn.frequency_estimation_problem(1.0, noise, dyn.plus_state(), t)
        traj = dyn.propagate(prob, dyn.ControlGrid.zeros(int(t / 1e-3), 3, 1e-3))
        value = fisher.qfi(traj.final_state, traj.final_state_derivative)
        assert value == pytest.approx(oracles.parallel_free_qfi(gamma, t), rel=1e-6)
        assert value == pytest.approx(100.0 * math.exp(-2.0), rel=1e-6)

    def test_transverse_held_value_near_cancellation(self):
        # At the exact cancellation the final state is pure and the
        # information sits on the lower (support-restricted) branch; an
        # infinitesimally detuned control probes the closed-form limit.
        gamma, t = 0.1, 5.0
        noise = dyn.Dephasing(theta=math.pi / 2, phi=0.0, gamma=gamma)
        prob = dyn.frequency_estimation_problem(1.0, noise, dyn.plus_state(), t)
        m = int(t / 1e-3)
        detuned = constant_grid([0.0, 0.0, -0.5 * (1 + 1e-4)], m, 1e-3)
        traj = dyn.propagate(prob, detuned)
        value = fisher.qfi(traj.final_state, traj.final_state_derivative)
        target = oracles.transverse_controlled_qfi(gamma, t)
        assert target == pytest.approx(21.3061, abs=1e-4)
        assert value == pytest.approx(target, rel=1e-4)

        exact = constant_grid([0.0, 0.0, -0.5], m, 1e-3)
        traj0 = dyn.propagate(prob, exact)
        at_point = fisher.qfi(traj0.final_state, traj0.final_state_derivative)
        lower_branch = ((1 - math.exp(-gamma * t)) / gamma) ** 2
        assert at_point == pytest.approx(lower_branch, rel=1e-3)

    def test_invariant_under_basis_rotation(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            rho = random_density(rng)
            drho = random_traceless_hermitian(rng)
            h = rng.normal(size=3)
            op = h[0] * dyn.SIGMA_X + h[1] * dyn.SIGMA_Y + h[2] * dyn.SIGMA_Z
            eigvals, eigvecs = np.linalg.eigh(op)
            unitary = eigvecs @ np.diag(np.exp(1j * eigvals)) @ eigvecs.conj().T
            f0 = fisher.qfi(rho, drho)
            f1 = fisher.qfi(unitary @ rho @ unitary.conj().T, unitary @ drho @ unitary.conj().T)
            assert f1 == pytest.approx(f0, abs=1e-10, rel=1e-10)


    def test_accuracy_against_exact_rational_evaluation(self):
        # the closed form's error is set by rounding in 1 - |r|^2, about
        # 1e-16/(1 - |r|) at worst; the eigendecomposition reaches ten times that
        rng = np.random.default_rng(53)
        for gap in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10):
            for _ in range(60):
                rho, drho = unit_trace_pair(rng, gap)
                exact = exact_qfi(rho, drho)
                error = abs(Fraction(fisher.qfi(rho, drho)) - exact) / exact
                assert error <= 2.5e-16 / gap


class TestQfiBloch:
    def test_parallel_spiral_formula(self):
        gamma, omega, t = 0.1, 1.0, 7.0
        env = math.exp(-gamma * t)
        r = np.array([env * math.cos(omega * t), -env * math.sin(omega * t), 0.0])
        dr = np.array([-t * env * math.sin(omega * t), -t * env * math.cos(omega * t), 0.0])
        assert ref.qfi_bloch(r, dr) == pytest.approx(t * t * env * env, rel=1e-12)

    def test_zero_derivative(self):
        assert ref.qfi_bloch([0.3, 0.1, -0.2], [0, 0, 0]) == 0.0

    def test_agrees_with_density_route(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            r = rng.normal(size=3)
            r *= rng.uniform(0.1, 0.9) / np.linalg.norm(r)
            dr = rng.normal(size=3)
            value = ref.qfi_bloch(r, dr)
            rho = dyn.density_from_bloch(r)
            drho = 0.5 * (dr[0] * dyn.SIGMA_X + dr[1] * dyn.SIGMA_Y + dr[2] * dyn.SIGMA_Z)
            assert value == pytest.approx(fisher.qfi(rho, drho), abs=1e-10, rel=1e-10)

    def test_pure_state_limit(self):
        r = np.array([1.0, 0.0, 0.0])
        dr = np.array([0.0, 2.0, 0.0])
        assert ref.qfi_bloch(r, dr) == pytest.approx(4.0)

    def test_norm_violation_rejected(self):
        with pytest.raises(ValidationError):
            ref.qfi_bloch([1.1, 0.0, 0.0], [0.0, 0.0, 0.0])

    def test_non_finite_rejected(self):
        for r, dr in (([np.nan, 0.0, 0.0], [0.0, 1.0, 0.0]), ([0.5, 0.0, 0.0], [0.0, np.inf, 0.0])):
            with pytest.raises(ValidationError):
                ref.qfi_bloch(r, dr)


class TestPovm:
    def test_plus_minus_is_valid(self):
        povm = fisher.Povm.plus_minus()
        assert len(povm.effects) == 2

    def test_incomplete_rejected(self):
        with pytest.raises(ValidationError):
            fisher.Povm((0.5 * np.eye(2),))

    def test_negative_effect_rejected(self):
        with pytest.raises(ValidationError):
            fisher.Povm((1.5 * np.eye(2), -0.5 * np.eye(2)))

    def test_non_finite_effect_rejected(self):
        bad = np.full((2, 2), np.nan)
        with pytest.raises(ValidationError):
            fisher.Povm((bad, np.eye(2) - bad))

    def test_effect_positivity_bound(self):
        # E0 = (I + a sigma_z)/2 has the smaller eigenvalue (1 - a)/2: at
        # -0.95e-10 it is accepted, at -1.05e-10 rejected, beyond the 1e-10 slack
        def effects(a):
            e0 = 0.5 * (np.eye(2) + a * dyn.SIGMA_Z)
            return (e0, np.eye(2) - e0)

        assert len(fisher.Povm(effects(1.0 + 1.9e-10)).effects) == 2
        with pytest.raises(ValidationError, match="effect 0 is not positive semidefinite"):
            fisher.Povm(effects(1.0 + 2.1e-10))


class TestCfi:
    def test_trivial_povm_gives_zero(self):
        rng = np.random.default_rng(31)
        povm = fisher.Povm((np.eye(2, dtype=complex),))
        assert fisher.cfi(random_density(rng), random_traceless_hermitian(rng), povm) == 0.0

    def test_transverse_plus_minus_measurement_saturates(self):
        gamma, t, dt = 0.1, 5.0, 5e-4
        noise = dyn.Dephasing(theta=math.pi / 2, phi=0.0, gamma=gamma)
        prob = dyn.frequency_estimation_problem(1.0, noise, dyn.plus_state(), t)
        m = int(round(t / dt))
        detuned = constant_grid([0.0, 0.0, -0.5 * (1 + 1e-4)], m, dt)
        traj = dyn.propagate(prob, detuned)
        drho = traj.final_state_derivative
        q = fisher.qfi(traj.final_state, drho)
        c = fisher.cfi(traj.final_state, drho, fisher.Povm.plus_minus())
        assert c == pytest.approx(q, rel=1e-8)

    def test_never_exceeds_qfi(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            rho = random_density(rng)
            drho = random_traceless_hermitian(rng)
            povm = random_two_outcome_povm(rng)
            assert fisher.cfi(rho, drho, povm) <= fisher.qfi(rho, drho) + 1e-9

    def test_zero_probability_vanishing_derivative_contributes_nothing(self):
        rho = dyn.plus_state()
        drho = np.zeros((2, 2))
        assert fisher.cfi(rho, drho, fisher.Povm.plus_minus()) == 0.0

    def test_non_finite_derivative_is_a_validation_error(self):
        with pytest.raises(ValidationError):
            fisher.cfi(dyn.plus_state(), NAN_DERIVATIVE, fisher.Povm.plus_minus())

    def test_singular_outcome_raises(self):
        rho = dyn.plus_state()  # p_- = 0 exactly
        drho = 0.15 * dyn.SIGMA_X  # dp_- = -0.15 != 0
        with pytest.raises(SingularOutcomeError):
            fisher.cfi(rho, drho, fisher.Povm.plus_minus())


def _row_error(c, d):
    """The error that the per-row checks give a state and its derivative in
    Pauli coordinates, or None."""
    try:
        dyn._check_state(c)
    except ValidationError as exc:
        return str(exc)
    if not np.isfinite(d).all():
        return "state derivative must be finite"
    if not abs(d[0]) <= fisher.DERIVATIVE_TOL:
        return "state derivative must be traceless"
    return None


class TestStackedValidity:
    def test_mask_follows_the_row_checks_at_their_edges(self):
        # each threshold exactly and one ulp to either side: the stacked
        # kernel rejects the rows that the per-row checks reject, first one
        # first, with the same message
        def ulps(x):
            return (np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf))

        ok_c, ok_d = np.array([1.0, 0.3, 0.0, 0.0]), np.array([0.0, 0.0, 0.1, 0.0])
        rows = []
        for tol in (-dyn.TRACE_TOL, dyn.TRACE_TOL):
            rows += [(np.array([t, 0.3, 0.0, 0.0]), ok_d) for t in ulps(1.0 + tol)]
        # (c0 - |r|)/2 at -POSITIVITY_SLACK
        edge = 1.0 + 2.0 * dyn.POSITIVITY_SLACK
        rows += [(np.array([1.0, 0.0, r, 0.0]), ok_d) for r in ulps(edge)]
        rows += [(np.array([1.0, -0.6 * r, 0.0, 0.8 * r]), ok_d) for r in ulps(edge)]
        for tol in (-fisher.DERIVATIVE_TOL, fisher.DERIVATIVE_TOL):
            rows += [(ok_c, np.array([t, 0.0, 0.1, 0.0])) for t in ulps(tol)]
        for bad in (math.nan, math.inf, -math.inf):
            for i in range(4):
                rows += [(ok_c, np.where(np.arange(4) == i, bad, ok_d))]
                rows += [(np.where(np.arange(4) == i, bad, ok_c), ok_d)]
        rows += [(np.full(4, math.nan), np.full(4, math.inf))]
        expected = [_row_error(c, d) for c, d in rows]
        assert None in expected and len(set(expected)) > 3
        for i, (c, d) in enumerate(rows):
            for stack_c, stack_d, want in (
                (c[None], d[None], expected[i]),
                # behind a good row and ahead of every later row
                (np.array([ok_c, c, *[r[0] for r in rows[i + 1:]]]),
                 np.array([ok_d, d, *[r[1] for r in rows[i + 1:]]]),
                 expected[i] or next(filter(None, expected[i + 1:]), None)),
            ):
                if want is None:
                    fisher._information(stack_c, stack_d, None)
                    continue
                with pytest.raises(ValidationError) as excinfo:
                    fisher._information(stack_c, stack_d, None)
                assert str(excinfo.value) == want, i


class TestTerminalDerivative:
    def test_zero_horizon(self):
        prob = dyn.frequency_estimation_problem(1.0, None, dyn.plus_state(), 0.0)
        traj = dyn.propagate(prob, dyn.ControlGrid(np.zeros((0, 3)), 0.5))
        np.testing.assert_allclose(traj.final_state_derivative, 0.0)

    def test_unitary_growth_gives_t_squared(self):
        t = 2.0
        prob = dyn.frequency_estimation_problem(1.0, None, dyn.plus_state(), t)
        traj = dyn.propagate(prob, dyn.ControlGrid.zeros(int(t / 1e-3), 3, 1e-3))
        value = fisher.qfi(traj.final_state, traj.final_state_derivative)
        assert value == pytest.approx(t * t, abs=1e-6)

    def test_matches_finite_difference_on_random_noisy_instance(self):
        rng = np.random.default_rng(41)
        noise = dyn.SpontaneousEmission(0.02, 0.1)
        m, dt = 400, 5e-4
        prob = dyn.frequency_estimation_problem(1.0, noise, dyn.plus_state(), m * dt)
        grid = dyn.ControlGrid(rng.uniform(-0.2, 0.2, size=(m, 3)), dt)
        traj = dyn.propagate(prob, grid)
        delta = 1e-5
        fd = (
            dyn.propagate(replace(prob, x=1.0 + delta), grid).final_state
            - dyn.propagate(replace(prob, x=1.0 - delta), grid).final_state
        ) / (2 * delta)
        assert np.abs(fd - traj.final_state_derivative).max() < 1e-6
