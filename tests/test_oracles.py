import math

import numpy as np
import pytest

from qgrape import dynamics as dyn
from qgrape import fisher, oracles
from qgrape.errors import UndefinedRotationError, ValidationError

from reference_dynamics import bloch_from_density, constant_grid
from reference_fisher import qfi_bloch
from reference_oracles import spontaneous_free_bloch, transverse_bloch


class TestTransverseControlledQfi:
    def test_reference_value(self):
        assert oracles.transverse_controlled_qfi(0.1, 5.0) == pytest.approx(
            2.0 / 0.01 * (math.exp(-0.5) + 0.5 - 1.0)
        )
        assert oracles.transverse_controlled_qfi(0.1, 5.0) == pytest.approx(21.3061, abs=1e-4)

    def test_zero_horizon(self):
        assert oracles.transverse_controlled_qfi(0.1, 0.0) == 0.0

    def test_small_rate_limit_is_t_squared(self):
        t = 3.0
        for gamma in (1e-6, 1e-9, 0.0):
            assert oracles.transverse_controlled_qfi(gamma, t) == pytest.approx(t * t, rel=1e-5)

    def test_series_crossover_is_smooth(self):
        t = 2.0
        below = oracles.transverse_controlled_qfi(0.99 * 1e-4 / t, t)
        above = oracles.transverse_controlled_qfi(1.01 * 1e-4 / t, t)
        assert below == pytest.approx(above, rel=1e-6)

    def test_strictly_increasing_in_horizon(self):
        values = [oracles.transverse_controlled_qfi(0.1, t) for t in np.arange(1.0, 31.0)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestTransverseBloch:
    def test_stationary_at_zero_frequency(self):
        for t in (0.0, 1.0, 10.0):
            np.testing.assert_allclose(
                transverse_bloch(0.1, 0.0, t), [1.0, 0.0, 0.0], atol=1e-14
            )

    def test_second_order_frequency_expansion(self):
        # 1 - r1 grows as the controlled-information kernel times delta^2
        gamma, t = 0.1, 4.0
        delta = 1e-4
        r1 = transverse_bloch(gamma, delta, t)[0]
        kernel = (math.exp(-gamma * t) + gamma * t - 1.0) / gamma**2
        assert (1.0 - r1) == pytest.approx(kernel * delta * delta, rel=1e-4)

    def test_branch_continuity_at_critical_damping(self):
        omega = 0.3
        t = 2.0
        gamma_c = 2.0 * omega
        left = transverse_bloch(gamma_c * (1 - 1e-9), omega, t)
        right = transverse_bloch(gamma_c * (1 + 1e-9), omega, t)
        np.testing.assert_allclose(left, right, atol=1e-8)

    def test_oscillatory_branch_against_ode_quadrature(self):
        # integrate dr1 = w r2, dr2 = -g r2 - w r1 with RK4 as an
        # independent oracle for the underdamped branch
        gamma, omega, t_end = 0.1, 1.0, 3.0

        def rhs(r):
            return np.array([omega * r[1], -gamma * r[1] - omega * r[0]])

        n = 30000
        h = t_end / n
        r = np.array([1.0, 0.0])
        for _ in range(n):
            k1 = rhs(r)
            k2 = rhs(r + 0.5 * h * k1)
            k3 = rhs(r + 0.5 * h * k2)
            k4 = rhs(r + h * k3)
            r = r + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        closed = transverse_bloch(gamma, omega, t_end)
        np.testing.assert_allclose(closed[:2], r, atol=1e-10)

    def test_matches_propagation_in_counter_rotated_frame(self):
        gamma, omega = 0.25, 0.7
        noise = dyn.Dephasing(theta=math.pi / 2, phi=0.0, gamma=gamma)
        for t in (1.0, 4.0):
            m = int(round(t / 1e-3))
            prob = dyn.frequency_estimation_problem(omega, noise, dyn.plus_state(), t)
            grid = constant_grid([0.0, 0.0, -omega], m, 1e-3)
            traj = dyn.propagate(prob, grid)
            np.testing.assert_allclose(
                bloch_from_density(traj.final_state),
                transverse_bloch(gamma, omega, t),
                atol=1e-6,
            )


class TestParallelFreeQfi:
    def test_reference_value(self):
        assert oracles.parallel_free_qfi(0.1, 10.0) == pytest.approx(100.0 * math.exp(-2.0))

    def test_zero_time(self):
        assert oracles.parallel_free_qfi(0.1, 0.0) == 0.0

    def test_peak_at_inverse_rate(self):
        gamma = 0.1
        grid = np.linspace(0.1, 40.0, 400)
        values = [oracles.parallel_free_qfi(gamma, t) for t in grid]
        assert grid[int(np.argmax(values))] == pytest.approx(1.0 / gamma, abs=grid[1] - grid[0])

    def test_matches_numeric_pipeline(self):
        gamma, t = 0.1, 6.0
        noise = dyn.Dephasing(theta=0.0, phi=0.0, gamma=gamma)
        prob = dyn.frequency_estimation_problem(1.0, noise, dyn.plus_state(), t)
        traj = dyn.propagate(prob, dyn.ControlGrid.zeros(int(t / 1e-3), 3, 1e-3))
        value = fisher.qfi(traj.final_state, traj.final_state_derivative)
        assert value == pytest.approx(oracles.parallel_free_qfi(gamma, t), rel=1e-4)


class TestParallelSinglePulse:
    def test_pulse_at_zero_parks_the_state_at_the_pole(self):
        assert oracles.parallel_single_pulse_qfi(0.1, 1.0, 10.0, 0.0) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_pulse_at_horizon_recovers_free_value(self):
        assert oracles.parallel_single_pulse_qfi(0.1, 1.0, 15.0, 15.0) == pytest.approx(
            oracles.parallel_free_qfi(0.1, 15.0), rel=1e-12
        )

    def test_long_horizon_pulse_beats_free_evolution(self):
        horizon = 15.0
        free = oracles.parallel_free_qfi(0.1, horizon)
        t0 = np.linspace(0.0, horizon, 600)
        assert oracles.parallel_single_pulse_qfi(0.1, 1.0, horizon, t0).max() > free

    def test_short_horizon_pulse_never_beats_free_evolution(self):
        horizon = 5.0
        free = oracles.parallel_free_qfi(0.1, horizon)
        t0 = np.linspace(0.0, horizon, 600)
        assert oracles.parallel_single_pulse_qfi(0.1, 1.0, horizon, t0).max() <= free + 1e-12

    def test_multiple_interior_peaks_for_long_horizon(self):
        horizon = 15.0
        t0 = np.linspace(0.0, horizon, 1500)
        values = oracles.parallel_single_pulse_qfi(0.1, 1.0, horizon, t0)
        interior = (values[1:-1] > values[:-2]) & (values[1:-1] > values[2:])
        assert interior.sum() >= 2

    def test_continuity_in_pulse_time(self):
        horizon = 15.0
        t0 = np.linspace(0.0, horizon, 3000)
        values = oracles.parallel_single_pulse_qfi(0.1, 1.0, horizon, t0)
        assert np.abs(np.diff(values)).max() < 0.2  # no jumps on a fine grid

    def test_matches_numeric_pulse_pipeline(self):
        # propagate freely, apply the pi/2 y-rotation as an instantaneous
        # unitary, propagate again, differentiate by finite differences
        gamma, w, t0, horizon = 0.1, 1.0, 4.0, 11.0
        noise = dyn.Dephasing(theta=0.0, phi=0.0, gamma=gamma)
        rot = np.array([[0.0, 0.0, -1.0], [0.0, -1.0, 0.0], [1.0, 0.0, 0.0]])

        def final_bloch(x):
            prob = dyn.frequency_estimation_problem(x, noise, dyn.plus_state(), t0)
            traj = dyn.propagate(prob, dyn.ControlGrid.zeros(int(t0 / 1e-3), 3, 1e-3))
            r_mid = rot @ bloch_from_density(traj.final_state)
            prob2 = dyn.frequency_estimation_problem(
                x, noise, dyn.density_from_bloch(r_mid), horizon - t0
            )
            traj2 = dyn.propagate(
                prob2, dyn.ControlGrid.zeros(int((horizon - t0) / 1e-3), 3, 1e-3)
            )
            return bloch_from_density(traj2.final_state)

        delta = 1e-5
        r = final_bloch(1.0)
        dr = (final_bloch(1.0 + delta) - final_bloch(1.0 - delta)) / (2 * delta)
        numeric = qfi_bloch(r, dr)
        value = oracles.parallel_single_pulse_qfi(gamma, 1.0, horizon, t0)
        assert value == pytest.approx(numeric, abs=1e-4)

    def test_pulse_time_outside_horizon_rejected(self):
        with pytest.raises(ValidationError):
            oracles.parallel_single_pulse_qfi(0.1, 1.0, 5.0, 6.0)

    def test_noiseless_long_horizon_roundoff_is_no_error(self):
        # with gamma = 0 the final state is pure and r . dr vanishes only to
        # roundoff, about 1e-8 at T = 1e9; the oracle's rows go to the Fisher
        # kernel as they are, with no tangency check of their own
        horizon, t0 = 1e9, 5012531.328320802
        value = oracles.parallel_single_pulse_qfi(0.0, 1.0, horizon, t0)
        assert math.isfinite(value) and value == pytest.approx(5.77403e17, rel=1e-5)
        values = oracles.parallel_single_pulse_qfi(0.0, 1.0, horizon, np.linspace(0, horizon, 400))
        assert values.shape == (400,) and np.isfinite(values).all()


class TestSinglePulseTimes:
    ORACLES = {
        "parallel": oracles.parallel_single_pulse_qfi,
        "emission": oracles.spontaneous_single_pulse_qfi,
    }

    @pytest.mark.parametrize("name", sorted(ORACLES))
    @pytest.mark.parametrize("bad", [4.25, -0.5, math.nan])
    def test_array_entry_outside_horizon_is_named(self, name, bad):
        t0 = np.array([0.5, 1.0, bad, 2.0])
        with pytest.raises(ValidationError, match=f"t0 = {bad} must lie in"):
            self.ORACLES[name](0.1, 1.0, 4.0, t0)

    @pytest.mark.parametrize("name", sorted(ORACLES))
    def test_float_gives_float_and_array_gives_its_shape(self, name):
        closed_form = self.ORACLES[name]
        t0 = np.array([[0.5, 1.0, 1.5], [2.0, 2.5, 3.0]])
        values = closed_form(0.1, 1.0, 4.0, t0)
        assert isinstance(values, np.ndarray) and values.shape == t0.shape
        for index in np.ndindex(t0.shape):
            value = closed_form(0.1, 1.0, 4.0, float(t0[index]))
            assert type(value) is float
            assert abs(values[index] - value) <= 4 * np.spacing(value)


class TestSpontaneousFree:
    def test_symmetric_rates_have_no_longitudinal_offset(self):
        r = spontaneous_free_bloch(0.2, 0.2, 1.0, 50.0, [1.0, 0.0, 0.0])
        assert r[2] == pytest.approx(0.0, abs=1e-12)

    def test_pure_decay_relaxation_curve(self):
        gamma = 0.3
        for t in (0.5, 2.0, 10.0):
            r = spontaneous_free_bloch(0.0, gamma, 1.0, t, [1.0, 0.0, 0.0])
            assert r[2] == pytest.approx(-1.0 + math.exp(-gamma * t), abs=1e-12)

    def test_zero_rates_pure_rotation(self):
        r = spontaneous_free_bloch(0.0, 0.0, 1.0, 2.0, [1.0, 0.0, 0.0])
        np.testing.assert_allclose(r, [math.cos(2.0), math.sin(2.0), 0.0], atol=1e-12)

    def test_matches_numeric_propagation(self):
        gamma_plus, gamma_minus, w = 0.04, 0.17, 0.8
        noise = dyn.SpontaneousEmission(gamma_plus, gamma_minus)
        r0 = np.array([0.4, -0.2, 0.5])
        for t in (1.0, 3.0):
            prob = dyn.frequency_estimation_problem(
                w, noise, dyn.density_from_bloch(r0), t
            )
            traj = dyn.propagate(prob, dyn.ControlGrid.zeros(int(t / 1e-3), 3, 1e-3))
            np.testing.assert_allclose(
                bloch_from_density(traj.final_state),
                spontaneous_free_bloch(gamma_plus, gamma_minus, w, t, r0),
                atol=1e-6,
            )

    def test_free_qfi_reference_value(self):
        assert oracles.spontaneous_free_qfi(0.0, 0.1, 20.0) == pytest.approx(
            400.0 * math.exp(-2.0)
        )
        assert oracles.spontaneous_free_qfi(0.0, 0.1, 0.0) == 0.0

    def test_free_qfi_agrees_with_numeric_pipeline(self):
        gamma, t = 0.1, 8.0
        noise = dyn.SpontaneousEmission(0.0, gamma)
        prob = dyn.frequency_estimation_problem(1.0, noise, dyn.plus_state(), t)
        traj = dyn.propagate(prob, dyn.ControlGrid.zeros(int(t / 1e-3), 3, 1e-3))
        value = fisher.qfi(traj.final_state, traj.final_state_derivative)
        assert value == pytest.approx(oracles.spontaneous_free_qfi(0.0, gamma, t), rel=1e-4)

    def test_free_qfi_peak_at_two_over_rate(self):
        gamma = 0.1
        grid = np.linspace(0.5, 60.0, 600)
        values = [oracles.spontaneous_free_qfi(0.0, gamma, t) for t in grid]
        assert grid[int(np.argmax(values))] == pytest.approx(2.0 / gamma, abs=grid[1] - grid[0])


class TestSpontaneousSinglePulse:
    def test_pulse_at_zero_is_identity(self):
        assert oracles.spontaneous_single_pulse_qfi(0.1, 1.0, 16.0, 0.0) == pytest.approx(
            oracles.spontaneous_free_qfi(0.0, 0.1, 16.0), rel=1e-12
        )

    def test_long_horizon_improves_with_pulse(self):
        horizon = 16.0
        free = oracles.spontaneous_free_qfi(0.0, 0.1, horizon)
        t0 = np.linspace(0.0, horizon, 800)
        assert oracles.spontaneous_single_pulse_qfi(0.1, 1.0, horizon, t0).max() > free

    def test_degenerate_rotation_rejected(self):
        # with no decay the pre-pulse state can sit exactly on the y-axis
        with pytest.raises(UndefinedRotationError):
            oracles.spontaneous_single_pulse_qfi(0.0, 1.0, 4.0, math.pi / 2)

    def test_matches_numeric_pipeline_with_frozen_rotation(self):
        # numeric route: free decay to t0, instantaneous rotation built from
        # the reference-frequency state, free decay to T; finite differences
        # in the frequency with the rotation held fixed
        gamma, w_ref, t0, horizon = 0.1, 1.0, 5.0, 13.0
        noise = dyn.SpontaneousEmission(0.0, gamma)
        pre_ref = spontaneous_free_bloch(0.0, gamma, w_ref, t0, [1.0, 0.0, 0.0])
        h = math.hypot(pre_ref[0], pre_ref[2])
        c1, c3 = pre_ref[0] / h, pre_ref[2] / h
        rot = np.array([[c1, 0.0, c3], [0.0, 1.0, 0.0], [-c3, 0.0, c1]])

        def final_bloch(x):
            prob = dyn.frequency_estimation_problem(x, noise, dyn.plus_state(), t0)
            traj = dyn.propagate(prob, dyn.ControlGrid.zeros(int(t0 / 1e-3), 3, 1e-3))
            r_mid = rot @ bloch_from_density(traj.final_state)
            prob2 = dyn.frequency_estimation_problem(
                x, noise, dyn.density_from_bloch(r_mid), horizon - t0
            )
            traj2 = dyn.propagate(
                prob2, dyn.ControlGrid.zeros(int((horizon - t0) / 1e-3), 3, 1e-3)
            )
            return bloch_from_density(traj2.final_state)

        delta = 1e-5
        r = final_bloch(w_ref)
        dr = (final_bloch(w_ref + delta) - final_bloch(w_ref - delta)) / (2 * delta)
        numeric = qfi_bloch(r, dr)
        value = oracles.spontaneous_single_pulse_qfi(gamma, w_ref, horizon, t0)
        assert value == pytest.approx(numeric, abs=1e-4)
