import math
import warnings

import numpy as np
import pytest

from qgrape import dynamics as dyn
from qgrape import fisher, grape, oracles
from qgrape.errors import (
    NumericalStabilityError,
    QGrapeError,
    SingularOutcomeError,
    ValidationError,
)

import reference_gradient as ref


def make_problem(noise, horizon=2.0, omega=1.0, probe=None):
    return dyn.frequency_estimation_problem(
        omega, noise, dyn.plus_state() if probe is None else probe, horizon
    )


def random_schedule(rng, m, dt, p=3, scale=1.0):
    return dyn.ControlGrid(rng.uniform(-scale, scale, size=(m, p)), dt)


NOISE_MODELS = {
    "transverse": dyn.Dephasing(theta=math.pi / 2, phi=0.0, gamma=0.1),
    "parallel": dyn.Dephasing(theta=0.0, phi=0.0, gamma=0.1),
    "emission": dyn.SpontaneousEmission(gamma_plus=0.05, gamma_minus=0.1),
    "noiseless": None,
}


class TestMOperators:
    def test_final_step_has_no_downstream_term(self):
        rng = np.random.default_rng(1)
        prob = make_problem(NOISE_MODELS["emission"])
        grid = random_schedule(rng, 10, 0.2)
        traj = dyn.propagate(prob, grid)
        _, _, m3 = ref.m_operators(traj, prob, j=traj.n_steps, k=0)
        np.testing.assert_allclose(m3, 0.0, atol=1e-15)

    def test_identity_generator_gives_zero_operators(self):
        rng = np.random.default_rng(2)
        prob = dyn.frequency_estimation_problem(
            1.0, NOISE_MODELS["transverse"], dyn.plus_state(), 2.0,
            control_generators=(np.eye(2, dtype=complex),),
        )
        grid = random_schedule(rng, 10, 0.2, p=1)
        traj = dyn.propagate(prob, grid)
        for j in (1, 5, 10):
            for op in ref.m_operators(traj, prob, j, 0):
                np.testing.assert_allclose(op, 0.0, atol=1e-14)

    def test_operators_are_hermitian(self):
        rng = np.random.default_rng(3)
        prob = make_problem(NOISE_MODELS["parallel"], horizon=1.2)
        grid = random_schedule(rng, 12, 0.1)
        traj = dyn.propagate(prob, grid)
        for j in (1, 6, 12):
            for k in range(3):
                for op in ref.m_operators(traj, prob, j, k):
                    assert np.abs(op - op.conj().T).max() < 1e-10

    def test_prefix_sum_identity_matches_double_loop(self):
        # M2 via the cached sensitivity accumulator vs the explicit sum
        rng = np.random.default_rng(4)
        m, dt = 15, 0.1
        prob = make_problem(NOISE_MODELS["emission"], horizon=m * dt)
        grid = random_schedule(rng, m, dt)
        traj = dyn.propagate(prob, grid)
        dh0 = prob.free_hamiltonian_derivative(prob.x)
        suffix = ref._suffix_propagators(traj)
        for j in (1, 7, 15):
            for k in range(3):
                _, m2, _ = ref.m_operators(traj, prob, j, k)
                h_k = prob.control_generators[k]
                total = np.zeros((2, 2), dtype=complex)
                for i in range(1, j + 1):
                    inner = dh0 @ traj.states[i] - traj.states[i] @ dh0
                    vec = dyn.vectorize(inner)
                    for step in range(i + 1, j + 1):
                        vec = traj.step_propagators[step - 1] @ vec
                    walked = dyn.unvectorize(vec)
                    outer = h_k @ walked - walked @ h_k
                    total += dyn.unvectorize(suffix[j] @ dyn.vectorize(outer))
                np.testing.assert_allclose(m2, total, atol=1e-12)

    def test_index_validation(self):
        rng = np.random.default_rng(5)
        prob = make_problem(None)
        traj = dyn.propagate(prob, random_schedule(rng, 4, 0.5))
        with pytest.raises(ValidationError):
            ref.m_operators(traj, prob, 0, 0)
        with pytest.raises(ValidationError):
            ref.m_operators(traj, prob, 5, 0)
        with pytest.raises(ValidationError):
            ref.m_operators(traj, prob, 1, 3)


class TestGradientPaths:
    def test_exact_matches_finite_differences_tightly(self):
        rng = np.random.default_rng(7)
        povm = fisher.Povm.plus_minus()
        for name, noise in NOISE_MODELS.items():
            m, dt = 20, 0.05
            prob = make_problem(noise, horizon=m * dt)
            grid = random_schedule(rng, m, dt)
            traj = dyn.propagate(prob, grid)
            for objective in (grape.qfi_objective(), grape.cfi_objective(povm)):
                analytic = grape.gradient(traj, prob, objective)
                numeric = grape.finite_difference_gradient(prob, grid, objective, delta=1e-5)
                diff = np.abs(analytic - numeric)
                rel = diff / np.maximum(np.abs(numeric), 1e-300)
                assert ((rel <= 1e-4) | (diff <= 1e-8)).all(), name

    def test_stacked_exact_matches_looped_reference(self):
        rng = np.random.default_rng(8)
        povm = fisher.Povm.plus_minus()
        for name, noise in NOISE_MODELS.items():
            m, dt = 30, 0.05
            prob = make_problem(noise, horizon=m * dt)
            traj = dyn.propagate(prob, random_schedule(rng, m, dt))
            for objective in (grape.qfi_objective(), grape.cfi_objective(povm)):
                looped = ref.looped_exact_gradient(traj, prob, objective)
                stacked = grape.gradient(traj, prob, objective)
                # summation order differs; entries far below the table's
                # largest carry that entry's rounding
                np.testing.assert_allclose(
                    stacked, looped, rtol=1e-12, atol=1e-12 * np.abs(looped).max(),
                    err_msg=f"{name} {objective.kind}",
                )

    @pytest.mark.parametrize("p", [1, 2, 5])
    def test_exact_path_for_other_control_counts(self, p):
        # random non-Pauli generators; with p = 5 a multiple of the identity,
        # which moves nothing, and a copy of generator 0 shifted by the identity
        rng = np.random.default_rng(20 + p)
        raw = rng.normal(size=(p, 2, 2)) + 1j * rng.normal(size=(p, 2, 2))
        gens = list((raw + raw.conj().transpose(0, 2, 1)) / 2)
        if p == 5:
            gens[3] = 0.8 * np.eye(2, dtype=complex)
            gens[4] = gens[0] + 0.5 * np.eye(2, dtype=complex)
        m, dt = 12, 0.1
        povm = fisher.Povm.plus_minus()
        for name in ("transverse", "emission"):
            prob = dyn.frequency_estimation_problem(
                1.0, NOISE_MODELS[name], dyn.plus_state(), m * dt, control_generators=tuple(gens)
            )
            grid = random_schedule(rng, m, dt, p=p)
            traj = dyn.propagate(prob, grid)
            for objective in (grape.qfi_objective(), grape.cfi_objective(povm)):
                label = f"{name} {objective.kind} p={p}"
                exact = grape.gradient(traj, prob, objective)
                assert exact.shape == (m, p)
                looped = ref.looped_exact_gradient(traj, prob, objective)
                np.testing.assert_allclose(
                    exact, looped, rtol=1e-12, atol=1e-12 * np.abs(looped).max(), err_msg=label
                )
                numeric = grape.finite_difference_gradient(prob, grid, objective, delta=1e-5)
                diff = np.abs(exact - numeric)
                rel = diff / np.maximum(np.abs(numeric), 1e-300)
                assert ((rel <= 1e-4) | (diff <= 1e-8)).all(), label
                if p == 5:
                    scale = np.abs(exact).max()
                    np.testing.assert_allclose(exact[:, 3], 0.0, atol=1e-12 * scale)
                    np.testing.assert_allclose(exact[:, 4], exact[:, 0], atol=1e-12 * scale)

    def test_no_controls_give_an_empty_table(self):
        prob = dyn.frequency_estimation_problem(
            1.0, NOISE_MODELS["emission"], dyn.plus_state(), 1.0, control_generators=()
        )
        traj = dyn.propagate(prob, dyn.ControlGrid.zeros(10, 0, 0.1))
        table = grape.gradient(traj, prob, grape.qfi_objective())
        assert table.shape == (10, 0)

    def test_first_order_identity_error_shrinks_linearly_in_dt(self):
        # the paper's operator identity approximates the step derivative to
        # first order; halving dt must roughly halve its deviation
        rng = np.random.default_rng(8)
        prob_T = 1.0
        deviations = []
        for m in (20, 40, 80):
            dt = prob_T / m
            prob = make_problem(NOISE_MODELS["emission"], horizon=prob_T)
            tmid = (np.arange(m) + 0.5) * dt
            amps = np.stack(
                [np.sin(1.3 * tmid + 0.2), 0.7 * np.cos(0.9 * tmid), 0.4 * np.sin(2.2 * tmid)],
                axis=1,
            )
            grid = dyn.ControlGrid(amps, dt)
            traj = dyn.propagate(prob, grid)
            g1 = ref.naive_gradient(traj, prob, grape.qfi_objective())
            g2 = grape.gradient(traj, prob, grape.qfi_objective())
            deviations.append(np.abs(g1 - g2).max() / dt)  # per-entry scale ~ dt
        assert deviations[0] > deviations[1] > deviations[2]
        assert deviations[0] / deviations[2] > 2.5

    def test_x_independent_dynamics_gives_zero_gradient(self):
        rng = np.random.default_rng(9)
        prob = dyn.EstimationProblem(
            x=1.0,
            free_hamiltonian=lambda x: np.zeros((2, 2), dtype=complex),
            free_hamiltonian_derivative=lambda x: np.zeros((2, 2), dtype=complex),
            control_generators=dyn.PAULIS,
            noise=NOISE_MODELS["parallel"],
            probe=dyn.plus_state(),
            horizon=1.0,
        )
        grid = random_schedule(rng, 10, 0.1)
        traj = dyn.propagate(prob, grid)
        for table in (
            grape.gradient(traj, prob, grape.qfi_objective()),
            ref.naive_gradient(traj, prob, grape.qfi_objective()),
        ):
            np.testing.assert_allclose(table, 0.0, atol=1e-12)

    def test_stationary_at_held_optimum(self):
        # slightly detuned cancellation point: gradient must sit at the
        # finite-difference noise floor
        gamma, horizon = 0.1, 5.0
        prob = make_problem(dyn.Dephasing(math.pi / 2, 0.0, gamma), horizon=horizon)
        m = 100
        grid = dyn.ControlGrid.constant([0.0, 0.0, -0.5 * (1 + 1e-4)], m, horizon / m)
        traj = dyn.propagate(prob, grid)
        analytic = grape.gradient(traj, prob, grape.qfi_objective())
        numeric = grape.finite_difference_gradient(prob, grid, grape.qfi_objective(), delta=1e-5)
        floor = np.abs(numeric).max()
        assert np.abs(analytic).max() <= 10.0 * floor + 1e-12

    def test_cfi_gradient_trivial_povm_is_zero(self):
        rng = np.random.default_rng(10)
        prob = make_problem(NOISE_MODELS["transverse"])
        grid = random_schedule(rng, 8, 0.25)
        traj = dyn.propagate(prob, grid)
        povm = fisher.Povm((np.eye(2, dtype=complex),))
        for table in (
            grape.gradient(traj, prob, grape.cfi_objective(povm)),
            ref.naive_gradient(traj, prob, grape.cfi_objective(povm)),
        ):
            np.testing.assert_allclose(table, 0.0, atol=1e-12)

    def test_cfi_gradient_singular_outcome_raises(self):
        # a plus probe just past a full turn: p_- ~ 1e-15 but dp_-/dx ~ 3e-7,
        # the case fisher.cfi rejects, reached through the gradient weights
        horizon = 2.0 * math.pi + 1e-7
        prob = make_problem(None, horizon=horizon)
        traj = dyn.propagate(prob, dyn.ControlGrid.zeros(10, 3, horizon / 10))
        objective = grape.cfi_objective(fisher.Povm.plus_minus())
        with pytest.raises(SingularOutcomeError):
            grape.gradient(traj, prob, objective)


class TestFiniteDifferenceGradient:
    def test_constant_objective_gives_zeros(self):
        rng = np.random.default_rng(11)
        prob = dyn.EstimationProblem(
            x=1.0,
            free_hamiltonian=lambda x: np.zeros((2, 2), dtype=complex),
            free_hamiltonian_derivative=lambda x: np.zeros((2, 2), dtype=complex),
            control_generators=dyn.PAULIS,
            noise=None,
            probe=dyn.plus_state(),
            horizon=1.0,
        )
        grid = random_schedule(rng, 5, 0.2)
        table = grape.finite_difference_gradient(prob, grid, grape.qfi_objective(), delta=1e-4)
        np.testing.assert_allclose(table, 0.0, atol=1e-9)

    def test_central_difference_is_second_order_in_delta(self):
        rng = np.random.default_rng(12)
        m, dt = 6, 0.2
        prob = make_problem(NOISE_MODELS["parallel"], horizon=m * dt)
        grid = random_schedule(rng, m, dt)
        exact = grape.gradient(dyn.propagate(prob, grid), prob, grape.qfi_objective())
        err = {}
        for delta in (2e-3, 1e-3):
            fd = grape.finite_difference_gradient(prob, grid, grape.qfi_objective(), delta=delta)
            err[delta] = np.abs(fd - exact).max()
        ratio = err[2e-3] / err[1e-3]
        assert 3.0 < ratio < 5.0  # O(delta^2) halving

    def test_rejects_nonpositive_delta(self):
        prob = make_problem(None, horizon=0.2)
        grid = dyn.ControlGrid.zeros(1, 3, 0.2)
        with pytest.raises(ValidationError):
            grape.finite_difference_gradient(prob, grid, grape.qfi_objective(), delta=0.0)
        for delta in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValidationError, match="delta"):
                grape.finite_difference_gradient(prob, grid, grape.qfi_objective(), delta=delta)

    def test_equals_full_repropagation_reference(self):
        rng = np.random.default_rng(13)
        raw = rng.normal(size=(5, 2, 2)) + 1j * rng.normal(size=(5, 2, 2))
        random_gens = tuple((raw + raw.conj().transpose(0, 2, 1)) / 2)
        shapes = [
            (40, dyn.PAULIS),
            (15, dyn.PAULIS[:1]),
            (25, dyn.PAULIS[:2]),
            (12, random_gens),
            (0, dyn.PAULIS),
            (8, ()),
        ]
        noise_models = {**NOISE_MODELS, "oblique": dyn.Dephasing(theta=1.1, phi=0.4, gamma=0.2)}
        povm = fisher.Povm.plus_minus()
        dt = 0.05
        for name, noise in noise_models.items():
            for m, gens in shapes:
                prob = dyn.frequency_estimation_problem(
                    1.0, noise, dyn.plus_state(), m * dt, control_generators=gens
                )
                grid = random_schedule(rng, m, dt, p=len(gens))
                for objective in (grape.qfi_objective(), grape.cfi_objective(povm)):
                    got = grape.finite_difference_gradient(prob, grid, objective)
                    want = ref.finite_difference_gradient_full(prob, grid, objective)
                    assert got.shape == (m, len(gens))
                    np.testing.assert_array_equal(
                        got, want, err_msg=f"{name} m={m} p={len(gens)} {objective.kind}"
                    )

    def test_unstable_base_names_the_reference_step(self):
        # the negative emission rate of the propagate failure test: the
        # unperturbed run already goes bad, and every bump with it
        for rate, steps in ((-0.6, 40), (-0.6, 4000), (-50.0, 400)):
            noise = dyn.SpontaneousEmission(0.0, 0.2)
            object.__setattr__(noise, "gamma_minus", rate)
            prob = dyn.frequency_estimation_problem(1.0, noise, dyn.zero_state(), float(steps))
            grid = dyn.ControlGrid.zeros(steps, 3, 1.0)
            with pytest.raises(NumericalStabilityError) as expected:
                ref.finite_difference_gradient_full(prob, grid, grape.qfi_objective())
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(NumericalStabilityError) as excinfo:
                    grape.finite_difference_gradient(prob, grid, grape.qfi_objective())
            assert excinfo.value.step == expected.value.step == 1

    def test_unstable_bump_raises(self):
        # a smuggled negative dephasing rate along z leaves the unperturbed
        # |0> fixed, but a sigma_x bump tips it and the coherence then grows
        # until the state passes the positivity floor; the sigma_z bumps,
        # earlier in entry order, stay at |0>
        noise = dyn.Dephasing(theta=0.0, phi=0.0, gamma=0.1)
        object.__setattr__(noise, "gamma", -1.0)
        prob = dyn.frequency_estimation_problem(
            1.0, noise, dyn.zero_state(), 4.0, control_generators=(dyn.SIGMA_Z, dyn.SIGMA_X)
        )
        grid = dyn.ControlGrid.zeros(40, 2, 0.1)
        dyn.propagate(prob, grid)  # the unperturbed run passes
        with pytest.raises(NumericalStabilityError) as expected:
            ref.finite_difference_gradient_full(prob, grid, grape.qfi_objective(), delta=1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalStabilityError) as excinfo:
                grape.finite_difference_gradient(prob, grid, grape.qfi_objective(), delta=1e-3)
        assert 1 < excinfo.value.step < 40
        assert excinfo.value.step == expected.value.step
        assert str(excinfo.value) == str(expected.value)


class TestAscend:
    def test_already_optimal_start_is_a_fixed_point(self):
        gamma, horizon = 0.1, 5.0
        prob = make_problem(dyn.Dephasing(math.pi / 2, 0.0, gamma), horizon=horizon)
        m = 100
        start = dyn.ControlGrid.constant([0.0, 0.0, -0.5 * (1 + 1e-4)], m, horizon / m)
        config = grape.AscentConfig(
            dt=horizon / m,
            step_size=0.05,
            max_iterations=60,
            init_mode="user_supplied",
            initial_grid=start,
        )
        report = grape.ascend(prob, config, grape.qfi_objective())
        assert report.converged
        target = oracles.transverse_controlled_qfi(gamma, horizon)
        assert report.objective_history[0] == pytest.approx(target, rel=1e-4)
        assert report.objective_history[-1] >= report.objective_history[0] - 1e-12
        drift = np.abs(report.final_grid.amplitudes - start.amplitudes).max()
        assert drift < 5e-3

    def test_monotone_history_with_backtracking(self):
        prob = make_problem(NOISE_MODELS["parallel"], horizon=2.0)
        config = grape.AscentConfig(dt=0.1, step_size=0.5, max_iterations=40, seed=3)
        report = grape.ascend(prob, config, grape.qfi_objective())
        hist = report.objective_history
        assert all(b >= a - 1e-12 for a, b in zip(hist, hist[1:]))

    def test_momentum_keeps_history_monotone(self):
        prob = make_problem(NOISE_MODELS["transverse"], horizon=2.0)
        config = grape.AscentConfig(
            dt=0.1, step_size=0.1, max_iterations=60, seed=5, momentum=0.9
        )
        report = grape.ascend(prob, config, grape.qfi_objective())
        hist = report.objective_history
        assert all(b >= a - 1e-12 for a, b in zip(hist, hist[1:]))

    def test_final_history_entry_matches_final_grid(self):
        prob = make_problem(NOISE_MODELS["emission"], horizon=1.0)
        config = grape.AscentConfig(dt=0.1, step_size=0.2, max_iterations=25, seed=7)
        objective = grape.qfi_objective()
        report = grape.ascend(prob, config, objective)
        revalue = grape.evaluate_objective(prob, report.final_grid, objective)
        assert revalue == pytest.approx(report.objective_history[-1], abs=1e-10)
        assert len(report.objective_history) == report.iterations_used + 1

    def test_deterministic_given_seed(self):
        prob = make_problem(NOISE_MODELS["parallel"], horizon=1.0)
        config = grape.AscentConfig(dt=0.1, step_size=0.3, max_iterations=15, seed=11)
        objective = grape.qfi_objective()
        rep1 = grape.ascend(prob, config, objective)
        rep2 = grape.ascend(prob, config, objective)
        assert rep1.objective_history == rep2.objective_history
        np.testing.assert_array_equal(rep1.final_grid.amplitudes, rep2.final_grid.amplitudes)

    def test_seed_changes_initialization(self):
        prob = make_problem(None, horizon=1.0)
        objective = grape.qfi_objective()
        grids = []
        for seed in (0, 1):
            config = grape.AscentConfig(dt=0.25, step_size=0.1, max_iterations=1, seed=seed)
            grids.append(grape.ascend(prob, config, objective).final_grid.amplitudes)
        assert np.abs(grids[0] - grids[1]).max() > 1e-3

    def test_failure_mid_run_is_reported(self, monkeypatch):
        prob = make_problem(NOISE_MODELS["parallel"], horizon=1.0)
        config = grape.AscentConfig(dt=0.1, step_size=0.1, max_iterations=10, seed=1)
        calls = {"n": 0}
        real = grape.gradient

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] >= 3:
                raise QGrapeError("synthetic failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(grape, "gradient", flaky)
        report = grape.ascend(prob, config, grape.qfi_objective())
        assert not report.converged
        assert report.error is not None and "synthetic failure" in report.error
        assert report.failed_iteration == 3
        assert len(report.objective_history) == report.iterations_used + 1

    def test_parallel_long_horizon_beats_single_pulse_strategy(self):
        # beyond the coherence window, repeated pulses must at least match
        # (and here beat) both twice the free value and the best single pulse
        gamma, horizon = 0.1, 20.0
        prob = make_problem(dyn.Dephasing(0.0, 0.0, gamma), horizon=horizon)
        config = grape.AscentConfig(
            dt=0.05, step_size=0.1, max_iterations=150, seed=0, momentum=0.95,
            convergence_tolerance=1e-10,
        )
        report = grape.ascend(prob, config, grape.qfi_objective())
        free = oracles.parallel_free_qfi(gamma, horizon)
        best_pulse = max(
            oracles.parallel_single_pulse_qfi(
                oracles.SinglePulsePlan(t0=float(t), horizon=horizon, omega0=1.0, gamma=gamma)
            )
            for t in np.linspace(0.0, horizon, 400)
        )
        assert report.objective_history[-1] >= 2.0 * free
        assert report.objective_history[-1] >= best_pulse

    def test_recovers_transverse_optimum_small_instance(self):
        # scaled-down companion of the acceptance run (shorter horizon)
        gamma, horizon = 0.1, 2.0
        prob = make_problem(dyn.Dephasing(math.pi / 2, 0.0, gamma), horizon=horizon)
        config = grape.AscentConfig(
            dt=0.05,
            step_size=0.1,
            max_iterations=250,
            seed=0,
            momentum=0.95,
            convergence_tolerance=1e-10,
        )
        report = grape.ascend(prob, config, grape.qfi_objective())
        target = oracles.transverse_controlled_qfi(gamma, horizon)
        assert report.objective_history[-1] >= 0.95 * target


class TestAscentConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValidationError):
            grape.AscentConfig(dt=0.0)
        with pytest.raises(ValidationError):
            grape.AscentConfig(dt=0.1, step_size=-1.0)
        with pytest.raises(ValidationError):
            grape.AscentConfig(dt=0.1, max_iterations=0)
        with pytest.raises(ValidationError):
            grape.AscentConfig(dt=0.1, init_mode="warm")
        with pytest.raises(ValidationError):
            grape.AscentConfig(dt=0.1, init_mode="user_supplied")
        with pytest.raises(ValidationError):
            grape.AscentConfig(dt=0.1, momentum=1.0)

    def test_objective_validation(self):
        with pytest.raises(ValidationError):
            grape.Objective(kind="fidelity")
        with pytest.raises(ValidationError):
            grape.Objective(kind="cfi")
