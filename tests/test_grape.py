import math
import os
import pickle
import tracemalloc
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
from reference_dynamics import propagate_liouville, unvectorize, vectorize


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
        traj = propagate_liouville(prob, grid)
        _, _, m3 = ref.m_operators(traj, prob, j=traj.n_steps, k=0)
        np.testing.assert_allclose(m3, 0.0, atol=1e-15)

    def test_identity_generator_gives_zero_operators(self):
        rng = np.random.default_rng(2)
        prob = dyn.frequency_estimation_problem(
            1.0, NOISE_MODELS["transverse"], dyn.plus_state(), 2.0,
            control_generators=(np.eye(2, dtype=complex),),
        )
        grid = random_schedule(rng, 10, 0.2, p=1)
        traj = propagate_liouville(prob, grid)
        for j in (1, 5, 10):
            for op in ref.m_operators(traj, prob, j, 0):
                np.testing.assert_allclose(op, 0.0, atol=1e-14)

    def test_operators_are_hermitian(self):
        rng = np.random.default_rng(3)
        prob = make_problem(NOISE_MODELS["parallel"], horizon=1.2)
        grid = random_schedule(rng, 12, 0.1)
        traj = propagate_liouville(prob, grid)
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
        traj = propagate_liouville(prob, grid)
        dh0 = prob.encoding
        suffix = ref._suffix_propagators(traj)
        for j in (1, 7, 15):
            for k in range(3):
                _, m2, _ = ref.m_operators(traj, prob, j, k)
                h_k = prob.control_generators[k]
                total = np.zeros((2, 2), dtype=complex)
                for i in range(1, j + 1):
                    inner = dh0 @ traj.states[i] - traj.states[i] @ dh0
                    vec = vectorize(inner)
                    for step in range(i + 1, j + 1):
                        vec = traj.step_propagators[step - 1] @ vec
                    walked = unvectorize(vec)
                    outer = h_k @ walked - walked @ h_k
                    total += unvectorize(suffix[j] @ vectorize(outer))
                np.testing.assert_allclose(m2, total, atol=1e-12)

    def test_index_validation(self):
        rng = np.random.default_rng(5)
        prob = make_problem(None)
        traj = propagate_liouville(prob, random_schedule(rng, 4, 0.5))
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
            grid = random_schedule(rng, m, dt)
            traj = dyn.propagate(prob, grid)
            for objective in (grape.qfi_objective(), grape.cfi_objective(povm)):
                looped = ref.looped_exact_gradient(propagate_liouville(prob, grid), prob, objective)
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
                looped = ref.looped_exact_gradient(propagate_liouville(prob, grid), prob, objective)
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

    @pytest.mark.parametrize("noise", NOISE_MODELS.values(), ids=NOISE_MODELS.keys())
    def test_backward_sweep_matches_three_row_reference(self, noise):
        rng = np.random.default_rng(15)
        m, dt = 40, 0.05
        prob = make_problem(noise, horizon=m * dt)
        traj = dyn.propagate(prob, random_schedule(rng, m, dt))
        for objective in (grape.qfi_objective(), grape.cfi_objective(fisher.Povm.plus_minus())):
            ybar = grape._backward_sweep(traj, grape._final_rows([traj], objective)[0])
            # the Van Loan left rows (ybar_s, ybar_c + ybar_s G)
            z = np.concatenate(
                [ybar[:, 4:], ybar[:, :4] + ybar[:, 4:] @ prob.sensitivity_superop], axis=1
            )
            lam, mu, q = ref.backward_rows(traj, prob, objective)
            want = np.concatenate([2.0 * dt * lam, 2.0 * dt * q - mu], axis=1)
            assert np.abs(z - want).max() <= 1e-13 * np.abs(want).max(), objective.kind

    def test_equals_copying_assembly_reference(self):
        # the in-place Van Loan assembly and the power-major kernel keep the
        # arithmetic of the copying assembly and the matrix-major kernel.  The
        # Pauli generators' precession entries are 0 and powers of two, so
        # the library's elementwise products with G and P_k round as the
        # reference's matrix products do
        rng = np.random.default_rng(16)
        povm = fisher.Povm.plus_minus()
        cases = [(name, noise, 40, dyn.PAULIS, 1.0) for name, noise in NOISE_MODELS.items()]
        cases += [("emission p=1", NOISE_MODELS["emission"], 25, dyn.PAULIS[:1], 1.0)]
        cases += [("transverse p=0", NOISE_MODELS["transverse"], 10, (), 1.0)]
        # amplitudes large enough that the block exponentials are scaled
        cases += [("emission strong", NOISE_MODELS["emission"], 40, dyn.PAULIS, 40.0)]
        for name, noise, m, gens, scale in cases:
            dt = 0.05
            prob = dyn.frequency_estimation_problem(
                1.0, noise, dyn.plus_state(), m * dt, control_generators=gens
            )
            grid = random_schedule(rng, m, dt, p=len(gens), scale=scale)
            traj = dyn.propagate(prob, grid)
            for objective in (grape.qfi_objective(), grape.cfi_objective(povm)):
                got = grape.gradient(traj, prob, objective)
                want = ref.stacked_exact_gradient(traj, prob, objective)
                assert got.shape == (m, len(gens))
                assert got.tobytes() == want.tobytes(), f"{name} {objective.kind}"

    @pytest.mark.parametrize("generic", [False, True], ids=["pauli", "generic"])
    def test_stacked_trajectories_get_their_own_gradient(self, generic):
        # the flat step axis of lock-step ascents: every trajectory's table is
        # bitwise its gradient alone, ragged step counts and one-step
        # trajectories included, also with generic generators, whose row
        # sums have several rounded terms
        rng = np.random.default_rng(22)

        def hermitian():
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            return (a + a.conj().T) / 2

        encoding, gens = (hermitian(), (hermitian(), hermitian())) if generic else (
            0.5 * dyn.SIGMA_Z, dyn.PAULIS[:2])
        trajs, probs = [], []
        for i, m in enumerate((1, 37, 1, 120, 2, 1)):
            noise = list(NOISE_MODELS.values())[i % 4]
            probs.append(
                dyn.EstimationProblem(1.0, encoding, gens, noise, dyn.plus_state(), m * 0.05)
            )
            trajs.append(dyn.propagate(probs[-1], random_schedule(rng, m, 0.05, p=2, scale=3.0)))
        for objective in (grape.qfi_objective(), grape.cfi_objective(fisher.Povm.plus_minus())):
            evaluated = [(traj, grape._final_rows([traj], objective)[0]) for traj in trajs]
            tables = grape._gradients(evaluated, probs[0])
            for traj, prob, table in zip(trajs, probs, tables):
                assert table.tobytes() == grape.gradient(traj, prob, objective).tobytes()

    def test_each_member_scales_its_weights_by_its_own_power_of_two(self):
        # every trajectory's Van Loan weights C are scaled by the power of two
        # of its own largest entry, and its table is bitwise its table alone.
        # The stack holds trajectories without steps (first, in the middle and
        # last, where a reduceat over all members would read a neighbour's
        # entry or read past the end), a one-step one, and weights whose peaks
        # lie many binades apart, down to exactly 0 for a maximally mixed
        # probe under dephasing: the power of two of a member with small
        # weights would blow the large weights of another past the kernel's
        # scaling threshold
        rng = np.random.default_rng(23)
        dephasing, emission = NOISE_MODELS["transverse"], NOISE_MODELS["emission"]
        axis = np.array([0.6, 0.0, 0.8])
        members = [
            (dephasing, dyn.plus_state(), 0),
            (dephasing, dyn.density_from_bloch(1e-15 * axis), 5),
            (emission, dyn.plus_state(), 1),
            (dephasing, dyn.density_from_bloch(1e-30 * axis), 4),
            (dephasing, dyn.plus_state(), 0),
            (emission, dyn.density_from_bloch(0.5 * axis), 7),
            (dephasing, dyn.density_from_bloch(np.zeros(3)), 3),
            (None, dyn.zero_state(), 0),
        ]
        trajs, probs = [], []
        for noise, probe, m in members:
            probs.append(make_problem(noise, horizon=m * 0.05, probe=probe))
            trajs.append(dyn.propagate(probs[-1], random_schedule(rng, m, 0.05, scale=2.0)))
        for objective in (grape.qfi_objective(), grape.cfi_objective(fisher.Povm.plus_minus())):
            peaks, evaluated = [], []
            for traj in trajs:
                row = grape._final_rows([traj], objective)[0]
                _, w1, w2 = row
                peaks.append(max(np.abs(w1).max(), np.abs(w2).max()))
                evaluated.append((traj, row))
            assert peaks[6] == 0.0 and 0.0 < peaks[3] < 2.0**-90 < peaks[1] < 2.0**-40 < peaks[2]
            tables = grape._gradients(evaluated, probs[0])
            for traj, prob, table in zip(trajs, probs, tables):
                assert table.shape == (traj.n_steps, 3)
                assert table.tobytes() == grape.gradient(traj, prob, objective).tobytes()

    @pytest.mark.parametrize("offset", [0.0, -1e-7, 1e-7, -1e-4, 1e-4])
    def test_exceptional_point(self, offset):
        # parallel dephasing at gamma = 0.2, its detuning cancelled by
        # V_z = -omega/2, under a constant drive V_x: the y-z block of the
        # generator, [[-gamma, -2 V_x], [2 V_x, 0]], is defective at
        # V_x = gamma/4 = 0.05.  There and on both sides of it the QFI and
        # CFI-along-y gradients meet criterion 04's bounds against central
        # differences
        omega, gamma, dt = 1.0, 0.2, 0.05
        problem = make_problem(dyn.Dephasing(theta=0.0, phi=0.0, gamma=gamma), horizon=5.0,
                               omega=omega)
        grid = dyn.ControlGrid.constant([0.05 + offset, 0.0, -omega / 2], 100, dt)
        if offset == 0.0:
            eigenvalues = np.linalg.eigvals(dyn._generators(problem, grid.amplitudes[:1])[0])
            gaps = np.abs(eigenvalues[:, None] - eigenvalues[None, :]) + np.eye(4)
            assert gaps.min() < 1e-4
        traj = dyn.propagate(problem, grid)
        for objective in (grape.qfi_objective(), grape.cfi_objective(fisher.Povm.along([0, 1, 0]))):
            analytic = grape.gradient(traj, problem, objective)
            numeric = grape.finite_difference_gradient(problem, grid, objective, 1e-5)
            diff = np.abs(analytic - numeric)
            rel = diff / np.maximum(np.abs(numeric), 1e-300)
            assert ((rel <= 1e-2) | (diff <= 1e-6)).all(), objective.kind

    def test_evaluation_leaves_the_trajectory_as_it_was(self):
        # the objective and its gradient read a trajectory and write nothing
        # on it, so that no call depends on the calls made before it
        rng = np.random.default_rng(24)
        prob = make_problem(NOISE_MODELS["emission"], horizon=1.0)
        traj = dyn.propagate(prob, random_schedule(rng, 20, 0.05))
        before = pickle.dumps(traj)
        for objective in (grape.qfi_objective(), grape.cfi_objective(fisher.Povm.plus_minus())):
            grape.objective_value(traj, objective)
            grape.gradient(traj, prob, objective)
            assert pickle.dumps(traj) == before, objective.kind

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
            g1 = ref.naive_gradient(propagate_liouville(prob, grid), prob, grape.qfi_objective())
            g2 = grape.gradient(traj, prob, grape.qfi_objective())
            deviations.append(np.abs(g1 - g2).max() / dt)  # per-entry scale ~ dt
        assert deviations[0] > deviations[1] > deviations[2]
        assert deviations[0] / deviations[2] > 2.5

    def test_x_independent_dynamics_gives_zero_gradient(self):
        rng = np.random.default_rng(9)
        prob = dyn.EstimationProblem(
            x=1.0,
            encoding=np.zeros((2, 2), dtype=complex),
            control_generators=dyn.PAULIS,
            noise=NOISE_MODELS["parallel"],
            probe=dyn.plus_state(),
            horizon=1.0,
        )
        grid = random_schedule(rng, 10, 0.1)
        traj = dyn.propagate(prob, grid)
        for table in (
            grape.gradient(traj, prob, grape.qfi_objective()),
            ref.naive_gradient(propagate_liouville(prob, grid), prob, grape.qfi_objective()),
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
            ref.naive_gradient(propagate_liouville(prob, grid), prob, grape.cfi_objective(povm)),
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


class TestGeneratorsBuiltOnce:
    def test_repeat_calls_build_no_superoperator(self, monkeypatch):
        rng = np.random.default_rng(13)
        prob = make_problem(NOISE_MODELS["emission"], horizon=1.0)
        grid = random_schedule(rng, 10, 0.1)
        objective = grape.qfi_objective()
        grape.gradient(dyn.propagate(prob, grid), prob, objective)
        grape.finite_difference_gradient(prob, grid, objective)

        calls = []
        real = dyn._precession

        def counted(hamiltonian):
            calls.append(hamiltonian)
            return real(hamiltonian)

        monkeypatch.setattr(dyn, "_precession", counted)
        traj = dyn.propagate(prob, grid)
        grape.gradient(traj, prob, objective)
        grape.finite_difference_gradient(prob, grid, objective)
        assert calls == []


class TestRealHotPath:
    def test_every_exponential_is_real(self, monkeypatch):
        rng = np.random.default_rng(14)
        prob = make_problem(NOISE_MODELS["emission"], horizon=1.0)
        grid = random_schedule(rng, 10, 0.1)
        dtypes = []

        def recorded(generators, dt):
            dtypes.append(generators.dtype)
            return real_expm(generators, dt)

        real_expm = dyn._expm
        monkeypatch.setattr(dyn, "_expm", recorded)
        monkeypatch.setattr(grape, "_expm", recorded)
        for objective in (grape.qfi_objective(), grape.cfi_objective(fisher.Povm.plus_minus())):
            traj = dyn.propagate(prob, grid)
            assert grape.gradient(traj, prob, objective).dtype == np.float64
            grape.finite_difference_gradient(prob, grid, objective)
        # per objective: propagate, gradient, and the base and bumped steps of the oracle
        assert len(dtypes) == 8 and set(dtypes) == {np.dtype(np.float64)}


class TestFiniteDifferenceGradient:
    def test_constant_objective_gives_zeros(self):
        rng = np.random.default_rng(11)
        prob = dyn.EstimationProblem(
            x=1.0,
            encoding=np.zeros((2, 2), dtype=complex),
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

    @pytest.mark.parametrize(
        "rate, steps, first_bad", [(-2.0, 40, 13), (-1.0, 40, 24), (-0.5, 60, 47)]
    )
    def test_first_bad_step_inside_a_checked_block(self, rate, steps, first_bad):
        # the unstable-bump set-up of the test above, with the first bad
        # step of the raising trajectory neither the first nor the last of
        # the block of steps whose states are checked together
        noise = dyn.Dephasing(theta=0.0, phi=0.0, gamma=0.1)
        object.__setattr__(noise, "gamma", rate)
        prob = dyn.frequency_estimation_problem(
            1.0, noise, dyn.zero_state(), steps * 0.1,
            control_generators=(dyn.SIGMA_Z, dyn.SIGMA_X),
        )
        grid = dyn.ControlGrid.zeros(steps, 2, 0.1)
        with pytest.raises(NumericalStabilityError) as expected:
            ref.finite_difference_gradient_full(prob, grid, grape.qfi_objective(), delta=1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalStabilityError) as excinfo:
                grape.finite_difference_gradient(prob, grid, grape.qfi_objective(), delta=1e-3)
        assert excinfo.value.step == expected.value.step == first_bad
        assert (first_bad - 1) % grape._STABILITY_BLOCK not in (0, grape._STABILITY_BLOCK - 1)
        assert str(excinfo.value) == str(expected.value)

    def test_information_error_of_an_earlier_entry_comes_first(self):
        # a smuggled negative dephasing rate along x leaves the unperturbed
        # |+> fixed (omega = 0) and amplifies any tilt out of the x axis.
        # The weak sigma_z control of entry (0, 0, +) tilts it by 2e-7
        # only: the state stays stable, but its minus outcome then has
        # probability ~1e-14 with a derivative ~1e-6, which the CFI rejects.
        # The strong one of the later entry (0, 1, +) tilts it by 2e-3,
        # and that trajectory goes unstable.
        noise = dyn.Dephasing(theta=math.pi / 2, phi=0.0, gamma=0.1)
        object.__setattr__(noise, "gamma", -1.0)
        prob = dyn.frequency_estimation_problem(
            0.0, noise, dyn.plus_state(), 3.0,
            control_generators=(0.1 * dyn.SIGMA_Z, 1000.0 * dyn.SIGMA_Z),
        )
        grid = dyn.ControlGrid.zeros(30, 2, 0.1)
        objective = grape.cfi_objective(fisher.Povm.plus_minus())
        dyn.propagate(prob, grid)  # the unperturbed run passes
        with pytest.raises(SingularOutcomeError) as expected:
            ref.finite_difference_gradient_full(prob, grid, objective)
        with pytest.raises(SingularOutcomeError) as excinfo:
            grape.finite_difference_gradient(prob, grid, objective)
        assert str(excinfo.value) == str(expected.value)
        # each failure alone: the weak control's oracle is singular and the
        # strong control's unstable
        weak, strong = (
            dyn.frequency_estimation_problem(
                0.0, noise, dyn.plus_state(), 3.0, control_generators=(scale * dyn.SIGMA_Z,)
            )
            for scale in (0.1, 1000.0)
        )
        one_control = dyn.ControlGrid.zeros(30, 1, 0.1)
        with pytest.raises(SingularOutcomeError):
            grape.finite_difference_gradient(weak, one_control, objective)
        with pytest.raises(NumericalStabilityError):
            grape.finite_difference_gradient(strong, one_control, objective)

    def test_working_set_does_not_grow_with_the_state_history(self):
        # m = 400, p = 3: keeping the state of every bumped trajectory at
        # every step after its bump would take m p * m * 8 doubles, about
        # 31 MB; the working set, mostly the exponentials of the 2 m p bumped
        # steps, peaks near 5 MB
        rng = np.random.default_rng(15)
        m, dt = 400, 0.01
        prob = make_problem(NOISE_MODELS["emission"], horizon=m * dt)
        grid = random_schedule(rng, m, dt)
        grape.finite_difference_gradient(prob, grid, grape.qfi_objective())  # warm caches
        tracemalloc.start()
        try:
            grape.finite_difference_gradient(prob, grid, grape.qfi_objective())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10e6


class TestAscend:
    def test_already_optimal_start_is_a_fixed_point(self):
        gamma, horizon = 0.1, 5.0
        prob = make_problem(dyn.Dephasing(math.pi / 2, 0.0, gamma), horizon=horizon)
        m = 100
        start = dyn.ControlGrid.constant([0.0, 0.0, -0.5 * (1 + 1e-4)], m, horizon / m)
        config = grape.AscentConfig(dt=horizon / m, step_size=0.05, max_iterations=60)
        report = grape.ascend(prob, config, grape.qfi_objective(), start=start)
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
        real = grape._gradients

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] >= 3:
                raise QGrapeError("synthetic failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(grape, "_gradients", flaky)
        report = grape.ascend(prob, config, grape.qfi_objective())
        assert not report.converged
        assert report.error is not None and "synthetic failure" in report.error
        assert report.failed_iteration == 3
        assert len(report.objective_history) == report.iterations_used + 1

    @staticmethod
    def _count_candidates(monkeypatch, on_candidate):
        """Route ascend's batched propagations through ``on_candidate(iteration,
        index, grid)``, ``index`` counting the candidates of the iteration from
        0; the start grid's propagation is iteration 0.  A ``QGrapeError`` that
        ``on_candidate`` raises is raised as that candidate's propagation error."""
        state = {"iteration": 0, "index": 0}
        real_gradients, real_propagate = grape._gradients, grape._propagate_each

        def counted_gradients(*args, **kwargs):
            state["iteration"] += 1
            state["index"] = 0
            return real_gradients(*args, **kwargs)

        def counted_propagate(problems, grids):
            assert len(grids) == 1  # ascend is a one-member batch
            trajs = real_propagate(problems, grids)
            state["index"] += 1
            on_candidate(state["iteration"], state["index"] - 1, grids[0])
            return trajs

        monkeypatch.setattr(grape, "_gradients", counted_gradients)
        monkeypatch.setattr(grape, "_propagate_each", counted_propagate)

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_raising_first_candidate_is_skipped(self, monkeypatch, momentum):
        # in iteration 2 the first candidate is the heavy-ball move when
        # momentum is on, the full gradient step otherwise
        def raise_first_of_second(iteration, index, grid):
            if (iteration, index) == (2, 0):
                raise NumericalStabilityError("synthetic first candidate")

        self._count_candidates(monkeypatch, raise_first_of_second)
        prob = make_problem(NOISE_MODELS["parallel"], horizon=1.0)
        config = grape.AscentConfig(
            dt=0.1, step_size=0.1, max_iterations=5, seed=1, momentum=momentum
        )
        report = grape.ascend(prob, config, grape.qfi_objective())
        assert report.error is None and report.failed_iteration is None
        assert report.iterations_used == 5
        hist = report.objective_history
        assert all(b >= a for a, b in zip(hist, hist[1:]))
        assert hist[2] > hist[1]

    def test_iteration_fails_only_when_every_candidate_raised(self, monkeypatch):
        def raise_every_candidate(iteration, index, grid):
            if iteration > 0:
                raise NumericalStabilityError(f"synthetic candidate {index}")

        self._count_candidates(monkeypatch, raise_every_candidate)
        prob = make_problem(NOISE_MODELS["parallel"], horizon=1.0)
        config = grape.AscentConfig(dt=0.1, step_size=0.1, max_iterations=5, seed=1)
        report = grape.ascend(prob, config, grape.qfi_objective())
        assert report.failed_iteration == 1
        assert report.iterations_used == 0 and len(report.objective_history) == 1
        last = grape.MAX_BACKTRACK_HALVINGS
        assert report.error == f"NumericalStabilityError: synthetic candidate {last}"

    def test_no_schedule_is_propagated_twice_in_an_iteration(self, monkeypatch):
        # a step size this large overshoots, so heavy-ball moves are rejected
        # and halving runs after them
        seen: dict[int, list[bytes]] = {}

        def record(iteration, index, grid):
            seen.setdefault(iteration, []).append(grid.amplitudes.tobytes())

        self._count_candidates(monkeypatch, record)
        prob = make_problem(NOISE_MODELS["parallel"], horizon=1.0)
        config = grape.AscentConfig(
            dt=0.1, step_size=20.0, max_iterations=30, seed=3, momentum=0.9
        )
        report = grape.ascend(prob, config, grape.qfi_objective())
        assert report.error is None
        assert max(len(grids) for grids in seen.values()) > 2
        for iteration, grids in seen.items():
            assert len(set(grids)) == len(grids), f"iteration {iteration}"

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
        t0 = np.linspace(0.0, horizon, 400)
        best_pulse = oracles.parallel_single_pulse_qfi(gamma, 1.0, horizon, t0).max()
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


def assert_same_report(got, want):
    """Bitwise equality of two ascent reports."""
    assert np.array(got.objective_history).tobytes() == np.array(want.objective_history).tobytes()
    assert got.final_grid.amplitudes.tobytes() == want.final_grid.amplitudes.tobytes()
    assert got.final_grid.dt == want.final_grid.dt
    assert (got.iterations_used, got.converged, got.error, got.failed_iteration) == (
        want.iterations_used, want.converged, want.error, want.failed_iteration
    )


def negative_rate_emission():
    """Emission with a negative rate smuggled past the dataclass check, as in
    test_dynamics: every trajectory loses positivity at its first step."""
    noise = dyn.SpontaneousEmission(0.0, 0.2)
    object.__setattr__(noise, "gamma_minus", -0.6)
    return noise


class TestAscendBatch:
    """Every member of a lock-step batch gets bitwise the report that a
    one-member batch (``ascend``) gives it."""

    @staticmethod
    def check(problems, configs, objective, starts=None):
        reports = grape.ascend_batch(problems, configs, objective, starts)
        starts = [None] * len(problems) if starts is None else starts
        assert len(reports) == len(problems)
        for problem, config, start, report in zip(problems, configs, starts, reports):
            assert_same_report(report, grape.ascend(problem, config, objective, start=start))
        return reports

    @pytest.mark.parametrize("group_steps", [None, 100], ids=["one_group", "groups"])
    def test_ragged_steps_with_and_without_momentum(self, monkeypatch, group_steps):
        # with groups of at most 100 steps the members climb in the groups
        # (20, 45), (70), (95), (120, alone though longer)
        if group_steps is not None:
            monkeypatch.setattr(grape, "_BATCH_STEPS", group_steps)
        noises = list(NOISE_MODELS.values())
        problems, configs = [], []
        for i, m in enumerate((20, 45, 70, 95, 120)):
            problems.append(make_problem(noises[i % len(noises)], horizon=m * 0.05))
            configs.append(grape.AscentConfig(
                dt=0.05, max_iterations=12, seed=i, momentum=0.9 if i % 2 else 0.0
            ))
        for objective in (grape.qfi_objective(), grape.cfi_objective(fisher.Povm.plus_minus())):
            reports = self.check(problems, configs, objective)
            assert all(r.error is None and r.iterations_used == 12 for r in reports)

    def test_one_step_members(self):
        # numpy multiplies and contracts a single row with other kernels than
        # a stack; a one-step member must still get its one-member report.
        # Generic generators, so that the row sums have several rounded terms
        rng = np.random.default_rng(21)

        def hermitian():
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            return (a + a.conj().T) / 2

        encoding, controls = hermitian(), (hermitian(), hermitian(), hermitian())
        problems = [
            dyn.EstimationProblem(1.0, encoding, controls, NOISE_MODELS["emission"],
                                  dyn.plus_state(), horizon)
            for horizon in (0.1, 0.1, 0.2, 3.0)
        ]
        configs = [grape.AscentConfig(dt=0.1, max_iterations=8, seed=s) for s in range(4)]
        self.check(problems, configs, grape.qfi_objective())

    def test_failing_member_leaves_the_others_running(self):
        problems = [
            make_problem(NOISE_MODELS["transverse"], horizon=2.0),
            make_problem(negative_rate_emission(), horizon=2.0, probe=dyn.zero_state()),
            make_problem(NOISE_MODELS["parallel"], horizon=1.0),
        ]
        configs = [grape.AscentConfig(dt=0.05, max_iterations=10, seed=s) for s in range(3)]
        reports = self.check(problems, configs, grape.qfi_objective())
        assert reports[1].failed_iteration == 0
        assert reports[1].error.startswith("NumericalStabilityError: state lost positivity")
        assert reports[0].error is None and reports[2].error is None
        assert reports[0].iterations_used == reports[2].iterations_used == 10

    def test_member_whose_objective_raises(self):
        # the stacked CFI call raises for the singular member (see
        # test_cfi_gradient_singular_outcome_raises); each member is then
        # evaluated alone, so only that one fails
        horizon = 2.0 * math.pi + 1e-7
        zeros = dyn.ControlGrid.zeros(10, 3, horizon / 10)
        config = grape.AscentConfig(dt=horizon / 10, max_iterations=6, seed=2)
        problems = [make_problem(NOISE_MODELS["transverse"], horizon=horizon),
                    make_problem(None, horizon=horizon)]
        objective = grape.cfi_objective(fisher.Povm.plus_minus())
        reports = self.check(problems, [config, config], objective, starts=[None, zeros])
        assert reports[0].error is None and reports[0].iterations_used == 6
        assert reports[1].failed_iteration == 0
        assert reports[1].error.startswith("SingularOutcomeError")

    def test_member_that_converges_early(self):
        # a start at the held optimum converges within a few iterations, while
        # a random start keeps climbing to its iteration cap
        gamma, horizon, m = 0.1, 5.0, 100
        problem = make_problem(dyn.Dephasing(math.pi / 2, 0.0, gamma), horizon=horizon)
        held = dyn.ControlGrid.constant([0.0, 0.0, -0.5 * (1 + 1e-4)], m, horizon / m)
        config = grape.AscentConfig(dt=horizon / m, step_size=0.05, max_iterations=60)
        climbing = grape.AscentConfig(dt=horizon / m, max_iterations=60, seed=4, momentum=0.9)
        reports = self.check(
            [problem, problem, make_problem(NOISE_MODELS["emission"], horizon=3.0)],
            [config, climbing, climbing],
            grape.qfi_objective(),
            starts=[held, None, None],
        )
        assert reports[0].converged and reports[0].iterations_used < 60
        assert not reports[1].converged and reports[1].iterations_used == 60

    def test_member_whose_candidates_cannot_be_built(self, monkeypatch):
        # an infinite gradient table makes every candidate schedule
        # non-finite, so that member fails as its gradient arrives, before
        # any candidate of the round is evaluated
        real = grape._gradients

        def infinite_for_one(evaluated, problem):
            tables = real(evaluated, problem)
            return [np.full_like(table, np.inf) if traj.n_steps == 30 else table
                    for (traj, _), table in zip(evaluated, tables)]

        monkeypatch.setattr(grape, "_gradients", infinite_for_one)
        problems = [make_problem(noise, horizon=m * 0.05)
                    for noise, m in zip(NOISE_MODELS.values(), (20, 30, 40))]
        configs = [grape.AscentConfig(dt=0.05, max_iterations=5, seed=s, momentum=0.9)
                   for s in range(3)]
        reports = self.check(problems, configs, grape.qfi_objective())
        assert reports[1].failed_iteration == 1 and reports[1].iterations_used == 0
        assert reports[1].error == "ValidationError: control amplitudes must be finite"
        assert reports[0].error is None and reports[2].error is None

    def test_raising_gradient_fails_its_member_alone(self, monkeypatch):
        # a stacked gradient call that raises runs again for each asking
        # member alone, so each member gets what it gets alone
        problems = [make_problem(noise, horizon=m * 0.05)
                    for noise, m in zip(NOISE_MODELS.values(), (20, 30, 40))]
        configs = [grape.AscentConfig(dt=0.05, max_iterations=5, seed=s) for s in range(3)]
        objective = grape.qfi_objective()
        solos = [grape.ascend(p, c, objective) for p, c in zip(problems, configs)]
        real = grape._gradients

        def stacks_raise(evaluated, problem):
            if len(evaluated) > 1:
                raise QGrapeError("synthetic stack failure")
            return real(evaluated, problem)

        monkeypatch.setattr(grape, "_gradients", stacks_raise)
        for report, solo in zip(grape.ascend_batch(problems, configs, objective), solos):
            assert_same_report(report, solo)
            assert report.error is None and report.iterations_used == 5

        # the 30-step member's gradient raises from its second one on, in a
        # stack and alone: only that member fails, at iteration 2
        calls = {"n": 0}

        def raises_for_one(evaluated, problem):
            if any(traj.n_steps == 30 for traj, _ in evaluated):
                calls["n"] += 1
                if calls["n"] >= 2:
                    raise QGrapeError("synthetic failure")
            return real(evaluated, problem)

        monkeypatch.setattr(grape, "_gradients", raises_for_one)
        reports = grape.ascend_batch(problems, configs, objective)
        assert reports[1].error == "QGrapeError: synthetic failure"
        assert reports[1].failed_iteration == 2 and reports[1].iterations_used == 1
        assert reports[1].objective_history == solos[1].objective_history[:2]
        assert_same_report(reports[0], solos[0])
        assert_same_report(reports[2], solos[2])

    def test_finished_members_release_their_arrays(self):
        # members of 400 steps climb in groups of two, so each share of twenty
        # members climbs groups of two one after another; a finished member
        # must not keep the flat arrays of its last round alive until the
        # batch returns.  Only the caller's share is traced, so the baseline
        # gives that share one group of two as well
        problem = make_problem(NOISE_MODELS["transverse"], horizon=20.0)
        config = grape.AscentConfig(dt=0.05, max_iterations=2)
        shares = len(grape._shares([400] * 20))

        def peak(n):
            tracemalloc.start()
            try:
                grape.ascend_batch([problem] * n, [config] * n, grape.qfi_objective())
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(20) < 1.5 * peak(2 * shares)

    @staticmethod
    def on_cores(monkeypatch, cores):
        """Let this process run on ``cores`` cores, or on a platform without
        an affinity call when ``cores`` is None; returns the list that each
        fork appends its child's id to."""
        if cores is None:
            monkeypatch.delattr(os, "sched_getaffinity")
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        forks, real = [], os.fork

        def fork():
            pid = real()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        return forks

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_shares_split_longest_first_into_the_lightest(self, monkeypatch):
        for cores, want in ((1, [[0, 1, 2, 3, 4, 5]]),
                            (2, [[1, 2, 5], [0, 3, 4]]),
                            (3, [[0, 5], [1, 4], [2, 3]])):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
            assert grape._shares([20, 40, 60, 80, 100, 120]) == want
        # ties go to the first share, one share per member at most, and a
        # share that gets no steps is dropped
        assert grape._shares([50, 50, 50]) == [[0], [1], [2]]
        assert grape._shares([7]) == [[0]]
        assert grape._shares([0, 0]) == [[0, 1]]
        monkeypatch.delattr(os, "sched_getaffinity")
        assert grape._shares([20, 40]) == [[0, 1]]

    @pytest.mark.parametrize("cores", [None, 1, 2, 3])
    def test_reports_do_not_depend_on_the_cores(self, monkeypatch, cores):
        # a ragged batch as in a horizon sweep (m = 20..120) and a theta
        # sweep's batch of two probes per point
        objective = grape.qfi_objective()
        ragged = [make_problem(NOISE_MODELS["emission"], horizon=m * 0.05)
                  for m in range(20, 121, 20)]
        theta = [make_problem(dyn.Dephasing(theta=t, phi=0.0, gamma=0.1), horizon=2.0,
                              probe=probe)
                 for t in (0.5, 1.0, 1.5) for probe in (dyn.plus_state(), dyn.zero_state())]
        for problems in (ragged, theta):
            configs = [grape.AscentConfig(dt=0.05, max_iterations=6, seed=s, momentum=0.9)
                       for s in range(len(problems))]
            solos = [grape.ascend(p, c, objective) for p, c in zip(problems, configs)]
            forks = self.on_cores(monkeypatch, cores)
            reports = grape.ascend_batch(problems, configs, objective)
            monkeypatch.undo()
            assert len(forks) == (cores or 1) - 1
            assert len(reports) == len(problems)
            for report, solo in zip(reports, solos):
                assert_same_report(report, solo)
            self.assert_no_child_left()

    @pytest.mark.parametrize("where", ["child", "caller"])
    def test_exception_of_a_share_reaches_the_caller(self, monkeypatch, where):
        # with two cores the 40-step member climbs in the caller and the
        # other two in a child
        forks = self.on_cores(monkeypatch, 2)
        raising = 20 if where == "child" else 40
        real = grape._climb_together

        def raises_for_one(members, problem, objective):
            if any(grid.n_steps == raising for _, _, grid in members):
                raise RuntimeError(f"synthetic failure at m = {raising}")
            return real(members, problem, objective)

        monkeypatch.setattr(grape, "_climb_together", raises_for_one)
        problems = [make_problem(NOISE_MODELS["parallel"], horizon=m * 0.05) for m in (20, 30, 40)]
        configs = [grape.AscentConfig(dt=0.05, max_iterations=3, seed=s) for s in range(3)]
        with pytest.raises(RuntimeError, match=f"^synthetic failure at m = {raising}$"):
            grape.ascend_batch(problems, configs, grape.qfi_objective())
        assert len(forks) == 1
        self.assert_no_child_left()

    def test_child_that_ends_without_reports(self, monkeypatch):
        self.on_cores(monkeypatch, 2)
        real = grape._climb_together

        def exits_for_one(members, problem, objective):
            if any(grid.n_steps == 20 for _, _, grid in members):
                os._exit(3)  # only ever in the child
            return real(members, problem, objective)

        monkeypatch.setattr(grape, "_climb_together", exits_for_one)
        problems = [make_problem(NOISE_MODELS["parallel"], horizon=m * 0.05) for m in (20, 40)]
        configs = [grape.AscentConfig(dt=0.05, max_iterations=3, seed=s) for s in range(2)]
        with pytest.raises(RuntimeError, match="ended without its reports"):
            grape.ascend_batch(problems, configs, grape.qfi_objective())
        self.assert_no_child_left()

    def test_members_must_share_the_model_and_step_width(self):
        config = grape.AscentConfig(dt=0.1, max_iterations=2)
        prob = make_problem(NOISE_MODELS["transverse"], horizon=1.0)
        other_controls = dyn.frequency_estimation_problem(
            1.0, None, dyn.plus_state(), 1.0, control_generators=dyn.PAULIS[:2]
        )
        other_dt = grape.AscentConfig(dt=0.05, max_iterations=2)
        for problems, configs in (([prob, other_controls], [config, config]),
                                  ([prob, prob], [config, other_dt])):
            with pytest.raises(ValidationError, match="must share"):
                grape.ascend_batch(problems, configs, grape.qfi_objective())
        assert grape.ascend_batch([], [], grape.qfi_objective()) == []


class TestAscentConfigValidation:
    @pytest.mark.parametrize(
        "name, value",
        [("seed", 1.5), ("seed", True), ("seed", "3"), ("seed", -1),
         ("max_iterations", 2.5), ("max_iterations", True), ("max_iterations", 3.0)],
    )
    def test_counts_must_be_integers(self, name, value):
        # a float seed used to build and then fail in numpy's SeedSequence with
        # a bare TypeError, which would abort a whole sweep batch
        with pytest.raises(ValidationError, match=name):
            grape.AscentConfig(**{name: value})

    def test_numpy_integers_accepted(self):
        config = grape.AscentConfig(seed=np.int64(3), max_iterations=np.int32(2))
        prob = make_problem(None, horizon=0.5)
        assert grape.ascend(prob, config, grape.qfi_objective()).iterations_used == 2

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

    def test_objective_kind_follows_povm(self):
        povm = fisher.Povm.plus_minus()
        assert grape.Objective().kind == "qfi"
        assert grape.Objective(povm).kind == "cfi"
        assert grape.qfi_objective() == grape.Objective()
        assert grape.cfi_objective(povm) == grape.Objective(povm)
