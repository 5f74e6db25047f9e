import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from qgrape import dynamics as dyn
from qgrape import oracles
from qgrape.errors import NumericalStabilityError, ValidationError

from reference_dynamics import propagate_stepwise


def random_density(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return 0.5 * (a + a.conj().T)


class TestBlochConversions:
    def test_plus_state_round_trip(self):
        r = dyn.bloch_from_density(dyn.plus_state())
        np.testing.assert_allclose(r, [1.0, 0.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(
            dyn.density_from_bloch([1, 0, 0]), dyn.plus_state(), atol=1e-14
        )

    def test_maximally_mixed(self):
        np.testing.assert_allclose(
            dyn.bloch_from_density(0.5 * np.eye(2)), [0, 0, 0], atol=1e-14
        )

    def test_random_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            rho = random_density(rng)
            back = dyn.density_from_bloch(dyn.bloch_from_density(rho))
            np.testing.assert_allclose(back, rho, atol=1e-12)

    def test_overlong_vector_rejected(self):
        with pytest.raises(ValidationError):
            dyn.density_from_bloch([1.0, 1.0, 0.0])


class TestCommutatorSuperop:
    def test_zero_hamiltonian(self):
        np.testing.assert_array_equal(dyn.commutator_superop(np.zeros((2, 2))), np.zeros((4, 4)))

    def test_half_sigma_z_on_plus(self):
        sup = dyn.commutator_superop(0.5 * dyn.SIGMA_Z)
        out = dyn.unvectorize(sup @ dyn.vectorize(dyn.plus_state()))
        direct = 0.5 * (dyn.SIGMA_Z @ dyn.plus_state() - dyn.plus_state() @ dyn.SIGMA_Z)
        np.testing.assert_allclose(out, direct, atol=1e-15)
        np.testing.assert_allclose(out, 0.5j * dyn.SIGMA_Y, atol=1e-15)

    def test_random_against_direct_commutator(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            h = random_hermitian(rng)
            rho = random_density(rng)
            sup = dyn.commutator_superop(h)
            out = dyn.unvectorize(sup @ dyn.vectorize(rho))
            np.testing.assert_allclose(out, h @ rho - rho @ h, atol=1e-12)
        stack = np.array([random_hermitian(rng) for _ in range(3)])
        np.testing.assert_array_equal(
            dyn.commutator_superop(stack), [dyn.commutator_superop(h) for h in stack]
        )

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValidationError):
            dyn.commutator_superop(np.array([[0.0, 1.0], [0.0, 0.0]]))
        stack = np.array([dyn.SIGMA_X, [[0.0, 1.0], [0.0, 0.0]], dyn.SIGMA_Z])
        with pytest.raises(ValidationError, match="not Hermitian"):
            dyn.commutator_superop(stack)


class TestDissipator:
    def test_longitudinal_dephasing_kills_nothing_diagonal(self):
        gamma_super = dyn.dissipator(dyn.Dephasing(theta=0.0, phi=0.0, gamma=0.3))
        for rho in (dyn.zero_state(), dyn.one_state(), 0.5 * np.eye(2)):
            out = gamma_super @ dyn.vectorize(rho)
            np.testing.assert_allclose(out, 0.0, atol=1e-14)

    def test_decay_relaxes_population_downward(self):
        # gamma_plus = 0: r3 fixed point at -1, r3(t) = -1 + e^{-gt}(1 + r3(0))
        gamma = 0.4
        noise = dyn.SpontaneousEmission(gamma_plus=0.0, gamma_minus=gamma)
        liou = dyn.dissipator(noise)
        prop = dyn.step_propagator(liou, 1.0)
        rho_t = dyn.unvectorize(prop @ dyn.vectorize(dyn.one_state()))
        r = dyn.bloch_from_density(rho_t)
        assert r[2] == pytest.approx(-1.0 + math.exp(-gamma) * (1.0 - 1.0), abs=1e-12)
        rho_t = dyn.unvectorize(prop @ dyn.vectorize(dyn.zero_state()))
        r = dyn.bloch_from_density(rho_t)
        assert r[2] == pytest.approx(-1.0 + 2.0 * math.exp(-gamma), abs=1e-12)

    def test_transverse_dephasing_euler_step_matches_component_rates(self):
        # at omega0 = 0 only the dissipator acts: dr2 = -gamma r2, dr3 = -gamma r3
        gamma = 0.1
        gamma_super = dyn.dissipator(dyn.Dephasing(theta=math.pi / 2, phi=0.0, gamma=gamma))
        r0 = np.array([0.3, 0.5, -0.4])
        rho = dyn.density_from_bloch(r0)
        dt = 1e-6
        rho_next = rho + dt * dyn.unvectorize(gamma_super @ dyn.vectorize(rho))
        r_next = dyn.bloch_from_density(rho_next)
        assert r_next[0] == pytest.approx(r0[0], abs=1e-15)
        assert r_next[1] == pytest.approx(r0[1] * (1 - gamma * dt), rel=1e-9)
        assert r_next[2] == pytest.approx(r0[2] * (1 - gamma * dt), rel=1e-9)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValidationError):
            dyn.Dephasing(theta=0.0, phi=0.0, gamma=-0.1)
        with pytest.raises(ValidationError):
            dyn.SpontaneousEmission(gamma_plus=-1.0, gamma_minus=0.0)


class TestLiouvillian:
    def test_pure_free_assembly(self):
        prob = dyn.frequency_estimation_problem(1.3, None, dyn.plus_state(), 1.0)
        liou = dyn.build_liouvillian(prob, [0.0, 0.0, 0.0], 1.3)
        expected = -1j * dyn.commutator_superop(0.5 * 1.3 * dyn.SIGMA_Z)
        np.testing.assert_allclose(liou, expected, atol=1e-14)

    def test_cancelling_control_leaves_pure_dissipator(self):
        noise = dyn.Dephasing(theta=math.pi / 2, phi=0.0, gamma=0.1)
        prob = dyn.frequency_estimation_problem(1.0, noise, dyn.plus_state(), 1.0)
        liou = dyn.build_liouvillian(prob, [0.0, 0.0, -0.5], 1.0)
        np.testing.assert_allclose(liou, dyn.dissipator(noise), atol=1e-14)

    def test_trace_preservation_left_null_vector(self):
        rng = np.random.default_rng(4)
        ident = dyn.vectorize(np.eye(2))
        for _ in range(20):
            noise = dyn.Dephasing(
                theta=rng.uniform(0, math.pi), phi=rng.uniform(0, 2 * math.pi),
                gamma=rng.uniform(0, 1),
            )
            prob = dyn.frequency_estimation_problem(
                rng.uniform(0.5, 2), noise, dyn.plus_state(), 1.0
            )
            liou = dyn.build_liouvillian(prob, rng.uniform(-1, 1, size=3), prob.x)
            np.testing.assert_allclose(ident @ liou, 0.0, atol=1e-10)

    def test_amplitude_count_mismatch(self):
        prob = dyn.frequency_estimation_problem(1.0, None, dyn.plus_state(), 1.0)
        with pytest.raises(ValidationError):
            dyn.build_liouvillian(prob, [0.0, 1.0], 1.0)


class TestStepPropagator:
    def test_zero_generator_gives_identity(self):
        np.testing.assert_allclose(
            dyn.step_propagator(np.zeros((4, 4)), 0.7), np.eye(4), atol=1e-15
        )

    def test_unitary_step_preserves_purity(self):
        rng = np.random.default_rng(8)
        h = random_hermitian(rng)
        liou = -1j * dyn.commutator_superop(h)
        prop = dyn.step_propagator(liou, 0.01)
        rho = dyn.plus_state()
        r = dyn.bloch_from_density(dyn.unvectorize(prop @ dyn.vectorize(rho)))
        assert np.linalg.norm(r) == pytest.approx(1.0, abs=1e-10)

    def test_parallel_dephasing_single_step_closed_form(self):
        # spiral with the damped envelope; rotation sense fixed by the
        # decay-model solution adopted as the package convention
        gamma, omega, t = 0.1, 1.0, 2.0
        noise = dyn.Dephasing(theta=0.0, phi=0.0, gamma=gamma)
        prob = dyn.frequency_estimation_problem(omega, noise, dyn.plus_state(), t)
        liou = dyn.build_liouvillian(prob, [0.0, 0.0, 0.0], omega)
        prop = dyn.step_propagator(liou, t)
        r = dyn.bloch_from_density(dyn.unvectorize(prop @ dyn.vectorize(dyn.plus_state())))
        envelope = math.exp(-gamma * t)
        np.testing.assert_allclose(
            r, [envelope * math.cos(omega * t), envelope * math.sin(omega * t), 0.0],
            atol=1e-12,
        )

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ValidationError):
            dyn.step_propagator(np.zeros((4, 4)), 0.0)


def kernel_cases(rng, n, k=20):
    """Named (k, n, n) stacks for the stacked exponential."""
    cases = {}
    for norm in (1e-3, 0.5, 5.0, 50.0, 1e3):
        # anti-Hermitian plus a negative semidefinite part, like a generator
        z = rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n))
        b = rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n))
        a = (z - z.conj().swapaxes(-1, -2)) - 0.2 * b @ b.conj().swapaxes(-1, -2)
        cases[f"dissipative {norm:g}"] = a * (norm / np.abs(a).sum(axis=-2).max(axis=-1))[:, None, None]
    z = rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n))
    cases["general"] = z * (3.0 / np.abs(z).sum(axis=-2).max(axis=-1))[:, None, None]
    diag = rng.uniform(-50, 1, size=(k, n)) + 1j * rng.uniform(-300, 300, size=(k, n))
    cases["diagonal"] = np.einsum("ka,ab->kab", diag, np.eye(n))
    cases["triangular"] = 4.0 * np.triu(rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n)))
    lam = rng.normal(size=(k, 1, 1)) + 1j * rng.normal(size=(k, 1, 1))
    cases["near-defective"] = (
        lam * np.eye(n) + 3.0 * np.eye(n, k=1) + 1e-9 * rng.normal(size=(k, n, n))
    )
    cases["zero"] = np.zeros((3, n, n))
    return cases


class TestStackedExponential:
    @pytest.mark.parametrize("n", [4, 8])
    def test_matches_scipy_expm(self, n):
        # exp is conditioned like |A|_1, so two accurate algorithms agree to
        # about eps |A|_1; the largest stacks need 8 squarings
        for name, a in kernel_cases(np.random.default_rng(40 + n), n).items():
            got = dyn._expm(a, 0.5)
            want = expm(0.5 * a)
            norms = np.abs(0.5 * a).sum(axis=-2).max(axis=-1)
            err = np.abs(got - want).max(axis=(-2, -1)) / np.abs(want).max(axis=(-2, -1))
            assert (err <= 1e-14 * np.maximum(1.0, norms / 20.0)).all(), name

    @pytest.mark.parametrize("n", [4, 8])
    def test_each_slice_equals_a_solo_call(self, n):
        for name, a in kernel_cases(np.random.default_rng(50 + n), n).items():
            stacked = dyn._expm(a, 0.5)
            for i, mat in enumerate(a):
                np.testing.assert_array_equal(stacked[i], dyn._expm(mat, 0.5), err_msg=name)

    @pytest.mark.parametrize(
        "noise",
        [
            dyn.Dephasing(theta=math.pi / 2, phi=0.0, gamma=0.1),
            dyn.Dephasing(theta=1.1, phi=0.4, gamma=0.2),
            dyn.SpontaneousEmission(gamma_plus=0.05, gamma_minus=0.1),
        ],
        ids=["transverse", "oblique", "emission"],
    )
    def test_trace_row_is_preserved(self, noise):
        # the trace functional t = vec(I) satisfies t L = 0, so t exp(dt L)
        # = t; forming the Pade quotient as (V+U)/(V-U) instead of
        # I + 2 U/(V-U) leaves a mean square of about 1e-32 here
        rng = np.random.default_rng(60)
        prob = dyn.frequency_estimation_problem(1.0, noise, dyn.plus_state(), 1.0)
        lious = dyn._liouvillians(prob, rng.uniform(-1, 1, size=(2000, 3)), prob.x)
        t = dyn.vectorize(np.eye(2))
        dev = t @ dyn.step_propagator(lious, 0.05) - t
        assert np.mean(np.abs(dev) ** 2) < 1e-33


class TestPropagate:
    def test_free_rotation_closed_form(self):
        prob = dyn.frequency_estimation_problem(1.0, None, dyn.plus_state(), 1.0)
        traj = dyn.propagate(prob, dyn.ControlGrid.zeros(100, 3, 0.01))
        r = dyn.bloch_from_density(traj.final_state)
        np.testing.assert_allclose(r, [math.cos(1.0), math.sin(1.0), 0.0], atol=1e-10)

    def test_matches_transverse_oracle_in_rotated_frame(self):
        # V3 = -omega0 flips the effective frequency; closed-form solution
        # depends on omega0 through the same damped (co)sines
        gamma, omega = 0.1, 1.0
        noise = dyn.Dephasing(theta=math.pi / 2, phi=0.0, gamma=gamma)
        for t in (0.5, 2.0, 5.0):
            m = int(round(t / 1e-3))
            prob = dyn.frequency_estimation_problem(omega, noise, dyn.plus_state(), t)
            grid = dyn.ControlGrid.constant([0.0, 0.0, -omega], m, 1e-3)
            traj = dyn.propagate(prob, grid)
            r = dyn.bloch_from_density(traj.final_state)
            np.testing.assert_allclose(r, oracles.transverse_bloch(gamma, omega, t), atol=1e-6)

    def test_refining_sampled_smooth_controls_converges_first_order(self):
        rng = np.random.default_rng(2)
        coeffs = rng.normal(size=(3, 3))

        def controls(t):
            return [
                c[0] * math.sin(1.3 * t) + c[1] * math.cos(0.7 * t) + 0.3 * c[2]
                for c in coeffs
            ]

        noise = dyn.SpontaneousEmission(0.05, 0.1)
        results = {}
        for m in (64, 128, 256):
            dt = 2.0 / m
            prob = dyn.frequency_estimation_problem(1.0, noise, dyn.plus_state(), 2.0)
            amps = np.array([controls((j + 0.5) * dt) for j in range(m)])
            traj = dyn.propagate(prob, dyn.ControlGrid(amps, dt))
            results[m] = traj.final_state
        err_coarse = np.abs(results[64] - results[256]).max()
        err_fine = np.abs(results[128] - results[256]).max()
        assert err_coarse > err_fine
        # midpoint-sampled piecewise-constant controls converge ~second order;
        # the ratio just needs to show systematic refinement
        assert err_coarse / err_fine > 2.0

    def test_horizon_mismatch_rejected(self):
        prob = dyn.frequency_estimation_problem(1.0, None, dyn.plus_state(), 1.0)
        with pytest.raises(ValidationError):
            dyn.propagate(prob, dyn.ControlGrid.zeros(3, 3, 0.25))
        assert dyn.step_count(1.0, 0.25) == 4
        for horizon in (0.9, 0.0):
            with pytest.raises(ValidationError, match="positive multiple"):
                dyn.step_count(horizon, 0.25)

    def test_zero_step_horizonless_edge(self):
        prob = dyn.frequency_estimation_problem(1.0, None, dyn.plus_state(), 0.0)
        traj = dyn.propagate(prob, dyn.ControlGrid(np.zeros((0, 3)), 0.1))
        assert traj.n_steps == 0
        np.testing.assert_allclose(traj.final_state, dyn.plus_state())
        np.testing.assert_allclose(traj.final_state_derivative, 0.0)

    @pytest.mark.parametrize("m, p", [(30, 3), (0, 3), (12, 0)])
    @pytest.mark.parametrize(
        "noise",
        [
            None,
            dyn.Dephasing(theta=math.pi / 2, phi=0.0, gamma=0.1),
            dyn.Dephasing(theta=1.1, phi=0.4, gamma=0.2),
            dyn.SpontaneousEmission(gamma_plus=0.05, gamma_minus=0.1),
        ],
        ids=["noiseless", "transverse", "oblique", "emission"],
    )
    def test_stacked_equals_stepwise_reference(self, noise, m, p):
        rng = np.random.default_rng(5)
        prob = dyn.frequency_estimation_problem(
            1.0, noise, dyn.plus_state(), m * 0.05, control_generators=dyn.PAULIS[:p]
        )
        grid = dyn.ControlGrid(rng.uniform(-1, 1, size=(m, p)), 0.05)
        stacked = dyn.propagate(prob, grid)
        stepwise = propagate_stepwise(prob, grid)
        for field in ("states", "phi", "step_propagators", "liouvillians"):
            np.testing.assert_array_equal(
                getattr(stacked, field), getattr(stepwise, field), err_msg=field
            )

    @pytest.mark.parametrize("amplitude", [1e150, 1e300, 1e308])
    def test_overflowing_amplitudes_fail_at_step_one_without_warnings(self, amplitude):
        prob = dyn.frequency_estimation_problem(
            1.0, dyn.Dephasing(theta=math.pi / 2, phi=0.0, gamma=0.1), dyn.plus_state(), 1.0
        )
        grid = dyn.ControlGrid.constant([amplitude] * 3, 20, 0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalStabilityError) as excinfo:
                dyn.propagate(prob, grid)
        assert excinfo.value.step == 1

    def test_controllerless_problem(self):
        prob = dyn.frequency_estimation_problem(
            1.0, None, dyn.plus_state(), 1.0, control_generators=()
        )
        traj = dyn.propagate(prob, dyn.ControlGrid(np.zeros((10, 0)), 0.1))
        r = dyn.bloch_from_density(traj.final_state)
        np.testing.assert_allclose(r, [math.cos(1.0), math.sin(1.0), 0.0], atol=1e-12)


@pytest.fixture(scope="module")
def noisy_trajectory():
    rng = np.random.default_rng(21)
    noise = dyn.SpontaneousEmission(0.03, 0.12)
    prob = dyn.frequency_estimation_problem(0.8, noise, dyn.plus_state(), 3.0)
    grid = dyn.ControlGrid(rng.uniform(-1, 1, size=(60, 3)), 0.05)
    return dyn.propagate(prob, grid)


class TestTrajectoryInvariants:

    def test_trace_and_hermiticity_preserved(self, noisy_trajectory):
        for rho in noisy_trajectory.states:
            assert abs(np.trace(rho) - 1.0) < 1e-10
            assert np.abs(rho - rho.conj().T).max() < 1e-10

    def test_positivity_preserved(self, noisy_trajectory):
        for rho in noisy_trajectory.states:
            assert np.linalg.eigvalsh(rho).min() > -1e-10

    def test_unitary_purity_preserved_with_controls(self):
        rng = np.random.default_rng(13)
        prob = dyn.frequency_estimation_problem(1.0, None, dyn.plus_state(), 2.0)
        grid = dyn.ControlGrid(rng.uniform(-1, 1, size=(40, 3)), 0.05)
        traj = dyn.propagate(prob, grid)
        for rho in traj.states:
            assert np.linalg.norm(dyn.bloch_from_density(rho)) == pytest.approx(1.0, abs=1e-9)

    def test_phi_accumulator_is_hermitian_traceless(self, noisy_trajectory):
        for phi in noisy_trajectory.phi:
            d = noisy_trajectory.dt * phi
            assert np.abs(d - d.conj().T).max() < 1e-10
            assert abs(np.trace(d)) < 1e-10

    def test_phi_matches_explicit_double_loop(self):
        # brute-force identity: d(rho_m)/dx = dt * sum_i D_{i+1}^m G rho_i
        rng = np.random.default_rng(3)
        noise = dyn.Dephasing(theta=1.1, phi=0.4, gamma=0.2)
        m, dt = 15, 0.1
        prob = dyn.frequency_estimation_problem(1.0, noise, dyn.plus_state(), m * dt)
        grid = dyn.ControlGrid(rng.uniform(-1, 1, size=(m, 3)), dt)
        traj = dyn.propagate(prob, grid)
        dgen = -1j * dyn.commutator_superop(prob.free_hamiltonian_derivative(prob.x))
        total = np.zeros(4, dtype=complex)
        for i in range(1, m + 1):
            vec = dgen @ dyn.vectorize(traj.states[i])
            for j in range(i + 1, m + 1):
                vec = traj.step_propagators[j - 1] @ vec
            total += vec
        np.testing.assert_allclose(
            dyn.unvectorize(dt * total), traj.final_state_derivative, atol=1e-12
        )

    def test_phi_consistent_with_central_difference_in_x(self):
        rng = np.random.default_rng(30)
        noise = dyn.Dephasing(theta=0.9, phi=0.2, gamma=0.15)
        m, dt = 40, 0.01
        prob = dyn.frequency_estimation_problem(1.0, noise, dyn.plus_state(), m * dt)
        grid = dyn.ControlGrid(rng.uniform(-1, 1, size=(m, 3)), dt)
        traj = dyn.propagate(prob, grid)
        delta = 1e-5
        rho_plus = dyn.propagate(prob, grid, x=1.0 + delta).final_state
        rho_minus = dyn.propagate(prob, grid, x=1.0 - delta).final_state
        fd = (rho_plus - rho_minus) / (2 * delta)
        # first-order sensitivity accumulation: agreement to O(dt) + O(delta^2)
        assert np.abs(fd - traj.final_state_derivative).max() < 5.0 * dt * dt + 1e-8

    def test_positivity_hard_failure_names_step(self):
        # a negative rate smuggled past the dataclass check must be caught;
        # in the longer runs the states overflow after the first bad step,
        # which must still be the step named, without floating-point warnings
        for rate, steps in ((-0.6, 40), (-0.6, 4000), (-50.0, 400)):
            noise = dyn.SpontaneousEmission(0.0, 0.2)
            object.__setattr__(noise, "gamma_minus", rate)
            prob = dyn.frequency_estimation_problem(1.0, noise, dyn.zero_state(), float(steps))
            grid = dyn.ControlGrid.zeros(steps, 3, 1.0)
            with pytest.raises(NumericalStabilityError) as expected:
                propagate_stepwise(prob, grid)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(NumericalStabilityError) as excinfo:
                    dyn.propagate(prob, grid)
            assert excinfo.value.step == expected.value.step == 1
            assert str(excinfo.value) == str(expected.value)
