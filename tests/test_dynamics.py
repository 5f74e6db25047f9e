import math
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from qgrape import dynamics as dyn
from qgrape.errors import NumericalStabilityError, ValidationError

from reference_dynamics import (
    PAULI_BASIS,
    SIGMA_MINUS,
    SIGMA_PLUS,
    bloch_from_density,
    commutator_superop,
    constant_grid,
    dephasing_axis,
    dissipator,
    expm_matrix_major,
    one_state,
    pauli_superop,
    propagate_liouville,
    propagate_stepwise,
    unvectorize,
    vectorize,
)
from reference_oracles import transverse_bloch

NOISE_MODELS = {
    "noiseless": None,
    "transverse": dyn.Dephasing(theta=math.pi / 2, phi=0.0, gamma=0.1),
    "parallel": dyn.Dephasing(theta=0.0, phi=0.0, gamma=0.1),
    "oblique": dyn.Dephasing(theta=1.1, phi=0.4, gamma=0.2),
    "emission": dyn.SpontaneousEmission(gamma_plus=0.05, gamma_minus=0.1),
}


def random_density(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return 0.5 * (a + a.conj().T)


class TestBlochConversions:
    def test_plus_state_round_trip(self):
        r = bloch_from_density(dyn.plus_state())
        np.testing.assert_allclose(r, [1.0, 0.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(
            dyn.density_from_bloch([1, 0, 0]), dyn.plus_state(), atol=1e-14
        )

    def test_maximally_mixed(self):
        np.testing.assert_allclose(
            bloch_from_density(0.5 * np.eye(2)), [0, 0, 0], atol=1e-14
        )

    def test_random_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            rho = random_density(rng)
            back = dyn.density_from_bloch(bloch_from_density(rho))
            np.testing.assert_allclose(back, rho, atol=1e-12)

    def test_overlong_vector_rejected(self):
        with pytest.raises(ValidationError):
            dyn.density_from_bloch([1.0, 1.0, 0.0])

    def test_two_component_vector_rejected(self):
        with pytest.raises(ValidationError, match="3 components, got 2"):
            dyn.density_from_bloch([0.5, 0.5])


class TestCommutatorSuperop:
    def test_zero_hamiltonian(self):
        np.testing.assert_array_equal(commutator_superop(np.zeros((2, 2))), np.zeros((4, 4)))

    def test_half_sigma_z_on_plus(self):
        sup = commutator_superop(0.5 * dyn.SIGMA_Z)
        out = unvectorize(sup @ vectorize(dyn.plus_state()))
        direct = 0.5 * (dyn.SIGMA_Z @ dyn.plus_state() - dyn.plus_state() @ dyn.SIGMA_Z)
        np.testing.assert_allclose(out, direct, atol=1e-15)
        np.testing.assert_allclose(out, 0.5j * dyn.SIGMA_Y, atol=1e-15)

    def test_random_against_direct_commutator(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            h = random_hermitian(rng)
            rho = random_density(rng)
            sup = commutator_superop(h)
            out = unvectorize(sup @ vectorize(rho))
            np.testing.assert_allclose(out, h @ rho - rho @ h, atol=1e-12)
        stack = np.array([random_hermitian(rng) for _ in range(3)])
        np.testing.assert_array_equal(
            commutator_superop(stack), [commutator_superop(h) for h in stack]
        )

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValidationError):
            commutator_superop(np.array([[0.0, 1.0], [0.0, 0.0]]))
        stack = np.array([dyn.SIGMA_X, [[0.0, 1.0], [0.0, 0.0]], dyn.SIGMA_Z])
        with pytest.raises(ValidationError, match="not Hermitian"):
            commutator_superop(stack)


class TestDissipator:
    def test_longitudinal_dephasing_kills_nothing_diagonal(self):
        gamma_super = dissipator(dyn.Dephasing(theta=0.0, phi=0.0, gamma=0.3))
        for rho in (dyn.zero_state(), one_state(), 0.5 * np.eye(2)):
            out = gamma_super @ vectorize(rho)
            np.testing.assert_allclose(out, 0.0, atol=1e-14)

    def test_decay_relaxes_population_downward(self):
        # gamma_plus = 0: r3 fixed point at -1, r3(t) = -1 + e^{-gt}(1 + r3(0))
        gamma = 0.4
        noise = dyn.SpontaneousEmission(gamma_plus=0.0, gamma_minus=gamma)
        liou = dissipator(noise)
        prop = dyn._expm(liou, 1.0)
        rho_t = unvectorize(prop @ vectorize(one_state()))
        r = bloch_from_density(rho_t)
        assert r[2] == pytest.approx(-1.0 + math.exp(-gamma) * (1.0 - 1.0), abs=1e-12)
        rho_t = unvectorize(prop @ vectorize(dyn.zero_state()))
        r = bloch_from_density(rho_t)
        assert r[2] == pytest.approx(-1.0 + 2.0 * math.exp(-gamma), abs=1e-12)

    def test_transverse_dephasing_euler_step_matches_component_rates(self):
        # at omega0 = 0 only the dissipator acts: dr2 = -gamma r2, dr3 = -gamma r3
        gamma = 0.1
        gamma_super = dissipator(dyn.Dephasing(theta=math.pi / 2, phi=0.0, gamma=gamma))
        r0 = np.array([0.3, 0.5, -0.4])
        rho = dyn.density_from_bloch(r0)
        dt = 1e-6
        rho_next = rho + dt * unvectorize(gamma_super @ vectorize(rho))
        r_next = bloch_from_density(rho_next)
        assert r_next[0] == pytest.approx(r0[0], abs=1e-15)
        assert r_next[1] == pytest.approx(r0[1] * (1 - gamma * dt), rel=1e-9)
        assert r_next[2] == pytest.approx(r0[2] * (1 - gamma * dt), rel=1e-9)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValidationError):
            dyn.Dephasing(theta=0.0, phi=0.0, gamma=-0.1)
        with pytest.raises(ValidationError):
            dyn.SpontaneousEmission(gamma_plus=-1.0, gamma_minus=0.0)


class TestEstimationProblem:
    def test_free_hamiltonian_is_x_times_encoding(self):
        noise = dyn.Dephasing(theta=1.1, phi=0.4, gamma=0.2)
        prob = dyn.frequency_estimation_problem(-1.3, noise, dyn.plus_state(), 1.0)
        np.testing.assert_array_equal(prob.encoding, 0.5 * dyn.SIGMA_Z)
        np.testing.assert_allclose(
            prob.free_superop,
            pauli_superop(-1j * commutator_superop(-1.3 * 0.5 * dyn.SIGMA_Z) + dissipator(noise)),
            rtol=0,
            atol=1e-15,
        )
        np.testing.assert_allclose(
            prob.sensitivity_superop,
            pauli_superop(-1j * commutator_superop(0.5 * dyn.SIGMA_Z)),
            rtol=0,
            atol=1e-15,
        )

    def test_pauli_basis_maps_coordinates_to_vectorized_states(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            rho = random_density(rng)
            coords = [np.trace(rho @ s).real for s in (dyn.IDENTITY, *dyn.PAULIS)]
            np.testing.assert_allclose(PAULI_BASIS @ coords, vectorize(rho), atol=1e-15)
        np.testing.assert_array_equal(
            2.0 * PAULI_BASIS.conj().T @ PAULI_BASIS, np.eye(4)
        )

    @pytest.mark.parametrize("noise", NOISE_MODELS.values(), ids=NOISE_MODELS.keys())
    def test_generators_are_real_trace_preserving_pauli_forms(self, noise):
        prob = dyn.frequency_estimation_problem(0.7, noise, dyn.plus_state(), 1.0)
        cases = [
            (
                prob.free_superop,
                -1j * commutator_superop(0.7 * prob.encoding) + dissipator(noise),
            ),
            (prob.sensitivity_superop, -1j * commutator_superop(prob.encoding)),
        ] + [
            (sup, -1j * commutator_superop(h))
            for sup, h in zip(prob.control_superops, prob.control_generators, strict=True)
        ]
        for got, liouvillian in cases:
            assert got.dtype == np.float64 and got.shape == (4, 4)
            # the first row is the trace functional's image: exactly zero
            np.testing.assert_array_equal(got[0], 0.0)
            np.testing.assert_allclose(got, pauli_superop(liouvillian), rtol=0, atol=1e-15)

    def test_replace_rebuilds_the_generators_at_the_new_x(self):
        prob = dyn.frequency_estimation_problem(1.0, None, dyn.plus_state(), 1.0)
        prob.free_superop  # cached at x = 1.0
        moved = replace(prob, x=2.0)
        np.testing.assert_array_equal(moved.free_superop, 2.0 * prob.free_superop)
        assert prob.x == 1.0

    @pytest.mark.parametrize(
        "changes",
        [
            dict(x=math.nan),
            dict(x=math.inf),
            dict(encoding=np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)),
            dict(encoding=np.eye(3, dtype=complex)),
            dict(encoding=np.full((2, 2), math.nan, dtype=complex)),
            dict(noise="foo"),
        ],
        ids=["nan_x", "inf_x", "non_hermitian", "3x3", "nan_encoding", "unknown_noise"],
    )
    def test_bad_model_rejected(self, changes):
        prob = dyn.frequency_estimation_problem(1.0, None, dyn.plus_state(), 1.0)
        with pytest.raises(ValidationError):
            replace(prob, **changes)

    def test_removed_keywords_are_type_errors(self):
        prob = dyn.frequency_estimation_problem(1.0, None, dyn.plus_state(), 1.0)
        grid = dyn.ControlGrid.zeros(10, 3, 0.1)
        with pytest.raises(TypeError):
            dyn.propagate(prob, grid, x=1.0)
        with pytest.raises(TypeError):
            replace(prob, free_hamiltonian=lambda x: 0.5 * x * dyn.SIGMA_Z)
        assert not hasattr(dyn, "build_liouvillian")


class TestBlochGenerators:
    # each generator against its 2x2 action on random states, with no
    # Liouville-space matrix on either side
    def test_precession_is_the_commutator(self):
        rng = np.random.default_rng(17)
        hs = np.array([3.0 * random_hermitian(rng) for _ in range(20)])
        np.testing.assert_array_equal(dyn._precession(hs), [dyn._precession(h) for h in hs])
        for h in hs:
            rho = random_density(rng)
            np.testing.assert_allclose(
                dyn._precession(h) @ dyn._bloch(rho),
                dyn._bloch(-1j * (h @ rho - rho @ h)),
                rtol=0,
                atol=1e-15 * np.abs(h).max(),
            )

    @pytest.mark.parametrize("noise", NOISE_MODELS.values(), ids=NOISE_MODELS.keys())
    def test_dissipation_is_the_lindblad_sum(self, noise):
        rng = np.random.default_rng(18)
        for _ in range(20):
            rho = random_density(rng)
            if isinstance(noise, dyn.Dephasing):
                sn = dephasing_axis(noise.theta, noise.phi)
                want, scale = 0.5 * noise.gamma * (sn @ rho @ sn - rho), noise.gamma
            elif isinstance(noise, dyn.SpontaneousEmission):
                want, scale = np.zeros((2, 2), dtype=complex), noise.gamma_plus + noise.gamma_minus
                jumps = ((noise.gamma_plus, SIGMA_PLUS), (noise.gamma_minus, SIGMA_MINUS))
                for rate, jump in jumps:
                    jdj = jump.conj().T @ jump
                    want += rate * (jump @ rho @ jump.conj().T - 0.5 * (jdj @ rho + rho @ jdj))
            else:
                want, scale = np.zeros((2, 2), dtype=complex), 0.0
            np.testing.assert_allclose(
                dyn._dissipation(noise) @ dyn._bloch(rho),
                dyn._bloch(want),
                rtol=0,
                atol=1e-15 * scale,
            )


class TestLiouvillian:
    def test_pure_free_assembly(self):
        prob = dyn.frequency_estimation_problem(1.3, None, dyn.plus_state(), 1.0)
        liou = dyn._generators(prob, np.zeros((1, 3)))[0]
        expected = pauli_superop(-1j * commutator_superop(0.5 * 1.3 * dyn.SIGMA_Z))
        np.testing.assert_allclose(liou, expected, atol=1e-14)

    def test_cancelling_control_leaves_pure_dissipator(self):
        noise = dyn.Dephasing(theta=math.pi / 2, phi=0.0, gamma=0.1)
        prob = dyn.frequency_estimation_problem(1.0, noise, dyn.plus_state(), 1.0)
        liou = dyn._generators(prob, np.array([[0.0, 0.0, -0.5]]))[0]
        np.testing.assert_allclose(liou, pauli_superop(dissipator(noise)), atol=1e-14)

    def test_trace_preservation_left_null_vector(self):
        rng = np.random.default_rng(4)
        ident = np.eye(4)[0]  # the trace functional in Pauli coordinates
        for _ in range(20):
            noise = dyn.Dephasing(
                theta=rng.uniform(0, math.pi), phi=rng.uniform(0, 2 * math.pi),
                gamma=rng.uniform(0, 1),
            )
            prob = dyn.frequency_estimation_problem(
                rng.uniform(0.5, 2), noise, dyn.plus_state(), 1.0
            )
            liou = dyn._generators(prob, rng.uniform(-1, 1, size=(1, 3)))[0]
            np.testing.assert_allclose(ident @ liou, 0.0, atol=1e-10)

    def test_amplitude_count_mismatch(self):
        prob = dyn.frequency_estimation_problem(1.0, None, dyn.plus_state(), 1.0)
        with pytest.raises(ValidationError):
            dyn.propagate(prob, dyn.ControlGrid.zeros(2, 2, 0.5))


class TestStepPropagator:
    def test_zero_generator_gives_identity(self):
        np.testing.assert_allclose(
            dyn._expm(np.zeros((4, 4)), 0.7), np.eye(4), atol=1e-15
        )

    def test_unitary_step_preserves_purity(self):
        rng = np.random.default_rng(8)
        h = random_hermitian(rng)
        liou = -1j * commutator_superop(h)
        prop = dyn._expm(liou, 0.01)
        rho = dyn.plus_state()
        r = bloch_from_density(unvectorize(prop @ vectorize(rho)))
        assert np.linalg.norm(r) == pytest.approx(1.0, abs=1e-10)

    def test_parallel_dephasing_single_step_closed_form(self):
        # spiral with the damped envelope; rotation sense fixed by the
        # decay-model solution adopted as the package convention
        gamma, omega, t = 0.1, 1.0, 2.0
        noise = dyn.Dephasing(theta=0.0, phi=0.0, gamma=gamma)
        prob = dyn.frequency_estimation_problem(omega, noise, dyn.plus_state(), t)
        liou = dyn._generators(prob, np.zeros((1, 3)))[0]
        prop = dyn._expm(liou, t)
        r = (prop @ [1.0, 1.0, 0.0, 0.0])[1:]
        envelope = math.exp(-gamma * t)
        np.testing.assert_allclose(
            r, [envelope * math.cos(omega * t), envelope * math.sin(omega * t), 0.0],
            atol=1e-12,
        )


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
    def test_real_input_agrees_with_the_complex_path(self, n):
        # real in, real out, by the arithmetic of the scipy-checked complex
        # path; scipy's own real path is the less accurate one on several of
        # these real parts (against a 40-digit reference), so it is not used.
        # Each real slice is also bitwise the same alone or in the stack.
        for name, a in kernel_cases(np.random.default_rng(40 + n), n).items():
            a = np.ascontiguousarray(a.real)
            got = dyn._expm(a, 0.5)
            assert got.dtype == np.float64, name
            want = dyn._expm(a.astype(complex), 0.5)
            norms = np.abs(0.5 * a).sum(axis=-2).max(axis=-1)
            err = np.abs(got - want).max(axis=(-2, -1)) / np.abs(want).max(axis=(-2, -1))
            assert (err <= 1e-14 * np.maximum(1.0, norms / 20.0)).all(), name
            for i, mat in enumerate(a):
                np.testing.assert_array_equal(got[i], dyn._expm(mat, 0.5), err_msg=name)

    @pytest.mark.parametrize("n", [4, 8])
    def test_each_slice_equals_a_solo_call(self, n):
        for name, a in kernel_cases(np.random.default_rng(50 + n), n).items():
            stacked = dyn._expm(a, 0.5)
            for i, mat in enumerate(a):
                np.testing.assert_array_equal(stacked[i], dyn._expm(mat, 0.5), err_msg=name)

    @pytest.mark.parametrize("n", [4, 8])
    def test_equals_matrix_major_reference(self, n):
        # the power-major layout, the single coefficient product and the
        # in-place Horner steps keep the arithmetic of the frozen
        # matrix-major kernel, real and complex
        for name, a in kernel_cases(np.random.default_rng(70 + n), n).items():
            for stack in (a, np.ascontiguousarray(a.real)):
                got, want = dyn._expm(stack, 0.5), expm_matrix_major(stack, 0.5)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        # n max|dt a| on both sides of theta18, with and without scaling
        rng = np.random.default_rng(80 + n)
        bound = dyn._THETA18 / n
        for ratio in (0.5, 0.9, 0.999, 1.0, 1.001, 1.1, 2.0, 8.0):
            a = rng.normal(size=(30, n, n)) + 1j * rng.normal(size=(30, n, n))
            for stack in (a, np.ascontiguousarray(a.real)):
                # each matrix's largest entry times n is ratio * theta18
                stack = stack * (ratio * bound / np.abs(stack).max(axis=(-2, -1)))[:, None, None]
                got, want = dyn._expm(stack, 1.0), expm_matrix_major(stack, 1.0)
                assert got.tobytes() == want.tobytes(), (ratio, stack.dtype)
                solo = dyn._expm(stack[0], 1.0)
                assert solo.tobytes() == expm_matrix_major(stack[0], 1.0).tobytes()
        # a stack long enough that the one coefficient product is far larger
        # than the per-matrix ones, which a BLAS may give to another kernel
        a = 0.3 * rng.normal(size=(2000, n, n))
        assert dyn._expm(a, 1.0).tobytes() == expm_matrix_major(a, 1.0).tobytes()
        # a non-finite entry
        for bad in (math.nan, math.inf):
            stack = 0.1 * rng.normal(size=(3, n, n))
            stack[1, 0, 1] = bad
            got, want = dyn._expm(stack, 1.0), expm_matrix_major(stack, 1.0)
            assert got.tobytes() == want.tobytes(), bad

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
        # the trace functional t = (1, 0, 0, 0) satisfies t R = 0, so
        # t exp(dt R) = t; a kernel that mixes the trace row with the others,
        # as a Pade quotient formed as (V+U)/(V-U) does, leaves a mean square
        # of about 1e-32 here
        rng = np.random.default_rng(60)
        prob = dyn.frequency_estimation_problem(1.0, noise, dyn.plus_state(), 1.0)
        lious = dyn._generators(prob, rng.uniform(-1, 1, size=(2000, 3)))
        t = np.eye(4)[0]
        dev = t @ dyn._expm(lious, 0.05) - t
        assert np.mean(np.abs(dev) ** 2) < 1e-33

    @pytest.mark.parametrize("noise", NOISE_MODELS.values(), ids=NOISE_MODELS.keys())
    def test_step_propagators_keep_the_trace_row_exactly(self, noise):
        # every power of a generator whose trace row is zero has a zero trace
        # row, so the Taylor polynomial's trace row is that of I, and squaring
        # keeps it.  The oblique axis leaves a rounding residue of about
        # 1e-17 at R[0, 0], below half an ulp of the 1 it is added to.  The
        # larger amplitudes take the scaling and squaring path.
        rng = np.random.default_rng(61)
        prob = dyn.frequency_estimation_problem(1.0, noise, dyn.plus_state(), 1.0)
        for scale in (1.0, 30.0, 1e3):
            gens = dyn._generators(prob, rng.uniform(-scale, scale, size=(500, 3)))
            props = dyn._expm(gens, 0.05)
            np.testing.assert_array_equal(props[:, 0], np.tile(np.eye(4)[0], (500, 1)))

    def test_theta18_is_the_double_precision_backward_error_bound(self):
        # f = e^-x T18(x) = 1 + O(x^19) and g = log f = sum_k g_k x^k, with
        # exact coefficients from g' f = f': k g_k = k f_k - sum_{0<i<k} i g_i f_{k-i}.
        # theta18 is the x at which sum_{k>18} |g_k| x^(k-1), the relative
        # backward error bound, reaches the unit roundoff 2^-53; at x near 1.09
        # the terms past k = 100 add less than 1e-59 of it
        n, degree = 100, 18
        inv_fact = [Fraction(1, math.factorial(k)) for k in range(n + 1)]
        f = [
            sum((-1) ** (k - i) * inv_fact[k - i] * inv_fact[i] for i in range(min(k, degree) + 1))
            for k in range(n + 1)
        ]
        g = [Fraction(0)] * (n + 1)
        for k in range(1, n + 1):
            g[k] = f[k] - sum(i * g[i] * f[k - i] for i in range(1, k)) / k
        assert not any(g[: degree + 1])
        tail = [(k, abs(float(g[k]))) for k in range(degree + 1, n + 1)]

        def bound(x):
            return sum(c * x ** (k - 1) for k, c in tail)

        lo, hi = 1.0, 1.2
        assert bound(lo) < 2.0**-53 < bound(hi)
        for _ in range(60):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if bound(mid) < 2.0**-53 else (lo, mid)
        assert math.isclose(dyn._THETA18, lo, rel_tol=1e-15)


class TestPropagate:
    def test_free_rotation_closed_form(self):
        prob = dyn.frequency_estimation_problem(1.0, None, dyn.plus_state(), 1.0)
        traj = dyn.propagate(prob, dyn.ControlGrid.zeros(100, 3, 0.01))
        r = bloch_from_density(traj.final_state)
        np.testing.assert_allclose(r, [math.cos(1.0), math.sin(1.0), 0.0], atol=1e-10)

    def test_matches_transverse_oracle_in_rotated_frame(self):
        # V3 = -omega0 flips the effective frequency; closed-form solution
        # depends on omega0 through the same damped (co)sines
        gamma, omega = 0.1, 1.0
        noise = dyn.Dephasing(theta=math.pi / 2, phi=0.0, gamma=gamma)
        for t in (0.5, 2.0, 5.0):
            m = int(round(t / 1e-3))
            prob = dyn.frequency_estimation_problem(omega, noise, dyn.plus_state(), t)
            grid = constant_grid([0.0, 0.0, -omega], m, 1e-3)
            traj = dyn.propagate(prob, grid)
            r = bloch_from_density(traj.final_state)
            np.testing.assert_allclose(r, transverse_bloch(gamma, omega, t), atol=1e-6)

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

    def test_amplitudes_must_be_a_table(self):
        with pytest.raises(ValidationError, match="ndim=1"):
            dyn.ControlGrid(np.zeros(4), 0.25)

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
        for field in ("coords", "sensitivity", "steps", "generators"):
            np.testing.assert_array_equal(
                getattr(stacked, field), getattr(stepwise, field), err_msg=field
            )

    @pytest.mark.parametrize("noise", NOISE_MODELS.values(), ids=NOISE_MODELS.keys())
    @pytest.mark.parametrize("m, x", [(100, 1.0), (40, 0.7), (7, -1.3)])
    def test_matches_liouville_space_reference(self, noise, m, x):
        rng = np.random.default_rng(9)
        prob = dyn.frequency_estimation_problem(x, noise, dyn.plus_state(), m * 0.05)
        grid = dyn.ControlGrid(rng.uniform(-1, 1, size=(m, 3)), 0.05)
        traj = dyn.propagate(prob, grid)
        want = propagate_liouville(prob, grid)
        np.testing.assert_allclose(traj.final_state, want.final_state, rtol=0, atol=1e-13)
        np.testing.assert_allclose(
            traj.final_state_derivative, want.final_state_derivative, rtol=0, atol=1e-13
        )

    def test_trajectory_arrays_are_real(self, noisy_trajectory):
        m = noisy_trajectory.n_steps
        for field, shape in (
            ("coords", (m + 1, 4)),
            ("sensitivity", (m + 1, 4)),
            ("steps", (m, 8, 8)),
            ("generators", (m, 4, 4)),
        ):
            value = getattr(noisy_trajectory, field)
            assert value.dtype == np.float64 and value.shape == shape, field
        assert noisy_trajectory.final_state.shape == (2, 2)
        assert noisy_trajectory.final_state_derivative.shape == (2, 2)

    @pytest.mark.parametrize("amplitude", [1e150, 1e300, 1e308])
    def test_overflowing_amplitudes_fail_at_step_one_without_warnings(self, amplitude):
        prob = dyn.frequency_estimation_problem(
            1.0, dyn.Dephasing(theta=math.pi / 2, phi=0.0, gamma=0.1), dyn.plus_state(), 1.0
        )
        grid = constant_grid([amplitude] * 3, 20, 0.05)
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
        r = bloch_from_density(traj.final_state)
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
        for rho in dyn._density(noisy_trajectory.coords):
            assert abs(np.trace(rho) - 1.0) < 1e-10
            assert np.abs(rho - rho.conj().T).max() < 1e-10

    def test_positivity_preserved(self, noisy_trajectory):
        for rho in dyn._density(noisy_trajectory.coords):
            assert np.linalg.eigvalsh(rho).min() > -1e-10

    def test_unitary_purity_preserved_with_controls(self):
        rng = np.random.default_rng(13)
        prob = dyn.frequency_estimation_problem(1.0, None, dyn.plus_state(), 2.0)
        grid = dyn.ControlGrid(rng.uniform(-1, 1, size=(40, 3)), 0.05)
        traj = dyn.propagate(prob, grid)
        for rho in dyn._density(traj.coords):
            assert np.linalg.norm(bloch_from_density(rho)) == pytest.approx(1.0, abs=1e-9)

    def test_phi_accumulator_is_hermitian_traceless(self, noisy_trajectory):
        for phi in dyn._density(noisy_trajectory.sensitivity):
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
        total = np.zeros(4)
        for i in range(1, m + 1):
            vec = prob.sensitivity_superop @ traj.coords[i]
            for j in range(i + 1, m + 1):
                vec = traj.steps[j - 1, :4, :4] @ vec
            total += vec
        np.testing.assert_allclose(
            dyn._density(dt * total), traj.final_state_derivative, atol=1e-12
        )

    def test_phi_consistent_with_central_difference_in_x(self):
        rng = np.random.default_rng(30)
        noise = dyn.Dephasing(theta=0.9, phi=0.2, gamma=0.15)
        m, dt = 40, 0.01
        prob = dyn.frequency_estimation_problem(1.0, noise, dyn.plus_state(), m * dt)
        grid = dyn.ControlGrid(rng.uniform(-1, 1, size=(m, 3)), dt)
        traj = dyn.propagate(prob, grid)
        delta = 1e-5
        rho_plus = dyn.propagate(replace(prob, x=1.0 + delta), grid).final_state
        rho_minus = dyn.propagate(replace(prob, x=1.0 - delta), grid).final_state
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
