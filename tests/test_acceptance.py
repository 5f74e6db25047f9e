"""End-to-end acceptance suite.

Each test exercises one scenario-level requirement at its stated tolerance
and prints a PASS/FAIL line (run with ``pytest -s`` to see them live).
Runtimes are desk scale; the optimization-heavy cases take tens of seconds.
"""

import math

import numpy as np

from qgrape import dynamics as dyn
from qgrape import experiments as exp
from qgrape import fisher, grape, oracles
from reference_dynamics import constant_grid
from reference_fisher import povm_along

OMEGA = 1.0
# controls built from an estimate infinitesimally off the true frequency:
# the exact cancellation point is a removable discontinuity of the
# support-restricted information (see README), and every physical estimate
# is detuned anyway
DESIGN_DETUNING = 1e-4


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def transverse_problem(gamma, horizon, omega=OMEGA, probe=None):
    return dyn.frequency_estimation_problem(
        omega,
        dyn.Dephasing(theta=math.pi / 2, phi=0.0, gamma=gamma),
        dyn.plus_state() if probe is None else probe,
        horizon,
    )


def parallel_problem(gamma, horizon, omega=OMEGA):
    return dyn.frequency_estimation_problem(
        omega, dyn.Dephasing(theta=0.0, phi=0.0, gamma=gamma), dyn.plus_state(), horizon
    )


def emission_problem(gamma_minus, horizon, omega=OMEGA):
    return dyn.frequency_estimation_problem(
        omega,
        dyn.SpontaneousEmission(gamma_plus=0.0, gamma_minus=gamma_minus),
        dyn.plus_state(),
        horizon,
    )


def held_at_plus_controls(n_steps, dt, design_omega):
    return constant_grid([0.0, 0.0, -0.5 * design_omega], n_steps, dt)


def pipeline_qfi(problem, grid):
    traj = dyn.propagate(problem, grid)
    return fisher.qfi(traj.final_state, traj.final_state_derivative)


def qfi_along_trajectory(traj, stride):
    times, values = [], []
    for j in range(stride, traj.n_steps + 1, stride):
        times.append(j * traj.dt)
        values.append(
            fisher.qfi(dyn._density(traj.coords[j]), dyn._density(traj.dt * traj.sensitivity[j]))
        )
    return np.array(times), np.array(values)


def test_criterion_01_transverse_closed_form():
    gamma, dt = 0.1, 1e-3
    design = OMEGA * (1 + DESIGN_DETUNING)
    worst = 0.0
    for horizon in (1.0, 5.0, 10.0, 20.0):
        m = int(round(horizon / dt))
        problem = transverse_problem(gamma, horizon)
        value = pipeline_qfi(problem, held_at_plus_controls(m, dt, design))
        target = oracles.transverse_controlled_qfi(gamma, horizon)
        worst = max(worst, abs(value / target - 1.0))
    target_5 = oracles.transverse_controlled_qfi(gamma, 5.0)
    ok = worst <= 1e-3 and abs(target_5 - 21.306) < 1e-3
    report(1, ok, f"held-at-plus pipeline vs closed form, worst rel err {worst:.2e} "
                  f"(T=5 target {target_5:.3f})")


def test_criterion_02_parallel_uncontrolled():
    gamma, dt = 0.1, 1e-3
    worst = 0.0
    for t in (2.0, 10.0, 20.0):
        problem = parallel_problem(gamma, t)
        grid = dyn.ControlGrid.zeros(int(round(t / dt)), 3, dt)
        value = pipeline_qfi(problem, grid)
        worst = max(worst, abs(value / oracles.parallel_free_qfi(gamma, t) - 1.0))

    scan_dt, stride, horizon = 0.05, 5, 25.0
    problem = parallel_problem(gamma, horizon)
    traj = dyn.propagate(problem, dyn.ControlGrid.zeros(int(horizon / scan_dt), 3, scan_dt))
    times, values = qfi_along_trajectory(traj, stride)
    peak = times[int(np.argmax(values))]
    cell = stride * scan_dt
    ok = worst <= 1e-3 and abs(peak - 1.0 / gamma) <= cell + 1e-12
    report(2, ok, f"free parallel dephasing, worst rel err {worst:.2e}, "
                  f"peak at t={peak:.2f} (expected {1 / gamma:.1f} +/- {cell:.2f})")


def test_criterion_03_spontaneous_uncontrolled():
    gamma, dt = 0.1, 1e-3
    worst = 0.0
    for t in (2.0, 10.0, 20.0):
        problem = emission_problem(gamma, t)
        grid = dyn.ControlGrid.zeros(int(round(t / dt)), 3, dt)
        value = pipeline_qfi(problem, grid)
        worst = max(worst, abs(value / oracles.spontaneous_free_qfi(0.0, gamma, t) - 1.0))

    scan_dt, stride, horizon = 0.05, 5, 40.0
    problem = emission_problem(gamma, horizon)
    traj = dyn.propagate(problem, dyn.ControlGrid.zeros(int(horizon / scan_dt), 3, scan_dt))
    times, values = qfi_along_trajectory(traj, stride)
    peak = times[int(np.argmax(values))]
    cell = stride * scan_dt
    ok = worst <= 1e-3 and abs(peak - 2.0 / gamma) <= cell + 1e-12
    report(3, ok, f"free decay, worst rel err {worst:.2e}, "
                  f"peak at t={peak:.2f} (expected {2 / gamma:.1f} +/- {cell:.2f})")


def test_criterion_04_gradient_oracle():
    m, p, dt, delta = 40, 3, 0.05, 1e-5
    n_schedules = 20
    noise_models = {
        "transverse": dyn.Dephasing(theta=math.pi / 2, phi=0.0, gamma=0.1),
        "parallel": dyn.Dephasing(theta=0.0, phi=0.0, gamma=0.1),
        "emission": dyn.SpontaneousEmission(gamma_plus=0.05, gamma_minus=0.1),
        "noiseless": None,
    }
    povm = fisher.Povm.plus_minus()
    rng = np.random.default_rng(2024)
    worst_abs = 0.0
    failures = []
    for name, noise in noise_models.items():
        problem = dyn.frequency_estimation_problem(
            OMEGA, noise, dyn.plus_state(), m * dt
        )
        for index in range(n_schedules):
            grid = dyn.ControlGrid(rng.uniform(-1, 1, size=(m, p)), dt)
            traj = dyn.propagate(problem, grid)
            for objective in (grape.qfi_objective(), grape.cfi_objective(povm)):
                analytic = grape.gradient(traj, problem, objective)
                numeric = grape.finite_difference_gradient(problem, grid, objective, delta)
                diff = np.abs(analytic - numeric)
                rel = diff / np.maximum(np.abs(numeric), 1e-300)
                entry_ok = (rel <= 1e-2) | (diff <= 1e-6)
                if not entry_ok.all():
                    failures.append((name, index, objective.kind))
                worst_abs = max(worst_abs, diff.max())
    ok = not failures
    report(4, ok, f"analytic vs central-difference gradients over "
                  f"{n_schedules} schedules x {len(noise_models)} noise models x "
                  f"{{qfi, cfi}}, worst abs deviation {worst_abs:.2e}"
                  + (f"; failures: {failures}" if failures else ""))


def test_criterion_05_ascent_recovers_transverse_optimum():
    gamma, horizon = 0.1, 5.0
    problem = transverse_problem(gamma, horizon)
    config = grape.AscentConfig(
        dt=0.05,
        step_size=0.1,
        max_iterations=1000,
        seed=0,
        momentum=0.95,
        convergence_tolerance=1e-10,
    )
    result = grape.ascend(problem, config, grape.qfi_objective())
    final = result.objective_history[-1]
    target = oracles.transverse_controlled_qfi(gamma, horizon)
    ok = final >= 0.95 * target and result.iterations_used <= 1000
    report(5, ok, f"random-init ascent reached {final:.3f} = "
                  f"{final / target:.3f} x closed form in {result.iterations_used} iterations")


def test_criterion_06_controlled_transverse_monotone_in_horizon():
    gamma = 0.1
    values = [oracles.transverse_controlled_qfi(gamma, t) for t in range(1, 31)]
    strictly_increasing = all(b > a for a, b in zip(values, values[1:]))
    # numeric pipeline spot checks on the same grid
    dt = 1e-3
    design = OMEGA * (1 + DESIGN_DETUNING)
    numeric_ok = True
    for horizon in (1.0, 8.0, 30.0):
        m = int(round(horizon / dt))
        value = pipeline_qfi(
            transverse_problem(gamma, horizon), held_at_plus_controls(m, dt, design)
        )
        numeric_ok &= abs(value / oracles.transverse_controlled_qfi(gamma, horizon) - 1) < 1e-3
    ok = strictly_increasing and numeric_ok
    report(6, ok, "controlled transverse information strictly increasing on T = 1..30, "
                  "numeric spot checks consistent")


def test_criterion_07_enhancement_ordering_across_angles():
    gamma, horizon, dt, m = 0.1, 5.0, 0.05, 100
    thetas = np.linspace(0.0, math.pi, 11)
    ratios = []
    for index, theta in enumerate(thetas):
        noise = dyn.Dephasing(theta=float(theta), phi=0.0, gamma=gamma)
        problem = dyn.frequency_estimation_problem(OMEGA, noise, dyn.plus_state(), horizon)
        free_value = pipeline_qfi(problem, dyn.ControlGrid.zeros(m, 3, dt))
        config = grape.AscentConfig(
            dt=dt,
            step_size=0.1,
            max_iterations=250,
            seed=0,
            momentum=0.95,
            init_mode="zero",
            convergence_tolerance=1e-10,
        )
        result = grape.ascend(problem, config, grape.qfi_objective())
        ratios.append(result.objective_history[-1] / free_value)
    ratios = np.array(ratios)
    ok = (
        int(np.argmax(ratios)) == 5  # theta = pi/2
        and abs(ratios[0] - ratios.min()) < 1e-9  # theta = 0 sits at the minimum
    )
    report(7, ok, f"enhancement ratio max {ratios.max():.3f} at theta index "
                  f"{int(np.argmax(ratios))} (pi/2 = 5), min {ratios.min():.4f} at theta = 0")


def test_criterion_08_single_pulse_parallel_strategy():
    gamma = 0.1
    def best_pulse(horizon):
        t0 = np.linspace(0.0, horizon, 800)
        return oracles.parallel_single_pulse_qfi(gamma, OMEGA, horizon, t0).max()

    long_gain = best_pulse(15.0) - oracles.parallel_free_qfi(gamma, 15.0)
    short_gain = best_pulse(5.0) - oracles.parallel_free_qfi(gamma, 5.0)
    ok = long_gain > 0.0 and short_gain <= 1e-12
    report(8, ok, f"single-pulse gain at T=15: {long_gain:+.3f}; at T=5: {short_gain:+.2e}")


def test_criterion_09_cfi_bounded_and_saturating():
    rng = np.random.default_rng(99)
    violations = 0
    for _ in range(200):
        r = rng.normal(size=3)
        r *= rng.uniform(0.05, 0.95) / np.linalg.norm(r)
        rho = dyn.density_from_bloch(r)
        dr = rng.normal(size=3) * 0.5
        drho = 0.5 * (dr[0] * dyn.SIGMA_X + dr[1] * dyn.SIGMA_Y + dr[2] * dyn.SIGMA_Z)
        axis = rng.normal(size=3)
        povm = povm_along(axis)
        if fisher.cfi(rho, drho, povm) > fisher.qfi(rho, drho) + 1e-9:
            violations += 1

    gamma, horizon = 0.1, 5.0
    problem = transverse_problem(gamma, horizon)
    povm = fisher.Povm.plus_minus()
    config = grape.AscentConfig(
        dt=0.05,
        step_size=0.1,
        max_iterations=600,
        seed=0,
        momentum=0.95,
        convergence_tolerance=1e-10,
    )
    result = grape.ascend(problem, config, grape.cfi_objective(povm))
    traj = dyn.propagate(problem, result.final_grid)
    drho = traj.final_state_derivative
    cfi_value = fisher.cfi(traj.final_state, drho, povm)
    qfi_value = fisher.qfi(traj.final_state, drho)
    ok = violations == 0 and cfi_value >= 0.98 * qfi_value
    report(9, ok, f"cfi <= qfi on 200 random triples ({violations} violations); "
                  f"optimized transverse cfi/qfi = {cfi_value / qfi_value:.4f} "
                  f"(cfi = {cfi_value:.2f}, closed-form max "
                  f"{oracles.transverse_controlled_qfi(gamma, horizon):.2f})")


def test_criterion_10_robustness_of_held_at_plus_controls():
    gamma, horizon, dt = 0.2, 20.0, 0.01
    m = int(round(horizon / dt))
    design = OMEGA * (1 + DESIGN_DETUNING)
    controls = held_at_plus_controls(m, dt, design)
    free = dyn.ControlGrid.zeros(m, 3, dt)

    problem_matched = transverse_problem(gamma, horizon)
    matched_controlled = pipeline_qfi(problem_matched, controls)
    matched_free = pipeline_qfi(problem_matched, free)

    all_above = True
    edge_ratio = np.inf
    for omega in np.linspace(0.8, 1.2, 9):
        problem = transverse_problem(gamma, horizon, omega=float(omega))
        controlled = pipeline_qfi(problem, controls)
        uncontrolled = pipeline_qfi(problem, free)
        all_above &= controlled > uncontrolled
        edge_ratio = min(edge_ratio, controlled / uncontrolled)
    ok = matched_controlled >= 10.0 * matched_free and all_above
    report(10, ok, f"matched-frequency gain {matched_controlled / matched_free:.1f}x "
                   f"(>= 10x required); min gain over [0.8, 1.2]: {edge_ratio:.2f}x")


def test_criterion_11_energy_cost():
    grid = held_at_plus_controls(200, 0.05, OMEGA)
    table = exp.energy_cost(grid)
    final_t, final_e = table[-1]
    constant_ok = abs(final_e - 0.25 * final_t) <= 1e-9
    rng = np.random.default_rng(7)
    monotone_ok = True
    for _ in range(20):
        sched = dyn.ControlGrid(rng.uniform(-2, 2, size=(50, 3)), 0.1)
        energies = [e for _, e in exp.energy_cost(sched)]
        monotone_ok &= all(b >= a for a, b in zip(energies, energies[1:]))
    ok = constant_ok and monotone_ok
    report(11, ok, f"held-at-plus schedule: E(T) = {final_e:.10f} vs 0.25 T = "
                   f"{0.25 * final_t:.10f}; energy monotone on 20 random schedules "
                   f"(closed-form trajectory comparison replaced by the monotonicity "
                   f"property: the reported curves depend on an unreported optimizer path)")


def test_criterion_12_normalized_information_not_improved_by_control():
    gamma, dt = 0.1, 0.05
    horizons = (2.0, 5.0, 8.0, 12.0, 16.0, 20.0)
    best_free = max(oracles.parallel_free_qfi(gamma, t) / t for t in horizons)
    best_controlled = 0.0
    for horizon in horizons:
        problem = parallel_problem(gamma, horizon)
        config = grape.AscentConfig(
            dt=dt,
            step_size=0.1,
            max_iterations=150,
            seed=0,
            momentum=0.95,
            convergence_tolerance=1e-10,
        )
        result = grape.ascend(problem, config, grape.qfi_objective())
        best_controlled = max(best_controlled, result.objective_history[-1] / horizon)
    ok = best_controlled <= 1.05 * best_free
    report(12, ok, f"max optimized F/T = {best_controlled:.3f} vs "
                   f"1.05 x max uncontrolled F/T = {1.05 * best_free:.3f}")
