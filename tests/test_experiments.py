import math
import re
from dataclasses import replace

import numpy as np
import pytest

from qgrape import dynamics as dyn
from qgrape import experiments as exp
from qgrape import fisher, grape, oracles
from qgrape.cli import main
from qgrape.errors import ConfigError, UndefinedRotationError
from qgrape.grape import AscentConfig
from reference_dynamics import constant_grid

BASE_CONFIG = """
# transverse dephasing scenario
noise = dephasing
noise.theta = 1.5707963267948966
noise.gamma = 0.1
omega0_true = 1.0
probe = plus
T = 2.0
dt = 0.1
objective = qfi
ascent.step_size = 0.1
ascent.max_iterations = 40
ascent.seed = 7
"""


def small_sweep_config(**overrides):
    ascent = AscentConfig(
        dt=0.1, step_size=0.1, max_iterations=30, seed=3, momentum=0.9,
        convergence_tolerance=1e-10, init_mode="zero",
    )
    fields = dict(
        noise=dyn.Dephasing(theta=math.pi / 2, phi=0.0, gamma=0.1),
        omega0_true=1.0,
        horizon=2.0,
        ascent=ascent,
        sweep_axis="theta",
        sweep_start=0.0,
        sweep_stop=math.pi,
        sweep_points=3,
    )
    fields.update(overrides)
    return exp.ScenarioConfig(**fields)


class TestConfigParsing:
    def test_round_trip_of_documented_keys(self):
        config = exp.parse_config_text(BASE_CONFIG)
        assert config.noise_kind == "dephasing"
        assert config.noise.gamma == 0.1
        assert config.horizon == 2.0
        assert config.ascent.seed == 7
        again = exp.parse_config_text(exp.config_snapshot(config))
        assert again.noise.theta == config.noise.theta
        assert again.ascent.step_size == config.ascent.step_size

    def test_unknown_key_rejected(self):
        # old configs may still carry the removed ascent options
        for key in ("foo", "ascent.backtracking", "ascent.init_low"):
            with pytest.raises(ConfigError, match="unknown key"):
                exp.parse_config_text(f"omega0_true = 1\nT = 1\n{key} = 2\n")

    def test_missing_required_key_rejected(self):
        with pytest.raises(ConfigError, match="omega0_true"):
            exp.parse_config_text("T = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            exp.parse_config_text("omega0_true = 1\nomega0_true = 2\nT = 1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            exp.parse_config_text("omega0_true = fast\nT = 1\n")

    def test_missing_file_named_in_error(self, tmp_path):
        missing = tmp_path / "missing.cfg"
        with pytest.raises(ConfigError, match="missing.cfg"):
            exp.load_config(missing)

    def test_comments_and_blank_lines_ignored(self):
        config = exp.parse_config_text("# hi\n\nomega0_true = 1.0 # trailing\nT = 1.0\n")
        assert config.omega0_true == 1.0

    def test_probe_forms(self):
        base = "omega0_true = 1\nT = 1\nprobe = {}\n"
        assert exp.parse_config_text(base.format("zero")).probe_state()[0, 0] == 1.0
        np.testing.assert_allclose(
            exp.parse_config_text(base.format("0.6,0.0,0.8")).probe_state(),
            dyn.density_from_bloch([0.6, 0.0, 0.8]),
        )
        with pytest.raises(ConfigError):
            exp.parse_config_text(base.format("left")).probe_state()


# the head of a t0 sweep: a pulse scan under parallel dephasing
PULSE = "noise = dephasing\nnoise.theta = 0\nsweep = t0\n"

# every key of the format that dephasing noise reads, each away from its default,
# in a horizon sweep, which reads every key
ALL_KEYS_CONFIG = """
noise = dephasing
noise.theta = 0.3
noise.phi = 0.2
noise.gamma = 0.15
omega0_true = 1.25
omega0_hat = 1.5
probe = 0.6,0.0,0.8
T = 3.5
dt = 0.07
objective = cfi
objective.povm = z
ascent.step_size = 0.2
ascent.max_iterations = 77
ascent.convergence_tolerance = 1e-9
ascent.seed = 13
ascent.init_mode = zero
ascent.momentum = 0.6
sweep = horizon
sweep.start = 0.5
sweep.stop = 2.5
sweep.points = 5
"""


class TestSnapshotFormat:
    """The exact snapshot text is part of the manifest format."""

    def test_all_keys(self):
        snapshot = exp.config_snapshot(exp.parse_config_text(ALL_KEYS_CONFIG))
        assert snapshot == ALL_KEYS_CONFIG.lstrip("\n").replace("1e-9", "1e-09")

    def test_noise_keys_of_the_selected_kind_only(self):
        emission = "noise = spontaneous\nnoise.gamma_plus = 0.01\nnoise.gamma_minus = 0.02\n"
        text = ALL_KEYS_CONFIG.replace(
            "noise = dephasing\nnoise.theta = 0.3\nnoise.phi = 0.2\nnoise.gamma = 0.15\n", emission
        )
        snapshot = exp.config_snapshot(exp.parse_config_text(text))
        assert snapshot == text.lstrip("\n").replace("1e-9", "1e-09")
        assert exp.parse_config_text(snapshot) == exp.parse_config_text(text)

    def test_required_keys_only(self):
        snapshot = exp.config_snapshot(exp.parse_config_text("omega0_true = 1\nT = 1\n"))
        assert snapshot == (
            "noise = none\n"
            "omega0_true = 1.0\n"
            "omega0_hat = 1.0\n"
            "probe = plus\n"
            "T = 1.0\n"
            "dt = 0.05\n"
            "objective = qfi\n"
            "objective.povm = pm\n"
            "ascent.step_size = 0.1\n"
            "ascent.max_iterations = 500\n"
            "ascent.convergence_tolerance = 1e-08\n"
            "ascent.seed = 0\n"
            "ascent.init_mode = random\n"
            "ascent.momentum = 0.0\n"
        )

    @pytest.mark.parametrize("mode", ["random_uniform", "user_supplied"])
    def test_library_only_init_modes_rejected(self, tmp_path, capsys, mode):
        text = f"omega0_true = 1\nT = 1\nascent.init_mode = {mode}\n"
        with pytest.raises(ConfigError):
            exp.parse_config_text(text)
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(text)
        assert main(["optimize", "--config", str(cfg)]) == 1
        assert "config error" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "noise",
        [
            "noise = dephasing\nnoise.gamma = -0.1\n",
            "noise = dephasing\nnoise.theta = 4.0\nnoise.gamma = 0.1\n",
            "noise = spontaneous\nnoise.gamma_minus = -0.2\n",
            "noise = dephasing\nnoise.phi = 7.0\nnoise.gamma = 0.1\n",
        ],
        ids=["dephasing_rate", "dephasing_angle", "emission_rate", "dephasing_phi"],
    )
    def test_bad_noise_rejected_when_loaded(self, tmp_path, capsys, noise):
        # checked once for the whole config, not flagged at every sweep point
        text = noise + "omega0_true = 1\nT = 1\nsweep = horizon\nsweep.start = 0.5\n"
        with pytest.raises(ConfigError, match="noise"):
            exp.parse_config_text(text)
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(text)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "noise, key, line",
        [
            ("noise = spontaneous\nnoise.gamma = -0.1\nnoise.theta = 9\n", "noise.gamma", 2),
            ("noise = spontaneous\nnoise.gamma_minus = 0.1\nnoise.phi = 0.2\n", "noise.phi", 3),
            ("noise = dephasing\nnoise.gamma = 0.1\nnoise.gamma_minus = 0.2\n",
             "noise.gamma_minus", 3),
            ("noise.gamma = 0.1\n", "noise.gamma", 1),
            # without a sweep, no sweep.* key is read; the scenario runs as simulate
            ("sweep.start = 0.5\n", "sweep.start", 1),
            ("sweep.stop = 3.0\n", "sweep.stop", 1),
            ("omega0_true = 1\nsweep.points = 1\n", "sweep.points", 2),
            # a t0 sweep reads the closed forms' keys alone: no design key
            (f"{PULSE}probe = zero\n", "probe", 4),
            (f"{PULSE}dt = 0.1\n", "dt", 4),
            (f"{PULSE}objective = cfi\n", "objective", 4),
            (f"{PULSE}ascent.seed = 3\n", "ascent.seed", 4),
            (f"{PULSE}omega0_hat = 1.1\n", "omega0_hat", 4),
            # a theta sweep climbs both probes, and its angle replaces noise.theta
            ("noise = dephasing\nsweep = theta\nprobe = zero\n", "probe", 3),
            ("noise = dephasing\nnoise.theta = 0.3\nsweep = theta\n", "noise.theta", 2),
        ],
        ids=["emission_gamma", "emission_phi", "dephasing_gamma_minus", "no_noise_gamma",
             "no_sweep_start", "no_sweep_stop", "no_sweep_points", "t0_probe", "t0_dt",
             "t0_objective", "t0_ascent_seed", "t0_omega0_hat", "theta_probe",
             "theta_noise_theta"],
    )
    def test_noise_keys_the_selected_kind_does_not_read_rejected(self, tmp_path, capsys,
                                                                 noise, key, line):
        # such a key would otherwise be accepted and never read
        sweep = re.search(r"^sweep = \w+$", noise, re.MULTILINE)
        if key.startswith("sweep."):
            text = noise + "T = 1\n" + ("" if "omega0_true" in noise else "omega0_true = 1\n")
            setting = "sweep = none"
            command = ["simulate"]
        else:
            text = noise + "omega0_true = 1\nT = 1\n" + ("" if sweep else "sweep = horizon\n")
            text += "sweep.start = 0.5\n"
            setting = sweep.group() if sweep else "noise = .*"
            command = ["sweep", "--out", str(tmp_path / "run")]
        with pytest.raises(ConfigError, match=f"<config>:{line}: {setting} does not read '{key}'"):
            exp.parse_config_text(text)
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(text)
        assert main([*command, "--config", str(cfg)]) == 1
        assert f"does not read '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "scenario",
        [
            {},
            dict(sweep_axis="horizon", sweep_start=1.0, sweep_stop=2.0, sweep_points=3),
            # every number an int, under keys whose parser reads a float
            dict(omega0_true=1, horizon=2, omega0_hat=1,
                 ascent=AscentConfig(dt=1, step_size=1, convergence_tolerance=1, momentum=0),
                 sweep_axis="horizon", sweep_start=1, sweep_stop=2, sweep_points=3),
        ],
        ids=["no_sweep", "horizon_sweep", "integers"],
    )
    @pytest.mark.parametrize(
        "noise",
        [
            None,
            dyn.Dephasing(theta=1.1, phi=0.4, gamma=0.2),
            dyn.SpontaneousEmission(gamma_plus=0.05, gamma_minus=0.1),
            dyn.Dephasing(theta=0, phi=0, gamma=1),
            dyn.SpontaneousEmission(gamma_plus=0, gamma_minus=1),
        ],
        ids=["noiseless", "oblique", "emission", "integer_parallel", "integer_emission"],
    )
    def test_snapshot_of_a_library_built_config_is_a_fixed_point(self, noise, scenario):
        fields = {**dict(omega0_true=1.0, horizon=2.0, ascent=AscentConfig()), **scenario}
        config = exp.ScenarioConfig(noise=noise, **fields)
        snapshot = exp.config_snapshot(config)
        again = exp.parse_config_text(snapshot)
        assert exp.config_snapshot(again) == snapshot
        assert (again.noise, again.sweep_axis) == (noise, config.sweep_axis)

    def test_snapshot_reloads_the_config_built_in_code(self):
        # every field, momentum among them, survives the file format; the
        # snapshot names the design frequency even when it is the true one
        config = small_sweep_config()
        assert config.ascent.momentum == 0.9
        again = exp.parse_config_text(exp.config_snapshot(config))
        assert again == replace(config, omega0_hat=config.omega0_true)

    @pytest.mark.parametrize("name", ["omega0_true", "omega0_hat", "sweep_start", "sweep_stop"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_numbers_rejected_in_code(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            small_sweep_config(**{name: value})

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("objective = foo", "unknown objective 'foo'"),
            ("objective.povm = y", "unknown POVM 'y'"),
            ("sweep = bogus", "unknown sweep axis 'bogus'"),
            ("sweep.points = 1", "sweep needs at least 2 points"),
            ("sweep.stop = 1.0", "sweep grid must be strictly increasing"),
            ("T = 0", "horizon must be finite and positive, got 0.0"),
            ("garbage", "expected 'key = value', got 'garbage'"),
            ("noise = foo", "unknown noise kind 'foo'"),
            ("probe = 1,2,x", "bad probe Bloch vector '1,2,x'"),
            ("probe = left", "probe must be 'plus', 'zero', or 'r1,r2,r3', got 'left'"),
        ],
        ids=["objective", "povm", "sweep_axis", "sweep_points", "sweep_order", "horizon",
             "no_equals", "noise_kind", "probe_cell", "probe_name"],
    )
    def test_bad_setting_rejected_when_loaded(self, tmp_path, capsys, setting, message):
        # checked once for the whole config, not flagged at every sweep point;
        # each setting replaces the key of the same name in a valid horizon sweep
        settings = {"omega0_true": "1.0", "T": "2.0", "sweep": "horizon",
                    "sweep.start": "1.0", "sweep.stop": "2.0", "sweep.points": "2"}
        key, _, value = setting.partition(" = ")
        settings[key] = value
        text = "".join(f"{k} = {v}\n" if v else f"{k}\n" for k, v in settings.items())
        with pytest.raises(ConfigError, match=re.escape(message)):
            exp.parse_config_text(text)
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(text)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_unknown_noise_model_rejected(self):
        with pytest.raises(ConfigError, match="unknown noise model"):
            exp.ScenarioConfig(omega0_true=1.0, horizon=1.0, ascent=AscentConfig(),
                               noise="dephasing")

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(noise=None), "theta sweep requires dephasing noise"),
            (dict(noise=dyn.Dephasing(theta=0.0, phi=0.0, gamma=0.1), sweep_axis="t0",
                  sweep_start=0.0, sweep_stop=3.0), "t0 grid must lie within [0, T]"),
            (dict(sweep_axis=None), "config declares no sweep axis"),
        ],
        ids=["theta_without_dephasing", "t0_beyond_horizon", "no_sweep_axis"],
    )
    def test_sweep_preconditions_rejected_when_run(self, overrides, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            exp.run_sweep(small_sweep_config(**overrides))

class TestEnergyCost:
    def test_zero_schedule(self):
        table = exp.energy_cost(dyn.ControlGrid.zeros(10, 3, 0.5))
        assert all(e == 0.0 for _, e in table)
        assert table[-1][0] == pytest.approx(5.0)

    def test_constant_transverse_optimum(self):
        grid = constant_grid([0.0, 0.0, -0.5], 200, 0.05)
        table = exp.energy_cost(grid)
        assert table[-1][1] == pytest.approx(0.25 * 10.0, abs=1e-9)

    def test_integer_step_width_writes_float_times(self, tmp_path):
        grid = dyn.ControlGrid(np.ones((3, 1)), 1)
        assert type(grid.dt) is float
        lines = exp._table_lines(("t", "energy"), exp.energy_cost(grid))
        assert lines[1] == "0.00000000000e+00,0.00000000000e+00"
        assert lines[-1] == "3.00000000000e+00,3.00000000000e+00"
        exp.write_schedule(tmp_path / "schedule.csv", grid)
        rows = (tmp_path / "schedule.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == [f"{t:.11e}" for t in (0.0, 1.0, 2.0)]

    def test_monotone_for_random_schedules(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            grid = dyn.ControlGrid(rng.uniform(-2, 2, size=(30, 3)), 0.1)
            energies = [e for _, e in exp.energy_cost(grid)]
            assert all(b >= a for a, b in zip(energies, energies[1:]))


@pytest.fixture(scope="module")
def record():
    return exp.run_sweep(small_sweep_config())


class TestThetaSweep:
    def test_tables_cover_both_probes(self, record):
        assert set(record.tables) == {"theta_probe_plus", "theta_probe_zero"}
        assert len(record.tables["theta_probe_plus"]) == 3

    def test_controlled_at_least_uncontrolled_for_plus_probe(self, record):
        for row in record.tables["theta_probe_plus"]:
            assert row["qfi"] >= row["uncontrolled_qfi"] - 1e-9

    def test_unitary_reference_column(self, record):
        for row in record.tables["theta_probe_plus"]:
            assert row["oracle_qfi"] == pytest.approx(4.0)

    def test_noiseless_limit_matches_reference(self):
        config = small_sweep_config(
            noise=dyn.Dephasing(theta=math.pi / 2, phi=0.0, gamma=0.0), sweep_points=2
        )
        record = exp.run_sweep(config)
        for row in record.tables["theta_probe_plus"]:
            assert row["qfi"] == pytest.approx(4.0, abs=1e-6)
            assert row["uncontrolled_qfi"] == pytest.approx(4.0, abs=1e-6)


class TestTimeScan:
    def test_columns_and_oracle_curve(self):
        config = small_sweep_config(
            sweep_axis="horizon", sweep_start=1.0, sweep_stop=2.0, sweep_points=2
        )
        record = exp.run_sweep(config)
        rows = record.tables["horizon_scan"]
        assert [row["axis"] for row in rows] == [1.0, 2.0]
        for row in rows:
            assert row["oracle_qfi"] == pytest.approx(
                oracles.transverse_controlled_qfi(0.1, row["axis"]), rel=1e-12
            )
            assert row["qfi"] >= row["uncontrolled_qfi"] - 1e-9
            assert row["qfi_per_t"] == pytest.approx(row["qfi"] / row["axis"])

    def test_noiseless_limit_matches_reference(self):
        config = small_sweep_config(
            noise=None, sweep_axis="horizon", sweep_start=1.0, sweep_stop=2.0, sweep_points=2
        )
        record = exp.run_sweep(config)
        for row in record.tables["horizon_scan"]:
            assert row["oracle_qfi"] == row["axis"] ** 2
            assert row["qfi"] == pytest.approx(row["axis"] ** 2, abs=1e-6)
            assert row["uncontrolled_qfi"] == pytest.approx(row["axis"] ** 2, abs=1e-6)

    def test_failed_ascent_flags_its_point_alone(self, monkeypatch):
        # an infinite gradient table for the 20-step member (T = 2) makes
        # each of its candidate schedules non-finite: its ascent fails at
        # iteration 1, and the other members climb as they do without it
        config = small_sweep_config(
            sweep_axis="horizon", sweep_start=1.0, sweep_stop=3.0, sweep_points=3,
            ascent=AscentConfig(dt=0.1, max_iterations=5, seed=1),
        )
        clean = exp.run_sweep(config)
        real = grape._gradients

        def infinite_for_one(evaluated, problem):
            tables = real(evaluated, problem)
            return [np.full_like(table, np.inf) if traj.n_steps == 20 else table
                    for (traj, _), table in zip(evaluated, tables)]

        monkeypatch.setattr(grape, "_gradients", infinite_for_one)
        record = exp.run_sweep(config)
        assert record.flagged == [
            "horizon=2: QGrapeError: ascent failed at iteration 1: ValidationError: control "
            "amplitudes must be finite"
        ]
        rows, clean_rows = record.tables["horizon_scan"], clean.tables["horizon_scan"]
        assert all(math.isnan(v) for k, v in rows[1].items() if k != "axis")
        assert [rows[0], rows[2]] == [clean_rows[0], clean_rows[2]]
        assert sorted(record.schedules) == ["schedule_horizon_000", "schedule_horizon_002"]
        for name, grid in record.schedules.items():
            assert np.array_equal(grid.amplitudes, clean.schedules[name].amplitudes)

    def test_transverse_scan_tracks_oracle_within_five_percent(self):
        ascent = AscentConfig(
            dt=0.05, step_size=0.1, max_iterations=250, seed=0, momentum=0.95,
            convergence_tolerance=1e-10, init_mode="zero",
        )
        config = small_sweep_config(
            ascent=ascent,
            sweep_axis="horizon",
            sweep_start=1.0,
            sweep_stop=2.0,
            sweep_points=2,
        )
        record = exp.run_sweep(config)
        for row in record.tables["horizon_scan"]:
            assert row["qfi"] >= 0.95 * row["oracle_qfi"]

    def test_emission_with_raising_rate_keeps_optimized_points(self):
        # the single-pulse reference assumes gamma_plus = 0, so it reads nan
        config = small_sweep_config(
            noise=dyn.SpontaneousEmission(gamma_plus=0.02, gamma_minus=0.1),
            sweep_axis="horizon",
            sweep_start=1.0,
            sweep_stop=2.0,
            sweep_points=2,
        )
        record = exp.run_sweep(config)
        assert record.flagged == []
        assert len(record.schedules) == 2
        for row in record.tables["horizon_scan"]:
            assert math.isfinite(row["qfi"]) and math.isfinite(row["cfi"])
            assert math.isnan(row["oracle_qfi"])


class TestRobustnessScan:
    def test_fixed_controls_under_mismatch(self):
        config = small_sweep_config(
            sweep_axis="omega_hat", sweep_start=0.9, sweep_stop=1.1, sweep_points=3
        )
        record = exp.run_sweep(config)
        rows = record.tables["robustness_scan"]
        assert len(rows) == 3
        assert "schedule_design" in record.schedules
        center = rows[1]
        assert center["axis"] == pytest.approx(1.0)
        assert center["qfi"] >= center["uncontrolled_qfi"] - 1e-9

    def test_matched_evaluation_equals_optimization_objective(self):
        config = small_sweep_config(
            sweep_axis="omega_hat", sweep_start=0.9, sweep_stop=1.1, sweep_points=3
        )
        record = exp.run_sweep(config)
        problem = exp._scenario_problem(config, config.design_frequency)
        report = grape.ascend(problem, config.ascent, config.objective())
        value = report.objective_history[-1]
        assert record.tables["robustness_scan"][1]["qfi"] == pytest.approx(value, abs=1e-10)

    def test_failed_design_ascent_aborts_the_sweep(self, tmp_path, capsys, monkeypatch):
        # an infinite gradient table leaves the design ascent no schedule to
        # try, so it fails at iteration 1 and no point is judged
        real = grape._gradients

        def infinite(evaluated, problem):
            return [np.full_like(table, np.inf) for table in real(evaluated, problem)]

        monkeypatch.setattr(grape, "_gradients", infinite)
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(BASE_CONFIG + "sweep = omega_hat\nsweep.start = 0.9\nsweep.stop = 1.1\n"
                       "sweep.points = 2\n")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert ("numerical failure: ascent failed at iteration 1: ValidationError: control "
                "amplitudes must be finite") in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


class TestPulseScan:
    def test_parallel_pulse_scan_matches_oracle(self):
        config = small_sweep_config(
            noise=dyn.Dephasing(theta=0.0, phi=0.0, gamma=0.1),
            horizon=15.0,
            sweep_axis="t0",
            sweep_start=0.0,
            sweep_stop=15.0,
            sweep_points=31,
        )
        record = exp.run_sweep(config)
        rows = record.tables["pulse_scan"]
        reference = oracles.parallel_free_qfi(0.1, 15.0)
        assert all(row["uncontrolled_qfi"] == pytest.approx(reference) for row in rows)
        assert any(row["oracle_qfi"] > reference for row in rows)

    def test_transverse_pulse_scan_rejected(self):
        config = small_sweep_config(sweep_axis="t0", sweep_stop=1.0)
        with pytest.raises(ConfigError):
            exp.run_sweep(config)

    def test_emission_pulse_scan_with_raising_rate_rejected(self):
        config = small_sweep_config(
            noise=dyn.SpontaneousEmission(gamma_plus=0.02, gamma_minus=0.1),
            sweep_axis="t0",
            sweep_start=0.0,
            sweep_stop=2.0,
            sweep_points=41,
        )
        with pytest.raises(ConfigError, match="gamma_plus"):
            exp.run_sweep(config)

    def test_spontaneous_pulse_scan_shows_gain_only_for_long_horizons(self):
        def scan(horizon):
            config = small_sweep_config(
                noise=dyn.SpontaneousEmission(gamma_plus=0.0, gamma_minus=0.1),
                horizon=horizon,
                sweep_axis="t0",
                sweep_start=0.0,
                sweep_stop=horizon,
                sweep_points=81,
            )
            rows = exp.run_sweep(config).tables["pulse_scan"]
            gain = max(row["oracle_qfi"] - row["uncontrolled_qfi"] for row in rows)
            return gain

        assert scan(16.0) > 0.0
        assert scan(8.0) <= scan(16.0)


class TestBestSinglePulse:
    CASES = {
        "parallel": (
            dict(noise=dyn.Dephasing(theta=0.0, phi=0.0, gamma=0.1)),
            oracles.parallel_single_pulse_qfi,
            0.1,
        ),
        "emission": (
            dict(noise=dyn.SpontaneousEmission(gamma_plus=0.0, gamma_minus=0.2)),
            oracles.spontaneous_single_pulse_qfi,
            0.2,
        ),
    }

    @pytest.mark.parametrize("noise", sorted(CASES))
    @pytest.mark.parametrize("horizon", [1.0, 4.5, 12.0])
    def test_stacked_scan_is_the_max_of_the_public_calls(self, noise, horizon):
        fields, closed_form, rate = self.CASES[noise]
        config = small_sweep_config(**fields)
        scalar = max(
            closed_form(rate, 1.0, horizon, float(t0)) for t0 in np.linspace(0.0, horizon, 400)
        )
        got = exp._best_single_pulse(config, horizon)
        # the closed forms' numpy.sin/cos/exp may round an array apart from
        # a single element
        assert abs(got - scalar) <= 4 * np.spacing(scalar)

    def test_first_failing_pulse_time_raises_its_error(self):
        # without decay the pre-pulse state at t0 = pi/2 and 3 pi/2 lies on
        # the y axis, so the back-to-plane rotation is undefined there; grid
        # point 199 of the best-pulse scan is pi/2
        horizon = math.pi / 2 * 399 / 199
        config = small_sweep_config(
            noise=dyn.SpontaneousEmission(gamma_plus=0.0, gamma_minus=0.0)
        )
        t0 = np.linspace(0.0, horizon, 400)[199]
        assert abs(t0 - math.pi / 2) < 1e-15
        with pytest.raises(UndefinedRotationError) as expected:
            oracles.spontaneous_single_pulse_qfi(0.0, 1.0, horizon, t0)
        with pytest.raises(UndefinedRotationError) as excinfo:
            exp._best_single_pulse(config, horizon)
        assert str(excinfo.value) == str(expected.value)
        # a horizon that holds both undefined pulse times: the first one raises
        scan = np.array([0.5, t0, 1.5 * math.pi])
        with pytest.raises(UndefinedRotationError) as excinfo:
            oracles.spontaneous_single_pulse_qfi(0.0, 1.0, 2.0 * math.pi, scan)
        assert str(excinfo.value) == str(expected.value)


class TestInformationOfGrid:
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
    def test_equals_the_fisher_functions_of_the_2x2_state(self, noise):
        # the sweep reads both from the trajectory's Pauli coordinates
        rng = np.random.default_rng(31)
        for probe, povm in ((dyn.plus_state(), fisher.Povm.plus_minus()),
                            (dyn.zero_state(), fisher.Povm.computational())):
            prob = dyn.frequency_estimation_problem(1.0, noise, probe, 2.0)
            grid = dyn.ControlGrid(rng.uniform(-1, 1, size=(40, 3)), 0.05)
            q, c = exp._qfi_cfi_of_grid(prob, grid, povm)
            traj = dyn.propagate(prob, grid)
            rho, drho = traj.final_state, traj.final_state_derivative
            assert q == pytest.approx(fisher.qfi(rho, drho), rel=1e-12, abs=1e-12)
            assert c == pytest.approx(fisher.cfi(rho, drho, povm), rel=1e-12, abs=1e-12)


class TestOutputFiles:
    def test_written_files_validate_and_reproduce(self, tmp_path):
        config = small_sweep_config(
            sweep_axis="omega_hat", sweep_start=0.95, sweep_stop=1.05, sweep_points=3
        )
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        exp.write_run(exp.run_sweep(config), out1)
        exp.write_run(exp.run_sweep(config), out2)
        csv1 = (out1 / "robustness_scan.csv").read_bytes()
        csv2 = (out2 / "robustness_scan.csv").read_bytes()
        assert csv1 == csv2
        exp.check_output_schema(out1 / "robustness_scan.csv")
        # trailing blank lines are dropped, as read_schedule drops them
        with open(out1 / "robustness_scan.csv", "a", encoding="utf-8") as table:
            table.write("\n\n")
        exp.check_output_schema(out1 / "robustness_scan.csv")
        assert (out1 / "manifest.txt").exists()
        sched1 = (out1 / "schedule_design.csv").read_bytes()
        sched2 = (out2 / "schedule_design.csv").read_bytes()
        assert sched1 == sched2

    def test_csv_has_12_significant_digits_and_lf_endings(self, tmp_path):
        config = small_sweep_config(
            noise=dyn.Dephasing(theta=0.0, phi=0.0, gamma=0.1),
            horizon=15.0,
            sweep_axis="t0",
            sweep_start=0.0,
            sweep_stop=15.0,
            sweep_points=4,
        )
        exp.write_run(exp.run_sweep(config), tmp_path)
        raw = (tmp_path / "pulse_scan.csv").read_bytes()
        assert b"\r" not in raw
        header, first_row = raw.decode().splitlines()[:2]
        assert header == "t0,oracle_qfi,uncontrolled_qfi"
        first_oracle_cell = first_row.split(",")[1]
        mantissa = first_oracle_cell.split("e")[0].replace("-", "").replace(".", "")
        assert len(mantissa) == 12

    def test_schema_check_rejects_malformed(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("theta,qfi\n1,2\n")
        with pytest.raises(ConfigError):
            exp.check_output_schema(bad)
        bad.write_text(
            "theta,qfi,qfi_per_t,qfi_per_t2,cfi,oracle_qfi,uncontrolled_qfi\n1,2\n"
        )
        with pytest.raises(ConfigError):
            exp.check_output_schema(bad)
        # a missing file is a ConfigError, as it is for read_schedule
        with pytest.raises(ConfigError, match="not found"):
            exp.check_output_schema(tmp_path / "missing.csv")

    @pytest.mark.parametrize(
        "reader, text, message",
        [
            (exp.read_schedule, "step_index,t_start,V_1\n0,0.0,1\n",
             "schedule needs at least two rows"),
            (exp.check_output_schema, "bogus," + ",".join(exp.METRIC_COLUMNS) + "\n1,2,3,4,5,6,7\n",
             "unknown sweep axis column 'bogus'"),
            # a pulse scan writes no optimized metric columns
            (exp.check_output_schema, "t0," + ",".join(exp.METRIC_COLUMNS) + "\n1,2,3,4,5,6,7\n",
             "malformed header"),
        ],
        ids=["one_row_schedule", "unknown_axis_column", "t0_metric_columns"],
    )
    def test_readers_reject_malformed_files(self, tmp_path, reader, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(message)):
            reader(path)

    def test_schedule_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        grid = dyn.ControlGrid(rng.uniform(-1, 1, size=(7, 3)), 0.25)
        path = tmp_path / "schedule.csv"
        exp.write_schedule(path, grid)
        loaded = exp.read_schedule(path)
        assert loaded.dt == pytest.approx(grid.dt)
        np.testing.assert_allclose(loaded.amplitudes, grid.amplitudes, atol=1e-12)

    @pytest.mark.parametrize(
        "axis, start, stop",
        [("theta", 0.0, math.pi), ("horizon", 1.0, 2.0), ("omega_hat", 0.9, 1.1)],
    )
    def test_schedules_read_back_with_their_horizon(self, tmp_path, axis, start, stop):
        config = small_sweep_config(
            ascent=AscentConfig(dt=0.1, max_iterations=3, init_mode="zero"),
            sweep_axis=axis, sweep_start=start, sweep_stop=stop, sweep_points=3,
        )
        record = exp.run_sweep(config)
        exp.write_run(record, tmp_path)
        grid = config.sweep_grid()
        assert record.schedules
        for name in record.schedules:
            schedule = exp.read_schedule(tmp_path / f"{name}.csv")
            horizon = grid[int(name[-3:])] if axis == "horizon" else config.horizon
            assert schedule.dt == pytest.approx(0.1)
            assert schedule.horizon == pytest.approx(horizon)

    def test_flagged_point_keeps_sweep_going(self, tmp_path, monkeypatch):
        config = small_sweep_config(
            sweep_axis="omega_hat", sweep_start=0.95, sweep_stop=1.05, sweep_points=3
        )
        record = exp.run_sweep(config)
        assert record.flagged == []
        # poison one evaluation point
        calls = {"n": 0}
        real = exp._qfi_cfi_of_grid

        def flaky(problem, grid, povm):
            calls["n"] += 1
            if calls["n"] == 3:
                raise exp.QGrapeError("synthetic point failure")
            return real(problem, grid, povm)

        monkeypatch.setattr(exp, "_qfi_cfi_of_grid", flaky)
        record = exp.run_sweep(config)
        assert len(record.flagged) == 1
        rows = record.tables["robustness_scan"]
        assert len(rows) == 3
        assert math.isnan(rows[1]["qfi"])
        assert not math.isnan(rows[0]["qfi"])

    def test_points_below_free_evolution_get_their_own_section(self, tmp_path):
        # 30 iterations from a random start end below the zero schedule at both horizons
        config = exp.parse_config_text(
            "noise = spontaneous\nnoise.gamma_plus = 0.02\nnoise.gamma_minus = 0.1\n"
            "omega0_true = 1.0\nT = 2.0\ndt = 0.1\nascent.max_iterations = 30\n"
            "sweep = horizon\nsweep.start = 1.0\nsweep.stop = 2.0\nsweep.points = 2\n"
        )
        record = exp.run_sweep(config)
        rows = record.tables["horizon_scan"]
        assert all(row["qfi"] < row["uncontrolled_qfi"] for row in rows)
        assert [line.split(":")[0] for line in record.below_uncontrolled] == ["horizon=1", "horizon=2"]
        assert "< uncontrolled_qfi" in record.below_uncontrolled[0]
        record.flagged.append("horizon=3: QGrapeError: synthetic")
        exp.write_run(record, tmp_path)
        manifest = (tmp_path / "manifest.txt").read_text()
        sections = {
            block.splitlines()[0]: block.splitlines()[1:] for block in manifest.split("\n\n")
        }
        assert sections["[flagged_points]"] == ["horizon=3: QGrapeError: synthetic"]
        assert sections["[below_uncontrolled]"] == record.below_uncontrolled

    def test_points_are_judged_by_the_metric_their_ascent_climbed(self, monkeypatch):
        # the climbed CFI rises from 0 under free evolution while the QFI
        # ends below free evolution's: no point is listed
        config = exp.parse_config_text(
            "noise = spontaneous\nnoise.gamma_minus = 0.2\nprobe = plus\nobjective = cfi\n"
            "objective.povm = z\nomega0_true = 1.0\nT = 3.0\nascent.max_iterations = 20\n"
            "sweep = horizon\nsweep.start = 1.0\nsweep.stop = 3.0\nsweep.points = 3\n"
        )
        record = exp.run_sweep(config)
        rows = record.tables["horizon_scan"]
        assert all(row["qfi"] < row["uncontrolled_qfi"] and row["cfi"] > 0 for row in rows)
        assert record.below_uncontrolled == []
        # a controlled CFI pushed below free evolution's is listed by its name
        real = exp._qfi_cfi_of_grid

        def lowered(problem, grid, povm):
            q, c = real(problem, grid, povm)
            return q, c - 10.0 if grid.amplitudes.any() else c

        monkeypatch.setattr(exp, "_qfi_cfi_of_grid", lowered)
        below = exp.run_sweep(config).below_uncontrolled
        assert [line.split(":")[0] for line in below] == ["horizon=1", "horizon=2", "horizon=3"]
        assert all(" < uncontrolled_cfi 0" in line for line in below)


def _run_files(config, out) -> dict[str, bytes]:
    """Every file a sweep writes, the manifest without its wall clock."""
    exp.write_run(exp.run_sweep(config), out)
    files = {path.name: path.read_bytes() for path in out.iterdir()}
    files["manifest.txt"] = b"".join(
        line for line in files["manifest.txt"].splitlines(keepends=True)
        if not line.startswith(b"wall_clock_seconds")
    )
    return files


class TestLockStepSweep:
    """``run_sweep`` climbs all points in one lock-step batch; every file it
    writes is the same bytes as when each point climbs in a batch of its own."""

    @pytest.mark.parametrize(
        "overrides",
        [
            # ragged step counts, one horizon (1.55) off the step grid
            dict(sweep_axis="horizon", sweep_start=0.1, sweep_stop=3.0, sweep_points=5,
                 noise=dyn.SpontaneousEmission(gamma_plus=0.02, gamma_minus=0.1)),
            dict(sweep_axis="horizon", sweep_start=1.0, sweep_stop=4.0, sweep_points=4,
                 objective_kind="cfi"),
            dict(sweep_axis="theta", sweep_points=5,
                 noise=dyn.Dephasing(theta=1.1, phi=0.4, gamma=0.2)),
        ],
        ids=["horizon", "horizon_cfi", "theta"],
    )
    def test_same_bytes_as_one_member_batches(self, tmp_path, monkeypatch, overrides):
        ascent = AscentConfig(dt=0.1, max_iterations=15, seed=2, momentum=0.8)
        config = small_sweep_config(ascent=ascent, **overrides)
        together = _run_files(config, tmp_path / "together")

        def one_member_batches(problems, configs, objective):
            return [grape.ascend_batch([p], [c], objective)[0] for p, c in zip(problems, configs)]

        monkeypatch.setattr(exp, "ascend_batch", one_member_batches)
        assert _run_files(config, tmp_path / "alone") == together

    def test_free_evolution_error_comes_before_the_ascent(self):
        # every trajectory of this model loses positivity at step 1, the free
        # evolution's as well as the ascent's start: the point reports the
        # former, not "ascent failed at iteration 0: ..."
        noise = dyn.SpontaneousEmission(0.05, 0.2)
        object.__setattr__(noise, "gamma_minus", -0.6)
        config = small_sweep_config(
            noise=noise, probe="zero", sweep_axis="horizon", sweep_start=1.0, sweep_stop=2.0,
            ascent=AscentConfig(dt=0.1, max_iterations=3),
        )
        record = exp.run_sweep(config)
        assert [line.split(": ", 1)[1] for line in record.flagged] == 3 * [
            "NumericalStabilityError: state lost positivity/trace at step 1 "
            "(min eigenvalue -6.168e-02)"
        ]
