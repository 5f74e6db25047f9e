import math

import numpy as np
import pytest

from qgrape import dynamics as dyn
from qgrape import experiments as exp
from qgrape import oracles
from qgrape.errors import ConfigError
from qgrape.grape import AscentConfig

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
        noise_kind="dephasing",
        noise_theta=math.pi / 2,
        noise_gamma=0.1,
        omega0_true=1.0,
        horizon=2.0,
        dt=0.1,
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
        assert config.noise_gamma == 0.1
        assert config.horizon == 2.0
        assert config.ascent.seed == 7
        again = exp.parse_config_text(exp.config_snapshot(config))
        assert again.noise_theta == config.noise_theta
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


class TestEnergyCost:
    def test_zero_schedule(self):
        table = exp.energy_cost(dyn.ControlGrid.zeros(10, 3, 0.5))
        assert all(e == 0.0 for _, e in table)
        assert table[-1][0] == pytest.approx(5.0)

    def test_constant_transverse_optimum(self):
        grid = dyn.ControlGrid.constant([0.0, 0.0, -0.5], 200, 0.05)
        table = exp.energy_cost(grid)
        assert table[-1][1] == pytest.approx(0.25 * 10.0, abs=1e-9)

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
        config = small_sweep_config(noise_gamma=0.0, sweep_points=2)
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

    def test_transverse_scan_tracks_oracle_within_five_percent(self):
        ascent = AscentConfig(
            dt=0.05, step_size=0.1, max_iterations=250, seed=0, momentum=0.95,
            convergence_tolerance=1e-10, init_mode="zero",
        )
        config = small_sweep_config(
            dt=0.05,
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
            noise_kind="spontaneous",
            noise_gamma_plus=0.02,
            noise_gamma_minus=0.1,
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
        grid, value = exp._optimize(problem, config, config.ascent.seed)
        assert record.tables["robustness_scan"][1]["qfi"] == pytest.approx(value, abs=1e-10)


class TestPulseScan:
    def test_parallel_pulse_scan_matches_oracle(self):
        config = small_sweep_config(
            noise_theta=0.0,
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
            noise_kind="spontaneous",
            noise_gamma_plus=0.02,
            noise_gamma_minus=0.1,
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
                noise_kind="spontaneous",
                noise_gamma=0.0,
                noise_gamma_minus=0.1,
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
        assert (out1 / "manifest.txt").exists()
        sched1 = (out1 / "schedule_design.csv").read_bytes()
        sched2 = (out2 / "schedule_design.csv").read_bytes()
        assert sched1 == sched2

    def test_csv_has_12_significant_digits_and_lf_endings(self, tmp_path):
        config = small_sweep_config(
            noise_theta=0.0,
            horizon=15.0,
            sweep_axis="t0",
            sweep_start=0.0,
            sweep_stop=15.0,
            sweep_points=4,
        )
        exp.write_run(exp.run_sweep(config), tmp_path)
        raw = (tmp_path / "pulse_scan.csv").read_bytes()
        assert b"\r" not in raw
        first_oracle_cell = raw.decode().splitlines()[1].split(",")[5]
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

    def test_schedule_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        grid = dyn.ControlGrid(rng.uniform(-1, 1, size=(7, 3)), 0.25)
        path = tmp_path / "schedule.csv"
        exp.write_schedule(path, grid)
        loaded = exp.read_schedule(path)
        assert loaded.dt == pytest.approx(grid.dt)
        np.testing.assert_allclose(loaded.amplitudes, grid.amplitudes, atol=1e-12)

    def test_flagged_point_keeps_sweep_going(self, tmp_path, monkeypatch):
        config = small_sweep_config(
            sweep_axis="omega_hat", sweep_start=0.95, sweep_stop=1.05, sweep_points=3
        )
        record = exp.run_sweep(config)
        assert record.flagged == []
        # poison one evaluation point
        calls = {"n": 0}
        real = exp._qfi_cfi_of_grid

        def flaky(problem, grid, povm, x=None):
            calls["n"] += 1
            if calls["n"] == 3:
                raise exp.QGrapeError("synthetic point failure")
            return real(problem, grid, povm, x=x)

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
        assert [line.split(":")[0] for line in record.below_uncontrolled] == ["T=1", "T=2"]
        assert "< uncontrolled_qfi" in record.below_uncontrolled[0]
        record.flagged.append("T=3: QGrapeError: synthetic")
        exp.write_run(record, tmp_path)
        manifest = (tmp_path / "manifest.txt").read_text()
        sections = {
            block.splitlines()[0]: block.splitlines()[1:] for block in manifest.split("\n\n")
        }
        assert sections["[flagged_points]"] == ["T=3: QGrapeError: synthetic"]
        assert sections["[below_uncontrolled]"] == record.below_uncontrolled
