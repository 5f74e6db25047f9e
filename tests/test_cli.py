import numpy as np
import pytest

from qgrape import dynamics as dyn
from qgrape import experiments as exp
from qgrape.cli import main

SWEEP_CONFIG = """
noise = dephasing
noise.theta = 1.5707963267948966
noise.gamma = 0.1
omega0_true = 1.0
T = 2.0
dt = 0.1
ascent.step_size = 0.1
ascent.max_iterations = 20
ascent.seed = 5
ascent.init_mode = zero
sweep = omega_hat
sweep.start = 0.95
sweep.stop = 1.05
sweep.points = 3
"""

# one tiny sweep per axis, and the table each one writes
AXIS_SWEEPS = {
    "theta": (
        SWEEP_CONFIG.replace("sweep = omega_hat", "sweep = theta")
        .replace("sweep.stop = 1.05", "sweep.stop = 3.0"),
        ("theta_probe_plus.csv", "theta_probe_zero.csv"),
    ),
    "horizon": (
        SWEEP_CONFIG.replace("sweep = omega_hat", "sweep = horizon")
        .replace("sweep.start = 0.95", "sweep.start = 1.0")
        .replace("sweep.stop = 1.05", "sweep.stop = 2.0"),
        ("horizon_scan.csv",),
    ),
    "omega_hat": (SWEEP_CONFIG, ("robustness_scan.csv",)),
    "t0": (
        SWEEP_CONFIG.replace("noise.theta = 1.5707963267948966", "noise.theta = 0.0")
        .replace("sweep = omega_hat", "sweep = t0")
        .replace("sweep.start = 0.95", "sweep.start = 0.0")
        .replace("sweep.stop = 1.05", "sweep.stop = 2.0"),
        ("pulse_scan.csv",),
    ),
}


def test_oracle_transverse_prints_six_significant_digits(capsys):
    assert main(["oracle", "transverse", "--gamma", "0.1", "--horizon", "5"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "21.3061"


def test_oracle_parallel_and_spontaneous(capsys):
    assert main(["oracle", "parallel", "--gamma", "0.1", "--horizon", "10"]) == 0
    assert capsys.readouterr().out.strip() == "13.5335"
    assert main(
        ["oracle", "spontaneous", "--gamma-minus", "0.1", "--horizon", "20"]
    ) == 0
    assert capsys.readouterr().out.strip() == "54.1341"


def test_oracle_pulse_models(capsys):
    assert main(
        ["oracle", "parallel-pulse", "--gamma", "0.1", "--horizon", "15", "--t0", "0"]
    ) == 0
    assert float(capsys.readouterr().out) == pytest.approx(0.0, abs=1e-12)
    assert main(
        ["oracle", "spontaneous-pulse", "--gamma-minus", "0.1", "--horizon", "16",
         "--t0", "0"]
    ) == 0
    assert float(capsys.readouterr().out) == pytest.approx(256 * np.exp(-1.6), rel=1e-4)


def test_missing_config_exits_one_and_names_file(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    code = main(["optimize", "--config", str(missing)])
    assert code == 1
    assert "missing.cfg" in capsys.readouterr().err


def test_bad_config_key_exits_one(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("omega0_true = 1\nT = 1\nturbo = yes\n")
    assert main(["simulate", "--config", str(cfg)]) == 1
    assert "turbo" in capsys.readouterr().err


def test_simulate_reports_information(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("noise = dephasing\nnoise.gamma = 0.1\nomega0_true = 1.0\nT = 2.0\ndt = 0.1\n")
    assert main(["simulate", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "qfi = " in out and "cfi = " in out


def test_optimize_writes_schedule_and_history(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(
        "noise = dephasing\nnoise.gamma = 0.1\nomega0_true = 1.0\nT = 2.0\ndt = 0.1\n"
        "ascent.max_iterations = 10\nascent.init_mode = zero\n"
    )
    out_dir = tmp_path / "run"
    assert main(["optimize", "--config", str(cfg), "--out", str(out_dir)]) == 0
    assert (out_dir / "schedule.csv").exists()
    history = (out_dir / "history.csv").read_text().splitlines()
    assert history[0] == "iteration,objective"
    assert len(history) == 12  # header + initial + 10 iterations


@pytest.mark.parametrize("axis", sorted(AXIS_SWEEPS))
def test_sweep_writes_deterministic_outputs(tmp_path, axis):
    text, tables = AXIS_SWEEPS[axis]
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(text)
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(out2)]) == 0
    csvs = sorted(path.name for path in out1.glob("*.csv"))
    assert set(tables) <= set(csvs)
    assert csvs == sorted(path.name for path in out2.glob("*.csv"))
    for name in csvs:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    for name in tables:
        exp.check_output_schema(out1 / name)
    assert (out1 / "manifest.txt").read_text().startswith("[versions]")


def test_sweep_counts_points_below_free_evolution(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "noise = spontaneous\nnoise.gamma_plus = 0.02\nnoise.gamma_minus = 0.1\n"
        "omega0_true = 1.0\nT = 2.0\ndt = 0.1\nascent.max_iterations = 30\n"
        "sweep = horizon\nsweep.start = 1.0\nsweep.stop = 2.0\nsweep.points = 2\n"
    )
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    assert "2 optimized point(s) below free evolution" in capsys.readouterr().err
    assert "[below_uncontrolled]" in (tmp_path / "run" / "manifest.txt").read_text()


def test_sweep_without_out_dir_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CONFIG)
    assert main(["sweep", "--config", str(cfg)]) == 1


def test_usage_errors_exit_one(tmp_path, capsys):
    # 2 is reserved for numerical failures
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CONFIG)
    out = str(tmp_path / "run")
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", str(cfg), "--out", out, "--workers", "2"])
    assert exc.value.code == 1
    assert "--workers" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--out", out])
    assert exc.value.code == 1
    assert "--config" in capsys.readouterr().err
    # simulate writes nothing and runs no ascent
    for flag, value in (("--out", out), ("--seed", "3")):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(cfg), flag, value])
        assert exc.value.code == 1
        assert flag in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--help"])
    assert exc.value.code == 0


def test_seed_override_changes_outputs(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    text = SWEEP_CONFIG.replace("ascent.init_mode = zero", "ascent.init_mode = random")
    cfg.write_text(text)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(out2), "--seed", "99"]) == 0
    name = "robustness_scan.csv"
    assert (out1 / name).read_bytes() != (out2 / name).read_bytes()


def test_numerical_failure_exits_two(tmp_path, capsys, monkeypatch):
    import qgrape.cli as cli_module
    from qgrape.errors import NumericalStabilityError

    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("noise = dephasing\nnoise.gamma = 0.1\nomega0_true = 1.0\nT = 1.0\ndt = 0.1\n")

    def blow_up(*args, **kwargs):
        raise NumericalStabilityError("state lost positivity at step 3", step=3)

    monkeypatch.setattr(cli_module, "propagate", blow_up)
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_schedule_horizon_mismatch_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("omega0_true = 1.0\nT = 2.0\ndt = 0.1\n")
    sched = tmp_path / "schedule.csv"
    exp.write_schedule(sched, dyn.ControlGrid.zeros(5, 3, 0.1))  # horizon 0.5 != 2.0
    assert main(["simulate", "--config", str(cfg), "--schedule", str(sched)]) == 1


def test_energy_command(tmp_path, capsys):
    sched = tmp_path / "schedule.csv"
    grid = dyn.ControlGrid.constant([0.0, 0.0, -0.5], 200, 0.05)
    exp.write_schedule(sched, grid)
    assert main(["energy", "--schedule", str(sched)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t,energy"
    t_final, e_final = (float(x) for x in lines[-1].split(","))
    assert t_final == pytest.approx(10.0)
    assert e_final == pytest.approx(2.5, abs=1e-9)


@pytest.mark.parametrize(
    "rows, bad_line",
    [
        ("0,0.0,0,0,1\n1,0.5,0,x,1\n", 3),  # non-numeric cell
        ("0,0.0,0,0,1\n1,0.5,0,0\n", 3),  # ragged row
        ("0,0.0,0,0,1\n1\n", 3),  # step index only
        ("0,0.0,0,0,1\n1,0.5,0,0,1\n2,0.7,0,0,1\n", 4),  # non-uniform t_start
    ],
    ids=["non_numeric", "ragged", "index_only", "non_uniform"],
)
def test_malformed_schedule_is_config_error(tmp_path, capsys, rows, bad_line):
    sched = tmp_path / "bad.csv"
    sched.write_text("step_index,t_start,V_1,V_2,V_3\n" + rows)
    assert main(["energy", "--schedule", str(sched)]) == 1
    assert f"bad.csv:{bad_line}:" in capsys.readouterr().err


def test_simulate_with_schedule_file(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(
        "noise = dephasing\nnoise.gamma = 0.1\nomega0_true = 1.0\nT = 5.0\ndt = 0.05\n"
    )
    sched = tmp_path / "schedule.csv"
    exp.write_schedule(sched, dyn.ControlGrid.constant([0.0, 0.0, -0.5 * 1.0001], 100, 0.05))
    assert main(["simulate", "--config", str(cfg), "--schedule", str(sched)]) == 0
    out = capsys.readouterr().out
    qfi_line = next(line for line in out.splitlines() if line.startswith("qfi"))
    assert float(qfi_line.split("=")[1]) == pytest.approx(21.306, abs=0.01)
