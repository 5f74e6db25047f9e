import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qgrape
from qgrape import dynamics as dyn
from qgrape import experiments as exp
from qgrape import fisher, grape
from qgrape.cli import main
from qgrape.errors import ValidationError
from reference_dynamics import constant_grid

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
    # a theta sweep sets no noise.theta: the swept angle replaces it
    "theta": (
        SWEEP_CONFIG.replace("noise.theta = 1.5707963267948966\n", "")
        .replace("sweep = omega_hat", "sweep = theta")
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
    # a t0 sweep runs no ascent, so it sets no dt and no ascent.* key
    "t0": (
        SWEEP_CONFIG.replace("noise.theta = 1.5707963267948966", "noise.theta = 0.0")
        .replace("dt = 0.1\n", "")
        .replace("ascent.step_size = 0.1\nascent.max_iterations = 20\n"
                 "ascent.seed = 5\nascent.init_mode = zero\n", "")
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


def test_oracle_spontaneous_pulse_rejects_raising_rate(capsys):
    # the back-to-plane closed form holds for decay alone: it has no --gamma-plus
    args = ["spontaneous-pulse", "--gamma-plus", "0.1", "--horizon", "4", "--t0", "1"]
    with pytest.raises(SystemExit) as exc:
        main(["oracle", *args])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --gamma-plus 0.1" in captured.err


# each oracle model with every flag it takes, the value it prints, and a flag
# of another model
ORACLE_MODELS = {
    "transverse": (["--gamma", "0.1", "--horizon", "5"], "21.3061", ["--omega0", "2"]),
    "parallel": (["--gamma", "0.1", "--horizon", "10"], "13.5335", ["--t0", "1"]),
    "spontaneous": (["--gamma-plus", "0", "--gamma-minus", "0.1", "--horizon", "20"],
                    "54.1341", ["--gamma", "0.1"]),
    "parallel-pulse": (["--gamma", "0.1", "--omega0", "1", "--horizon", "15", "--t0", "4"],
                       "8.71018", ["--gamma-minus", "0.1"]),
    "spontaneous-pulse": (["--gamma-minus", "0.1", "--omega0", "1", "--horizon", "16",
                           "--t0", "7.1"], "60.799", ["--gamma", "0.1"]),
}


@pytest.mark.parametrize("model", sorted(ORACLE_MODELS))
def test_oracle_models_take_exactly_their_parameters(model, capsys):
    own, printed, foreign = ORACLE_MODELS[model]
    assert main(["oracle", model, *own]) == 0
    assert capsys.readouterr().out == printed + "\n"
    for extra in (foreign, ["--verbose"]):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", model, *own, *extra])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and f"unrecognized arguments: {' '.join(extra)}" in captured.err


@pytest.mark.parametrize(
    "args, name",
    [
        (["transverse", "--horizon", "nan"], "horizon"),
        (["parallel", "--horizon", "inf"], "horizon"),
        (["transverse", "--gamma", "nan", "--horizon", "5"], "gamma"),
        (["parallel", "--gamma=-inf", "--horizon", "5"], "gamma"),
        (["spontaneous", "--gamma-minus", "nan", "--horizon", "5"], "gamma_minus"),
        (["parallel-pulse", "--horizon", "inf"], "horizon"),
        (["spontaneous-pulse", "--horizon", "5", "--omega0", "nan"], "omega0"),
    ],
)
def test_oracle_rejects_non_finite_numbers(args, name, capsys):
    assert main(["oracle", *args]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert name in captured.err and "finite" in captured.err


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
    # a byte that does not decode as UTF-8 is a config error naming its line
    cfg.write_bytes(b"omega0_true = 1\nT = 1 \xff\n")
    assert main(["simulate", "--config", str(cfg)]) == 1
    assert "bad.cfg:2: not UTF-8 text" in capsys.readouterr().err


def test_simulate_reports_information(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("noise = dephasing\nnoise.gamma = 0.1\nomega0_true = 1.0\nT = 2.0\ndt = 0.1\n")
    assert main(["simulate", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "qfi = " in out and "cfi = " in out


@pytest.mark.parametrize(
    "noise",
    ["", "noise = dephasing\nnoise.theta = 1.1\nnoise.phi = 0.4\nnoise.gamma = 0.2\n",
     "noise = spontaneous\nnoise.gamma_plus = 0.05\nnoise.gamma_minus = 0.1\n"],
    ids=["noiseless", "oblique_dephasing", "emission"],
)
def test_simulate_free_evolution_reaches_t_squared_noiseless_alone(tmp_path, capsys, noise):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(noise + "omega0_true = 1.0\nT = 1.0\n")
    assert main(["simulate", "--config", str(cfg)]) == 0
    qfi = capsys.readouterr().out.splitlines()[0]
    if noise:
        assert 0 < float(qfi.removeprefix("qfi = ")) < 1
    else:
        assert qfi == "qfi = 1"


def test_probe_is_checked_against_the_positivity_slack(tmp_path, capsys):
    # |r| = 1 + 1e-10 is within dynamics.POSITIVITY_SLACK; |r| = 1 + 1e-9 is not
    cfg = tmp_path / "scenario.cfg"
    for r1, status in (("1.0000000001", 0), ("1.000000001", 1)):
        cfg.write_text(f"probe = {r1},0,0\nomega0_true = 1.0\nT = 1.0\n")
        assert main(["simulate", "--config", str(cfg)]) == status
    assert capsys.readouterr().err == (
        "config error: bad probe Bloch vector '1.000000001,0,0': "
        "density matrix has negative eigenvalue -5.000e-10\n")


def test_simulate_reports_the_fisher_functions_of_the_2x2_state(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("noise = spontaneous\nnoise.gamma_minus = 0.1\nomega0_true = 1.0\nT = 2.0\n"
                   "dt = 0.1\nobjective.povm = z\n")
    sched = tmp_path / "schedule.csv"
    grid = dyn.ControlGrid(np.random.default_rng(4).uniform(-1, 1, size=(20, 3)), 0.1)
    exp.write_schedule(sched, grid)
    assert main(["simulate", "--config", str(cfg), "--schedule", str(sched)]) == 0
    config = exp.load_config(cfg)
    traj = dyn.propagate(exp._scenario_problem(config, config.omega0_true), grid)
    rho, drho = traj.final_state, traj.final_state_derivative
    assert capsys.readouterr().out.splitlines() == [
        f"qfi = {fisher.qfi(rho, drho):.6g}",
        f"cfi = {fisher.cfi(rho, drho, config.povm()):.6g}",
    ]


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


def test_optimize_snapshot_reruns_to_the_same_schedule(tmp_path):
    # a heavy-ball ascent set from a file and a --seed: config.cfg keeps both
    # keys, and a run of it writes the same schedule, byte for byte
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("omega0_true = 1.0\nT = 1.0\nascent.max_iterations = 3\n"
                   "ascent.momentum = 0.9\n")
    first, again = tmp_path / "first", tmp_path / "again"
    assert main(["optimize", "--config", str(cfg), "--seed", "3", "--out", str(first)]) == 0
    snapshot = (first / "config.cfg").read_text().splitlines()
    assert {"ascent.momentum = 0.9", "ascent.seed = 3"} <= set(snapshot)
    assert main(["optimize", "--config", str(first / "config.cfg"), "--out", str(again)]) == 0
    assert (first / "schedule.csv").read_bytes() == (again / "schedule.csv").read_bytes()


def test_one_step_schedule_is_not_read_back(tmp_path, capsys):
    # one row states no step width: reading it back is a config error
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("omega0_true = 1.0\nT = 0.1\ndt = 0.1\nascent.max_iterations = 2\n")
    out_dir = tmp_path / "run"
    assert main(["optimize", "--config", str(cfg), "--out", str(out_dir)]) == 0
    assert len((out_dir / "schedule.csv").read_text().splitlines()) == 2
    capsys.readouterr()
    schedule = ["--schedule", str(out_dir / "schedule.csv")]
    for command in (["energy"], ["simulate", "--config", str(cfg)]):
        assert main([*command, *schedule]) == 1
        assert "schedule needs at least two rows to infer dt" in capsys.readouterr().err


def test_dt_override_sets_the_one_step_width(tmp_path):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(
        "noise = dephasing\nnoise.gamma = 0.1\nomega0_true = 1.0\nT = 2.0\ndt = 0.1\n"
        "ascent.max_iterations = 3\n"
    )
    out_dir = tmp_path / "run"
    assert main(["optimize", "--config", str(cfg), "--dt", "0.05", "--out", str(out_dir)]) == 0
    schedule = exp.read_schedule(out_dir / "schedule.csv")
    assert schedule.dt == pytest.approx(0.05)
    assert schedule.horizon == pytest.approx(2.0)
    assert "dt = 0.05" in (out_dir / "config.cfg").read_text().splitlines()


def _src_env() -> dict[str, str]:
    """The environment of a child Python that imports this checkout's qgrape."""
    src = str(Path(qgrape.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_runs_without_scipy(tmp_path):
    # every command, and a two-iteration sweep on each axis, with scipy
    # unimportable and a floating-point warning an error, as in the suite
    cfg = tmp_path / "free.cfg"
    cfg.write_text("omega0_true = 1.0\nT = 1.0\nascent.max_iterations = 2\n")
    runs = [
        ["oracle", "transverse", "--horizon", "5"],
        # the single-pulse closed form, through the stacked Fisher kernel
        ["oracle", "parallel-pulse", "--gamma", "0.1", "--horizon", "15", "--t0", "4"],
        ["simulate", "--config", str(cfg)],
        ["optimize", "--config", str(cfg), "--out", str(tmp_path / "opt")],
        ["energy", "--schedule", str(tmp_path / "opt" / "schedule.csv")],
    ]
    for axis, (text, _) in AXIS_SWEEPS.items():
        swept = tmp_path / f"{axis}.cfg"
        swept.write_text(text.replace("max_iterations = 20", "max_iterations = 2"))
        runs.append(["sweep", "--config", str(swept), "--out", str(tmp_path / axis)])
    script = "import sys\nsys.modules['scipy'] = None\nfrom qgrape.cli import main\n" + "".join(
        f"assert main({argv!r}) == 0, {argv[0]!r}\n" for argv in runs)
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", script],
                          env=_src_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[:3] == ["21.3061", "8.71018", "qfi = 1"]
    for axis, (_, tables) in AXIS_SWEEPS.items():
        assert all((tmp_path / axis / name).exists() for name in tables)


@pytest.mark.parametrize("args, status", [([], 0), (["--omega0", "2"], 1)],
                         ids=["value", "usage_error"])
def test_module_exits_with_the_status_of_main(args, status):
    # `sys.exit(main())`, and the parser's usage error, as process exit codes
    argv = [sys.executable, "-m", "qgrape.cli", "oracle", "transverse", *args, "--horizon", "5"]
    done = subprocess.run(argv, env=_src_env(), capture_output=True, text=True)
    assert done.returncode == status, done.stderr
    assert done.stdout == ("21.3061\n" if status == 0 else "")


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


def test_sweep_bytes_do_not_depend_on_the_cores(tmp_path, monkeypatch):
    # a theta sweep's four heavy-ball ascents (two probes at each of two
    # angles) climb as one share in this process on one core, and as two
    # shares, one in a forked child, on two
    cfg = tmp_path / "theta.cfg"
    cfg.write_text("noise = dephasing\nnoise.gamma = 0.1\nomega0_true = 1.0\nT = 1.0\n"
                   "sweep = theta\nsweep.start = 0.5\nsweep.stop = 1.5\nsweep.points = 2\n"
                   "ascent.max_iterations = 3\nascent.momentum = 0.9\n")
    forks, real = [], os.fork

    def fork():
        pid = real()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    files = {}
    for cores in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        out = tmp_path / f"cores{cores}"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        files[cores] = {path.name: path.read_bytes() for path in out.glob("*.csv")}
        assert len(forks) == cores - 1
    assert len(files[1]) == 6 and files[1] == files[2]


@pytest.mark.parametrize("flag", [["--seed", "5"], ["--dt", "0.3"]])
def test_sweep_rejects_a_flag_its_axis_does_not_read(tmp_path, capsys, flag):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(AXIS_SWEEPS["t0"][0])
    out = tmp_path / "run"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), *flag]) == 1
    assert capsys.readouterr().err == f"config error: sweep = t0 does not read '{flag[0]}'\n"
    assert not out.exists()


def test_optimize_and_simulate_reject_a_flag_the_axis_does_not_read(tmp_path, capsys):
    # optimize's config.cfg would leave the flag's key out, so a run of that
    # snapshot would climb another ascent
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(AXIS_SWEEPS["t0"][0])
    out = ["--out", str(tmp_path / "run")]
    for argv in (["optimize", *out, "--seed", "3"], ["optimize", *out, "--dt", "0.3"],
                 ["simulate", "--dt", "0.3"]):
        assert main([*argv, "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"config error: sweep = t0 does not read '{argv[-2]}'\n"
    assert not (tmp_path / "run").exists()


def test_manifest_records_a_seed_where_the_axis_reads_one(tmp_path):
    manifests = {}
    for axis, flags in (("t0", []), ("horizon", ["--seed", "7"])):
        cfg = tmp_path / f"{axis}.cfg"
        cfg.write_text(AXIS_SWEEPS[axis][0].replace("max_iterations = 20", "max_iterations = 2"))
        out = tmp_path / axis
        assert main(["sweep", "--config", str(cfg), "--out", str(out), *flags]) == 0
        manifests[axis] = (out / "manifest.txt").read_text().splitlines()
    assert not [line for line in manifests["t0"] if line.startswith("seed")]
    run = manifests["horizon"].index("[run]")
    assert manifests["horizon"][run + 1] == "seed = 7"


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


def test_out_path_that_is_a_file_exits_one(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CONFIG)
    taken = tmp_path / "taken"
    taken.write_text("")
    for command in ("optimize", "sweep"):
        assert main([command, "--config", str(cfg), "--out", str(taken)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("file error: ") and str(taken) in err
        assert "Traceback" not in err


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


NAN, INF = math.nan, math.inf


# each non-finite file value, and the library constructors that value reaches
@pytest.mark.parametrize(
    "key, value, constructors",
    [
        ("dt", "nan", [lambda: grape.AscentConfig(dt=NAN),
                       lambda: dyn.ControlGrid.zeros(3, 3, NAN),
                       lambda: dyn.step_count(2.0, NAN)]),
        ("T", "nan", [lambda: dyn.frequency_estimation_problem(1.0, None, dyn.plus_state(), NAN),
                      lambda: dyn.step_count(NAN, 0.1)]),
        ("T", "inf", [lambda: dyn.frequency_estimation_problem(1.0, None, dyn.plus_state(), INF),
                      lambda: dyn.step_count(INF, 0.1)]),
        ("noise.gamma", "nan", [lambda: dyn.Dephasing(theta=0.0, phi=0.0, gamma=NAN),
                                lambda: dyn.SpontaneousEmission(NAN, 0.1),
                                lambda: dyn.SpontaneousEmission(0.0, NAN)]),
        ("ascent.step_size", "nan", [lambda: grape.AscentConfig(step_size=NAN),
                                     lambda: grape.AscentConfig(convergence_tolerance=NAN)]),
    ],
    ids=["dt_nan", "T_nan", "T_inf", "gamma_nan", "step_size_nan"],
)
def test_non_finite_values_are_rejected_where_they_enter(tmp_path, capsys, key, value,
                                                         constructors):
    values = {"noise": "dephasing", "noise.gamma": "0.1", "omega0_true": "1.0", "T": "2.0",
              "dt": "0.1", key: value}
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    assert main(["optimize", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    line = list(values).index(key) + 1
    assert err.startswith("config error") and f"scenario.cfg:{line}:" in err
    for build in constructors:
        with pytest.raises(ValidationError):
            build()


def test_simulate_rejects_dt_with_schedule(tmp_path, capsys):
    # the schedule's t_start column sets the step width; 2.0 is no multiple of 0.3
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("noise = dephasing\nnoise.gamma = 0.1\nomega0_true = 1.0\nT = 2.0\ndt = 0.1\n")
    sched = tmp_path / "schedule.csv"
    exp.write_schedule(sched, dyn.ControlGrid.zeros(20, 3, 0.1))
    argv = ["simulate", "--config", str(cfg), "--schedule", str(sched)]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--dt", "0.3"])
    assert exc.value.code == 1
    assert "argument --dt: not allowed with argument --schedule" in capsys.readouterr().err
    assert main(argv) == 0


def test_verbose_only_on_simulate(tmp_path, capsys):
    # simulate is the one command that reads it
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("noise = dephasing\nnoise.gamma = 0.1\nomega0_true = 1.0\nT = 2.0\ndt = 0.1\n")
    assert main(["simulate", "--config", str(cfg), "--verbose"]) == 0
    assert "qfi_per_t2 = " in capsys.readouterr().out
    sched = tmp_path / "schedule.csv"
    exp.write_schedule(sched, dyn.ControlGrid.zeros(20, 3, 0.1))
    for argv in (["optimize", "--config", str(cfg)],
                 ["sweep", "--config", str(cfg), "--out", str(tmp_path / "run")],
                 ["energy", "--schedule", str(sched)]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--verbose"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --verbose" in capsys.readouterr().err


def test_numerical_failure_exits_two(tmp_path, capsys, monkeypatch):
    from qgrape.errors import NumericalStabilityError

    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("noise = dephasing\nnoise.gamma = 0.1\nomega0_true = 1.0\nT = 1.0\ndt = 0.1\n")

    def blow_up(*args, **kwargs):
        raise NumericalStabilityError("state lost positivity at step 3", step=3)

    # simulate evaluates its schedule through the sweep runner's function
    monkeypatch.setattr(exp, "propagate", blow_up)
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "numerical failure" in capsys.readouterr().err

    # so do a sweep's judged points, starting with free evolution: each is
    # flagged, and the sweep still exits 0
    swept = tmp_path / "sweep.cfg"
    swept.write_text(cfg.read_text() + "ascent.max_iterations = 2\nsweep = horizon\n"
                     "sweep.start = 0.5\nsweep.stop = 1.0\nsweep.points = 2\n")
    assert main(["sweep", "--config", str(swept), "--out", str(tmp_path / "run")]) == 0
    assert "2 point(s) flagged; see manifest" in capsys.readouterr().err
    manifest = (tmp_path / "run" / "manifest.txt").read_text()
    assert "horizon=0.5: NumericalStabilityError: state lost positivity at step 3" in manifest

    # an ascent whose gradient raises ends optimize with its iteration
    monkeypatch.setattr(grape, "_gradients", blow_up)
    assert main(["optimize", "--config", str(cfg)]) == 2
    assert ("numerical failure: ascent failed at iteration 1: NumericalStabilityError: "
            "state lost positivity at step 3") in capsys.readouterr().err


def test_schedule_horizon_mismatch_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("omega0_true = 1.0\nT = 2.0\ndt = 0.1\n")
    sched = tmp_path / "schedule.csv"
    exp.write_schedule(sched, dyn.ControlGrid.zeros(5, 3, 0.1))  # horizon 0.5 != 2.0
    assert main(["simulate", "--config", str(cfg), "--schedule", str(sched)]) == 1


def test_energy_command(tmp_path, capsys):
    sched = tmp_path / "schedule.csv"
    grid = constant_grid([0.0, 0.0, -0.5], 200, 0.05)
    exp.write_schedule(sched, grid)
    assert main(["energy", "--schedule", str(sched)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t,energy"
    t_final, e_final = (float(x) for x in lines[-1].split(","))
    assert t_final == pytest.approx(10.0)
    assert e_final == pytest.approx(2.5, abs=1e-9)


def test_energy_out_writes_the_printed_table(tmp_path, capsys):
    sched = tmp_path / "schedule.csv"
    exp.write_schedule(sched, constant_grid([0.0, 0.0, -0.5], 20, 0.05))
    assert main(["energy", "--schedule", str(sched)]) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "run" / "energy.csv"
    assert main(["energy", "--schedule", str(sched), "--out", str(out.parent)]) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    assert out.read_text() == printed


SCHEDULE_HEADER = "step_index,t_start,V_1,V_2,V_3\n"


@pytest.mark.parametrize(
    "text, bad_line",
    [
        (SCHEDULE_HEADER + "0,0.0,0,0,1\n1,0.5,0,x,1\n", 3),  # non-numeric cell
        (SCHEDULE_HEADER + "0,0.0,0,0,1\n1,0.5,0,0\n", 3),  # ragged row
        (SCHEDULE_HEADER + "0,0.0,0,0,1\n1\n", 3),  # step index only
        (SCHEDULE_HEADER + "0,0.0,0,0,1\n1,0.5,0,0,1\n2,0.7,0,0,1\n", 4),  # non-uniform t_start
        # the header's first two cells are exactly step_index,t_start
        ("step_index,t_start_s,V_1,V_2,V_3\n0,0.0,0,0,1\n1,0.5,0,0,1\n", 1),
        (SCHEDULE_HEADER + "0,0.0,0,0,1\n1,0.5,0,\xff,1\n", 3),  # not UTF-8 once written
    ],
    ids=["non_numeric", "ragged", "index_only", "non_uniform", "renamed_t_start", "non_utf8"],
)
def test_malformed_schedule_is_config_error(tmp_path, capsys, text, bad_line):
    sched = tmp_path / "bad.csv"
    sched.write_text(text, encoding="latin-1")  # one byte per character
    assert main(["energy", "--schedule", str(sched)]) == 1
    assert f"bad.csv:{bad_line}:" in capsys.readouterr().err


def test_simulate_with_schedule_file(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(
        "noise = dephasing\nnoise.gamma = 0.1\nomega0_true = 1.0\nT = 5.0\ndt = 0.05\n"
    )
    sched = tmp_path / "schedule.csv"
    exp.write_schedule(sched, constant_grid([0.0, 0.0, -0.5 * 1.0001], 100, 0.05))
    assert main(["simulate", "--config", str(cfg), "--schedule", str(sched)]) == 0
    out = capsys.readouterr().out
    qfi_line = next(line for line in out.splitlines() if line.startswith("qfi"))
    assert float(qfi_line.split("=")[1]) == pytest.approx(21.306, abs=0.01)
