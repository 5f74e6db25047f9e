"""Scenario runner: sweeps, figure-style tables, and deterministic output.

Scenarios are described by flat ``key = value`` config files (``#`` starts a
comment; nested fields are dotted, e.g. ``ascent.step_size``).  Recognized
keys:

==========================  ====================================================
``noise``                   ``dephasing`` | ``spontaneous`` | ``none``
``noise.theta``             dephasing axis polar angle (radians, default pi/2)
``noise.phi``               dephasing axis azimuth (radians, default 0)
``noise.gamma``             dephasing rate
``noise.gamma_plus``        raising rate (spontaneous)
``noise.gamma_minus``       lowering rate (spontaneous)
``omega0_true``             true frequency (required)
``omega0_hat``              design frequency used to build controls
``probe``                   ``plus`` | ``zero`` | ``r1,r2,r3``
``T``                       horizon (required)
``dt``                      control step width
``objective``               ``qfi`` | ``cfi``
``objective.povm``          ``pm`` (|+/-><+/-|) | ``z`` (computational)
``ascent.step_size``        gradient-ascent step
``ascent.max_iterations``   iteration cap
``ascent.convergence_tolerance``  relative objective-change tolerance
``ascent.seed``             RNG seed for initialization
``ascent.init_mode``        ``zero`` | ``random`` (uniform in [-1, 1])
``sweep``                   ``theta`` | ``omega_hat`` | ``t0`` | ``horizon``
``sweep.start/stop``        sweep-axis bounds
``sweep.points``            grid size (strictly increasing grid required)
==========================  ====================================================

Unknown keys are rejected.  Every sweep writes CSV tables with the fixed
metric columns ``qfi, qfi_per_t, qfi_per_t2, cfi, oracle_qfi,
uncontrolled_qfi`` after the sweep-axis column (12 significant digits, ``.``
radix, ``\n`` line endings; absent metrics hold ``nan``), one ``manifest.txt``
with the config snapshot, seed, versions and wall clock, and the optimized
schedules as ``step_index, t_start, V_1..V_p`` CSV files.  Identical configs
and seeds reproduce identical bytes.
"""

from __future__ import annotations

import math
import platform
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy

from . import oracles
from ._version import __version__ as _pkg_version
from .dynamics import (
    ControlGrid,
    Dephasing,
    EstimationProblem,
    NoiseModel,
    SpontaneousEmission,
    density_from_bloch,
    frequency_estimation_problem,
    plus_state,
    propagate,
    step_count,
    zero_state,
)
from .errors import ConfigError, QGrapeError
from .fisher import Povm, cfi, qfi
from .grape import AscentConfig, Objective, ascend, cfi_objective, qfi_objective

__all__ = [
    "METRIC_COLUMNS",
    "ScenarioConfig",
    "RunRecord",
    "load_config",
    "parse_config_text",
    "config_snapshot",
    "run_sweep",
    "energy_cost",
    "write_run",
    "write_schedule",
    "read_schedule",
    "check_output_schema",
]

METRIC_COLUMNS = ("qfi", "qfi_per_t", "qfi_per_t2", "cfi", "oracle_qfi", "uncontrolled_qfi")
AXIS_NAMES = {"theta": "theta", "omega_hat": "omega0", "t0": "t0", "horizon": "horizon"}


@dataclass(frozen=True)
class ScenarioConfig:
    """Parsed scenario description; see the module docstring for the keys."""

    noise_kind: str
    omega0_true: float
    horizon: float
    dt: float = 0.05
    noise_theta: float = math.pi / 2
    noise_phi: float = 0.0
    noise_gamma: float = 0.0
    noise_gamma_plus: float = 0.0
    noise_gamma_minus: float = 0.0
    omega0_hat: float | None = None
    probe: str = "plus"
    objective_kind: str = "qfi"
    povm_name: str = "pm"
    ascent: AscentConfig | None = None
    sweep_axis: str | None = None
    sweep_start: float = 0.0
    sweep_stop: float = 1.0
    sweep_points: int = 11

    def __post_init__(self):
        if self.noise_kind not in ("dephasing", "spontaneous", "none"):
            raise ConfigError(f"unknown noise kind {self.noise_kind!r}")
        if self.objective_kind not in ("qfi", "cfi"):
            raise ConfigError(f"unknown objective {self.objective_kind!r}")
        if self.povm_name not in ("pm", "z"):
            raise ConfigError(f"unknown POVM {self.povm_name!r}")
        if self.sweep_axis is not None:
            if self.sweep_axis not in AXIS_NAMES:
                raise ConfigError(f"unknown sweep axis {self.sweep_axis!r}")
            if self.sweep_points < 2:
                raise ConfigError("sweep needs at least 2 points")
            if not self.sweep_stop > self.sweep_start:
                raise ConfigError("sweep grid must be strictly increasing")
        if self.horizon <= 0:
            raise ConfigError(f"horizon must be positive, got {self.horizon}")
        if self.dt <= 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")

    @property
    def design_frequency(self) -> float:
        return self.omega0_true if self.omega0_hat is None else self.omega0_hat

    def noise_model(self, theta: float | None = None) -> NoiseModel:
        if self.noise_kind == "none":
            return None
        if self.noise_kind == "dephasing":
            return Dephasing(
                theta=self.noise_theta if theta is None else theta,
                phi=self.noise_phi,
                gamma=self.noise_gamma,
            )
        return SpontaneousEmission(self.noise_gamma_plus, self.noise_gamma_minus)

    def probe_state(self) -> np.ndarray:
        return _parse_probe(self.probe)

    def povm(self) -> Povm:
        return Povm.plus_minus() if self.povm_name == "pm" else Povm.computational()

    def objective(self) -> Objective:
        if self.objective_kind == "qfi":
            return qfi_objective()
        return cfi_objective(self.povm())

    def sweep_grid(self) -> np.ndarray:
        return np.linspace(self.sweep_start, self.sweep_stop, self.sweep_points)


def _parse_probe(text: str) -> np.ndarray:
    name = text.strip().lower()
    if name == "plus":
        return plus_state()
    if name == "zero":
        return zero_state()
    parts = text.split(",")
    if len(parts) == 3:
        try:
            return density_from_bloch([float(x) for x in parts])
        except ValueError as exc:
            raise ConfigError(f"bad probe Bloch vector {text!r}: {exc}") from exc
    raise ConfigError(f"probe must be 'plus', 'zero', or 'r1,r2,r3', got {text!r}")


_SCALAR_KEYS = {
    "noise": str,
    "noise.theta": float,
    "noise.phi": float,
    "noise.gamma": float,
    "noise.gamma_plus": float,
    "noise.gamma_minus": float,
    "omega0_true": float,
    "omega0_hat": float,
    "probe": str,
    "T": float,
    "dt": float,
    "objective": str,
    "objective.povm": str,
    "ascent.step_size": float,
    "ascent.max_iterations": int,
    "ascent.convergence_tolerance": float,
    "ascent.seed": int,
    "ascent.init_mode": str,
    "sweep": str,
    "sweep.start": float,
    "sweep.stop": float,
    "sweep.points": int,
}


def parse_config_text(text: str, source: str = "<config>") -> ScenarioConfig:
    """Parse the flat key-value format, rejecting unknown keys."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SCALAR_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        caster = _SCALAR_KEYS[key]
        try:
            values[key] = caster(value)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from exc
    return _config_from_values(values, source)


def _config_from_values(values: dict, source: str) -> ScenarioConfig:
    for required in ("omega0_true", "T"):
        if required not in values:
            raise ConfigError(f"{source}: missing required key {required!r}")
    dt = float(values.get("dt", 0.05))
    init_mode = values.get("ascent.init_mode", "random")
    if init_mode not in ("random", "zero"):
        raise ConfigError(f"{source}: ascent.init_mode must be 'random' or 'zero'")
    ascent = AscentConfig(
        dt=dt,
        step_size=float(values.get("ascent.step_size", 0.1)),
        max_iterations=int(values.get("ascent.max_iterations", 500)),
        convergence_tolerance=float(values.get("ascent.convergence_tolerance", 1e-8)),
        seed=int(values.get("ascent.seed", 0)),
        init_mode="zero" if init_mode == "zero" else "random_uniform",
    )
    try:
        return ScenarioConfig(
            noise_kind=values.get("noise", "none"),
            noise_theta=float(values.get("noise.theta", math.pi / 2)),
            noise_phi=float(values.get("noise.phi", 0.0)),
            noise_gamma=float(values.get("noise.gamma", 0.0)),
            noise_gamma_plus=float(values.get("noise.gamma_plus", 0.0)),
            noise_gamma_minus=float(values.get("noise.gamma_minus", 0.0)),
            omega0_true=float(values["omega0_true"]),
            omega0_hat=(float(values["omega0_hat"]) if "omega0_hat" in values else None),
            probe=str(values.get("probe", "plus")),
            horizon=float(values["T"]),
            dt=dt,
            objective_kind=values.get("objective", "qfi"),
            povm_name=values.get("objective.povm", "pm"),
            ascent=ascent,
            sweep_axis=values.get("sweep"),
            sweep_start=float(values.get("sweep.start", 0.0)),
            sweep_stop=float(values.get("sweep.stop", 1.0)),
            sweep_points=int(values.get("sweep.points", 11)),
        )
    except QGrapeError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def load_config(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(path.read_text(encoding="utf-8"), source=str(path))


def config_snapshot(config: ScenarioConfig) -> str:
    """Re-serializable key-value snapshot of a scenario."""
    a = config.ascent
    lines = [
        f"noise = {config.noise_kind}",
        f"noise.theta = {config.noise_theta!r}",
        f"noise.phi = {config.noise_phi!r}",
        f"noise.gamma = {config.noise_gamma!r}",
        f"noise.gamma_plus = {config.noise_gamma_plus!r}",
        f"noise.gamma_minus = {config.noise_gamma_minus!r}",
        f"omega0_true = {config.omega0_true!r}",
        f"omega0_hat = {config.design_frequency!r}",
        f"probe = {config.probe}",
        f"T = {config.horizon!r}",
        f"dt = {config.dt!r}",
        f"objective = {config.objective_kind}",
        f"objective.povm = {config.povm_name}",
    ]
    if a is not None:
        lines += [
            f"ascent.step_size = {a.step_size!r}",
            f"ascent.max_iterations = {a.max_iterations}",
            f"ascent.convergence_tolerance = {a.convergence_tolerance!r}",
            f"ascent.seed = {a.seed}",
            f"ascent.init_mode = {'zero' if a.init_mode == 'zero' else 'random'}",
        ]
    if config.sweep_axis is not None:
        lines += [
            f"sweep = {config.sweep_axis}",
            f"sweep.start = {config.sweep_start!r}",
            f"sweep.stop = {config.sweep_stop!r}",
            f"sweep.points = {config.sweep_points}",
        ]
    return "\n".join(lines) + "\n"


@dataclass
class RunRecord:
    """Results of one sweep: per-point metric rows plus reproduction data."""

    axis_name: str
    tables: dict[str, list[dict]]
    config_snapshot: str
    seed: int
    wall_clock: float
    versions: dict[str, str]
    schedules: dict[str, np.ndarray] = field(default_factory=dict)
    schedule_dt: float = 0.05
    flagged: list[str] = field(default_factory=list)
    below_uncontrolled: list[str] = field(default_factory=list)


def _versions() -> dict[str, str]:
    return {
        "qgrape": _pkg_version,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def _point_seed(base_seed: int, index: int) -> int:
    return int(np.random.SeedSequence([base_seed, index]).generate_state(1)[0])


def _scenario_problem(
    config: ScenarioConfig,
    x: float,
    theta: float | None = None,
    probe: np.ndarray | None = None,
    horizon: float | None = None,
) -> EstimationProblem:
    return frequency_estimation_problem(
        omega0=x,
        noise=config.noise_model(theta=theta),
        probe=config.probe_state() if probe is None else probe,
        horizon=config.horizon if horizon is None else horizon,
    )


def _qfi_cfi_of_grid(
    problem: EstimationProblem, grid: ControlGrid, povm: Povm, x: float | None = None
) -> tuple[float, float]:
    traj = propagate(problem, grid, x=x)
    drho = traj.final_state_derivative
    return qfi(traj.final_state, drho), cfi(traj.final_state, drho, povm)


def _optimize(
    problem: EstimationProblem, config: ScenarioConfig, seed: int
) -> tuple[ControlGrid, float]:
    ascent = replace(config.ascent, seed=seed)
    report = ascend(problem, ascent, config.objective())
    if report.error is not None:
        raise QGrapeError(
            f"ascent failed at iteration {report.failed_iteration}: {report.error}"
        )
    return report.final_grid, report.objective_history[-1]


def _metric_row(axis_value: float, horizon: float, **metrics) -> dict:
    row = {"axis": float(axis_value)}
    for col in METRIC_COLUMNS:
        row[col] = float(metrics.get(col, math.nan))
    if not math.isnan(row["qfi"]):
        row["qfi_per_t"] = row["qfi"] / horizon
        row["qfi_per_t2"] = row["qfi"] / horizon**2
    return row


def _optimized_metrics(
    config: ScenarioConfig,
    problem: EstimationProblem,
    m: int,
    povm: Povm,
    index: int,
    oracle_qfi: float,
) -> tuple[dict, np.ndarray]:
    """Metrics and schedule of one optimized point: free evolution, then the
    schedule optimized with point ``index``'s seed, both evaluated at the true
    frequency."""
    free = ControlGrid.zeros(m, problem.n_controls, config.dt)
    q_free, _ = _qfi_cfi_of_grid(problem, free, povm, x=config.omega0_true)
    grid, _ = _optimize(problem, config, _point_seed(config.ascent.seed, index))
    q_opt, c_opt = _qfi_cfi_of_grid(problem, grid, povm, x=config.omega0_true)
    metrics = dict(qfi=q_opt, cfi=c_opt, oracle_qfi=oracle_qfi, uncontrolled_qfi=q_free)
    return metrics, grid.amplitudes


def _theta_axis(config: ScenarioConfig):
    """Optimized vs uncontrolled information across dephasing-axis angles.

    One table per probe (|+> and |0>): optimized information in
    ``qfi``/``cfi``, free evolution of the same probe in ``uncontrolled_qfi``,
    and the noiseless reference T^2 in ``oracle_qfi``.
    """
    if config.noise_kind != "dephasing":
        raise ConfigError("theta sweep requires dephasing noise")
    m = step_count(config.horizon, config.dt)
    povm = config.povm()
    probes = {"theta_probe_plus": plus_state(), "theta_probe_zero": zero_state()}

    def point(index: int, theta: float):
        metrics, schedules = {}, {}
        for name, probe in probes.items():
            problem = _scenario_problem(
                config, config.design_frequency, theta=theta, probe=probe
            )
            metrics[name], schedules[f"schedule_{name}_{index:03d}"] = _optimized_metrics(
                config, problem, m, povm, index, oracle_qfi=config.horizon**2
            )
        return metrics, schedules

    return tuple(probes), point, {}


def _single_pulse_qfi(config: ScenarioConfig, t0: float, horizon: float) -> float:
    """Closed-form information of one instantaneous pulse at t0: the parallel
    dephasing oracle for dephasing noise, the decay oracle otherwise.  Each
    oracle reads only its own rate fields of the plan."""
    plan = oracles.SinglePulsePlan(
        t0=t0,
        horizon=horizon,
        omega0=config.omega0_true,
        gamma=config.noise_gamma,
        gamma_plus=config.noise_gamma_plus,
        gamma_minus=config.noise_gamma_minus,
    )
    if config.noise_kind == "dephasing":
        return oracles.parallel_single_pulse_qfi(plan)
    return oracles.spontaneous_single_pulse_qfi(plan)


def _best_single_pulse(config: ScenarioConfig, horizon: float) -> float:
    best = -math.inf
    for t0 in np.linspace(0.0, horizon, 400):
        best = max(best, _single_pulse_qfi(config, float(t0), horizon))
    return best


def _oracle_curve(config: ScenarioConfig, horizon: float) -> float:
    """Reference curve for time scans: the held-at-plus closed form for
    transverse dephasing, the best single-pulse value for parallel dephasing
    and for spontaneous emission without a raising rate, T^2 without noise,
    and ``nan`` where none of these applies."""
    if config.noise_kind == "none":
        return horizon**2
    if config.noise_kind == "dephasing":
        if abs(config.noise_theta - math.pi / 2) < 1e-9:
            return oracles.transverse_controlled_qfi(config.noise_gamma, horizon)
        if abs(config.noise_theta) < 1e-9:
            return _best_single_pulse(config, horizon)
        return math.nan
    if config.noise_gamma_plus != 0.0:
        return math.nan
    return _best_single_pulse(config, horizon)


def _horizon_axis(config: ScenarioConfig):
    """Uncontrolled and re-optimized information at each horizon in the grid,
    against the reference curve of :func:`_oracle_curve`.

    Each horizon is optimized independently (no warm starts: maxima need not
    vary smoothly with the horizon).
    """
    povm = config.povm()

    def point(index: int, horizon: float):
        m = step_count(horizon, config.dt)
        problem = _scenario_problem(config, config.design_frequency, horizon=horizon)
        metrics, amplitudes = _optimized_metrics(
            config, problem, m, povm, index, oracle_qfi=_oracle_curve(config, horizon)
        )
        return {"horizon_scan": metrics}, {f"schedule_horizon_{index:03d}": amplitudes}

    return ("horizon_scan",), point, {}


def _omega_hat_axis(config: ScenarioConfig):
    """Fixed controls under mismatched dynamics.

    Controls are optimized once at the design frequency, then evaluated with
    the true frequency swept across the grid; the uncontrolled baseline is
    evaluated at the same true frequencies.
    """
    m = step_count(config.horizon, config.dt)
    povm = config.povm()
    design_problem = _scenario_problem(config, config.design_frequency)
    grid, _ = _optimize(design_problem, config, config.ascent.seed)
    free = ControlGrid.zeros(m, design_problem.n_controls, config.dt)

    def point(index: int, omega: float):
        problem = _scenario_problem(config, omega)
        q_ctl, c_ctl = _qfi_cfi_of_grid(problem, grid, povm)
        q_free, _ = _qfi_cfi_of_grid(problem, free, povm)
        return {"robustness_scan": dict(qfi=q_ctl, cfi=c_ctl, uncontrolled_qfi=q_free)}, {}

    return ("robustness_scan",), point, {"schedule_design": grid.amplitudes}


def _t0_axis(config: ScenarioConfig):
    """Closed-form single-pulse information as a function of the pulse time,
    with the free-evolution value as the horizontal reference."""
    if config.noise_kind == "dephasing" and abs(config.noise_theta) > 1e-9:
        raise ConfigError("single-pulse analysis covers parallel dephasing (theta = 0)")
    if config.noise_kind == "none":
        raise ConfigError("single-pulse analysis requires a noise model")
    if config.noise_kind == "spontaneous" and config.noise_gamma_plus != 0.0:
        raise ConfigError("single-pulse analysis of spontaneous emission assumes gamma_plus = 0")
    if config.sweep_start < 0 or config.sweep_stop > config.horizon:
        raise ConfigError("t0 grid must lie within [0, T]")
    if config.noise_kind == "dephasing":
        reference = oracles.parallel_free_qfi(config.noise_gamma, config.horizon)
    else:
        reference = oracles.spontaneous_free_qfi(
            config.noise_gamma_plus, config.noise_gamma_minus, config.horizon
        )

    def point(index: int, t0: float):
        value = _single_pulse_qfi(config, t0, config.horizon)
        return {"pulse_scan": dict(oracle_qfi=value, uncontrolled_qfi=reference)}, {}

    return ("pulse_scan",), point, {}


# Each axis checks its preconditions, runs any set-up shared by all points,
# and returns (table names, point function, schedules written once).  A point
# function maps (index, axis value) to ({table: metrics}, {name: schedule}).
_SWEEP_AXES = {
    "theta": _theta_axis,
    "horizon": _horizon_axis,
    "omega_hat": _omega_hat_axis,
    "t0": _t0_axis,
}


def run_sweep(config: ScenarioConfig) -> RunRecord:
    """Run the sweep declared by ``config.sweep_axis``.

    Points are evaluated in grid order.  A point whose evaluation raises a
    :class:`QGrapeError` is listed under the manifest's flagged points and
    leaves a row of ``nan`` and no schedule, instead of aborting the sweep.
    An optimized point whose ``qfi`` ends below its ``uncontrolled_qfi`` is
    listed in a manifest section of its own; its row is written as computed.
    """
    if config.sweep_axis is None:
        raise ConfigError("config declares no sweep axis")
    start = time.perf_counter()
    table_names, point, schedules = _SWEEP_AXES[config.sweep_axis](config)
    label = "T" if config.sweep_axis == "horizon" else AXIS_NAMES[config.sweep_axis]
    tables: dict[str, list[dict]] = {name: [] for name in table_names}
    flagged: list[str] = []
    below: list[str] = []
    for index, value in enumerate(config.sweep_grid().tolist()):
        try:
            metrics, point_schedules = point(index, value)
        except QGrapeError as exc:
            flagged.append(f"{label}={value:.6g}: {type(exc).__name__}: {exc}")
            metrics, point_schedules = dict.fromkeys(table_names, {}), {}
        horizon = value if config.sweep_axis == "horizon" else config.horizon
        for name in table_names:
            row = _metric_row(value, horizon, **metrics[name])
            tables[name].append(row)
            # an optimized point (theta, horizon) should not end below free evolution
            if config.sweep_axis in ("theta", "horizon") and row["qfi"] < row["uncontrolled_qfi"]:
                where = label if len(table_names) == 1 else f"{name} {label}"
                text = f"qfi {row['qfi']:.6g} < uncontrolled_qfi {row['uncontrolled_qfi']:.6g}"
                below.append(f"{where}={value:.6g}: {text}")
        schedules.update(point_schedules)
    return RunRecord(
        axis_name=AXIS_NAMES[config.sweep_axis],
        tables=tables,
        config_snapshot=config_snapshot(config),
        seed=config.ascent.seed if config.ascent else 0,
        wall_clock=time.perf_counter() - start,
        versions=_versions(),
        schedules=schedules,
        schedule_dt=config.dt,
        flagged=flagged,
        below_uncontrolled=below,
    )


def energy_cost(grid: ControlGrid) -> list[tuple[float, float]]:
    """Cumulative control energy ``E(t_j) = dt sum_{i<=j} sum_k V_k(i)^2``.

    Exact for piecewise-constant amplitudes; non-decreasing in time.
    """
    powers = (grid.amplitudes**2).sum(axis=1) * grid.dt
    totals = np.concatenate([[0.0], np.cumsum(powers)])
    return [(i * grid.dt, float(e)) for i, e in enumerate(totals)]


def _format_value(value: float) -> str:
    return f"{value:.11e}"


def write_run(record: RunRecord, out_dir: str | Path) -> list[Path]:
    """Write all tables, schedules, and the manifest; returns written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for name, rows in record.tables.items():
        path = out / f"{name}.csv"
        lines = [",".join((record.axis_name,) + METRIC_COLUMNS)]
        for row in rows:
            cells = [_format_value(row["axis"])]
            cells += [_format_value(row[col]) for col in METRIC_COLUMNS]
            lines.append(",".join(cells))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
        written.append(path)
    for name, amplitudes in record.schedules.items():
        path = out / f"{name}.csv"
        write_schedule(path, ControlGrid(amplitudes, record.schedule_dt))
        written.append(path)
    manifest = out / "manifest.txt"
    body = [
        "[versions]",
        *(f"{k} = {v}" for k, v in record.versions.items()),
        "",
        "[run]",
        f"seed = {record.seed}",
        f"wall_clock_seconds = {record.wall_clock:.3f}",
        f"axis = {record.axis_name}",
    ]
    if record.flagged:
        body += ["", "[flagged_points]", *record.flagged]
    if record.below_uncontrolled:
        body += ["", "[below_uncontrolled]", *record.below_uncontrolled]
    body += ["", "[config]", record.config_snapshot.rstrip("\n")]
    manifest.write_text("\n".join(body) + "\n", encoding="utf-8", newline="\n")
    written.append(manifest)
    return written


def write_schedule(path: str | Path, grid: ControlGrid) -> None:
    """Schedule CSV: ``step_index, t_start, V_1..V_p``."""
    p = grid.n_controls
    header = ["step_index", "t_start"] + [f"V_{k + 1}" for k in range(p)]
    lines = [",".join(header)]
    for j in range(grid.n_steps):
        cells = [str(j), _format_value(j * grid.dt)]
        cells += [_format_value(v) for v in grid.amplitudes[j]]
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_schedule(path: str | Path) -> ControlGrid:
    """Load a schedule CSV written by :func:`write_schedule`.

    Every row must hold as many numeric cells as the header, and ``t_start``
    must advance by one uniform ``dt``.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"schedule file not found: {path}")
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    if not lines or not lines[0].startswith("step_index,t_start"):
        raise ConfigError(f"{path}: not a schedule file")
    width = len(lines[0].split(","))
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != width:
            raise ConfigError(f"{path}:{lineno}: expected {width} cells, got {len(cells)}")
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: malformed value: {exc}") from exc
    if len(rows) < 2:
        raise ConfigError(f"{path}: schedule needs at least two rows to infer dt")
    table = np.asarray(rows)
    starts = table[:, 1]
    dt = float(starts[1] - starts[0])
    # cells carry 12 significant digits, far inside this tolerance
    expected = starts[0] + dt * np.arange(len(starts))
    uneven = np.flatnonzero(np.abs(starts - expected) > 1e-9 * np.maximum(1.0, np.abs(expected)))
    if uneven.size:
        row = uneven[0]
        raise ConfigError(
            f"{path}:{row + 2}: t_start {starts[row]:.12g} breaks the uniform step dt = {dt:.12g}"
        )
    return ControlGrid(table[:, 2:], dt)


def check_output_schema(path: str | Path) -> None:
    """Validate a sweep CSV: header columns, row widths, parseable decimals."""
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ConfigError(f"{path}: empty output file")
    header = lines[0].split(",")
    if len(header) != 1 + len(METRIC_COLUMNS) or tuple(header[1:]) != METRIC_COLUMNS:
        raise ConfigError(f"{path}: malformed header {lines[0]!r}")
    if header[0] not in AXIS_NAMES.values():
        raise ConfigError(f"{path}: unknown sweep axis column {header[0]!r}")
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ConfigError(f"{path}:{lineno}: expected {len(header)} cells")
        for cell in cells:
            try:
                float(cell)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: malformed value {cell!r}") from exc
