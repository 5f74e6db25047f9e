"""Scenario runner: sweeps, figure-style tables, and deterministic output.

Scenarios are described by flat ``key = value`` config files (``#`` starts a
comment; nested fields are dotted, e.g. ``ascent.step_size``).  ``_KEYS``
lists every recognized key with its parser, the field it sets and its
meaning; a key a file leaves out takes that field's dataclass default, and
``omega0_true`` and ``T`` are required.  ``_keys_read`` lists the keys that
a scenario reads: those of its noise kind and of its sweep axis.

Unknown keys, and keys that the scenario does not read, are rejected with
their line.

This module owns every file format: ``_write_lines`` writes each file
(UTF-8, ``\n`` endings), ``_table_lines`` formats each CSV table and
``_read_table`` parses each CSV read back.  A table is a header row, then
rows of index cells (``step_index``, ``iteration``) as integers and every
other cell at 12 significant digits (``nan`` where a metric does not apply).
A sweep writes tables ``<axis>, <metric columns>``, as its ``_SWEEP_AXES``
entry names them, schedules ``step_index, t_start, V_1..V_p`` and a
``manifest.txt`` (config snapshot, the ascents' seed if the axis reads one,
versions, wall clock); ``qgrape optimize`` writes ``history.csv`` and
``config.cfg``, ``qgrape energy`` a ``t, energy`` table.  Identical configs
and seeds reproduce identical bytes.
"""

from __future__ import annotations

import math
import platform
import time
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field, fields, replace
from functools import partial
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

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
from .errors import ConfigError, QGrapeError, ValidationError
from .fisher import Povm
from .grape import (
    AscentConfig,
    AscentReport,
    Objective,
    ascend,
    ascend_batch,
    cfi_objective,
    objective_value,
    qfi_objective,
)

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


@dataclass(frozen=True)
class ScenarioConfig:
    """Parsed scenario description; ``_KEYS`` maps the file keys to its fields.

    The control step width is held once, as ``ascent.dt``.  ``noise`` is the
    noise model, which checks its own rates and angles when it is built.
    """

    omega0_true: float
    horizon: float
    ascent: AscentConfig
    noise: NoiseModel = None
    omega0_hat: float | None = None
    probe: str = "plus"
    objective_kind: str = "qfi"
    povm_name: str = "pm"
    sweep_axis: str | None = None
    sweep_start: float = 0.0
    sweep_stop: float = 1.0
    sweep_points: int = 11

    def __post_init__(self):
        if self.noise_kind is None:
            raise ConfigError(f"unknown noise model {self.noise!r}")
        if self.objective_kind not in ("qfi", "cfi"):
            raise ConfigError(f"unknown objective {self.objective_kind!r}")
        if self.povm_name not in ("pm", "z"):
            raise ConfigError(f"unknown POVM {self.povm_name!r}")
        # as the file parser does, so that every config writes a snapshot
        for name in ("omega0_true", "omega0_hat", "sweep_start", "sweep_stop"):
            value = getattr(self, name)
            if value is not None and not abs(value) < math.inf:
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.sweep_axis is not None:
            if self.sweep_axis not in _SWEEP_AXES:
                raise ConfigError(f"unknown sweep axis {self.sweep_axis!r}")
            if self.sweep_points < 2:
                raise ConfigError("sweep needs at least 2 points")
            if not self.sweep_stop > self.sweep_start:
                raise ConfigError("sweep grid must be strictly increasing")
        if not 0 < self.horizon < math.inf:
            raise ConfigError(f"horizon must be finite and positive, got {self.horizon}")
        self.probe_state()  # a bad probe fails here, not at every sweep point

    @property
    def dt(self) -> float:
        return self.ascent.dt

    @property
    def design_frequency(self) -> float:
        return self.omega0_true if self.omega0_hat is None else self.omega0_hat

    @property
    def noise_kind(self) -> str | None:
        return next((k for k, m in _NOISE_KINDS.items() if type(m) is type(self.noise)), None)

    def noise_model(self, theta: float | None = None) -> NoiseModel:
        return self.noise if theta is None else replace(self.noise, theta=theta)

    def probe_state(self) -> np.ndarray:
        name = self.probe.strip().lower()
        if name == "plus":
            return plus_state()
        if name == "zero":
            return zero_state()
        parts = self.probe.split(",")
        if len(parts) == 3:
            try:
                return density_from_bloch([float(x) for x in parts])
            except ValueError as exc:
                raise ConfigError(f"bad probe Bloch vector {self.probe!r}: {exc}") from exc
        raise ConfigError(f"probe must be 'plus', 'zero', or 'r1,r2,r3', got {self.probe!r}")

    def povm(self) -> Povm:
        return Povm.plus_minus() if self.povm_name == "pm" else Povm.computational()

    def objective(self) -> Objective:
        return Objective(self.povm() if self.objective_kind == "cfi" else None)

    def sweep_grid(self) -> np.ndarray:
        return np.linspace(self.sweep_start, self.sweep_stop, self.sweep_points)


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


# The file format, in snapshot order: key -> (parser, field it sets).  A field
# ``ascent.<name>`` or ``noise.<name>`` is that field of ``ScenarioConfig.ascent``
# or ``.noise``; ``noise`` names the model's kind, ``ScenarioConfig.noise_kind``.
_KEYS = {
    "noise": (str, "noise_kind"),  # dephasing | spontaneous | none
    "noise.theta": (_finite, "noise.theta"),  # dephasing axis polar angle (radians)
    "noise.phi": (_finite, "noise.phi"),  # dephasing axis azimuth (radians)
    "noise.gamma": (_finite, "noise.gamma"),  # dephasing rate
    "noise.gamma_plus": (_finite, "noise.gamma_plus"),  # raising rate (spontaneous)
    "noise.gamma_minus": (_finite, "noise.gamma_minus"),  # lowering rate (spontaneous)
    "omega0_true": (_finite, "omega0_true"),  # true frequency (required)
    "omega0_hat": (_finite, "omega0_hat"),  # design frequency used to build controls
    "probe": (str, "probe"),  # plus | zero | r1,r2,r3
    "T": (_finite, "horizon"),  # horizon (required)
    "dt": (_finite, "ascent.dt"),  # control step width
    "objective": (str, "objective_kind"),  # qfi | cfi
    "objective.povm": (str, "povm_name"),  # pm (|+/-><+/-|) | z (computational)
    "ascent.step_size": (_finite, "ascent.step_size"),  # gradient-ascent step
    "ascent.max_iterations": (int, "ascent.max_iterations"),  # iteration cap
    # relative objective-change tolerance
    "ascent.convergence_tolerance": (_finite, "ascent.convergence_tolerance"),
    "ascent.seed": (int, "ascent.seed"),  # RNG seed for initialization
    "ascent.init_mode": (str, "ascent.init_mode"),  # zero | random (uniform in [-1, 1])
    "ascent.momentum": (_finite, "ascent.momentum"),  # heavy-ball coefficient in [0, 1)
    "sweep": (str, "sweep_axis"),  # theta | omega_hat | t0 | horizon
    "sweep.start": (_finite, "sweep_start"),  # sweep-axis bounds
    "sweep.stop": (_finite, "sweep_stop"),
    "sweep.points": (int, "sweep_points"),  # grid size (strictly increasing grid)
}
# Each ``noise`` kind and its model, holding the values of keys a file leaves out.
_NOISE_KINDS = {
    "none": None,
    "dephasing": Dephasing(theta=math.pi / 2, phi=0.0, gamma=0.0),
    "spontaneous": SpontaneousEmission(gamma_plus=0.0, gamma_minus=0.0),
}


def _unread(sweep_axis: str | None) -> tuple[str, ...]:
    """Prefixes of the keys a sweep axis does not read; ``sweep*`` without one."""
    return ("sweep",) if sweep_axis is None else _SWEEP_AXES[sweep_axis].unread


def _keys_read(model: NoiseModel, sweep_axis: str | None) -> list[str]:
    """The keys a scenario reads, in ``_KEYS`` order: ``noise.<field>`` for each
    field of its noise model and every other key, less those of
    :func:`_unread`."""
    noise = ["noise." + f.name for f in fields(model)] if model is not None else []
    unread = _unread(sweep_axis)
    return [key for key in _KEYS
            if (key in noise or not key.startswith("noise.")) and not key.startswith(unread)]


def parse_config_text(text: str, source: str = "<config>") -> ScenarioConfig:
    """Parse the flat key-value format, rejecting unknown keys and keys that
    the scenario does not read (see :func:`_keys_read`)."""
    owners: dict[str, dict[str, object]] = {"": {}, "ascent": {}, "noise": {}}
    lines: dict[str, int] = {}  # key -> line number
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        parser, name = _KEYS[key]
        owner, _, name = name.rpartition(".")
        if key in lines:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        lines[key] = lineno
        try:
            owners[owner][name] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from exc
    scenario = owners[""]
    for required in ("omega0_true", "T"):
        if _KEYS[required][1] not in scenario:
            raise ConfigError(f"{source}: missing required key {required!r}")
    kind = scenario.pop("noise_kind", "none")
    if kind not in _NOISE_KINDS:
        raise ConfigError(f"{source}:{lines['noise']}: unknown noise kind {kind!r}")
    default = _NOISE_KINDS[kind]
    axis = scenario.get("sweep_axis")
    if axis is not None and axis not in _SWEEP_AXES:
        raise ConfigError(f"{source}:{lines['sweep']}: unknown sweep axis {axis!r}")
    read, unread = _keys_read(default, axis), _unread(axis)
    for key, lineno in lines.items():
        if key not in read:
            head = f"sweep = {axis or 'none'}" if key.startswith(unread) else f"noise = {kind}"
            raise ConfigError(f"{source}:{lineno}: {head} does not read {key!r}")
    try:
        noise = None if default is None else replace(default, **owners["noise"])
    except ValidationError as exc:
        raise ConfigError(f"{source}: noise: {exc}") from exc
    try:
        return ScenarioConfig(noise=noise, ascent=AscentConfig(**owners["ascent"]), **scenario)
    except ValidationError as exc:  # AscentConfig checks its own fields
        raise ConfigError(f"{source}: {exc}") from exc


def load_config(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    return parse_config_text(_read_text(path, "config file"), source=str(path))


def config_snapshot(config: ScenarioConfig) -> str:
    """Re-serializable key-value snapshot of a scenario: exactly the keys it
    reads (see :func:`_keys_read`), in ``_KEYS`` order, each value as its key's
    parser reads it (an integer under a float key is written ``1.0``)."""
    lines = []
    for key in _keys_read(config.noise, config.sweep_axis):
        parser, name = _KEYS[key]
        value = config.design_frequency if key == "omega0_hat" else attrgetter(name)(config)
        value = parser(value)
        lines.append(f"{key} = {value if isinstance(value, str) else repr(value)}")
    return "\n".join(lines) + "\n"


@dataclass
class RunRecord:
    """Results of one sweep: per-point metric rows plus reproduction data."""

    axis: str  # the sweep axis, a key of ``_SWEEP_AXES``
    tables: dict[str, list[dict]]
    config_snapshot: str
    seed: int | None  # the ascents' seed; None for an axis that reads no ascent key
    wall_clock: float
    versions: dict[str, str]
    schedules: dict[str, ControlGrid] = field(default_factory=dict)
    flagged: list[str] = field(default_factory=list)
    below_uncontrolled: list[str] = field(default_factory=list)


def _scenario_problem(config: ScenarioConfig, x: float, **changes) -> EstimationProblem:
    """``config``'s problem at frequency ``x``; ``changes`` replace its
    ``noise``, ``probe`` or ``horizon``."""
    given = dict(noise=config.noise, probe=config.probe_state(), horizon=config.horizon)
    return frequency_estimation_problem(omega0=x, **{**given, **changes})


def _qfi_cfi_of_grid(
    problem: EstimationProblem, grid: ControlGrid, povm: Povm
) -> tuple[float, float]:
    """QFI and CFI of ``povm`` after ``grid``, read from the trajectory's
    Pauli coordinates."""
    traj = propagate(problem, grid)
    return objective_value(traj, qfi_objective()), objective_value(traj, cfi_objective(povm))


def _optimized_grid(report: AscentReport) -> ControlGrid:
    """The schedule an ascent ended with, or its error as a point's error."""
    if report.error is not None:
        raise QGrapeError(
            f"ascent failed at iteration {report.failed_iteration}: {report.error}"
        )
    return report.final_grid


def _point_ascent(config: ScenarioConfig, index: int) -> AscentConfig:
    """Ascent settings of sweep point ``index``: its own seed."""
    seed = np.random.SeedSequence([config.ascent.seed, index]).generate_state(1)[0]
    return replace(config.ascent, seed=int(seed))


def _schedule_metrics(
    problem: EstimationProblem, report: AscentReport, povm: Povm, oracle_qfi: float = math.nan
) -> tuple[dict, ControlGrid]:
    """Metrics and schedule of one judged point, all under ``problem``: free
    evolution on the grid shape of the ascent ``report``, then the schedule
    the ascent ended with (its error first, see :func:`_optimized_grid`).
    Free evolution's CFI comes as ``uncontrolled_cfi``, which no table writes."""
    free = ControlGrid(np.zeros_like(report.final_grid.amplitudes), report.final_grid.dt)
    q_free, c_free = _qfi_cfi_of_grid(problem, free, povm)
    grid = _optimized_grid(report)
    q_opt, c_opt = _qfi_cfi_of_grid(problem, grid, povm)
    horizon = problem.horizon
    metrics = dict(qfi=q_opt, qfi_per_t=q_opt / horizon, qfi_per_t2=q_opt / horizon**2, cfi=c_opt)
    metrics.update(oracle_qfi=oracle_qfi, uncontrolled_qfi=q_free, uncontrolled_cfi=c_free)
    return metrics, grid


def _theta_axis(config: ScenarioConfig):
    """Optimized vs uncontrolled information across dephasing-axis angles.

    One table per probe (|+> and |0>): optimized information in
    ``qfi``/``cfi``, free evolution of the same probe in ``uncontrolled_qfi``,
    and the noiseless reference T^2 in ``oracle_qfi``.  Both probes of a
    point climb with the point's seed, so the axis reads no ``probe``, and
    the swept angle stands in for ``noise.theta``.
    """
    if not isinstance(config.noise, Dephasing):
        raise ConfigError("theta sweep requires dephasing noise")
    povm = config.povm()
    probes = {"theta_probe_plus": plus_state(), "theta_probe_zero": zero_state()}

    def ascents(index: int, theta: float):
        ascent = _point_ascent(config, index)
        return [
            (_scenario_problem(config, config.design_frequency, noise=config.noise_model(theta),
                              probe=probe), ascent)
            for probe in probes.values()
        ]

    def point(index: int, theta: float, runs):
        metrics, schedules = {}, {}
        for name, (problem, report) in zip(probes, runs):
            metrics[name], schedules[f"schedule_{name}_{index:03d}"] = _schedule_metrics(
                replace(problem, x=config.omega0_true), report, povm, config.horizon**2
            )
        return metrics, schedules

    return tuple(probes), ascents, point, {}


def _single_pulse_forms(config: ScenarioConfig):
    """The closed forms that apply to ``config``'s noise: the single-pulse
    oracle, as a function of (horizon, t0), and the matching free-evolution
    information, as a function of the horizon.  Parallel dephasing
    (theta = 0) and decay without a raising rate have them; for any other
    noise this is ``None``."""
    noise = config.noise
    if isinstance(noise, Dephasing) and abs(noise.theta) < 1e-9:
        return (
            partial(oracles.parallel_single_pulse_qfi, noise.gamma, config.omega0_true),
            partial(oracles.parallel_free_qfi, noise.gamma),
        )
    if isinstance(noise, SpontaneousEmission) and noise.gamma_plus == 0.0:
        return (
            partial(oracles.spontaneous_single_pulse_qfi, noise.gamma_minus, config.omega0_true),
            partial(oracles.spontaneous_free_qfi, 0.0, noise.gamma_minus),
        )
    return None


def _best_single_pulse(config: ScenarioConfig, horizon: float) -> float:
    """Best closed-form single-pulse information over 400 evenly spaced pulse
    times, or ``nan`` where no single-pulse closed form applies."""
    forms = _single_pulse_forms(config)
    if forms is None:
        return math.nan
    return float(forms[0](horizon, np.linspace(0.0, horizon, 400)).max())


def _oracle_curve(config: ScenarioConfig, horizon: float) -> float:
    """Reference curve for time scans: T^2 without noise, the held-at-plus
    closed form for transverse dephasing, and the best single pulse of
    :func:`_best_single_pulse` otherwise."""
    if config.noise is None:
        return horizon**2
    if isinstance(config.noise, Dephasing) and abs(config.noise.theta - math.pi / 2) < 1e-9:
        return oracles.transverse_controlled_qfi(config.noise.gamma, horizon)
    return _best_single_pulse(config, horizon)


def _horizon_axis(config: ScenarioConfig):
    """Uncontrolled and re-optimized information at each horizon in the grid,
    against the reference curve of :func:`_oracle_curve`.

    Each horizon is optimized independently (no warm starts: maxima need not
    vary smoothly with the horizon).
    """
    povm = config.povm()

    def ascents(index: int, horizon: float):
        step_count(horizon, config.dt)  # a horizon off the step grid has no ascent
        problem = _scenario_problem(config, config.design_frequency, horizon=horizon)
        return [(problem, _point_ascent(config, index))]

    def point(index: int, horizon: float, runs):
        ((problem, report),) = runs
        metrics, grid = _schedule_metrics(
            replace(problem, x=config.omega0_true), report, povm, _oracle_curve(config, horizon)
        )
        return {"horizon_scan": metrics}, {f"schedule_horizon_{index:03d}": grid}

    return ("horizon_scan",), ascents, point, {}


def _omega_hat_axis(config: ScenarioConfig):
    """Fixed controls under mismatched dynamics.

    Controls are optimized once at the design frequency, then evaluated with
    the true frequency swept across the grid; the uncontrolled baseline is
    evaluated at the same true frequencies.  A failed design ascent aborts
    the sweep.
    """
    povm = config.povm()
    design_problem = _scenario_problem(config, config.design_frequency)
    report = ascend(design_problem, config.ascent, config.objective())
    grid = _optimized_grid(report)

    def point(index: int, omega: float, runs):
        metrics, _ = _schedule_metrics(_scenario_problem(config, omega), report, povm)
        return {"robustness_scan": metrics}, {}

    return ("robustness_scan",), None, point, {"schedule_design": grid}


def _t0_axis(config: ScenarioConfig):
    """Closed-form single-pulse information as a function of the pulse time,
    with the free-evolution value as the horizontal reference.  The closed
    forms fix their own probe and pulse, so the axis reads no design key."""
    forms = _single_pulse_forms(config)
    if forms is None:
        raise ConfigError("single-pulse analysis covers parallel dephasing (theta = 0) and "
                          "spontaneous emission without a raising rate (gamma_plus = 0)")
    if config.sweep_start < 0 or config.sweep_stop > config.horizon:
        raise ConfigError("t0 grid must lie within [0, T]")
    pulse, free = forms
    reference = free(config.horizon)

    def point(index: int, t0: float, runs):
        return {"pulse_scan": dict(oracle_qfi=pulse(config.horizon, t0),
                                   uncontrolled_qfi=reference)}, {}

    return ("pulse_scan",), None, point, {}


class _Axis(NamedTuple):
    """A sweep axis's contract.  ``setup`` checks the axis's preconditions,
    runs any set-up shared by all points, and returns (table names, ascents,
    point function, schedules written once).  ``ascents`` maps (index, axis
    value) to the (problem, ascent config) pairs the point optimizes, and
    raises the point's error if it cannot set them up; it is ``None`` for an
    axis whose points climb no ascent of their own.  The point function maps
    (index, axis value, [(problem, report)] of those ascents) to ({table:
    metrics}, {name: schedule})."""

    name: str  # the tables' axis column and the manifest's label
    unread: tuple[str, ...]  # prefixes of the keys that the axis does not read
    columns: tuple[str, ...]  # the metric columns of its tables
    setup: Callable


_SWEEP_AXES = {
    "theta": _Axis("theta", ("probe", "noise.theta"), METRIC_COLUMNS, _theta_axis),
    "horizon": _Axis("horizon", (), METRIC_COLUMNS, _horizon_axis),
    # judged under the one design schedule, with no reference curve: no oracle_qfi
    "omega_hat": _Axis("omega0", (), METRIC_COLUMNS[:4] + METRIC_COLUMNS[5:], _omega_hat_axis),
    # closed forms alone: no design, no ascent, no optimized metric
    "t0": _Axis("t0", ("omega0_hat", "probe", "dt", "objective", "ascent."),
                ("oracle_qfi", "uncontrolled_qfi"), _t0_axis),
}


def run_sweep(config: ScenarioConfig) -> RunRecord:
    """Run the sweep declared by ``config.sweep_axis``.

    The ascents of all points that climb their own (theta and horizon axes)
    run first, together in one lock-step :func:`qgrape.grape.ascend_batch`;
    then the points are evaluated and their rows written in grid order.  Each
    ascent's report is bitwise the one it gets alone, so the outputs are the
    same bytes as those of one ascent per point.  A point whose evaluation
    raises a :class:`QGrapeError` is listed under the manifest's flagged
    points and leaves a row of ``nan`` and no schedule, instead of aborting
    the sweep.  Every judged point (theta, horizon, and ``omega_hat`` under
    the one design schedule) meets its errors in one order: setting up, free
    evolution, its ascent ("ascent failed at iteration N: ..."), then the
    schedule's evaluation.  A point that climbed and whose objective, ``qfi``
    or ``cfi``, ends below free evolution's value of that same metric is
    listed in a manifest section of its own; its row is written as computed.
    """
    if config.sweep_axis is None:
        raise ConfigError("config declares no sweep axis")
    start = time.perf_counter()
    axis = _SWEEP_AXES[config.sweep_axis]
    table_names, ascents, point, schedules = axis.setup(config)
    values = config.sweep_grid().tolist()
    kind = config.objective_kind
    plans: list = []
    for index, value in enumerate(values):
        try:
            plans.append(ascents(index, value) if ascents else [])
        except QGrapeError as exc:  # the point raises it when evaluated
            plans.append(exc)
    members = [member for plan in plans if isinstance(plan, list) for member in plan]
    reports = iter(
        ascend_batch([p for p, _ in members], [c for _, c in members], config.objective())
    )
    tables: dict[str, list[dict]] = {name: [] for name in table_names}
    flagged: list[str] = []
    below: list[str] = []
    for index, (value, plan) in enumerate(zip(values, plans)):
        try:
            if isinstance(plan, QGrapeError):
                raise plan
            runs = [(problem, next(reports)) for problem, _ in plan]
            metrics, point_schedules = point(index, value, runs)
        except QGrapeError as exc:
            flagged.append(f"{axis.name}={value:.6g}: {type(exc).__name__}: {exc}")
            metrics, point_schedules = dict.fromkeys(table_names, {}), {}
        for name in table_names:
            row = {col: float(metrics[name].get(col, math.nan)) for col in axis.columns}
            tables[name].append({"axis": value, **row})
            # a point that climbed should not end below free evolution in the
            # metric that its ascent climbed
            free = metrics[name].get(f"uncontrolled_{kind}", math.nan)
            if plan and row[kind] < free:
                where = axis.name if len(table_names) == 1 else f"{name} {axis.name}"
                text = f"{kind} {row[kind]:.6g} < uncontrolled_{kind} {free:.6g}"
                below.append(f"{where}={value:.6g}: {text}")
        schedules.update(point_schedules)
    reads_seed = "ascent.seed" in _keys_read(config.noise, config.sweep_axis)
    return RunRecord(
        axis=config.sweep_axis,
        tables=tables,
        config_snapshot=config_snapshot(config),
        seed=config.ascent.seed if reads_seed else None,
        wall_clock=time.perf_counter() - start,
        versions={"qgrape": _pkg_version, "numpy": np.__version__,
                  "python": platform.python_version()},
        schedules=schedules,
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


def _table_lines(header: Sequence[str], rows: Iterable[Sequence[float]]) -> list[str]:
    """CSV lines: the header, then one line per row.  An ``int`` cell (a step
    or iteration index) is written as is, every other number at 12
    significant digits."""
    cells = (",".join(str(v) if isinstance(v, int) else f"{v:.11e}" for v in row) for row in rows)
    return [",".join(header), *cells]


def _write_lines(path: str | Path, lines: Iterable[str]) -> Path:
    """Write ``lines`` as UTF-8 text, each ending in ``\\n``, making the
    directory if need be; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8", newline="\n")
    return path


def _read_text(path: Path, kind: str) -> str:
    """A file's UTF-8 text; a missing or undecodable file raises ConfigError."""
    if not path.is_file():
        raise ConfigError(f"{kind} not found: {path}")
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:  # exc.object is the file's bytes
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{path}:{line}: not UTF-8 text ({exc.reason})") from exc


def _read_table(path: str | Path) -> tuple[list[str], list[list[float]]]:
    """Header cells and numeric rows of a CSV file; trailing blank lines are
    dropped, and an empty file has the header ``[""]``.  A missing file, a
    row whose width differs from the header's, or a malformed number raises
    :class:`ConfigError`."""
    path = Path(path)
    first, *lines = _read_text(path, "file").rstrip().split("\n")
    header = first.split(",")
    rows = []
    for lineno, line in enumerate(lines, start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ConfigError(f"{path}:{lineno}: expected {len(header)} cells, got {len(cells)}")
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: malformed value: {exc}") from exc
    return header, rows


def write_run(record: RunRecord, out_dir: str | Path) -> list[Path]:
    """Write all tables, schedules, and the manifest; returns written paths."""
    out = Path(out_dir)
    axis = _SWEEP_AXES[record.axis]
    header = (axis.name, *axis.columns)
    written = []
    for name, rows in record.tables.items():
        cells = ([row["axis"], *(row[col] for col in axis.columns)] for row in rows)
        written.append(_write_lines(out / f"{name}.csv", _table_lines(header, cells)))
    for name, grid in record.schedules.items():
        written.append(write_schedule(out / f"{name}.csv", grid))
    body = [
        "[versions]",
        *(f"{k} = {v}" for k, v in record.versions.items()),
        "",
        "[run]",
        *([] if record.seed is None else [f"seed = {record.seed}"]),
        f"wall_clock_seconds = {record.wall_clock:.3f}",
        f"axis = {axis.name}",
    ]
    if record.flagged:
        body += ["", "[flagged_points]", *record.flagged]
    if record.below_uncontrolled:
        body += ["", "[below_uncontrolled]", *record.below_uncontrolled]
    body += ["", "[config]", *record.config_snapshot.splitlines()]
    written.append(_write_lines(out / "manifest.txt", body))
    return written


def write_schedule(path: str | Path, grid: ControlGrid) -> Path:
    """Schedule CSV: ``step_index, t_start, V_1..V_p``; returns the path."""
    header = ["step_index", "t_start"] + [f"V_{k + 1}" for k in range(grid.n_controls)]
    rows = ([j, j * grid.dt, *v] for j, v in enumerate(grid.amplitudes.tolist()))
    return _write_lines(path, _table_lines(header, rows))


def read_schedule(path: str | Path) -> ControlGrid:
    """Load a schedule CSV written by :func:`write_schedule`.

    The header must start ``step_index,t_start``, every row must hold as many
    numeric cells as the header, and ``t_start`` must advance by one uniform
    ``dt``.
    """
    header, rows = _read_table(path)
    if header[:2] != ["step_index", "t_start"]:
        raise ConfigError(f"{path}:1: not a schedule file")
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
    """Validate a sweep CSV: the axis named by its first header cell, that
    axis's metric columns, row widths, parseable decimals."""
    header, _ = _read_table(path)
    axis = next((axis for axis in _SWEEP_AXES.values() if axis.name == header[0]), None)
    if axis is None:
        raise ConfigError(f"{path}:1: unknown sweep axis column {header[0]!r}")
    if tuple(header[1:]) != axis.columns:
        raise ConfigError(f"{path}:1: malformed header {','.join(header)!r}")
