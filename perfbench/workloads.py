"""The benchmark's workloads: inputs built from the seed, one unit of work
through qgrape's public API, and the checks on what that work produced.

Each workload loads a different layer of the package:

* ``ascent_exact`` -- one ``grape.ascend`` with the exact gradient and
  momentum (criterion 05).  The exact gradient's block exponentials dominate
  and the expm cache gets no hits.  Unit: one ascent iteration.
* ``fd_oracle`` -- propagate, exact gradient and central finite differences
  for four noise models and both objectives (criterion 04).  Almost all of it
  is ``propagate`` with a high expm-cache hit rate.  Unit: one
  finite-difference entry.
* ``sweep_horizon`` -- ``cli.main(["sweep", ...])`` on a horizon scan of
  spontaneous emission: cli, experiments, oracles, adjoint ascent and file
  output.  Unit: one sweep point.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
from pathlib import Path

import numpy as np

from qgrape import cli, dynamics, experiments, fisher, grape, oracles
from qgrape.errors import QGrapeError

INPUTS = Path(__file__).resolve().parent / "inputs"

# ascent_exact: transverse dephasing, gamma = 0.1, T = 5, dt = 0.05 (m = 100,
# p = 3).  The tolerance is tiny so that the fixed budget is always spent.
ASCENT_GAMMA = 0.1
ASCENT_HORIZON = 5.0
ASCENT_DT = 0.05
ASCENT_STEP = 0.1
ASCENT_MOMENTUM = 0.95
ASCENT_ITERATIONS = 250
ASCENT_TOLERANCE = 1e-15

# fd_oracle: the criterion-04 shape, one random schedule per noise model.
FD_STEPS = 40
FD_CONTROLS = 3
FD_DT = 0.05
FD_DELTA = 1e-5
FD_OMEGA = 1.0
FD_NOISE = {
    "transverse": dynamics.Dephasing(theta=math.pi / 2, phi=0.0, gamma=0.1),
    "parallel": dynamics.Dephasing(theta=0.0, phi=0.0, gamma=0.1),
    "emission": dynamics.SpontaneousEmission(gamma_plus=0.05, gamma_minus=0.1),
    "noiseless": None,
}
# criterion-04 tolerance: an entry passes on either bound
FD_REL_TOL = 1e-2
FD_ABS_TOL = 1e-6

# Smoke sizes keep every code path but shrink the work to a fraction of a
# second; the harness self-test uses them.
SMOKE_ASCENT = {"horizon": 0.5, "iterations": 3}
SMOKE_FD_STEPS = 4
SMOKE_SWEEP = {
    "T": "0.2",
    "sweep.start": "0.1",
    "sweep.stop": "0.2",
    "sweep.points": "2",
    "ascent.max_iterations": "3",
}


@dataclasses.dataclass
class Outcome:
    """What one unit of work produced, after checking it."""

    attempted: int
    failed: int
    quality: float
    problems: list[str]
    iters_to_95pct: int = 0


def _warm_grid(seed: int, steps: int, dt: float) -> dynamics.ControlGrid:
    # a separate random stream, so warm-up generators never repeat in the unit
    rng = np.random.default_rng([seed, 1])
    return dynamics.ControlGrid(rng.uniform(-1.0, 1.0, size=(steps, 3)), dt)


class AscentExact:
    def __init__(self, seed: int, tmp: Path, smoke: bool):
        horizon = SMOKE_ASCENT["horizon"] if smoke else ASCENT_HORIZON
        iterations = SMOKE_ASCENT["iterations"] if smoke else ASCENT_ITERATIONS
        noise = dynamics.Dephasing(theta=math.pi / 2, phi=0.0, gamma=ASCENT_GAMMA)
        self.problem = dynamics.frequency_estimation_problem(
            1.0, noise, dynamics.plus_state(), horizon
        )
        settings = dict(
            dt=ASCENT_DT,
            step_size=ASCENT_STEP,
            max_iterations=iterations,
            convergence_tolerance=ASCENT_TOLERANCE,
            seed=seed,
            momentum=ASCENT_MOMENTUM,
        )
        # the option may go once the exact gradient is the only one
        if "gradient_method" in {f.name for f in dataclasses.fields(grape.AscentConfig)}:
            settings["gradient_method"] = "exact"
        self.config = grape.AscentConfig(**settings)
        self.target = oracles.transverse_controlled_qfi(ASCENT_GAMMA, horizon)
        self.warm_grid = _warm_grid(seed, round(horizon / ASCENT_DT), ASCENT_DT)

    def warm_up(self) -> None:
        dynamics.propagate(self.problem, self.warm_grid)

    def run(self) -> Outcome:
        report = grape.ascend(self.problem, self.config, grape.qfi_objective())
        history = report.objective_history
        attempted = max(1, report.iterations_used)
        problems = []
        if report.error is not None:
            problems.append(f"ascent failed at iteration {report.failed_iteration}: {report.error}")
        if not history or not all(math.isfinite(v) for v in history):
            problems.append("objective history is empty or not finite")
        drops = [i for i in range(1, len(history)) if history[i] < history[i - 1]]
        if drops:
            problems.append(f"objective history decreased at iteration {drops[0]}")
        reached = [i for i, v in enumerate(history) if v >= 0.95 * self.target]
        return Outcome(
            attempted=attempted,
            failed=attempted if problems else 0,
            quality=history[-1] / self.target if history else math.nan,
            problems=problems,
            iters_to_95pct=reached[0] if reached else len(history),
        )


class FdOracle:
    def __init__(self, seed: int, tmp: Path, smoke: bool):
        steps = SMOKE_FD_STEPS if smoke else FD_STEPS
        rng = np.random.default_rng(seed)
        self.cases = []
        for name, noise in FD_NOISE.items():
            problem = dynamics.frequency_estimation_problem(
                FD_OMEGA, noise, dynamics.plus_state(), steps * FD_DT
            )
            grid = dynamics.ControlGrid(rng.uniform(-1.0, 1.0, size=(steps, FD_CONTROLS)), FD_DT)
            self.cases.append((name, problem, grid))
        self.objectives = (grape.qfi_objective(), grape.cfi_objective(fisher.Povm.plus_minus()))
        self.warm_grid = _warm_grid(seed, steps, FD_DT)

    def warm_up(self) -> None:
        dynamics.propagate(self.cases[0][1], self.warm_grid)

    def run(self) -> Outcome:
        attempted = failed = 0
        problems = []
        rel_errors = []
        for name, problem, grid in self.cases:
            for objective in self.objectives:
                entries = grid.amplitudes.size
                attempted += entries
                try:
                    traj = dynamics.propagate(problem, grid)
                    analytic = grape.gradient(traj, problem, objective)
                    numeric = grape.finite_difference_gradient(problem, grid, objective, FD_DELTA)
                except QGrapeError as exc:
                    failed += entries
                    problems.append(f"{name}/{objective.kind}: {type(exc).__name__}: {exc}")
                    continue
                diff = np.abs(analytic - numeric)
                rel = diff / np.maximum(np.abs(numeric), 1e-300)
                bad = int((~((rel <= FD_REL_TOL) | (diff <= FD_ABS_TOL))).sum())
                if bad:
                    failed += bad
                    problems.append(
                        f"{name}/{objective.kind}: {bad} entries outside tolerance, "
                        f"worst abs deviation {diff.max():.3e}"
                    )
                rel_errors.extend(rel[np.abs(numeric) > FD_ABS_TOL].tolist())
        # agreement of the exact gradient with finite differences, 1 = exact
        quality = 1.0 - statistics.median(rel_errors) if rel_errors else math.nan
        return Outcome(attempted, failed, quality, problems)


def _override_config(text: str, values: dict[str, str]) -> str:
    lines = []
    for raw in text.splitlines():
        key = raw.split("#", 1)[0].partition("=")[0].strip()
        lines.append(f"{key} = {values[key]}" if key in values else raw)
    return "\n".join(lines) + "\n"


def _read_table(path: Path) -> tuple[list[str], list[list[float]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [[float(c) for c in line.split(",")] for line in lines[1:]]


class SweepHorizon:
    def __init__(self, seed: int, tmp: Path, smoke: bool):
        text = (INPUTS / "sweep_horizon.cfg").read_text(encoding="utf-8")
        if smoke:
            text = _override_config(text, SMOKE_SWEEP)
        config_path = tmp / "sweep_horizon.cfg"
        config_path.write_text(text, encoding="utf-8")
        self.out = tmp / "sweep_out"
        self.argv = ["sweep", "--config", str(config_path), "--out", str(self.out), "--seed", str(seed)]
        config = experiments.load_config(config_path)
        self.points = config.sweep_points
        problem = dynamics.frequency_estimation_problem(
            config.omega0_true, config.noise_model(), dynamics.plus_state(), config.sweep_start
        )
        self.warm = (problem, _warm_grid(seed, round(config.sweep_start / config.dt), config.dt))

    def warm_up(self) -> None:
        dynamics.propagate(*self.warm)

    def run(self) -> Outcome:
        code = cli.main(self.argv)
        if code != 0:
            return Outcome(self.points, self.points, math.nan, [f"qgrape sweep exited {code}"])
        return self._check()

    def _check(self) -> Outcome:
        problems = []
        table = self.out / "horizon_scan.csv"
        try:
            experiments.check_output_schema(table)
        except (OSError, QGrapeError) as exc:
            return Outcome(self.points, self.points, math.nan, [f"{table.name}: {exc}"])
        header, rows = _read_table(table)
        col = {name: i for i, name in enumerate(header)}
        failed = 0
        ratios = []
        if len(rows) != self.points:
            failed += abs(self.points - len(rows))
            problems.append(f"{len(rows)} rows for {self.points} sweep points")
        for row in rows:
            bad = [name for name in experiments.METRIC_COLUMNS if not math.isfinite(row[col[name]])]
            if bad:
                failed += 1
                problems.append(f"T={row[0]}: non-finite {', '.join(bad)}")
            elif row[col["qfi"]] < row[col["cfi"]]:
                failed += 1
                problems.append(f"T={row[0]}: qfi {row[col['qfi']]} < cfi {row[col['cfi']]}")
            else:
                ratios.append(row[col["qfi"]] / row[col["oracle_qfi"]])
        # a flagged point also leaves a row of nan, so count the larger of the two
        manifest = (self.out / "manifest.txt").read_text(encoding="utf-8")
        flagged = []
        if "[flagged_points]" in manifest:
            section = manifest.split("[flagged_points]", 1)[1].split("\n\n", 1)[0]
            flagged = section.strip().splitlines()
            problems.extend(f"flagged: {line}" for line in flagged)
        failed = min(self.points, max(failed, len(flagged)))
        quality = statistics.median(ratios) if ratios else math.nan
        return Outcome(self.points, failed, quality, problems)


WORKLOADS = {
    "ascent_exact": AscentExact,
    "fd_oracle": FdOracle,
    "sweep_horizon": SweepHorizon,
}
