"""Command-line front end.

Subcommands::

    qgrape simulate --config FILE [--schedule FILE] [--dt X]
    qgrape optimize --config FILE [--out DIR] [--seed N]
    qgrape sweep    --config FILE --out DIR [--seed N]
    qgrape oracle   MODEL [--gamma X] [--gamma-plus X] [--gamma-minus X]
                    [--omega0 X] [--horizon X] [--t0 X]
    qgrape energy   --schedule FILE [--out DIR]

Exit status: 0 on success, 1 on usage and configuration errors (unknown
flags, missing files, bad keys or values), 2 on numerical failures during
propagation/optimization.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import experiments, oracles
from .dynamics import ControlGrid, propagate, step_count
from .errors import ConfigError, QGrapeError, ValidationError
from .fisher import cfi, qfi
from .grape import ascend
from .experiments import (
    ScenarioConfig,
    config_snapshot,
    energy_cost,
    load_config,
    read_schedule,
    run_sweep,
    write_run,
    write_schedule,
)

__all__ = ["main"]


def _add_common(parser: argparse.ArgumentParser, ascent: bool = True) -> None:
    parser.add_argument("--config", required=True, help="scenario config file")
    if ascent:  # simulate runs no ascent and writes nothing
        parser.add_argument("--out", default=None, help="output directory")
        parser.add_argument("--seed", type=int, default=None, help="override ascent seed")
    parser.add_argument("--dt", type=float, default=None, help="override control step width")
    parser.add_argument("--verbose", action="store_true")


class _Parser(argparse.ArgumentParser):
    """Exits 1 on usage errors: argparse's own status 2 is this CLI's code for
    numerical failures."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qgrape",
        description="Control-pulse optimization for qubit frequency estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="propagate a scenario and report its information")
    _add_common(sim, ascent=False)
    sim.add_argument("--schedule", default=None, help="schedule CSV to apply (default: no controls)")

    opt = sub.add_parser("optimize", help="run gradient ascent on a scenario")
    _add_common(opt)

    swp = sub.add_parser("sweep", help="run the sweep declared in the config")
    _add_common(swp)

    orc = sub.add_parser("oracle", help="evaluate a closed-form benchmark")
    orc.add_argument(
        "model",
        choices=["transverse", "parallel", "spontaneous", "parallel-pulse", "spontaneous-pulse"],
    )
    orc.add_argument("--gamma", type=float, default=0.1)
    orc.add_argument("--gamma-plus", type=float, default=0.0)
    orc.add_argument("--gamma-minus", type=float, default=0.1)
    orc.add_argument("--omega0", type=float, default=1.0)
    orc.add_argument("--horizon", type=float, required=True)
    orc.add_argument("--t0", type=float, default=0.0)
    orc.add_argument("--verbose", action="store_true")

    eng = sub.add_parser("energy", help="cumulative control energy of a schedule")
    eng.add_argument("--schedule", required=True, help="schedule CSV")
    eng.add_argument("--out", default=None, help="write energy table here instead of stdout")
    eng.add_argument("--verbose", action="store_true")
    return parser


def _apply_overrides(config: ScenarioConfig, args) -> ScenarioConfig:
    if getattr(args, "seed", None) is not None:
        config = replace(config, ascent=replace(config.ascent, seed=args.seed))
    if getattr(args, "dt", None) is not None:
        config = replace(
            config, dt=args.dt, ascent=replace(config.ascent, dt=args.dt)
        )
    return config


def _cmd_simulate(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    problem = experiments._scenario_problem(config, config.design_frequency)
    if args.schedule is not None:
        grid = read_schedule(args.schedule)
    else:
        m = step_count(config.horizon, config.dt)
        grid = ControlGrid.zeros(m, problem.n_controls, config.dt)
    traj = propagate(problem, grid, x=config.omega0_true)
    drho = traj.final_state_derivative
    q = qfi(traj.final_state, drho)
    c = cfi(traj.final_state, drho, config.povm())
    print(f"qfi = {q:.6g}")
    print(f"cfi = {c:.6g}")
    if args.verbose:
        print(f"qfi_per_t = {q / config.horizon:.6g}")
        print(f"qfi_per_t2 = {q / config.horizon**2:.6g}")
    return 0


def _cmd_optimize(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    problem = experiments._scenario_problem(config, config.design_frequency)
    report = ascend(problem, config.ascent, config.objective())
    if report.error is not None:
        print(f"optimization failed at iteration {report.failed_iteration}: {report.error}",
              file=sys.stderr)
        return 2
    final = report.objective_history[-1]
    print(f"{config.objective_kind} = {final:.6g}")
    print(f"iterations = {report.iterations_used}")
    print(f"converged = {report.converged}")
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_schedule(out / "schedule.csv", report.final_grid)
        history = "\n".join(f"{i},{v:.11e}" for i, v in enumerate(report.objective_history))
        (out / "history.csv").write_text("iteration,objective\n" + history + "\n",
                                         encoding="utf-8")
        (out / "config.cfg").write_text(config_snapshot(config), encoding="utf-8")
        print(f"wrote {out / 'schedule.csv'}")
    return 0


def _cmd_sweep(args) -> int:
    if args.out is None:
        raise ConfigError("sweep requires --out DIR")
    config = _apply_overrides(load_config(args.config), args)
    record = run_sweep(config)
    written = write_run(record, args.out)
    for path in written:
        print(f"wrote {path}")
    if record.flagged:
        print(f"{len(record.flagged)} point(s) flagged; see manifest", file=sys.stderr)
    if record.below_uncontrolled:
        count = len(record.below_uncontrolled)
        print(f"{count} optimized point(s) below free evolution; see manifest", file=sys.stderr)
    return 0


def _cmd_oracle(args) -> int:
    if args.model == "transverse":
        value = oracles.transverse_controlled_qfi(args.gamma, args.horizon)
    elif args.model == "parallel":
        value = oracles.parallel_free_qfi(args.gamma, args.horizon)
    elif args.model == "spontaneous":
        value = oracles.spontaneous_free_qfi(args.gamma_plus, args.gamma_minus, args.horizon)
    elif args.model == "parallel-pulse":
        value = oracles.parallel_single_pulse_qfi(
            oracles.SinglePulsePlan(
                t0=args.t0, horizon=args.horizon, omega0=args.omega0, gamma=args.gamma
            )
        )
    else:
        value = oracles.spontaneous_single_pulse_qfi(
            oracles.SinglePulsePlan(
                t0=args.t0,
                horizon=args.horizon,
                omega0=args.omega0,
                gamma_plus=args.gamma_plus,
                gamma_minus=args.gamma_minus,
            )
        )
    print(f"{value:.6g}")
    return 0


def _cmd_energy(args) -> int:
    grid = read_schedule(args.schedule)
    table = energy_cost(grid)
    lines = ["t,energy"] + [f"{t:.11e},{e:.11e}" for t, e in table]
    text = "\n".join(lines) + "\n"
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "energy.csv").write_text(text, encoding="utf-8")
        print(f"wrote {out / 'energy.csv'}")
    else:
        print(text, end="")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "optimize": _cmd_optimize,
    "sweep": _cmd_sweep,
    "oracle": _cmd_oracle,
    "energy": _cmd_energy,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ValidationError) as exc:
        # bad files, keys, values, or mutually inconsistent inputs
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except QGrapeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
