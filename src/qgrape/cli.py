"""Command-line front end.

Subcommands::

    qgrape simulate --config FILE [--schedule FILE | --dt X] [--verbose]
    qgrape optimize --config FILE [--out DIR] [--seed N] [--dt X]
    qgrape sweep    --config FILE --out DIR [--seed N] [--dt X]
    qgrape oracle   MODEL --horizon X [--PARAMETER X ...]  (the closed form's parameters)
    qgrape energy   --schedule FILE [--out DIR]

Exit status: 0 on success, 1 on usage and configuration errors (unknown
flags, missing or undecodable files, bad keys or values) and on files that
cannot be written, 2 on numerical failures during propagation/optimization.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from dataclasses import replace
from pathlib import Path

from . import experiments, oracles
from .dynamics import ControlGrid, step_count
from .errors import ConfigError, QGrapeError, ValidationError
from .grape import ascend

__all__ = ["main"]


def _add_common(parser: argparse.ArgumentParser, ascent: bool = True) -> None:
    parser.add_argument("--config", required=True, help="scenario config file")
    if ascent:
        parser.add_argument("--out", default=None, help="output directory")
        parser.add_argument("--seed", type=int, default=None, help="override ascent seed")
        widths = parser
    else:
        # simulate runs no ascent and writes nothing; a schedule sets its own step width
        widths = parser.add_mutually_exclusive_group()
        widths.add_argument("--schedule", help="schedule CSV to apply (default: no controls)")
    widths.add_argument("--dt", type=float, default=None, help="override control step width")


# each closed form of `qgrape oracle`; its flags are its parameters, with
# these defaults (--horizon has none and is required)
_ORACLES = {
    "transverse": oracles.transverse_controlled_qfi,
    "parallel": oracles.parallel_free_qfi,
    "spontaneous": oracles.spontaneous_free_qfi,
    "parallel-pulse": oracles.parallel_single_pulse_qfi,
    "spontaneous-pulse": oracles.spontaneous_single_pulse_qfi,
}
_ORACLE_DEFAULTS = {"gamma": 0.1, "gamma_minus": 0.1, "gamma_plus": 0.0, "omega0": 1.0, "t0": 0.0}


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
    sim.add_argument("--verbose", action="store_true", help="also print qfi/T and qfi/T^2")

    opt = sub.add_parser("optimize", help="run gradient ascent on a scenario")
    _add_common(opt)

    swp = sub.add_parser("sweep", help="run the sweep declared in the config")
    _add_common(swp)

    orc = sub.add_parser("oracle", help="evaluate a closed-form benchmark")
    models = orc.add_subparsers(dest="model", required=True)
    for model, oracle in _ORACLES.items():
        # no abbreviations: --gamma must not stand for another model's --gamma-minus
        parsed = models.add_parser(model, help=f"oracles.{oracle.__name__}", allow_abbrev=False)
        parsed.set_defaults(oracle=oracle)
        for name in inspect.signature(oracle).parameters:
            default = _ORACLE_DEFAULTS.get(name)
            parsed.add_argument("--" + name.replace("_", "-"), type=float, default=default,
                                required=default is None)

    eng = sub.add_parser("energy", help="cumulative control energy of a schedule")
    eng.add_argument("--schedule", required=True, help="schedule CSV")
    eng.add_argument("--out", default=None, help="write energy table here instead of stdout")
    return parser


# each override flag and the config key whose value it replaces
_OVERRIDES = {"seed": "ascent.seed", "dt": "dt"}


def _apply_overrides(config: experiments.ScenarioConfig, args) -> experiments.ScenarioConfig:
    """``config`` with the flags given; a flag of a key it does not read is a config error."""
    changes = {k: v for k in _OVERRIDES if (v := getattr(args, k, None)) is not None}
    read = experiments._keys_read(config.noise, config.sweep_axis)
    for flag in changes:
        if _OVERRIDES[flag] not in read:
            raise ConfigError(f"sweep = {config.sweep_axis} does not read '--{flag}'")
    return replace(config, ascent=replace(config.ascent, **changes))


def _cmd_simulate(args) -> int:
    config = _apply_overrides(experiments.load_config(args.config), args)
    problem = experiments._scenario_problem(config, config.omega0_true)
    if args.schedule is not None:
        grid = experiments.read_schedule(args.schedule)
    else:
        m = step_count(config.horizon, config.dt)
        grid = ControlGrid.zeros(m, problem.n_controls, config.dt)
    q, c = experiments._qfi_cfi_of_grid(problem, grid, config.povm())
    print(f"qfi = {q:.6g}")
    print(f"cfi = {c:.6g}")
    if args.verbose:
        print(f"qfi_per_t = {q / config.horizon:.6g}")
        print(f"qfi_per_t2 = {q / config.horizon**2:.6g}")
    return 0


def _cmd_optimize(args) -> int:
    config = _apply_overrides(experiments.load_config(args.config), args)
    problem = experiments._scenario_problem(config, config.design_frequency)
    report = ascend(problem, config.ascent, config.objective())
    grid = experiments._optimized_grid(report)
    print(f"{config.objective_kind} = {report.objective_history[-1]:.6g}")
    print(f"iterations = {report.iterations_used}")
    print(f"converged = {report.converged}")
    if args.out is not None:
        out = Path(args.out)
        experiments.write_schedule(out / "schedule.csv", grid)
        history = enumerate(report.objective_history)
        experiments._write_lines(out / "history.csv",
                                 experiments._table_lines(("iteration", "objective"), history))
        experiments._write_lines(out / "config.cfg",
                                 experiments.config_snapshot(config).splitlines())
        print(f"wrote {out / 'schedule.csv'}")
    return 0


def _cmd_sweep(args) -> int:
    if args.out is None:
        raise ConfigError("sweep requires --out DIR")
    record = experiments.run_sweep(_apply_overrides(experiments.load_config(args.config), args))
    written = experiments.write_run(record, args.out)
    for path in written:
        print(f"wrote {path}")
    if record.flagged:
        print(f"{len(record.flagged)} point(s) flagged; see manifest", file=sys.stderr)
    if record.below_uncontrolled:
        count = len(record.below_uncontrolled)
        print(f"{count} optimized point(s) below free evolution; see manifest", file=sys.stderr)
    return 0


def _cmd_oracle(args) -> int:
    names = inspect.signature(args.oracle).parameters
    print(f"{args.oracle(**{name: getattr(args, name) for name in names}):.6g}")
    return 0


def _cmd_energy(args) -> int:
    table = experiments.energy_cost(experiments.read_schedule(args.schedule))
    lines = experiments._table_lines(("t", "energy"), table)
    if args.out is not None:
        print(f"wrote {experiments._write_lines(Path(args.out) / 'energy.csv', lines)}")
    else:
        print(*lines, sep="\n")
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
    except OSError as exc:  # e.g. an output directory that is a file
        print(f"file error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
