"""One workload process: import qgrape, build the inputs, make one warm-up
call, run one unit of work, check it and write a JSON result file.

Started by ``run.py``; each process runs exactly one unit, so its set-up time
is that of a fresh interpreter and its peak RSS belongs to that unit alone.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402  (imports qgrape)
from qgrape import dynamics  # noqa: E402
from speed import SpeedProbe, current_slowdown  # noqa: E402
from tracer import Tracer, layer_stats  # noqa: E402


def _steps(counters, args, kwargs, result):
    counters["dynamics.steps"] += result.n_steps


def _gradient_name(args, kwargs):
    method = kwargs.get("method", args[3] if len(args) > 3 else "exact")
    return f"grape.gradient.{method}"


def _gradient_blocks(counters, args, kwargs, result):
    # the exact path takes one 8x8 block exponential per step and control
    if _gradient_name(args, kwargs) == "grape.gradient.exact":
        counters["grape.gradient.exact.block_expm_computed"] += result.size


def _ascent_iterations(counters, args, kwargs, result):
    counters["grape.ascend.iterations"] += result.iterations_used


def _sweep_points(counters, args, kwargs, result):
    counters["experiments.points"] += sum(len(rows) for rows in result.tables.values())
    counters["experiments.flagged"] += len(result.flagged)


def _written_bytes(counters, args, kwargs, result):
    counters["experiments.write_run.bytes"] += sum(Path(p).stat().st_size for p in result)


# (module, attribute, span name, count hook): the public entry point of each
# layer.  Every module that imported the function by name is rebound too.
HOOKS = [
    ("qgrape.dynamics", "propagate", "dynamics.propagate", _steps),
    ("qgrape.dynamics", "step_propagator", "dynamics.step_propagator", None),
    ("qgrape.fisher", "sld", "fisher.sld", None),
    ("qgrape.fisher", "qfi", "fisher.qfi", None),
    ("qgrape.fisher", "cfi", "fisher.cfi", None),
    ("qgrape.grape", "gradient", _gradient_name, _gradient_blocks),
    ("qgrape.grape", "ascend", "grape.ascend", _ascent_iterations),
    ("qgrape.grape", "finite_difference_gradient", "grape.finite_difference_gradient", None),
    ("qgrape.oracles", "parallel_single_pulse_qfi", "oracles.single_pulse", None),
    ("qgrape.oracles", "spontaneous_single_pulse_qfi", "oracles.single_pulse", None),
    ("qgrape.experiments", "run_sweep", "experiments.run_sweep", _sweep_points),
    ("qgrape.experiments", "write_run", "experiments.write_run", _written_bytes),
    ("qgrape.cli", "main", "cli.main", None),
]


def _cache_info():
    """expm LRU statistics, or None once the cache no longer exists."""
    cached = getattr(dynamics, "_expm_cached", None)
    info = getattr(cached, "cache_info", None)
    return info() if info is not None else None


def layer_metrics(tracer: Tracer, before, after, outcome: workloads.Outcome) -> dict:
    summary = tracer.summary()
    counters = tracer.counters
    out: dict[str, float] = {}

    def put(prefix, span, keys):
        stats = layer_stats(summary, span)
        for key in keys:
            out[f"{prefix}.{key}"] = stats[key]

    put("dynamics.propagate", "dynamics.propagate", ("calls", "s", "self_s", "p50_ms", "tail_ms"))
    steps = counters["dynamics.steps"]
    out["dynamics.steps"] = steps
    out["dynamics.propagate.us_per_step"] = 1e6 * out["dynamics.propagate.s"] / steps if steps else 0.0
    put("dynamics.step_propagator", "dynamics.step_propagator", ("calls", "s"))

    if before is not None and after is not None:
        hits = after.hits - before.hits
        misses = after.misses - before.misses
        out["dynamics.expm_cache.present"] = 1
        out["dynamics.expm_cache.lookups"] = hits + misses
        out["dynamics.expm_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out["dynamics.expm_cache.entries"] = after.currsize
        out["dynamics.expm.computed"] = misses
    else:
        # no cache: every step exponential is computed, nothing is held
        out["dynamics.expm_cache.present"] = 0
        out["dynamics.expm_cache.lookups"] = 0
        out["dynamics.expm_cache.hit_ratio"] = 0.0
        out["dynamics.expm_cache.entries"] = 0
        out["dynamics.expm.computed"] = out["dynamics.step_propagator.calls"]

    for method in ("exact", "adjoint"):
        put(f"grape.gradient.{method}", f"grape.gradient.{method}", ("calls", "s", "p50_ms"))
    out["grape.gradient.exact.block_expm_computed"] = counters["grape.gradient.exact.block_expm_computed"]

    put("grape.ascend", "grape.ascend", ("calls", "s", "self_s"))
    iterations = counters["grape.ascend.iterations"]
    out["grape.ascend.iterations"] = iterations
    # the first propagation of each ascent evaluates the starting schedule
    per_iter = tracer.count_under("dynamics.propagate", "grape.ascend") - out["grape.ascend.calls"]
    out["grape.ascend.propagations_per_iter"] = per_iter / iterations if iterations else 0.0
    out["grape.ascend.iters_to_95pct"] = outcome.iters_to_95pct

    put("grape.finite_difference_gradient", "grape.finite_difference_gradient", ("calls", "s"))
    for name in ("qfi", "cfi", "sld"):
        put(f"fisher.{name}", f"fisher.{name}", ("calls", "s"))
    put("oracles.single_pulse", "oracles.single_pulse", ("calls", "s"))
    put("experiments.run_sweep", "experiments.run_sweep", ("s", "self_s"))
    put("experiments.write_run", "experiments.write_run", ("s",))
    out["experiments.write_run.bytes"] = counters["experiments.write_run.bytes"]
    out["experiments.points"] = counters["experiments.points"]
    out["experiments.flagged"] = counters["experiments.flagged"]
    put("cli.main", "cli.main", ("s", "self_s"))
    out["trace.spans"] = len(tracer.finished())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", type=Path, required=True, help="scratch directory for outputs")
    parser.add_argument("--result", type=Path, required=True, help="JSON result file to write")
    parser.add_argument("--trace", type=Path, default=None, help="trace and write spans here")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)

    args.tmp.mkdir(parents=True, exist_ok=True)
    unit = workloads.WORKLOADS[args.workload](args.seed, args.tmp, args.smoke)
    unit.warm_up()
    setup_s = time.perf_counter() - _START
    setup_slowdown = current_slowdown()

    tracer = None
    if args.trace is not None:
        tracer = Tracer(run_id=f"{args.workload}-{args.seed}-{os.getpid()}")
        missing = tracer.install("qgrape", HOOKS)
    # the probe's kernel would land in the spans, so traced processes go without
    probe = SpeedProbe()
    before = _cache_info()
    try:
        with probe if tracer is None else contextlib.nullcontext():
            start = time.perf_counter()
            outcome = unit.run()
            end = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall_s = end - start - probe.overhead_s
    after = _cache_info()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux

    result = {
        "setup_s": setup_s,
        "setup_slowdown": setup_slowdown,
        "wall_s": wall_s,
        "slowdown": probe.slowdown if tracer is None else None,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "quality": outcome.quality,
        "problems": outcome.problems,
        "peak_rss_mb": peak_kib / 1024.0,
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, before, after, outcome)
        result["unhooked"] = missing
        tracer.write(args.trace)
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
