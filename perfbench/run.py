"""qgrape benchmark: one command for every end-to-end or per-layer metric.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads, metrics, units, directions and bounds are declared in
``BENCHMARK.json``.  Load is closed-loop from one caller: workload processes
run one after another, each a fresh single-threaded interpreter (BLAS pinned to
one thread) that runs one unit of work on inputs built from ``--seed``.  New
processes start until ``--seconds`` have passed.  Times are converted to
seconds at the host's full speed with the slowdown that ``speed.py`` measures
in the same process; ``units_per_s`` is the work rate over all units, the
other metrics are medians over the processes.  The figures as measured are
printed too, and each process's result is kept in
``.perfbench_out/processes-<workload>.json``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced process and reports the per-layer metrics from the
spans, plus the tracing overhead (traced minus untraced wall time).  Spans and
the environment record go to ``.perfbench_out/``; sweep outputs go to a
temporary directory under ``.perfbench_tmp/`` that is removed afterwards.

Every unit's outputs are checked.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
exit status is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# a run must end within 180 s; a process still running at this point is killed
HARD_DEADLINE_S = 170.0
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_revision() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def src_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((ROOT / "src").rglob("*.py"))
    )


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "git_revision": _git_revision(),
        "repo.src_lines": src_lines(),
        "blas_threads": 1,
    }


# What the generic end-to-end metrics measure on each workload.
ALIASES = {
    "ascent_exact": {"units_per_s": "ascent_iter_per_s", "quality_ratio": "ascent_final_ratio"},
    "fd_oracle": {"units_per_s": "fd_entries_per_s", "quality_ratio": "fd_gradient_agreement"},
    "sweep_horizon": {"units_per_s": "sweep_points_per_s", "quality_ratio": "sweep_qfi_over_oracle"},
}


class WorkloadFailure(RuntimeError):
    pass


def run_process(workload: str, seed: int, tmp: Path, index: int, deadline: float,
                trace_path: Path | None, smoke: bool) -> dict:
    """Run one workload process to completion and return its result."""
    work_dir = tmp / f"p{index:03d}"
    result_path = tmp / f"p{index:03d}.json"
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--tmp", str(work_dir),
        "--result", str(result_path),
    ]
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    if smoke:
        cmd.append("--smoke")
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkloadFailure(f"workload process exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0 or not result_path.is_file():
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise WorkloadFailure(f"workload process exited {proc.returncode}:\n{tail}")
    shutil.rmtree(work_dir, ignore_errors=True)
    return json.loads(result_path.read_text(encoding="utf-8"))


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
            tmp: Path, out_dir: Path) -> tuple[list[dict], list[dict]]:
    """Start workload processes one after another for about ``seconds``: the
    next one starts only if it would be half done by then.  Returns (untraced
    results, traced results)."""
    deadline = time.monotonic() + HARD_DEADLINE_S
    start = time.monotonic()
    plain: list[dict] = []
    traced: list[dict] = []
    index = 0
    while True:
        plain.append(run_process(workload, seed, tmp, index, deadline, None, smoke))
        index += 1
        if trace:
            spans = out_dir / f"spans-{workload}.jsonl"
            traced.append(run_process(workload, seed, tmp, index, deadline, spans, smoke))
            index += 1
        elapsed = time.monotonic() - start
        if elapsed + 0.5 * elapsed / len(plain) >= seconds:
            return plain, traced


def median_of(results: list[dict], key) -> float:
    return statistics.median(key(r) for r in results)


def end_to_end_metrics(results: list[dict]) -> dict[str, float]:
    # durations divided by the measured slowdown are seconds at full speed
    units = sum(r["attempted"] for r in results)
    full_speed_s = sum(r["wall_s"] / r["slowdown"] for r in results)
    return {
        "units_per_s": units / full_speed_s,
        "quality_ratio": median_of(results, lambda r: r["quality"]),
        "peak_rss_mb": median_of(results, lambda r: r["peak_rss_mb"]),
        "setup_s": median_of(results, lambda r: r["setup_s"] / r["setup_slowdown"]),
    }


def per_layer_metrics(plain: list[dict], traced: list[dict], env: dict) -> dict[str, float]:
    out = {key: median_of(traced, lambda r: r["layers"][key]) for key in traced[0]["layers"]}
    out["trace.wall_s"] = median_of(traced, lambda r: r["wall_s"])
    out["trace.untraced_wall_s"] = median_of(plain, lambda r: r["wall_s"])
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    out["host.slowdown"] = median_of(plain, lambda r: r["slowdown"])
    out["repo.src_lines"] = env["repo.src_lines"]
    return out


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "qgrape" / "__init__.py").is_file():
        print(f"no qgrape sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = environment()
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    try:
        plain, traced = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                                args.smoke, tmp, out_dir)
    except WorkloadFailure as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    results = plain + traced
    env.update(results[0]["versions"])
    (out_dir / "env.json").write_text(json.dumps(env, indent=2) + "\n", encoding="utf-8")
    (out_dir / f"processes-{args.workload}.json").write_text(json.dumps(results), encoding="utf-8")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    problems = [p for r in results for p in r["problems"]]
    if args.trace:
        metrics = per_layer_metrics(plain, traced, env)
        declared = spec["per_layer"]
    else:
        metrics = end_to_end_metrics(plain)
        declared = spec["end_to_end"]

    missing = {m["name"] for m in declared} - metrics.keys()
    if missing:
        print(f"benchmark reports no value for {sorted(missing)}", file=sys.stderr)
        return 1

    print("env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced process(es)")
    for m in declared:
        alias = ALIASES.get(args.workload, {}).get(m["name"])
        print(f"  {m['name']:<44} {metrics[m['name']]:>16.6g} {m['unit']}, "
              f"{m['better']} is better" + (f" (= {alias})" if alias else ""))
    print(f"  {'fail_frac':<44} {failed / attempted:>16.6g} of {attempted} unit(s)")
    print("  per process, as measured (units/s, setup s, host slowdown): " + ", ".join(
        f"{r['attempted'] / r['wall_s']:.4g}/{r['setup_s']:.3f}/{r['slowdown']:.2f}" for r in plain))
    if args.trace and traced[0].get("unhooked"):
        print("  not hooked (absent in this version): " + ", ".join(traced[0]["unhooked"]))
    if args.trace and not metrics["dynamics.expm_cache.present"]:
        print("  dynamics.expm_cache: absent")
    for name, value in metrics.items():
        if not math.isfinite(value):
            problems.append(f"metric {name} is {value}")
            metrics[name] = 0.0
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
