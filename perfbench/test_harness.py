"""Self-test of the benchmark harness; not part of the package's test suite.

Run from the repository root with::

    python3 -m pytest -q perfbench/test_harness.py
"""

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

from speed import SpeedProbe
from tracer import Span, Tracer, self_times, tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = [
        Span("root", 0.0, 10.0, -1, "r"),
        Span("a", 1.0, 3.0, 0, "r"),
        Span("b", 2.0, 5.0, 0, "r"),  # overlaps a: together they cover [1, 5]
        Span("c", 8.0, 12.0, 0, "r"),  # only [8, 10] lies inside the root
        Span("grandchild", 1.5, 2.5, 1, "r"),
    ]
    assert self_times(spans) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(19) is None
    assert tail_percentile(20) == 50.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(10000) == 99.9


def test_install_rebinds_every_import_and_records_nesting(monkeypatch):
    inner_mod = types.ModuleType("fakepkg.inner")
    outer_mod = types.ModuleType("fakepkg.outer")

    def work(x):
        time.sleep(0.001)
        return x + 1

    inner_mod.work = work
    outer_mod.work = work  # as after ``from .inner import work``
    outer_mod.drive = lambda: outer_mod.work(1) + outer_mod.work(2)
    for mod in (inner_mod, outer_mod):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)

    tracer = Tracer("t")
    missing = tracer.install(
        "fakepkg",
        [
            ("fakepkg.inner", "work", "inner.work", lambda c, a, k, r: c.update(calls=1)),
            ("fakepkg.outer", "drive", "outer.drive", None),
            ("fakepkg.inner", "gone", "inner.gone", None),
        ],
    )
    assert missing == ["fakepkg.inner.gone"]
    assert inner_mod.work is outer_mod.work is not work
    assert outer_mod.drive() == 5
    tracer.uninstall()
    assert inner_mod.work is work and outer_mod.work is work

    spans = tracer.finished()
    assert [s.name for s in spans] == ["outer.drive", "inner.work", "inner.work"]
    assert [s.parent for s in spans] == [-1, 0, 0]
    assert tracer.counters["calls"] == 2
    summary = tracer.summary()
    drive = summary["outer.drive"]
    assert drive["self_s"] == pytest.approx(drive["s"] - summary["inner.work"]["s"])
    assert tracer.count_under("inner.work", "outer.drive") == 2


def test_speed_probe_samples_during_work_and_reports_its_own_time():
    with SpeedProbe() as probe:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            pass
        elapsed = time.perf_counter() - start
    assert len(probe.durations) >= 5
    assert 0.0 < probe.overhead_s < elapsed
    assert probe.slowdown > 0.0


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_declared_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("fd_oracle", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
