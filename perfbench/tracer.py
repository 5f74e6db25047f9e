"""In-memory span tracer that wraps qgrape's public entry points.

Tracing rebinds module attributes: every module of the ``qgrape`` package that
holds a hooked function, including names pulled in with
``from .dynamics import propagate``, gets the same wrapper.  Each call records
a span (name, start, end, parent, run id); spans stay in memory until the run
ends and are then summarised or written out.  Uninstalling restores the
original functions.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval covered by the
    union of its direct children's intervals."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted(children[index], key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.duration - covered)
    return out


def tail_percentile(n: int) -> float | None:
    """Highest of p99.9/p99/p90/p50 with at least ten samples beyond it."""
    for pct, beyond_per_mille in ((99.9, 1), (99.0, 10), (90.0, 100), (50.0, 500)):
        if n * beyond_per_mille >= 10 * 1000:
            return pct
    return None


def percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(pct / 100.0 * (len(ordered) - 1))))
    return ordered[rank]


# A name is a fixed span name or a function of the call's (args, kwargs).
SpanName = str | Callable[[tuple, dict], str]
# A count hook adds to the tracer's counters after a call returns.
CountHook = Callable[[Counter, tuple, dict, object], None]


class Tracer:
    """Records spans for calls made through wrapped functions."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span | None] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, fn: Callable, name: SpanName, count: CountHook | None = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = Span(span_name, start, end, parent, self.run_id)
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return wrapper

    def install(self, package: str, hooks) -> list[str]:
        """Wrap each ``(module, attr, name, count)`` hook wherever the
        package's modules bind the original function.  Hooks whose attribute
        does not exist are skipped and returned, so the benchmark keeps
        running when a later version removes a function."""
        modules = [
            mod
            for mod_name, mod in list(sys.modules.items())
            if mod is not None and (mod_name == package or mod_name.startswith(package + "."))
        ]
        missing = []
        for module_name, attr, name, count in hooks:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self.wrap(original, name, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))
        return missing

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def finished(self) -> list[Span]:
        if self._stack:
            raise RuntimeError("spans are still open")
        return self.spans

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, and durations."""
        spans = self.finished()
        selfs = self_times(spans)
        out: dict[str, dict] = {}
        for span, self_s in zip(spans, selfs):
            entry = out.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []})
            entry["calls"] += 1
            entry["s"] += span.duration
            entry["self_s"] += self_s
            entry["durations"].append(span.duration)
        return out

    def count_under(self, child: str, ancestor: str) -> int:
        """Number of ``child`` spans with an ``ancestor`` span above them."""
        spans = self.finished()
        total = 0
        for span in spans:
            if span.name != child:
                continue
            parent = span.parent
            while parent >= 0:
                if spans[parent].name == ancestor:
                    total += 1
                    break
                parent = spans[parent].parent
        return total

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for index, span in enumerate(self.finished()):
                fh.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "run_id": span.run_id,
                        }
                    )
                    + "\n"
                )


def layer_stats(summary: dict[str, dict], name: str) -> dict[str, float]:
    """calls / s / self_s / p50_ms / tail_ms for one span name (zeros when
    the span never occurred)."""
    entry = summary.get(name)
    if entry is None:
        return {"calls": 0, "s": 0.0, "self_s": 0.0, "p50_ms": 0.0, "tail_ms": 0.0}
    durations = entry["durations"]
    pct = tail_percentile(len(durations))
    return {
        "calls": entry["calls"],
        "s": entry["s"],
        "self_s": entry["self_s"],
        "p50_ms": 1e3 * statistics.median(durations),
        "tail_ms": 1e3 * percentile(durations, pct) if pct is not None else 0.0,
    }

