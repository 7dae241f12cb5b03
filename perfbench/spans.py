"""In-memory span recorder for the traced benchmark run.

A span is ``(name, layer, start, end, parent, job)``: times are
``perf_counter`` seconds, ``parent`` is the index of the enclosing span
(``-1`` at the top) and ``job`` the id of the benchmark job that caused
it.  Spans are kept in a list and written out only when the run ends, as
Chrome trace-event JSON (Perfetto and ``chrome://tracing`` open it) and
as a per-layer self-time table.

Spans come from wrapping the pipeline's functions at the names its
callers look them up by (:data:`PIPELINE_HOOKS`): the profiler binds the
stage functions as module globals, and the adaptive path reaches
``Interpreter.run``, ``PostmortemConsumer.feed/finish`` and
``BlameAttributor.attribute`` directly.  Nothing in the package itself
is edited; :meth:`Tracer.install` patches the names and
:meth:`Tracer.uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass

#: (module path, attribute path, layer).  An attribute path with a dot
#: names a method on a class of that module.
PIPELINE_HOOKS: tuple[tuple[str, str, str], ...] = (
    ("repro.compiler.lower", "compile_source", "compile"),
    ("repro.pipeline.stages", "compile_source", "compile"),
    ("repro.tooling.profiler", "compile_stage", "compile"),
    ("repro.tooling.profiler", "analyze_stage", "analyze"),
    ("repro.tooling.profiler", "collect_stage", "collect"),
    ("repro.runtime.interpreter", "Interpreter.run", "collect"),
    ("repro.tooling.profiler", "postmortem_stage", "postmortem"),
    ("repro.blame.postmortem", "PostmortemConsumer.feed", "postmortem"),
    ("repro.blame.postmortem", "PostmortemConsumer.finish", "postmortem"),
    ("repro.tooling.profiler", "attribute_stage", "attribute"),
    ("repro.blame.attribution", "BlameAttributor.attribute", "attribute"),
    ("repro.tooling.profiler", "aggregate_stage", "aggregate"),
    ("repro.sampling.adaptive", "AdaptiveController.sink", "adaptive"),
    ("repro.sampling.adaptive", "AdaptiveController.finish", "adaptive"),
    ("repro.artifact", "snapshot_from_result", "artifact.write"),
    ("repro.artifact", "write_artifact", "artifact.write"),
    ("repro.artifact", "read_artifact", "artifact.read"),
    ("repro.pipeline.stages", "render_stage", "render"),
    ("repro.analysis", "analyze_module", "advise"),
    ("repro.analysis", "rank_findings", "advise"),
    ("repro.analysis", "render_findings", "advise"),
)

#: Layer of the benchmark's own job and phase spans: their self time is
#: the glue code no pipeline layer accounts for.
DRIVER = "driver"


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int
    job: int


class Tracer:
    """Records nested spans; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.job = -1
        #: Per-layer counters hooks add to (e.g. cache hits seen by
        #: ``analyze`` spans).
        self.counters: dict[str, float] = {}

    # -- recording -------------------------------------------------------------

    def open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, layer, time.perf_counter(), 0.0, parent, self.job))
        ix = len(self.spans) - 1
        self._stack.append(ix)
        return ix

    def close(self, ix: int) -> None:
        self.spans[ix].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != ix:
            raise RuntimeError(f"span {self.spans[ix].name} closed out of order")

    def span(self, name: str, layer: str = DRIVER) -> "_SpanContext":
        return _SpanContext(self, name, layer)

    def count(self, key: str, n: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + n

    # -- installing the hooks --------------------------------------------------

    def wrap(self, fn, name: str, layer: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ix = tracer.open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(ix)

        return traced

    def install(self) -> None:
        """Patches every hook; a second install is an error."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for mod_path, attr_path, layer in PIPELINE_HOOKS:
            owner = importlib.import_module(mod_path)
            *outer, attr = attr_path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, f"{mod_path}.{attr_path}", layer))
        self._count_cache_stats()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _count_cache_stats(self) -> None:
        """Makes ``analyze`` spans count the blame-cache hits and
        lookups they cause (``repro.blame.cache.STATS`` deltas)."""
        from repro.blame.cache import STATS
        from repro.tooling import profiler

        fields = ("module_hits", "module_misses", "function_hits", "function_misses")
        inner = profiler.analyze_stage
        tracer = self

        @functools.wraps(inner)
        def counted(*args, **kwargs):
            before = [getattr(STATS, f) for f in fields]
            try:
                return inner(*args, **kwargs)
            finally:
                delta = [getattr(STATS, f) - b for f, b in zip(fields, before)]
                tracer.count("analyze.hits", delta[0] + delta[2])
                tracer.count("analyze.lookups", sum(delta))

        profiler.analyze_stage = counted

    # -- reading the tree ------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover
        (children of one span never overlap: the run is single-threaded)."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def layer_self_times(self) -> dict[str, float]:
        """Total self time per layer, over every recorded span."""
        out: dict[str, float] = {}
        for s, t in zip(self.spans, self.self_times()):
            out[s.layer] = out.get(s.layer, 0.0) + t
        return out

    def per_job(self) -> dict[int, dict[str, float]]:
        """Self time per layer for each job, plus its ``total`` (the
        root job span's duration)."""
        jobs: dict[int, dict[str, float]] = {}
        for s, t in zip(self.spans, self.self_times()):
            row = jobs.setdefault(s.job, {})
            row[s.layer] = row.get(s.layer, 0.0) + t
            if s.parent == -1:
                row["total"] = row.get("total", 0.0) + (s.end - s.start)
        return jobs

    def chrome_trace(self) -> dict:
        """Chrome trace-event JSON (complete ``X`` events, microseconds)."""
        t0 = self.spans[0].start if self.spans else 0.0
        events = [
            {
                "name": s.name,
                "cat": s.layer,
                "ph": "X",
                "ts": round((s.start - t0) * 1e6, 3),
                "dur": round((s.end - s.start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"job": s.job, "parent": s.parent},
            }
            for s in self.spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.chrome_trace(), f)


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str, layer: str) -> None:
        self.tracer, self.name, self.layer = tracer, name, layer
        self.ix = -1

    def __enter__(self) -> "_SpanContext":
        self.ix = self.tracer.open(self.name, self.layer)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.close(self.ix)


class NullTracer:
    """The untraced run's stand-in: spans cost one call and record nothing."""

    def span(self, name: str, layer: str = DRIVER) -> "_NullContext":
        return _NULL_CONTEXT


class _NullContext:
    def __enter__(self) -> "_NullContext":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_CONTEXT = _NullContext()
