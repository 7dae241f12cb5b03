"""The end-to-end tool: the four-step pipeline of paper Fig. 2.

1. static analysis  → :class:`~repro.blame.ModuleBlameInfo`
2. execution w/ sampling → :class:`~repro.sampling.Monitor` raw samples
3. post-mortem processing → instances → attribution
4. data presentation → :class:`~repro.blame.BlameReport` (+ views)

The stages themselves live in :mod:`repro.pipeline.stages`;
:class:`Profiler` drives them as one pass over the sample stream: the
monitor hands samples over in batches, each batch goes (through the
fault injector's degrader when faults are on) into one
:class:`~repro.blame.postmortem.PostmortemConsumer`, and an optional
stop policy — the :class:`~repro.sampling.adaptive.AdaptiveController`
of ``profile(adaptive=...)`` — checks each batch and may halt
collection once the blame ranking is statistically settled.  No
``list[RawSample]`` of the whole run is resident unless
``keep_samples=True`` asks for it.

Typical use::

    from repro.tooling import Profiler
    result = Profiler(source, config={"n": 8}).profile()
    for row in result.report.top(5):
        print(row.name, f"{row.percent:.1f}%", row.context)
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..blame.attribution import AttributionResult
from ..blame.postmortem import PostmortemConsumer, PostmortemResult
from ..blame.report import BlameReport
from ..blame.static_info import ModuleBlameInfo
from ..ir.module import Module
# Every stage is bound here, and the profiler calls them through these
# globals, so a tracer can wrap them by name.
from ..pipeline.stages import (  # noqa: F401
    _COMPILE_CACHE,
    aggregate_stage,
    analyze_stage,
    attribute_stage,
    collect_stage,
    compile_stage,
    postmortem_stage,
)
from ..runtime.costmodel import CostModel
from ..runtime.interpreter import Interpreter, RunResult
from ..sampling.monitor import Monitor
from ..sampling.pmu import DEFAULT_THRESHOLD


@dataclass
class ProfileResult:
    """Everything one profiled run produced."""

    module: Module
    static_info: ModuleBlameInfo
    monitor: Monitor
    run_result: RunResult
    postmortem: PostmortemResult
    attribution: AttributionResult
    report: BlameReport
    #: The interpreter that executed the run (exposes globals_store and
    #: the heap — the HPCToolkit baseline reads allocation sizes there).
    #: Its ``monitor`` is None once the run is over (see
    #: ``Interpreter.release_monitor``); the run's monitor is above.
    interpreter: "Interpreter | None" = None
    #: What fault injection did to this run (None on clean runs).
    fault_stats: "object | None" = None
    #: Decision trail of an adaptive run
    #: (:class:`~repro.sampling.adaptive.AdaptiveTrail`; None otherwise).
    adaptive: "object | None" = None

    @property
    def stopped_early(self) -> bool:
        """Did adaptive mode halt collection before the workload ended?"""
        return self.adaptive is not None and self.adaptive.stopped_early

    @property
    def wall_seconds(self) -> float:
        return self.run_result.wall_seconds

    @property
    def quarantine_rate(self) -> float:
        """Rejected samples as a fraction of everything the monitor saw."""
        total = (
            self.report.stats.total_raw_samples
            + self.report.stats.quarantined_samples
        )
        return self.report.stats.quarantined_samples / total if total else 0.0


class Profiler:
    """Configurable front door to the blame pipeline.

    Parameters mirror the paper's experimental knobs: the PMU overflow
    ``threshold``, the worker-thread count (their 12-core Xeon), and the
    compilation mode (``fast=True`` approximates ``--fast``; the paper
    profiles *without* it — see §V's discussion of why).
    """

    def __init__(
        self,
        source: str | Module,
        filename: str = "program.chpl",
        config: dict[str, object] | None = None,
        num_threads: int = 12,
        threshold: int = DEFAULT_THRESHOLD,
        cost_model: CostModel | None = None,
        fast: bool = False,
        include_temps: bool = False,
        min_blame: float = 0.0,
        blame_options: "object | None" = None,
        skid: int = 0,
        skid_compensation: bool = False,
        faults: "object | str | None" = None,
    ) -> None:
        if isinstance(source, Module):
            self.module = source
            self.program_name = source.name
            if fast:
                from ..compiler.passes import run_fast_pipeline

                run_fast_pipeline(self.module)
        else:
            self.module = compile_stage(source, filename, fast)
            self.program_name = filename
        self.config = config or {}
        self.num_threads = num_threads
        self.threshold = threshold
        self.cost_model = cost_model
        self.include_temps = include_temps
        self.min_blame = min_blame
        self.blame_options = blame_options
        self.skid = skid
        self.skid_compensation = skid_compensation
        if isinstance(faults, str):
            from ..resilience.faults import FaultPlan

            faults = FaultPlan.parse(faults)
        self.faults = faults

    def _injector(self):
        if self.faults is None or getattr(self.faults, "is_clean", True):
            return None
        from ..resilience.inject import FaultInjector

        return FaultInjector(self.faults, module=self.module)

    def profile(
        self,
        adaptive: "object | None" = None,
        batch_size: int = 256,
        keep_samples: bool = False,
    ) -> ProfileResult:
        """Runs the pipeline end to end, in one pass over the samples.

        The monitor delivers samples in batches of ``batch_size`` (its
        ``peak_resident`` never exceeds it); post-mortem consumes each
        batch as it fills and counts idle samples instead of keeping
        them.  The report does not depend on the batch size.

        ``adaptive`` (an
        :class:`~repro.sampling.adaptive.AdaptiveConfig`, or ``True``
        for the defaults) sets a stop policy: each batch is a round of
        incremental attribution, and collection stops early once the
        blame ranking is statistically settled — see
        :mod:`repro.sampling.adaptive`.  Composes with fault injection
        (degraded telemetry widens the intervals, delaying the stop).

        ``keep_samples=True`` also keeps the raw stream (up to the
        stopping point) on ``result.monitor.samples``, for saving it or
        for the baseline attributors.
        """
        # Step 1 — static analysis.
        static_info = analyze_stage(self.module, options=self.blame_options)
        injector = self._injector()
        degrade = injector.degrader() if injector is not None else None
        consumer = PostmortemConsumer(
            self.module,
            options=static_info.options,
            tolerant=True,
            keep_runtime_samples=False,
        )
        policy = None
        if adaptive is not None:
            from ..sampling.adaptive import AdaptiveConfig, AdaptiveController

            policy = AdaptiveController(
                AdaptiveConfig() if adaptive is True else adaptive,
                static_info,
                consumer,
                batch_size=batch_size,
                program=self.program_name,
                include_temps=self.include_temps,
            )
        postmortem_seconds = 0.0

        def postmortem(step, *args):
            nonlocal postmortem_seconds
            t0 = time.perf_counter()
            out = step(*args)
            postmortem_seconds += time.perf_counter() - t0
            return out

        def sink(batch):
            # Step 3, batch by batch: the monitor's stream stays
            # pristine, post-mortem sees the degraded copy (tolerant:
            # degraded telemetry is bucketed/quarantined, never raised).
            postmortem(consumer.feed, degrade(batch) if degrade else batch)
            if policy is not None:
                policy.sink(batch)

        # Step 2 — execution under the monitor, sinking batches as they
        # fill; a stop policy may end it early.
        coll = collect_stage(
            self.module,
            config=self.config,
            num_threads=self.num_threads,
            threshold=self.threshold,
            cost_model=self.cost_model,
            skid=self.skid,
            skid_compensation=self.skid_compensation,
            sink=sink,
            batch_size=batch_size,
            keep_samples=keep_samples,
        )
        pm = postmortem(consumer.finish)
        if policy is not None:
            attribution = postmortem(policy.finish)
        else:
            attribution = postmortem(attribute_stage, static_info, pm)

        # Step 4 — report assembly.
        monitor = coll.monitor
        report = aggregate_stage(
            self.program_name,
            pm,
            attribution,
            wall_seconds=coll.run_result.wall_seconds,
            dataset_bytes=monitor.dataset_size_bytes(),
            stackwalk_cycles=monitor.overhead.stackwalk_cycles_total,
            postmortem_seconds=postmortem_seconds,
            monitor_quarantine=monitor.quarantine_by_reason(),
            min_blame=self.min_blame,
            include_temps=self.include_temps,
        )
        return ProfileResult(
            module=self.module,
            static_info=static_info,
            monitor=monitor,
            run_result=coll.run_result,
            postmortem=pm,
            attribution=attribution,
            report=report,
            interpreter=coll.interpreter,
            fault_stats=injector.stats if injector is not None else None,
            adaptive=policy.trail if policy is not None else None,
        )


def run_only(
    source: str | Module,
    filename: str = "program.chpl",
    config: dict[str, object] | None = None,
    num_threads: int = 12,
    cost_model: CostModel | None = None,
    fast: bool = False,
) -> RunResult:
    """Executes a program without profiling (for timing comparisons —
    the paper's original-vs-optimized speedup tables)."""
    if isinstance(source, Module):
        module = source
        if fast:
            from ..compiler.passes import run_fast_pipeline

            run_fast_pipeline(module)
    else:
        module = compile_stage(source, filename, fast)
    interp = Interpreter(
        module, config=config, num_threads=num_threads, cost_model=cost_model
    )
    return interp.run()
