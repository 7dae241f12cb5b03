"""The stage-function oracle for the profiler's collection loop.

``Profiler.profile()`` makes one batched pass over the sample stream.
The oracle composes the same pipeline by hand from the stage functions
over a retained stream, the way the tool ran before the loop existed:

    collect_stage (retained) → FaultInjector.degrade_samples
        → postmortem_stage → attribute_stage → aggregate_stage

Its result is a :class:`~repro.tooling.profiler.ProfileResult`, so it
serializes and renders like a live profile.
"""

from __future__ import annotations

from repro.pipeline import (
    aggregate_stage,
    analyze_stage,
    attribute_stage,
    collect_stage,
    compile_stage,
    postmortem_stage,
)
from repro.resilience.faults import FaultPlan
from repro.resilience.inject import FaultInjector
from repro.tooling.profiler import ProfileResult


def stage_oracle(
    source: str,
    filename: str,
    config: dict,
    num_threads: int,
    threshold: int,
    faults: str | None = None,
) -> ProfileResult:
    """One run through the stage functions, retained stream included."""
    module = compile_stage(source, filename)
    static = analyze_stage(module)
    coll = collect_stage(
        module, config=config, num_threads=num_threads, threshold=threshold
    )
    monitor = coll.monitor
    samples = monitor.samples
    injector = None
    plan = FaultPlan.parse(faults) if faults else None
    if plan is not None and not plan.is_clean:
        injector = FaultInjector(plan, module=module)
        samples = injector.degrade_samples(samples)
    pm = postmortem_stage(module, samples, options=static.options, tolerant=True)
    attribution = attribute_stage(static, pm)
    report = aggregate_stage(
        filename,
        pm,
        attribution,
        wall_seconds=coll.run_result.wall_seconds,
        dataset_bytes=monitor.dataset_size_bytes(),
        stackwalk_cycles=monitor.overhead.stackwalk_cycles_total,
        monitor_quarantine=monitor.quarantine_by_reason(),
    )
    return ProfileResult(
        module=module,
        static_info=static,
        monitor=monitor,
        run_result=coll.run_result,
        postmortem=pm,
        attribution=attribution,
        report=report,
        interpreter=coll.interpreter,
        fault_stats=injector.stats if injector is not None else None,
    )
