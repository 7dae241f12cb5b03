"""Shared fixtures for the pipeline-composition tests.

One collected (and optionally degraded) sample stream per
configuration, reused across tests: collection is deterministic
(simulated clock, seeded degradation; task/spawn ids are per-scheduler,
so repeated runs in one process produce identical streams) and reusing
the same stream keeps the suite fast.
"""

from __future__ import annotations

from repro.pipeline import analyze_stage, collect_stage, compile_stage

#: Same degradation plan the artifact tests exercise every channel with.
FAULT_SPEC = "drop=0.05,truncate=0.1:3,tagloss=0.1,strip=0.1,seed=42"

NUM_THREADS = 4
THRESHOLD = 4999


def benchmark_setup(name: str) -> tuple[str, str, dict]:
    """(source, filename, config) for one benchmark."""
    if name == "minimd":
        from repro.bench.programs import minimd

        return (
            minimd.build_source(optimized=False),
            "minimd.chpl",
            minimd.config_for(num_bins=6, per_bin=4, steps=3),
        )
    if name == "clomp":
        from repro.bench.programs import clomp

        return (
            clomp.build_source(optimized=False),
            "clomp.chpl",
            clomp.config_for(num_parts=4, zones_per_part=6, timesteps=2),
        )
    if name == "lulesh":
        from repro.bench.programs import lulesh

        return (
            lulesh.build_source(),
            "lulesh.chpl",
            lulesh.config_for(edge_elems=4, max_steps=2),
        )
    raise ValueError(name)


_CACHE: dict = {}


def collected(name: str = "minimd", faults: str | None = None):
    """(module, static_info, samples, wall_seconds) — collected once per
    configuration; ``faults`` degrades the retained stream exactly as
    the profiler's degrader does, batch by batch, before post-mortem."""
    key = (name, faults)
    if key not in _CACHE:
        source, filename, config = benchmark_setup(name)
        module = compile_stage(source, filename)
        static = analyze_stage(module)
        coll = collect_stage(
            module,
            config=config,
            num_threads=NUM_THREADS,
            threshold=THRESHOLD,
        )
        samples = coll.monitor.samples
        if faults:
            from repro.resilience.faults import FaultPlan
            from repro.resilience.inject import FaultInjector

            injector = FaultInjector(FaultPlan.parse(faults), module=module)
            samples = injector.degrade_samples(samples)
        _CACHE[key] = (module, static, samples, coll.run_result.wall_seconds)
    return _CACHE[key]
