"""Shared fixtures: one cached profile per (benchmark, faults) pair.

Profiling is deterministic (simulated clock, seeded injection), so each
configuration is profiled once per session and shared across tests.
"""

from __future__ import annotations

import pytest

from repro.tooling.profiler import Profiler

from ..oracle import stage_oracle

#: Small-but-representative configs for the paper's three benchmarks.
BENCHMARKS = ("minimd", "clomp", "lulesh")

#: A plan exercising every degradation channel (tolerant-mode runs).
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
            clomp.config_for(num_parts=4, zones_per_part=6, timesteps=3),
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


def profile_benchmark(name: str, faults: str | None = None, **profile_kwargs):
    """Profiles one benchmark (cached per configuration)."""
    key = (name, faults, tuple(sorted(profile_kwargs.items())))
    if key not in _CACHE:
        source, filename, config = benchmark_setup(name)
        _CACHE[key] = Profiler(
            source,
            filename=filename,
            config=config,
            num_threads=NUM_THREADS,
            threshold=THRESHOLD,
            faults=faults,
        ).profile(**profile_kwargs)
    return _CACHE[key]


_ORACLE: dict = {}


def oracle_benchmark(name: str, faults: str | None = None):
    """The stage-function oracle's run of one benchmark (cached)."""
    key = (name, faults)
    if key not in _ORACLE:
        _ORACLE[key] = stage_oracle(
            *benchmark_setup(name), NUM_THREADS, THRESHOLD, faults=faults
        )
    return _ORACLE[key]


@pytest.fixture(params=BENCHMARKS)
def benchmark_name(request):
    return request.param
