"""Property tests (hypothesis) for batched collection: *any* batch
size — one sample per batch up to a single batch holding the whole run
— delivers, batch after batch, exactly the stream a retained run keeps,
on every benchmark; and ``profile()`` under any stream-fault schedule
persists the same ``.cbp`` bytes as the stage-function oracle.

Batch boundaries come from hypothesis, so the identity never depends
on where a batch happens to end.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.artifact import artifact_bytes, snapshot_from_result
from repro.pipeline.stages import collect_stage, compile_stage
from repro.tooling.profiler import Profiler

from ..oracle import stage_oracle
from .conftest import NUM_THREADS, THRESHOLD, benchmark_setup

_BASE: dict = {}


def baseline(name: str):
    """(module, config, retained samples, serial RunResult)."""
    if name not in _BASE:
        source, filename, config = benchmark_setup(name)
        module = compile_stage(source, filename)
        serial = collect_stage(
            module, config=config, num_threads=NUM_THREADS, threshold=THRESHOLD
        )
        _BASE[name] = (module, config, serial.monitor.samples, serial.run_result)
    return _BASE[name]


@settings(max_examples=12, deadline=None)
@given(
    bench=st.sampled_from(["minimd", "clomp", "lulesh"]),
    fraction=st.floats(0.0, 1.0),
)
def test_any_boundary_set_reassembles_the_serial_stream(bench, fraction):
    """Concatenated sink batches == the retained stream, every batch
    but the last is full, and the run itself is unchanged."""
    module, config, serial_samples, serial_result = baseline(bench)
    total = len(serial_samples)
    batch_size = max(1, int(fraction * (total + 1)))

    batches: list = []
    coll = collect_stage(
        module,
        config=config,
        num_threads=NUM_THREADS,
        threshold=THRESHOLD,
        sink=lambda batch: batches.append(list(batch)),
        batch_size=batch_size,
    )

    assert [s for batch in batches for s in batch] == serial_samples
    assert all(len(b) == batch_size for b in batches[:-1])
    assert 0 < len(batches[-1]) <= batch_size
    assert coll.monitor.samples == []
    assert coll.monitor.peak_resident <= batch_size
    result = coll.run_result
    assert result.output == serial_result.output
    assert result.wall_seconds == serial_result.wall_seconds
    assert result.total_cycles == serial_result.total_cycles


_ORACLE: dict = {}


@settings(max_examples=12, deadline=None)
@given(
    bench=st.sampled_from(["minimd", "clomp", "lulesh"]),
    batch_size=st.integers(1, 256),
    drop=st.sampled_from([0.0, 0.05, 0.2]),
    tagloss=st.sampled_from([0.0, 0.1, 0.3]),
    strip=st.sampled_from([0.0, 0.1]),
    seed=st.integers(0, 3),
)
def test_any_slice_count_and_fault_schedule_is_identical(
    bench, batch_size, drop, tagloss, strip, seed
):
    """Any batch size under a hypothesis-chosen stream-fault schedule
    (dropped records, lost spawn tags, stripped symbols, truncated
    stacks): ``profile()`` writes the stage-function oracle's canonical
    ``.cbp`` bytes, and ``keep_samples`` keeps the oracle's retained
    stream record for record."""
    spec = (
        f"drop={drop},truncate=0.1:3,tagloss={tagloss},"
        f"strip={strip},seed={seed}"
    )
    source, filename, config = benchmark_setup(bench)
    key = (bench, spec)
    if key not in _ORACLE:
        oracle = stage_oracle(
            source, filename, config, NUM_THREADS, THRESHOLD, faults=spec
        )
        _ORACLE[key] = (cbp(oracle), oracle.monitor.samples)
    want_bytes, want_samples = _ORACLE[key]
    streamed = Profiler(
        source, filename=filename, config=config,
        num_threads=NUM_THREADS, threshold=THRESHOLD, faults=spec,
    ).profile(batch_size=batch_size, keep_samples=True)
    assert streamed.monitor.peak_resident <= batch_size
    assert streamed.monitor.samples == want_samples
    assert cbp(streamed) == want_bytes


def cbp(result) -> bytes:
    return artifact_bytes(snapshot_from_result(result, canonical_timings=True))
