"""The profiler's batched pass: bounded memory, the oracle's output.

The acceptance bar: ``profile(batch_size=N)`` never holds more than
``N`` samples resident in the monitor, and on the same program its
artifact, report and every view are exactly what the stage-function
oracle (``tests/oracle.py``: retained stream, one-shot post-mortem)
produces — clean or degraded."""

from __future__ import annotations

import dataclasses

import pytest

from repro.artifact import artifact_bytes, snapshot_from_result
from repro.blame.postmortem import PostmortemConsumer, process_samples
from repro.pipeline import render_stage
from repro.resilience.faults import FaultPlan
from repro.resilience.inject import FaultInjector

from .conftest import FAULT_SPEC, oracle_benchmark, profile_benchmark

BATCH = 32


def report_key(result):
    return [
        (r.name, r.context, r.samples, r.blame) for r in result.report.rows
    ]


def cbp(result) -> bytes:
    return artifact_bytes(snapshot_from_result(result, canonical_timings=True))


class TestStreamingEquivalence:
    @pytest.mark.parametrize("view", ["data", "code", "hybrid", "html"])
    def test_views_identical_clean(self, benchmark_name, view):
        oracle = oracle_benchmark(benchmark_name)
        streamed = profile_benchmark(benchmark_name, batch_size=BATCH)
        assert render_stage(streamed, view) == render_stage(oracle, view)

    def test_views_identical_degraded(self, benchmark_name):
        oracle = oracle_benchmark(benchmark_name, faults=FAULT_SPEC)
        streamed = profile_benchmark(
            benchmark_name, faults=FAULT_SPEC, batch_size=BATCH
        )
        for view in ("data", "code", "hybrid", "html"):
            assert render_stage(streamed, view) == render_stage(oracle, view)
        assert report_key(streamed) == report_key(oracle)

    def test_degraded_accounting_identical(self, benchmark_name):
        oracle = oracle_benchmark(benchmark_name, faults=FAULT_SPEC)
        streamed = profile_benchmark(
            benchmark_name, faults=FAULT_SPEC, batch_size=BATCH
        )
        # postmortem_seconds is host-measured wall time, the one
        # legitimately nondeterministic stat.
        assert dataclasses.replace(
            streamed.report.stats, postmortem_seconds=0.0
        ) == dataclasses.replace(oracle.report.stats, postmortem_seconds=0.0)
        assert (
            streamed.postmortem.unknown_by_reason()
            == oracle.postmortem.unknown_by_reason()
        )
        assert streamed.fault_stats.as_dict() == oracle.fault_stats.as_dict()

    @pytest.mark.parametrize("faults", [None, FAULT_SPEC], ids=["clean", "faults"])
    @pytest.mark.parametrize("batch_size", [1, BATCH, 256])
    def test_artifact_bytes_identical(self, benchmark_name, faults, batch_size):
        streamed = profile_benchmark(
            benchmark_name, faults=faults, batch_size=batch_size
        )
        assert cbp(streamed) == cbp(oracle_benchmark(benchmark_name, faults))


class TestBoundedMemory:
    def test_peak_resident_bounded_by_batch_size(self, benchmark_name):
        streamed = profile_benchmark(benchmark_name, batch_size=BATCH)
        monitor = streamed.monitor
        assert monitor.n_accepted > BATCH  # the bound was actually exercised
        assert 0 < monitor.peak_resident <= BATCH

    def test_sink_mode_retains_nothing(self, benchmark_name):
        streamed = profile_benchmark(benchmark_name, batch_size=BATCH)
        assert streamed.monitor.samples == []
        assert streamed.postmortem.runtime_samples == []
        # ...but the counts still tell the whole story.
        assert streamed.postmortem.n_runtime > 0
        assert streamed.monitor.dataset_size_bytes() > 0

    def test_retain_mode_counters_match_list(self, benchmark_name):
        """``keep_samples`` tees every batch into ``monitor.samples``:
        the oracle's retained stream, record for record, with the
        counters agreeing and the resident bound still in force."""
        kept = profile_benchmark(
            benchmark_name, batch_size=BATCH, keep_samples=True
        )
        monitor = kept.monitor
        assert monitor.samples == oracle_benchmark(benchmark_name).monitor.samples
        assert monitor.n_accepted == len(monitor.samples)
        assert 0 < monitor.peak_resident <= BATCH
        assert monitor.dataset_size_bytes() == sum(
            8 + 8 * len(s.stack) for s in monitor.samples
        )
        assert cbp(kept) == cbp(oracle_benchmark(benchmark_name))


class TestConsumerContract:
    def samples_of(self, name):
        return list(oracle_benchmark(name).monitor.samples)

    def test_chunked_feed_equals_one_shot(self):
        result = profile_benchmark("minimd")
        samples = self.samples_of("minimd")
        one_shot = process_samples(
            result.module,
            samples,
            options=result.static_info.options,
            tolerant=True,
        )
        consumer = PostmortemConsumer(
            result.module, options=result.static_info.options, tolerant=True
        )
        for k in range(0, len(samples), 7):
            consumer.feed(samples[k : k + 7])
        chunked = consumer.finish()
        assert chunked.instances == one_shot.instances
        assert chunked.n_raw == one_shot.n_raw
        assert chunked.n_runtime == one_shot.n_runtime

    def test_finish_twice_and_feed_after_finish_raise(self):
        result = profile_benchmark("minimd")
        consumer = PostmortemConsumer(result.module)
        consumer.finish()
        with pytest.raises(RuntimeError):
            consumer.finish()
        with pytest.raises(RuntimeError):
            consumer.feed([])


class TestStreamingDegrader:
    def test_chunking_invariant(self):
        samples = list(oracle_benchmark("minimd").monitor.samples)
        module = profile_benchmark("minimd").module
        plan = FaultPlan.parse(FAULT_SPEC)
        whole = FaultInjector(plan, module=module).degrade_samples(samples)
        for chunk in (1, 5, 64):
            degrade = FaultInjector(plan, module=module).degrader()
            piecewise = []
            for k in range(0, len(samples), chunk):
                piecewise.extend(degrade(samples[k : k + chunk]))
            assert piecewise == whole, f"chunk={chunk}"

    def test_clean_plan_degrader_is_identity(self):
        samples = list(oracle_benchmark("minimd").monitor.samples)
        degrade = FaultInjector(FaultPlan()).degrader()
        assert degrade(samples) == samples
