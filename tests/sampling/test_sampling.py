"""Sampling substrate tests: PMU threshold behavior, monitor records,
overhead accounting, address resolution."""

import pytest

from repro.sampling.monitor import Monitor, STACKWALK_CYCLES
from repro.sampling.pmu import (
    DEFAULT_THRESHOLD,
    PAPER_THRESHOLD,
    PMUConfig,
    is_prime,
    pick_prime_threshold,
)
from repro.sampling.stackwalk import StackResolver

import sys, os
sys.path.insert(0, os.path.dirname(os.path.dirname(__file__)))
from conftest import compile_src, profile_src

WORK = """
var A: [0..59] real;
proc kernel() {
  forall i in 0..59 { A[i] = sqrt(i * 1.0) + i * 0.5; }
}
proc main() { kernel(); }
"""


class TestPMU:
    def test_default_threshold_is_prime(self):
        assert is_prime(DEFAULT_THRESHOLD)
        assert is_prime(PAPER_THRESHOLD)

    def test_pick_prime(self):
        assert pick_prime_threshold(100) == 101
        assert is_prime(pick_prime_threshold(10_000))

    def test_is_prime_basics(self):
        assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            PMUConfig(threshold=0)


class TestSamplingDensity:
    def test_threshold_controls_sample_count(self):
        dense = profile_src(WORK, threshold=199)
        sparse = profile_src(WORK, threshold=1999)
        assert dense.monitor.n_samples > sparse.monitor.n_samples * 3

    def test_sample_count_roughly_cycles_over_threshold(self):
        res = profile_src(WORK, threshold=499)
        cycles = res.run_result.total_cycles
        expected = cycles / 499
        assert 0.5 * expected <= res.monitor.n_samples <= 1.5 * expected

    def test_deterministic_sample_stream(self):
        # Same compiled module, two monitored runs → identical streams.
        # (Recompiling would renumber instruction ids, so share the
        # module, like re-running one binary.)
        from repro.tooling.profiler import Profiler

        module = compile_src(WORK)
        a = Profiler(module, num_threads=4, threshold=499).profile()
        b = Profiler(module, num_threads=4, threshold=499).profile()
        sa = [(s.thread_id, s.leaf_iid, s.stack) for s in a.monitor.samples]
        sb = [(s.thread_id, s.leaf_iid, s.stack) for s in b.monitor.samples]
        assert sa == sb


class TestMonitor:
    def test_samples_have_indices_in_order(self):
        res = profile_src(WORK, threshold=499)
        idx = [s.index for s in res.monitor.samples]
        assert idx == list(range(len(idx)))

    def test_overhead_accounting(self):
        res = profile_src(WORK, threshold=499)
        ov = res.monitor.overhead
        assert ov.n_samples == res.monitor.n_samples
        assert ov.per_walk() == STACKWALK_CYCLES

    def test_dataset_size_grows_with_samples(self):
        dense = profile_src(WORK, threshold=199)
        sparse = profile_src(WORK, threshold=1999)
        assert dense.monitor.dataset_size_bytes() > sparse.monitor.dataset_size_bytes()

    def test_user_samples_excludes_idle(self):
        res = profile_src(WORK, threshold=211, num_threads=12)
        assert all(not s.is_idle for s in res.monitor.user_samples())


class TestStackResolver:
    def test_resolves_to_file_line(self):
        res = profile_src(WORK, threshold=499)
        resolver = StackResolver(res.module)
        for s in res.monitor.user_samples()[:10]:
            filename, line = resolver.locations(s.stack)[0]
            assert filename == "test.chpl"
            assert line > 0

    def test_runtime_frames_flagged(self):
        m = compile_src("proc main() { }")
        resolver = StackResolver(m)
        f = resolver.resolve_entry("__sched_yield", -1)
        assert f.is_runtime and f.line == 0

    def test_unknown_iid(self):
        m = compile_src("proc main() { }")
        f = StackResolver(m).resolve_entry("ghost", 10**9)
        assert f.filename == "<unknown>"

    def test_stack_leaf_is_sampled_function(self):
        res = profile_src(WORK, threshold=499)
        for s in res.monitor.user_samples():
            assert s.leaf_function == s.stack[0][0]
            assert s.leaf_iid == s.stack[0][1]
