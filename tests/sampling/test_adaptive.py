"""Adaptive collection: the round scheduler, the stopping rule, and the
equivalences that make early stopping trustworthy — the adaptive report
must be exactly what a truncated full run would have produced, and a
run that never stops must be exactly the full run."""

from __future__ import annotations

import pytest

from repro.blame.attribution import BlameAttributor
from repro.blame.postmortem import process_samples
from repro.blame.report import build_rows
from repro.runtime.values import RuntimeError_
from repro.sampling.adaptive import (
    REASON_EXHAUSTED,
    REASON_SETTLED,
    AdaptiveConfig,
    AdaptiveTrail,
    StopSampling,
)
from repro.tooling.profiler import Profiler

#: Two arrays with distinct blame levels and an outer timestep loop —
#: enough phase structure to exercise the half-stream guard, small
#: enough to profile in well under a second.
SOURCE = """
config const n = 400;
config const iters = 20;
var A: [0..#n] real;
var B: [0..#n] real;
var total = 0.0;
for it in 0..#iters {
  forall i in 0..#n {
    A[i] = A[i] + i * 2.0;
  }
  forall i in 0..#n {
    B[i] = B[i] + A[i] * 0.5;
  }
  for i in 0..#n {
    total += A[i];
  }
}
"""

CFG = AdaptiveConfig(ci_width=0.05)
#: Samples per batch, i.e. per adaptive round.
BATCH = 64


def _profiler(**kw):
    return Profiler(
        SOURCE, filename="toy.chpl", num_threads=4, threshold=997, **kw
    )


@pytest.fixture(scope="module")
def full():
    return _profiler().profile(keep_samples=True)


@pytest.fixture(scope="module")
def adaptive():
    return _profiler().profile(adaptive=CFG, batch_size=BATCH)


class TestStoppingRule:
    def test_stops_early_and_saves_samples(self, full, adaptive):
        trail = adaptive.adaptive
        assert adaptive.stopped_early
        assert trail.stop_reason == REASON_SETTLED
        assert trail.samples_collected < full.monitor.n_samples
        assert trail.samples_collected == adaptive.monitor.n_samples

    def test_streak_and_min_rounds_honoured(self, adaptive):
        trail = adaptive.adaptive
        assert len(trail.rounds) >= max(CFG.min_rounds, CFG.stability_window)
        # The rule fires only after stability_window consecutive stable
        # checkpoints — the trail's tail must show exactly that.
        tail = trail.rounds[-CFG.stability_window :]
        assert all(r.stable for r in tail)
        assert not trail.rounds[-CFG.stability_window - 1].stable

    def test_rounds_follow_batch_size(self, adaptive):
        trail = adaptive.adaptive
        for i, r in enumerate(trail.rounds):
            assert r.round == i + 1
            assert r.n_raw == (i + 1) * BATCH
        assert trail.round_samples == BATCH

    def test_settled_checkpoint_is_tight_and_agreed(self, adaptive):
        last = adaptive.adaptive.rounds[-1]
        assert last.max_half_width <= CFG.ci_width
        assert last.top_overlap == 1.0
        assert last.half_overlap == 1.0
        assert last.tau >= CFG.tau_min
        assert last.half_tau >= CFG.tau_min
        assert last.intervals  # the evidence rides in the trail


class TestEquivalences:
    def test_report_equals_truncated_full_run(self, full, adaptive):
        """The adaptive report must be byte-for-byte what processing the
        full run's stream *prefix* (up to the stopping point) yields —
        early stopping only ever truncates, never distorts."""
        n = adaptive.adaptive.samples_collected
        prefix = full.monitor.samples[:n]
        pm = process_samples(full.module, prefix, tolerant=True)
        attr = BlameAttributor(full.static_info).attribute(pm.instances)
        rows = build_rows(attr, unknown_samples=pm.n_unknown)
        assert adaptive.report.rows == rows
        assert adaptive.postmortem.n_user == pm.n_user

    def test_kept_samples_are_the_full_runs_prefix(self, full):
        """``keep_samples`` under a stop policy keeps exactly the
        samples collected up to the stopping point."""
        kept = _profiler().profile(
            adaptive=CFG, batch_size=BATCH, keep_samples=True
        )
        assert kept.stopped_early
        n = kept.adaptive.samples_collected
        assert kept.monitor.samples == full.monitor.samples[:n]

    def test_incremental_merge_equals_single_pass(self, adaptive):
        """Per-round delta attribution merged across rounds must equal
        one attribution pass over every consolidated instance."""
        fresh = BlameAttributor(adaptive.static_info).attribute(
            adaptive.postmortem.instances
        )
        assert build_rows(adaptive.attribution) == build_rows(fresh)
        assert adaptive.attribution.total_samples == fresh.total_samples

    def test_exhausted_run_matches_plain_profile(self, full):
        """A rule that never fires (huge min_rounds) runs to the end of
        the stream and reports exactly what the plain path reports."""
        result = _profiler().profile(
            adaptive=AdaptiveConfig(ci_width=0.05, min_rounds=10_000),
            batch_size=BATCH,
        )
        trail = result.adaptive
        assert not result.stopped_early
        assert trail.stop_reason == REASON_EXHAUSTED
        assert trail.samples_collected == full.monitor.n_samples
        # The final short batch was recorded as a round without raising.
        assert full.monitor.n_samples % BATCH
        assert trail.rounds[-1].n_raw == full.monitor.n_samples
        assert result.report.rows == full.report.rows


class TestDegradation:
    def test_degraded_samples_widen_never_shrink(self, adaptive):
        """Fault-injected telemetry must delay the stop (wider
        intervals), never accelerate it."""
        faulty = _profiler(faults="drop=0.2,strip=0.2,seed=11").profile(
            adaptive=CFG, batch_size=BATCH
        )
        trail = faulty.adaptive
        assert any(r.degraded > 0 for r in trail.rounds)
        assert (
            trail.samples_collected >= adaptive.adaptive.samples_collected
        )
        # Same round, degraded evidence: the interval can only be wider.
        for clean_r, faulty_r in zip(adaptive.adaptive.rounds, trail.rounds):
            if faulty_r.degraded > 0:
                assert faulty_r.max_half_width >= clean_r.max_half_width


class TestPlumbing:
    def test_trail_dict_roundtrip(self, adaptive):
        d = adaptive.adaptive.as_dict()
        assert AdaptiveTrail.from_dict(d).as_dict() == d

    def test_stop_sampling_unwinds_past_program_errors(self):
        # The interpreter wraps RuntimeError_ into program-level
        # failures; the stop signal must never be caught by that net.
        assert not issubclass(StopSampling, RuntimeError_)
        exc = StopSampling(REASON_SETTLED, rounds=7)
        assert exc.reason == REASON_SETTLED
        assert exc.rounds == 7

    @pytest.mark.parametrize(
        "kw",
        [
            {"confidence": 0.0},
            {"confidence": 1.0},
            {"ci_width": 0.0},
            {"ci_width": 1.0},
            {"stability_window": 0},
            {"ci_width": -0.1},
            {"top_n": 0},
            {"method": "jackknife"},
        ],
    )
    def test_config_validation(self, kw):
        with pytest.raises(ValueError):
            AdaptiveConfig(**kw).validate()

    def test_adaptive_true_uses_defaults(self):
        # profile(adaptive=True) must work without importing the config.
        result = _profiler().profile(adaptive=True)
        assert result.adaptive is not None
        assert result.adaptive.ci_width == AdaptiveConfig().ci_width
