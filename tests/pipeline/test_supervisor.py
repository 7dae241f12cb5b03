"""What survives of the supervised worker pool, which is no longer part
of the tool: the artifacts and command lines it left behind.

* **degraded artifacts** — ``.cbp`` files written by a ``--workers``
  run whose shard worker exhausted its retries carry ``worker-failed``
  provenance in ``unknown_by_reason`` and the pool's counters in
  ``fault_stats``.  Reading one back still renders the dedicated
  footer line in every footer-bearing view, and keeps (and merges)
  those counters;
* **old command lines** — every supervision knob is refused by argparse
  with exit 2, before any work starts.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.artifact import (
    merge_snapshots,
    read_artifact,
    snapshot_from_result,
    write_artifact,
)
from repro.pipeline import VIEWS, render_stage
from repro.tooling.cli import main as cli_main
from repro.tooling.profiler import Profiler
from repro.views.degradation import REASON_WORKER_FAILED, degradation_lines

from .conftest import FAULT_SPEC, NUM_THREADS, THRESHOLD, benchmark_setup

#: Busy samples the failed shard folded into ``<unknown>``.
LOST = 7

#: The counters a degraded ``--workers`` run stored next to the stream
#: faults (two attempts of one dead shard of eleven samples).
POOL_COUNTERS = {
    "degraded_shards": 1,
    "degraded_shard_samples": 11,
    "worker_crashes": 2,
}


class TestGracefulDegradation:
    """A snapshot shaped like a degraded ``--workers`` run's output."""

    @pytest.fixture(scope="class")
    def degraded(self):
        source, filename, config = benchmark_setup("minimd")
        result = Profiler(
            source, filename=filename, config=config,
            num_threads=NUM_THREADS, threshold=THRESHOLD, faults=FAULT_SPEC,
        ).profile()
        snapshot = snapshot_from_result(result)
        report = snapshot.report
        return replace(
            snapshot,
            report=replace(
                report,
                unknown_by_reason={
                    **report.unknown_by_reason, REASON_WORKER_FAILED: LOST
                },
                stats=replace(
                    report.stats,
                    unknown_samples=report.stats.unknown_samples + LOST,
                ),
            ),
            fault_stats={**snapshot.fault_stats, **POOL_COUNTERS},
        )

    def test_every_view_shows_the_worker_failed_footer(self, degraded):
        note = f"! {LOST} samples from shard(s) whose worker failed"
        lines = degradation_lines(degraded.report)
        assert any(ln.startswith(note) for ln in lines)
        # The worker line sits on top of the <unknown> roll-up, which
        # names the reason too.
        assert any(
            "<unknown>" in ln and f"{REASON_WORKER_FAILED}: {LOST}" in ln
            for ln in lines
        )
        # Every view that renders degradation footers shows the event
        # (the code-centric view never prints footers, by design).
        for view in ("data", "hybrid"):
            assert note in render_stage(degraded, view)
        assert "whose worker failed" in render_stage(degraded, "html")

    def test_fault_stats_persist_in_the_artifact(self, degraded, tmp_path):
        path = tmp_path / "legacy.cbp"
        write_artifact(str(path), degraded)
        back = read_artifact(str(path))
        assert back.fault_stats == degraded.fault_stats
        for key, value in POOL_COUNTERS.items():
            assert back.fault_stats[key] == value
        # Merging two such artifacts (multi-locale) sums the counters.
        merged = merge_snapshots([back, back])
        for key, value in POOL_COUNTERS.items():
            assert merged.fault_stats[key] == 2 * value

    def test_degraded_artifact_roundtrips(self, degraded, tmp_path):
        path = tmp_path / "legacy.cbp"
        write_artifact(str(path), degraded)
        back = read_artifact(str(path))
        assert back.report.unknown_by_reason[REASON_WORKER_FAILED] == LOST
        assert back.report.stats == degraded.report.stats
        for view in VIEWS:
            assert render_stage(back, view) == render_stage(degraded, view)


class TestCLI:
    def _run(self, tmp_path, *extra):
        source, _, config = benchmark_setup("minimd")
        src = tmp_path / "minimd.chpl"
        src.write_text(source)
        return cli_main(
            [str(src), "--threads", str(NUM_THREADS),
             "--threshold", str(THRESHOLD),
             "--config"] + [f"{k}={v}" for k, v in config.items()]
            + ["--view", "data", "-o", str(tmp_path / "run.cbp")]
            + list(extra)
        )

    @pytest.mark.parametrize("extra", [
        ("--worker-retries", "-1"),
        ("--worker-timeout", "0"),
        ("--worker-timeout", "5"),
        ("--workers", "2", "--parallel-backend", "inline", "--speculate"),
        ("--fail-on-degraded-shards",),
    ])
    def test_knob_validation_rejected(self, tmp_path, capsys, extra):
        with pytest.raises(SystemExit) as exc:
            self._run(tmp_path, *extra)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err
        assert extra[0] in err
        assert "Traceback" not in err
        assert not (tmp_path / "run.cbp").exists()
