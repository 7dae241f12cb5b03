"""Pipeline results do not depend on how the run is cut into pieces.

The profiler feeds one post-mortem consumer in batches, and adaptive
runs merge per-round attributions, so the serial pipeline must compose
exactly:

* **same stream** — the identical collected (possibly degraded) sample
  list, fed whole or in pieces, gives ``==`` post-mortem and
  attribution results, down to every field; empty pieces are
  identities;
* **cross run** — two separate ``Profiler`` runs that differ only in
  their batch size persist the same canonical ``.cbp`` bytes.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.artifact import artifact_bytes, snapshot_from_result
from repro.blame.attribution import merge_attributions
from repro.blame.postmortem import PostmortemConsumer
from repro.blame.report import UNKNOWN_BUCKET
from repro.pipeline import (
    aggregate_stage,
    attribute_stage,
    postmortem_stage,
    render_stage,
)
from repro.tooling.profiler import Profiler

from .conftest import (
    FAULT_SPEC,
    NUM_THREADS,
    THRESHOLD,
    benchmark_setup,
    collected,
)


def feed_in_pieces(module, static, pieces):
    """One consumer fed ``pieces`` in order — the profiler's shape —
    returning its finished :class:`PostmortemResult`."""
    consumer = PostmortemConsumer(module, options=static.options, tolerant=True)
    for piece in pieces:
        consumer.feed(piece)
    return consumer.finish()


class TestSameStreamEquality:
    """Whole vs pieced over the identical stream."""

    def test_empty_stream_merges_as_identities(self):
        """An empty stream post-mortems, attributes, aggregates and
        renders without dividing by its zero sample count, and its
        attribution is the identity of the merge."""
        module, static, samples, wall = collected("minimd")
        empty_pm = postmortem_stage(module, [], options=static.options)
        empty_attr = attribute_stage(static, empty_pm)
        assert empty_pm.n_raw == 0 and empty_pm.instances == []
        assert empty_attr.total_samples == 0
        assert feed_in_pieces(module, static, [[], []]) == empty_pm

        full_attr = attribute_stage(
            static, postmortem_stage(module, samples, options=static.options)
        )
        assert merge_attributions([empty_attr, full_attr, empty_attr]) == (
            full_attr
        )
        assert merge_attributions([empty_attr, empty_attr]) == empty_attr

        report = aggregate_stage(
            "minimd", empty_pm, empty_attr, wall_seconds=wall
        )
        assert report.stats.total_raw_samples == 0
        assert all(r.blame == 0.0 for r in report.rows)
        profile = SimpleNamespace(
            report=report, module=module, postmortem=empty_pm
        )
        for view in ("data", "code", "hybrid", "html"):
            assert render_stage(profile, view)

    def test_more_workers_than_samples(self):
        """More pieces than samples: the surplus pieces are empty and
        change nothing."""
        module, static, samples, _ = collected("minimd")
        few = samples[:3]
        serial_pm = postmortem_stage(module, few, options=static.options)
        pieces = [[s] for s in few] + [[]] * 5
        assert len(pieces) == 8
        assert feed_in_pieces(module, static, pieces) == serial_pm
        assert serial_pm.n_raw == 3


class TestCrossRunByteIdentity:
    """Separate runs at different batch sizes: artifacts match."""

    def test_min_blame_applied_post_merge(self):
        """min_blame is a fraction of the whole-run denominator, so it
        is applied to the finished attribution: the kept rows carry
        exactly the blame they carry unfiltered, and a run whose
        post-mortem is fed in small batches persists the same bytes."""
        source, filename, config = benchmark_setup("minimd")

        def run(min_blame, **profile_kwargs):
            return Profiler(
                source, filename=filename, config=config,
                num_threads=NUM_THREADS, threshold=THRESHOLD,
                faults=FAULT_SPEC, min_blame=min_blame,
            ).profile(**profile_kwargs)

        unfiltered = run(0.0)
        filtered = run(0.05)
        streamed = run(0.05, batch_size=7)

        def key(r):
            return (r.name, r.context, r.samples, r.blame)

        want = [
            key(r) for r in unfiltered.report.rows
            if r.blame >= 0.05 or r.name == UNKNOWN_BUCKET
        ]
        assert [key(r) for r in filtered.report.rows] == want
        assert len(want) < len(unfiltered.report.rows)
        assert any(r.name == UNKNOWN_BUCKET for r in filtered.report.rows)
        assert artifact_bytes(
            snapshot_from_result(streamed, canonical_timings=True)
        ) == artifact_bytes(
            snapshot_from_result(filtered, canonical_timings=True)
        )
