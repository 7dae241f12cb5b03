"""Property tests (hypothesis): *any* contiguous split of the sample
stream, fed piece by piece through one post-mortem consumer with each
piece's delta attributed separately and the parts merged, equals the
one-shot post-mortem and attribution — clean and under FaultInjector
degradation, 1–8 pieces and arbitrary uneven splits.  This is the
composition the profiler's batched loop and adaptive rounds rely on."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blame.attribution import BlameAttributor, merge_attributions
from repro.blame.postmortem import PostmortemConsumer
from repro.pipeline import attribute_stage, postmortem_stage

from .conftest import FAULT_SPEC, collected

_SERIAL: dict = {}


def serial_baseline(faults):
    if faults not in _SERIAL:
        module, static, samples, _ = collected("minimd", faults)
        pm = postmortem_stage(module, samples, options=static.options)
        _SERIAL[faults] = (pm, attribute_stage(static, pm))
    return _SERIAL[faults]


@settings(max_examples=25, deadline=None)
@given(
    faults=st.sampled_from([None, FAULT_SPEC]),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=0, max_size=7),
)
def test_any_contiguous_split_merges_to_the_serial_result(faults, fractions):
    """Hand-picked (arbitrarily uneven, possibly empty) contiguous
    pieces: the consumer's result and the merge of per-piece delta
    attributions (read through ``instances_since``, plus the late
    recoveries ``finish()`` appends) reproduce the serial result."""
    module, static, samples, _ = collected("minimd", faults)
    cuts = sorted({int(f * len(samples)) for f in fractions})
    bounds = [0] + cuts + [len(samples)]
    pieces = [samples[a:b] for a, b in zip(bounds, bounds[1:])]
    assert [s for piece in pieces for s in piece] == samples

    consumer = PostmortemConsumer(module, options=static.options, tolerant=True)
    attributor = BlameAttributor(static)
    attrs = []
    watermark = 0
    for piece in pieces:
        consumer.feed(piece)
        attrs.append(attributor.attribute(consumer.instances_since(watermark)))
        watermark = consumer.n_consolidated
    tail_start = watermark
    merged = consumer.finish()
    attrs.append(attributor.attribute(merged.instances[tail_start:]))

    serial_pm, serial_attr = serial_baseline(faults)
    assert merged == serial_pm
    assert merge_attributions(attrs) == serial_attr


@settings(max_examples=16, deadline=None)
@given(
    workers=st.integers(1, 8),
    faults=st.sampled_from([None, FAULT_SPEC]),
)
def test_shard_counts_one_to_eight(workers, faults):
    """The consolidated instances cut into 1–8 balanced contiguous
    parts, attributed independently and merged in order, give the
    serial attribution — blame is a pure sum of sample tallies."""
    serial_pm, serial_attr = serial_baseline(faults)
    _, static, _, _ = collected("minimd", faults)
    instances = serial_pm.instances
    n = len(instances)
    bounds = [n * k // workers for k in range(workers + 1)]
    parts = [
        BlameAttributor(static).attribute(instances[a:b])
        for a, b in zip(bounds, bounds[1:])
    ]
    assert len(parts) == workers
    assert sum(p.total_samples for p in parts) == serial_attr.total_samples
    assert merge_attributions(parts) == serial_attr
