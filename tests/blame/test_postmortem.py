"""Post-mortem processing tests: stack gluing, trimming, instances."""

from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.blame.options import FULL
from repro.blame.postmortem import PostmortemConsumer, process_samples
from repro.resilience.inject import CORRUPT_IID, STRIPPED_PREFIX
from repro.sampling.records import RawSample
from repro.sampling.stackwalk import StackResolver

import sys, os
sys.path.insert(0, os.path.dirname(os.path.dirname(__file__)))
from conftest import compile_src, profile_src

PAR = """
var A: [0..49] real;
proc kernel() {
  forall i in 0..49 { A[i] = sqrt(i * 1.0) + i * 0.25; }
}
proc main() { kernel(); }
"""


class TestGluing:
    def test_worker_stacks_glued_to_main(self):
        res = profile_src(PAR, threshold=211)
        glued = [i for i in res.postmortem.instances if i.was_glued]
        assert glued
        for inst in glued:
            funcs = [f for f, _ in inst.frames]
            assert funcs[-1] == "main"
            assert "kernel" in funcs
            assert any(f.startswith("forall_fn") for f in funcs)

    def test_spawn_site_is_frame_between_worker_and_spawner(self):
        res = profile_src(PAR, threshold=211)
        m = res.module
        for inst in res.postmortem.instances:
            if not inst.was_glued:
                continue
            funcs = [f for f, _ in inst.frames]
            k = next(
                i for i, f in enumerate(funcs) if f.startswith("forall_fn")
            )
            # the frame right above the outlined body is its spawner
            outlined = m.get_function(funcs[k])
            assert funcs[k + 1] == outlined.outlined_from

    def test_main_task_samples_not_glued(self):
        src = """
proc main() {
  var s = 0.0;
  for i in 1..800 { s += i * 1.0; }
  writeln(s);
}
"""
        res = profile_src(src, threshold=211)
        assert res.postmortem.instances
        assert all(not i.was_glued for i in res.postmortem.instances)

    def test_locations_resolved(self):
        res = profile_src(PAR, threshold=211)
        for inst in res.postmortem.instances:
            assert len(inst.locations) == len(inst.frames)
            for fname, line in inst.locations:
                assert fname == "test.chpl" and line >= 1


class TestTrimming:
    def test_idle_samples_become_runtime(self):
        res = profile_src(PAR, threshold=211, num_threads=12)
        pm = res.postmortem
        assert pm.n_raw == len(pm.instances) + len(pm.runtime_samples)
        assert all(s.is_idle for s in pm.runtime_samples)

    def test_synthetic_frames_removed_from_instances(self):
        res = profile_src(PAR, threshold=211, num_threads=12)
        for inst in res.postmortem.instances:
            assert all(not f.startswith("__sched") for f, _ in inst.frames)

    def test_module_init_samples_kept_as_user_context(self):
        # Big global initialization: samples land in __module_init and
        # must remain attributable (MiniMD's globals live there).
        src = "var BIG: [0..5000] real;\nproc main() { }"
        res = profile_src(src, threshold=211)
        init_insts = [
            i
            for i in res.postmortem.instances
            if i.frames[0][0] == "__module_init"
        ]
        assert init_insts


class TestSyntheticRecords:
    def test_empty_stack_sample_is_runtime(self):
        m = compile_src("proc main() { }")
        s = RawSample(
            index=0,
            thread_id=0,
            task_id=-1,
            stack=(("__sched_yield", -1),),
            leaf_iid=-1,
            spawn_tag=None,
            pre_spawn_stack=None,
            is_idle=True,
        )
        pm = process_samples(m, [s])
        assert pm.n_user == 0 and len(pm.runtime_samples) == 1

    def test_unknown_function_sample_is_runtime(self):
        m = compile_src("proc main() { }")
        s = RawSample(
            index=0,
            thread_id=0,
            task_id=1,
            stack=(("libc_internal", 123456),),
            leaf_iid=123456,
            spawn_tag=None,
            pre_spawn_stack=None,
        )
        pm = process_samples(m, [s])
        assert pm.n_user == 0 and len(pm.runtime_samples) == 1


# -- per-stack memo ---------------------------------------------------------

POOL_SRC = """
var A: [0..49] real;
var B: [0..49] real;
proc f(x: real): real { return sqrt(x) + x * 0.25; }
proc kernel() {
  forall i in 0..49 { A[i] = f(i * 1.0); }
}
proc main() {
  // Two spawns from one call site: distinct tags, same pre-spawn stack.
  for r in 0..1 { kernel(); }
  forall i in 0..49 { B[i] = A[i] * 2.0; }
  for i in 0..9 { A[i] = f(A[i]); }
}
"""

FAULTS = ("none", "strip", "truncate", "tagloss", "corrupt", "negleaf")


@lru_cache(maxsize=None)
def _stack_pool():
    """The module, one sample per distinct recorded path, and the spawn
    tags seen with each pre-spawn stack."""
    res = profile_src(POOL_SRC, threshold=37)
    distinct = {}
    tags = {}
    for s in res.monitor.samples:
        distinct.setdefault((s.stack, s.pre_spawn_stack, s.is_idle), s)
        if s.spawn_tag is not None:
            tags.setdefault(s.pre_spawn_stack, set()).add(s.spawn_tag)
    tags = {pre: sorted(ts) for pre, ts in tags.items()}
    return res.module, list(distinct.values()), tags


def _degrade(s: RawSample, fault: str, k: int) -> RawSample:
    """Applies one resilience fault class to a sample, as the injector
    would (``k`` picks the frame or depth)."""
    if s.is_idle or fault == "none":
        return s
    stack, pre = s.stack, s.pre_spawn_stack or ()
    if fault == "strip":
        # Debug info stripped from one frame of the whole walk.
        j = k % (len(stack) + len(pre))
        walk = list(stack + pre)
        walk[j] = (f"{STRIPPED_PREFIX}{abs(walk[j][1]):06x}", walk[j][1])
        return replace(
            s,
            stack=tuple(walk[: len(stack)]),
            pre_spawn_stack=tuple(walk[len(stack):]) if s.pre_spawn_stack else None,
        )
    if fault == "truncate":
        depth = 1 + k % (len(stack) + len(pre))
        if depth <= len(stack):
            return replace(s, stack=stack[:depth], pre_spawn_stack=None)
        return replace(s, pre_spawn_stack=pre[: depth - len(stack)])
    if fault == "tagloss":
        return replace(s, spawn_tag=None, pre_spawn_stack=None)
    if fault == "corrupt":
        j = k % len(stack)
        bad = (stack[j][0], 10**9 + j)
        return replace(s, stack=stack[:j] + (bad,) + stack[j + 1:])
    # Negative leaf iid: a torn record on a stack that may be memoized.
    return replace(s, leaf_iid=CORRUPT_IID)


class _UnmemoizedConsumer(PostmortemConsumer):
    """Reference consumer: every per-stack memo is cleared after each
    sample, so every sample takes the full consolidation path."""

    def _consume(self, s):
        super()._consume(s)
        self._intact.clear()
        self._resolver._frame_locs.clear()
        self._resolver._stack_locs.clear()


@st.composite
def _streams(draw):
    _module, pool, tags = _stack_pool()
    # A few (path, fault) templates over at most three paths, so paths
    # -- degraded ones too -- repeat within the stream, clean and under
    # faults; a repeat may carry another spawn tag recorded with the
    # same pre-spawn stack.
    paths = draw(
        st.lists(
            st.integers(0, len(pool) - 1), min_size=1, max_size=3, unique=True
        )
    )
    templates = draw(
        st.lists(
            st.tuples(
                st.sampled_from(paths),
                st.sampled_from(FAULTS),
                st.integers(0, 7),
            ),
            min_size=1,
            max_size=6,
            unique=True,
        )
    )
    events = draw(
        st.lists(
            st.tuples(st.sampled_from(templates), st.integers(0, 1)),
            min_size=1,
            max_size=60,
        )
    )
    stream = []
    for i, ((p, fault, k), t) in enumerate(events):
        s = pool[p]
        if s.spawn_tag is not None:
            seen = tags[s.pre_spawn_stack]
            s = replace(s, spawn_tag=seen[t % len(seen)])
        stream.append(replace(_degrade(s, fault, k), index=i))
    cuts = sorted(draw(st.lists(st.integers(0, len(stream)), max_size=4)))
    return stream, cuts


def _feed(consumer, stream, cuts):
    bounds = [0, *cuts, len(stream)]
    for lo, hi in zip(bounds, bounds[1:]):
        consumer.feed(stream[lo:hi])
    return consumer


class TestStackMemo:
    @settings(max_examples=300, deadline=None)
    @given(
        case=_streams(),
        tolerant=st.booleans(),
        gluing=st.booleans(),
        window=st.sampled_from([None, None, 1, 3]),
    )
    def test_memo_matches_unmemoized_consumer(
        self, case, tolerant, gluing, window
    ):
        module, _pool, _tags = _stack_pool()
        stream, cuts = case
        options = FULL if gluing else FULL.without(stack_gluing=False)
        kw = dict(options=options, tolerant=tolerant, evidence_window=window)
        got = _feed(PostmortemConsumer(module, **kw), stream, cuts).finish()
        want = _feed(_UnmemoizedConsumer(module, **kw), stream, cuts).finish()
        assert got == want
        assert got.n_raw == len(stream)

    @settings(max_examples=150, deadline=None)
    @given(case=_streams())
    def test_memo_keeps_shard_evidence(self, case):
        module, _pool, _tags = _stack_pool()
        stream, cuts = case
        got = _feed(PostmortemConsumer(module, tolerant=True), stream, cuts)
        want = _feed(_UnmemoizedConsumer(module, tolerant=True), stream, cuts)
        assert got.shard_state() == want.shard_state()

    def test_each_distinct_frame_resolved_once(self, monkeypatch):
        m = compile_src(POOL_SRC)
        index = m.instruction_index()
        main_iid = next(i for i, (f, _) in index.items() if f.name == "main")
        leaves = [
            (f.name, i)
            for i, (f, _) in index.items()
            if f.name in ("f", "kernel")
        ][:10]
        assert len(leaves) == 10
        stacks = [(leaf, ("main", main_iid)) for leaf in leaves]
        stream = [
            RawSample(
                index=n,
                thread_id=0,
                task_id=0,
                stack=stacks[n % len(stacks)],
                leaf_iid=stacks[n % len(stacks)][0][1],
                spawn_tag=None,
                pre_spawn_stack=None,
            )
            for n in range(2000)
        ]
        calls = []
        resolve = StackResolver.resolve_entry

        def counting(self, func, iid, strict=False):
            calls.append((func, iid))
            return resolve(self, func, iid, strict)

        monkeypatch.setattr(StackResolver, "resolve_entry", counting)
        pm = process_samples(m, stream, tolerant=True)
        assert pm.n_user == 2000
        assert len(calls) == len({f for stack in stacks for f in stack}) == 11
        # One shared frames/locations tuple per distinct stack.
        assert len({id(i.frames) for i in pm.instances}) == len(stacks)
        assert len({id(i.locations) for i in pm.instances}) == len(stacks)
