"""Post-mortem sample processing (paper §IV.C, steps one and two).

Converts raw monitor samples into consolidated "instances": resolves
addresses to source context, glues worker-task post-spawn stacks to the
recorded pre-spawn stacks via the spawn tag, and trims synthetic runtime
frames — producing "a complete, clean call path of the application w/o
libraries for each sample".

Tolerant mode (``tolerant=True``) additionally survives degraded
telemetry instead of mis-attributing it:

* malformed samples (empty walk, negative leaf iid) are quarantined
  into a side channel with per-reason counts;
* incomplete stacks are repaired where possible — a lost spawn tag is
  recovered from other samples of the same outlined function, and a
  truncated walk is extended by longest-suffix match against intact
  call paths from the same run;
* whatever cannot be repaired lands in an explicit ``<unknown>`` blame
  bucket with a provenance reason (``truncated-stack``,
  ``lost-spawn-tag``, ``no-debug-info``) rather than vanishing or
  skewing the attributed rows.

On a clean stream the tolerant pipeline is a zero-cost abstraction: it
produces bit-identical instances to strict mode.

Processing is **streaming**: :class:`PostmortemConsumer` is a
single-pass incremental consumer over sample batches — feed it batches
as the monitor hands them over and call :meth:`~PostmortemConsumer.finish`
once, so no stage ever needs the whole ``list[RawSample]`` resident.
The recovery evidence (spawn-tag index, continuation suffixes) is
accumulated incrementally from intact instances as they are emitted;
degraded candidates wait in a held-back buffer that the
``evidence_window`` parameter bounds.  :func:`process_samples` is the
one-shot wrapper (one batch, unbounded window) and behaves exactly as
it always has.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.module import Module
from ..sampling.monitor import Monitor
from ..sampling.records import RawSample
from ..sampling.stackwalk import StackResolver

#: Provenance reasons for unattributable / rejected samples.
REASON_TRUNCATED = "truncated-stack"
REASON_LOST_TAG = "lost-spawn-tag"
REASON_NO_DEBUG = "no-debug-info"
REASON_MALFORMED = "malformed-sample"
#: A pool worker exhausted its retry budget and the whole shard's busy
#: samples were folded into ``<unknown>`` (see pipeline/supervisor.py).
REASON_WORKER_FAILED = "worker-failed"


def _looks_stripped(name: str) -> bool:
    # Raw-address frame names (debug info stripped) render as 0x....
    return name.startswith("0x")


@dataclass(frozen=True)
class Instance:
    """One consolidated sample: the paper's per-sample abstraction
    holding "module name, file name, line number and stack order
    number" for every frame."""

    index: int
    thread_id: int
    #: Leaf-first (function linkage name, iid); spans worker → spawn
    #: site → ... → main after gluing.
    frames: tuple[tuple[str, int], ...]
    #: Resolved (file, line) per frame.
    locations: tuple[tuple[str, int], ...]
    was_glued: bool
    spawn_tag: int | None
    #: True when the call path was repaired from degraded telemetry
    #: (suffix-match gluing) rather than recorded intact.
    was_recovered: bool = False


@dataclass(frozen=True)
class DegradedSample:
    """A sample that could not be (fully) consolidated, with provenance."""

    sample: RawSample
    reason: str


@dataclass
class PostmortemResult:
    """Outcome of post-mortem processing."""

    instances: list[Instance]
    #: Idle / pure-runtime samples (kept for the code-centric view;
    #: empty in bounded-memory streaming mode — see ``n_runtime``).
    runtime_samples: list[RawSample]
    n_raw: int
    #: Unattributable samples, by provenance (tolerant mode only).
    unknown: list[DegradedSample] = field(default_factory=list)
    #: Malformed samples rejected before consolidation (tolerant mode).
    quarantined: list[DegradedSample] = field(default_factory=list)
    #: Instances whose call path was repaired by suffix-match recovery.
    n_recovered: int = 0
    #: Count of runtime/idle samples (== ``len(runtime_samples)`` unless
    #: the consumer ran with ``keep_runtime_samples=False``).
    n_runtime: int = 0

    @property
    def n_user(self) -> int:
        return len(self.instances)

    @property
    def n_unknown(self) -> int:
        return len(self.unknown)

    def unknown_by_reason(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for d in self.unknown:
            out[d.reason] = out.get(d.reason, 0) + 1
        return out

    def quarantine_by_reason(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for d in self.quarantined:
            out[d.reason] = out.get(d.reason, 0) + 1
        return out


def _is_user_frame(module: Module, func: str) -> bool:
    # Synthetic runtime frames (__sched_yield) have no module function.
    # Module init counts as user context: Chapel module-level variable
    # initialization (MiniMD's Pos/Bins) runs there and its samples must
    # be attributable.
    return module.get_function(func) is not None


@dataclass
class _Candidate:
    """A degraded sample held back for the recovery pass."""

    sample: RawSample
    user_frames: list[tuple[str, int]]
    glued: bool
    had_stripped: bool


@dataclass
class ShardEvidence:
    """The recovery evidence one consumer accumulated from its intact
    instances — the piece of post-mortem state that is *not* local to a
    shard.  Plain picklable data so process-pool workers can ship it
    back for a global merge."""

    #: tag → pre-spawn stack (first intact occurrence wins).
    tag_index: dict[int, tuple[tuple[str, int], ...]]
    #: outlined function → distinct pre-spawn continuations.
    pre_index: dict[str, set[tuple[tuple[str, int], ...]]]
    #: frame → distinct continuations below it (suffix gluing).
    cont_index: dict[tuple[str, int], set[tuple[tuple[str, int], ...]]]

    @staticmethod
    def merge(parts: "list[ShardEvidence]") -> "ShardEvidence":
        """Order-respecting union: iterating shards in stream order and
        letting the first occurrence win reproduces exactly the indexes
        a single serial consumer would have built (its ``setdefault``
        semantics), so recovery against the merged evidence matches
        serial recovery bit for bit."""
        tag: dict[int, tuple[tuple[str, int], ...]] = {}
        pre: dict[str, set[tuple[tuple[str, int], ...]]] = {}
        cont: dict[tuple[str, int], set[tuple[tuple[str, int], ...]]] = {}
        for part in parts:
            for k, v in part.tag_index.items():
                tag.setdefault(k, v)
            for k, vs in part.pre_index.items():
                pre.setdefault(k, set()).update(vs)
            for k, vs in part.cont_index.items():
                cont.setdefault(k, set()).update(vs)
        return ShardEvidence(tag_index=tag, pre_index=pre, cont_index=cont)


@dataclass
class ShardState:
    """Phase-1 outcome of one shard's consumer: everything consolidated
    locally, with degraded candidates still *held* (unresolved) because
    resolving them needs evidence from every shard.

    Produced by :meth:`PostmortemConsumer.shard_state`; resolved by
    :meth:`PostmortemConsumer.resolve_with_evidence` against the
    :meth:`ShardEvidence.merge` of all shards.  All fields are plain
    picklable data.
    """

    instances: list[Instance]
    runtime_samples: list[RawSample]
    n_runtime: int
    quarantined: list[DegradedSample]
    candidates: list[_Candidate]
    n_raw: int
    #: In-stream repairs (symbol-table re-identification) — recovery
    #: that never needed cross-shard evidence.
    n_repaired: int
    evidence: ShardEvidence


class PostmortemConsumer:
    """Single-pass incremental consumer over raw sample batches.

    Feed batches in collection order with :meth:`feed`; call
    :meth:`finish` exactly once to resolve held-back degraded
    candidates and obtain the :class:`PostmortemResult`.  With the
    default settings the result is bit-identical to the historical
    whole-list :func:`process_samples` on the same stream.

    Memory behaviour:

    * intact samples are consolidated and released immediately — only
      the emitted :class:`Instance` (and the deduplicated recovery
      evidence derived from it) survives the batch;
    * degraded samples wait in a held-back candidate buffer.
      ``evidence_window`` bounds that buffer: when more than this many
      candidates are pending, the oldest are resolved early against the
      evidence collected so far (best-effort — evidence that would only
      arrive later in the run cannot repair an early-flushed sample).
      ``None`` (the default) holds all candidates to the end, matching
      the one-shot semantics exactly;
    * ``keep_runtime_samples=False`` additionally drops idle/runtime
      samples after counting them (the views only use the count);
    * each distinct intact path is consolidated once: its instances
      share one frames tuple and one locations tuple.
    """

    def __init__(
        self,
        module: Module,
        options: object | None = None,
        tolerant: bool = False,
        evidence_window: int | None = None,
        keep_runtime_samples: bool = True,
        resolver: "StackResolver | None" = None,
    ) -> None:
        from .options import FULL

        self.module = module
        self.options = options or FULL
        self.tolerant = tolerant
        if evidence_window is not None and evidence_window < 1:
            raise ValueError("evidence_window must be >= 1 (or None)")
        self.evidence_window = evidence_window
        self.keep_runtime_samples = keep_runtime_samples

        # Building the resolver means indexing every instruction in the
        # module; callers that construct many consumers over one
        # unchanging module (the sharded pipeline, one per shard) pass a
        # shared pre-built resolver — it is pure lookup, so sharing
        # changes no behavior.
        self._resolver = (
            resolver if resolver is not None else StackResolver(module)
        )
        self._instances: list[Instance] = []
        self._runtime: list[RawSample] = []
        self._n_runtime = 0
        self._quarantined: list[DegradedSample] = []
        self._unknown: list[DegradedSample] = []
        self._candidates: list[_Candidate] = []
        self._n_raw = 0
        self._n_repaired = 0
        self._n_late_recovered = 0
        self._finished = False
        #: (stack, glued pre-spawn stack) → (user frames, locations) of a
        #: path consolidated intact in the first pass; repeats reuse it.
        self._intact: dict[tuple, tuple] = {}
        #: tag → pre-spawn stack, learned from intact samples (recovery).
        self._tag_index: dict[int, tuple[tuple[str, int], ...]] = {}
        #: outlined function → distinct pre-spawn continuations.
        self._pre_index: dict[str, set[tuple[tuple[str, int], ...]]] = {}
        #: frame → distinct continuations below it (suffix gluing).
        self._cont_index: dict[
            tuple[str, int], set[tuple[tuple[str, int], ...]]
        ] = {}

    # -- streaming interface -------------------------------------------------

    @property
    def pending_candidates(self) -> int:
        """Degraded samples currently held back for recovery."""
        return len(self._candidates)

    @property
    def n_consolidated(self) -> int:
        """Instances consolidated so far (grows monotonically; the
        adaptive checkpoints read deltas against this watermark)."""
        return len(self._instances)

    @property
    def n_quarantined(self) -> int:
        """Samples rejected so far (post-mortem quarantine only)."""
        return len(self._quarantined)

    def instances_since(self, start: int) -> "list[Instance]":
        """The consolidated instances appended at or after ``start`` —
        the incremental-attribution delta between two checkpoints."""
        return self._instances[start:]

    def feed(self, batch: "list[RawSample] | tuple[RawSample, ...]") -> None:
        """Consumes one batch of raw samples (collection order)."""
        if self._finished:
            raise RuntimeError("PostmortemConsumer.feed() after finish()")
        for s in batch:
            self._consume(s)
        if (
            self.evidence_window is not None
            and len(self._candidates) > self.evidence_window
        ):
            # Bounded evidence window: resolve the overflow (oldest
            # first) against whatever evidence exists right now.
            overflow = len(self._candidates) - self.evidence_window
            flush, self._candidates = (
                self._candidates[:overflow],
                self._candidates[overflow:],
            )
            for c in flush:
                self._n_late_recovered += self._resolve_candidate(c)

    def finish(self) -> PostmortemResult:
        """Resolves remaining candidates and returns the result."""
        if self._finished:
            raise RuntimeError("PostmortemConsumer.finish() called twice")
        self._finished = True
        for c in self._candidates:
            self._n_late_recovered += self._resolve_candidate(c)
        self._candidates = []
        return PostmortemResult(
            instances=self._instances,
            runtime_samples=self._runtime,
            n_raw=self._n_raw,
            unknown=self._unknown,
            quarantined=self._quarantined,
            n_recovered=self._n_repaired + self._n_late_recovered,
            n_runtime=self._n_runtime,
        )

    # -- per-sample consolidation (first pass) -------------------------------

    def _consume(self, s: RawSample) -> None:
        self._n_raw += 1
        if s.is_idle:
            self._n_runtime += 1
            if self.keep_runtime_samples:
                self._runtime.append(s)
            return
        if self.tolerant:
            flaw = Monitor.validate(s)
            if flaw is not None:
                self._quarantined.append(DegradedSample(s, REASON_MALFORMED))
                return
        glued = bool(
            self.options.stack_gluing
            and s.spawn_tag is not None
            and s.pre_spawn_stack
        )
        key = (s.stack, s.pre_spawn_stack if glued else None)
        hit = self._intact.get(key)
        if hit is not None:
            # A repeat of a path already consolidated intact: its user
            # frames, locations and recovery evidence are known, so only
            # the per-sample fields and the spawn-tag index remain.
            if self.tolerant and glued:
                self._tag_index.setdefault(s.spawn_tag, s.pre_spawn_stack)
            frames, locations = hit
            self._instances.append(
                Instance(s.index, s.thread_id, frames, locations, glued, s.spawn_tag)
            )
            return

        frames = list(s.stack)
        if glued:
            # Glue post-spawn to pre-spawn. The pre-spawn leaf is the
            # SpawnJoin site in the spawning function — it plays the
            # role of the call site for the outlined frame.
            frames += s.pre_spawn_stack

        # Trim synthetic/artificial frames that carry no user context
        # (e.g. a sample landing in module init keeps that frame only if
        # nothing else remains).
        had_stripped = self.tolerant and any(
            _looks_stripped(f) for f, _ in frames
        )
        repaired = False
        if had_stripped:
            frames, repaired = _repair_stripped(self._resolver, frames)
        user_frames = [
            f for f in frames if _is_user_frame(self.module, f[0])
        ]
        if not user_frames:
            # Paper: "when encountering samples of which the post-spawn
            # stack trace has no stack frames from the user code, we
            # trace back to its pre-spawn stack" — already glued above;
            # whatever still has no user frame is runtime-only.
            if had_stripped:
                self._candidates.append(_Candidate(s, user_frames, glued, True))
            else:
                self._n_runtime += 1
                if self.keep_runtime_samples:
                    self._runtime.append(s)
            return

        if self.tolerant and not _is_complete(self.module, user_frames):
            self._candidates.append(
                _Candidate(s, user_frames, glued, had_stripped)
            )
            return

        if self.tolerant and glued:
            # Learn tag → pre-spawn only from *intact* paths (repaired
            # names, complete root), so a truncated or stripped
            # pre-spawn can never poison tag recovery.
            pre = (
                tuple(frames[len(s.stack):])
                if repaired
                else s.pre_spawn_stack
            )
            self._tag_index.setdefault(s.spawn_tag, pre)
        if repaired:
            self._n_repaired += 1
        inst = self._emit(s, tuple(user_frames), glued, recovered=repaired,
                          index_evidence=True)
        if not had_stripped:
            # Paths with stripped frames (symbol-table repair) are never
            # memoized.
            self._intact[key] = (inst.frames, inst.locations)

    def _emit(
        self,
        s: RawSample,
        frames: tuple[tuple[str, int], ...],
        glued: bool,
        recovered: bool = False,
        index_evidence: bool = False,
    ) -> Instance:
        inst = Instance(
            index=s.index,
            thread_id=s.thread_id,
            frames=frames,
            locations=self._resolver.locations(frames),
            was_glued=glued,
            spawn_tag=s.spawn_tag,
            was_recovered=recovered,
        )
        self._instances.append(inst)
        # Recovery evidence comes from first-pass instances only:
        # instances emitted *by* recovery never feed back into the
        # indexes (matching the historical snapshot-then-recover order,
        # which kept recovered paths from influencing later candidates).
        if index_evidence and self.tolerant:
            self._index_evidence(inst)
        return inst

    def _index_evidence(self, inst: Instance) -> None:
        if inst.was_glued:
            # The post-spawn part of a glued path ends at its outlined
            # frame; everything below is the pre-spawn continuation.
            for k, (func, _iid) in enumerate(inst.frames):
                f = self.module.get_function(func)
                if f is not None and f.outlined_from is not None:
                    self._pre_index.setdefault(func, set()).add(
                        inst.frames[k + 1:]
                    )
                    break
        for k in range(len(inst.frames) - 1):
            self._cont_index.setdefault(inst.frames[k], set()).add(
                inst.frames[k + 1:]
            )

    # -- shard interface (parallel collection) -------------------------------

    def shard_state(self) -> ShardState:
        """Ends consumption and returns the shard-local outcome *without*
        resolving held-back candidates (phase 1 of the parallel
        post-mortem).

        Candidate resolution is the only part of post-mortem processing
        that reads global state (the recovery evidence spans the whole
        stream), so a shard worker stops here and ships its candidates
        plus evidence to the parent, which resolves all candidates —
        in global stream order — against the merged evidence with
        :meth:`resolve_with_evidence`.

        Incompatible with a bounded ``evidence_window``: early flushing
        resolves candidates against *partial* evidence mid-stream, which
        has no faithful two-phase equivalent.
        """
        if self.evidence_window is not None:
            raise RuntimeError(
                "shard_state() requires an unbounded evidence window "
                "(evidence_window=None); bounded-window early resolution "
                "cannot be deferred to a cross-shard phase"
            )
        if self._finished:
            raise RuntimeError("PostmortemConsumer.shard_state() after finish()")
        self._finished = True
        return ShardState(
            instances=self._instances,
            runtime_samples=self._runtime,
            n_runtime=self._n_runtime,
            quarantined=self._quarantined,
            candidates=self._candidates,
            n_raw=self._n_raw,
            n_repaired=self._n_repaired,
            evidence=ShardEvidence(
                tag_index=self._tag_index,
                pre_index=self._pre_index,
                cont_index=self._cont_index,
            ),
        )

    @classmethod
    def resolve_with_evidence(
        cls,
        module: Module,
        candidates: "list[_Candidate]",
        evidence: ShardEvidence,
        options: object | None = None,
        stack_resolver: "StackResolver | None" = None,
    ) -> "tuple[list[Instance], list[DegradedSample], int]":
        """Phase 2 of the parallel post-mortem: resolves ``candidates``
        (global stream order) against the merged ``evidence`` of every
        shard.

        Returns ``(recovered_instances, unknown, n_recovered)``.  Because
        a serial pass builds evidence only from intact first-pass
        instances — never from recovered ones — resolution is a pure
        function of the final evidence, and running it here over the
        concatenated candidate lists reproduces the serial ``finish()``
        outcome exactly.
        """
        resolver = cls(
            module, options=options, tolerant=True, resolver=stack_resolver
        )
        resolver._tag_index = evidence.tag_index
        resolver._pre_index = evidence.pre_index
        resolver._cont_index = evidence.cont_index
        resolver._finished = True
        n_recovered = 0
        for c in candidates:
            n_recovered += resolver._resolve_candidate(c)
        return resolver._instances, resolver._unknown, n_recovered

    # -- recovery (second pass over held-back candidates) --------------------

    def _resolve_candidate(self, c: _Candidate) -> int:
        """Repairs one degraded stack from the accumulated evidence.

        Two indexes built from intact first-pass instances answer:

        * outlined-function → distinct pre-spawn stacks (for spawn-tag
          loss: if every intact sample of outlined body F glued to one
          pre-spawn stack, a tagless F sample glues to it too);
        * deepest-remaining-frame → distinct continuations (for
          truncated walks: the longest suffix below the matching frame
          of an intact path, adopted only when unambiguous).

        Returns 1 when the candidate was recovered, 0 when it landed in
        the ``<unknown>`` bucket.
        """
        s = c.sample
        if not c.user_frames:
            # Nothing resolvable at all — stripped debug info.
            self._unknown.append(DegradedSample(s, REASON_NO_DEBUG))
            return 0
        root_func, _root_iid = c.user_frames[-1]
        rootf = self.module.get_function(root_func)
        is_outlined_root = rootf is not None and rootf.outlined_from is not None

        continuation: tuple[tuple[str, int], ...] | None = None
        if is_outlined_root:
            reason = REASON_LOST_TAG
            if s.spawn_tag is not None:
                # Tag survived but the pre-spawn stack was lost: glue
                # via another sample that recorded the same tag intact.
                continuation = self._tag_index.get(s.spawn_tag)
            if continuation is None:
                options = self._pre_index.get(root_func, set())
                if len(options) == 1:
                    continuation = next(iter(options))
        else:
            reason = REASON_NO_DEBUG if c.had_stripped else REASON_TRUNCATED
            options = self._cont_index.get(c.user_frames[-1], set())
            if len(options) == 1:
                continuation = next(iter(options))

        if continuation is not None:
            frames = c.user_frames + [
                f for f in continuation if _is_user_frame(self.module, f[0])
            ]
            if _is_complete(self.module, frames):
                self._emit(s, tuple(frames), True, recovered=True)
                return 1
        self._unknown.append(DegradedSample(s, reason))
        return 0


def process_samples(
    module: Module,
    samples: list[RawSample],
    options: object | None = None,
    tolerant: bool = False,
) -> PostmortemResult:
    """One-shot stack consolidation over a fully materialized stream
    (a single batch through :class:`PostmortemConsumer`)."""
    consumer = PostmortemConsumer(module, options=options, tolerant=tolerant)
    consumer.feed(samples)
    return consumer.finish()


def _repair_stripped(
    resolver: StackResolver, frames: list[tuple[str, int]]
) -> tuple[list[tuple[str, int]], bool]:
    """Re-identifies stripped interior frames by address-range lookup.

    Debug-info stripping removes line/variable info but not the symbol
    table, so a raw-address frame can still be mapped back to *which
    function* its address falls in — enough to keep the blame-transfer
    chain intact for frames above and below it.  Two cases stay broken:

    * a stripped **leaf** — function identity alone cannot tell which
      access the PC belongs to, so the sample is unattributable
      (returns an empty walk → explicit unknown downstream);
    * an address that resolves nowhere — the walk is cut there and the
      suffix handed to longest-suffix-match recovery.
    """
    if _looks_stripped(frames[0][0]):
        return [], False
    out: list[tuple[str, int]] = []
    repaired = False
    for func, iid in frames:
        if _looks_stripped(func):
            name = resolver.identify(iid)
            if name is None:
                return out, repaired
            out.append((name, iid))
            repaired = True
        else:
            out.append((func, iid))
    return out, repaired


def _is_complete(module: Module, user_frames: list[tuple[str, int]]) -> bool:
    """A consolidated path is complete when it roots at ``main`` (or an
    artificial root like module init, which cannot bubble further)."""
    root = user_frames[-1][0]
    if root == "main":
        return True
    f = module.get_function(root)
    return f is not None and f.is_artificial
