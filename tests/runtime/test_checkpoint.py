"""Runtime checkpoint/resume: the snapshottable-scheduler layer under
sliced parallel collection (checkpoint format, safe-point invariant,
SliceStop unwinding) plus the module-state regressions it depends on
(S1: no process-global counters; S2: build_run_result edge cases)."""

import ast
import pathlib
import pickle

import pytest

from repro.compiler.lower import compile_source
from repro.runtime.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    RuntimeCheckpoint,
    SliceStop,
    capture_checkpoints,
    count_stream,
    plan_slices,
)
from repro.runtime.interpreter import Interpreter
from repro.runtime.values import RuntimeError_
from repro.sampling.monitor import Monitor
from repro.sampling.pmu import PMUConfig, counters_drained

THRESHOLD = 997
THREADS = 4

SRC = """
config const n = 160;
var A: [0..n-1] real;
proc main() {
  forall i in 0..n-1 {
    var acc = 0.0;
    for j in 0..7 { acc += i * 1.0 + j; }
    A[i] = acc;
  }
  var total = 0.0;
  for i in 0..n-1 { total += A[i]; }
  writeln(total);
}
"""


def _module():
    return compile_source(SRC, "ckpt.chpl")


def _serial(module):
    monitor = Monitor(PMUConfig(threshold=THRESHOLD))
    interp = Interpreter(
        module,
        num_threads=THREADS,
        monitor=monitor,
        sample_threshold=THRESHOLD,
    )
    return monitor, interp.run()


class TestCheckpointRoundTrip:
    def test_resume_reproduces_the_serial_tail(self):
        module = _module()
        serial_monitor, serial_result = _serial(module)
        total = serial_monitor.n_accepted
        assert total > 10

        cut = total // 2
        [(actual, blob)] = capture_checkpoints(
            module, [cut], num_threads=THREADS, threshold=THRESHOLD
        )
        assert actual >= cut

        head = Monitor(PMUConfig(threshold=THRESHOLD))
        interp = Interpreter(
            module,
            num_threads=THREADS,
            monitor=head,
            sample_threshold=THRESHOLD,
        )
        assert interp.run_sliced(actual) is None  # stopped, not finished

        tail = Monitor(PMUConfig(threshold=THRESHOLD), index_base=actual)
        resumed = Interpreter.resume(
            blob, monitor=tail, sample_threshold=THRESHOLD
        )
        result = resumed.continue_sliced(None)

        assert (
            head.sealed_stream() + tail.sealed_stream()
            == serial_monitor.sealed_stream()
        )
        assert result.output == serial_result.output
        assert result.wall_seconds == serial_result.wall_seconds
        assert result.total_cycles == serial_result.total_cycles
        assert result.instructions_executed == serial_result.instructions_executed

    def test_checkpoint_is_a_versioned_pickle(self):
        module = _module()
        [(_, blob)] = capture_checkpoints(
            module, [5], num_threads=THREADS, threshold=THRESHOLD
        )
        ckpt = pickle.loads(blob)
        assert isinstance(ckpt, RuntimeCheckpoint)
        assert ckpt.version == CHECKPOINT_VERSION
        assert ckpt.num_threads == THREADS
        # The captured state sits at a safe point: all counters drained.
        assert counters_drained(
            [t.pmu_counter for t in ckpt.scheduler.threads], THRESHOLD
        )

    def test_restore_rejects_garbage_and_wrong_version(self):
        with pytest.raises(CheckpointError):
            Interpreter.resume(pickle.dumps("nonsense"))
        module = _module()
        [(_, blob)] = capture_checkpoints(
            module, [5], num_threads=THREADS, threshold=THRESHOLD
        )
        ckpt = pickle.loads(blob)
        ckpt.version = CHECKPOINT_VERSION + 1
        with pytest.raises(CheckpointError):
            Interpreter.resume(pickle.dumps(ckpt))

    def test_snapshot_requires_a_started_run(self):
        interp = Interpreter(_module(), num_threads=THREADS)
        with pytest.raises(CheckpointError):
            interp.checkpoint()

    def test_slice_stop_is_not_a_program_error(self):
        # StopSampling-style unwinding: SliceStop must never be caught
        # by the interpreter's RuntimeError_ handlers on its way out.
        assert not issubclass(SliceStop, RuntimeError_)


class TestCensus:
    def test_count_stream_matches_a_monitored_run(self):
        module = _module()
        serial_monitor, _ = _serial(module)
        assert (
            count_stream(module, num_threads=THREADS, threshold=THRESHOLD)
            == serial_monitor.n_accepted
        )

    def test_coincident_cuts_collapse(self):
        module = _module()
        got = capture_checkpoints(
            module, [10, 10, 10], num_threads=THREADS, threshold=THRESHOLD
        )
        assert len(got) == 1

    def test_plan_slices_caches_per_module_and_knobs(self):
        module = _module()
        cold = plan_slices(
            module, 3, num_threads=THREADS, threshold=THRESHOLD
        )
        warm = plan_slices(
            module, 3, num_threads=THREADS, threshold=THRESHOLD
        )
        assert not cold.cache_hit and warm.cache_hit
        assert warm.census_seconds == 0.0
        assert warm.starts == cold.starts and warm.stops == cold.stops
        other = plan_slices(
            module, 4, num_threads=THREADS, threshold=THRESHOLD
        )
        assert not other.cache_hit


class TestRunResultEdges:
    """S2: build_run_result on runs that never (or barely) executed."""

    def test_fresh_interpreter_builds_a_zeroed_result(self):
        # The adaptive driver may unwind before the first quantum; the
        # result must reflect "nothing ran", not raise.
        interp = Interpreter(_module(), num_threads=THREADS)
        result = interp.build_run_result()
        assert result.wall_seconds == 0.0
        assert result.total_cycles == 0.0
        assert result.idle_cycles == 0.0
        assert result.busy_cycles == 0.0
        assert result.output == []

    def test_no_threads_builds_a_zeroed_result(self):
        interp = Interpreter(_module(), num_threads=THREADS)
        interp.scheduler.threads = []
        result = interp.build_run_result()
        assert result.wall_seconds == 0.0
        assert result.cpu_utilization == 1.0


RUNTIME_DIR = (
    pathlib.Path(__file__).resolve().parents[2] / "src" / "repro" / "runtime"
)

#: Module-level names in src/repro/runtime that are allowed to hold
#: container values.  Everything here is write-once (built at import,
#: only ever read) — a new entry needs the same justification.
ALLOWED_MODULE_CONTAINERS = {
    ("__init__.py", "__all__"),
    ("builtins.py", "BUILTINS"),
    ("engine.py", "_BRANCHES"),
    ("engine.py", "_CMP_FNS"),
    ("engine.py", "_ARITH_FNS"),
    # Bounded census-plan cache, deliberately process-global (that is
    # what makes re-profiling the same module cheap); keyed by module
    # identity + every collection knob, so hits are exact replays.
    ("checkpoint.py", "_PLAN_CACHE"),
}


class TestRuntimeModuleState:
    """S1: the runtime package holds no hidden cross-run state."""

    def test_no_unexpected_module_level_containers(self):
        offenders = []
        for path in sorted(RUNTIME_DIR.glob("*.py")):
            tree = ast.parse(path.read_text())
            for node in tree.body:
                if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                    continue
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                value = node.value
                if value is None or isinstance(value, ast.Constant):
                    continue
                for tgt in targets:
                    name = getattr(tgt, "id", None)
                    if name is None:
                        continue
                    if isinstance(
                        value,
                        (ast.List, ast.Dict, ast.Set, ast.Tuple, ast.Call),
                    ) and (path.name, name) not in ALLOWED_MODULE_CONTAINERS:
                        # Calls to immutable constructors are fine.
                        if (
                            isinstance(value, ast.Call)
                            and getattr(value.func, "id", "")
                            in ("frozenset", "CostModel", "attrgetter")
                        ):
                            continue
                        offenders.append(f"{path.name}:{node.lineno} {name}")
        assert offenders == []

    def test_default_cost_model_is_immutable(self):
        from repro.runtime.costmodel import DEFAULT_COST_MODEL

        with pytest.raises(Exception):
            DEFAULT_COST_MODEL.store = 999  # type: ignore[misc]

    def test_id_counters_are_per_scheduler(self):
        from repro.runtime.tasking import Scheduler

        a, b = Scheduler(num_threads=2), Scheduler(num_threads=2)
        assert a.next_task_id() == b.next_task_id()
        assert a.next_spawn_tag() == b.next_spawn_tag()

    def test_collection_twice_in_one_process_is_byte_identical(self):
        # The end-to-end S1 regression: with per-instance counters,
        # repeating a collection inside one process reproduces the
        # stream byte for byte (task ids and all).
        module = _module()
        first, first_result = _serial(module)
        second, second_result = _serial(module)
        assert first.sealed_stream() == second.sealed_stream()
        assert first_result.output == second_result.output
        assert (
            first_result.instructions_executed
            == second_result.instructions_executed
        )
