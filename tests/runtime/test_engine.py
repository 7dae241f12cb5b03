"""Fast-engine vs generic-loop equivalence.

The fast-path engine (pre-bound dispatch + overflow-horizon batching)
must be observationally identical to ``_run_quantum_generic``: same
program output, same cycle counts, same instruction counts, and a
bit-for-bit identical sample stream — including under skid and skid
compensation, and in the idle-heavy regimes where threads outnumber
tasks.

Every comparison shares ONE compiled module between both runs:
instruction ids come from a process-global counter, so separately
compiled copies of the same source get offset iids and cannot be
compared sample-for-sample.
"""

import pytest

from repro.compiler.lower import compile_source
from repro.runtime import interpreter as interpreter_mod
from repro.runtime.interpreter import ExecutionError, Interpreter
from repro.runtime.tasking import Task
from repro.sampling.monitor import Monitor
from repro.sampling.pmu import PMUConfig

import sys, os
sys.path.insert(0, os.path.dirname(os.path.dirname(__file__)))


MIXED_SRC = """
record Pt { var x: real; var y: real; }
var G: [0..63] real;
var total: real;
proc bump(ref p: Pt, s: real) {
  p.x = p.x + s;
  p.y = p.y - s / 2.0;
}
proc main() {
  var p: Pt;
  for i in 0..63 { G[i] = i * 1.5; }
  forall i in 0..63 {
    G[i] = G[i] * 2.0 + i % 3;
  }
  for i in 0..31 {
    bump(p, G[i]);
  }
  var acc = 0.0;
  for (i, g) in zip(0..63, G) { acc = acc + g * (i + 1); }
  total = acc + p.x * p.y;
  writeln(total);
}
"""

SPAWN_HEAVY_SRC = """
var A: [0..127] int;
proc main() {
  coforall t in 0..7 {
    for i in 0..15 { A[t * 16 + i] = t * i; }
  }
  var s = 0;
  for i in 0..127 { s = s + A[i]; }
  writeln(s);
}
"""


def run_with(module, engine, *, config=None, num_threads=4, threshold=None,
             skid=0, skid_compensation=False):
    monitor = Monitor(PMUConfig(threshold=threshold)) if threshold else None
    interp = Interpreter(
        module,
        config=config,
        num_threads=num_threads,
        monitor=monitor,
        sample_threshold=threshold,
        skid=skid,
        skid_compensation=skid_compensation,
        engine=engine,
    )
    result = interp.run()
    stream = (
        [(s.thread_id, s.leaf_iid, tuple(s.stack)) for s in monitor.samples]
        if monitor
        else None
    )
    return result, stream


def assert_equivalent(module, **kwargs):
    fast, fast_stream = run_with(module, "fast", **kwargs)
    gen, gen_stream = run_with(module, "generic", **kwargs)
    assert fast.output == gen.output
    assert fast.total_cycles == gen.total_cycles
    assert fast.idle_cycles == gen.idle_cycles
    assert fast.busy_cycles == gen.busy_cycles
    assert fast.instructions_executed == gen.instructions_executed
    assert fast_stream == gen_stream


class TestEngineEquivalence:
    def test_mixed_program_no_sampling(self):
        module = compile_source(MIXED_SRC, "mixed.chpl")
        assert_equivalent(module)

    def test_mixed_program_sampled(self):
        module = compile_source(MIXED_SRC, "mixed.chpl")
        assert_equivalent(module, threshold=97)

    def test_sampled_with_skid(self):
        module = compile_source(MIXED_SRC, "mixed.chpl")
        assert_equivalent(module, threshold=97, skid=3)

    def test_sampled_with_skid_compensation(self):
        module = compile_source(MIXED_SRC, "mixed.chpl")
        assert_equivalent(module, threshold=97, skid=3, skid_compensation=True)

    def test_idle_heavy_many_threads(self):
        # More threads than tasks: most scheduler picks are idle ticks,
        # exercising the batched idle-stretch path and its idle samples.
        module = compile_source(SPAWN_HEAVY_SRC, "spawny.chpl")
        assert_equivalent(module, num_threads=12, threshold=53)

    def test_single_thread(self):
        module = compile_source(SPAWN_HEAVY_SRC, "spawny.chpl")
        assert_equivalent(module, num_threads=1, threshold=101)


MIGRATING_SRC = """
var A: [0..63] real;
proc main() {
  for r in 0..3 {
    forall i in 0..63 { A[i] = A[i] + i * 0.5; }
    var s = 0.0;
    for i in 0..7 { s = s + A[i]; }
    A[0] = s;
  }
  writeln(A[0]);
}
"""


def run_with_state(module, engine, monkeypatch, *, threshold, num_threads):
    """Runs under the monitor and returns the result, the sample stream,
    every thread's clocks and PMU counter, every task's ``last_clock``,
    and how many overflows landed on the last instruction a task ran
    before leaving its thread (a spawn suspending it, or its return)."""
    tasks = []

    class RecordingTask(Task):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tasks.append(self)

    monkeypatch.setattr(interpreter_mod, "Task", RecordingTask)
    monitor = Monitor(PMUConfig(threshold=threshold))
    interp = Interpreter(
        module,
        num_threads=num_threads,
        monitor=monitor,
        sample_threshold=threshold,
        engine=engine,
    )
    overflow = interp._pmu_overflow
    on_leave = [0]

    def counting_overflow(thread, idle):
        if not idle and thread.task is None:
            on_leave[0] += 1
        overflow(thread, idle)

    interp._pmu_overflow = counting_overflow
    result = interp.run()
    monkeypatch.undo()
    threads = [
        (t.clock, t.busy_cycles, t.idle_cycles, t.pmu_counter)
        for t in interp.scheduler.threads
    ]
    last_clocks = [(t.task_id, t.last_clock) for t in tasks]
    stream = [(s.thread_id, s.leaf_iid, s.stack) for s in monitor.samples]
    return result, stream, threads, last_clocks, on_leave[0]


class TestEngineStateIdentity:
    @pytest.mark.parametrize("threshold", [31, 97])
    def test_thread_and_task_clocks_match(self, monkeypatch, threshold):
        # The stack walk's STACKWALK_CYCLES charge lands on the thread
        # clock after the instruction that overflowed; a task's
        # last_clock must be taken before it.  Overflows on a task's
        # last instruction before it leaves the thread are where a
        # misplaced charge shows.
        module = compile_source(MIGRATING_SRC, "migrating.chpl")
        fast = run_with_state(
            module, "fast", monkeypatch, threshold=threshold, num_threads=3
        )
        gen = run_with_state(
            module, "generic", monkeypatch, threshold=threshold, num_threads=3
        )
        assert gen[4] > 0, "no overflow landed on a task's last instruction"
        assert fast[0].output == gen[0].output
        assert fast[0].total_cycles == gen[0].total_cycles
        assert fast[1] == gen[1]
        assert fast[2] == gen[2]
        assert fast[3] == gen[3]
        assert fast[4] == gen[4]


class TestEngineErrors:
    def test_division_by_zero_message_matches(self):
        src = """
proc main() {
  var d = 0;
  writeln(1.0 / d);
}
"""
        module = compile_source(src, "err.chpl")
        msgs = []
        for engine in ("fast", "generic"):
            with pytest.raises(ExecutionError) as exc:
                Interpreter(module, num_threads=2, engine=engine).run()
            msgs.append(str(exc.value))
        assert msgs[0] == msgs[1]

    def test_out_of_bounds_message_matches(self):
        src = """
var A: [0..3] int;
proc main() {
  for i in 0..9 { A[i] = i; }
}
"""
        module = compile_source(src, "oob.chpl")
        msgs = []
        for engine in ("fast", "generic"):
            with pytest.raises(ExecutionError) as exc:
                Interpreter(module, num_threads=2, engine=engine).run()
            msgs.append(str(exc.value))
        assert msgs[0] == msgs[1]

    def test_faulting_instruction_counted_identically(self):
        src = """
proc main() {
  var d = 0;
  var x = 5 / d;
}
"""
        module = compile_source(src, "fault.chpl")
        counts = []
        for engine in ("fast", "generic"):
            interp = Interpreter(module, num_threads=2, engine=engine)
            with pytest.raises(ExecutionError):
                interp.run()
            counts.append(interp.instructions_executed)
        assert counts[0] == counts[1]


class TestEngineSelection:
    def test_max_instructions_uses_generic_loop(self):
        # The budget check lives in the generic loop; the fast engine
        # must stand aside when a budget is set.
        module = compile_source("proc main() { writeln(1); }", "tiny.chpl")
        interp = Interpreter(module, num_threads=1, max_instructions=10_000)
        assert interp._fast_engine is None
        assert interp.run().output == ["1"]

    def test_fast_is_default(self):
        module = compile_source("proc main() { writeln(1); }", "tiny2.chpl")
        interp = Interpreter(module, num_threads=1)
        assert interp._fast_engine is not None
        assert interp.run().output == ["1"]
