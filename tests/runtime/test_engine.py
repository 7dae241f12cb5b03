"""Fast-engine vs generic-loop equivalence.

The fast-path engine (pre-bound plans run in straight-line stretches)
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

from collections import Counter

import pytest

from repro.compiler.lower import compile_source
from repro.ir import instructions as I
from repro.runtime import interpreter as interpreter_mod
from repro.runtime.engine import FastEngine
from repro.runtime.interpreter import ExecutionError, Interpreter
from repro.runtime.tasking import Task
from repro.runtime.values import RuntimeError_
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


def run_traced(module, engine, monkeypatch, *, threshold, quantum, num_threads=3):
    """Runs under the monitor and records, at every event-loop safe
    point and once more at the end (normal or faulting), the executed
    instruction count, every thread's clock/busy/idle/PMU, and every
    task's ``last_clock``.  Returns that trace, the sample stream, the
    error text (None when the run completes), the program output, and
    how many overflows landed on the last instruction a task ran before
    leaving its thread (a spawn suspending it, or its return)."""
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
        quantum=quantum,
        engine=engine,
    )
    trace = []

    def record(_interp):
        trace.append((
            interp.instructions_executed,
            [
                (t.clock, t.busy_cycles, t.idle_cycles, t.pmu_counter)
                for t in interp.scheduler.threads
            ],
            [(t.task_id, t.last_clock) for t in tasks],
        ))

    interp._iteration_hook = record
    overflow = interp._pmu_overflow
    leaving = [0]

    def counting_overflow(thread, idle):
        if not idle and thread.task is None:
            leaving[0] += 1
        overflow(thread, idle)

    interp._pmu_overflow = counting_overflow
    error = None
    try:
        interp.run()
    except ExecutionError as exc:
        error = str(exc)
    finally:
        monkeypatch.undo()
    record(interp)
    stream = [(s.thread_id, s.leaf_iid, s.stack) for s in monitor.samples]
    return trace, stream, error, list(interp.output), leaving[0]


def overflow_landings(module, *, threshold, quantum, num_threads=3):
    """Generic-engine run counting busy-thread overflows by where they
    land: on a local branch (which closes a fast-engine stretch), on the
    last instruction of a quantum that is not a call/return/spawn, and
    on the instruction just before a fault."""
    monitor = Monitor(PMUConfig(threshold=threshold))
    interp = Interpreter(
        module,
        num_threads=num_threads,
        monitor=monitor,
        sample_threshold=threshold,
        quantum=quantum,
        engine="generic",
    )
    last = {"instr": None, "in_quantum": 0, "overflowed": False}
    hits = {"branch": 0, "budget_end": 0, "before_fault": 0}
    for kind, handler in list(interp._dispatch.items()):

        def counted(thread, task, frame, instr, _h=handler):
            after_overflow = last["overflowed"]
            last["instr"] = instr
            last["in_quantum"] += 1
            last["overflowed"] = False
            try:
                return _h(thread, task, frame, instr)
            except RuntimeError_:
                hits["before_fault"] += after_overflow
                raise

        interp._dispatch[kind] = counted
    run_quantum = interp._run_quantum

    def quantum_start(thread):
        last["in_quantum"] = 0
        run_quantum(thread)

    interp._run_quantum = quantum_start
    overflow = interp._pmu_overflow

    def landing(thread, idle):
        if not idle and thread.task is not None:
            instr = last["instr"]
            if isinstance(instr, (I.Br, I.CBr)):
                hits["branch"] += 1
            if last["in_quantum"] == quantum and not isinstance(
                instr, (I.Call, I.Ret, I.SpawnJoin)
            ):
                hits["budget_end"] += 1
            last["overflowed"] = True
        overflow(thread, idle)

    interp._pmu_overflow = landing
    try:
        interp.run()
    except ExecutionError:
        pass
    return hits


class TestEngineStateIdentity:
    @pytest.mark.parametrize("threshold", [31, 97])
    def test_thread_and_task_clocks_match(self, monkeypatch, threshold):
        # The stack walk's STACKWALK_CYCLES charge lands on the thread
        # clock after the instruction that overflowed; a task's
        # last_clock must be taken before it.  Overflows on a task's
        # last instruction before it leaves the thread are where a
        # misplaced charge shows.
        module = compile_source(MIGRATING_SRC, "migrating.chpl")
        fast = run_traced(module, "fast", monkeypatch, threshold=threshold, quantum=64)
        gen = run_traced(module, "generic", monkeypatch, threshold=threshold, quantum=64)
        assert gen[4] > 0, "no overflow landed on a task's last instruction"
        assert gen[2] is None and gen[3]
        assert fast[3] == gen[3]
        assert fast[4] == gen[4]
        assert fast == gen


FAULT_SRC = """
var G: [0..15] real;
proc main() {
  forall i in 0..15 { G[i] = i * 0.5; }
  var s = 0.0;
  for i in 0..15 { s = s + G[i]; }
  var d = 0;
  var b = s + 2.0;
  var c = b * 3.0;
  var x = 7 / d;
  writeln(x + c);
}
"""

QUANTA = [1, 2, 3, 7, 64]


class TestStretchBoundaries:
    """The fast engine runs straight-line stretches with the clock, busy
    cycles and PMU count in locals, written back at overflows, single
    steps, the quantum's end and on exceptions.  Every event-loop safe
    point must see exactly the generic loop's state, whatever the
    quantum cuts and wherever an overflow lands."""

    @pytest.mark.parametrize("quantum", QUANTA)
    @pytest.mark.parametrize("threshold", [31, 97])
    def test_safe_point_states_match(self, monkeypatch, quantum, threshold):
        module = compile_source(MIXED_SRC, "mixed.chpl")
        hits = overflow_landings(module, threshold=threshold, quantum=quantum)
        assert hits["branch"] > 0, "no overflow landed on a stretch-closing branch"
        assert hits["budget_end"] > 0, "no overflow landed as the budget ran out"
        fast = run_traced(
            module, "fast", monkeypatch, threshold=threshold, quantum=quantum
        )
        gen = run_traced(
            module, "generic", monkeypatch, threshold=threshold, quantum=quantum
        )
        assert fast[2] is None and gen[2] is None
        assert fast[1] == gen[1]
        assert len(fast[0]) == len(gen[0])
        for at, (f, g) in enumerate(zip(fast[0], gen[0])):
            assert f == g, f"state differs at safe point {at}"
        assert fast[3] == gen[3]
        assert fast[4] == gen[4]

    @pytest.mark.parametrize("quantum", QUANTA)
    def test_fault_mid_stretch_matches(self, monkeypatch, quantum):
        # 7 / d faults in the middle of a straight-line run; at one of
        # these thresholds an overflow lands on the instruction before it,
        # so the fault opens a fresh stretch right after a stack walk.
        module = compile_source(FAULT_SRC, "fault.chpl")
        landed = 0
        for threshold in (9, 19):
            landed += overflow_landings(
                module, threshold=threshold, quantum=quantum
            )["before_fault"]
            fast = run_traced(
                module, "fast", monkeypatch, threshold=threshold, quantum=quantum
            )
            gen = run_traced(
                module, "generic", monkeypatch, threshold=threshold, quantum=quantum
            )
            assert gen[2] is not None and "integer division by zero" in gen[2]
            assert fast[2] == gen[2]
            assert fast[1] == gen[1]
            assert fast[0] == gen[0]
            assert fast[3:] == gen[3:]
        assert landed > 0, "no overflow landed just before the fault"


#: Instruction kinds the fast engine runs inside straight-line stretches.
STRETCH_KINDS = (
    I.Alloca, I.Load, I.Store, I.FieldAddr, I.ElemAddr, I.TupleElemAddr,
    I.BinOp, I.UnOp, I.Cast, I.Br, I.CBr, I.MakeRange, I.MakeTuple,
    I.TupleGet, I.IterNext, I.IterValue,
)


class TestSingleStepCount:
    @pytest.mark.parametrize("threshold,skid", [(None, 0), (97, 0), (97, 3)])
    def test_only_transfers_and_delegated_take_single_steps(
        self, monkeypatch, threshold, skid
    ):
        # Count guard, no timing: the single-step path must run exactly
        # the calls, returns, spawns and delegated instructions the
        # program executes (every instruction under skid), so a plain
        # Load/Store/BinOp sent down the slow path fails here
        # deterministically.
        module = compile_source(MIXED_SRC, "mixed.chpl")
        gen = Interpreter(module, num_threads=4, engine="generic")
        executed = Counter()
        for kind, handler in list(gen._dispatch.items()):

            def counted(thread, task, frame, instr, _h=handler, _k=kind):
                executed[_k] += 1
                return _h(thread, task, frame, instr)

            gen._dispatch[kind] = counted
        gen.run()
        expected = sum(
            n
            for kind, n in executed.items()
            if skid or not issubclass(kind, STRETCH_KINDS)
        )
        assert executed[I.Call] and executed[I.Ret] and executed[I.SpawnJoin]

        # The quantum loop single-steps instruction i exactly when its
        # plan has run_end[i] == i; count the steps it runs there.
        single_steps = [0]
        build_plan = FastEngine._build_plan

        def counting_plan(self, block):
            blk, steps, run_end = build_plan(self, block)

            def counted(step):
                def single(thread, task, frame):
                    single_steps[0] += 1
                    return step(thread, task, frame)

                return single

            steps = [
                counted(step) if run_end[i] == i else step
                for i, step in enumerate(steps)
            ]
            return blk, steps, run_end

        monkeypatch.setattr(FastEngine, "_build_plan", counting_plan)
        monitor = Monitor(PMUConfig(threshold=threshold)) if threshold else None
        result = Interpreter(
            module,
            num_threads=4,
            monitor=monitor,
            sample_threshold=threshold,
            skid=skid,
            engine="fast",
        ).run()
        assert result.instructions_executed == sum(executed.values())
        assert single_steps[0] == expected


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
