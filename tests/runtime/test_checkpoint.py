"""Runtime module-state regressions: the runtime package keeps no
hidden cross-run state (S1: no process-global counters), and
``build_run_result`` copes with runs that never or barely executed
(S2).  Both are what makes a run restartable from a fresh interpreter
and repeatable inside one process."""

import ast
import pathlib

import pytest

from repro.compiler.lower import compile_source
from repro.runtime.interpreter import Interpreter
from repro.sampling.monitor import Monitor
from repro.sampling.pmu import PMUConfig

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
        assert first.n_accepted > 10
        assert first.sealed_stream() == second.sealed_stream()
        assert first_result.output == second_result.output
        assert (
            first_result.instructions_executed
            == second_result.instructions_executed
        )
