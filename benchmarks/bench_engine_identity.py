"""Fast engine vs generic loop on the two collection-heavy workloads.

The fast engine runs straight-line stretches with the thread's clock,
busy cycles and PMU count held in locals, so its exactness rests on
where those locals are written back.  This check runs both engines on
the repo benchmark's two collection-heavy jobs at full size —

* LULESH ORIGINAL at its default size, threshold 20011 (``lulesh-cold``);
* MiniMD at threshold 199, numBins=10 perBin=6 steps=3 (``dense-sampling``)

— and requires identical sealed sample streams (SHA-256 of
``Monitor.sealed_stream()``), cycle totals, per-thread clocks and
instruction counts.  It prints each engine's collection time, which is
informative only; the exit status is the identity verdict.

Run directly (``python benchmarks/bench_engine_identity.py``, exit 1 on
any difference) or via pytest (``pytest benchmarks/bench_engine_identity.py``).
"""

from __future__ import annotations

import hashlib
import sys
import time

from repro.bench.programs import lulesh, minimd
from repro.compiler.lower import compile_source
from repro.runtime.interpreter import Interpreter
from repro.sampling.monitor import Monitor
from repro.sampling.pmu import PMUConfig

NUM_THREADS = 12

JOBS = {
    "lulesh": (
        lambda: lulesh.build_source(lulesh.ORIGINAL),
        {"edgeElems": 4, "maxSteps": 2},
        20011,
    ),
    "minimd": (
        minimd.build_source,
        {"numBins": 10, "perBin": 6, "steps": 3, "neighborEvery": 1},
        199,
    ),
}


def collect(module, config, threshold, engine) -> tuple[dict, float]:
    monitor = Monitor(PMUConfig(threshold=threshold))
    interp = Interpreter(
        module,
        config=config,
        num_threads=NUM_THREADS,
        monitor=monitor,
        sample_threshold=threshold,
        engine=engine,
    )
    t0 = time.perf_counter()
    result = interp.run()
    seconds = time.perf_counter() - t0
    outcome = {
        "stream_sha256": hashlib.sha256(monitor.sealed_stream()).hexdigest(),
        "samples": len(monitor.samples),
        "total_cycles": result.total_cycles,
        "busy_cycles": result.busy_cycles,
        "idle_cycles": result.idle_cycles,
        "instructions": result.instructions_executed,
        "thread_clocks": [t.clock for t in interp.scheduler.threads],
        "output": result.output,
    }
    return outcome, seconds


def compare(name: str) -> list[str]:
    """Runs both engines on one job; returns the fields that differ."""
    source, config, threshold = JOBS[name]
    # One module for both runs: instruction ids are process-global.
    module = compile_source(source(), f"{name}.chpl")
    fast, fast_s = collect(module, config, threshold, "fast")
    gen, gen_s = collect(module, config, threshold, "generic")
    diffs = [k for k in fast if fast[k] != gen[k]]
    print(
        f"{name:7s} threshold {threshold:5d}: {fast['instructions']:,} instrs, "
        f"{fast['samples']:,} samples; fast {fast_s:.2f} s, generic {gen_s:.2f} s; "
        + ("IDENTICAL" if not diffs else "DIFFERS in " + ", ".join(diffs))
    )
    return diffs


def test_fast_engine_matches_generic():
    for name in JOBS:
        assert compare(name) == []


if __name__ == "__main__":
    failed = [name for name in JOBS if compare(name)]
    sys.exit(1 if failed else 0)
