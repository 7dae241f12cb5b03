"""Scheduler goldens: pinned sample-stream digests and cycle totals.

Both engines share ``Interpreter._event_loop``, so fast-vs-generic
identity cannot see a change in *which thread runs next*: a reordered
pick would move both engines the same way.  These goldens pin the
absolute outcome instead — the SHA-256 of ``Monitor.sealed_stream()``
plus total/busy/idle cycles and ``instructions_executed`` — for the
three paper benchmarks at small configs with 12 threads, two PMU
thresholds, and skid 0 and 3 with and without compensation, plus one
run that ``StopSampling`` truncates mid-collection (read back through
``build_run_result`` as the adaptive driver does).

Regenerate (only for an intended semantic change) with::

    PYTHONPATH=src python tests/runtime/test_scheduler_golden.py
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from repro.bench.programs import clomp, lulesh, minimd
from repro.compiler.lower import compile_source
from repro.runtime.interpreter import Interpreter
from repro.sampling.adaptive import StopSampling
from repro.sampling.dataset import _sample_to_json, crc_line
from repro.sampling.monitor import Monitor
from repro.sampling.pmu import PMUConfig

THREADS = 12

PROGRAMS = {
    "minimd": (minimd.build_source(), {"numBins": 4, "perBin": 4, "steps": 1}),
    "clomp": (clomp.build_source(), {"numParts": 4, "zonesPerPart": 6, "timesteps": 1}),
    "lulesh": (lulesh.build_source(lulesh.ORIGINAL), {"edgeElems": 2, "maxSteps": 1}),
}

#: (threshold, skid, skid_compensation)
SETTINGS = [
    (threshold, skid, comp)
    for threshold in (53, 199)
    for skid, comp in ((0, False), (3, False), (3, True))
]

_modules: dict[str, object] = {}


def _module(program: str):
    if program not in _modules:
        src, _ = PROGRAMS[program]
        _modules[program] = compile_source(src, f"{program}.chpl")
    return _modules[program]


def _rebase(samples, module):
    """Renumbers iids from 1, as a fresh process compiling this module
    first would: iids come from a process-global counter, so the raw
    values depend on what the test session compiled before."""
    shift = min(
        ins.iid for fn in module.functions.values() for b in fn.blocks
        for ins in b.instructions
    ) - 1

    def frames(stack):
        return tuple((f, iid - shift if iid >= 0 else iid) for f, iid in stack)

    return [
        replace(
            s,
            stack=frames(s.stack),
            leaf_iid=s.leaf_iid - shift if s.leaf_iid >= 0 else s.leaf_iid,
            pre_spawn_stack=(
                frames(s.pre_spawn_stack) if s.pre_spawn_stack is not None else None
            ),
        )
        for s in samples
    ]


def _sealed(samples) -> str:
    data = "".join(crc_line("s", _sample_to_json(s)) + "\n" for s in samples)
    return hashlib.sha256(data.encode()).hexdigest()


def _outcome(interp, result, samples) -> dict:
    return {
        "stream": _sealed(_rebase(samples, interp.module)),
        "n": len(samples),
        "total": result.total_cycles,
        "busy": result.busy_cycles,
        "idle": result.idle_cycles,
        "instrs": result.instructions_executed,
    }


def run_digest(program, threshold, skid, comp, engine="fast") -> dict:
    _, config = PROGRAMS[program]
    monitor = Monitor(PMUConfig(threshold=threshold))
    interp = Interpreter(
        _module(program),
        config=config,
        num_threads=THREADS,
        monitor=monitor,
        sample_threshold=threshold,
        skid=skid,
        skid_compensation=comp,
        engine=engine,
    )
    result = interp.run()
    assert monitor.sealed_stream().decode() == "".join(
        crc_line("s", _sample_to_json(s)) + "\n" for s in monitor.samples
    )
    return _outcome(interp, result, monitor.samples)


def truncated_digest(engine="fast") -> dict:
    """MiniMD at threshold 53 with a sink that stops at the first round
    of 1000 samples, from the fifth on, that a busy thread's overflow
    filled — so the unwind leaves from inside a quantum."""
    _, config = PROGRAMS["minimd"]
    seen = []
    rounds = [0]

    def sink(batch):
        seen.extend(batch)
        rounds[0] += 1
        if rounds[0] >= 5 and not batch[-1].is_idle:
            raise StopSampling("test", rounds[0])

    monitor = Monitor(PMUConfig(threshold=53), sink=sink, batch_size=1000)
    interp = Interpreter(
        _module("minimd"),
        config=config,
        num_threads=THREADS,
        monitor=monitor,
        sample_threshold=53,
        engine=engine,
    )
    with pytest.raises(StopSampling):
        interp.run()
    return _outcome(interp, interp.build_run_result(), seen)


GOLDEN = {'clomp:199:0:0': {'busy': 88038.0,
                   'idle': 331065.0,
                   'instrs': 15013,
                   'n': 2102,
                   'stream': '23e863df99dabfaf022c9b445d0b0cbb1caf8f5785dac640aef89227a55d3dca',
                   'total': 503183.0},
 'clomp:199:3:0': {'busy': 88038.0,
                   'idle': 331042.0,
                   'instrs': 15013,
                   'n': 2102,
                   'stream': 'd06af2f3d26cfa633d6243b5c4a37f750f09e95a9078a647bb4d0737598df580',
                   'total': 503160.0},
 'clomp:199:3:1': {'busy': 88038.0,
                   'idle': 331042.0,
                   'instrs': 15013,
                   'n': 2102,
                   'stream': '983558b4cfbf36afb834b4810b154e97ecab65f033d5a356f3eb76fdd50cfff1',
                   'total': 503160.0},
 'clomp:53:0:0': {'busy': 88038.0,
                  'idle': 348790.0,
                  'instrs': 15013,
                  'n': 8238,
                  'stream': 'e28faa20c05175d5091d33c5c2d2ff5cc97c3cdbd108f33fdefc50ed0cd028e0',
                  'total': 766348.0},
 'clomp:53:3:0': {'busy': 88038.0,
                  'idle': 347864.0,
                  'instrs': 15013,
                  'n': 8214,
                  'stream': 'f422c228793f9b1aef56789dcb324da9737b88f0ff9d73a9263a6baeefafb505',
                  'total': 764462.0},
 'clomp:53:3:1': {'busy': 88038.0,
                  'idle': 347864.0,
                  'instrs': 15013,
                  'n': 8214,
                  'stream': '4590c233cbc2961e9bef8671f63015fc0392f10c4487ef8824642467c9ec96f7',
                  'total': 764462.0},
 'lulesh:199:0:0': {'busy': 520326.6099999973,
                    'idle': 1084643.5010000346,
                    'instrs': 95148,
                    'n': 8061,
                    'stream': 'c98809c97fcece49a3004e63668ddd68ac080e6bd493adbbfed662f725bbc968',
                    'total': 1927410.1110001032},
 'lulesh:199:3:0': {'busy': 520326.6099999933,
                    'idle': 1083763.501000035,
                    'instrs': 95148,
                    'n': 8053,
                    'stream': 'e3636e2fe9ab34ecdbbbfd72c1325a15242fe47fea108f343d0203972a9a6b53',
                    'total': 1926210.1110001036},
 'lulesh:199:3:1': {'busy': 520326.6099999933,
                    'idle': 1083763.501000035,
                    'instrs': 95148,
                    'n': 8053,
                    'stream': 'd23d0440607c1d88f82369719b660bc62c30ed7ec2c6632a9541201e947a9fda',
                    'total': 1926210.1110001036},
 'lulesh:53:0:0': {'busy': 520326.6099999969,
                   'idle': 1183323.5010000258,
                   'instrs': 95148,
                   'n': 32138,
                   'stream': 'c1778575a7ef22a580a598907e574347e95d00830b670dd75364c25225f64845',
                   'total': 2989170.1110000764},
 'lulesh:53:3:0': {'busy': 520326.6099999969,
                   'idle': 1183083.5010000258,
                   'instrs': 95148,
                   'n': 32134,
                   'stream': 'f389d9366f725fe5faa830683dea3f84e59f88d7a9528b42a35ab1df7305cbec',
                   'total': 2988770.1110000764},
 'lulesh:53:3:1': {'busy': 520326.6099999969,
                   'idle': 1183083.5010000258,
                   'instrs': 95148,
                   'n': 32134,
                   'stream': '8c1c87780e4493c2cc70d04dd76a793157256db282e403095b93e0e03f58edf3',
                   'total': 2988770.1110000764},
 'minimd:199:0:0': {'busy': 158452.0,
                    'idle': 491993.0,
                    'instrs': 20644,
                    'n': 3264,
                    'stream': 'cee9fc8e056ab485aa7d6ffbb9f8e9196794e24f537e464db515551337be5d5e',
                    'total': 781005.0},
 'minimd:199:3:0': {'busy': 158452.0,
                    'idle': 491498.0,
                    'instrs': 20644,
                    'n': 3264,
                    'stream': 'b4a09528390de008150852f92c90cbf2bbf08c3e44d3562509deec87f99123b9',
                    'total': 780510.0},
 'minimd:199:3:1': {'busy': 158452.0,
                    'idle': 491498.0,
                    'instrs': 20644,
                    'n': 3264,
                    'stream': '6a11d1c3ad7ed269f020e28db2ff2f7d58ead37dea2fca3b87186b40286d66db',
                    'total': 780510.0},
 'minimd:53:0:0': {'busy': 158452.0,
                   'idle': 587985.0,
                   'instrs': 20644,
                   'n': 14077,
                   'stream': '8fe89b9167378ce7105790b2a779bf422ecbec1abd59b145f44e982c8f261d0e',
                   'total': 1309517.0},
 'minimd:53:3:0': {'busy': 158452.0,
                   'idle': 585832.0,
                   'instrs': 20644,
                   'n': 14040,
                   'stream': 'e7840997e8fac6a3a8f8b014637ddc41d74c80fb2f5d96bbc70fb02b34a9755f',
                   'total': 1305884.0},
 'minimd:53:3:1': {'busy': 158452.0,
                   'idle': 585832.0,
                   'instrs': 20644,
                   'n': 14040,
                   'stream': '6259c3303cb38caac5072777afffc3831cb7828dce34b6389ea6a443e559be73',
                   'total': 1305884.0}}

TRUNCATED_GOLDEN = {'busy': 95174.0,
 'idle': 435152.0,
 'instrs': 10732,
 'n': 10000,
 'stream': '48cb76c00ca5c60ddece56ed09f0b04619682afc1e5423a62f4e4b929c51e232',
 'total': 930286.0}


@pytest.mark.parametrize("program", sorted(PROGRAMS))
@pytest.mark.parametrize("threshold,skid,comp", SETTINGS)
def test_fast_engine_matches_golden(program, threshold, skid, comp):
    got = run_digest(program, threshold, skid, comp)
    assert got == GOLDEN[f"{program}:{threshold}:{skid}:{int(comp)}"]


@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_generic_engine_matches_golden(program):
    got = run_digest(program, 53, 3, False, engine="generic")
    assert got == GOLDEN[f"{program}:53:3:0"]


@pytest.mark.parametrize("engine", ["fast", "generic"])
def test_stop_sampling_truncation_matches_golden(engine):
    got = truncated_digest(engine)
    assert 0 < got["n"] < GOLDEN["minimd:53:0:0"]["n"]
    assert got == TRUNCATED_GOLDEN


if __name__ == "__main__":
    import pprint

    out = {}
    for program in sorted(PROGRAMS):
        for threshold, skid, comp in SETTINGS:
            key = f"{program}:{threshold}:{skid}:{int(comp)}"
            out[key] = run_digest(program, threshold, skid, comp)
    print("GOLDEN = ", end="")
    pprint.pprint(out, sort_dicts=True)
    print("\nTRUNCATED_GOLDEN = ", end="")
    pprint.pprint(truncated_digest(), sort_dicts=True)
