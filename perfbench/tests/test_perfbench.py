"""The benchmark's own tests, on every workload at a tiny size.

Run with ``python3 -m pytest perfbench/tests -q`` from the checkout root.
References for the tiny jobs are made here with the oracle engine, the
same way ``python3 perfbench/run.py refs`` makes the stored ones.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import run  # noqa: E402
from perfbench.jobrun import oracle_engine  # noqa: E402
from perfbench.refs import make_references  # noqa: E402
from perfbench.workloads import WORKLOADS, job_stream, reference_jobs  # noqa: E402


@pytest.fixture(scope="module")
def refs(tmp_path_factory):
    return make_references(reference_jobs("tiny"), str(tmp_path_factory.mktemp("refs")))


def bench(workload, refs, seed=1):
    return run.Bench(workload, seed, "tiny", refs)


def test_sweep_draw_is_seeded():
    def first(seed, n=40):
        stream = job_stream("sweep", seed, "tiny")
        return [next(stream).key for _ in range(n)]

    assert first(1) == first(1)
    assert first(1) != first(2)
    # Every cycle runs each (family, variant, mode) once, whatever the seed.
    assert sorted(first(1, 26)) == sorted(first(2, 26))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_job_matches_its_reference(workload, refs, tmp_path):
    b = bench(workload, refs)
    loop = b.timed(0.0, str(tmp_path), trace=False)
    assert loop["attempted"] == 1
    assert loop["failures"] == []
    assert len(loop["rows"]) == 1


def test_corrupted_reference_raises_fail_rate(refs, tmp_path):
    broken = copy.deepcopy(refs)
    key = "lulesh-cold:tiny"
    broken[key]["views"]["data"] = "0" * 64
    b = bench("lulesh-cold", broken)
    loop = b.timed(0.0, str(tmp_path), trace=False)
    assert [f["job"] for f in loop["failures"]] == [key]
    assert "data view differs from the oracle's" in loop["failures"][0]["reasons"]
    result = run.build_result(b, loop, 0.0, 0, [1.0], 10.0, [])
    assert result["fail_rate"]["value"] == 1.0
    assert json.loads(run.result_line(result))["correct"] is False


def test_fast_output_must_match_plain_build(refs, tmp_path):
    broken = copy.deepcopy(refs)
    plain = "sweep:tiny:minimd:original:plain:c0"
    broken[plain]["output"] = ["energy 0.0"]
    b = bench("sweep", broken)
    b.jobs = iter([j for j in reference_jobs("tiny") if j.key == plain.replace("plain", "fast")])
    loop = b.timed(0.0, str(tmp_path), trace=False)
    assert loop["failures"][0]["reasons"] == ["--fast output differs from the plain build's"]


def traced_loop(workload, refs, tmp_path):
    """Two jobs, the second traced."""
    return bench(workload, refs).timed(0.0, str(tmp_path), trace=True, min_jobs=2)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_spans_cover_the_job(workload, refs, tmp_path):
    loop = traced_loop(workload, refs, tmp_path)
    assert [r["traced"] for r in loop["rows"]] == [False, True]
    tracer = loop["tracer"]
    for row in tracer.per_job().values():
        assert row["driver"] < 0.02 * row["total"], row
    expected = {"compile", "analyze", "collect", "postmortem", "attribute", "aggregate",
                "artifact.write", "artifact.read", "render", "advise", "driver"}
    if workload == "adaptive":
        expected.add("adaptive")
    assert expected <= set(tracer.layer_self_times())
    per_layer, table = run.per_layer(loop, refs)
    assert set(per_layer) == set(run.PER_LAYER)
    assert abs(sum(r["share"] for r in table.values()) - 1.0) < 1e-9


def test_adaptive_layer_metrics(refs, tmp_path):
    m, _ = run.per_layer(traced_loop("adaptive", refs, tmp_path), refs)
    assert m["adaptive.rounds"]["value"] >= 2
    assert 0.0 < m["adaptive.sample_fraction"]["value"] < 1.0
    assert m["adaptive.controller_share"]["value"] > 0.0


def test_chrome_trace_export(refs, tmp_path):
    loop = traced_loop("dense-sampling", refs, tmp_path)
    path = tmp_path / "trace.json"
    loop["tracer"].write_chrome_trace(str(path))
    events = json.loads(path.read_text())["traceEvents"]
    assert events and all(e["ph"] == "X" and e["dur"] >= 0 for e in events)
    assert {e["cat"] for e in events} >= {"collect", "postmortem", "driver"}


def test_known_failures_are_named(refs, tmp_path):
    known = {k["job"]: k["result"] for k in bench("sweep", refs).known_failures(str(tmp_path))}
    oracle = sorted(k for k in known if k.startswith("sweep:"))
    assert oracle == [
        "sweep:tiny:mttkrp:optimized:fast",
        "sweep:tiny:mttkrp:original:fast",
        "sweep:tiny:spmv:dense:fast",
        "sweep:tiny:spmv:optimized:fast",
        "sweep:tiny:spmv:original:fast",
    ]
    assert all(known[k].startswith("ExecutionError") for k in oracle)
    history = [k for k in known if k.startswith("history:")]
    assert len(history) == 2
    assert all(known[k] == "advice differs from a fresh module's" for k in history)


def test_oracle_engine_is_generic():
    from repro.compiler.lower import compile_source
    from repro.runtime.interpreter import Interpreter

    module = compile_source("proc main() { writeln(1); }", "t.chpl")
    with oracle_engine():
        assert Interpreter(module).engine == "generic"
    assert Interpreter(module).engine == "fast"


def _result(workload, layers, profile_s):
    return {"workload": workload,
            "layers": {k: {"self_s_per_job": v, "share": 0.0} for k, v in layers.items()},
            "metrics": {"profile_s": {"value": profile_s}, "replay_s": {"value": 0.01}}}


def test_diff_ranks_layers_by_change(tmp_path, capsys):
    old = tmp_path / "old.json"
    new = tmp_path / "new.json"
    old.write_text(json.dumps(_result("sweep", {"collect": 1.0, "analyze": 0.5}, 2.0)))
    new.write_text(json.dumps({"workloads": {
        "sweep": _result("sweep", {"collect": 0.9, "analyze": 0.1}, 1.5)}}))
    assert run.diff(str(old), str(new)) == 0
    lines = capsys.readouterr().out.splitlines()
    ranked = [line.split()[0] for line in lines if line.startswith("  ") and "s:" not in line]
    assert ranked[1:] == ["analyze", "collect"]


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
