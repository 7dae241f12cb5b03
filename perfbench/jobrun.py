"""One benchmark job through the public entry points, and its check.

A job has three timed phases, each what a user runs:

* ``profile`` — ``repro-profile profile -o X.cbp``: source text through
  ``Profiler(...).profile()`` to ``snapshot_from_result`` and
  ``write_artifact``;
* ``replay`` — ``repro-profile view --view all X.cbp``: ``read_artifact``
  and ``render_stage`` for the data, code and hybrid views;
* ``advise`` — ``repro-advise --profile``: the advisor passes over the
  job's module, findings ranked by the job's blame report.

The pipeline functions are called through their modules
(``artifact.write_artifact``, not a local name), so the traced run's
wrappers (:mod:`perfbench.spans`) see every call.
"""

from __future__ import annotations

import hashlib
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro import analysis, artifact
from repro.compiler import lower
from repro.pipeline import stages
from repro.runtime.interpreter import Interpreter
from repro.sampling.adaptive import AdaptiveConfig
from repro.sampling.dataset import source_digest
from repro.tooling.profiler import Profiler

from .spans import NullTracer
from .workloads import THREADS, Job

#: Output lines carrying simulated timings, which ``--fast`` changes.
TIMING_PREFIX = "elapsed"
VIEWS = ("data", "code", "hybrid", "advice")


@dataclass
class JobOutcome:
    """What one job produced and how long each phase took."""

    output: list[str]
    views: dict[str, str]
    profile_s: float
    replay_s: float
    advise_s: float
    counts: dict[str, float] = field(default_factory=dict)


def run_job(job: Job, workdir: str, tracer=None) -> JobOutcome:
    """Runs ``job`` end to end; raises whatever the pipeline raises."""
    tracer = tracer or NullTracer()
    path = os.path.join(workdir, "job.cbp")
    source = job.source()
    with tracer.span(f"job:{job.key}"):
        t0 = time.perf_counter()
        with tracer.span("profile"):
            if job.cold:
                program = lower.compile_source(source, job.filename, fresh_ids=True)
            else:
                program = source
            profiler = Profiler(
                program, filename=job.filename, config=job.config,
                num_threads=THREADS, threshold=job.threshold,
                fast=job.fast,
            )
            adaptive = None if job.ci_width is None else AdaptiveConfig(ci_width=job.ci_width)
            result = profiler.profile(adaptive=adaptive)
            snapshot = artifact.snapshot_from_result(
                result, source_sha256=source_digest(source),
                num_threads=THREADS, canonical_timings=True,
            )
            artifact.write_artifact(path, snapshot)
        t1 = time.perf_counter()
        with tracer.span("replay"):
            loaded = artifact.read_artifact(path)
            views = {
                "data": stages.render_stage(loaded, "data", top=20),
                "code": stages.render_stage(loaded, "code", top=20),
                "hybrid": stages.render_stage(loaded, "hybrid"),
            }
        t2 = time.perf_counter()
        with tracer.span("advise"):
            views["advice"], findings = advise(result, job.filename)
        t3 = time.perf_counter()
    trail = result.adaptive
    counts = {
        "ir_instrs": sum(1 for _ in result.module.all_instructions()),
        "instrs": result.run_result.instructions_executed,
        "samples": result.monitor.n_samples,
        "instances": len(result.postmortem.instances),
        "bytes": os.path.getsize(path),
        "findings": len(findings),
        "rounds": len(trail.rounds) if trail is not None else 0,
    }
    return JobOutcome(
        output=list(result.run_result.output), views=views,
        profile_s=t1 - t0, replay_s=t2 - t1, advise_s=t3 - t2, counts=counts,
    )


def advise(result, filename: str):
    """``repro-advise --profile``'s output for a profiled run: the hybrid
    view with ranked advice, then the findings report."""
    findings = analysis.rank_findings(analysis.analyze_module(result.module), result.report)
    text = "\n".join([
        stages.render_stage(result, "hybrid", findings=findings),
        analysis.render_findings(findings, title=f"Advisor report: {filename}"),
    ])
    return text, findings


def advice_after_history(job: Job, earlier: list[dict]) -> "tuple[str, str]":
    """Advice for ``job`` on one module first profiled at each config in
    ``earlier``, and on a fresh module; equal unless profiling leaves
    state behind that the advisor reads."""

    def advice(configs: list[dict]) -> str:
        module = lower.compile_source(job.source(), job.filename)
        for config in configs:
            result = Profiler(module, filename=job.filename, config=config,
                              num_threads=THREADS, threshold=job.threshold,
                              fast=job.fast and config is configs[0]).profile()
        return advise(result, job.filename)[0]

    return advice(earlier + [job.config]), advice([job.config])


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def untimed(lines: list[str]) -> list[str]:
    """Program output without its simulated-timing lines."""
    return [line for line in lines if not line.startswith(TIMING_PREFIX)]


def mismatches(job: Job, outcome: JobOutcome, refs: dict) -> list[str]:
    """Why ``outcome`` differs from the references (empty when it matches).

    The job must reproduce its own oracle run exactly (program output
    and every view), and a ``--fast`` job's output must equal its plain
    build's apart from simulated timings.
    """
    ref = refs.get(job.key)
    if ref is None:
        return [f"no reference for {job.key}"]
    problems = []
    if ref.get("error"):
        problems.append(f"oracle run failed: {ref['error']}")
    elif outcome.output != ref["output"]:
        problems.append("program output differs from the oracle's")
    for view in VIEWS:
        want = (ref.get("views") or {}).get(view)
        if want is not None and digest(outcome.views[view]) != want:
            problems.append(f"{view} view differs from the oracle's")
    if job.fast:
        plain = refs.get(job.plain_key)
        if plain is None or untimed(outcome.output) != untimed(plain["output"]):
            problems.append("--fast output differs from the plain build's")
    return problems


@contextmanager
def oracle_engine():
    """Makes every ``Interpreter`` built inside the block use the
    generic (reference) engine, whatever its caller asked for."""
    original = Interpreter.__init__

    def generic_init(self, *args, **kwargs):
        kwargs["engine"] = "generic"
        original(self, *args, **kwargs)

    Interpreter.__init__ = generic_init
    try:
        yield
    finally:
        Interpreter.__init__ = original
