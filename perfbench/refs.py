"""Correctness references, made once with the oracle engine.

Every job any workload can run is profiled on the generic interpreter
engine (``Interpreter(engine="generic")``, the fast engine's oracle), and
its program output plus a SHA-256 of each view is stored in
``references.json`` beside this file.  Regenerate with::

    python3 perfbench/run.py refs

Views carry no instruction ids, so they compare across processes no
matter how many modules a process compiled earlier.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import replace

from .jobrun import digest, oracle_engine, run_job
from .workloads import Job, reference_jobs

REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")
REGENERATE = "python3 perfbench/run.py refs"


def reference_for(job: Job, workdir: str) -> dict:
    """One job's reference entry; an oracle failure is recorded, not raised.

    Every reference job compiles afresh, so no reference depends on what
    the generating process profiled before it.
    """
    from repro.errors import ReproError
    from repro.runtime.values import RuntimeError_

    try:
        with oracle_engine():
            out = run_job(replace(job, cold=True), workdir)
    except (ReproError, RuntimeError_) as exc:
        return {"output": None, "views": None, "samples": None,
                "error": f"{type(exc).__name__}: {str(exc).splitlines()[0]}"}
    entry = {
        "output": out.output,
        "views": {name: digest(text) for name, text in out.views.items()},
        "samples": out.counts["samples"],
        "error": None,
    }
    if job.ci_width is not None:
        # The full run's sample count: the base of adaptive.sample_fraction.
        with oracle_engine():
            full = run_job(replace(job, ci_width=None), workdir)
        entry["full_samples"] = full.counts["samples"]
    return entry


def make_references(jobs: list[Job], workdir: str | None = None, log=None) -> dict:
    """Oracle references for ``jobs``, keyed by job key."""
    refs: dict[str, dict] = {}
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        for job in jobs:
            refs[job.key] = reference_for(job, tmp)
            if log is not None:
                log(f"{job.key}: {refs[job.key]['error'] or 'ok'}")
    return refs


def write_references(refs: dict, path: str = REFS_PATH) -> None:
    doc = {"engine": "generic", "regenerate": REGENERATE, "jobs": refs}
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def load_references(path: str = REFS_PATH) -> dict:
    with open(path) as f:
        return json.load(f)["jobs"]


def regenerate(workdir: str) -> int:
    jobs = reference_jobs("full")
    refs = make_references(jobs, workdir, log=print)
    write_references(refs)
    print(f"[{len(refs)} references written to {REFS_PATH}]")
    return 0
